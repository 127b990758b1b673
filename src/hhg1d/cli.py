"""
Command-line pipeline: every stage is a subcommand emitting plot-ready
files plus a reproducibility manifest.

    ground-state      solve and store the field-free ground state
    sample-env        draw disorder configurations
    run               propagate the ensemble and store records
    spectrum          harmonic spectrum from stored records
    gabor             time-frequency map from stored records
    purity            purity series and decay fit from stored snapshots
    density-map       |ρ(x,x')|² and ρ(x,x,t) maps from stored snapshots
    sfa               field-only recollision channels and cutoff scaling
    orbits            periodic orbits of the classical companion
    pair-correlation  scatterer distance histogram

Propagation happens once (`run`); every analysis command re-reads the
stored records and never mutates them.  Exit codes: 0 success, 2 bad
configuration, 3 missing or malformed upstream artifact, 4 numerical
failure.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import __version__
from .config import (ConfigError, RunConfig, load_config, parse_config,
                     render_config)
from .ensemble import (PropagationFailure, density_matrix_map,
                       probability_density_map, purity_series, run_ensemble)
from .model import potential_atom
from .sampler import pair_correlation, sample_ensemble, save_configurations, \
    load_configurations
from .semiclassics import (OrbitError, find_periodic_orbit, find_returns,
                           max_return_energy, quiver_guess, symmetry_partner)
from .spectra import fit_purity_decay, gabor, hhg_spectrum, in_fit_window
from .storage import (MalformedRecordError, Manifest, MissingArtifactError,
                      SnapshotSet, read_map, read_wavefunctions, write_csv,
                      write_map, write_wavefunctions)
from .tdse import ConvergenceError, ground_state

EXIT_CONFIG = 2
EXIT_MISSING = 3
EXIT_NUMERICAL = 4


def _start(args) -> tuple[RunConfig, Path, Manifest]:
    """Resolve the configuration and its command-line overrides, then create
    the output directory of a new product and its manifest."""
    cfg = load_config(args.config) if args.config else RunConfig()
    overrides = dict(master_seed=vars(args).get("seed"),
                     workers=vars(args).get("workers"), out_dir=args.out)
    try:
        cfg = replace(cfg, **{k: v for k, v in overrides.items()
                              if v is not None})
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return cfg, out, Manifest(out, render_config(cfg), cfg.master_seed)


def _finish(manifest: Manifest, paths) -> None:
    """Enter each output in the manifest and save it."""
    for path in paths:
        manifest.record_output(path)
    manifest.save()


def _floats(text: str, option: str) -> list[float]:
    try:
        values = [float(v) for v in text.split(",")]
        if np.all(np.isfinite(values)):
            return values
    except ValueError:
        pass
    raise ConfigError(f"{option} must be a comma-separated list of finite "
                      f"numbers, got {text!r}")


def cmd_ground_state(args) -> int:
    cfg, out, manifest = _start(args)
    grid = cfg.grid()
    psi, energy = ground_state(grid, lambda x: potential_atom(x, cfg.atom))
    write_csv(out / "ground_state.csv",
              {"x": grid.x, "density": np.abs(psi) ** 2,
               "potential": potential_atom(grid.x, cfg.atom)},
              "ground-state", manifest.checksum(),
              extra_comments=(f"energy_au: {energy:.12f}",))
    write_wavefunctions(out / "ground_state.bin", cfg.x_min, cfg.x_max,
                        [0.0], [psi])
    _finish(manifest, [out / "ground_state.csv", out / "ground_state.bin"])
    print(f"ground-state energy: {energy:.8f} a.u.")
    return 0


def cmd_sample_env(args) -> int:
    cfg, out, manifest = _start(args)
    configs = sample_ensemble(cfg.master_seed, cfg.n_c, cfg.structure)
    save_configurations(out / "environment.txt", configs, cfg.structure,
                        cfg.master_seed)
    _finish(manifest, [out / "environment.txt"])
    print(f"sampled {cfg.n_c} configurations -> {out / 'environment.txt'}")
    return 0


def cmd_run(args) -> int:
    cfg, out, manifest = _start(args)
    record = run_ensemble(cfg, workers=cfg.workers)
    config_txt, env_txt, mean_csv, accel_bin = paths = [
        out / "config.txt", out / "environment.txt", out / "mean_series.csv",
        out / "accel_configs.bin"]
    config_txt.write_text(render_config(cfg))
    save_configurations(env_txt, record.configs, cfg.structure,
                        cfg.master_seed)
    write_csv(mean_csv,
              {"t": record.times, "norm": record.norm.mean(axis=1),
               "x_expect": record.x_expect.mean(axis=1),
               "accel": record.accel.mean(axis=1)},
              "run", manifest.checksum(),
              extra_comments=(f"ground_energy_au: {record.ground_energy:.12f}",
                              f"n_c: {record.n_c}"))
    write_map(accel_bin, record.times, np.arange(record.n_c, dtype=float),
              record.accel, "t", "config")
    snap_dir = out / "snapshots"
    snap_dir.mkdir(exist_ok=True)
    for i in range(record.n_c):
        paths.append(snap_dir / f"config_{i:04d}.bin")
        write_wavefunctions(paths[-1], cfg.x_min, cfg.x_max,
                            record.snapshot_times, record.snapshots[:, i, :])
    # only what this run wrote: --out may hold files of an earlier run
    _finish(manifest, sorted(paths))
    print(f"ensemble of {record.n_c} configurations stored in {out}")
    return 0


class _Analysis:
    """The stored records an analysis command reads, through the files
    their manifest lists, and where its outputs go.

    Outputs are written to --out, or beside the records; only in the latter
    case are they entered in the manifest.  The output directory is created
    by the first `path` call, after the command's input checks.
    """

    def __init__(self, args):
        self.manifest = Manifest.load(args.records)
        self.cfg = parse_config(self.manifest.data["config"])
        self.grid = self.cfg.grid()
        self.rdir = Path(args.records)
        self.out = Path(args.out) if args.out else self.rdir

    def path(self, name: str) -> Path:
        self.out.mkdir(parents=True, exist_ok=True)
        return self.out / name

    def files(self, name: str) -> list[Path]:
        """The files the manifest lists under `name`, a file or a
        directory of the records, in name order."""
        files = [self.rdir / rel for rel in sorted(self.manifest.data[
            "outputs"]) if rel.split("/")[0] == name]
        if not files:
            raise MissingArtifactError(f"no {name} in {self.manifest.path}")
        return files

    def verify(self, *files: Path) -> None:
        """Warn for each of `files` whose digest no longer matches the
        manifest; only these files are hashed."""
        for name in self.manifest.verify_outputs(
                str(f.relative_to(self.rdir)) for f in files):
            print(f"warning: checksum mismatch for {name} (records were "
                  f"edited?)", file=sys.stderr)

    def accel(self, member: int | None) -> tuple[np.ndarray, np.ndarray]:
        """Time axis and the ensemble-mean or one member's acceleration."""
        path, = self.files("accel_configs.bin")
        self.verify(path)
        t_axis, _, accel, _, _ = read_map(path)
        if t_axis.size < 2 or accel.shape[1] == 0:
            raise MalformedRecordError(
                f"{path}: {t_axis.size} time row(s) and {accel.shape[1]} "
                f"configuration column(s); a spectrum needs at least 2 and 1")
        if member is None:
            return t_axis, accel.mean(axis=1)
        if not 0 <= member < accel.shape[1]:
            raise ConfigError(f"--member {member} is not a configuration "
                              f"index of these records (0..{accel.shape[1] - 1})")
        return t_axis, accel[:, member]

    def snapshots(self, window=None) -> tuple[np.ndarray, SnapshotSet]:
        """Snapshot times and the states of the `snapshots/` files that the
        manifest lists, read one (n_c, n) probe at a time; a fit `window`
        that holds no time of the first file is refused before any hashing.
        """
        files = self.files("snapshots")
        times = read_wavefunctions(files[0])[2]
        if window is not None and not np.any(in_fit_window(times, window)):
            raise MissingArtifactError(
                f"{self.rdir / 'snapshots'}: no snapshot time in the fit "
                f"window [{window[0]:g}, {window[1]:g}]")
        self.verify(*files)
        return times, SnapshotSet(files)

    def save(self, *paths: Path) -> None:
        if self.out == self.rdir:
            _finish(self.manifest, paths)


def cmd_spectrum(args) -> int:
    run = _Analysis(args)
    t_axis, series = run.accel(args.member)
    spec = hhg_spectrum(t_axis, series, run.cfg.laser, hann=args.hann)
    tag = f"member{args.member}" if args.member is not None else "mean"
    path = run.path(f"spectrum_{tag}.csv")
    write_csv(path, {"order": spec.orders, "magnitude": spec.magnitude},
              "spectrum", run.manifest.checksum(),
              extra_comments=(f"source: {tag}", f"hann: {args.hann}"))
    run.save(path)
    print(f"spectrum -> {path}")
    return 0


def cmd_gabor(args) -> int:
    if not 0 < args.d_order < np.inf:
        raise ConfigError(f"--d-order must be finite and > 0, "
                          f"got {args.d_order:g}")
    run = _Analysis(args)
    laser = run.cfg.laser
    # a column above the records' Nyquist order mirrors one below it
    nyquist = np.pi / (run.cfg.record_stride * run.cfg.dt * laser.omega_L)
    if not 0 <= args.max_order <= nyquist:
        raise ConfigError(f"--max-order must lie in [0, {nyquist:.1f}], the "
                          f"records' Nyquist order, got {args.max_order:g}")
    t_axis, series = run.accel(args.member)
    t_w = run.cfg.gabor_window_cycles * laser.period
    omegas = np.arange(0.0, args.max_order + 1e-9, args.d_order) \
        * laser.omega_L
    gmap = gabor(t_axis, series, t_w, omegas, laser=laser)
    path = run.path("gabor.bin")
    write_map(path, gmap.taus, gmap.omegas / laser.omega_L, gmap.values,
              "tau", "order")
    run.save(path)
    print(f"gabor map ({gmap.taus.size} x {gmap.omegas.size}) -> {path}")
    return 0


def cmd_purity(args) -> int:
    run = _Analysis(args)
    cfg = run.cfg
    window = (cfg.laser.n_up * cfg.laser.period, cfg.laser.duration)
    times, snaps = run.snapshots(window)
    t_axis, p_tot, p_ph = purity_series(times, snaps, run.grid, cfg.mask)
    # both fits before either file: a failed fit writes nothing
    fits = [fit_purity_decay(t_axis, series, window)
            for series in (p_tot, p_ph)]
    path = run.path("purity.csv")
    write_csv(path, {"t": t_axis, "purity_total": p_tot,
                     "purity_photoelectron": p_ph},
              "purity", run.manifest.checksum())
    for which, fit in zip(("total", "photoelectron"), fits):
        print(f"{which}: gamma={fit.gamma:.3f} t*={fit.t_star:.3f} fs "
              f"t0={fit.t0:.3f} fs residual={fit.residual_norm:.2e}")
    rows = {"which": [0.0, 1.0], "gamma": [f.gamma for f in fits],
            "t_star_fs": [f.t_star for f in fits],
            "t0_fs": [f.t0 for f in fits],
            "residual": [f.residual_norm for f in fits]}
    fit_path = run.path("purity_fit.csv")
    write_csv(fit_path, rows, "purity", run.manifest.checksum(),
              extra_comments=("which: 0 = total, 1 = photoelectron",))
    run.save(path, fit_path)
    return 0


def cmd_density_map(args) -> int:
    if (args.x_lo is None) != (args.x_hi is None):
        raise ConfigError("--x-lo and --x-hi must be given together")
    if args.stride < 1:
        raise ConfigError(f"--stride must be >= 1, got {args.stride}")
    if args.time is not None and not np.isfinite(args.time):
        raise ConfigError(f"--time must be finite, got {args.time:g}")
    run = _Analysis(args)
    grid = run.grid
    x_range = None
    if args.x_lo is not None:
        if not grid.x_min <= args.x_lo < args.x_hi <= grid.x_max:
            raise ConfigError(f"--x-lo/--x-hi must satisfy {grid.x_min:g} <= "
                              f"x-lo < x-hi <= {grid.x_max:g}")
        if not np.any((grid.x >= args.x_lo) & (grid.x <= args.x_hi)):
            raise ConfigError(f"--x-lo/--x-hi select no grid point "
                              f"(spacing {grid.dx:g})")
        x_range = (args.x_lo, args.x_hi)

    times, snaps = run.snapshots()
    idx = int(np.argmin(np.abs(times - args.time))) if args.time is not None \
        else len(times) // 2
    dmap = density_matrix_map(snaps[idx], grid,
                              mask=run.cfg.mask if args.masked else None,
                              x_range=x_range, stride=args.stride)
    # both maps before either file: a bad record at any probe writes nothing
    pmap = probability_density_map(times, snaps, grid)
    dpath = run.path("density_matrix.bin")
    write_map(dpath, dmap.row_axis, dmap.col_axis, dmap.values, "x", "x'")
    ppath = run.path("probability_density.bin")
    write_map(ppath, pmap.row_axis, pmap.col_axis, pmap.values, "t", "x")
    run.save(dpath, ppath)
    print(f"density matrix at t={times[idx]:.2f} -> {dpath}")
    print(f"probability density map -> {ppath}")
    return 0


def cmd_sfa(args) -> int:
    ells = _floats(args.ell_list, "--ell-list")
    if not all(ell >= 0 for ell in ells):
        raise ConfigError(f"--ell-list distances must be >= 0, got {ells}")
    if not 0 < args.horizon < np.inf:
        raise ConfigError(f"--horizon must be finite and > 0 cycles, "
                          f"got {args.horizon:g}")
    if args.launches < 1:
        raise ConfigError(f"--launches must be >= 1, got {args.launches}")
    cfg, out, manifest = _start(args)
    laser = cfg.laser
    emax, paths = [], []
    launches = np.linspace(0.0, laser.period, args.launches, endpoint=False)
    for ell in ells:
        returns = [find_returns(t_i, ell, laser, horizon=args.horizon)
                   for t_i in launches]
        t_r, e_r, side = map(np.concatenate, zip(*returns))
        t_i = np.repeat(launches, [r[0].size for r in returns])
        path = out / f"sfa_returns_ell{ell:g}.csv"
        write_csv(path, {"t_i": t_i, "t_r": t_r, "e_r": e_r,
                         "side": side.astype(float)},
                  "sfa", manifest.checksum(),
                  extra_comments=(f"ell_au: {ell}",))
        paths.append(path)
        emax.append(max_return_energy(ell, laser, horizon=args.horizon,
                                      n_launch=args.launches))
    epath = out / "sfa_emax.csv"
    write_csv(epath, {"ell": np.array(ells), "e_max": np.array(emax)},
              "sfa", manifest.checksum())
    _finish(manifest, paths + [epath])
    print(f"return maps for ell = {ells} -> {out}")
    return 0


def cmd_orbits(args) -> int:
    anchors = _floats(args.anchors, "--anchors")
    cfg, out, manifest = _start(args)
    lines = []
    for anchor in anchors:
        t0 = anchor * cfg.laser.period
        orbit = find_periodic_orbit(quiver_guess(t0, cfg.laser), t0,
                                    cfg.laser, cfg.atom)
        partner = symmetry_partner(orbit, cfg.laser, cfg.atom)
        for name, orb in (("orbit", orbit), ("partner", partner)):
            m = orb.monodromy
            lines += [
                f"[{name} anchor={anchor:g}]",
                f"t0_au = {orb.t0:.12g}",
                f"x = {orb.z_star[0]:.12g}",
                f"p = {orb.z_star[1]:.12g}",
                f"monodromy = {m[0, 0]:.12g} {m[0, 1]:.12g} "
                f"{m[1, 0]:.12g} {m[1, 1]:.12g}",
                f"classification = {orb.classification}",
                f"residual = {orb.residual:.3e}",
                "",
            ]
        print(f"anchor {anchor} T_L: z* = ({orbit.z_star[0]:.6f}, "
              f"{orbit.z_star[1]:.6f}), {orbit.classification}, "
              f"|tr M| = {abs(np.trace(orbit.monodromy)):.4f}")
    path = out / "orbits.txt"
    path.write_text("\n".join(lines))
    _finish(manifest, [path])
    return 0


def cmd_pair_correlation(args) -> int:
    if not (0 < args.bin_width < np.inf and 0 < args.r_max < np.inf):
        raise ConfigError(f"--bin-width and --r-max must be finite and > 0, "
                          f"got {args.bin_width:g} and {args.r_max:g}")
    run = _Analysis(args)
    env, = run.files("environment.txt")
    run.verify(env)
    configs, _ = load_configurations(env)
    edges, mass = pair_correlation(configs, args.bin_width, args.r_max)
    centers = 0.5 * (edges[:-1] + edges[1:])
    path = run.path("pair_correlation.csv")
    write_csv(path, {"r": centers, "mass": mass}, "pair-correlation",
              run.manifest.checksum())
    run.save(path)
    print(f"pair correlation from {len(configs)} configurations -> {path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hhg1d",
        description="strong-field dynamics of a 1D atom in a disordered "
                    "scattering environment")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, *overrides, records=False):
        """A subcommand of --records, or of --config and its overrides."""
        p = sub.add_parser(name)
        if records:
            p.add_argument("--records", required=True,
                           help="directory whose manifest lists the inputs")
        else:
            p.add_argument("--config", help="configuration file")
        if "seed" in overrides:
            p.add_argument("--seed", type=int, help="override master seed")
        if "workers" in overrides:
            p.add_argument("--workers", type=int, help="worker processes")
        p.add_argument("--out", help="output directory")
        p.set_defaults(handler=fn)
        return p

    add("ground-state", cmd_ground_state)
    add("sample-env", cmd_sample_env, "seed")
    add("run", cmd_run, "seed", "workers")

    p = add("spectrum", cmd_spectrum, records=True)
    p.add_argument("--member", type=int, help="single configuration index")
    p.add_argument("--hann", action="store_true")

    p = add("gabor", cmd_gabor, records=True)
    p.add_argument("--member", type=int)
    p.add_argument("--max-order", type=float, default=60.0)
    p.add_argument("--d-order", type=float, default=0.25)

    add("purity", cmd_purity, records=True)

    p = add("density-map", cmd_density_map, records=True)
    p.add_argument("--time", type=float, help="snapshot time (a.u.)")
    p.add_argument("--x-lo", type=float)
    p.add_argument("--x-hi", type=float)
    p.add_argument("--stride", type=int, default=1)
    p.add_argument("--masked", action="store_true")

    p = add("sfa", cmd_sfa)
    p.add_argument("--ell-list", default="0")
    p.add_argument("--horizon", type=float, default=1.5)
    p.add_argument("--launches", type=int, default=2000)

    p = add("orbits", cmd_orbits)
    p.add_argument("--anchors", default="2.0,2.5",
                   help="orbit anchor times in laser cycles")

    p = add("pair-correlation", cmd_pair_correlation, records=True)
    p.add_argument("--bin-width", type=float, default=0.5)
    p.add_argument("--r-max", type=float, default=80.0)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except FileNotFoundError as exc:  # MissingArtifactError among them
        print(f"missing artifact: {exc}", file=sys.stderr)
        return EXIT_MISSING
    except MalformedRecordError as exc:
        print(f"missing artifact: malformed record file: {exc}",
              file=sys.stderr)
        return EXIT_MISSING
    except (PropagationFailure, ConvergenceError, OrbitError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
