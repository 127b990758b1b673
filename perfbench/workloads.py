"""
Workloads of the hhg1d benchmark.

Each workload is a closed loop with one client: a pass runs `hhg1d` CLI
commands one after another, each in a fresh process, on inputs the
benchmark generates from its seed.  This module holds those inputs (the
configuration text and, for `records_analysis`, synthetic records written
through `hhg1d.storage`), the commands of one pass, and the check of each
command's outputs.  A command whose check fails counts as a failed
operation.

All workloads share the acceptance suite's reduced point (`liquid_spec`):
F_L = 0.075, ω_L = 0.057, 2-4-2 trapezoid, grid ±160 with 1024 points,
dt = 0.05, record_stride = 2, n_p = 16, A_E = 0.8, σ_E = 0.5.  The `tiny`
scale exists only for the harness self-test.
"""

from __future__ import annotations

import json
import math
import shutil
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from hhg1d.ensemble import MaskSpec
from hhg1d.storage import (Manifest, read_csv, read_map, write_csv, write_map,
                           write_wavefunctions)

HERE = Path(__file__).resolve().parent
REFERENCES = HERE / "references.json"

# laser, grid and environment of each scale; keys follow the config format
POINTS = {
    "reduced": dict(F_L=0.075, omega=0.057, n_up=2, n_plateau=4, n_down=2,
                    x_min=-160.0, x_max=160.0, n=1024, dt=0.05,
                    record_stride=2, n_p=16, A_E=0.8, sigma_E=0.5),
    "tiny": dict(F_L=0.075, omega=0.057, n_up=1, n_plateau=0, n_down=1,
                 x_min=-80.0, x_max=80.0, n=256, dt=0.1,
                 record_stride=2, n_p=4, A_E=0.8, sigma_E=0.5),
}
# configurations per workload and scale
N_C = {
    "reduced": {"gas_run": 1, "records_analysis": 256},
    "tiny": {"gas_run": 1, "records_analysis": 8},
}
SFA_ARGS = {"reduced": ["--ell-list", "0,40"],
            "tiny": ["--ell-list", "0,40", "--launches", "200"]}
ORBIT_ARGS = {"reduced": [], "tiny": ["--anchors", "2.0"]}
ODD_ORDERS = np.arange(1, 40, 2)
PEAK_RTOL = 1e-6        # roundoff-admitting; the run is deterministic
ORACLE_RTOL = 1e-9


def config_text(point: dict, n_c: int, master_seed: int, A_E: float) -> str:
    """Run configuration in the `hhg1d` key = value format."""
    p = point
    return "\n".join([
        "[laser]",
        f"F_L = {p['F_L']!r}", f"omega = {p['omega']!r}",
        f"n_up = {p['n_up']}", f"n_plateau = {p['n_plateau']}",
        f"n_down = {p['n_down']}",
        "[environment]",
        f"A_E = {A_E!r}", f"sigma_E = {p['sigma_E']!r}",
        "a = 10.0", "sigma = 1.0", f"n_p = {p['n_p']}",
        "[grid]",
        f"x_min = {p['x_min']!r}", f"x_max = {p['x_max']!r}",
        f"n = {p['n']}", f"dt = {p['dt']!r}",
        f"record_stride = {p['record_stride']}",
        "[ensemble]",
        f"n_c = {n_c}", f"master_seed = {master_seed}",
    ]) + "\n"


def laser_numbers(point: dict) -> tuple[float, float, float]:
    """(ω_L, period, pulse duration) of a point."""
    omega = point["omega"]
    period = 2.0 * math.pi / omega
    cycles = point["n_up"] + point["n_plateau"] + point["n_down"]
    return omega, period, cycles * period


def n_steps(point: dict) -> int:
    return int(round(laser_numbers(point)[2] / point["dt"]))


def load_references() -> dict:
    return json.loads(REFERENCES.read_text()) if REFERENCES.exists() else {}


class CheckFailure(Exception):
    """An output of a command does not match its oracle or reference."""


def _require(ok, message: str):
    if not ok:
        raise CheckFailure(message)


@dataclass
class Op:
    """One CLI command of a pass and the check of what it wrote."""

    name: str
    argv: list[str]
    check: Callable[[], None]


@dataclass
class Workload:
    name: str
    scale: str
    seed: int
    work: Path
    point: dict = field(init=False)
    n_c: int = field(init=False)

    def __post_init__(self):
        self.point = POINTS[self.scale]
        self.n_c = N_C[self.scale][self.name]
        self.work.mkdir(parents=True, exist_ok=True)

    # -- hooks every workload provides --
    def setup_ops(self) -> list[Op]:
        """Make the inputs from the seed; returns set-up CLI commands."""
        raise NotImplementedError

    def reset(self) -> None:
        """Bring the inputs back to their post-set-up state before a pass."""
        raise NotImplementedError

    def ops(self) -> list[Op]:
        raise NotImplementedError

    def computed(self) -> dict:
        """Work one pass does, computed from the shapes, not measured."""
        raise NotImplementedError

    def reference(self, key: str):
        refs = load_references().get(self.scale, {})
        if key not in refs:
            raise CheckFailure(f"no reference '{key}' recorded for scale "
                               f"{self.scale}")
        return refs[key]


def spectrum_peaks(times: np.ndarray, accel: np.ndarray, omega: float,
                   orders=ODD_ORDERS) -> np.ndarray:
    """Peak |DFT|/√N of a series within (q - 1/2, q + 1/2) per order q."""
    dt = times[1] - times[0]
    mag = np.abs(np.fft.rfft(accel)) / np.sqrt(accel.size)
    axis = 2.0 * np.pi * np.fft.rfftfreq(accel.size, d=dt) / omega
    return np.array([mag[(axis > q - 0.5) & (axis < q + 0.5)].max()
                     for q in orders])


# ---------------------------------------------------------------- runs ----

class GasRun(Workload):
    """`hhg1d run --workers 1` at the reduced point with A_E = 0 and one
    configuration: the batch-of-one BM4 step, where per-call overhead and
    `field_at` weigh most, with no process pool.  Set-up writes the
    configuration and lets `sample-env` parse it and draw the environment
    once."""

    @property
    def cfg(self) -> Path:
        return self.work / "run.cfg"

    @property
    def records(self) -> Path:
        return self.work / "records"

    def setup_ops(self) -> list[Op]:
        self.cfg.write_text(config_text(self.point, self.n_c, self.seed, 0.0))
        env = self.work / "env"
        shutil.rmtree(env, ignore_errors=True)

        def check():
            _require((env / "environment.txt").is_file(),
                     "sample-env wrote no environment.txt")
        return [Op("sample-env", ["sample-env", "--config", str(self.cfg),
                                  "--out", str(env)], check)]

    def reset(self) -> None:
        shutil.rmtree(self.records, ignore_errors=True)

    def ops(self) -> list[Op]:
        return [Op("run", ["run", "--config", str(self.cfg),
                           "--out", str(self.records), "--workers", "1"],
                   self.check_run)]

    def check_run(self) -> None:
        cols, _ = read_csv(self.records / "mean_series.csv")
        for name in ("t", "norm", "x_expect", "accel"):
            _require(np.all(np.isfinite(cols[name])),
                     f"mean_series.csv: non-finite {name}")
        final = cols["norm"][-1]
        _require(0.0 < final <= 1.0, f"final norm {final!r} outside (0, 1]")
        peaks = spectrum_peaks(cols["t"], cols["accel"], self.point["omega"])
        # no disorder (A_E = 0), so one reference serves every seed
        ref = np.array(self.reference(self.name))
        bad = ~np.isclose(peaks, ref, rtol=PEAK_RTOL,
                          atol=PEAK_RTOL * 1e-3 * ref.max())
        _require(not np.any(bad),
                 f"odd-harmonic peaks differ from the reference at orders "
                 f"{ODD_ORDERS[bad].tolist()}")

    def computed(self) -> dict:
        steps = n_steps(self.point)
        n = self.point["n"]
        # 7 FFT pairs per BM4 step; each transform reads and writes m·n complex
        fft_bytes = steps * 14 * 2 * 16 * self.n_c * n
        return {"config_steps_computed": self.n_c * steps,
                "fft_bytes_computed": fft_bytes}


# ----------------------------------------------------- records analysis ----

def _trapezoid(t: np.ndarray, point: dict) -> np.ndarray:
    _, period, _ = laser_numbers(point)
    up, flat = point["n_up"] * period, point["n_plateau"] * period
    down = point["n_down"] * period
    return np.clip(np.minimum(t / up, (up + flat + down - t) / down), 0.0, 1.0)


def _no_subnormals(name: str, a: np.ndarray) -> None:
    """Denormal inputs slow BLAS several-fold; real propagated states never
    carry them, so synthetic records must not either."""
    for part in (a.real, a.imag) if np.iscomplexobj(a) else (a,):
        mag = np.abs(part)
        if np.any((mag > 0) & (mag < np.finfo(float).tiny)):
            raise RuntimeError(f"synthetic {name} holds subnormal values")


def dense_purity(states: np.ndarray) -> float:
    """‖ρ‖_F² / (tr ρ)² with ρ = Σ_i |ψ_i⟩⟨ψ_i| built densely."""
    rho = states.T @ states.conj()
    return float(np.sum(np.abs(rho) ** 2) / np.trace(rho).real ** 2)


def direct_gabor_row(times, d, tau, t_w, omegas) -> np.ndarray:
    """|∫ d(t) cos⁴(π(τ-t)/T_w) e^{-iωt} dt| summed over every sample."""
    u = tau - times
    w = np.where(np.abs(u) < 0.5 * t_w, np.cos(np.pi * u / t_w) ** 4, 0.0)
    dt = times[1] - times[0]
    return np.abs(np.exp(-1j * np.outer(omegas, times)) @ (d * w)) * dt


class RecordsAnalysis(Workload):
    """Six analysis commands over synthetic records of N_c configurations;
    no propagation.  Set-up writes the records through `hhg1d.storage`."""

    CHECK_PROBES = 3
    CHECK_TAUS = 4

    @property
    def cfg(self) -> Path:
        return self.work / "analysis.cfg"

    @property
    def records(self) -> Path:
        return self.work / "records"

    def setup_ops(self) -> list[Op]:
        self.cfg.write_text(config_text(self.point, self.n_c, self.seed,
                                        self.point["A_E"]))
        self.write_records()
        return []

    def write_records(self) -> None:
        p = self.point
        omega, period, duration = laser_numbers(p)
        rdir = self.records
        shutil.rmtree(rdir, ignore_errors=True)
        (rdir / "snapshots").mkdir(parents=True)
        manifest = Manifest(rdir, config_text(p, self.n_c, self.seed,
                                              p["A_E"]), self.seed)
        dt, stride, steps = p["dt"], p["record_stride"], n_steps(p)
        times = np.arange(0, steps + 1, stride) * dt
        probe = np.arange(0.0, duration + 0.25 * period / 8, period / 8)
        snap_times = np.unique(np.round(probe / dt).astype(int)) * dt
        x = p["x_min"] + (p["x_max"] - p["x_min"]) / p["n"] * np.arange(p["n"])

        rng = np.random.default_rng([self.seed, 0])
        orders = np.arange(1, 42, 2)
        phase = np.outer(times, orders * omega)
        basis = np.hstack([np.sin(phase), np.cos(phase)])
        amp = 10.0 ** (-orders / 12.0)[:, None] \
            * (1.0 + 0.2 * rng.standard_normal((orders.size, self.n_c)))
        ang = 2 * np.pi * rng.random((orders.size, self.n_c))
        coef = np.vstack([amp * np.cos(ang), amp * np.sin(ang)])
        accel = _trapezoid(times, p)[:, None] * (basis @ coef) \
            + 1e-7 * rng.standard_normal((times.size, self.n_c))
        decay = 1e-3 * rng.random(self.n_c)
        norm = 1.0 - np.outer(times / duration, decay)
        x_expect = np.outer(np.sin(omega * times), rng.uniform(-1, 1, self.n_c))
        config_axis = np.arange(self.n_c, dtype=float)
        for name, series in (("accel", accel), ("norm", norm),
                             ("x_expect", x_expect)):
            _no_subnormals(name, series)
            write_map(rdir / f"{name}_configs.bin", times, config_axis,
                      series, "t", "config")
        write_csv(rdir / "mean_series.csv",
                  {"t": times, "norm": norm.mean(axis=1),
                   "x_expect": x_expect.mean(axis=1),
                   "accel": accel.mean(axis=1)},
                  "run", manifest.checksum(),
                  extra_comments=(f"n_c: {self.n_c}",))

        # a bound part with a random phase, one outgoing packet and a 1e-6
        # floor; the floor is one table rolled by a random shift per
        # configuration, which keeps set-up time on the storage writers
        n_s = snap_times.size
        bound = np.exp(-0.5 * x ** 2 / 1.5)
        floor = 1e-6 * (rng.standard_normal((n_s, x.size))
                        + 1j * rng.standard_normal((n_s, x.size)))
        half = x.size // 6
        window = np.arange(-half, half)
        checked = np.linspace(0, n_s - 1, self.CHECK_PROBES).astype(int)
        kept = np.empty((checked.size, self.n_c, x.size), dtype=complex)
        for i in range(self.n_c):
            r = np.random.default_rng([self.seed, 1, i])
            states = np.roll(floor, r.integers(x.size), axis=1)
            states += np.outer((0.9 + 0.1 * r.random(n_s))
                               * np.exp(2j * np.pi * r.random(n_s)), bound)
            idx = r.integers(half, x.size - half, n_s)[:, None] + window
            k0 = r.uniform(-2.0, 2.0, (n_s, 1))
            xs = x[idx]
            states[np.arange(n_s)[:, None], idx] += 0.3 * np.exp(
                -0.5 * ((xs - x[idx[:, half:half + 1]]) / 6.0) ** 2
                + 1j * k0 * xs)
            _no_subnormals("snapshots", states)
            kept[:, i] = states[checked]
            write_wavefunctions(rdir / "snapshots" / f"config_{i:04d}.bin",
                                p["x_min"], p["x_max"], snap_times, states)
        for f in sorted(rdir.rglob("*")):
            if f.is_file():
                manifest.record_output(f)
        manifest.save()
        self.pristine = (rdir / "manifest.json").read_bytes()
        self.inputs = {"times": times, "mean_accel": accel.mean(axis=1),
                       "snap_times": snap_times, "checked": checked,
                       "kept": kept, "x": x}

    def reset(self) -> None:
        rdir = self.records
        keep = set(json.loads(self.pristine)["outputs"])
        for f in rdir.rglob("*"):
            rel = str(f.relative_to(rdir))
            if f.is_file() and rel not in keep and rel != "manifest.json":
                f.unlink()
        (rdir / "manifest.json").write_bytes(self.pristine)
        for d in ("sfa", "orbits"):
            shutil.rmtree(self.work / d, ignore_errors=True)

    def ops(self) -> list[Op]:
        r = str(self.records)
        cfg = str(self.cfg)
        return [
            Op("spectrum", ["spectrum", "--records", r], self.check_spectrum),
            Op("gabor", ["gabor", "--records", r], self.check_gabor),
            Op("purity", ["purity", "--records", r], self.check_purity),
            Op("density-map", ["density-map", "--records", r, "--masked"],
               self.check_density_map),
            Op("sfa", ["sfa", "--config", cfg, "--out", str(self.work / "sfa"),
                       *SFA_ARGS[self.scale]], self.check_sfa),
            Op("orbits", ["orbits", "--config", cfg,
                          "--out", str(self.work / "orbits"),
                          *ORBIT_ARGS[self.scale]], self.check_orbits),
        ]

    def check_spectrum(self) -> None:
        cols, _ = read_csv(self.records / "spectrum_mean.csv")
        d = self.inputs["mean_accel"]
        want = np.abs(np.fft.rfft(d)) / np.sqrt(d.size)
        _require(cols["magnitude"].shape == want.shape,
                 "spectrum_mean.csv has the wrong length")
        _require(np.allclose(cols["magnitude"], want, rtol=ORACLE_RTOL,
                             atol=ORACLE_RTOL * want.max()),
                 "spectrum differs from the direct DFT")

    def check_gabor(self) -> None:
        taus, orders, values, _, _ = read_map(self.records / "gabor.bin")
        omega, period, _ = laser_numbers(self.point)
        t_w = 0.35 * period
        rows = np.linspace(0, taus.size - 1, self.CHECK_TAUS).astype(int)
        for k in rows:
            want = direct_gabor_row(self.inputs["times"],
                                    self.inputs["mean_accel"], taus[k], t_w,
                                    orders * omega)
            _require(np.allclose(values[k], want, rtol=ORACLE_RTOL,
                                 atol=ORACLE_RTOL * max(want.max(), 1e-300)),
                     f"gabor row tau={taus[k]:.3f} differs from the direct "
                     "windowed transform")

    def check_purity(self) -> None:
        cols, _ = read_csv(self.records / "purity.csv")
        mask = MaskSpec().values(self.inputs["x"])
        for j, k in enumerate(self.inputs["checked"]):
            states = self.inputs["kept"][j]
            for col, s in (("purity_total", states),
                           ("purity_photoelectron", states * mask)):
                want = dense_purity(s)
                got = cols[col][k]
                _require(math.isclose(got, want, rel_tol=ORACLE_RTOL),
                         f"{col} at probe {k}: {got!r} vs dense oracle "
                         f"{want!r}")
        fit, _ = read_csv(self.records / "purity_fit.csv")
        _require(fit["gamma"].size == 2, "purity_fit.csv needs two rows")

    def check_density_map(self) -> None:
        times, xs, dens, _, _ = read_map(self.records /
                                         "probability_density.bin")
        _require(dens.shape == (self.inputs["snap_times"].size,
                                self.inputs["x"].size),
                 "probability_density.bin has the wrong shape")
        for j, k in enumerate(self.inputs["checked"]):
            want = np.mean(np.abs(self.inputs["kept"][j]) ** 2, axis=0)
            _require(np.allclose(dens[k], want, rtol=ORACLE_RTOL, atol=0.0),
                     f"probability density at probe {k} differs from "
                     "the ensemble mean of |psi|^2")
        _, _, rho2, _, _ = read_map(self.records / "density_matrix.bin")
        _require(np.all(np.isfinite(rho2)) and np.all(rho2 >= 0),
                 "density_matrix.bin holds negative or non-finite values")

    def check_sfa(self) -> None:
        cols, _ = read_csv(self.work / "sfa" / "sfa_emax.csv")
        f, w = self.point["F_L"], self.point["omega"]
        up = f * f / (4.0 * w * w)
        e0 = float(cols["e_max"][cols["ell"] == 0.0][0])
        _require(abs(e0 / up - 3.17) <= 0.02,
                 f"E_max(0)/U_p = {e0 / up:.4f}, expected 3.17 ± 0.02")
        _require(np.all(cols["e_max"][cols["ell"] > 0] > e0),
                 "off-site return energy does not exceed E_max(0)")

    def check_orbits(self) -> None:
        got = parse_orbits(self.work / "orbits" / "orbits.txt")
        ref = self.reference("orbits")
        _require([g["name"] for g in got] == [r["name"] for r in ref],
                 "orbits.txt lists other orbits than the reference")
        for g, r in zip(got, ref):
            _require(g["classification"] == r["classification"],
                     f"{g['name']}: classified {g['classification']}, "
                     f"reference {r['classification']}")
            _require(np.allclose([g["x"], g["p"]], [r["x"], r["p"]],
                                 rtol=1e-8, atol=1e-9),
                     f"{g['name']}: z* = ({g['x']}, {g['p']}) differs from "
                     f"the reference ({r['x']}, {r['p']})")

    def computed(self) -> dict:
        p = self.point
        omega, period, duration = laser_numbers(p)
        n_s = int(round(duration / (period / 8))) + 1
        n = p["n"]
        # masked and unmasked Gram matrix per probe: 8·N_c²·n real flops each
        gram = 2 * n_s * 8.0 * self.n_c ** 2 * n / 1e9
        times = np.arange(0, n_steps(p) + 1, p["record_stride"]) * p["dt"]
        taus = np.arange(times[0], times[-1] + 1e-12, period / 64.0)
        half = 0.175 * period
        lo = np.searchsorted(times, taus - half, side="right")
        hi = np.searchsorted(times, taus + half, side="left")
        # `hhg1d gabor` defaults: orders 0..60 in steps of 0.25
        n_omega = np.arange(0.0, 60.0 + 1e-9, 0.25).size
        return {"gram_gflop_computed": gram,
                "gabor_terms_computed": int(np.sum(hi - lo)) * n_omega,
                "snapshot_bytes_computed": n_s * self.n_c * n * 16}


def parse_orbits(path: Path) -> list[dict]:
    """Blocks of `hhg1d orbits` output: name, x, p and classification."""
    blocks = []
    for line in Path(path).read_text().splitlines():
        line = line.strip()
        if line.startswith("["):
            blocks.append({"name": line.strip("[]")})
        elif " = " in line and blocks:
            key, _, val = line.partition(" = ")
            if key in ("x", "p"):
                blocks[-1][key] = float(val)
            elif key == "classification":
                blocks[-1][key] = val
    return blocks


WORKLOADS = {"gas_run": GasRun, "records_analysis": RecordsAnalysis}
