"""
Traced run of the hhg1d benchmark: spans around calls into each module.

Timing wrappers are installed where the caller looks a name up (`cli`
imports with `from ... import`, so `hhg1d.cli.gabor` is patched, not
`hhg1d.spectra.gabor`).  Each span records (id, parent, name, start, end,
pid, run id, work); spans stay in memory and are written out when the run
ends.  A span's self time is its duration minus the part of it that its
children cover.
"""

from __future__ import annotations

import functools
import os
import statistics
from collections import defaultdict
from pathlib import Path
from time import perf_counter

import numpy as np

def _nbytes_in(args, kwargs, result):
    return 2 * np.asarray(args[0]).nbytes      # the transform reads and writes


def _batch(args, kwargs, result):
    shape = np.shape(args[0])
    return int(np.prod(shape[:-1])) if len(shape) > 1 else 1


def _gram_gflop(args, kwargs, result):
    a = np.atleast_2d(args[0])
    return 8.0 * a.shape[0] ** 2 * a.shape[1] / 1e9


def _gabor_terms(args, kwargs, result):
    times, t_w = np.asarray(args[0]), args[2]
    lo = np.searchsorted(times, result.taus - 0.5 * t_w, side="right")
    hi = np.searchsorted(times, result.taus + 0.5 * t_w, side="left")
    return float(np.sum(np.maximum(hi - lo, 0)) * result.omegas.size)


def _file_size(args, kwargs, result):
    return os.path.getsize(args[0])


class Tracer:
    """Spans of the calls made in this process."""

    def __init__(self, out_dir: Path):
        self.out_dir = Path(out_dir)
        self.out_dir.mkdir(parents=True, exist_ok=True)
        self.spans: list[tuple] = []
        self.stack: list[int] = []
        self.counter = 0
        self.run_id = 0
        self.keys: dict[str, set] = defaultdict(set)
        self.patched: list[tuple] = []

    def _open(self) -> tuple[int, int | None]:
        self.counter += 1
        sid = self.counter
        parent = self.stack[-1] if self.stack else None
        self.stack.append(sid)
        return sid, parent

    def call(self, name: str, fn, /, *args, work=None, key=None, **kwargs):
        """Run fn inside a span; `work` computes the span's work count."""
        sid, parent = self._open()
        t0 = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            t1 = perf_counter()
            self.stack.pop()
        amount = work(args, kwargs, result) if work else 0.0
        self.spans.append((sid, parent, name, t0, t1, os.getpid(),
                           self.run_id, float(amount)))
        if key is not None:
            self.keys[name].add(key(args))
        return result

    def wrap(self, owner, attr: str, name: str, **opts) -> None:
        """Replace owner.attr by a timing wrapper.  A missing name raises:
        skipping it would read as a layer that takes no time."""
        original = getattr(owner, attr)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            return self.call(name, original, *args, **opts, **kwargs)

        setattr(owner, attr, wrapper)
        self.patched.append((owner, attr, original))

    def install(self) -> None:
        import scipy.fft

        import hhg1d.cli as cli
        import hhg1d.ensemble as ensemble
        import hhg1d.semiclassics as semiclassics
        import hhg1d.storage as storage
        import hhg1d.tdse as tdse
        w = self.wrap
        w(tdse, "field_at", "model.field_at")
        w(scipy.fft, "fft", "tdse.fft", work=_nbytes_in)
        w(scipy.fft, "ifft", "tdse.fft", work=_nbytes_in)
        w(tdse, "step", "tdse.step", work=_batch)
        w(ensemble, "propagate", "tdse.propagate")
        w(ensemble, "ground_state", "tdse.ground_state")
        w(cli, "run_ensemble", "ensemble.run_ensemble")
        w(ensemble, "purity", "ensemble.purity", work=_gram_gflop)
        for attr in ("purity_series", "density_matrix_map",
                     "probability_density_map"):
            w(cli, attr, f"ensemble.{attr}")
        w(cli, "gabor", "spectra.gabor", work=_gabor_terms)
        w(cli, "hhg_spectrum", "spectra.hhg_spectrum")
        w(cli, "fit_purity_decay", "spectra.fit_purity_decay")
        for owner in (cli, semiclassics):
            w(owner, "find_returns", "semiclassics.find_returns",
              key=lambda a: (float(a[0]), float(a[1])))
        for owner, attr in ((cli, "max_return_energy"),
                            (cli, "find_periodic_orbit"),
                            (semiclassics, "monodromy"),
                            (semiclassics, "classical_flow")):
            w(owner, attr, f"semiclassics.{attr}")
        w(cli, "write_wavefunctions", "storage.write_wavefunctions",
          work=_file_size)
        w(cli, "read_wavefunctions", "storage.read_wavefunctions",
          work=_file_size)
        w(cli, "write_map", "storage.write_map")
        w(cli, "read_map", "storage.read_map")
        w(storage, "sha256_of", "storage.sha256_of", work=_file_size)

    def restore(self) -> None:
        for owner, attr, original in reversed(self.patched):
            setattr(owner, attr, original)
        self.patched.clear()

    def collect(self) -> list[tuple]:
        """Write the spans out and return them."""
        with open(self.out_dir / "spans.tsv", "w") as fh:
            fh.writelines(f"{s[0]}\t{s[1]}\t{s[2]}\t{s[3]!r}\t{s[4]!r}\t"
                          f"{s[5]}\t{s[6]}\t{s[7]!r}\n" for s in self.spans)
        return self.spans


def _covered(lo: float, hi: float, intervals: list[tuple[float, float]]):
    """Length of [lo, hi] covered by the union of the intervals."""
    total, end = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, end), min(b, hi)
        if b > a:
            total += b - a
            end = b
    return total


def layer_metrics(spans: list[tuple], keys: dict[str, set]) -> dict:
    """Per-layer metrics (without the fixed-shape and overhead entries)."""
    by_name: dict[str, list] = defaultdict(list)
    children: dict[int, list] = defaultdict(list)
    for s in spans:
        by_name[s[2]].append(s)
        if s[1] is not None:
            children[s[1]].append((s[3], s[4]))

    def calls(name):
        return len(by_name[name])

    def seconds(name):
        return sum(s[4] - s[3] for s in by_name[name])

    def work(name):
        return sum(s[7] for s in by_name[name])

    def self_s(name):
        return sum((s[4] - s[3]) - _covered(s[3], s[4], children[s[0]])
                   for s in by_name[name])

    blocks = [s[4] - s[3] for s in by_name["tdse.propagate"]]
    step_configs = work("tdse.step")
    m = {
        "model.field_at.calls": calls("model.field_at"),
        "model.field_at.s": seconds("model.field_at"),
        "tdse.step.calls": calls("tdse.step"),
        "tdse.step.s": seconds("tdse.step"),
        "tdse.step.self_s": self_s("tdse.step"),
        "tdse.fft.calls": calls("tdse.fft"),
        "tdse.fft.s": seconds("tdse.fft"),
        "tdse.fft.bytes_computed": work("tdse.fft"),
        "tdse.propagate.self_s": self_s("tdse.propagate"),
        "tdse.ground_state.s": seconds("tdse.ground_state"),
        "tdse.us_per_config_step": (seconds("tdse.step") / step_configs * 1e6
                                    if step_configs else 0.0),
        "ensemble.run_ensemble.s": seconds("ensemble.run_ensemble"),
        "ensemble.block_s.max": max(blocks, default=0.0),
        "ensemble.pool_overhead_s": (
            seconds("ensemble.run_ensemble") - seconds("tdse.ground_state")
            - max(blocks, default=0.0)) if blocks else 0.0,
        "ensemble.purity.calls": calls("ensemble.purity"),
        "ensemble.purity.s": seconds("ensemble.purity"),
        "ensemble.purity.gflop_computed": work("ensemble.purity"),
        "spectra.gabor.terms_computed": work("spectra.gabor"),
        "semiclassics.find_returns.calls":
            calls("semiclassics.find_returns"),
        "semiclassics.find_returns.useful_ratio":
            (len(keys["semiclassics.find_returns"])
             / calls("semiclassics.find_returns"))
            if calls("semiclassics.find_returns") else 0.0,
        "semiclassics.monodromy.calls": calls("semiclassics.monodromy"),
        "semiclassics.classical_flow.calls":
            calls("semiclassics.classical_flow"),
        "storage.write_wavefunctions.bytes":
            work("storage.write_wavefunctions"),
        "storage.read_wavefunctions.bytes":
            work("storage.read_wavefunctions"),
        "storage.sha256_of.bytes": work("storage.sha256_of"),
    }
    for name in ("ensemble.purity_series", "ensemble.density_matrix_map",
                 "ensemble.probability_density_map", "spectra.gabor",
                 "spectra.hhg_spectrum", "spectra.fit_purity_decay",
                 "semiclassics.find_returns",
                 "semiclassics.max_return_energy",
                 "semiclassics.find_periodic_orbit",
                 "semiclassics.monodromy", "semiclassics.classical_flow",
                 "storage.write_wavefunctions", "storage.write_map",
                 "storage.read_wavefunctions", "storage.read_map",
                 "storage.sha256_of", "cli.spectrum", "cli.density_map"):
        m[f"{name}.s"] = seconds(name)
    return m


# fixed (batch, grid) shapes of one BM4 step: the gas run, a batched run at
# the reduced point and the full-scale `run` default; no workload runs the
# last two
STEP_SHAPES = {"b1_n1024": (1, False), "b32_n1024": (32, False),
               "b16_n8192": (16, True)}


def step_shape_metrics(point: dict, budget_s: float) -> dict:
    """µs per config-step of `tdse.step` at the fixed shapes; the median of
    five timed chunks, each about budget_s / 15 long."""
    from hhg1d.config import RunConfig
    from hhg1d.model import AtomParams, LaserParams, potential_atom
    from hhg1d import tdse

    reduced = LaserParams(F_L=point["F_L"], omega_L=point["omega"],
                          n_up=point["n_up"], n_plateau=point["n_plateau"],
                          n_down=point["n_down"])
    full = RunConfig()
    out = {}
    for label, (m, full_scale) in STEP_SHAPES.items():
        if full_scale:
            grid = tdse.Grid(full.x_min, full.x_max, full.n_grid)
            laser, dt = full.laser, full.dt
        else:
            grid = tdse.Grid(point["x_min"], point["x_max"], 1024)
            laser, dt = reduced, point["dt"]
        v = np.tile(potential_atom(grid.x, AtomParams()), (m, 1))
        plan = tdse.PropagatorPlan(grid, dt, v, laser,
                                   mask=tdse.absorber_mask(grid))
        psi = np.tile(np.exp(-0.5 * grid.x ** 2).astype(complex), (m, 1))
        t0 = perf_counter()
        psi = tdse.step(psi, 0.0, plan)
        per_step = perf_counter() - t0
        steps = max(2, int(budget_s / 15 / max(per_step, 1e-6)))
        chunks = []
        for _ in range(5):
            t, t0 = 0.0, perf_counter()
            for _ in range(steps):
                psi = tdse.step(psi, t, plan)
                t += dt
            chunks.append((perf_counter() - t0) / (steps * m) * 1e6)
        out[f"tdse.step.us_per_config_step.{label}"] = statistics.median(chunks)
    return out
