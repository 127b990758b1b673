"""
Ensemble propagation over disorder configurations and mixed-state analysis.

Each configuration X_i evolves as an independent pure state; the ensemble
density matrix is the uniform mixture ρ = (1/N_c) Σ |ψ_i⟩⟨ψ_i| and every
ensemble observable is the matching incoherent average.  Purity
tr[ρ²]/tr[ρ]² is evaluated through the N_c×N_c Gram matrix of state
overlaps, never through ρ itself: at 10⁴ grid points the dense matrix is
prohibitive, while the Gram route costs O(N_c²·n).  The dense construction
survives in the test suite as a small-scale oracle.

Configurations are split into contiguous index blocks; blocks may run in
separate worker processes, and each block propagates as one vectorized
batch.  Reductions always run in configuration-index order, so results are
bitwise independent of the worker count.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import (AtomParams, EnvironmentConfig, LaserParams,
                    PerturberParams, gradient_atom, gradient_env,
                    potential_atom, potential_env)
from .sampler import StructureParams, sample_ensemble
from .tdse import (Grid, PropagationFailure, PropagationRecord,
                   PropagatorPlan, absorber_mask, check_ground_state_depth,
                   ground_state, propagate)


@dataclass(frozen=True)
class MaskSpec:
    """Smooth spatial filter isolating the continuum part of the state.

    Rises 0→1 over a half-cosine ramp of width `width` centred at |x| = r0;
    identically 0 for |x| ≤ r0 - width/2, identically 1 beyond r0 + width/2.
    """

    r0: float = 5.0
    width: float = 2.0

    def __post_init__(self):
        if self.r0 <= 0 or self.width <= 0:
            raise ValueError("mask radius and width must be positive")
        if self.width / 2.0 >= self.r0:
            raise ValueError("mask ramp must not reach the origin")

    def values(self, x: np.ndarray) -> np.ndarray:
        r = np.abs(np.asarray(x, dtype=float))
        lo = self.r0 - 0.5 * self.width
        s = np.clip((r - lo) / self.width, 0.0, 1.0)
        return np.sin(0.5 * np.pi * s) ** 2


@dataclass(frozen=True)
class EnsembleSpec:
    """Everything needed to reproduce one ensemble run."""

    n_c: int = 1
    master_seed: int = 0
    structure: StructureParams = StructureParams()
    perturber: PerturberParams = PerturberParams()
    laser: LaserParams = LaserParams()
    atom: AtomParams = AtomParams()
    x_min: float = -400.0
    x_max: float = 400.0
    n_grid: int = 8192
    dt: float = 0.02
    record_stride: int = 4
    absorber_band: float = 0.1

    def __post_init__(self):
        if self.n_c < 1:
            raise ValueError("n_c must be >= 1")
        if self.master_seed < 0:
            raise ValueError(f"master_seed must be >= 0, "
                             f"got {self.master_seed}")
        if not self.dt > 0:
            raise ValueError(f"dt must be > 0, got {self.dt}")
        if self.record_stride < 1:
            raise ValueError("record_stride must be >= 1")
        if round(self.laser.duration / self.dt) < self.record_stride:
            raise ValueError(f"a pulse shorter than record_stride = "
                             f"{self.record_stride} steps records one sample")
        absorber_mask(self.grid(), self.absorber_band)  # raises if unusable
        try:
            check_ground_state_depth(float(potential_atom(0.0, self.atom)))
        except ValueError as exc:
            raise ValueError(f"softening {self.atom.softening!r}: "
                             f"{exc}") from None

    def grid(self) -> Grid:
        return Grid(self.x_min, self.x_max, self.n_grid)

    def probe_times(self) -> np.ndarray:
        """Snapshot times: every T_L/8 from 0 to the end of the pulse."""
        T = self.laser.period
        return np.arange(0.0, self.laser.duration + 0.25 * T / 8, T / 8)


@dataclass
class EnsembleRecord(PropagationRecord):
    """A batch propagation record of the ensemble: the configuration index
    is the last axis of the series, and axis 1 of the (n_s, n_c, n)
    snapshots."""

    spec: EnsembleSpec
    configs: list[EnvironmentConfig]
    ground_energy: float

    @property
    def n_c(self) -> int:
        return len(self.configs)


def _propagate_block(spec: EnsembleSpec, configs: list[EnvironmentConfig],
                     psi0: np.ndarray, first_index: int) -> PropagationRecord:
    """Propagate a contiguous block of configurations as one batch."""
    grid = spec.grid()
    x = grid.x
    v_static = np.stack([potential_atom(x, spec.atom)
                         + potential_env(x, c, spec.perturber) for c in configs])
    g_static = np.stack([gradient_atom(x, spec.atom)
                         + gradient_env(x, c, spec.perturber) for c in configs])
    plan = PropagatorPlan(grid, spec.dt, v_static, spec.laser,
                          mask=absorber_mask(grid, spec.absorber_band))
    batch = np.tile(psi0, (len(configs), 1))
    try:
        return propagate(batch, plan, 0.0, spec.laser.duration, g_static,
                         record_stride=spec.record_stride,
                         probe_times=spec.probe_times())
    except PropagationFailure as exc:
        raise PropagationFailure(first_index + exc.config_index,
                                 exc.step) from None


def run_ensemble(spec: EnsembleSpec, workers: int = 1) -> EnsembleRecord:
    """Sample n_c configurations (streams 0..n_c-1) and propagate them all.

    The gas-phase ground state is prepared once and reused for every
    configuration: the buffer zone keeps the environment's overlap with the
    bound state negligible.  Blocks are joined in configuration order.
    """
    configs = sample_ensemble(spec.master_seed, spec.n_c, spec.structure)
    psi_g, e0 = ground_state(spec.grid(),
                             lambda x: potential_atom(x, spec.atom))

    bounds = np.linspace(0, spec.n_c, min(workers, spec.n_c) + 1).astype(int)
    blocks = [(spec, configs[a:b], psi_g, int(a))
              for a, b in zip(bounds[:-1], bounds[1:]) if b > a]
    if len(blocks) == 1:
        parts = [_propagate_block(*blocks[0])]
    else:
        # imported here: a process without a pool needs no multiprocessing
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=len(blocks)) as pool:
            parts = list(pool.map(_propagate_block, *zip(*blocks)))
    # axis 1 is the configuration axis; a lone block is used without a copy
    joined = {name: np.concatenate([getattr(r, name) for r in parts], axis=1)
              if len(parts) > 1 else getattr(parts[0], name)
              for name in ("norm", "x_expect", "accel", "snapshots")}
    return EnsembleRecord(times=parts[0].times,
                          snapshot_times=parts[0].snapshot_times, **joined,
                          spec=spec, configs=configs, ground_energy=e0)


def purity(snapshots: np.ndarray, dx: float,
           mask_values: np.ndarray | None = None) -> float:
    """tr[ρ²]/tr[ρ]² of the uniform mixture of the given states.

    With Gram entries g_ij = ⟨ψ̃_i|ψ̃_j⟩ dx of the (optionally masked)
    states, the normalized purity is Σ_ij |g_ij|² / (Σ_i g_ii)²; the 1/N_c
    mixture weights cancel.  Raises if every masked state is zero.
    """
    a = np.atleast_2d(np.asarray(snapshots))
    if mask_values is not None:
        a = a * mask_values
    gram = (a.conj() @ a.T) * dx
    trace = float(np.trace(gram).real)
    if trace <= 0.0:
        raise ValueError("purity undefined: all states have zero mass")
    return float(np.sum(np.abs(gram) ** 2) / trace**2)


def purity_series(times: np.ndarray, snapshots: np.ndarray, grid: Grid,
                  mask: MaskSpec | None = None) -> tuple[np.ndarray, np.ndarray,
                                                         np.ndarray]:
    """Purity at each snapshot time, for the full state and the masked state.

    `snapshots` is an (n_s, n_c, n) array or any sequence of n_s (n_c, n)
    probes, aligned with `times`; each probe is taken once.  Returns
    (times, P_total, P_masked); the masked series is all-ones when no mask
    is given.
    """
    mvals = mask.values(grid.x) if mask is not None else None
    p_tot = np.empty(times.size)
    p_ph = np.ones(times.size)
    for k in range(times.size):
        probe = snapshots[k]
        p_tot[k] = purity(probe, grid.dx)
        if mvals is not None:
            p_ph[k] = purity(probe, grid.dx, mvals)
    return times, p_tot, p_ph


@dataclass
class SpatialMap:
    """2D field over two axes (time × position, or position × position)."""

    row_axis: np.ndarray
    col_axis: np.ndarray
    values: np.ndarray


def density_matrix_map(snapshots: np.ndarray, grid: Grid,
                       mask: MaskSpec | None = None,
                       x_range: tuple[float, float] | None = None,
                       stride: int = 1) -> SpatialMap:
    """|ρ(x, x')|² of the mixture on a strided subgrid.

    `snapshots` is one (n_c, n) probe.  ρ(x, x') = (1/N_c) Σ_i ψ_i(x)
    ψ_i*(x'); the subgrid bounds memory, which would otherwise grow as the
    square of the grid size.
    """
    a = np.atleast_2d(np.asarray(snapshots))
    if x_range is None:
        x_range = (grid.x_min, grid.x_max)
    if x_range[0] < grid.x_min or x_range[1] > grid.x_max:
        raise ValueError("requested region extends outside the grid")
    sel = (grid.x >= x_range[0]) & (grid.x <= x_range[1])
    idx = np.flatnonzero(sel)[::stride]
    sub = a[:, idx]
    if mask is not None:
        sub = sub * mask.values(grid.x[idx])
    rho = (sub.T @ sub.conj()) / a.shape[0]
    return SpatialMap(grid.x[idx], grid.x[idx], np.abs(rho) ** 2)


def probability_density_map(times: np.ndarray, snapshots: np.ndarray,
                            grid: Grid) -> SpatialMap:
    """Ensemble-averaged |ψ(x, t)|² of snapshots at `times`: an
    (n_s, n_c, n) array or any sequence of n_s (n_c, n) probes.

    One probe at a time, so no temporary as large as the snapshots exists.
    """
    dens = np.empty((len(snapshots), grid.n))
    for k, probe in enumerate(snapshots):
        dens[k] = np.mean(np.abs(probe) ** 2, axis=0)
    return SpatialMap(times, grid.x, dens)
