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
                   PropagatorPlan, absorber_edges, absorber_mask,
                   check_ground_state_depth, ground_state, propagate)


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
class RunConfig:
    """Everything needed to reproduce one ensemble run and its analyses,
    with the full-scale reference values as defaults."""

    n_c: int = 1000
    master_seed: int = 1
    structure: StructureParams = StructureParams()
    perturber: PerturberParams = PerturberParams()
    laser: LaserParams = LaserParams()
    atom: AtomParams = AtomParams()
    x_min: float = -400.0
    x_max: float = 400.0
    n_grid: int = 8192
    dt: float = 0.02
    record_stride: int = 4
    mask: MaskSpec = MaskSpec()
    gabor_window_cycles: float = 0.35

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
        if not 0 < self.gabor_window_cycles < np.inf:
            raise ValueError(f"gabor_window_cycles must be finite and > 0, "
                             f"got {self.gabor_window_cycles}")
        grid = self.grid()      # raises for n < 2 or x_max <= x_min
        # the photoelectron mask must reach 1 before the absorber starts
        ramp_end = self.mask.r0 + 0.5 * self.mask.width
        left, right = absorber_edges(grid)
        band = min(-left, right)
        if ramp_end >= band:
            raise ValueError(f"mask_radius {self.mask.r0!r}: the mask ramp "
                             f"ends at |x| = {ramp_end:g}, in the absorber "
                             f"band, which starts at |x| = {band:g}")
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

    configs: list[EnvironmentConfig]
    ground_energy: float


def _propagate_block(cfg: RunConfig, configs: list[EnvironmentConfig],
                     psi0: np.ndarray, first_index: int) -> PropagationRecord:
    """Propagate a contiguous block of configurations as one batch."""
    grid = cfg.grid()
    x = grid.x
    v_static = np.stack([potential_atom(x, cfg.atom)
                         + potential_env(x, c, cfg.perturber) for c in configs])
    g_static = np.stack([gradient_atom(x, cfg.atom)
                         + gradient_env(x, c, cfg.perturber) for c in configs])
    plan = PropagatorPlan(grid, cfg.dt, v_static, cfg.laser,
                          mask=absorber_mask(grid))
    batch = np.tile(psi0, (len(configs), 1))
    try:
        return propagate(batch, plan, 0.0, cfg.laser.duration, g_static,
                         record_stride=cfg.record_stride,
                         probe_times=cfg.probe_times())
    except PropagationFailure as exc:
        raise PropagationFailure(first_index + exc.config_index,
                                 exc.step) from None


def run_ensemble(cfg: RunConfig, workers: int = 1) -> EnsembleRecord:
    """Sample n_c configurations (streams 0..n_c-1) and propagate them all.

    The gas-phase ground state is prepared once and reused for every
    configuration: the buffer zone keeps the environment's overlap with the
    bound state negligible.  Blocks are joined in configuration order.
    """
    configs = sample_ensemble(cfg.master_seed, cfg.n_c, cfg.structure)
    psi_g, e0 = ground_state(cfg.grid(),
                             lambda x: potential_atom(x, cfg.atom))

    bounds = np.linspace(0, cfg.n_c, min(workers, cfg.n_c) + 1).astype(int)
    blocks = [(cfg, configs[a:b], psi_g, int(a))
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
                          configs=configs, ground_energy=e0)


def _purity_of(gram: np.ndarray) -> float:
    """Σ_ij |g_ij|² / (Σ_i g_ii)² of a Hermitian Gram matrix given by its
    upper triangle (the strict lower one is zero): the off-diagonal sum is
    twice that over the triangle."""
    diag = gram.diagonal().real
    trace = float(np.sum(diag))
    if trace <= 0.0:
        raise ValueError("purity undefined: all states have zero mass")
    return float((2.0 * np.sum(np.abs(gram) ** 2) - np.sum(diag ** 2))
                 / trace**2)


# columns of the probe copied per zherk call: one copy of all columns (4 MB
# at 256 × 1024) made the allocator give back and fault in the heap again
# on every probe of a series, which cost more than the extra calls
GRAM_BLOCK = 128


def purity(probe: np.ndarray, dx: float,
           mask_values: np.ndarray | None = None) -> tuple[float, float]:
    """(P, P_masked): tr[ρ²]/tr[ρ]² of the uniform mixture of the states of
    one (n_c, n) probe, and of the same states times `mask_values`.

    With Gram entries g_ij = ⟨ψ_i|ψ_j⟩ dx, the normalized purity is
    Σ_ij |g_ij|² / (Σ_i g_ii)²; the 1/N_c mixture weights cancel.  Both
    Grams share the columns where the mask is exactly 1, so their Gram
    G_in is built once; then G = G_in + G_rest over the other columns, and
    G_masked = G_in + G_ramp over those of them with a non-zero weight,
    multiplied by it.  Each is built as its upper triangle only (BLAS
    zherk), from at most GRAM_BLOCK columns per call, and no product is
    formed for an empty set of columns.  Without a mask both purities are
    that of the states.  Raises if the states, or the masked states, all
    have zero mass.
    """
    # scipy.linalg takes 0.2 s to import; `hhg1d purity` imports it anyway
    # for its fit, the other commands need not
    from scipy.linalg.blas import zherk

    a = np.atleast_2d(np.asarray(probe, dtype=complex))
    w = np.ones(a.shape[1]) if mask_values is None \
        else np.asarray(mask_values, dtype=float)
    if w.shape != a.shape[1:]:
        raise ValueError(f"{w.size} mask values for {a.shape[1]} points")
    rest = np.flatnonzero(w != 1.0)
    ramp = rest[w[rest] != 0.0]

    def add_gram(gram, cols, weighted=False, in_place=False):
        """gram plus the Gram of the probe's columns `cols`, times their
        mask weights if `weighted`; `gram` is updated in place only if
        `in_place`."""
        for lo in range(0, cols.size, GRAM_BLOCK):
            block = cols[lo:lo + GRAM_BLOCK]
            b = a.take(block, axis=1)
            if weighted:
                b *= w[block]
            gram = zherk(dx, b.T, beta=1.0, c=gram, trans=2,
                         overwrite_c=in_place)
            in_place = True
        return gram

    g_in = add_gram(np.zeros((a.shape[0],) * 2, dtype=complex, order="F"),
                    np.flatnonzero(w == 1.0), in_place=True)
    p_total = _purity_of(add_gram(g_in, rest))
    return p_total, _purity_of(add_gram(g_in, ramp, True, in_place=True))


def purity_series(snapshots: np.ndarray, grid: Grid,
                  mask: MaskSpec | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Purity at each snapshot time, for the full state and the masked state.

    `snapshots` is an (n_s, n_c, n) array or any sequence of n_s (n_c, n)
    probes; probe k is taken once, for k = 0, 1, …, in order, and reduced
    to both purities by one `purity` call.  Returns (P_total, P_masked);
    without a mask the two series are equal.
    """
    mvals = mask.values(grid.x) if mask is not None else None
    p_tot = np.empty(len(snapshots))
    p_ph = np.empty(len(snapshots))
    for k in range(len(snapshots)):
        p_tot[k], p_ph[k] = purity(snapshots[k], grid.dx, mvals)
    return p_tot, p_ph


def density_matrix_map(snapshots: np.ndarray, grid: Grid,
                       mask: MaskSpec | None = None,
                       x_range: tuple[float, float] | None = None,
                       stride: int = 1) -> tuple[np.ndarray, np.ndarray]:
    """|ρ(x, x')|² of the mixture on a strided subgrid: (x, values), the
    subgrid's positions, which are both axes, and the (m, m) map.

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
    return grid.x[idx], np.abs(rho) ** 2


def probability_density_map(snapshots, grid: Grid) -> np.ndarray:
    """Ensemble-averaged |ψ(x, t)|², (n_s, n), of snapshots: an
    (n_s, n_c, n) array or any iterable of n_s (n_c, n) probes, taken once
    each, in order.

    One probe at a time, so no temporary as large as the snapshots exists.
    """
    return np.fromiter((np.mean(np.abs(probe) ** 2, axis=0)
                        for probe in snapshots), dtype=(float, grid.n))
