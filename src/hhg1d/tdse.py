"""
Grid propagation of a single conditioned state under

    i ∂_t ψ = [ p̂²/2 + V(x) + 𝒱(x) + x F(t) ] ψ

using a split-operator scheme: the kinetic factor is applied in momentum
representation (FFT), potential and field factors pointwise in position,
composed with the fourth-order coefficients from `splitting`.  The same
machinery run in imaginary time prepares the ground state.

All propagation routines accept either a single state of shape (n,) or a
batch of shape (m, n) and treat the last axis as the spatial grid; batching
keeps the FFT work vectorized when many disorder configurations propagate
side by side.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .model import LaserParams, field_at
from .splitting import DRIFT_COEFFS, KICK_COEFFS, KICK_TIMES


class ConvergenceError(RuntimeError):
    """Iteration cap exceeded or a non-finite estimate; carries the last one."""

    def __init__(self, message, last_value):
        super().__init__(message)
        self.last_value = last_value


class PropagationFailure(RuntimeError):
    """A non-finite norm; carries the configuration index and the step."""

    def __init__(self, config_index: int, step: int):
        super().__init__(config_index, step)    # args rebuild it unpickled
        self.config_index, self.step = config_index, step

    def __str__(self):
        return (f"propagation failed for configuration {self.config_index}: "
                f"norm not finite at step {self.step}")


@dataclass(frozen=True)
class Grid:
    """Uniform spatial grid with the matching FFT momentum grid."""

    x_min: float
    x_max: float
    n: int
    x: np.ndarray = field(init=False, repr=False, compare=False)
    p: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("grid needs at least 2 points")
        if self.x_max <= self.x_min:
            raise ValueError("x_max must exceed x_min")
        dx = (self.x_max - self.x_min) / self.n
        object.__setattr__(self, "x",
                           self.x_min + dx * np.arange(self.n))
        object.__setattr__(self, "p", 2.0 * np.pi * np.fft.fftfreq(self.n, d=dx))

    @property
    def dx(self) -> float:
        return (self.x_max - self.x_min) / self.n

    @property
    def p_max(self) -> float:
        """Nyquist momentum π/dx."""
        return np.pi / self.dx


def state_norm(psi: np.ndarray, dx: float):
    """Σ|ψ|² dx along the last axis."""
    return np.sum(np.abs(psi) ** 2, axis=-1) * dx


def overlap(psi_a: np.ndarray, psi_b: np.ndarray, dx: float):
    """⟨ψ_a|ψ_b⟩ along the last axis."""
    return np.sum(np.conj(psi_a) * psi_b, axis=-1) * dx


def absorber_mask(grid: Grid, band_fraction: float = 0.1) -> np.ndarray:
    """Real mask, 1 in the interior, cos^(1/8) decay to 0 over each edge band."""
    if not 0.0 < band_fraction < 0.5:
        raise ValueError("band_fraction must lie in (0, 0.5)")
    width = band_fraction * (grid.x_max - grid.x_min)
    left, right = grid.x_min + width, grid.x_max - width
    mask = np.ones(grid.n)
    s = np.where(grid.x < left, (left - grid.x) / width, 0.0)
    s = np.where(grid.x > right, (grid.x - right) / width, s)
    band = (s > 0) & (s < 1)
    mask[band] = np.cos(0.5 * np.pi * s[band]) ** 0.125
    mask[s >= 1] = 0.0
    return mask


class PropagatorPlan:
    """Precomputed tables for stepping states on one grid.

    Holds the kinetic phase factors for every drift coefficient, the kick
    factors of the static potential for every kick coefficient, the laser,
    the absorber mask (None disables absorption; `propagate`, not `step`,
    applies it in place) and the two position tables of the field phase:
    with b = ⌈√n⌉, `x_hi[q] = x_min + dx·b·q` and `x_lo[r] = dx·r`, so that
    x_j = x_hi[q] + x_lo[r] for j = b·q + r.  `static_potential` may be
    (n,) or (m, n) for a batch of environments sharing the grid.
    """

    def __init__(self, grid: Grid, dt: float, static_potential: np.ndarray,
                 laser: LaserParams, mask: np.ndarray | None = None):
        if dt == 0.0:
            raise ValueError("dt must be nonzero")
        self.grid, self.dt, self.laser, self.mask = grid, dt, laser, mask
        kin = -0.5j * dt * grid.p**2
        self.kinetic_factors = [np.exp(a * kin) for a in DRIFT_COEFFS]
        pot = -1j * dt * np.asarray(static_potential, dtype=float)
        self.static_kick_factors = [np.exp(b * pot) for b in KICK_COEFFS]
        self.kick_times = KICK_TIMES * dt
        b = math.isqrt(grid.n - 1) + 1
        self.x_hi = grid.x_min + grid.dx * b * np.arange(-(-grid.n // b))
        self.x_lo = grid.dx * np.arange(b)

    def field_phases(self, c: np.ndarray) -> np.ndarray:
        """e^{c_k·x_j} for every coefficient c_k, shape (len(c), n).

        Built as the outer product of e^{c_k·x_hi} and e^{c_k·x_lo}: 2⌈√n⌉
        complex exponentials per coefficient instead of n, equal to the
        direct exponential to roundoff.
        """
        phase = (np.exp(np.multiply.outer(c, self.x_hi))[:, :, None]
                 * np.exp(np.multiply.outer(c, self.x_lo))[:, None, :])
        return phase.reshape(c.size, -1)[:, :self.grid.n]


def step(psi: np.ndarray, t: float, plan: PropagatorPlan) -> np.ndarray:
    """Advance ψ(t) by one time step dt (no absorber).

    The field factor of kick k is evaluated at t plus the accumulated drift
    time, which keeps the composition fourth-order for the time-dependent
    coupling x·F(t).  One vector call of `field_at` gives the field F_k at
    all six kick times, and `plan.field_phases` builds the six phases
    e^{c_k·x}, c_k = -i·b_k·dt·F_k, from the plan's two √n-point tables.
    Multiplications run in place on a fresh copy, so the input array is
    left untouched.
    """
    # imported here, its only use: the analysis commands never step, and
    # would otherwise pay for loading scipy.fft at start-up
    import scipy.fft

    # The classical flow in `semiclassics` runs the same composition in its
    # own scalar loop: a drift/kick driver shared through callbacks made one
    # period of it 1.5x slower.
    field_phase = plan.field_phases(
        -1j * KICK_COEFFS * plan.dt * field_at(t + plan.kick_times,
                                               plan.laser))
    psi_k = scipy.fft.fft(psi, axis=-1)
    psi_k *= plan.kinetic_factors[0]
    psi = scipy.fft.ifft(psi_k, axis=-1, overwrite_x=True)
    for k in range(6):
        psi *= plan.static_kick_factors[k]
        psi *= field_phase[k]
        psi_k = scipy.fft.fft(psi, axis=-1, overwrite_x=True)
        psi_k *= plan.kinetic_factors[k + 1]
        psi = scipy.fft.ifft(psi_k, axis=-1, overwrite_x=True)
    return psi


@dataclass
class PropagationRecord:
    """Observables sampled along one propagation (leading axis = time)."""

    times: np.ndarray
    norm: np.ndarray          # ⟨ψ|ψ⟩
    x_expect: np.ndarray      # ⟨ψ|x̂|ψ⟩, not renormalized
    accel: np.ndarray         # -⟨ψ|V'+𝒱'|ψ⟩ - F(t)⟨ψ|ψ⟩, not renormalized
    snapshot_times: np.ndarray
    snapshots: np.ndarray     # (n_probe, ..., n) complex amplitudes


def propagate(psi0: np.ndarray, plan: PropagatorPlan, t_start: float,
              t_end: float, static_gradient: np.ndarray,
              record_stride: int = 4,
              probe_times: Sequence[float] = ()) -> PropagationRecord:
    """March from t_start to t_end, recording every `record_stride` steps.

    The plan's absorber mask, if any, multiplies each fresh stepped state
    in place.  The first record whose norm is not finite raises
    `PropagationFailure`, naming the batch row and the step.  Snapshots
    are stored at the step times closest to each requested probe time.
    `static_gradient` is d/dx of the static potential, needed by the
    acceleration recorder; shapes follow `static_potential` in the plan.
    """
    dt = plan.dt
    n_steps = int(round((t_end - t_start) / dt))
    if n_steps < 0:
        raise ValueError("schedule runs against the sign of dt")
    if record_stride < 1:
        raise ValueError("record_stride must be >= 1")
    x = plan.grid.x
    dx = plan.grid.dx
    grad = np.asarray(static_gradient, dtype=float)

    probe_times = np.asarray(sorted(probe_times), dtype=float)
    probe_steps = np.unique(np.round((probe_times - t_start) / dt).astype(int)) \
        if probe_times.size else np.empty(0, dtype=int)
    probe_steps = probe_steps[(probe_steps >= 0) & (probe_steps <= n_steps)]

    psi = np.asarray(psi0, dtype=complex).copy()
    n_rec = n_steps // record_stride + 1
    times = np.empty(n_rec)
    norm, x_expect, accel = (np.empty((n_rec,) + psi.shape[:-1])
                             for _ in range(3))
    probe_row = {int(s): j for j, s in enumerate(probe_steps)}
    snapshot_times = np.empty(len(probe_row))
    snapshots = np.empty((len(probe_row),) + psi.shape, dtype=complex)
    for k in range(n_steps + 1):
        if k:
            psi = step(psi, t_start + (k - 1) * dt, plan)
            if plan.mask is not None:
                psi *= plan.mask
        t_now = t_start + k * dt
        if k % record_stride == 0:
            j = k // record_stride
            dens = np.abs(psi) ** 2
            w = np.sum(dens, axis=-1) * dx
            if not np.isfinite(w).all():     # argmin: the first such row
                raise PropagationFailure(int(np.argmin(np.isfinite(w))), k)
            times[j], norm[j] = t_now, w
            x_expect[j] = np.sum(dens * x, axis=-1) * dx
            accel[j] = -np.sum(dens * grad, axis=-1) * dx
        if k in probe_row:
            snapshot_times[probe_row[k]] = t_now
            snapshots[probe_row[k]] = psi
    # the field term of every record in one call of `field_at`
    accel -= field_at(times, plan.laser).reshape(
        (-1,) + (1,) * (accel.ndim - 1)) * norm

    return PropagationRecord(times, norm, x_expect, accel, snapshot_times,
                             snapshots)


def kinetic_energy(psi: np.ndarray, grid: Grid):
    """⟨ψ|p̂²/2|ψ⟩ evaluated spectrally (per Parseval, dx/n weights)."""
    psi_k = np.fft.fft(psi, axis=-1)
    return np.sum(0.5 * grid.p**2 * np.abs(psi_k) ** 2, axis=-1) * grid.dx / grid.n


def rayleigh_energy(psi: np.ndarray, grid: Grid, potential: np.ndarray):
    """⟨ψ|H|ψ⟩ / ⟨ψ|ψ⟩ for the static Hamiltonian."""
    w = state_norm(psi, grid.dx)
    pot = np.sum(np.abs(psi) ** 2 * potential, axis=-1) * grid.dx
    return (kinetic_energy(psi, grid) + pot) / w


_GROUND_STATE_DTAUS = (0.5, 0.1, 0.02, 0.005)


def check_ground_state_depth(v_min: float) -> None:
    """Raise ValueError when the potential minimum v_min overflows the first
    imaginary-time stage: one iteration multiplies ψ by e^{-dτ·v_min/2}
    twice, and the norm then sums |ψ|², so e^{-2dτ·v_min} must be finite,
    or `ground_state` meets non-finite energies."""
    exponent = -2.0 * _GROUND_STATE_DTAUS[0] * v_min
    if exponent >= math.log(sys.float_info.max):
        raise ValueError(f"potential minimum {v_min:g} overflows the "
                         f"imaginary-time decay: |e^(-dτV)|² = "
                         f"e^{exponent:.6g} at dτ = {_GROUND_STATE_DTAUS[0]}")


def ground_state(grid: Grid, potential: Callable | np.ndarray,
                 max_iter: int = 20000) -> tuple[np.ndarray, float]:
    """Lowest eigenstate by imaginary-time split-operator propagation.

    The decay kernel is the Strang splitting e^{-dτV/2} e^{-dτT} e^{-dτV/2};
    in imaginary time every factor is a pure decay, so the iteration is
    stable on arbitrarily stiff grids (the fourth-order composition is not:
    its negative coefficients amplify roundoff through the potential kicks).
    Each stage (dτ = 0.5, 0.1, 0.02, 0.005) runs until the Rayleigh energy
    drifts by less than 1e-10 per step; shrinking dτ between stages removes
    the splitting bias, and the Rayleigh quotient is variational so the
    residual energy error is quadratic in the state error.  Returns (ψ, E):
    the normalized amplitudes on the grid and the energy.  A Rayleigh energy
    or drift that is not finite raises `ConvergenceError` at once, naming the
    stage's dτ and the iteration.
    """
    v = potential(grid.x) if callable(potential) else np.asarray(potential)
    if v.shape != (grid.n,):
        raise ValueError("potential shape does not match the grid")
    psi = np.exp(-grid.x**2 / 2.0).astype(complex)
    psi /= np.sqrt(state_norm(psi, grid.dx))
    energy = float(rayleigh_energy(psi, grid, v))
    total_iter = 0
    for dtau in _GROUND_STATE_DTAUS:
        kin_decay = np.exp(-0.5 * dtau * grid.p**2)
        pot_half = np.exp(-0.5 * dtau * v)
        while True:
            psi = pot_half * np.fft.ifft(kin_decay * np.fft.fft(pot_half * psi))
            psi /= np.sqrt(state_norm(psi, grid.dx))
            new_energy = float(rayleigh_energy(psi, grid, v))
            drift = abs(new_energy - energy)
            energy = new_energy
            total_iter += 1
            if not math.isfinite(drift):
                raise ConvergenceError(
                    f"imaginary-time energy is not finite at dτ = {dtau}, "
                    f"iteration {total_iter} (energy {energy!r}, "
                    f"drift {drift!r})", energy)
            if drift < 1e-10:
                break
            if total_iter >= max_iter:
                raise ConvergenceError(
                    f"imaginary-time iteration cap {max_iter} reached "
                    f"(last drift {drift:.3e})", energy)
    # fix the arbitrary global phase so the state is real and positive at its peak
    peak = np.argmax(np.abs(psi))
    psi = psi * np.exp(-1j * np.angle(psi[peak]))
    return psi, energy
