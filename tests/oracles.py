"""Reference computations the tests check the package against, independent
of its own machinery."""

import math

import numpy as np
import scipy.sparse
from scipy.sparse.linalg import eigsh

from hhg1d.model import AtomParams, LaserParams
from hhg1d.semiclassics import classical_flow
from hhg1d.tdse import ABSORBER_BAND, Grid, absorber_edges


def fd_eigenstates(grid: Grid, potential: np.ndarray,
                   n_states: int = 1) -> tuple[np.ndarray, np.ndarray]:
    """Low eigenpairs from a 5-point finite-difference Hamiltonian.

    Independent of the FFT machinery; serves as a cross-check for
    `ground_state`.  Returns (energies, states) with states normalized so
    Σ|ψ|²dx = 1, columns ordered by energy.
    """
    n, dx = grid.n, grid.dx
    lap = scipy.sparse.diags([1.0 / 12.0, -4.0 / 3.0, 5.0 / 2.0, -4.0 / 3.0,
                              1.0 / 12.0], [-2, -1, 0, 1, 2],
                             shape=(n, n)) / dx**2
    ham = 0.5 * lap + scipy.sparse.diags(np.asarray(potential))
    vals, vecs = eigsh(ham.tocsc(), k=n_states, which="SA")
    order = np.argsort(vals)
    vecs = vecs[:, order] / np.sqrt(dx)
    return vals[order], vecs.T


def piecewise_envelope(t, laser: LaserParams):
    """The trapezoid assembled piece by piece: 0, then the rising ramp for
    0 ≤ t < t_up, 1 on [t_up, t_flat], the falling ramp for
    t_flat < t < t_end, each ramp only when it has nonzero length."""
    T = laser.period
    t_up = laser.n_up * T
    t_flat = (laser.n_up + laser.n_plateau) * T
    t_end = laser.duration
    t = np.asarray(t, dtype=float)
    f = np.zeros_like(t)
    if t_up > 0:
        rising = (t >= 0) & (t < t_up)
        f = np.where(rising, t / t_up, f)
    f = np.where((t >= t_up) & (t <= t_flat), 1.0, f)
    if t_end > t_flat:
        falling = (t > t_flat) & (t < t_end)
        f = np.where(falling, (t_end - t) / (t_end - t_flat), f)
    return f if f.ndim else float(f)


def piecewise_absorber_mask(grid: Grid) -> np.ndarray:
    """The absorber mask written band by band: 1 inside, cos^(1/8) of the
    depth s into a band where 0 < s < 1, 0 from s = 1 on."""
    width = ABSORBER_BAND * (grid.x_max - grid.x_min)
    left, right = absorber_edges(grid)
    mask = np.ones(grid.n)
    s = np.where(grid.x < left, (left - grid.x) / width, 0.0)
    s = np.where(grid.x > right, (grid.x - right) / width, s)
    band = (s > 0) & (s < 1)
    mask[band] = np.cos(0.5 * np.pi * s[band]) ** 0.125
    mask[s >= 1] = 0.0
    return mask


def symmetry_line_cell(z, t0: float, laser: LaserParams,
                       atom: AtomParams, bisections: int):
    """The orbit search's scan cell on the reversing-symmetry line, halved
    `bisections` times: every point of the 17-point scan evaluated, the
    sign change nearest the guess taken among all of them, each
    g(x) = p[T_L/2 from (x, 0)] a separate `classical_flow`.  Returns
    (t_star, lo, hi, g(lo)), or None when no scan out to half-width 40
    changes sign."""
    w = laser.omega_L
    k = math.ceil((w * t0 - 0.5 * math.pi) / math.pi)
    t_star = (0.5 * math.pi + k * math.pi) / w
    x0 = float(classical_flow(z, t0, t_star, laser, atom)[0])

    def g(x):
        return float(classical_flow((x, 0.0), t_star,
                                    t_star + 0.5 * laser.period, laser,
                                    atom)[1])

    for half_width in (5.0, 10.0, 20.0, 40.0):
        xs = np.linspace(x0 - half_width, x0 + half_width, 17)
        vals = np.array([g(x) for x in xs])
        flips = np.flatnonzero(np.sign(vals[:-1]) * np.sign(vals[1:]) < 0)
        if flips.size:
            mids = 0.5 * (xs[flips] + xs[flips + 1])
            i = flips[np.argmin(np.abs(mids - x0))]
            lo, hi, g_lo = xs[i], xs[i + 1], vals[i]
            for _ in range(bisections):
                mid = 0.5 * (lo + hi)
                if not lo < mid < hi:
                    break
                g_mid = g(mid)
                if g_lo * g_mid <= 0.0:
                    hi = mid
                else:
                    lo, g_lo = mid, g_mid
            return t_star, lo, hi, g_lo
    return None


def presearch_bisection(z, t0: float, laser: LaserParams,
                        atom: AtomParams) -> np.ndarray:
    """Orbit point at t0 found by bisecting the symmetry-line cell 60 times
    and flowing the bracket's midpoint back from the symmetry line."""
    t_star, lo, hi, _ = symmetry_line_cell(z, t0, laser, atom, 60)
    return classical_flow((0.5 * (lo + hi), 0.0), t_star, t0, laser, atom)
