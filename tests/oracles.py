"""Reference computations the tests check the package against, independent
of its own machinery."""

import math

import numpy as np
import scipy.sparse
from scipy.sparse.linalg import eigsh

from hhg1d.model import AtomParams, LaserParams
from hhg1d.semiclassics import classical_flow
from hhg1d.tdse import Grid


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
