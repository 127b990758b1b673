"""Reference computations the tests check the package against, independent
of its own machinery."""

import numpy as np
import scipy.sparse
from scipy.sparse.linalg import eigsh

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
