"""
Time-frequency structure of the harmonic emission.

Computes a windowed-transform map of the gas-phase dipole acceleration
(cos⁴ window, 0.35 optical cycles long) and overlays the field-only
return-energy curves: the emission arches trace the classical arrival
energies shifted up by the ionization potential.
"""

import numpy as np

from hhg1d import (AtomParams, Grid, LaserParams, PropagatorPlan,
                   absorber_mask, find_returns, gabor, gradient_atom,
                   ground_state, potential_atom, propagate)

atom = AtomParams()
laser = LaserParams(F_L=0.075, omega_L=0.057, n_up=2, n_plateau=4, n_down=2)
grid = Grid(-160.0, 160.0, 1024)
T = laser.period

psi0, e0 = ground_state(grid, lambda x: potential_atom(x, atom))
plan = PropagatorPlan(grid, 0.05, potential_atom(grid.x, atom), laser,
                      mask=absorber_mask(grid))
record = propagate(psi0, plan, 0.0, laser.duration,
                   gradient_atom(grid.x, atom), record_stride=1)
print("propagation done; computing the map ...")

orders = np.arange(5.0, 55.0, 0.25)
taus = np.arange(record.times[0], record.times[-1], T / 64)
gmap = gabor(record.times, record.accel, 0.35 * T, orders * laser.omega_L,
             taus)
print(f"map: {gmap.taus.size} window centres x {gmap.omegas.size} "
      f"frequencies")

# classical overlay: arrival energies of field-only trajectories
returns = [find_returns(t_i, 0.0, laser, horizon=1.5)
           for t_i in np.linspace(2 * T, 4 * T, 600, endpoint=False)]
t_r, e_r, _ = map(np.concatenate, zip(*returns))
overlay_t, overlay_q = t_r / T, (e_r - e0) / laser.omega_L

try:
    import matplotlib.pyplot as plt
    from matplotlib.colors import LogNorm
except ImportError:
    raise SystemExit(0)

v = gmap.values.T**2
vmax = v.max()
fig, ax = plt.subplots(figsize=(7.5, 4))
ax.imshow(v, origin="lower", aspect="auto", cmap="magma",
          norm=LogNorm(vmin=vmax * 1e-8, vmax=vmax),
          extent=(gmap.taus[0] / T, gmap.taus[-1] / T,
                  orders[0], orders[-1]))
ax.plot(overlay_t, overlay_q, ".", ms=0.8, color="cyan", alpha=0.5)
ax.set_xlim(1.5, 6.5)
ax.set_xlabel("time (cycles)")
ax.set_ylabel("harmonic order")
fig.tight_layout()
fig.savefig("time_frequency_map.png", dpi=150)
print("wrote time_frequency_map.png")
