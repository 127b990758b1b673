"""
Gas-phase harmonic spectrum of the driven soft-core atom.

Prepares the ground state, propagates it through a reduced 800 nm pulse
(2-4-2 trapezoid, F_L = 0.075), and turns the recorded dipole acceleration
into a harmonic spectrum.  Prints the three-step cutoff estimate and writes
spectrum.csv; a log-scale plot appears if matplotlib is installed.
"""

import numpy as np

from hhg1d import (AtomParams, Grid, LaserParams, PropagatorPlan,
                   absorber_mask, gradient_atom, ground_state, hhg_spectrum,
                   ponderomotive_energy, potential_atom, propagate)
from hhg1d.storage import write_csv

atom = AtomParams()
laser = LaserParams(F_L=0.075, omega_L=0.057, n_up=2, n_plateau=4, n_down=2)
grid = Grid(-160.0, 160.0, 1024)

psi0, e0 = ground_state(grid, lambda x: potential_atom(x, atom))
print(f"ground state energy: {e0:.6f} a.u. (ionization potential {-e0:.3f})")

up = ponderomotive_energy(laser)
cutoff = (3.17 * up - e0) / laser.omega_L
print(f"ponderomotive energy U_p = {up:.4f} a.u.; "
      f"three-step cutoff near harmonic {cutoff:.1f}")

plan = PropagatorPlan(grid, 0.05, potential_atom(grid.x, atom), laser,
                      mask=absorber_mask(grid))
record = propagate(psi0, plan, 0.0, laser.duration,
                   gradient_atom(grid.x, atom), record_stride=1)
print(f"propagated {record.times.size} samples, "
      f"final surviving norm {record.norm[-1]:.6f}")

spec = hhg_spectrum(record.times, record.accel, laser)
write_csv("spectrum.csv", {"order": spec.orders, "magnitude": spec.magnitude},
          "demo-gas-spectrum")
print("wrote spectrum.csv")

try:
    import matplotlib.pyplot as plt
except ImportError:
    raise SystemExit(0)

fig, ax = plt.subplots(figsize=(7, 4))
ax.semilogy(spec.orders, spec.magnitude**2, lw=0.7)
ax.axvline(cutoff, color="gray", ls="--", label="3.17 U_p + I_p")
ax.set_xlim(0, 70)
ax.set_xlabel("harmonic order")
ax.set_ylabel("intensity (arb. u.)")
ax.legend()
fig.tight_layout()
fig.savefig("gas_spectrum.png", dpi=150)
print("wrote gas_spectrum.png")
