"""
Unstable periodic orbits of the classical companion and their imprint on
the quantum density.

At the full reference field the one-period flow map of the driven soft-core
atom has a pair of hyperbolic fixed points near the zero-drift quiver; the
Newton search polishes them to machine residual.  A small disorder ensemble
then shows the ensemble-averaged probability density concentrating along
these orbits; raise N_CONFIGS (the reference uses ~10³) to sharpen the
localization.  Expect a few minutes of runtime with the ensemble enabled.
"""

import numpy as np

from hhg1d import (AtomParams, EnsembleSpec, LaserParams, PerturberParams,
                   StructureParams, find_periodic_orbit, overlay_orbit,
                   probability_density_map, quiver_guess, run_ensemble,
                   symmetry_partner)

N_CONFIGS = 8           # set to 0 to skip the quantum part
laser = LaserParams(F_L=0.15, omega_L=0.044, n_up=2, n_plateau=11, n_down=2)
atom = AtomParams()
T = laser.period

orbit = find_periodic_orbit(quiver_guess(2 * T, laser), 2 * T, laser, atom)
partner = symmetry_partner(orbit, laser, atom)
for name, orb in (("orbit", orbit), ("partner", partner)):
    print(f"{name}: z* = ({orb.z_star[0]:+.6f}, {orb.z_star[1]:+.6f}), "
          f"|tr M| = {abs(np.trace(orb.monodromy)):.4f} "
          f"({orb.classification}), residual {orb.residual:.1e}")

if N_CONFIGS == 0:
    raise SystemExit(0)

print(f"propagating {N_CONFIGS} full-field configurations "
      f"(several minutes) ...")
spec = EnsembleSpec(n_c=N_CONFIGS, master_seed=3,
                    structure=StructureParams(a=10.0, sigma=1.0, n_p=38),
                    perturber=PerturberParams(), laser=laser, atom=atom,
                    x_min=-400.0, x_max=400.0, n_grid=2560, dt=0.05,
                    record_stride=8)
record = run_ensemble(spec, workers=2)
pmap = probability_density_map(record.snapshot_times, record.snapshots,
                               spec.grid())

try:
    import matplotlib.pyplot as plt
    from matplotlib.colors import LogNorm
except ImportError:
    raise SystemExit(0)

fig, ax = plt.subplots(figsize=(7.5, 4.5))
v = pmap.values.T
vmax = v.max()
ax.imshow(v, origin="lower", aspect="auto", cmap="Blues",
          norm=LogNorm(vmin=vmax * 1e-7, vmax=vmax),
          extent=(pmap.row_axis[0] / T, pmap.row_axis[-1] / T,
                  pmap.col_axis[0], pmap.col_axis[-1]))
for orb, style in ((orbit, "-"), (partner, "--")):
    t_o, x_o = overlay_orbit(orb, laser, atom, 2 * T, laser.duration)
    ax.plot(t_o / T, x_o, style, color="red", lw=1)
ax.set_ylim(-150, 150)
ax.set_xlabel("time (cycles)")
ax.set_ylabel("x (a.u.)")
fig.tight_layout()
fig.savefig("orbit_density_overlay.png", dpi=150)
print("wrote orbit_density_overlay.png")
