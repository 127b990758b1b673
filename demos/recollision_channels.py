"""
Field-only recollision channels at the full reference field (1030 nm,
F_L = 0.15).

Three channels are scanned:
  * direct returns to the parent ion (|x| = 0): the classic maximum at
    3.17 U_p;
  * off-site arrivals at |x| = k a for k = 1..6: each distance defines a
    larger maximum arrival energy, growing linearly at roughly 0.31 F_L
    per unit distance;
  * backscattered paths (momentum reversal at a scatterer), which can
    exceed the direct limit by a wide margin.
"""

import numpy as np

from hhg1d import BackscatterTrajectory, LaserParams, find_returns, \
    max_return_energy, ponderomotive_energy

laser = LaserParams(F_L=0.15, omega_L=0.044)
up = ponderomotive_energy(laser)
T = laser.period

e_direct = max_return_energy(0.0, laser, n_launch=1000)
print(f"direct return maximum: {e_direct / up:.4f} U_p")

a = 10.0
ells = a * np.arange(0, 7)
emax = np.array([max_return_energy(l, laser, n_launch=600) for l in ells])
slope = np.sum(ells[1:] * (emax[1:] - emax[0])) / np.sum(ells[1:] ** 2)
print("arrival-energy maxima per site distance:")
for l, e in zip(ells, emax):
    print(f"  |x| = {l:4.0f}:  E_max = {e:7.4f} a.u. = {e / up:.3f} U_p")
print(f"linear growth: {slope:.4f} a.u. per a.u. of distance "
      f"(0.31 F_L = {0.31 * laser.F_L:.4f})")

best = 0.0
for t_i in np.linspace(0.0, 0.5 * T, 60):
    for t_s in np.linspace(t_i + 0.05 * T, t_i + T, 60):
        traj = BackscatterTrajectory(t_i, t_s, laser)
        _, e_r = traj.origin_returns(horizon=1.5)
        best = max(best, e_r.max(initial=0.0))
print(f"best backscattered origin return: {best / up:.2f} U_p")

try:
    import matplotlib.pyplot as plt
except ImportError:
    raise SystemExit(0)

fig, ax = plt.subplots(figsize=(6.5, 4))
colors = plt.cm.Greys(np.linspace(0.95, 0.35, len(ells)))
for l, c in zip(ells, colors):
    returns = [find_returns(t_i, l, laser, horizon=1.5)
               for t_i in np.linspace(2 * T, 3 * T, 400, endpoint=False)]
    t_r, e_r, _ = map(np.concatenate, zip(*returns))
    ax.plot(t_r / T, e_r / up, ".", ms=1.5, color=c, label=f"|x| = {l:.0f}")
ax.set_xlabel("arrival time (cycles)")
ax.set_ylabel("arrival kinetic energy (U_p)")
ax.legend(markerscale=6, fontsize=8, ncol=2)
fig.tight_layout()
fig.savefig("recollision_channels.png", dpi=150)
print("wrote recollision_channels.png")
