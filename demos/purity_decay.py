"""
Decoherence of the photoelectron across the disorder ensemble.

Tracks the normalized purity tr[ρ²]/tr[ρ]² of the ensemble mixture, with
and without the spatial mask that removes the bound-state region, and fits
the saturating exponential to the masked series.  With only a handful of
configurations the curves are noisy; raise N_CONFIGS for smoother decay.
"""

import numpy as np

from hhg1d import (AtomParams, LaserParams, MaskSpec, PerturberParams,
                   RunConfig, StructureParams, fit_purity_decay,
                   purity_series, run_ensemble)

N_CONFIGS = 12
laser = LaserParams(F_L=0.075, omega_L=0.057, n_up=2, n_plateau=4, n_down=2)
spec = RunConfig(n_c=N_CONFIGS, master_seed=4,
                 structure=StructureParams(a=10.0, sigma=1.0, n_p=16),
                 perturber=PerturberParams(), laser=laser,
                 atom=AtomParams(), x_min=-160.0, x_max=160.0,
                 n_grid=1024, dt=0.05, record_stride=4)

print(f"propagating {N_CONFIGS} configurations ...")
record = run_ensemble(spec, workers=2)
times = record.snapshot_times
p_total, p_masked = purity_series(record.snapshots, spec.grid(), MaskSpec())

T = laser.period
for k in range(0, times.size, 8):
    print(f"t = {times[k] / T:5.2f} cycles:  P_total = {p_total[k]:.6f}  "
          f"P_photoelectron = {p_masked[k]:.4f}")

fit = fit_purity_decay(times, p_masked,
                       window=(laser.n_up * T, laser.duration))
print(f"masked-purity fit: gamma = {fit.gamma:.3f}, t* = {fit.t_star:.2f} fs,"
      f" t0 = {fit.t0:.2f} fs, residual {fit.residual_norm:.3e}")

try:
    import matplotlib.pyplot as plt
except ImportError:
    raise SystemExit(0)

from hhg1d.model import AU_TIME_FS

fig, ax = plt.subplots(figsize=(6.5, 4))
ax.plot(times / T, p_total, "o-", ms=3, label="total")
ax.plot(times / T, p_masked, "^--", ms=3, label="photoelectron (masked)")
t_fit = np.linspace(laser.n_up * T, laser.duration, 200)
model = fit.gamma * (np.exp(-(t_fit * AU_TIME_FS - fit.t0) / fit.t_star)
                     - 1.0) + 1.0
ax.plot(t_fit / T, model, "g-", lw=1, label="exponential fit")
ax.set_xlabel("time (cycles)")
ax.set_ylabel("purity")
ax.set_ylim(0, 1.05)
ax.legend()
fig.tight_layout()
fig.savefig("purity_decay.png", dpi=150)
print("wrote purity_decay.png")
