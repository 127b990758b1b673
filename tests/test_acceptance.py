"""
Acceptance suite: one test per criterion, each printing a PASS/FAIL line
(run with `pytest -s` to see every line).

The quantum runs use the reduced test pulse (800 nm, F_L = 0.075, 2-4-2
trapezoid) on grids validated for it; classical checks run at the full
reference field (F_L = 0.15 at 1030 nm).  Heavy propagations are shared
through module-scoped fixtures.
"""

import hashlib

import numpy as np
import pytest

from hhg1d.cli import main as cli_main
from hhg1d.ensemble import (EnsembleSpec, MaskSpec, purity, purity_series,
                            run_ensemble)
from hhg1d.model import (AtomParams, LaserParams, PerturberParams,
                         gradient_atom, ponderomotive_energy, potential_atom)
from hhg1d.sampler import StructureParams
from hhg1d.semiclassics import (find_periodic_orbit, max_return_energy,
                                quiver_guess, symmetry_partner)
from hhg1d.spectra import (find_cutoff, fit_purity_decay, hhg_spectrum,
                           parity_contrast, plateau_statistics)
from hhg1d.tdse import (Grid, PropagatorPlan, absorber_mask, ground_state,
                        propagate, state_norm, step)
from oracles import fd_eigenstates

ATOM = AtomParams()
REDUCED = LaserParams(F_L=0.075, omega_L=0.057, n_up=2, n_plateau=4, n_down=2)
FULL = LaserParams(F_L=0.15, omega_L=0.044, n_up=2, n_plateau=11, n_down=2)
PLATEAU_BAND = (15, 35)   # harmonic orders between I_p/omega and the cutoff
SEED = 20260808


def report(name: str, passed: bool, detail: str) -> bool:
    print(f"ACCEPTANCE {name}: {'PASS' if passed else 'FAIL'} — {detail}")
    return passed


# --- shared heavy runs ---

@pytest.fixture(scope="module")
def gas_grid():
    return Grid(-160.0, 160.0, 1024)


@pytest.fixture(scope="module")
def gas_ground(gas_grid):
    return ground_state(gas_grid, lambda x: potential_atom(x, ATOM))


@pytest.fixture(scope="module")
def gas_record(gas_grid, gas_ground):
    """Reduced gas-phase run shared by the spectral criteria."""
    psi0, _ = gas_ground
    plan = PropagatorPlan(gas_grid, 0.04, potential_atom(gas_grid.x, ATOM),
                          REDUCED, mask=absorber_mask(gas_grid))
    return propagate(psi0, plan, 0.0, REDUCED.duration,
                     gradient_atom(gas_grid.x, ATOM), record_stride=1)


@pytest.fixture(scope="module")
def gas_spectrum(gas_record):
    return hhg_spectrum(gas_record.times, gas_record.accel, REDUCED)


def liquid_spec(n_c):
    return EnsembleSpec(
        n_c=n_c, master_seed=SEED,
        structure=StructureParams(a=10.0, sigma=1.0, n_p=16),
        perturber=PerturberParams(A_E=0.8, sigma_E=0.5),
        laser=REDUCED, atom=ATOM,
        x_min=-160.0, x_max=160.0, n_grid=1024, dt=0.05, record_stride=2)


@pytest.fixture(scope="module")
def liquid_single():
    return run_ensemble(liquid_spec(1))


@pytest.fixture(scope="module")
def liquid64():
    return run_ensemble(liquid_spec(64), workers=2)


# --- criteria ---

def test_criterion_01_ground_state_energy(fine_grid, soft_ground):
    psi, energy = soft_ground
    vals, _ = fd_eigenstates(fine_grid, potential_atom(fine_grid.x, ATOM))
    ok_band = abs(energy - (-0.90)) <= 0.005
    ok_oracle = abs(energy - vals[0]) <= 1e-4
    assert report("01 ground-state energy", ok_band and ok_oracle,
                  f"E0 = {energy:.6f} (target -0.900 ± 0.005); "
                  f"|E0 - E_fd| = {abs(energy - vals[0]):.2e} (<= 1e-4)")


def test_criterion_02_gas_cutoff_law(gas_spectrum, gas_ground):
    _, e0 = gas_ground
    ip = -e0
    expected = (3.17 * ponderomotive_energy(REDUCED) + ip) / REDUCED.omega_L
    try:
        knee = find_cutoff(gas_spectrum, search_from=ip / REDUCED.omega_L)
        detail = f"knee at order {knee:.1f}"
    except ValueError:
        knee = np.nan
        detail = "no knee found (rolloff shallower than 1 decade / 4 orders)"
    quantum = (3.17 * ponderomotive_energy(REDUCED) + 1.32 * ip) \
        / REDUCED.omega_L
    ok = np.isfinite(knee) and abs(knee - expected) <= 2.0
    assert report(
        "02 gas cutoff law", ok,
        f"{detail}; required {expected:.1f} ± 2 "
        f"(for reference, the quantum-corrected estimate "
        f"3.17 U_p + 1.32 I_p sits at order {quantum:.1f})")


def test_criterion_03_parity(gas_spectrum, liquid_single, liquid64):
    c_gas = parity_contrast(gas_spectrum, PLATEAU_BAND)
    spec_1 = hhg_spectrum(liquid_single.times,
                          liquid_single.accel.mean(axis=1), REDUCED)
    c_single = parity_contrast(spec_1, PLATEAU_BAND)
    spec_64 = hhg_spectrum(liquid64.times, liquid64.accel.mean(axis=1),
                           REDUCED)
    c_ens = parity_contrast(spec_64, PLATEAU_BAND)

    ok_gas = c_gas < 1e-3
    ok_single = c_single > 1e-1
    ok_drop = c_ens <= c_single / 10.0
    report("03a gas parity", ok_gas, f"contrast {c_gas:.3e} (require < 1e-3)")
    report("03b single-configuration parity", ok_single,
           f"contrast {c_single:.3e} (require > 1e-1)")
    report("03c ensemble parity restoration", ok_drop,
           f"ensemble {c_ens:.3e} vs single {c_single:.3e} "
           f"(require >= 10x drop)")
    assert ok_gas and ok_single and ok_drop


def test_criterion_04_liquid_suppression(gas_spectrum, liquid64):
    spec_64 = hhg_spectrum(liquid64.times, liquid64.accel.mean(axis=1),
                           REDUCED)
    gas_mean = plateau_statistics(gas_spectrum, PLATEAU_BAND)
    liq_mean = plateau_statistics(spec_64, PLATEAU_BAND)
    ratio = gas_mean / liq_mean
    ok = ratio >= 3.0
    assert report("04 liquid suppression", ok,
                  f"gas/liquid plateau mean = {ratio:.2f} (require >= 3)")


def test_criterion_05_purity(liquid_single, liquid64):
    # single configuration: exactly pure at every probe
    _, p1_tot, p1_ph = purity_series(
        liquid_single.snapshot_times, liquid_single.snapshots,
        liquid_single.spec.grid(), MaskSpec())
    ok_single = np.all(np.abs(p1_tot - 1.0) < 1e-12) \
        and np.all(np.abs(p1_ph - 1.0) < 1e-12)
    report("05a single-configuration purity", ok_single,
           f"max |P-1| = {np.abs(p1_tot - 1).max():.2e} (require < 1e-12)")

    times, _, p_ph = purity_series(liquid64.snapshot_times,
                                   liquid64.snapshots,
                                   liquid64.spec.grid(), MaskSpec())
    ok_bound = np.all(p_ph <= 1.0 + 1e-9)
    report("05b masked purity bounded", ok_bound,
           f"max P_ph = {p_ph.max():.6f} (require <= 1)")

    # monotone decrease after the ramp, smoothed over T_L/2 (4 probes)
    after = times >= REDUCED.n_up * REDUCED.period
    smooth = np.convolve(p_ph[after], np.ones(4) / 4, mode="valid")
    worst_rise = np.max(np.diff(smooth))
    ok_mono = worst_rise <= 1e-3
    report("05c masked purity decreasing", ok_mono,
           f"largest smoothed rise {worst_rise:.3e} (require <= 1e-3)")

    fit = fit_purity_decay(times, p_ph,
                           window=(REDUCED.n_up * REDUCED.period,
                                   REDUCED.duration))
    drop = p_ph[after].max() - p_ph[after].min()
    ok_fit = (0.0 < fit.gamma <= 1.0) and fit.residual_norm < 0.05 * drop
    report("05d purity decay fit", ok_fit,
           f"gamma = {fit.gamma:.3f}, t* = {fit.t_star:.2f} fs, residual "
           f"{fit.residual_norm:.3e} vs 5% of drop {0.05 * drop:.3e}")
    assert ok_single and ok_bound and ok_mono and ok_fit


@pytest.mark.parametrize("m", [2, 4, 8])
@pytest.mark.parametrize("n", [32, 64])
def test_criterion_06_gram_purity_oracle(m, n):
    rng = np.random.default_rng(m * 1000 + n)
    states = rng.normal(size=(m, n)) + 1j * rng.normal(size=(m, n))
    dx = 0.173
    rho = sum(np.outer(v, v.conj()) for v in states) / m * dx
    dense = float(np.trace(rho @ rho).real / np.trace(rho).real ** 2)
    gram = purity(states, dx)
    ok = abs(gram - dense) < 1e-10
    assert report(f"06 Gram purity oracle (m={m}, n={n})", ok,
                  f"|gram - dense| = {abs(gram - dense):.2e}")


def test_criterion_07_sfa_oracle():
    up = ponderomotive_energy(FULL)
    e0 = max_return_energy(0.0, FULL, n_launch=2000)
    ok_classic = abs(e0 / up - 3.17) <= 0.02
    report("07a classic return energy", ok_classic,
           f"E_max(0)/U_p = {e0 / up:.4f} (require 3.17 ± 0.02)")

    ells = np.arange(10.0, 61.0, 10.0)
    emax = np.array([max_return_energy(l, FULL, n_launch=800) for l in ells])
    # fit of E_max(l) - E_max(0) through the origin
    slope = float(np.sum(ells * (emax - e0)) / np.sum(ells**2))
    target = 0.31 * FULL.F_L
    ok_slope = abs(slope / target - 1.0) <= 0.10
    report("07b off-site linear law", ok_slope,
           f"slope = {slope:.4f} vs 0.31 F_L = {target:.4f} "
           f"({100 * (slope / target - 1):+.1f}%, require within 10%)")
    assert ok_classic and ok_slope


def test_criterion_08_periodic_orbits():
    T = FULL.period
    orbits = {}
    ok = True
    details = []
    for cycles in (2.0, 2.5):
        t0 = cycles * T
        orb = find_periodic_orbit(quiver_guess(t0, FULL), t0, FULL, ATOM)
        orbits[cycles] = orb
        det = float(np.linalg.det(orb.monodromy))
        tr = float(np.trace(orb.monodromy))
        ok &= orb.residual < 1e-10
        ok &= orb.classification == "hyperbolic" and abs(tr) > 2.0
        ok &= abs(det - 1.0) < 1e-8
        details.append(f"t0={cycles}T: residual {orb.residual:.1e}, "
                       f"tr M = {tr:.4f}, det M - 1 = {det - 1:.1e}")
    partner = symmetry_partner(orbits[2.0], FULL, ATOM)
    ok &= partner.residual < 1e-10
    details.append(f"partner residual {partner.residual:.1e}")
    assert report("08 periodic orbits", ok, "; ".join(details))


def test_criterion_09_propagator_quality(gas_ground, gas_grid):
    # one-cycle norm drift without absorber
    psi0, _ = gas_ground
    plan = PropagatorPlan(gas_grid, 0.05, potential_atom(gas_grid.x, ATOM),
                          REDUCED)
    psi = psi0.copy()
    t = 2 * REDUCED.period
    for _ in range(int(round(REDUCED.period / 0.05))):
        psi = step(psi, t, plan)
        t += plan.dt
    drift = abs(1.0 - state_norm(psi, gas_grid.dx))
    ok_norm = drift < 1e-8
    report("09a unitarity", ok_norm,
           f"one-cycle norm drift {drift:.2e} (require < 1e-8)")

    # dt-convergence factor against a dt/16 reference
    g = Grid(-120.0, 120.0, 1024)
    psi_g, _ = ground_state(g, lambda x: potential_atom(x, ATOM))
    v = potential_atom(g.x, ATOM)
    horizon = 102.4

    def run(dt):
        plan = PropagatorPlan(g, dt, v, REDUCED)
        psi = psi_g.copy()
        t = 2 * REDUCED.period
        for _ in range(int(round(horizon / dt))):
            psi = step(psi, t, plan)
            t += dt
        return psi

    ref = run(0.0025)
    e1 = np.sqrt(state_norm(run(0.04) - ref, g.dx))
    e2 = np.sqrt(state_norm(run(0.02) - ref, g.dx))
    factor = e1 / e2
    ok_order = 12.0 < factor < 20.0
    report("09b fourth-order convergence", ok_order,
           f"error factor on halving dt = {factor:.2f} (require 12..20)")

    # free-packet dispersion
    gf = Grid(-200.0, 200.0, 2048)
    w0 = 5.0
    psi = np.exp(-gf.x**2 / (4 * w0**2)).astype(complex)
    psi /= np.sqrt(state_norm(psi, gf.dx))
    plan = PropagatorPlan(gf, 0.05, np.zeros(gf.n),
                          LaserParams(F_L=0.0, omega_L=0.057))
    t = 0.0
    for _ in range(2000):
        psi = step(psi, t, plan)
        t += plan.dt
    w_num = np.sqrt(np.sum(np.abs(psi) ** 2 * gf.x**2) * gf.dx)
    w_ana = np.sqrt(w0**2 + (t / (2 * w0)) ** 2)
    disp_err = abs(w_num - w_ana) / w_ana
    ok_disp = disp_err < 1e-4
    report("09c free dispersion", ok_disp,
           f"width error {disp_err:.2e} (require < 1e-4)")
    assert ok_norm and ok_order and ok_disp


def test_criterion_10_ehrenfest_consistency():
    # absorber off and flux contained so the discrete identity is exact;
    # compared within the band the record resolves (1.5x the cutoff)
    g = Grid(-640.0, 640.0, 8192)
    psi0, e0 = ground_state(g, lambda x: potential_atom(x, ATOM))
    plan = PropagatorPlan(g, 0.04, potential_atom(g.x, ATOM), REDUCED,
                          mask=None)
    rec = propagate(psi0, plan, 0.0, 6 * REDUCED.period,
                    gradient_atom(g.x, ATOM), record_stride=1)
    ts, xs, acc = rec.times, rec.x_expect, rec.accel
    dt = ts[1] - ts[0]
    fd = (xs[2:] - 2 * xs[1:-1] + xs[:-2]) / dt**2
    sel = (ts[1:-1] >= 2 * REDUCED.period) & (ts[1:-1] <= 6 * REDUCED.period)
    f1, f2 = np.fft.rfft(fd[sel]), np.fft.rfft(acc[1:-1][sel])
    freqs = 2 * np.pi * np.fft.rfftfreq(int(np.sum(sel)), dt)
    band = freqs <= 1.5 * (3.17 * ponderomotive_energy(REDUCED) - e0)
    err = np.sqrt(np.sum(np.abs(f1[band] - f2[band]) ** 2)
                  / np.sum(np.abs(f2[band]) ** 2))
    ok = err < 1e-3
    assert report("10 Ehrenfest consistency", ok,
                  f"plateau-window relative error {err:.2e} (require < 1e-3)")


def test_criterion_11_determinism(tmp_path):
    cfg = tmp_path / "tiny.cfg"
    cfg.write_text(
        "[laser]\nF_L = 0.06\nomega = 0.057\nn_up = 1\nn_plateau = 1\n"
        "n_down = 1\n[environment]\nn_p = 4\n[grid]\nx_min = -80\n"
        "x_max = 80\nn = 256\ndt = 0.1\n[ensemble]\nn_c = 3\n"
        "master_seed = 5\n")

    def digest(root):
        out = {}
        for p in sorted(root.rglob("*")):
            if p.is_file() and p.name != "manifest.json":
                out[str(p.relative_to(root))] = hashlib.sha256(
                    p.read_bytes()).hexdigest()
        return out

    rc1 = cli_main(["run", "--config", str(cfg), "--workers", "1",
                    "--out", str(tmp_path / "r1")])
    rc2 = cli_main(["run", "--config", str(cfg), "--workers", "3",
                    "--out", str(tmp_path / "r2")])
    d1, d2 = digest(tmp_path / "r1"), digest(tmp_path / "r2")
    ok = rc1 == 0 and rc2 == 0 and d1 == d2 and len(d1) > 3
    assert report("11 determinism", ok,
                  f"{len(d1)} record files byte-identical across "
                  f"worker counts")
