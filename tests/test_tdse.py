import numpy as np
import pytest

from hhg1d import tdse
from hhg1d.config import RunConfig
from hhg1d.model import (AtomParams, LaserParams, field_at, gradient_atom,
                         potential_atom)
from hhg1d.splitting import KICK_COEFFS
from hhg1d.tdse import (ConvergenceError, Grid, PropagatorPlan, absorber_mask,
                        ground_state, overlap, propagate, state_norm, step)
from oracles import fd_eigenstates


def gaussian_packet(grid, x0, width, k0=0.0):
    psi = np.exp(-((grid.x - x0) ** 2) / (4 * width**2)
                 + 1j * k0 * grid.x).astype(complex)
    return psi / np.sqrt(state_norm(psi, grid.dx))


FIELD_OFF = LaserParams(F_L=0.0, omega_L=0.057)


class TestGrid:
    def test_spacing(self):
        g = Grid(-10.0, 10.0, 64)
        assert g.dx == pytest.approx(20.0 / 64)
        assert g.x[0] == -10.0
        assert g.x[-1] == pytest.approx(10.0 - g.dx)
        assert g.p_max == pytest.approx(np.pi / g.dx)

    def test_validation(self):
        with pytest.raises(ValueError):
            Grid(1.0, -1.0, 64)
        with pytest.raises(ValueError):
            Grid(-1.0, 1.0, 1)


class TestGroundState:
    def test_soft_core_energy(self, fine_grid, atom, soft_ground):
        psi, energy = soft_ground
        assert energy == pytest.approx(-0.90, abs=0.005)

    def test_against_diagonalization_oracle(self, fine_grid, atom,
                                            soft_ground):
        _, energy = soft_ground
        vals, _ = fd_eigenstates(fine_grid, potential_atom(fine_grid.x, atom))
        assert energy == pytest.approx(vals[0], abs=1e-4)

    def test_harmonic_oscillator(self):
        g = Grid(-20.0, 20.0, 1024)
        _, energy = ground_state(g, lambda x: 0.5 * x * x)
        assert energy == pytest.approx(0.5, abs=1e-4)

    def test_even_and_nodeless(self, fine_grid, soft_ground):
        psi, _ = soft_ground
        dens = np.abs(psi)
        assert np.all(dens[1:] > 0) or dens.min() < 1e-12 * dens.max()
        flipped = np.empty_like(dens)
        flipped[0] = dens[0]
        flipped[1:] = dens[:0:-1]
        np.testing.assert_allclose(dens, flipped, atol=1e-8 * dens.max())

    def test_iteration_cap(self):
        g = Grid(-20.0, 20.0, 256)
        with pytest.raises(ConvergenceError) as exc:
            ground_state(g, lambda x: 0.5 * x * x, max_iter=3)
        assert np.isfinite(exc.value.last_value)

    def test_non_finite_energy_fails_in_first_stage(self):
        # V(0) = -1e150 overflows the first stage's potential decay
        g = Grid(-80.0, 80.0, 256)
        atom = AtomParams(softening=1e-300)
        with np.errstate(all="ignore"), \
                pytest.raises(ConvergenceError) as exc:
            ground_state(g, lambda x: potential_atom(x, atom))
        assert "dτ = 0.5, iteration 1 " in str(exc.value)
        assert not np.isfinite(exc.value.last_value)


class TestStep:
    def test_free_packet_dispersion(self):
        g = Grid(-200.0, 200.0, 2048)
        w0 = 5.0
        psi = gaussian_packet(g, 0.0, w0)
        plan = PropagatorPlan(g, 0.05, np.zeros(g.n), FIELD_OFF)
        t = 0.0
        for _ in range(2000):
            psi = step(psi, t, plan)
            t += plan.dt
        var = np.sum(np.abs(psi) ** 2 * g.x**2) * g.dx
        w_num = np.sqrt(var)
        w_ana = np.sqrt(w0**2 + (t / (2 * w0)) ** 2)
        assert abs(w_num - w_ana) / w_ana < 1e-4

    def test_eigenstate_pure_phase(self, fine_grid, atom):
        vals, vecs = fd_eigenstates(fine_grid,
                                    potential_atom(fine_grid.x, atom))
        psi0 = vecs[0].astype(complex)
        plan = PropagatorPlan(fine_grid, 0.05,
                              potential_atom(fine_grid.x, atom), FIELD_OFF)
        psi, t = psi0.copy(), 0.0
        cycle = 2 * np.pi / 0.057
        for _ in range(int(round(cycle / 0.05))):
            psi = step(psi, t, plan)
            t += plan.dt
        assert abs(overlap(psi0, psi, fine_grid.dx)) == pytest.approx(
            1.0, abs=1e-8)

    def test_norm_conserved_per_step(self, fine_grid, atom):
        psi = gaussian_packet(fine_grid, 2.0, 3.0, 0.5)
        laser = LaserParams(F_L=0.05, omega_L=0.057)
        plan = PropagatorPlan(fine_grid, 0.05,
                              potential_atom(fine_grid.x, atom), laser)
        before = state_norm(psi, fine_grid.dx)
        after = state_norm(step(psi, 30.0, plan), fine_grid.dx)
        assert abs(after - before) < 1e-12

    def test_batch_matches_single(self, fine_grid, atom):
        psi_a = gaussian_packet(fine_grid, -3.0, 2.0, 0.3)
        psi_b = gaussian_packet(fine_grid, 4.0, 1.5, -0.2)
        laser = LaserParams(F_L=0.03, omega_L=0.057)
        v = potential_atom(fine_grid.x, atom)
        plan1 = PropagatorPlan(fine_grid, 0.1, v, laser)
        plan2 = PropagatorPlan(fine_grid, 0.1, np.stack([v, v]), laser)
        singles = [step(psi_a, 5.0, plan1), step(psi_b, 5.0, plan1)]
        batch = step(np.stack([psi_a, psi_b]), 5.0, plan2)
        np.testing.assert_array_equal(batch[0], singles[0])
        np.testing.assert_array_equal(batch[1], singles[1])


class TestFieldKicks:
    @pytest.mark.parametrize("n", [256, 1000, 1021, 1024, 2560, 8192])
    def test_table_phase_matches_direct_exponential(self, n):
        cfg = RunConfig()
        g = Grid(cfg.x_min, cfg.x_max, n)
        plan = PropagatorPlan(g, cfg.dt, np.zeros(n), cfg.laser)
        c_max = np.abs(KICK_COEFFS).max() * cfg.dt * cfg.laser.F_L
        c = -1j * c_max * np.array([1.0, -1.0, 0.37, -1e-3, 0.0])
        phases = plan.field_phases(c)
        assert phases.shape == (c.size, n)
        for ck, phase in zip(c, phases):
            assert np.abs(phase - np.exp(ck * g.x)).max() <= 1e-14

    def test_one_field_call_per_step(self, fine_grid, atom, monkeypatch):
        calls = []

        def counting(t, laser):
            calls.append(np.shape(t))
            return field_at(t, laser)

        monkeypatch.setattr(tdse, "field_at", counting)
        plan = PropagatorPlan(fine_grid, 0.05,
                              potential_atom(fine_grid.x, atom),
                              LaserParams(F_L=0.05, omega_L=0.057))
        psi = gaussian_packet(fine_grid, 0.0, 3.0)
        step(psi, 10.0, plan)
        assert calls == [(6,)]
        calls.clear()
        propagate(psi, plan, 10.0, 10.0 + 7 * plan.dt,
                  gradient_atom(fine_grid.x, atom), record_stride=3)
        assert len(calls) == 7 + 1

    def test_accel_matches_per_record_formula(self, atom, reduced_laser):
        g = Grid(-120.0, 120.0, 512)
        v, grad = potential_atom(g.x, atom), gradient_atom(g.x, atom)
        plan = PropagatorPlan(g, 0.05, np.stack([v, 1.5 * v]),
                              reduced_laser, mask=absorber_mask(g))
        psi0 = np.stack([gaussian_packet(g, -2.0, 2.0, 0.3),
                         gaussian_packet(g, 1.0, 3.0, -0.2)])
        t0, stride, n_steps = 150.0, 3, 11
        record_times = t0 + plan.dt * np.arange(0, n_steps + 1, stride)
        rec = propagate(psi0, plan, t0, t0 + n_steps * plan.dt,
                        np.stack([grad, 1.5 * grad]), record_stride=stride,
                        probe_times=record_times)
        np.testing.assert_array_equal(rec.snapshot_times, rec.times)
        for j, t_now in enumerate(rec.times):
            dens = np.abs(rec.snapshots[j]) ** 2
            w = np.sum(dens, axis=-1) * g.dx
            old = (-np.sum(dens * np.stack([grad, 1.5 * grad]), axis=-1)
                   * g.dx - field_at(t_now, reduced_laser) * w)
            np.testing.assert_array_equal(rec.accel[j], old)
        assert np.all(rec.accel != 0.0)


class TestUnitarityAndReversal:
    def test_one_cycle_norm_drift(self, atom, reduced_laser):
        g = Grid(-120.0, 120.0, 1024)
        psi0, _ = ground_state(g, lambda x: potential_atom(x, atom))
        plan = PropagatorPlan(g, 0.05, potential_atom(g.x, atom),
                              reduced_laser)
        psi = psi0.copy()
        t = 2 * reduced_laser.period
        for _ in range(int(round(reduced_laser.period / 0.05))):
            psi = step(psi, t, plan)
            t += plan.dt
        assert abs(1.0 - state_norm(psi, g.dx)) < 1e-8

    def test_time_reversal(self, atom, reduced_laser):
        g = Grid(-120.0, 120.0, 1024)
        psi0, _ = ground_state(g, lambda x: potential_atom(x, atom))
        v = potential_atom(g.x, atom)
        fwd = PropagatorPlan(g, 0.05, v, reduced_laser)
        bwd = PropagatorPlan(g, -0.05, v, reduced_laser)
        n = int(round(reduced_laser.period / 0.05))
        psi = psi0.copy()
        t = 2 * reduced_laser.period
        for _ in range(n):
            psi = step(psi, t, fwd)
            t += fwd.dt
        for _ in range(n):
            psi = step(psi, t, bwd)
            t += bwd.dt
        fidelity = abs(overlap(psi0, psi, g.dx))
        assert fidelity > 1.0 - 1e-6

    def test_fourth_order_convergence(self, atom, reduced_laser):
        g = Grid(-120.0, 120.0, 512)
        psi0, _ = ground_state(g, lambda x: potential_atom(x, atom))
        v = potential_atom(g.x, atom)
        horizon = 12.8

        def run(dt):
            plan = PropagatorPlan(g, dt, v, reduced_laser)
            psi = psi0.copy()
            t = 2 * reduced_laser.period
            for _ in range(int(round(horizon / dt))):
                psi = step(psi, t, plan)
                t += dt
            return psi

        ref = run(0.04 / 16)
        e1 = np.sqrt(state_norm(run(0.04) - ref, g.dx))
        e2 = np.sqrt(state_norm(run(0.02) - ref, g.dx))
        assert 12.0 < e1 / e2 < 20.0


class TestAbsorber:
    def test_interior_untouched(self):
        g = Grid(-100.0, 100.0, 512)
        mask = absorber_mask(g, 0.1)
        assert np.all(mask[np.abs(g.x) <= 80.0] == 1.0)
        psi = gaussian_packet(g, 0.0, 5.0)
        np.testing.assert_allclose(psi * mask, psi, atol=1e-14)

    def test_edge_packet_damped(self):
        g = Grid(-100.0, 100.0, 512)
        mask = absorber_mask(g, 0.1)
        psi = gaussian_packet(g, 95.0, 2.0)
        assert state_norm(psi * mask, g.dx) < state_norm(psi, g.dx)

    def test_band_follows_cos_eighth_root(self):
        g = Grid(-100.0, 100.0, 512)
        mask = absorber_mask(g, 0.1)
        s = (np.abs(g.x) - 80.0) / 20.0
        band = (s > 0) & (s < 1)
        assert band.sum() > 50
        np.testing.assert_allclose(mask[band],
                                   np.cos(0.5 * np.pi * s[band]) ** 0.125,
                                   rtol=1e-14)
        assert np.all(mask[s >= 1] == 0.0)
        # falls monotonically from the interior to each edge
        half = g.n // 2
        assert np.all(np.diff(mask[half:]) <= 0)
        assert np.all(np.diff(mask[:half]) >= 0)

    def test_propagate_masks_the_step_in_place(self, atom, reduced_laser):
        # a batch of two packets in the band: the snapshot after one step
        # is step(psi) times the mask, bit for bit
        g = Grid(-100.0, 100.0, 512)
        v = potential_atom(g.x, atom)
        plan = PropagatorPlan(g, 0.05, np.stack([v, 0.5 * v]),
                              reduced_laser, mask=absorber_mask(g, 0.1))
        psi0 = np.stack([gaussian_packet(g, 85.0, 3.0, k0=1.0),
                         gaussian_packet(g, -88.0, 2.0, k0=-0.5)])
        t0 = 2 * reduced_laser.period
        grad = gradient_atom(g.x, atom)
        rec = propagate(psi0, plan, t0, t0 + plan.dt,
                        np.stack([grad, 0.5 * grad]), record_stride=1,
                        probe_times=(t0, t0 + plan.dt))
        expected = step(psi0, t0, plan) * plan.mask
        assert rec.snapshots[1].tobytes() == expected.tobytes()
        assert rec.snapshots[0].tobytes() == psi0.tobytes()

    def test_mask_shape(self):
        g = Grid(-100.0, 100.0, 1024)
        mask = absorber_mask(g, 0.1)
        assert mask.max() == 1.0
        assert mask[0] < 1e-6
        assert np.all(mask >= 0.0) and np.all(mask <= 1.0)


class TestPropagate:
    def test_zero_length_schedule(self, fine_grid, atom):
        psi = gaussian_packet(fine_grid, 0.0, 3.0)
        plan = PropagatorPlan(fine_grid, 0.05,
                              potential_atom(fine_grid.x, atom), FIELD_OFF)
        rec = propagate(psi, plan, 0.0, 0.0,
                        gradient_atom(fine_grid.x, atom))
        assert rec.times.size == 1
        assert rec.norm[0] == pytest.approx(1.0, abs=1e-12)

    def test_snapshots_at_probe_times(self, fine_grid, atom):
        psi = gaussian_packet(fine_grid, 0.0, 3.0)
        plan = PropagatorPlan(fine_grid, 0.05,
                              potential_atom(fine_grid.x, atom), FIELD_OFF)
        rec = propagate(psi, plan, 0.0, 5.0,
                        gradient_atom(fine_grid.x, atom),
                        probe_times=[0.0, 2.5, 5.0])
        assert rec.snapshot_times.size == 3
        np.testing.assert_allclose(rec.snapshot_times, [0.0, 2.5, 5.0],
                                   atol=0.051)
        assert rec.snapshots.shape == (3, fine_grid.n)

    def test_gas_phase_survival_bounds(self, atom):
        laser = LaserParams(F_L=0.09, omega_L=0.057, n_up=1, n_plateau=1,
                            n_down=1)
        g = Grid(-120.0, 120.0, 512)
        psi0, _ = ground_state(g, lambda x: potential_atom(x, atom))
        plan = PropagatorPlan(g, 0.05, potential_atom(g.x, atom), laser,
                              mask=absorber_mask(g))
        rec = propagate(psi0, plan, 0.0, laser.duration,
                        gradient_atom(g.x, atom), record_stride=4,
                        probe_times=[laser.duration])
        survival = abs(overlap(psi0, rec.snapshots[-1], g.dx))
        assert 0.0 < survival < 1.0

    def test_ehrenfest_against_finite_difference(self, atom, reduced_laser):
        # flux must stay on the grid (no absorber) and the soft core must be
        # well resolved, otherwise the discrete identity is polluted by the
        # removed dipole and by the analytic-vs-band-limited gradient gap
        g = Grid(-320.0, 320.0, 4096)
        psi0, e0 = ground_state(g, lambda x: potential_atom(x, atom))
        plan = PropagatorPlan(g, 0.04, potential_atom(g.x, atom),
                              reduced_laser, mask=None)
        rec = propagate(psi0, plan, 0.0,
                        4 * reduced_laser.period,
                        gradient_atom(g.x, atom), record_stride=1)
        ts, xs, acc = rec.times, rec.x_expect, rec.accel
        dt = ts[1] - ts[0]
        fd = (xs[2:] - 2 * xs[1:-1] + xs[:-2]) / dt**2
        sel = ts[1:-1] > 2 * reduced_laser.period
        a_fd, a_eh = fd[sel], acc[1:-1][sel]
        # compare within the band the record is meant to resolve
        # (1.5x the three-step cutoff); the second difference is meaningless
        # near its own Nyquist frequency
        f1, f2 = np.fft.rfft(a_fd), np.fft.rfft(a_eh)
        freqs = 2 * np.pi * np.fft.rfftfreq(a_fd.size, dt)
        up = (reduced_laser.F_L / (2 * reduced_laser.omega_L)) ** 2
        band = freqs <= 1.5 * (3.17 * up - e0)
        err = np.sqrt(np.sum(np.abs(f1[band] - f2[band]) ** 2)
                      / np.sum(np.abs(f2[band]) ** 2))
        assert err < 1e-3


class TestDipoleAccel:
    @pytest.mark.parametrize("case", ["stationary_ground_state",
                                      "even_density"])
    def test_recorded_accel_vanishes(self, case, fine_grid, atom,
                                     soft_ground):
        # field off: a stationary state feels no net force, and an even
        # density cancels the odd gradient of the even potential
        if case == "stationary_ground_state":
            psi, t_end, tol = soft_ground[0], 1.0, 1e-8
        else:
            psi, t_end, tol = gaussian_packet(fine_grid, 0.0, 4.0), 0.0, 1e-12
        plan = PropagatorPlan(fine_grid, 0.05,
                              potential_atom(fine_grid.x, atom), FIELD_OFF)
        rec = propagate(psi, plan, 0.0, t_end,
                        gradient_atom(fine_grid.x, atom), record_stride=1)
        assert rec.times.size == int(round(t_end / 0.05)) + 1
        assert np.abs(rec.accel).max() < tol
