import numpy as np
import pytest

import hhg1d.model as model
import hhg1d.tdse as tdse
from hhg1d.ensemble import (EnsembleSpec, MaskSpec, density_matrix_map,
                            probability_density_map, purity, purity_series,
                            run_ensemble)
from hhg1d.model import (AtomParams, EnvironmentConfig, LaserParams,
                         PerturberParams, potential_atom, potential_env,
                         gradient_atom, gradient_env)
from hhg1d.sampler import StructureParams
from hhg1d.tdse import (Grid, PropagatorPlan, absorber_mask, ground_state,
                        propagate, state_norm)
from oracles import fd_eigenstates


def random_states(n_states, n_grid, seed, normalize=True):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(n_states, n_grid)) \
        + 1j * rng.normal(size=(n_states, n_grid))
    if normalize:
        dx = 0.1
        a /= np.sqrt(state_norm(a, dx))[:, None]
    return a


TINY = dict(master_seed=11, structure=StructureParams(a=10.0, sigma=1.0, n_p=4),
            laser=LaserParams(F_L=0.06, omega_L=0.057, n_up=1, n_plateau=1,
                              n_down=1),
            atom=AtomParams(), x_min=-80.0, x_max=80.0, n_grid=512, dt=0.1,
            record_stride=2)


class TestMaskSpec:
    def test_zero_at_origin(self):
        m = MaskSpec()
        x = np.linspace(-160, 160, 1001)
        vals = MaskSpec().values(x)
        assert MaskSpec().values(np.array([0.0]))[0] == 0.0
        assert np.all(vals >= 0) and np.all(vals <= 1)

    def test_limits(self):
        m = MaskSpec(r0=5.0, width=2.0)
        assert m.values(np.array([3.9]))[0] == 0.0
        assert m.values(np.array([-3.9]))[0] == 0.0
        assert m.values(np.array([6.1]))[0] == 1.0
        assert m.values(np.array([5.0]))[0] == pytest.approx(0.5)

    def test_monotone_in_radius(self):
        m = MaskSpec()
        r = np.linspace(0, 10, 300)
        v = m.values(r)
        assert np.all(np.diff(v) >= -1e-15)

    def test_enlarging_radius_cannot_increase_masked_norm(self):
        x = np.linspace(-40, 40, 801)
        dx = x[1] - x[0]
        rng = np.random.default_rng(5)
        psi = rng.normal(size=x.size) + 1j * rng.normal(size=x.size)
        norms = [state_norm(psi * MaskSpec(r0=r).values(x), dx)
                 for r in (3.0, 5.0, 8.0, 12.0)]
        assert np.all(np.diff(norms) <= 1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            MaskSpec(r0=1.0, width=4.0)


class TestApplyMask:
    def test_far_packet_untouched(self):
        g = Grid(-160.0, 160.0, 2048)
        psi = np.exp(-((g.x - 50.0) ** 2) / (2 * 5.0**2)).astype(complex)
        psi /= np.sqrt(state_norm(psi, g.dx))
        masked = psi * MaskSpec().values(g.x)
        assert state_norm(masked, g.dx) == pytest.approx(1.0, abs=1e-10)

    def test_ground_state_mostly_removed(self, fine_grid, soft_ground):
        psi, _ = soft_ground
        masked = psi * MaskSpec().values(fine_grid.x)
        assert state_norm(masked, fine_grid.dx) < 1e-2

    def test_ground_state_tail_from_oracle(self, fine_grid, atom):
        # independent eigensolver confirms the bound tail past the mask edge
        _, vecs = fd_eigenstates(fine_grid, potential_atom(fine_grid.x, atom))
        tail = np.abs(vecs[0])[np.abs(fine_grid.x) > 4.0]
        assert np.sum(tail**2) * fine_grid.dx < 1e-2


class TestPurity:
    def test_single_state(self):
        a = random_states(1, 64, 0)
        assert purity(a, 0.1) == pytest.approx(1.0, abs=1e-12)

    def test_orthonormal_pair(self):
        dx = 0.1
        a = np.zeros((2, 64), dtype=complex)
        a[0, 10] = 1.0 / np.sqrt(dx)
        a[1, 20] = 1.0 / np.sqrt(dx)
        assert purity(a, dx) == pytest.approx(0.5, abs=1e-12)

    @pytest.mark.parametrize("m", [2, 4, 8])
    @pytest.mark.parametrize("n", [32, 64])
    def test_gram_equals_dense_oracle(self, m, n):
        dx = 0.1
        a = random_states(m, n, seed=m * 100 + n, normalize=False)
        rho = sum(np.outer(v, v.conj()) for v in a) / m * dx
        dense = np.trace(rho @ rho).real / np.trace(rho).real ** 2
        assert purity(a, dx) == pytest.approx(dense, abs=1e-10)

    def test_bounds(self):
        for m in (2, 3, 5, 8):
            a = random_states(m, 128, seed=m)
            p = purity(a, 0.1)
            assert 1.0 / m - 1e-12 <= p <= 1.0 + 1e-12

    def test_parallel_states_give_one(self):
        base = random_states(1, 64, 3)[0]
        phases = np.exp(1j * np.linspace(0, 2, 5))
        a = np.stack([ph * base for ph in phases])
        assert purity(a, 0.1) == pytest.approx(1.0, abs=1e-12)

    def test_all_zero_masked_error(self):
        a = np.zeros((3, 64), dtype=complex)
        with pytest.raises(ValueError):
            purity(a, 0.1)


class TestRunEnsemble:
    def test_single_gas_config_matches_direct_run(self):
        spec = EnsembleSpec(n_c=1, perturber=PerturberParams(A_E=0.0), **TINY)
        rec = run_ensemble(spec)
        grid = spec.grid()
        psi0, _ = ground_state(grid,
                               lambda x: potential_atom(x, spec.atom))
        plan = PropagatorPlan(grid, spec.dt,
                              potential_atom(grid.x, spec.atom), spec.laser,
                              mask=absorber_mask(grid))
        direct = propagate(psi0, plan, 0.0, spec.laser.duration,
                           gradient_atom(grid.x, spec.atom),
                           record_stride=spec.record_stride,
                           probe_times=spec.probe_times())
        np.testing.assert_array_equal(rec.accel[:, 0], direct.accel)
        np.testing.assert_array_equal(rec.norm[:, 0], direct.norm)

    def test_mean_is_arithmetic_mean(self):
        """The configuration mean of ⟨x⟩ is ⟨x⟩ of the uniform mixture,
        tr[ρ x] with ρ = (1/N_c) Σ |ψ_i⟩⟨ψ_i|, at the recorded snapshot
        times."""
        spec = EnsembleSpec(n_c=3, **TINY)
        rec = run_ensemble(spec)
        grid = spec.grid()
        both = np.isin(rec.snapshot_times, rec.times)
        assert np.count_nonzero(both) >= 4
        rows = np.searchsorted(rec.times, rec.snapshot_times[both])
        rho_diag = np.mean(np.abs(rec.snapshots[both]) ** 2, axis=1)
        np.testing.assert_allclose(rec.x_expect[rows].mean(axis=1),
                                   rho_diag @ grid.x * grid.dx,
                                   rtol=1e-10, atol=1e-13)

    @pytest.mark.parametrize("n_c, workers", [(4, 2), (4, 3)])
    def test_worker_count_does_not_change_results(self, n_c, workers):
        """Blocks of any size, even uneven ones (1, 1, 2 at three workers),
        join to the single-block record in configuration order."""
        spec = EnsembleSpec(n_c=n_c, **TINY)
        serial = run_ensemble(spec, workers=1)
        parallel = run_ensemble(spec, workers=workers)
        for name in ("times", "norm", "x_expect", "accel", "snapshot_times",
                     "snapshots"):
            np.testing.assert_array_equal(getattr(serial, name),
                                          getattr(parallel, name))
        assert parallel.n_c == n_c
        for a, b in zip(serial.configs, parallel.configs):
            np.testing.assert_array_equal(a.positions, b.positions)

    def test_same_seed_identical(self):
        spec = EnsembleSpec(n_c=2, **TINY)
        a = run_ensemble(spec)
        b = run_ensemble(spec)
        np.testing.assert_array_equal(a.accel, b.accel)

    def test_mirrored_pair_cancels(self, monkeypatch):
        """A configuration and its mirror image under the mirrored field
        average to zero dipole at every recorded time, in particular at the
        field zero crossings."""
        spec = EnsembleSpec(n_c=1, **TINY)
        grid = spec.grid()
        pos = np.array([-31.0, -12.0, 8.0, 27.0])
        flipped = EnvironmentConfig(positions=-pos[::-1])
        config = EnvironmentConfig(positions=pos)
        psi0, _ = ground_state(grid, lambda x: potential_atom(x, spec.atom))
        grads, recs = {}, {}
        for tag, cfg, sign in (("plus", config, 1.0),
                               ("minus", flipped, -1.0)):
            v = potential_atom(grid.x, spec.atom) \
                + potential_env(grid.x, cfg, spec.perturber)
            g = gradient_atom(grid.x, spec.atom) \
                + gradient_env(grid.x, cfg, spec.perturber)
            plan = PropagatorPlan(grid, spec.dt, v, spec.laser,
                                  mask=absorber_mask(grid))
            with monkeypatch.context() as m:
                if sign < 0:
                    m.setattr(tdse, "field_at",
                              lambda t, l: -model.field_at(t, l))
                recs[tag] = propagate(psi0, plan, 0.0,
                                      spec.laser.duration, g, record_stride=2)
        pair_mean = 0.5 * (recs["plus"].x_expect + recs["minus"].x_expect)
        scale = np.abs(recs["plus"].x_expect).max()
        assert np.abs(pair_mean).max() < 1e-9 * scale
        # spot-check the field zero crossings
        T = spec.laser.period
        for k in (2, 3, 4):
            idx = np.argmin(np.abs(recs["plus"].times - k * T / 2))
            assert abs(pair_mean[idx]) < 1e-9 * scale


class TestFailureReporting:
    @pytest.fixture
    def block(self):
        from hhg1d.sampler import SeededRng, sample_configuration
        spec = EnsembleSpec(n_c=2, **TINY)
        configs = [sample_configuration(SeededRng(0, i), spec.structure)
                   for i in range(2)]
        return spec, configs

    @pytest.fixture
    def steps(self, monkeypatch):
        """Counts `tdse.step` calls; `steps.poison[k] = row` turns that
        row of the state from call k on into NaN."""
        real_step = tdse.step

        def counting_step(psi, t, plan):
            counting_step.calls += 1
            psi = real_step(psi, t, plan)
            row = counting_step.poison.get(counting_step.calls)
            if row is not None:
                psi[row] = np.nan
            return psi

        counting_step.calls, counting_step.poison = 0, {}
        monkeypatch.setattr(tdse, "step", counting_step)
        return counting_step

    def test_propagation_failure_carries_config_index(self, block):
        from hhg1d.ensemble import PropagationFailure, _propagate_block
        spec, configs = block
        poisoned = np.full(spec.grid().n, np.nan, dtype=complex)
        with pytest.raises(PropagationFailure) as exc:
            _propagate_block(spec, configs, poisoned, first_index=5)
        assert exc.value.config_index == 5

    def test_propagation_failure_survives_pickling(self):
        import pickle
        from hhg1d.ensemble import PropagationFailure
        exc = PropagationFailure(7, 42)
        back = pickle.loads(pickle.dumps(exc))
        assert (back.config_index, back.step) == (7, 42)
        assert str(back) == str(exc) == \
            "propagation failed for configuration 7: norm not finite at step 42"

    def test_worker_failure_reaches_the_parent(self, block):
        # a block run in a worker process sends its failure back pickled; a
        # class that cannot be rebuilt there breaks the pool instead
        from concurrent.futures import ProcessPoolExecutor
        from hhg1d.ensemble import PropagationFailure, _propagate_block
        spec, configs = block
        poisoned = np.full(spec.grid().n, np.nan, dtype=complex)
        with ProcessPoolExecutor(max_workers=1) as pool:
            future = pool.submit(_propagate_block, spec, configs, poisoned, 5)
            with pytest.raises(PropagationFailure) as exc:
                future.result()
        assert (exc.value.config_index, exc.value.step) == (5, 0)
        assert "configuration 5: norm not finite at step 0" in str(exc.value)

    def test_poisoned_state_is_never_stepped(self, block, steps):
        from hhg1d.ensemble import PropagationFailure, _propagate_block
        spec, configs = block
        poisoned = np.full(spec.grid().n, np.nan, dtype=complex)
        with pytest.raises(PropagationFailure) as exc:
            _propagate_block(spec, configs, poisoned, first_index=5)
        assert (exc.value.config_index, exc.value.step) == (5, 0)
        assert "configuration 5" in str(exc.value)
        assert "step 0" in str(exc.value)
        assert steps.calls == 0

    def test_nan_mid_run_names_its_record_step(self, block, steps):
        from hhg1d.ensemble import PropagationFailure, _propagate_block
        spec, configs = block
        assert spec.record_stride == 2
        psi0, _ = ground_state(spec.grid(),
                               lambda x: potential_atom(x, spec.atom))
        steps.poison[41] = 1       # step 41; the next record is step 42
        with pytest.raises(PropagationFailure) as exc:
            _propagate_block(spec, configs, psi0, first_index=3)
        assert (exc.value.config_index, exc.value.step) == (4, 42)
        assert "configuration 4: norm not finite at step 42" \
            in str(exc.value)
        assert steps.calls == 42


class TestPuritySeries:
    def test_gas_phase_stays_pure(self):
        spec = EnsembleSpec(n_c=3, perturber=PerturberParams(A_E=0.0), **TINY)
        rec = run_ensemble(spec)
        _, p_tot, _ = purity_series(rec.snapshot_times, rec.snapshots,
                                    spec.grid())
        np.testing.assert_allclose(p_tot, 1.0, atol=1e-9)

    def test_liquid_purity_bounded(self):
        spec = EnsembleSpec(n_c=3, **TINY)
        rec = run_ensemble(spec)
        _, p_tot, p_ph = purity_series(rec.snapshot_times, rec.snapshots,
                                       spec.grid(), MaskSpec())
        assert np.all(p_tot <= 1.0 + 1e-9)
        assert np.all(p_ph <= 1.0 + 1e-9)
        assert np.all(p_tot >= 1.0 / 3 - 1e-9)


class TestMaps:
    def test_rank_one_factorization(self):
        g = Grid(-20.0, 20.0, 128)
        psi = np.exp(-g.x**2 / 8).astype(complex)
        m = density_matrix_map(psi[None, :], g)
        expect = np.outer(np.abs(psi) ** 2, np.abs(psi) ** 2)
        np.testing.assert_allclose(m.values, expect, atol=1e-14)

    def test_hermitian_symmetry(self):
        g = Grid(-20.0, 20.0, 128)
        states = random_states(4, 128, 9)
        m = density_matrix_map(states, g, stride=2)
        np.testing.assert_allclose(m.values, m.values.T, rtol=0, atol=1e-15)

    def test_region_outside_grid(self):
        g = Grid(-20.0, 20.0, 128)
        with pytest.raises(ValueError):
            density_matrix_map(random_states(2, 128, 1), g,
                               x_range=(-30.0, 10.0))

    def test_probability_map_trace(self):
        spec = EnsembleSpec(n_c=2, **TINY)
        rec = run_ensemble(spec)
        grid = spec.grid()
        pmap = probability_density_map(rec.snapshot_times, rec.snapshots,
                                       grid)
        traces = pmap.values.sum(axis=1) * grid.dx
        # per-time trace equals mean surviving norm
        snap_norms = state_norm(rec.snapshots, grid.dx).mean(axis=1)
        np.testing.assert_allclose(traces, snap_norms, rtol=1e-12)

