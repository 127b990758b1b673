import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hhg1d.model import (AtomParams, EnvironmentConfig, LaserParams,
                         PerturberParams, envelope, field_at,
                         field_from_intensity_wcm2, gradient_atom,
                         gradient_env, omega_from_wavelength_nm,
                         ponderomotive_energy, potential_atom, potential_env,
                         quiver_radius)


@pytest.fixture
def laser():
    return LaserParams(F_L=0.15, omega_L=0.044, n_up=2, n_plateau=11, n_down=2)


class TestEnvelope:
    def test_plateau_value(self, laser):
        assert envelope(5.0 * laser.period, laser) == 1.0

    def test_ramp_start(self, laser):
        assert envelope(0.0, laser) == 0.0

    def test_ramp_midpoint(self, laser):
        assert envelope(laser.period, laser) == pytest.approx(0.5)

    def test_zero_after_pulse(self, laser):
        assert envelope(laser.duration + 1.0, laser) == 0.0

    def test_bounded_and_continuous(self, laser):
        t = np.linspace(0.0, laser.duration * 1.1, 20001)
        f = envelope(t, laser)
        assert f.max() <= 1.0 and f.min() >= 0.0
        # piecewise linear: largest jump between adjacent samples ~ dt/ramp
        dt = t[1] - t[0]
        assert np.max(np.abs(np.diff(f))) < 1.01 * dt / (2 * laser.period)


class TestField:
    def test_zero_at_start(self, laser):
        assert field_at(0.0, laser) == 0.0

    def test_plateau_peak(self, laser):
        t = 5.25 * laser.period
        assert field_at(t, laser) == pytest.approx(laser.F_L, rel=1e-12)

    def test_zero_beyond_pulse(self, laser):
        t = laser.duration + np.linspace(0.0, 50.0, 7)
        assert np.all(field_at(t, laser) == 0.0)

    def test_quiver_radius_matches_reference_scale(self, laser):
        # 0.15 a.u. at 1030 nm puts the excursion amplitude near 77 a.u.
        assert quiver_radius(laser) == pytest.approx(77.5, abs=0.5)


class TestPotentials:
    def test_atom_at_origin(self, atom):
        assert potential_atom(0.0, atom) == pytest.approx(-0.4837**-0.5)
        assert potential_atom(0.0, atom) == pytest.approx(-1.4378, abs=2e-4)

    def test_atom_asymptotics(self, atom):
        x = np.array([1e3, -1e3])
        assert potential_atom(x, atom) == pytest.approx(-1.0 / np.abs(x),
                                                        rel=1e-6)

    def test_atom_even(self, atom):
        x = np.linspace(0.1, 40.0, 100)
        np.testing.assert_allclose(potential_atom(x, atom),
                                   potential_atom(-x, atom), rtol=1e-14)

    def test_env_gas_phase_vanishes(self):
        config = EnvironmentConfig(positions=np.array([-10.0, 10.0]))
        pert = PerturberParams(A_E=0.0)
        assert np.all(potential_env(np.linspace(-20, 20, 50), config, pert)
                      == 0.0)

    @pytest.mark.parametrize("positions, a_e", [([-10.0, 10.0], 0.0),
                                                 ([], 0.8)],
                             ids=["no_depth", "no_chain"])
    def test_env_gas_phase_adds_nothing(self, atom, positions, a_e):
        # a run's static potential and gradient are then the atom's bytes
        config = EnvironmentConfig(positions=np.array(positions))
        pert = PerturberParams(A_E=a_e)
        x = np.linspace(-20, 20, 51)
        for atom_part, env_part in ((potential_atom, potential_env),
                                    (gradient_atom, gradient_env)):
            alone = atom_part(x, atom)
            assert np.all(env_part(x, config, pert) == 0.0)
            assert (alone + env_part(x, config, pert)).tobytes() \
                == alone.tobytes()

    def test_env_single_well_depth(self):
        config = EnvironmentConfig(positions=np.array([-30.0, 12.5]))
        pert = PerturberParams(A_E=0.8, sigma_E=0.5)
        val = potential_env(12.5, config, pert)
        assert val == pytest.approx(-0.8, abs=1e-12)

    def test_env_midpoint_underflows(self):
        config = EnvironmentConfig(positions=np.array([-10.0, 10.0]))
        pert = PerturberParams(A_E=0.8, sigma_E=0.5)
        # exp(-200) per well: zero to machine precision
        assert potential_env(0.0, config, pert) == pytest.approx(0.0,
                                                                 abs=1e-40)

    def test_env_translation_covariance(self):
        rng = np.random.default_rng(3)
        pos = np.cumsum(rng.uniform(8, 12, size=6)) - 35.0
        pert = PerturberParams()
        c = 4.25
        x = np.linspace(-30, 30, 41)
        base = potential_env(x - c, EnvironmentConfig(positions=pos), pert)
        moved = potential_env(x, EnvironmentConfig(positions=pos + c), pert)
        np.testing.assert_allclose(moved, base, rtol=1e-12, atol=1e-300)


class TestGradients:
    def test_match_finite_differences(self, atom):
        rng = np.random.default_rng(11)
        x = rng.uniform(-50.0, 50.0, size=100)
        h = 1e-4
        pert = PerturberParams()
        config = EnvironmentConfig(
            positions=np.array([-25.0, -12.0, 9.0, 21.0]))
        for f, g in ((lambda y: potential_atom(y, atom),
                      lambda y: gradient_atom(y, atom)),
                     (lambda y: potential_env(y, config, pert),
                      lambda y: gradient_env(y, config, pert))):
            fd = (f(x + h) - f(x - h)) / (2 * h)
            scale = np.maximum(np.abs(g(x)), 1e-12)
            assert np.max(np.abs(g(x) - fd) / scale) < 1e-6


class TestLaserScales:
    def test_ponderomotive_energy(self, laser):
        assert ponderomotive_energy(laser) == pytest.approx(
            (0.15 / (2 * 0.044)) ** 2)
        assert ponderomotive_energy(laser) == pytest.approx(2.906, abs=1e-3)

    def test_cutoff_order_near_reference(self, laser):
        up = ponderomotive_energy(laser)
        order = (3.17 * up + 0.90) / laser.omega_L
        assert order == pytest.approx(230.0, abs=3.0)

    def test_zero_field(self):
        assert ponderomotive_energy(LaserParams(F_L=0.0)) == 0.0


class TestUnits:
    def test_wavelength_1030(self):
        assert omega_from_wavelength_nm(1030.0) == pytest.approx(0.044,
                                                                 abs=3e-4)

    def test_wavelength_800(self):
        assert omega_from_wavelength_nm(800.0) == pytest.approx(0.057,
                                                                abs=3e-4)

    def test_reference_intensity_maps_to_default_field(self):
        assert field_from_intensity_wcm2(7.896e14) == pytest.approx(0.15,
                                                                    abs=5e-5)


class TestValidation:
    def test_environment_must_straddle_origin(self):
        with pytest.raises(ValueError):
            EnvironmentConfig(positions=np.array([1.0, 2.0]))

    def test_environment_must_increase(self):
        with pytest.raises(ValueError):
            EnvironmentConfig(positions=np.array([-1.0, -2.0, 3.0, 4.0]))

    def test_environment_even_count(self):
        with pytest.raises(ValueError):
            EnvironmentConfig(positions=np.array([-1.0, 1.0, 2.0]))

    def test_bad_laser(self):
        with pytest.raises(ValueError):
            LaserParams(omega_L=-1.0)

    def test_bad_softening(self):
        with pytest.raises(ValueError):
            AtomParams(softening=0.0)


@settings(max_examples=50, deadline=None)
@given(t=st.floats(0.0, 3000.0), c=st.floats(-20.0, 20.0))
def test_envelope_bounds_property(t, c):
    laser = LaserParams()
    assert 0.0 <= envelope(t, laser) <= 1.0
    assert abs(field_at(t, laser)) <= laser.F_L * 1.0000001
