import math

import numpy as np
import pytest

from hhg1d.model import (AtomParams, LaserParams, ponderomotive_energy,
                         potential_atom)
from hhg1d.semiclassics import (FLOW_STEP, ROOT_TOL, BackscatterTrajectory,
                                OrbitError, _drift_kick, _field_only_x_float,
                                classify, classical_flow,
                                find_periodic_orbit,
                                find_returns, max_return_energy, monodromy,
                                overlay_orbit, quiver_guess, return_energy,
                                sfa_momentum, sfa_position, symmetry_partner)
from hhg1d.splitting import DRIFT_COEFFS, KICK_COEFFS, KICK_TIMES

LASER = LaserParams(F_L=0.15, omega_L=0.044)
ATOM = AtomParams()
T = LASER.period
UP = ponderomotive_energy(LASER)
ORACLE_MESH_PER_CYCLE = 20000   # cells of T/20000 ≈ 0.007 a.u.


def roots_on_arrays(fn, t_from, horizon):
    """Reference arrival search, independent of the turning times: a dense
    mesh + bisection of every bracket at once as numpy arrays, until every
    bracket is narrower than ROOT_TOL.  It misses two crossings that fall
    inside one mesh cell."""
    n_mesh = int(round(ORACLE_MESH_PER_CYCLE * horizon))
    span = horizon * T
    t = np.linspace(t_from + span / n_mesh, t_from + span, n_mesh + 1)
    v = fn(t)
    flip = np.flatnonzero(np.sign(v[:-1]) * np.sign(v[1:]) < 0)
    exact = np.flatnonzero(v[1:] == 0.0)
    lo, hi = t[flip], t[flip + 1]
    v_lo = v[flip]
    while lo.size and np.max(hi - lo) > ROOT_TOL:
        mid = 0.5 * (lo + hi)
        v_mid = fn(mid)
        left = np.sign(v_lo) * np.sign(v_mid) < 0
        hi = np.where(left, mid, hi)
        lo = np.where(left, lo, mid)
        v_lo = np.where(left, v_lo, v_mid)
    return np.sort(np.concatenate([0.5 * (lo + hi), t[exact + 1]]))


def returns_on_arrays(t_i, ell, horizon):
    """Reference (t_r, e_r, side) of `find_returns`, one search per target."""
    targets = [0.0] if ell == 0.0 else [ell, -ell]
    roots = [roots_on_arrays(lambda t: sfa_position(t, t_i, LASER) - target,
                             t_i, horizon) for target in targets]
    side = np.repeat(np.sign(targets), [r.size for r in roots]).astype(int)
    t_r = np.concatenate(roots)
    order = np.argsort(t_r, kind="stable")
    e_r = np.array([return_energy(t, t_i, LASER) for t in t_r[order]])
    return t_r[order], e_r, side[order]


def drift_kick_indexed(z0, t0, t1, laser, atom, tangent):
    """Reference flow: the composition of `_drift_kick`, with the stage
    coefficients held in three lists indexed by stage."""
    span = t1 - t0
    n = max(1, int(np.ceil(abs(span) / FLOW_STEP))) if span else 0
    h = span / max(n, 1)
    x, p = float(z0[0]), float(z0[1])
    m00, m01, m10, m11 = 1.0, 0.0, 0.0, 1.0
    w, f = laser.omega_L, laser.F_L
    alpha = atom.softening if atom is not None else None
    ah = (DRIFT_COEFFS * h).tolist()
    bh = (KICK_COEFFS * h).tolist()
    ch = (KICK_TIMES * h).tolist()
    for k in range(n):
        t = t0 + k * h
        x += ah[0] * p
        if tangent:
            m00 += ah[0] * m10
            m01 += ah[0] * m11
        for j in range(6):
            force = f * math.sin(w * (t + ch[j]))
            if alpha is not None:
                r2 = x * x + alpha
                force += x * r2**-1.5
                if tangent:
                    curv = bh[j] * (alpha - 2.0 * x * x) * r2**-2.5
                    m10 -= curv * m00
                    m11 -= curv * m01
            p -= bh[j] * force
            x += ah[j + 1] * p
            if tangent:
                m00 += ah[j + 1] * m10
                m01 += ah[j + 1] * m11
    return np.array([x, p]), np.array([[m00, m01], [m10, m11]])


class TestSfaTrajectory:
    def test_launch_conditions(self):
        for t_i in (0.13 * T, 0.41 * T, 0.77 * T):
            assert sfa_position(t_i, t_i, LASER) == 0.0
            assert sfa_momentum(t_i, t_i, LASER) == 0.0

    def test_zero_drift_is_bounded(self):
        t_i = 0.25 * T  # cos(ω t_i) = 0
        t = np.linspace(t_i, t_i + 10 * T, 4000)
        x = sfa_position(t, t_i, LASER)
        assert np.abs(x).max() <= 2.01 * LASER.F_L / LASER.omega_L**2

    def test_float_position_is_bitwise_array_position(self):
        rng = np.random.default_rng(36)
        for t_i in rng.uniform(0, T, 20):
            x_at = _field_only_x_float(t_i, 0.0, 0.0, LASER)
            t = t_i + rng.uniform(0, 2.5 * T, 500)
            got = np.array([x_at(s) for s in t.tolist()])
            assert got.tobytes() == sfa_position(t, t_i, LASER).tobytes()
            # the second segment of a backscattered path
            traj = BackscatterTrajectory(t_i, t_i + 0.4 * T, LASER)
            x_at = _field_only_x_float(traj.t_s, traj.x_s, -traj.p_s, LASER)
            t = traj.t_s + rng.uniform(0, 2.5 * T, 500)
            got = np.array([x_at(s) for s in t.tolist()])
            assert got.tobytes() == traj.position(t).tobytes()

    def test_energy_identity(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            t_i = rng.uniform(0, T)
            t_r = t_i + rng.uniform(0, 2 * T)
            direct = 0.5 * sfa_momentum(t_r, t_i, LASER) ** 2
            assert direct == pytest.approx(
                float(return_energy(t_r, t_i, LASER)), abs=1e-12 * UP)


class TestReturns:
    def test_classic_maximum(self):
        e = max_return_energy(0.0, LASER, n_launch=1000)
        assert e / UP == pytest.approx(3.17, abs=0.02)

    def test_unreachable_distance(self):
        t_i = 0.05 * T
        t_r, e_r, side = find_returns(t_i, 1e4, LASER)
        assert t_r.size == e_r.size == side.size == 0

    def test_return_energy_zero_at_launch(self):
        assert float(return_energy(0.3 * T, 0.3 * T, LASER)) == 0.0

    def test_completeness_under_mesh_refinement(self):
        rng = np.random.default_rng(8)
        for _ in range(60):
            t_i = rng.uniform(0, T)
            ell = rng.uniform(0, 40.0)
            got = find_returns(t_i, ell, LASER)[0]
            want = returns_on_arrays(t_i, ell, 1.5)[0]
            assert got.size == want.size
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-9)

    def test_matches_dense_mesh_bisection(self):
        rng = np.random.default_rng(34)
        arrivals = 0
        for k in range(200):
            t_i = rng.uniform(0, T)
            ell = 0.0 if k % 4 == 0 else rng.uniform(0, 40.0)
            horizon = rng.uniform(0.2, 2.5)
            t_r, e_r, side = find_returns(t_i, ell, LASER, horizon)
            want_t, want_e, want_side = returns_on_arrays(t_i, ell, horizon)
            assert t_r.dtype == e_r.dtype == want_t.dtype
            assert side.dtype == want_side.dtype
            assert t_r.size == want_t.size
            np.testing.assert_array_equal(side, want_side)
            np.testing.assert_allclose(t_r, want_t, rtol=0, atol=1e-9)
            np.testing.assert_allclose(e_r, want_e, rtol=0, atol=1e-8)
            arrivals += t_r.size
        assert arrivals > 200

    def test_zero_field_has_no_returns(self):
        # the path rests on x = 0: neither a root nor a crossing of ±ell
        laser_off = LaserParams(F_L=0.0, omega_L=0.044)
        for ell in (0.0, 5.0):
            t_r, e_r, side = find_returns(0.3 * T, ell, laser_off)
            assert t_r.size == e_r.size == side.size == 0
        traj = BackscatterTrajectory(0.1 * T, 0.6 * T, laser_off)
        assert traj.origin_returns()[0].size == 0

    def test_grazing_level_gives_both_crossings(self):
        # 1e-6 inside the extremum at the turning time T - t_i, |x| = ell
        # twice within 0.01 a.u., both inside one cell of a T/2000 mesh
        t_i = 0.1 * T
        t_turn = T - t_i
        ell = abs(float(sfa_position(t_turn, t_i, LASER))) - 1e-6
        t_r, _, side = find_returns(t_i, ell, LASER)
        near = np.abs(t_r - t_turn) < 0.01
        assert near.sum() == 2
        before, after = t_r[near]
        assert before < t_turn < after
        assert after - before < T / 2000
        np.testing.assert_array_equal(side[near], -1)
        np.testing.assert_allclose(
            np.abs(sfa_position(t_r[near], t_i, LASER)), ell, rtol=0,
            atol=1e-9)

    def test_arrays_are_aligned_arrivals(self):
        rng = np.random.default_rng(21)
        horizon = 1.5
        arrivals = 0
        for k in range(80):
            t_i = rng.uniform(0, T)
            ell = 0.0 if k % 4 == 0 else rng.uniform(0, 40.0)
            t_r, e_r, side = find_returns(t_i, ell, LASER, horizon)
            assert t_r.size == e_r.size == side.size
            arrivals += t_r.size
            assert np.all(np.diff(t_r) > 0)
            assert np.all((t_r > t_i) & (t_r <= t_i + horizon * T))
            x = sfa_position(t_r, t_i, LASER)
            np.testing.assert_allclose(np.abs(x), ell, rtol=0, atol=1e-8)
            np.testing.assert_array_equal(side,
                                          np.sign(x) if ell > 0 else 0)
            np.testing.assert_allclose(e_r, 0.5 * sfa_momentum(t_r, t_i,
                                                               LASER) ** 2,
                                       rtol=0, atol=1e-12 * UP)
        assert arrivals > 80

    def test_continuity_at_small_distance(self):
        e0 = max_return_energy(0.0, LASER, n_launch=600)
        e_eps = max_return_energy(1e-4, LASER, n_launch=600)
        assert e_eps == pytest.approx(e0, rel=1e-3)

    def test_linear_growth_with_distance(self):
        ells = np.array([10.0, 30.0, 60.0])
        es = [max_return_energy(l, LASER, n_launch=400) for l in ells]
        assert es[0] > 3.17 * UP
        assert es[2] > es[1] > es[0]


class TestBackscatter:
    def test_zero_momentum_reversal_is_identity(self):
        t_i = 0.05 * T
        # find a time where p = 0 (turning point)
        t = np.linspace(t_i + 0.01, t_i + 2 * T, 40001)
        p = sfa_momentum(t, t_i, LASER)
        k = np.argmin(np.abs(p))
        traj = BackscatterTrajectory(t_i, float(t[k]), LASER)
        probe = np.linspace(t_i, t_i + 1.5 * T, 500)
        np.testing.assert_allclose(traj.position(probe),
                                   sfa_position(probe, t_i, LASER),
                                   atol=1e-4 * LASER.F_L / LASER.omega_L**2)

    def test_position_continuous_at_reversal(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            t_i = rng.uniform(0, T)
            t_s = t_i + rng.uniform(0.05 * T, 1.5 * T)
            traj = BackscatterTrajectory(t_i, t_s, LASER)
            eps = 1e-7
            before = float(traj.position(t_s - eps))
            after = float(traj.position(t_s + eps))
            assert after == pytest.approx(before, abs=1e-4)

    def test_momentum_flips_at_reversal(self):
        traj = BackscatterTrajectory(0.08 * T, 0.6 * T, LASER)
        eps = 1e-9
        assert float(traj.momentum(0.6 * T + eps)) == pytest.approx(
            -float(traj.momentum(0.6 * T - eps)), abs=1e-6)

    def test_origin_returns_match_array_bisection(self):
        rng = np.random.default_rng(35)
        arrivals = 0
        for _ in range(40):
            t_i = rng.uniform(0, T)
            traj = BackscatterTrajectory(t_i, t_i + rng.uniform(0.05, 1.0) * T,
                                         LASER)
            t_r, e_r = traj.origin_returns()
            want = roots_on_arrays(traj.position, traj.t_s, 1.5)
            assert t_r.size == want.size
            np.testing.assert_allclose(t_r, want, rtol=0, atol=1e-9)
            np.testing.assert_allclose(e_r, 0.5 * traj.momentum(want) ** 2,
                                       rtol=0, atol=1e-8)
            arrivals += t_r.size
        assert arrivals > 10

    def test_boost_beyond_classic_limit(self):
        """Some reversal exists whose origin return exceeds 3.17 U_p."""
        best = 0.0
        for t_i in np.linspace(0.0, 0.5 * T, 40):
            for t_s in np.linspace(t_i + 0.05 * T, t_i + T, 40):
                traj = BackscatterTrajectory(t_i, t_s, LASER)
                _, e_r = traj.origin_returns(horizon=1.5)
                best = max(best, e_r.max(initial=0.0))
        assert best > 3.17 * UP


class TestClassicalFlow:
    def test_laser_only_quiver_is_periodic(self):
        z0 = quiver_guess(2 * T, LASER)
        z1 = classical_flow(z0, 2 * T, 3 * T, LASER, None)
        assert np.linalg.norm(z1 - z0) < 1e-10

    def test_field_off_energy_conservation(self):
        laser_off = LaserParams(F_L=0.0, omega_L=0.044)
        z = np.array([1.0, 0.0])
        energy = lambda z: 0.5 * z[1] ** 2 + float(potential_atom(z[0], ATOM))
        e0 = energy(z)
        z_end = classical_flow(z, 0.0, 36.5, laser_off, ATOM)
        assert abs(energy(z_end) - e0) < 1e-10

    def test_flow_composition(self):
        z0 = np.array([-3.0, 1.2])
        direct = classical_flow(z0, 0.0, 1.7 * T, LASER, ATOM)
        mid = classical_flow(z0, 0.0, 0.8 * T, LASER, ATOM)
        stitched = classical_flow(mid, 0.8 * T, 1.7 * T, LASER, ATOM)
        assert np.linalg.norm(direct - stitched) < 1e-8

    def test_half_period_antisymmetry(self):
        z0 = np.array([2.0, -0.7])
        a = classical_flow(z0, 0.3 * T, 0.9 * T, LASER, ATOM)
        b = classical_flow(-z0, 0.3 * T + 0.5 * T, 0.9 * T + 0.5 * T,
                           LASER, ATOM)
        assert np.linalg.norm(b + a) < 1e-9


    @pytest.mark.parametrize("atom", [None, ATOM],
                             ids=["field_only", "soft_core"])
    @pytest.mark.parametrize("t0, t1", [(0.2 * T, 1.57 * T),
                                        (1.3 * T, 0.47 * T),
                                        (0.6 * T, 0.6 * T)],
                             ids=["forward", "backward", "zero"])
    def test_bitwise_equal_to_indexed_loop(self, t0, t1, atom):
        z0 = np.array([2.5, -0.4])
        for tangent in (False, True):
            got = _drift_kick(z0, t0, t1, LASER, atom, tangent)
            want = drift_kick_indexed(z0, t0, t1, LASER, atom, tangent)
            assert [g.tobytes() for g in got] == [w.tobytes() for w in want]
        assert classical_flow(z0, t0, t1, LASER, atom).tobytes() == \
            drift_kick_indexed(z0, t0, t1, LASER, atom, False)[0].tobytes()
        got = monodromy(z0, t0, LASER, atom)
        want = drift_kick_indexed(z0, t0, t0 + T, LASER, atom, True)
        assert [g.tobytes() for g in got] == [w.tobytes() for w in want]


class TestMonodromy:
    def test_symplectic_along_arbitrary_trajectory(self):
        for z0 in ([3.0, 0.5], [-20.0, 1.5], [0.3, -2.0]):
            _, m = monodromy(np.array(z0), 0.37 * T, LASER, ATOM)
            assert np.linalg.det(m) == pytest.approx(1.0, abs=1e-8)

    def test_free_shear(self):
        _, m = monodromy(np.array([1.0, 2.0]), 0.0, LASER, None)
        np.testing.assert_allclose(m, [[1.0, T], [0.0, 1.0]], rtol=1e-12)

    def test_against_finite_difference_of_flow(self):
        z0 = np.array([1.5, 0.8])
        t0 = 0.21 * T
        _, m = monodromy(z0, t0, LASER, ATOM)
        eps = 1e-6
        fd = np.empty((2, 2))
        for j in range(2):
            dz = np.zeros(2)
            dz[j] = eps
            plus = classical_flow(z0 + dz, t0, t0 + T, LASER, ATOM)
            minus = classical_flow(z0 - dz, t0, t0 + T, LASER, ATOM)
            fd[:, j] = (plus - minus) / (2 * eps)
        assert np.max(np.abs(m - fd) / np.maximum(np.abs(m), 1.0)) < 1e-4


class TestPeriodicOrbits:
    @pytest.fixture(scope="class")
    def orbit(self):
        return find_periodic_orbit(quiver_guess(2 * T, LASER), 2 * T,
                                   LASER, ATOM)

    def test_residual_and_classification(self, orbit):
        assert orbit.residual < 1e-10
        assert orbit.classification == "hyperbolic"
        assert abs(np.trace(orbit.monodromy)) > 2.0

    def test_monodromy_unit_determinant(self, orbit):
        assert np.linalg.det(orbit.monodromy) == pytest.approx(1.0,
                                                               abs=1e-8)

    def test_closes_over_one_period(self, orbit):
        z1 = classical_flow(orbit.z_star, orbit.t0, orbit.t0 + T, LASER,
                            ATOM)
        assert np.linalg.norm(z1 - orbit.z_star) < 1e-9

    def test_newton_quadratic_convergence(self, orbit):
        # the strongly sheared Jacobian gives a sizeable quadratic constant,
        # so the r' <= C r^2 regime only starts below r ~ 1e-3
        z = orbit.z_star + np.array([2e-6, 2e-6])
        residuals = []
        for _ in range(4):
            z_t, m = monodromy(z, orbit.t0, LASER, ATOM)
            g = z_t - z
            residuals.append(np.linalg.norm(g))
            z = z + np.linalg.solve(m - np.eye(2), -g)
        assert residuals[0] < 1e-3
        big_c = 1e6
        for r_k, r_next in zip(residuals[:-1], residuals[1:]):
            assert r_next <= big_c * r_k**2
        assert residuals[-1] < 1e-9

    def test_symmetry_partner(self, orbit):
        partner = symmetry_partner(orbit, LASER, ATOM)
        np.testing.assert_allclose(partner.z_star, -orbit.z_star,
                                   atol=1e-10)
        assert partner.residual < 1e-9
        assert np.trace(partner.monodromy) == pytest.approx(
            np.trace(orbit.monodromy), abs=1e-8)
        # partner of the partner recovers the original point
        back = symmetry_partner(partner, LASER, ATOM)
        np.testing.assert_allclose(back.z_star, orbit.z_star, atol=1e-10)

    def test_degenerate_field_only_system(self):
        with pytest.raises(OrbitError):
            find_periodic_orbit(np.array([0.5, LASER.F_L / LASER.omega_L]),
                                2 * T, LASER, None)

    def test_overlay_periodicity(self, orbit):
        times, x = overlay_orbit(orbit, LASER, ATOM, 2 * T, 6 * T,
                                 n_per_period=128)
        per = 128
        np.testing.assert_allclose(x[:per], x[per:2 * per], atol=1e-9)

    def test_overlay_near_origin_at_field_peaks(self, orbit):
        times, x = overlay_orbit(orbit, LASER, ATOM, 2 * T, 3 * T,
                                 n_per_period=512)
        quiver = LASER.F_L / LASER.omega_L**2
        for peak_phase in (2.25 * T, 2.75 * T):
            k = np.argmin(np.abs(times - peak_phase))
            # |x| greatest near field peaks; momentum smallest there
            assert abs(x[k]) > 0.8 * quiver
        z_at_peak = classical_flow(orbit.z_star, orbit.t0, 2.25 * T, LASER,
                                   ATOM)
        assert abs(z_at_peak[1]) < 0.05 * LASER.F_L / LASER.omega_L

    def test_quiver_guess_approximates_orbit(self, orbit):
        guess = quiver_guess(2 * T, LASER)
        quiver = LASER.F_L / LASER.omega_L**2
        assert np.abs(guess - orbit.z_star).max() < 0.15 * quiver


class TestClassify:
    def test_thresholds(self):
        assert classify(np.array([[3.0, 0.0], [0.0, 1.0 / 3.0]])) \
            == "hyperbolic"
        assert classify(np.array([[0.5, -1.0], [1.0, 0.5]])) == "elliptic"
        assert classify(np.eye(2)) == "parabolic"
