import numpy as np
import pytest

from hhg1d.model import AU_TIME_FS, LaserParams
from hhg1d.spectra import (PurityFit, Spectrum, find_cutoff,
                           fit_purity_decay, gabor, gabor_window,
                           harmonic_peaks, hhg_spectrum, parity_contrast,
                           plateau_statistics)

LASER = LaserParams(F_L=0.075, omega_L=0.057, n_up=2, n_plateau=4, n_down=2)


def tone_series(orders_amps, n_cycles=16, samples_per_cycle=256, phase=0.0):
    T = LASER.period
    t = np.arange(n_cycles * samples_per_cycle) * (T / samples_per_cycle)
    d = np.zeros_like(t)
    for q, a in orders_amps:
        d += a * np.cos(q * LASER.omega_L * t + phase)
    return t, d


class TestHhgSpectrum:
    def test_pure_tone_peak_location(self):
        t, d = tone_series([(1.0, 1.0)])
        spec = hhg_spectrum(t, d, LASER)
        assert spec.orders[np.argmax(spec.magnitude)] == pytest.approx(
            1.0, abs=spec.orders[1])

    def test_tone_dominates(self):
        t, d = tone_series([(5.0, 2.0)])
        spec = hhg_spectrum(t, d, LASER)
        peaks = harmonic_peaks(spec, [3, 5, 7])
        assert peaks[1] > 100 * peaks[0]
        assert peaks[1] > 100 * peaks[2]

    def test_nonuniform_axis_rejected(self):
        t, d = tone_series([(1.0, 1.0)])
        t = t.copy()
        t[10] += 1e-3
        with pytest.raises(ValueError):
            hhg_spectrum(t, d, LASER)

    def test_parseval(self):
        rng = np.random.default_rng(0)
        d = rng.normal(size=4096)
        t = np.arange(4096) * 0.05
        spec = hhg_spectrum(t, d, LASER)
        # one-sided spectrum: double interior bins, count DC/Nyquist once
        weights = np.full(spec.magnitude.size, 2.0)
        weights[0] = 1.0
        if d.size % 2 == 0:
            weights[-1] = 1.0
        total = np.sum(weights * spec.magnitude**2)
        assert total == pytest.approx(np.sum(d**2), rel=1e-10)

    def test_uniform_axis_validation(self):
        with pytest.raises(ValueError):
            Spectrum(orders=np.array([0.0, 1.0, 3.0]),
                     magnitude=np.zeros(3))


def gabor_per_tau(times, d, t_w, omegas, taus):
    """Reference Gabor map: the windowed transform one τ row at a time, with
    e^{-iωt} built at the sample times themselves."""
    dt = times[1] - times[0]
    values = np.zeros((taus.size, omegas.size))
    for i, tau in enumerate(taus):
        lo = np.searchsorted(times, tau - 0.5 * t_w, side="right")
        hi = np.searchsorted(times, tau + 0.5 * t_w, side="left")
        if hi <= lo:
            continue
        t_seg = times[lo:hi]
        weighted = d[lo:hi] * gabor_window(tau - t_seg, t_w)
        values[i] = np.abs(np.exp(-1j * np.outer(omegas, t_seg))
                           @ weighted) * dt
    return values


class TestGabor:
    @pytest.mark.parametrize("orders", [np.array([7.3]),
                                        np.linspace(0.0, 40.0, 57)])
    def test_matches_per_tau_transform(self, orders):
        T = LASER.period
        rng = np.random.default_rng(3)
        t = np.arange(0.0, 6 * T, T / 128)
        d = rng.normal(size=t.size)
        t_w = 0.8 * T
        outside = [t[0] - 2 * t_w, t[-1] + 2 * t_w]
        taus = np.concatenate([
            rng.uniform(t[0], t[-1], 20),                    # off the grid
            [t[0] - 0.3 * t_w, t[0], t[-1], t[-1] + 0.3 * t_w],  # cut windows
            outside])
        omegas = orders * LASER.omega_L
        got = gabor(t, d, t_w, omegas, taus=taus).values
        want = gabor_per_tau(t, d, t_w, omegas, taus)
        assert got.shape == want.shape == (taus.size, omegas.size)
        assert np.all(got[-len(outside):] == 0.0)
        assert np.all(want[:-len(outside)].max(axis=1) > 0.0)
        row_max = want.max(axis=1, keepdims=True)
        assert np.all(np.abs(got - want) <= 1e-12 * row_max)

    def test_window_shape(self):
        t_w = 10.0
        t = np.linspace(-6, 6, 101)
        w = gabor_window(t, t_w)
        assert w[np.abs(t) >= 5.0].max() == 0.0
        assert w[t.size // 2] == pytest.approx(1.0)

    def test_two_tone_ridges(self):
        t, d = tone_series([(3.0, 1.0), (9.0, 0.5)])
        omegas = np.arange(1.0, 13.0, 0.25) * LASER.omega_L
        gm = gabor(t, d, 0.35 * LASER.period * 4, omegas,
                   taus=np.linspace(t[0] + 200, t[-1] - 200, 9))
        orders = omegas / LASER.omega_L
        for row in gm.values:
            trough = row[np.abs(orders - 6.0) < 1.0].max()
            for q in (3.0, 9.0):
                ridge = row[np.abs(orders - q) < 1.0].max()
                assert ridge > 3.0 * trough

    def test_burst_localised_in_time(self):
        T = LASER.period
        t = np.arange(0, 16 * T, T / 256)
        t_b = 8.3 * T
        d = np.exp(-((t - t_b) ** 2) / (2 * 1.5**2)) * np.cos(2.0 * (t - t_b))
        omegas = np.array([2.0])
        taus = np.arange(4 * T, 12 * T, T / 16)
        gm = gabor(t, d, 0.35 * T, omegas, taus=taus)
        assert taus[np.argmax(gm.values[:, 0])] == pytest.approx(t_b,
                                                                 abs=T / 8)

    def test_pure_tone_ridge_frequency(self):
        t, d = tone_series([(5.0, 1.0)])
        omegas = np.arange(3.0, 7.01, 0.125) * LASER.omega_L
        taus = np.linspace(t[0] + 300, t[-1] - 300, 7)
        gm = gabor(t, d, 0.35 * LASER.period, omegas, taus=taus)
        for row in gm.values:
            assert omegas[np.argmax(row)] / LASER.omega_L == pytest.approx(
                5.0, abs=0.25)

    def test_default_tau_grid_needs_laser(self):
        t, d = tone_series([(1.0, 1.0)])
        with pytest.raises(ValueError):
            gabor(t, d, 10.0, np.array([0.05]))
        gm = gabor(t, d, 10.0, np.array([0.05]), laser=LASER)
        assert gm.taus[1] - gm.taus[0] == pytest.approx(LASER.period / 64)


class TestPeaksAndParity:
    def test_flat_comb_mean(self):
        t, d = tone_series([(q, 1.0) for q in (11, 13, 15, 17, 19)])
        spec = hhg_spectrum(t, d, LASER)
        mean = plateau_statistics(spec, (11, 19))
        peaks = harmonic_peaks(spec, [11, 13, 15, 17, 19])
        assert mean == pytest.approx(peaks.mean())
        assert peaks.std() / peaks.mean() < 1e-6

    def test_half_period_antisymmetric_signal_has_no_even_lines(self):
        # d(t + T/2) = -d(t) kills even orders exactly
        t, d = tone_series([(3, 1.0), (5, 0.7), (7, 0.2)])
        spec = hhg_spectrum(t, d, LASER)
        assert parity_contrast(spec, (2, 8)) < 1e-10

    def test_contrast_scale_invariant(self):
        t, d = tone_series([(3, 1.0), (4, 0.3), (5, 0.7)])
        s1 = hhg_spectrum(t, d, LASER)
        s2 = hhg_spectrum(t, 37.5 * d, LASER)
        assert parity_contrast(s1, (2, 6)) == pytest.approx(
            parity_contrast(s2, (2, 6)), rel=1e-12)

    def test_even_component_raises_contrast(self):
        # band (2, 6): odd orders 3, 5 both lit; of even orders 2, 4, 6 only
        # 4 carries the tone, so the even mean is one third of the odd mean
        t, d = tone_series([(3, 1.0), (4, 1.0), (5, 1.0)])
        spec = hhg_spectrum(t, d, LASER)
        assert parity_contrast(spec, (2, 6)) == pytest.approx(1.0 / 3.0,
                                                              abs=0.03)

    def test_band_needs_enough_orders(self):
        t, d = tone_series([(3, 1.0)])
        spec = hhg_spectrum(t, d, LASER)
        with pytest.raises(ValueError):
            parity_contrast(spec, (3, 4))


class TestFindCutoff:
    def test_synthetic_knee(self):
        # flat plateau, then 0.5 decades per order: the first index whose
        # 4-order lookahead has dropped a full decade sits 2 orders before
        # the corner (smoothing shifts it slightly further)
        orders = np.arange(0.0, 80.0, 0.125)
        log_mag = np.where(orders < 40.0, -3.0, -3.0 - (orders - 40.0) * 0.5)
        spec = Spectrum(orders=orders, magnitude=10.0**log_mag)
        knee = find_cutoff(spec, search_from=10.0)
        assert knee == pytest.approx(38.0, abs=1.0)

    def test_sharp_knee_triggers_when_lookahead_crosses_corner(self):
        # steep rolloff (3 decades per order): the rule fires at the first
        # index whose 4-order lookahead already contains the decade drop,
        # i.e. at corner - 4 + 1/3 orders
        orders = np.arange(0.0, 80.0, 0.125)
        log_mag = np.where(orders < 40.0, -3.0, -3.0 - (orders - 40.0) * 3.0)
        spec = Spectrum(orders=orders, magnitude=10.0**log_mag)
        knee = find_cutoff(spec, search_from=10.0)
        assert knee == pytest.approx(36.33, abs=1.0)

    def test_no_knee_raises(self):
        orders = np.arange(0.0, 80.0, 0.125)
        spec = Spectrum(orders=orders, magnitude=np.ones(orders.size))
        with pytest.raises(ValueError):
            find_cutoff(spec, search_from=10.0)


class TestPurityFit:
    def test_exact_recovery(self):
        gamma, t_star, t0 = 0.5, 3.0, 5.0  # fs
        t_au = np.linspace(t0, t0 + 20.0, 300) / AU_TIME_FS
        p = gamma * (np.exp(-(t_au * AU_TIME_FS - t0) / t_star) - 1.0) + 1.0
        fit = fit_purity_decay(t_au, p)
        assert fit.gamma == pytest.approx(gamma, abs=1e-6)
        assert fit.t_star == pytest.approx(t_star, abs=1e-6)
        assert fit.t0 == pytest.approx(t0, abs=1e-5)
        assert not fit.degenerate

    def test_idempotence(self):
        gamma, t_star, t0 = 0.8, 2.0, 1.0
        t_au = np.linspace(0.5, 15.0, 200) / AU_TIME_FS
        noisy = gamma * (np.exp(-(t_au * AU_TIME_FS - t0) / t_star) - 1.0) \
            + 1.0 + 0.01 * np.sin(t_au)
        first = fit_purity_decay(t_au, noisy)
        model = first.gamma * (np.exp(-(t_au * AU_TIME_FS - first.t0)
                                      / first.t_star) - 1.0) + 1.0
        second = fit_purity_decay(t_au, model)
        assert second.gamma == pytest.approx(first.gamma, abs=1e-8)
        assert second.t_star == pytest.approx(first.t_star, abs=1e-8)
        assert second.t0 == pytest.approx(first.t0, abs=1e-7)

    def test_degenerate_series(self):
        t_au = np.linspace(0, 100, 50)
        fit = fit_purity_decay(t_au, np.ones(50))
        assert fit.degenerate
        assert fit.gamma == 0.0

    def test_window_selection(self):
        t_au = np.linspace(0.0, 400.0, 400)
        p = np.where(t_au < 200.0, 1.0,
                     0.4 * (np.exp(-(t_au - 200.0) * AU_TIME_FS / 2.0) - 1.0)
                     + 1.0)
        fit = fit_purity_decay(t_au, p, window=(200.0, 400.0))
        assert fit.gamma == pytest.approx(0.4, abs=1e-4)

    def test_boundary_minimum_reached(self):
        # noisy decays whose unconstrained γ would exceed 1: the fit must
        # stop where the bound-constrained optimality conditions hold, with
        # a vanishing cost gradient in (t*, t0) and ∂C/∂γ ≤ 0 on γ = 1
        rng = np.random.default_rng(11)
        t_au = np.linspace(0.0, 700.0, 60)
        t = t_au * AU_TIME_FS
        n_boundary = 0
        for _ in range(20):
            gamma = rng.uniform(0.97, 1.15)
            t_star, t0 = rng.uniform(1.0, 8.0), rng.uniform(-2.0, 3.0)
            p = gamma * (np.exp(-(t - t0) / t_star) - 1.0) + 1.0 \
                + 0.03 * rng.standard_normal(t.size)
            fit = fit_purity_decay(t_au, p)
            if fit.gamma < 1.0 - 1e-12:
                continue
            n_boundary += 1
            e = np.exp(-(t - fit.t0) / fit.t_star)
            r = fit.gamma * (e - 1.0) + 1.0 - p
            jac = np.column_stack([e - 1.0,
                                   fit.gamma * e * (t - fit.t0) / fit.t_star**2,
                                   fit.gamma * e / fit.t_star])
            grad, cost = 2.0 * jac.T @ r, float(r @ r)
            assert fit.residual_norm == pytest.approx(np.sqrt(cost))
            assert grad[0] <= 0.0
            assert abs(grad[1]) * fit.t_star / cost <= 1e-6
            assert abs(grad[2]) * fit.t_star / cost <= 1e-6
        assert n_boundary >= 10

    def test_gamma_stays_in_unit_interval(self):
        t_au = np.linspace(0.0, 500.0, 200)
        p = 1.0 - 0.9 * (1.0 - np.exp(-t_au / 50.0)) \
            + 0.05 * np.cos(t_au / 7.0)
        fit = fit_purity_decay(t_au, p)
        assert 0.0 <= fit.gamma <= 1.0
        assert fit.t_star > 0.0
