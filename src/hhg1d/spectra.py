"""
Spectral products of a recorded dipole-acceleration series: harmonic
spectra, time-frequency (Gabor) maps, peak statistics, parity contrast,
and the exponential purity-decay fit.

Spectrum magnitudes are |DFT|/√N, which makes the two-sided squared
magnitudes satisfy Parseval's identity against the raw samples; "intensity"
is the square of what is stored here and belongs to the plotting layer.
No apodization window is applied to the full-record transform by default
(the trapezoidal pulse's own ramps limit leakage); a Hann window is
available behind a flag for diagnostics.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import AU_TIME_FS, LaserParams


@dataclass
class Spectrum:
    """One-sided magnitude spectrum on a uniform harmonic-order axis."""

    orders: np.ndarray     # frequency / ω_L
    magnitude: np.ndarray  # |DFT|/√N, ≥ 0

    def __post_init__(self):
        d = np.diff(self.orders)
        if d.size and not np.allclose(d, d[0], rtol=1e-9, atol=0.0):
            raise ValueError("order axis must be uniform")


@dataclass
class GaborMap:
    """Windowed-transform magnitude over (window centre τ, frequency ω)."""

    taus: np.ndarray
    omegas: np.ndarray
    values: np.ndarray     # (n_tau, n_omega), ≥ 0


@dataclass
class PurityFit:
    """Parameters of P(t) = γ[exp(-(t-t0)/t*) - 1] + 1, times in fs.

    `converged` is False when the least-squares solve stopped at its
    evaluation cap rather than on a tolerance: the parameters are then
    wherever the cap left them.
    """

    gamma: float
    t_star: float
    t0: float
    residual_norm: float
    converged: bool
    degenerate: bool = False


def _check_uniform(times: np.ndarray) -> float:
    dt = np.diff(times)
    if dt.size == 0:
        raise ValueError("need at least two samples")
    if not np.allclose(dt, dt[0], rtol=1e-9, atol=0.0):
        raise ValueError("time axis is not uniformly sampled")
    return float(dt[0])


def hhg_spectrum(times: np.ndarray, d: np.ndarray, laser: LaserParams,
                 hann: bool = False) -> Spectrum:
    """Harmonic spectrum of the dipole acceleration.

    Returns the nonnegative-frequency half of |DFT(d)|/√N with the axis
    rescaled to harmonic order ω/ω_L.
    """
    times = np.asarray(times, dtype=float)
    d = np.asarray(d, dtype=float)
    dt = _check_uniform(times)
    if hann:
        d = d * np.hanning(d.size)
    n = d.size
    coeff = np.fft.rfft(d) / np.sqrt(n)
    freqs = 2.0 * np.pi * np.fft.rfftfreq(n, d=dt)
    return Spectrum(orders=freqs / laser.omega_L, magnitude=np.abs(coeff))


def gabor_window(t: np.ndarray, t_w: float) -> np.ndarray:
    """cos⁴(πt/T_w) inside |t| < T_w/2, zero outside."""
    t = np.asarray(t, dtype=float)
    w = np.cos(np.pi * t / t_w) ** 4
    return np.where(np.abs(t) < 0.5 * t_w, w, 0.0)


def gabor(times: np.ndarray, d: np.ndarray, t_w: float,
          omegas: np.ndarray, taus: np.ndarray) -> GaborMap:
    """Magnitude of the windowed transform ∫ d(t) w(τ-t) e^{-iωt} dt at
    each window centre τ of `taus` and each frequency ω of `omegas`.

    Each τ row only touches samples within the window support, so the cost
    scales with T_w, not the record length.

    The map is one matrix product |W E|·dt: row i of W holds the windowed
    samples of τ_i from their first sample t_lo on, and E_mj = e^{-iω_j m dt}.
    The phase e^{-iω t_lo} of each row drops out of the magnitude, and the
    sampling is uniform, so this equals the transform above.  Rows of τ
    whose window holds no sample are zero.
    """
    times = np.asarray(times, dtype=float)
    d = np.asarray(d, dtype=float)
    dt = _check_uniform(times)
    if t_w <= 0:
        raise ValueError("window duration must be positive")
    taus = np.asarray(taus, dtype=float)
    omegas = np.asarray(omegas, dtype=float)
    half = 0.5 * t_w
    lo = np.searchsorted(times, taus - half, side="right")
    count = np.searchsorted(times, taus + half, side="left") - lo
    m = np.arange(count.max(initial=0))
    idx = np.minimum(lo[:, None] + m, times.size - 1)
    segments = np.where(m < count[:, None],
                        d[idx] * gabor_window(taus[:, None] - times[idx], t_w),
                        0.0)
    values = np.abs(segments @ np.exp(-1j * dt * np.outer(m, omegas))) * dt
    return GaborMap(taus=taus, omegas=omegas, values=values)


def harmonic_peaks(spec: Spectrum, orders) -> np.ndarray:
    """Peak magnitude within (q - 1/2, q + 1/2) for each requested order q."""
    out = np.empty(len(orders))
    for k, q in enumerate(orders):
        sel = (spec.orders > q - 0.5) & (spec.orders < q + 0.5)
        if not np.any(sel):
            raise ValueError(f"order {q} lies outside the spectrum axis")
        out[k] = spec.magnitude[sel].max()
    return out


def parity_contrast(spec: Spectrum, band: tuple[float, float]) -> float:
    """(mean even-order peak) / (mean odd-order peak) over the band."""
    lo, hi = band
    qs = np.arange(int(np.ceil(lo)), int(np.floor(hi)) + 1)
    odd = qs[qs % 2 == 1]
    even = qs[(qs % 2 == 0) & (qs >= 2)]
    if odd.size < 2 or even.size < 2:
        raise ValueError("band must contain at least 2 odd and 2 even orders")
    return float(harmonic_peaks(spec, even).mean()
                 / harmonic_peaks(spec, odd).mean())


def plateau_statistics(spec: Spectrum,
                       band: tuple[float, float] = (21, 227)) -> float:
    """Mean peak magnitude over the odd harmonic orders in the band (the
    ensemble spectrum carries no even lines)."""
    lo, hi = band
    orders = np.arange(int(np.ceil(lo)), int(np.floor(hi)) + 1)
    orders = orders[orders % 2 == 1]
    if orders.size == 0:
        raise ValueError("band contains no harmonic orders")
    return float(harmonic_peaks(spec, orders).mean())


def find_cutoff(spec: Spectrum, search_from: float) -> float:
    """Locate the plateau knee: the first order beyond `search_from` where
    the log-magnitude, smoothed over one order, drops by a decade within
    four orders.
    """
    floor = spec.magnitude[spec.magnitude > 0].min() * 1e-3
    logmag = np.log10(np.maximum(spec.magnitude, floor))
    d_order = spec.orders[1] - spec.orders[0]
    width = max(1, int(round(1.0 / d_order)))
    kernel = np.ones(width) / width
    smooth = np.convolve(logmag, kernel, mode="same")
    span = int(round(4.0 / d_order))
    start = np.searchsorted(spec.orders, search_from)
    for i in range(start, spec.orders.size - span):
        if smooth[i] - smooth[i + span] >= 1.0:
            return float(spec.orders[i])
    raise ValueError("no cutoff knee found beyond the search start")


def _decay_exp(t_star: float, t0: float, t: np.ndarray) -> np.ndarray:
    # clamped so wild multi-start / trial parameters cannot overflow
    return np.exp(np.clip(-(t - t0) / t_star, -700.0, 700.0))


def _decay_model(theta: np.ndarray, t: np.ndarray) -> np.ndarray:
    gamma, t_star, t0 = theta
    return gamma * (_decay_exp(t_star, t0, t) - 1.0) + 1.0


def _decay_jacobian(theta: np.ndarray, t: np.ndarray) -> np.ndarray:
    gamma, t_star, t0 = theta
    e = _decay_exp(t_star, t0, t)
    return np.column_stack([
        e - 1.0,
        gamma * e * (t - t0) / t_star**2,
        gamma * e / t_star,
    ])


def in_fit_window(times_au: np.ndarray, window) -> np.ndarray:
    """Mask of the times inside the closed fit window [lo, hi]."""
    return (times_au >= window[0]) & (times_au <= window[1])


def fit_purity_decay(times_au: np.ndarray, p: np.ndarray,
                     window: tuple[float, float] | None = None) -> PurityFit:
    """Fit the saturating-exponential purity model over the given window.

    Times enter in atomic units; the fitted (t*, t0) are reported in fs.
    Multi-start: a coarse grid over (t*, t0) with the optimal γ solved
    linearly at each node, then a bounded trust-region-reflective
    least-squares solve from the best node, with γ in [0, 1] and
    t* ≥ 1e-6 fs.  A flat series short-circuits to γ = 0 with the
    degenerate flag set, and counts as converged.
    """
    times_au = np.asarray(times_au, dtype=float)
    p = np.asarray(p, dtype=float)
    if window is not None:
        sel = in_fit_window(times_au, window)
        if not np.any(sel):
            raise ValueError("fit window contains no samples")
        times_au, p = times_au[sel], p[sel]
    t = times_au * AU_TIME_FS
    span = t[-1] - t[0]
    drop = float(p.max() - p.min())
    if drop < 1e-12 or span <= 0.0:
        return PurityFit(0.0, np.inf, t[0] if t.size else 0.0, 0.0,
                         converged=True, degenerate=True)

    best, best_cost = None, np.inf
    for t_star in np.geomspace(span / 30.0, 3.0 * span, 24):
        for t0 in np.linspace(t[0] - span, t[-1], 24):
            u = _decay_exp(t_star, t0, t) - 1.0
            denom = float(u @ u)
            if denom == 0.0 or not np.isfinite(denom):
                continue
            gamma = min(max(float(u @ (p - 1.0)) / denom, 0.0), 1.0)
            r = _decay_model(np.array([gamma, t_star, t0]), t) - p
            cost = float(r @ r)
            if cost < best_cost:
                best, best_cost = np.array([gamma, t_star, t0]), cost

    # imported here, its only use: it adds ~20 MB to every hhg1d start-up
    from scipy.optimize import least_squares
    solve = least_squares(lambda th: _decay_model(th, t) - p, best,
                          jac=lambda th: _decay_jacobian(th, t),
                          bounds=([0.0, 1e-6, -np.inf], [1.0, np.inf, np.inf]),
                          method="trf", xtol=1e-15, ftol=1e-15, gtol=1e-15)
    theta = solve.x
    r = _decay_model(theta, t) - p
    return PurityFit(gamma=float(theta[0]), t_star=float(theta[1]),
                     t0=float(theta[2]),
                     residual_norm=float(np.linalg.norm(r)),
                     converged=bool(solve.status > 0))
