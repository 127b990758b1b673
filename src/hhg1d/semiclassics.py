"""
Classical companion of the quantum engine: field-only recollision
trajectories and their return channels, the exact classical flow of the
driven soft-core atom, and Newton-based periodic-orbit finding with
linear stability.

All routines here use the constant-envelope field F_L sin(ω_L t); envelope
effects belong to the quantum engine.  Phase-space points are plain arrays
z = (x, p).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import AtomParams, LaserParams, ponderomotive_energy
from .splitting import DRIFT_COEFFS, KICK_COEFFS, KICK_TIMES

ROOT_TOL = 1e-10        # bracket width (a.u.) at which bisection stops
FLOW_STEP = 0.01        # largest integration step (a.u.) of the exact flow
NEWTON_TOL = 1e-10      # closure residual |φ(z) - z| of a periodic orbit
NEWTON_MAX_ITER = 50


class OrbitError(RuntimeError):
    """Newton orbit search failed; carries the last residual."""

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


@dataclass
class PeriodicOrbit:
    """Fixed point of the one-period flow map with its linearization."""

    z_star: np.ndarray
    t0: float
    monodromy: np.ndarray
    classification: str      # "hyperbolic" | "elliptic" | "parabolic"
    residual: float


def _field_only_x(t, t0: float, x0: float, p0: float, laser: LaserParams):
    """Position on the field-only path through (x0, p0) at t0."""
    w, f = laser.omega_L, laser.F_L
    t = np.asarray(t, dtype=float)
    return ((p0 - (f / w) * np.cos(w * t0)) * (t - t0)
            + (f / w**2) * (np.sin(w * t) - np.sin(w * t0)) + x0)


def _field_only_p(t, t0: float, p0: float, laser: LaserParams):
    """Momentum on the field-only path with p(t0) = p0."""
    w, f = laser.omega_L, laser.F_L
    t = np.asarray(t, dtype=float)
    return p0 + (f / w) * (np.cos(w * t) - np.cos(w * t0))


def sfa_position(t, t_i: float, laser: LaserParams):
    """Field-only trajectory launched from x = 0, p = 0 at t_i."""
    return _field_only_x(t, t_i, 0.0, 0.0, laser)


def sfa_momentum(t, t_i: float, laser: LaserParams):
    """Momentum of the field-only trajectory, (F_L/ω)(cos ωt - cos ωt_i)."""
    return _field_only_p(t, t_i, 0.0, laser)


def return_energy(t_r, t_i: float, laser: LaserParams):
    """Laser-only kinetic energy at arrival, 2U_p[cos ωt_r - cos ωt_i]²."""
    up = ponderomotive_energy(laser)
    w = laser.omega_L
    t_r = np.asarray(t_r, dtype=float)
    return 2.0 * up * (np.cos(w * t_r) - np.cos(w * t_i)) ** 2


def _field_only_x_float(t0: float, x0: float, p0: float, laser: LaserParams):
    """`_field_only_x` as a function of one Python float, without numpy's
    per-call cost: the same IEEE operations in their order, with math.sin
    and math.cos, which agree with numpy's bit for bit."""
    w, f = laser.omega_L, laser.F_L
    drift = p0 - (f / w) * math.cos(w * t0)
    quiver = f / w**2
    sin_0 = math.sin(w * t0)
    sin = math.sin

    def x_at(t):
        return drift * (t - t0) + quiver * (sin(w * t) - sin_0) + x0

    return x_at


def _knots(t0: float, p0: float, laser: LaserParams,
           horizon: float) -> list[float]:
    """t0, the turning times of the field-only path with p(t0) = p0 within
    `horizon` cycles after t0, and t0 + horizon·T, in order.

    p(t) = p0 + (F_L/ω)(cos ωt - cos ωt0) vanishes where cos ωt = cos ωt0 -
    ωp0/F_L, at ±φ + kT; from rest φ = t0 exactly.  Between two knots the
    path is monotone.  A turning time within ROOT_TOL of t0 is left out.
    """
    if not 0 < horizon < math.inf:
        raise ValueError(f"horizon must be finite and > 0, got {horizon}")
    w, f, period = laser.omega_L, laser.F_L, laser.period
    end = t0 + horizon * period
    c = math.cos(w * t0) - w * p0 / f if f else math.inf
    if abs(c) > 1.0:        # no field, or p never vanishes
        return [t0, end]
    phase = t0 if p0 == 0.0 else math.acos(c) / w
    turns = (phi + k * period for phi in (phase, -phase)
             for k in range(math.floor((t0 - phi) / period),
                            math.ceil((end - phi) / period) + 1))
    return [t0, *sorted(t for t in turns if t0 + ROOT_TOL < t < end), end]


def _bracket_roots(x_at, knots: list[float], level: float):
    """Yield the roots of x_at(t) = level between the first and the last
    knot, in order, x_at being monotone between consecutive knots: each
    piece [a, b] with x(a) ≠ level and (x(a) - level)(x(b) - level) ≤ 0
    holds one, bisected until its bracket is narrower than ROOT_TOL.  So
    the launch, a tangency and a path resting on the level each give one
    root at most.
    """
    v = [x_at(t) - level for t in knots]
    for a, b, v_a, v_b in zip(knots, knots[1:], v, v[1:]):
        if v_a == 0.0 or v_a * v_b > 0.0:
            continue
        while b - a > ROOT_TOL and a < (mid := 0.5 * (a + b)) < b:
            a, b = (mid, b) if (x_at(mid) - level) * v_a > 0.0 else (a, mid)
        yield 0.5 * (a + b)


def find_returns(t_i: float, ell: float, laser: LaserParams,
                 horizon: float = 1.5
                 ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """All arrivals |x(t_r)| = ell within `horizon` cycles after launch.

    Returns (t_r, e_r, side) in arrival order: the arrival times, the
    laser-only kinetic energies there, and the sign of x(t_r) (0 for
    ell = 0).  Empty when the trajectory never reaches the distance.
    """
    if ell < 0:
        raise ValueError("return distance must be nonnegative")
    targets = [0.0] if ell == 0.0 else [ell, -ell]
    x_at = _field_only_x_float(t_i, 0.0, 0.0, laser)
    knots = _knots(t_i, 0.0, laser, horizon)
    roots = [list(_bracket_roots(x_at, knots, target)) for target in targets]
    side = np.repeat(np.sign(targets), [len(r) for r in roots]).astype(int)
    t_r = np.concatenate(roots)
    order = np.argsort(t_r, kind="stable")
    t_r = t_r[order]
    # energies one arrival at a time: numpy's scalar ** calls libm pow, which
    # differs from the array square in the last bit on ~0.1 % of values, and
    # the scalar form keeps the bytes of stored return maps
    e_r = np.array([return_energy(t, t_i, laser) for t in t_r])
    return t_r, e_r, side[order]


def max_return_energy(ell: float, laser: LaserParams, horizon: float = 1.5,
                      n_launch: int = 2000) -> float:
    """Maximum return energy at distance ell over launch phases in [0, T_L)."""
    e_r = [find_returns(t_i, ell, laser, horizon)[1]
           for t_i in np.linspace(0.0, laser.period, n_launch,
                                  endpoint=False)]
    return float(np.concatenate(e_r).max(initial=0.0))


@dataclass
class BackscatterTrajectory:
    """Field-only path with one elastic momentum reversal p → -p at t_s."""

    t_i: float
    t_s: float
    laser: LaserParams

    def __post_init__(self):
        if self.t_s <= self.t_i:
            raise ValueError("reversal must follow ionization")
        self.x_s = float(sfa_position(self.t_s, self.t_i, self.laser))
        self.p_s = float(sfa_momentum(self.t_s, self.t_i, self.laser))

    def position(self, t):
        t = np.asarray(t, dtype=float)
        return np.where(t < self.t_s, sfa_position(t, self.t_i, self.laser),
                        _field_only_x(t, self.t_s, self.x_s, -self.p_s,
                                      self.laser))

    def momentum(self, t):
        t = np.asarray(t, dtype=float)
        return np.where(t < self.t_s, sfa_momentum(t, self.t_i, self.laser),
                        _field_only_p(t, self.t_s, -self.p_s, self.laser))

    def origin_returns(self, horizon: float = 1.5
                       ) -> tuple[np.ndarray, np.ndarray]:
        """Arrival times at x = 0 after the reversal, and the kinetic
        energies there."""
        t_r = np.fromiter(_bracket_roots(
            _field_only_x_float(self.t_s, self.x_s, -self.p_s, self.laser),
            _knots(self.t_s, -self.p_s, self.laser, horizon), 0.0), float)
        return t_r, 0.5 * self.momentum(t_r) ** 2


def _flow_steps(t0: float, t1: float,
                laser: LaserParams) -> tuple[float, list[float]]:
    """Equal steps of at most FLOW_STEP from t0 to t1: the step h and the
    field F_L sin(ωt) at every kick time t + c_j h, step-major.

    The kick times go through the operations of a per-kick evaluation,
    (t0 + k h) + c_j h, then ω t, then F_L sin, so the table equals
    `f * math.sin(w * (t + c))` bit for bit; one `np.sin` call fills it.
    """
    span = t1 - t0
    n = max(1, int(np.ceil(abs(span) / FLOW_STEP))) if span else 0
    h = span / max(n, 1)
    t = (t0 + np.arange(n) * h)[:, None] + KICK_TIMES * h
    return h, (laser.F_L * np.sin(laser.omega_L * t)).ravel().tolist()


def _drift_kick(z0, steps: tuple[float, list[float]],
                atom: AtomParams | None,
                tangent: bool) -> tuple[np.ndarray, np.ndarray]:
    """The drift-kick composition from z0 over the steps of `_flow_steps`.

    Each step is a first drift a_0 h, then six (b_j h, c_j h, a_{j+1} h)
    triples: a kick of weight b_j h at the time t + c_j h, followed by a
    drift a_{j+1} h.  The field at each kick time comes from the table in
    `steps`, in order; the soft-core force is added at the kick.  With
    `tangent` the variational equations of the same composition (drift:
    δx += a h δp; kick: δp -= b h V''(x) δx) carry the tangent map M
    along, so M is the exact Jacobian of the discrete flow map; without it
    M stays the identity.  Returns (z(t1), M).
    """
    h, field = steps
    x, p = float(z0[0]), float(z0[1])
    m00, m01, m10, m11 = 1.0, 0.0, 0.0, 1.0
    alpha = atom.softening if atom is not None else None
    # python floats, and the stage coefficients as one tuple per kick: the
    # scalar loop runs faster on them than on numpy's or on indexed lists
    a0, *a_rest = (DRIFT_COEFFS * h).tolist()
    stages = tuple(zip((KICK_COEFFS * h).tolist(), a_rest))
    forces = iter(field)
    for _ in range(len(field) // len(stages)):
        x += a0 * p
        if tangent:
            m00 += a0 * m10
            m01 += a0 * m11
        for b, a in stages:
            force = next(forces)
            if alpha is not None:
                r2 = x * x + alpha
                force += x * r2**-1.5
                if tangent:
                    curv = b * (alpha - 2.0 * x * x) * r2**-2.5
                    m10 -= curv * m00
                    m11 -= curv * m01
            p -= b * force
            x += a * p
            if tangent:
                m00 += a * m10
                m01 += a * m11
    return np.array([x, p]), np.array([[m00, m01], [m10, m11]])


def classical_flow(z0, t0: float, t1: float, laser: LaserParams,
                   atom: AtomParams | None) -> np.ndarray:
    """Integrate ẋ = p, ṗ = -V'(x) - F_L sin(ωt) from t0 to t1.

    Same fourth-order drift-kick composition as the quantum engine; the
    kick time advances with the accumulated drift coefficients.  atom=None
    drops the soft-core force (field-only flow).
    """
    return _drift_kick(z0, _flow_steps(t0, t1, laser), atom,
                       tangent=False)[0]


def monodromy(z0, t0: float, laser: LaserParams,
              atom: AtomParams | None) -> tuple[np.ndarray, np.ndarray]:
    """One-period flow and its linearization around the trajectory.

    The tangent map M is the exact Jacobian of the discrete flow map (see
    `_drift_kick`).  Returns (z_T, M).
    """
    return _drift_kick(z0, _flow_steps(t0, t0 + laser.period, laser), atom,
                       tangent=True)


def classify(m: np.ndarray) -> str:
    """Stability from |tr M|, with |tr M| within 1e-6 of 2 parabolic."""
    t = abs(np.trace(m))
    if t > 2.0 + 1e-6:
        return "hyperbolic"
    if t < 2.0 - 1e-6:
        return "elliptic"
    return "parabolic"


def quiver_guess(t0: float, laser: LaserParams) -> np.ndarray:
    """Zero-drift field-only orbit point, the standard seed for the search."""
    w, f = laser.omega_L, laser.F_L
    return np.array([-(f / w**2) * np.sin(w * t0), (f / w) * np.cos(w * t0)])


def _reversible_presearch(z, t0: float, laser: LaserParams,
                          atom: AtomParams) -> np.ndarray:
    """Pull a far-off guess onto the reversing-symmetry line.

    The field is even about its extremum phases, so with the even soft-core
    potential the flow is reversible about them: an orbit crossing such a
    phase with p = 0 and doing so again half a period later closes exactly.
    That reduces the search to a scalar root x* of
    g(x) = p[φ over T_L/2 from (x, 0)], solved by bracketing + bisection
    near the guess, and leaves only a polishing step for Newton.  Every
    g(x) flows over the same half period, so one field table serves them
    all.  The cells of a 17-point scan are visited in order of their
    midpoints' distance from the guess, the lower cell first on a tie, and
    the first that changes sign is bisected; each scan point is evaluated
    once at most, and only as far out as that cell.
    """
    T = laser.period
    w = laser.omega_L
    k = math.ceil((w * t0 - 0.5 * math.pi) / math.pi)
    t_star = (0.5 * math.pi + k * math.pi) / w
    x0 = float(classical_flow(z, t0, t_star, laser, atom)[0])
    half = _flow_steps(t_star, t_star + 0.5 * T, laser)

    def g(x):
        return float(_drift_kick((x, 0.0), half, atom, tangent=False)[0][1])

    for half_width in (5.0, 10.0, 20.0, 40.0):
        xs = np.linspace(x0 - half_width, x0 + half_width, 17)
        vals = {}
        for i in np.argsort(np.abs(0.5 * (xs[:-1] + xs[1:]) - x0),
                            kind="stable"):
            for j in (i, i + 1):
                if j not in vals:
                    vals[j] = g(xs[j])
            if np.sign(vals[i]) * np.sign(vals[i + 1]) < 0:
                break
        else:
            continue        # no sign change at this width: widen
        lo, hi, g_lo = xs[i], xs[i + 1], vals[i]
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if not lo < mid < hi:
                # floating-point fixed point: mid is lo or hi, and a
                # further step could at most collapse the bracket onto
                # mid, which is already the root returned below
                break
            g_mid = g(mid)
            if g_lo * g_mid <= 0.0:
                hi = mid
            else:
                lo, g_lo = mid, g_mid
        return classical_flow((0.5 * (lo + hi), 0.0), t_star, t0, laser,
                              atom)
    return np.asarray(z, dtype=float)


def find_periodic_orbit(guess, t0: float, laser: LaserParams,
                        atom: AtomParams | None) -> PeriodicOrbit:
    """Newton search for a fixed point of the one-period flow map.

    Solves (M - I) δz = -(φ(z) - z) with the monodromy M from the
    variational equations; steps are capped and halved while they fail to
    reduce the residual.  A guess whose image misses by more than an a.u.
    is first pulled in along the reversing-symmetry line.  A Jacobian with
    |det(M - I)| ≈ 0 signals a non-isolated or parabolic fixed point and is
    reported as an error rather than solved through.
    """
    z = np.asarray(guess, dtype=float).copy()
    if atom is not None:
        g0 = classical_flow(z, t0, t0 + laser.period, laser, atom) - z
        if np.linalg.norm(g0) > 1.0:
            z = _reversible_presearch(z, t0, laser, atom)
    residual = np.inf
    for _ in range(NEWTON_MAX_ITER):
        z_t, m = monodromy(z, t0, laser, atom)
        g = z_t - z
        residual = float(np.linalg.norm(g))
        jac_det = float(np.linalg.det(m - np.eye(2)))
        if abs(jac_det) < 1e-9:
            raise OrbitError(
                "singular Jacobian: fixed point is non-isolated or parabolic "
                f"(|det(M-I)| = {abs(jac_det):.2e})", residual)
        if residual < NEWTON_TOL:
            return PeriodicOrbit(z_star=z, t0=t0, monodromy=m,
                                 classification=classify(m),
                                 residual=residual)
        delta = np.linalg.solve(m - np.eye(2), -g)
        cap = 0.25 * (1.0 + np.linalg.norm(z))
        if np.linalg.norm(delta) > cap:
            delta *= cap / np.linalg.norm(delta)
        lam = 1.0
        for _ in range(30):
            z_try = z + lam * delta
            g_try = classical_flow(z_try, t0, t0 + laser.period, laser,
                                   atom) - z_try
            if np.linalg.norm(g_try) < residual:
                break
            lam *= 0.5
        z = z + lam * delta
    raise OrbitError(f"Newton failed to reach {NEWTON_TOL} in "
                     f"{NEWTON_MAX_ITER} iterations", residual)


def symmetry_partner(orbit: PeriodicOrbit, laser: LaserParams,
                     atom: AtomParams | None) -> PeriodicOrbit:
    """Orbit mapped through x → -x, p → -p, t0 → t0 + T_L/2.

    The even potential and the half-period antisymmetry of the field
    guarantee the image is again an orbit; it is verified by direct
    integration and the verification failure is an error.
    """
    t0 = orbit.t0 + 0.5 * laser.period
    z = -orbit.z_star
    z_t, m = monodromy(z, t0, laser, atom)
    residual = float(np.linalg.norm(z_t - z))
    if residual > 10.0 * max(orbit.residual, 1e-10):
        raise OrbitError(
            f"symmetry partner fails to close (residual {residual:.3e}); "
            "the assumed symmetries do not hold", residual)
    return PeriodicOrbit(z_star=z, t0=t0, monodromy=m,
                         classification=classify(m), residual=residual)


def overlay_orbit(orbit: PeriodicOrbit, laser: LaserParams,
                  atom: AtomParams | None, t_start: float, t_end: float,
                  n_per_period: int = 256) -> tuple[np.ndarray, np.ndarray]:
    """x(t) of the orbit extended periodically across [t_start, t_end].

    One period is integrated densely from the anchor; other times reuse it
    modulo T_L.  Intended for co-plotting with probability-density maps.
    """
    T = laser.period
    phases = np.linspace(0.0, T, n_per_period, endpoint=False)
    x_period = np.empty(n_per_period)
    z = orbit.z_star.copy()
    x_period[0] = z[0]
    for k in range(1, n_per_period):
        z = classical_flow(z, orbit.t0 + phases[k - 1], orbit.t0 + phases[k],
                           laser, atom)
        x_period[k] = z[0]
    times = np.arange(t_start, t_end, T / n_per_period)
    rel = np.mod(times - orbit.t0, T)
    idx = np.round(rel / (T / n_per_period)).astype(int) % n_per_period
    return times, x_period[idx]
