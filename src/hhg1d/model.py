"""
Physical ingredients of the simulation, in Hartree atomic units throughout.

Laser pulse:   F(t) = F_L f(t) sin(ω_L t) with a trapezoidal envelope f(t)
Model atom:    soft-core Coulomb well  V(x) = -(x² + α)^(-1/2)
Environment:   identical attractive Gaussian wells centred on the scatterer
               positions x_k,  v(x) = -A_E exp(-x²/2σ_E²)

Everything here is a pure function of its value arguments; conversion
helpers (nm, W·cm⁻²) live at the bottom and are only meant for the
configuration boundary.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

# CODATA-ish conversion factors
AU_TIME_FS = 2.4188843265857e-2      # one atomic time unit in femtoseconds
AU_LENGTH_NM = 5.29177210903e-2      # one bohr in nanometres
SPEED_OF_LIGHT_AU = 137.035999084    # c in atomic units
AU_INTENSITY_WCM2 = 3.50944758e16    # peak intensity of a 1-a.u. field, W/cm²


@dataclass(frozen=True)
class LaserParams:
    """Trapezoidal laser pulse: n_up cycles ramp, n_plateau flat, n_down ramp."""

    F_L: float = 0.15          # field amplitude (a.u.)
    omega_L: float = 0.044     # angular frequency (a.u.)
    n_up: int = 2
    n_plateau: int = 11
    n_down: int = 2

    def __post_init__(self):
        if self.F_L < 0:
            raise ValueError(f"F_L must be >= 0, got {self.F_L}")
        if not 0 < self.omega_L < np.inf:
            raise ValueError(f"omega_L must be finite and > 0, "
                             f"got {self.omega_L}")
        for name in ("n_up", "n_plateau", "n_down"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be nonnegative")

    @property
    def period(self) -> float:
        """Optical period T_L = 2π/ω_L."""
        return 2.0 * np.pi / self.omega_L

    @property
    def n_cycles(self) -> int:
        return self.n_up + self.n_plateau + self.n_down

    @property
    def duration(self) -> float:
        """Total pulse duration (a.u.)."""
        return self.n_cycles * self.period


@dataclass(frozen=True)
class AtomParams:
    """Soft-core Coulomb atom, V(x) = -(x² + softening)^(-1/2)."""

    softening: float = 0.4837  # a.u.², gives a 0.90 a.u. ionization potential

    def __post_init__(self):
        if self.softening <= 0:
            raise ValueError(f"softening must be > 0, got {self.softening}")


@dataclass(frozen=True)
class PerturberParams:
    """One scatterer: attractive Gaussian well of depth A_E and width sigma_E."""

    A_E: float = 0.8       # well depth (a.u.); 0 recovers the gas phase
    sigma_E: float = 0.5   # well width (a.u.)

    def __post_init__(self):
        if self.A_E < 0:
            raise ValueError(f"A_E must be >= 0, got {self.A_E}")
        if self.sigma_E <= 0:
            raise ValueError(f"sigma_E must be > 0, got {self.sigma_E}")


@dataclass(frozen=True)
class EnvironmentConfig:
    """One realization of the disorder: ordered scatterer positions x_k."""

    positions: np.ndarray = field(default_factory=lambda: np.empty(0))

    def __post_init__(self):
        pos = np.asarray(self.positions, dtype=float)
        object.__setattr__(self, "positions", pos)
        if pos.ndim != 1:
            raise ValueError("positions must be a 1D sequence")
        if pos.size % 2 != 0:
            raise ValueError(f"perturber count must be even, got {pos.size}")
        if pos.size:
            if np.any(np.diff(pos) <= 0):
                raise ValueError("positions must be strictly increasing")
            j = pos.size // 2
            if not (pos[j - 1] < 0.0 < pos[j]):
                raise ValueError("the two central positions must straddle the origin")


def envelope(t, laser: LaserParams):
    """Trapezoidal envelope f(t) ∈ [0, 1]: linear ramps, flat plateau, 0 outside."""
    T = laser.period
    t_up = laser.n_up * T
    t_flat = (laser.n_up + laser.n_plateau) * T
    t_end = laser.duration
    t = np.asarray(t, dtype=float)
    f = np.zeros_like(t)
    if t_up > 0:
        rising = (t >= 0) & (t < t_up)
        f = np.where(rising, t / t_up, f)
    f = np.where((t >= t_up) & (t <= t_flat), 1.0, f)
    if t_end > t_flat:
        falling = (t > t_flat) & (t < t_end)
        f = np.where(falling, (t_end - t) / (t_end - t_flat), f)
    return f if f.ndim else float(f)


def field_at(t, laser: LaserParams):
    """Instantaneous electric field F(t) = F_L f(t) sin(ω_L t)."""
    t = np.asarray(t, dtype=float)
    out = laser.F_L * envelope(t, laser) * np.sin(laser.omega_L * t)
    return out if out.ndim else float(out)


def potential_atom(x, atom: AtomParams):
    """Soft-core Coulomb potential, -(x² + α)^(-1/2)."""
    x = np.asarray(x, dtype=float)
    return -1.0 / np.sqrt(x * x + atom.softening)


def gradient_atom(x, atom: AtomParams):
    """dV/dx = x (x² + α)^(-3/2)."""
    x = np.asarray(x, dtype=float)
    return x * (x * x + atom.softening) ** -1.5


def potential_env(x, config: EnvironmentConfig, pert: PerturberParams):
    """Sum of identical Gaussian wells centred at the scatterer positions."""
    x = np.asarray(x, dtype=float)
    if pert.A_E == 0.0 or config.positions.size == 0:
        return np.zeros_like(x)
    d = x[..., None] - config.positions
    return -pert.A_E * np.exp(-0.5 * (d / pert.sigma_E) ** 2).sum(axis=-1)


def gradient_env(x, config: EnvironmentConfig, pert: PerturberParams):
    """Analytic derivative of potential_env with respect to x."""
    x = np.asarray(x, dtype=float)
    if pert.A_E == 0.0 or config.positions.size == 0:
        return np.zeros_like(x)
    d = x[..., None] - config.positions
    s2 = pert.sigma_E**2
    return (pert.A_E / s2) * (d * np.exp(-0.5 * d * d / s2)).sum(axis=-1)


def ponderomotive_energy(laser: LaserParams) -> float:
    """Cycle-averaged quiver kinetic energy U_p = (F_L/2ω_L)²."""
    return (laser.F_L / (2.0 * laser.omega_L)) ** 2


def quiver_radius(laser: LaserParams) -> float:
    """Maximum field-driven excursion amplitude F_L/ω_L²."""
    return laser.F_L / laser.omega_L**2


# --- configuration-boundary unit helpers ---

def omega_from_wavelength_nm(wavelength_nm: float) -> float:
    """Angular frequency (a.u.) of light with the given vacuum wavelength."""
    if wavelength_nm <= 0:
        raise ValueError("wavelength must be positive")
    return 2.0 * np.pi * SPEED_OF_LIGHT_AU * AU_LENGTH_NM / wavelength_nm


def field_from_intensity_wcm2(intensity_wcm2: float) -> float:
    """Peak field amplitude (a.u.) for the given intensity in W/cm²."""
    if intensity_wcm2 < 0:
        raise ValueError("intensity must be nonnegative")
    return float(np.sqrt(intensity_wcm2 / AU_INTENSITY_WCM2))
