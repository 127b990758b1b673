"""
High-order harmonic generation from a 1D soft-core atom embedded in a
stochastically disordered chain of Gaussian scatterers.

The package couples three layers:

* a split-operator grid propagator for the driven single-electron state
  (`tdse`), with ensemble orchestration and mixed-state observables over
  disorder realizations (`ensemble`, `sampler`);
* spectral analysis of the recorded dipole acceleration: harmonic spectra,
  time-frequency maps, parity and plateau statistics, purity-decay fits
  (`spectra`);
* a classical companion: field-only recollision channels and periodic
  orbits found on the reversing-symmetry line, with stability analysis
  (`semiclassics`).

Everything is expressed in Hartree atomic units; `model` holds the physical
ingredients and the unit helpers.  The `hhg1d` command line (see `cli`)
exposes each pipeline stage as a subcommand.
"""

__version__ = "0.1.0"

from .ensemble import (EnsembleRecord, MaskSpec, RunConfig,
                       density_matrix_map, probability_density_map, purity,
                       purity_series, run_ensemble)
from .model import (AtomParams, EnvironmentConfig, LaserParams,
                    PerturberParams, envelope, field_at, gradient_atom,
                    gradient_env, ponderomotive_energy, potential_atom,
                    potential_env, quiver_radius)
from .sampler import (StructureParams, default_perturber_count,
                      pair_correlation, sample_configuration,
                      sample_ensemble, sample_gap)
from .semiclassics import (BackscatterTrajectory, PeriodicOrbit,
                           classical_flow, find_periodic_orbit, find_returns,
                           max_return_energy, monodromy, overlay_orbit,
                           quiver_guess, sfa_momentum, sfa_position,
                           symmetry_partner)
from .spectra import (GaborMap, PurityFit, Spectrum, find_cutoff,
                      fit_purity_decay, gabor, harmonic_peaks, hhg_spectrum,
                      parity_contrast, plateau_statistics)
from .tdse import (Grid, PropagationRecord, PropagatorPlan, absorber_mask,
                   ground_state, propagate, step)

__all__ = [
    "AtomParams", "BackscatterTrajectory", "EnsembleRecord",
    "EnvironmentConfig", "GaborMap", "Grid", "LaserParams", "MaskSpec",
    "PeriodicOrbit", "PerturberParams", "PropagationRecord",
    "PropagatorPlan", "PurityFit", "RunConfig", "Spectrum",
    "StructureParams", "absorber_mask", "classical_flow",
    "default_perturber_count", "density_matrix_map", "envelope",
    "field_at", "find_cutoff", "find_periodic_orbit",
    "find_returns", "fit_purity_decay", "gabor", "gradient_atom",
    "gradient_env", "ground_state", "harmonic_peaks", "hhg_spectrum",
    "max_return_energy", "monodromy", "overlay_orbit",
    "pair_correlation", "parity_contrast", "plateau_statistics",
    "ponderomotive_energy", "potential_atom", "potential_env",
    "probability_density_map", "propagate", "purity", "purity_series",
    "quiver_guess", "quiver_radius", "run_ensemble", "sample_configuration",
    "sample_ensemble", "sample_gap", "sfa_momentum", "sfa_position", "step",
    "symmetry_partner",
]
