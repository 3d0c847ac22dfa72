"""bolab: a desk-scale numerical laboratory for Benjamin-Ono soliton
dynamics in slowly varying potentials.

Submodules, roughly bottom-up:

    grid          periodic grid, multiplier operators, norms
    soliton       the soliton family, eigenfunctions, exact values
    potential     the slowly varying bump potential V(x) = W(hx)
    operators     the symmetric operators around the soliton, commutator probe
    spectral      matrix-free spectra and constrained coercivity (ARPACK)
    evolution     perturbed / free / linearized time integration
    modulation    soliton-parameter extraction and tracking
    trajectories  reference and corrected parameter ODE systems
    virial        local-smoothing diagnostics of the linearized flow
    experiments   sweeps, scaling fits, reporting
    cli           command-line interface
"""

__version__ = "0.1.0"

from .errors import (BolabError, ConfigurationError, DecompositionError,
                     DiagnosticError, EvolutionError, ExperimentError,
                     UsageError)
from .grid import (Field, Grid, LocalizerSpec, cell_l2_profile, derivative,
                   dgamma_inverse, fractional_derivative, hilbert, inner,
                   integral, l2_norm, localizer, sobolev_norm, translate)
from .soliton import (SolitonParams, eigenfunction_field, soliton_field,
                      soliton_residual)
from .potential import PotentialSpec
from .operators import (CommutatorProbeResult, SymmetricOperator,
                        commutator_probe, quadratic_form)
from .spectral import (EigenReport, angle_lemma_bound, constrained_min_rayleigh,
                       spectrum_below_continuum)
from .evolution import (EvolutionState, InvariantReport, evolve_linearized,
                        evolve_pbo, invariants, read_checkpoint, write_checkpoint)
from .modulation import (Decomposition, ParameterTrack, decompose,
                         track_parameters)
from .trajectories import (GronwallReport, TrajectoryState, convert_frame,
                           fit_scaling_exponent, gronwall_compare, gronwall_sweep,
                           integrate_exact, integrate_reference)
from .virial import (VirialReport, g_remainder, local_smoothing_lhs,
                     virial_sweep)
from .experiments import (ExperimentConfig, RunSummary, ode_residuals,
                          run_theorem_sweep)
