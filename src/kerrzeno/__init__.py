"""
kerrzeno: Kerr-oscillator dynamics under repeated phase-space measurement.

Layers
------
``phase_space``
    Exact 2x2 algebra: the rotation of the linearized evolution, seed and
    per-step covariances, their accumulation law, and uncertainty checks.
``fock``
    Truncated number-basis reference numerics: coherent/squeezed state
    construction, Kerr propagation, moments, measurement kernels, and
    completeness/normalization quadratures.
``observed``
    The observed Markov chain: seeded trajectory sampling into plain
    arrays (final outcomes of an ensemble, or one trajectory's path), the
    closed-form final-outcome distribution, the survival density of the
    continuous measurement family, and a numerical kernel-chaining check.
``two_level``
    Discrete two-outcome model isolating measurement-element overlap as
    the switch between freezing and non-freezing behaviour.
``experiments`` / ``cli``
    Declarative batch experiments with strict configs and deterministic
    CSV/JSON output (console script ``kerrzeno``).
"""

from .version import __version__

from .phase_space import (
    EvolutionParams,
    GaussianState2D,
    PhaseVector,
    UncertaintyCheck,
    accumulate_covariance,
    classical_evolve,
    det_cn_asymptotic,
    rotation_matrix,
    rs_uncertainty_check,
    seed_covariance,
    step_covariance,
)
from .fock import (
    DEFAULT_TAIL_BUDGET,
    FockVector,
    MeasurementSpec,
    QuadratureGrid,
    TruncationError,
    default_dim,
    dichotomic_survival_exact,
    displaced_seed,
    identity_resolution_defect,
    kerr_propagate,
    mean_a,
    mean_a_closed_form,
    number_moment,
    number_squared_variance,
    quadrature_mean_cov,
    transition_density,
    transition_normalization,
)
from .observed import (
    ObservedRunConfig,
    analytic_final_distribution,
    chain_convolution_check,
    run_ensemble,
    run_trajectory,
    survival_density_continuous,
)
from .two_level import (
    TwoLevelModel,
    povm_elements,
    povm_overlap,
    reduced_states,
    scaling_sweep,
    survival_asymptotic,
    survival_closed_form,
    survival_exact,
    transition_matrix,
)
from .experiments import (
    EXPERIMENTS,
    ExperimentConfig,
    ResultEnvelope,
    run_experiment,
    validate_config,
)

__all__ = [name for name in dir() if not name.startswith("_")]
