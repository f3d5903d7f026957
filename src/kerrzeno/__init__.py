"""
kerrzeno: Kerr-oscillator dynamics under repeated phase-space measurement.

Layers
------
``phase_space``
    Exact 2x2 algebra: the rotation of the linearized evolution, the
    per-step covariance, and its accumulation law.
``fock``
    Truncated number-basis reference numerics: coherent/squeezed state
    construction, Kerr propagation, number and ladder moments, the
    completeness quadrature of the measurement family, and dichotomic
    survival.
``observed``
    The observed Markov chain: seeded trajectory sampling into plain
    arrays (final outcomes of an ensemble, or one trajectory's path), the
    closed-form final-outcome distribution, and the survival density of the
    continuous measurement family.
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
    accumulate_covariance,
    rotation_matrix,
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
)
from .observed import (
    ObservedRunConfig,
    analytic_final_distribution,
    run_ensemble,
    run_trajectory,
    survival_density_continuous,
)
from .two_level import (
    TwoLevelModel,
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
