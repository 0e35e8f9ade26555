"""Numerical laboratory for Hyers-Ulam stability of the generalized Jensen
equation r·f((s·x + t·y)/r) = s·g(x) + t·h(y) on restricted domains."""

from .control import (
    CONSTANT,
    MIXED,
    TABLE,
    ControlFunctionSpec,
    RadialControlTable,
    control_phi_norms,
)
from .domains import (
    EXTERIOR,
    FULL,
    ORTHOGONAL,
    PUNCTURED,
    DomainRestriction,
    ShellProfile,
    asymptotic_profile,
    construct_z_many,
    five_inequality_margins,
    five_term_defect_many,
)
from .experiments import (
    BallSettings,
    ConfigError,
    ExperimentConfig,
    LimitSettings,
    ModelSettings,
    SamplerSettings,
    SearchSettings,
    ShellSettings,
    StabilityReport,
    adversarial_search,
    build_models,
    calibrated_perturbations,
    config_to_dict,
    emit_report,
    emit_reports,
    load_config,
    measure_epsilon,
    parse_config,
    run_experiment,
)
from .models import (
    FunctionModel,
    JensenParams,
    PerturbationSpec,
    RadialTable,
    derive_seed,
    jensen_defect_many,
    odd_even_split,
)
from .orthogonal import (
    DecompositionResult,
    even_part_constancy_check,
    pexider_reduction_check,
    scaling_identity_check,
    sikorska_extend,
)
from .series import (
    cor22_bound_norms,
    phi_tilde_dyadic_norms,
    phi_tilde_triadic_norms,
)
from .spaces import (
    BIRKHOFF_JAMES,
    EUCLIDEAN,
    INNER_PRODUCT,
    P_NORM,
    SUP,
    TRIVIAL,
    AxiomReport,
    AxiomResult,
    NormedSpaceSpec,
    OrthogonalityRelation,
    bj_margin_many,
    check_ratz_axioms,
    euclidean_space,
    is_orthogonal,
    is_orthogonal_many,
    norm_many,
    orthogonal_partners,
)

__version__ = "0.1.0"
