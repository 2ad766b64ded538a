"""Occupation measures, absorption diagnostics and battery-relative
convergence checks for absorbing Markov decision processes."""

from .numbers import Number, ZERO, ONE, format_number, nsum, parse_number
from .spaces import (
    AtomDecl,
    ConvergentSeq,
    FiniteActions,
    IntervalActions,
    ISOLATED,
    LIMIT_POINT,
    SegmentDecl,
    StatePoint,
    StateSpace,
    is_isolated,
)
from .measure import (
    ActionAtom,
    BoundViolation,
    ActionDensity,
    ActionFactor,
    ActionMixture,
    CARATHEODORY,
    CONTINUOUS,
    MEASURABLE,
    Domain,
    MeasureError,
    HybridMeasure,
    MeasureComponent,
    PiecewisePoly,
    StateAtom,
    StateDensity,
    StateFactor,
    TestFunction,
    add,
    const_poly,
    integrate,
    marginal_state,
    pushforward_affine,
    scale,
    structured_joint_function,
    structured_state_function,
    total_mass,
)
from .mdp import (
    ActionPushforward,
    FixedDiffuse,
    FromRegion,
    MdpModel,
    ModelError,
    SegmentSelector,
    StageKernel,
    Strategy,
    StrategyFamily,
    StrategyRule,
    TransitionKernel,
    check_condition_s,
    deterministic_stationary,
    markov_sequence,
    validate_model,
    validate_strategy,
)
from .occupation import (
    CountableSolverError,
    OccupationResult,
    SolverError,
    Truncation,
    UnrollResidualError,
    expected_hitting_time,
    occupation_countable,
    occupation_unroll,
    survival_probs,
    tail_sum,
)
from .absorption import (
    AbsorptionReport,
    ValueFunction,
    bellman_apply,
    uniformity_report,
    verify_supersolution,
)
from .topology import (
    BatteryError,
    ConvergenceReport,
    TestBattery,
    check_convergence,
    determinism_defect,
    make_battery,
    multi_initial_check,
)

__version__ = "0.1.0"

# The paper's instances are imported on first use: no analysis needs them,
# and `zoo` is the largest module to import.
_ZOO_NAMES = ("ZOO", "Claim", "ZooEntry", "load_zoo")


def __getattr__(name):
    if name in _ZOO_NAMES:
        from . import zoo

        return getattr(zoo, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted([*globals(), *_ZOO_NAMES])


__all__ = [
    "Number", "ZERO", "ONE", "format_number", "nsum", "parse_number",
    "AtomDecl", "ConvergentSeq", "FiniteActions", "IntervalActions",
    "ISOLATED", "LIMIT_POINT", "SegmentDecl", "StatePoint", "StateSpace",
    "is_isolated",
    "ActionAtom", "ActionDensity", "ActionFactor", "ActionMixture",
    "CARATHEODORY", "CONTINUOUS", "MEASURABLE", "BoundViolation", "Domain", "MeasureError", "HybridMeasure",
    "MeasureComponent", "PiecewisePoly", "StateAtom", "StateDensity",
    "StateFactor", "TestFunction", "add",
    "const_poly", "integrate", "marginal_state", "pushforward_affine",
    "scale", "structured_joint_function", "structured_state_function",
    "total_mass",
    "ActionPushforward", "FixedDiffuse", "FromRegion", "MdpModel",
    "ModelError", "SegmentSelector", "StageKernel", "Strategy",
    "StrategyFamily", "StrategyRule", "TransitionKernel",
    "check_condition_s", "deterministic_stationary", "markov_sequence",
    "validate_model", "validate_strategy",
    "CountableSolverError", "OccupationResult", "SolverError", "Truncation",
    "UnrollResidualError", "expected_hitting_time", "occupation_countable",
    "occupation_unroll", "survival_probs", "tail_sum",
    "AbsorptionReport", "ValueFunction", "bellman_apply",
    "uniformity_report", "verify_supersolution",
    "BatteryError", "ConvergenceReport", "TestBattery", "check_convergence",
    "determinism_defect", "make_battery", "multi_initial_check",
    "ZOO", "Claim", "ZooEntry", "load_zoo",
]
