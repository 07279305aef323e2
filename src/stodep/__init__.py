"""stodep: exact solving, simulation, and property checking for stochastic
depletion scheduling problems.

Activities deplete items of several types; each available item of type m is
depleted independently with an activity- and epoch-specific probability, and
depletion earns rewards that are non-increasing in time.  The package solves
such problems exactly at desk scale, evaluates policies both exactly and by
seeded Monte Carlo, and certifies the structural properties (value-function
monotonicity and the immediate-rewards inequality) under which the myopic
policy is guaranteed to earn at least half the optimal clairvoyant value.
"""

from .errors import (
    ActivityCapExceeded,
    CapExceeded,
    ConfigError,
    DomainError,
    EnumerationCapExceeded,
    FingerprintMismatch,
    InvalidPartition,
    StateSpaceCapExceeded,
    StodepError,
)
from .model import (
    DEFAULT_ACTIVITY_CAP,
    DEFAULT_STATE_CAP,
    Instance,
    State,
    ValidationReport,
    apply_depletion_with_step,
    expected_one_step_reward,
    reward,
    sample_depletion,
    state_space_size,
    validate_instance,
)
from .rewards import (
    BudgetedLinearFunction,
    CoverageFunction,
    GeneralTabulatedReward,
    LinearDecayingReward,
    LinearReward,
    RewardSpec,
    SetFunctionEvaluator,
    SubmodularReward,
    reward_from_dict,
)
from .serialize import (
    instance_fingerprint,
    instance_from_dict,
    instance_to_dict,
    load_instance,
    save_instance,
)
from .dp import (
    AuditReport,
    ValueTable,
    audit_table,
    best_activity,
    evaluate_policies_exact,
    evaluate_policy_exact,
    optimal_value,
    solve_and_evaluate,
    solve_clairvoyant,
)
from .policies import (
    ApproxMyopicPolicy,
    FixedPolicy,
    MyopicPolicy,
    Policy,
    RoundRobinPolicy,
    SeededRandomPolicy,
    TablePolicy,
    approx_myopic_policy,
    myopic_policy,
    optimal_policy_from_table,
    policy_from_name,
)
from .simulate import (
    EpisodeStep,
    EpisodeTrace,
    EvalSummary,
    mix64,
    monte_carlo_value,
    simulate_episode,
    summarize_totals,
)
from .properties import (
    PropertyReport,
    RatioReport,
    Violation,
    check_assumption1,
    check_ir,
    check_ratio,
    check_submodular,
    check_vfm,
)

__version__ = "0.1.0"
