"""Probabilistic reward machines: matrix semantics, simulated
non-Markovian environments, and active/passive learning algorithms."""

from .alphabet import (
    Alphabet,
    EMPTY_LABEL,
    EPSILON,
    Label,
    Word,
    label_str,
    parse_label,
    parse_word,
    word_str,
)
from .machine import (
    Prm,
    UndefinedTransitionError,
    UnreachableWordError,
    coffee_prm,
    load_prm,
    patrol_prm,
    prm_from_text,
    prm_to_dot,
    prm_to_text,
    save_prm,
)
from .environment import (
    Nmdp,
    Trajectory,
    build_office_nmdp,
    collect_traces,
    load_env_config,
    load_gridmap,
    load_traces,
    membership_reward_machine,
    parse_gridmap,
    product,
    run_episode,
    save_traces,
    shortest_path_policy,
    uniform_policy,
)
from .table import ObservationTable, build_hypothesis, diff
from .active import ActiveResult, LearnerConfig, learn_active
from .passive import PassiveConfig, PassiveResult, learn_passive, learn_passive_from_traces
from .verify import (
    BudgetExceededError,
    EncodingReport,
    brute_force_reward_distribution,
    brute_force_word_realizability,
    encoding_distance,
    total_variation,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
