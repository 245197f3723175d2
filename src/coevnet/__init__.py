"""Simulation and analysis toolkit for coevolving binary actions and
continuous opinions on two-layer networks of coordinating and
anti-coordinating agents."""

from .netcore import (
    AgentParams,
    Classification,
    Partition,
    PopulationState,
    TwoLayerNetwork,
    WeightedGraph,
    classify_state,
    cohesiveness,
    diffusiveness,
    load_network,
    partition_state,
    save_network,
)
from .dynamics import (
    ActivationSchedule,
    StopCriterion,
    Trace,
    discriminant,
    discriminants,
    sign_with_inertia,
    simulate,
    step,
    verify_persistence,
)
from .analysis import (
    CHECKERS,
    TheoremReport,
    best_response_set,
    check_coordination_polarized,
    check_thm2,
    check_thm3,
    check_thm5,
    check_thm6,
    check_thm7,
    contour_grid,
    contour_value,
    is_nash,
    payoff,
    potential,
)
from .oracle import (
    EquilibriumCandidate,
    candidate,
    enumerate_equilibria,
    opinion_fixed_point,
)
from .genesis import (
    GenSpec,
    InfeasibleConditionError,
    complete_bipartite,
    condition_rescaled,
    initial_state,
    random_symmetric_stochastic,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
