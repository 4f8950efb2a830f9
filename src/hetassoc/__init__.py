"""Association-policy equilibria for heterogeneous wireless networks.

Builds continuous-time Markov chains over feasible user populations,
derives per-call expected volumes from absorbing-chain solves, searches for
globally optimal and Nash-equilibrium association policies, and optimizes
the load-information broadcast thresholds. A discrete-event simulator
cross-validates the analytic results.
"""

__version__ = "0.1.0"

from .aggregation import label_array, label_name, label_of, system_load
from .config import (AggregationScheme, ConfigError, NetworkConfig, ParseError,
                     Policy, load_config, load_instance, serialize_instance)
from .control import ControlResult, optimize_thresholds, threshold_lattice
from .ctmc import (Generator, ResidualError, SingularChainError, SteadyState,
                   build_generator, per_class_blocking, solve_steady_state)
from .game import (EmptyLabelError, EquilibriumFibre, OptimalResult, PolicyEvaluation,
                   PolicyGameSolver, SearchCapError, evaluate_baseline, evaluate_policy,
                   evaluate_rule)
from .rules import (AssignmentRule, InstantaneousRateRule, PeakRateRule,
                    PolicyRule)
from .simulate import SimReport, simulate
from .states import (CapacityError, StateSpace, enumerate_states, is_feasible,
                     user_throughput)
