"""Assignment rules: how an arriving user picks their preferred system.

A rule returns the preferred system for a (class, state) pair; whether the
user actually enters it is decided by the admission engine, which redirects
the user to another system with room (or blocks the user) when the
preference is saturated. Rules are deterministic and total over feasible states.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .aggregation import label_array, label_of
from .config import AggregationScheme, NetworkConfig, Policy
from .states import Occupancy, StateSpace, scope_count, scope_counts


class AssignmentRule:
    """Base interface; concrete rules implement every method."""

    def choose(self, config: NetworkConfig, occ: Occupancy, user_class: int) -> int:
        raise NotImplementedError

    def choice_table(self, space: StateSpace) -> np.ndarray:
        """Preferred system per (class, state id), shape (N, num_states),
        choose() of every pair, built from the space's arrays."""
        raise NotImplementedError

    def information_partition(self, space: StateSpace) -> tuple[np.ndarray, int]:
        """(cell id per state, cell count) of the information the rule's users
        condition on; used to aggregate utilities the same way the rule's
        decisions are made, so choice_table is constant on each cell."""
        raise NotImplementedError

    def describe(self) -> str:
        raise NotImplementedError


@dataclass(frozen=True)
class PolicyRule(AssignmentRule):
    """Follow a policy matrix indexed by (class, broadcast load label)."""

    policy: Policy
    scheme: AggregationScheme
    # (config, {occupancy: broadcast label}) of the config last passed to
    # choose(); a call with another config object starts a new dict.
    _labels: tuple = field(default=(None, None), init=False, compare=False,
                           hash=False, repr=False)

    def choose(self, config, occ, user_class):
        memo_config, labels = self._labels
        if memo_config is not config:
            labels = {}
            object.__setattr__(self, "_labels", (config, labels))
        label = labels.get(occ)
        if label is None:
            label = labels[occ] = label_of(self.scheme, config, occ)
        return self.policy.choice[user_class][label]

    def choice_table(self, space):
        labels = label_array(self.scheme, space)
        pol = np.asarray(self.policy.choice, dtype=np.int64)
        return pol[:, labels]

    def information_partition(self, space):
        return label_array(self.scheme, space), self.scheme.label_count

    def describe(self):
        return "policy"


@dataclass(frozen=True)
class PeakRateRule(AssignmentRule):
    """Join the system with the best peak rate; no load information used."""

    def choose(self, config, occ, user_class):
        rates = config.peak_rate[user_class]
        return max(range(config.num_systems), key=lambda s: (rates[s], -s))

    def choice_table(self, space):
        # argmax takes the first maximum, the lowest system, as choose() does
        best = np.argmax(np.asarray(space.config.peak_rate), axis=1)
        return np.repeat(best[:, None], space.num_states, axis=1)

    def information_partition(self, space):
        return np.zeros(space.num_states, dtype=np.int64), 1

    def describe(self):
        return "peak_rate"


@dataclass(frozen=True)
class InstantaneousRateRule(AssignmentRule):
    """Join the system with the best rate estimate at arrival.

    The network broadcasts the exact occupancy; the estimate divides the
    peak rate by one plus the current user count in the sharing scope, the
    extra one counting the arriving user himself.
    """

    def choose(self, config, occ, user_class):
        def estimate(s):
            return config.peak_rate[user_class][s] / (1 + scope_count(config, occ, s))

        return max(range(config.num_systems), key=lambda s: (estimate(s), -s))

    def choice_table(self, space):
        config = space.config
        peak = np.asarray(config.peak_rate)                        # (N, S)
        estimate = peak[:, None, :] / (1 + scope_counts(config, space.occ))
        # argmax takes the first maximum, the lowest system, as choose() does
        return np.argmax(estimate, axis=2)

    def information_partition(self, space):
        return np.arange(space.num_states, dtype=np.int64), space.num_states

    def describe(self):
        return "instantaneous_rate"
