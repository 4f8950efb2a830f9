"""Domain types and JSON loading for association problem instances.

An instance bundles the radio model (peak rates per radio-condition class
and system, codec throughput bounds, scheduler gain), the traffic model
(Poisson arrivals per class, exponential call durations with a common mean)
and the per-system load thresholds used to aggregate the broadcast load
information. All types are immutable after construction and safe to share
across parallel workers.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace

PER_SYSTEM = "per_system"
NETWORK_WIDE = "network_wide"
SHARING_SCOPES = (PER_SYSTEM, NETWORK_WIDE)

# Load information is always three-valued per system: low / medium / high.
NUM_LEVELS = 3
LEVEL_NAMES = ("low", "medium", "high")


class ConfigError(ValueError):
    """A problem instance violates a model invariant."""


class ParseError(ConfigError):
    """The configuration document is not syntactically valid JSON."""


@dataclass(frozen=True)
class NetworkConfig:
    """Static description of one heterogeneous-network instance.

    peak_rate[n][s] is the throughput in Mbps a class-n user obtains when
    served alone by system s. Users need at least t_min Mbps to be admitted
    and never use more than t_max. arrival_rate[n] is the Poisson rate of
    class-n call arrivals (calls/second); service_rate is the inverse mean
    call duration (1/second), common to all classes.

    scheduler_gain[k-1] is the multi-user scheduler gain with k users in
    the sharing scope; the table is extended by its last value for larger
    occupancies. sharing_scope selects whether the rate of a user is shared
    over the users of their own system only (per_system) or over all users in
    the network (network_wide).

    strict_arrivals selects what the network does with a user whose
    preferred system is saturated: redirect them to the lowest-index system
    with room (False), or drop the arrival, as eq. 2 reads literally
    (True). It is not part of the instance document; the CLI sets it from
    --strict-eq2.
    """

    peak_rate: tuple[tuple[float, ...], ...]
    t_min: float
    t_max: float
    arrival_rate: tuple[float, ...]
    service_rate: float
    scheduler_gain: tuple[float, ...] = (1.0,)
    sharing_scope: str = PER_SYSTEM
    system_names: tuple[str, ...] = ()
    class_names: tuple[str, ...] = ()
    strict_arrivals: bool = False

    def __post_init__(self):
        object.__setattr__(self, "peak_rate",
                           tuple(tuple(float(d) for d in row) for row in self.peak_rate))
        object.__setattr__(self, "arrival_rate",
                           tuple(float(a) for a in self.arrival_rate))
        object.__setattr__(self, "scheduler_gain",
                           tuple(float(g) for g in self.scheduler_gain))
        object.__setattr__(self, "t_min", float(self.t_min))
        object.__setattr__(self, "t_max", float(self.t_max))
        object.__setattr__(self, "service_rate", float(self.service_rate))
        object.__setattr__(self, "system_names", tuple(self.system_names))
        object.__setattr__(self, "class_names", tuple(self.class_names))
        self._validate()

    def _validate(self):
        if len(self.peak_rate) < 1:
            raise ConfigError("at least one radio class is required")
        widths = {len(row) for row in self.peak_rate}
        if len(widths) != 1:
            raise ConfigError("peak_rate rows must all have the same length")
        if widths == {0}:
            raise ConfigError("at least one system is required")
        numbers = (*(d for row in self.peak_rate for d in row), self.t_min, self.t_max,
                   *self.arrival_rate, self.service_rate, *self.scheduler_gain)
        if not all(map(math.isfinite, numbers)):
            raise ConfigError("rates, bounds and gains must be finite")
        if any(d <= 0 for row in self.peak_rate for d in row):
            raise ConfigError("peak rates must be positive")
        if not (0 < self.t_min):
            raise ConfigError("t_min must be positive")
        if self.t_min > self.t_max:
            raise ConfigError("t_min exceeds t_max")
        if len(self.arrival_rate) != self.num_classes:
            raise ConfigError("arrival_rate must have one entry per radio class")
        if any(a < 0 for a in self.arrival_rate):
            raise ConfigError("arrival rates must be non-negative")
        if not any(a > 0 for a in self.arrival_rate):
            raise ConfigError("no traffic")
        if self.service_rate <= 0:
            raise ConfigError("service_rate must be positive")
        if not self.scheduler_gain:
            raise ConfigError("scheduler_gain table must not be empty")
        if any(g <= 0 for g in self.scheduler_gain):
            raise ConfigError("scheduler gains must be positive")
        # gain[k]/k non-increasing keeps admission monotone in occupancy,
        # which the state-space departure-closure invariant relies on.
        g = self.scheduler_gain
        for k in range(1, len(g)):
            if g[k] / (k + 1) > g[k - 1] / k + 1e-12:
                raise ConfigError("scheduler gain per user must be non-increasing in the user count")
        if self.sharing_scope not in SHARING_SCOPES:
            raise ConfigError(f"sharing_scope must be one of {SHARING_SCOPES}")
        if self.system_names and len(self.system_names) != self.num_systems:
            raise ConfigError("system_names must have one entry per system")
        if self.class_names and len(self.class_names) != self.num_classes:
            raise ConfigError("class_names must have one entry per radio class")

    @property
    def num_classes(self) -> int:
        return len(self.peak_rate)

    @property
    def num_systems(self) -> int:
        return len(self.peak_rate[0])

    @property
    def offered_erlangs(self) -> float:
        """Total offered traffic, sum of arrival rates over the service rate."""
        return sum(self.arrival_rate) / self.service_rate

    def gain(self, k: int) -> float:
        """Scheduler gain with k >= 1 users in the sharing scope."""
        table = self.scheduler_gain
        return table[min(k, len(table)) - 1]

    def scale_traffic(self, multiplier: float) -> "NetworkConfig":
        """Return a copy with every arrival rate multiplied by `multiplier`."""
        if multiplier <= 0:
            raise ConfigError("traffic multiplier must be positive")
        return replace(self, arrival_rate=tuple(a * multiplier for a in self.arrival_rate))

    def with_sharing_scope(self, scope: str) -> "NetworkConfig":
        return replace(self, sharing_scope=scope)

    def system_name(self, s: int) -> str:
        return self.system_names[s] if self.system_names else f"s{s}"

    def class_name(self, n: int) -> str:
        return self.class_names[n] if self.class_names else f"c{n}"


@dataclass(frozen=True)
class AggregationScheme:
    """Per-system (low, high) load thresholds defining the broadcast map.

    A system whose load is at most `low` reads as low-loaded, above `high`
    as highly loaded, medium otherwise; boundaries are assigned downward.
    The joint label over S systems takes 3**S values.
    """

    thresholds: tuple[tuple[float, float], ...]

    def __post_init__(self):
        object.__setattr__(self, "thresholds",
                           tuple((float(lo), float(hi)) for lo, hi in self.thresholds))
        for lo, hi in self.thresholds:
            if not (0.0 <= lo <= hi <= 1.0):
                raise ConfigError("thresholds must satisfy 0 <= low <= high <= 1")

    @property
    def num_systems(self) -> int:
        return len(self.thresholds)

    @property
    def label_count(self) -> int:
        return NUM_LEVELS ** self.num_systems

    @classmethod
    def uniform(cls, num_systems: int, low: float, high: float) -> "AggregationScheme":
        return cls(((low, high),) * num_systems)


@dataclass(frozen=True)
class Policy:
    """System choice per (radio class, load label): choice[n][l] is a 0-based
    system index."""

    choice: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        object.__setattr__(self, "choice",
                           tuple(tuple(int(s) for s in row) for row in self.choice))
        if not self.choice or not self.choice[0]:
            raise ConfigError("policy matrix must be non-empty")
        widths = {len(row) for row in self.choice}
        if len(widths) != 1:
            raise ConfigError("policy rows must all have the same length")
        if any(s < 0 for row in self.choice for s in row):
            raise ConfigError("policy entries must be non-negative system indices")

    @property
    def num_classes(self) -> int:
        return len(self.choice)

    @property
    def num_labels(self) -> int:
        return len(self.choice[0])

    def validate_for(self, config: NetworkConfig, scheme: AggregationScheme) -> None:
        if self.num_classes != config.num_classes:
            raise ConfigError("policy must have one row per radio class")
        if self.num_labels != scheme.label_count:
            raise ConfigError("policy must have one column per load label")
        if max(map(max, self.choice)) >= config.num_systems:
            raise ConfigError("policy entries must be valid system indices")

    def with_entry(self, n: int, l: int, s: int) -> "Policy":
        rows = [list(row) for row in self.choice]
        rows[n][l] = s
        return Policy(tuple(tuple(row) for row in rows))

    def flatten(self) -> tuple[int, ...]:
        return tuple(s for row in self.choice for s in row)

    @classmethod
    def constant(cls, num_classes: int, num_labels: int, system: int) -> "Policy":
        return cls(((system,) * num_labels,) * num_classes)

    @classmethod
    def from_flat(cls, flat, num_classes: int, num_labels: int) -> "Policy":
        flat = tuple(int(x) for x in flat)
        if len(flat) != num_classes * num_labels:
            raise ConfigError("flattened policy has the wrong length")
        return cls(tuple(flat[n * num_labels:(n + 1) * num_labels]
                         for n in range(num_classes)))


def instance_from_dict(doc: dict) -> tuple[NetworkConfig, AggregationScheme]:
    """Build and validate a (config, scheme) pair from a parsed document."""
    if not isinstance(doc, dict):
        raise ConfigError("configuration document must be a JSON object")
    for key in ("systems", "classes", "t_min", "t_max", "service_rate"):
        if key not in doc:
            raise ConfigError(f"missing key: {key}")
    systems = doc["systems"]
    classes = doc["classes"]
    if not isinstance(systems, list) or not systems:
        raise ConfigError("systems must be a non-empty array")
    if not isinstance(classes, list) or not classes:
        raise ConfigError("classes must be a non-empty array")
    try:
        thresholds = tuple((sys_["thresholds"][0], sys_["thresholds"][1]) for sys_ in systems)
    except (KeyError, IndexError, TypeError) as exc:
        raise ConfigError("each system needs thresholds: [low, high]") from exc
    system_names = tuple(str(sys_.get("name", f"s{i}")) for i, sys_ in enumerate(systems))
    try:
        peak_rate = tuple(tuple(cls_["peak_rates"]) for cls_ in classes)
        arrival = tuple(cls_["arrival_rate"] for cls_ in classes)
    except (KeyError, TypeError) as exc:
        raise ConfigError("each class needs arrival_rate and peak_rates") from exc
    if any(len(row) != len(systems) for row in peak_rate):
        raise ConfigError("peak_rates must list one rate per system")
    gain = doc.get("scheduler_gain", [1.0])
    if not isinstance(gain, list):
        raise ConfigError("scheduler_gain must be an array")
    numbers = [x for row in peak_rate for x in row] + list(arrival)
    numbers += [doc["t_min"], doc["t_max"], doc["service_rate"], *gain]
    numbers += [x for sys_ in systems for x in sys_["thresholds"][:2]]
    if not all(isinstance(x, (int, float)) and not isinstance(x, bool)
               for x in numbers):
        raise ConfigError("rates, bounds, gains and thresholds must be numbers")
    class_names = tuple(str(cls_.get("name", f"c{i}")) for i, cls_ in enumerate(classes))
    config = NetworkConfig(
        peak_rate=peak_rate,
        t_min=doc["t_min"],
        t_max=doc["t_max"],
        arrival_rate=arrival,
        service_rate=doc["service_rate"],
        scheduler_gain=tuple(gain),
        sharing_scope=doc.get("sharing_scope", PER_SYSTEM),
        system_names=system_names,
        class_names=class_names,
    )
    scheme = AggregationScheme(thresholds)
    return config, scheme


def instance_to_dict(config: NetworkConfig, scheme: AggregationScheme) -> dict:
    return {
        "systems": [
            {"name": config.system_name(s), "thresholds": list(scheme.thresholds[s])}
            for s in range(config.num_systems)
        ],
        "classes": [
            {
                "name": config.class_name(n),
                "arrival_rate": config.arrival_rate[n],
                "peak_rates": list(config.peak_rate[n]),
            }
            for n in range(config.num_classes)
        ],
        "t_min": config.t_min,
        "t_max": config.t_max,
        "service_rate": config.service_rate,
        "scheduler_gain": list(config.scheduler_gain),
        "sharing_scope": config.sharing_scope,
    }


def load_instance(text: str) -> tuple[NetworkConfig, AggregationScheme]:
    """Parse a JSON configuration document into a validated instance."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"malformed JSON: {exc}") from exc
    return instance_from_dict(doc)


def load_config(text: str) -> NetworkConfig:
    """Parse a JSON configuration document, returning the network part."""
    return load_instance(text)[0]


def serialize_instance(config: NetworkConfig, scheme: AggregationScheme) -> str:
    """Serialize an instance, on one line, to the JSON document format
    load_instance reads."""
    return json.dumps(instance_to_dict(config, scheme))
