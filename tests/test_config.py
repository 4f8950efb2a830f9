"""Instance loading, validation and serialization round-trips."""

import json

import pytest

from hetassoc import (AggregationScheme, ConfigError, NetworkConfig, ParseError,
                      Policy, load_instance, serialize_instance)
from hetassoc.config import instance_to_dict

from conftest import state_ids, with_entry


def doc(**overrides):
    base = {
        "systems": [{"name": "a", "thresholds": [0.3, 0.7]},
                    {"name": "b", "thresholds": [0.3, 0.7]}],
        "classes": [{"name": "c0", "arrival_rate": 0.4, "peak_rates": [5.0, 10.0]},
                    {"name": "c1", "arrival_rate": 0.6, "peak_rates": [1.5, 3.0]}],
        "t_min": 1.0,
        "t_max": 2.0,
        "service_rate": 1.0,
    }
    base.update(overrides)
    return json.dumps(base)


def test_two_system_instance_loads():
    config, scheme = load_instance(doc())
    assert config.num_systems == 2
    assert config.num_classes == 2
    assert config.t_min == 1.0 and config.t_max == 2.0
    assert scheme.thresholds == ((0.3, 0.7), (0.3, 0.7))
    assert scheme.label_count == 9


def test_inverted_bounds_rejected():
    with pytest.raises(ConfigError, match="t_min exceeds t_max"):
        load_instance(doc(t_min=2.0, t_max=1.0))


def test_no_traffic_rejected():
    bad = doc()
    parsed = json.loads(bad)
    for cls in parsed["classes"]:
        cls["arrival_rate"] = 0.0
    with pytest.raises(ConfigError, match="no traffic"):
        load_instance(json.dumps(parsed))


def test_malformed_json_is_a_parse_error():
    with pytest.raises(ParseError):
        load_instance("{not json")


def test_missing_key_named():
    parsed = json.loads(doc())
    del parsed["service_rate"]
    with pytest.raises(ConfigError, match="service_rate"):
        load_instance(json.dumps(parsed))


def test_negative_peak_rate_rejected():
    parsed = json.loads(doc())
    parsed["classes"][0]["peak_rates"] = [-1.0, 10.0]
    with pytest.raises(ConfigError, match="peak rates"):
        load_instance(json.dumps(parsed))


def test_bad_thresholds_rejected():
    parsed = json.loads(doc())
    parsed["systems"][0]["thresholds"] = [0.8, 0.2]
    with pytest.raises(ConfigError, match="thresholds"):
        load_instance(json.dumps(parsed))


def test_gain_table_monotonicity_enforced():
    # gain(2)/2 = 0.75 > gain(1)/1 = 0.5 violates the per-user monotonicity
    with pytest.raises(ConfigError, match="gain"):
        NetworkConfig(peak_rate=((2.0,),), t_min=1.0, t_max=2.0,
                      arrival_rate=(1.0,), service_rate=1.0,
                      scheduler_gain=(0.5, 1.5))


def test_gain_lookup_extends_with_last_value():
    config = NetworkConfig(peak_rate=((2.0,),), t_min=0.1, t_max=2.0,
                           arrival_rate=(1.0,), service_rate=1.0,
                           scheduler_gain=(1.0, 1.4))
    assert config.gain(1) == 1.0
    assert config.gain(2) == 1.4
    assert config.gain(9) == 1.4


def test_round_trip_identity():
    config, scheme = load_instance(doc(scheduler_gain=[1.0, 1.2],
                                       sharing_scope="network_wide"))
    text = serialize_instance(config, scheme)
    config2, scheme2 = load_instance(text)
    assert config2 == config
    assert scheme2 == scheme
    assert instance_to_dict(config2, scheme2) == instance_to_dict(config, scheme)


def test_every_valid_config_has_a_nonempty_space():
    from hetassoc import enumerate_states
    config, _ = load_instance(doc())
    space = enumerate_states(config)
    assert state_ids(space, [(0, 0, 0, 0)])[0] >= 0
    assert space.num_states >= 1


def test_traffic_scaling():
    config, _ = load_instance(doc())
    assert config.offered_erlangs == pytest.approx(1.0)
    scaled = config.scale_traffic(10.0)
    assert scaled.offered_erlangs == pytest.approx(10.0)
    assert scaled.arrival_rate == (4.0, 6.0)
    with pytest.raises(ConfigError):
        config.scale_traffic(0.0)


def test_policy_helpers():
    policy = Policy.from_flat([0, 1, 1, 0], num_classes=2, num_labels=2)
    assert policy.choice == ((0, 1), (1, 0))
    assert policy.flatten() == (0, 1, 1, 0)
    assert with_entry(policy, 0, 1, 0).choice == ((0, 0), (1, 0))
    config, scheme = load_instance(doc())
    with pytest.raises(ConfigError):
        policy.validate_for(config, scheme)  # wrong label count
    const = Policy.constant(2, 9, 1)
    const.validate_for(config, scheme)


def test_scheme_validation():
    with pytest.raises(ConfigError):
        AggregationScheme(((0.5, 0.2),))
    with pytest.raises(ConfigError):
        AggregationScheme(((-0.1, 0.5),))
    assert AggregationScheme.uniform(2, 0.3, 0.7).label_count == 9


@pytest.mark.parametrize("overrides,message", [
    (dict(peak_rate=()), "at least one radio class"),
    (dict(peak_rate=((2.0,), (2.0, 3.0))), "same length"),
    (dict(peak_rate=((), ())), "at least one system"),
    (dict(t_min=0.0), "t_min must be positive"),
    (dict(t_min=-1.0), "t_min must be positive"),
    (dict(arrival_rate=(1.0, 1.0)), "one entry per radio class"),
    (dict(arrival_rate=(-0.5,)), "non-negative"),
    (dict(service_rate=0.0), "service_rate must be positive"),
    (dict(scheduler_gain=()), "must not be empty"),
    (dict(scheduler_gain=(0.0,)), "gains must be positive"),
    (dict(sharing_scope="both"), "sharing_scope"),
    (dict(system_names=("a", "b")), "system_names"),
    (dict(class_names=("a", "b")), "class_names"),
])
def test_each_invariant_violation_is_named(overrides, message):
    base = dict(peak_rate=((2.0,),), t_min=1.0, t_max=2.0,
                arrival_rate=(1.0,), service_rate=1.0)
    base.update(overrides)
    with pytest.raises(ConfigError, match=message):
        NetworkConfig(**base)


def test_non_numeric_fields_rejected():
    parsed = json.loads(doc())
    parsed["classes"][0]["peak_rates"] = ["fast", 10.0]
    with pytest.raises(ConfigError, match="must be numbers"):
        load_instance(json.dumps(parsed))


@pytest.mark.parametrize("value", [float("nan"), float("inf")], ids=["NaN", "Infinity"])
@pytest.mark.parametrize("field", ["peak_rates", "arrival_rate", "t_min", "t_max",
                                   "service_rate", "scheduler_gain"])
def test_non_finite_numbers_rejected(field, value):
    """JSON's NaN and Infinity are numbers to the parser; a non-finite rate
    drops the t_max cap or makes every state feasible, so each is refused."""
    parsed = json.loads(doc())
    if field == "peak_rates":
        parsed["classes"][0]["peak_rates"] = [value, 10.0]
    elif field == "arrival_rate":
        parsed["classes"][1]["arrival_rate"] = value
    elif field == "scheduler_gain":
        parsed["scheduler_gain"] = [1.0, value]
    else:
        parsed[field] = value
    with pytest.raises(ConfigError, match="must be finite"):
        load_instance(json.dumps(parsed))


@pytest.mark.parametrize("field", ["peak_rates", "arrival_rate", "t_min", "t_max",
                                   "service_rate", "scheduler_gain", "thresholds"])
def test_integers_too_large_for_a_float_are_named(field):
    """JSON integers have no size limit; one past the float range is a
    ConfigError naming its field, not an OverflowError."""
    big = 10 ** 400
    parsed = json.loads(doc())
    if field == "peak_rates":
        parsed["classes"][0]["peak_rates"] = [big, 10.0]
    elif field == "arrival_rate":
        parsed["classes"][1]["arrival_rate"] = big
    elif field == "scheduler_gain":
        parsed["scheduler_gain"] = [1.0, big]
    elif field == "thresholds":
        parsed["systems"][0]["thresholds"] = [0.3, big]
    else:
        parsed[field] = big
    name = "peak_rate" if field == "peak_rates" else field
    with pytest.raises(ConfigError, match=f"{name} holds a number too large for a float"):
        load_instance(json.dumps(parsed))


@pytest.mark.parametrize("gain", [5, None])
def test_scheduler_gain_must_be_an_array(gain):
    with pytest.raises(ConfigError, match="scheduler_gain must be an array"):
        load_instance(doc(scheduler_gain=gain))


def test_name_defaults():
    config = NetworkConfig(peak_rate=((2.0, 3.0),), t_min=1.0, t_max=2.0,
                           arrival_rate=(1.0,), service_rate=1.0)
    assert config.system_name(1) == "s1"
    assert config.class_name(0) == "c0"
