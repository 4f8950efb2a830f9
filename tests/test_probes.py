"""Every probe of probes.py, run on the smallest input that still enters its layer, returns
only positive counts: a renamed target raises, and one no longer called counts zero."""

import pytest

import probes

SMALL = {"structure_build": {"classes": 1}, "lone_memory": {"large": False},
         "chunked_evaluation": {"repeats": 1, "fibres": 2},
         "best_response": {"repeats": 1, "restarts": 1},
         "coordinate_ascent": {"repeats": 1, "restarts": 1}, "sweep": {"repeats": 1, "erlangs": 1},
         "threshold_control": {"repeats": 1, "schemes": 1},
         "simulator": {"repeats": 1, "events": 100_000, "seeds": range(2), "seed_events": 10_000}}


@pytest.mark.parametrize("name", probes.PROBES)
def test_probe_counts_are_positive(name, capsys):
    assert min(probes.PROBES[name](**SMALL.get(name, {}))) > 0
    assert capsys.readouterr().out


def test_a_raising_probe_leaves_the_others_running(monkeypatch, capsys):
    monkeypatch.setitem(probes.PROBES, "broken", lambda: 1 / 0)
    assert probes.main(["broken", "package_size"]) == 1
    out = capsys.readouterr().out
    assert "ZeroDivisionError" in out and "public names in hetassoc" in out
    assert out.endswith("failed probes: broken\n")
