"""CLI subcommands: artifacts, determinism, error reporting."""

import gc
import json
import os
import pickle
import subprocess
import sys

import pytest

from hetassoc import PolicyGameSolver, ResidualError, SingularChainError, cli
from hetassoc.cli import main
from hetassoc.transient import SingularTaggedChainError

from conftest import CONFIG_DIR, REPO_ROOT, nash_exhaustive_doc, read_csv_rows

ERLANG = str(CONFIG_DIR / "erlang_single.json")
HYBRID = str(CONFIG_DIR / "hybrid_example.json")
DATA_DIR = REPO_ROOT / "tests" / "data"


def run(*argv) -> int:
    return main(list(argv))


def test_validate_ok(capsys):
    assert run("validate", "--config", ERLANG) == 0
    out = capsys.readouterr().out
    assert "3 feasible states" in out


def test_validate_bad_config(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "systems": [{"thresholds": [0.3, 0.7]}],
        "classes": [{"arrival_rate": 1.0, "peak_rates": [2.0]}],
        "t_min": 2.0, "t_max": 1.0, "service_rate": 1.0,
    }))
    assert run("validate", "--config", str(bad)) == 1
    assert "t_min exceeds t_max" in capsys.readouterr().err


def test_validate_missing_file(capsys):
    assert run("validate", "--config", "/nonexistent.json") == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("case", ["directory", "binary", "out-under-a-file"])
def test_unreadable_input_is_one_error_line(tmp_path, capsys, case):
    """A config file that is a directory or not UTF-8 text, and an --out
    below a regular file, are one-line errors like a missing file."""
    binary = tmp_path / "binary.json"
    binary.write_bytes(b"\xff\xfe{}")
    (tmp_path / "file").write_text("")
    argv = {"directory": ["validate", "--config", str(CONFIG_DIR)],
            "binary": ["validate", "--config", str(binary)],
            "out-under-a-file": ["enumerate", "--config", ERLANG,
                                 "--out", str(tmp_path / "file" / "o")]}[case]
    assert run(*argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_enumerate_writes_state_table(tmp_path):
    out = tmp_path / "o"
    assert run("enumerate", "--config", ERLANG, "--out", str(out)) == 0
    header, rows = read_csv_rows(out / "states.csv")
    assert header[:2] == ["id", "occ_users_cell"]
    assert len(rows) == 3
    text = (out / "states.csv").read_text()
    assert text.startswith("# hetassoc")
    assert '"t_min": 1.0' in text.splitlines()[1]


def test_space_not_closed_under_departures_is_a_config_error(tmp_path, capsys):
    """A gain table inside the validation tolerance can make two users of a
    class feasible where one alone is not; the chain tables refuse that
    space with a one-line error."""
    path = tmp_path / "rising_gain.json"
    path.write_text(json.dumps({
        "systems": [{"thresholds": [0.3, 0.7]}],
        "classes": [{"arrival_rate": 1.0, "peak_rates": [5.0]},
                    {"arrival_rate": 1.0, "peak_rates": [1.0 - 1e-13]}],
        "t_min": 1.0, "t_max": 2.0, "service_rate": 1.0,
        "scheduler_gain": [1.0, 2.0 + 1e-12]}))
    assert run("steady", "--config", str(path), "--out", str(tmp_path)) == 1
    assert "not closed under departures" in capsys.readouterr().err


def test_steady_and_generator_export(tmp_path):
    out = tmp_path / "o"
    assert run("steady", "--config", ERLANG, "--rule", "policy",
               "--policy", "0,0,0", "--out", str(out), "--export-q") == 0
    header, rows = read_csv_rows(out / "steady.csv")
    probs = [float(r[2]) for r in rows]
    assert probs == pytest.approx([0.4, 0.4, 0.2], abs=1e-10)
    qlines = (out / "generator.txt").read_text().strip().splitlines()
    assert len(qlines) == 4  # two up edges, two down edges


def test_utility_table(tmp_path):
    out = tmp_path / "o"
    assert run("utility", "--config", ERLANG, "--rule", "policy",
               "--policy", "0,0,0", "--out", str(out)) == 0
    header, rows = read_csv_rows(out / "utility.csv")
    values = {int(r[0]): float(r[3]) for r in rows}
    assert values[1] == pytest.approx(5.0 / 3.0, abs=1e-10)
    assert values[2] == pytest.approx(4.0 / 3.0, abs=1e-10)


def test_policy_rule_requires_policy(capsys, tmp_path):
    """--rule policy needs --policy, and --policy needs --rule policy: a
    policy under another rule, even of the wrong length, is refused, not
    ignored."""
    for argv in (("steady", "--config", ERLANG, "--rule", "policy"),
                 ("utility", "--config", HYBRID, "--policy", "0,1"),
                 ("steady", "--config", ERLANG, "--rule", "instant", "--policy", "0,0,0")):
        assert run(*argv, "--out", str(tmp_path)) == 1
        err = capsys.readouterr().err
        assert err.count("error:") == 1 and "--policy" in err
    assert not any(tmp_path.iterdir())


def test_nash_outputs(tmp_path):
    out = tmp_path / "o"
    assert run("nash", "--config", ERLANG, "--out", str(out)) == 0
    doc = json.loads((out / "nash.json").read_text())
    assert doc["tool"].startswith("hetassoc")
    assert len(doc["equilibria"]) == 1
    assert doc["equilibria"][0]["policy"] == [[0, 0, 0]]
    header, rows = read_csv_rows(out / "nash.csv")
    assert rows[0][0] == "0,0,0"


def test_optimal_outputs(tmp_path):
    out = tmp_path / "o"
    assert run("optimal", "--config", ERLANG, "--out", str(out)) == 0
    doc = json.loads((out / "optimal.json").read_text())
    assert doc["policy"] == [[0, 0, 0]]
    assert doc["params"]["method"] == "exhaustive"


def test_baseline_outputs(tmp_path, capsys):
    out = tmp_path / "o"
    assert run("baseline", "--config", ERLANG, "--which", "peak_rate",
               "--out", str(out)) == 0
    header, rows = read_csv_rows(out / "baseline_peak_rate.csv")
    assert float(rows[0][1]) == pytest.approx(0.96, abs=1e-9)
    assert float(rows[0][2]) == pytest.approx(0.2, abs=1e-10)


def test_control_outputs(tmp_path):
    out = tmp_path / "o"
    assert run("control", "--config", HYBRID, "--out", str(out),
               "--scheme", "0.3,0.7;0.3,0.7", "--scheme", "0,0;0,0",
               "--traffic", "2:2:1", "--restarts", "12") == 0
    header, rows = read_csv_rows(out / "control.csv")
    assert header[0] == "erlangs"
    assert len(rows) == 2
    argmin_rows = [r for r in rows if r[6] == "best"]
    assert len(argmin_rows) == 1
    doc = json.loads((out / "control.json").read_text())
    assert doc["sweep"][0]["best_thresholds"] is not None


def test_sweep_csv_and_svg(tmp_path):
    out = tmp_path / "o"
    assert run("sweep", "--config", HYBRID, "--traffic", "2:3:1",
               "--analyses", "nash,baselines", "--restarts", "12",
               "--out", str(out), "--svg") == 0
    header, rows = read_csv_rows(out / "sweep_utility.csv")
    assert header == ["erlangs", "utility_nash", "utility_peak_rate",
                      "utility_instantaneous_rate"]
    assert len(rows) == 2
    # nash should beat the peak baseline on the shipped instance
    assert float(rows[0][1]) > float(rows[0][2])
    svg = (out / "sweep_utility.svg").read_text()
    assert svg.startswith("<svg") and "polyline" in svg
    blocking_header, _ = read_csv_rows(out / "sweep_blocking.csv")
    assert blocking_header[0] == "erlangs"


def test_sweep_with_control_analysis(tmp_path):
    out = tmp_path / "o"
    assert run("sweep", "--config", HYBRID, "--traffic", "2:3:1",
               "--analyses", "control", "--scheme", "0.3,0.7;0.3,0.7",
               "--scheme", "0,0;0,0", "--restarts", "12",
               "--out", str(out), "--svg") == 0
    header, rows = read_csv_rows(out / "sweep_control.csv")
    assert header == ["erlangs", "thresholds", "blocking", "utility",
                      "equilibria", "argmin"]
    assert len(rows) == 4  # two schemes at two traffic points
    assert sum(1 for r in rows if r[5] == "best") == 2
    svg = (out / "sweep_control.svg").read_text()
    assert "0.3,0.7;0.3,0.7" in svg


def test_sweep_solves_the_instance_scheme_once_with_control(tmp_path, monkeypatch):
    """With control among the analyses and the instance's own scheme in the
    threshold grid, a sweep point reports as nash the equilibria the
    threshold search found for that scheme: one search per scheme of the
    default grid, and none more for nash."""
    searched = []
    find_nash = PolicyGameSolver.find_nash

    def counted(solver, *args, **kwargs):
        searched.append(solver.scheme)
        return find_nash(solver, *args, **kwargs)

    monkeypatch.setattr(PolicyGameSolver, "find_nash", counted)
    assert run("sweep", "--config", HYBRID, "--traffic", "5:5:1",
               "--analyses", "nash,control", "--out", str(tmp_path)) == 0
    assert len(searched) == len(set(searched)) == 3
    point, = json.loads((tmp_path / "sweep.json").read_text())["points"]
    assert point["nash"]["count"] > 0


def test_sweep_point_results_stay_small_for_workers(hybrid_instance):
    """One traffic point's results, which a --jobs worker sends back, hold
    the equilibria as fibres: with all four analyses at 5 Erlangs they
    pickle to under 64 KiB, though they stand for hundreds of member
    policies."""
    config, scheme = hybrid_instance
    grid = [cli._parse_scheme(text) for text in cli._DEFAULT_CONTROL_SCHEMES]
    results = cli._sweep_point(config, scheme, 5.0,
                               analyses=["nash", "optimal", "baselines", "control"],
                               grid=grid, selection="max_utility", restarts=64, seed=0,
                               max_states=10 ** 6)
    assert sum(outcome.count for outcome in results["control"].outcomes) > 200
    assert len(pickle.dumps(results)) < 64 * 1024


def test_sweep_with_optimal_analysis(tmp_path):
    out = tmp_path / "o"
    assert run("sweep", "--config", ERLANG, "--traffic", "1:2:1",
               "--analyses", "optimal,baselines", "--out", str(out)) == 0
    header, rows = read_csv_rows(out / "sweep_utility.csv")
    assert header[1] == "utility_optimal"
    # the single policy is trivially optimal and beats nothing by definition
    assert float(rows[0][1]) >= float(rows[0][2]) - 1e-9


@pytest.mark.parametrize("command", [
    ["enumerate"],
    ["control", "--traffic", "2:2:1"],
    ["sweep", "--analyses", "control", "--traffic", "2:2:1"],
], ids=["enumerate", "control", "sweep"])
def test_enumerate_capacity_error(tmp_path, capsys, command):
    """Every command that enumerates a space honours --max-states: one
    error line naming the ceiling, and nothing written."""
    assert run(*command, "--config", HYBRID, "--out", str(tmp_path),
               "--max-states", "10") == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "ceiling" in err
    assert not any(tmp_path.iterdir())


def test_exhaustive_optimal_over_the_cap_is_an_error(tmp_path, capsys):
    assert run("optimal", "--config", HYBRID, "--out", str(tmp_path),
               "--method", "exhaustive") == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "above the cap" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("error", [ResidualError, SingularChainError,
                                   SingularTaggedChainError])
def test_numerical_failures_are_one_line_errors(monkeypatch, capsys, error):
    def fail(args):
        raise error("solve went wrong")

    monkeypatch.setitem(cli._COMMANDS, "validate", fail)
    assert run("validate", "--config", HYBRID) == 1
    assert capsys.readouterr().err == "error: solve went wrong\n"


def test_control_rejects_bad_scheme_text(capsys):
    assert run("control", "--config", HYBRID, "--scheme", "0.3;0.7") == 1
    assert "low,high" in capsys.readouterr().err


@pytest.mark.parametrize("scheme", ["0.3,0.7", "0.3,0.7;0.3,0.7;0.3,0.7"],
                         ids=["too-few-pairs", "too-many-pairs"])
@pytest.mark.parametrize("command", [["control"], ["sweep", "--analyses", "control"]],
                         ids=["control", "sweep"])
def test_scheme_needs_a_threshold_pair_per_system(tmp_path, capsys, command, scheme):
    """A scheme for another number of systems than the config's is a
    one-line error, not an IndexError nor rows without equilibria."""
    assert run(*command, "--config", HYBRID, "--scheme", scheme, "--traffic", "2:2:1",
               "--out", str(tmp_path / "o")) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "threshold pair per system" in err


def test_sweep_rejects_unknown_analysis(capsys):
    assert run("sweep", "--config", HYBRID, "--analyses", "nash,magic") == 1
    assert "magic" in capsys.readouterr().err


@pytest.mark.parametrize("traffic", ["nan:1:1", "1:inf:1", "-inf:1:1", "1:2:nan"])
def test_sweep_rejects_non_finite_traffic(tmp_path, capsys, traffic):
    """A NaN bound would give an empty sweep and an infinite one a loop
    that never ends; both are refused before any point is run."""
    assert run("sweep", "--config", HYBRID, f"--traffic={traffic}",
               "--out", str(tmp_path)) == 1
    assert capsys.readouterr().err == "error: --traffic needs finite A, B and STEP\n"
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("traffic", ["1:1.000000001:1e-10", "5:5:1e-12", "0:1:9.99e-10"])
def test_sweep_rejects_traffic_steps_below_the_rounding(tmp_path, capsys, traffic):
    """Points are rounded to 9 decimals, so a STEP below 1e-9 would repeat
    them; it is refused before any point is run."""
    assert run("sweep", "--config", HYBRID, f"--traffic={traffic}",
               "--out", str(tmp_path)) == 1
    assert capsys.readouterr().err == \
        "error: --traffic needs STEP >= 1e-9, the rounding of its points\n"
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("command", ["sweep", "control"])
def test_traffic_without_points_is_refused(tmp_path, capsys, command):
    """A lies within 5e-10 of B and rounds above it, so no point is left;
    both commands that take --traffic refuse it before any output is
    written, rather than run an empty sweep."""
    assert run(command, "--config", HYBRID, "--traffic=1.0000000006:1.0000000006:1",
               "--out", str(tmp_path)) == 1
    assert capsys.readouterr().err == \
        "error: --traffic gives no point: A rounds above B at 9 decimals\n"
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("traffic, points", [
    ("1:10:3", [1.0, 4.0, 7.0, 10.0]),
    ("0.1:0.3:0.1", [0.1, 0.2, 0.3]),
    ("5:5.000000001:1e-9", [5.0, 5.000000001]),
    ("0.0000000005:0.000000005:1e-9", [1e-9, 2e-9, 3e-9, 4e-9, 5e-9]),
])
def test_traffic_points_stay_within_b_without_repeats(traffic, points):
    """A sum that overshoots B by rounding error still ends on B, and no
    point lies above B or repeats the one before it."""
    assert cli._parse_traffic(traffic) == points


@pytest.mark.parametrize("argv", [
    ["nash", "--restarts", "-3", "--mode", "best_response"],
    ["optimal", "--restarts", "0", "--method", "search"],
    ["control", "--restarts", "0"],
    ["sweep", "--restarts", "0", "--traffic", "5:5:1", "--analyses", "nash"],
    ["sweep", "--jobs", "0", "--analyses", "baselines"],
    ["validate", "--jobs", "-2"],
], ids=["nash-restarts", "optimal-restarts", "control-restarts", "sweep-restarts",
        "sweep-jobs", "validate-jobs"])
def test_counts_below_one_are_refused(tmp_path, capsys, argv):
    """A restart or job count below 1 is refused on one line before any
    output is written, rather than silently run as one start or one worker:
    the job count by the CLI, the restart count by the search that takes
    its starts."""
    assert run(*argv, "--config", HYBRID, "--out", str(tmp_path)) == 1
    flag, value = next((a, b) for a, b in zip(argv, argv[1:]) if a in ("--restarts", "--jobs"))
    name = flag if flag == "--jobs" else "restarts"
    assert capsys.readouterr().err == f"error: {name} must be at least 1, got {value}\n"
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("argv", [
    ["nash"],
    ["optimal"],
    ["sweep", "--traffic", "2:2:1"],
    ["control", "--traffic", "2:2:1"],
    ["simulate", "--events", "1000"],
], ids=lambda argv: argv[0])
def test_negative_seed_is_refused(tmp_path, capsys, argv):
    """Every command that draws from a seeded generator refuses a negative
    --seed on one line before writing anything, instead of ending in
    numpy's ValueError."""
    assert run(*argv, "--config", HYBRID, "--seed", "-1", "--out", str(tmp_path)) == 1
    assert capsys.readouterr().err == "error: --seed must be at least 0, got -1\n"
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("argv, floor", [
    (["nash", "--cap", "-1"], 0),
    (["optimal", "--method", "exhaustive", "--cap", "-1"], 0),
    (["enumerate", "--max-states", "-1"], 1),
    (["steady", "--max-states", "0"], 1),
], ids=["nash-cap", "optimal-cap", "enumerate-max-states", "steady-max-states"])
def test_cap_and_state_ceiling_below_their_floor_are_refused(tmp_path, capsys, argv, floor):
    """A --cap below 0 or a --max-states below 1 is refused on one line,
    naming the option, before any output is written, rather than run as a
    cap no space fits or a ceiling no space stays under."""
    assert run(*argv, "--config", HYBRID, "--out", str(tmp_path)) == 1
    flag, value = argv[-2:]
    assert capsys.readouterr().err == f"error: {flag} must be at least {floor}, got {value}\n"
    assert not any(tmp_path.iterdir())


def _assert_same_artifacts(a, b):
    names = sorted(path.name for path in a.iterdir())
    assert names == sorted(path.name for path in b.iterdir())
    for name in names:
        assert (a / name).read_bytes() == (b / name).read_bytes(), name


def test_sweep_parallel_jobs_match_serial(tmp_path):
    """Every sweep artifact, each analysis and chart included, keeps the
    bytes of a serial run when the traffic points go to worker processes."""
    serial = tmp_path / "serial"
    parallel = tmp_path / "parallel"
    for out, jobs in ((serial, "1"), (parallel, "2")):
        assert run("sweep", "--config", HYBRID, "--traffic", "2:3:1",
                   "--analyses", "nash,optimal,baselines,control",
                   "--restarts", "12", "--svg", "--jobs", jobs,
                   "--out", str(out)) == 0
    _assert_same_artifacts(serial, parallel)


def test_control_parallel_jobs_match_serial(tmp_path):
    """control spreads its traffic points over --jobs workers, and its
    artifacts keep the bytes of a serial run."""
    serial = tmp_path / "serial"
    parallel = tmp_path / "parallel"
    for out, jobs in ((serial, "1"), (parallel, "2")):
        assert run("control", "--config", HYBRID, "--traffic", "2:3:1",
                   "--jobs", jobs, "--out", str(out)) == 0
    _assert_same_artifacts(serial, parallel)


@pytest.mark.filterwarnings("ignore::UserWarning")
def test_simulate_output(tmp_path):
    out = tmp_path / "o"
    assert run("simulate", "--config", ERLANG, "--rule", "policy",
               "--policy", "0,0,0", "--events", "80000", "--seed", "7",
               "--out", str(out)) == 0
    header, rows = read_csv_rows(out / "simulation.csv")
    blocking = [r for r in rows if r[0] == "blocking"][0]
    assert float(blocking[3]) == pytest.approx(0.2, abs=0.02)
    text = (out / "simulation.csv").read_text()
    assert '"seed": 7' in text


@pytest.mark.parametrize("flag, value, message", [
    ("--events", "0", "num_events must be positive"),
    ("--batches", "5", "at least 20 batches"),
], ids=["events", "batches"])
def test_simulate_rejects_bad_run_lengths(tmp_path, capsys, flag, value, message):
    assert run("simulate", "--config", ERLANG, "--rule", "policy", "--policy", "0,0,0",
               flag, value, "--out", str(tmp_path)) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err and err.count("\n") == 1


def test_sharing_override_changes_the_space(tmp_path, capsys):
    assert run("validate", "--config", HYBRID) == 0
    per_system = capsys.readouterr().out
    assert run("validate", "--config", HYBRID, "--sharing", "network") == 0
    network = capsys.readouterr().out
    assert per_system != network
    assert "119 feasible states" in per_system


def test_validate_rejects_an_infinite_peak_rate(tmp_path, capsys):
    """An Infinity peak rate makes every state feasible; it is refused as a
    config error before enumeration runs into --max-states."""
    parsed = json.loads((CONFIG_DIR / "hybrid_example.json").read_text())
    parsed["classes"][0]["peak_rates"][0] = float("inf")
    bad = tmp_path / "inf.json"
    bad.write_text(json.dumps(parsed))
    assert "Infinity" in bad.read_text()
    assert run("validate", "--config", str(bad), "--max-states", "1000") == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "finite" in err


def _set(path, value):
    """A mutation of the shipped instance: the entry at `path` becomes `value`."""
    def mutate(doc):
        *parents, last = path
        for key in parents:
            doc = doc[key]
        doc[last] = value
    return mutate


# config mutations that a user could write; each must end in a result or one
# error line, never a traceback
_MUTATIONS = {
    "zero_rate": _set(("classes", 0, "arrival_rate"), 0.0),
    "negative_rate": _set(("classes", 0, "arrival_rate"), -1.0),
    "nan_rate": _set(("classes", 0, "arrival_rate"), float("nan")),
    "huge_rate": _set(("classes", 0, "arrival_rate"), 1e300),
    "string_rate": _set(("classes", 0, "arrival_rate"), "1.0"),
    "null_rate": _set(("classes", 0, "arrival_rate"), None),
    "reversed_thresholds": _set(("systems", 0, "thresholds"), [0.7, 0.3]),
    "short_thresholds": _set(("systems", 0, "thresholds"), [0.3]),
    "empty_thresholds": _set(("systems", 0, "thresholds"), []),
    "no_classes": _set(("classes",), []),
    "rising_gain": _set(("scheduler_gain",), [1.0, 1.5]),
    "t_max_below_t_min": _set(("t_max",), 0.5),
    "bad_scope": _set(("sharing_scope",), "galaxy"),
    "empty_document": None,
}


@pytest.mark.filterwarnings("ignore::UserWarning")
@pytest.mark.parametrize("strict", [False, True], ids=["redirect", "strict"])
@pytest.mark.parametrize("mutation", list(_MUTATIONS))
def test_mutated_configs_end_in_a_result_or_one_error_line(tmp_path, capsys, mutation,
                                                           strict):
    text = ""
    if _MUTATIONS[mutation] is not None:
        doc = json.loads((CONFIG_DIR / "hybrid_example.json").read_text())
        _MUTATIONS[mutation](doc)
        text = json.dumps(doc)
    path = tmp_path / "mutated.json"
    path.write_text(text)
    mode = ["--strict-eq2"] if strict else []
    for command in (["validate"], ["enumerate"], ["steady"],
                    ["baseline", "--which", "peak_rate"], ["simulate", "--events", "2000"]):
        code = run(*command, "--config", str(path), "--out", str(tmp_path / "o"), *mode)
        captured = capsys.readouterr()
        lines = (captured.out + captured.err).splitlines()
        assert code in (0, 1), command
        assert sum(line.startswith("error:") for line in lines) <= 1, command
        assert not any("Traceback" in line for line in lines), command


@pytest.mark.parametrize("command", [name for name, _, _ in cli._SUBCOMMANDS])
def test_help_is_the_same_filled_alone_or_with_every_command(capsys, command):
    """main gives only the invoked subcommand its arguments; no help text
    may depend on that."""
    texts = []
    for commands in ((command,), None):
        for argv in ([command, "--help"], ["--help"]):
            with pytest.raises(SystemExit):
                cli.build_parser(commands).parse_args(argv)
            texts.append(capsys.readouterr().out)
    assert texts[:2] == texts[2:]
    assert f"usage: hetassoc {command}" in texts[0]


def test_entry_point_runs():
    proc = subprocess.run([sys.executable, "-m", "hetassoc.cli", "--version"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "hetassoc" in proc.stdout


IMPORT_GUARD = """
import sys
import hetassoc.cli
print("scipy.stats" in sys.modules)
code = hetassoc.cli.main(["simulate", "--config", sys.argv[1],
                          "--events", "100000", "--out", sys.argv[2]])
print(code, "scipy.stats" in sys.modules)
"""


def test_cli_never_imports_scipy_stats(tmp_path):
    """scipy.stats alone costs about a second of import; neither importing
    the CLI nor a simulate run (which computes the t quantile) may load it."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(REPO_ROOT / "src"), os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", IMPORT_GUARD, ERLANG,
                           str(tmp_path / "out")],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    after_import, after_run = lines[0], lines[-1]
    assert after_import == "False"
    assert after_run == "0 False"
    assert (tmp_path / "out" / "simulation.csv").exists()


POOL_GUARD = """
import sys
import hetassoc.cli
print("concurrent.futures.process" in sys.modules)
code = hetassoc.cli.main(["sweep", "--config", sys.argv[1], "--traffic", "1:2:1",
                          "--analyses", "baselines", "--jobs", "1", "--out", sys.argv[2]])
print(code, "concurrent.futures.process" in sys.modules)
"""


def test_cli_never_imports_the_process_pool(tmp_path):
    """Loading the process pool costs milliseconds of every start; neither
    importing the CLI nor a --jobs 1 sweep may load it (--jobs 2 is
    test_sweep_parallel_jobs_match_serial's)."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(REPO_ROOT / "src"), os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", POOL_GUARD, HYBRID, str(tmp_path / "out")],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == "False"
    assert lines[-1] == "0 False"
    assert (tmp_path / "out" / "sweep.json").exists()


def test_main_leaves_the_collector_unfrozen(tmp_path):
    """main() freezes the objects alive at its start only while a command
    runs, also when the command fails."""
    assert gc.get_freeze_count() == 0
    assert run("validate", "--config", ERLANG) == 0
    assert run("validate", "--config", str(tmp_path / "missing.json")) == 1
    assert gc.get_freeze_count() == 0


def test_sweep_deterministic(tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    for out in (a, b):
        assert run("sweep", "--config", HYBRID, "--traffic", "2:2:1",
                   "--analyses", "nash", "--restarts", "12", "--seed", "3",
                   "--out", str(out)) == 0
    assert (a / "sweep_utility.csv").read_bytes() == (b / "sweep_utility.csv").read_bytes()
    assert (a / "sweep.json").read_bytes() == (b / "sweep.json").read_bytes()


@pytest.mark.parametrize("flags, golden", [
    ((), "sweep_golden.json"),
    (("--strict-eq2",), "sweep_golden_strict.json"),
    (("--sharing", "network"), "sweep_golden_network.json"),
    # a later --analyses replaces the default one
    (("--analyses", "optimal"), "sweep_golden_optimal.json"),
    (("--analyses", "nash,optimal,baselines,control"), "sweep_golden_all.json"),
    (("--analyses", "nash,optimal,baselines,control", "--strict-eq2"),
     "sweep_golden_all_strict.json"),
])
def test_sweep_matches_golden_artifact(tmp_path, flags, golden):
    """The paper's sweep, best-response search included, reproduces a
    recorded sweep.json byte for byte; so does the optimal policy's sweep,
    which runs coordinate ascent at every point."""
    assert run("sweep", "--config", HYBRID, "--traffic", "1:10:3",
               "--analyses", "nash,baselines", "--jobs", "1", *flags,
               "--out", str(tmp_path)) == 0
    assert (tmp_path / "sweep.json").read_bytes() == \
        (DATA_DIR / golden).read_bytes()


@pytest.mark.parametrize("flags, golden", [
    (("--rule", "instant", "--strict-eq2"), "instant_strict"),
    (("--rule", "peak", "--sharing", "network"), "peak_network"),
])
def test_steady_matches_golden_artifact(tmp_path, flags, golden):
    """steady --export-q reproduces a recorded stationary vector and
    generator listing byte for byte."""
    assert run("steady", "--config", HYBRID, *flags, "--export-q",
               "--out", str(tmp_path)) == 0
    assert (tmp_path / "steady.csv").read_bytes() == \
        (DATA_DIR / f"steady_golden_{golden}.csv").read_bytes()
    assert (tmp_path / "generator.txt").read_bytes() == \
        (DATA_DIR / f"generator_golden_{golden}.txt").read_bytes()


@pytest.mark.parametrize("flags, golden", [
    (("--rule", "instant", "--strict-eq2"), "instant_strict"),
    (("--rule", "peak", "--sharing", "network"), "peak_network"),
])
def test_utility_matches_golden_artifact(tmp_path, flags, golden):
    """utility reproduces a recorded volume table byte for byte."""
    assert run("utility", "--config", HYBRID, *flags, "--out", str(tmp_path)) == 0
    assert (tmp_path / "utility.csv").read_bytes() == \
        (DATA_DIR / f"utility_golden_{golden}.csv").read_bytes()


@pytest.mark.parametrize("which", ["peak_rate", "instantaneous_rate"])
def test_baseline_matches_golden_artifact(tmp_path, which):
    """baseline reproduces a recorded report byte for byte."""
    assert run("baseline", "--config", HYBRID, "--which", which,
               "--out", str(tmp_path)) == 0
    assert (tmp_path / f"baseline_{which}.csv").read_bytes() == \
        (DATA_DIR / f"baseline_golden_{which}.csv").read_bytes()


@pytest.mark.parametrize("flags, golden", [
    ((), "hybrid"),
    (("--sharing", "network"), "hybrid_network"),
])
def test_enumerate_matches_golden_artifact(tmp_path, flags, golden):
    """enumerate reproduces a recorded state table byte for byte."""
    assert run("enumerate", "--config", HYBRID, *flags, "--out", str(tmp_path)) == 0
    assert (tmp_path / "states.csv").read_bytes() == \
        (DATA_DIR / f"enumerate_golden_{golden}.csv").read_bytes()


def test_control_matches_golden_artifact(tmp_path):
    """control over three traffic points and two schemes reproduces a
    recorded control.csv and control.json byte for byte."""
    assert run("control", "--config", HYBRID, "--traffic", "2:4:1",
               "--scheme", "0.3,0.7;0.3,0.7", "--scheme", "0,0;0,0",
               "--restarts", "12", "--out", str(tmp_path)) == 0
    for name in ("control.csv", "control.json"):
        assert (tmp_path / name).read_bytes() == \
            (DATA_DIR / f"control_golden{name[7:]}").read_bytes(), name


@pytest.mark.parametrize("argv, artifact", [
    (("nash", "--mode", "exhaustive"), "nash"),
    (("optimal", "--method", "exhaustive"), "optimal"),
    (("optimal", "--method", "search", "--restarts", "8", "--seed", "3"), "optimal"),
])
def test_exhaustive_scan_matches_golden_artifact(tmp_path, argv, artifact):
    """Both exhaustive scans over every fibre, and coordinate ascent on the
    shipped instance, reproduce a recorded artifact byte for byte."""
    out = tmp_path / "out"
    mode = argv[2]
    instance = tmp_path / "instance.json"
    instance.write_text(json.dumps(nash_exhaustive_doc()))
    config = str(instance) if mode == "exhaustive" else HYBRID
    assert run(*argv, "--config", config, "--out", str(out)) == 0
    assert (out / f"{artifact}.json").read_bytes() == \
        (DATA_DIR / f"{artifact}_golden_{mode}.json").read_bytes()


@pytest.mark.filterwarnings("ignore::UserWarning")
@pytest.mark.parametrize("strict", [False, True], ids=["redirect", "strict"])
def test_every_artifact_records_strict_arrivals(tmp_path, strict):
    """Every CSV and JSON artifact says when it was made under strict
    arrivals: steady, utility and simulate record the mode either way, and
    nash, optimal, baseline, control and sweep record "strict_eq2": true
    only when it is set, so their redirect artifacts keep their bytes."""
    mode = ["--strict-eq2"] if strict else []
    commands = {
        "steady": ["--rule", "peak"], "utility": ["--rule", "peak"],
        "simulate": ["--rule", "peak", "--events", "2000"],
        "nash": [], "optimal": [], "baseline": ["--which", "peak_rate"],
        "control": ["--scheme", "0.3,0.7"],
        "sweep": ["--traffic", "1:1:1", "--analyses", "nash,optimal,baselines,control",
                  "--scheme", "0.3,0.7"],
    }
    for command, argv in commands.items():
        out = tmp_path / command
        assert run(command, "--config", ERLANG, *argv, *mode, "--out", str(out)) == 0
        always = command in ("steady", "utility", "simulate")
        for path in sorted(out.iterdir()):
            if path.suffix == ".json":
                params = json.loads(path.read_text())["params"]
            elif path.suffix == ".csv":
                line = next(line for line in path.read_text().splitlines()
                            if line.startswith("# params: "))
                params = json.loads(line[len("# params: "):])
            else:
                continue
            if strict or always:
                assert params["strict_eq2"] is strict, path.name
            else:
                assert "strict_eq2" not in params, path.name
