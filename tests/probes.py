"""Informational probes of hetassoc's layers; none of them gates. The
chain: structure_build, lone_memory (peak memory against the lone buffer,
at 3,600 and 11,592 states), chunked_evaluation (tagged LUs and bands
against block solves). The Nash search: best_response, coordinate_ascent,
sweep (policies per _evaluate_chunk, Policy objects built, equilibria
against fibres). The broadcast thresholds: threshold_control. Also
package_size (lines, public names, defaulted parameters, settable CLI
options per subcommand) and simulator (events per second, Erlang-B
coverage of its 99 % interval).
test_probes.py runs each probe on small inputs, lone_memory at 3,600
states only, and requires every count it returns to be positive.

`PYTHONPATH=src:tests python tests/probes.py [NAME ...]` runs the named
probes, or all; one that raises prints its traceback, and the others run.
"""

import collections
import contextlib
import inspect
import io
import json
import random
import sys
import tempfile
import time
import traceback
from unittest import mock

from hetassoc import (NetworkConfig, Policy, PolicyGameSolver, PolicyRule, cli, ctmc,
                      enumerate_states, load_instance, optimize_thresholds, simulate,
                      threshold_lattice, transient)

from conftest import (LARGE_PEAK_RATES, REPO_ROOT, erlang_loss_chain, hybrid_doc, instance_of,
                      lone_evaluation_growth, nash_exhaustive_doc, public_names,
                      subcommand_options)
from test_simulate import COVERAGE_EVENTS, COVERAGE_SEEDS, erlang_blocking_runs

sys.path.append(str(REPO_ROOT / "perfbench"))
from workloads import Simulate, draw_policy  # noqa: E402


@contextlib.contextmanager
def calls(owner, name):
    """The arguments of every call of owner.name while the block runs; the
    attribute is restored on exit."""
    log, original = [], getattr(owner, name)

    def spy(*args):
        log.append(args)
        return original(*args)
    with mock.patch.object(owner, name, spy):
        yield log


def report_chunks(chunks) -> int:
    sizes = [len(args[-1]) for args in chunks]
    print(f"{len(sizes)} _evaluate_chunk calls for {sum(sizes)} policies; "
          f"sizes {sorted(collections.Counter(sizes).items())}")
    return sum(sizes)


@contextlib.contextmanager
def timing(walls):
    """Append the block's wall time in seconds to walls."""
    start = time.perf_counter()
    yield
    walls.append(time.perf_counter() - start)


def spread(walls):
    walls = sorted(walls)
    return walls[0], walls[len(walls) // 2], walls[-1]


def package_size():
    lines = sum(py.read_text().count("\n") for py in (REPO_ROOT / "src" / "hetassoc").rglob("*.py"))
    public = list(public_names().values())
    settable = 0
    for value in filter(callable, public):
        try:
            parameters = inspect.signature(value).parameters.values()
        except (TypeError, ValueError):
            continue
        settable += sum(p.default is not p.empty for p in parameters)
    options = {name: len(flags) for name, flags in subcommand_options(cli.build_parser()).items()}
    print(f"{lines} .py lines under src/hetassoc\n{len(public)} public names in hetassoc\n"
          f"{settable} settable parameters (with defaults) over hetassoc's public callables\n"
          f"{sum(options.values())} settable CLI options: "
          + ", ".join(f"{name} {count}" for name, count in options.items()))
    return lines, len(public), settable, *options.values()


def structure_build(classes=3):
    config = NetworkConfig(peak_rate=LARGE_PEAK_RATES[:classes],
                           t_min=1.0, t_max=2.0, arrival_rate=(1.0,) * classes, service_rate=1.0)
    t0 = time.perf_counter()
    space = enumerate_states(config)
    t1 = time.perf_counter()
    tables = ctmc.ChainTables(space)
    t2 = time.perf_counter()
    tables.solve_plan
    t3 = time.perf_counter()
    print(f"{space.num_states} states: enumeration {t1 - t0:.3f} s, "
          f"ChainTables {t2 - t1:.3f} s, SolvePlan {t3 - t2:.3f} s")
    return space.num_states,


def lone_memory(large=True):
    counts = []
    for peak_rates in ((), LARGE_PEAK_RATES)[:1 + large]:
        m = lone_evaluation_growth(peak_rates)
        print(f"evaluate_policy on a {m['states']}-state sparse-eval instance: "
              f"ru_maxrss grew {m['growth'] / 2**20:.1f} MiB, {m['growth'] / m['buffer']:.2f} "
              f"times the {m['buffer'] / 2**20:.1f} MiB buffer a lone generator is solved in")
        counts += [m["states"], m["buffer"]]
    return counts


def chunked_evaluation(repeats=5, fibres=None):
    space, scheme = instance_of(nash_exhaustive_doc())
    every = list(PolicyGameSolver(space, scheme).representatives())[:fibres]
    counts = []
    for name, budget in (("chunks of one", 1), ("default budget", ctmc.CHUNK_BYTES)):
        walls = []
        with mock.patch.object(ctmc, "CHUNK_BYTES", budget):
            for _ in range(repeats):
                solver = PolicyGameSolver(space, scheme)
                # tagged LUs and bands gathered against tagged blocks solved
                with (calls(transient, "_solve_tagged") as lus,
                      calls(transient, "_tagged_matrix") as gathers,
                      calls(transient, "_solve_group") as groups, timing(walls)):
                    solver.evaluate_many(every)
        low, mid, high = (wall / len(every) * 1e6 for wall in spread(walls))
        # a _solve_group call solves each of its blocks for each of its generators
        counts += [len(lus), sum(len(args[0]) for args in gathers),
                   sum(len(args[1]) * len(args[2].blocks) for args in groups)]
        print(f"{name}, {solver.chunk} per chunk: {low:.0f} / {mid:.0f} / {high:.0f} us "
              f"per evaluation (min / median / max of {repeats} passes over {len(every)} "
              f"fibres); {counts[-3]} tagged LU calls and {counts[-2]} tagged bands gathered "
              f"for {counts[-1]} tagged block solves per pass")
    return counts


def best_response(repeats=5, restarts=64):
    space, scheme = instance_of(hybrid_doc(5.0))
    walls = []
    for _ in range(repeats):
        solver = PolicyGameSolver(space, scheme)
        with (calls(solver, "_evaluate_chunk") as chunks, calls(Policy, "__post_init__") as built,
              calls(transient, "_solve_tagged") as lus, calls(transient, "_solve_group") as groups,
              timing(walls)):
            found = solver.find_nash("best_response", restarts=restarts, seed=0)
    members = sum(fibre.count for fibre in found)
    blocks = sum(len(args[1]) * len(args[2].blocks) for args in groups)
    print(f"find_nash best_response at 5 Erlangs: {spread(walls)[1] * 1e3:.1f} ms "
          f"(median of {repeats}), {members} equilibria in {len(found)} fibres")
    policies = report_chunks(chunks)
    print(f"{len(built)} Policy objects built for {len(found)} reported equilibrium fibres\n"
          f"{len(lus)} tagged LU calls for {blocks} tagged block solves (search and fresh checker)")
    return members, len(found), policies, len(built), len(lus), blocks


def coordinate_ascent(repeats=5, restarts=16):
    space, scheme = instance_of(hybrid_doc(5.0))
    walls = []
    for _ in range(repeats):
        solver = PolicyGameSolver(space, scheme)
        with (calls(solver, "_evaluate_chunk") as chunks, calls(Policy, "__post_init__") as built,
              timing(walls)):
            result = solver.optimal_policy(method="search", restarts=restarts, seed=0)
    print(f"optimal_policy search at 5 Erlangs: {spread(walls)[1] * 1e3:.1f} ms "
          f"(median of {repeats}), {result.policies_evaluated} policies evaluated")
    policies = report_chunks(chunks)
    print(f"{len(built)} Policy objects built for 1 reported optimum")
    return result.policies_evaluated, policies, len(built)


def sweep(repeats=3, erlangs=10):
    argv = ["sweep", "--config", str(REPO_ROOT / "configs" / "hybrid_example.json"), "--traffic",
            f"1:{erlangs}:1", "--analyses", "nash,optimal,baselines", "--seed", "0", "--jobs", "1"]
    walls = []
    with tempfile.TemporaryDirectory() as out:
        for _ in range(repeats):
            # every policy a solver solves, fresh checkers included
            with (calls(PolicyGameSolver, "_evaluate_chunk") as chunks,
                  contextlib.redirect_stdout(io.StringIO()), timing(walls)):
                if cli.main([*argv, "--out", out]):
                    raise RuntimeError("sweep failed; its error is on stderr")
    policies = sum(len(rows) for _, rows in chunks)
    print(f"sweep --analyses nash,optimal,baselines over 1-{erlangs} Erlangs: "
          f"{spread(walls)[1]:.3f} s (median of {repeats} in-process runs), "
          f"{policies} policies passed to _evaluate_chunk per run")
    return policies,


def threshold_control(repeats=3, schemes=60):
    space, _ = instance_of(hybrid_doc(5.0))
    grid = random.Random(0).sample(threshold_lattice(2, 0.1), schemes)
    walls = []
    for _ in range(repeats):
        with timing(walls):
            result = optimize_thresholds(space, grid)
    fibres = sum(len(outcome.equilibria) for outcome in result.outcomes)
    members = sum(outcome.count for outcome in result.outcomes)
    print(f"optimize_thresholds over {schemes} step-0.1 schemes at 5 Erlangs: "
          f"{spread(walls)[1]:.2f} s (median of {repeats}); {fibres} equilibrium fibres "
          f"standing for {members} member policies")
    return fibres, members


def simulator(repeats=5, events=Simulate.events, seeds=COVERAGE_SEEDS,
              seed_events=COVERAGE_EVENTS):
    doc = hybrid_doc(5.0)
    space, scheme = instance_of(doc)
    rule = PolicyRule(Policy.from_flat(draw_policy(doc, Simulate.POLICY_DRAW),
                                       space.config.num_classes, scheme.label_count), scheme)
    walls = []
    for seed in range(repeats):
        with timing(walls):
            simulate(space.config, rule, events, seed)
    low, mid, high = (wall * 1e3 for wall in spread(walls))
    erlang, _, _, erlang_rule = erlang_loss_chain(2, 1.0)
    runs = erlang_blocking_runs(erlang, erlang_rule, seeds, seed_events)
    covered = int((abs(runs[:, 0] - 0.2) <= runs[:, 1]).sum())
    print(f"simulate: {low:.1f} / {mid:.1f} / {high:.1f} ms (min / median / max of {repeats} "
          f"runs of {events} events, seeds 0-{repeats - 1}), "
          f"{events / mid / 1e3:.2f} M events/s at the median\n99% Erlang-B interval covers "
          f"0.2 in {covered} of {len(seeds)} seeds of {seed_events} events")
    return covered,


PROBES = {probe.__name__: probe for probe in (package_size, structure_build, lone_memory,
          chunked_evaluation, best_response, coordinate_ascent, sweep, threshold_control,
          simulator)}


def main(names) -> int:
    failed = []
    for name in names or PROBES:
        try:
            PROBES[name]()
        except Exception:
            # on stdout, so a traceback stays between the probes around it
            traceback.print_exc(file=sys.stdout)
            failed.append(name)
    if failed:
        print(f"failed probes: {', '.join(failed)}")
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
