"""Batch command-line interface.

Subcommands cover the whole pipeline: instance validation, state-space and
steady-state dumps, utility tables, Nash/optimal policy search, baselines,
threshold control, traffic sweeps and Monte Carlo validation. Outputs are
CSV files (plus JSON summaries and optional SVG charts) under --out, each
carrying a provenance header with the resolved instance.

Each subcommand is declared once, in `_SUBCOMMANDS`, with its handler and
only the options that handler reads: an option it would ignore is refused
as unrecognized, like any unknown flag.
"""

from __future__ import annotations

import argparse
import gc
import sys
from dataclasses import replace
from functools import partial
from pathlib import Path

import numpy as np

from . import __version__
from .aggregation import label_array
from .charts import line_chart
from .config import (NETWORK_WIDE, PER_SYSTEM, AggregationScheme, ConfigError,
                     NetworkConfig, ParseError, Policy, load_instance)
from .control import RankingMismatchError, optimize_thresholds
from .ctmc import (ResidualError, SingularChainError, build_generator,
                   solve_steady_state)
from .game import (PolicyGameSolver, SearchCapError, evaluate_baseline, evaluate_rule,
                   ordered_members)
from .output import write_csv, write_json
from .rules import InstantaneousRateRule, PeakRateRule, PolicyRule
from .simulate import REPLICAS_PER_BATCH, simulate
from .states import DEFAULT_STATE_CEILING, CapacityError, enumerate_states, state_table_rows
from .transient import SingularTaggedChainError


# (flag, add_argument keywords) of the options several subcommands take
_CONFIG = ("--config", {"required": True, "help": "instance JSON path"})
_OUT = ("--out", {"default": "out", "help": "output directory"})
_SHARING = ("--sharing", {"choices": ("network", "system"),
                          "help": "override the instance sharing scope"})
_STRICT = ("--strict-eq2", {"action": "store_true",
                            "help": "drop arrivals whose chosen system is full "
                                    "instead of redirecting them"})
_SEED = ("--seed", {"type": int, "default": 0})
_JOBS = ("--jobs", {"type": int, "default": 1, "help": "parallel workers for sweep points"})
_MAX_STATES = ("--max-states", {"type": int, "default": DEFAULT_STATE_CEILING})
_RESTARTS = ("--restarts", {"type": int, "default": 64})
_RULE = (("--rule", {"choices": ("policy", "peak", "instant"), "default": "peak"}),
         ("--policy", {"help": "flattened class-major policy entries, for "
                               "example 0,1,1,0,... (required with --rule policy, "
                               "refused with any other rule)"}))


def _load(args) -> tuple[NetworkConfig, AggregationScheme]:
    try:
        text = Path(args.config).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{args.config} is not UTF-8 text: {exc}") from exc
    config, scheme = load_instance(text)
    if args.sharing:
        config = config.with_sharing_scope(
            NETWORK_WIDE if args.sharing == "network" else PER_SYSTEM)
    # validate and enumerate take no arrival mode: their space does not depend on it
    return replace(config, strict_arrivals=getattr(args, "strict_eq2", False)), scheme


def _make_rule(args, config, scheme):
    if args.rule != "policy" and args.policy:
        raise ConfigError(f"--policy needs --rule policy; --rule {args.rule} takes no policy")
    if args.rule == "peak":
        return PeakRateRule()
    if args.rule == "instant":
        return InstantaneousRateRule()
    if not args.policy:
        raise ConfigError("--rule policy requires --policy")
    try:
        flat = [int(x) for x in args.policy.split(",")]
    except ValueError as exc:
        raise ConfigError("--policy must be a comma list of system indices") from exc
    policy = Policy.from_flat(flat, config.num_classes, scheme.label_count)
    policy.validate_for(config, scheme)
    return PolicyRule(policy, scheme)


def _parse_traffic(text: str) -> list[float]:
    """The points A, A + STEP, ... of A:B:STEP, each rounded to 9 decimals,
    up to B. A point that rounds above B, or onto the point before it, is
    dropped; a STEP below 1e-9 would collapse points in the rounding and
    is refused, as is a string that leaves no point (A within 5e-10 below
    B rounds above it)."""
    try:
        a, b, step = (float(x) for x in text.split(":"))
    except ValueError as exc:
        raise ConfigError("--traffic must look like A:B:STEP") from exc
    if not np.isfinite([a, b, step]).all():
        raise ConfigError("--traffic needs finite A, B and STEP")
    if step <= 0 or b < a:
        raise ConfigError("--traffic needs A <= B and STEP > 0")
    if step < 1e-9:
        raise ConfigError("--traffic needs STEP >= 1e-9, the rounding of its points")
    points = []
    value = a
    while (point := round(value, 9)) <= b:
        if not points or point != points[-1]:
            points.append(point)
        value += step
    if not points:
        raise ConfigError("--traffic gives no point: A rounds above B at 9 decimals")
    return points


def _parse_scheme(text: str) -> AggregationScheme:
    try:
        pairs = []
        for part in text.split(";"):
            lo, hi = (float(x) for x in part.split(","))
            pairs.append((lo, hi))
    except ValueError as exc:
        raise ConfigError("--scheme must look like low,high;low,high") from exc
    return AggregationScheme(tuple(pairs))


def _strict_param(args) -> dict:
    """The arrival mode's params entry for nash, optimal, baseline, control
    and sweep: present only under --strict-eq2, so a redirect artifact
    carries no mode field."""
    return {"strict_eq2": True} if args.strict_eq2 else {}


# ----- subcommand bodies ----------------------------------------------


def _cmd_validate(args) -> int:
    config, scheme = _load(args)
    space = enumerate_states(config, max_states=args.max_states)
    print(f"ok: {config.num_classes} classes, {config.num_systems} systems, "
          f"{space.num_states} feasible states, {scheme.label_count} labels")
    return 0


def _pair_columns(prefix: str, config: NetworkConfig) -> list[str]:
    """One column per (class, system) pair, in occupancy order: system-major."""
    return [f"{prefix}_{config.class_name(n)}_{config.system_name(s)}"
            for s in range(config.num_systems) for n in range(config.num_classes)]


def _cmd_enumerate(args) -> int:
    config, scheme = _load(args)
    space = enumerate_states(config, max_states=args.max_states)
    header = ["id", *_pair_columns("occ", config), *_pair_columns("thr", config)]
    path = write_csv(Path(args.out) / "states.csv", header,
                     state_table_rows(space), config, scheme)
    print(f"wrote {path} ({space.num_states} states)")
    return 0


def _cmd_steady(args) -> int:
    config, scheme = _load(args)
    space = enumerate_states(config, max_states=args.max_states)
    rule = _make_rule(args, config, scheme)
    gen = build_generator(space, rule)
    ss = solve_steady_state(gen)
    labels = label_array(scheme, space)
    rows = ([i, *occ, f"{ss.pi[i]:.17g}", labels[i]]
            for i, occ in enumerate(space.occ.tolist()))
    header = ["id", *_pair_columns("occ", config), "probability", "label"]
    params = {"rule": rule.describe(), "strict_eq2": args.strict_eq2}
    path = write_csv(Path(args.out) / "steady.csv", header, rows, config, scheme, params)
    print(f"wrote {path} (residual {ss.residual:.2e})")
    if args.export_q:
        qpath = Path(args.out) / "generator.txt"
        with open(qpath, "w") as fh:
            for r, c, v in gen.coo_triplets():
                fh.write(f"{r} {c} {v:.17g}\n")
        print(f"wrote {qpath}")
    return 0


def _cmd_utility(args) -> int:
    config, scheme = _load(args)
    space = enumerate_states(config, max_states=args.max_states)
    rule = _make_rule(args, config, scheme)
    volumes = evaluate_rule(space, rule).volumes

    def rows():
        for n in range(config.num_classes):
            for s in range(config.num_systems):
                vol = volumes[n, s]
                for i in np.nonzero(~np.isnan(vol))[0]:
                    yield [int(i), n, s, f"{vol[i]:.17g}"]

    params = {"rule": rule.describe(), "strict_eq2": args.strict_eq2}
    path = write_csv(Path(args.out) / "utility.csv",
                     ["state_id", "class", "system", "expected_megabits"],
                     rows(), config, scheme, params)
    print(f"wrote {path}")
    return 0


def _policy_header(config, scheme):
    from .aggregation import label_name
    return (["policy", "global_utility", "blocking"]
            + [f"choice_{config.class_name(n)}_{label_name(scheme, l)}"
               for n in range(config.num_classes)
               for l in range(scheme.label_count)])


def _policy_rows(config, members):
    """CSV rows of (flat row, evaluation) pairs."""
    for row, ev in members:
        yield ([",".join(map(str, row)),
                f"{ev.global_utility:.12g}", f"{ev.overall_blocking:.12g}"]
               + [config.system_name(s) for s in row])


def _cmd_nash(args) -> int:
    config, scheme = _load(args)
    space = enumerate_states(config, max_states=args.max_states)
    solver = PolicyGameSolver(space, scheme)
    result = solver.find_nash(args.mode, restarts=args.restarts, seed=args.seed,
                              auto_cap=args.cap)
    params = {"mode": args.mode, "restarts": args.restarts, "seed": args.seed,
              **_strict_param(args)}
    L = scheme.label_count
    # every member, in increasing order, merged from the fibres
    payload = {
        "equilibria": [
            {"policy": [list(row[at:at + L]) for at in range(0, len(row), L)],
             "global_utility": fibre.global_utility,
             "overall_blocking": fibre.overall_blocking}
            for row, fibre in ordered_members(result)
        ],
    }
    path = write_json(Path(args.out) / "nash.json", payload, config, scheme, params)
    write_csv(Path(args.out) / "nash.csv", _policy_header(config, scheme),
              _policy_rows(config, ((row, fibre.evaluation)
                                    for row, fibre in ordered_members(result))),
              config, scheme, params)
    if result:
        print(f"found {sum(fibre.count for fibre in result)} equilibrium policies; "
              f"wrote {path}")
    else:
        print("no pure equilibrium found")
    return 0


def _cmd_optimal(args) -> int:
    config, scheme = _load(args)
    space = enumerate_states(config, max_states=args.max_states)
    solver = PolicyGameSolver(space, scheme)
    result = solver.optimal_policy(method=args.method, cap=args.cap,
                                   restarts=args.restarts, seed=args.seed)
    params = {"method": result.method, "cap": args.cap, **_strict_param(args)}
    payload = {
        "policy": [list(row) for row in result.policy.choice],
        "global_utility": result.evaluation.global_utility,
        "overall_blocking": result.evaluation.overall_blocking,
        "ties": [[list(row) for row in p.choice] for p in result.ties],
        "policies_evaluated": result.policies_evaluated,
    }
    path = write_json(Path(args.out) / "optimal.json", payload, config, scheme, params)
    write_csv(Path(args.out) / "optimal.csv", _policy_header(config, scheme),
              _policy_rows(config, [(result.policy.flatten(), result.evaluation)]),
              config, scheme, params)
    print(f"optimal utility {result.evaluation.global_utility:.6g} "
          f"({result.method}, {result.policies_evaluated} policies); wrote {path}")
    return 0


def _cmd_baseline(args) -> int:
    config, scheme = _load(args)
    space = enumerate_states(config, max_states=args.max_states)
    report = evaluate_baseline(space, args.which)
    params = {"which": args.which, **_strict_param(args)}
    rows = [[args.which, f"{report.global_utility:.12g}",
             f"{report.overall_blocking:.12g}"]
            + [f"{b:.12g}" for b in report.per_class_blocking]]
    header = ["baseline", "global_utility", "blocking"] + \
        [f"blocking_{config.class_name(n)}" for n in range(config.num_classes)]
    path = write_csv(Path(args.out) / f"baseline_{args.which}.csv", header, rows,
                     config, scheme, params)
    print(f"{args.which}: U={report.global_utility:.6g} "
          f"b={report.overall_blocking:.6g}; wrote {path}")
    return 0


_DEFAULT_CONTROL_SCHEMES = ("0.3,0.7;0.3,0.7", "0.0,0.0;0.0,0.0", "0.5,0.9;0.5,0.9")
_BASELINES = ("peak_rate", "instantaneous_rate")


def _scheme_text(scheme: AggregationScheme) -> str:
    return ";".join(f"{lo},{hi}" for lo, hi in scheme.thresholds)


def _cell(value) -> str:
    """A number's CSV cell, empty for None."""
    return "" if value is None else f"{value:.12g}"


def _sweep_point(config: NetworkConfig, scheme: AggregationScheme, erlangs: float, *,
                 analyses, grid: list[AggregationScheme], selection: str,
                 restarts: int, seed: int, max_states: int) -> dict:
    """The library's results at one traffic point, by analysis: "nash"
    (the equilibria), "optimal" (the OptimalResult), one entry per
    baseline, and "control" (the ControlResult over grid).

    The arrival rates are scaled, in their configured proportions, to offer
    `erlangs` in all, and the space is enumerated once, under the
    max_states ceiling; nash and optimal share one solver, and the
    baselines and the threshold search run on the same space. The
    threshold search runs first: where scheme is in its grid, the
    equilibria it found for scheme are nash's, as the same search on the
    same space finds them. Arguments and results pickle, so a worker
    process can run a point.
    """
    space = enumerate_states(config.scale_traffic(erlangs / config.offered_erlangs),
                             max_states=max_states)
    out: dict = {}
    if "control" in analyses:
        out["control"] = optimize_thresholds(space, grid, selection_rule=selection,
                                             restarts=restarts, seed=seed)
        if "nash" in analyses and scheme in grid:
            out["nash"] = out["control"].outcomes[grid.index(scheme)].equilibria
    if "nash" in analyses or "optimal" in analyses:
        solver = PolicyGameSolver(space, scheme)
    if "nash" in analyses and "nash" not in out:
        out["nash"] = solver.find_nash("auto", restarts=restarts, seed=seed)
    if "optimal" in analyses:
        out["optimal"] = solver.optimal_policy(method="auto", seed=seed)
    if "baselines" in analyses:
        for which in _BASELINES:
            out[which] = evaluate_baseline(space, which)
    return out


def _run_points(args, config, scheme, traffic, analyses, grid, selection="max_utility"):
    """Yield _sweep_point's results at every traffic point, in order, run
    in --jobs processes, but no more processes than points: the pool starts
    every worker at its first task. A serial run yields each point before
    it solves the next, so one point's results are alive at a time."""
    point = partial(_sweep_point, config, scheme, analyses=analyses, grid=grid,
                    selection=selection, restarts=args.restarts, seed=args.seed,
                    max_states=args.max_states)
    jobs = min(args.jobs, len(traffic))
    if jobs == 1:
        yield from map(point, traffic)
        return
    # imported here: loading the process pool adds milliseconds to every
    # start, and only a parallel run uses it
    from concurrent.futures import ProcessPoolExecutor
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        yield from pool.map(point, traffic)


def _cmd_control(args) -> int:
    config, scheme = _load(args)
    scheme_texts = args.scheme or list(_DEFAULT_CONTROL_SCHEMES)
    grid = [_parse_scheme(text) for text in scheme_texts]
    traffic = _parse_traffic(args.traffic) if args.traffic else [config.offered_erlangs]
    rows = []
    summary = []
    for erl, results in zip(traffic, _run_points(args, config, scheme, traffic,
                                                 ("control",), grid, args.selection)):
        result = results["control"]
        for i, outcome in enumerate(result.outcomes):
            rows.append([erl, _scheme_text(outcome.scheme), _cell(outcome.blocking),
                         _cell(outcome.utility), _cell(outcome.worst_blocking),
                         outcome.count, "best" if i == result.best_index else "",
                         outcome.note])
        best = result.best
        summary.append({
            "erlangs": erl,
            "best_thresholds": None if best is None else
                [list(pair) for pair in best.scheme.thresholds],
            "blocking": None if best is None else best.blocking,
            "utility": None if best is None else best.utility,
        })
    params = {"selection": args.selection, "seed": args.seed,
              "schemes": scheme_texts, "traffic": traffic, **_strict_param(args)}
    path = write_csv(Path(args.out) / "control.csv",
                     ["erlangs", "thresholds", "blocking", "utility",
                      "worst_blocking", "equilibria", "argmin", "note"],
                     rows, config, scheme, params)
    write_json(Path(args.out) / "control.json", {"sweep": summary}, config,
               scheme, params)
    print(f"wrote {path}")
    return 0


def _sweep_record(erlangs: float, results: dict) -> dict:
    """One point of sweep.json from _sweep_point's results."""
    out: dict = {"erlangs": erlangs}
    if "nash" in results:
        equilibria = results["nash"]
        if equilibria:
            # the first fibre at the top utility holds its smallest member
            best = max(equilibria, key=lambda fibre: fibre.global_utility)
            out["nash"] = {"count": sum(fibre.count for fibre in equilibria),
                           "utility": best.global_utility,
                           "blocking": best.overall_blocking,
                           "policy": list(best.policy.flatten())}
        else:
            out["nash"] = {"count": 0, "utility": None, "blocking": None,
                           "policy": None}
    if "optimal" in results:
        result = results["optimal"]
        out["optimal"] = {"utility": result.evaluation.global_utility,
                          "blocking": result.evaluation.overall_blocking,
                          "method": result.method,
                          "policy": list(result.policy.flatten())}
    for which in _BASELINES:
        if which in results:
            out[which] = {"utility": results[which].global_utility,
                          "blocking": results[which].overall_blocking}
    if "control" in results:
        result = results["control"]
        out["control"] = [
            {"thresholds": _scheme_text(o.scheme),
             "blocking": o.blocking, "utility": o.utility,
             "equilibria": o.count,
             "argmin": i == result.best_index}
            for i, o in enumerate(result.outcomes)
        ]
    return out


def _cmd_sweep(args) -> int:
    config, scheme = _load(args)
    analyses = [a.strip() for a in args.analyses.split(",") if a.strip()]
    unknown = set(analyses) - {"nash", "optimal", "baselines", "control"}
    if unknown:
        raise ConfigError(f"unknown analyses: {sorted(unknown)}")
    if not analyses:
        raise ConfigError("at least one analysis is required")
    traffic = _parse_traffic(args.traffic)
    grid = [_parse_scheme(text) for text in args.scheme or _DEFAULT_CONTROL_SCHEMES]
    points = [_sweep_record(erl, results) for erl, results
              in zip(traffic, _run_points(args, config, scheme, traffic, analyses, grid))]

    series_names = [name for name in ("nash", "optimal") if name in analyses]
    if "baselines" in analyses:
        series_names += _BASELINES

    def rows(field):
        return [[p["erlangs"]] + [_cell((p.get(nm) or {}).get(field)) for nm in series_names]
                for p in points]

    params = {"traffic": traffic, "analyses": analyses, "seed": args.seed,
              "restarts": args.restarts, **_strict_param(args)}
    upath = write_csv(Path(args.out) / "sweep_utility.csv",
                      ["erlangs"] + [f"utility_{nm}" for nm in series_names],
                      rows("utility"), config, scheme, params)
    bpath = write_csv(Path(args.out) / "sweep_blocking.csv",
                      ["erlangs"] + [f"blocking_{nm}" for nm in series_names],
                      rows("blocking"), config, scheme, params)
    write_json(Path(args.out) / "sweep.json", {"points": points}, config, scheme,
               params)
    if "control" in analyses:
        control_rows = [[p["erlangs"], entry["thresholds"], _cell(entry["blocking"]),
                         _cell(entry["utility"]), entry["equilibria"],
                         "best" if entry["argmin"] else ""]
                        for p in points for entry in p["control"]]
        write_csv(Path(args.out) / "sweep_control.csv",
                  ["erlangs", "thresholds", "blocking", "utility",
                   "equilibria", "argmin"],
                  control_rows, config, scheme, params)
    if args.svg:
        xs = [p["erlangs"] for p in points]
        for fname, field, ylabel in (("sweep_utility.svg", "utility", "global utility (Mbit)"),
                                     ("sweep_blocking.svg", "blocking", "blocking probability")):
            series = []
            for nm in series_names:
                ys = [(p.get(nm) or {}).get(field) for p in points]
                ys = [float("nan") if y is None else y for y in ys]
                series.append((nm, xs, ys))
            if series:
                svg = line_chart(series, f"{field} vs offered traffic",
                                 "offered traffic (Erlang)", ylabel)
                (Path(args.out) / fname).write_text(svg)
        if "control" in analyses:
            series = []
            # each point lists the grid's outcomes in grid order
            for j, candidate in enumerate(grid):
                ys = [p["control"][j]["blocking"] for p in points]
                ys = [float("nan") if y is None else y for y in ys]
                series.append((_scheme_text(candidate), xs, ys))
            svg = line_chart(series, "equilibrium blocking per threshold scheme",
                             "offered traffic (Erlang)", "blocking probability")
            (Path(args.out) / "sweep_control.svg").write_text(svg)
    print(f"wrote {upath} and {bpath} ({len(points)} traffic points)")
    return 0


def _cmd_simulate(args) -> int:
    config, scheme = _load(args)
    rule = _make_rule(args, config, scheme)
    report = simulate(config, rule, args.events, args.seed,
                      num_batches=args.batches)
    params = {"rule": rule.describe(), "events": args.events, "seed": args.seed,
              "batches": args.batches, "strict_eq2": args.strict_eq2}
    rows = []
    for n in range(config.num_classes):
        est, half = report.blocking_estimate(n)
        rows.append(["blocking", config.class_name(n), "", f"{est:.8g}", f"{half:.3g}"])
    for n in range(config.num_classes):
        for s in range(config.num_systems):
            est, half, count = report.volume_estimate(n, s)
            if count:
                rows.append(["mean_volume", config.class_name(n),
                             config.system_name(s), f"{est:.8g}", f"{half:.3g}"])
    path = write_csv(Path(args.out) / "simulation.csv",
                     ["metric", "class", "system", "estimate", "ci99_half_width"],
                     rows, config, scheme, params)
    print(f"wrote {path} (measured time {report.total_time:.6g}, "
          f"summed over {report.replicas} replicas)")
    return 0


# (name, help, handler, options) in --help order: a subcommand takes only the
# options its handler reads
_SUBCOMMANDS = (
    ("validate", "check an instance document", _cmd_validate,
     (_CONFIG, _SHARING, _MAX_STATES)),
    ("enumerate", "dump the feasible state table", _cmd_enumerate,
     (_CONFIG, _OUT, _SHARING, _MAX_STATES)),
    ("steady", "steady state under one rule", _cmd_steady,
     (_CONFIG, _OUT, _SHARING, _STRICT, _MAX_STATES, *_RULE,
      ("--export-q", {"action": "store_true",
                      "help": "also write the generator as (row, col, rate) triplets"}))),
    ("utility", "tagged-user expected volumes", _cmd_utility,
     (_CONFIG, _OUT, _SHARING, _STRICT, _MAX_STATES, *_RULE)),
    ("nash", "find Nash-equilibrium policies", _cmd_nash,
     (_CONFIG, _OUT, _SHARING, _STRICT, _SEED, _MAX_STATES,
      ("--mode", {"choices": ("auto", "exhaustive", "best_response"), "default": "auto"}),
      _RESTARTS,
      ("--cap", {"type": int, "default": 4096,
                 "help": "auto mode switches to best response above this policy-space size"}))),
    ("optimal", "globally optimal policy", _cmd_optimal,
     (_CONFIG, _OUT, _SHARING, _STRICT, _SEED, _MAX_STATES,
      ("--method", {"choices": ("auto", "exhaustive", "search"), "default": "auto"}),
      ("--cap", {"type": int, "default": 65536}),
      ("--restarts", {"type": int, "default": 16}))),
    ("baseline", "evaluate an information baseline", _cmd_baseline,
     (_CONFIG, _OUT, _SHARING, _STRICT, _MAX_STATES,
      ("--which", {"choices": ("peak_rate", "instantaneous_rate"), "required": True}))),
    ("control", "optimize broadcast thresholds", _cmd_control,
     (_CONFIG, _OUT, _SHARING, _STRICT, _SEED, _JOBS, _MAX_STATES,
      ("--scheme", {"action": "append", "default": [],
                    "help": "thresholds as low,high;low,high (one per system); "
                            "repeatable; default: a small representative grid"}),
      ("--traffic", {"default": None, "help": "A:B:STEP offered-traffic sweep in Erlangs"}),
      ("--selection", {"choices": ("max_utility", "min_blocking"),
                       "default": "max_utility"}),
      _RESTARTS)),
    ("sweep", "traffic sweep over selected analyses", _cmd_sweep,
     (_CONFIG, _OUT, _SHARING, _STRICT, _SEED, _JOBS, _MAX_STATES,
      ("--traffic", {"default": "1:10:1"}),
      ("--analyses", {"default": "nash,baselines",
                      "help": "comma list from: nash, optimal, baselines, control"}),
      ("--scheme", {"action": "append", "default": [],
                    "help": "threshold grid for the control analysis "
                            "(low,high;low,high per scheme, repeatable)"}),
      _RESTARTS,
      ("--svg", {"action": "store_true", "help": "emit SVG line charts"}))),
    ("simulate", "discrete-event validation run", _cmd_simulate,
     (_CONFIG, _OUT, _SHARING, _STRICT, _SEED, *_RULE,
      ("--events", {"type": int, "default": 1_000_000,
                    "help": "events over all replicas, warm-up included"}),
      ("--batches", {"type": int, "default": 25,
                     "help": "confidence-interval batches (at least 20), each pooling "
                             f"{REPLICAS_PER_BATCH} independent replicas"}))),
)


def build_parser(commands=None) -> argparse.ArgumentParser:
    """The CLI's parser. Every subcommand is registered, so the top-level
    help and usage errors name them all, but only those in `commands`
    (every one by default) get their arguments: a call pays for its own."""
    parser = argparse.ArgumentParser(
        prog="hetassoc",
        description="Association-policy equilibria in heterogeneous networks")
    parser.add_argument("--version", action="version", version=f"hetassoc {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text, handler, options in _SUBCOMMANDS:
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(handler=handler)
        if commands is None or name in commands:
            for flag, kwargs in options:
                p.add_argument(flag, **kwargs)
    return parser


# (option, floor) pairs main checks where the subcommand takes the option.
# Below its floor, --jobs would still run one worker, numpy's generators
# refuse the --seed, --max-states refuses every instance as over the ceiling,
# and --cap has nash's auto mode run best response on any space and
# optimal's exhaustive method refuse every one.
_FLOORS = (("jobs", 1), ("seed", 0), ("max_states", 1), ("cap", 0))


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    # the top-level options take no values, so the first bare word is the command
    command = next((arg for arg in argv if not arg.startswith("-")), None)
    args = build_parser((command,)).parse_args(argv)
    # Everything alive when a command starts, mostly the tens of thousands
    # of objects the imports create, outlives it. Freezing them keeps the
    # cyclic collector from walking them in every full collection the
    # command triggers (about 20 ms each); both calls are O(1) list splices.
    gc.freeze()
    try:
        for name, floor in _FLOORS:
            value = getattr(args, name, floor)
            if value < floor:
                raise ConfigError(f"--{name.replace('_', '-')} must be at least {floor}, "
                                  f"got {value}")
        return args.handler(args)
    except (ConfigError, CapacityError, OSError, SearchCapError,
            ResidualError, SingularChainError, SingularTaggedChainError,
            RankingMismatchError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        gc.unfreeze()


if __name__ == "__main__":
    sys.exit(main())
