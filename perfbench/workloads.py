"""The four benchmark workloads: inputs, the timed call, and output checks.

Every workload calls the entry points a user calls (`hetassoc.cli.main`,
`evaluate_policy`) with inputs generated here. The run's seed picks one
key from the workload's panel; the key alone fixes the inputs, and
reference.json holds the expected outputs per key, recorded by
make_reference.py on the commit that introduced the benchmark.

This module imports no numpy or hetassoc at module level: run.py imports
it for the panels and the checks, and worker.py imports it only after
timing the package import.
"""

from __future__ import annotations

import csv
import json
import math
import os
import random

HYBRID = os.path.join("configs", "hybrid_example.json")

# ROADMAP's sparse-path instance (3 systems x 3 classes) with every peak
# rate scaled by 0.9: 3,600 states, above DENSE_SOLVE_LIMIT (2,000).
SPARSE_INSTANCE = {
    "systems": [{"name": f"sys{s}", "thresholds": [0.3, 0.7]} for s in range(3)],
    "classes": [{"name": f"class{n}", "arrival_rate": 1.0, "peak_rates": rates}
                for n, rates in enumerate([[5.4, 9.0, 7.2], [2.7, 4.5, 3.6],
                                           [1.35, 2.7, 1.8]])],
    "t_min": 1.0,
    "t_max": 2.0,
    "service_rate": 1.0,
    "sharing_scope": "per_system",
}

REL_TOL = 1e-9
ABS_TOL = 1e-15
STEADY_RESIDUAL_MAX = 1e-10
PI_SUM_TOL = 1e-12


class Context:
    """Where one iteration runs: the checkout, a scratch directory, the
    panel key and an optional instance that replaces the workload's own."""

    def __init__(self, root: str, workdir: str, key: int, config: str | None):
        self.root = root
        self.workdir = workdir
        self.key = key
        self.config = config

    def path(self, name: str) -> str:
        return os.path.join(self.workdir, name)

    def load(self, default: str | dict) -> dict:
        if self.config:
            with open(self.config) as fh:
                return json.load(fh)
        if isinstance(default, dict):
            return json.loads(json.dumps(default))
        with open(os.path.join(self.root, default)) as fh:
            return json.load(fh)

    def write_instance(self, doc: dict) -> str:
        path = self.path("instance.json")
        with open(path, "w") as fh:
            json.dump(doc, fh)
        return path


def scaled(doc: dict, erlangs: float) -> dict:
    """Scale arrival rates to `erlangs` offered, as the CLI's sweep does."""
    multiplier = erlangs / (sum(c["arrival_rate"] for c in doc["classes"])
                            / doc["service_rate"])
    for c in doc["classes"]:
        c["arrival_rate"] = c["arrival_rate"] * multiplier
    return doc


def draw_policy(doc: dict, key: int) -> list[int]:
    """Flattened class-major policy with uniform random entries."""
    rng = random.Random(key)
    labels = 3 ** len(doc["systems"])
    return [rng.randrange(len(doc["systems"]))
            for _ in range(len(doc["classes"]) * labels)]


def read_csv(path: str) -> list[list[str]]:
    with open(path, newline="") as fh:
        return list(csv.reader(line for line in fh if not line.startswith("#")))


def compare(observed, expected, where: str = "") -> list[str]:
    """Differences between observed and expected values: floats to a
    relative 1e-9, everything else exactly."""
    if isinstance(expected, dict) and isinstance(observed, dict):
        if observed.keys() != expected.keys():
            return [f"{where}: keys {sorted(observed)} != {sorted(expected)}"]
        return [e for k in expected for e in compare(observed[k], expected[k], f"{where}.{k}")]
    if isinstance(expected, list) and isinstance(observed, list):
        if len(observed) != len(expected):
            return [f"{where}: length {len(observed)} != {len(expected)}"]
        return [e for i, (o, x) in enumerate(zip(observed, expected))
                for e in compare(o, x, f"{where}[{i}]")]
    if isinstance(expected, float) and isinstance(observed, (int, float)):
        if math.isclose(observed, expected, rel_tol=REL_TOL, abs_tol=ABS_TOL):
            return []
    elif observed == expected and type(observed) is type(expected):
        return []
    return [f"{where}: {observed!r} != {expected!r}"]


class Workload:
    """One workload; BENCHMARK.json says why each was chosen."""

    name = ""
    # the panel of input keys; a run's seed picks one
    panel: tuple[int, ...] = (0,)
    # what the work units counted by items_per_s are
    item = ""

    def key(self, seed: int) -> int:
        return self.panel[seed % len(self.panel)]

    def prepare(self, ctx: Context):
        """Untimed: write input files and build the inputs of run()."""
        raise NotImplementedError

    def run(self, inputs):
        """Timed: the user-facing call; by default `hetassoc ARGS...` with
        inputs as the argument list."""
        import hetassoc.cli
        code = hetassoc.cli.main(inputs)
        if code != 0:
            raise RuntimeError(f"hetassoc {inputs[0]} exited with {code}")

    def observe(self, ctx: Context, inputs, output) -> dict:
        """Untimed: {"items": work units done, "values": outputs compared
        with reference.json, "live": outputs checked against fixed limits}."""
        raise NotImplementedError

    def check_live(self, live: dict) -> list[str]:
        return []

    def check(self, observed: dict, expected: dict | None) -> list[str]:
        if expected is None:
            return ["no reference values for this input"]
        return compare(observed["values"], expected, self.name) + \
            self.check_live(observed["live"])


class SweepNash(Workload):
    name = "sweep-nash"
    panel = tuple(range(8))           # CLI --seed values (restart draws)
    item = "traffic points"

    def prepare(self, ctx):
        config = ctx.config or os.path.join(ctx.root, HYBRID)
        return ["sweep", "--config", config, "--traffic", "1:10:1",
                "--analyses", "nash,baselines", "--jobs", "1",
                "--seed", str(ctx.key), "--out", ctx.path("out")]

    def observe(self, ctx, inputs, output):
        with open(ctx.path(os.path.join("out", "sweep.json"))) as fh:
            points = json.load(fh)["points"]
        values = [{
            "erlangs": p["erlangs"],
            "nash": {k: p["nash"][k] for k in ("count", "utility", "blocking")},
            "peak_rate": p["peak_rate"],
            "instantaneous_rate": p["instantaneous_rate"],
        } for p in points]
        return {"items": len(points), "values": values, "live": {}}


class NashExhaustive(Workload):
    name = "nash-exhaustive"
    item = "canonical policies"

    def prepare(self, ctx):
        doc = ctx.load(HYBRID)
        if not ctx.config:
            doc["systems"][1]["thresholds"] = [0.5, 0.5]
        path = ctx.write_instance(scaled(doc, 5.0))
        return ["nash", "--config", path, "--mode", "exhaustive", "--out", ctx.path("out")]

    def observe(self, ctx, inputs, output):
        from hetassoc import PolicyGameSolver, enumerate_states, load_instance
        with open(ctx.path(os.path.join("out", "nash.json"))) as fh:
            equilibria = json.load(fh)["equilibria"]
        with open(ctx.path("instance.json")) as fh:
            config, scheme = load_instance(fh.read())
        scanned = PolicyGameSolver(enumerate_states(config), scheme).policy_space_size()
        best = max(equilibria, key=lambda e: e["global_utility"])
        values = {
            "count": len(equilibria),
            "best_utility": best["global_utility"],
            "best_blocking": best["overall_blocking"],
            "policies": sorted(e["policy"] for e in equilibria),
        }
        return {"items": scanned, "values": values, "live": {}}


class SparseEval(Workload):
    name = "sparse-eval"
    # Policy draws differ by up to 70% in solve time, because the LU fill
    # depends on the policy. Of draws 0-11, draws 1 and 6 took 0.73 s each
    # and peaked within 5% of each other in memory when the benchmark was
    # defined; a panel of matched cost keeps the run-to-run spread a
    # measure of the program.
    panel = (1, 6)
    item = "chain states"

    def prepare(self, ctx):
        from hetassoc import Policy, load_instance
        doc = ctx.load(SPARSE_INSTANCE)
        config, scheme = load_instance(json.dumps(doc))
        policy = Policy.from_flat(draw_policy(doc, ctx.key), config.num_classes,
                                  scheme.label_count)
        return config, scheme, policy

    def run(self, inputs):
        import hetassoc
        config, scheme, policy = inputs
        space = hetassoc.enumerate_states(config)
        return space, hetassoc.evaluate_policy(space, scheme, policy)

    def observe(self, ctx, inputs, output):
        import numpy as np
        from hetassoc import PolicyRule, build_generator
        _, scheme, policy = inputs
        space, ev = output
        # residual recomputed on a generator built through the public API
        gen = build_generator(space, PolicyRule(policy, scheme))
        residual = float(np.abs(ev.pi @ gen.matrix).max())
        values = {"num_states": space.num_states,
                  "global_utility": float(ev.global_utility),
                  "overall_blocking": float(ev.overall_blocking)}
        live = {"residual": residual, "pi_sum": float(ev.pi.sum())}
        return {"items": space.num_states, "values": values, "live": live}

    def check_live(self, live):
        errors = []
        if not live["residual"] <= STEADY_RESIDUAL_MAX:
            errors.append(f"{self.name}: residual {live['residual']:.3e} "
                          f"exceeds {STEADY_RESIDUAL_MAX:.0e}")
        if not abs(live["pi_sum"] - 1.0) <= PI_SUM_TOL:
            errors.append(f"{self.name}: pi sums to {live['pi_sum']!r}")
        return errors


class Simulate(Workload):
    name = "simulate"
    # The key is the simulator seed; the policy is always draw POLICY_DRAW,
    # because draws differ by up to 10% in loop cost. All eight keys pass
    # the 99% blocking check (checked by make_reference.py).
    panel = tuple(range(8))
    POLICY_DRAW = 0
    item = "simulated events"
    events = 500_000

    def prepare(self, ctx):
        doc = scaled(ctx.load(HYBRID), 5.0)
        path = ctx.write_instance(doc)
        policy = ",".join(str(s) for s in draw_policy(doc, self.POLICY_DRAW))
        return ["simulate", "--config", path, "--rule", "policy", "--policy", policy,
                "--events", str(self.events), "--seed", str(ctx.key),
                "--out", ctx.path("out")]

    def observe(self, ctx, inputs, output):
        from hetassoc import (Policy, PolicyRule, build_generator, enumerate_states,
                              load_instance, per_class_blocking, solve_steady_state)
        rows = read_csv(ctx.path(os.path.join("out", "simulation.csv")))[1:]
        blocking = [(float(r[3]), float(r[4])) for r in rows if r[0] == "blocking"]
        # the analytic chain is the independent oracle
        with open(ctx.path("instance.json")) as fh:
            doc = json.load(fh)
        config, scheme = load_instance(json.dumps(doc))
        rule = PolicyRule(Policy.from_flat(draw_policy(doc, self.POLICY_DRAW),
                                           config.num_classes, scheme.label_count), scheme)
        space = enumerate_states(config)
        analytic = per_class_blocking(space, solve_steady_state(build_generator(space, rule)))
        values = {"analytic_blocking": [float(b) for b in analytic]}
        live = {"analytic": values["analytic_blocking"],
                "estimate": [e for e, _ in blocking],
                "ci99_half_width": [h for _, h in blocking]}
        return {"items": self.events, "values": values, "live": live}

    def check_live(self, live):
        if len(live["estimate"]) != len(live["analytic"]):
            return [f"{self.name}: {len(live['estimate'])} blocking rows for "
                    f"{len(live['analytic'])} classes"]
        return [f"{self.name}: class {n} blocking {est:.6g} is {abs(est - ref):.3g} "
                f"from the analytic {ref:.6g}, beyond its 99% half-width {half:.3g}"
                for n, (ref, est, half) in enumerate(zip(live["analytic"], live["estimate"],
                                                         live["ci99_half_width"]))
                if not abs(est - ref) <= half]


WORKLOADS = {w.name: w for w in (SweepNash(), NashExhaustive(), SparseEval(), Simulate())}
