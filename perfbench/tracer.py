"""Outside-in tracer: wraps hetassoc functions from the benchmark's side.

While the root span (the timed region of an iteration) is open, each
wrapped call records a span (name, start, end, parent) in memory; the spans
are reduced to the per-layer metrics listed in BENCHMARK.json and written
out when the run ends. Nothing in the program is
edited: names are rebound in the namespace of the module that calls them,
because several modules bind ctmc and transient functions at import time
(`from .ctmc import ...`), so rebinding only the defining module would miss
those callers.

A wrap target that no longer exists (a later refactor renamed it) is
listed in Tracer.missing, which run.py reports on stderr, and every metric
it feeds is left out of the result rather than reported as zero.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import statistics
import sys
import time
import weakref
from array import array

ROOT_SPAN = "workload"


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.missing: list[str] = []
        self.dropped: set[str] = set()
        # span i is (name[i], start[i], end[i], parent[i]); flat arrays keep
        # a million spans cheap to record and invisible to the garbage
        # collector
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self._stack: list[int] = []
        self.counters: dict[str, float] = {}

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def add(self, counter: str, value: float) -> None:
        self.counters[counter] = self.counters.get(counter, 0) + value

    def peak(self, counter: str, value: float) -> None:
        self.counters[counter] = max(self.counters.get(counter, value), value)

    def open(self, name: str) -> int:
        idx = len(self.name)
        self.name.append(self._name_id(name))
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def wrap(self, target: str, name, note=None, feeds=()) -> None:
        """Rebind `module:attr` or `module:Class.attr` to a wrapper that
        records a span while a root span is open. `name` is a span name or
        a function of the call's arguments; `note(tracer, args, result)`
        runs after the span closes; `feeds` are the metrics that are left
        out if the target is missing."""
        module_name, _, path = target.partition(":")
        try:
            # sys.modules first: the package attribute hetassoc.simulate is
            # the re-exported function, not the module
            owner = sys.modules.get(module_name) or importlib.import_module(module_name)
            *owner_path, attr = path.split(".")
            for part in owner_path:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
        except (ImportError, AttributeError):
            self.missing.append(target)
            self.dropped.update(feeds)
            return
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if not tracer._stack:
                return original(*args, **kwargs)
            idx = tracer.open(name if isinstance(name, str) else name(args))
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.close(idx)
            if note is not None:
                note(tracer, args, result)
            return result

        setattr(owner, attr, wrapper)

    def write(self, path) -> None:
        """Spans as columns; times are integer nanoseconds from the first
        span's start."""
        t0 = self.start[0] if self.start else 0.0
        doc = {
            "names": self.names,
            "name": self.name.tolist(),
            "start_ns": [round((t - t0) * 1e9) for t in self.start],
            "end_ns": [round((t - t0) * 1e9) for t in self.end],
            "parent": self.parent.tolist(),
            "counters": self.counters,
            "missing": self.missing,
        }
        with open(path, "w") as fh:
            json.dump(doc, fh, separators=(",", ":"))


# ----- wrap table ----------------------------------------------------------

def _note_stationary(tracer, args, result):
    import scipy.sparse as sp
    q = args[1]
    if sp.issparse(q):
        tracer.add("ctmc.stationary_sparse_calls", 1)
    else:
        tracer.add("linalg.lu_gflop_computed", 2.0 / 3.0 * q.shape[0] ** 3 / 1e9)
    tracer.peak("ctmc.stationary_max_residual", float(result[1]))


def _note_tagged(tracer, args, result):
    import numpy as np
    import scipy.sparse as sp
    rows = int(np.count_nonzero(~np.isnan(result)))
    tracer.add("transient.tagged_rows", rows)
    if not sp.issparse(args[1]):
        tracer.add("linalg.lu_gflop_computed", 2.0 / 3.0 * rows ** 3 / 1e9)


def _note_states(tracer, args, result):
    tracer.peak("states.num_states", result.num_states)


def _note_path(tracer, args, result):
    if result[0] is None:
        tracer.add("game.best_response_cycles", 1)


def _note_ties(tracer, args, result):
    tracer.add("game.tie_expansion_size", len(result))


def _note_output(tracer, args, result):
    tracer.add("output.bytes", os.path.getsize(result))


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary the benchmark workloads cross."""
    checkers = weakref.WeakSet()
    sizes_seen = set()

    def note_checker(tracer, args, result):
        checkers.add(result)

    def evaluate_name(args):
        return "game.verify" if args[0] in checkers else "game.evaluate"

    def note_assemble(tracer, args, result):
        # nnz of the first generator of each size; the largest is reported
        if result.shape[0] not in sizes_seen:
            import numpy as np
            sizes_seen.add(result.shape[0])
            nnz = result.nnz if hasattr(result, "nnz") else int(np.count_nonzero(result))
            tracer.peak("ctmc.generator_nnz", nnz)

    # each wrap lists the metrics it feeds; a missing target drops them
    w = tracer.wrap
    for ns in ("hetassoc", "hetassoc.cli"):
        w(f"{ns}:enumerate_states", "states.enumerate", _note_states,
          feeds=("states.enumerate_s", "states.num_states"))
    w("hetassoc.ctmc:ChainTables.__init__", "ctmc.tables", feeds=("ctmc.tables_s",))
    for target in ("hetassoc.game:assemble_dense", "hetassoc.game:assemble_generator",
                   "hetassoc.ctmc:assemble_generator",
                   "hetassoc.transient:assemble_generator"):
        w(target, "ctmc.assemble", note_assemble,
          feeds=("ctmc.assemble_s", "ctmc.assemble_calls", "ctmc.generator_nnz"))
    w("hetassoc.game:_solve_pi", "ctmc.stationary", _note_stationary,
      feeds=("ctmc.stationary_s", "ctmc.stationary_calls", "ctmc.stationary_sparse_calls",
             "ctmc.stationary_max_residual", "linalg.lu_gflop_computed"))
    for ns in ("hetassoc.game", "hetassoc.transient"):
        w(f"{ns}:solve_volume_from_matrix", "transient.tagged", _note_tagged,
          feeds=("transient.tagged_s", "transient.tagged_solves", "transient.tagged_rows",
                 "linalg.lu_gflop_computed"))
    w("hetassoc.transient:_tagged_matrix", "transient.tagged_matrix",
      feeds=("transient.tagged_matrix_s",))
    w("hetassoc.transient:_solve_tagged", "transient.tagged_solve",
      feeds=("transient.tagged_solve_s",))
    w("hetassoc.game:PolicyGameSolver.evaluate", evaluate_name,
      feeds=("game.evaluate_calls", "game.cache_hit_ratio", "game.verify_evaluations",
             "game.verify_s"))
    w("hetassoc.game:PolicyGameSolver._evaluate", "game.aggregate",
      feeds=("game.aggregate_s", "game.evaluations", "game.cache_hit_ratio"))
    w("hetassoc.game:PolicyEvaluation.nash_gap", "game.nash_gap",
      feeds=("game.nash_gap_s", "game.nash_gap_calls"))
    w("hetassoc.game:PolicyGameSolver.find_nash", "game.search", feeds=("game.search_s",))
    w("hetassoc.game:PolicyGameSolver._expand_ties", "game.search", _note_ties,
      feeds=("game.search_s", "game.tie_expansion_size"))
    w("hetassoc.game:PolicyGameSolver.fresh_checker", "game.search", note_checker,
      feeds=("game.search_s", "game.verify_evaluations", "game.verify_s"))
    w("hetassoc.game:PolicyGameSolver.best_response_path", "game.best_response", _note_path,
      feeds=("game.search_s", "game.best_response_paths", "game.best_response_cycles"))
    w("hetassoc.cli:evaluate_baseline", "game.baseline", feeds=("game.baseline_s",))
    for cls in ("AssignmentRule", "PolicyRule"):
        w(f"hetassoc.rules:{cls}.choice_table", "rules.choice_table",
          feeds=("rules.choice_table_s",))
    for cls in ("PolicyRule", "PeakRateRule", "InstantaneousRateRule"):
        w(f"hetassoc.rules:{cls}.choose", "rules.choose",
          feeds=("rules.choose_calls", "rules.choose_s", "simulate.loop_s"))
    w("hetassoc.cli:simulate", "simulate.run", feeds=("simulate.loop_s",))
    w("hetassoc.cli:_sweep_point", "cli.point", feeds=("cli.point_s_median", "cli.point_s_max"))
    for fn in ("write_csv", "write_json"):
        w(f"hetassoc.cli:{fn}", "output.write", _note_output,
          feeds=("output.write_s", "output.bytes"))


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Reduce the spans of one traced iteration to the per-layer metrics.

    Times are inclusive span durations unless the name says self time:
    game.aggregate_s is the self time of uncached evaluations (their
    assembly and solves are children), game.search_s the self time of the
    search functions, and simulate.loop_s the event loop's self time
    without the rule's choose() calls.
    """
    names = [tracer.names[nid] for nid in tracer.name]
    parents = tracer.parent
    durations = [end - start for start, end in zip(tracer.start, tracer.end)]
    count: dict[str, int] = {}
    total: dict[str, float] = {}
    self_time: dict[str, float] = {}
    child = [0.0] * len(names)
    for parent, dur in zip(parents, durations):
        if parent >= 0:
            child[parent] += dur
    root = 0.0
    self_sum = 0.0
    point_durations = []
    for i, (name, parent, dur) in enumerate(zip(names, parents, durations)):
        own = dur - child[i]
        self_sum += own
        if name == ROOT_SPAN:
            root += dur
        # a recursive wrap (same name nested) counts its outermost span once
        if parent < 0 or names[parent] != name:
            count[name] = count.get(name, 0) + 1
            total[name] = total.get(name, 0.0) + dur
        self_time[name] = self_time.get(name, 0.0) + own
        if name == "cli.point":
            point_durations.append(dur)

    def n(name):
        return count.get(name, 0)

    def t(name):
        return total.get(name, 0.0)

    c = tracer.counters
    evaluate_calls = n("game.evaluate") + n("game.verify")
    m = {
        "trace.layer_coverage": (1.0 - self_time.get(ROOT_SPAN, 0.0) / root) if root else 0.0,
        "states.enumerate_s": t("states.enumerate"),
        "states.num_states": c.get("states.num_states", 0),
        "ctmc.tables_s": t("ctmc.tables"),
        "ctmc.assemble_s": t("ctmc.assemble"),
        "ctmc.assemble_calls": n("ctmc.assemble"),
        "ctmc.generator_nnz": c.get("ctmc.generator_nnz", 0),
        "ctmc.stationary_s": t("ctmc.stationary"),
        "ctmc.stationary_calls": n("ctmc.stationary"),
        "ctmc.stationary_sparse_calls": c.get("ctmc.stationary_sparse_calls", 0),
        "ctmc.stationary_max_residual": c.get("ctmc.stationary_max_residual", 0.0),
        "transient.tagged_s": t("transient.tagged"),
        "transient.tagged_solves": n("transient.tagged"),
        "transient.tagged_rows": c.get("transient.tagged_rows", 0),
        "transient.tagged_matrix_s": t("transient.tagged_matrix"),
        "transient.tagged_solve_s": t("transient.tagged_solve"),
        "linalg.lu_gflop_computed": c.get("linalg.lu_gflop_computed", 0.0),
        "game.aggregate_s": self_time.get("game.aggregate", 0.0),
        "game.evaluate_calls": evaluate_calls,
        "game.evaluations": n("game.aggregate"),
        "game.cache_hit_ratio": ((evaluate_calls - n("game.aggregate")) / evaluate_calls
                                 if evaluate_calls else 0.0),
        "game.nash_gap_s": t("game.nash_gap"),
        "game.nash_gap_calls": n("game.nash_gap"),
        "game.search_s": self_time.get("game.search", 0.0)
                         + self_time.get("game.best_response", 0.0),
        "game.best_response_paths": n("game.best_response"),
        "game.best_response_cycles": c.get("game.best_response_cycles", 0),
        "game.tie_expansion_size": c.get("game.tie_expansion_size", 0),
        "game.verify_evaluations": n("game.verify"),
        "game.verify_s": t("game.verify"),
        "game.baseline_s": t("game.baseline"),
        "rules.choice_table_s": t("rules.choice_table"),
        "rules.choose_calls": n("rules.choose"),
        "rules.choose_s": t("rules.choose"),
        "simulate.loop_s": self_time.get("simulate.run", 0.0),
        "cli.point_s_median": statistics.median(point_durations) if point_durations else 0.0,
        "cli.point_s_max": max(point_durations, default=0.0),
        "output.write_s": t("output.write"),
        "output.bytes": c.get("output.bytes", 0),
    }
    if root and abs(self_sum - root) > 0.01 * root:
        print(f"perfbench trace: self times sum to {self_sum:.4f} s but the traced "
              f"region took {root:.4f} s; spans overlap", file=sys.stderr)
    return {k: v for k, v in m.items() if k not in tracer.dropped}
