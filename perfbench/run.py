"""The hetassoc benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The run first times SETUP_SAMPLES bare
imports of hetassoc.cli, then runs iterations until S seconds have passed
(at least one; with --trace 1, one plain iteration and then at least one
traced). Each import and each iteration runs in a fresh interpreter
(perfbench/worker.py), as each CLI call does, so no per-space cache or
warm-up carries over between iterations or workloads; every iteration's
import is one more set-up sample. Every process pins BLAS to one thread
before numpy is imported, and each worker runs on one CPU. Times are
reported at a reference CPU speed: each is multiplied by the factor that
pace.Probe measured while it ran (pace.py says why). The run checks
every iteration's outputs and prints one JSON line: the end-to-end metrics with --trace 0, or the
per-layer metrics of traced iterations with --trace 1. A human-readable
summary goes to stderr; the machine record and every iteration's timings
go to .perfbench-out/WORKLOAD-seedN-traceT.json.

--config PATH replaces each workload's instance and --reference PATH the
expected outputs; smoke.py uses both.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import workloads  # noqa: E402

SETUP_SAMPLES = 2
# a run must end within 180 s; no iteration starts or lasts beyond this
RUN_BUDGET_S = 165.0
REQUIRED = (os.path.join("src", "hetassoc", "__init__.py"),
            os.path.join("src", "hetassoc", "cli.py"),
            workloads.HYBRID)


def cpu_ticks() -> dict:
    """System-wide CPU time so far, in seconds per /proc/stat field."""
    try:
        with open("/proc/stat") as fh:
            fields = fh.readline().split()[1:9]
    except OSError:
        return {}
    hz = os.sysconf("SC_CLK_TCK")
    names = ("user", "nice", "system", "idle", "iowait", "irq", "softirq", "steal")
    return {n: int(v) / hz for n, v in zip(names, fields)}


def machine_record() -> dict:
    model = ""
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh
                          if line.startswith("model name")), "")
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "cpu_model": model, "loadavg_start": os.getloadavg()}


class Runner:
    def __init__(self, args, root: str):
        self.args = args
        self.root = root
        self.out = os.path.join(root, ".perfbench-out")
        self.work = os.path.join(self.out, f"work-{os.getpid()}")
        self.start = time.perf_counter()
        self.count = 0

    def remaining(self) -> float:
        return RUN_BUDGET_S - (time.perf_counter() - self.start)

    def child(self, mode: str, trace: bool = False, key: int = 0) -> tuple[dict | None, str]:
        """Run worker.py once; returns (result, error)."""
        self.count += 1
        workdir = os.path.join(self.work, str(self.count))
        os.makedirs(workdir)
        spec = {"root": self.root, "mode": mode, "workload": self.args.workload,
                "key": key, "trace": trace, "config": self.args.config,
                "workdir": workdir, "result": os.path.join(workdir, "result.json"),
                "spans": os.path.join(self.out, f"spans-{self.args.workload}.json")}
        log = os.path.join(workdir, "log.txt")
        error = ""
        try:
            with open(log, "w") as fh:
                proc = subprocess.run([sys.executable, os.path.join(HERE, "worker.py"),
                                       json.dumps(spec)], cwd=self.root, stdout=fh,
                                      stderr=subprocess.STDOUT,
                                      timeout=max(self.remaining(), 1.0))
            if proc.returncode != 0:
                with open(log) as fh:
                    error = f"worker exited with {proc.returncode}:\n{fh.read()[-2000:]}"
        except subprocess.TimeoutExpired:
            error = "worker timed out"
        if error:
            return None, error
        with open(spec["result"]) as fh:
            result = json.load(fh)
        return result, result.get("error", "")


def median_of(rows: list[dict], field: str) -> float:
    return statistics.median(r[field] for r in rows)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--config", help="instance JSON replacing each workload's own")
    parser.add_argument("--reference", default=os.path.join(HERE, "reference.json"))
    args = parser.parse_args()

    root = os.getcwd()
    missing = [p for p in REQUIRED if not os.path.isfile(os.path.join(root, p))]
    if missing:
        print(f"perfbench: run from a hetassoc checkout; missing {missing}", file=sys.stderr)
        return 2
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    if args.config:
        args.config = os.path.abspath(args.config)
    with open(args.reference) as fh:
        reference = json.load(fh).get(args.workload, {})

    workload = workloads.WORKLOADS[args.workload]
    key = workload.key(args.seed)
    runner = Runner(args, root)
    record = {"workload": args.workload, "seed": args.seed, "key": key,
              "seconds": args.seconds, "trace": args.trace,
              "machine": machine_record(), "errors": []}
    cpu_start = cpu_ticks()
    try:
        setup = []
        for _ in range(SETUP_SAMPLES):
            result, error = runner.child("import")
            if error:
                print(f"perfbench: import failed: {error}", file=sys.stderr)
                return 1
            setup.append(result)
        record["stack"] = setup[0]["stack"]
        print("perfbench env: " + json.dumps({k: record[k] for k in ("machine", "stack")}),
              file=sys.stderr)

        plain, traced = [], []
        attempted = failed = 0
        loop_start = time.perf_counter()
        while True:
            trace = bool(args.trace) and attempted > 0
            result, error = runner.child("run", trace=trace, key=key)
            attempted += 1
            if result is not None:
                setup.append(result)
            errors = [error] if error else workload.check(result, reference.get(str(key)))
            if errors:
                failed += 1
                record["errors"] += errors
                print("perfbench: iteration failed: " + "; ".join(errors), file=sys.stderr)
            if not error:
                (traced if trace else plain).append(result)
                for target in result.get("missing", []):
                    print(f"perfbench trace: wrap target {target} is missing; "
                          "the metrics it feeds are left out", file=sys.stderr)
            last = result["wall_s"] if not error else 0.0
            if error or runner.remaining() < 2 * last + 5:
                break
            if time.perf_counter() - loop_start >= args.seconds and (traced or not args.trace):
                break
    finally:
        shutil.rmtree(runner.work, ignore_errors=True)

    if not plain or (args.trace and not traced):
        print("perfbench: no iteration completed", file=sys.stderr)
        return 1
    if args.trace:
        # layer times are put on the reference CPU's scale like wall_s
        metrics = {name: statistics.median(
                       r["layers"][name] * (r["pace_factor"] if units.get(name) == "s" else 1)
                       for r in traced)
                   for name in traced[0]["layers"]}
        metrics["trace.wall_s"] = median_of(traced, "wall_s")
        metrics["trace.untraced_wall_s"] = median_of(plain, "wall_s")
        metrics["trace.overhead_s"] = metrics["trace.wall_s"] - metrics["trace.untraced_wall_s"]
    else:
        metrics = {
            "setup_s": statistics.median(r["import_s"] for r in setup),
            "wall_s": median_of(plain, "wall_s"),
            "cpu_s": median_of(plain, "cpu_s"),
            "items_per_s": statistics.median(r["items"] / r["wall_s"] for r in plain),
            "peak_rss_mb": max(r["peak_rss_mb"] for r in plain),
        }
    record["machine"]["loadavg_end"] = os.getloadavg()
    # "steal" is time the hypervisor gave this machine's CPUs to someone else
    record["machine"]["cpu_s_during_run"] = {k: round(v - cpu_start[k], 2)
                                             for k, v in cpu_ticks().items()}
    record["iterations"] = [{k: it[k] for k in ("traced", "import_s", "raw_import_s", "wall_s",
                                                 "raw_wall_s", "cpu_s", "raw_cpu_s",
                                                 "pace_factor", "peak_rss_mb", "items")}
                            for it in plain + traced]
    record["setup_import_s"] = [r["import_s"] for r in setup]
    record["setup_raw_import_s"] = [r["raw_import_s"] for r in setup]
    record["metrics"] = metrics
    with open(os.path.join(runner.out, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"),
              "w") as fh:
        json.dump(record, fh, indent=1)

    print(f"perfbench {args.workload} (key {key}, {workload.item}): "
          f"{attempted} iterations, {failed} failed; raw wall_s median "
          f"{median_of(plain, 'raw_wall_s'):.4g} s, CPU speed factor "
          f"{median_of(plain, 'pace_factor'):.3f}", file=sys.stderr)
    for name, value in metrics.items():
        print(f"  {name:32s} {value:14.6g} {units.get(name, '?')}", file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
