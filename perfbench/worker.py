"""One benchmark iteration in a fresh interpreter.

    python3 perfbench/worker.py SPEC_JSON

SPEC_JSON names the checkout root, the mode, the workload, panel key,
trace flag and result path. Mode "import" times the package import and
reports the numerical stack; mode "run" also runs one iteration of the
workload, traced if asked. The process runs on one CPU, and the import
and the iteration are timed under pace.Probe, which gives both raw and
CPU-speed-adjusted times. The result is written as JSON to the result
path, where run.py reads and checks it.
"""

import os
import sys
import time

# Pinned before numpy is first imported: with OpenBLAS's default threading,
# some fresh processes spend ~100x longer on small dense solves.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import json  # noqa: E402
import resource  # noqa: E402
import traceback  # noqa: E402

import pace  # noqa: E402


def stack_info() -> dict:
    import platform

    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas": f"{blas.get('name')} {blas.get('version')}",
            "threads": {var: os.environ.get(var) for var in THREAD_VARS}}


def iterate(spec: dict) -> dict:
    import tracer
    import workloads
    workload = workloads.WORKLOADS[spec["workload"]]
    ctx = workloads.Context(spec["root"], spec["workdir"], spec["key"], spec["config"])
    inputs = workload.prepare(ctx)
    trace = None
    if spec["trace"]:
        trace = tracer.Tracer()
        tracer.install(trace)
    with pace.Probe() as probe:
        if trace is not None:
            root_span = trace.open(tracer.ROOT_SPAN)
        cpu0 = time.process_time()
        wall0 = time.perf_counter()
        output = workload.run(inputs)
        wall = time.perf_counter() - wall0
        cpu = time.process_time() - cpu0
        if trace is not None:
            trace.close(root_span)
    factor = probe.factor()
    result = {"traced": trace is not None, "wall_s": wall * factor, "cpu_s": cpu * factor,
              "raw_wall_s": wall, "raw_cpu_s": cpu, "pace_factor": factor,
              "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
    if trace is not None:
        result["layers"] = tracer.layer_metrics(trace)
        result["missing"] = trace.missing
        trace.write(spec["spans"])
    result.update(workload.observe(ctx, inputs, output))
    return result


def main() -> int:
    spec = json.loads(sys.argv[1])
    src = os.path.join(spec["root"], "src")
    sys.path.insert(0, src)
    pace.pin_to_one_cpu()
    with pace.Probe() as probe:
        start = time.perf_counter()
        import hetassoc.cli
        elapsed = time.perf_counter() - start
    result = {"import_s": elapsed * probe.factor(), "raw_import_s": elapsed}
    if not os.path.abspath(hetassoc.cli.__file__).startswith(src + os.sep):
        print(f"hetassoc was imported from {hetassoc.cli.__file__}, not {src}",
              file=sys.stderr)
        return 3
    if spec["mode"] == "import":
        result["stack"] = stack_info()
    else:
        try:
            result.update(iterate(spec))
        except Exception:
            result["error"] = traceback.format_exc()
    with open(spec["result"], "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
