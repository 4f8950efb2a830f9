"""Smoke test of the benchmark harness on configs/erlang_single.json.

    python3 perfbench/smoke.py

Run from the root of a checkout; it takes about two minutes. On the
one-system, one-class instance every workload is cheap, so this checks the
harness rather than the program:

1. make_reference.py records the first panel key of every workload;
2. every workload runs with --trace 0 and --trace 1, and the printed
   metric names and units must be exactly those of BENCHMARK.json, with no
   failed iteration;
3. one reference value per workload is perturbed by a relative 1e-6, and
   every iteration of the rerun must count as failed.

Exits 0 when all checks pass and prints what failed otherwise.
"""

import json
import os
import subprocess
import sys

CONFIG = os.path.join("configs", "erlang_single.json")
HERE = os.path.dirname(os.path.abspath(__file__))
OUT = os.path.join(".perfbench-out", "smoke")


def bench(workload: str, trace: int, reference: str) -> tuple[dict | None, str]:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", "0", "--seconds", "1", "--trace", str(trace),
         "--config", CONFIG, "--reference", reference],
        capture_output=True, text=True, timeout=180)
    if proc.returncode != 0:
        return None, f"exit {proc.returncode}: {proc.stderr[-1500:]}"
    return json.loads(proc.stdout.strip().splitlines()[-1]), ""


def perturb(value):
    """Copy of `value` with its first float scaled by 1 + 1e-6 (None if it
    holds no float)."""
    if isinstance(value, float):
        return value * (1 + 1e-6)
    items = list(value.items()) if isinstance(value, dict) else \
        list(enumerate(value)) if isinstance(value, list) else []
    for k, v in items:
        changed = perturb(v)
        if changed is not None:
            copy = dict(value) if isinstance(value, dict) else list(value)
            copy[k] = changed
            return copy
    return None


def main() -> int:
    sys.path.insert(0, HERE)
    import workloads
    with open("BENCHMARK.json") as fh:
        spec = json.load(fh)
    os.makedirs(OUT, exist_ok=True)
    reference = os.path.join(OUT, "reference.json")
    if os.path.exists(reference):
        os.remove(reference)
    subprocess.run([sys.executable, os.path.join(HERE, "make_reference.py"), "--keys", "1",
                    "--config", CONFIG, "--out", reference], check=True, timeout=900)
    with open(reference) as fh:
        expected = json.load(fh)

    problems = []
    for name, workload in workloads.WORKLOADS.items():
        for trace, listed in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            result, error = bench(name, trace, reference)
            if result is None:
                problems.append(f"{name} trace {trace}: {error}")
                continue
            units = {m: v["unit"] for m, v in result["metrics"].items()}
            want = {m["name"]: m["unit"] for m in listed}
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{name} trace {trace}: keys {sorted(result)}")
            if units != want:
                problems.append(f"{name} trace {trace}: metrics differ from BENCHMARK.json: "
                                f"extra {sorted(set(units.items()) - set(want.items()))}, "
                                f"missing {sorted(set(want.items()) - set(units.items()))}")
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                problems.append(f"{name} trace {trace}: {result['failed']} of "
                                f"{result['attempted']} iterations failed")

        key = str(workload.key(0))
        bad = json.loads(json.dumps(expected))
        bad[name][key] = perturb(expected[name][key])
        bad_path = os.path.join(OUT, f"perturbed-{name}.json")
        with open(bad_path, "w") as fh:
            json.dump(bad, fh)
        result, error = bench(name, 0, bad_path)
        if result is None:
            problems.append(f"{name} perturbed: {error}")
        elif result["correct"] or result["failed"] != result["attempted"]:
            problems.append(f"{name} perturbed: {result['failed']} of {result['attempted']} "
                            "iterations counted as failed")
        print(f"smoke {name}: checked", file=sys.stderr)

    for problem in problems:
        print(f"smoke FAIL {problem}", file=sys.stderr)
    print("smoke: " + ("ok" if not problems else f"{len(problems)} problems"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
