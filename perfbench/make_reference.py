"""Record the expected outputs of every panel key in reference.json.

    python3 perfbench/make_reference.py [--workload NAME ...] [--keys N]
                                        [--config PATH] [--out PATH]

Run from the root of a checkout, on the commit whose outputs are the
reference. Each key runs once in a fresh worker; a key whose live checks
fail (a simulation outside its confidence interval, a residual over its
limit) stops the script, since the panel must hold only inputs on which
no iteration fails. Existing entries of other workloads are kept.
"""

import argparse
import json
import os
import sys
from types import SimpleNamespace

import run
import workloads


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--keys", type=int, help="only the first N panel keys")
    parser.add_argument("--config", help="instance JSON replacing each workload's own")
    parser.add_argument("--out", default=os.path.join(run.HERE, "reference.json"))
    args = parser.parse_args()
    config = os.path.abspath(args.config) if args.config else None
    doc = {}
    if os.path.exists(args.out):
        with open(args.out) as fh:
            doc = json.load(fh)
    for name in args.workload or sorted(workloads.WORKLOADS):
        workload = workloads.WORKLOADS[name]
        expected = {}
        for key in workload.panel[:args.keys]:
            runner = run.Runner(SimpleNamespace(workload=name, config=config), os.getcwd())
            try:
                result, error = runner.child("run", key=key)
            finally:
                run.shutil.rmtree(runner.work, ignore_errors=True)
            errors = [error] if error else workload.check_live(result["live"])
            if errors:
                print(f"{name} key {key}: " + "; ".join(errors), file=sys.stderr)
                return 1
            expected[str(key)] = result["values"]
            print(f"{name} key {key}: wall {result['wall_s']:.3f} s, "
                  f"rss {result['peak_rss_mb']:.0f} MB", file=sys.stderr)
        doc[name] = expected
    with open(args.out, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
