"""Do the deterministic counters repeat, and does a second seed run cleanly?

    python3 perfbench/repeat_check.py --workload all

For each workload: two traced runs with seed 1 must report identical
deterministic counters (panels, Bessel calls, least-squares evaluations,
pole-set calls and the like) and the same failure count; one traced run
with seed 2 must finish with ``correct`` true.  Runs last BENCHMARK.json's
``run_seconds``.  A traced run replays a fixed op list, so its counters
depend only on the seed and the program.  Exits 1 when any check fails.
"""

import argparse
import json
import sys

from run import ROOT, run_child
from tracing import DETERMINISTIC

SEED, OTHER_SEED = 1, 2


def traced(workload, seed, seconds):
    lines, result, code = run_child(workload, seed, seconds, 1)
    if result is None:
        raise SystemExit(f"{workload} seed {seed} exited {code}:\n" + "\n".join(lines))
    return result


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*names, "all"])
    args = parser.parse_args(argv)
    seconds = spec["run_seconds"]
    ok = True
    for workload in names if args.workload == "all" else [args.workload]:
        first, second = (traced(workload, SEED, seconds) for _ in range(2))
        keys = [k for k in DETERMINISTIC if k in first["metrics"]]
        differ = [k for k in keys if first["metrics"][k]["value"] != second["metrics"].get(k, {}).get("value")]
        if first["failed"] != second["failed"]:
            differ.append("failed")
        other = traced(workload, OTHER_SEED, seconds)
        counters = ", ".join(f"{k}={first['metrics'][k]['value']}" for k in keys if first["metrics"][k]["value"])
        print(f"{workload}: seed {SEED} twice -> "
              f"{'counters repeat' if not differ else 'DIFFER: ' + ', '.join(differ)} "
              f"(failed {first['failed']}; {counters}); "
              f"seed {OTHER_SEED} -> correct {other['correct']}, failed {other['failed']}", flush=True)
        ok = ok and not differ and other["correct"]
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
