"""Run-to-run spread of the end-to-end metrics.

    python3 perfbench/spread.py --workload resolvent_sweep --seeds 1-10
    python3 perfbench/spread.py --workload all --seeds 1,1,1,1,1

Runs ``run.py --trace 0`` once per listed seed (a range, or a comma list
that may repeat a seed), one run at a time, for BENCHMARK.json's
``run_seconds``.  Prints for each metric the median, the quartiles
(``statistics.quantiles(n=4)``), the spread (interquartile distance over
the median) and the metric's bound.  A spread above a third of its bound
is marked.
"""

import argparse
import json
import statistics
import sys

from run import ROOT, run_child


def seed_list(text):
    if "," in text:
        return [int(s) for s in text.split(",")]
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*names, "all"])
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    args = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    for workload in names if args.workload == "all" else [args.workload]:
        results = []
        for seed in args.seeds:
            lines, result, code = run_child(workload, seed, spec["run_seconds"], 0)
            if result is None:
                raise SystemExit(f"{workload} seed {seed} exited {code}:\n" + "\n".join(lines))
            results.append(result)
        print(f"{workload}: seeds {','.join(map(str, args.seeds))}, "
              f"correct {all(r['correct'] for r in results)}, "
              f"failed {[r['failed'] for r in results]}")
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in results]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / statistics.median(values)
            mark = "  > bound/3" if spread > bound / 3 else ""
            print(f"  {name:<12} median {statistics.median(values):11.5g}  "
                  f"q1 {q1:11.5g}  q3 {q3:11.5g}  spread {spread:6.3f}  bound {bound}{mark}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
