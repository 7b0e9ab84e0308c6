"""coneasym benchmark: one workload per run, or all three in turn.

    python3 perfbench/run.py --workload heat_sweep --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

Run from anywhere inside a checkout; the program is imported from its
``src/`` directory.  The output is a readable summary, the environment of
the run, and as the last line one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  Run records and
traces go to ``.perfbench_out/`` in the checkout.  See perfbench/README.md.
"""

import argparse
import hashlib
import importlib.util
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
# One client in one process: no solver threads, no BLAS threads.
PINNED = {"CONE_ASYM_THREADS": "1", "OMP_NUM_THREADS": "1",
          "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
UNSET = ("CONE_ASYM_BACKEND",)
SETUP_REPEATS = 3
MIN_PASSES = 2
HEAVY = 10
# Op times are reported in probe times (see probe) scaled by PROBE_REF_S:
# the probe's typical time on a quiet 2-vCPU host.
PROBE_REF_S = 4e-4
# After an op, the probe runs PROBE_CALLS times, or for PROBE_SHARE of the
# op's time if that is longer.
PROBE_CALLS = 3
PROBE_SHARE = 0.02
CHILD_TIMEOUT_S = 120

from tracing import DETERMINISTIC, Tracer, layer_metrics  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def pin_environment():
    os.environ.update(PINNED)
    for key in UNSET:
        os.environ.pop(key, None)
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH", "")) if p)
    sys.path.insert(0, str(SRC))


def timed_setup(workload, seed, workdir):
    start = time.perf_counter()
    workload.setup(seed, workdir)
    return time.perf_counter() - start


def child_setup(args):
    """Set-up time of the same workload in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
         "--seed", str(args.seed), "--setup-only"],
        capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, cwd=ROOT)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up child failed:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])["setup_s"]


def probe():
    """A fixed computation outside the program: the real part of a product
    of complex Bessel functions under adaptive quadrature, the kind of work
    the solvers do.  Timed right after each op, it tells how fast the
    shared host ran at that moment."""
    from scipy import integrate, special
    k = (10j) ** 0.5
    return integrate.quad(lambda x: (special.kv(1.3, k * x) * special.iv(1.3, k * x)).real * x,
                          0.5, 3.0, epsabs=0, epsrel=1e-11, limit=200)[0]


def probe_s(op_s=0.0):
    """Mean probe time over a sample sized for an op that took ``op_s``."""
    calls = max(PROBE_CALLS, round(PROBE_SHARE * op_s / PROBE_REF_S))
    start = time.perf_counter()
    for _ in range(calls):
        probe()
    return (time.perf_counter() - start) / calls


def loop(workload, ops, tracer=None, after_op=None):
    """Closed loop, one client: returns (done, durations, failures, elapsed).
    ``after_op(duration)`` runs untimed after each op."""
    done, durations, failures = [], [], {}
    start = time.perf_counter()
    for op in ops:
        if tracer is not None:
            tracer.op_id = op["id"]
        t0 = time.perf_counter()
        try:
            output = workload.run(op, tracer)
        except Exception as exc:  # an op that raises is a failed op; the run goes on
            output = None
            failures[op["id"]] = (f"raised {type(exc).__name__}: {exc}", False)
        t1 = time.perf_counter()
        durations.append(t1 - t0)
        done.append((op, output))
        if after_op is not None:
            after_op(t1 - t0)
    return done, durations, failures, time.perf_counter() - start


def percentile(values, q):
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def untraced_run(workload, args, setup_times):
    """Replay one fixed op list, pass after pass, while a further pass fits
    in the run's seconds, and until every op has run MIN_PASSES times.

    On a shared host the same op's time swings by half or more within a
    minute, with CPU time tracking wall time: the host, not the program,
    runs slower.  So each op run is followed by a probe (``probe_s``), and
    the run counts as its time over the probe's, times PROBE_REF_S.  An
    op's time is the median of that over its runs.  Set-up time is left
    as measured: scaled, it spread no less.

    The first pass runs every op.  After it, heavy ops (over HEAVY times
    the first pass's median op) take turns, one per pass, so that each pass
    stays short and the light ops, most of the list, get many runs spread
    over the whole run.  Each pass after the first moves the inputs by
    ``workload.vary``, too little to change the work, so that no result
    cache can answer a replayed op (``inverse_cli``'s cold processes hold
    none; its passes keep their own output files).  The first pass's
    outputs are checked; an op fails when any run raises."""
    ops = workload.timed_ops()
    runs, failures = [[] for _ in ops], {}

    def run_pass(indices, passes):
        probes = []
        done, durations, failed, _ = loop(workload, [workload.vary(ops[i], passes) for i in indices],
                                          after_op=lambda op_s: probes.append(probe_s(op_s)))
        for op_id, reason in failed.items():
            failures.setdefault(op_id, reason)
        for i, duration, probe_time in zip(indices, durations, probes):
            runs[i].append((duration, probe_time))
        return done

    probe_s()  # scipy.integrate's first-call costs
    start = time.perf_counter()
    checked = run_pass(list(range(len(ops))), 0)
    cut = HEAVY * statistics.median(r[0][0] for r in runs)
    heavy = [i for i, r in enumerate(runs) if r[0][0] > cut]
    light = [i for i, r in enumerate(runs) if r[0][0] <= cut]
    passes, pass_s = 1, time.perf_counter() - start
    # A pass starts only if one as long as the last still ends in time.
    while min(map(len, runs)) < MIN_PASSES or time.perf_counter() - start + pass_s <= args.seconds:
        pass_start = time.perf_counter()
        run_pass(light + [heavy[passes % len(heavy)]] if heavy else light, passes)
        passes, pass_s = passes + 1, time.perf_counter() - pass_start
    elapsed = time.perf_counter() - start
    notes = workload.check(checked, failures)
    scaled = [PROBE_REF_S * statistics.median(d / p for d, p in r) for r in runs]
    probe_p50 = statistics.median(p for r in runs for _, p in r)
    raw = [min(d for d, _ in r) for r in runs]
    busy = sum(scaled)
    p50 = statistics.median(scaled)
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "ops_per_s": (len(ops) / busy, "1/s"),
        "op_p50_ms": (1000.0 * p50, "ms"),
        "peak_rss_mb": (workload.peak_rss_mb(), "MB"),
    }
    extra = {
        "points_per_s": (sum(workload.points(op) for op in ops) / busy, "1/s"),
        "fail_rate": (len(failures) / len(ops), "ratio"),
        "passes": (passes, "count"),
        "heavy_ops": (len(heavy), "count"),
        # as timed, unscaled: every op run over the loop's wall time (probes
        # included), and the median of each op's best time
        "wall_ops_per_s": (sum(map(len, runs)) / elapsed, "1/s"),
        "best_op_p50_ms": (1000.0 * statistics.median(raw), "ms"),
        "probe_p50_ms": (1000.0 * probe_p50, "ms"),
        # ops HEAVY times slower than the median: the rare costly inputs
        "slow_ops": (sum(d > HEAVY * p50 for d in scaled), "count"),
        "slow_time_share": (sum(d for d in scaled if d > HEAVY * p50) / busy, "ratio"),
    }
    if len(scaled) >= 100:  # ten samples beyond the 90th percentile
        extra["op_p90_ms"] = (1000.0 * percentile(scaled, 0.9), "ms")
    return checked, failures, metrics, extra, {"setup_samples_s": setup_times, "check": notes}


def cold_import_s(repeats=3):
    code = "import time; t0 = time.perf_counter(); import coneasym.cli; print(time.perf_counter() - t0)"
    return statistics.median(
        float(subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             check=True, timeout=CHILD_TIMEOUT_S).stdout)
        for _ in range(repeats))


def scipy_import_s():
    """Time that ``import coneasym.cli`` spends importing scipy, from
    ``python -X importtime``: the cumulative time of every scipy module
    imported by a module outside scipy (scipy.special and scipy.optimize
    and everything they pull in)."""
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import coneasym.cli"],
                          capture_output=True, text=True, check=True, timeout=CHILD_TIMEOUT_S)
    entries = []
    for line in proc.stderr.splitlines():
        parts = line.split("|")
        if line.startswith("import time:") and len(parts) == 3 and parts[1].strip().isdigit():
            field = parts[2].rstrip()
            entries.append((len(field) - len(field.lstrip()), field.strip(), int(parts[1])))
    total_us, stack = 0, []  # reversed post-order: parents before children
    for depth, name, cumulative_us in reversed(entries):
        while stack and stack[-1][0] >= depth:
            stack.pop()
        inside = bool(stack) and stack[-1][1]
        is_scipy = name == "scipy" or name.startswith("scipy.")
        if is_scipy and not inside:
            total_us += cumulative_us
        stack.append((depth, inside or is_scipy))
    return total_us / 1e6


def ive_floor_us(calls=2000):
    """One direct scipy.special.ive call on 16 Gauss-Legendre nodes: the
    floor the kernel's time per panel can approach."""
    import numpy as np
    from scipy import special
    z = 1.5 + 0.5 * np.polynomial.legendre.leggauss(16)[0]
    samples = []
    for _ in range(5):
        start = time.perf_counter()
        for _ in range(calls):
            special.ive(2.0, z)
        samples.append((time.perf_counter() - start) / calls * 1e6)
    return statistics.median(samples)


UNITS = {"_s": "s", "_us": "us", "us_per_panel": "us", "us_per_point": "us",
         "calls_per_point": "1/point"}


def unit_of(name):
    for suffix, unit in UNITS.items():
        if name.endswith(suffix):
            return unit
    return "ratio" if name == "trace.overhead" else "count"


def traced_run(workload, args, setup_times):
    """Alternate untraced and traced passes over one fixed op list until the
    run's seconds are used (at least one pair).  Per-layer figures are
    medians over the traced passes; trace.overhead is the median ratio of
    traced to untraced pass time.  The first traced pass is checked as soon
    as it ends, before a later pass can overwrite its outputs."""
    ops = workload.trace_ops()
    passes, ratios = [], []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < args.seconds:
        _, _, _, plain_s = loop(workload, ops)
        tracer = Tracer()
        tracer.install()
        try:
            done, _, failures, traced_s = loop(workload, ops, tracer=tracer)
        finally:
            tracer.uninstall()
        if not passes:
            checked, notes = (done, failures), workload.check(done, failures)
        passes.append(tracer)
        ratios.append(traced_s / plain_s)
    done, failures = checked
    per_pass = [layer_metrics(t) for t in passes]
    unsteady = [k for k in DETERMINISTIC if k in per_pass[0]
                and any(p.get(k) != per_pass[0][k] for p in per_pass)]
    values = {k: per_pass[0][k] if k in DETERMINISTIC else statistics.median(p[k] for p in per_pass)
              for k in per_pass[0]}
    if "coneasym.cli.recover_spectrum" not in passes[0].absent:
        values["fitrecover.spurious"] = getattr(workload, "spurious", 0)
    values["cli.import_s"] = cold_import_s()
    values["cli.scipy_import_s"] = scipy_import_s()
    values["kernels.ive_floor_us"] = ive_floor_us()
    values["trace.overhead"] = statistics.median(ratios)
    metrics = {k: (v, unit_of(k)) for k, v in sorted(values.items())}
    OUT.mkdir(exist_ok=True)
    trace_path = OUT / f"trace-{workload.name}-s{args.seed}.json"
    trace_path.write_text(json.dumps({"ops": ops, "passes": [t.to_json() for t in passes]}, default=str))
    record = {"passes": len(passes), "ops_per_pass": len(ops), "trace_file": str(trace_path.relative_to(ROOT)),
              "absent": passes[0].absent, "counters_not_repeated": unsteady,
              "setup_samples_s": setup_times, "check": notes}
    return done, failures, metrics, {}, record


def source_digest():
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def environment(args):
    import numpy
    import scipy
    try:
        from coneasym import active_backend
        backend = active_backend()
    except ImportError:
        backend = "absent"
    rev = None
    if (ROOT / ".git").exists() and shutil.which("git"):
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True)
        rev = proc.stdout.strip() or None
    return {
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "numpy": numpy.__version__, "scipy": scipy.__version__,
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "active_backend": backend, "git_rev": rev, "src_sha256": source_digest(),
        "seed": args.seed, "seconds": args.seconds, "trace": args.trace, "probe_ref_s": PROBE_REF_S,
        "pinned_env": PINNED, "unset_env": list(UNSET),
    }


def report(workload, args, done, failures, metrics, extra, record):
    unexpected = {k: v for k, v in failures.items() if not v[1]}
    known = {k: v for k, v in failures.items() if v[1]}
    correct = not unexpected and not record.get("counters_not_repeated")
    env = environment(args)
    print(f"workload {workload.name}  seed {args.seed}  seconds {args.seconds}  trace {args.trace}  "
          f"ops {len(done)}  failed {len(failures)} (known defect {len(known)})")
    for name, (value, unit) in list(metrics.items()) + list(extra.items()):
        print(f"  {name:<32} {value:>14.6g} {unit}")
    for op_id, (reason, is_known) in sorted(failures.items())[:8]:
        print(f"  failed op {op_id}: {reason}{'  [known defect]' if is_known else ''}")
    if record.get("absent"):
        print(f"  absent (layer metrics left out): {', '.join(record['absent'])}")
    if record.get("check"):
        print(f"  check: {json.dumps(record['check'])}")
    if record.get("counters_not_repeated"):
        print(f"  counters that did not repeat across passes: {record['counters_not_repeated']}")
    print("# environment: " + json.dumps(env, sort_keys=True))
    result = {
        "correct": correct, "attempted": len(done), "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    OUT.mkdir(exist_ok=True)
    (OUT / f"result-{workload.name}-s{args.seed}-t{args.trace}.json").write_text(json.dumps(
        {"result": result, "extra": {k: {"value": v, "unit": u} for k, (v, u) in extra.items()},
         "failures": {str(k): v for k, v in failures.items()}, "record": record, "environment": env},
        indent=1, default=str))
    print(json.dumps(result))


def run_child(workload, seed, seconds, trace):
    """One workload in a fresh process: (summary lines, result or None, exit code)."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        stdout=subprocess.PIPE, text=True, cwd=ROOT)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        return lines, None, proc.returncode or 1
    return lines[:-1], json.loads(lines[-1]), 0


def run_all(args):
    """Every workload in turn, each in its own process."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in WORKLOADS:
        lines, result, code = run_child(name, args.seed, args.seconds, args.trace)
        print("\n".join(lines))
        if result is None:
            status = code
            continue
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for key, value in result["metrics"].items():
            combined["metrics"][f"{name}/{key}"] = value
    print(json.dumps(combined))
    return status


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "coneasym" / "__init__.py").is_file():
        print(f"perfbench: no program sources at {SRC}; run inside a full checkout", file=sys.stderr)
        return 2
    pin_environment()
    if args.workload == "all":
        return run_all(args)
    workload = WORKLOADS[args.workload]()
    workdir = OUT / f"work-{args.workload}-s{args.seed}-{os.getpid()}"
    try:
        if args.setup_only:
            print(json.dumps({"setup_s": timed_setup(workload, args.seed, workdir)}))
            return 0
        setup_times = [timed_setup(workload, args.seed, workdir)]
        setup_times += [child_setup(args) for _ in range(SETUP_REPEATS - 1)]
        run = traced_run if args.trace else untraced_run
        report(workload, args, *run(workload, args, setup_times))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
