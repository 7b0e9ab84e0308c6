"""The benchmark's three workloads.

Each workload is a closed loop with one client in one process: the next
operation starts when the previous one has returned.  Inputs come from the
seed alone, and the program sees only those inputs.  ``run`` performs one
operation; ``check`` verifies outputs after the timed loop, so checking
counts toward neither set-up nor operation times.  A failure is recorded
as ``(reason, known_defect)``; ``known_defect`` marks a documented defect
that the benchmark reports instead of hiding (see ``InverseCli``).
"""

import json
import math
import os
import random
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REL_TOL = 1e-9
# Relative move of one input per replayed pass: far below any tolerance.
VARY_STEP = 2.0 ** -40

# Cross-sections with closed-form spectra: name -> (n, eigenvalue of mode j).
SPECTRA = {
    "circle_r=1/2": (1, lambda j: -4.0 * j * j),
    "s2": (2, lambda j: -float(j * (j + 1))),
    "s3": (3, lambda j: -float(j * (j + 2))),
}


def _vdc(k, base):
    """k-th term of the van der Corput sequence in ``base``."""
    out, scale = 0.0, 1.0
    while k:
        scale /= base
        out += scale * (k % base)
        k //= base
    return out


def _dithered(k, base, rng):
    """``_vdc(k, base)`` moved by up to 1/128 at random, reflected at 0 and 1.

    The benchmark draws its continuous inputs from these and its discrete
    choices from plain ``_vdc`` in other bases, so each input stream walks a
    Halton sequence.  Any run covers the input space evenly whatever its
    length, and seeds differ only in small moves of the same points, so the
    mix of costly and cheap inputs does not hinge on which few points a seed
    happens to draw.
    """
    u = abs(_vdc(k, base) + rng.uniform(-1 / 128, 1 / 128))
    return min(2.0 - u if u > 1.0 else u, 0.999999)


class Workload:
    name = ""
    trace_len = 0
    timed_len = 0

    def setup(self, seed, workdir):
        """Import the program and build everything the timed loop needs."""
        raise NotImplementedError

    def stream(self):
        """Endless, seed-determined sequence of operations (dicts with an ``id``)."""
        raise NotImplementedError

    def trace_ops(self):
        """Fixed operation list that each traced pass replays."""
        ops = self.stream()
        return [next(ops) for _ in range(self.trace_len)]

    def timed_ops(self):
        """Fixed operation list that each untraced pass replays."""
        ops = self.stream()
        return [next(ops) for _ in range(self.timed_len)]

    def vary(self, op, passes):
        """``op`` as replayed after ``passes`` earlier passes: the same work
        on inputs no earlier pass used."""
        return op

    def run(self, op, tracer=None):
        raise NotImplementedError

    def points(self, op):
        return 1

    def check(self, done, failures):
        """Verify outputs of ``done`` [(op, output)]; add to ``failures``.
        Returns a dict of notes on the check itself, printed with the run."""
        raise NotImplementedError

    def peak_rss_mb(self):
        import resource
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class HeatSweep(Workload):
    """One op: heat_mode on one (cross-section, mode, t, profile) task over
    a 1e-4..1e-1 log grid of 8..24 points per decade.  Tasks cycle through
    every (cross-section, profile, mode) stratum in a seeded order, so each
    run sees the same mix.  The c-th visit of stratum i takes log t and the
    grid size from Halton point c * 54 + i + 1, which the seed only
    dithers (``_dithered``): an op list of whole cycles covers those two
    cost drivers alike for every seed, while the seed draws the support.
    The grid size keeps op costs a continuum, so the median op does not
    sit on a cliff between strata."""

    name = "heat_sweep"
    trace_len = 54  # one full cycle of strata
    timed_len = 162
    sample_size = 8

    def setup(self, seed, workdir):
        import numpy as np
        from coneasym import conesolve, errors
        self.np, self.cs, self.errors, self.seed = np, conesolve, errors, seed
        self.run(next(self.stream()))  # first-call costs belong to set-up

    def problem(self, op):
        n, lam = SPECTRA[op["cross_section"]]
        profile = self.cs.RadialProfile(op["shape"], op["lo"], op["hi"], op["center"], op["width"])
        return self.cs.ModeProblem(n=n, lam=lam(op["mode"]), t=op["t"], profile=profile)

    def grid(self, op):
        return self.cs.default_grid((-4, -1), op["per_decade"])

    def run(self, op, tracer=None):
        return self.cs.heat_mode(self.problem(op), self.grid(op), rel_tol=REL_TOL)

    def vary(self, op, passes):
        return dict(op, t=op["t"] * (1.0 + passes * VARY_STEP))

    def points(self, op):
        return len(self.grid(op))

    def stream(self):
        rng = random.Random(self.seed)
        strata = [(c, p, j) for c in SPECTRA for p in ("bump", "gaussian", "indicator") for j in range(6)]
        order = list(range(len(strata)))
        t_lo, t_hi = math.log(0.25), math.log(4.0)
        op_id, cycle = 0, 0
        while True:
            rng.shuffle(order)
            for i in order:
                cross_section, shape, mode = strata[i]
                k = cycle * len(strata) + i + 1  # this stratum visit's Halton index
                lo = rng.uniform(0.75, 1.25)
                hi = lo + rng.uniform(0.75, 1.25)
                yield {
                    "id": op_id, "cross_section": cross_section, "mode": mode, "shape": shape,
                    "per_decade": 8 + int(17 * _dithered(k, 3, rng)),
                    "t": math.exp(t_lo + _dithered(k, 2, rng) * (t_hi - t_lo)),
                    "lo": lo, "hi": hi, "center": rng.uniform(lo, hi),
                    "width": rng.uniform(0.15, 0.35) * (hi - lo),
                }
                op_id += 1
            cycle += 1

    def check(self, done, failures):
        """Re-solve a seeded sample at rel_tol/100; values must agree within
        10 rel_tol, or within an absolute floor for values near underflow,
        and the smallest-x value must match the exact small-x series.  A
        point whose re-solve raises QuadratureFailure has no reference: it
        is counted as skipped and the next point takes its place, up to
        three tries per checked point."""
        np = self.np
        rng = random.Random(self.seed * 7919 + 1)
        pool = [(op, sol) for op, sol in done if op["id"] not in failures]
        rng.shuffle(pool)
        skipped = checked = 0
        for op, sol in pool[:3 * self.sample_size]:
            if checked == self.sample_size:
                break
            try:
                ref = self.cs.heat_mode(self.problem(op), self.grid(op), rel_tol=REL_TOL / 100).values
            except self.errors.QuadratureFailure:
                skipped += 1
                continue
            checked += 1
            err = np.abs(sol.values - ref)
            if (err > 10 * REL_TOL * np.abs(ref) + 1e-290).any():
                failures[op["id"]] = (f"value off the rel_tol/100 re-solve by {float(err.max()):.3e}", False)
                continue
            x0 = float(sol.x[0])
            series = self.cs.heat_small_x_series(self.problem(op), num_terms=3)
            predicted = sum(c * x0**e for e, c in series)
            rel = abs(float(sol.values[0]) - predicted) / abs(predicted)
            if not rel < 1e-8:
                failures[op["id"]] = (f"small-x series disagrees by {rel:.3e} at x={x0:g}", False)
        return {"references_skipped": skipped}


class ResolventSweep(Workload):
    """One op: resolvent_mode with 160 points on one ray and modulus.

    Ops walk sectorial_sweep's three rays and three moduli in its order, on
    its grid (x on geomspace(1e-3, 2 hi, 160)), and each op has its own
    n, lam_mode and bump support [lo, hi]: lo in [4.5, 6] and hi in
    [10.5, 15.75], so |lam| = 1 is already in the sectorial regime.  Op k
    takes them from Halton point k, which the seed dithers (``_dithered``)
    in lam_mode and the support: every op list covers the cost drivers
    alike whatever the seed.

    Cost hinges on how close a grid point sits inside a support edge.  At a
    gap of 0.03%..0.3% of the support width (EDGE_WINDOW) the adaptive
    integral over that sliver refines to thousands of panels.  Measured on
    500 ops with uniformly random supports, n and lam_mode: the 42 ops with
    a gap in the window took 1.08 s on average, 13.6 times the median op;
    the 48 with a gap of 0.3%..0.5% took 1.6 times the median.  Uniformly
    random supports put a gap in the window on 10.8% of ops (6.35% at the
    lower edge, 4.66% at the upper; 200,000 supports).  Left to chance, a
    20-second run of about 110 ops would meet 12 +- 3 such ops (binomial
    standard deviation), each worth about 13 others; so the share is fixed
    at that rate instead.  Supports are drawn with no gap in the window,
    and one op in each group of nine (NEAR_EDGE_EVERY), at a ray and
    modulus that rotate from group to group, moves the grid point nearest
    one edge to a gap inside the window: the lower edge for 59% of them.
    Gap, edge, n, lam_mode and support of these ops walk a Halton
    sequence, the same for every seed: their cost jumps between 0.05 s and
    3 s when the inputs move by 1e-4, so any seeded move of them would add
    noise and nothing else.  The seed dithers the other eight ops of each
    group.
    """

    name = "resolvent_sweep"
    trace_len = 18  # two groups, two near-edge ops among them
    timed_len = 27
    RAYS = (0.0, 0.75 * math.pi, -0.75 * math.pi)
    MODULI = (1.0, 10.0, 100.0)
    POINTS = 160
    EDGE_WINDOW = (3e-4, 3e-3)
    NEAR_EDGE_EVERY = 9
    LOWER_SHARE = 0.0635 / (0.0635 + 0.0466)

    def setup(self, seed, workdir):
        import numpy as np
        from coneasym import conesolve
        self.np, self.cs, self.seed = np, conesolve, seed
        self.run(next(op for op in self.stream() if not op["edge"]))  # an ordinary op

    def grid(self, op):
        xs = self.np.geomspace(1e-3, 2.0 * op["hi"], self.POINTS)
        if op["edge"]:
            inside = self.np.flatnonzero((xs > op["lo"]) & (xs < op["hi"]))
            width = op["hi"] - op["lo"]
            if op["edge"] == "lower":
                xs[inside[0]] = op["lo"] + op["edge_gap"] * width
            else:
                xs[inside[-1]] = op["hi"] - op["edge_gap"] * width
        return xs

    def _support(self, rng, k):
        """(lo, hi) at Halton point k, with no grid point inside the support
        within EDGE_WINDOW of an edge.  A dither may not get a point out of
        the window, so a rejected point gives way to a distant one."""
        np = self.np
        g_lo, g_hi = self.EDGE_WINDOW
        for k in range(k, k + 100 * 1_000_003, 1_000_003):
            lo, hi = 4.5 + 1.5 * _dithered(k, 2, rng), 10.5 + 5.25 * _dithered(k, 5, rng)
            xs = np.geomspace(1e-3, 2.0 * hi, self.POINTS)
            inside = xs[(xs > lo) & (xs < hi)]
            gaps = np.array([inside[0] - lo, hi - inside[-1]]) / (hi - lo)
            if not np.any((gaps >= g_lo) & (gaps <= g_hi)):
                return lo, hi
        raise RuntimeError(f"no support out of the edge window near Halton point {k}")

    def stream(self):
        rng = random.Random(self.seed)
        g_lo, g_hi = self.EDGE_WINDOW
        op_id, near = 0, 0
        while True:
            group = op_id // self.NEAR_EDGE_EVERY
            for place, (theta, modulus) in enumerate((t, m) for t in self.RAYS for m in self.MODULI):
                # Halton index of n, lam_mode and support; no base 3, which
                # would repeat with the nine rays and moduli.
                k = op_id + 1
                lo, hi = self._support(rng, k)
                op = {"id": op_id, "n": (1, 2, 3)[int(3 * _vdc(k, 7))], "lam_mode": -15.0 * _dithered(k, 11, rng),
                      "lo": lo, "hi": hi, "theta": theta, "modulus": modulus, "edge": None}
                if place == group % self.NEAR_EDGE_EVERY:
                    # Overrides the draws above, which are made anyway so
                    # that the other ops' inputs do not shift with it.
                    near += 1
                    op.update(edge="lower" if _vdc(near, 3) < self.LOWER_SHARE else "upper",
                              edge_gap=g_lo + _vdc(near, 2) * (g_hi - g_lo),
                              n=(1, 2, 3)[int(3 * _vdc(near, 5))], lam_mode=-15.0 * _vdc(near, 7),
                              lo=4.5 + 1.5 * _vdc(near, 11), hi=10.5 + 5.25 * _vdc(near, 13))
                yield op
                op_id += 1

    def _solve(self, op, x_eval, modulus=None):
        import cmath
        lam = (modulus or op["modulus"]) * cmath.exp(1j * op["theta"])
        profile = self.cs.RadialProfile("bump", op["lo"], op["hi"])
        return self.cs.resolvent_mode(op["n"], op["lam_mode"], lam, profile, x_eval)

    def run(self, op, tracer=None):
        return self._solve(op, self.grid(op))

    def vary(self, op, passes):
        return dict(op, modulus=op["modulus"] * (1.0 + passes * VARY_STEP))

    def points(self, op):
        return self.POINTS

    def check(self, done, failures):
        """On two seeded ops: the sectorial uniformity flag on the op's ray
        (the other moduli solved again on the same grid), and the residual
        of a re-solve on a uniform grid."""
        np = self.np
        rng = random.Random(self.seed * 7919 + 2)
        candidates = [(op, sol) for op, sol in done if op["id"] not in failures]
        for op, sol in rng.sample(candidates, min(2, len(candidates))):
            sups = [m * float(np.max(np.abs(
                        (sol if m == op["modulus"] else self._solve(op, self.grid(op), m)).values)))
                    for m in self.MODULI]
            if not max(sups) / min(sups) < 2.0:
                failures[op["id"]] = (f"sectorial uniformity lost: ratio {max(sups) / min(sups):.3f}", False)
                continue
            width = op["hi"] - op["lo"]
            xs = np.linspace(op["lo"] + 0.3 * width, op["lo"] + 0.7 * width, 101)
            fine = self._solve(op, xs)
            profile = self.cs.RadialProfile("bump", op["lo"], op["hi"])
            res = self.cs.resolvent_residual(op["n"], op["lam_mode"], fine.lam, xs, fine.values, profile(xs))
            # A wrong solution leaves a residual of the order of f (peak 1);
            # quadrature noise amplified by the stencil stays below 1e-6.
            if not res < 1e-5:
                failures[op["id"]] = (f"resolvent residual {res:.3e} on a uniform re-solve", False)
        return {}


# --- inverse loop through the command line -------------------------------

CUSTOM = {
    "customA": {"n": 3, "eigenvalues": [0, -3, -7, -15, -35, -63, -120, -168],
                "multiplicities": [1, 4, 2, 1, 2, 1, 2, 1]},
    "customB": {"n": 2, "eigenvalues": [0, "-5/2", -6, "-49/4", -30, -56, -90, "-575/4"],
                "multiplicities": [1, 2, 1, 2, 1, 2, 1, 1]},
}
# Template corpus: CLI arguments naming each cross-section.
CORPUS = {
    "s1": ["--cross-section", "s1"],
    "s2": ["--cross-section", "s2"],
    "s3": ["--cross-section", "s3"],
    "s4": ["--cross-section", "s4"],
    "circle_r=1/2": ["--cross-section", "circle", "--radius", "1/2"],
    "circle_r2=1/2": ["--cross-section", "circle", "--radius-squared", "1/2"],
    "customA": ["--custom", "customA.json"],
    "customB": ["--custom", "customB.json"],
}
# s1 is the unit circle: its admissible weight window is empty, so the
# correct outcome is exit 3 (window violation), not a template.
EXPECTED_EXIT = {"s1": 3}
# (corpus entry, gamma, k) -> golden file under tests/data.
GOLDEN = {
    ("s2", "0", 3): "template_s2_g0_k3.json",
    ("customA", "1/4", 4): "template_customA_g14_k4.json",
}
# The README scenario: circle of radius 1/2, modes 0-3, t in {0.5, 1, 2}.
README_SCENARIO = {
    "cross_section": {"name": "circle", "radius": "1/2", "j_max": 8},
    "gamma": 0, "k": 3, "modes": [0, 1, 2, 3],
    "profile": {"shape": "bump", "support": [1.0, 2.0]},
    "t": [0.5, 1.0, 2.0],
    "x_grid": {"decades": [-4, -1], "points_per_decade": 16},
    "rel_tol": 1e-9,
}
# How far from an even shift of its mode's leading exponent a peel exponent
# may lie and still be the item-4 ghost: half the spacing of the shifts.
SHIFT_SLACK = 0.5
CLI_ENTRY = "import sys; from coneasym.cli import main; sys.exit(main())"


class InverseCli(Workload):
    """One op: one cold ``coneasym`` process, run to completion.

    A round is six ``template --check`` ops over the seeded corpus, then
    ``fit`` and ``recover`` on the README scenario and on one seeded circle
    scenario, whose solution CSVs and fit reports are made at set-up.

    Known defect (ROADMAP item 4): on the README scenario ``recover``
    reports lambda = -3.932 next to the true -4.  Its provenance is mode
    0's second peel (peel_index 1) at exponent 1.983: the even shift 2 of
    mode 0's leading exponent 0, missed by match_tol = 1e-2 and read as a
    new eigenvalue.  Seeded scenarios show the same ghost whether or not
    mode 1 is solved: on 200 seeds, 40 seeded scenarios did, every ghost
    from mode 0's peel 1, at exponents 1.787..2.091 (lambda -3.19..-4.37).
    Every recover op whose summary holds an eigenvalue the solved modes do
    not have fails; ``known_defect`` is set only when each such eigenvalue
    comes from a peel_index >= 1 exponent within SHIFT_SLACK of an even
    shift 2m (m >= 1) above its own mode's leading exponent.  A ghost of
    any other origin, or a missed eigenvalue, is an unexpected failure.
    The scenarios are never altered to avoid the defect.
    """

    name = "inverse_cli"
    timed_len = 10  # one round

    def setup(self, seed, workdir):
        from coneasym import cli
        self.seed, self.workdir = seed, Path(workdir)
        self.workdir.mkdir(parents=True, exist_ok=True)
        for name, spec in CUSTOM.items():
            (self.workdir / f"{name}.json").write_text(json.dumps({"name": name, **spec}))
        rng = random.Random(seed)
        modes = sorted(rng.sample(range(4), rng.choice((2, 3))))
        lo = rng.uniform(0.8, 1.2)
        seeded = dict(README_SCENARIO, modes=modes,
                      t=sorted(round(math.exp(rng.uniform(math.log(0.5), math.log(2.0))), 6) for _ in range(3)),
                      profile={"shape": "bump", "support": [lo, lo + rng.uniform(0.8, 1.2)]})
        self.scenarios = {"readme": README_SCENARIO, "seeded": seeded}
        for tag, scenario in self.scenarios.items():
            path = self.workdir / f"{tag}.scenario.json"
            path.write_text(json.dumps(scenario))
            for argv in (["solve", "--scenario", str(path), "--out", str(self.workdir / f"{tag}.csv")],
                         ["fit", "--csv", str(self.workdir / f"{tag}.csv"),
                          "--out", str(self.workdir / f"{tag}.fits.jsonl")]):
                code = cli.main(argv)
                if code != 0:
                    raise RuntimeError(f"set-up command {argv[0]} exited {code}")
        self.env = dict(os.environ)
        self.child_rss_kb = 0
        self.spurious = 0

    def stream(self):
        rng = random.Random(self.seed + 1)
        corpus = [(c, "midpoint", k) for c in CORPUS for k in (3, 4, 5)]
        rng.shuffle(corpus)
        corpus = [(c, g, k) for (c, g, k) in GOLDEN] + corpus
        op_id, position = 0, 0
        while True:
            for _ in range(6):
                entry = corpus[position % len(corpus)]
                position += 1
                yield {"id": op_id, "kind": "template", "entry": entry}
                op_id += 1
            for tag in ("readme", "seeded"):
                for kind in ("fit", "recover"):
                    yield {"id": op_id, "kind": kind, "scenario": tag}
                    op_id += 1

    def trace_ops(self):
        """Both golden templates, one more corpus template, README fit and recover."""
        ops = self.stream()
        first_round = [next(ops) for _ in range(8)]
        return first_round[:3] + first_round[6:8]

    def vary(self, op, passes):
        """Each pass writes its own output files, so that the first pass's
        outputs are still there to be checked."""
        return dict(op, passes=passes)

    def _file(self, op, suffix):
        return self.workdir / f"op{op['id']}.{op.get('passes', 0)}.{suffix}"

    def argv(self, op):
        out = str(self._file(op, "out"))
        if op["kind"] == "template":
            entry, gamma, k = op["entry"]
            return ["template", *CORPUS[entry], "--gamma", gamma, "--k", str(k), "--check", "--out", out]
        tag = op["scenario"]
        if op["kind"] == "fit":
            return ["fit", "--csv", str(self.workdir / f"{tag}.csv"), "--out", out]
        scenario = self.scenarios[tag]
        return ["recover", "--fits", str(self.workdir / f"{tag}.fits.jsonl"), "--n", "1",
                "--gamma", str(scenario["gamma"]), "--k", str(scenario["k"]), "--out", out]

    def run(self, op, tracer=None):
        argv = self.argv(op)
        if tracer is None:
            cmd = [sys.executable, "-c", CLI_ENTRY, *argv]
        else:
            spans_path = self._file(op, "spans.json")
            cmd = [sys.executable, str(HERE / "cli_runner.py"), str(spans_path), *argv]
        with open(self._file(op, "err"), "w") as err:
            proc = subprocess.Popen(cmd, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                                    stderr=err, env=self.env, cwd=self.workdir)
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        if tracer is None:
            self.child_rss_kb = max(self.child_rss_kb, usage.ru_maxrss)
        elif spans_path.exists():
            tracer.merge(json.loads(spans_path.read_text()), op["id"])
        return {"returncode": proc.returncode, "out": self._file(op, "out"), "err": self._file(op, "err")}

    def peak_rss_mb(self):
        return self.child_rss_kb / 1024.0

    def check(self, done, failures):
        self.spurious = 0
        for op, res in done:
            if op["id"] in failures:
                continue
            reason = self._check_one(op, res)
            if reason:
                failures[op["id"]] = reason
        return {}

    def _check_one(self, op, res):
        if op["kind"] == "template":
            entry, gamma, k = op["entry"]
            expected = EXPECTED_EXIT.get(entry, 0)
            if res["returncode"] != expected:
                return (f"template {entry} k={k} exited {res['returncode']}, expected {expected}", False)
            if expected:
                return None
            payload = json.loads(res["out"].read_text())
            payload.pop("generator", None)
            if not payload.get("terms"):
                return (f"template {entry} k={k} has no terms", False)
            golden = GOLDEN.get(op["entry"])
            if golden and (ROOT / "tests" / "data" / golden).exists():
                if payload != json.loads((ROOT / "tests" / "data" / golden).read_text()):
                    return (f"template {entry} k={k} differs from tests/data/{golden}", False)
            return None
        if res["returncode"] != 0:
            return (f"{op['kind']} exited {res['returncode']}", False)
        tag = op["scenario"]
        if op["kind"] == "fit":
            if res["out"].read_bytes() != (self.workdir / f"{tag}.fits.jsonl").read_bytes():
                return (f"fit on {tag} differs from the set-up fit of the same CSV", False)
            return None
        truth = [-4.0 * j * j for j in self.scenarios[tag]["modes"]]
        recovered = json.loads(res["out"].read_text())["recovered"]
        close = lambda a, b: abs(a - b) <= 1e-3 * max(1.0, abs(b))
        missing = [lam for lam in truth if not any(close(e["lambda"], lam) for e in recovered)]
        if missing:
            return (f"recover on {tag} missed eigenvalues {missing}", False)
        spurious = [e for e in recovered if not any(close(e["lambda"], lam) for lam in truth)]
        self.spurious += len(spurious)
        if spurious:
            known = all(self._is_shift_ghost(e["provenance"]) for e in spurious)
            origins = [(round(e["lambda"], 4), e["provenance"].get("mode_j"), e["provenance"].get("peel_index"),
                        round(e["provenance"].get("exponent", math.nan), 4)) for e in spurious]
            return (f"recover on {tag} reported unsupported eigenvalues "
                    f"(lambda, mode_j, peel_index, exponent) {origins}", known)
        return None

    @staticmethod
    def _is_shift_ghost(provenance):
        """Whether a spurious eigenvalue is item 4's ghost: a later peel of
        mode j whose exponent sits near 2j + 2m, m >= 1.  On the circle of
        radius 1/2 (n = 1, gamma 0) mode j's leading exponent is 2j."""
        if provenance.get("peel_index", 0) < 1 or "exponent" not in provenance:
            return False
        offset = provenance["exponent"] - 2.0 * provenance["mode_j"]
        shift = 2 * round(offset / 2)
        return shift >= 2 and abs(offset - shift) < SHIFT_SLACK


WORKLOADS = {w.name: w for w in (HeatSweep, InverseCli, ResolventSweep)}
