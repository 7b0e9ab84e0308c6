"""CLI subcommands: round trips, determinism, exit codes."""

import json
import math
import time
import warnings
from pathlib import Path

import pytest

from coneasym import cli
from coneasym.cli import EXIT_CODES, build_cross_section, main, scenario_tasks
from coneasym.errors import ScenarioError
from coneasym.recovery import FitReport, reports_to_jsonl

SCENARIO = {
    "cross_section": {"name": "circle", "radius": "1/2", "j_max": 3},
    "modes": [0, 1],
    "gamma": 0.0,
    "k": 3,
    "profile": {"shape": "bump", "support": [1.0, 2.0]},
    "t": [1.0],
    "x_grid": {"decades": [-4, -1], "points_per_decade": 16},
}


def _write_scenario(tmp_path, data=None):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(data or SCENARIO))
    return str(path)


def test_build_cross_section_variants():
    assert build_cross_section({"name": "s2", "j_max": 4}).n == 2
    assert build_cross_section({"name": "circle", "radius": "2/3", "j_max": 2}).n == 1
    custom = build_cross_section(
        {"name": "custom", "n": 2, "eigenvalues": [0, -2], "multiplicities": [1, 3]}
    )
    assert custom.multiplicities == (1, 3)


def test_scenario_validation(tmp_path):
    tasks, grid, rel_tol = scenario_tasks(SCENARIO)
    assert [(j, problem.t) for j, problem in tasks] == [(0, 1.0), (1, 1.0)]
    assert [problem.lam for _, problem in tasks] == [0.0, -4.0]
    assert grid.size == 49 and rel_tol == 1e-9

    bad = dict(SCENARIO, gamma=5.0)
    with pytest.raises(Exception):
        scenario_tasks(bad)
    for decades in ([-4], [-4, -1, 5], [-1, -2], [-2, -2]):
        with pytest.raises(ScenarioError):
            scenario_tasks(dict(SCENARIO, x_grid={"decades": decades}))
    for per_decade in (0, -3, 2.7):
        with pytest.raises(ScenarioError):
            scenario_tasks(dict(SCENARIO, x_grid={"decades": [-4, -1], "points_per_decade": per_decade}))
    for empty in ({"modes": []}, {"t": []}):
        with pytest.raises(ScenarioError, match="must list at least one"):
            scenario_tasks(dict(SCENARIO, **empty))
    assert scenario_tasks(dict(SCENARIO, x_grid={"decades": [-2, -1], "points_per_decade": 1}))[1].size == 2


def test_template_json_output(tmp_path, capsys):
    assert main(["template", "--cross-section", "s2", "--gamma", "0", "--k", "3", "--check"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["generator"].startswith("coneasym ")
    assert payload["n"] == 2
    assert [t["exponent"] for t in payload["terms"]] == [0, 1, 2, 3, 4]


def test_template_midpoint_gamma(capsys):
    assert main(["template", "--cross-section", "s3", "--k", "2"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["gamma"] == 0.5  # midpoint of the (0, 1) window


def test_full_pipeline(tmp_path, capsys):
    scenario = _write_scenario(tmp_path)
    csv_path = str(tmp_path / "sol.csv")
    fits_path = str(tmp_path / "fits.jsonl")
    out_path = str(tmp_path / "recovered.json")

    assert main(["solve", "--scenario", scenario, "--out", csv_path]) == 0
    text = Path(csv_path).read_text()
    assert text.startswith("# coneasym ")
    assert text.splitlines()[1] == "mode_j,nu,t,x,value"

    assert main(["fit", "--csv", csv_path, "--out", fits_path]) == 0
    assert main([
        "recover", "--fits", fits_path, "--n", "1", "--gamma", "0.0", "--k", "3",
        "--out", out_path,
    ]) == 0
    summary = json.loads(Path(out_path).read_text())
    lams = sorted(entry["lambda"] for entry in summary["recovered"])
    assert lams == pytest.approx([-4.0, 0.0], abs=1e-8)
    assert summary["flagged"] == []


def test_readme_scenario_recovers_exact_spectrum(tmp_path):
    """The README circle (modes 0-3, t in {0.5, 1, 2}) recovers 0, -4, -16
    and -36 to 1e-8 and nothing else; fit is byte-identical when rerun."""
    scenario = _write_scenario(tmp_path, dict(SCENARIO, cross_section={"name": "circle", "radius": "1/2", "j_max": 8},
                                              modes=[0, 1, 2, 3], t=[0.5, 1.0, 2.0]))
    csv_path = str(tmp_path / "sol.csv")
    fits = [str(tmp_path / "a.jsonl"), str(tmp_path / "b.jsonl")]
    out_path = str(tmp_path / "recovered.json")
    assert main(["solve", "--scenario", scenario, "--out", csv_path]) == 0
    for path in fits:
        assert main(["fit", "--csv", csv_path, "--out", path]) == 0
    assert Path(fits[0]).read_text() == Path(fits[1]).read_text()
    assert main(["recover", "--fits", fits[0], "--n", "1", "--gamma", "0", "--k", "3", "--out", out_path]) == 0
    summary = json.loads(Path(out_path).read_text())
    assert [e["lambda"] for e in summary["recovered"]] == pytest.approx([0.0, -4.0, -16.0, -36.0], abs=1e-8)
    assert summary["flagged"] == []
    for entry in summary["recovered"]:
        assert entry["provenance"]["peel_index"] == 0
        assert entry["provenance"]["t"] == [0.5, 1.0, 2.0]


@pytest.mark.parametrize("decades, t", [((-3, 0), [1.0]), ((-4, -1), [0.1])])
def test_recovers_where_the_ladder_is_truncated(tmp_path, decades, t):
    """A grid reaching x = 1 at t = 1, and the default grid at t = 0.1, put
    x y / 4t near 1/2 on the top decade, past a four-term ladder; fit keeps
    the lower decades and recover still gives exactly 0, -4, -16, -36."""
    scenario = _write_scenario(tmp_path, dict(SCENARIO, cross_section={"name": "circle", "radius": "1/2", "j_max": 8},
                                              modes=[0, 1, 2, 3], t=t,
                                              x_grid={"decades": list(decades), "points_per_decade": 16}))
    csv_path, fits_path, out_path = (str(tmp_path / name) for name in ("sol.csv", "fits.jsonl", "rec.json"))
    assert main(["solve", "--scenario", scenario, "--out", csv_path]) == 0
    assert main(["fit", "--csv", csv_path, "--out", fits_path]) == 0
    assert main(["recover", "--fits", fits_path, "--n", "1", "--gamma", "0", "--k", "3", "--out", out_path]) == 0
    summary = json.loads(Path(out_path).read_text())
    assert [e["lambda"] for e in summary["recovered"]] == pytest.approx([0.0, -4.0, -16.0, -36.0], abs=1e-8)
    assert summary["flagged"] == []


def test_solve_is_deterministic(tmp_path):
    scenario = _write_scenario(tmp_path)
    a, b = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
    assert main(["solve", "--scenario", scenario, "--out", a]) == 0
    assert main(["solve", "--scenario", scenario, "--out", b]) == 0
    assert Path(a).read_text() == Path(b).read_text()


def test_solve_small_t_inside_wide_support(tmp_path):
    """At t = 1e-6 the solution's Gaussian is 2e-3 wide on a support [1, 5]:
    both points converge to values of about 1, and solve exits 0."""
    scenario = _write_scenario(tmp_path, dict(SCENARIO, modes=[0], t=[1e-6],
                                              profile={"shape": "indicator", "support": [1.0, 5.0]},
                                              x_grid={"points": [1.5, 3.0]}))
    out = str(tmp_path / "sol.csv")
    assert main(["solve", "--scenario", scenario, "--out", out]) == 0
    values = [float(line.split(",")[-1]) for line in Path(out).read_text().splitlines()[2:]]
    assert values == pytest.approx([1.0, 1.0], abs=1e-8)


def test_exit_codes(tmp_path, capsys):
    assert main(["template", "--cross-section", "s2", "--gamma", "3.0", "--k", "3"]) == EXIT_CODES["window"]
    assert main(["template", "--cross-section", "s2", "--gamma", "0", "--k", "1"]) == EXIT_CODES["k_too_small"]
    assert main(
        ["template", "--cross-section", "s2", "--gamma", "0", "--k", "2", "--text", "--s", "-4"]
    ) == EXIT_CODES["continuity"]
    assert main(["solve", "--scenario", str(tmp_path / "absent.json")]) == EXIT_CODES["scenario"]
    bad = _write_scenario(tmp_path, dict(SCENARIO, modes=[7]))
    assert main(["solve", "--scenario", bad]) == EXIT_CODES["scenario"]
    for non_finite in (
        {"x_grid": {"points": [1e-3, math.inf]}},
        {"x_grid": {"decades": [-4, math.inf]}},
        {"t": [math.inf]},
        {"profile": {"shape": "bump", "support": [1.0, math.inf]}},
        {"rel_tol": math.nan},
    ):
        bad = _write_scenario(tmp_path, dict(SCENARIO, **non_finite))
        assert main(["solve", "--scenario", bad]) == EXIT_CODES["scenario"]
    with pytest.raises(SystemExit) as err:
        main(["fit"])  # missing required argument
    assert err.value.code == EXIT_CODES["usage"]
    old_fits = tmp_path / "old.jsonl"
    old_fits.write_text(
        '{"generator": "coneasym 0.1.0"}\n'
        '{"exponent": 2.0, "stderr": 1e-12, "coefficient": 1.5, "log_coefficient_ratio": 0.0,'
        ' "residual_rms": 1e-15, "n_samples": 17, "window": [0.0001, 0.001], "peel_index": 0,'
        ' "mode_j": 1, "t": 1.0}\n'
    )
    capsys.readouterr()
    assert main(["recover", "--fits", str(old_fits), "--n", "1", "--gamma", "0", "--k", "3"]) == EXIT_CODES["scenario"]
    assert "old peel format" in capsys.readouterr().err


@pytest.mark.parametrize("radius", ["--radius=-2/3", "--radius=-0.5", "--radius=0", "--radius=nan",
                                    "--radius-squared=-4/9", "--radius=inf", "--radius-squared=inf",
                                    "--radius=1e-170", "--radius=1e200", "--radius-squared=1e-320",
                                    "--radius-squared=1e308"])
def test_template_refuses_a_circle_radius_that_is_not_positive(capsys, radius):
    """--radius=-2/3 printed the r = 2/3 template with exit 0: a negative
    radius was squared before it was checked.  An infinite radius made
    every eigenvalue -0.0 and was refused for their order, naming no input.
    Float radii whose eigenvalues leave the doubles: r^2 rounding to 0
    (1e-170) and overflowing (1e200) exited 1 with a traceback; r^2 =
    1e-320 made -(j/r)^2 -inf and r^2 = 1e308 made it 0 within 1e-12, both
    refused for the eigenvalues' order, naming no input."""
    assert main(["template", "--cross-section", "circle", radius, "--k", "3"]) == EXIT_CODES["spectrum"]
    captured = capsys.readouterr()
    given = radius[2:].split("=")[0].replace("-", "_")
    assert captured.out == "" and "radius must be finite and positive" in captured.err
    assert f"got {given} " in captured.err


@pytest.mark.parametrize("field", ["radius", "gamma", "eigenvalue"])
def test_zero_denominator_is_a_scenario_error(tmp_path, capsys, field):
    """A fraction over zero is malformed input (exit 11) that names its
    field, not a ZeroDivisionError traceback (exit 1)."""
    argv = ["template", "--k", "3"]
    if field == "radius":
        argv += ["--cross-section", "circle", "--radius", "1/0"]
    elif field == "gamma":
        argv += ["--cross-section", "s2", "--gamma", "1/0"]
    else:
        custom = tmp_path / "custom.json"
        custom.write_text(json.dumps({"n": 2, "eigenvalues": [0, "-1/0"], "multiplicities": [1, 3]}))
        argv += ["--custom", str(custom)]
    assert main(argv) == EXIT_CODES["scenario"]
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith(f"error: {field} ") and "zero denominator" in captured.err


@pytest.mark.parametrize("gamma", ["nan", "inf", "-inf"])
def test_recover_rejects_non_finite_gamma_before_reading_fits(tmp_path, gamma, capsys):
    """A non-finite --gamma is a scenario error (exit 11) that names gamma,
    raised before the fit file is read: here the file does not exist."""
    argv = ["recover", "--fits", str(tmp_path / "absent.jsonl"), "--n", "1", f"--gamma={gamma}", "--k", "3"]
    assert main(argv) == EXIT_CODES["scenario"]
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "gamma must be finite" in captured.err


_REPORT = FitReport(exponent=0.0, stderr=1e-15, step=2.0, step_stderr=1e-12, coefficients=(1.0, 0.5, 0.1, 0.01),
                    coefficient_stderr=(1e-15,) * 4, residual_rms=1e-15, n_samples=49, window=(1e-4, 0.1),
                    mode_j=0, t=1.0)


def test_recover_parses_gamma_as_template_does(tmp_path, capsys):
    """recover --gamma takes a fraction, as template --gamma does: 1/2
    writes what 0.5 writes, where argparse refused it (exit 2).  Text that
    is no number is a scenario error (exit 11)."""
    fits = tmp_path / "fits.jsonl"
    fits.write_text(reports_to_jsonl([_REPORT]))
    argv = ["recover", "--fits", str(fits), "--n", "1", "--k", "3", "--gamma"]
    outs = []
    for gamma in ("1/2", "0.5"):
        assert main(argv + [gamma]) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1] and json.loads(outs[0])["visible_mu_window"] == [-5.5, -1.5]
    assert main(argv + ["abc"]) == EXIT_CODES["scenario"]
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("flag, value, exit_key, message", [
    ("--k", "1", "k_too_small", "k >= 2"), ("--k", "-3", "k_too_small", "k >= 2"),
    ("--n", "0", "spectrum", "dimension must be a positive integer"),
    ("--n", "-1", "spectrum", "dimension must be a positive integer"),
])
def test_recover_checks_k_and_n_as_template_does(tmp_path, capsys, flag, value, exit_key, message):
    """recover rejects a power k < 2 (exit 4) and a cross-section dimension
    n < 1 (exit 10) with template's own checks, not with an empty summary."""
    fits = tmp_path / "fits.jsonl"
    fits.write_text(reports_to_jsonl([]))
    args = {"--n": "1", "--gamma": "0", "--k": "3", flag: value}
    argv = ["recover", "--fits", str(fits)] + [item for pair in args.items() for item in pair]
    assert main(argv) == EXIT_CODES[exit_key]
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err


@pytest.mark.parametrize("n", ["0", "-2"])
def test_check_resolvent_rejects_a_dimension_below_one(tmp_path, capsys, n):
    """check-resolvent takes --n through the solvers' dimension check: exit
    10 with the spectrum error, not a sweep on a cone of dimension n+1 < 2."""
    out = tmp_path / "sweep.json"
    assert main(["check-resolvent", "--n", n, "--out", str(out)]) == EXIT_CODES["spectrum"]
    assert not out.exists()
    assert "dimension must be a positive integer" in capsys.readouterr().err


def test_exact_top_eigenvalue_off_zero_is_a_spectrum_error(tmp_path, capsys):
    """An exact top eigenvalue of 1/10^15 is not 0: exit 10, no template."""
    custom = tmp_path / "custom.json"
    custom.write_text(json.dumps({"n": 1, "eigenvalues": ["1/1000000000000000", "-4", "-16", "-36"],
                                  "multiplicities": [1, 2, 2, 2]}))
    assert main(["template", "--custom", str(custom), "--gamma", "0", "--k", "3"]) == EXIT_CODES["spectrum"]
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "top eigenvalue must be 0" in captured.err


def test_custom_spectrum_is_custom_whatever_its_name(tmp_path, capsys):
    """A spec that lists eigenvalues is custom even when its name is that of
    a built-in cross-section: named s2, circle or sphere it gives the
    template it gives named x (not the round S^2 one, not exit 10 or 3)."""
    outputs = {}
    for name in ("x", "s2", "circle", "sphere"):
        custom = tmp_path / f"{name}.json"
        custom.write_text(json.dumps({"name": name, "n": 1, "eigenvalues": ["0", "-4", "-16", "-36"],
                                      "multiplicities": [1, 2, 2, 2]}))
        assert main(["template", "--custom", str(custom), "--gamma", "0", "--k", "3"]) == 0, name
        outputs[name] = capsys.readouterr().out
    assert outputs["s2"] == outputs["circle"] == outputs["sphere"] == outputs["x"]
    assert json.loads(outputs["x"])["n"] == 1


def test_solve_and_template_share_the_window_margin(tmp_path):
    """A float gamma 1e-13 below the window top of the circle r = 1/2 is
    rejected by solve as by template; the exact gamma 1 - 1/10^13 is inside."""
    gamma = 1 - 1e-13
    assert main(["template", "--cross-section", "circle", "--radius", "1/2", "--gamma", repr(gamma),
                 "--k", "3"]) == EXIT_CODES["window"]
    scenario = _write_scenario(tmp_path, dict(SCENARIO, gamma=gamma))
    assert main(["solve", "--scenario", scenario]) == EXIT_CODES["window"]
    tasks, _, _ = scenario_tasks(dict(SCENARIO, gamma="9999999999999/10000000000000"))
    assert len(tasks) == 2


@pytest.mark.parametrize("flag,value", [("--p", "0"), ("--p", "-1"), ("--p", "1"), ("--p", "inf"),
                                        ("--p", "nan"), ("--s", "inf"), ("--s", "nan")])
def test_template_text_rejects_s_and_p_outside_their_range(flag, value, capsys):
    """--text needs a finite s and 1 < p < inf: anything else is a typed
    scenario error (exit 11), not a traceback, a report or a continuity
    failure."""
    argv = ["template", "--cross-section", "s2", "--gamma", "0", "--k", "3", "--text", flag, value]
    assert main(argv) == EXIT_CODES["scenario"]
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "1 < p < inf" in captured.err


def test_selftest_subset(capsys):
    assert main(["selftest", "--criteria", "3,4"]) == 0
    out = capsys.readouterr().out
    assert out.count("PASS") == 2
    assert "all criteria passed" in out


@pytest.mark.parametrize("criteria", ["99", "3,99", "abc", "9"])
def test_selftest_rejects_unknown_criteria(criteria, capsys):
    """An id that names no criterion (9 was deleted) is a usage error that
    lists the valid ids, not a pass over nothing."""
    with pytest.raises(SystemExit) as err:
        main(["selftest", "--criteria", criteria])
    assert err.value.code == EXIT_CODES["usage"]
    captured = capsys.readouterr()
    assert "1, 2, 3, 4, 5, 6, 7, 8, 10, 11" in captured.err
    assert "PASS" not in captured.out


def test_check_resolvent_far_support(tmp_path):
    """|lam| = 100 on support [80, 90] puts sqrt(lam) xi at 900, where I_nu
    itself would overflow a double: the scaled Bessel pair still gives a
    uniform sweep."""
    out = str(tmp_path / "sweep.json")
    assert main(["check-resolvent", "--support", "80", "90", "--out", out]) == 0
    assert json.loads(Path(out).read_text())["uniform_within_factor_2"] is True


def test_check_resolvent_past_bessel_box_exits_domain(tmp_path):
    """A support past |z| = 1e4 leaves the Bessel box at |lam| = 1: exit 8
    from the first Bessel call, not after a sweep."""
    out = str(tmp_path / "sweep.json")
    start = time.perf_counter()
    assert main(["check-resolvent", "--support", "20000", "30000", "--out", out]) == EXIT_CODES["domain"]
    assert time.perf_counter() - start < 1.0


def test_check_resolvent_refuses_a_huge_mode_order_at_once(tmp_path):
    """--lam-mode -1e300 gives nu = 1e150, outside besselkit's order range:
    exit 8 before the solver cuts a single cell (each cell's decay rate
    would overflow to inf and every cell would halve on every pass)."""
    out = str(tmp_path / "sweep.json")
    start = time.perf_counter()
    assert main(["check-resolvent", "--lam-mode=-1e300", "--out", out]) == EXIT_CODES["domain"]
    assert time.perf_counter() - start < 1.0


def test_check_resolvent(tmp_path):
    out = str(tmp_path / "sweep.json")
    assert main(["check-resolvent", "--out", out]) == 0
    report = json.loads(Path(out).read_text())
    assert report["uniform_within_factor_2"] is True
    assert len(report["rays"]) == 3


_WRONG_TYPES = [
    ({"t": 1.0}, "t must be a list, got 1.0"), ({"modes": 1}, "modes must be a list, got 1"),
    ({"profile": {"support": 1}}, "profile support must be a list of 2, got 1"),
    ({"x_grid": {"points": 5}}, "x_grid points must be a list, got 5"),
    ({"cross_section": {"name": "circle", "radius": [1]}}, "radius must be a number, got [1]"),
    ({"cross_section": [1, 2]}, "cross_section must be a JSON object"),
    ({"profile": [1, 2]}, "profile must be a JSON object"),
    ({"x_grid": [1, 2]}, "x_grid must be a JSON object"),
    ({"cross_section": {"name": 7}}, "cross_section name must be a string"),
    ({"profile": {"support": [1.0]}}, "profile support must be a list of 2, got [1.0]"),
    ([1, 2], "scenario must be a JSON object, got [1, 2]"),
    ({"modes": 3}, "modes must be a list, got 3"),
    ({"x_grid": {"decades": 5}}, "x_grid decades must be a list of 2, got 5"),
    ({"cross_section": {"name": "custom", "n": 1, "multiplicities": [1, 2]}}, "eigenvalues must be a list, got None"),
    ({"t": [10**400]}, "t must be a number that fits a float, got an integer of 401 digits"),
]


@pytest.mark.parametrize("field, named", _WRONG_TYPES, ids=[f"field{i}" for i in range(len(_WRONG_TYPES))])
def test_solve_rejects_fields_of_the_wrong_json_type(tmp_path, capsys, field, named):
    """A scenario field of the wrong JSON type or length is a malformed
    scenario: exit 11 with a one-line error that names the field, no
    traceback and no output file; a cross section of the wrong type is one
    for `template --custom` too.  A list where an object belongs, and a name
    that is no string, exited 1 with an AttributeError, and a one-item
    support with an IndexError; "t": 1.0, a top-level list and a custom
    spectrum with no eigenvalues exited 11 with errors that named no field,
    and an integer too large for a float (10^400 as a time) exited 1 with an
    OverflowError.  A field that is a list replaces the whole scenario."""
    out = tmp_path / "sol.csv"
    scenario = _write_scenario(tmp_path, dict(SCENARIO, **field) if isinstance(field, dict) else field)
    assert main(["solve", "--scenario", scenario, "--out", str(out)]) == EXIT_CODES["scenario"]
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.startswith("error: ") and named in err and err.count("\n") == 1
    if "cross_section" in field:
        custom = tmp_path / "custom.json"
        custom.write_text(json.dumps(field["cross_section"]))
        assert main(["template", "--custom", str(custom), "--k", "3"]) == EXIT_CODES["scenario"]
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: ") and named in captured.err


@pytest.mark.parametrize("spec", [
    {"n": 1.5, "eigenvalues": [0, -4], "multiplicities": [1, 2]},
    {"n": True, "eigenvalues": [0, -4], "multiplicities": [1, 2]},
    {"n": 1, "eigenvalues": [0, -4], "multiplicities": [1, 2.7]},
    {"name": "sphere", "n": 1.5},
    {"n": 1, "eigenvalues": [0, -math.inf], "multiplicities": [1, 2]},
    {"n": 1, "eigenvalues": [0, "-1e400"], "multiplicities": [1, 2]},
    {"n": 1, "eigenvalues": [0, -4, -16], "multiplicities": [1, 2]},
    {"n": 1, "eigenvalues": [0, -4], "multiplicities": [1, 2, 2]},
])
def test_cross_section_integers_are_judged_by_the_spectrum_rules(tmp_path, capsys, spec):
    """n, the multiplicities and the eigenvalues reach spectra as given: a
    non-integer or boolean n and a fractional multiplicity are spectrum
    errors (exit 10), not truncated to an integer.  So are an eigenvalue
    past the float range (-1e400, as a number or a string, reads as -inf;
    it exited 1 with an OverflowError) and lists of unequal length (cut to
    the shorter one, they gave a template with exit 0)."""
    custom = tmp_path / "custom.json"
    custom.write_text(json.dumps(spec))
    assert main(["template", "--custom", str(custom), "--gamma", "0", "--k", "3"]) == EXIT_CODES["spectrum"]
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("command, field", [
    ("template", {"cross_section": {"name": "circle", "radius": "1/2", "j_max": 3.9}}),
    ("solve", {"cross_section": {"name": "circle", "radius": "1/2", "j_max": 3.9}}),
    ("solve", {"modes": [1.5]}),
    ("solve", {"modes": "01"}),
    ("solve", {"modes": [True]}),
    ("template", {"cross_section": {"name": "circle", "radius": 1, "j_max": -1}}),
    ("solve", {"cross_section": {"name": "circle", "radius": "1/2", "j_max": cli._J_MAX + 1}}),
])
def test_non_integer_indices_are_scenario_errors(tmp_path, capsys, command, field):
    """j_max and mode indices must be JSON integers: 3.9, 1.5, "01" and true
    exit 11 instead of becoming 3, 1, (0, 1) and 1.  j_max must also lie in
    [0, cli._J_MAX]: -1 exited 10 with a message about the eigenvalue
    list, and one past the bound built a spectrum that large (so 10^30 grew
    until it was killed); both exit 11 naming j_max."""
    data = dict(SCENARIO, **field)
    if command == "template":
        path = tmp_path / "custom.json"
        path.write_text(json.dumps(data["cross_section"]))
        argv = ["template", "--custom", str(path), "--gamma", "0", "--k", "3"]
    else:
        argv = ["solve", "--scenario", _write_scenario(tmp_path, data), "--out", str(tmp_path / "sol.csv")]
    assert main(argv) == EXIT_CODES["scenario"]
    captured = capsys.readouterr()
    assert captured.out == "" and ("j_max" in captured.err) == ("cross_section" in field)
    assert not (tmp_path / "sol.csv").exists()


@pytest.mark.parametrize("j_max", [-3, cli._J_MAX + 1])
def test_j_max_option_is_bounded(capsys, j_max):
    """--j-max meets the JSON field's bound, in build_cross_section."""
    argv = ["template", "--cross-section", "circle", "--radius", "1", "--j-max", str(j_max), "--gamma", "0", "--k", "3"]
    assert main(argv) == EXIT_CODES["scenario"]
    assert f"j_max must lie in [0, {cli._J_MAX}], got {j_max}" in capsys.readouterr().err


@pytest.mark.parametrize("field", [{"rel_tol": 0}, {"x_grid": {"points": []}}, {"x_grid": {"points": [-1, 0.1]}}])
def test_solve_rejects_bad_tolerance_and_grid_before_writing(tmp_path, capsys, field):
    """heat_mode's own checks of rel_tol and the grid stop solve with exit 11
    before it writes anything."""
    out = tmp_path / "sol.csv"
    scenario = _write_scenario(tmp_path, dict(SCENARIO, **field))
    assert main(["solve", "--scenario", scenario, "--out", str(out)]) == EXIT_CODES["scenario"]
    assert not out.exists()
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("field", [
    {"t": [True]},
    {"x_grid": {"points": [True]}},
    {"x_grid": {"decades": [-4, True]}},
    {"x_grid": {"decades": [-4, -1], "points_per_decade": True}},
    {"rel_tol": True},
    {"profile": {"shape": "bump", "support": [True, 2.0]}},
    {"profile": {"shape": "gaussian", "support": [1.0, 2.0], "center": True}},
    {"profile": {"shape": "gaussian", "support": [1.0, 2.0], "width": True}},
    {"cross_section": {"name": "circle", "radius": True, "j_max": 3}},
    {"cross_section": {"name": "circle", "radius_squared": True, "j_max": 3}},
    {"gamma": False},
], ids=["t", "points", "decades", "points_per_decade", "rel_tol", "support", "center", "width",
        "radius", "radius_squared", "gamma"])
def test_solve_rejects_json_booleans_as_numbers(tmp_path, capsys, field):
    """A JSON boolean where a number belongs is a malformed scenario (exit
    11) that names the field, not the number 1 or 0: "t": [true] and
    "rel_tol": true solved at 1, and "radius": true read as radius 1."""
    out = tmp_path / "sol.csv"
    scenario = _write_scenario(tmp_path, dict(SCENARIO, **field))
    assert main(["solve", "--scenario", scenario, "--out", str(out)]) == EXIT_CODES["scenario"]
    assert not out.exists()
    assert "must be a number, got" in capsys.readouterr().err


@pytest.mark.parametrize("field, message", [
    ({"modes": [1, 0, 1]}, "repeat a mode index"),
    ({"t": [1.0, 2.0, 1]}, "repeat a time"),
])
def test_solve_rejects_repeated_tasks(tmp_path, capsys, field, message):
    """A repeated mode index or t value would solve one (mode, t) task twice
    and make fit count its points twice: exit 11 before anything is written."""
    out = tmp_path / "sol.csv"
    scenario = _write_scenario(tmp_path, dict(SCENARIO, **field))
    assert main(["solve", "--scenario", scenario, "--out", str(out)]) == EXIT_CODES["scenario"]
    assert not out.exists()
    assert message in capsys.readouterr().err


def test_fit_rejects_repeated_rows(tmp_path, capsys):
    """A solution CSV that repeats a (mode_j, t, x) row, as two copies of
    one solve concatenated do, exits 11 instead of fitting each point twice
    with n_samples doubled."""
    sol = tmp_path / "sol.csv"
    assert main(["solve", "--scenario", _write_scenario(tmp_path), "--out", str(sol)]) == 0
    lines = sol.read_text().splitlines()
    doubled = tmp_path / "doubled.csv"
    doubled.write_text("\n".join(lines + lines[2:]) + "\n")
    fits = tmp_path / "fits.jsonl"
    capsys.readouterr()
    assert main(["fit", "--csv", str(doubled), "--out", str(fits)]) == EXIT_CODES["scenario"]
    assert not fits.exists()
    assert "repeats the row of mode 0" in capsys.readouterr().err


@pytest.mark.parametrize("field, value, message", [
    ("exponent", True, "exponent must be a number, got True"),
    ("exponent", "2", "exponent must be a number, got '2'"),
    ("n_samples", 49.7, "n_samples must be an integer, got 49.7"),
    ("mode_j", "1", "mode_j must be an integer, got '1'"),
    ("window", [1e-4], "window must be a list of 2, got [0.0001]"),
])
def test_recover_refuses_fit_fields_of_the_wrong_json_kind(tmp_path, capsys, field, value, message):
    """A fit report field of the wrong JSON kind is malformed input (exit 11)
    that names the field: "exponent": true was read as 1.0 and "2" as 2.0,
    "n_samples": 49.7 as 49, and "mode_j": "1" stayed a string, a mode of
    its own."""
    fits, out = tmp_path / "fits.jsonl", tmp_path / "rec.json"
    fits.write_text(json.dumps({**_REPORT.as_dict(), field: value}) + "\n")
    argv = ["recover", "--fits", str(fits), "--n", "1", "--gamma", "0", "--k", "3", "--out", str(out)]
    assert main(argv) == EXIT_CODES["scenario"]
    assert not out.exists()
    assert capsys.readouterr().err == f"error: {message}\n"


def test_fit_refuses_a_csv_with_no_data_rows(tmp_path, capsys):
    """A solution CSV of a header alone exited 0 with a fit file holding only
    its generator line: exit 11, one line, no fit file."""
    sol, fits = tmp_path / "sol.csv", tmp_path / "fits.jsonl"
    sol.write_text("# coneasym 0.0\nmode_j,nu,t,x,value\n")
    assert main(["fit", "--csv", str(sol), "--out", str(fits)]) == EXIT_CODES["scenario"]
    assert not fits.exists()
    assert capsys.readouterr().err == "error: solution CSV holds no data rows\n"


def test_recover_refuses_a_fit_file_with_no_reports(tmp_path, capsys):
    """A fit file of its generator line alone exited 0 with an empty
    summary: exit 11, one line, no summary."""
    fits, out = tmp_path / "fits.jsonl", tmp_path / "rec.json"
    fits.write_text(reports_to_jsonl([]))
    argv = ["recover", "--fits", str(fits), "--n", "1", "--gamma", "0", "--k", "3", "--out", str(out)]
    assert main(argv) == EXIT_CODES["scenario"]
    assert not out.exists()
    assert capsys.readouterr().err == "error: fit file holds no fit reports\n"


@pytest.mark.filterwarnings("default::coneasym.errors.TruncationTooShort")  # Python's own default, not "error"
def test_warnings_print_in_the_cli_error_shape(capsys):
    """A template the spectrum cannot certify complete prints one `warning:`
    line, not Python's warning text with a source path, class name and
    source line; it exits 0 with the same JSON, on every call, and main
    gives the caller's warning handling back when it returns."""
    caller = warnings.showwarning
    argv = ["template", "--cross-section", "s2", "--j-max", "6", "--k", "4"]
    for _ in range(2):
        assert main(argv) == 0
        captured = capsys.readouterr()
        assert captured.err == "warning: spectrum truncated too early to certify the template complete\n"
        assert json.loads(captured.out)["validity"]["truncation_sufficient"] is False
    assert warnings.showwarning is caller
