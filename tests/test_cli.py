"""CLI subcommands: round trips, determinism, exit codes."""

import json
import math

import pytest

from coneasym.cli import EXIT_CODES, Scenario, build_cross_section, main
from coneasym.errors import ScenarioError

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
    scenario = Scenario.from_dict(SCENARIO)
    assert scenario.modes == (0, 1)
    assert scenario.x_grid.size == 49

    bad = dict(SCENARIO, gamma=5.0)
    with pytest.raises(Exception):
        Scenario.from_dict(bad)
    for decades in ([-4], [-4, -1, 5], [-1, -2], [-2, -2]):
        with pytest.raises(ScenarioError):
            Scenario.from_dict(dict(SCENARIO, x_grid={"decades": decades}))
    for per_decade in (0, -3):
        with pytest.raises(ScenarioError):
            Scenario.from_dict(dict(SCENARIO, x_grid={"decades": [-4, -1], "points_per_decade": per_decade}))
    with pytest.raises(ScenarioError):
        Scenario.from_dict(dict(SCENARIO, modes=[]))
    assert Scenario.from_dict(dict(SCENARIO, x_grid={"decades": [-2, -1], "points_per_decade": 1})).x_grid.size == 2


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
    text = open(csv_path).read()
    assert text.startswith("# coneasym ")
    assert text.splitlines()[1] == "mode_j,nu,t,x,value"

    assert main([
        "fit", "--csv", csv_path,
        "--lead-window", "1e-4", "1e-3", "--next-window", "1e-2", "1e-1",
        "--out", fits_path,
    ]) == 0
    assert main([
        "recover", "--fits", fits_path, "--n", "1", "--gamma", "0.0", "--k", "3",
        "--out", out_path,
    ]) == 0
    summary = json.loads(open(out_path).read())
    lams = sorted(entry["lambda"] for entry in summary["recovered"])
    assert abs(lams[0] + 4.0) < 4e-2
    assert abs(lams[1]) < 1e-2
    assert summary["flagged"]  # the deeper even/spectral collisions


def test_solve_is_deterministic(tmp_path):
    scenario = _write_scenario(tmp_path)
    a, b = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
    assert main(["solve", "--scenario", scenario, "--out", a]) == 0
    assert main(["solve", "--scenario", scenario, "--out", b]) == 0
    assert open(a).read() == open(b).read()


def test_exit_codes(tmp_path):
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


def test_selftest_subset(capsys):
    assert main(["selftest", "--criteria", "3,4"]) == 0
    out = capsys.readouterr().out
    assert out.count("PASS") == 2
    assert "all criteria passed" in out


def test_check_resolvent_overflow_exits_domain(tmp_path):
    """|lam| = 100 on support [80, 90] puts sqrt(lam) xi at 900, past where
    unscaled I_nu overflows: exit 8, not NaN in the sweep."""
    out = str(tmp_path / "sweep.json")
    assert main(["check-resolvent", "--support", "80", "90", "--out", out]) == EXIT_CODES["domain"]


def test_check_resolvent(tmp_path):
    out = str(tmp_path / "sweep.json")
    assert main(["check-resolvent", "--out", out]) == 0
    report = json.loads(open(out).read())
    assert report["uniform_within_factor_2"] is True
    assert len(report["rays"]) == 3
