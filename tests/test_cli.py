"""CLI subcommands: round trips, determinism, exit codes."""

import json
import math
from pathlib import Path

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
    for per_decade in (0, -3, 2.7):
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
    report = json.loads(Path(out).read_text())
    assert report["uniform_within_factor_2"] is True
    assert len(report["rays"]) == 3
