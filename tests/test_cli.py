import json

import pytest

from intctrl.cli import main, parse_problem_file, ProblemFileError
from intctrl.fixtures import fixture_path

PENDULUM = str(fixture_path("pendulum.json"))
CONVERSION = str(fixture_path("pendulum_conversion.json"))

GAMMA_ROOTS = ("-0.2616,0.3728,0.6769+0.649j,0.6769-0.649j,"
               "0.9168+0.199j,0.9168-0.199j,0.965+0.1j,0.965-0.1j")
ALPHA_ROOTS = ("-0.7493,-0.1861,-0.2412+0.8757j,-0.2412-0.8757j,"
               "-0.1373+0.9794j,-0.1373-0.9794j")


def test_parse_pendulum_fixture():
    problem = parse_problem_file(PENDULUM)
    den, num = problem["plant"]
    assert den.coeffs.size - 1 == 4
    assert num.coeffs.size - 1 == 3


def test_parse_ordering_round_trip(tmp_path):
    desc = {"plant": {"den": [1.0, -0.5], "num": [2.0]},
            "ordering": "descending"}
    asc = {"plant": {"den": [-0.5, 1.0], "num": [2.0]},
           "ordering": "ascending"}
    f1, f2 = tmp_path / "d.json", tmp_path / "a.json"
    f1.write_text(json.dumps(desc))
    f2.write_text(json.dumps(asc))
    p1 = parse_problem_file(str(f1))["plant"]
    p2 = parse_problem_file(str(f2))["plant"]
    assert p1[0] == p2[0] and p1[1] == p2[1]


def test_parse_rejects_common_factor(tmp_path):
    # den and num share the root 0.5; the message names the evidence
    f = tmp_path / "bad.json"
    f.write_text(json.dumps({
        "plant": {"den": [1.0, -1.0, 0.25], "num": [1.0, -0.5]},
    }))
    with pytest.raises(ProblemFileError, match="0.5"):
        parse_problem_file(str(f))


def test_parse_rejects_unknown_field(tmp_path):
    f = tmp_path / "bad.json"
    f.write_text(json.dumps({"plant": {"den": [1.0], "num": [1.0]},
                             "plnt": {}}))
    with pytest.raises(ProblemFileError, match="plnt"):
        parse_problem_file(str(f))


def test_parse_rejects_improper(tmp_path):
    f = tmp_path / "bad.json"
    f.write_text(json.dumps({"plant": {"den": [1.0, 0.5],
                                       "num": [1.0, 0.0, 0.0]}}))
    with pytest.raises(ProblemFileError, match="improper"):
        parse_problem_file(str(f))


def test_stabilize_cli_end_to_end(tmp_path, capsys):
    out = tmp_path / "result.json"
    code = main(["stabilize", PENDULUM, "--gamma-ini-roots=" + GAMMA_ROOTS,
                 "--mu", "0.99", "--target", "round", "--verify",
                 "--out", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["certificate"]["passed"] is True
    assert payload["iterations"] == 1
    # descending integer controller denominator z^4 (z^4 - z^3 - 13z^2 - 4z + 10)
    assert payload["controller"]["den"] == [1.0, -1.0, -13.0, -4.0, 10.0,
                                            0.0, 0.0, 0.0, 0.0]
    assert abs(payload["closed_loop"]["spectral_radius"] - 0.9701) < 2e-3


def test_stabilize_cli_validation_exit_code(tmp_path, capsys):
    f = tmp_path / "bad.json"
    f.write_text("{not json")
    assert main(["stabilize", str(f)]) == 2


def test_stabilize_cli_synthesis_exit_code(tmp_path, capsys):
    # a multi-step plant capped at one iteration fails as a synthesis error
    f = tmp_path / "plant.json"
    f.write_text(json.dumps({"plant": {
        "den": [1.0, -1.4, 0.15, 0.198],
        "num": [0.7, 0.35, -0.252],
    }}))
    assert main(["stabilize", str(f)]) == 0
    assert main(["stabilize", str(f), "--max-iter", "1"]) == 3


@pytest.mark.parametrize("command", ["stabilize", "convert"])
@pytest.mark.parametrize("flag, value", [("--max-iter", "0"), ("--mu", "1.5"),
                                         ("--max-radius", "-1")])
def test_invalid_config_flag_is_a_validation_error(command, flag, value,
                                                    capsys):
    problem = PENDULUM if command == "stabilize" else CONVERSION
    assert main([command, problem, flag, value]) == 2
    assert "validation error" in capsys.readouterr().err


def test_negative_tolerance_flag_names_the_tolerance(capsys):
    # a bad flag must not be reported as a plant close to sharing a factor
    assert main(["stabilize", PENDULUM, "--tol-residual", "-1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("validation error:")
    assert "tolerance residual" in err
    assert "factor" not in err


def test_convert_cli_end_to_end(tmp_path):
    out = tmp_path / "result.json"
    code = main(["convert", CONVERSION, "--alpha-ini-roots=" + ALPHA_ROOTS,
                 "--target", "round", "--verify", "--out", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["certificate"]["passed"] is True
    den = payload["controller"]["den"]
    assert den[:5] == [1.0, -1.0, -4.0, -2.0, 4.0]
    assert all(c == 0.0 for c in den[5:])


def test_convert_requires_controller_block(capsys):
    assert main(["convert", PENDULUM]) == 2


def test_analyze_pass_and_fail(tmp_path):
    ok = {"plant": {"den": [1.0, 0.0], "num": [1.0]},
          "solution": {"alpha": [1.0, 0.0], "beta": [0.0],
                       "gamma": [1.0, 0.0, 0.0]}}
    f = tmp_path / "ok.json"
    f.write_text(json.dumps(ok))
    out = tmp_path / "res.json"
    assert main(["analyze", str(f), "--out", str(out)]) == 0
    assert json.loads(out.read_text())["certificate"]["passed"] is True

    bad = dict(ok)
    bad["solution"] = {"alpha": [1.0, 0.5], "beta": [0.0],
                       "gamma": [1.0, 0.5, 0.0]}
    f2 = tmp_path / "bad.json"
    f2.write_text(json.dumps(bad))
    assert main(["analyze", str(f2), "--out", str(out)]) == 4


def test_simulate_cli_writes_csv(tmp_path):
    out_csv = tmp_path / "traj.csv"
    out = tmp_path / "sim.json"
    code = main(["simulate", CONVERSION, "--steps", "50", "--reference", "2.0",
                 "--out-csv", str(out_csv), "--out", str(out)])
    assert code == 0
    lines = out_csv.read_text().strip().split("\n")
    assert lines[0] == "k,r,u,y"
    assert len(lines) == 51
    payload = json.loads(out.read_text())
    assert payload["diverged"] is False


def test_cli_runs_are_byte_identical(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    args = ["stabilize", PENDULUM, "--gamma-ini-roots=" + GAMMA_ROOTS,
            "--target", "round", "--seed", "7"]
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
