import json
import math
import os
from pathlib import Path

import numpy as np
import pytest

from conftest import random_plant, schur_factor_product, sweep_plant
from intctrl import (Polynomial, cli, convert_controller, numeric, stabilizer,
                     target, verify)
from intctrl.cli import main, parse_problem_file, ProblemFileError
from intctrl.fixtures import fixture_path
from intctrl.numeric import SingularMatrixError
from intctrl.stabilizer import preprocess_plant, run_algorithm1

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


@pytest.mark.parametrize("command", ["stabilize", "convert", "analyze", "simulate"])
def test_not_coprime_plant_whose_roots_miss_the_bound_is_a_validation_error(
        command, tmp_path, capsys):
    # den's roots miss the residual bound, so the shared-root hint is left
    # out; the plant is still reported as not coprime
    factor = Polynomial([-0.5, 1.0])
    den = schur_factor_product(np.random.default_rng(0), 25) * factor
    f = tmp_path / "plant.json"
    f.write_text(json.dumps({"plant": {"den": den.coeffs.tolist(),
                                       "num": factor.coeffs.tolist()},
                             "ordering": "ascending"}))
    assert main([command, str(f)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("validation error: field 'plant': den and num are "
                          "not coprime (quality ")
    assert "shared root" not in err and "Traceback" not in err


#: descending plants whose companion rows overflow: the shared-root hint's
#: eigensolve meets infinities and raises LinAlgError, not RootFindingError
OVERFLOWING_PLANTS = [
    {"den": [1e-300, 1e-08, 1e-300, 1e+300, 1e-300], "num": [1e-200, 1]},
    {"den": [1e-200, -0.824, 2, 1e+300, 1.952, 1e-08],
     "num": [1e+200, 1, -1, 0.995]},
]


@pytest.mark.parametrize("plant", OVERFLOWING_PLANTS)
@pytest.mark.parametrize("command", ["stabilize", "convert", "analyze", "simulate"])
def test_not_coprime_plant_whose_roots_overflow_is_a_validation_error(
        command, plant, tmp_path, capsys):
    f = tmp_path / "plant.json"
    f.write_text(json.dumps({"plant": plant}))
    assert main([command, str(f)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("validation error: field 'plant': den and num are "
                          "not coprime (quality ")
    assert "Traceback" not in err


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


PLANT = {"den": [1, 0.5, -2], "num": [1, 0.3]}
CONTROLLER = {"den": [1, 0.2], "num_y": [0.3], "num_r": [1]}
STATIC_PLANT = {"den": [2.0], "num": [0.5]}


@pytest.mark.parametrize("block, key", [
    ("plant", "ordering"), ("controller", "num_x"), ("plant", "power_shift"),
    ("solution", "iterations")])
def test_key_that_does_not_belong_in_its_block_exits_2(block, key, tmp_path,
                                                       capsys):
    # a misplaced "ordering" used to be ignored, and the plant read in the
    # other order was stabilized
    problem = {"plant": dict(PLANT), "controller": dict(CONTROLLER),
               "solution": {"alpha": [1, 0], "beta": [0], "gamma": [1, 0, 0]}}
    problem[block][key] = "ascending" if key == "ordering" else [1]
    f = tmp_path / "problem.json"
    f.write_text(json.dumps(problem))
    assert main(["stabilize", str(f)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"validation error: field '{block}': expected exactly")
    assert err.count("\n") == 1


def test_solution_may_carry_power_shift(tmp_path, capsys):
    problem = {**ANALYZE_PROBLEM, "solution": {**ANALYZE_PROBLEM["solution"],
                                               "power_shift": 1}}
    f = tmp_path / "problem.json"
    f.write_text(json.dumps(problem))
    assert main(["analyze", str(f)]) == 0
    assert json.loads(capsys.readouterr().out)["certificate"]["passed"] is True


@pytest.mark.parametrize("ordering", ["descending", "ascending"])
def test_written_blocks_read_back_bit_for_bit(ordering, tmp_path):
    # stabilize's solution block and convert's controller and solution
    # blocks, written by the table that parse_problem_file reads them by
    den, num = parse_problem_file(PENDULUM)["plant"]
    pre = parse_problem_file(CONVERSION)["controller"]

    def coeffs(p):
        return p.coeffs.tolist()[::-1 if ordering == "descending" else 1]

    def written(blocks, command, names):
        # the problem file with the blocks ``names`` of the command's result
        f, out = tmp_path / "problem.json", tmp_path / "out.json"
        f.write_text(json.dumps({"ordering": ordering, **blocks}))
        assert main([command, str(f), "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        f.write_text(json.dumps({"ordering": ordering, **blocks,
                                 **{name: payload[name] for name in names}}))
        return parse_problem_file(str(f))

    def bits(polys):
        return [p.coeffs.tobytes() for p in polys]

    plant = {"plant": {"den": coeffs(den), "num": coeffs(num)}}
    result = run_algorithm1(den, num)
    assert (bits(written(plant, "stabilize", ["solution"])["solution"])
            == bits([result.alpha, result.beta, result.gamma]))
    conv = convert_controller(pre, den, num)
    problem = written({**plant, "controller": {
        "den": coeffs(pre.den), "num_y": coeffs(pre.num_y),
        "num_r": coeffs(pre.num_r)}}, "convert", ["controller", "solution"])
    assert (bits([*vars(problem["controller"]).values(), *problem["solution"]])
            == bits([conv.den, conv.num_y, conv.num_r, conv.alpha, conv.beta,
                     conv.gamma]))


@pytest.mark.parametrize("command, text, flags, message", [
    ("stabilize", json.dumps({"plant": PLANT, "ordering": "reversed"}), [],
     "field 'ordering': expected 'descending' or 'ascending', got 'reversed'"),
    ("stabilize", "[1, 2]", [], "problem file must hold a JSON object"),
    ("stabilize", json.dumps({"name": "no plant"}), [], "field 'plant': missing"),
    ("stabilize", json.dumps({"plant": {"den": [0, 0], "num": [1]}}), [],
     "field 'plant.den': polynomial is zero"),
    ("convert", json.dumps({"plant": PLANT, "controller": [1, 2]}), [],
     "field 'controller': expected exactly the keys ['den', 'num_r', 'num_y']"),
    ("stabilize", json.dumps({"plant": PLANT}), ["--gamma-ini-roots=0.5,x"],
     "cannot parse root list '0.5,x'"),
    ("analyze", json.dumps({"plant": PLANT}), [],
     "analyze requires a 'solution' block"),
    ("simulate", json.dumps({"plant": PLANT}), [],
     "simulate requires a 'controller' block"),
    ("stabilize", json.dumps({"plant": STATIC_PLANT}), [],
     "plant denominator must have degree >= 1"),
    ("convert", json.dumps({"plant": STATIC_PLANT, "controller": {
        "den": [1, -0.5], "num_y": [0.3], "num_r": [1]}}), [],
     "plant denominator must have degree >= 1"),
], ids=["bad-ordering", "not-an-object", "no-plant", "zero-den",
        "block-not-an-object", "bad-root-list", "analyze-no-solution",
        "simulate-no-controller", "stabilize-static-plant",
        "convert-static-plant"])
def test_problem_file_error_exits_2(command, text, flags, message, tmp_path,
                                    capsys):
    f = tmp_path / "problem.json"
    f.write_text(text)
    assert main([command, str(f), *flags]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"validation error: {message}")
    assert err.count("\n") == 1


def test_stabilize_cli_end_to_end(tmp_path, capsys):
    out = tmp_path / "result.json"
    code = main(["stabilize", PENDULUM, "--gamma-ini-roots=" + GAMMA_ROOTS,
                 "--mu", "0.99", "--out", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["certificate"]["passed"] is True
    assert payload["iterations"] == 1
    # descending integer controller denominator z^4 (z^4 - z^3 - 13z^2 - 4z + 10)
    assert payload["controller"]["den"] == [1.0, -1.0, -13.0, -4.0, 10.0,
                                            0.0, 0.0, 0.0, 0.0]
    # the loop is the plant's leading coefficient times z^shift * gamma,
    # which the certificate proves Schur from its factors: no radius is
    # found for it
    assert "closed_loop" not in payload
    assert payload["certificate"]["witnesses"]["gamma_min_modulus_bound"] > 0.0


@pytest.mark.parametrize("roots", [None, GAMMA_ROOTS],
                         ids=["default", "fixture-roots"])
def test_stabilize_finds_only_the_numerator_roots_and_makes_two_svds(
        roots, monkeypatch, tmp_path):
    # the certificate proves gamma from its factors with the plant's quality
    # from preprocess_plant, initial roots are checked where they are given,
    # and the loop gets no radius: the one root finding is of the reduced
    # numerator, for the hyperplanes, and the two Sylvester SVDs are the
    # problem file's plant check and preprocess_plant's
    den, num = parse_problem_file(PENDULUM)["plant"]
    reduced = preprocess_plant(den, num).num
    rooted, svds = [], []
    real_roots, real_svd = numeric.poly_roots, np.linalg.svd

    def counting_roots(p):
        rooted.append(p)
        return real_roots(p)

    def counting_svd(a, *args, **kwargs):
        svds.append(a.shape)
        return real_svd(a, *args, **kwargs)

    for module in (numeric, target, verify, cli):
        monkeypatch.setattr(module, "poly_roots", counting_roots)
    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    argv = ["stabilize", PENDULUM, "--out", str(tmp_path / "res.json")]
    assert main(argv + (["--gamma-ini-roots=" + roots] if roots else [])) == 0
    assert rooted == [reduced]
    assert svds == [(7, 7), (7, 7)]


def test_stabilize_cli_validation_exit_code(tmp_path, capsys):
    f = tmp_path / "bad.json"
    f.write_text("{not json")
    assert main(["stabilize", str(f)]) == 2


def test_stabilize_cli_synthesis_exit_code(tmp_path, capsys):
    # sweep plant 0 (n = 8) reaches its derived iteration cap of 30 short
    # of its integer target: a synthesis failure, with no JSON
    den, num = sweep_plant(0)
    f = tmp_path / "plant.json"
    f.write_text(json.dumps({"plant": {"den": den.coeffs.tolist(),
                                       "num": num.coeffs.tolist()},
                             "ordering": "ascending"}))
    out = tmp_path / "res.json"
    assert main(["stabilize", str(f), "--out", str(out)]) == 3
    assert capsys.readouterr().err.startswith(
        "synthesis failed: iteration cap 30 = 10*ceil(|x* - x0|_1) + 10 "
        "exceeded at distance ")
    assert not out.exists()


@pytest.mark.parametrize("command", ["stabilize", "convert"])
def test_target_search_exhaustion_exits_3(command, monkeypatch, tmp_path,
                                          capsys):
    # a feasibility test that rejects every candidate and a budget of a few
    # points exhaust the target search: a numerical breakdown, not a
    # validation error
    monkeypatch.setattr(target.ActiveSet, "first_feasible",
                        lambda self, cands: None)
    monkeypatch.setattr(target, "MAX_CANDIDATES", 5)
    out = tmp_path / "res.json"
    problem = PENDULUM if command == "stabilize" else CONVERSION
    assert main([command, problem, "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("synthesis failed: integer-target search exhausted")
    assert not out.exists()


def test_stabilize_inconsistent_active_set_exits_3(tmp_path, capsys):
    # sweep plant 5 passes the coprimality check, yet a real-root plane
    # passes through its initial vector: a numerical breakdown
    den, num = sweep_plant(5)
    f = tmp_path / "plant.json"
    f.write_text(json.dumps({"plant": {"den": den.coeffs.tolist(),
                                       "num": num.coeffs.tolist()},
                             "ordering": "ascending"}))
    out = tmp_path / "res.json"
    assert main(["stabilize", str(f), "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("synthesis failed: real-root plane 2 ")
    assert err.endswith("shares a root with the numerator\n")
    assert not out.exists()


@pytest.mark.parametrize("den, num, root", [
    ([1, 0, 1], [1e-200, 1], "-1e+200"),
    ([1, 0, 0, 0, 1], [1e-200, 0, 1], "-0+1e+100j"),
], ids=["real-root", "complex-root"])
def test_convert_overflowing_plane_row_exits_3(den, num, root, tmp_path, capsys):
    # the numerator's tiny top coefficient puts a root near 1e200 (or a pair
    # near +-1e100j), whose powers leave the float range in the plane rows:
    # a breakdown of the plane geometry, not a crash
    f = tmp_path / "problem.json"
    f.write_text(json.dumps({
        "plant": {"den": den, "num": num},
        "controller": {"den": [1, 0.2], "num_y": [0.3], "num_r": [1]}}))
    out = tmp_path / "res.json"
    assert main(["convert", str(f), "--out", str(out)]) == 3
    assert capsys.readouterr().err == (
        f"synthesis failed: the plane row of numerator root {root} overflows "
        "the float range\n")
    assert not out.exists()
    # stabilize trims the tiny top coefficient first and succeeds
    assert main(["stabilize", str(f), "--out", str(out)]) == 0


def test_convert_initial_solve_breakdown_exits_3(tmp_path, capsys):
    # the controller denominator's 1e300 coefficient breaks the conversion's
    # initial solve down: its quotient is not monic, a numerical breakdown
    # (exit 3), not a validation error
    f = tmp_path / "problem.json"
    f.write_text(json.dumps({
        "plant": {"den": [0.233, 1e-200, 1, -2.154], "num": [1, -1]},
        "controller": {"den": [1, 3.7, 0.863, 1e+300, 0.839],
                       "num_y": [-1.542], "num_r": [1.927, 3.7, 3.7, 2]}}))
    out = tmp_path / "res.json"
    assert main(["convert", str(f), "--out", str(out)]) == 3
    assert capsys.readouterr().err == (
        "synthesis failed: the initial Diophantine solve broke down: expected "
        "a monic polynomial, got Polynomial([1e+300])\n")
    assert not out.exists()


@pytest.mark.parametrize("quotient, reason", [
    (Polynomial([1e300]), "expected a monic polynomial, got Polynomial([1e+300])"),
    (Polynomial([0.5, 1.0]), "expected degree 4, got 1"),
], ids=["not-monic", "wrong-degree"])
def test_stabilize_initial_solve_breakdown_exits_3(quotient, reason, monkeypatch,
                                                   tmp_path, capsys):
    monkeypatch.setattr(stabilizer, "solve_diophantine",
                        lambda *args: (quotient, Polynomial.zero()))
    out = tmp_path / "res.json"
    assert main(["stabilize", PENDULUM, "--out", str(out)]) == 3
    assert capsys.readouterr().err == (
        f"synthesis failed: the initial Diophantine solve broke down: {reason}\n")
    assert not out.exists()


@pytest.mark.parametrize("command", ["stabilize", "convert"])
def test_singular_steering_step_exits_3(command, monkeypatch, tmp_path, capsys):
    def singular(*args):
        raise SingularMatrixError(0.0, 1.0)

    monkeypatch.setattr(stabilizer, "control_input", singular)
    out = tmp_path / "res.json"
    problem = PENDULUM if command == "stabilize" else CONVERSION
    assert main([command, problem, "--out", str(out)]) == 3
    assert capsys.readouterr().err == (
        "synthesis failed: matrix singular to tolerance (pivot 0.000e+00, "
        "scale 1.000e+00)\n")
    assert not out.exists()


@pytest.mark.parametrize("index", [229, 16])
def test_stabilize_root_finding_failure_exits_3(index, tmp_path, capsys):
    # seed-7 sweep plants whose roots miss the residual bound.  For plant
    # 229 (n = 8) they were gamma's, inside the certificate, which now proves
    # gamma from its factors without roots: that proof does not decide, so
    # the result is written and fails its certificate.  Plant 16 (n = 6)
    # certifies, and only the roots of its closed-loop polynomial miss it;
    # stabilize no longer finds those, so it exits 0 without a warning
    den, num = sweep_plant(index)
    f = tmp_path / "plant.json"
    f.write_text(json.dumps({"plant": {"den": den.coeffs.tolist(),
                                       "num": num.coeffs.tolist()},
                             "ordering": "ascending"}))
    out = tmp_path / "result.json"
    code = main(["stabilize", str(f), "--out", str(out)])
    err = capsys.readouterr().err
    assert "Traceback" not in err
    payload = json.loads(out.read_text())
    if index == 229:
        assert code == 4 and err == "certificate failed\n"
        cert = payload["certificate"]
        assert cert["passed"] is False
        assert cert["conditions"]["gamma_schur"] is False
        assert cert["witnesses"]["gamma_min_modulus_bound"] == 0.0
        assert any(w.startswith("gamma is not proved Schur") for w in cert["warnings"])
        return
    assert code == 0 and err == ""
    assert payload["certificate"]["passed"] is True
    assert "closed_loop" not in payload
    assert not any("spectral radius" in w for w in payload["warnings"])


def test_analyze_reports_null_radius_when_only_it_fails(tmp_path, capsys):
    # the certified solution of sweep plant 16, whose denominator is monic:
    # the certificate passes, the closed-loop roots miss the residual bound
    den, num = sweep_plant(16)
    assert den.is_monic(0.0)
    result = run_algorithm1(den, num)
    f = tmp_path / "solution.json"
    f.write_text(json.dumps({
        "plant": {"den": den.coeffs.tolist(), "num": num.coeffs.tolist()},
        "solution": {k: getattr(result, k).coeffs.tolist()
                     for k in ("alpha", "beta", "gamma")},
        "ordering": "ascending"}))
    out = tmp_path / "res.json"
    assert main(["analyze", str(f), "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    payload = json.loads(out.read_text())
    assert payload["certificate"]["passed"] is True
    assert payload["closed_loop"]["spectral_radius"] is None
    [warning] = payload["warnings"]
    assert warning.startswith(
        "closed-loop spectral radius not computed: root residuals exceed tolerance")


ANALYZE_PROBLEM = {"plant": {"den": [1.0, 0.0], "num": [1.0]},
                   "solution": {"alpha": [1.0, 0.0], "beta": [0.0],
                                "gamma": [1.0, 0.0, 0.0]}}


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf"),
                                   10 ** 400, True],
                         ids=["NaN", "Infinity", "-Infinity", "1e400-int", "true"])
@pytest.mark.parametrize("command, field", [
    ("stabilize", "plant.den"), ("convert", "plant.num"),
    ("analyze", "plant.den"), ("simulate", "plant.num"),
    ("convert", "controller.num_y"), ("simulate", "controller.den"),
    ("analyze", "solution.gamma")])
def test_non_finite_or_boolean_coefficient_is_a_validation_error(
        command, field, value, tmp_path, capsys):
    # json reads NaN and Infinity as floats and true as the number 1
    if command == "analyze":
        problem = json.loads(json.dumps(ANALYZE_PROBLEM))
    else:
        source = PENDULUM if command == "stabilize" else CONVERSION
        problem = json.loads(Path(source).read_text())
    block, key = field.split(".")
    problem[block][key][0] = value
    f = tmp_path / "problem.json"
    f.write_text(json.dumps(problem))
    out = tmp_path / "res.json"
    assert main([command, str(f), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"validation error: field '{field}'")
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["stabilize", "convert"])
@pytest.mark.parametrize("flag, value", [("--mu", "0"), ("--mu", "1.5")])
def test_invalid_config_flag_is_a_validation_error(command, flag, value,
                                                    capsys):
    problem = PENDULUM if command == "stabilize" else CONVERSION
    assert main([command, problem, flag, value]) == 2
    assert "validation error" in capsys.readouterr().err


REMOVED_FLAGS = [("--target", "round"), ("--max-radius", "3"),
                 ("--tol-active", "1e-9"), ("--tol-side", "1e-9"),
                 ("--tol-residual", "1e-10"), ("--tol-coprime", "1e-8"),
                 ("--tol-monic", "1e-9"), ("--tol-trim", "1e-9"),
                 ("--tol-integer", "1e-6"), ("--max-iter", "100"),
                 ("--seed", "0"), ("--prefer-origin", None)]


@pytest.mark.parametrize("command, flag, value", [
    pytest.param(command, flag, value,
                 id="-".join(part for part in (flag, value, command) if part))
    for flag, value in REMOVED_FLAGS for command in ("stabilize", "convert")
] + [pytest.param("stabilize", "--verify", None, id="--verify-stabilize")])
def test_removed_search_flag_is_rejected(command, flag, value, tmp_path,
                                         capsys):
    # the target search, the tolerances and the iteration cap have no
    # settings, and the seed and a root-based recertification of stabilize
    # changed nothing: their old flags must not be accepted and silently
    # ignored
    problem = PENDULUM if command == "stabilize" else CONVERSION
    out = tmp_path / "result.json"
    with pytest.raises(SystemExit) as exc:
        args = [flag] if value is None else [flag, value]
        main([command, problem, *args, "--out", str(out)])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command, flag, roots", [
    ("stabilize", "--gamma-ini-roots", GAMMA_ROOTS),
    ("convert", "--alpha-ini-roots", ALPHA_ROOTS)], ids=["stabilize", "convert"])
@pytest.mark.parametrize("offset", [0.0, 1e-12], ids=["root", "within-tolerance"])
def test_initial_root_of_the_numerator_is_not_coprime(command, flag, roots,
                                                      offset, tmp_path, capsys):
    # the plant numerator's root inside the unit circle, or one 1e-12
    # relative away, replaces the second (real) initial root: the initial
    # factor shares that root with the numerator to tolerance
    _, num = parse_problem_file(PENDULUM)["plant"]
    [inside] = [r for r in numeric.poly_roots(num).tolist() if abs(r) < 0.9]
    root = inside * (1 + offset)
    tokens = roots.split(",")
    tokens[1] = repr(root)
    problem = PENDULUM if command == "stabilize" else CONVERSION
    out = tmp_path / "res.json"
    assert main([command, problem, f"{flag}={','.join(tokens)}",
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"validation error: initial factor root "
                          f"{complex(root):.6g} is a root of the numerator "
                          "(|num(r)| ")
    assert err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("command, flag, roots", [
    ("stabilize", "--gamma-ini-roots", GAMMA_ROOTS),
    ("convert", "--alpha-ini-roots", ALPHA_ROOTS)], ids=["stabilize", "convert"])
@pytest.mark.parametrize("position", [0, 3], ids=["first", "later"])
def test_non_finite_initial_root_is_a_validation_error(command, flag, roots,
                                                       position, capsys):
    # a NaN passes every comparison with the unit circle, and max skips it
    # unless it comes first
    tokens = roots.split(",")
    tokens[position] = "nan"
    problem = PENDULUM if command == "stabilize" else CONVERSION
    assert main([command, problem, f"{flag}={','.join(tokens)}"]) == 2
    err = capsys.readouterr().err
    assert err == ("validation error: initial factor roots must be finite, "
                   "got [(nan+0j)]\n")


@pytest.mark.parametrize("command, flag, roots", [
    ("stabilize", "--gamma-ini-roots", GAMMA_ROOTS),
    ("convert", "--alpha-ini-roots", ALPHA_ROOTS)], ids=["stabilize", "convert"])
@pytest.mark.parametrize("token, parsed", [
    ("inf", "(inf+0j)"), ("-inf", "(-inf+0j)"), ("1+infi", "(1+infj)")],
    ids=["inf", "-inf", "1+infi"])
def test_infinite_initial_root_is_a_validation_error(command, flag, roots,
                                                     token, parsed, capsys):
    # only a trailing i is an imaginary unit: the i of inf is kept, so an
    # infinite root gets the message a NaN gets, not a parse error
    tokens = roots.split(",")
    tokens[3] = token
    problem = PENDULUM if command == "stabilize" else CONVERSION
    assert main([command, problem, f"{flag}={','.join(tokens)}"]) == 2
    err = capsys.readouterr().err
    assert err == ("validation error: initial factor roots must be finite, "
                   f"got [{parsed}]\n")


def test_convert_cli_end_to_end(tmp_path):
    out = tmp_path / "result.json"
    code = main(["convert", CONVERSION, "--alpha-ini-roots=" + ALPHA_ROOTS,
                 "--verify", "--out", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["certificate"]["passed"] is True
    den = payload["controller"]["den"]
    assert den[:5] == [1.0, -1.0, -4.0, -2.0, 4.0]
    assert all(c == 0.0 for c in den[5:])


def test_convert_default_initial_factor_certifies(tmp_path, capsys):
    # the default initial factor yields a 78th-order controller whose loop
    # is proved stable
    out = tmp_path / "result.json"
    assert main(["convert", CONVERSION, "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    payload = json.loads(out.read_text())
    assert payload["certificate"]["passed"] is True
    assert payload["certificate"]["conditions"]["internally_stable"] is True
    assert len(payload["controller"]["den"]) == 79


@pytest.mark.parametrize("verify", [[], ["--verify"]])
def test_convert_failed_certificate_exits_4(verify, tmp_path, capsys):
    # the commonly printed 4-5 digit rounding of the pre-designed output
    # channel leaves the original loop unstable, and the converted loop with
    # it: the JSON is still written, and the exit code says so
    problem = json.loads(Path(CONVERSION).read_text())
    problem["controller"]["num_y"] = [-1556.0, 5821.9, -8132.4, 5023.0, -1156.6]
    f = tmp_path / "rounded.json"
    f.write_text(json.dumps(problem))
    out = tmp_path / "result.json"
    assert main(["convert", str(f), *verify, "--out", str(out)]) == 4
    payload = json.loads(out.read_text())
    assert payload["certificate"]["passed"] is False
    assert payload["certificate"]["conditions"]["internally_stable"] is False
    assert len(payload["controller"]["den"]) == 79
    assert capsys.readouterr().err == "certificate failed\n"


def test_convert_certificate_root_finding_failure_exits_4(monkeypatch,
                                                          tmp_path, capsys):
    # alpha is proved Schur from its factors, and roots judge only the
    # loop: when that root finding breaks down internally_stable fails
    # with a warning, and the JSON is still written
    def failed(p):
        raise numeric.RootFindingError([(0.5 + 0j, 1.0)])

    monkeypatch.setattr(numeric, "poly_roots", failed)
    monkeypatch.setattr(verify, "poly_roots", failed)
    out = tmp_path / "result.json"
    assert main(["convert", CONVERSION, "--alpha-ini-roots=" + ALPHA_ROOTS,
                 "--out", str(out)]) == 4
    assert capsys.readouterr().err == "certificate failed\n"
    cert = json.loads(out.read_text())["certificate"]
    assert [k for k, ok in cert["conditions"].items() if not ok] == [
        "internally_stable"]
    assert "closed_loop_spectral_radius" not in cert["witnesses"]
    assert cert["witnesses"]["alpha_min_modulus_bound"] > 0.0
    assert "details" not in cert
    error = "(RootFindingError: root residuals exceed tolerance: [((0.5+0j), 1.0)])"
    assert cert["warnings"][0] == (
        f"the closed loop is not judged Schur: its root finding failed {error}")


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


@pytest.mark.parametrize("den", [[2.0, 1.0, -3.0], [-0.5, -0.25, 0.75]])
def test_analyze_certifies_what_stabilize_wrote(den, tmp_path, capsys):
    # a denominator that is not monic: analyze checks the identity for the
    # plant scaled to a monic denominator, as stabilize solved it; against
    # the plant as given its residual is of order 1
    plant = {"den": den, "num": [1.0, 0.5]}
    f = tmp_path / "plant.json"
    f.write_text(json.dumps({"plant": plant}))
    written = tmp_path / "stabilized.json"
    assert main(["stabilize", str(f), "--out", str(written)]) == 0
    result = json.loads(written.read_text())
    code, payload = _analyze(tmp_path, {"plant": plant,
                                        "ordering": result["ordering"],
                                        "solution": result["solution"]})
    assert code == 0 and capsys.readouterr().err == ""
    cert = payload["certificate"]
    assert cert["passed"] is True
    assert cert["identity_residual"] <= cert["residual_tol"] < 1e-7
    assert payload["closed_loop"]["spectral_radius"] < 1.0


def test_analyze_root_finding_failure_exits_4(tmp_path, capsys):
    # gamma: 25 monic factors with |u|_1 = 0.99 at n = 8, whose computed
    # roots miss the residual bound: the certificate fails gamma_schur with
    # a warning naming the error, and the JSON is written
    gamma = schur_factor_product(np.random.default_rng(0), 25)
    code, payload = _analyze(tmp_path, {
        "plant": {"den": [-0.5, 1.0], "num": [1.0]},
        "solution": {"alpha": [0.0, 1.0], "beta": [0.0],
                     "gamma": gamma.coeffs.tolist()},
        "ordering": "ascending"})
    assert code == 4 and capsys.readouterr().err == ""
    cert = payload["certificate"]
    assert cert["passed"] is False
    assert [k for k, ok in cert["conditions"].items() if not ok] == ["gamma_schur"]
    assert "gamma_spectral_radius" not in cert["witnesses"]
    [warning] = cert["warnings"]
    assert warning.startswith("gamma is not judged Schur: its root finding "
                              "failed (RootFindingError: root residuals "
                              "exceed tolerance")
    assert payload["closed_loop"]["spectral_radius"] == 0.5


def test_analyze_failed_eigensolve_exits_4(monkeypatch, tmp_path, capsys):
    # an eigensolve that fails inside the certificate is a failed
    # certificate, like roots that miss their residual bound; the
    # informational radius is null
    def failed(p):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(numeric, "poly_roots", failed)
    code, payload = _analyze(tmp_path, {
        "ordering": "ascending", "plant": {"den": [-0.5, 1.0], "num": [1.0]},
        "solution": {"alpha": [0.0, 1.0], "beta": [0.0],
                     "gamma": [0.0, -0.5, 1.0]}})
    assert code == 4 and capsys.readouterr().err == ""
    cert = payload["certificate"]
    assert cert["conditions"]["gamma_schur"] is False
    assert "gamma_spectral_radius" not in cert["witnesses"]
    assert cert["warnings"] == [
        "gamma is not judged Schur: its root finding failed "
        "(LinAlgError: Eigenvalues did not converge)"]
    assert payload["closed_loop"]["spectral_radius"] is None
    assert payload["warnings"] == [
        "closed-loop spectral radius not computed: Eigenvalues did not converge"]


def _analyze(tmp_path, problem):
    f = tmp_path / "solution.json"
    f.write_text(json.dumps(problem))
    out = tmp_path / "res.json"
    code = main(["analyze", str(f), "--out", str(out)])
    return code, json.loads(out.read_text()) if out.exists() else None


def test_analyze_overflowing_identity_is_a_validation_error(tmp_path, capsys):
    # alpha*den + beta*num = [inf, 1e308, 1]: the sum used to trim to the
    # zero polynomial, so the certificate passed with residual max|gamma|
    # and the closed-loop radius raised with a traceback
    code, payload = _analyze(tmp_path, {
        "ordering": "ascending", "plant": {"den": [1e308, 1.0], "num": [1e308]},
        "solution": {"alpha": [1.0, 1.0], "beta": [1.0],
                     "gamma": [0.25, 0.0, 1.0]}})
    assert code == 2 and payload is None
    err = capsys.readouterr().err
    assert err == "validation error: polynomial coefficients must be finite\n"


def test_analyze_overflowing_root_scale_prints_no_warning(tmp_path, capsys):
    # roots near 1e200 and 1e-200: the Horner check's scale overflows, and
    # numpy's warning used to reach stderr
    code, payload = _analyze(tmp_path, {
        "ordering": "descending", "plant": {"den": [1, -1e200, 1], "num": [1]},
        "solution": {"alpha": [1], "beta": [0], "gamma": [1, -1e200, 1]}})
    assert code == 4
    assert capsys.readouterr().err == ""
    assert payload["closed_loop"]["spectral_radius"] == 1e200


def test_analyze_overflowing_companion_row_prints_no_warning(tmp_path, capsys):
    # gamma = 1e-300 z + 1e300: its companion row overflows, and numpy's
    # divide warning used to reach stderr before the failed certificate
    code, payload = _analyze(tmp_path, {
        "ordering": "descending", "plant": {"den": [1, -0.5], "num": [1]},
        "solution": {"alpha": [1], "beta": [0.5], "gamma": [1e-300, 1e300]}})
    assert code == 4 and capsys.readouterr().err == ""
    assert payload["certificate"]["warnings"][0] == (
        "gamma is not judged Schur: its root finding failed "
        "(LinAlgError: Array must not contain infs or NaNs)")


FINITE_ERROR = "validation error: polynomial coefficients must be finite\n"


@pytest.mark.parametrize("command, problem, flags, code, err", [
    # the plant's division by its leading coefficient overflows
    ("stabilize", {"plant": {"den": [1e-300, -1.238, 1.604, 1e200],
                             "num": [1, 0.5, 0.292]}}, [], 2, FINITE_ERROR),
    # sides0 * sides of the target search overflows
    ("convert", {"plant": {"den": [2.394, 2.982], "num": [1e-200, 0.671]},
                 "controller": {"den": [1, -2.25, -0.0, -0.705],
                                "num_y": [7.5, 0.244],
                                "num_r": [0.54, -0.804, -1.473]}},
     [], 4, "certificate failed\n"),
    # the direct term d0 * den overflows
    ("simulate", {"plant": {"den": [-0.107, 1e200], "num": [1e300, 0.5]},
                  "controller": {"den": [1, -2.83, 1e300, 2.018, 1e200],
                                 "num_y": [1e-300, -2.965, -1.734],
                                 "num_r": [0, 0.271]}}, [], 2, FINITE_ERROR),
    # the controller's division by its leading coefficient overflows
    ("simulate", {"plant": {"den": [1e-12, -0.414, 2, 1.136],
                            "num": [1e-200, 1e300, -0.801]},
                  "controller": {"den": [1, 1e-12, 1.541, 0.054, 1.117],
                                 "num_y": [1e-200, 1e-12], "num_r": [-0.544]}},
     [], 2, FINITE_ERROR),
    # the closed loop's outer products overflow
    ("simulate", {"plant": {"den": [0.5, -1.796, 2, -0.0, -2.25],
                            "num": [2.248, 0.831, 1e200]},
                  "controller": {"den": [1, 0.5, 1e200],
                                 "num_y": [-0.464, -1, -1],
                                 "num_r": [-1.725, -0.071]}},
     ["--steps", "50"], 0, ""),
], ids=["stabilize-plant-scale", "convert-target-sides",
        "simulate-direct-term", "simulate-controller-scale",
        "simulate-closed-loop"])
def test_extreme_magnitudes_print_no_numpy_warning(command, problem, flags,
                                                   code, err, tmp_path, capsys):
    # numpy's RuntimeWarnings used to reach stderr ahead of these outcomes
    f = tmp_path / "problem.json"
    f.write_text(json.dumps(problem))
    assert main([command, str(f), *flags]) == code
    out, got = capsys.readouterr()
    assert got == err
    if code == 2:
        assert out == ""
    elif command == "convert":
        cert = json.loads(out)["certificate"]
        failed = [k for k, ok in cert["conditions"].items() if not ok]
        assert failed == ["internally_stable"]
        assert json.loads(out)["controller"]["den"] == [1, -2, 0, 0, 0, 0]
    else:
        payload = json.loads(out)
        assert payload["steps"] == 2 and payload["diverged"] is True
        assert math.isnan(payload["final_y"]) and math.isnan(payload["final_u"])


def test_analyze_closed_loop_radius_agrees_with_the_certificate(tmp_path):
    # den = z^2 - 1e10 z + 1 with no feedback: the closed loop is den itself,
    # whose leading 1 a relative trim against 1e10 used to drop
    code, payload = _analyze(tmp_path, {
        "ordering": "descending", "plant": {"den": [1, -1e10, 1], "num": [1]},
        "solution": {"alpha": [1], "beta": [0], "gamma": [1, -1e10, 1]}})
    assert code == 4
    radius = payload["certificate"]["witnesses"]["gamma_spectral_radius"]
    assert radius == 1e10
    assert payload["closed_loop"]["spectral_radius"] == radius


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


@pytest.mark.parametrize("flag, value, name", [("--steps", "-3", "steps"),
                                               ("--reference", "nan", "reference")])
def test_simulate_bad_flag_is_a_validation_error(flag, value, name, tmp_path,
                                                 capsys):
    out = tmp_path / "sim.json"
    assert main(["simulate", CONVERSION, flag, value, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("validation error:") and name in err
    assert not out.exists()


def test_cli_runs_are_byte_identical(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    args = ["stabilize", PENDULUM, "--gamma-ini-roots=" + GAMMA_ROOTS]
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_one_parser_serves_every_call(tmp_path, capsys):
    # main keeps one parser for the process: after a failed parse, every
    # call repeats the exit code and output of the first call of its kind
    analyze = tmp_path / "analyze.json"
    analyze.write_text(json.dumps(ANALYZE_PROBLEM))
    calls = {
        "stabilize": ["stabilize", PENDULUM, "--gamma-ini-roots=" + GAMMA_ROOTS],
        "stabilize-flags": ["stabilize", PENDULUM, "--mu", "0.5"],
        "convert": ["convert", CONVERSION, "--alpha-ini-roots=" + ALPHA_ROOTS],
        "analyze": ["analyze", str(analyze)],
    }
    with pytest.raises(SystemExit) as exc:
        main(["stabilize", PENDULUM, "--no-such-flag"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --no-such-flag" in capsys.readouterr().err
    first = {}
    for name in ["stabilize", "convert", "stabilize-flags", "analyze"] * 2:
        outcome = main(calls[name]), capsys.readouterr()
        assert outcome == first.setdefault(name, outcome), name
    assert [first[name][0] for name in calls] == [0, 0, 0, 0]
    # the first step of the default pendulum run misses its target
    step = json.loads(first["stabilize-flags"][1].out)["trace"][0]
    assert not step["hit"] and sum(map(abs, step["u"])) == pytest.approx(0.5)


def _written_payloads(monkeypatch, tmp_path, calls):
    """Run each call of main with ``--out`` and return the payloads it
    emitted, checking that each file holds the payload's text."""
    payloads, emit = [], cli._emit

    def capture(payload, out):
        payloads.append(payload)
        emit(payload, out)

    monkeypatch.setattr(cli, "_emit", capture)
    for i, argv in enumerate(calls):
        out = tmp_path / f"out{i}.json"
        main(argv + ["--out", str(out)])
        text = json.dumps(payloads[i], indent=2, sort_keys=True)
        assert out.read_text() == text + "\n"
    return payloads


def test_emitter_matches_json_dumps_on_every_command(monkeypatch, tmp_path):
    stabilized = tmp_path / "stabilized.json"
    assert main(["stabilize", PENDULUM, "--out", str(stabilized)]) == 0
    analyze = tmp_path / "analyze.json"
    analyze.write_text(json.dumps({
        "plant": json.loads(Path(PENDULUM).read_text())["plant"],
        "solution": json.loads(stabilized.read_text())["solution"]}))
    payloads = _written_payloads(monkeypatch, tmp_path, [
        ["stabilize", PENDULUM],
        ["convert", CONVERSION, "--alpha-ini-roots=" + ALPHA_ROOTS],
        ["convert", CONVERSION],
        ["analyze", str(analyze)],
        ["simulate", CONVERSION, "--steps", "50"]])
    assert [p["command"] for p in payloads] == ["stabilize", "convert", "convert",
                                                "analyze", "simulate"]
    for payload in payloads:
        assert cli._json(payload) == json.dumps(payload, indent=2, sort_keys=True)


def test_emitter_matches_json_dumps_on_failed_certificates(monkeypatch, tmp_path):
    # seed-7 sweep plants whose gamma the certificate does not prove Schur:
    # their payloads carry failed conditions and warnings
    calls = []
    for index in (265, 284, 401, 466, 520):
        den, num = sweep_plant(index)
        problem = tmp_path / f"plant{index}.json"
        problem.write_text(json.dumps({"ordering": "ascending", "plant": {
            "den": den.coeffs.tolist(), "num": num.coeffs.tolist()}}))
        calls.append(["stabilize", str(problem)])
    for payload in _written_payloads(monkeypatch, tmp_path, calls):
        assert payload["certificate"]["warnings"]
        assert cli._json(payload) == json.dumps(payload, indent=2, sort_keys=True)


def test_emitter_matches_json_dumps_on_edge_values():
    floats = [float("nan"), float("inf"), -float("inf"), -0.0, 5e-324, 1e308,
              -1e-7, 0.1, np.float64(2.5), np.float64("nan")]
    payload = {
        "floats": floats, "float_tuple": tuple(floats[3:8]),
        "finite": [-0.0, 5e-324, 1e308, 1e16, 123456.789, np.float64(-1.5)],
        "mixed": [1.0, 2, True, None, 0.5, False, -3],
        "text": ["café → \U0001f600", "tab\tnew\nline\x00\x1f",
                 'quote " back \\ slash', ""],
        "empty": {"list": [], "dict": {}, "nested": [[], {}, [[]], {"a": {}}]},
        "scalars": {"int": -(10 ** 30), "true": True, "false": False,
                    "none": None, "nan": float("nan"), "str": "s"},
        "ünicode key \"quoted\"": 0, "": [1.5],
    }
    assert cli._json(payload) == json.dumps(payload, indent=2, sort_keys=True)
    for value in floats + [[], {}, "x", 7, None, True]:
        assert cli._json(value) == json.dumps(value, indent=2, sort_keys=True)


@pytest.mark.parametrize("value", [np.bool_(True), np.int64(3), {1.0, 2.0},
                                   {(1, 2): 0}, [1.0, np.int64(3)],
                                   {"a": [np.bool_(False)]}],
                         ids=["bool_", "int64", "set", "tuple-key", "int64-in-list",
                              "bool_-in-dict"])
def test_emitter_refuses_what_json_dumps_refuses(value):
    with pytest.raises(TypeError):
        json.dumps(value, indent=2, sort_keys=True)
    with pytest.raises(TypeError):
        cli._json(value)


def test_emitter_refuses_a_key_that_is_not_a_string():
    # json.dumps would write the int key as "1"; no payload holds one
    with pytest.raises(TypeError):
        cli._json({1: 0.5})


def test_out_overwrites_a_longer_file_with_the_bytes_of_a_fresh_one(tmp_path):
    fresh, old = tmp_path / "fresh.json", tmp_path / "old.json"
    old.write_text("\n".join(map(str, range(1, 5001))) + "\n")
    assert old.stat().st_size > 20000
    args = ["stabilize", PENDULUM, "--gamma-ini-roots=" + GAMMA_ROOTS]
    assert main(args + ["--out", str(fresh)]) == 0
    assert main(args + ["--out", str(old)]) == 0
    assert old.read_bytes() == fresh.read_bytes()


def test_out_to_devnull_exits_0(capsys):
    assert main(["stabilize", PENDULUM, "--out", os.devnull]) == 0
    assert capsys.readouterr() == ("", "")


@pytest.mark.parametrize("roots, lifted", [
    (ALPHA_ROOTS, False), (None, False), (None, True)],
    ids=["fixture-roots", "default", "numerator-times-z"])
def test_convert_verify_writes_the_bytes_of_convert(roots, lifted, tmp_path):
    # --verify recertifies with the factors the conversion carries, and
    # proves alpha as the first certificate did; with the plant numerator
    # times z the solution is lifted from the reduced problem, the factors
    # carry the lift, and the recomputed certificate keeps the warning
    problem = json.loads(Path(CONVERSION).read_text())
    if lifted:
        problem["plant"]["num"] = problem["plant"]["num"] + [0.0]
    source = tmp_path / "problem.json"
    source.write_text(json.dumps(problem))
    flags = ["--alpha-ini-roots=" + roots] if roots else []
    plain, verified = tmp_path / "plain.json", tmp_path / "verified.json"
    code = main(["convert", str(source), *flags, "--out", str(plain)])
    assert main(["convert", str(source), *flags, "--verify",
                 "--out", str(verified)]) == code
    assert verified.read_bytes() == plain.read_bytes()
    cert = json.loads(plain.read_text())["certificate"]
    assert cert["conditions"]["alpha_schur"] is True
    assert cert["witnesses"]["alpha_min_modulus_bound"] > 0.0
    assert ("plant numerator carries z^1; the solution was lifted from the "
            "reduced problem" in cert["warnings"]) == lifted


@pytest.mark.parametrize("case", ["problem-is-a-directory", "problem-not-utf8",
                                  "out-in-missing-dir", "csv-in-missing-dir",
                                  "out-is-a-directory"])
def test_file_that_cannot_be_read_or_written_exits_2(case, tmp_path, capsys,
                                                      monkeypatch):
    missing = tmp_path / "missing"
    (tmp_path / "bad.json").write_bytes(b"\xff\xfe{}")
    argv, path = {
        "problem-is-a-directory": (["stabilize", str(tmp_path)], tmp_path),
        "problem-not-utf8": (["stabilize", str(tmp_path / "bad.json")],
                             tmp_path / "bad.json"),
        "out-in-missing-dir": (["stabilize", PENDULUM, "--out",
                                str(missing / "x.json")], missing / "x.json"),
        "csv-in-missing-dir": (["simulate", CONVERSION, "--steps", "5",
                                "--out-csv", str(missing / "x.csv")],
                               missing / "x.csv"),
        "out-is-a-directory": (["stabilize", PENDULUM, "--out", str(tmp_path)],
                               tmp_path),
    }[case]
    # an output path is checked before the work it would hold

    def never(*args):
        raise AssertionError("the work ran before its output path was checked")

    monkeypatch.setattr(cli, "run_algorithm1", never)
    monkeypatch.setattr(cli, "simulate_loop", never)
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1 and str(path) in err
    assert err.startswith("cannot write output: ") == (
        case in ("out-in-missing-dir", "csv-in-missing-dir", "out-is-a-directory"))
    assert not missing.exists()


def test_analyze_warns_of_a_gamma_near_the_unit_circle(tmp_path, capsys):
    # plant 1/z with (alpha, beta, gamma) = (z, -r^2, z^2 - r^2): gamma's
    # roots +-r lie 1e-7 inside the unit circle, within the 1e-6 band
    r2 = (1.0 - 1e-7) ** 2
    f = tmp_path / "near.json"
    f.write_text(json.dumps({
        "plant": {"den": [1.0, 0.0], "num": [1.0]},
        "solution": {"alpha": [1.0, 0.0], "beta": [-r2],
                     "gamma": [1.0, 0.0, -r2]}}))
    assert main(["analyze", str(f)]) == 0
    cert = json.loads(capsys.readouterr().out)["certificate"]
    assert cert["passed"] is True
    assert cert["witnesses"]["gamma_spectral_radius"] == pytest.approx(1 - 1e-7)
    assert cert["warnings"] == [
        "gamma spectral radius 0.999999900 is within the near-unit-circle "
        "band; the stability verdict is fragile"]
