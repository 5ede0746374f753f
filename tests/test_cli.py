import hashlib
import importlib
import json
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from hermlab.cli import run
from hermlab.padic import LocalMatrix, assert_unitary, random_k, x_lambda
from hermlab.report import CHECKS, MATRIX_CHECKS, RESIDUE_CHECKS
from hermlab.residue import LocalField


def invoke(capsys, *argv):
    code = run(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_qpoly_pinned_output(capsys):
    code, out = invoke(capsys, "hl", "qpoly", "--n", "1", "--parity", "odd", "--lambda", "1")
    assert code == 0
    assert out == "x + x^{-1}\n"


def test_count_norm_pinned_output(capsys):
    code, out = invoke(capsys, "padic", "count-norm", "--p", "3", "--xi", "1", "--r", "0")
    assert code == 0
    assert out == "5/9\n"


def test_qpoly_json_form(capsys):
    code, out = invoke(
        capsys, "hl", "qpoly", "--n", "1", "--parity", "even", "--lambda", "2",
        "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["vars"] == 1
    exps = sorted(t["exp"][0] for t in payload["terms"])
    assert exps == [-2, 0, 2]


def test_verify_subset_passes(capsys):
    code, out = invoke(
        capsys, "verify", "norm-volume,height-phase,k1-cell-counts", "--n", "1",
        "--seed", "7", "--workers", "1",
    )
    assert code == 0
    assert out.count("PASS") == 3
    assert "all 3 checks passed" in out


def test_verify_unknown_check_is_usage_error(capsys):
    code, _ = invoke(capsys, "verify", "no-such-check")
    assert code == 2


def test_verify_usage_error_on_bad_verb():
    assert run(["bogus"]) == 2


def test_resource_exit_code(capsys):
    code, _ = invoke(capsys, "padic", "count-norm", "--p", "997", "--xi", "1", "--r", "3")
    assert code == 3


def test_precision_exit_code_from_deep_in_padic(capsys):
    # the sampler raises PrecisionError below two digits; run() maps it to 3
    code = run(
        ["padic", "mc-omega", "--ell", "0", "--s", "1", "--prec", "1", "--samples", "10"]
    )
    got = capsys.readouterr()
    assert code == 3
    assert got.err == "resource/precision: sampling needs at least two digits\n"


def test_roundtrip_check_runs_at_the_requested_precision(capsys):
    # one digit is enough for the reduction; zero digits is a precision limit
    code, out = invoke(capsys, "verify", "diagonalization-roundtrip", "--prec", "1", "--workers", "1")
    assert code == 0 and out.startswith("PASS  diagonalization-roundtrip")
    code = run(["verify", "diagonalization-roundtrip", "--prec", "0", "--workers", "1"])
    got = capsys.readouterr()
    assert code == 3
    assert got.err == "resource/precision: residue precision must be at least 1\n"


@pytest.mark.parametrize("prec", ["-1", "0"])
@pytest.mark.parametrize(
    "argv",
    [
        ("padic", "diagonalize1", "--ell", "2"),
        ("verify", "diagonalization-roundtrip", "--workers", "1"),
    ],
    ids=["diagonalize1", "roundtrip"],
)
def test_precision_below_one_is_a_precision_limit(capsys, argv, prec):
    # a negative precision once ended in a TypeError from pow() with exit 1
    code = run([*argv, "--prec", prec])
    got = capsys.readouterr()
    assert (code, got.out) == (3, "")
    assert got.err == "resource/precision: residue precision must be at least 1\n"


def test_math_fail_exit_code(capsys):
    # an under-resolved grid leaves quadrature error above tolerance: the
    # report must say so and the process must signal a mathematical failure
    code, out = invoke(
        capsys, "verify", "measure-total-mass", "--n", "1", "--grid-N", "8", "--workers", "1"
    )
    assert code == 1
    assert out.startswith("FAIL  measure-total-mass")


@pytest.mark.parametrize("grid_n", ["1", "0", "-3"])
def test_measure_total_mass_refuses_small_grid(capsys, grid_n):
    code = run(["verify", "measure-total-mass", "--n", "2", "--grid-N", grid_n, "--workers", "1"])
    got = capsys.readouterr()
    assert code == 2
    assert got.err == f"--grid-N must be at least 2, got {grid_n}\n" and got.out == ""


def test_measure_total_mass_refuses_a_grid_with_too_many_orbits(capsys):
    # N = 1024 at n = 3 has C(515, 3) W-orbits, above the enumeration bound;
    # N = 64 still sums its 6,545
    code = run(["verify", "measure-total-mass", "--n", "3", "--grid-N", "1024", "--workers", "1"])
    got = capsys.readouterr()
    assert code == 3 and got.out == ""
    assert got.err == (
        "resource/precision: summing 22632705 grid orbits (N = 1024, n = 3) exceeds the bound\n"
    )
    code, out = invoke(
        capsys, "verify", "measure-total-mass", "--n", "3", "--grid-N", "64", "--workers", "1"
    )
    assert code == 0
    assert out.splitlines()[0] == (
        "PASS  measure-total-mass          mass deviates from 1 by 2.143e-14 (grid 64, tol 1.0e-08)"
    )


def test_report_breaks_down_by_format(capsys):
    args = ["verify", "measure-total-mass", "--n", "1", "--workers", "1"]
    _, text = invoke(capsys, *args, "--format", "text")
    _, js = invoke(capsys, *args, "--format", "json")
    _, cs = invoke(capsys, *args, "--format", "csv")
    assert text.startswith("PASS")
    payload = json.loads(js)
    assert payload["results"][0]["id"] == "measure-total-mass"
    assert payload["results"][0]["passed"] is True
    assert cs.splitlines()[0] == "check,status,detail"


def test_verify_deterministic_bytes(capsys):
    args = ["verify", "cartan-membership,parity-sign", "--n", "1", "--seed", "5",
            "--format", "json"]
    _, first = invoke(capsys, *args)
    _, second = invoke(capsys, *args)
    assert first == second


def test_workers_do_not_change_bytes(capsys):
    base = ["verify", "norm-volume,identity-value,height-phase", "--n", "1"]
    _, seq = invoke(capsys, *base, "--workers", "1")
    _, par = invoke(capsys, *base, "--workers", "3")
    assert seq == par


def test_measure_total_mass_bytes_stable_n3(capsys):
    # the grid sum is math.fsum over the W-orbits of the grid, visited in one
    # fixed order, so neither threads nor workers can reorder it
    args = ["verify", "measure-total-mass,height-phase", "--n", "3", "--format", "json"]
    _, first = invoke(capsys, *args)
    _, second = invoke(capsys, *args)
    _, seq = invoke(capsys, *args, "--workers", "1")
    _, par = invoke(capsys, *args, "--workers", "2")
    assert first == second == seq == par


def test_config_file_defaults_and_flag_override(tmp_path, capsys):
    cfg = tmp_path / "suite.cfg"
    cfg.write_text("# defaults\nn = 1\nseed = 11\nformat = csv\n")
    code, out = invoke(capsys, "verify", "identity-value", "--config", str(cfg))
    assert code == 0
    assert out.splitlines()[0] == "check,status,detail"
    code, out = invoke(
        capsys, "verify", "identity-value", "--config", str(cfg), "--format", "text"
    )
    assert code == 0
    assert out.startswith("PASS")


def test_config_file_rejects_unknown_keys(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("bogus = 1\n")
    code, _ = invoke(capsys, "verify", "all", "--config", str(cfg))
    assert code == 2


def test_config_file_unreadable_is_a_usage_error(tmp_path, capsys):
    for path, reason in [
        (tmp_path / "missing.cfg", "[Errno 2] No such file or directory"),
        (tmp_path, "[Errno 21] Is a directory"),
    ]:
        assert run(["verify", "norm-volume", "--config", str(path)]) == 2
        got = capsys.readouterr()
        assert got.out == ""
        assert got.err == f"cannot read config file: {reason}: '{path}'\n"


@pytest.mark.parametrize(
    "text, message",
    [
        ("# defaults\nn 1\n", "config line 2 is not key = value: n 1"),
        ("n = x\n", "config value for n does not parse: 'x'"),
        ("seed = 7\nq0 = 1/0\n", "config value for q0 does not parse: '1/0'"),
        ("samples = 0\n", "config value for samples must be at least 1, got 0"),
        ("grid_n = 1\n", "config value for grid_n must be at least 2, got 1"),
        ("q0 = 1\n", "config value for q0 must be above 1, got 1"),
        ("p = 9\n", "config value for p must be an odd prime, got 9"),
        ("tol = 0\n", "config value for tol must be above 0, got 0.0"),
        ("workers = 0\n", "config value for workers must be at least 1, got 0"),
        ("format = xml\n", "config value for format must be one of text, json, csv, got 'xml'"),
    ],
)
def test_config_file_bad_line_is_a_usage_error(tmp_path, capsys, text, message):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(text)
    assert run(["verify", "norm-volume", "--config", str(cfg)]) == 2
    got = capsys.readouterr()
    assert (got.out, got.err) == ("", message + "\n")


# inputs outside the range of their flag: each exits 2 with one line on stderr
OUT_OF_RANGE = [
    (["padic", "classify", "--n", "0"], "--n must be at least 1, got 0"),
    (["padic", "classify", "--n", "-2", "--lambda", "1"], "--n must be at least 1, got -2"),
    (["padic", "count-norm", "--p", "3", "--xi", "1", "--r", "-1"], "--r must be at least 0, got -1"),
    (["padic", "count-norm", "--p", "3", "--xi", "3", "--r", "0"], "--xi must be a unit mod 3, got 3"),
    (["padic", "count-norm", "--p", "5", "--xi", "-10", "--r", "0"], "--xi must be a unit mod 5, got -10"),
    (["padic", "diagonalize1", "--ell", "-1"], "--ell must be at least 0, got -1"),
    (["verify", "all", "--samples", "0"], "--samples must be at least 1, got 0"),
    (["verify", "defining-integral-mc", "--samples", "-4"], "--samples must be at least 1, got -4"),
    (["verify", "measure-total-mass", "--tol", "-1"], "--tol must be above 0, got -1.0"),
    (["verify", "all", "--tol", "0"], "--tol must be above 0, got 0.0"),
    (["verify", "all", "--tol", "nan"], "--tol must be above 0, got nan"),
    (["verify", "all", "--workers", "0"], "--workers must be at least 1, got 0"),
    (["verify", "norm-volume", "--workers", "-2"], "--workers must be at least 1, got -2"),
    (["sph", "omega", "--ell", "-1", "--s", "1"], "--ell must be at least 0, got -1"),
    (["padic", "mc-omega", "--ell", "1", "--s", "nan"], "--s must be finite, got nan"),
    (["padic", "mc-omega", "--ell", "1", "--s", "inf"], "--s must be finite, got inf"),
    (["padic", "mc-omega", "--ell", "0", "--s=-inf"], "--s must be finite, got -inf"),
] + [
    (verb + ["--p", p], f"--p must be an odd prime, got {p}")
    for verb in (
        ["padic", "count-norm", "--xi", "1", "--r", "0"],
        ["padic", "classify"],
        ["padic", "diagonalize1", "--ell", "1"],
        ["padic", "mc-omega", "--ell", "1", "--s", "1"],
        ["verify", "all", "--n", "1"],
    )
    for p in ("4", "2", "1", "-3")
] + [
    (verb + ["--q0", q0], f"--q0 must be above 1, got {q0}")
    for verb in (
        ["verify", "all", "--n", "1"],
        ["plancherel", "gram", "--n", "1", "--parity", "odd"],
        ["plancherel", "check", "--n", "1", "--parity", "odd"],
        ["plancherel", "inversion", "--n", "1", "--parity", "even"],
        ["plancherel", "rank", "--n", "1", "--parity", "odd"],
    )
    for q0 in ("0", "1", "-1", "1/2")
]


@pytest.mark.parametrize(
    "argv, message",
    [
        (["verify", "norm-volume", "--q0", "abc"], "--q0 does not parse: 'abc'"),
        (["verify", "norm-volume", "--q0", "1/0"], "--q0 does not parse: '1/0'"),
        (["hl", "qpoly", "--n", "2", "--parity", "odd", "--lambda", "a"],
         "--lambda does not parse: 'a'"),
        (["sph", "omega", "--n", "2", "--lambda", "1", "--x", "1,y"], "--x does not parse: 'y'"),
        (["plancherel", "rank", "--n", "1", "--parity", "odd", "--q0", "x"],
         "--q0 does not parse: 'x'"),
        (["plancherel", "check", "--n", "1", "--parity", "odd", "--weight", "-1"],
         "--weight must be at least 0, got -1"),
        (["plancherel", "inversion", "--n", "1", "--parity", "odd", "--weight", "-1"],
         "--weight must be at least 0, got -1"),
        (["plancherel", "gram", "--n", "1", "--parity", "odd", "--weight", "-1"],
         "--weight must be at least 0, got -1"),
        (["hl", "qpoly", "--n", "2", "--parity", "odd", "--lambda", "1,2"],
         "--lambda: parts must be weakly decreasing: (1, 2)"),
        (["sph", "omega", "--n", "1", "--lambda", "1,1"],
         "--lambda: partition (1, 1) has more than 1 nonzero parts"),
        (["sph", "verify-feq", "--n", "1", "--parity", "odd", "--lambda", "-1"],
         "--lambda: negative part in (-1,)"),
        (["sph", "parity-sign", "--n", "1", "--lambda", "1,1"],
         "--lambda: partition (1, 1) has more than 1 nonzero parts"),
        (["padic", "classify", "--n", "1", "--lambda", "1,1"],
         "--lambda: partition (1, 1) has more than 1 nonzero parts"),
        (["plancherel", "rank", "--n", "1", "--parity", "odd", "--trials", "0"],
         "--trials must be at least 1, got 0"),
        (["verify", ","], "no checks named in ','"),
        (["verify", " "], "no checks named in ' '"),
    ]
    + OUT_OF_RANGE,
    ids=[
        "verify-q0-literal", "verify-q0-zero-denominator", "lambda", "x", "plancherel-q0",
        "plancherel-check-weight", "plancherel-inversion-weight", "plancherel-gram-weight",
        "hl-lambda-order", "sph-omega-lambda-parts", "sph-verify-feq-lambda-sign",
        "sph-parity-sign-lambda-parts", "padic-classify-lambda-parts", "plancherel-rank-trials",
        "verify-no-checks-comma", "verify-no-checks-blank",
    ]
    + [" ".join(argv) for argv, _ in OUT_OF_RANGE],
)
def test_flag_that_does_not_parse_is_a_usage_error(capsys, argv, message):
    assert run(argv) == 2
    got = capsys.readouterr()
    assert (got.out, got.err) == ("", message + "\n")


def _standard_phase(lam, n):
    # the shifted base-point convention replaced by the standard one, so the
    # two conventions agree and the weight-parity sign is lost
    from hermlab.spherical import phase_power

    return phase_power(lam, n, "odd")


def test_a_failing_check_is_a_line_not_an_abort(monkeypatch, capsys):
    monkeypatch.setattr("hermlab.spherical.alternative_phase_power", _standard_phase)
    code = run(["verify", "height-phase,parity-sign,norm-volume", "--n", "1", "--workers", "1"])
    got = capsys.readouterr()
    assert code == 1
    assert got.err == ""
    lines = got.out.splitlines()
    assert [line[:4] for line in lines[:3]] == ["PASS", "FAIL", "PASS"]
    assert lines[1] == "FAIL  parity-sign                 sign flip at (1,) is 1, expected -1"
    assert lines[3:] == ["1 of 3 checks failed"]


def test_parity_sign_verb_prints_the_observed_sign(monkeypatch, capsys):
    assert invoke(capsys, "sph", "parity-sign", "--n", "2", "--lambda", "2,1") == (0, "sign: -1\n")
    monkeypatch.setattr("hermlab.spherical.alternative_phase_power", _standard_phase)
    assert invoke(capsys, "sph", "parity-sign", "--n", "2", "--lambda", "2,1") == (1, "sign: +1\n")


@pytest.mark.parametrize(
    "argv",
    [
        ["verify-feq", "--n", "2", "--parity", "odd", "--lambda", "1", "--trials", "1"],
        ["verify-feq", "--n", "2", "--parity", "odd", "--lambda", "1", "--seed", "7"],
        ["parity-sign", "--n", "2", "--lambda", "1", "--seed", "7"],
    ],
    ids=["verify-feq-trials", "verify-feq-seed", "parity-sign-seed"],
)
def test_sph_checks_take_no_sampling_flags(capsys, argv):
    # both are exact identities: there are no points to draw
    assert run(["sph", *argv]) == 2
    got = capsys.readouterr()
    assert got.out == "" and f"unrecognized arguments: {' '.join(argv[-2:])}" in got.err


@pytest.mark.parametrize("verb", ["classify", "diagonalize1"])
def test_matrix_file_usage_errors(tmp_path, capsys, verb):
    missing = tmp_path / "missing.json"
    assert run(["padic", verb, "--in", str(missing)]) == 2
    got = capsys.readouterr()
    assert got.out == ""
    assert got.err == f"cannot read matrix file: [Errno 2] No such file or directory: '{missing}'\n"
    bad = tmp_path / "bad.json"
    bad.write_text("{not json\n")
    assert run(["padic", verb, "--in", str(bad)]) == 2
    got = capsys.readouterr()
    assert got.out == ""
    assert got.err.startswith(f"matrix file {bad} is not JSON: Expecting property name")
    assert got.err.count("\n") == 1


def test_bad_worker_count_in_the_environment_is_a_usage_error(monkeypatch, capsys):
    monkeypatch.setenv("HERMLAB_WORKERS", "abc")
    assert run(["verify", "norm-volume"]) == 2
    got = capsys.readouterr()
    assert (got.out, got.err) == ("", "HERMLAB_WORKERS must be an integer, got 'abc'\n")
    # a flag wins over the environment, so the variable is not read at all
    assert run(["verify", "norm-volume", "--workers", "1"]) == 0
    capsys.readouterr()
    monkeypatch.setenv("HERMLAB_WORKERS", "0")
    assert run(["verify", "norm-volume"]) == 2
    got = capsys.readouterr()
    assert (got.out, got.err) == ("", "HERMLAB_WORKERS must be at least 1, got 0\n")


@pytest.mark.parametrize("n, code", [(0, 2), (-1, 2), (4, 3), (7, 3)])
def test_verify_n_out_of_range(tmp_path, capsys, n, code):
    assert invoke(capsys, "verify", "identity-value", "--n", str(n)) == (code, "")
    cfg = tmp_path / "suite.cfg"
    cfg.write_text(f"n = {n}\n")
    assert invoke(capsys, "verify", "all", "--config", str(cfg)) == (code, "")


def test_sph_omega_closed_form(capsys):
    code, out = invoke(capsys, "sph", "omega", "--ell", "1", "--s", "1")
    assert code == 0
    assert out == "(q + q^{-4} - q^{-7} - q^{-12})/(1 + q^{-3} - q^{-8} - q^{-11})\n"


def test_sph_omega_wrong_coordinate_count(capsys):
    code = run(["sph", "omega", "--n", "2", "--lambda", "1", "--x", "2"])
    got = capsys.readouterr()
    assert code == 2
    assert got.err == "--x needs 2 coordinates, got 1\n" and got.out == ""


def test_sph_omega_refuses_a_zero_coordinate(capsys):
    code = run(["sph", "omega", "--n", "2", "--lambda", "1", "--x", "0,2"])
    got = capsys.readouterr()
    assert code == 2
    assert got.err == "--x coordinates must be nonzero: '0,2'\n" and got.out == ""


def test_sph_omega_reports_a_pole(capsys):
    # the boundary factor 1 + x1*x2 vanishes at (1, -1)
    code = run(["sph", "omega", "--n", "2", "--lambda", "1", "--x", "1,-1"])
    got = capsys.readouterr()
    assert code == 2
    assert got.err == "omega has a pole at x = (1, -1)\n" and got.out == ""


@pytest.mark.parametrize("ell", ["0", "3"])
def test_sph_omega_reports_the_rank_one_pole(capsys, ell):
    # at s = -1, u = q and the factor 1 - q^-4 u^4 of the closed form vanishes
    code = run(["sph", "omega", "--ell", ell, "--s", "-1"])
    got = capsys.readouterr()
    assert code == 2
    assert got.err == "omega has a pole at s = -1\n" and got.out == ""


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "norm-volume", "--workers", "1"],
        ["hl", "qpoly", "--n", "1", "--parity", "odd", "--lambda", "1"],
        ["sph", "omega", "--ell", "1", "--s", "1"],
        ["plancherel", "gram", "--n", "1", "--parity", "odd"],
        ["plancherel", "check", "--n", "1", "--parity", "odd"],
        ["plancherel", "inversion", "--n", "1", "--parity", "odd"],
        ["padic", "diagonalize1", "--ell", "1"],
    ],
    ids=lambda argv: " ".join(argv[:2]),
)
def test_an_out_file_that_cannot_be_written_is_a_usage_error(tmp_path, capsys, argv):
    path = tmp_path / "missing" / "out.txt"
    assert run([*argv, "--out", str(path)]) == 2
    err = capsys.readouterr().err
    assert err == f"cannot write {path}: No such file or directory\n"


def test_an_out_file_is_refused_before_any_check_runs(tmp_path, capsys, monkeypatch):
    def no_work(*args, **kwargs):
        raise AssertionError("run_checks ran before the --out path was tried")

    monkeypatch.setattr("hermlab.report.run_checks", no_work)
    path = tmp_path / "missing" / "report.json"
    for workers in ("1", "2"):
        argv = ["verify", "all", "--n", "3", "--workers", workers, "--out", str(path)]
        assert run(argv) == 2
        assert capsys.readouterr().err == f"cannot write {path}: No such file or directory\n"


def test_diagonalize1_prints_nothing_before_refusing_its_out_file(tmp_path, capsys):
    path = tmp_path / "missing" / "k.json"
    assert run(["padic", "diagonalize1", "--ell", "1", "--out", str(path)]) == 2
    got = capsys.readouterr()
    assert got.out == "" and got.err == f"cannot write {path}: No such file or directory\n"


def test_an_out_file_is_created_before_the_work(tmp_path, capsys):
    # as a shell redirection: a run refused after the arguments parse
    # leaves the file empty
    path = tmp_path / "report.txt"
    path.write_text("stale\n")
    assert run(["verify", "all", "--n", "4", "--out", str(path)]) == 3
    assert path.read_text() == ""
    assert run(["verify", "norm-volume", "--workers", "1", "--out", str(path)]) == 0
    assert path.read_text().startswith("PASS  norm-volume")


@pytest.mark.parametrize(
    "ell, s, span",
    [("1", "-3000000", 24000000), ("0", "33334", 200004), ("99998", "1", 200002), ("1", "25001", 200008)],
)
def test_sph_omega_refuses_a_span_above_the_bound(capsys, monkeypatch, ell, s, span):
    # refused before the exact layers load: building the value would fail
    def no_work(*args, **kwargs):
        raise AssertionError("the rank-one value was built")

    monkeypatch.setattr("hermlab.spherical.omega_rank1_s_form", no_work)
    assert run(["sph", "omega", "--ell", ell, "--s", s]) == 3
    got = capsys.readouterr()
    assert got.out == ""
    assert got.err == f"resource: sph omega supports 2 (ell + 3) |s| up to 200000, got {span}\n"


@pytest.mark.parametrize("ell, s", [("1", "-25000"), ("0", "33333"), ("99997", "1")])
def test_sph_omega_runs_at_the_span_bound(capsys, ell, s):
    assert run(["sph", "omega", "--ell", ell, "--s", s]) == 0
    got = capsys.readouterr()
    assert got.err == "" and got.out.endswith(")\n")


@pytest.mark.parametrize("verb", ["check", "inversion"])
def test_plancherel_pairing_verbs_write_their_line_to_out(tmp_path, capsys, verb):
    path = tmp_path / "line.txt"
    assert run(["plancherel", verb, "--n", "1", "--parity", "odd", "--out", str(path)]) == 0
    assert capsys.readouterr().out == ""
    assert path.read_text().endswith(" pass (0 of 9 exact pairings miss their targets)\n")


# The printed form of an exact evaluation (QFraction is not canonical), as
# recorded before evaluation moved onto monomial powers.
SPH_OMEGA_X_PINNED = {
    ("odd", "2,3"): "-I * q^(-2) * ((1/100 - 14/75*q^{-1} + 26/25*q^{-2} - 82/75*q^{-3}"
    " - 233/50*q^{-4} + 146/25*q^{-5} + 191/25*q^{-6} - 682/75*q^{-7} - 551/100*q^{-8}"
    " + 448/75*q^{-9} + 37/25*q^{-10} - 36/25*q^{-11})/(1 + q^{-1} - q^{-2} - q^{-5}"
    " + q^{-6} - q^{-7} - q^{-8} + q^{-9} - q^{-10} - q^{-13} + q^{-14} + q^{-15}))\n",
    ("odd", "2,1/2"): "-I * q^(-2) * ((2/25 - 33/50*q^{-1} + 28/25*q^{-2} + 58/25*q^{-3}"
    " - 132/25*q^{-4} - 67/25*q^{-5} + 208/25*q^{-6} + 18/25*q^{-7} - 142/25*q^{-8}"
    " + 31/50*q^{-9} + 36/25*q^{-10} - 8/25*q^{-11})/(1 + q^{-1} - q^{-2} - q^{-5}"
    " + q^{-6} - q^{-7} - q^{-8} + q^{-9} - q^{-10} - q^{-13} + q^{-14} + q^{-15}))\n",
    ("even", "2,3"): "-1 * q^(-3/2) * ((1/2 - 17/6*q^{-1} - 7/3*q^{-2} + 23/3*q^{-3}"
    " + 19/6*q^{-4} - 41/6*q^{-5} - 4/3*q^{-6} + 2*q^{-7})/(1 + q^{-1} - q^{-2}"
    " - 2*q^{-5} - q^{-8} + q^{-9} + q^{-10}))\n",
    ("even", "2,1/2"): "-1 * q^(-3/2) * ((1/2 - 2*q^{-1} - 3/2*q^{-2} + 6*q^{-3}"
    " + 3/2*q^{-4} - 6*q^{-5} - 1/2*q^{-6} + 2*q^{-7})/(1 + q^{-1} - q^{-2}"
    " - 2*q^{-5} - q^{-8} + q^{-9} + q^{-10}))\n",
}


@pytest.mark.parametrize("parity, x", sorted(SPH_OMEGA_X_PINNED))
def test_sph_omega_at_a_point_pinned(capsys, parity, x):
    got = invoke(capsys, "sph", "omega", "--n", "2", "--lambda", "1", "--parity", parity, "--x", x)
    assert got == (0, SPH_OMEGA_X_PINNED[parity, x])


@pytest.mark.parametrize("parity, least", [("odd", "7.547e+05"), ("even", "2.947e+06")])
def test_plancherel_rank_n3_pinned(capsys, parity, least):
    code, out = invoke(capsys, "plancherel", "rank", "--n", "3", "--parity", parity)
    assert code == 0
    assert out == f"basis-rank: pass (least |det| {least})\n"


@pytest.mark.parametrize("trials", ["0", "-2"])
def test_plancherel_rank_needs_a_trial(capsys, trials):
    code = run(["plancherel", "rank", "--n", "1", "--parity", "odd", "--trials", trials])
    got = capsys.readouterr()
    assert code == 2
    assert got.err == f"--trials must be at least 1, got {trials}\n" and got.out == ""


def test_sph_parity_sign(capsys):
    code, out = invoke(capsys, "sph", "parity-sign", "--n", "2", "--lambda", "2,1")
    assert code == 0
    assert out == "sign: -1\n"


def test_gram_csv_headers_and_complex_format(capsys):
    code, out = invoke(
        capsys, "plancherel", "gram", "--n", "1", "--parity", "odd", "--q0", "3",
        "--weight", "1",
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "partition;0;1"
    assert lines[1].startswith("0;1+0i;")
    assert lines[2].split(";")[2] == "0.888888888889+0i"


def test_matrix_file_roundtrip(tmp_path, capsys):
    field = LocalField(3)
    x = random_k(field, 1, seed=21).act(x_lambda(field, 1, (2,)))
    xfile = tmp_path / "x.json"
    xfile.write_text(json.dumps(x.to_json_dict()))

    code, out = invoke(capsys, "padic", "classify", "--in", str(xfile))
    assert code == 0
    assert "orbit: 2" in out and "member: yes" in out

    kfile = tmp_path / "k.json"
    code, out = invoke(
        capsys, "padic", "diagonalize1", "--in", str(xfile), "--prec", "12",
        "--out", str(kfile),
    )
    assert code == 0
    assert "orbit index: 2" in out
    k = LocalMatrix.from_json_dict(json.loads(kfile.read_text()))
    assert_unitary(k)
    y = k.act(x.to_residue(12))
    p = Fraction(3)
    for i, want in enumerate([p**2, Fraction(1), p**-2]):
        assert y.rows[i][i] == (want * p**y.shift % 3**12, 0)


NON_MEMBERS = pytest.mark.parametrize(
    "rows",
    [
        [[0, 0, 1], [0, 1, 0], [1, 0, 0]],
        [[3, 0, 0], [0, 1, 0], [0, 0, 1]],
        [[1, 2, 0], [0, 1, 0], [0, 0, 1]],
    ],
    ids=["antidiagonal", "diag-3-1-1", "not-hermitian"],
)


def _refuses_a_non_member(tmp_path, capsys, rows, verb):
    x = LocalMatrix.from_values(LocalField(3), rows)
    exact, residue = tmp_path / "exact.json", tmp_path / "residue.json"
    exact.write_text(json.dumps(x.to_json_dict()))
    residue.write_text(json.dumps(x.to_residue(12).to_json_dict()))
    # both models decide membership before anything else runs
    for path in (exact, residue):
        assert run(["padic", verb, "--in", str(path)]) == 1
        assert capsys.readouterr() == ("member: no\n", "")


@NON_MEMBERS
def test_diagonalize_refuses_a_non_member(tmp_path, capsys, rows):
    _refuses_a_non_member(tmp_path, capsys, rows, "diagonalize1")


@NON_MEMBERS
def test_classify_refuses_a_non_member(tmp_path, capsys, rows):
    _refuses_a_non_member(tmp_path, capsys, rows, "classify")


def test_residue_member_file_prints_member_yes(tmp_path, capsys):
    field = LocalField(3)
    x = random_k(field, 1, seed=21).act(x_lambda(field, 1, (2,)))
    xfile = tmp_path / "x.json"
    xfile.write_text(json.dumps(x.to_residue(5).to_json_dict()))
    code, out = invoke(capsys, "padic", "classify", "--in", str(xfile))
    assert code == 0
    assert out.startswith("member: yes\n") and "orbit: 2" in out
    code, out = invoke(capsys, "padic", "diagonalize1", "--in", str(xfile))
    assert (code, out) == (0, "member: yes\norbit index: 2\ncertified precision: 5\n")


def _matrix_file(**changes):
    d = LocalMatrix.identity(LocalField(3), 1).to_json_dict()
    d.update(changes)
    return d


@pytest.mark.parametrize(
    "payload",
    [
        {},
        [1, 2],
        _matrix_file(size=2, entries=[[["1", "0"], ["0", "0"]], [["1", "0"]]]),
        _matrix_file(shift=-1),
        _matrix_file(eps=4),
        _matrix_file(p=9),
        _matrix_file(size=3),
        _matrix_file(model="residue"),
        _matrix_file(model="residue", entries=[[[1, 0, 0]]]),
        _matrix_file(entries=[[["1/0", "0"]]]),
    ],
    ids=[
        "empty-object", "list", "ragged", "negative-shift", "square-eps", "p-9",
        "size-mismatch", "exact-entries-as-residue", "residue-precision-0", "zero-denominator",
    ],
)
@pytest.mark.parametrize("verb", ["classify", "diagonalize1"])
def test_malformed_matrix_file_is_a_usage_error(tmp_path, capsys, payload, verb):
    path = tmp_path / "x.json"
    path.write_text(json.dumps(payload))
    code = run(["padic", verb, "--in", str(path)])
    got = capsys.readouterr()
    assert code == 2 and got.out == ""
    assert got.err.startswith(f"matrix file {path} ") and got.err.count("\n") == 1
    assert "Traceback" not in got.err


def test_classify_pads_the_partition(capsys):
    code, out = invoke(capsys, "padic", "classify", "--n", "2", "--lambda", "1")
    assert code == 0
    assert (code, out) == invoke(capsys, "padic", "classify", "--n", "2", "--lambda", "1,0")
    assert "orbit: 1,0" in out


@pytest.mark.parametrize("argv", [["--n", "3", "--lambda", "2,1"], ["--n", "1", "--seed", "4"]])
def test_classify_eliminates_once(monkeypatch, capsys, argv):
    from hermlab import padic

    calls = []
    eliminate = padic.invariant_factors
    monkeypatch.setattr(padic, "invariant_factors", lambda x: calls.append(x) or eliminate(x))
    code, out = invoke(capsys, "padic", "classify", *argv)
    assert code == 0 and len(calls) == 1
    assert "orbit: " in out and "full-group class: " in out


def test_classify_refuses_too_many_parts(capsys):
    code = run(["padic", "classify", "--n", "1", "--lambda", "2,1"])
    got = capsys.readouterr()
    assert code == 2 and got.out == ""
    assert got.err == "--lambda: partition (2, 1) has more than 1 nonzero parts\n"


def test_mc_omega_agreement(capsys):
    code, out = invoke(
        capsys, "padic", "mc-omega", "--ell", "0", "--s", "1", "--samples", "1500",
        "--seed", "3",
    )
    assert code == 0
    assert "agreement: pass" in out


def test_mc_omega_small_sample_keeps_its_band(capsys):
    # all 10 draws land on one valuation; the band comes from the closed form
    code, out = invoke(
        capsys, "padic", "mc-omega", "--ell", "1", "--s", "1", "--samples", "10"
    )
    assert code == 0
    assert "estimate: 3.000000" in out and "stderr: 0.156" in out
    assert "agreement: pass" in out


@pytest.mark.parametrize(
    "p, code, out, err",
    [
        pytest.param(
            "5", 0,
            "PASS  k1-cell-counts              cell enumeration gives 2250000 + 18000 = 2268000,"
            " the full reduction count (q=5)\nall 1 checks passed\n",
            "",
            id="p5",
        ),
        pytest.param(
            "7", 3, "",
            "resource/precision: enumeration of 45308928 unitary matrices mod 7 exceeds the bound\n",
            id="p7",
        ),
    ],
)
def test_k1_cell_counts_reads_p(capsys, p, code, out, err):
    # p = 5 enumerates the 2,268,000 elements of U(3) mod 5; p = 7 would
    # enumerate 45,308,928 and is refused before it starts
    got_code = run(["verify", "k1-cell-counts", "--p", p, "--workers", "1"])
    got = capsys.readouterr()
    assert (got_code, got.out, got.err) == (code, out, err)


@pytest.mark.parametrize(
    "flag, value, message",
    [
        ("--samples", "0", "--samples must be at least 1, got 0"),
        ("--samples", "-5", "--samples must be at least 1, got -5"),
        ("--ell", "-1", "--ell must be at least 0, got -1"),
        ("--s", "-1", "--s must be at least 0, got -1.0"),
    ],
)
def test_mc_omega_rejects_bad_input(capsys, flag, value, message):
    args = dict({"--ell": "1", "--s": "1", "--samples": "200"}, **{flag: value})
    code = run(["padic", "mc-omega", *(x for kv in args.items() for x in kv)])
    got = capsys.readouterr()
    assert code == 2
    assert got.err == f"{message}\n" and got.out == ""


def test_out_of_range_input_is_refused_before_the_layers_load():
    # verify refuses before the report loads, padic before the matrix layer,
    # sph before the spherical layer
    refused = [argv for argv, _ in OUT_OF_RANGE if argv[0] in ("verify", "padic", "sph")]
    script = (
        "import sys\n"
        "from hermlab.cli import run\n"
        f"verbs = {refused!r}\n"
        "print([run(v) for v in verbs],\n"
        "      any(m in sys.modules for m in sys.argv[1].split(',')))\n"
    )
    r = subprocess.run(
        [sys.executable, "-c", script, "hermlab.report,hermlab.padic,hermlab.spherical"],
        capture_output=True,
        text=True,
    )
    assert r.stdout == f"{[2] * len(refused)} False\n", r.stderr


PADIC_CHECKS = (
    "norm-volume,cartan-membership,defining-integral-mc,orbit-classification,"
    "k1-cell-counts,diagonalization-roundtrip"
)


@pytest.mark.parametrize(
    "extra, digest",
    [
        pytest.param(
            ("--n", "1"),
            "065bd4f163021690be30db9438088093731ffc6d13908a6e9ca77890a9491b61",
            id="n1-text",
        ),
        pytest.param(
            ("--n", "2", "--format", "json"),
            "d10e9622588a14263706bf968856ae109bf1adcdd74fa511f01715bb2484753e",
            id="n2-json",
        ),
    ],
)
def test_padic_report_bytes_pinned(capsys, extra, digest):
    # recorded when the Monte-Carlo began to draw isotropic rows, with its
    # band from the closed-form variance; the six checks run integer code and
    # fixed-order float sums only
    code, out = invoke(capsys, "verify", PADIC_CHECKS, *extra, "--workers", "1")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize(
    "extra, digest",
    [
        pytest.param(
            ("--n", "1"),
            "942d3f0f9ed1b27679cb6ea5d5b8d09f3b14f2036885fbf3ba68de58b2c4a12c",
            id="n1-text",
        ),
        pytest.param(
            ("--n", "2", "--format", "json"),
            "291e538dd7ad7409e183cbdcb325f68440c672091f849397028e7519384a7fb9",
            id="n2-json",
        ),
    ],
)
def test_full_report_bytes_pinned(capsys, extra, digest):
    # all 22 checks; n1 recorded when the Monte-Carlo began to draw isotropic
    # rows, n2 when the total mass began to sum one node per W-orbit
    code, out = invoke(capsys, "verify", "all", *extra, "--workers", "1")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize(
    "extra, out_digest, file_digest",
    [
        pytest.param(
            ("--ell", "0", "--seed", "5"),
            "4ace104989c5a61e58deb232b8218421fc274e834d60ee0c699e501e1526f862",
            "9eda2122eb22203a216747110a5db4f4d62fc219a70bbe15bde0decfd3eb9361",
            id="ell0",
        ),
        pytest.param(
            ("--ell", "1", "--seed", "5"),
            "678c7993bd5eb94fa241fcd644b3719a53bc1ca28de3f5f36b8d5c9e921a043d",
            "8e4535b7c30247c3bd0dfa2340532dc83687df4fd7e3539bc4dfaeffb7929d44",
            id="ell1",
        ),
        pytest.param(
            ("--ell", "2", "--seed", "5"),
            "1167a385fbff2d7faf9b7068e20a3fafa357bd01073d31160ea70064ac91544c",
            "80d368e44175844d119e6e49262fe2b61edef6cf1a1d674669c9e7059ea91d5e",
            id="ell2",
        ),
        pytest.param(
            ("--ell", "3", "--seed", "5"),
            "7bd3922be0fd7cbb438b4e556e9117958b66107bdb283212c655db0c67876500",
            "8ae6b07d92752705e951b65dc63cf09f93151f269debd264a22c9984850a6344",
            id="ell3",
        ),
        pytest.param(
            ("--ell", "0", "--seed", "2", "--prec", "3"),
            "6b3ba4cb7e3a9508eb98fd207faa1c4f00c4188ac7a75f976d0c8ed389cccbfa",
            "08885a0cd6fbab258c1b859ae88ff166a99c5ee0c53dc8c0f61e6597887c03b4",
            id="ell0-prec3",
        ),
    ],
)
def test_diagonalize_bytes_pinned(tmp_path, capsys, extra, out_digest, file_digest):
    # recorded while residue entries were still objects with a precision each
    kfile = tmp_path / "k.json"
    code, out = invoke(capsys, "padic", "diagonalize1", *extra, "--out", str(kfile))
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == out_digest
    assert hashlib.sha256(kfile.read_bytes()).hexdigest() == file_digest


def test_classify_residue_file_bytes_pinned(tmp_path, capsys):
    field = LocalField(3)
    x = random_k(field, 2, seed=21).act(x_lambda(field, 2, (2, 1))).to_residue(12)
    xfile = tmp_path / "x.json"
    xfile.write_text(json.dumps(x.to_json_dict()))
    code, out = invoke(capsys, "padic", "classify", "--in", str(xfile))
    assert code == 0
    assert (
        hashlib.sha256(out.encode()).hexdigest()
        == "19ecb4c0d73a626a727f9002a6012fa66c8848c9256fd36594efe6426127b43c"
    )


def test_report_checks_are_the_benchmark_tallies():
    # perfbench/run.py keeps its own list of the check ids for its per-check
    # tallies; a renamed or reordered check must not drop out of them
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
    try:
        bench = importlib.import_module("run")
    finally:
        sys.path.pop(0)
        sys.modules.pop("run", None)
    assert tuple(CHECKS) == bench.CHECK_IDS


def test_run_checks_refuses_an_unknown_id():
    from hermlab.report import RunConfig, run_checks

    with pytest.raises(KeyError):
        run_checks(["norm-volume", "no-such-check"], RunConfig())


def test_console_script_end_to_end():
    # one true subprocess round to prove the installed entry point works
    r = subprocess.run(
        [sys.executable, "-m", "hermlab.cli", "hl", "qpoly", "--n", "2", "--parity",
         "even", "--lambda", "1,1"],
        capture_output=True,
        text=True,
    )
    assert r.returncode == 0
    assert "x1*x2" in r.stdout


# a fresh interpreter runs the verb given after comma-separated module names,
# then prints the exit code and whether any of those modules was loaded
LOADED_AFTER_RUN = (
    "import sys\n"
    "from hermlab.cli import run\n"
    "code = run(sys.argv[2:])\n"
    "print(code, any(m in sys.modules for m in sys.argv[1].split(',')))\n"
)


@pytest.mark.parametrize(
    "argv",
    [
        ["padic", "count-norm", "--p", "3", "--xi", "1", "--r", "1"],
        ["hl", "qpoly", "--n", "2", "--parity", "odd", "--lambda", "1,0"],
        ["sph", "omega", "--ell", "1", "--s", "1"],
        ["verify", "all", "--n", "1", "--workers", "2"],
        ["padic", "mc-omega", "--ell", "0", "--s", "1", "--samples", "50"],
        ["plancherel", "rank", "--n", "2", "--parity", "odd"],
        ["plancherel", "gram", "--n", "1", "--parity", "odd"],
    ],
)
def test_light_verbs_do_not_load_numpy(argv):
    # the plancherel verbs load neither the report nor the matrix laboratory
    unloaded = "numpy,hermlab.report,hermlab.padic" if argv[0] == "plancherel" else "numpy"
    r = subprocess.run(
        [sys.executable, "-c", LOADED_AFTER_RUN, unloaded, *argv], capture_output=True, text=True
    )
    assert r.returncode == 0, r.stderr
    assert r.stdout.splitlines()[-1] == "0 False"


# the residue verbs load neither the report, the exact scalars, the matrix
# layer, json nor the modules of the other verbs
RESIDUE_VERB_UNLOADED = (
    "json,hermlab.report,hermlab.scalars,hermlab.padic,"
    "hermlab.cmd_verify,hermlab.cmd_hl,hermlab.cmd_sph,hermlab.cmd_plancherel"
)

VERIFY_N3_CHECKS = (
    "norm-volume,rank1-closed-form,rank1-closed-form-sign,gamma-cocycle,"
    "stabilizer-closed-form,measure-total-mass,volume-prefactor-power,height-phase"
)


@pytest.mark.parametrize(
    "unloaded, argv",
    [
        (
            RESIDUE_VERB_UNLOADED,
            ["padic", "count-norm", "--p", "3", "--xi", "1", "--r", "1"],
        ),
        (
            RESIDUE_VERB_UNLOADED,
            ["padic", "mc-omega", "--ell", "1", "--s", "1", "--samples", "50"],
        ),
        ("hermlab.padic", ["verify", VERIFY_N3_CHECKS, "--n", "3", "--workers", "1"]),
        ("concurrent.futures,pickle,traceback", ["verify", "norm-volume", "--workers", "1"]),
        (
            "concurrent.futures,multiprocessing,traceback",
            ["verify", "all", "--n", "1", "--workers", "2"],
        ),
    ],
    ids=["count-norm", "mc-omega", "verify-n3-checks", "verify-one-worker", "verify-two-workers"],
)
def test_verbs_load_only_the_layers_they_run(unloaded, argv):
    # the residue verbs need neither the exact scalars nor the matrix layer;
    # only three checks use matrices; the parallel checks fork with os.fork
    # and need no process pool, and a serial run does not pickle
    r = subprocess.run(
        [sys.executable, "-c", LOADED_AFTER_RUN, unloaded, *argv], capture_output=True, text=True
    )
    assert r.returncode == 0, r.stderr
    assert r.stdout.splitlines()[-1] == "0 False"


@pytest.mark.parametrize(
    "checks, loaded",
    [("norm-volume,orbit-classification", True), ("norm-volume,height-phase", False)],
)
def test_parallel_verify_loads_the_matrix_layer_before_it_forks(checks, loaded):
    # the forked workers inherit padic instead of each compiling it again
    argv = ["verify", checks, "--workers", "2"]
    r = subprocess.run(
        [sys.executable, "-c", LOADED_AFTER_RUN, "hermlab.padic", *argv], capture_output=True, text=True
    )
    assert r.returncode == 0, r.stderr
    assert r.stdout.splitlines()[-1] == f"0 {loaded}"


VERB_ARGV = {
    "verify": ["verify", "height-phase", "--workers", "1"],
    "hl": ["hl", "qpoly", "--n", "1", "--parity", "odd", "--lambda", "1"],
    "sph": ["sph", "omega", "--ell", "1", "--s", "1"],
    "plancherel": ["plancherel", "rank", "--n", "1", "--parity", "odd"],
    "padic": ["padic", "count-norm", "--p", "3", "--xi", "1", "--r", "1"],
}


@pytest.mark.parametrize("verb", list(VERB_ARGV))
def test_a_verb_loads_its_own_module_and_no_other(verb):
    others = ",".join(f"hermlab.cmd_{v}" for v in VERB_ARGV if v != verb)
    for unloaded, loaded in ((others, False), (f"hermlab.cmd_{verb}", True)):
        r = subprocess.run(
            [sys.executable, "-c", LOADED_AFTER_RUN, unloaded, *VERB_ARGV[verb]],
            capture_output=True,
            text=True,
        )
        assert r.stdout.splitlines()[-1] == f"0 {loaded}", r.stderr


def test_the_module_run_as_main_is_compiled_once():
    # the verb modules import their helpers from hermlab.cli, which must find
    # the running module under that name instead of compiling it again
    argv = ["padic", "count-norm", "--p", "3", "--xi", "1", "--r", "1"]
    r = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "hermlab.cli", *argv],
        capture_output=True,
        text=True,
    )
    assert r.returncode == 0 and r.stdout == "8/27\n", r.stderr
    imported = [line.rsplit("|", 1)[-1].strip() for line in r.stderr.splitlines()]
    assert "hermlab.residue" in imported
    assert "hermlab.cli" not in imported


EXACT_CORE = ",".join(
    f"hermlab.{m}"
    for m in ("scalars", "weyl", "torus", "hall_littlewood", "spherical", "plancherel")
)


def _layer_set_unloaded(check_id: str) -> str:
    # a residue check loads no exact-core module and no matrix layer; an
    # exact-core check neither residue nor padic; a matrix check, which
    # reads its partitions from hall_littlewood, neither spherical nor
    # plancherel
    if check_id in RESIDUE_CHECKS:
        return EXACT_CORE + ",hermlab.padic"
    if check_id in MATRIX_CHECKS:
        return "hermlab.spherical,hermlab.plancherel"
    return "hermlab.residue,hermlab.padic"


@pytest.mark.parametrize("check_id", list(CHECKS))
def test_a_check_run_alone_loads_only_its_layers(check_id):
    argv = ["verify", check_id, "--n", "1", "--workers", "1"]
    r = subprocess.run(
        [sys.executable, "-c", LOADED_AFTER_RUN, _layer_set_unloaded(check_id), *argv],
        capture_output=True,
        text=True,
    )
    assert r.returncode == 0, r.stderr
    assert r.stdout.splitlines()[-1] == "0 False"


def test_norm_volume_loads_the_residue_kernels():
    argv = ["verify", "norm-volume", "--workers", "1"]
    r = subprocess.run(
        [sys.executable, "-c", LOADED_AFTER_RUN, "hermlab.residue", *argv],
        capture_output=True,
        text=True,
    )
    assert r.stdout.splitlines()[-1] == "0 True", r.stderr


# a fresh interpreter runs `verify` with every check wrapped, as
# test_the_long_checks_are_handed_out_first wraps them, so that each result
# carries its process and the hermlab modules that process imported after
# the fork (the ones it holds when it starts its first check)
WATCHED_VERIFY = (
    "import os, sys, time\n"
    "from hermlab import report\n"
    "from hermlab.cli import run\n"
    "def hermlab_modules():\n"
    "    return {m for m in sys.modules if m.startswith('hermlab')}\n"
    "at_fork = {}\n"
    "def watched(check):\n"
    "    def run_watched(cfg):\n"
    "        before = at_fork.setdefault(os.getpid(), hermlab_modules())\n"
    "        time.sleep(0.05)  # so that both processes take checks\n"
    "        check(cfg)\n"
    "        new = sorted(hermlab_modules() - before)\n"
    "        return True, '', {'pid': os.getpid(), 'new': new}\n"
    "    return run_watched\n"
    "report.CHECKS = {c: watched(f) for c, f in report.CHECKS.items()}\n"
    "sys.exit(run(sys.argv[1:]))\n"
)


@pytest.mark.parametrize(
    "checks",
    [
        "all",
        "norm-volume,k1-cell-counts,defining-integral-mc",
        "height-phase,parity-sign,measure-total-mass",
        "orbit-classification,diagonalization-roundtrip,cartan-membership",
        "norm-volume,height-phase,diagonalization-roundtrip",
    ],
)
def test_a_parallel_run_imports_no_layer_after_the_fork(checks):
    argv = ["verify", checks, "--n", "1", "--workers", "2", "--format", "json"]
    r = subprocess.run(
        [sys.executable, "-c", WATCHED_VERIFY, *argv], capture_output=True, text=True
    )
    assert r.returncode == 0, r.stderr
    results = json.loads(r.stdout)["results"]
    assert len({res["data"]["pid"] for res in results}) == 2
    assert [res["data"]["new"] for res in results] == [[]] * len(results)


def test_report_does_not_load_numpy():
    # the verify workers fork from a parent without numpy and never import it
    r = subprocess.run(
        [sys.executable, "-c", "import sys, hermlab.report; print('numpy' in sys.modules)"],
        capture_output=True,
        text=True,
    )
    assert r.returncode == 0, r.stderr
    assert r.stdout == "False\n"


def test_report_does_not_load_the_introspection_modules():
    # RunConfig and CheckResult are plain classes: no dataclasses, and none
    # of the modules it pulls in, at the cold start of every verify
    heavy = ("dataclasses", "inspect", "ast", "dis", "tokenize")
    r = subprocess.run(
        [
            sys.executable,
            "-c",
            f"import sys, hermlab.report; print([m for m in {heavy!r} if m in sys.modules])",
        ],
        capture_output=True,
        text=True,
    )
    assert r.returncode == 0, r.stderr
    assert r.stdout == "[]\n"


@pytest.mark.parametrize("n, code", [(0, 2), (4, 3)])
def test_verify_n_out_of_range_refused_before_the_layers_load(n, code):
    r = subprocess.run(
        [sys.executable, "-c", LOADED_AFTER_RUN, "hermlab.report", "verify", "all", "--n", str(n)],
        capture_output=True,
        text=True,
    )
    assert r.stdout == f"{code} False\n", r.stderr


@pytest.mark.parametrize("n, code", [(0, 2), (21, 3), (80, 3)])
def test_classify_n_out_of_range_refused_before_padic_loads(n, code):
    argv = ["padic", "classify", "--n", str(n)]
    r = subprocess.run(
        [sys.executable, "-c", LOADED_AFTER_RUN, "hermlab.padic", *argv], capture_output=True, text=True
    )
    assert r.stdout == f"{code} False\n"
    if code == 2:
        assert r.stderr == f"--n must be at least 1, got {n}\n"
    else:
        assert r.stderr == f"resource: padic classify supports --n up to 20, got {n}\n"


@pytest.mark.parametrize(
    "ell, s",
    [("1", "800"), ("700", "1"), ("1", "600"), ("3", "300")],
)
def test_mc_omega_outside_the_float_range_is_a_resource_limit(capsys, ell, s):
    # finite input whose estimate or closed form overflows a float
    code = run(["padic", "mc-omega", "--ell", ell, "--s", s, "--samples", "200"])
    got = capsys.readouterr()
    assert code == 3 and got.out == ""
    assert got.err == (
        f"resource/precision: the rank-one estimate at ell = {ell}, s = {float(s)} "
        "leaves the float range\n"
    )


QPOLY_VERBS = [
    ["hl", "qpoly", "--parity", "odd", "--lambda", "1"],
    ["sph", "omega", "--lambda", "1"],
    ["sph", "verify-feq", "--parity", "odd", "--lambda", "1"],
    ["sph", "parity-sign", "--lambda", "1"],
    ["plancherel", "gram", "--parity", "odd"],
    ["plancherel", "check", "--parity", "odd"],
    ["plancherel", "inversion", "--parity", "odd"],
    ["plancherel", "rank", "--parity", "odd"],
]


@pytest.mark.parametrize("verb", QPOLY_VERBS, ids=lambda v: " ".join(v[:2]))
@pytest.mark.parametrize("n, code", [(0, 2), (5, 3)])
def test_qpoly_verbs_bound_n(capsys, verb, n, code):
    assert run(verb + ["--n", str(n)]) == code
    got = capsys.readouterr()
    assert got.out == ""
    if code == 2:
        assert got.err == f"--n must be at least 1, got {n}\n"
    else:
        assert got.err == f"resource: {verb[0]} {verb[1]} supports --n up to 4, got {n}\n"


PLANCHEREL_WEIGHT_BOUNDS = {1: 128, 2: 14, 3: 6, 4: 3}


@pytest.mark.parametrize("verb", ["gram", "check", "inversion"])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_plancherel_weight_above_its_bound_is_a_resource_limit(capsys, verb, n):
    weight = PLANCHEREL_WEIGHT_BOUNDS[n] + 1
    code = run(["plancherel", verb, "--n", str(n), "--parity", "even", "--weight", str(weight)])
    got = capsys.readouterr()
    assert code == 3 and got.out == ""
    assert got.err == (
        f"resource: plancherel {verb} supports --weight up to {weight - 1} "
        f"at --n {n}, got {weight}\n"
    )


def test_plancherel_weight_is_refused_before_the_layers_load():
    layers = "hermlab.scalars,hermlab.hall_littlewood,hermlab.plancherel"
    argv = ["plancherel", "check", "--n", "2", "--parity", "odd", "--weight", "10000"]
    r = subprocess.run(
        [sys.executable, "-c", LOADED_AFTER_RUN, layers, *argv], capture_output=True, text=True
    )
    assert r.stdout == "3 False\n"
    assert r.stderr == "resource: plancherel check supports --weight up to 14 at --n 2, got 10000\n"


def test_plancherel_usage_errors_come_before_the_weight_bound(capsys):
    for extra, err in (
        (["--weight", "-1"], "--weight must be at least 0, got -1\n"),
        (["--weight", "999", "--q0", "1"], "--q0 must be above 1, got 1\n"),
    ):
        assert run(["plancherel", "gram", "--n", "1", "--parity", "odd", *extra]) == 2
        assert capsys.readouterr().err == err


def test_qpoly_verbs_refuse_n_before_the_layers_load():
    layers = ",".join(
        f"hermlab.{m}"
        for m in ("weyl", "torus", "hall_littlewood", "spherical", "plancherel", "report", "padic")
    )
    script = (
        "import sys\n"
        "from hermlab.cli import run\n"
        f"verbs = {QPOLY_VERBS!r}\n"
        "print([run(v + ['--n', n]) for v in verbs for n in ('0', '5')],\n"
        "      any(m in sys.modules for m in sys.argv[1].split(',')))\n"
    )
    r = subprocess.run([sys.executable, "-c", script, layers], capture_output=True, text=True)
    assert r.stdout == f"{[2, 3] * len(QPOLY_VERBS)} False\n", r.stderr


# Usage, help and error text of the front end, for every verb and sub-verb,
# as sha256 of "exit code NUL stdout NUL stderr" at 80 columns; recorded
# before the verbs moved into modules of their own.  argparse lays its text
# out differently from one Python minor version to the next; these are 3.11's.
ARGPARSE_PINNED = {
    "": "e701996199364de865853a840f0eb3cb64344558607b3f37c4759b00c198a5fe",
    "--help": "1e8a46621ccd91f27e1a41b583202b9c5eed1603476822c50a6fde3dd761c57c",
    "frob": "64f60fc0929f69e2a7a97b2c6fcb78dba4328717cc4f587a52373a7d988035cc",
    "verify": "cffc4c4df21b7b184fbdccfa3da12d4df6a7b6bbde22e3a76a1d9be6ad0bd126",
    "verify --help": "c764c69037025c562d8b73b90e9e867a9485abedd2bc1d7a29f0b3607f74ca45",
    "verify all --format xml": "363f8f440fef4f69af82723c5ab125d2656441c888c359e888734afa0694aa6c",
    "verify all --n x": "306951a0a6c792e9674091908f67b0d92421cc54271241a1fa44183cdc18c8fa",
    "hl": "aafba467b1a4eebcc4ac308203f4a2547bd198f600a4fcc93fe60f3e0b4cd825",
    "hl --help": "d3394bbae72dc3a38e5fb60894c4f61978afbe68f26221a7855cf044806e3118",
    "hl frob": "8018754aa37879665cb00bf03ee86358d7758eb35916d9a126b395c61e4171f2",
    "hl qpoly": "ee167ac6603b64bbfacfdecd9389222f5bc52e386d850975a5ea91c8be0d49f1",
    "hl qpoly --help": "421c4df66d0e11da3cc0dcf7ffc758ac4cc9291e89afecc03933cc526d532afd",
    "sph": "41556d170671e1708e881e1807d934feea2a8d20a6f94ef45cfdac66707e9fd1",
    "sph --help": "183cd5b92059d3a21d89ab109aa1b07243e31a909f1cf5b6539eb4d0bf8b5e6a",
    "sph omega --ell": "4d829e227a33cd9b12cd314dfe9db9a17a38f233990552a274e1da1b2799ca50",
    "sph omega --help": "a182c208967b6869d93fb646ef31d530c1002479825404e5a43979823a65e380",
    "sph verify-feq": "afbf57e70a6637c9633dfaad7b0c25dd0cd67e14855af8058961a0c0e3513537",
    "sph verify-feq --help": "55d9ccfdb2c7c86c9f62948cc4a12049497f67ba966891e4d7400d1e96732a06",
    "sph parity-sign": "5b6f80b9b9a9411f5e0cac2da13c4510bbec0891856287de92bc7d7897f04338",
    "sph parity-sign --help": "1d40f84de430bf18a6e18990ae5cb106f91d34cc98ce4e35fc90d4f6bd0f5c13",
    "plancherel": "e42dedc7cf9be67182bee973030a44b553c2999fac06acf7f2453a5bf72e89a2",
    "plancherel --help": "32d1c21d07ebea34ba0ee75502b31d6c17372cc89f9a3c2d4a8a9faaf0a852a3",
    "plancherel gram": "4aac6f9f68611fe415f56f7dcf564d9c890068c7dd4b1dbb90d56ba538807291",
    "plancherel gram --help": "3ec175784da20c21c50d3148aaec2367b72f65f8a83b0e6d24890c65066b3ffb",
    "plancherel check": "5cc13c3fe8e3fa518c215976629e0c6612e2b9c9b757c9cb2391840378cefd77",
    "plancherel check --help": "312e57ff61907ad55d35e4cac5f98417c09a6c659653582585304724f3406cd3",
    "plancherel inversion": "74429fc22c7d5a514b15d3a1267ea5f867dd2f587adb573d9020462a29b1154d",
    "plancherel inversion --help": "10263896f30b3458fc6152c7e755f622d9d1109e69d87cae96dbbfac05d9fdda",
    "plancherel rank": "1302e3c9bb4edf9c8e6c8a8ee5b71197136353538dc1927d7fbe7f9565c59e11",
    "plancherel rank --help": "3d96196ad4d0a761b9933a0111f6583fb972996c9370667c103f00905eb1c1fd",
    "padic": "72592d426a3cd30b99b1b2b2ca28f9c5973df7d98587aaa18c9a3445a17721d5",
    "padic --help": "ead361646fa875e73eadf6a1b3885f03342d0e6650c2c8ee80c216f3837dfe8a",
    "padic frob": "900c23aa5c660f3a67966b6b389294c21571a2278a4be0e6f2aae9510474d989",
    "padic count-norm": "09f134dc2b7f6dd333579cffa77d542cee6b64c06ba3645af6695aea2724c2b3",
    "padic count-norm --help": "462ad0072d6ed740ef7861eccdfb2768bd7a8e18c8a9f38dfdfaa8f51b4ab5dd",
    "padic classify --p": "36902f8042108b4fd6258b5f309bc98720d0da43c2e1c2c9c5837211750942cc",
    "padic classify --help": "a6b644baf56210bd7bebb64e98d03c648d079c8dd310f68d8c8160814e3c7936",
    "padic diagonalize1 --in": "e15b17efa17dd3e3ce1549cc2acf91e2dbaa37bfd2bc9f4f831206ea715e0422",
    "padic diagonalize1 --help": "1215b080b80e62ec5617709fb7878aec0cb4e7503c3d04ab5336aed6084c0ee9",
    "padic mc-omega": "a711666fc74842f00906650b412780c939231da964039e210e4f0eac14e1b052",
    "padic mc-omega --help": "f956e305e80832a0afc1a0539e756a75f5df55add7eec7a7ab00ad8b00b1c139",
    "padic mc-omega --ell 1 --s x": "8bb2b85eea52e323e9c137cbb0805b174f7fc2759b9c6b3ae850f9e1cb6d4511",
}


@pytest.mark.skipif(sys.version_info[:2] != (3, 11), reason="pinned on 3.11's argparse layout")
@pytest.mark.parametrize("argv", list(ARGPARSE_PINNED), ids=lambda a: a or "(no arguments)")
def test_argparse_output_bytes_pinned(monkeypatch, capsys, argv):
    monkeypatch.setenv("COLUMNS", "80")
    code = run(argv.split())
    got = capsys.readouterr()
    record = f"{code}\0{got.out}\0{got.err}".encode()
    assert hashlib.sha256(record).hexdigest() == ARGPARSE_PINNED[argv], (code, got)
