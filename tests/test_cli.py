import hashlib
import json
import subprocess
import sys
from fractions import Fraction

import pytest

from hermlab.cli import run
from hermlab.padic import LocalMatrix, assert_unitary, random_k, x_lambda
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
    assert code == 1
    assert got.err == "error: need at least two nodes per circle\n" and got.out == ""


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
    # the grid sum is math.fsum over a fixed walk, so neither threads nor
    # workers can reorder it
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
    ],
)
def test_config_file_bad_line_is_a_usage_error(tmp_path, capsys, text, message):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(text)
    assert run(["verify", "norm-volume", "--config", str(cfg)]) == 2
    got = capsys.readouterr()
    assert (got.out, got.err) == ("", message + "\n")


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


@pytest.mark.parametrize("parity, least", [("odd", "7.547e+05"), ("even", "2.947e+06")])
def test_plancherel_rank_n3_pinned(capsys, parity, least):
    code, out = invoke(capsys, "plancherel", "rank", "--n", "3", "--parity", parity)
    assert code == 0
    assert out == f"basis-rank: pass (least |det| {least})\n"


@pytest.mark.parametrize("trials", ["0", "-2"])
def test_plancherel_rank_needs_a_trial(capsys, trials):
    code = run(["plancherel", "rank", "--n", "1", "--parity", "odd", "--trials", trials])
    got = capsys.readouterr()
    assert code == 1
    assert got.err == "error: at least one trial is needed\n" and got.out == ""


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
        e = y.rows[i][i]
        assert e == e._coerce(want * p**y.shift, e.m)


def test_classify_pads_the_partition(capsys):
    code, out = invoke(capsys, "padic", "classify", "--n", "2", "--lambda", "1")
    assert code == 0
    assert (code, out) == invoke(capsys, "padic", "classify", "--n", "2", "--lambda", "1,0")
    assert "orbit: 1,0" in out


def test_classify_refuses_too_many_parts(capsys):
    code = run(["padic", "classify", "--n", "1", "--lambda", "2,1"])
    got = capsys.readouterr()
    assert code == 1 and got.out == ""
    assert got.err == "error: partition (2, 1) has more than 1 nonzero parts\n"


def test_mc_omega_agreement(capsys):
    code, out = invoke(
        capsys, "padic", "mc-omega", "--ell", "0", "--s", "1", "--samples", "1500",
        "--seed", "3",
    )
    assert code == 0
    assert "agreement: pass" in out


def test_mc_omega_small_sample_keeps_its_band(capsys):
    # all 50 draws land on one valuation; the band comes from the closed form
    code, out = invoke(
        capsys, "padic", "mc-omega", "--ell", "1", "--s", "1", "--samples", "50"
    )
    assert code == 0
    assert "estimate: 3.000000" in out and "stderr: 0.069" in out
    assert "agreement: pass" in out


@pytest.mark.parametrize(
    "flag, value, message",
    [
        ("--samples", "0", "at least one sample is needed"),
        ("--samples", "-5", "at least one sample is needed"),
        ("--ell", "-1", "the orbit index must be nonnegative"),
    ],
)
def test_mc_omega_rejects_bad_input(capsys, flag, value, message):
    base = {"--ell": "1", "--s": "1", "--samples": "200"}
    ref_args = dict(base, **{"--s": "-1"})
    code_ref = run(["padic", "mc-omega", *(x for kv in ref_args.items() for x in kv)])
    ref = capsys.readouterr()
    assert code_ref == 1
    assert ref.err == "error: the exponent must be nonnegative\n" and ref.out == ""
    args = dict(base, **{flag: value})
    code = run(["padic", "mc-omega", *(x for kv in args.items() for x in kv)])
    got = capsys.readouterr()
    assert code == code_ref
    assert got.err == f"error: {message}\n" and got.out == ""


PADIC_CHECKS = (
    "norm-volume,cartan-membership,defining-integral-mc,orbit-classification,"
    "k1-cell-counts,diagonalization-roundtrip"
)


@pytest.mark.parametrize(
    "extra, digest",
    [
        pytest.param(
            ("--n", "1"),
            "7611b289a727da4a887f2f13228f3d97dd812e6fffb469bf6768459501e9a292",
            id="n1-text",
        ),
        pytest.param(
            ("--n", "2", "--format", "json"),
            "a39c9cb68bfc6c62d67e7879ef5b3d3e33a007f747af49ddc7f54c0e40042de0",
            id="n2-json",
        ),
    ],
)
def test_padic_report_bytes_pinned(capsys, extra, digest):
    # recorded with the Monte-Carlo band from the closed-form variance; the
    # six checks run integer code and fixed-order float sums only
    code, out = invoke(capsys, "verify", PADIC_CHECKS, *extra, "--workers", "1")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


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


VERIFY_N3_CHECKS = (
    "norm-volume,rank1-closed-form,rank1-closed-form-sign,gamma-cocycle,"
    "stabilizer-closed-form,measure-total-mass,volume-prefactor-power,height-phase"
)


@pytest.mark.parametrize(
    "unloaded, argv",
    [
        (
            "hermlab.scalars,hermlab.padic",
            ["padic", "count-norm", "--p", "3", "--xi", "1", "--r", "1"],
        ),
        (
            "hermlab.scalars,hermlab.padic",
            ["padic", "mc-omega", "--ell", "1", "--s", "1", "--samples", "50"],
        ),
        ("hermlab.padic", ["verify", VERIFY_N3_CHECKS, "--n", "3", "--workers", "1"]),
        ("concurrent.futures", ["verify", "norm-volume", "--workers", "1"]),
    ],
    ids=["count-norm", "mc-omega", "verify-n3-checks", "verify-one-worker"],
)
def test_verbs_load_only_the_layers_they_run(unloaded, argv):
    # the residue verbs need neither the exact scalars nor the matrix layer;
    # only three checks use matrices; the pool loads only when it runs
    r = subprocess.run(
        [sys.executable, "-c", LOADED_AFTER_RUN, unloaded, *argv], capture_output=True, text=True
    )
    assert r.returncode == 0, r.stderr
    assert r.stdout.splitlines()[-1] == "0 False"


@pytest.mark.parametrize(
    "checks, loaded",
    [("norm-volume,orbit-classification", True), ("norm-volume,height-phase", False)],
)
def test_a_pool_loads_the_matrix_layer_before_it_forks(checks, loaded):
    # the workers inherit padic instead of each compiling it again
    argv = ["verify", checks, "--workers", "2"]
    r = subprocess.run(
        [sys.executable, "-c", LOADED_AFTER_RUN, "hermlab.padic", *argv], capture_output=True, text=True
    )
    assert r.returncode == 0, r.stderr
    assert r.stdout.splitlines()[-1] == f"0 {loaded}"


def test_report_does_not_load_numpy():
    # the verify workers fork from a parent without numpy and never import it
    r = subprocess.run(
        [sys.executable, "-c", "import sys, hermlab.report; print('numpy' in sys.modules)"],
        capture_output=True,
        text=True,
    )
    assert r.returncode == 0, r.stderr
    assert r.stdout == "False\n"


@pytest.mark.parametrize("n, code", [(0, 2), (4, 3)])
def test_verify_n_out_of_range_refused_before_the_layers_load(n, code):
    r = subprocess.run(
        [sys.executable, "-c", LOADED_AFTER_RUN, "hermlab.report", "verify", "all", "--n", str(n)],
        capture_output=True,
        text=True,
    )
    assert r.stdout == f"{code} False\n", r.stderr


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
