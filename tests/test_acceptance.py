"""Acceptance gate: one test per criterion, pinned tolerances, timed.

Each test is self-contained and checks the package against independently
computed targets (closed forms, brute-force enumerations, frozen constants).
`pytest -v tests/test_acceptance.py` gives one pass/fail line per criterion.
"""

import itertools
import random
import time
from fractions import Fraction

from hermlab.hall_littlewood import (
    _q_poly_cached,
    p_poly,
    part_multiplicities,
    q_poly,
    spec_params,
    w_lambda_value,
    w_poly,
    w_tilde,
    whole_group_value,
)
from hermlab.padic import (
    assert_unitary,
    classify_k_orbit,
    diagonalize_x1,
    is_member_X,
    random_k,
    x_lambda,
)
from hermlab.plancherel import (
    basis_rank_check,
    check_inversion,
    check_plancherel,
    expected_gram_diagonal,
    gram_matrix,
    total_mass,
    volume,
)
from hermlab.report import RunConfig, run_checks
from hermlab.residue import LocalField, monte_carlo_omega1, norm_count
from hermlab.scalars import QFraction, QLaurent
from hermlab.spherical import (
    check_functional_equation,
    check_gamma_cocycle,
    gamma_factor,
    identity_value_closed_form,
    identity_value_constant,
    omega_explicit,
    omega_rank1_s_form,
    omega_rank1_z_form,
    parity_sign_relation,
    rank1_substitution,
)
from hermlab.torus import TorusPoly
from hermlab.weyl import coordinate_flip, poincare_poly, stabilizer

PARITIES = ("odd", "even")


def partitions_up_to_weight(n, w):
    out = [(0,) * n]
    for weight in range(1, w + 1):
        for combo in itertools.combinations_with_replacement(range(weight, 0, -1), n):
            lam = tuple(sorted(combo, reverse=True))
            if sum(lam) == weight and lam not in out:
                out.append(lam)
        for length in range(1, n):
            for combo in itertools.combinations_with_replacement(
                range(weight, 0, -1), length
            ):
                lam = tuple(sorted(combo, reverse=True)) + (0,) * (n - length)
                if sum(lam) == weight and lam not in out:
                    out.append(lam)
    return out


def partitions_with_parts_up_to(max_part, n):
    out = []
    for combo in itertools.combinations_with_replacement(range(max_part, -1, -1), n):
        lam = tuple(sorted(combo, reverse=True))
        if lam not in out:
            out.append(lam)
    return out


def rational_points(rng, n, count):
    pts = []
    while len(pts) < count:
        xs = [Fraction(rng.randrange(2, 60), rng.randrange(2, 60)) for _ in range(n)]
        if any(x == 1 for x in xs):
            continue
        if len({x for x in xs} | {1 / x for x in xs}) < 2 * n:
            continue
        pts.append(xs)
    return pts


def test_criterion_01_norm_volume_exact():
    t0 = time.perf_counter()
    for p in (3, 5):
        q = Fraction(p)
        for xi in range(1, p):
            for r in range(4):
                got = norm_count(p, xi, r)
                want = 1 - 1 / q - 1 / q**2 if r == 0 else (1 - q**-2) * q**-r
                assert got == want, (p, xi, r)
    assert time.perf_counter() - t0 < 10


def test_criterion_02_membership_and_classification():
    t0 = time.perf_counter()
    rng = random.Random(2)
    for n in (1, 2):
        field = LocalField(3)
        for lam in partitions_up_to_weight(n, 3):
            assert is_member_X(x_lambda(field, n, lam))
            for _ in range(10):
                k = random_k(field, n, seed=rng.randrange(10**9))
                x = k.act(x_lambda(field, n, lam))
                assert is_member_X(x)
                assert classify_k_orbit(x) == lam
    assert time.perf_counter() - t0 < 30


def test_criterion_03_rank_one_closed_forms():
    t0 = time.perf_counter()
    rng = random.Random(3)
    for ell in range(6):
        explicit = omega_explicit(1, "odd", (ell,))
        for xs in rational_points(rng, 1, 5):
            x = xs[0]
            sf = omega_rank1_s_form(ell, rank1_substitution(x))
            zf = omega_rank1_z_form(ell, QFraction(QLaurent.const(x)))
            ex = explicit.eval_exact(xs).as_qfraction()
            assert sf == zf
            assert sf == ex
    assert time.perf_counter() - t0 < 5


def test_criterion_04_defining_integral_monte_carlo():
    t0 = time.perf_counter()
    for ell in (0, 1, 2):
        for s in (0, 1, 2):
            out = monte_carlo_omega1(ell, float(s), 100_000, 8, seed=0, p=3)
            err = abs(out["estimate"] - out["closed_form"])
            band = 3 * out["stderr"] + 1e-12
            assert err < band, (ell, s, err, band)
    assert time.perf_counter() - t0 < 120


def test_criterion_05_functional_equations_full_group():
    t0 = time.perf_counter()
    q = QLaurent.gen()
    rng = random.Random(5)
    for n in (1, 2):
        for parity in PARITIES:
            for lam in partitions_up_to_weight(n, 3):
                assert check_functional_equation(n, parity, lam)
            assert check_gamma_cocycle(n, parity, seed=5)
        # the sign-flip generator carries its printed rational factor
        flip = coordinate_flip(n)
        for xs in rational_points(rng, n, 3):
            x2 = xs[-1] ** 2
            explicit = QFraction(1 - QLaurent.term(x2, -1)) / QFraction(
                QLaurent.const(x2) - q**-1
            )
            assert gamma_factor(flip, "odd").eval_exact(xs) == explicit
            assert gamma_factor(flip, "even").eval_exact(xs) == QFraction(1)
    assert time.perf_counter() - t0 < 60


def test_criterion_06_macdonald_constant_term():
    t0 = time.perf_counter()
    for n in (1, 2, 3):
        for parity in PARITIES:
            zero = (0,) * n
            assert q_poly(n, parity, zero) == TorusPoly.const(
                n, whole_group_value(n, parity)
            )
            assert p_poly(n, parity, zero) == TorusPoly.const(n, QLaurent.const(1))
    assert time.perf_counter() - t0 < 60


def test_criterion_07_stabilizer_series_oracle():
    t0 = time.perf_counter()
    ts, _ = spec_params("odd")
    one_minus_t = QLaurent.const(1) - ts
    printed_branch_refuted = False
    for n in (1, 2, 3):
        for lam in partitions_with_parts_up_to(3, n):
            brute_odd = poincare_poly(stabilizer(lam, n), *spec_params("odd"))
            assert brute_odd == w_lambda_value(lam, n, "odd")
            assert brute_odd * one_minus_t ** (n + 1) == w_tilde(lam, n, ts)

            # the uncorrected zero-block factor contradicts the brute sum
            mult = part_multiplicities(lam, n)
            m0 = mult.get(0, 0)
            printed = w_poly(m0, ts)
            for v, m in mult.items():
                if v >= 1:
                    printed = printed * w_poly(m, ts)
            if brute_odd * one_minus_t ** (n + 1) != printed:
                printed_branch_refuted = True

            closed_even = w_poly(m0, ts) * w_poly(m0, ts)
            for v, m in mult.items():
                if v >= 1:
                    closed_even = closed_even * w_poly(m, ts)
            brute_even = poincare_poly(stabilizer(lam, n), *spec_params("even"))
            assert brute_even * one_minus_t**n == closed_even
    assert printed_branch_refuted
    assert time.perf_counter() - t0 < 30


def test_criterion_08_identity_value():
    t0 = time.perf_counter()
    for n in (1, 2, 3):
        for parity in PARITIES:
            assert identity_value_constant(n, parity) == identity_value_closed_form(
                n, parity
            )
            lam = (1,) + (0,) * (n - 1)
            assert omega_explicit(n, parity, lam).eval_at_base_point().is_one()
            assert omega_explicit(n, parity, (0,) * n).eval_at_base_point().is_one()
    assert time.perf_counter() - t0 < 10


def test_criterion_09_measure_and_gram():
    t0 = time.perf_counter()
    for n in (1, 2):
        lams = partitions_up_to_weight(n, 3)
        for parity in PARITIES:
            for q0 in (Fraction(3), Fraction(5)):
                assert abs(total_mass(n, parity, q0, 64) - 1.0) < 1e-8
                g = gram_matrix(lams, n, parity, q0)
                for i, li in enumerate(lams):
                    for j in range(len(lams)):
                        want = expected_gram_diagonal(li, n, parity, q0) if i == j else 0
                        assert g[i][j] == want, (n, parity, q0, li, j)
    assert time.perf_counter() - t0 < 120


def test_criterion_10_plancherel_and_inversion():
    t0 = time.perf_counter()
    q0 = Fraction(3)
    for n in (1, 2):
        lams = partitions_up_to_weight(n, 3)
        for parity in PARITIES:
            assert check_plancherel(lams, n, parity, q0)["misses"] == []
            assert check_inversion(lams, n, parity, q0)["misses"] == []
    assert volume((1,), 1, "odd", q0) == q0**2 - 1 == 8
    assert volume((1,), 1, "even", q0) == 4
    report = run_checks(["volume-prefactor-power"], RunConfig(n=1, q0=q0))
    assert report.passed
    line = report.to_text().splitlines()[0]
    assert "finding" in line and "volume-prefactor-power" in line
    assert time.perf_counter() - t0 < 120


def test_criterion_11_evaluation_rank():
    t0 = time.perf_counter()
    for n in (1, 2):
        for parity in PARITIES:
            out = basis_rank_check(n, parity, Fraction(3), seed=11, trials=5)
            assert out["ok"]
            assert len(out["dets"]) == 5
            assert min(out["dets"]) > 1e-6
    assert time.perf_counter() - t0 < 30


def test_criterion_12_constructive_diagonalization():
    t0 = time.perf_counter()
    done = 0
    for p in (3, 5, 7):
        field = LocalField(p)
        for ell in range(5):
            for trial in range(13):
                k0 = random_k(field, 1, seed=1000 * p + 10 * ell + trial)
                x = k0.act(x_lambda(field, 1, (ell,))).to_residue(12)
                k, got = diagonalize_x1(x)
                assert got == ell
                assert k.precision == 12
                assert_unitary(k)
                assert k.act(x) == x_lambda(field, 1, (ell,)).to_residue(12)
                done += 1
    assert done >= 100
    assert time.perf_counter() - t0 < 60


def test_criterion_13_parity_sign():
    t0 = time.perf_counter()
    for n in (1, 2):
        for lam in partitions_up_to_weight(n, 3):
            want = -1 if sum(lam) % 2 else 1
            assert parity_sign_relation(lam, n) == want
    assert time.perf_counter() - t0 < 10


def test_qpoly_rank4_cold_build():
    # one uncached build at n = 4: the term-by-term alternating sum over the
    # 384 group elements took 13.5-16 s on a 2-core machine, straightening 0.5 s
    lam = (2, 1, 1, 0)
    t0 = time.perf_counter()
    f = _q_poly_cached.__wrapped__(4, lam, *spec_params("odd"))
    assert time.perf_counter() - t0 < 5
    assert f.coeff(lam) == QFraction(w_lambda_value(lam, 4, "odd"))
