import hashlib
import heapq
import itertools
import json
import random
from fractions import Fraction
from functools import lru_cache

import pytest

from hermlab.hall_littlewood import (
    PARITIES,
    _alternant_quotient,
    _q_poly_cached,
    check_partition,
    p_poly,
    partitions,
    q_poly,
    q_poly_coefficients,
    spec_params,
    w_lambda_value,
    w_poly,
    w_tilde,
    whole_group_value,
)
from hermlab.scalars import QFraction, QLaurent
from hermlab.torus import Binomial, FactoredRational, TorusPoly
from hermlab.weyl import (
    SignedPerm,
    enumerate_group,
    length,
    long_positive_roots,
    poincare_poly,
    positive_roots,
    short_positive_roots,
    stabilizer,
)

Q = QLaurent.gen()


def expand(b):
    """The binomial 1 - coef * x^alpha as a TorusPoly."""
    n = len(b.alpha)
    return TorusPoly.const(n, 1) - TorusPoly(n, {b.alpha: b.coef})


def unit_binomial_div(f, alpha):
    """Reference long division of a TorusPoly by 1 - x^alpha: peel the term
    lowest along alpha and carry it one step up; the division is exact when
    nothing is left above the top of f."""

    def key(e):
        return sum(a * b for a, b in zip(e, alpha))

    rem = dict(f.terms())
    top = max(map(key, rem), default=0)
    heap = [(key(e), e) for e in rem]
    heapq.heapify(heap)
    quot = {}
    while rem:
        k, e = heapq.heappop(heap)
        c = rem.pop(e, None)
        if c is None:
            continue  # its remainder cancelled to zero
        assert k <= top, "remainder survives binomial division"
        quot[e] = c
        e2 = tuple(a + b for a, b in zip(e, alpha))
        s = rem.get(e2)
        if s is None:
            rem[e2] = c
            heapq.heappush(heap, (key(e2), e2))
        elif (s + c).is_zero():
            del rem[e2]
        else:
            rem[e2] = s + c
    return TorusPoly(f.n, quot)


def orbit(lam, n):
    """The full signed-permutation orbit of a vector."""
    v = tuple(lam) + (0,) * (n - len(lam))
    return {g.act_vector(v) for g in enumerate_group(n)}


def partitions_with(max_part, max_len):
    """All partitions with parts <= max_part and length <= max_len."""
    out = [()]
    for length in range(1, max_len + 1):
        for combo in itertools.combinations_with_replacement(
            range(max_part, 0, -1), length
        ):
            out.append(tuple(sorted(combo, reverse=True)))
    return sorted(set(out))


def test_check_partition():
    assert check_partition((2, 1), 3) == (2, 1, 0)
    with pytest.raises(ValueError):
        check_partition((1, 2), 2)
    with pytest.raises(ValueError):
        check_partition((1, 1, 1), 2)
    with pytest.raises(ValueError):
        check_partition((-1,), 1)


# frozen small values, both parities
def test_qpoly_rank1_frozen():
    assert q_poly(1, "odd", ()) == TorusPoly.const(1, 1 - Q**-2)
    assert q_poly(1, "even", ()) == TorusPoly.const(1, 1 + Q**-1)
    x = TorusPoly(1, {(1,): 1})
    xi = TorusPoly(1, {(-1,): 1})
    assert q_poly(1, "odd", (1,)) == x + xi
    assert q_poly(1, "even", (1,)) == x + xi
    assert q_poly(1, "odd", (2,)) == x**2 + xi**2 + TorusPoly.const(1, 1 + Q**-2)
    assert q_poly(1, "even", (2,)) == x**2 + xi**2 + TorusPoly.const(1, 1 - Q**-1)


def test_qpoly_symmetric():
    for n, lam in [(1, (2,)), (2, (1,)), (2, (2, 1)), (3, (1, 1, 0))]:
        for parity in ("odd", "even"):
            f = q_poly(n, parity, lam)
            assert all(f.weyl(g) == f for g in enumerate_group(n))


def test_qpoly_top_coefficient_is_stabilizer_series():
    # coefficient of x^lam in q_poly equals the stabilizer Poincare series
    for n, lam in [(1, (1,)), (2, (1, 1)), (2, (2, 0)), (3, (2, 1, 0))]:
        for parity in ("odd", "even"):
            f = q_poly(n, parity, lam)
            top = dict(f.terms())[check_partition(lam, n)]
            assert top == QFraction(w_lambda_value(lam, n, parity))


def test_macdonald_constant():
    # the empty-partition orbit sum collapses to the whole-group series
    for n in (1, 2, 3):
        for parity in ("odd", "even"):
            f = q_poly(n, parity, ())
            assert f == TorusPoly.const(n, whole_group_value(n, parity))


def test_ppoly_normalization():
    for n in (1, 2):
        for parity in ("odd", "even"):
            assert p_poly(n, parity, ()) == TorusPoly.const(n, 1)
            for lam in [(1,), (1, 1), (2, 1)]:
                lam = check_partition(lam, n) if len(lam) <= n else None
                if lam is None:
                    continue
                f = p_poly(n, parity, lam)
                assert dict(f.terms())[lam] == QFraction(1)


def test_degeneracy_at_unit_parameters():
    # with both parameters set to 1 the kernel collapses and the orbit sum
    # degenerates to |stabilizer| times the plain orbit sum
    one = QLaurent.const(1)
    for n, lam in [(1, (2,)), (2, (1, 0)), (2, (2, 1)), (3, (1, 1, 0))]:
        f = _q_poly_cached(n, lam, one, one)
        k = len(stabilizer(lam, n))
        expect = TorusPoly(n)
        for e in orbit(lam, n):
            expect = expect + TorusPoly(n, {e: k})
        assert f == expect


def c_function(n, t_short, t_long):
    """The one-term kernel whose group symmetrization gives the orbit sums:

        prod over positive roots a of (1 - t_a x^(-a)) / (1 - x^(-a)).
    """
    num = []
    den = []
    for a in short_positive_roots(n):
        neg = tuple(-v for v in a)
        num.append(Binomial(t_short, neg))
        den.append(Binomial(1, neg))
    for a in long_positive_roots(n):
        neg = tuple(-v for v in a)
        num.append(Binomial(t_long, neg))
        den.append(Binomial(1, neg))
    return FactoredRational(1, num, den)


def test_symmetrized_kernel_matches_qpoly_at_points():
    # q_poly equals the sum over the group of x^lam * kernel evaluated at
    # the transformed point (rational x, q symbolic); this uses neither
    # polynomial expansion of q_poly
    rng = random.Random(23)
    cases = [
        (2, (1, 0)),
        (2, (1, 1)),
        (2, (2, 1)),
        (3, (1, 0, 0)),
        (3, (1, 1, 0)),
    ]
    ts, tl = spec_params("odd")
    for n, lam in cases:
        ker = c_function(n, ts, tl)
        f = q_poly(n, "odd", lam)
        for _ in range(3):
            xs = [Fraction(rng.randrange(2, 40), rng.randrange(2, 40)) for _ in range(n)]
            if len({abs(x) for x in xs}) < n or any(x == 1 for x in xs):
                continue  # stay away from kernel poles
            total = QFraction(0)
            for g in enumerate_group(n):
                gx = [
                    xs[g.perm[i]] if g.signs[i] == 1 else Fraction(1, 1) / xs[g.perm[i]]
                    for i in range(n)
                ]
                mono = QFraction(1)
                for x, a in zip(gx, lam):
                    mono = mono * QFraction(QLaurent.const(Fraction(x)))**a
                total = total + mono * ker.eval_exact(gx)
            assert total == f.eval_exact(xs)


def full_kernel_q_poly(n, lam, t_short, t_long):
    """Reference construction of q_poly: relabel the kernel cleared of both
    halves of the Weyl denominator,

        T = x^(-lam) * prod(1 - t_a x^a) * prod(1 - x^(-a))   over positive roots a,

    over the whole group; the sum is q_poly * prod over ALL roots b of
    (1 - x^b), which 2 n^2 exact binomial divisions strip."""
    T = TorusPoly(n, {tuple(-v for v in lam): 1})
    for a in short_positive_roots(n):
        T = T * expand(Binomial(t_short, a))
    for a in long_positive_roots(n):
        T = T * expand(Binomial(t_long, a))
    for a in positive_roots(n):
        T = T * expand(Binomial(1, tuple(-v for v in a)))

    acc = {}
    terms = list(T.terms())
    for g in enumerate_group(n):
        for e, c in terms:
            e2 = g.act_vector(e)
            s = acc.get(e2)
            acc[e2] = c if s is None else s + c

    out = TorusPoly(n, acc)
    for a in positive_roots(n):
        out = unit_binomial_div(out, a)
        out = unit_binomial_div(out, tuple(-v for v in a))
    return out


def test_qpoly_matches_full_kernel_reference():
    one = QLaurent.const(1)
    params = [spec_params("odd"), spec_params("even"), (one, one)]
    for n in (1, 2):
        for lam in partitions_with(3, n):
            lam = check_partition(lam, n)
            for ts, tl in params:
                got = _q_poly_cached(n, lam, ts, tl)
                ref = full_kernel_q_poly(n, lam, ts, tl)
                assert got == ref
                assert str(got) == str(ref)
                assert got.to_json_dict() == ref.to_json_dict()


def alternating_q_poly(n, lam, t_short, t_long):
    """Reference construction of q_poly: the alternating sum of the kernel
    K = x^(-lam-rho) * prod(1 - t_a x^a) over positive roots a, relabelled
    by every group element with the sign (-1)^(n^2 + length), shifted by
    x^(-rho) and divided by prod(1 - x^(-a)).  The package straightens the
    same sum onto dominant weights instead of summing it term by term."""
    rho = tuple(range(n, 0, -1))
    K = TorusPoly(n, {tuple(-v - r for v, r in zip(lam, rho)): 1})
    for a in short_positive_roots(n):
        K = K * expand(Binomial(t_short, a))
    for a in long_positive_roots(n):
        K = K * expand(Binomial(t_long, a))

    terms = list(K.terms())
    neg_terms = [(e, -c) for e, c in terms]
    acc = {}
    for g in enumerate_group(n):
        for e, c in neg_terms if (n * n + length(g)) % 2 else terms:
            e2 = tuple(v - r for v, r in zip(g.act_vector(e), rho))
            s = acc.get(e2)
            acc[e2] = c if s is None else s + c

    out = TorusPoly(n, acc)
    for a in positive_roots(n):
        out = unit_binomial_div(out, tuple(-v for v in a))
    return out


@pytest.mark.parametrize("n, max_weight", [(1, 5), (2, 5), (3, 3)])
def test_qpoly_matches_alternating_reference(n, max_weight):
    one, zero = QLaurent.const(1), QLaurent.const(0)
    params = [spec_params("odd"), spec_params("even"), (one, one), (zero, zero)]
    for lam in partitions(n, max_weight):
        for ts, tl in params:
            got = _q_poly_cached(n, lam, ts, tl)
            ref = alternating_q_poly(n, lam, ts, tl)
            assert got == ref
            assert str(got) == str(ref)
            assert got.to_json_dict() == ref.to_json_dict()


@lru_cache(maxsize=None)
def kernel_product(n, t_short, t_long):
    """prod over positive roots a of (1 - t_a x^a)."""
    P = TorusPoly.const(n, 1)
    for a in short_positive_roots(n):
        P = P * expand(Binomial(t_short, a))
    for a in long_positive_roots(n):
        P = P * expand(Binomial(t_long, a))
    return P


def factored_alternating_q_poly(n, lam, t_short, t_long):
    """alternating_q_poly with the sum over the group taken as a product of
    sums over fewer elements.  A signed permutation is a permutation times
    sign changes, its determinant the product of theirs, so

        sum_w det(w) w = P_n ... P_2 F_1 ... F_n,

    with F_i = 1 - (change the sign of x_i) and P_k = 1 - sum over i < k of
    (swap x_i and x_k).  That relabels n (n + 1) / 2 polynomials instead of
    2^n n! copies of every term of the kernel."""
    rho = tuple(range(n, 0, -1))
    ident = tuple(range(n))
    A = TorusPoly(n, {tuple(-v - r for v, r in zip(lam, rho)): 1}) * kernel_product(n, t_short, t_long)
    for i in range(n):
        A = A - A.weyl(SignedPerm(ident, tuple(-1 if j == i else 1 for j in ident)))
    for k in range(1, n):
        swaps = TorusPoly(n)
        for i in range(k):
            perm = list(ident)
            perm[i], perm[k] = k, i
            swaps = swaps + A.weyl(SignedPerm(perm, (1,) * n))
        A = A - swaps
    if n % 2:  # the sign (-1)^(n^2)
        A = -A
    out = TorusPoly(n, {tuple(v - r for v, r in zip(e, rho)): c for e, c in A.terms()})
    for a in positive_roots(n):
        out = unit_binomial_div(out, tuple(-v for v in a))
    return out


def test_qpoly_matches_the_factored_alternating_reference_at_n4():
    # the term-by-term alternating reference takes 6-9 s a build at n = 4,
    # the factored one 0.3-0.7 s: this test takes about 5 s on a 2-vCPU VM
    for parity in PARITIES:
        ts, tl = spec_params(parity)
        for lam in partitions(4, 2):
            assert _q_poly_cached.__wrapped__(4, lam, ts, tl) == factored_alternating_q_poly(4, lam, ts, tl)


def test_factored_alternating_reference_is_the_alternating_one():
    for n, lam in [(2, (2, 1)), (3, (1, 0, 0)), (3, (2, 1, 1))]:
        for parity in PARITIES:
            params = spec_params(parity)
            assert factored_alternating_q_poly(n, lam, *params) == alternating_q_poly(n, lam, *params)


# sha256 of json.dumps(q_poly(3, parity, lam).to_json_dict(), sort_keys=True),
# recorded from the full-kernel construction (3-6 s a build at n = 3)
QPOLY_N3_SHA256 = {
    ("odd", (0, 0, 0)): "2bbeed184fe3be115c3bcece5673755bd52f2f55d939985a8db58d9555ee986f",
    ("odd", (1, 0, 0)): "ae3ef596c4cd803aa3ef60adfe40a45ef35020cad9dfc3b426336df8beee2fcd",
    ("odd", (1, 1, 0)): "e840de539c4fd622f44d65a4c3ce66e6f76c267b9fb7dde4fbab9e7738e307a5",
    ("odd", (2, 1, 0)): "2025e6cc773ef14ecbc5a5ce65c97ce4712663ebf9ec6f82f8537c14a186add8",
    ("even", (0, 0, 0)): "214f88964b2c37bf19bddf148e3bb94f95f2991141c499995a0e90edef6d2b0c",
    ("even", (1, 0, 0)): "85dd701cd31d51c3e39976ea45fe35bcbf1aaacfcbc937aafcf1e926dd020247",
    ("even", (1, 1, 0)): "78ea433c13780c2ed5cfe8f9516260b2ddb5979a8ec5e78506f7768aab4d08db",
    ("even", (2, 1, 0)): "0589dd45d121262f4b2de092ebe2f9417f30ae274d65b7b8495bc756bce16dd6",
}


def test_qpoly_n3_pinned():
    for (parity, lam), digest in QPOLY_N3_SHA256.items():
        text = json.dumps(q_poly(3, parity, lam).to_json_dict(), sort_keys=True)
        assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_qpoly_cached():
    a = q_poly(2, "odd", (1, 1))
    b = q_poly(2, "odd", (1, 1))
    assert a is b


def test_alternant_quotients_are_shared_across_partitions_and_parities():
    _alternant_quotient.cache_clear()
    seen, counts = set(), []
    for parity, lam in [("odd", (1, 1, 0)), ("odd", (2, 0, 0)), ("even", (2, 0, 0))]:
        misses = _alternant_quotient.cache_info().misses
        _q_poly_cached.__wrapped__(3, lam, *spec_params(parity))
        mus = set(q_poly_coefficients(3, lam, *spec_params(parity)))
        # a quotient is divided out only the first time any build needs it
        assert _alternant_quotient.cache_info().misses - misses == len(mus - seen)
        counts.append(len(mus & seen))
        seen |= mus
    # the second partition and the other parity find quotients in the cache
    assert counts[0] == 0 < counts[1] and 0 < counts[2]
    assert _alternant_quotient.cache_info().hits >= sum(counts)


def test_w_poly_values():
    t = -(Q**-1)
    assert w_poly(0, t) == QLaurent.const(1)
    assert w_poly(1, t) == 1 + Q**-1
    assert w_poly(2, t).eval(Fraction(3)) == (1 + Q**-1).eval(Fraction(3)) * (
        1 - Q**-2
    ).eval(Fraction(3))


def test_w_tilde_frozen_rank1():
    t = -(Q**-1)
    assert w_tilde((), 1, t) == w_poly(1, t) * w_poly(2, t)
    assert w_tilde((1,), 1, t) == (1 + Q**-1) * (1 + Q**-1)


# closed form vs brute-force stabilizer enumeration, odd side:
#   poincare(stab) * (1-t)^(n+1) == w_tilde(t)   at t = -1/q
def test_w_tilde_matches_stabilizer_series_odd():
    t = -(Q**-1)
    one_minus_t = QLaurent.const(1) - t
    for n in (1, 2, 3):
        for lam in partitions_with(3, n):
            brute = poincare_poly(stabilizer(lam, n), *spec_params("odd"))
            assert brute * one_minus_t ** (n + 1) == w_tilde(lam, n, t)


# even side closed form: w_{m0}^2 * prod_{v>=1} w_{m_v} / (1-t)^n
def test_even_stabilizer_closed_form():
    from hermlab.hall_littlewood import part_multiplicities

    t = -(Q**-1)
    one_minus_t = QLaurent.const(1) - t
    for n in (1, 2, 3):
        for lam in partitions_with(2, n):
            mult = part_multiplicities(lam, n)
            m0 = mult.get(0, 0)
            closed = w_poly(m0, t) * w_poly(m0, t)
            for v, m in mult.items():
                if v >= 1:
                    closed = closed * w_poly(m, t)
            brute = poincare_poly(stabilizer(lam, n), *spec_params("even"))
            assert brute * one_minus_t**n == closed


def test_w_lambda_closed_form_equals_the_enumeration():
    # W_lam is computed in closed form; the stabilizer enumeration is its reference
    for n in (1, 2, 3, 4):
        for lam in partitions(n, 4):
            for parity in ("odd", "even"):
                brute = poincare_poly(stabilizer(lam, n), *spec_params(parity))
                assert w_lambda_value(lam, n, parity) == brute, (lam, parity)


def test_w_lambda_trivial_stabilizer():
    assert w_lambda_value((2, 1), 2, "odd") == QLaurent.const(1)
    assert w_lambda_value((3, 2, 1), 3, "even") == QLaurent.const(1)


def test_spec_params():
    ts, tl = spec_params("odd")
    assert ts == -(Q**-1) and tl == -(Q**-2)
    ts, tl = spec_params("even")
    assert ts == -(Q**-1) and tl == Q**-1
    with pytest.raises(ValueError):
        spec_params("both")
