import cmath
import itertools
import json
import random
from fractions import Fraction

import pytest

from hermlab.errors import InexactDivision
from hermlab.scalars import GaussianRational, QFraction, QLaurent
from hermlab.hall_littlewood import q_poly
from hermlab.torus import (
    Binomial,
    FactoredRational,
    TorusPoly,
    TorusPolyAt,
    binomial_div_exact,
)
from hermlab.weyl import enumerate_group

Q = QLaurent.gen()


def expand(b):
    """The binomial 1 - coef * x^alpha as a TorusPoly."""
    n = len(b.alpha)
    return TorusPoly.const(n, 1) - TorusPoly(n, {b.alpha: b.coef})


def mono(n, e, c=1):
    return TorusPoly(n, {e: c})


def unit_torus_value(f, q0, thetas):
    """f at x_j = exp(i theta_j) with the parameter at q0, in floats."""
    assert len(thetas) == f.n
    return sum(
        c.eval_float(q0) * cmath.exp(1j * sum(k * th for k, th in zip(e, thetas)))
        for e, c in f.terms()
    )


def test_ring_basics():
    f = mono(2, (1, 0)) + mono(2, (0, 1))
    g = mono(2, (1, 0)) - mono(2, (0, 1))
    assert f * g == mono(2, (2, 0)) - mono(2, (0, 2))
    assert (f + g) == 2 * mono(2, (1, 0))
    assert f - f == TorusPoly.zero(2)
    assert f**2 == f * f


def test_laurent_coeff_mixing():
    f = mono(1, (1,), Q) + mono(1, (-1,), 1 - Q**-1)
    g = f * QFraction(1, Q)
    assert dict(g.terms()) == {(1,): QFraction(1), (-1,): QFraction(1 - Q**-1, Q)}


def test_weyl_act_is_action():
    rng = random.Random(5)
    n = 2
    f = TorusPoly(
        n,
        {
            (rng.randrange(-3, 4), rng.randrange(-3, 4)): Fraction(rng.randrange(1, 9))
            for _ in range(6)
        },
    )
    for a in enumerate_group(n):
        for b in enumerate_group(n):
            assert f.weyl(b).weyl(a) == f.weyl(a * b)


def is_symmetric(f, group):
    return all(f.weyl(g) == f for g in group)


def test_symmetric_detection():
    n = 2
    orbit_sum = TorusPoly.zero(n)
    seen = set()
    for g in enumerate_group(n):
        e = g.act_vector((2, 1))
        if e not in seen:
            seen.add(e)
            orbit_sum = orbit_sum + mono(n, e)
    assert is_symmetric(orbit_sum, enumerate_group(n))
    assert not is_symmetric(mono(n, (1, 0)), enumerate_group(n))


def times_binomial(f, alpha):
    """(1 - x^alpha) * f for an int polynomial {exponent: int}, zeros dropped."""
    out = dict(f)
    for e, c in f.items():
        e2 = tuple(a + b for a, b in zip(e, alpha))
        out[e2] = out.get(e2, 0) - c
    return {e: c for e, c in out.items() if c}


def test_binomial_division_geometric():
    # (1 - x^4) / (1 - x) = 1 + x + x^2 + x^3
    g = binomial_div_exact({(0,): 1, (4,): -1}, (1,))
    assert g == {(0,): 1, (1,): 1, (2,): 1, (3,): 1}


def test_binomial_division_inexact():
    # (1 + x) / (1 - x) leaves a remainder
    with pytest.raises(InexactDivision):
        binomial_div_exact({(0,): 1, (1,): 1}, (1,))


def test_binomial_division_negative_direction():
    # divide by (1 - x^{-1}) : (x - x^{-1})/(1 - x^{-1}) = x + 1
    g = binomial_div_exact({(1,): 1, (-1,): -1}, (-1,))
    assert g == {(1,): 1, (0,): 1}


def test_binomial_division_randomized_roundtrip():
    rng = random.Random(11)
    for _ in range(20):
        n = rng.choice((1, 2, 3))
        cof = {
            tuple(rng.randrange(-2, 3) for _ in range(n)): rng.randrange(-5, 6) or 1
            for _ in range(4)
        }
        alpha = tuple(rng.randrange(-2, 3) for _ in range(n))
        if not any(alpha):
            alpha = (1,) + (0,) * (n - 1)
        assert binomial_div_exact(times_binomial(cof, alpha), alpha) == cof


def test_binomial_division_remainder_cancels():
    # f = (1 - x^alpha) * cof, where no term of cof sits one step of alpha
    # above another: the walk up a line returns to zero between the terms
    # of cof, and the division must go on past that exponent
    for alpha, cof in [
        ((1,), {(0,): 1, (2,): 1}),
        ((1, -1), {(0, 1): 1, (2, -1): 1}),
        ((0, -2), {(1, 3): 1, (1, -1): -1, (0, 0): 1}),
    ]:
        f = times_binomial(cof, alpha)
        assert binomial_div_exact(f, alpha) == cof


def test_binomial_division_refuses_a_zero_or_mismatched_direction():
    with pytest.raises(ValueError):
        binomial_div_exact({(0, 0): 1}, (0, 0))
    with pytest.raises(ValueError):
        binomial_div_exact({(0, 0): 1}, (1,))


def test_eval_exact_symbolic_q():
    f = mono(1, (2,), Q**-1) + mono(1, (0,))
    v = f.eval_exact([Fraction(2)])
    assert v == QFraction(4 * Q**-1 + 1)


def test_eval_exact_gaussian_point():
    # x = i q^{-1}: (x^2 + 1) evaluates to 1 - q^{-2}
    f = mono(1, (2,)) + mono(1, (0,))
    x = QLaurent({-1: GaussianRational(0, 1)})
    assert f.eval_exact([x]) == QFraction(1 - Q**-2)


def test_eval_unit_torus_matches_cosine():
    f = mono(1, (1,)) + mono(1, (-1,))
    for th in (0.3, 1.1, 2.9):
        assert abs(unit_torus_value(f, 3.0, [th]) - 2 * cmath.cos(th)) < 1e-12


def test_eval_unit_torus_with_parameter():
    f = mono(2, (1, -1), Q**-1)
    v = unit_torus_value(f, 2.0, [0.7, 0.2])
    assert abs(v - 0.5 * cmath.exp(1j * 0.5)) < 1e-12


def test_str_rendering():
    f = mono(1, (1,)) + mono(1, (-1,))
    assert str(f) == "x + x^{-1}"
    g = mono(2, (1, 0)) - mono(2, (0, -2))
    assert str(g) == "x1 - x2^{-2}"
    assert str(TorusPoly.zero(3)) == "0"


def test_json_shape():
    f = mono(1, (1,), Q) + mono(1, (-1,))
    d = f.to_json_dict()
    assert d["vars"] == 1
    assert [t["exp"] for t in d["terms"]] == [[1], [-1]]
    assert d["terms"][0]["coef_num"] == {"1": "1"}
    assert d["terms"][0]["coef_den"] == {"0": "1"}
    json.dumps(d)  # must be serializable as-is


def test_factored_rational_eval():
    # (1 - q^{-1} x)/(1 - x) at x = 1/2, q symbolic
    fr = FactoredRational(1, [Binomial(Q**-1, (1,))], [Binomial(1, (1,))])
    v = fr.eval_exact([Fraction(1, 2)])
    assert v == QFraction(2 - Q**-1)
    w = fr.inverse().eval_exact([Fraction(1, 2)])
    assert (v * w) == QFraction(1)


def test_factored_rational_pole():
    fr = FactoredRational(1, [], [Binomial(1, (1,))])
    with pytest.raises(ZeroDivisionError):
        fr.eval_exact([Fraction(1)])


def test_factored_weyl_relabels_like_the_polynomial():
    fr = FactoredRational(Q, [Binomial(2, (1, 1)), Binomial(Q**-1, (0, 2))], [Binomial(Q, (1, -1))])
    top = FactoredRational(Q, fr.num)
    expanded = Q * expand(fr.num[0]) * expand(fr.num[1])
    xs = [Fraction(3, 7), Fraction(5, 2)]
    for s in enumerate_group(2):
        w = fr.weyl(s)
        assert w.front == fr.front
        assert [b.alpha for b in w.num + w.den] == [s.act_vector(b.alpha) for b in fr.num + fr.den]
        assert w.eval_exact(xs) == fr.eval_exact(_act_point(s.inverse(), xs))
        w_top = top.weyl(s)
        assert Q * expand(w_top.num[0]) * expand(w_top.num[1]) == expanded.weyl(s)


NEG = (-1, 1)  # a negative root; -NEG is positive


def test_same_as_rewrites_a_binomial_on_a_negative_root():
    # (1 - q^-1 x^NEG)/(1 - q x^NEG) = q^-2 (1 - q x^-NEG)/(1 - q^-1 x^-NEG)
    fr = FactoredRational(1, [Binomial(Q**-1, NEG)], [Binomial(Q, NEG)])
    pos = tuple(-v for v in NEG)
    rewritten = FactoredRational(Q**-2, [Binomial(Q, pos)], [Binomial(Q**-1, pos)])
    assert fr.same_as(rewritten) and rewritten.same_as(fr)
    xs = [Fraction(2, 3), Fraction(7, 5)]
    assert fr.eval_exact(xs) == rewritten.eval_exact(xs)


def test_same_as_cancels_numerator_against_denominator():
    a, b = Binomial(Q**-1, (1, 1)), Binomial(-1, (0, 2))
    assert FactoredRational(2, [a, b], [b]).same_as(FactoredRational(2, [a]))
    # also across a rewrite: 1 - q x^NEG is -q x^NEG (1 - q^-1 x^-NEG)
    pos = tuple(-v for v in NEG)
    lhs = FactoredRational(1, [Binomial(Q, NEG), a], [Binomial(Q, NEG)])
    assert lhs.same_as(FactoredRational(1, [a]))
    assert not FactoredRational(1, [Binomial(Q, NEG)], [Binomial(Q**-1, pos)]).same_as(
        FactoredRational(-Q)
    )  # the quotient is -q x^NEG: a monomial in x is left over


def test_same_as_sees_a_changed_front_or_coefficient():
    a = Binomial(Q**-1, (1, 1))
    fr = FactoredRational(2, [a], [Binomial(Q, NEG)])
    assert not fr.same_as(FactoredRational(3, [a], [Binomial(Q, NEG)]))
    assert not fr.same_as(FactoredRational(2, [Binomial(Q**-2, (1, 1))], [Binomial(Q, NEG)]))
    assert not fr.same_as(FactoredRational(2, [a], [Binomial(Q**-1, NEG)]))
    assert not fr.same_as(FactoredRational(2, [a]))


# -- evaluation at monomial points ---------------------------------------------
#
# The reference substitutes QFraction powers of each coordinate, one factor
# at a time, as evaluation did before it read each point into integers.


def _qf(x):
    return x if isinstance(x, QFraction) else QFraction(x)


def _ref_power(xs, e):
    m = QFraction(1)
    for x, k in zip(xs, e):
        if k:
            m = m * _qf(x) ** k
    return m


def ref_eval_poly(f, xs):
    total = QFraction(0)
    for e, c in f.terms():
        m = c
        for x, k in zip(xs, e):
            if k:
                m = m * _qf(x) ** k
        total = total + m
    return total


def ref_eval_binomial(b, xs):
    return QFraction(1) - b.coef * _ref_power(xs, b.alpha)


def ref_eval_factored(fr, xs):
    top = fr.front
    for b in fr.num:
        top = top * ref_eval_binomial(b, xs)
    for b in fr.den:
        top = top / ref_eval_binomial(b, xs)
    return top


MONOMIAL_POINTS = [
    [QLaurent({2: GaussianRational(Fraction(2, 3), Fraction(-1, 5))}), Fraction(5, 7)],
    [QLaurent({-1: GaussianRational(Fraction(1, 2), Fraction(1, 2))}), Fraction(-3)],
    [GaussianRational(0, 1), QFraction(QLaurent({-3: GaussianRational(Fraction(4, 9))}))],
    [Fraction(7, 3), Fraction(5, 11)],
]


def _act_point(sigma, xs):
    """(sigma . x)[i] = x[perm[i]] ** signs[i], so (sigma . x)^e = x^(sigma^-1 e)."""
    return [_qf(xs[p]) if s == 1 else _qf(xs[p]).inverse() for p, s in zip(sigma.perm, sigma.signs)]


def _variants(xs):
    """The point, its sign flips and its images under the signed permutations."""
    flips = [[s * x for s, x in zip(signs, xs)] for signs in ((1, -1), (-1, 1), (-1, -1))]
    return [xs] + flips + [_act_point(s, xs) for s in enumerate_group(2)]


def _same_value(got, want):
    assert got == want
    assert str(got) == str(want)


@pytest.mark.parametrize("xs", MONOMIAL_POINTS)
def test_eval_at_monomial_points_matches_reference(xs):
    c = QFraction(1 + Q, 1 - Q**-3)  # a coefficient with a denominator other than 1
    f = q_poly(2, "odd", (2, 1)) + mono(2, (1, -2), c) + mono(2, (0, 0), c)
    bins = [Binomial(Q**-1, (1, 1)), Binomial(c, (0, -2)), Binomial(-1, (1, -1))]
    fr = FactoredRational(QFraction(-Q) ** 2, bins[:2], bins[1:])
    for pt in _variants(xs):
        _same_value(f.eval_exact(pt), ref_eval_poly(f, pt))
        for b in bins:
            _same_value(b.eval_exact(pt), ref_eval_binomial(b, pt))
        _same_value(fr.eval_exact(pt), ref_eval_factored(fr, pt))


@pytest.mark.parametrize("x", [1 + Q, QFraction(1, 1 + Q), Fraction(0), QLaurent(), 0])
def test_eval_refuses_a_coordinate_that_is_not_a_nonzero_monomial(x):
    xs = [Fraction(2), x]
    b = Binomial(1, (1, 1))
    for evaluable in (mono(2, (1, 1)), b, FactoredRational(1, [b])):
        with pytest.raises(ValueError, match="not a nonzero monomial"):
            evaluable.eval_exact(xs)


@pytest.mark.parametrize("n, lam", [(1, (3,)), (2, (2, 1)), (3, (2, 1, 1))])
def test_flip_values_are_the_values_at_q0_of_the_sign_flips(n, lam):
    # in the order of itertools.product((1, -1)); a coefficient with a
    # denominator and a Gaussian one make the denominators and I matter
    f = q_poly(n, "even", lam) * QFraction(1 + Q, 1 - Q**-3)
    f = f + mono(n, (1,) + (0,) * (n - 1), GaussianRational(0, 2))
    xs = [Fraction(-3, 2), Fraction(5, 7), Fraction(2)][:n]
    flips = [[s * x for s, x in zip(signs, xs)] for signs in itertools.product((1, -1), repeat=n)]
    for q0 in (Fraction(3), Fraction(7, 2)):
        want = [f.eval_exact(x).eval(q0) for x in flips]
        assert TorusPolyAt(f, q0).flip_values(xs) == want
        assert TorusPolyAt(f, q0).conjugate().flip_values(xs) == [v.conjugate() for v in want]
