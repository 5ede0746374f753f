import cmath
import json
import random
from fractions import Fraction

import pytest

from hermlab.errors import InexactDivision
from hermlab.scalars import GaussianRational, QFraction, QLaurent
from hermlab.torus import (
    Binomial,
    FactoredRational,
    TorusPoly,
    binomial_div_exact,
)
from hermlab.weyl import SignedPerm, enumerate_group

Q = QLaurent.gen()


def mono(n, e, c=1):
    return TorusPoly.monomial(n, e, c)


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
    assert g.coeff((1,)) == QFraction(1)
    assert g.coeff((-1,)) == QFraction(1 - Q**-1, Q)


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


def test_binomial_division_geometric():
    # (1 - x^4) / (1 - x) = 1 + x + x^2 + x^3
    f = mono(1, (0,)) - mono(1, (4,))
    g = binomial_div_exact(f, 1, (1,))
    assert g == mono(1, (0,)) + mono(1, (1,)) + mono(1, (2,)) + mono(1, (3,))


def test_binomial_division_inexact():
    # (1 + x) / (1 - x) leaves a remainder
    f = mono(1, (0,)) + mono(1, (1,))
    with pytest.raises(InexactDivision):
        binomial_div_exact(f, 1, (1,))


def test_binomial_division_negative_direction():
    # divide by (1 - x^{-1}) : (x - x^{-1})/(1 - x^{-1}) = x + 1
    f = mono(1, (1,)) - mono(1, (-1,))
    g = binomial_div_exact(f, 1, (-1,))
    assert g == mono(1, (1,)) + mono(1, (0,))


def test_binomial_division_with_parameter_coeff():
    # f = (1 - q^{-1} x1 x2)(x1 - x2^{-1}); dividing back must recover the cofactor
    b = Binomial(Q**-1, (1, 1))
    cof = mono(2, (1, 0)) - mono(2, (0, -1))
    f = b.as_poly() * cof
    assert binomial_div_exact(f, Q**-1, (1, 1)) == cof


def test_binomial_division_randomized_roundtrip():
    rng = random.Random(11)
    for _ in range(20):
        n = rng.choice((1, 2, 3))
        cof = TorusPoly(
            n,
            {
                tuple(rng.randrange(-2, 3) for _ in range(n)): Fraction(
                    rng.randrange(-5, 6) or 1
                )
                for _ in range(4)
            },
        )
        alpha = tuple(rng.randrange(-2, 3) for _ in range(n))
        if not any(alpha):
            alpha = (1,) + (0,) * (n - 1)
        c = Fraction(rng.randrange(-3, 4))
        f = Binomial(c, alpha).as_poly() * cof
        assert binomial_div_exact(f, c, alpha) == cof


@pytest.mark.parametrize("c", [1, 2, Q**-1, QFraction(2, 1 + Q)])
def test_binomial_division_remainder_cancels(c):
    # f = (1 - c x^alpha) * cof, where no term of cof sits one step of alpha
    # above another: peeling each term of cof cancels the remainder one step
    # up to zero, and the division must go on past that exponent
    for n, alpha, cof in [
        (1, (1,), mono(1, (0,)) + mono(1, (2,))),
        (2, (1, -1), mono(2, (0, 1)) + mono(2, (2, -1))),
        (2, (0, -2), mono(2, (1, 3)) - mono(2, (1, -1)) + mono(2, (0, 0))),
    ]:
        b = Binomial(c, alpha).as_poly()
        f = b * cof
        g = binomial_div_exact(f, c, alpha)
        assert b * g == f
        assert g == cof


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
