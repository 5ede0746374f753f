import cmath
import hashlib
import math
import random
from fractions import Fraction

import pytest

import hermlab.spherical as sph
from hermlab.hall_littlewood import spec_params
from hermlab.scalars import GaussianRational, QFraction, QLaurent
from hermlab.spherical import (
    PhasedScalar,
    SphericalValue,
    alternative_phase_power,
    base_point,
    check_functional_equation,
    check_gamma_cocycle,
    gamma_factor,
    identity_value_closed_form,
    identity_value_constant,
    leading_constant,
    omega_explicit,
    omega_rank1_s_form,
    omega_rank1_s_form_printed_variant,
    omega_rank1_z_form,
    parity_sign_relation,
    phase_power,
    phase_q_power,
    psi,
    rank1_substitution,
    s_to_z,
    x_coords_stretched,
    z_to_s,
)
from hermlab.torus import FactoredRational, TorusPoly
from hermlab.weyl import (
    SignedPerm,
    coordinate_flip,
    enumerate_group,
    long_positive_roots,
    positive_roots,
    short_positive_roots,
)

Q = QLaurent.gen()


def all_roots(n):
    pos = positive_roots(n)
    return pos + [tuple(-c for c in r) for r in pos]


def unit_monomial(e, thetas):
    return cmath.exp(1j * sum(k * th for k, th in zip(e, thetas)))


def phased_float(v, q0):
    """A PhasedScalar with the parameter at q0, in floats."""
    return (1j) ** v.i_power * q0 ** (v.half_q / 2) * v.scalar.eval_float(q0)


def factored_unit_value(f, q0, thetas):
    """A FactoredRational at x_j = exp(i theta_j) with the parameter at q0, in floats."""
    val = complex(f.front.eval_float(q0))
    for b in f.num:
        val *= 1 - b.coef.eval_float(q0) * unit_monomial(b.alpha, thetas)
    for b in f.den:
        val /= 1 - b.coef.eval_float(q0) * unit_monomial(b.alpha, thetas)
    return val


def spherical_unit_value(v, q0, thetas):
    """A SphericalValue at x_j = exp(i theta_j) with the parameter at q0, in floats."""
    num = sum(c.eval_float(q0) * unit_monomial(e, thetas) for e, c in v.numerator.terms())
    return phased_float(v.prefactor, q0) * num / factored_unit_value(v.boundary, q0, thetas)


def test_phased_scalar_algebra():
    a = PhasedScalar(1, -2, QFraction(1))  # I / q
    b = PhasedScalar(3, 2, QFraction(1))  # -I * q
    assert (a * b).is_one()
    assert a * a == PhasedScalar(2, -4, QFraction(1))
    assert a.inverse() * a == PhasedScalar.one()
    assert (a / a).is_one()


def test_phased_scalar_folding():
    # I^2 q^2 == -q^2 written plainly
    assert PhasedScalar(2, 4, QFraction(1)) == PhasedScalar(0, 0, QFraction(-(Q**2)))
    # odd half-powers never equal integral ones (except both zero)
    assert PhasedScalar(0, 1, QFraction(1)) != PhasedScalar(0, 0, QFraction(1))
    assert PhasedScalar(0, 1, QFraction(0)) == PhasedScalar(2, 0, QFraction(0))
    with pytest.raises(ValueError):
        PhasedScalar(0, 1, QFraction(1)).as_qfraction()
    assert PhasedScalar(2, -2, QFraction(1)).as_qfraction() == QFraction(-(Q**-1))


def test_phased_scalar_eval_float():
    v = PhasedScalar(1, -2, QFraction(3))
    assert abs(phased_float(v, 4.0) - 0.75j) < 1e-12


def test_base_point_frozen():
    assert base_point(2, "odd") == ((Fraction(-2), Fraction(3, 2)), (Fraction(-1), Fraction(1, 2)))
    assert base_point(2, "even") == ((Fraction(-3, 2), Fraction(1)), (Fraction(-1, 2), Fraction(0)))
    with pytest.raises(ValueError, match="parity must be"):
        base_point(2, "both")


def test_s_z_roundtrip():
    rng = random.Random(3)
    for n in (1, 2, 3):
        for parity in ("odd", "even"):
            s = tuple(
                (Fraction(rng.randrange(-8, 9), 2), Fraction(rng.randrange(-8, 9), 2))
                for _ in range(n)
            )
            z = s_to_z(s, n, parity)
            assert z_to_s(z, n, parity) == s
            zero = tuple((Fraction(0), Fraction(0)) for _ in range(n))
            assert s_to_z(zero, n, parity) == base_point(n, parity)


def test_phase_power_frozen():
    assert phase_power((1,), 1, "odd") == PhasedScalar(1, -2, QFraction(1))  # I/q
    assert phase_power((2,), 1, "odd") == PhasedScalar(0, 0, QFraction(-(Q**-2)))
    # even side: single part 1 at n=1 gives q^(-1/2)
    assert phase_power((1,), 1, "even") == PhasedScalar(0, -1, QFraction(1))


# the base-point power of any root equals the height-graded parameter product
def test_height_phase_identity():
    for n in (1, 2, 3):
        for parity in ("odd", "even"):
            ts, tl = spec_params(parity)
            z0 = base_point(n, parity)
            for v in all_roots(n):
                re = sum((Fraction(c) * p[0] for c, p in zip(v, z0)), Fraction(0))
                im = sum((Fraction(c) * p[1] for c, p in zip(v, z0)), Fraction(0))
                lhs = phase_q_power(re, im)
                es = sum(
                    Fraction(sum(a * b for a, b in zip(v, beta)), 2)
                    for beta in short_positive_roots(n)
                )
                el = sum(
                    Fraction(sum(a * b for a, b in zip(v, beta)), 4)
                    for beta in long_positive_roots(n)
                )
                assert es.denominator == 1 and el.denominator == 1
                rhs = PhasedScalar(0, 0, QFraction(ts) ** int(es) * QFraction(tl) ** int(el))
                assert lhs == rhs


def test_gamma_identity_element():
    for parity in ("odd", "even"):
        g = gamma_factor(SignedPerm.identity(2), parity)
        assert g.eval_exact([Fraction(2), Fraction(3)]) == QFraction(1)


def test_gamma_flip_rank1():
    # (1 - q^-1 x^2)/(x^2 - q^-1) at x = 2
    g = gamma_factor(coordinate_flip(1), "odd")
    assert g.eval_exact([Fraction(2)]) == QFraction(1 - 4 * Q**-1, 4 - Q**-1)
    # even side ignores the doubled coordinates entirely
    g = gamma_factor(coordinate_flip(1), "even")
    assert g.eval_exact([Fraction(2)]) == QFraction(1)


def test_gamma_unit_modulus_on_torus():
    rng = random.Random(7)
    for sigma in enumerate_group(2):
        th = [rng.uniform(0, 2 * cmath.pi) for _ in range(2)]
        v = factored_unit_value(gamma_factor(sigma, "odd"), 3.0, th)
        assert abs(abs(v) - 1) < 1e-10


def test_leading_constant_rank1_frozen():
    # odd n=1 collapses to 1/(1 + q^-3)
    assert leading_constant(1, "odd") == QFraction(QLaurent.const(1), 1 + Q**-3)


def test_base_point_value_is_one():
    for n in (1, 2):
        for parity in ("odd", "even"):
            lams = [(), (1,), (2,)] if n == 1 else [(), (1, 0), (1, 1), (2, 1)]
            for lam in lams:
                v = omega_explicit(n, parity, lam)
                assert v.eval_at_base_point().is_one()


def _bare_value(*exponents):
    """n = 1, even parity, prefactor 1, trivial boundary: the numerator is the
    sum of x^e over the exponents; the base point has x = q^(-1/2)."""
    num = TorusPoly.zero(1)
    for e in exponents:
        num = num + TorusPoly(1, {(e,): 1})
    return SphericalValue(1, "even", (0,), PhasedScalar.one(), num, FactoredRational(1))


def test_base_point_value_keeps_a_half_power_of_q():
    q = QLaurent.gen()
    got = _bare_value(1).eval_at_base_point()
    assert got == PhasedScalar(0, -1, QFraction(1))
    assert got.half_q % 2 == 1 and got != PhasedScalar(0, 0, QFraction(q**-1))
    assert _bare_value(2).eval_at_base_point() == PhasedScalar(0, 0, QFraction(q**-1))
    with pytest.raises(ValueError, match="mixes integral and half-integral"):
        _bare_value(1, 2).eval_at_base_point()


def test_identity_value_constant_matches_closed_form():
    for n in (1, 2, 3):
        for parity in ("odd", "even"):
            assert identity_value_constant(n, parity) == identity_value_closed_form(n, parity)
    # frozen numeric spot value: odd n=1 at q=3 gives (1-1/9)/(1+1/27) = 6/7
    c = identity_value_constant(1, "odd").eval(Fraction(3))
    assert c == GaussianRational(Fraction(6, 7))


# -- the twist identities, against a pointwise oracle ---------------------------
#
# The oracle evaluates both sides at random positive rational points, where
# no factor 1 + x^a or 1 - q^(+-1) x^a vanishes, so neither side has a pole.


def _act_point(sigma, xs):
    """(sigma . x)[i] = x[perm[i]] ** signs[i], so (sigma . x)^e = x^(sigma^-1 e)."""
    return [xs[p] ** s for p, s in zip(sigma.perm, sigma.signs)]


def _rational_points(seed, n, count=2):
    rng = random.Random(seed)
    return [[Fraction(rng.randrange(2, 60), rng.randrange(2, 60)) for _ in range(n)] for _ in range(count)]


def pointwise_functional_equation(n, parity, lam, seed):
    """value(x) == twist_sigma(x) * value(sigma . x) for every group element."""
    omega = sph.omega_explicit(n, parity, lam)
    return all(
        omega.eval_exact(xs)
        == sph.gamma_factor(s, parity).eval_exact(xs) * omega.eval_exact(_act_point(s, xs))
        for xs in _rational_points(seed, n)
        for s in enumerate_group(n)
    )


def pointwise_cocycle(n, parity, seed):
    """twist_{sigma tau}(x) == twist_tau(x) * twist_sigma(tau . x) for every pair."""
    group = enumerate_group(n)
    tw = lambda s, xs: sph.gamma_factor(s, parity).eval_exact(xs)
    return all(
        tw(s * t, xs) == tw(t, xs) * tw(s, _act_point(t, xs))
        for xs in _rational_points(seed, n)
        for s in group
        for t in group
    )


FEQ_CASES = [(1, "odd", (2,), 1), (1, "even", (1,), 2), (2, "odd", (1, 1), 3), (2, "even", (2, 0), 4)]


def test_functional_equation_small():
    for n, parity, lam, seed in FEQ_CASES:
        assert check_functional_equation(n, parity, lam)
        assert pointwise_functional_equation(n, parity, lam, seed)


def test_gamma_cocycle_small():
    for parity in ("odd", "even"):
        assert check_gamma_cocycle(2, parity, seed=11)
        for n in (1, 2):
            assert pointwise_cocycle(n, parity, seed=11)


def _other(parity):
    return "even" if parity == "odd" else "odd"


@pytest.mark.parametrize(
    "twist",
    [lambda tw, s, p: tw(s.inverse(), p), lambda tw, s, p: tw(s, _other(p))],
    ids=["inverse-element", "other-parity"],
)
def test_functional_equation_refuses_a_wrong_twist(monkeypatch, twist):
    true_twist = sph.gamma_factor
    monkeypatch.setattr(sph, "gamma_factor", lambda s, p: twist(true_twist, s, p))
    for n, parity, lam, seed in FEQ_CASES[2:]:  # at n = 1 every element is its own inverse
        assert not check_functional_equation(n, parity, lam)
        assert not pointwise_functional_equation(n, parity, lam, seed)


def test_functional_equation_refuses_a_numerator_that_is_not_invariant(monkeypatch):
    true_q_poly = sph.q_poly
    monkeypatch.setattr(
        sph, "q_poly", lambda n, p, lam: true_q_poly(n, p, lam) + TorusPoly(n, {(1,) + (0,) * (n - 1): 1})
    )
    for n, parity, lam, seed in FEQ_CASES:
        assert not check_functional_equation(n, parity, lam)
        assert not pointwise_functional_equation(n, parity, lam, seed)


def test_gamma_cocycle_refuses_the_factors_in_the_wrong_order(monkeypatch):
    # composing in the other order compares twist_{sigma tau} with the
    # factorization of twist_{tau sigma}
    compose = SignedPerm.__mul__
    monkeypatch.setattr(SignedPerm, "__mul__", lambda a, b: compose(b, a))
    for parity in ("odd", "even"):
        assert not check_gamma_cocycle(2, parity, seed=11)
        assert not pointwise_cocycle(2, parity, seed=11)


def test_rank1_closed_forms_agree_with_explicit():
    rng = random.Random(19)
    for ell in range(4):
        om = omega_explicit(1, "odd", (ell,))
        for _ in range(2):
            x = Fraction(rng.randrange(2, 30), rng.randrange(2, 30))
            if x == 1:
                continue
            ex = om.eval_exact([x]).as_qfraction()
            assert ex == omega_rank1_z_form(ell, QFraction(QLaurent.const(x)))
            assert ex == omega_rank1_s_form(ell, rank1_substitution(x))


def test_rank1_sign_variant_rejected_for_odd_index():
    x = Fraction(2, 5)
    u = rank1_substitution(x)
    for ell in (1, 3):
        ex = omega_explicit(1, "odd", (ell,)).eval_exact([x]).as_qfraction()
        assert ex != omega_rank1_s_form_printed_variant(ell, u)
    for ell in (0, 2):
        ex = omega_explicit(1, "odd", (ell,)).eval_exact([x]).as_qfraction()
        assert ex == omega_rank1_s_form_printed_variant(ell, u)


def test_rank1_closed_form_at_real_s_points():
    # u = q^{-s} for integer s: exact monomial; value must be real and finite
    for ell in (0, 1, 2):
        for s in (0, 1, 2):
            u = QFraction(Q**1) ** (-s)
            v = omega_rank1_s_form(ell, u).eval(Fraction(3))
            assert v.im == 0


def test_parity_sign_relation_frozen():
    assert parity_sign_relation((), 1) == 1
    assert parity_sign_relation((1,), 1) == -1
    assert parity_sign_relation((1, 1), 2) == 1
    assert parity_sign_relation((2, 1), 2) == -1


def test_parity_sign_relation_returns_the_sign_it_observes(monkeypatch):
    # with the standard phase in place of the shifted one the two conventions
    # agree, so the sign observed is +1 whatever the weight
    monkeypatch.setattr(sph, "alternative_phase_power", lambda lam, n: phase_power(lam, n, "odd"))
    assert parity_sign_relation((1,), 1) == 1
    assert parity_sign_relation((2, 1), 2) == 1
    # a quarter period makes the values differ by I: no sign holds
    quarter = PhasedScalar(1, 0, QFraction(1))
    monkeypatch.setattr(
        sph, "alternative_phase_power", lambda lam, n: phase_power(lam, n, "odd") * quarter
    )
    assert parity_sign_relation((1,), 1) == 0
    assert parity_sign_relation((1, 1), 2) == 0


def test_alternative_phase_is_full_period():
    # the shifted convention differs from the standard one by exactly
    # I^(-2|lam|), i.e. the sign (-1)^|lam|
    for n, lam in [(1, (1,)), (2, (2, 1)), (2, (1, 1))]:
        a = phase_power(lam, n, "odd")
        b = alternative_phase_power(lam, n)
        s = sum(lam)
        assert b == a * QFraction(GaussianRational((-1) ** s))


def test_psi_rank1_frozen():
    # I q^-1 (x + x^-1) / (1 - q^-2) at x = 2
    v = psi(1, "odd", (1,)).eval_exact([Fraction(2)])
    expect = PhasedScalar(1, -2, QFraction(QLaurent.const(Fraction(5, 2)), 1 - Q**-2))
    assert v == expect


def test_psi_has_no_boundary_factor():
    p = psi(2, "odd", (1, 0))
    assert p.boundary.num == () and p.boundary.den == ()


def test_omega_eval_unit_matches_eval_exact():
    # numeric unit-torus evaluation agrees with exact evaluation at a
    # Gaussian-rational point on the unit circle: x = (3+4I)/5, q0 = 3
    om = omega_explicit(1, "odd", (1,))
    x = QLaurent.const(GaussianRational(Fraction(3, 5), Fraction(4, 5)))
    want = phased_float(om.eval_exact([x]), 3.0)
    got = spherical_unit_value(om, 3.0, [math.atan2(0.8, 0.6)])
    assert abs(want - got) < 1e-10


# The printed form of an exact evaluation: QFraction is not canonical, so a
# change in the order of the evaluation's products can print a different but
# equal fraction.  These strings were recorded before evaluation moved onto
# monomial powers.
BASE_POINT_FACTORS_SHA256 = {
    "odd": "615f87cb6b3c3d9496bf18b86cb3d69a80f2ced990cf931a9ecbfbaf651c7815",
    "even": "34f29e9c8ee6eb156fcf4682743c4b45651877fe77592f447653163248626078",
}


@pytest.mark.parametrize("parity", ["odd", "even"])
def test_base_point_value_printed_form_pinned(parity):
    v = omega_explicit(3, parity, (2, 1, 0))
    assert str(v.eval_at_base_point()) == "(1)"
    xs = x_coords_stretched(base_point(3, parity))
    num = v.numerator.map_coeffs(lambda c: c.stretch(2)).eval_exact(xs)
    bnd = v.boundary.map_coefs(lambda c: c.stretch(2)).eval_exact(xs)
    digest = hashlib.sha256(f"{num}\n{bnd}".encode()).hexdigest()
    assert digest == BASE_POINT_FACTORS_SHA256[parity]
