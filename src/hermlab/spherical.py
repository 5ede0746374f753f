"""Explicit values on the parameter torus.

A point of the torus is described by its coordinates x_1..x_n (exact
rationals, or Gaussian-rational Laurent monomials in q when the point has
half-period imaginary parts).  The main evaluable object combines

    prefactor * orbit_sum(x) / boundary_factor(x)

where the prefactor is a :class:`PhasedScalar` -- a power of I times a
half-integer power of q times an exact rational function of q.  Nothing
here is floating point until a caller explicitly asks for a complex value.

Coordinates with exact half-integer data are written as pairs
(re, im) with value  re + im * pi*I / log q,  so that  q**coord  equals
I**(2 im) * q**re.  The distinguished base point ``z0`` of each parity lives
at such coordinates, and the affine change of variables between the two
standard coordinate systems (``s_to_z`` / ``z_to_s``) acts on these pairs
exactly.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Sequence, Tuple

from .hall_littlewood import (
    check_partition,
    q_poly,
    w_poly,
    whole_group_value,
)
from .scalars import (
    GaussianRational,
    QF_ONE,
    QFraction,
    QLaurent,
)
from .torus import Binomial, FactoredRational, TorusPoly
from .weyl import (
    SignedPerm,
    enumerate_group,
    negated_positive_set,
    positive_roots,
    short_positive_roots,
)

ZPair = Tuple[Fraction, Fraction]  # value  re + im * pi*I/log q


class PhasedScalar:
    """I**i_power * q**(half_q / 2) * scalar, with the scalar an exact
    rational function of q.

    The redundant presentation is deliberate: the phase and the half-power
    of q are carried separately so that values remain exact even when
    sqrt(q) is irrational.  Equality folds everything foldable into the
    scalar and compares the residual half-power parity.

    >>> a = PhasedScalar(2, 4, QFraction(1))       # I^2 q^2 = -q^2
    >>> b = PhasedScalar(0, 0, QFraction(-(QLaurent.gen()**2)))
    >>> a == b
    True
    """

    __slots__ = ("i_power", "half_q", "scalar")

    def __init__(self, i_power: int, half_q: int, scalar):
        if not isinstance(scalar, QFraction):
            scalar = QFraction(scalar)
        if scalar.is_zero():
            i_power, half_q = 0, 0
        object.__setattr__(self, "i_power", i_power % 4)
        object.__setattr__(self, "half_q", int(half_q))
        object.__setattr__(self, "scalar", scalar)

    def __setattr__(self, name, value):  # pragma: no cover - defensive
        raise AttributeError("PhasedScalar is immutable")

    @staticmethod
    def one() -> "PhasedScalar":
        return PhasedScalar(0, 0, QF_ONE)

    def _coerce(self, other):
        if isinstance(other, PhasedScalar):
            return other
        if isinstance(other, (int, Fraction, GaussianRational, QLaurent, QFraction)):
            return PhasedScalar(0, 0, QFraction(other) if not isinstance(other, QFraction) else other)
        return None

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return PhasedScalar(
            self.i_power + o.i_power, self.half_q + o.half_q, self.scalar * o.scalar
        )

    __rmul__ = __mul__

    def inverse(self) -> "PhasedScalar":
        return PhasedScalar(-self.i_power, -self.half_q, self.scalar.inverse())

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __neg__(self):
        return PhasedScalar(self.i_power, self.half_q, -self.scalar)

    def conjugate(self) -> "PhasedScalar":
        """Complex conjugate for real q > 0."""
        return PhasedScalar(-self.i_power, self.half_q, self.scalar.conjugate_coeffs())

    def folded(self) -> tuple[int, QFraction]:
        """(half-power parity, everything else folded into one QFraction)."""
        s = self.scalar * GaussianRational.i_power(self.i_power)
        s = s * QFraction(QLaurent({self.half_q // 2: GaussianRational(1)}))
        return (self.half_q % 2 if not s.is_zero() else 0, s)

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        h1, s1 = self.folded()
        h2, s2 = o.folded()
        if s1.is_zero() and s2.is_zero():
            return True
        return h1 == h2 and s1 == s2

    def is_zero(self) -> bool:
        return self.scalar.is_zero()

    def is_one(self) -> bool:
        return self == PhasedScalar.one()

    def as_qfraction(self) -> QFraction:
        """Collapse to a plain rational function; needs an integral q-power."""
        h, s = self.folded()
        if h:
            raise ValueError("value involves an odd half-power of q")
        return s

    def stretch(self, k: int) -> "PhasedScalar":
        if k % 2:
            raise ValueError("stretch factor must be even to keep half-powers integral")
        return PhasedScalar(self.i_power, self.half_q * k, self.scalar.stretch(k))

    def __repr__(self):
        return f"PhasedScalar({self.i_power}, {self.half_q}, {self.scalar!r})"

    def __str__(self):
        parts = []
        if self.i_power:
            parts.append({1: "I", 2: "-1", 3: "-I"}[self.i_power])
        if self.half_q:
            parts.append(f"q^({Fraction(self.half_q, 2)})")
        parts.append(f"({self.scalar})")
        return " * ".join(parts)


# -- the two coordinate systems ----------------------------------------------


def base_point(n: int, parity: str) -> tuple[ZPair, ...]:
    """The distinguished base point z0, as exact (re, im) pairs."""
    if parity == "odd":
        return tuple(
            (Fraction(-(n - i + 1)), Fraction(2 * (n - i) + 1, 2)) for i in range(1, n + 1)
        )
    if parity == "even":
        return tuple(
            (Fraction(-(2 * (n - i) + 1), 2), Fraction(n - i)) for i in range(1, n + 1)
        )
    raise ValueError(f"parity must be 'odd' or 'even', not {parity!r}")


def s_to_z(s: Sequence[ZPair], n: int, parity: str) -> tuple[ZPair, ...]:
    """Exact affine change of coordinates; the origin maps to the base point.

    >>> s_to_z([(Fraction(0), Fraction(0))] * 2, 2, "odd") == base_point(2, "odd")
    True
    """
    if len(s) != n:
        raise ValueError("wrong number of coordinates")
    s = [(Fraction(a), Fraction(b)) for a, b in s]
    z: list[ZPair] = [None] * n  # type: ignore[list-item]
    if parity == "odd":
        z[n - 1] = (-1 - s[n - 1][0], Fraction(1, 2) - s[n - 1][1])
    elif parity == "even":
        z[n - 1] = (Fraction(-1, 2) - s[n - 1][0], -s[n - 1][1])
    else:
        raise ValueError(f"parity must be 'odd' or 'even', not {parity!r}")
    for i in range(n - 2, -1, -1):
        z[i] = (z[i + 1][0] - 1 - s[i][0], z[i + 1][1] + 1 - s[i][1])
    return tuple(z)


def z_to_s(z: Sequence[ZPair], n: int, parity: str) -> tuple[ZPair, ...]:
    """Inverse of ``s_to_z``."""
    if len(z) != n:
        raise ValueError("wrong number of coordinates")
    z = [(Fraction(a), Fraction(b)) for a, b in z]
    s: list[ZPair] = []
    for i in range(n - 1):
        s.append((z[i + 1][0] - z[i][0] - 1, z[i + 1][1] - z[i][1] + 1))
    if parity == "odd":
        s.append((-z[n - 1][0] - 1, Fraction(1, 2) - z[n - 1][1]))
    elif parity == "even":
        s.append((-z[n - 1][0] - Fraction(1, 2), -z[n - 1][1]))
    else:
        raise ValueError(f"parity must be 'odd' or 'even', not {parity!r}")
    return tuple(s)


def phase_q_power(re: Fraction, im: Fraction) -> PhasedScalar:
    """q**(re + im*pi*I/log q)  =  I**(2 im) * q**re, exactly."""
    half = 2 * Fraction(re)
    turn = 2 * Fraction(im)
    if half.denominator != 1 or turn.denominator != 1:
        raise ValueError("exponent pairs must be half-integral")
    return PhasedScalar(int(turn), int(half), QF_ONE)


def base_point_exponent(lam: Sequence[int], n: int, parity: str) -> ZPair:
    """<lam, z0> as an exact (re, im) pair.

    >>> base_point_exponent((1,), 1, "odd")
    (Fraction(-1, 1), Fraction(1, 2))
    """
    lam = check_partition(lam, n)
    z0 = base_point(n, parity)
    re = sum((Fraction(l) * p[0] for l, p in zip(lam, z0)), Fraction(0))
    im = sum((Fraction(l) * p[1] for l, p in zip(lam, z0)), Fraction(0))
    return re, im


def phase_power(lam: Sequence[int], n: int, parity: str) -> PhasedScalar:
    """q**<lam, z0> as an exact phased value.

    >>> str(phase_power((1,), 1, "odd"))
    'I * q^(-1) * (1)'
    """
    return phase_q_power(*base_point_exponent(lam, n, parity))


def x_coords_stretched(z: Sequence[ZPair]) -> list[QLaurent]:
    """Coordinates q**z_i as exact monomials in r = q**(1/2)."""
    phases = [phase_q_power(re, im) for re, im in z]
    return [QLaurent({ph.half_q: GaussianRational.i_power(ph.i_power)}) for ph in phases]


# -- the factored boundary terms ------------------------------------------------


def g_factor(n: int, parity: str) -> FactoredRational:
    """prod over the relevant positive roots (all of them in the odd case, the
    short ones in the even case) of (1 + x^a)/(1 - q^-1 x^a)."""
    q = QLaurent.gen()
    roots = positive_roots(n) if parity == "odd" else short_positive_roots(n)
    num = [Binomial(-1, a) for a in roots]
    return FactoredRational(1, num, [Binomial(q**-1, a) for a in roots])


def gamma_factor(sigma: SignedPerm, parity: str) -> FactoredRational:
    """The twist picked up under the group action on the torus:

        prod over relevant positive roots negated by sigma of
            (1 - q^-1 x^a) / (x^a - q^-1).

    Each denominator factor is rewritten as -q^-1 (1 - q x^a) to stay in
    binomial form.
    """
    q = QLaurent.gen()
    roots = negated_positive_set(sigma, include_long=(parity == "odd"))
    front = QFraction(-q) ** len(roots)
    num = [Binomial(q**-1, a) for a in roots]
    den = [Binomial(q, a) for a in roots]
    return FactoredRational(front, num, den)


def leading_constant(n: int, parity: str) -> QFraction:
    """The normalizing constant making the value at the base point equal 1."""
    q = QLaurent.gen()
    t = -(q**-1)
    if parity == "odd":
        return QFraction(
            (1 + q**-1) * (1 - q**-2) ** n, w_poly(2 * n + 1, t)
        )
    return QFraction((1 - q**-2) ** n, w_poly(2 * n, t))


def identity_value_constant(n: int, parity: str) -> QFraction:
    """The constant value of (explicit value at the empty partition) times
    the boundary factor -- constant because the empty orbit sum is."""
    return leading_constant(n, parity) * QFraction(whole_group_value(n, parity))


def identity_value_closed_form(n: int, parity: str) -> QFraction:
    """Independent closed form for the same constant, via the one-variable
    counting polynomials."""
    q = QLaurent.gen()
    t = -(q**-1)
    if parity == "odd":
        return QFraction(
            (1 - q**-1) ** n * w_poly(n, t) * w_poly(n + 1, t), w_poly(2 * n + 1, t)
        )
    return QFraction(
        (1 - q**-1) ** n * w_poly(n, t) * w_poly(n, t), w_poly(2 * n, t)
    )


# -- the main evaluable --------------------------------------------------------


def _r_parity(poly: QLaurent) -> int:
    """The common parity of the exponents of a Laurent polynomial in r."""
    parities = {e % 2 for e, _ in poly.items()}
    if len(parities) > 1:
        raise ValueError("base-point value mixes integral and half-integral powers of q")
    return parities.pop() if parities else 0


class SphericalValue:
    """prefactor * numerator(x) / boundary(x), all exact."""

    __slots__ = ("n", "parity", "lam", "prefactor", "numerator", "boundary")

    def __init__(
        self,
        n: int,
        parity: str,
        lam: Tuple[int, ...],
        prefactor: PhasedScalar,
        numerator: TorusPoly,
        boundary: FactoredRational,
    ):
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "parity", parity)
        object.__setattr__(self, "lam", lam)
        object.__setattr__(self, "prefactor", prefactor)
        object.__setattr__(self, "numerator", numerator)
        object.__setattr__(self, "boundary", boundary)

    def __setattr__(self, name, value):  # pragma: no cover - defensive
        raise AttributeError("SphericalValue is immutable")

    def eval_exact(self, xs: Sequence) -> PhasedScalar:
        val = self.numerator.eval_exact(xs) / self.boundary.eval_exact(xs)
        return self.prefactor * val

    def eval_at_base_point(self) -> PhasedScalar:
        """Exact value at the distinguished point (everything in r = sqrt q).

        The value is q^(h/2) F(q) / G(q) with h = -1, 0 or 1; a value whose
        powers of r mix both parities in its numerator or its denominator is
        refused with ValueError."""
        xs = x_coords_stretched(base_point(self.n, self.parity))
        stretch = lambda c: c.stretch(2)
        num = self.numerator.map_coeffs(stretch).eval_exact(xs)
        bnd = self.boundary.map_coefs(stretch).eval_exact(xs)
        pre = self.prefactor.stretch(2)
        # the stretched prefactor doubled every half-power, so the folded
        # parity is 0 and the whole value sits in the QFraction, in r
        _, s = (pre * (num / bnd)).folded()
        hn, hd = _r_parity(s.num), _r_parity(s.den)
        unstretch = QFraction(
            QLaurent({(e - hn) // 2: c for e, c in s.num.items()}),
            QLaurent({(e - hd) // 2: c for e, c in s.den.items()}),
        )
        return PhasedScalar(0, hn - hd, unstretch)

    def __repr__(self):
        return (
            f"SphericalValue(n={self.n}, parity={self.parity!r}, lam={self.lam}, "
            f"terms={self.numerator.num_terms()})"
        )


def omega_explicit(n: int, parity: str, lam: Sequence[int]) -> SphericalValue:
    """The explicit product formula, normalized to 1 at the base point.

    >>> v = omega_explicit(1, "odd", (1,))
    >>> v.eval_at_base_point().is_one()
    True
    """
    lam = check_partition(lam, n)
    pre = PhasedScalar(0, 0, leading_constant(n, parity)) * phase_power(lam, n, parity)
    return SphericalValue(n, parity, lam, pre, q_poly(n, parity, lam), g_factor(n, parity))


def psi(n: int, parity: str, lam: Sequence[int]) -> SphericalValue:
    """The plain normalized kernel: q**<lam, z0> * orbit_sum / whole-group
    series, with no boundary factor."""
    lam = check_partition(lam, n)
    w0 = QFraction(whole_group_value(n, parity))
    pre = PhasedScalar(0, 0, w0.inverse()) * phase_power(lam, n, parity)
    return SphericalValue(n, parity, lam, pre, q_poly(n, parity, lam), FactoredRational(1))


# -- rank-one closed forms -------------------------------------------------------


def omega_rank1_s_form(ell: int, u: QFraction) -> QFraction:
    """Rank-one value as a function of u = q**(-s).

    Continuation in u of

        (1 + q^-3 u^2) / ((1 + q^-3)(1 - q^-4 u^4)) *
        { u^-l (1 - q^-4 u^2)  -  (-1)^l q^(-2(l+1)) u^l (1 - u^2) }
    """
    if ell < 0:
        raise ValueError("the orbit index must be nonnegative")
    return _rank1_s_form(ell, u, -1 if ell % 2 == 0 else 1)


def omega_rank1_s_form_printed_variant(ell: int, u: QFraction) -> QFraction:
    """Same front factor but with a minus sign on the second brace term for
    every l.  Kept only so the test suite can document that this variant is
    inconsistent with the explicit formula for odd l."""
    return _rank1_s_form(ell, u, -1)


def _rank1_s_form(ell: int, u: QFraction, sign: int) -> QFraction:
    """The rank-one s-form with the given sign on the second brace term."""
    q = QLaurent.gen()
    u = u if isinstance(u, QFraction) else QFraction(u)
    u2 = u * u
    front = (1 + QFraction(q**-3) * u2) / (
        QFraction(1 + q**-3) * (1 - QFraction(q**-4) * u2 * u2)
    )
    brace = u**-ell * (1 - QFraction(q**-4) * u2) + sign * QFraction(
        q ** (-2 * (ell + 1))
    ) * u**ell * (1 - u2)
    return front * brace


def omega_rank1_z_form(ell: int, x: QFraction) -> QFraction:
    """Rank-one value as a function of the torus coordinate x = q**z:

        I^l q^-l (1 - q^-1 x^2) / ((1 + q^-3)(1 + x^2)) *
        { x^-l (1 + q^-2 x^2)/(1 - x^2)  +  x^l (1 + q^-2 x^-2)/(1 - x^-2) }
    """
    if ell < 0:
        raise ValueError("the orbit index must be nonnegative")
    q = QLaurent.gen()
    x = x if isinstance(x, QFraction) else QFraction(x)
    x2 = x * x
    xm2 = x2.inverse()
    phase = QFraction(QLaurent.const(GaussianRational.i_power(ell)) * q**-ell)
    front = phase * (1 - QFraction(q**-1) * x2) / (QFraction(1 + q**-3) * (1 + x2))
    brace = x**-ell * (1 + QFraction(q**-2) * x2) / (1 - x2) + x**ell * (
        1 + QFraction(q**-2) * xm2
    ) / (1 - xm2)
    return front * brace


def rank1_substitution(x: Fraction) -> QFraction:
    """The change of variable linking the two closed forms: u = -I q x."""
    return QFraction(QLaurent({1: GaussianRational(0, -1) * GaussianRational(Fraction(x))}))


# -- identity checks ------------------------------------------------------------


def check_functional_equation(
    n: int, parity: str, lam: Sequence[int], elements: Sequence[SignedPerm] | None = None
) -> bool:
    """value(x) == twist_sigma(x) * value(sigma . x) for every group element
    (or for ``elements``), as an identity in x and q: with value =
    prefactor * f / g, f is invariant and g(sigma . x) == twist_sigma(x) * g(x),
    where g(sigma . x) is g.weyl(sigma^-1) as (sigma . x)^e = x^(sigma^-1 e).
    """
    lam = check_partition(lam, n)
    omega = omega_explicit(n, parity, lam)
    f, g = omega.numerator, omega.boundary
    group = list(elements) if elements is not None else enumerate_group(n)
    return all(
        f.weyl(sigma) == f and g.weyl(sigma.inverse()).same_as(gamma_factor(sigma, parity) * g)
        for sigma in group
    )


def check_gamma_cocycle(n: int, parity: str, seed: int = 0) -> bool:
    """twist_{sigma tau}(x) == twist_tau(x) * twist_sigma(tau . x) as factored
    forms, for five pairs (sigma, tau) drawn with ``seed``."""
    rng = random.Random(seed)
    group = enumerate_group(n)
    for _ in range(5):
        sigma = rng.choice(group)
        tau = rng.choice(group)
        rhs = gamma_factor(tau, parity) * gamma_factor(sigma, parity).weyl(tau.inverse())
        if not gamma_factor(sigma * tau, parity).same_as(rhs):
            return False
    return True


def alternative_phase_power(lam: Sequence[int], n: int) -> PhasedScalar:
    """The base-point power computed with every imaginary multiplier lowered
    by a full period (odd side only): the imaginary part of <lam, z0> drops
    by |lam|."""
    re, im = base_point_exponent(lam, n, "odd")
    return phase_q_power(re, im - sum(lam))


def parity_sign_relation(lam: Sequence[int], n: int) -> int:
    """The sign b/a between the explicit value with the shifted (b) and the
    standard (a) base-point convention, or 0 if b/a is not +-1.  Only their
    phase powers differ.  The expected sign is (-1)**|lam|."""
    lam = check_partition(lam, n)
    ratio = alternative_phase_power(lam, n) / phase_power(lam, n, "odd")
    return 1 if ratio == 1 else -1 if ratio == -1 else 0
