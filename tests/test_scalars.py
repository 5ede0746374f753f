import random
from fractions import Fraction
from math import gcd

import pytest

from hermlab.errors import InexactDivision
from hermlab.scalars import GR_ONE, GaussianRational, QFraction, QLaurent, _gaussian_ints

Q = QLaurent.gen()


def test_gaussian_field_ops():
    a = GaussianRational(Fraction(1, 2), Fraction(-3, 4))
    b = GaussianRational(2, 5)
    assert a + b == GaussianRational(Fraction(5, 2), Fraction(17, 4))
    assert a * a.conjugate() == GaussianRational(a.abs2())
    assert (a / b) * b == a
    assert a - a == GaussianRational(0)
    assert (a * b).conjugate() == a.conjugate() * b.conjugate()


def test_gaussian_inverse_of_zero():
    with pytest.raises(ZeroDivisionError):
        GaussianRational(0).inverse()


def test_gaussian_powers_of_i():
    i = GaussianRational(0, 1)
    assert i**2 == GaussianRational(-1)
    assert i**-1 == GaussianRational(0, -1)
    assert [GaussianRational.i_power(k) for k in range(8)] == [i**k for k in range(8)]


def test_gaussian_str_roundtrip_shape():
    assert str(GaussianRational(Fraction(1, 3))) == "1/3"
    assert str(GaussianRational(0, Fraction(2, 7))) == "2/7*I"
    assert str(GaussianRational(Fraction(-1, 2), -1)) == "-1/2-I"
    assert str(GaussianRational(1, 1)) == "1+I"


# frozen value: (1+q^-1)(1-q^-2) at q=3 equals 4/3 * 8/9 = 32/27
def test_qlaurent_eval_frozen():
    w2 = (1 + Q**-1) * (1 - Q**-2)
    assert w2.eval(Fraction(3)) == GaussianRational(Fraction(32, 27))
    assert w2.eval(Fraction(5)) == GaussianRational(Fraction(144, 125))


def test_qlaurent_eval_at_gaussian_point():
    # q is the size of a residue field: eval takes a nonzero rational only
    f = Q**2 + 1
    with pytest.raises(TypeError):
        f.eval(GaussianRational(0, 1))
    with pytest.raises(ValueError):
        f.eval(0)


def test_qlaurent_ring_identities():
    f = 3 * Q**2 - Q + GaussianRational(0, 1)
    g = Q**-3 + 2
    h = 1 - Q
    assert (f + g) * h == f * h + g * h
    assert f * g == g * f
    assert f - f == QLaurent()
    assert dict((f * g).items())[-1] == dict(f.items())[2] * dict(g.items())[-3]


def test_qlaurent_divexact():
    assert (1 - Q**4).divexact(1 - Q) == 1 + Q + Q**2 + Q**3
    f = (1 - Q**-2) * (3 + Q**5 - Q**-1)
    assert f.divexact(1 - Q**-2) == 3 + Q**5 - Q**-1
    with pytest.raises(InexactDivision):
        (1 + Q).divexact(1 - Q)
    with pytest.raises(ZeroDivisionError):
        Q.divexact(QLaurent())


def test_qlaurent_hashable_and_memoizable():
    a = (1 + Q) * (1 - Q)
    b = 1 - Q**2
    assert a == b and hash(a) == hash(b)
    table = {a: "cached"}
    assert table[b] == "cached"


def test_qfraction_cross_multiplication_equality():
    a = QFraction(Q - 1, Q**2 - Q)      # (q-1)/(q(q-1))
    b = QFraction(QLaurent.const(1), Q)  # 1/q
    assert a == b
    c = QFraction(1 - Q**2, (1 - Q) * (1 + Q**3))
    d = QFraction(1 + Q, 1 + Q**3)
    assert c == d
    assert a != c


def test_qfraction_field_ops():
    x = QFraction(1 + Q, 1 - Q)
    y = QFraction(Q, 1 + Q**2)
    assert (x + y) - y == x
    assert x * y / y == x
    assert x * x.inverse() == QFraction(1)
    assert (x - x).is_zero()
    with pytest.raises(ZeroDivisionError):
        QFraction(0).inverse()
    with pytest.raises(ZeroDivisionError):
        QFraction(Q, QLaurent())


def test_qfraction_eval():
    x = QFraction(1 + Q, 1 - Q)
    assert x.eval(Fraction(3)) == GaussianRational(-2)
    with pytest.raises(ZeroDivisionError):
        x.eval(Fraction(1))


def test_qfraction_unhashable():
    with pytest.raises(TypeError):
        hash(QFraction(Q))


def test_conjugate_coeffs():
    f = QFraction(QLaurent({1: GaussianRational(0, 1), 0: GR_ONE}), 1 - Q)
    g = f.conjugate_coeffs()
    assert dict(g.num.items())[1] == GaussianRational(0, -1)
    assert g.den == 1 - Q


# -- reference implementation ---------------------------------------------------
#
# The Fraction-dict Laurent polynomial that ``QLaurent`` replaced: one
# GaussianRational per exponent, kept in the dict order its arithmetic
# produced.  The differential tests below hold the integer-numerator class
# to it: same values, same dict order, same exceptions.


class RefQLaurent:
    def __init__(self, coeffs=None):
        self._c = {}
        for e, c in (coeffs or {}).items():
            c = c if isinstance(c, GaussianRational) else GaussianRational(c)
            if not c.is_zero():
                self._c[int(e)] = c

    def _coerce(self, other):
        if isinstance(other, RefQLaurent):
            return other
        return RefQLaurent({0: other})

    def is_zero(self):
        return not self._c

    def __add__(self, other):
        o = self._coerce(other)
        c = dict(self._c)
        for e, v in o._c.items():
            s = c.get(e, GaussianRational(0)) + v
            if s.is_zero():
                c.pop(e, None)
            else:
                c[e] = s
        return RefQLaurent(c)

    def __neg__(self):
        return RefQLaurent({e: -v for e, v in self._c.items()})

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __mul__(self, other):
        o = self._coerce(other)
        c = {}
        for e1, v1 in self._c.items():
            for e2, v2 in o._c.items():
                e = e1 + e2
                s = c.get(e, GaussianRational(0)) + v1 * v2
                if s.is_zero():
                    c.pop(e, None)
                else:
                    c[e] = s
        return RefQLaurent(c)

    def __pow__(self, k):
        if k < 0:
            if len(self._c) != 1:
                raise InexactDivision("negative power of a non-monomial QLaurent")
            (e, v), = self._c.items()
            return RefQLaurent({e * k: v**k})
        out = RefQLaurent({0: 1})
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def shift(self, k):
        return RefQLaurent({e + k: v for e, v in self._c.items()})

    def stretch(self, k):
        return RefQLaurent({e * k: v for e, v in self._c.items()})

    def divexact(self, other):
        o = self._coerce(other)
        if o.is_zero():
            raise ZeroDivisionError("division by zero QLaurent")
        rem = self
        lead_e = max(o._c)
        lead_c = o._c[lead_e]
        quot = {}
        while not rem.is_zero():
            top, bottom = max(rem._c), min(rem._c)
            e = top - lead_e
            c = rem._c[top] / lead_c
            if top - bottom < lead_e - min(o._c):
                raise InexactDivision("nonzero remainder in QLaurent division")
            quot[e] = c
            rem = rem - o.shift(e) * RefQLaurent({0: c})
        return RefQLaurent(quot)

    def eval(self, q0):
        total = GaussianRational(0)
        for e, v in self._c.items():
            total = total + v * q0**e
        return total

    def eval_float(self, q0):
        return sum(complex(v) * q0**e for e, v in self._c.items())


def _same(got: QLaurent, ref: RefQLaurent):
    """Equal coefficients in equal dict order, and equal presentations."""
    assert got.items() == list(ref._c.items())
    assert got == QLaurent(ref._c)
    assert repr(got) == f"QLaurent({ref._c!r})"


def _random_coeff(rng: random.Random, gaussian: bool) -> GaussianRational:
    def part():
        return Fraction(rng.randint(-6, 6), rng.choice((1, 1, 1, 2, 3, 4, 6)))

    return GaussianRational(part(), part() if gaussian else 0)


def _random_pair(rng: random.Random, max_terms: int = 5):
    """The same random Laurent polynomial as a QLaurent and a RefQLaurent."""
    gaussian = rng.random() < 0.5
    coeffs = {
        rng.randint(-4, 4): _random_coeff(rng, gaussian)
        for _ in range(rng.randint(0, max_terms))
    }
    return QLaurent(coeffs), RefQLaurent(coeffs)


_LEADS = (
    GaussianRational(1),
    GaussianRational(-1),
    GaussianRational(0, 1),
    GaussianRational(2, 1),
    GaussianRational(Fraction(3, 2)),
    GaussianRational(Fraction(1, 3), Fraction(-2, 5)),
)


def _random_divisor(rng: random.Random):
    """A nonzero pair whose lead is drawn from units and non-units."""
    while True:
        f, r = _random_pair(rng, 3)
        lead = rng.choice(_LEADS)
        top = max(r._c, default=-1) + rng.randint(1, 2)
        g, s = f + QLaurent.term(lead, top), r + RefQLaurent({top: lead})
        if not g.is_zero():
            return g, s


def test_ring_ops_match_reference():
    rng = random.Random(20240611)
    for _ in range(300):
        f, rf = _random_pair(rng)
        g, rg = _random_pair(rng)
        _same(f + g, rf + rg)
        _same(f - g, rf - rg)
        _same(f * g, rf * rg)
        _same(-f, -rf)
        k = rng.randint(0, 3)
        _same(f**k, rf**k)
        s = rng.randint(-3, 3)
        _same(f * QLaurent.term(1, s), rf.shift(s))
        t = rng.randint(1, 3)
        _same(f.stretch(t), rf.stretch(t))
        c = _random_coeff(rng, True)
        _same(f * c, rf * c)
        _same(c + f, rf + c)
        if len(rf._c) == 1:
            _same(f**-2, rf**-2)
        else:
            with pytest.raises(InexactDivision):
                f**-1


def test_divexact_matches_reference():
    rng = random.Random(7310)
    exact = inexact = 0
    for _ in range(300):
        g, rg = _random_divisor(rng)
        f, rf = _random_pair(rng)
        _same((f * g).divexact(g), (rf * rg).divexact(rg))
        try:
            want = rf.divexact(rg)
        except InexactDivision:
            inexact += 1
            with pytest.raises(InexactDivision):
                f.divexact(g)
        else:
            exact += 1
            _same(f.divexact(g), want)
    assert exact > 20 and inexact > 100


def test_divexact_non_unit_leads():
    for lead in _LEADS[3:]:
        g = 1 - QLaurent.const(lead) * Q**2
        f = (Fraction(2, 7) - Q**-3 + GaussianRational(0, 5) * Q) * g
        assert f.divexact(g) * g == f
        with pytest.raises(InexactDivision):
            (f + Q**-9).divexact(g)


def test_equality_and_hash_ignore_construction_order():
    rng = random.Random(5)
    for _ in range(200):
        f, rf = _random_pair(rng, 6)
        terms = list(rf._c.items())
        rng.shuffle(terms)
        g = QLaurent(dict(terms))
        assert f == g and hash(f) == hash(g)
        h, _ = _random_pair(rng)
        assert f * h == h * f and hash(f * h) == hash(h * f)
        assert (f + h) - h == f and hash((f + h) - h) == hash(f)


def test_str_serialize_and_eval_match_reference():
    rng = random.Random(99)
    for _ in range(200):
        f, rf = _random_pair(rng, 6)
        g, rg = _random_pair(rng, 3)
        f, rf = f * g, rf * rg
        assert str(f) == str(QLaurent(rf._c))
        assert f.serialize() == {str(e): str(v) for e, v in sorted(rf._c.items())}
        for q0 in (Fraction(3), Fraction(-2, 7), Fraction(5, 3)):
            assert f.eval(q0) == rf.eval(q0)
        assert f.eval_float(3.0) == pytest.approx(rf.eval_float(3.0), rel=1e-12, abs=1e-12)


def test_eval_float_independent_of_construction_order():
    up = {0: 1, -1: 1, -2: 2}
    down = dict(reversed(up.items()))
    # summed in dict order, 1 + q^-1 + 2q^-2 at q = 3 differs in the last bit
    assert RefQLaurent(up).eval_float(3.0) != RefQLaurent(down).eval_float(3.0)
    assert QLaurent(up) == QLaurent(down)
    assert QLaurent(up).eval_float(3.0) == QLaurent(down).eval_float(3.0)
    assert QLaurent(up).eval_float(3.0) == RefQLaurent(down).eval_float(3.0)


@pytest.mark.parametrize(
    "coef",
    [
        GaussianRational(Fraction(2, 3), Fraction(-1, 5)),
        GaussianRational(Fraction(1, 2), Fraction(1, 2)),
        GaussianRational(-1),
    ],
)
@pytest.mark.parametrize("e", [0, 3, -3])
def test_monomial_powers_match_repeated_products(coef, e):
    # the integer kernel against repeated multiplication (of x or of its
    # inverse) and against the GaussianRational route of the reference
    x = QLaurent.term(coef, e)
    inv = QLaurent.term(coef.inverse(), -e)
    for k in range(-5, 6):
        want = QLaurent.const(1)
        for _ in range(abs(k)):
            want = want * (x if k > 0 else inv)
        got = x**k
        assert (got._c, got._d) == (want._c, want._d)
        _same(got, RefQLaurent({e: coef}) ** k)


def test_monomial_power_is_reduced():
    # ((1+I)/2)^2 = I/2: the numerator 2I over 4 is brought to lowest terms
    x = QLaurent.const(GaussianRational(Fraction(1, 2), Fraction(1, 2)))
    assert ((x**2)._c, (x**2)._d) == ({0: (0, 1)}, 2)
    assert ((x**-2)._c, (x**-2)._d) == ({0: (0, -2)}, 1)


def test_gaussian_ints_reads_ints_and_fractions_directly():
    # the GaussianRational that an int or a Fraction stands for is the
    # reference; a GaussianRational still takes that path
    rng = random.Random(41)
    values = [0, 1, -1, 10**30, *(rng.randint(-(10**6), 10**6) for _ in range(100))]
    values += [Fraction(rng.randint(-99, 99), rng.randint(1, 99)) for _ in range(100)]
    for x in values:
        gr = GaussianRational(x)
        assert _gaussian_ints(x) == _gaussian_ints(gr)
        got, want = QLaurent.const(x), QLaurent.const(gr)
        assert (got._c, got._d, got._hash) == (want._c, want._d, None)
        assert hash(got) == hash(want) == got._hash
    for _ in range(100):
        x = _random_coeff(rng, True)
        re, im, d = _gaussian_ints(x)
        assert d > 0 and gcd(gcd(re, im), d) == 1
        assert GaussianRational(Fraction(re, d), Fraction(im, d)) == x


def ref_qfraction_parts(num, den):
    """The numerator and denominator that QFraction kept when it tried the
    exact division on every pair."""
    if not den.is_one() and not num.is_zero():
        try:
            return num.divexact(den), QLaurent.const(1)
        except InexactDivision:
            pass
    return num, (QLaurent.const(1) if num.is_zero() else den)


def test_qfraction_tries_the_division_only_where_it_can_be_exact():
    rng = random.Random(8128)
    short = exact = 0
    for _ in range(400):
        den, _ = _random_divisor(rng)
        num, _ = _random_pair(rng)
        if rng.random() < 0.3:
            num = num * den
        f = QFraction(num, den)
        want_num, want_den = ref_qfraction_parts(num, den)
        assert (f.num._c, f.num._d) == (want_num._c, want_num._d)
        assert (f.den._c, f.den._d) == (want_den._c, want_den._d)
        if num._c and max(num._c) - min(num._c) < max(den._c) - min(den._c):
            short += 1
            with pytest.raises(InexactDivision):
                num.divexact(den)
        exact += f.den.is_one() and not den.is_one()
    assert short > 50 and exact > 50
