"""Multivariate Laurent polynomials on an n-torus.

Exponents are integer n-vectors; coefficients are :class:`QFraction`
values, so a polynomial here is really a family over the parameter q.
The signed-permutation group acts by relabeling exponents.  The one
nontrivial algorithm, exact division by a binomial ``1 - x^alpha``, works
on integer coefficients; it builds the integer basis of the orbit sums
downstream.

Exact evaluation takes points whose coordinates are nonzero monomials
``c*q^k`` (c Gaussian rational), such as the paper's x_i = q^(z_i); each
point is read once into integers and each x^e is one monomial.

``TorusPolyAt`` is a polynomial taken at one nonzero rational q0, its
coefficients Gaussian integers over one denominator.  Evaluation at q0 is a
ring homomorphism, so whatever is computed from it equals the value at q0
of the same computation in q, whenever every denominator met stays nonzero.
"""

from __future__ import annotations

import itertools
import math
import operator
from collections import Counter
from fractions import Fraction
from typing import Mapping, Sequence, Tuple

from .errors import InexactDivision
from .scalars import (
    GR_ZERO,
    GaussianRational,
    QF_ONE,
    QF_ZERO,
    QFraction,
    QLaurent,
    _mono_pow,
    _monomial,
    _nonzero_point,
    _ql,
    _reduced,
)
from .weyl import SignedPerm, is_positive_vec

Vec = Tuple[int, ...]


def _as_qfraction(x) -> QFraction:
    if isinstance(x, QFraction):
        return x
    if isinstance(x, (int, Fraction, GaussianRational, QLaurent)):
        return QFraction(x)
    raise TypeError(f"cannot interpret {type(x).__name__} as a coefficient")


def _dot(a: Sequence[int], b: Sequence[int]) -> int:
    return sum(x * y for x, y in zip(a, b))


def _x_power(pt: Sequence[tuple[int, int, int, int]], e: Vec) -> QLaurent:
    """The monomial x^e at a point read by ``_monomial``."""
    re, im, d, k = 1, 0, 1, 0
    for (xr, xi, xd, xk), a in zip(pt, e):
        if a:
            pr, pi, pd = _mono_pow(xr, xi, xd, a)
            re, im = re * pr - im * pi, re * pi + im * pr
            d *= pd
            k += xk * a
    return _ql({k: (re, im)}, d)


class TorusPoly:
    """A Laurent polynomial in x_1..x_n with QFraction coefficients.

    >>> f = TorusPoly(1, {(1,): 1}) + TorusPoly(1, {(-1,): 1})
    >>> str(f)
    'x + x^{-1}'
    >>> (f * f) == TorusPoly(1, {(2,): 1}) + TorusPoly(1, {(-2,): 1}) + TorusPoly.const(1, 2)
    True
    """

    __slots__ = ("n", "_t")

    def __init__(self, n: int, terms: Mapping[Vec, QFraction] | None = None):
        clean: dict[Vec, QFraction] = {}
        if terms:
            for e, c in terms.items():
                c = _as_qfraction(c)
                if not c.is_zero():
                    clean[tuple(int(v) for v in e)] = c
        object.__setattr__(self, "n", int(n))
        object.__setattr__(self, "_t", clean)

    def __setattr__(self, name, value):  # pragma: no cover - defensive
        raise AttributeError("TorusPoly is immutable")

    # -- constructors -------------------------------------------------------
    @staticmethod
    def zero(n: int) -> "TorusPoly":
        return TorusPoly(n)

    @staticmethod
    def const(n: int, c) -> "TorusPoly":
        return TorusPoly(n, {(0,) * n: _as_qfraction(c)})

    # -- queries --------------------------------------------------------------
    def is_zero(self) -> bool:
        return not self._t

    def num_terms(self) -> int:
        return len(self._t)

    def terms(self):
        return self._t.items()

    def sorted_terms(self) -> list[tuple[Vec, QFraction]]:
        """Graded-lex, highest first: sort by (total degree, exponent) desc."""
        return sorted(self._t.items(), key=lambda kv: (sum(kv[0]), kv[0]), reverse=True)

    def support(self):
        return self._t.keys()

    # -- arithmetic --------------------------------------------------------------
    def _check(self, other: "TorusPoly"):
        if self.n != other.n:
            raise ValueError("mixed variable counts")

    def _coerce(self, other):
        if isinstance(other, TorusPoly):
            self._check(other)
            return other
        if isinstance(other, (int, Fraction, GaussianRational, QLaurent, QFraction)):
            return TorusPoly.const(self.n, other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        t = dict(self._t)
        for e, c in o._t.items():
            s = t.get(e, QF_ZERO) + c
            if s.is_zero():
                t.pop(e, None)
            else:
                t[e] = s
        return TorusPoly(self.n, t)

    __radd__ = __add__

    def __neg__(self):
        return TorusPoly(self.n, {e: -c for e, c in self._t.items()})

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, GaussianRational, QLaurent, QFraction)):
            c0 = _as_qfraction(other)
            if c0.is_zero():
                return TorusPoly(self.n)
            return TorusPoly(self.n, {e: c * c0 for e, c in self._t.items()})
        if not isinstance(other, TorusPoly):
            return NotImplemented
        self._check(other)
        t: dict[Vec, QFraction] = {}
        for e1, c1 in self._t.items():
            for e2, c2 in other._t.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                s = t.get(e)
                s = c1 * c2 if s is None else s + c1 * c2
                if s.is_zero():
                    t.pop(e, None)
                else:
                    t[e] = s
        return TorusPoly(self.n, t)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if not isinstance(k, int) or k < 0:
            return NotImplemented
        out = TorusPoly.const(self.n, 1)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if self._t.keys() != o._t.keys():
            return False
        return all(c == o._t[e] for e, c in self._t.items())

    __hash__ = None

    def map_coeffs(self, fn) -> "TorusPoly":
        """Apply a QFraction -> QFraction map to every coefficient."""
        return TorusPoly(self.n, {e: fn(c) for e, c in self._t.items()})

    # -- group action ---------------------------------------------------------
    def weyl(self, sigma: SignedPerm) -> "TorusPoly":
        """Relabel exponents by a signed permutation: x^e -> x^(sigma e)."""
        return TorusPoly(self.n, {sigma.act_vector(e): c for e, c in self._t.items()})

    # -- evaluation --------------------------------------------------------------
    def eval_exact(self, xs: Sequence) -> QFraction:
        """Value at a point of nonzero monomial coordinates c*q^k (int,
        Fraction, GaussianRational, QLaurent or QFraction), else ValueError."""
        if len(xs) != self.n:
            raise ValueError("wrong number of coordinates")
        pt = [_monomial(x) for x in xs]
        total = QF_ZERO
        for e, c in self._t.items():
            total = total + QFraction(c.num * _x_power(pt, e), c.den)
        return total

    # -- presentation ---------------------------------------------------------------
    def _var(self, i: int) -> str:
        return "x" if self.n == 1 else f"x{i + 1}"

    def __str__(self):
        if not self._t:
            return "0"
        parts = []
        for e, c in self.sorted_terms():
            mono = "*".join(
                self._var(i) if k == 1 else f"{self._var(i)}^{{{k}}}" if (k < 0 or k > 9) else f"{self._var(i)}^{k}"
                for i, k in enumerate(e)
                if k
            )
            cs = str(c)
            if mono:
                if cs == "1":
                    cs = ""
                elif cs == "-1":
                    cs = "-"
                elif ("+" in cs[1:]) or ("-" in cs[1:]) or ("/" in cs) or cs.endswith("I"):
                    cs = f"({cs})*"
                else:
                    cs = f"{cs}*"
            parts.append(f"{cs}{mono}" if mono else cs)
        out = parts[0]
        for p in parts[1:]:
            out += f" - {p[1:]}" if p.startswith("-") else f" + {p}"
        return out

    def __repr__(self):
        return f"TorusPoly(n={self.n}, terms={self.num_terms()})"

    def to_json_dict(self) -> dict:
        """Structured form: exponent vectors with numerator/denominator maps."""
        return {
            "vars": self.n,
            "terms": [
                {
                    "exp": list(e),
                    "coef_num": c.num.serialize(),
                    "coef_den": c.den.serialize(),
                }
                for e, c in self.sorted_terms()
            ],
        }


class TorusPolyAt:
    """A TorusPoly at q = q0: ``_c`` maps each exponent to the (re, im) pair
    of its Gaussian-integer numerator, the coefficient there being
    (re + im*I) / ``_d``.  As in QLaurent, zero numerators are not stored,
    ``_d > 0``, and ``_d`` is coprime to the numerators taken together.

    >>> f = TorusPoly(1, {(1,): QLaurent.gen()}) + TorusPoly(1, {(-1,): 1})
    >>> f = TorusPolyAt(f, Fraction(7, 2))
    >>> f._c, f._d
    ({(1,): (7, 0), (-1,): (2, 0)}, 2)
    >>> [str(v) for v in f.flip_values([Fraction(2)])]
    ['15/2', '-15/2']
    """

    __slots__ = ("n", "_c", "_d")

    def __init__(self, f: TorusPoly, q0):
        a, b = _nonzero_point(q0)
        vals = [(e, *c.value_at(a, b)) for e, c in f.terms()]
        d = math.lcm(*(den for *_, den in vals))
        c = {e: (re * (d // den), im * (d // den)) for e, re, im, den in vals if re or im}
        self._set(f.n, *_reduced(c, d))

    @staticmethod
    def of_ints(n: int, c: dict, d: int) -> "TorusPolyAt":
        """Nonzero Gaussian-integer numerators ``c`` over ``d > 0``, common
        factors cancelled."""
        return object.__new__(TorusPolyAt)._set(n, *_reduced(c, d))

    def _set(self, n: int, c: dict, d: int) -> "TorusPolyAt":
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "_c", c)
        object.__setattr__(self, "_d", d)
        return self

    def __setattr__(self, name, value):  # pragma: no cover - defensive
        raise AttributeError("TorusPolyAt is immutable")

    def conjugate(self) -> "TorusPolyAt":
        """Every coefficient conjugated."""
        c = {e: (re, -im) for e, (re, im) in self._c.items()}
        return TorusPolyAt.of_ints(self.n, c, self._d)

    def flip_values(self, xs: Sequence) -> list[GaussianRational]:
        """Exact values at the 2^n sign flips of a point of nonzero rational
        coordinates, the flips in the order of itertools.product((1, -1)).

        At x_i = a_i / b_i the numerators are summed scaled by
        prod a_i^(e_i - lo_i) b_i^(hi_i - e_i), lo_i and hi_i bounding the
        exponents of x_i, and the rest is applied once, as in
        QLaurent.value_at.  Flipping the signs of the coordinates in a set S
        multiplies x^e by (-1)^(sum of e_i over S), so the terms are summed
        once per parity pattern e mod 2, and each flip signs those sums."""
        n = self.n
        if len(xs) != n:
            raise ValueError("wrong number of coordinates")
        pts = [(x.numerator, x.denominator) for x in map(Fraction, xs)]
        if not all(a for a, _ in pts):
            raise ValueError("cannot evaluate at a zero coordinate")
        if not self._c:
            return [GR_ZERO] * 2**n
        cols = list(zip(*self._c))
        los, his = [min(col) for col in cols], [max(col) for col in cols]
        tables = [
            ([a**k for k in range(hi - lo + 1)], [b**k for k in range(hi - lo + 1)])
            for (a, b), lo, hi in zip(pts, los, his)
        ]
        sums = [[0, 0] for _ in range(2**n)]
        for e, (re, im) in self._c.items():
            w, mask = 1, 0
            for i, (v, lo, hi, (pa, pb)) in enumerate(zip(e, los, his, tables)):
                w *= pa[v - lo] * pb[hi - v]
                mask |= (v & 1) << i
            s = sums[mask]
            s[0] += re * w
            s[1] += im * w
        num = den = 1
        for (a, b), lo, hi in zip(pts, los, his):
            num *= a ** max(lo, 0) * b ** max(-hi, 0)
            den *= a ** max(-lo, 0) * b ** max(hi, 0)
        num, den = (num, den * self._d) if den > 0 else (-num, -den * self._d)
        out = []
        for signs in itertools.product((0, 1), repeat=n):
            flip = sum(s << i for i, s in enumerate(signs))
            re = im = 0
            for mask, (r, i) in enumerate(sums):
                if (mask & flip).bit_count() % 2:
                    re, im = re - r, im - i
                else:
                    re, im = re + r, im + i
            out.append(GaussianRational(Fraction(re * num, den), Fraction(im * num, den)))
        return out


def binomial_div_exact(f: Mapping[Vec, int], alpha: Sequence[int]) -> dict[Vec, int]:
    """Exact quotient f / (1 - x^alpha) of a Laurent polynomial with int
    coefficients, given and returned as {exponent: int}; raises
    InexactDivision otherwise.

    The binomial acts on each line e + Z*alpha apart.  Walked upward, the
    quotient at a point of a line is the sum of f over the line up to that
    point: it is constant between two terms of f, and the division is exact
    when every line sums to zero.  Each quotient term is written once.

    >>> binomial_div_exact({(0,): 1, (2,): -1}, (1,))
    {(0,): 1, (1,): 1}
    >>> binomial_div_exact({(0, 0): 1, (1, 1): -1}, (1, 1))
    {(0, 0): 1}
    """
    alpha = tuple(int(a) for a in alpha)
    if f and len(next(iter(f))) != len(alpha):
        raise ValueError("root length does not match variable count")
    aa = _dot(alpha, alpha)
    if aa == 0:
        raise ValueError("division direction must be a nonzero vector")

    # a line's foot is its point e - k*alpha with 0 <= <e - k*alpha, alpha> < aa
    mul, add, sub = operator.mul, operator.add, operator.sub
    ks = [sum(map(mul, e, alpha)) // aa for e in f]
    steps = {k: tuple([k * a for a in alpha]) for k in range(min(ks, default=0), max(ks, default=0) + 1)}
    lines: dict[Vec, list[tuple[int, int]]] = {}  # foot -> (step k, coefficient)
    for (e, c), k in zip(f.items(), ks):
        foot = tuple(map(sub, e, steps[k]))
        line = lines.get(foot)
        if line is None:
            lines[foot] = [(k, c)]
        else:
            line.append((k, c))

    quot: dict[Vec, int] = {}
    for foot, line in lines.items():
        line.sort()  # the steps on a line differ
        s = 0  # the quotient from the last step on
        for k, c in line:
            if s:
                for j in range(last, k):
                    quot[tuple(map(add, foot, steps[j]))] = s
            s += c
            last = k
        if s:
            raise InexactDivision("remainder survives binomial division")
    return quot


class Binomial:
    """The factor 1 - coef * x^alpha, kept unexpanded."""

    __slots__ = ("coef", "alpha")

    def __init__(self, coef, alpha: Sequence[int]):
        object.__setattr__(self, "coef", _as_qfraction(coef))
        object.__setattr__(self, "alpha", tuple(int(a) for a in alpha))

    def __setattr__(self, name, value):  # pragma: no cover - defensive
        raise AttributeError("Binomial is immutable")

    def eval_exact(self, xs: Sequence) -> QFraction:
        """Value at a point of nonzero monomials, as in TorusPoly.eval_exact."""
        return self._eval_at([_monomial(x) for x in xs], {})

    def _eval_at(self, pt, memo: dict) -> QFraction:
        """1 - coef*x^alpha, with x^alpha memoised in ``memo`` by alpha."""
        m = memo.get(self.alpha)
        if m is None:
            m = memo[self.alpha] = _x_power(pt, self.alpha)
        return QF_ONE - QFraction(self.coef.num * m, self.coef.den)

    def map_coef(self, fn) -> "Binomial":
        return Binomial(fn(self.coef), self.alpha)

    def __repr__(self):
        return f"Binomial({self.coef}, {self.alpha})"


class FactoredRational:
    """front * prod(num binomials) / prod(den binomials), never expanded."""

    __slots__ = ("front", "num", "den")

    def __init__(self, front=1, num: Sequence[Binomial] = (), den: Sequence[Binomial] = ()):
        object.__setattr__(self, "front", _as_qfraction(front))
        object.__setattr__(self, "num", tuple(num))
        object.__setattr__(self, "den", tuple(den))

    def __setattr__(self, name, value):  # pragma: no cover - defensive
        raise AttributeError("FactoredRational is immutable")

    def __mul__(self, other):
        if isinstance(other, FactoredRational):
            return FactoredRational(
                self.front * other.front, self.num + other.num, self.den + other.den
            )
        return FactoredRational(self.front * _as_qfraction(other), self.num, self.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, FactoredRational):
            return self * other.inverse()
        return FactoredRational(self.front / _as_qfraction(other), self.num, self.den)

    def inverse(self) -> "FactoredRational":
        return FactoredRational(self.front.inverse(), self.den, self.num)

    def eval_exact(self, xs: Sequence) -> QFraction:
        """Value at a point of nonzero monomials, as in TorusPoly.eval_exact.
        The steps run front, times each numerator value, over each denominator
        value: QFraction is not canonical, and another order can print a
        different but equal fraction."""
        pt = [_monomial(x) for x in xs]
        memo: dict = {}
        top = self.front
        for b in self.num:
            top = top * b._eval_at(pt, memo)
        for b in self.den:
            top = top / b._eval_at(pt, memo)
        return top

    def map_coefs(self, fn) -> "FactoredRational":
        return FactoredRational(
            fn(self.front),
            [b.map_coef(fn) for b in self.num],
            [b.map_coef(fn) for b in self.den],
        )

    def weyl(self, sigma: SignedPerm) -> "FactoredRational":
        """Relabel each binomial exponent as TorusPoly.weyl does: x^a -> x^(sigma a)."""
        act = lambda bs: [Binomial(b.coef, sigma.act_vector(b.alpha)) for b in bs]
        return FactoredRational(self.front, act(self.num), act(self.den))

    def same_as(self, other: "FactoredRational") -> bool:
        """Equality as rational functions of x and q, read off the factors.

        Each 1 - c*x^a with a negative exponent a becomes -c*x^a * (1 - c^-1 x^-a);
        then the fronts, the x-exponents and the multiplicity of each binomial
        (numerator minus denominator) must agree.  True always proves equality.
        False proves inequality when every coefficient is a monomial c*q^k and
        no exponent, made positive, is a multiple of another (as for the
        positive roots of type C): differing binomials are then coprime.
        """
        return self._normal_form() == other._normal_form()

    def _normal_form(self):
        front, shift, count = self.front, Counter(), Counter()
        for sign, factors in ((1, self.num), (-1, self.den)):
            for b in factors:
                c, a = b.coef, b.alpha
                if not is_positive_vec(a):
                    front = front * -c if sign == 1 else front / -c
                    shift.update({i: sign * v for i, v in enumerate(a)})
                    c, a = c.inverse(), tuple(-v for v in a)
                count[_monomial(c), a] += sign
        return front, shift, count

    def __repr__(self):
        return f"FactoredRational(front={self.front}, num={len(self.num)}, den={len(self.den)})"

