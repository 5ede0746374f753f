"""Multivariate Laurent polynomials on an n-torus.

Exponents are integer n-vectors; coefficients are :class:`QFraction`
values, so a polynomial here is really a family over the parameter q.
The signed-permutation group acts by relabeling exponents, and the one
nontrivial algorithm is exact division by a binomial ``1 - c*x^alpha``,
which underpins every orbit-sum normalization downstream.
"""

from __future__ import annotations

import heapq
from fractions import Fraction
from typing import Mapping, Sequence, Tuple

from .errors import InexactDivision
from .scalars import (
    GaussianRational,
    QF_ONE,
    QF_ZERO,
    QFraction,
    QLaurent,
)
from .weyl import SignedPerm

Vec = Tuple[int, ...]


def _as_qfraction(x) -> QFraction:
    if isinstance(x, QFraction):
        return x
    if isinstance(x, (int, Fraction, GaussianRational, QLaurent)):
        return QFraction(x)
    raise TypeError(f"cannot interpret {type(x).__name__} as a coefficient")


def _dot(a: Sequence[int], b: Sequence[int]) -> int:
    return sum(x * y for x, y in zip(a, b))


class TorusPoly:
    """A Laurent polynomial in x_1..x_n with QFraction coefficients.

    >>> f = TorusPoly.monomial(1, (1,)) + TorusPoly.monomial(1, (-1,))
    >>> str(f)
    'x + x^{-1}'
    >>> (f * f) == TorusPoly.monomial(1, (2,)) + TorusPoly.monomial(1, (-2,)) + TorusPoly.const(1, 2)
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

    @staticmethod
    def monomial(n: int, exp: Sequence[int], coef=1) -> "TorusPoly":
        e = tuple(exp)
        if len(e) != n:
            raise ValueError(f"exponent of length {len(e)} in {n} variables")
        return TorusPoly(n, {e: _as_qfraction(coef)})

    # -- queries --------------------------------------------------------------
    def is_zero(self) -> bool:
        return not self._t

    def num_terms(self) -> int:
        return len(self._t)

    def coeff(self, exp: Sequence[int]) -> QFraction:
        return self._t.get(tuple(exp), QF_ZERO)

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
        """Substitute exact values (Fraction / GaussianRational / QLaurent /
        QFraction) for the variables; q stays symbolic if the inputs keep it so."""
        if len(xs) != self.n:
            raise ValueError("wrong number of coordinates")
        vals = [_as_qfraction(x) for x in xs]
        # cache powers per variable
        pows: list[dict[int, QFraction]] = [{0: QF_ONE} for _ in range(self.n)]

        def power(i: int, k: int) -> QFraction:
            cache = pows[i]
            if k not in cache:
                cache[k] = vals[i] ** k
            return cache[k]

        total = QF_ZERO
        for e, c in self._t.items():
            m = c
            for i, k in enumerate(e):
                if k:
                    m = m * power(i, k)
            total = total + m
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


def binomial_div_exact(f: TorusPoly, coef, alpha: Sequence[int]) -> TorusPoly:
    """Exact quotient f / (1 - coef * x^alpha); raises InexactDivision otherwise.

    Terms are peeled in increasing order of the key <e, alpha>; each peel
    moves mass strictly upward by <alpha, alpha>, and in an exact division
    no intermediate key can exceed the maximum key of f.  Since keys only
    grow, no exponent is peeled twice or re-enters the remainder once it
    has left it, so each exponent gets one quotient term and one heap entry.

    >>> f = TorusPoly.monomial(1, (0,)) - TorusPoly.monomial(1, (2,))
    >>> str(binomial_div_exact(f, 1, (1,)))
    'x + 1'
    """
    alpha = tuple(int(a) for a in alpha)
    if len(alpha) != f.n:
        raise ValueError("root length does not match variable count")
    aa = _dot(alpha, alpha)
    if aa == 0:
        raise ValueError("division direction must be a nonzero vector")
    c0 = _as_qfraction(coef)
    if f.is_zero():
        return TorusPoly(f.n)

    rem = dict(f.terms())
    heap = [(_dot(e, alpha), e) for e in rem]
    max_key = max(heap)[0]
    heapq.heapify(heap)
    quot: dict[Vec, QFraction] = {}
    unit = c0 == QF_ONE

    while rem:
        k, e = heapq.heappop(heap)
        c = rem.pop(e, None)
        if c is None:
            continue  # its remainder cancelled to zero
        if k > max_key:
            raise InexactDivision("remainder survives binomial division")
        quot[e] = c
        if not unit:
            c = c * c0
            if c.is_zero():
                continue
        e2 = tuple(a + b for a, b in zip(e, alpha))
        s = rem.get(e2)
        if s is None:
            rem[e2] = c
            heapq.heappush(heap, (k + aa, e2))
        else:
            s = s + c
            if s.is_zero():
                del rem[e2]
            else:
                rem[e2] = s

    return TorusPoly(f.n, quot)


class Binomial:
    """The factor 1 - coef * x^alpha, kept unexpanded."""

    __slots__ = ("coef", "alpha")

    def __init__(self, coef, alpha: Sequence[int]):
        object.__setattr__(self, "coef", _as_qfraction(coef))
        object.__setattr__(self, "alpha", tuple(int(a) for a in alpha))

    def __setattr__(self, name, value):  # pragma: no cover - defensive
        raise AttributeError("Binomial is immutable")

    def as_poly(self) -> TorusPoly:
        n = len(self.alpha)
        return TorusPoly.const(n, 1) - TorusPoly.monomial(n, self.alpha, self.coef)

    def eval_exact(self, xs: Sequence) -> QFraction:
        m = QF_ONE
        for x, k in zip(xs, self.alpha):
            if k:
                m = m * _as_qfraction(x) ** k
        return QF_ONE - self.coef * m

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
        top = self.front
        for b in self.num:
            top = top * b.eval_exact(xs)
        for b in self.den:
            top = top / b.eval_exact(xs)
        return top

    def map_coefs(self, fn) -> "FactoredRational":
        return FactoredRational(
            fn(self.front),
            [b.map_coef(fn) for b in self.num],
            [b.map_coef(fn) for b in self.den],
        )

    def __repr__(self):
        return f"FactoredRational(front={self.front}, num={len(self.num)}, den={len(self.den)})"


def act_point(sigma: SignedPerm, xs: Sequence) -> list[QFraction]:
    """Transform torus coordinates by a signed permutation:

        (sigma . x)[i] = x[perm[i]] ** signs[i]
    """
    vals = [_as_qfraction(x) for x in xs]
    return [
        vals[sigma.perm[i]] if sigma.signs[i] == 1 else vals[sigma.perm[i]].inverse()
        for i in range(sigma.n)
    ]
