"""Exact scalar arithmetic.

Three layers, each immutable and hashable where meaningful:

* :class:`GaussianRational` -- numbers a + b*I with rational a, b.
* :class:`QLaurent` -- Laurent polynomials in the parameter ``q`` with
  Gaussian-rational coefficients, stored as Gaussian-integer numerators
  over one shared denominator.
* :class:`QFraction` -- formal quotients of two QLaurent values.  Equality
  is decided by cross-multiplication; no multivariate gcd is ever taken.

Everything symbolic in this package bottoms out here; no floating point
enters until numeric quadrature explicitly asks for it.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Mapping, Union

from .errors import InexactDivision

Rat = Union[int, Fraction]


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"expected an integer or Fraction, got {type(x).__name__}")


def _nonzero_point(q0) -> tuple[int, int]:
    """(a, b) with q0 = a/b in lowest terms, b > 0; ValueError at q0 = 0."""
    q0 = _as_fraction(q0)
    if not q0:
        raise ValueError("cannot evaluate a Laurent polynomial at q = 0")
    return q0.numerator, q0.denominator


class GaussianRational:
    """An exact complex number with rational real and imaginary parts.

    >>> a = GaussianRational(Fraction(1, 2), 1)
    >>> a * a
    GaussianRational(-3/4, 1)
    >>> a * a.conjugate() == GaussianRational(Fraction(5, 4))
    True
    >>> (a / a) == GaussianRational(1)
    True
    >>> str(GaussianRational(Fraction(2, 3), Fraction(-1, 4)))
    '2/3-1/4*I'
    """

    __slots__ = ("re", "im")

    def __init__(self, re: Rat = 0, im: Rat = 0):
        object.__setattr__(self, "re", _as_fraction(re))
        object.__setattr__(self, "im", _as_fraction(im))

    def __setattr__(self, name, value):  # pragma: no cover - defensive
        raise AttributeError("GaussianRational is immutable")

    # -- constructors -------------------------------------------------
    @staticmethod
    def i_power(k: int) -> "GaussianRational":
        """The exact value of I**k.

        >>> [str(GaussianRational.i_power(k)) for k in range(4)]
        ['1', 'I', '-1', '-I']
        """
        return _I_POWERS[k % 4]

    # -- ring/field structure -----------------------------------------
    def _coerce(self, other):
        if isinstance(other, GaussianRational):
            return other
        if isinstance(other, (int, Fraction)):
            return GaussianRational(other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return GaussianRational(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __neg__(self):
        return GaussianRational(-self.re, -self.im)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return GaussianRational(self.re - o.re, self.im - o.im)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return GaussianRational(
            self.re * o.re - self.im * o.im,
            self.re * o.im + self.im * o.re,
        )

    __rmul__ = __mul__

    def inverse(self) -> "GaussianRational":
        n = self.re * self.re + self.im * self.im
        if n == 0:
            raise ZeroDivisionError("inverse of zero")
        return GaussianRational(self.re / n, -self.im / n)

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    def __pow__(self, k: int):
        if not isinstance(k, int):
            return NotImplemented
        if k < 0:
            return self.inverse() ** (-k)
        out = GR_ONE
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    # -- structure ------------------------------------------------------
    def conjugate(self) -> "GaussianRational":
        return GaussianRational(self.re, -self.im)

    def abs2(self) -> Fraction:
        """Squared modulus, an exact rational."""
        return self.re * self.re + self.im * self.im

    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    # -- misc -----------------------------------------------------------
    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.re == o.re and self.im == o.im

    def __hash__(self):
        return hash((self.re, self.im))

    def __complex__(self):
        return complex(self.re) + 1j * float(self.im)

    def __repr__(self):
        return f"GaussianRational({self.re}, {self.im})"

    def __str__(self):
        """Serialize as ``a/b+c/d*I`` omitting zero parts."""
        if self.im == 0:
            return str(self.re)
        imag = f"{self.im}*I" if self.im not in (1, -1) else ("I" if self.im == 1 else "-I")
        if self.re == 0:
            return imag
        sign = "+" if (self.im > 0 and not imag.startswith("-")) else ""
        return f"{self.re}{sign}{imag}"


GR_ZERO = GaussianRational(0)
GR_ONE = GaussianRational(1)
GR_I = GaussianRational(0, 1)
_I_POWERS = (GR_ONE, GR_I, GaussianRational(-1), GaussianRational(0, -1))


def _gaussian_ints(x) -> tuple[int, int, int]:
    """``(re, im, d)`` with ``x = (re + im*I) / d``, ``d > 0``, in lowest terms."""
    if type(x) is int:
        return x, 0, 1
    if isinstance(x, Fraction):
        return x.numerator, 0, x.denominator
    if not isinstance(x, GaussianRational):
        x = GaussianRational(x)
    dr, di = x.re.denominator, x.im.denominator
    d = dr * di // gcd(dr, di)
    return x.re.numerator * (d // dr), x.im.numerator * (d // di), d


def _mono_pow(re: int, im: int, d: int, k: int) -> tuple[int, int, int]:
    """``((re + im*I)/d)**k`` as ``(re', im', d')`` with ``d' > 0``, not reduced;
    a negative power inverts first: ``1/x = d*(re - im*I) / (re^2 + im^2)``."""
    if k < 0:
        re, im, d, k = d * re, -d * im, re * re + im * im, -k
    dk = d**k
    pr, pi = 1, 0
    while k:
        if k & 1:
            pr, pi = pr * re - pi * im, pr * im + pi * re
        k >>= 1
        if k:
            re, im = re * re - im * im, 2 * re * im
    return pr, pi, dk


def _reduced(c: dict, d: int) -> tuple[dict, int]:
    """Gaussian-integer numerators ``c`` (key -> (re, im), none zero) over
    ``d > 0``, with the common factor of d and every numerator cancelled."""
    if d != 1:
        if c:
            g = d
            for re, im in c.values():
                g = gcd(g, re, im)
                if g == 1:
                    break
            if g != 1:
                c = {e: (re // g, im // g) for e, (re, im) in c.items()}
                d //= g
        else:
            d = 1
    return c, d


def _ql(c: dict[int, tuple[int, int]], d: int) -> "QLaurent":
    """Wrap nonzero numerators ``c`` over ``d > 0``, cancelling common factors."""
    c, d = _reduced(c, d)
    out = object.__new__(QLaurent)
    _set_c(out, c)
    _set_d(out, d)
    _set_hash(out, None)
    return out


class QLaurent:
    """A Laurent polynomial in the single parameter ``q``.

    Stored as integers over one shared denominator: ``_c`` maps each
    exponent to the ``(re, im)`` pair of its Gaussian-integer numerator, and
    the coefficient there is ``(re + im*I) / _d``.  Zero numerators are never
    stored, ``_d > 0``, and ``_d`` is coprime to the numerators taken
    together, so equal values have equal fields.  All ring arithmetic and
    exact division run on Python ints; coefficients come out as
    :class:`GaussianRational` at the boundary (``items``, ``coeff``,
    ``eval``, ``str``).  Immutable and hashable so values such as
    specialization parameters can key memo tables.

    >>> q = QLaurent.gen()
    >>> w2 = (1 + q**-1) * (1 - q**-2)      # (1+q^-1)(1-q^-2)
    >>> w2.eval(Fraction(3))
    GaussianRational(32/27, 0)
    >>> (q - 1) * (q + 1) == q**2 - 1
    True
    >>> f = (q + Fraction(1, 2)) * QLaurent.const(GaussianRational(0, 2))
    >>> f._c, f._d
    ({1: (0, 2), 0: (0, 1)}, 1)
    """

    __slots__ = ("_c", "_d", "_hash")

    def __init__(self, coeffs: Mapping[int, GaussianRational] | None = None):
        parts = []
        d = 1
        if coeffs:
            for e, c in coeffs.items():
                re, im, dc = _gaussian_ints(c)
                if re or im:
                    parts.append((int(e), re, im, dc))
                    d = d * dc // gcd(d, dc)
        _set_c(self, {e: (re * (d // dc), im * (d // dc)) for e, re, im, dc in parts})
        _set_d(self, d)
        _set_hash(self, None)

    def __setattr__(self, name, value):  # pragma: no cover - defensive
        raise AttributeError("QLaurent is immutable")

    # -- constructors ---------------------------------------------------
    @staticmethod
    def const(x) -> "QLaurent":
        re, im, d = _gaussian_ints(x)
        return _ql({0: (re, im)} if re or im else {}, d)

    @staticmethod
    def term(coef, exp: int) -> "QLaurent":
        return QLaurent({exp: coef})

    @staticmethod
    def gen() -> "QLaurent":
        """The generator ``q``."""
        return _ql({1: (1, 0)}, 1)

    # -- basic queries ----------------------------------------------------
    def _gr(self, re: int, im: int) -> GaussianRational:
        d = self._d
        return GaussianRational(Fraction(re, d), Fraction(im, d))

    def items(self) -> list[tuple[int, GaussianRational]]:
        return [(e, self._gr(re, im)) for e, (re, im) in self._c.items()]

    def sorted_items(self):
        return sorted(self.items())

    def is_zero(self) -> bool:
        return not self._c

    def is_one(self) -> bool:
        return self._d == 1 and self._c == {0: (1, 0)}

    # -- arithmetic -------------------------------------------------------
    def _coerce(self, other):
        if isinstance(other, QLaurent):
            return other
        if isinstance(other, (int, Fraction, GaussianRational)):
            return QLaurent.const(other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        d1, d2 = self._d, o._d
        g = gcd(d1, d2)
        s1, s2 = d2 // g, d1 // g
        if s1 == 1:
            c = dict(self._c)
        else:
            c = {e: (re * s1, im * s1) for e, (re, im) in self._c.items()}
        for e, (re, im) in o._c.items():
            if s2 != 1:
                re *= s2
                im *= s2
            t = c.get(e)
            if t is None:
                c[e] = (re, im)
            else:
                re += t[0]
                im += t[1]
                if re or im:
                    c[e] = (re, im)
                else:
                    del c[e]
        return _ql(c, d1 * s1)

    __radd__ = __add__

    def __neg__(self):
        return _ql({e: (-re, -im) for e, (re, im) in self._c.items()}, self._d)

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
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        c: dict[int, tuple[int, int]] = {}
        get = c.get
        for e1, (r1, i1) in self._c.items():
            for e2, (r2, i2) in o._c.items():
                e = e1 + e2
                re = r1 * r2 - i1 * i2
                im = r1 * i2 + i1 * r2
                t = get(e)
                if t is not None:
                    re += t[0]
                    im += t[1]
                    if not (re or im):
                        del c[e]
                        continue
                c[e] = (re, im)
        return _ql(c, self._d * o._d)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if not isinstance(k, int):
            return NotImplemented
        if len(self._c) == 1:
            (e, (re, im)), = self._c.items()
            re, im, d = _mono_pow(re, im, self._d, k)
            return _ql({e * k: (re, im)}, d)
        if k < 0:
            raise InexactDivision("negative power of a non-monomial QLaurent")
        out = QL_ONE
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def stretch(self, k: int) -> "QLaurent":
        """Reinterpret q as the k-th power of a finer base: q -> r^k."""
        if k <= 0:
            raise ValueError("stretch factor must be positive")
        return _ql({e * k: v for e, v in self._c.items()}, self._d)

    def divexact(self, other: "QLaurent") -> "QLaurent":
        """Exact division; raises :class:`InexactDivision` on a remainder.

        Long division of the numerators from the top exponent down.  Each
        step divides by the divisor's Gaussian-integer lead ``L``: when ``L``
        is a unit that is multiplication by its conjugate; otherwise the
        remainder is first scaled by ``|L|^2`` so that the step stays in
        integers, and the quotient terms carry the matching power of
        ``|L|^2`` in their denominator.

        >>> q = QLaurent.gen()
        >>> ((1 - q**2).divexact(1 - q)) == 1 + q
        True
        >>> g = 1 + GaussianRational(2, 1) * q    # lead 2+I, not a unit
        >>> (g * (Fraction(1, 3) * q - 1)).divexact(g)
        QLaurent({1: GaussianRational(1/3, 0), 0: GaussianRational(-1, 0)})
        """
        o = self._coerce(other)
        if o is None or o.is_zero():
            raise ZeroDivisionError("division by zero QLaurent")
        if not self._c:
            return QL_ZERO
        oc = o._c
        top_o = max(oc)
        span = top_o - min(oc)
        lr, li = oc[top_o]
        norm = lr * lr + li * li
        tail = [(e - top_o, re, im) for e, (re, im) in oc.items() if e != top_o]
        lo = min(self._c)
        size = max(self._c) - lo + 1
        rr = [0] * size
        ri = [0] * size
        for e, (re, im) in self._c.items():
            rr[e - lo] = re
            ri[e - lo] = im
        quot = []  # (exponent, re, im, number of norm scalings so far)
        scalings = 0
        low, top = 0, size - 1
        while True:
            while top >= low and not (rr[top] or ri[top]):
                top -= 1
            if top < low:
                break
            while not (rr[low] or ri[low]):
                low += 1
            if top - low < span:
                raise InexactDivision("nonzero remainder in QLaurent division")
            a, b = rr[top], ri[top]
            if norm != 1:
                scalings += 1
                for j in range(low, top):
                    rr[j] *= norm
                    ri[j] *= norm
            tr = a * lr + b * li  # (a + b*I) * conj(L)
            ti = b * lr - a * li
            quot.append((top + lo - top_o, tr, ti, scalings))
            rr[top] = ri[top] = 0
            for off, mr, mi in tail:
                j = top + off
                rr[j] -= tr * mr - ti * mi
                ri[j] -= tr * mi + ti * mr
            top -= 1
        dm = o._d
        c = {}
        for e, tr, ti, k in quot:
            f = dm * norm ** (scalings - k)
            c[e] = (tr * f, ti * f)
        return _ql(c, self._d * norm**scalings)

    # -- evaluation ---------------------------------------------------------
    def value_at(self, a: int, b: int) -> tuple[int, int, int]:
        """``(re, im, den)``, ``den > 0``, not reduced: the value at q = a/b,
        a != 0 < b, is ``(re + im*I) / den``.

        The integer numerators are summed scaled by a^(e-lo) b^(hi-e), and
        a^lo / (b^hi d) is applied once."""
        if not self._c:
            return 0, 0, 1
        lo, hi = min(self._c), max(self._c)
        re = im = 0
        for e, (r, i) in self._c.items():
            w = a ** (e - lo) * b ** (hi - e)
            re += r * w
            im += i * w
        num = a ** max(lo, 0) * b ** max(-hi, 0)
        den = a ** max(-lo, 0) * b ** max(hi, 0) * self._d
        if den < 0:
            num, den = -num, -den
        return re * num, im * num, den

    def eval(self, q0) -> GaussianRational:
        """Exact substitution q <- q0 for a nonzero rational q0."""
        re, im, den = self.value_at(*_nonzero_point(q0))
        return GaussianRational(Fraction(re, den), Fraction(im, den))

    def eval_float(self, q0: float) -> complex:
        """Float value at q0, summed in ascending exponent order so that
        equal polynomials give equal bits whatever arithmetic built them."""
        d = self._d
        return sum(
            (complex(re / d) + 1j * (im / d)) * q0**e for e, (re, im) in sorted(self._c.items())
        )

    # -- misc ----------------------------------------------------------------
    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self._d == o._d and self._c == o._c

    def __hash__(self):
        h = self._hash
        if h is None:
            h = hash((self._d, tuple(sorted(self._c.items()))))
            _set_hash(self, h)
        return h

    def __repr__(self):
        return f"QLaurent({dict(self.items())!r})"

    def __str__(self):
        if not self._c:
            return "0"
        parts = []
        for e, v in sorted(self.items(), reverse=True):
            if e == 0:
                mono = ""
            elif e == 1:
                mono = "q"
            else:
                mono = f"q^{e}" if e >= 0 else f"q^{{{e}}}"
            coef = str(v)
            if mono:
                if coef == "1":
                    coef = ""
                elif coef == "-1":
                    coef = "-"
                elif ("+" in coef[1:]) or ("-" in coef[1:]) or coef.endswith("*I"):
                    coef = f"({coef})*"
                else:
                    coef = f"{coef}*"
            parts.append(f"{coef}{mono}" if mono else coef)
        out = parts[0]
        for p in parts[1:]:
            out += f" - {p[1:]}" if p.startswith("-") else f" + {p}"
        return out

    def serialize(self) -> dict:
        """Exponent -> coefficient-string map, used by the structured format."""
        return {str(e): str(v) for e, v in self.sorted_items()}


# QLaurent refuses attribute assignment; its slots are set through their
# descriptors, which skips the attribute lookup of object.__setattr__
_set_c, _set_d, _set_hash = (getattr(QLaurent, name).__set__ for name in QLaurent.__slots__)

QL_ZERO = QLaurent()
QL_ONE = QLaurent.const(1)


def _as_qlaurent(x) -> QLaurent:
    if isinstance(x, QLaurent):
        return x
    if isinstance(x, (int, Fraction, GaussianRational)):
        return QLaurent.const(x)
    raise TypeError(f"cannot interpret {type(x).__name__} as a QLaurent")


class QFraction:
    """A formal quotient of two Laurent polynomials in q.

    No gcd normalization is performed; equality is cross-multiplication.
    The only simplification attempted is an exact division of the numerator
    by the denominator (cheap and frequently applicable here).

    >>> q = QLaurent.gen()
    >>> QFraction(q - 1, q**2 - q) == QFraction(QL_ONE, q)
    True
    >>> (QFraction(q) / QFraction(q)).eval(Fraction(7))
    GaussianRational(1, 0)
    """

    __slots__ = ("num", "den")

    def __init__(self, num, den=None):
        num = _as_qlaurent(num)
        den = QL_ONE if den is None else _as_qlaurent(den)
        if den.is_zero():
            raise ZeroDivisionError("QFraction with zero denominator")
        # a quotient that is a Laurent polynomial spans at least the divisor,
        # so a shorter numerator is not tried
        if not den.is_one() and num._c and max(num._c) - min(num._c) >= max(den._c) - min(den._c):
            try:
                num = num.divexact(den)
                den = QL_ONE
            except InexactDivision:
                pass
        if num.is_zero():
            den = QL_ONE
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def __setattr__(self, name, value):  # pragma: no cover - defensive
        raise AttributeError("QFraction is immutable")

    __hash__ = None  # equality is not structural; do not use as a dict key

    # -- arithmetic ---------------------------------------------------------
    def _coerce(self, other):
        if isinstance(other, QFraction):
            return other
        if isinstance(other, (int, Fraction, GaussianRational, QLaurent)):
            return QFraction(other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if self.den == o.den:
            return QFraction(self.num + o.num, self.den)
        return QFraction(self.num * o.den + o.num * self.den, self.den * o.den)

    __radd__ = __add__

    def __neg__(self):
        return QFraction(-self.num, self.den)

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
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return QFraction(self.num * o.num, self.den * o.den)

    __rmul__ = __mul__

    def inverse(self) -> "QFraction":
        if self.num.is_zero():
            raise ZeroDivisionError("inverse of zero QFraction")
        return QFraction(self.den, self.num)

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    def __pow__(self, k: int):
        if not isinstance(k, int):
            return NotImplemented
        if k < 0:
            return self.inverse() ** (-k)
        return QFraction(self.num**k, self.den**k)

    # -- structure ------------------------------------------------------------
    def is_zero(self) -> bool:
        return self.num.is_zero()

    def conjugate_coeffs(self) -> "QFraction":
        """Conjugate every Gaussian-rational coefficient (q stays real)."""
        cn = QLaurent({e: v.conjugate() for e, v in self.num.items()})
        cd = QLaurent({e: v.conjugate() for e, v in self.den.items()})
        return QFraction(cn, cd)

    def stretch(self, k: int) -> "QFraction":
        """Reinterpret q as the k-th power of a finer base: q -> r^k."""
        return QFraction(self.num.stretch(k), self.den.stretch(k))

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return (self.num * o.den - o.num * self.den).is_zero()

    # -- evaluation -------------------------------------------------------------
    def value_at(self, a: int, b: int) -> tuple[int, int, int]:
        """``(re, im, den)`` as ``QLaurent.value_at`` gives them, here of
        num / den: (nr + ni*I)/nd times dd/(dr + di*I) is
        (nr + ni*I)(dr - di*I) dd / (nd (dr^2 + di^2))."""
        nr, ni, nd = self.num.value_at(a, b)
        if self.den.is_one():
            return nr, ni, nd
        dr, di, dd = self.den.value_at(a, b)
        norm = dr * dr + di * di
        if not norm:
            raise ZeroDivisionError(f"denominator vanishes at q = {Fraction(a, b)}")
        return (nr * dr + ni * di) * dd, (ni * dr - nr * di) * dd, nd * norm

    def eval(self, q0) -> GaussianRational:
        re, im, den = self.value_at(*_nonzero_point(q0))
        return GaussianRational(Fraction(re, den), Fraction(im, den))

    def eval_float(self, q0: float) -> complex:
        return self.num.eval_float(q0) / self.den.eval_float(q0)

    def __repr__(self):
        return f"QFraction({self.num!r}, {self.den!r})"

    def __str__(self):
        if self.den.is_one():
            return str(self.num)
        return f"({self.num})/({self.den})"


QF_ZERO = QFraction(0)
QF_ONE = QFraction(1)


def _monomial(x) -> tuple[int, int, int, int]:
    """``(re, im, d, k)`` with ``x = (re + im*I)/d * q^k`` in lowest terms;
    ValueError unless ``x`` is a nonzero monomial."""
    if isinstance(x, (int, Fraction)) and x:
        return x.numerator, 0, x.denominator, 0
    f = x if isinstance(x, QFraction) else QFraction(x)
    if len(f.num._c) == 1 and f.den.is_one():
        (k, (re, im)), = f.num._c.items()
        return re, im, f.num._d, k
    raise ValueError(f"torus coordinate {x} is not a nonzero monomial c*q^k")
