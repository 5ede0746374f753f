"""Finite-precision laboratory over a p-adic field with a quadratic extension.

Two number models coexist.  Exact elements of Q(sqrt(eps)) are carried as
two int numerators over one int denominator and power membership tests and
orbit classification, where no precision management is wanted.  A residue
model mod p^m carries the constructive algorithms: those must solve norm
equations N(b) = t, which have solutions in every residue ring but usually
none in Q(sqrt(eps)).  The kernels that need no matrix layer (the field,
the norm counts, the Haar sampler, the cell counts and the rank-one
Monte-Carlo) live in ``residue``.

A matrix is in the model of its entries; the constructors build exact
entries unless given prec=, which asks for residue entries mod p^prec.
Matrices remember a global power of p pulled out of all entries ("shift"), so
entry arithmetic stays integral even for matrices like diag(p^l, 1, p^-l).

Throughout, the hermitian conjugate of a matrix is written star(), the fixed
antidiagonal involution is j_matrix(), and the group action on hermitian
elements is k.act(x) = k x k*.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

from .errors import InexactDivision, PrecisionError
from .residue import LocalField, _haar_sample, _legendre, _sqrt_mod_p, _vp_int

# perfbench/tracer.py counts the accepted Monte-Carlo draws from
# padic._MC_HISTOGRAMS; the name must stay bound to the very dict that
# residue._mc_valuation_histogram fills, so it is re-exported, not copied.
from .residue import _MC_HISTOGRAMS  # noqa: F401


# -- exact model -----------------------------------------------------------------


class ExactLocal:
    """a + b*sqrt(eps) with rational a, b.  Valuations are exact; conjugation
    flips the sign of b; the norm a^2 - eps*b^2 lands in the base field.

    Stored as two int numerators over one positive int denominator, in lowest
    terms (the gcd of all three is 1), so equal values have equal fields and
    the arithmetic runs on ints; a and b are read back as Fractions."""

    __slots__ = ("field", "_a", "_b", "_d")

    def __init__(self, field: LocalField, a, b=0):
        self.field = field
        if type(a) is int and type(b) is int:
            self._a, self._b, self._d = a, b, 1
            return
        a, b = Fraction(a), Fraction(b)
        d = math.lcm(a.denominator, b.denominator)
        self._a = a.numerator * (d // a.denominator)
        self._b = b.numerator * (d // b.denominator)
        self._d = d

    @classmethod
    def _make(cls, field, a: int, b: int, d: int):
        """(a + b*sqrt(eps)) / d for ints a, b and a nonzero int d."""
        if d < 0:
            a, b, d = -a, -b, -d
        g = math.gcd(a, b, d)
        if g != 1:
            a, b, d = a // g, b // g, d // g
        e = object.__new__(cls)
        e.field, e._a, e._b, e._d = field, a, b, d
        return e

    @property
    def a(self) -> Fraction:
        return Fraction(self._a, self._d)

    @property
    def b(self) -> Fraction:
        return Fraction(self._b, self._d)

    def _coerce(self, other):
        if isinstance(other, ExactLocal):
            if other.field is not self.field and other.field != self.field:
                raise ValueError("mixed fields")
            return other
        if isinstance(other, int):
            return ExactLocal._make(self.field, other, 0, 1)
        if isinstance(other, Fraction):
            return ExactLocal(self.field, other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        d1, d2 = self._d, o._d
        if d1 == d2:
            return ExactLocal._make(self.field, self._a + o._a, self._b + o._b, d1)
        return ExactLocal._make(
            self.field, self._a * d2 + o._a * d1, self._b * d2 + o._b * d1, d1 * d2
        )

    __radd__ = __add__

    def __neg__(self):
        return ExactLocal._make(self.field, -self._a, -self._b, self._d)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        a, b, c, d = self._a, self._b, o._a, o._b
        return ExactLocal._make(
            self.field, a * c + self.field.eps * b * d, a * d + b * c, self._d * o._d
        )

    __rmul__ = __mul__

    def conj(self):
        return ExactLocal._make(self.field, self._a, -self._b, self._d)

    def norm(self) -> Fraction:
        return Fraction(self._a * self._a - self.field.eps * self._b * self._b, self._d**2)

    def trace(self) -> Fraction:
        return Fraction(2 * self._a, self._d)

    def inverse(self):
        n = self._a * self._a - self.field.eps * self._b * self._b
        if n == 0:
            raise ZeroDivisionError("inverting zero")
        return ExactLocal._make(self.field, self._a * self._d, -self._b * self._d, n)

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        return o * self.inverse()

    def valuation(self) -> float:
        """min of the component valuations; +inf for zero (unramified basis)."""
        a, b, p = self._a, self._b, self.field.p
        if a == 0 and b == 0:
            return math.inf
        if a == 0:
            v = _vp_int(b, p)
        elif b == 0:
            v = _vp_int(a, p)
        else:
            v = min(_vp_int(a, p), _vp_int(b, p))
        return v - _vp_int(self._d, p)

    def is_zero(self):
        return self._a == 0 and self._b == 0

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self._a == o._a and self._b == o._b and self._d == o._d

    def __hash__(self):
        return hash((ExactLocal, self.field.p, self.a, self.b))

    def __repr__(self):
        if self._b == 0:
            return str(self.a)
        return f"{self.a}+{self.b}*sqrt({self.field.eps})"


# -- residue model ---------------------------------------------------------------


def _fraction_mod(x: Fraction, p: int, mod: int) -> int:
    if x.denominator % p == 0:
        raise InexactDivision("denominator is not a unit in the residue ring")
    return x.numerator * pow(x.denominator, -1, mod)


class ResidueElem:
    """a + b*u in (Z/p^m)[u]/(u^2 - eps): the residue ring of the quadratic
    extension at certified precision m.

    Valuations below m are certified; an element congruent to zero mod p^m has
    no certifiable valuation and val() raises.  Dividing by p costs one digit
    of certified precision and refuses to go below two digits.
    """

    __slots__ = ("field", "m", "a", "b")

    def __init__(self, field: LocalField, m: int, a: int, b: int = 0):
        if m < 1:
            raise PrecisionError("residue precision must be at least 1", required=1)
        self.field = field
        self.m = m
        mod = field.p**m
        if isinstance(a, Fraction):
            a = _fraction_mod(a, field.p, mod)
        if isinstance(b, Fraction):
            b = _fraction_mod(b, field.p, mod)
        self.a = a % mod
        self.b = b % mod

    def _coerce(self, other, m=None):
        m = self.m if m is None else m
        if isinstance(other, ResidueElem):
            if other.field != self.field:
                raise ValueError("mixed fields")
            return other
        if isinstance(other, (int, Fraction)):
            return ResidueElem(self.field, m, other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        m = min(self.m, o.m)
        return ResidueElem(self.field, m, self.a + o.a, self.b + o.b)

    __radd__ = __add__

    def __neg__(self):
        return ResidueElem(self.field, self.m, -self.a, -self.b)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        m = min(self.m, o.m)
        return ResidueElem(self.field, m, self.a - o.a, self.b - o.b)

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        m = min(self.m, o.m)
        e = self.field.eps
        return ResidueElem(
            self.field, m, self.a * o.a + e * self.b * o.b, self.a * o.b + self.b * o.a
        )

    __rmul__ = __mul__

    def conj(self):
        return ResidueElem(self.field, self.m, self.a, -self.b)

    def norm(self):
        return ResidueElem(self.field, self.m, self.a * self.a - self.field.eps * self.b * self.b)

    def trace(self):
        return ResidueElem(self.field, self.m, 2 * self.a)

    def is_zero(self):
        """Congruent to zero at the element's own precision."""
        return self.a == 0 and self.b == 0

    def is_real(self):
        return self.b == 0

    def val(self) -> int:
        """Certified valuation.  Raises when every stored digit vanishes."""
        if self.is_zero():
            raise PrecisionError(
                f"element is 0 mod p^{self.m}; valuation not certifiable",
                required=self.m + 1,
            )
        p = self.field.p
        va = _vp_int(self.a, p) if self.a else self.m
        vb = _vp_int(self.b, p) if self.b else self.m
        return min(va, vb)

    def reduce(self, m: int):
        if m > self.m:
            raise PrecisionError(f"cannot raise precision {self.m} -> {m}", required=m)
        return ResidueElem(self.field, m, self.a, self.b)

    def div_pi_power(self, v: int):
        """Exact division by p^v; costs v digits of certified precision."""
        if v == 0:
            return self
        if v < 0:
            return self.times_pi_power(-v)
        q = self.field.p**v
        if self.a % q or self.b % q:
            raise InexactDivision(f"entry not divisible by p^{v}")
        if self.m - v < 2:
            raise PrecisionError(
                f"division by p^{v} would leave precision {self.m - v}",
                required=self.m + (2 - (self.m - v)),
            )
        return ResidueElem(self.field, self.m - v, self.a // q, self.b // q)

    def times_pi_power(self, v: int):
        if v < 0:
            return self.div_pi_power(-v)
        q = self.field.p**v
        return ResidueElem(self.field, self.m + v, self.a * q, self.b * q)

    def unit_inverse(self):
        if self.val() != 0:
            raise ZeroDivisionError("not a unit in the residue ring")
        mod = self.field.p**self.m
        n = (self.a * self.a - self.field.eps * self.b * self.b) % mod
        ninv = pow(n, -1, mod)
        return ResidueElem(self.field, self.m, self.a * ninv, -self.b * ninv)

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        vo = o.val()
        if self.is_zero():
            m = min(self.m, o.m) - vo
            if m < 1:
                raise PrecisionError("quotient precision exhausted", required=vo + 2)
            return ResidueElem(self.field, m, 0)
        vs = self.val()
        if vs < vo:
            raise InexactDivision("quotient would not be integral")
        us = self.div_pi_power(vs) if vs else self
        uo = o.div_pi_power(vo) if vo else o
        return (us * uo.unit_inverse()).times_pi_power(vs - vo)

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        m = min(self.m, o.m)
        mod = self.field.p**m
        return (self.a - o.a) % mod == 0 and (self.b - o.b) % mod == 0

    def __hash__(self):
        return hash((ResidueElem, self.field.p, self.m, self.a, self.b))

    def __repr__(self):
        if self.b == 0:
            return f"{self.a} (mod {self.field.p}^{self.m})"
        return f"{self.a}+{self.b}u (mod {self.field.p}^{self.m})"


# -- matrices --------------------------------------------------------------------


def _entry_from(field, prec, value):
    if prec is None:
        if isinstance(value, ExactLocal):
            return value
        return ExactLocal(field, value)
    if isinstance(value, ResidueElem):
        return value
    if isinstance(value, ExactLocal):
        if value._d % field.p == 0:
            raise InexactDivision("entry has negative valuation; use a matrix shift")
        dinv = pow(value._d, -1, field.p**prec)
        return ResidueElem(field, prec, value._a * dinv, value._b * dinv)
    return ResidueElem(field, prec, value if isinstance(value, int) else Fraction(value))


class LocalMatrix:
    """Square matrix of local-field elements with a global shift: the value is
    p^(-shift) times the stored entries, which are always integral in the
    residue model.

    The entries are all ExactLocal (the exact model) or all ResidueElem (the
    residue model); the model of a matrix is the model of its entries."""

    __slots__ = ("field", "rows", "shift")

    def __init__(self, field, rows, shift=0):
        self.field = field
        self.rows = tuple(tuple(r) for r in rows)
        self.shift = shift
        if shift < 0:
            raise ValueError("shift must be nonnegative")

    @property
    def size(self):
        return len(self.rows)

    @property
    def precision(self):
        """None for exact entries, else the least precision of the entries."""
        if isinstance(self.rows[0][0], ExactLocal):
            return None
        return min(e.m for row in self.rows for e in row)

    def _compatible(self, other):
        """Same size, same field and entries of the same model."""
        return (
            self.size == other.size
            and type(self.rows[0][0]) is type(other.rows[0][0])
            and self.field == other.field
        )

    @staticmethod
    def from_values(field, values, shift=0, prec=None):
        """A matrix from ints, Fractions and elements of either model.

        Residue entries come from a given prec, or else from any ResidueElem
        among the values, at the least precision they carry; otherwise the
        entries are exact.

        >>> F = LocalField(3)
        >>> LocalMatrix.from_values(F, [[1, 0], [0, Fraction(1, 2)]]).precision is None
        True
        >>> LocalMatrix.from_values(F, [[1, 0], [0, 1]], prec=4).precision
        4
        >>> LocalMatrix.from_values(F, [[ResidueElem(F, 5, 2), 0], [0, 1]])
        <[2 (mod 3^5), 0 (mod 3^5); 0 (mod 3^5), 1 (mod 3^5)]>
        """
        if prec is None:
            carried = [v.m for row in values for v in row if isinstance(v, ResidueElem)]
            if carried:
                prec = min(carried)
        rows = [[_entry_from(field, prec, v) for v in row] for row in values]
        return LocalMatrix(field, rows, shift)

    @staticmethod
    def identity(field, size, prec=None):
        vals = [[1 if i == j else 0 for j in range(size)] for i in range(size)]
        return LocalMatrix.from_values(field, vals, 0, prec)

    @staticmethod
    def diagonal(field, entries, prec=None, shift=0):
        size = len(entries)
        vals = [[entries[i] if i == j else 0 for j in range(size)] for i in range(size)]
        return LocalMatrix.from_values(field, vals, shift, prec)

    def __matmul__(self, other):
        if not self._compatible(other):
            raise ValueError("incompatible matrices")
        if isinstance(self.rows[0][0], ExactLocal):
            return self._exact_matmul(other)
        n = self.size
        rows = []
        for i in range(n):
            left = self.rows[i]
            row = []
            for j in range(n):
                # a term that is zero at precision m contributes nothing but
                # still caps the certified digits of the sum at m
                acc = None
                cap = None
                for t in range(n):
                    a = left[t]
                    b = other.rows[t][j]
                    if a.is_zero() or b.is_zero():
                        mp = min(a.m, b.m)
                        cap = mp if cap is None else min(cap, mp)
                        continue
                    term = a * b
                    acc = term if acc is None else acc + term
                if acc is None:
                    row.append(ResidueElem(self.field, cap, 0))
                elif cap is not None and cap < acc.m:
                    row.append(acc.reduce(cap))
                else:
                    row.append(acc)
            rows.append(row)
        return LocalMatrix(self.field, rows, self.shift + other.shift)

    def _exact_matmul(self, other):
        # both factors over one common denominator each: the product is an
        # integer matrix product, reduced to lowest terms entry by entry
        field, eps = self.field, self.field.eps

        def numerators(rows):
            den = math.lcm(*(e._d for row in rows for e in row))
            return den, [
                [(e._a * (den // e._d), e._b * (den // e._d)) for e in row] for row in rows
            ]

        dx, x = numerators(self.rows)
        dy, y = numerators(other.rows)
        cols = list(zip(*y))
        make = ExactLocal._make
        rows = [
            [
                make(
                    field,
                    sum(a * c + eps * b * d for (a, b), (c, d) in zip(row, col)),
                    sum(a * d + b * c for (a, b), (c, d) in zip(row, col)),
                    dx * dy,
                )
                for col in cols
            ]
            for row in x
        ]
        return LocalMatrix(field, rows, self.shift + other.shift)

    def star(self):
        n = self.size
        return LocalMatrix(
            self.field,
            [[self.rows[j][i].conj() for j in range(n)] for i in range(n)],
            self.shift,
        )

    def act(self, x):
        """The hermitian action: self x self*."""
        return (self @ x) @ self.star()

    def __eq__(self, other):
        if not isinstance(other, LocalMatrix):
            return NotImplemented
        if not self._compatible(other):
            return False
        if self.shift != other.shift:
            a, b = self.normalized(), other.normalized()
            if a.shift != b.shift:
                return False
            return a == b
        return all(
            self.rows[i][j] == other.rows[i][j]
            for i in range(self.size)
            for j in range(self.size)
        )

    def __hash__(self):
        return hash((LocalMatrix, self.shift, self.rows))

    def normalized(self):
        """Strip p-divisibility common to all entries into the shift."""
        m = self
        while m.shift > 0 and m._all_divisible():
            m = LocalMatrix(
                m.field,
                [[_shift_down(e) for e in row] for row in m.rows],
                m.shift - 1,
            )
        return m

    def _all_divisible(self):
        p = self.field.p
        for row in self.rows:
            for e in row:
                if isinstance(e, ExactLocal):
                    if not e.is_zero() and e.valuation() < 1:
                        return False
                elif e.m < 2 or e.a % p or e.b % p:
                    return False
        return True

    def to_residue(self, prec: int):
        """Exact -> residue conversion.  The shift absorbs every negative
        entry valuation, so the absolute precision is prec - shift digits."""
        if self.precision is not None:
            raise TypeError("already a residue matrix")
        worst = 0
        for row in self.rows:
            for e in row:
                if not e.is_zero():
                    worst = min(worst, int(e.valuation()))
        s = -worst
        scale = self.field.p**s
        vals = [
            [ExactLocal._make(self.field, e._a * scale, e._b * scale, e._d) for e in row]
            for row in self.rows
        ]
        return LocalMatrix.from_values(self.field, vals, self.shift + s, prec)

    def to_json_dict(self):
        exact = self.precision is None

        def enc(e):
            if exact:
                return [str(e.a), str(e.b)]
            return [e.a, e.b, e.m]

        return {
            "model": "exact" if exact else "residue",
            "p": self.field.p,
            "eps": self.field.eps,
            "size": self.size,
            "shift": self.shift,
            "entries": [[enc(e) for e in row] for row in self.rows],
        }

    @staticmethod
    def from_json_dict(d):
        field = LocalField(d["p"], d["eps"])
        if d["model"] == "exact":
            rows = [
                [ExactLocal(field, Fraction(e[0]), Fraction(e[1])) for e in row]
                for row in d["entries"]
            ]
        else:
            rows = [
                [ResidueElem(field, e[2], e[0], e[1]) for e in row]
                for row in d["entries"]
            ]
        return LocalMatrix(field, rows, d["shift"])

    def __repr__(self):
        body = "; ".join(
            ", ".join(repr(e) for e in row) for row in self.rows
        )
        pre = f"p^-{self.shift} * " if self.shift else ""
        return f"<{pre}[{body}]>"


def _shift_down(e):
    if isinstance(e, ExactLocal):
        return ExactLocal._make(e.field, e._a, e._b, e._d * e.field.p)
    return e.div_pi_power(1) if not e.is_zero() else ResidueElem(e.field, e.m - 1, 0)


def j_matrix(field, size, prec=None):
    vals = [[1 if i + j == size - 1 else 0 for j in range(size)] for i in range(size)]
    return LocalMatrix.from_values(field, vals, 0, prec)


def _val_or_none(e, shift=0):
    """Absolute valuation of a matrix entry, or None when it is zero at the
    available precision."""
    if isinstance(e, ExactLocal):
        v = e.valuation()
        return None if math.isinf(v) else int(v) - shift
    try:
        return e.val() - shift
    except PrecisionError:
        return None


def assert_unitary(g: LocalMatrix):
    """Check g* j g = j at the working precision; internal invariant for every
    generator and sampled element."""
    j = j_matrix(g.field, g.size, g.precision)
    lhs = (g.star() @ j) @ g
    if lhs.shift:
        lhs = lhs.normalized()
    if lhs != j:
        raise AssertionError("constructed element is not unitary for the antidiagonal form")


# -- the hermitian space ----------------------------------------------------------


def x_lambda(field, n, lam, prec=None):
    """diag(p^l1,...,p^ln, 1, p^-ln,...,p^-l1) — the orbit representatives.

    lam is padded with zeros to n parts; with prec, the residue matrix mod
    p^prec, its shift absorbing p^-l1."""
    lam = tuple(lam)
    if list(lam) != sorted(lam, reverse=True) or (lam and lam[-1] < 0):
        raise ValueError("expected a partition")
    if any(lam[n:]):
        raise ValueError(f"partition {lam} has more than {n} nonzero parts")
    lam = (lam + (0,) * n)[:n]
    p = Fraction(field.p)
    ent = [p**l for l in lam] + [1] + [p**-l for l in reversed(lam)]
    x = LocalMatrix.diagonal(field, ent)
    return x if prec is None else x.to_residue(prec)


def is_member_X(x: LocalMatrix) -> bool:
    """Hermitian, involutive against the antidiagonal form, and with the
    characteristic polynomial (t^2-1)^n (t-1) of the split element.

    Once (xj)^2 = I, xj is diagonalizable with eigenvalues +-1, so its
    characteristic polynomial is (t^2-1)^n (t-1) exactly when its trace is 1."""
    if x.precision is not None:
        raise TypeError("membership is decided in the exact model")
    n2 = x.size
    if n2 % 2 == 0:
        return False
    for i in range(n2):
        for j in range(n2):
            if x.rows[i][j] != x.rows[j][i].conj():
                return False
    j = j_matrix(x.field, n2)
    xj = x @ j
    prod = xj @ xj
    if prod != LocalMatrix.identity(x.field, n2):
        return False
    trace = sum((xj.rows[i][i] for i in range(n2)), ExactLocal(x.field, 0))
    return trace == Fraction(x.field.p) ** xj.shift


# -- norm equations ----------------------------------------------------------------


def hensel_norm_solve(field: LocalField, target, prec: int) -> ResidueElem:
    """Solve N(alpha) = target in the residue ring mod p^prec for a unit
    target of the base ring.  A solution mod p always exists (the norm is
    surjective onto units) and lifts by Newton iteration because the gradient
    (2a, -2*eps*b) cannot vanish at a unit."""
    p, eps = field.p, field.eps
    mod = p**prec
    if isinstance(target, ResidueElem):
        if not target.is_real():
            raise ValueError("norm targets live in the base ring")
        if target.m < prec:
            raise PrecisionError("target has fewer digits than requested", required=prec)
        t = target.a % mod
    elif isinstance(target, (int, Fraction)):
        fr = Fraction(target)
        if fr.denominator % p == 0:
            raise ValueError("target must be integral")
        t = fr.numerator * pow(fr.denominator, -1, mod) % mod
    else:
        raise TypeError("unsupported target")
    if t % p == 0:
        raise ValueError("target must be a unit")

    a0 = b0 = None
    for a in range(p):
        rem = (a * a - t) % p
        # need rem == eps * b^2, i.e. rem/eps a square
        cand = rem * pow(eps, -1, p) % p
        if _legendre(cand, p) in (0, 1):
            a0, b0 = a, _sqrt_mod_p(cand, p)
            break
    assert a0 is not None, "norm surjectivity violated"

    a, b = a0, b0
    f = (a * a - eps * b * b - t) % mod
    steps = 0
    while f != 0:
        if a % p != 0:
            a = (a - f * pow(2 * a, -1, mod)) % mod
        else:
            b = (b + f * pow(2 * eps * b, -1, mod)) % mod
        f = (a * a - eps * b * b - t) % mod
        steps += 1
        if steps > 4 * prec:
            raise AssertionError("norm lifting failed to converge")
    return ResidueElem(field, prec, a, b)


# -- group elements ----------------------------------------------------------------


def _rand_exact_unit(field, rng):
    while True:
        a = rng.randrange(-9, 10)
        b = rng.randrange(-9, 10)
        if a % field.p or b % field.p:
            return ExactLocal(field, a, b)


def _norm_one_unit(field, rng):
    w = _rand_exact_unit(field, rng)
    return w / w.conj()


def _upper_unipotent(field, n, beta, H):
    """[[1, beta, C], [0, 1, -beta* j], [0, 0, 1]] with C = (-beta beta*/2
    + sqrt(eps) H) j for hermitian H: the constraint beta beta* + Cj + jC* = 0
    then holds identically."""
    size = 2 * n + 1
    one = ExactLocal(field, 1)
    zero = ExactLocal(field, 0)
    root = ExactLocal(field, 0, 1)
    half = Fraction(1, 2)
    # M = -beta beta^T-conj / 2 + sqrt(eps) H, then C = M j
    M = [
        [
            beta[i] * beta[j].conj() * (-half) + root * H[i][j]
            for j in range(n)
        ]
        for i in range(n)
    ]
    C = [[M[i][n - 1 - j] for j in range(n)] for i in range(n)]
    rows = []
    for i in range(n):
        rows.append(
            [one if t == i else zero for t in range(n)]
            + [beta[i]]
            + list(C[i])
        )
    # middle row: -beta* j reversed: entry t = -conj(beta[n-1-t])
    rows.append(
        [zero] * n + [one] + [-beta[n - 1 - t].conj() for t in range(n)]
    )
    for i in range(n):
        rows.append([zero] * (n + 1) + [one if t == i else zero for t in range(n)])
    g = LocalMatrix(field, rows)
    assert_unitary(g)
    return g


def _diag_element(field, alphas, u):
    n = len(alphas)
    ent = list(alphas) + [u] + [a.conj().inverse() for a in reversed(alphas)]
    g = LocalMatrix.diagonal(field, ent)
    assert_unitary(g)
    return g


def _perm_generators(field, n):
    size = 2 * n + 1
    gens = []

    def from_pairs(pairs):
        perm = list(range(size))
        for i, j in pairs:
            perm[i], perm[j] = perm[j], perm[i]
        vals = [[1 if perm[i] == j else 0 for j in range(size)] for i in range(size)]
        g = LocalMatrix.from_values(field, vals)
        assert_unitary(g)
        return g

    for i in range(n - 1):
        gens.append(from_pairs([(i, i + 1), (size - 1 - i, size - 2 - i)]))
    gens.append(from_pairs([(n - 1, n + 1)]))
    gens.append(j_matrix(field, size))
    return gens


def random_k(field, n, seed, word_length=6, prec=None):
    """A pseudorandom element of the integral unitary group: a word in
    verified generators (diagonal units, constrained unipotents and their
    transposes, signed-permutation representatives); exact, or mod p^prec
    when prec is given."""
    rng = random.Random(seed)
    size = 2 * n + 1
    g = LocalMatrix.identity(field, size)
    perms = _perm_generators(field, n)
    J = j_matrix(field, size)
    for _ in range(word_length):
        kind = rng.randrange(4)
        if kind == 0:
            alphas = [_rand_exact_unit(field, rng) for _ in range(n)]
            step = _diag_element(field, alphas, _norm_one_unit(field, rng))
        elif kind == 1 or kind == 2:
            beta = [ExactLocal(field, rng.randrange(-4, 5), rng.randrange(-4, 5)) for _ in range(n)]
            H = [[ExactLocal(field, 0) for _ in range(n)] for _ in range(n)]
            for i in range(n):
                H[i][i] = ExactLocal(field, rng.randrange(-4, 5))
                for j in range(i + 1, n):
                    H[i][j] = ExactLocal(field, rng.randrange(-4, 5), rng.randrange(-4, 5))
                    H[j][i] = H[i][j].conj()
            step = _upper_unipotent(field, n, beta, H)
            if kind == 2:
                step = (J @ step) @ J
        else:
            step = perms[rng.randrange(len(perms))]
        g = g @ step
    assert_unitary(g)
    return g if prec is None else g.to_residue(prec)


def t_diag(field, bs):
    """The non-compact diagonal diag(b1..bn, 1, conj(bn)^-1 .. conj(b1)^-1);
    it preserves the hermitian space under the g x g* action without being
    integral."""
    bs = [b if isinstance(b, ExactLocal) else ExactLocal(field, b) for b in bs]
    ent = list(bs) + [ExactLocal(field, 1)] + [b.conj().inverse() for b in reversed(bs)]
    g = LocalMatrix.diagonal(field, ent)
    assert_unitary(g)
    return g


# -- orbit classification -----------------------------------------------------------


def invariant_factors(x: LocalMatrix):
    """Valuations of the invariant factors, largest first, found by repeated
    elimination with a minimal-valuation pivot (the local-ring Smith form)."""
    n = x.size
    rows = [list(r) for r in x.rows]
    vals = []
    for top in range(n):
        best = None
        for i in range(top, n):
            for j in range(top, n):
                v = _val_or_none(rows[i][j])
                if v is not None and (best is None or v < best[0]):
                    best = (v, i, j)
        if best is None:
            if x.precision is None:
                raise ValueError("matrix is singular")
            raise PrecisionError(
                "no pivot certifiable; working precision exhausted",
                required=x.precision + 2,
            )
        v, bi, bj = best
        if bi != top:
            rows[top], rows[bi] = rows[bi], rows[top]
        if bj != top:
            for row in rows:
                row[top], row[bj] = row[bj], row[top]
        piv = rows[top][top]
        for i in range(top + 1, n):
            e = rows[i][top]
            if _val_or_none(e) is None:
                continue
            fac = e / piv
            rows[i] = [rows[i][j] - fac * rows[top][j] for j in range(n)]
        for j in range(top + 1, n):
            e = rows[top][j]
            if _val_or_none(e) is None:
                continue
            fac = e / piv
            for i in range(top, n):
                rows[i][j] = rows[i][j] - fac * rows[i][top]
        vals.append(v)
    return sorted((v - x.shift for v in vals), reverse=True)


def classify_k_orbit(x: LocalMatrix):
    """The partition labelling the K-orbit of a hermitian member: invariant
    factors must come in inverse pairs around a zero."""
    facs = invariant_factors(x)
    size = len(facs)
    if size % 2 == 0:
        raise ValueError("expected odd size")
    n = size // 2
    if facs[n] != 0 or any(facs[i] != -facs[size - 1 - i] for i in range(n)):
        raise ValueError(f"invariant factors {facs} are not orbit-shaped")
    return tuple(facs[:n])


def classify_g_orbit(x: LocalMatrix) -> int:
    """0 or 1: the weight parity of the K-orbit label, constant on orbits of
    the full unitary group."""
    return sum(classify_k_orbit(x)) % 2


# -- Haar sampling of the rank-one maximal compact -----------------------------------


def sample_k1_haar(field: LocalField, prec: int, seed) -> LocalMatrix:
    """One draw from the integral unitary 3x3 group.

    The group splits into the big cell (lower-left corner a unit) and its
    complement, with volumes 1 : q^-3; each part carries an explicit
    parametrization that we sample coordinate-uniformly.  That the parameter
    measure is Haar on each part is validated downstream against the closed
    form of the spherical integral, not assumed locally.

    The product is formed and checked unitary by the residue kernel; only the
    nine entries of the result become ResidueElem objects.
    """
    (g,) = _haar_sample(field, prec, [seed])
    return LocalMatrix(
        field, [[ResidueElem(field, prec, a, b) for a, b in g[r : r + 3]] for r in (0, 3, 6)]
    )


# -- constructive rank-one diagonalization -------------------------------------------


def _vabs(x: LocalMatrix, i: int, j: int):
    return _val_or_none(x.rows[i][j], x.shift)

def _unit_part(x: LocalMatrix, i: int, j: int, vab: int) -> ResidueElem:
    return x.rows[i][j].div_pi_power(vab + x.shift)


def _entry_is(x: LocalMatrix, i: int, j: int, value) -> bool:
    """Compare an entry against a rational value, through the matrix shift,
    at whatever precision the entry still carries."""
    e = x.rows[i][j]
    want = Fraction(value) * Fraction(x.field.p) ** x.shift
    return e == e._coerce(want, e.m)


def _residue_matrix(field, prec, vals):
    return LocalMatrix.from_values(field, vals, 0, prec)


def _case_i(x: LocalMatrix):
    """a nonzero with v(a) <= v(b): clear the first row, force the middle to
    1, normalize the corner to an exact power of p.  Returns (k, x, ell)."""
    field = x.field
    prec = x.precision
    a = x.rows[0][0]
    b = x.rows[0][1]
    if b.is_zero():
        k = LocalMatrix.identity(field, 3, prec)
    else:
        lam = -(b.conj()) / a
        mu = lam * lam.conj() * Fraction(-1, 2)
        k = _residue_matrix(field, prec, [[1, 0, 0], [lam, 1, 0], [mu, -lam.conj(), 1]])
        x = k.act(x)
    if not (x.rows[0][1].is_zero() and x.rows[1][2].is_zero()):
        raise ValueError("row clearing failed; input is not in the hermitian space")
    if not _entry_is(x, 1, 1, 1):
        raise ValueError("middle entry is not forced to 1; input is not in the space")

    va, vg = _vabs(x, 0, 0), _vabs(x, 2, 2)
    if va is None or vg is None:
        raise PrecisionError("corner valuation not certifiable", required=prec + 4)
    if va < vg:
        J = j_matrix(field, 3, prec)
        x = J.act(x)
        k = J @ k
        va, vg = vg, va
    ell = -vg
    if ell < 0:
        raise ValueError("corner valuations inconsistent with a hermitian member")

    g_unit = _unit_part(x, 2, 2, vg)
    if not g_unit.is_real():
        raise ValueError("corner entry must lie in the base field")
    alpha = hensel_norm_solve(field, g_unit, g_unit.m)
    D = LocalMatrix.diagonal(field, [alpha, 1, alpha.conj().unit_inverse()])
    x = D.act(x)
    k = D @ k

    c = x.rows[0][2]
    if not c.is_zero():
        if not (c + c.conj()).is_zero():
            raise ValueError("off-corner entry must be traceless")
        u13 = -(c.div_pi_power(x.shift - ell) if x.shift >= ell else c.times_pi_power(ell - x.shift))
        U = LocalMatrix.from_values(field, [[1, 0, u13], [0, 1, 0], [0, 0, 1]])
        x = U.act(x)
        k = U @ k
    _assert_diag_form(x, ell)
    return k, x, ell


def _assert_diag_form(x: LocalMatrix, ell: int):
    p = Fraction(x.field.p)
    for i in range(3):
        for j in range(3):
            if i != j:
                if not x.rows[i][j].is_zero():
                    raise AssertionError("result is not diagonal at working precision")
    for i, want in enumerate([p**ell, Fraction(1), p**-ell]):
        if not _entry_is(x, i, i, want):
            raise AssertionError("result diagonal differs from the orbit representative")


def _case_ii(x: LocalMatrix):
    """a = 0 at working precision: forced corner structure, then an explicit
    chain of unipotents lands on the identity orbit unless a negative-power
    tail routes back to the generic case."""
    field = x.field
    prec = x.precision
    # We land here because the corner reads 0 at working precision.  A member
    # with a genuinely vanishing corner has this forced structure; if the
    # checks fail, the corner underflowed and more digits are needed.
    if not (x.rows[0][1].is_zero() and _entry_is(x, 0, 2, 1) and _entry_is(x, 1, 1, -1)):
        raise PrecisionError(
            "degenerate chart inconsistent at working precision", required=prec + 4
        )
    k = LocalMatrix.identity(field, 3, prec)
    f = x.rows[1][2]
    if not f.is_zero():
        lf = _vabs(x, 1, 2)
        f_unit = _unit_part(x, 1, 2, lf)
        u = f_unit.unit_inverse().conj()
        D = LocalMatrix.diagonal(field, [u.conj().unit_inverse(), 1, u])
        x = D.act(x)
        k = D @ k
        if lf <= 0:
            J = j_matrix(field, 3, prec)
            x = J.act(x)
            k2, x, ell = _case_i(x)
            return (k2 @ J) @ k, x, ell
        h = field.p**lf
        L = _residue_matrix(
            field,
            prec,
            [[1, 0, 0], [Fraction(-h, 2), 1, 0], [Fraction(-h * h, 8), Fraction(h, 2), 1]],
        )
        x = L.act(x)
        k = L @ k
    else:
        if not x.rows[2][2].is_zero():
            raise PrecisionError(
                "degenerate chart inconsistent at working precision", required=prec + 4
            )
    # now x = antidiag(1, -1, 1) up to precision
    M1 = _residue_matrix(field, prec, [[1, -1, Fraction(-1, 2)], [0, 1, 1], [0, 0, 1]])
    M2 = _residue_matrix(field, prec, [[0, 0, 1], [0, 1, 1], [1, -1, Fraction(-1, 2)]])
    chain = M1 @ M2
    assert_unitary(chain)
    x = chain.act(x)
    k = chain @ k
    if not (_entry_is(x, 0, 0, Fraction(-1, 2)) and _entry_is(x, 2, 2, -2)):
        raise AssertionError("chain did not reach the expected diagonal")
    alpha = hensel_norm_solve(field, -2, x.precision)
    D = LocalMatrix.diagonal(field, [alpha, 1, alpha.conj().unit_inverse()])
    x = D.act(x)
    k = D @ k
    _assert_diag_form(x, 0)
    return k, x, 0


def _orbit2_reduce(x: LocalMatrix):
    """Both corners deeper than their neighbors: normalize to the bordered
    rank-one form around the antidiagonal, then kill the middle column with
    the explicit unitary built from the norm equation."""
    field = x.field
    p = field.p
    va, vb = _vabs(x, 0, 0), _vabs(x, 0, 1)
    vg, vf = _vabs(x, 2, 2), _vabs(x, 1, 2)
    k = LocalMatrix.identity(field, 3, x.precision)
    if va < vg:
        J = j_matrix(field, 3, x.precision)
        x = J.act(x)
        k = J @ k
        va, vg = vg, va
        vb, vf = vf, vb
    mm, ll = vb, vf
    if va != 2 * mm or vg != 2 * ll or ll < 1:
        raise ValueError("corner/neighbor valuations violate the deep-corner pattern")

    a_unit = _unit_part(x, 0, 0, va)
    alpha = hensel_norm_solve(field, a_unit, a_unit.m)
    D1 = LocalMatrix.diagonal(field, [alpha.unit_inverse(), 1, alpha.conj()])
    x = D1.act(x)
    k = D1 @ k

    u = _unit_part(x, 0, 1, mm)
    D2 = LocalMatrix.diagonal(field, [u.unit_inverse(), 1, u.conj()])
    x = D2.act(x)
    k = D2 @ k

    # bordered form: middle entry = 1 + s, side = p^ll * r * s
    s = _unit_part(x, 1, 1, 0) - 1
    if s.val() != 0 or not s.is_real():
        raise ValueError("bordered form did not produce a unit parameter")
    rs = _unit_part(x, 1, 2, ll)
    r = rs / s
    cons = (r + r.conj()) * p ** (mm + ll) + s + 2
    if not cons.is_zero():
        raise ValueError("bordered-form constraint fails; input is not in the space")

    tr_r = r + r.conj()
    y = tr_r * p ** (mm - ll) / s
    vy = _val_or_none(y)
    if vy is None or vy > 0:
        rho = ResidueElem(field, y.m, 1)
    else:
        rho = -y.unit_inverse()
    denom = rho * 2 + y * rho * rho - p ** (2 * ll)
    gamma = -(rho * r * r.conj()) / denom
    rg = rho * gamma
    kb = hensel_norm_solve(field, rg, rg.m)
    kc = kb.norm() * Fraction(-1, 2)
    kd = kb.unit_inverse() * ((kb.conj() * r).unit_inverse() * gamma * p**ll - 1)
    kf = (
        -(r.conj() * s).unit_inverse() * p ** (mm - ll)
        - gamma * (kb.norm() * r.norm()).unit_inverse()
        + kb.unit_inverse() * kd.conj()
    )
    U = _residue_matrix(field, kf.m, [[1, -kb.conj(), kc], [0, 1, kb], [0, 0, 1]])
    Hk = _residue_matrix(field, kf.m, [[0, 0, 1], [0, 1, -kd.conj()], [1, kd, kf]])
    k5 = U @ Hk
    assert_unitary(k5)
    x = k5.act(x)
    k = k5 @ k
    if not (x.rows[0][1].is_zero() and x.rows[1][2].is_zero() and _entry_is(x, 1, 1, 1)):
        raise AssertionError("middle clearing failed in the deep-corner reduction")
    return k, x


def diagonalize_x1(x: LocalMatrix, prec: int | None = None):
    """Rank-one constructive reduction: returns (k, ell) with k in the
    integral unitary group and k x k* the representative diag(p^ell, 1,
    p^-ell) at the remaining precision.

    Exact inputs are converted to the residue model first (the norm equations
    along the way have no rational solutions in general)."""
    if x.precision is None:
        if prec is None:
            raise ValueError("converting an exact matrix needs a precision")
        x = x.to_residue(prec)
    if x.size != 3:
        raise ValueError("the constructive reduction is rank-one only")
    x = x.normalized()
    k_acc = LocalMatrix.identity(x.field, 3, x.precision)
    for _ in range(4):
        va = _vabs(x, 0, 0)
        vg = _vabs(x, 2, 2)
        if va is None or vg is None:
            # a corner reads 0; bring it to the top left
            if va is not None:
                J = j_matrix(x.field, 3, x.precision)
                x = J.act(x)
                k_acc = J @ k_acc
            k, x, ell = _case_ii(x)
            return (k @ k_acc), ell
        vb = _vabs(x, 0, 1)
        vf = _vabs(x, 1, 2)
        if vb is None or va <= vb:
            k, x, ell = _case_i(x)
            return (k @ k_acc), ell
        if vf is None or vg <= vf:
            J = j_matrix(x.field, 3, x.precision)
            x = J.act(x)
            k_acc = J @ k_acc
            k, x, ell = _case_i(x)
            return (k @ k_acc), ell
        k, x = _orbit2_reduce(x)
        k_acc = k @ k_acc
    raise AssertionError("reduction did not terminate")
