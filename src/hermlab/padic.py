"""Finite-precision laboratory over a p-adic field with a quadratic extension.

Two number models coexist.  Exact elements of Q(sqrt(eps)) are carried as
two int numerators over one int denominator.  Residue elements mod p^m carry
only the ring operations and the inverse of a unit; a residue matrix holds
all its entries at one precision m.  Membership is decided in both models,
a residue matrix at its precision.  Orbit classification eliminates exact
entries only: a residue matrix is read through the exact lift of its stored
digits, which is certified when every invariant of the lift is below m,
because matrices congruent mod p^m share their Smith form over the residue
ring, whose valuations are min(v_i, m).  The residue model carries the
constructive rank-one reduction: it must solve a norm equation N(b) = t,
which has solutions in every residue ring but usually none in Q(sqrt(eps)).  The reduction reads the reflection vector of
x off p^l (x - J) and builds one element of the integral unitary group
around it, so every member reduces at any precision m >= 1 with the
reducing element certified mod p^m.  The kernels that need no matrix layer
(the field, the norm counts, the cell counts and the rank-one Monte-Carlo)
live in ``residue``.

A matrix is in the model of its entries; the constructors build exact
entries unless given prec=, which asks for residue entries mod p^prec.  The
product is one integer kernel for both models.
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
from .residue import LocalField, _legendre, _sqrt_mod_p, _vp_int

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
    no certifiable valuation and val() raises.  Only the ring operations and
    the inverse of a unit are defined: there is no division by p.
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

    def _coerce(self, other):
        if isinstance(other, ResidueElem):
            if other.field != self.field:
                raise ValueError("mixed fields")
            return other
        if isinstance(other, (int, Fraction)):
            return ResidueElem(self.field, self.m, other)
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

    def unit_inverse(self):
        if self.val() != 0:
            raise ZeroDivisionError("not a unit in the residue ring")
        mod = self.field.p**self.m
        n = (self.a * self.a - self.field.eps * self.b * self.b) % mod
        ninv = pow(n, -1, mod)
        return ResidueElem(self.field, self.m, self.a * ninv, -self.b * ninv)

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
        return value if value.m == prec else ResidueElem(field, prec, value.a, value.b)
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
    residue model); the model of a matrix is the model of its entries.  The
    entries of a residue matrix share one precision m: each is known mod p^m."""

    __slots__ = ("field", "rows", "shift")

    def __init__(self, field, rows, shift=0):
        self.field = field
        self.rows = tuple(tuple(r) for r in rows)
        self.shift = shift
        if shift < 0:
            raise ValueError("shift must be nonnegative")
        m = self.precision
        if m is not None and any(e.m != m for row in self.rows for e in row):
            raise ValueError("residue entries at mixed precisions; from_values reduces them")

    @property
    def size(self):
        return len(self.rows)

    @property
    def precision(self):
        """None for exact entries, else the one precision of the entries."""
        e = self.rows[0][0]
        return None if isinstance(e, ExactLocal) else e.m

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

        Residue entries come from a given prec or from any ResidueElem among
        the values; all of them are reduced to the least of those precisions.
        Otherwise the entries are exact.

        >>> F = LocalField(3)
        >>> LocalMatrix.from_values(F, [[1, 0], [0, Fraction(1, 2)]]).precision is None
        True
        >>> LocalMatrix.from_values(F, [[1, 0], [0, 1]], prec=4).precision
        4
        >>> LocalMatrix.from_values(F, [[ResidueElem(F, 5, 2), 0], [0, ResidueElem(F, 7, 1)]])
        <[2 (mod 3^5), 0 (mod 3^5); 0 (mod 3^5), 1 (mod 3^5)]>
        """
        carried = [v.m for row in values for v in row if isinstance(v, ResidueElem)]
        if carried:
            prec = min(carried) if prec is None else min(prec, *carried)
        rows = [[_entry_from(field, prec, v) for v in row] for row in values]
        return LocalMatrix(field, rows, shift)

    @staticmethod
    def identity(field, size, prec=None):
        vals = [[1 if i == j else 0 for j in range(size)] for i in range(size)]
        return LocalMatrix.from_values(field, vals, 0, prec)

    @staticmethod
    def diagonal(field, entries):
        size = len(entries)
        vals = [[entries[i] if i == j else 0 for j in range(size)] for i in range(size)]
        return LocalMatrix.from_values(field, vals)

    def __matmul__(self, other):
        """One integer kernel for both models: the entries as int pairs, over
        one common denominator per factor (exact) or mod p^m at the lesser
        precision of the factors (residue)."""
        if not self._compatible(other):
            raise ValueError("incompatible matrices")
        field, eps = self.field, self.field.eps
        dx, x = _int_pairs(self.rows)
        dy, y = _int_pairs(other.rows)
        cols = list(zip(*y))
        sums = [
            [
                (
                    sum(a * c + eps * b * d for (a, b), (c, d) in zip(row, col)),
                    sum(a * d + b * c for (a, b), (c, d) in zip(row, col)),
                )
                for col in cols
            ]
            for row in x
        ]
        m = self.precision
        if m is None:
            rows = [[ExactLocal._make(field, a, b, dx * dy) for a, b in row] for row in sums]
        else:
            m = min(m, other.precision)
            rows = [[ResidueElem(field, m, a, b) for a, b in row] for row in sums]
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
        """Every entry is p times an entry of the model, and a residue matrix
        keeps at least one digit after the division."""
        p, m = self.field.p, self.precision
        if m is None:
            return all(e.is_zero() or e.valuation() >= 1 for row in self.rows for e in row)
        return m >= 2 and all(e.a % p == 0 and e.b % p == 0 for row in self.rows for e in row)

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
            m = min(e[2] for row in d["entries"] for e in row)
            rows = [[ResidueElem(field, m, e[0], e[1]) for e in row] for row in d["entries"]]
        return LocalMatrix(field, rows, d["shift"])

    def __repr__(self):
        body = "; ".join(
            ", ".join(repr(e) for e in row) for row in self.rows
        )
        pre = f"p^-{self.shift} * " if self.shift else ""
        return f"<{pre}[{body}]>"


def _int_pairs(rows):
    """(den, pairs): every entry as an int pair (a, b) over the common
    denominator den, which is 1 for residue entries."""
    if isinstance(rows[0][0], ResidueElem):
        return 1, [[(e.a, e.b) for e in row] for row in rows]
    den = math.lcm(*(e._d for row in rows for e in row))
    return den, [[(e._a * (den // e._d), e._b * (den // e._d)) for e in row] for row in rows]


def _shift_down(e):
    """e / p for an entry divisible by p; a residue entry loses one digit."""
    p = e.field.p
    if isinstance(e, ExactLocal):
        return ExactLocal._make(e.field, e._a, e._b, e._d * p)
    return ResidueElem(e.field, e.m - 1, e.a // p, e.b // p)


def j_matrix(field, size, prec=None):
    vals = [[1 if i + j == size - 1 else 0 for j in range(size)] for i in range(size)]
    return LocalMatrix.from_values(field, vals, 0, prec)


def _is_unit(e: ResidueElem) -> bool:
    """Valuation 0: some component is prime to p."""
    p = e.field.p
    return e.a % p != 0 or e.b % p != 0


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


def x_lambda(field, n, lam):
    """diag(p^l1,...,p^ln, 1, p^-ln,...,p^-l1) — the orbit representatives,
    exact; lam is padded with zeros to n parts.  ``.to_residue(prec)`` gives
    the residue matrix mod p^prec, its shift absorbing p^-l1."""
    lam = tuple(lam)
    if list(lam) != sorted(lam, reverse=True) or (lam and lam[-1] < 0):
        raise ValueError("expected a partition")
    if any(lam[n:]):
        raise ValueError(f"partition {lam} has more than {n} nonzero parts")
    lam = (lam + (0,) * n)[:n]
    p = Fraction(field.p)
    ent = [p**l for l in lam] + [1] + [p**-l for l in reversed(lam)]
    return LocalMatrix.diagonal(field, ent)


def is_member_X(x: LocalMatrix) -> bool:
    """Hermitian, involutive against the antidiagonal form, and with the
    characteristic polynomial (t^2-1)^n (t-1) of the split element.

    Once (xj)^2 = I, xj is diagonalizable with eigenvalues +-1, so its
    characteristic polynomial is (t^2-1)^n (t-1) exactly when its trace is 1.
    Both models decide on the stored entries M = p^s x: M is hermitian,
    (MJ)^2 = p^(2s) and tr(MJ) = p^s, a residue matrix at its precision."""
    size = x.size
    if size % 2 == 0:
        return False
    rows = x.rows
    if any(rows[i][j] != rows[j][i].conj() for i in range(size) for j in range(size)):
        return False
    ps = x.field.p**x.shift
    mj = LocalMatrix(x.field, [row[::-1] for row in rows])
    square = (mj @ mj).rows
    if any(square[i][j] != (ps * ps if i == j else 0) for i in range(size) for j in range(size)):
        return False
    return sum(mj.rows[i][i] for i in range(size)) == ps


# -- norm equations ----------------------------------------------------------------


def hensel_norm_solve(target: ResidueElem) -> ResidueElem:
    """Solve N(alpha) = target in the residue ring, at the target's precision,
    for a unit target of the base ring.  A solution mod p always exists (the
    norm is surjective onto units) and lifts by Newton iteration because the
    gradient (2a, -2*eps*b) cannot vanish at a unit."""
    field, prec = target.field, target.m
    p, eps = field.p, field.eps
    mod = p**prec
    if not target.is_real():
        raise ValueError("norm targets live in the base ring")
    t = target.a
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


RANDOM_K_WORD_LENGTH = 6  # generators multiplied into one random_k element


def random_k(field, n, seed):
    """A pseudorandom element of the integral unitary group, exact: a word in
    verified generators (diagonal units, constrained unipotents and their
    transposes, signed-permutation representatives)."""
    rng = random.Random(seed)
    size = 2 * n + 1
    g = LocalMatrix.identity(field, size)
    perms = _perm_generators(field, n)
    J = j_matrix(field, size)
    for _ in range(RANDOM_K_WORD_LENGTH):
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
    return g


def t_diag(field, bs):
    """The non-compact diagonal diag(b1..bn, 1, conj(bn)^-1 .. conj(b1)^-1);
    it preserves the hermitian space under the g x g* action without being
    integral."""
    bs = [b if isinstance(b, ExactLocal) else ExactLocal(field, b) for b in bs]
    return _diag_element(field, bs, ExactLocal(field, 1))


# -- orbit classification -----------------------------------------------------------


def invariant_factors(x: LocalMatrix):
    """Valuations of the invariant factors, largest first, found by repeated
    elimination with a minimal-valuation pivot (the local-ring Smith form).

    A pivot of least valuation divides its row and column, so clearing its
    column leaves the invariants of the remaining block; the pivots come out
    in increasing valuation.

    A residue matrix mod p^m is read through the exact lift of its stored
    digits, each a + b*u becoming a + b*sqrt(eps).  Matrices congruent mod
    p^m have the same Smith form over the residue ring, whose diagonal
    valuations are min(v_i, m).  So when every invariant of the lift is below
    m, every matrix with these digits shares it; a pivot at valuation m or
    more cannot be certified and raises PrecisionError.

    >>> x = x_lambda(LocalField(3), 1, (2,))
    >>> invariant_factors(x), invariant_factors(x.to_residue(5))
    ([2, 0, -2], [2, 0, -2])
    """
    n, m = x.size, x.precision
    if m is None:
        rows = [list(r) for r in x.rows]
    else:
        rows = [[ExactLocal._make(x.field, e.a, e.b, 1) for e in r] for r in x.rows]
    vals = []
    for top in range(n):
        v, bi, bj = min(
            (rows[i][j].valuation(), i, j) for i in range(top, n) for j in range(top, n)
        )
        if m is not None and v >= m:
            raise PrecisionError(
                f"an invariant factor reaches p^{m}; the stored digits do not decide it",
                required=m + 1,
            )
        if math.isinf(v):
            raise ValueError("matrix is singular")
        rows[top], rows[bi] = rows[bi], rows[top]
        for row in rows:
            row[top], row[bj] = row[bj], row[top]
        pivot_row = rows[top]
        for i in range(top + 1, n):
            e = rows[i][top]
            if not e.is_zero():
                fac = e / pivot_row[top]
                rows[i] = [a - fac * b for a, b in zip(rows[i], pivot_row)]
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


# -- constructive rank-one diagonalization -------------------------------------------


def diagonalize_x1(x: LocalMatrix, prec: int | None = None):
    """Rank-one constructive reduction: returns (k, ell) with k in the
    integral unitary group K and k x k* = x_ell = diag(p^ell, 1, p^-ell) at
    the working precision.

    With h(u, v) = u* J v, xJ is the reflection in a vector v, so
    x - J = -2 v v* / h(v, v); for x_ell, v = w_ell = (p^ell, 0, -1).  A
    member is k0^-1 x_ell k0^-* for some k0 in K, so x - J = p^-ell v v*
    with v = k0^-1 w_ell primitive.  Hence the normalized stored matrix
    p^s x has s = ell, and p^s (x - J) = v v* has a unit diagonal entry u,
    whose column w is a unit multiple of v with h(w, w) = -2 p^ell u: read
    off u, not from the cancelling sum w* J w.  Rescaled by beta with
    N(beta) = 1/u, w = g w_ell for g = [c0 c1 c2] in K built around it:
    c0 isotropic with h(c0, w) = -1, c2 = p^ell c0 - w, and
    c1 = J conj(c0 x c2), whose h(c1, c1) = |h(c0, c2)|^2 = 1 needs no
    scaling.  So k = g^-1 = J g* J.  When neither end of w is a unit, an
    integral unitary first turns the unit middle entry into a unit top
    entry.  Every step is a unit inverse or a norm equation, so k carries
    the precision of the input; it is checked unitary, and k x k* is
    checked against x_ell.

    Exact inputs are converted to the residue model first (the norm equation
    has no rational solution in general).

    >>> k, ell = diagonalize_x1(x_lambda(LocalField(3), 1, (2,)), prec=4)
    >>> ell, k.precision
    (2, 4)
    """
    if x.precision is None:
        if prec is None:
            raise ValueError("converting an exact matrix needs a precision")
        x = x.to_residue(prec)
    if x.size != 3:
        raise ValueError("the constructive reduction is rank-one only")
    x = x.normalized()
    field, m, ell = x.field, x.precision, x.shift
    pl = field.p**ell
    # p^ell (x - J), column by column
    cols = [[x.rows[t][i] - (pl if t + i == 2 else 0) for t in range(3)] for i in range(3)]
    i = next((i for i in range(3) if _is_unit(cols[i][i])), None)
    if i is None:
        raise ValueError("no diagonal entry of p^s (x - J) is a unit; input is not in the space")
    beta = hensel_norm_solve(cols[i][i].unit_inverse())
    w0, w1, w2 = (e * beta for e in cols[i])
    k = LocalMatrix.identity(field, 3, m)
    if not _is_unit(w2) and not _is_unit(w0):
        k = LocalMatrix.from_values(field, [[1, -1, Fraction(-1, 2)], [0, 1, 1], [0, 0, 1]], prec=m)
        w0, w1 = w0 - w1 - w2 * Fraction(1, 2), w1 + w2
    zero = ResidueElem(field, m, 0)
    if _is_unit(w2):
        c0 = [-w2.conj().unit_inverse(), zero, zero]
    else:
        c0 = [zero, zero, -w0.conj().unit_inverse()]
    c2 = [c * pl - e for c, e in zip(c0, (w0, w1, w2))]
    # c1 = J conj(c0 x c2)
    c1 = [
        (c0[(t + 1) % 3] * c2[(t + 2) % 3] - c0[(t + 2) % 3] * c2[(t + 1) % 3]).conj()
        for t in (2, 1, 0)
    ]
    g = LocalMatrix(field, zip(c0, c1, c2))
    J = j_matrix(field, 3, m)
    k = (J @ g.star()) @ J @ k
    assert_unitary(k)
    if k.act(x) != x_lambda(field, 1, (ell,)).to_residue(m):
        raise AssertionError("k x k* differs from the orbit representative at working precision")
    return k, ell
