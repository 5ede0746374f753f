"""Finite-precision laboratory over a p-adic field with a quadratic extension.

A matrix over Q(sqrt(eps)) is stored one way in both number models: int
pairs (a, b), standing for a + b*sqrt(eps), over one positive int scale c.
The models differ only in their modulus.  Exact matrices keep the pairs and
c in lowest terms; a residue matrix keeps c = p^shift and its pairs reduced
mod p^m, all at the one precision m of the matrix.  So products, stars,
equality, membership and the unitarity check run once for both models on
the pair kernel of ``residue``, a residue matrix decided at its precision.
Q(sqrt(eps)) values exist only as such pairs: the constructors take ints,
Fractions or pairs of them, and the orbit elimination runs fraction-free on
the stored pairs.  Orbit classification eliminates the exact lift of the
stored digits, which for a residue matrix is certified when every invariant
of the lift is below m, because matrices congruent mod p^m share their
Smith form over the residue ring, whose valuations are min(v_i, m).  The
residue model carries the constructive rank-one reduction: it must solve a
norm equation N(b) = t, which has solutions in every residue ring but
usually none in Q(sqrt(eps)).  The reduction reads the reflection vector of
x off p^l (x - J) and builds one element of the integral unitary group
around it, so every member reduces at any precision m >= 1 with the
reducing element certified mod p^m.  The kernels that need no matrix layer
(the field, the pair kernel, the norm counts, the cell counts and the
rank-one Monte-Carlo) live in ``residue``.

The constructors build exact matrices unless given prec=, which asks for
the residue model mod p^prec; a precision below 1 raises PrecisionError.
The power of p in the scale is the "shift" of a matrix, so a residue matrix
like diag(p^l, 1, p^-l) keeps integral digits.

Throughout, the hermitian conjugate of a matrix is written star(), the fixed
antidiagonal involution is j_matrix(), and the group action on hermitian
elements is k.act(x) = k x k*.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from functools import lru_cache

from .errors import InexactDivision, PrecisionError
from .residue import (
    LocalField,
    _legendre,
    _sqrt_mod_p,
    _vp_int,
    pair_unitary,
    pconj,
    pmatmul,
    pmul,
    pnorm,
    pstar,
    punit_inverse,
    pval,
    pzero,
)

# perfbench/tracer.py counts the accepted Monte-Carlo draws from
# padic._MC_HISTOGRAMS; the name must stay bound to the very dict that
# residue._mc_valuation_histogram fills, so it is re-exported, not copied.
from .residue import _MC_HISTOGRAMS  # noqa: F401


# -- matrices --------------------------------------------------------------------


def _modulus(field, prec) -> int:
    """p^prec, the modulus of the residue model at precision prec."""
    if prec < 1:
        raise PrecisionError("residue precision must be at least 1", required=1)
    return field.p**prec


def _pair(v):
    """An int, a Fraction or a pair (a, b) of them as a pair of ints and
    Fractions."""
    a, b = v if isinstance(v, tuple) else (v, 0)
    return (a if type(a) is int else Fraction(a)), (b if type(b) is int else Fraction(b))


class LocalMatrix:
    """Square matrix over the local field, stored as int pairs (a, b) over
    one positive int scale c: the value is rows / c, each pair standing for
    a + b*sqrt(eps).

    The two models differ only in their modulus.  Exact (precision None,
    modulus 0): the pairs and c are in lowest terms, the gcd of every digit
    and c being 1, so equal values have equal fields.  Residue (precision
    m, modulus p^m): c = p^shift and every pair is reduced mod p^m, so the
    stored digits are always integral; the unit part of a scale given to
    a residue matrix is divided into its digits."""

    __slots__ = ("field", "rows", "scale", "precision")

    def __init__(self, field, rows, scale=1, precision=None):
        if precision is None:
            g = math.gcd(scale, *(v for row in rows for e in row for v in e))
            rows = [[(a // g, b // g) for a, b in row] for row in rows]
            scale //= g
        else:
            mod = _modulus(field, precision)
            unit = scale // field.p ** _vp_int(scale, field.p)
            inv = pow(unit, -1, mod)
            rows = [[(a * inv % mod, b * inv % mod) for a, b in row] for row in rows]
            scale //= unit
        self.field = field
        self.rows = tuple(tuple(r) for r in rows)
        self.scale = scale
        self.precision = precision

    @property
    def size(self):
        return len(self.rows)

    @property
    def shift(self) -> int:
        """The power of p in the scale."""
        return _vp_int(self.scale, self.field.p)

    @property
    def modulus(self) -> int:
        """p^m for a residue matrix at precision m, 0 for an exact one."""
        return 0 if self.precision is None else self.field.p**self.precision

    def _compatible(self, other):
        """Same size, same field and the same model."""
        return (
            self.size == other.size
            and (self.precision is None) == (other.precision is None)
            and self.field == other.field
        )

    @staticmethod
    def from_values(field, values, shift=0, prec=None):
        """p^-shift times a matrix of values, each an int, a Fraction or a
        pair (a, b) of them standing for a + b*sqrt(eps): exact, or given
        prec, reduced mod p^prec.

        >>> F = LocalField(3)
        >>> LocalMatrix.from_values(F, [[1, 0], [0, Fraction(1, 2)]]).precision is None
        True
        >>> LocalMatrix.from_values(F, [[1, 0], [0, Fraction(1, 2)]], prec=2)
        <[(1, 0), (0, 0); (0, 0), (5, 0)] mod 3^2>
        >>> LocalMatrix.from_values(F, [[(Fraction(2, 6), Fraction(-1, 3))]])
        <[1/3+-1/3*sqrt(2)]>
        """
        if shift < 0:
            raise ValueError("shift must be nonnegative")
        rows = [[_pair(v) for v in row] for row in values]
        den = math.lcm(*(x.denominator for row in rows for e in row for x in e))
        if prec is not None and den % field.p == 0:
            raise InexactDivision("entry has negative valuation; use a matrix shift")
        pairs = [[(int(a * den), int(b * den)) for a, b in row] for row in rows]
        return LocalMatrix(field, pairs, den * field.p**shift, prec)

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
        """The pair product over the product of the scales, known to the
        lesser precision of the factors."""
        if not self._compatible(other):
            raise ValueError("incompatible matrices")
        prec = None if self.precision is None else min(self.precision, other.precision)
        rows = pmatmul(self.rows, other.rows, self.field.eps)
        return LocalMatrix(self.field, rows, self.scale * other.scale, prec)

    def star(self):
        return LocalMatrix(self.field, pstar(self.rows), self.scale, self.precision)

    def act(self, x):
        """The hermitian action: self x self*."""
        return (self @ x) @ self.star()

    def __eq__(self, other):
        """Equal values; a residue matrix compared at the lesser precision,
        after both sides have shed the powers of p their digits share."""
        if not isinstance(other, LocalMatrix):
            return NotImplemented
        if not self._compatible(other):
            return False
        if self.scale != other.scale:
            a, b = self.normalized(), other.normalized()
            return a.scale == b.scale and a == b
        mod = min(self.modulus, other.modulus)
        return all(
            pzero((a - c, b - d), mod)
            for r, s in zip(self.rows, other.rows)
            for (a, b), (c, d) in zip(r, s)
        )

    def normalized(self):
        """Strip p-divisibility common to all digits out of the scale; a
        residue matrix loses a digit with each division and keeps at least
        one.  An exact matrix is in lowest terms, so it comes back as is."""
        x, p = self, self.field.p
        while (
            x.scale % p == 0
            and x.precision != 1
            and not any(a % p or b % p for row in x.rows for a, b in row)
        ):
            rows = [[(a // p, b // p) for a, b in row] for row in x.rows]
            x = LocalMatrix(x.field, rows, x.scale // p, x.precision - 1)
        return x

    def to_residue(self, prec: int):
        """Exact -> residue conversion: the power of p in the scale becomes
        the shift, so the absolute precision is prec - shift digits."""
        if self.precision is not None:
            raise TypeError("already a residue matrix")
        return LocalMatrix(self.field, self.rows, self.scale, prec)

    def to_json_dict(self):
        m, c = self.precision, self.scale
        exact = m is None
        return {
            "model": "exact" if exact else "residue",
            "p": self.field.p,
            "eps": self.field.eps,
            "size": self.size,
            "shift": 0 if exact else self.shift,
            "entries": [
                [[str(Fraction(a, c)), str(Fraction(b, c))] if exact else [a, b, m] for a, b in row]
                for row in self.rows
            ],
        }

    @staticmethod
    def from_json_dict(d):
        field = LocalField(d["p"], d["eps"])
        if d["model"] == "exact":
            rows = [[tuple(e) for e in row] for row in d["entries"]]
            return LocalMatrix.from_values(field, rows, d["shift"])
        m = min(e[2] for row in d["entries"] for e in row)
        rows = [[e[:2] for e in row] for row in d["entries"]]
        return LocalMatrix(field, rows, field.p ** d["shift"], m)

    def __repr__(self):
        if self.precision is None:

            def text(a, b):
                a, b = Fraction(a, self.scale), Fraction(b, self.scale)
                return f"{a}+{b}*sqrt({self.field.eps})" if b else str(a)

            body = "; ".join(", ".join(text(a, b) for a, b in row) for row in self.rows)
            return f"<[{body}]>"
        body = "; ".join(", ".join(repr(e) for e in row) for row in self.rows)
        pre = f"p^-{self.shift} * " if self.shift else ""
        return f"<{pre}[{body}] mod {self.field.p}^{self.precision}>"


def j_matrix(field, size, prec=None):
    vals = [[1 if i + j == size - 1 else 0 for j in range(size)] for i in range(size)]
    return LocalMatrix.from_values(field, vals, 0, prec)


def assert_unitary(g: LocalMatrix):
    """Check g* j g = j at the working precision; internal invariant for every
    generator and sampled element."""
    if not pair_unitary(g.rows, g.field.eps, g.scale**2, g.modulus):
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
    # over the scale p^l1 the entries are p^(l1 + li), p^l1 and p^(l1 - li)
    top = max(lam, default=0)
    exps = [top + l for l in lam] + [top] + [top - l for l in reversed(lam)]
    rows = [[(field.p**e if i == j else 0, 0) for j in range(len(exps))] for i, e in enumerate(exps)]
    return LocalMatrix(field, rows, field.p**top)


def is_member_X(x: LocalMatrix) -> bool:
    """Hermitian, involutive against the antidiagonal form, and with the
    characteristic polynomial (t^2-1)^n (t-1) of the split element.

    Once (xj)^2 = I, xj is diagonalizable with eigenvalues +-1, so its
    characteristic polynomial is (t^2-1)^n (t-1) exactly when its trace is 1.
    Both models decide on the stored pairs M = c x, c the scale: M is
    hermitian, M* J M = MJM = c^2 J and tr(MJ) = c, a residue matrix at its
    precision."""
    if x.size % 2 == 0:
        return False
    m, c, mod = x.rows, x.scale, x.modulus
    star = pstar(m)
    if not all(
        pzero((a - e, b - f), mod) for r, t in zip(m, star) for (a, b), (e, f) in zip(r, t)
    ):
        return False
    trace = [sum(v) for v in zip(*(row[-1 - i] for i, row in enumerate(m)))]
    return pair_unitary(m, x.field.eps, c * c, mod) and pzero((trace[0] - c, trace[1]), mod)


# -- norm equations ----------------------------------------------------------------


def hensel_norm_solve(field, t: int, prec: int):
    """Solve N(alpha) = t mod p^prec for an int t prime to p; alpha comes
    back as a pair reduced mod p^prec.  A solution mod p always exists (the
    norm is surjective onto units) and lifts by Newton iteration because the
    gradient (2a, -2*eps*b) cannot vanish at a unit."""
    p, eps = field.p, field.eps
    mod = p**prec
    if t % p == 0:
        raise ValueError("target must be a unit")

    a0 = b0 = None
    for a in range(p):
        rem = (a * a - t) % p
        # need rem = eps b^2, i.e. rem/eps a square
        cand = rem * pow(eps, -1, p) % p
        if _legendre(cand, p) in (0, 1):
            a0, b0 = a, _sqrt_mod_p(cand, p)
            break
    assert a0 is not None, "norm surjectivity violated"

    a, b = a0, b0
    f = (pnorm((a, b), eps) - t) % mod
    steps = 0
    while f != 0:
        if a % p != 0:
            a = (a - f * pow(2 * a, -1, mod)) % mod
        else:
            b = (b + f * pow(2 * eps * b, -1, mod)) % mod
        f = (pnorm((a, b), eps) - t) % mod
        steps += 1
        if steps > 4 * prec:
            raise AssertionError("norm lifting failed to converge")
    return a, b


# -- group elements ----------------------------------------------------------------


def _rand_exact_unit(field, rng):
    while True:
        a = rng.randrange(-9, 10)
        b = rng.randrange(-9, 10)
        if a % field.p or b % field.p:
            return a, b


def _norm_one_unit(field, rng):
    """w / conj(w) = w^2 / N(w) for a random unit w, a pair of Fractions."""
    w = _rand_exact_unit(field, rng)
    n = pnorm(w, field.eps)
    return tuple(Fraction(c, n) for c in pmul(w, w, field.eps))


def _upper_unipotent(field, n, beta, H):
    """[[1, beta, C], [0, 1, -beta* j], [0, 0, 1]] with C = (-beta beta*/2
    + sqrt(eps) H) j for hermitian H: the constraint beta beta* + Cj + jC* = 0
    then holds identically.  beta and H hold int pairs, and the matrix is
    built as twice itself over the scale 2."""
    eps = field.eps
    one, zero = (2, 0), (0, 0)
    rows = []
    for i in range(n):
        # row i of 2M = -beta beta* + 2 sqrt(eps) H, reversed into row i of 2C = 2M j
        bb = [pmul(beta[i], pconj(beta[j]), eps) for j in range(n)]
        c = [(2 * eps * h1 - a, 2 * h0 - b) for (a, b), (h0, h1) in zip(bb, H[i])]
        b0, b1 = beta[i]
        rows.append([one if t == i else zero for t in range(n)] + [(2 * b0, 2 * b1)] + c[::-1])
    # middle row: -beta* j, entry t = -conj(beta[n-1-t])
    rows.append([zero] * n + [one] + [(-2 * a, 2 * b) for a, b in reversed(beta)])
    for i in range(n):
        rows.append([zero] * (n + 1) + [one if t == i else zero for t in range(n)])
    g = LocalMatrix(field, rows, 2)
    assert_unitary(g)
    return g


def _diag_element(field, alphas, u):
    """diag(alphas, u, conj(alphas)^-1 reversed), with conj(a)^-1 = a / N(a)."""
    inv = [tuple(Fraction(c) / pnorm(a, field.eps) for c in a) for a in reversed(alphas)]
    g = LocalMatrix.diagonal(field, [*alphas, u, *inv])
    assert_unitary(g)
    return g


@lru_cache(maxsize=None)
def _perm_generators(field, n) -> tuple:
    """The n + 1 signed-permutation representatives of ``random_k``, each
    checked unitary once per (field, n); shared, so never mutated."""
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
    return tuple(gens)


RANDOM_K_WORD_LENGTH = 6  # generators multiplied into one random_k element


def random_k(field, n, seed):
    """A pseudorandom element of the integral unitary group, exact: a word in
    verified generators (diagonal units, constrained unipotents and their
    transposes, signed-permutation representatives)."""
    rng = random.Random(seed)
    size = 2 * n + 1
    g = LocalMatrix.identity(field, size)
    perms = _perm_generators(field, n)
    J = perms[-1]  # the j_matrix generator
    for _ in range(RANDOM_K_WORD_LENGTH):
        kind = rng.randrange(4)
        if kind == 0:
            alphas = [_rand_exact_unit(field, rng) for _ in range(n)]
            step = _diag_element(field, alphas, _norm_one_unit(field, rng))
        elif kind == 1 or kind == 2:
            beta = [(rng.randrange(-4, 5), rng.randrange(-4, 5)) for _ in range(n)]
            H = [[(0, 0)] * n for _ in range(n)]
            for i in range(n):
                H[i][i] = (rng.randrange(-4, 5), 0)
                for j in range(i + 1, n):
                    H[i][j] = (rng.randrange(-4, 5), rng.randrange(-4, 5))
                    H[j][i] = pconj(H[i][j])
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
    integral.  Each b is an int, a Fraction or a pair of them."""
    return _diag_element(field, [_pair(b) for b in bs], 1)


# -- orbit classification -----------------------------------------------------------


def invariant_factors(x: LocalMatrix):
    """Valuations of the invariant factors, largest first, found by repeated
    elimination with a minimal-valuation pivot (the local-ring Smith form).

    A pivot of least valuation divides its row and column, so clearing its
    column leaves the invariants of the remaining block; the pivots come out
    in increasing valuation.

    The elimination is fraction-free on the stored pairs.  With the pivot
    piv at valuation v, the pivot row and column leave the block and each
    other row becomes u row - f pivot_row, where u = N(piv) / p^(2v) is an
    int prime to p and f = e conj(piv) / p^(2v) has integral digits, e
    being the row's entry in the pivot column; that is u times the field
    step row - (e / piv) pivot_row.  The new row is then divided by the
    part prime to p of the gcd of its digits, which keeps the digits from
    growing.  Both factors are units of the local ring, so every entry
    keeps its valuation.

    Both models eliminate the exact lift of the stored digits, each pair
    (a, b) becoming a + b*sqrt(eps), and the shift moves each invariant of
    the lift to one of x (the unit part of the scale changes no valuation).
    For a residue matrix mod p^m: matrices congruent mod p^m have the same
    Smith form over the residue ring, whose diagonal valuations are
    min(v_i, m).  So when every invariant of the lift is below m, every
    matrix with these digits shares it; a pivot at valuation m or more
    cannot be certified and raises PrecisionError.

    >>> x = x_lambda(LocalField(3), 1, (2,))
    >>> x.to_residue(5)
    <p^-2 * [(81, 0), (0, 0), (0, 0); (0, 0), (9, 0), (0, 0); (0, 0), (0, 0), (1, 0)] mod 3^5>
    >>> invariant_factors(x), invariant_factors(x.to_residue(5))
    ([2, 0, -2], [2, 0, -2])
    """
    m, p, eps = x.precision, x.field.p, x.field.eps
    block = [list(row) for row in x.rows]
    vals = []
    while block:
        v, bi, bj = min(
            (pval(e, p), i, j) for i, row in enumerate(block) for j, e in enumerate(row)
        )
        if m is not None and v >= m:
            raise PrecisionError(
                f"an invariant factor reaches p^{m}; the stored digits do not decide it",
                required=m + 1,
            )
        if math.isinf(v):
            raise ValueError("matrix is singular")
        pivot_row = block.pop(bi)
        piv = pivot_row.pop(bj)
        p2v = p ** (2 * v)
        u, cpiv = pnorm(piv, eps) // p2v, pconj(piv)
        for i, row in enumerate(block):
            e = row.pop(bj)
            if pzero(e):
                continue
            f = [d // p2v for d in pmul(e, cpiv, eps)]
            new = []
            for (a, b), t in zip(row, pivot_row):
                c, d = pmul(f, t, eps)
                new.append((u * a - c, u * b - d))
            g = math.gcd(*(d for t in new for d in t))
            if g:
                g //= p ** _vp_int(g, p)
            if g > 1:
                new = [(a // g, b // g) for a, b in new]
            block[i] = new
        vals.append(v)
    return sorted((v - x.shift for v in vals), reverse=True)


def orbit_label(facs) -> tuple[int, ...]:
    """The partition labelling the K-orbit of a hermitian member with these
    invariant factors, largest first: they must come in inverse pairs around
    a zero."""
    size = len(facs)
    if size % 2 == 0:
        raise ValueError("expected odd size")
    n = size // 2
    if facs[n] != 0 or any(facs[i] != -facs[size - 1 - i] for i in range(n)):
        raise ValueError(f"invariant factors {facs} are not orbit-shaped")
    return tuple(facs[:n])


def classify_k_orbit(x: LocalMatrix):
    """The partition labelling the K-orbit of a hermitian member."""
    return orbit_label(invariant_factors(x))


def full_group_class(label) -> int:
    """0 or 1: the weight parity of a K-orbit label, constant on orbits of
    the full unitary group."""
    return sum(label) % 2


def classify_g_orbit(x: LocalMatrix) -> int:
    """The full-group class of a hermitian member."""
    return full_group_class(classify_k_orbit(x))


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
    p, eps, mod = field.p, field.eps, field.p**m
    pl = p**ell
    # p^ell (x - J), column by column
    cols = [
        [(a - (pl if t + i == 2 else 0), b) for t, (a, b) in enumerate(col)]
        for i, col in enumerate(zip(*x.rows))
    ]
    i = next((i for i in range(3) if pval(cols[i][i], p) == 0), None)
    if i is None:
        raise ValueError("no diagonal entry of p^s (x - J) is a unit; input is not in the space")
    beta = hensel_norm_solve(field, punit_inverse(cols[i][i], eps, mod)[0], m)
    w0, w1, w2 = (pmul(e, beta, eps) for e in cols[i])
    k = LocalMatrix.identity(field, 3, m)
    if pval(w2, p) and pval(w0, p):
        k = LocalMatrix.from_values(field, [[1, -1, Fraction(-1, 2)], [0, 1, 1], [0, 0, 1]], prec=m)
        half = pow(2, -1, mod)
        w0, w1 = [a - b - c * half for a, b, c in zip(w0, w1, w2)], [b + c for b, c in zip(w1, w2)]
    # c0 carries -conj(w)^-1 = (-a, b)^-1 of a unit end w = (a, b)
    zero = (0, 0)
    if pval(w2, p) == 0:
        c0 = [punit_inverse((-w2[0], w2[1]), eps, mod), zero, zero]
    else:
        c0 = [zero, zero, punit_inverse((-w0[0], w0[1]), eps, mod)]
    c2 = [(c[0] * pl - e[0], c[1] * pl - e[1]) for c, e in zip(c0, (w0, w1, w2))]
    # c1 = J conj(c0 x c2)
    c1 = []
    for t in (2, 1, 0):
        a, b = pmul(c0[(t + 1) % 3], c2[(t + 2) % 3], eps)
        c, d = pmul(c0[(t + 2) % 3], c2[(t + 1) % 3], eps)
        c1.append(pconj((a - c, b - d)))
    g = LocalMatrix(field, zip(c0, c1, c2), 1, m)
    J = j_matrix(field, 3, m)
    k = (J @ g.star()) @ J @ k
    assert_unitary(k)
    if k.act(x) != x_lambda(field, 1, (ell,)).to_residue(m):
        raise AssertionError("k x k* differs from the orbit representative at working precision")
    return k, ell
