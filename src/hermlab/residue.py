"""Residue-ring kernels of the p-adic laboratory, on Python ints.

The local field is an odd prime p with the unramified quadratic extension by
sqrt(eps).  Arithmetic in its ring of integers O_E = Z_p[sqrt(eps)] is one
kernel on int pairs (a, b) = a + b*sqrt(eps): product, conjugate, norm, unit
inverse mod p^m, valuation, matrix product and star, and the one unitarity
check g* J g = c J, mod p^m or exactly.  Both models of ``padic`` run on it.
Everything else here counts or samples in the residue rings mod p^m without
the matrix layer of ``padic``: the norm-class counts, the cell counts of the
integral unitary 3x3 group mod p, and the rank-one Monte-Carlo of the
defining integral with its closed form.

The cell counts count orbits, not products.  The diagonal torus T of the
factor D in g = D N acts freely on the left, so the products D N number |T|
times the T-orbits among the N, and each orbit is counted once by a member
read off any N in it (see ``k1_cell_counts``).

The Monte-Carlo draws rows, not matrices.  At rank one the integrand reads
only the bottom row of k, a primitive isotropic row; Haar measure on K pushes
forward to the uniform law on those rows mod p^m (K acts transitively on
them, p odd), and the valuation it histograms does not change when the row
is multiplied by a unit.  So one index into the classes of such rows up to
units (``_isotropic_row``) is one draw.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

from .errors import ENUMERATION_BOUND, PrecisionError, ResourceLimit


# -- integer helpers -------------------------------------------------------------


def _vp_int(x: int, p: int) -> int:
    if x == 0:
        return -1  # sentinel; callers treat 0 separately
    v = 0
    while x % p == 0:
        x //= p
        v += 1
    return v


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


def _legendre(a: int, p: int) -> int:
    a %= p
    if a == 0:
        return 0
    return 1 if pow(a, (p - 1) // 2, p) == 1 else -1


def smallest_nonresidue(p: int) -> int:
    """Smallest positive quadratic non-residue mod an odd prime.

    >>> smallest_nonresidue(3), smallest_nonresidue(5), smallest_nonresidue(7)
    (2, 2, 3)
    """
    for a in range(2, p):
        if _legendre(a, p) == -1:
            return a
    raise ValueError(f"no non-residue found mod {p}")


def _sqrt_mod_p(t: int, p: int) -> int:
    t %= p
    for a in range(p):
        if a * a % p == t:
            return a
    raise ValueError(f"{t} is not a square mod {p}")


class LocalField:
    """An odd prime p together with the quadratic extension by sqrt(eps),
    eps being the smallest non-residue mod p (deterministic, so runs are
    reproducible).

    eps is a unit, so this is the unramified quadratic extension: p stays a
    uniformizer and the residue field grows from F_p to F_{p^2}."""

    __slots__ = ("p", "eps")

    def __init__(self, p: int, eps: int | None = None):
        if p == 2 or not _is_prime(p):
            raise ValueError("the residual characteristic must be an odd prime")
        self.p = p
        self.eps = smallest_nonresidue(p) if eps is None else eps
        if _legendre(self.eps, p) != -1:
            raise ValueError(f"{self.eps} is a square mod {p}")

    def __repr__(self):
        return f"LocalField(p={self.p}, eps={self.eps})"

    def __eq__(self, other):
        return isinstance(other, LocalField) and (self.p, self.eps) == (other.p, other.eps)

    def __hash__(self):
        return hash((LocalField, self.p, self.eps))


# -- residue-ring counting ---------------------------------------------------------


def _norm_hits(eps: int, P: int, targets) -> int:
    """The number of pairs (a, b) mod P with a^2 - eps b^2 in targets mod P.

    From the histograms of a^2 and eps b^2 mod P: O(P) per target instead of
    enumerating the P^2 pairs.
    """
    sq: dict[int, int] = {}
    for a in range(P):
        u = a * a % P
        sq[u] = sq.get(u, 0) + 1
    esq: dict[int, int] = {}
    for u, c in sq.items():
        v = eps * u % P
        esq[v] = esq.get(v, 0) + c
    return sum(c * esq.get((u - t) % P, 0) for t in targets for u, c in sq.items())


def norm_count(p: int, xi: int, r: int) -> Fraction:
    """Proportion of x in the residue ring mod p^(r+1) whose norm misses the
    unit xi by valuation exactly r.

    >>> norm_count(3, 1, 0)
    Fraction(5, 9)
    >>> norm_count(3, 1, 1)
    Fraction(8, 27)
    >>> norm_count(5, 2, 2)
    Fraction(24, 625)
    """
    eps = LocalField(p).eps
    if xi % p == 0:
        raise ValueError("xi must be a unit")
    if r < 0:
        raise ValueError("the valuation must be nonnegative")
    P = p ** (r + 1)
    if P * P > ENUMERATION_BOUND:
        raise ResourceLimit(
            f"enumeration of p^{2 * (r + 1)} = {P * P} pairs exceeds the bound"
        )
    # N(x) - xi has valuation exactly r mod p^(r+1) iff it is k p^r, 0 < k < p
    pr = p**r
    return Fraction(_norm_hits(eps, P, [xi + k * pr for k in range(1, p)]), P * P)


def norm_residual(p: int, xi: int, R: int) -> Fraction:
    """Measure of {x : the norm misses xi by valuation >= R}."""
    eps = LocalField(p).eps
    if R == 0:
        return Fraction(1)
    P = p**R
    if P * P > ENUMERATION_BOUND:
        raise ResourceLimit("residual enumeration exceeds the bound")
    return Fraction(_norm_hits(eps, P, [xi]), P * P)


# -- the pair kernel: O_E = Z_p[sqrt(eps)] on pairs of ints -----------------------

# An element a + b*sqrt(eps) is the pair (a, b), and a matrix over O_E is a
# list of rows of pairs.  The product and the norm are returned unreduced, so
# the exact model uses them on numerators and the residue model reduces them
# mod p^m where it needs to; a modulus of 0 below means "exactly".


def pmul(x, y, eps: int):
    """The product of two pairs, unreduced."""
    a, b = x
    c, d = y
    return a * c + eps * b * d, a * d + b * c


def pconj(x):
    return x[0], -x[1]


def pnorm(x, eps: int) -> int:
    """N(a + b*sqrt(eps)) = a^2 - eps b^2, unreduced."""
    a, b = x
    return a * a - eps * b * b


def punit_inverse(x, eps: int, mod: int):
    """The inverse of a unit mod `mod`, reduced: conj(x) / N(x)."""
    ninv = pow(pnorm(x, eps) % mod, -1, mod)
    return x[0] * ninv % mod, -x[1] * ninv % mod


def pval(x, p: int) -> float:
    """min(v(a), v(b)), +inf for (0, 0).  Read off a pair reduced mod p^m,
    a value of m or more (zero included) is not certified."""
    g = math.gcd(*x)
    return _vp_int(g, p) if g else math.inf


def pmatmul(x, y, eps: int):
    """The product of two pair matrices, unreduced.  Each entry sums its
    pair products inline over the nonzero entries of its column of y, with
    eps applied once to the sum of the b*d; diagonal, permutation and
    unipotent factors are mostly zeros."""
    cols = [[(k, c, d) for k, (c, d) in enumerate(col) if c or d] for col in zip(*y)]
    out = []
    for row in x:
        out.append([])
        for col in cols:
            re = im = bd = 0
            for k, c, d in col:
                a, b = row[k]
                re += a * c
                bd += b * d
                im += a * d + b * c
            out[-1].append((re + eps * bd, im))
    return out


def pstar(g):
    """The conjugate transpose of a pair matrix, unreduced."""
    return [[pconj(e) for e in col] for col in zip(*g)]


def pzero(x, mod: int = 0) -> bool:
    """Whether the pair x is 0 mod `mod`, or exactly when mod is 0."""
    return not (x[0] % mod or x[1] % mod) if mod else not (x[0] or x[1])


def pair_unitary(g, eps: int, c: int = 1, mod: int = 0) -> bool:
    """Whether g* J g = c J for a square pair matrix g of any size, J the
    antidiagonal form: mod `mod`, or exactly when mod is 0.

    g* J g is hermitian, so its entries on and above the diagonal decide,
    and only those are formed: row k of g* times column l of Jg, l >= k,
    that is conj(column k of g) times column l read from the bottom, summed
    over the nonzero entries of column k."""
    n = len(g)
    cols = [[(n - 1 - i, a, b) for i, (a, b) in enumerate(col) if a or b] for col in zip(*g)]
    for k in range(n):
        for l in range(k, n):
            re = im = bd = 0
            for i, a, b in cols[k]:
                x, y = g[i][l]
                re += a * x
                bd += b * y
                im += a * y - b * x
            if not pzero((re - eps * bd - (c if k + l == n - 1 else 0), im), mod):
                return False
    return True


# -- the cells of the rank-one maximal compact ---------------------------------------

# The cell counts build 3x3 matrices mod p as g = D N, D diagonal and N
# written out in closed form, and check them unitary.


def _diag_units(alpha, w, eps: int, mod: int):
    """conj(alpha)^-1 and u = w / conj(w), the units on the diagonal factor."""
    re, im = pmul(w, punit_inverse(pconj(w), eps, mod), eps)
    return punit_inverse(pconj(alpha), eps, mod), (re % mod, im % mod)


def _cell_factor(d, f0, b, c0, big_cell, eps: int, mod: int):
    """N of g = D N, D = diag(alpha, u, conj(alpha)^-1), as three rows,
    entries not all reduced.  With f = (-N(d)/2, f0), c = (-N(b)/2, c0) it is
    [[1, -d*, f], [0, 1, d], [0, 0, 1]] [[0, 0, 1], [0, 1, -b*], [1, b, c]]
    in the big cell, [[1, 0, 0], [b, 1, 0], [c, -b*, 1]] [[1, d, f],
    [0, 1, -d*], [0, 0, 1]] in the small cell."""
    half = -pow(2, -1, mod) % mod
    f = (pnorm(d, eps) * half % mod, f0)
    c = (pnorm(b, eps) * half % mod, c0)
    db = pmul(d, b, eps)
    one = (1, 0)
    if big_cell:
        fb, fc, dc = pmul(f, b, eps), pmul(f, c, eps), pmul(d, c, eps)
        return (
            (f, (fb[0] - d[0], fb[1] + d[1]), (1 + db[0] + fc[0], fc[1] - db[1])),
            (d, (1 + db[0], db[1]), (dc[0] - b[0], dc[1] + b[1])),
            (one, b, c),
        )
    bf, cd, cf = pmul(b, f, eps), pmul(c, d, eps), pmul(c, f, eps)
    return (
        (one, d, f),
        (b, (1 + db[0], db[1]), (bf[0] - d[0], bf[1] + d[1])),
        (c, (cd[0] - b[0], cd[1] + b[1]), (1 + cf[0] + db[0], cf[1] - db[1])),
    )


def k1_cell_counts(p: int):
    """Distinct matrices mod p produced by the two cell parametrizations.

    Returns (big, small, together); the classical order of the unitary group
    over the residue field, q^3 (q+1) (q^2-1) (q^3+1), is the cross-check.
    Raises ResourceLimit, before enumerating, when that order exceeds
    ENUMERATION_BOUND (p = 5 runs, p = 7 does not).

    Every D and every N of g = D N is built and checked unitary once; each
    D N is then unitary too, (D N)* j (D N) = N* (D* j D) N.  The D form the
    diagonal torus T = {diag(alpha, u, conj(alpha)^-1)}, alpha any of the
    p^2 - 1 units and u any of the p + 1 units of norm 1; a T short of that
    is refused.  T acts freely on the left (D N = N only for D = 1, N being
    invertible), so the distinct products D N of a set of N number |T|
    times the distinct T-orbits among those N.  An orbit is counted by one
    member, read off any N in it: row 0 scaled so that its first unit is 1,
    which fixes alpha and so the scale of row 2, and row 1 scaled by the u
    that takes its first unit to the first unit, in digit order, of the same
    norm.  The products of a unit with a digit pair mod p are read from a
    table built once from ``pmul``, and the member is counted as one int.
    """
    order = p**3 * (p + 1) * (p**2 - 1) * (p**3 + 1)
    if order > ENUMERATION_BOUND:
        raise ResourceLimit(f"enumeration of {order} unitary matrices mod {p} exceeds the bound")
    eps = smallest_nonresidue(p)
    pairs = [(x, y) for x in range(p) for y in range(p)]
    units = pairs[1:]
    # D = diag(alpha, u, conj(alpha)^-1): the corners depend on alpha alone
    # and the middle u = w / conj(w) on w alone
    corners, middles = set(), set()
    for alpha in units:
        for w in units:
            ainv, u = _diag_units(alpha, w, eps, p)
            corners.add((alpha, ainv))
            middles.add(u)
    zero = (0, 0)

    def check(g):
        if not pair_unitary(g, eps, 1, p):
            raise AssertionError("constructed element is not unitary for the antidiagonal form")

    for alpha, ainv in corners:
        for u in middles:
            check(((alpha, zero, zero), (zero, u, zero), (zero, zero, ainv)))
    # each alpha has one corner pair once every D is unitary
    if len(corners) != p * p - 1 or len(middles) != p + 1:
        raise AssertionError(
            f"the diagonal factors give {len(corners)} values of alpha and {len(middles)} of u,"
            f" not the {p * p - 1} and {p + 1} of the torus"
        )
    corner = dict(corners)
    # for each unit s, the index of s e mod p in pairs, listed by the index
    # x p + y of e = (x, y)
    times = {s: [re % p * p + im % p for re, im in (pmul(s, e, eps) for e in pairs)]
             for s in units}
    # by the index of a unit e: the alpha with alpha e = 1 (at index p), and
    # the u that takes e to the first unit of its norm, conj(u) taking that
    # unit to u e
    inverse = {times[s].index(p): s for s in units}
    toward = {}
    for i in range(1, p * p):
        if i not in toward:
            for u in middles:
                toward[times[u][i]] = (u[0], -u[1] % p)
    p2, p6 = p * p, p**6

    def member(n):
        # the orbit member of N, its digits mod p as one int below p^18
        i0, i1, i2 = ([x % p * p + y % p for x, y in row] for row in n)
        alpha = inverse[next(i for i in i0 if i)]
        u = toward[next(i for i in i1 if i)]
        key = 0
        for s, (a, b, c) in ((alpha, i0), (u, i1), (corner[alpha], i2)):
            t = times[s]
            key = key * p6 + t[a] * p2 * p2 + t[b] * p2 + t[c]
        return key

    def members(cells):
        out = set()
        for d, f0, b, c0, big_cell in cells:
            n = _cell_factor(d, f0, b, c0, big_cell, eps, p)
            check(n)
            out.add(member(n))
        return out

    # in the small cell b and c0 are divisible by p, so mod p they are zero
    triples = [(z, t) for z in pairs for t in range(p)]
    big = members((d, f0, b, c0, True) for d, f0 in triples for b, c0 in triples)
    small = members((d, f0, zero, 0, False) for d, f0 in triples)
    torus = len(corners) * len(middles)
    return torus * len(big), torus * len(small), torus * len(big | small)


# -- the defining integral, by Monte-Carlo -------------------------------------------


def _isotropic_row(k: int, p: int, eps: int, mod: int):
    """The row class of index k: a primitive isotropic row mod `mod` = p^m,
    Tr(r0 conj(r2)) + N(r1) = 0, normalised up to units, as three pairs.

    k < mod^3 is the big cell (1, b, c) with b in O/p^m and c = (-N(b)/2, c0),
    c0 in Z/p^m; the p^(3(m-1)) indices above it are the small cell
    (c, -conj(b), 1) with b in pO and c0 in pZ.  Each class is hit once, so a
    uniform index is a uniform row class, in the split p^3 : 1 of the Haar
    volumes of the two cells.
    """
    big = mod**3
    if k < big:
        b, c0 = divmod(k, mod)
        b0, b1 = divmod(b, mod)
    else:
        low = mod // p
        b, c0 = divmod(k - big, low)
        b0, b1 = divmod(b, low)
        b0, b1, c0 = p * b0, p * b1, p * c0
    # -N(b)/2, (mod + 1) // 2 being the inverse of 2
    c = (-pnorm((b0, b1), eps) * ((mod + 1) // 2) % mod, c0)
    if k < big:
        return (1, 0), (b0, b1), c
    return c, (-b0 % mod, b1), (1, 0)


def _assert_isotropic_row(r, p: int, eps: int, mod: int):
    """Refuse a row that is not primitive or not isotropic mod `mod`:
    Tr(r0 conj(r2)) + N(r1) must vanish and some digit must be a unit."""
    r0, r1, r2 = r
    if (2 * pmul(r0, pconj(r2), eps)[0] + pnorm(r1, eps)) % mod:
        raise AssertionError("drawn row is not isotropic")
    if math.gcd(*r0, *r1, *r2) % p == 0:
        raise AssertionError("drawn row is not primitive")


_MC_HISTOGRAMS: dict = {}


def _mc_valuation_histogram(p: int, ell: int, samples: int, prec: int, seed):
    """Histogram of the corner-minor valuations over Haar draws; shared by all
    exponents s so repeated estimates reuse the samples.

    A draw is the bottom row r of k: one index into the row classes of
    _isotropic_row, uniform from random.Random(f"{seed}:{ell}"), checked
    isotropic and primitive.  Its valuation is that of
    w = p^(2 ell) N(r0) + p^ell N(r1) + N(r2), less ell.  A draw whose
    valuation is not certified at precision prec is replaced by the next
    one, at most max(10, samples // 100) times.
    """
    key = (p, ell, samples, prec, seed)
    if key in _MC_HISTOGRAMS:
        return _MC_HISTOGRAMS[key]
    if prec < 2:
        raise PrecisionError("sampling needs at least two digits", required=2)
    eps, mod = LocalField(p).eps, p**prec
    total = mod**3 + (mod // p) ** 3
    rng = random.Random(f"{seed}:{ell}")
    w2, w1 = pow(p, 2 * ell, mod), pow(p, ell, mod)
    uncertified = p ** (prec - 1)
    hist: dict[int, int] = {}
    saturated = 0
    produced = 0
    i = 0
    budget = samples + max(10, samples // 100)
    while produced < samples:
        if i >= budget:
            raise PrecisionError(
                f"saturation rate exceeded 1% at precision {prec}",
                required=prec + 4,
            )
        row = _isotropic_row(rng.randrange(total), p, eps, mod)
        _assert_isotropic_row(row, p, eps, mod)
        i += 1
        r0, r1, r2 = row
        w = (w2 * pnorm(r0, eps) + w1 * pnorm(r1, eps) + pnorm(r2, eps)) % mod
        # valuations from prec - 1 up (zero included) are not certified
        if w % uncertified == 0:
            saturated += 1
            continue
        v = _vp_int(w, p) - ell
        hist[v] = hist.get(v, 0) + 1
        produced += 1
    if saturated > samples / 100:
        raise PrecisionError(
            f"saturation rate {saturated}/{samples} above 1%", required=prec + 4
        )
    _MC_HISTOGRAMS[key] = (hist, saturated)
    return hist, saturated


def omega_n1_closed(ell: int, s: float, q: float) -> float:
    """The closed form of the rank-one spherical integral at real exponent s:
    continuation to u = q^-s of the explicit rational expression."""
    u = float(q) ** -s
    q = float(q)
    u2 = u * u
    front = (1 + q**-3 * u2) / ((1 + q**-3) * (1 - q**-4 * u2 * u2))
    sign = -1.0 if ell % 2 == 0 else 1.0
    brace = u**-ell * (1 - q**-4 * u2) + sign * q ** (-2 * (ell + 1)) * u**ell * (1 - u2)
    return front * brace


def monte_carlo_omega1(ell: int, s: float, samples: int, prec: int, seed, p: int = 3):
    """Estimate the defining integral at x_ell by Haar sampling.

    Returns a dict with the estimate, its standard error, the valuation
    histogram and the saturation count.  The standard error is the one the
    closed form predicts, sqrt(Var / samples) with Var[q^(-s v)] =
    omega(x_ell; 2s) - omega(x_ell; s)^2, so a sample that shows no spread
    of its own still gets a band.  Raises ResourceLimit when the estimate or
    the closed form leaves the float range.
    """
    if s < 0:
        raise ValueError("the exponent must be nonnegative")
    if samples < 1:
        raise ValueError("at least one sample is needed")
    if ell < 0:
        raise ValueError("the orbit index must be nonnegative")
    hist, saturated = _mc_valuation_histogram(p, ell, samples, prec, seed)
    q = float(p)
    total = sum(hist.values())
    try:
        est = sum(cnt * q ** (-s * v) for v, cnt in hist.items()) / total
        closed, second = omega_n1_closed(ell, s, p), omega_n1_closed(ell, 2 * s, p)
        finite = all(map(math.isfinite, (est, closed * closed, second)))
    except (OverflowError, ZeroDivisionError):
        finite = False
    if not finite:
        raise ResourceLimit(f"the rank-one estimate at ell = {ell}, s = {s} leaves the float range")
    # rounding leaves about 1e-16 at s = 0, where the variance is 0
    var = max(0.0, second - closed * closed)
    return {
        "estimate": est,
        "stderr": math.sqrt(var / total),
        "histogram": dict(sorted(hist.items())),
        "saturated": saturated,
        "closed_form": closed,
    }


def mc_band(out: dict) -> float:
    """The 3-sigma band around the closed form that a monte_carlo_omega1
    estimate must fall inside."""
    return 3 * out["stderr"] + 1e-12
