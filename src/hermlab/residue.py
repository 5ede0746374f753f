"""Residue-ring kernels of the p-adic laboratory, on Python ints.

The local field is an odd prime p with the unramified quadratic extension by
sqrt(eps).  Everything here counts or samples in the residue rings mod p^m
without the matrix layer of ``padic``: the norm-class counts, the Haar
sampler of the integral unitary 3x3 group and its cell counts, built entry by
entry on pairs of ints, and the rank-one Monte-Carlo of the defining integral
with its closed form.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

from .errors import PrecisionError, ResourceLimit

ENUMERATION_BOUND = 4_000_000


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


def _norm_hits(p: int, P: int, targets) -> int:
    """The number of pairs (a, b) mod P with a^2 - eps b^2 in targets mod P.

    From the histograms of a^2 and eps b^2 mod P: O(P) per target instead of
    enumerating the P^2 pairs.
    """
    eps = smallest_nonresidue(p)
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
    return Fraction(_norm_hits(p, P, [xi + k * pr for k in range(1, p)]), P * P)


def norm_residual(p: int, xi: int, R: int) -> Fraction:
    """Measure of {x : the norm misses xi by valuation >= R}."""
    if R == 0:
        return Fraction(1)
    P = p**R
    if P * P > ENUMERATION_BOUND:
        raise ResourceLimit("residual enumeration exceeds the bound")
    return Fraction(_norm_hits(p, P, [xi]), P * P)


# -- Haar sampling of the rank-one maximal compact -----------------------------------

# The residue kernel: a 3x3 matrix over the residue ring mod `mod` is the
# tuple of its nine entries in row order, each a pair (re, im) of ints standing
# for re + im*sqrt(eps).  The Haar sampler (mod p^prec) and the cell counts
# (mod p) build their matrices as g = D N, D diagonal and N written out in
# closed form, and check them unitary.


def _pmul(x, y, eps: int, mod: int):
    """The product of two residues (re, im), reduced."""
    return (x[0] * y[0] + eps * x[1] * y[1]) % mod, (x[0] * y[1] + x[1] * y[0]) % mod


def _assert_unitary_entries(g, eps: int, mod: int):
    """assert_unitary for nine entries in row order: g* j g = j mod `mod`.

    g* j g is hermitian, so its entries on and above the diagonal decide."""
    cols = (g[0::3], g[1::3], g[2::3])
    for k in range(3):
        (a0, b0), (a1, b1), (a2, b2) = cols[k]
        for l in range(k, 3):
            # (g* j g)_kl, the sum over i of conj(g_ik) g_(2-i)l
            (c0, d0), (c1, d1), (c2, d2) = cols[l]
            re = a0 * c2 + a1 * c1 + a2 * c0 - eps * (b0 * d2 + b1 * d1 + b2 * d0)
            im = a0 * d2 + a1 * d1 + a2 * d0 - b0 * c2 - b1 * c1 - b2 * c0
            if re % mod != (k + l == 2) or im % mod:
                raise AssertionError("constructed element is not unitary for the antidiagonal form")


def _diag_units(alpha, w, eps: int, mod: int):
    """conj(alpha)^-1 and u = w / conj(w), the units on the diagonal factor;
    for a unit z, conj(z)^-1 = z / N(z)."""
    ainv = pow((alpha[0] ** 2 - eps * alpha[1] ** 2) % mod, -1, mod)
    winv = pow((w[0] ** 2 - eps * w[1] ** 2) % mod, -1, mod)
    return (
        (alpha[0] * ainv % mod, alpha[1] * ainv % mod),
        ((w[0] ** 2 + eps * w[1] ** 2) * winv % mod, 2 * w[0] * w[1] * winv % mod),
    )


def _cell_factor(d, f0, b, c0, big_cell, eps: int, mod: int):
    """N of g = D N (see _haar_products), the product of the two unipotent
    or Weyl factors written out; entries in row order, not all reduced."""
    half = -pow(2, -1, mod) % mod
    f = ((d[0] * d[0] - eps * d[1] * d[1]) * half % mod, f0)
    c = ((b[0] * b[0] - eps * b[1] * b[1]) * half % mod, c0)
    db = _pmul(d, b, eps, mod)
    one = (1, 0)
    if big_cell:
        fb, fc, dc = _pmul(f, b, eps, mod), _pmul(f, c, eps, mod), _pmul(d, c, eps, mod)
        return (
            f, (fb[0] - d[0], fb[1] + d[1]), (1 + db[0] + fc[0], fc[1] - db[1]),
            d, (1 + db[0], db[1]), (dc[0] - b[0], dc[1] + b[1]),
            one, b, c,
        )
    bf, cd, cf = _pmul(b, f, eps, mod), _pmul(c, d, eps, mod), _pmul(c, f, eps, mod)
    return (
        one, d, f,
        b, (1 + db[0], db[1]), (bf[0] - d[0], bf[1] + d[1]),
        c, (cd[0] - b[0], cd[1] + b[1]), (1 + cf[0] + db[0], cf[1] - db[1]),
    )


def _haar_products(rows, eps: int, mod: int):
    """The group elements of a parameter table, one per row, checked unitary,
    each as its nine entries in row order.

    A row holds alpha, u, conj(alpha)^-1, d (pairs), f0, b (a pair), c0 and
    the cell flag.  With f = (-N(d)/2, f0) and c = (-N(b)/2, c0), the big
    cell is diag(alpha, u, conj(alpha)^-1) [[1, -d*, f], [0, 1, d], [0, 0, 1]]
    [[0, 0, 1], [0, 1, -b*], [1, b, c]] and the small cell is the diagonal
    times [[1, 0, 0], [b, 1, 0], [c, -b*, 1]] [[1, d, f], [0, 1, -d*], [0, 0, 1]].
    """
    out = []
    for a0, a1, u0, u1, i0, i1, d0, d1, f0, b0, b1, c0, big in rows:
        diag = ((a0, a1), (u0, u1), (i0, i1))
        n = _cell_factor((d0, d1), f0, (b0, b1), c0, big, eps, mod)
        g = tuple(_pmul(diag[k // 3], e, eps, mod) for k, e in enumerate(n))
        _assert_unitary_entries(g, eps, mod)
        out.append(g)
    return out


def _rand_pair(rng, mod):
    return (rng.randrange(mod), rng.randrange(mod))


def _rand_pair_unit(rng, p, mod):
    while True:
        z = _rand_pair(rng, mod)
        if z[0] % p or z[1] % p:
            return z


def _haar_draw(rng, p: int, eps: int, prec: int):
    """The parameter row of one draw (see _haar_products), from rng in the
    fixed order alpha, w, d, f0, cell, b, c0."""
    mod = p**prec
    alpha = _rand_pair_unit(rng, p, mod)
    w = _rand_pair_unit(rng, p, mod)
    d = _rand_pair(rng, mod)
    f0 = rng.randrange(mod)
    big_cell = rng.randrange(p**3 + 1) < p**3
    if big_cell:
        b = _rand_pair(rng, mod)
        c0 = rng.randrange(mod)
    else:
        b0, b1 = _rand_pair(rng, p ** (prec - 1))
        b = (p * b0, p * b1)
        c0 = p * rng.randrange(p ** (prec - 1))
    ainv, u = _diag_units(alpha, w, eps, mod)
    return (*alpha, *u, *ainv, *d, f0, *b, c0, big_cell)


def _haar_sample(field: LocalField, prec: int, seeds):
    """Haar draws mod p^prec, one per seed of random.Random (see _haar_products)."""
    if prec < 2:
        raise PrecisionError("sampling needs at least two digits", required=2)
    p, eps = field.p, field.eps
    rows = [_haar_draw(random.Random(s), p, eps, prec) for s in seeds]
    return _haar_products(rows, eps, p**prec)


def k1_cell_counts(p: int):
    """Distinct matrices mod p produced by the two cell parametrizations.

    Returns (big, small, together); the classical order of the unitary group
    over the residue field, q^3 (q+1) (q^2-1) (q^3+1), is the cross-check.

    Every D and every N of g = D N is built and checked unitary once; each
    D N is then unitary too, (D N)* j (D N) = N* (D* j D) N.  D N is formed
    row by row, row r of N times the r-th entry of D, and counted as one int.
    """
    eps = smallest_nonresidue(p)
    pairs = [(x, y) for x in range(p) for y in range(p)]
    units = pairs[1:]
    diags = set()
    for alpha in units:
        for w in units:
            ainv, u = _diag_units(alpha, w, eps, p)
            diags.add((alpha, u, ainv))
    zero = (0, 0)
    for alpha, u, ainv in diags:
        _assert_unitary_entries((alpha, zero, zero, zero, u, zero, zero, zero, ainv), eps, p)
    # the entries of D that multiply row r of N
    scalars = [{diag[r] for diag in diags} for r in range(3)]

    def row_key(s, row):
        # s times a row of N, its six digits mod p as one int below p^6
        key = 0
        for e in reversed(row):
            re, im = _pmul(s, e, eps, p)
            key = (key * p + im) * p + re
        return key

    def keys(cells):
        out = set()
        for d, f0, b, c0, big_cell in cells:
            n = _cell_factor(d, f0, b, c0, big_cell, eps, p)
            _assert_unitary_entries(n, eps, p)
            k0, k1, k2 = (
                {s: row_key(s, n[3 * r : 3 * r + 3]) for s in scalars[r]} for r in range(3)
            )
            out.update(k0[a] + (k1[u] + k2[i] * p**6) * p**6 for a, u, i in diags)
        return out

    # in the small cell b and c0 are divisible by p, so mod p they are zero
    triples = [(z, t) for z in pairs for t in range(p)]
    big = keys((d, f0, b, c0, True) for d, f0 in triples for b, c0 in triples)
    small = keys((d, f0, zero, 0, False) for d, f0 in triples)
    return len(big), len(small), len(big | small)


# -- the defining integral, by Monte-Carlo -------------------------------------------


_MC_HISTOGRAMS: dict = {}


def _mc_valuation_histogram(p: int, ell: int, samples: int, prec: int, seed):
    """Histogram of the corner-minor valuations over Haar draws; shared by all
    exponents s so repeated estimates reuse the samples.

    Draw i comes from random.Random(f"{seed}:{ell}:{i}"); a draw whose
    valuation is not certified at precision prec is replaced by the next one,
    at most max(10, samples // 100) times.
    """
    key = (p, ell, samples, prec, seed)
    if key in _MC_HISTOGRAMS:
        return _MC_HISTOGRAMS[key]
    field = LocalField(p)
    eps, mod = field.eps, p**prec
    # w = N(g20) p^(2 ell) + N(g21) p^ell + N(g22) mod p^prec
    weights = (pow(p, 2 * ell, mod), pow(p, ell, mod), 1)
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
        (g,) = _haar_sample(field, prec, [f"{seed}:{ell}:{i}"])
        i += 1
        w = sum(wt * (a * a - eps * b * b) for wt, (a, b) in zip(weights, g[6:])) % mod
        # valuations from prec - 1 up (zero included) are not certified
        if w % p ** (prec - 1) == 0:
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
    of its own still gets a band.
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
    est = sum(cnt * q ** (-s * v) for v, cnt in hist.items()) / total
    closed = omega_n1_closed(ell, s, p)
    # rounding leaves about 1e-16 at s = 0, where the variance is 0
    var = max(0.0, omega_n1_closed(ell, 2 * s, p) - closed * closed)
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
