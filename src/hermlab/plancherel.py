"""Quadrature on the compact torus: orthogonality, transform, inversion.

The measure is the absolutely continuous one with density

    (W_0(q) / (2^n n!)) *
        prod over positive roots a of |1 - x^a|^2 / |1 - t_a x^a|^2

against the normalized Haar measure of the n-torus, W_0 being the Poincare
series of the signed permutations at the parity specialization
(``whole_group_value``), 2^n n! their order.  Pairings of
W-invariant Laurent polynomials against it are exact constant terms, taken
at the one q0 > 1 that every check compares at (``pairing_at``); the
uniform grid remains for the float check of the density itself
(``total_mass``).
"""

from __future__ import annotations

import cmath
import itertools
import math
import operator
import random
from fractions import Fraction
from functools import lru_cache
from typing import Sequence

from .errors import ENUMERATION_BOUND, ResourceLimit
from .hall_littlewood import (
    check_partition,
    q_poly,
    spec_params,
    w_lambda_value,
    whole_group_value,
)
from .scalars import GR_ZERO, QL_ONE, GaussianRational, QFraction
from .spherical import (
    PhasedScalar,
    SphericalValue,
    base_point_exponent,
    phase_power,
    psi,
)
from .torus import FactoredRational, TorusPoly, TorusPolyAt
from .weyl import long_positive_roots, short_positive_roots


class QuadratureGrid:
    """The uniform N^n grid on [0, 2pi)^n; a mean over it integrates
    trigonometric polynomials of degree < N exactly.  Its arrays are numpy's,
    imported here only: the package itself sums root tables instead."""

    __slots__ = ("n", "N", "thetas")

    def __init__(self, n: int, N: int):
        if N < 2:
            raise ValueError("need at least two nodes per circle")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "N", N)
        import numpy as np

        axes = np.indices((N,) * n).reshape(n, -1).T * (2 * np.pi / N)
        object.__setattr__(self, "thetas", axes)  # shape (N^n, n)

    def __setattr__(self, name, value):  # pragma: no cover - defensive
        raise AttributeError("QuadratureGrid is immutable")

    def poly_values(self, f: TorusPoly, q0: float):
        import numpy as np

        out = np.zeros(len(self.thetas), dtype=complex)
        for e, c in f.terms():
            out += c.eval_float(q0) * np.exp(1j * (self.thetas @ np.array(e)))
        return out


def measure_constant(n: int, parity: str, q0: Fraction) -> Fraction:
    """The exact front constant of the density: W_0(q0) / |W|, the Poincare
    series of the signed permutations at the parity specialization over
    their order 2^n n!."""
    w0 = whole_group_value(n, parity).eval(Fraction(q0)).re
    return w0 / (2**n * math.factorial(n))


def _root_factor(w, t: float):
    """One positive root's factor |1 - w|^2 / |1 - t w|^2 at w = x^a."""
    return abs(1 - w) ** 2 / abs(1 - t * w) ** 2


def _root_params(n: int, parity: str, q0: Fraction) -> list[tuple[tuple[int, ...], float]]:
    """(a, t_a) for each positive root a, with t_a at q0 as a float."""
    ts, tl = spec_params(parity)
    qf = float(q0)
    return [(a, ts.eval_float(qf)) for a in short_positive_roots(n)] + [
        (a, tl.eval_float(qf)) for a in long_positive_roots(n)
    ]


def total_mass(n: int, parity: str, q0: Fraction, N: int = 64) -> float:
    """Mean of the density over the uniform grid theta = 2 pi k / N, k in Z_N^n.

    The density is invariant under W, the signed permutations, and so is the
    grid: a sign flip sends k_i to -k_i mod N.  The walk visits one point of
    each W-orbit, 0 <= k_1 <= ... <= k_n <= N // 2, and weights it by the
    orbit's size n! / prod m_j! * 2^#{i : 2 k_i != 0 mod N}, an int; the m_j
    count the equal coordinates.

    On the grid a root's phase a.theta is 2 pi ((a.k) mod N) / N, so its
    factor takes N values, tabulated once.  Every positive root involves at
    most two coordinates.  Those that involve the last coordinate and another
    one, i, make for each value of k_i a vector over the last coordinate.
    The walk over the other coordinates carries the product of the roots
    they fix and the product of those vectors, sliced to the last
    coordinate's range k_(n-1) <= x <= N // 2, and sums x out as a dot
    product; the term x = k_(n-1), which lengthens a run of equal
    coordinates, is weighted apart.  Every sum is math.fsum, so the mean
    does not depend on the order of its terms.

    Raises ResourceLimit, before building any table, when the number of
    orbits, C(N // 2 + n, n), exceeds ENUMERATION_BOUND.
    """
    if N < 2:
        raise ValueError("need at least two nodes per circle")
    half = N // 2
    orbits = math.comb(half + n, n)
    if orbits > ENUMERATION_BOUND:
        raise ResourceLimit(f"summing {orbits} grid orbits (N = {N}, n = {n}) exceeds the bound")
    last = n - 1
    span = range(half + 1)
    nodes = [cmath.exp(2j * math.pi * k / N) for k in range(N)]
    inner = [[] for _ in range(last)]  # roots off the last coordinate, by their largest one
    vecs = [[[1.0] * (half + 1) for _ in span] for _ in range(last)]  # vecs[i][k_i][k_last]
    # the roots on the last coordinate alone, times the size of {x, -x mod N}
    alone = [1.0 if 2 * x % N == 0 else 2.0 for x in span]
    for a, t in _root_params(n, parity, q0):
        table = [_root_factor(w, t) for w in nodes]
        support = [i for i, v in enumerate(a) if v]
        if support[-1] < last:
            inner[support[-1]].append((a, table))
        elif len(support) == 1:
            alone = [v * table[a[last] * x % N] for x, v in enumerate(alone)]
        else:
            i = support[0]
            for k, vec in enumerate(vecs[i]):
                vec[:] = [v * table[(a[i] * k + a[last] * x) % N] for x, v in enumerate(vec)]

    top = math.factorial(n)

    def terms(d, fixed, run, flips, denom, scale, vec):
        # coordinates below d are fixed, the last `run` of them equal to lo;
        # denom is prod m_j! over them; vec is over the last one, x >= lo
        lo = fixed[-1] if fixed else 0
        for k in range(lo, half + 1):
            ks = fixed + (k,)
            r = run + 1 if k == lo else 1
            f = flips + (2 * k % N != 0)
            s = scale
            for a, table in inner[d]:
                s *= table[sum(map(operator.mul, a, ks)) % N]
            v = list(map(operator.mul, vec[k - lo :], vecs[d][k][k:]))
            if d == last - 1:
                yield s * ((top << f) // (denom * r)) * math.fsum(v[1:])
                yield s * ((top << f) // (denom * r * (r + 1))) * v[0]
            else:
                yield from terms(d + 1, ks, r, f, denom * r, s, v)

    total = math.fsum(terms(0, (), 0, 0, 1, 1.0, alone) if last else alone)
    return float(measure_constant(n, parity, q0)) * total / N**n


def expected_gram_diagonal(lam: Sequence[int], n: int, parity: str, q0: Fraction) -> Fraction:
    """W_0 / W_lam at the parity specialization, exactly."""
    lam = check_partition(lam, n)
    num = whole_group_value(n, parity).eval(Fraction(q0)).re
    den = w_lambda_value(lam, n, parity).eval(Fraction(q0)).re
    return num / den


def _height(e: Sequence[int]) -> int:
    """<rho, e> with rho = (n, ..., 1); positive on every positive root."""
    return sum((len(e) - i) * v for i, v in enumerate(e))


@lru_cache(maxsize=None)
def _delta_plus_at(n: int, parity: str, height: int, q0: Fraction) -> TorusPolyAt:
    """prod over positive roots a of (1 - x^a) / (1 - t_a x^a)
        = prod (1 + sum_{k >= 1} (t_a^k - t_a^(k-1)) x^(ka))
    at q = q0, expanded through the given height.  Every exponent in the
    product has height >= 0, so x^(ka) multiplies only the part of height
    <= height - k<rho, a>.  With t_a = u/v at q0 and K = height // <rho, a>,
    the factor of a is sum_k s_k x^(ka) over v^K, s_0 = v^K and
    s_k = u^(k-1) (u - v) v^(K-k), all of them ints."""
    q0 = Fraction(q0)
    ts, tl = spec_params(parity)
    out, den = {(0,) * n: 1}, 1
    for t, roots in ((ts, short_positive_roots(n)), (tl, long_positive_roots(n))):
        u, _, v = t.value_at(q0.numerator, q0.denominator)
        for a in roots:
            ha = _height(a)
            top = height // ha
            series = [v**top] + [u ** (k - 1) * (u - v) * v ** (top - k) for k in range(1, top + 1)]
            step: dict = {}
            for e, c in out.items():
                for k in range((height - _height(e)) // ha + 1):
                    e2 = tuple(x + k * y for x, y in zip(e, a))
                    step[e2] = step.get(e2, 0) + c * series[k]
            out, den = step, den * v**top
    return TorusPolyAt.of_ints(n, {e: (c, 0) for e, c in out.items() if c}, den)


@lru_cache(maxsize=None)
def _q_poly_at(n: int, parity: str, lam: tuple[int, ...], q0: Fraction) -> TorusPolyAt:
    """q_poly at q0, for a partition padded to n parts."""
    return TorusPolyAt(q_poly(n, parity, lam), q0)


def _split(v, q0: Fraction) -> tuple[PhasedScalar, TorusPolyAt]:
    """A SphericalValue prefactor * q_poly(lam) / boundary as its exact
    prefactor and its orbit sum at q0; the boundary must be a constant."""
    if v.boundary.num or v.boundary.den:
        raise ValueError("the exact pairing needs a trivial boundary factor")
    if v.numerator is not q_poly(v.n, v.parity, v.lam):
        raise ValueError("the exact pairing needs the orbit sum q_poly(lam) as numerator")
    return v.prefactor / v.boundary.front, _q_poly_at(v.n, v.parity, v.lam, q0)


def _pairings(left: list, right: list, parity: str, q0: Fraction, conjugate: bool) -> list:
    """The pairings of ``pairing_at`` for (prefactor, polynomial at q0) pairs.

    Each entry is the prefactors' product, exact in q and then taken at q0,
    times CT[f * g * Delta+] = sum over the terms f_e1 x^e1 of f and g_e2 x^e2
    of g of f_e1 * g_e2 * Delta+_(-(e1 + e2)), summed over Gaussian
    integers.  For each g the inner sum over e2 is formed once per exponent
    e1 of the left polynomials."""
    if not left or not right:
        return [[] for _ in left]
    if conjugate:
        right = [(c.conjugate(), g.conjugate()) for c, g in right]
    low_f = min((_height(e) for _, f in left for e in f._c), default=0)
    low_g = min((_height(e) for _, g in right for e in g._c), default=0)
    height = max(0, -low_f - low_g)
    delta = _delta_plus_at(left[0][1].n, parity, height, q0)
    dc = delta._c
    exps = set().union(*(f._c for _, f in left))
    cols = []
    for _, g in right:
        col = {}
        for e1 in exps:
            keys = (tuple(-a - b for a, b in zip(e1, e2)) for e2 in g._c)
            v = _gauss_dot(g._c.values(), map(dc.get, keys))
            if v != (0, 0):
                col[e1] = v
        cols.append(col)
    out = []
    for cf, f in left:
        row = []
        for (cg, g), col in zip(right, cols):
            re, im = _gauss_dot(f._c.values(), map(col.get, f._c))
            if re or im:
                den = f._d * g._d * delta._d
                scale = (cf * cg).as_qfraction().eval(q0)
                row.append(scale * GaussianRational(Fraction(re, den), Fraction(im, den)))
            else:
                row.append(GR_ZERO)
        out.append(row)
    return out


def _gauss_dot(xs, ys) -> tuple[int, int]:
    """sum of x * y over Gaussian integers (re, im), skipping a y of None."""
    re = im = 0
    for (xr, xi), y in zip(xs, ys):
        if y is not None:
            re += xr * y[0] - xi * y[1]
            im += xr * y[1] + xi * y[0]
    return re, im


def pairing_at(
    fs: Sequence, gs: Sequence, parity: str, q0: Fraction, conjugate: bool = True
) -> list:
    """Exact pairings <f, g> at q = q0 against the density of total mass 1:
    the integral of f * conj(g), or of f * g when not ``conjugate``, as
    GaussianRational values.  An entry that is nonzero with an odd power of
    sqrt(q0) raises ValueError.

    Each f and g is a SphericalValue prefactor * q_poly(lam) over a constant
    boundary factor, as ``transform_ch`` and ``psi`` build them.  For
    W-invariant h, Macdonald's constant-term identity (Affine Hecke Algebras
    and Orthogonal Polynomials, ch. 5) gives the integral of h as
    CT[h * Delta+], Delta+ the series above; it lives in the positive cone,
    so it is cut at the height of the products' support.  Since -1 lies in
    W, conj(g) on the torus is g with conjugated coefficients.  The identity
    holds for each q, so it holds at q0: every polynomial is taken at q0
    first, and paired on Gaussian integers.

    >>> m = pairing_at([psi(1, "odd", ())], [psi(1, "odd", (1,))], "odd", Fraction(3))
    >>> m[0][0].is_zero()
    True
    """
    left = [_split(f, q0) for f in fs]
    right = [_split(g, q0) for g in gs]
    return _pairings(left, right, parity, q0, conjugate)


def pairing_misses(mat: list, diagonal: Sequence) -> list:
    """(i, j, got, want) for each entry off the given diagonal and zero elsewhere."""
    return [
        (i, j, got, want)
        for i, row in enumerate(mat)
        for j, got in enumerate(row)
        if got != (want := diagonal[i] if i == j else 0)
    ]


def _normalizer(lam: tuple[int, ...], n: int, parity: str) -> PhasedScalar:
    """1 / W_lam, the factor that makes q_poly(lam) the orbit sum p_poly(lam)."""
    return PhasedScalar(0, 0, QFraction(QL_ONE, w_lambda_value(lam, n, parity)))


def gram_matrix(lams: Sequence[Sequence[int]], n: int, parity: str, q0: Fraction) -> list:
    """Exact pairwise inner products of the normalized orbit sums at q0."""
    lams = [check_partition(lam, n) for lam in lams]
    sums = [(_normalizer(lam, n, parity), _q_poly_at(n, parity, lam, q0)) for lam in lams]
    return _pairings(sums, sums, parity, q0, conjugate=True)


def volume(lam: Sequence[int], n: int, parity: str, q0: Fraction) -> Fraction:
    """The exact mass of the orbit labeled by the partition:

        q0 ** (-2 <lam, Re z0>)  *  W_0 / W_lam .

    >>> volume((1,), 1, "odd", Fraction(3))
    Fraction(8, 1)
    """
    expo = -2 * base_point_exponent(lam, n, parity)[0]
    if expo.denominator != 1:
        raise ArithmeticError("orbit exponent failed to be integral")
    return Fraction(q0) ** int(expo) * expected_gram_diagonal(lam, n, parity, q0)


def transform_ch(lam: Sequence[int], n: int, parity: str) -> SphericalValue:
    """The transform of the orbit indicator, exactly:

        q ** (-<lam, z0>)  *  p_poly(lam)  =  q ** (-<lam, z0>) / W_lam  *  q_poly(lam).

    The W-invariant polynomial part is the normalized orbit sum; the phased
    prefactor undoes the base-point power and carries its normalizer 1/W_lam.
    """
    lam = check_partition(lam, n)
    pre = phase_power(lam, n, parity).inverse() * _normalizer(lam, n, parity)
    return SphericalValue(n, parity, lam, pre, q_poly(n, parity, lam), FactoredRational(1))


def check_plancherel(lams: Sequence[Sequence[int]], n: int, parity: str, q0: Fraction) -> dict:
    """Exact pairings of transforms at q0, against the orbit masses on the
    diagonal and zero off it: the matrix and its misses."""
    vals = [transform_ch(lam, n, parity) for lam in lams]
    mat = pairing_at(vals, vals, parity, q0)
    masses = [volume(lam, n, parity, q0) for lam in lams]
    return {"matrix": mat, "misses": pairing_misses(mat, masses)}


def check_inversion(lams: Sequence[Sequence[int]], n: int, parity: str, q0: Fraction) -> dict:
    """Unconjugated exact pairing of each transform against each plain
    kernel at q0; the result must be the identity matrix."""
    fs = [transform_ch(lam, n, parity) for lam in lams]
    ks = [psi(n, parity, lam) for lam in lams]
    mat = pairing_at(fs, ks, parity, q0, conjugate=False)
    return {"matrix": mat, "misses": pairing_misses(mat, [1] * len(lams))}


def _det(rows: Sequence[Sequence[GaussianRational]]) -> GaussianRational:
    """The determinant of a square matrix over Q(i); zero when singular.

    Each row is scaled to Gaussian integers by the lcm of its denominators,
    and Bareiss' fraction-free elimination runs on those: each step's
    division by the previous pivot P is exact in Z[i], as the product with
    conj(P) over |P|^2."""
    m, scale = [], 1
    for r in rows:
        d = math.lcm(*(x.denominator for v in r for x in (v.re, v.im)))
        scale *= d
        m.append([(int(v.re * d), int(v.im * d)) for v in r])
    size = len(m)
    (pr, pi), sign = (1, 0), 1
    for col in range(size):
        piv = next((r for r in range(col, size) if m[r][col] != (0, 0)), None)
        if piv is None:
            return GR_ZERO
        if piv != col:
            m[col], m[piv] = m[piv], m[col]
            sign = -sign
        top = m[col]
        tr, ti = top[col]
        norm = pr * pr + pi * pi
        for row in m[col + 1 :]:
            er, ei = row[col]
            for c in range(col + 1, size):
                (ar, ai), (br, bi) = row[c], top[c]
                # row[c] * top[col] - row[col] * top[c], then times conj(P) / |P|^2
                xr = ar * tr - ai * ti - er * br + ei * bi
                xi = ar * ti + ai * tr - er * bi - ei * br
                row[c] = ((xr * pr + xi * pi) // norm, (xi * pr - xr * pi) // norm)
        pr, pi = tr, ti
    return GaussianRational(Fraction(sign * pr, scale), Fraction(sign * pi, scale))


def basis_partitions(n: int) -> list[tuple[int, ...]]:
    """The 2^n partitions used for the evaluation-rank certificate: the sums
    of distinct fundamental weights omega_i = (1^i, 0^(n-i)), i in 1..n.

    Their consecutive parts differ by 0 or 1 and their last part is 0 or 1.
    They are ordered by largest part, then weight, then lexicographically.
    ``basis_rank_check`` certifies that their orbit sums are independent.

    >>> basis_partitions(2)
    [(0, 0), (1, 0), (1, 1), (2, 1)]
    """
    lams = [
        tuple(sum(steps[i:]) for i in range(n))
        for steps in itertools.product((0, 1), repeat=n)
    ]
    return sorted(lams, key=lambda lam: (lam[0], sum(lam), lam))


def basis_rank_check(
    n: int, parity: str, q0: Fraction, seed: int = 0, trials: int = 5
) -> dict:
    """Evaluate the 2^n kernels exactly at random rational points and their
    sign flips; each square matrix must be nonsingular over Q(i).  The
    kernels are nonzero multiples of the orbit sums, which are evaluated
    instead.  A point where the determinant is exactly zero is resampled, up
    to eight times per trial; ``dets`` holds the |det| of each certified
    point as a float."""
    if trials < 1:
        raise ValueError("at least one trial is needed")
    rng = random.Random(seed)
    polys = [_q_poly_at(n, parity, lam, q0) for lam in basis_partitions(n)]
    dets = []
    for _ in range(trials):
        for _ in range(8):
            xs = [Fraction(rng.randrange(2, 60), rng.randrange(2, 60)) for _ in range(n)]
            det = _det([f.flip_values(xs) for f in polys])
            if not det.is_zero():
                dets.append(math.sqrt(det.abs2()))
                break
        else:
            return {"ok": False, "dets": dets}
    return {"ok": True, "dets": dets}
