"""Symmetric orbit sums with parameter on the n-torus.

The central object is ``q_poly``: the parameter-deformed orbit sum attached
to a partition.  It is computed in alternating form, as
q_poly = sum_mu C_mu Q_mu over strictly dominant weights mu.  The
alternating sum over the signed permutations of a product kernel of n^2
binomials is straightened onto those weights; that gives the coefficients
C_mu, Laurent polynomials in q (``q_poly_coefficients``).  Q_mu is the
alternant of mu divided exactly by the Weyl denominator prod over positive
roots a of (1 - x^(-a)): the symplectic character sp_(mu - rho), with
integer coefficients and no q, built once per (n, mu) and shared by every
partition and parity (``_alternant_quotient``).  ``p_poly`` renormalizes
by the stabilizer counting series so the leading orbit coefficient is 1.

Two specializations of the (short, long) parameters occur throughout, tied
to the residue side being odd- or even-dimensional; ``spec_params`` fixes
them once and for all:

    short  t_s = -1/q          (both cases)
    long   t_l = -1/q^2  (odd)     or     1/q  (even)
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from functools import lru_cache
from typing import Sequence, Tuple

from .scalars import QFraction, QLaurent, _ql
from .torus import TorusPoly, Vec, binomial_div_exact
from .weyl import (
    SignedPerm,
    enumerate_group,
    length,
    long_positive_roots,
    short_positive_roots,
)

PARITIES = ("odd", "even")


def spec_params(parity: str) -> Tuple[QLaurent, QLaurent]:
    """The (short, long) parameter pair as exact Laurent polynomials in q."""
    q = QLaurent.gen()
    if parity == "odd":
        return -(q**-1), -(q**-2)
    if parity == "even":
        return -(q**-1), q**-1
    raise ValueError(f"parity must be 'odd' or 'even', not {parity!r}")


def check_partition(lam: Sequence[int], n: int) -> Tuple[int, ...]:
    """Validate and pad a partition to exactly n parts."""
    lam = tuple(int(x) for x in lam)
    if any(a < 0 for a in lam):
        raise ValueError(f"negative part in {lam}")
    if any(lam[i] < lam[i + 1] for i in range(len(lam) - 1)):
        raise ValueError(f"parts must be weakly decreasing: {lam}")
    if len(lam) > n and any(a != 0 for a in lam[n:]):
        raise ValueError(f"partition {lam} has more than {n} nonzero parts")
    return (lam + (0,) * n)[:n]


def partitions(n: int, max_weight: int) -> list[Tuple[int, ...]]:
    """The partitions with at most n parts and weight at most max_weight,
    padded to n parts; by weight, and within a weight largest first.

    >>> partitions(2, 2)
    [(0, 0), (1, 0), (2, 0), (1, 1)]
    """

    def of_weight(weight: int, length: int, cap: int):
        if weight == 0:
            yield (0,) * length
            return
        if length == 0:
            return
        for first in range(min(weight, cap), 0, -1):
            for rest in of_weight(weight - first, length - 1, first):
                yield (first,) + rest

    return [lam for weight in range(max_weight + 1) for lam in of_weight(weight, n, weight)]


@lru_cache(maxsize=None)
def _kernel_ints(n: int, t_short: QLaurent, t_long: QLaurent) -> tuple[dict, int]:
    """prod over positive roots a of (1 - t_a x^a), the part of the q_poly
    kernel that does not depend on the partition, as a map from x-exponents
    to the Gaussian-integer numerators {q-exponent: (re, im)} of their
    coefficients over one denominator."""
    terms: dict[Vec, dict[int, tuple[int, int]]] = {(0,) * n: {0: (1, 0)}}
    den = 1
    for t, roots in ((t_short, short_positive_roots(n)), (t_long, long_positive_roots(n))):
        td, tc = t._d, list(t._c.items())
        for a in roots:
            # times (td - t*td x^a) / td
            out: dict[Vec, dict[int, tuple[int, int]]] = {}
            for e, c in terms.items():
                row = out.setdefault(e, {})
                for k, (re, im) in c.items():
                    _add_to(row, k, re * td, im * td)
                row = out.setdefault(tuple(map(operator.add, e, a)), {})
                for k, (re, im) in c.items():
                    for j, (tr, ti) in tc:
                        _add_to(row, k + j, ti * im - tr * re, -tr * im - ti * re)
            terms = {e: c for e, c in out.items() if c}
            den *= td
    return terms, den


def _add_to(row: dict, k: int, re: int, im: int) -> None:
    """row[k] += (re, im), dropping a sum that is zero."""
    t = row.get(k)
    if t is not None:
        re += t[0]
        im += t[1]
        if not (re or im):
            del row[k]
            return
    elif not (re or im):
        return
    row[k] = (re, im)


def q_poly_coefficients(
    n: int, lam: Tuple[int, ...], t_short: QLaurent, t_long: QLaurent
) -> dict[Tuple[int, ...], QLaurent]:
    """The coefficients C_mu of q_poly = sum_mu C_mu Q_mu over the strictly
    dominant weights mu, for a partition padded to n parts; the C_mu that
    are zero are left out.

    Alternating form.  With rho = (n, ..., 1), half the sum of the positive
    roots, and N = n^2 positive roots,
      prod over positive roots a of (1 - x^a) = (-1)^N x^rho * A,
    where w(A) = det(w) A.  Clearing that denominator from the orbit sum of
    x^(-lam) * prod(1 - t_a x^a) / (1 - x^a) gives
      q_poly = (-1)^N x^(-rho) * sum_w det(w) w(K) / prod_{a>0} (1 - x^(-a)),
      K = x^(-lam-rho) * prod_{a>0} (1 - t_a x^a).

    The alternating sum is straightened (Macdonald, Symmetric Functions,
    ch. III) rather than summed over W term by term.  For a term x^e of K,
    sum_w det(w) x^(w e) is 0 when a reflection fixes e (a zero part, or
    two parts of equal size); otherwise e = v(mu) for the strictly dominant
    mu = |e| sorted decreasingly, and the sum is det(v) A_mu with
    A_mu = sum_w det(w) x^(w mu) and det(v) = (-1)^(negative parts +
    inversions of |e|).  C_mu collects these, times the overall (-1)^N, and
    Q_mu = x^(-rho) A_mu / prod_{a>0} (1 - x^(-a)) (``_alternant_quotient``).
    K's product part is shared by every partition (``_kernel_ints``); the
    monomial in front only shifts its exponents by -lam-rho.

    >>> q_poly_coefficients(1, (1,), *spec_params("odd"))
    {(2,): QLaurent({0: GaussianRational(1, 0)})}
    """
    kernel, den = _kernel_ints(n, t_short, t_long)
    shift = tuple(-v - n + i for i, v in enumerate(lam))
    coef: dict[Tuple[int, ...], dict[int, tuple[int, int]]] = {}
    for e, c in kernel.items():
        e = tuple(map(operator.add, e, shift))
        mags = tuple(abs(v) for v in e)
        if 0 in mags or len(set(mags)) < n:
            continue
        flips = n * n + sum(v < 0 for v in e)
        flips += sum(mags[i] < mags[j] for i in range(n) for j in range(i + 1, n))
        row = coef.setdefault(tuple(sorted(mags, reverse=True)), {})
        sign = -1 if flips % 2 else 1
        for k, (re, im) in c.items():
            _add_to(row, k, sign * re, sign * im)
    return {mu: _ql(c, den) for mu, c in coef.items() if c}


@lru_cache(maxsize=None)
def _signed_group(n: int) -> list[tuple[SignedPerm, int]]:
    """The signed permutations with their determinants (-1)^length."""
    return [(g, -1 if length(g) % 2 else 1) for g in enumerate_group(n)]


@lru_cache(maxsize=None)
def _alternant_quotient(n: int, mu: Tuple[int, ...]) -> dict[Vec, int]:
    """Q_mu = sum_w det(w) x^(w mu - rho) / prod over positive roots a of
    (1 - x^(-a)), for a strictly dominant mu, as {exponent: int}.

    By Weyl's character formula for C_n, Q_mu is the symplectic character
    sp_(mu - rho), so the quotient is exact and its coefficients are the
    weight multiplicities.  It depends neither on q nor on the parity, and
    every orbit sum q_poly = sum_mu C_mu Q_mu reads it from this cache.
    The result is shared: do not change it.

    >>> _alternant_quotient(1, (2,))
    {(1,): 1, (-1,): 1}
    """
    rho = tuple(range(n, 0, -1))
    f = {tuple(v - r for v, r in zip(g.act_vector(mu), rho)): d for g, d in _signed_group(n)}
    # the long roots first: at n = 4 the intermediate quotients then hold
    # about 10 % fewer terms than in the order of positive_roots
    for a in long_positive_roots(n) + short_positive_roots(n):
        f = binomial_div_exact(f, tuple(-v for v in a))
    return f


def _alternant_sum(n: int, coefs) -> dict[Vec, tuple[int, int]]:
    """sum_mu c_mu Q_mu for Gaussian integers c_mu, given as (mu, re, im)
    triples, as {exponent: (re, im)} with the zero sums left out.  Both the
    symbolic q_poly and its value at one q0 (``plancherel``) are this sum."""
    re_acc: dict[Vec, int] = {}
    im_acc: dict[Vec, int] = {}
    for mu, re, im in coefs:
        Q = _alternant_quotient(n, mu)
        for acc, c in ((re_acc, re), (im_acc, im)):
            if c:
                get = acc.get
                for e, v in Q.items():
                    acc[e] = get(e, 0) + c * v
    if not im_acc:
        return {e: (re, 0) for e, re in re_acc.items() if re}
    out = {}
    for e in (*re_acc, *(e for e in im_acc if e not in re_acc)):
        re, im = re_acc.get(e, 0), im_acc.get(e, 0)
        if re or im:
            out[e] = (re, im)
    return out


@lru_cache(maxsize=None)
def _q_poly_cached(n: int, lam: Tuple[int, ...], t_short: QLaurent, t_long: QLaurent) -> TorusPoly:
    # sum_mu C_mu Q_mu, one q-exponent at a time over the common denominator
    # of the C_mu; each coefficient becomes a QFraction once, at the end
    coefs = q_poly_coefficients(n, lam, t_short, t_long)
    den = math.lcm(*(c._d for c in coefs.values()))
    by_power: dict[int, list] = {}
    for mu, c in coefs.items():
        s = den // c._d
        for k, (re, im) in c._c.items():
            by_power.setdefault(k, []).append((mu, re * s, im * s))
    rows: dict[Vec, dict[int, tuple[int, int]]] = {}
    for k, part in by_power.items():
        for e, v in _alternant_sum(n, part).items():
            rows.setdefault(e, {})[k] = v
    return TorusPoly(n, {e: QFraction(_ql(row, den)) for e, row in rows.items()})


def q_poly(n: int, parity: str, lam: Sequence[int]) -> TorusPoly:
    """The parameter orbit sum for a partition at the parity specialization.

    >>> str(q_poly(1, "odd", (1,)))
    'x + x^{-1}'
    >>> str(q_poly(1, "odd", ()))
    '1 - q^{-2}'
    """
    t_short, t_long = spec_params(parity)
    return _q_poly_cached(n, check_partition(lam, n), t_short, t_long)


def w_poly(m: int, t: QLaurent) -> QLaurent:
    """prod_{i=1..m} (1 - t^i); the empty product for m = 0.

    >>> q = QLaurent.gen()
    >>> w_poly(2, -(q**-1)).eval(Fraction(3))
    GaussianRational(32/27, 0)
    """
    if m < 0:
        raise ValueError("m must be nonnegative")
    out = QLaurent.const(1)
    for i in range(1, m + 1):
        out = out * (QLaurent.const(1) - t**i)
    return out


def part_multiplicities(lam: Sequence[int], n: int) -> dict[int, int]:
    """Multiplicity of each value among the n padded parts (0 included)."""
    lam = check_partition(lam, n)
    mult: dict[int, int] = {}
    for a in lam:
        mult[a] = mult.get(a, 0) + 1
    return mult


def w_tilde(lam: Sequence[int], n: int, t: QLaurent, delta: int = 1) -> QLaurent:
    """The stabilizer counting series in closed form:

        w_tilde = w_{m0 + delta} * prod over all values v >= 0 of w_{m_v},

    where m_v is the multiplicity of the part v (m0 counts zero parts);
    delta is 1 in the odd case and 0 in the even case.

    >>> q = QLaurent.gen()
    >>> w_tilde((), 1, q) == w_poly(1, q) * w_poly(2, q)
    True
    >>> w_tilde((1,), 1, q) == (1 - q) * (1 - q)
    True
    """
    mult = part_multiplicities(lam, n)
    out = w_poly(mult.get(0, 0) + delta, t)
    for m in mult.values():
        out = out * w_poly(m, t)
    return out


def w_lambda_value(lam: Sequence[int], n: int, parity: str) -> QLaurent:
    """Poincare series of the stabilizer of the partition, at the parity
    specialization, in closed form: w_tilde / (1 - t)^(n + delta) with
    t = -1/q, divided exactly.  The enumeration
    ``poincare_poly(stabilizer(lam, n), *spec_params(parity))`` is its
    reference in the ``stabilizer-closed-form`` check and the test suite.

    >>> w_lambda_value((), 1, "odd").eval(Fraction(3))
    GaussianRational(8/9, 0)
    """
    return _w_lambda_cached(check_partition(lam, n), n, parity)


@lru_cache(maxsize=None)
def _w_lambda_cached(lam: Tuple[int, ...], n: int, parity: str) -> QLaurent:
    t, _ = spec_params(parity)
    delta = 1 if parity == "odd" else 0
    return w_tilde(lam, n, t, delta).divexact((1 - t) ** (n + delta))


def whole_group_value(n: int, parity: str) -> QLaurent:
    """Poincare series of the full signed-permutation group at the parity
    specialization (equals the constant orbit sum q_poly of the empty
    partition)."""
    return w_lambda_value((), n, parity)


def p_poly(n: int, parity: str, lam: Sequence[int]) -> TorusPoly:
    """Orbit sum normalized so x^lam has coefficient 1:  q_poly / W_lam.

    >>> str(p_poly(1, "odd", ()))
    '1'
    >>> str(p_poly(1, "even", (2,)))
    'x^2 + 1 - q^{-1} + x^{-2}'
    """
    lam = check_partition(lam, n)
    w = w_lambda_value(lam, n, parity)
    return q_poly(n, parity, lam) * QFraction(QLaurent.const(1), w)
