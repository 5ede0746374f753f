"""Symmetric orbit sums with parameter on the n-torus.

The central object is ``q_poly``: the parameter-deformed orbit sum attached
to a partition.  It is computed in alternating form: the alternating sum
over the signed permutations of a product kernel of n^2 binomials is
straightened onto strictly dominant weights, and the sum is divided once,
exactly, by the Weyl denominator prod over positive roots a of
(1 - x^(-a)).  ``p_poly`` renormalizes by the stabilizer counting series so
the leading orbit coefficient is 1.

Two specializations of the (short, long) parameters occur throughout, tied
to the residue side being odd- or even-dimensional; ``spec_params`` fixes
them once and for all:

    short  t_s = -1/q          (both cases)
    long   t_l = -1/q^2  (odd)     or     1/q  (even)
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import Sequence, Tuple

from .scalars import QFraction, QLaurent
from .torus import Binomial, TorusPoly, binomial_div_exact
from .weyl import (
    enumerate_group,
    length,
    long_positive_roots,
    poincare_poly,
    positive_roots,
    short_positive_roots,
    stabilizer,
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
def _kernel_product(n: int, t_short: QLaurent, t_long: QLaurent) -> TorusPoly:
    """prod over positive roots a of (1 - t_a x^a), the part of the q_poly
    kernel that does not depend on the partition."""
    P = TorusPoly.const(n, 1)
    for a in short_positive_roots(n):
        P = P * Binomial(t_short, a).as_poly()
    for a in long_positive_roots(n):
        P = P * Binomial(t_long, a).as_poly()
    return P


@lru_cache(maxsize=None)
def _q_poly_cached(n: int, lam: Tuple[int, ...], t_short: QLaurent, t_long: QLaurent) -> TorusPoly:
    # Alternating form.  With rho = (n, ..., 1), half the sum of the positive
    # roots, and N = n^2 positive roots,
    #   prod over positive roots a of (1 - x^a) = (-1)^N x^rho * A,
    # where w(A) = det(w) A.  Clearing that denominator from the orbit sum of
    # x^(-lam) * prod(1 - t_a x^a) / (1 - x^a) gives
    #   q_poly = (-1)^N x^(-rho) * sum_w det(w) w(K) / prod_{a>0} (1 - x^(-a)),
    #   K = x^(-lam-rho) * prod_{a>0} (1 - t_a x^a),
    # so n^2 exact binomial divisions finish the job.
    #
    # The alternating sum is straightened (Macdonald, Symmetric Functions,
    # ch. III) rather than summed over W term by term.  For a term x^e of K,
    # sum_w det(w) x^(w e) is 0 when a reflection fixes e (a zero part, or
    # two parts of equal size); otherwise e = v(mu) for the strictly dominant
    # mu = |e| sorted decreasingly, and the sum is det(v) A_mu with
    # A_mu = sum_w det(w) x^(w mu) and det(v) = (-1)^(negative parts +
    # inversions of |e|).  coef[mu] = C_mu collects these, times the overall
    # (-1)^N, and the sum is then sum_mu C_mu A_mu: the orbits of distinct
    # mu are disjoint and free, so each of its monomials is written once.
    #
    # K's product part is shared by every partition (_kernel_product); the
    # monomial in front only shifts its exponents by -lam-rho.
    rho = tuple(range(n, 0, -1))
    shift = tuple(-v - r for v, r in zip(lam, rho))
    coef: dict[Tuple[int, ...], QFraction] = {}
    for e, c in _kernel_product(n, t_short, t_long).terms():
        e = tuple(v + d for v, d in zip(e, shift))
        mags = tuple(abs(v) for v in e)
        if 0 in mags or len(set(mags)) < n:
            continue
        flips = n * n + sum(v < 0 for v in e)
        flips += sum(mags[i] < mags[j] for i in range(n) for j in range(i + 1, n))
        mu = tuple(sorted(mags, reverse=True))
        if flips % 2:
            c = -c
        s = coef.get(mu)
        coef[mu] = c if s is None else s + c
    coef_pairs = [(mu, c) for mu, c in coef.items() if not c.is_zero()]
    neg_pairs = [(mu, -c) for mu, c in coef_pairs]

    acc: dict[Tuple[int, ...], QFraction] = {}
    for g in enumerate_group(n):
        for mu, c in neg_pairs if length(g) % 2 else coef_pairs:
            acc[tuple(v - r for v, r in zip(g.act_vector(mu), rho))] = c

    out = TorusPoly(n, acc)
    for a in positive_roots(n):
        out = binomial_div_exact(out, 1, tuple(-v for v in a))
    return out


def q_poly(
    n: int,
    parity: str | None,
    lam: Sequence[int],
    t_short: QLaurent | None = None,
    t_long: QLaurent | None = None,
) -> TorusPoly:
    """The parameter orbit sum for a partition (at a parity specialization,
    or at explicitly supplied parameters).

    >>> str(q_poly(1, "odd", (1,)))
    'x + x^{-1}'
    >>> str(q_poly(1, "odd", ()))
    '1 - q^{-2}'
    """
    if (t_short is None) != (t_long is None):
        raise ValueError("supply both parameters or neither")
    if t_short is None:
        if parity is None:
            raise ValueError("need a parity when no explicit parameters are given")
        t_short, t_long = spec_params(parity)
    lam = check_partition(lam, n)
    return _q_poly_cached(n, lam, t_short, t_long)


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


def w_tilde(lam: Sequence[int], n: int, t: QLaurent) -> QLaurent:
    """The stabilizer counting series in closed form:

        w_tilde = w_{m0 + 1} * prod over all values v >= 0 of w_{m_v},

    where m_v is the multiplicity of the part v (m0 counts zero parts).

    >>> q = QLaurent.gen()
    >>> w_tilde((), 1, q) == w_poly(1, q) * w_poly(2, q)
    True
    >>> w_tilde((1,), 1, q) == (1 - q) * (1 - q)
    True
    """
    mult = part_multiplicities(lam, n)
    m0 = mult.get(0, 0)
    out = w_poly(m0 + 1, t)
    for v, m in mult.items():
        out = out * w_poly(m, t)
    return out


def w_lambda_value(lam: Sequence[int], n: int, parity: str) -> QLaurent:
    """Poincare series of the stabilizer of the partition, at the parity
    specialization.  Computed by direct enumeration (the closed form via
    ``w_tilde`` is checked against this in the test suite).

    >>> w_lambda_value((), 1, "odd").eval(Fraction(3))
    GaussianRational(8/9, 0)
    """
    t_short, t_long = spec_params(parity)
    lam = check_partition(lam, n)
    return poincare_poly(stabilizer(lam, n), t_short, t_long)


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
