"""The hyperoctahedral group (signed permutations) and its root data.

Elements act on integer exponent vectors of length n by permuting
coordinates and flipping signs.  The root system is the usual type-C one:
short roots ``e_i +- e_j`` (i < j) and long roots ``2 e_i``; a root is
positive exactly when its first nonzero coordinate is positive.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Sequence, Tuple

from .scalars import QLaurent

Vec = Tuple[int, ...]


class SignedPerm:
    """A signed permutation on n letters.

    ``perm`` and ``signs`` are n-tuples; the action on a vector is

        (sigma v)[i] = signs[i] * v[perm[i]]

    >>> s = SignedPerm((1, 0), (1, -1))
    >>> s.act_vector((3, 5))
    (5, -3)
    >>> s * s.inverse() == SignedPerm.identity(2)
    True
    """

    __slots__ = ("perm", "signs")

    def __init__(self, perm: Sequence[int], signs: Sequence[int]):
        perm = tuple(perm)
        signs = tuple(signs)
        n = len(perm)
        if sorted(perm) != list(range(n)):
            raise ValueError(f"not a permutation of 0..{n - 1}: {perm}")
        if len(signs) != n or any(s not in (1, -1) for s in signs):
            raise ValueError(f"signs must be +-1 of length {n}: {signs}")
        object.__setattr__(self, "perm", perm)
        object.__setattr__(self, "signs", signs)

    def __setattr__(self, name, value):  # pragma: no cover - defensive
        raise AttributeError("SignedPerm is immutable")

    @staticmethod
    def identity(n: int) -> "SignedPerm":
        return SignedPerm(tuple(range(n)), (1,) * n)

    @property
    def n(self) -> int:
        return len(self.perm)

    def act_vector(self, v: Sequence[int]) -> Vec:
        return tuple(self.signs[i] * v[self.perm[i]] for i in range(self.n))

    def __mul__(self, other: "SignedPerm") -> "SignedPerm":
        """Composition: (self * other)(v) = self(other(v))."""
        if not isinstance(other, SignedPerm):
            return NotImplemented
        sp, ss = self.perm, self.signs
        tp, ts = other.perm, other.signs
        return SignedPerm(
            tuple(tp[sp[i]] for i in range(self.n)),
            tuple(ss[i] * ts[sp[i]] for i in range(self.n)),
        )

    def inverse(self) -> "SignedPerm":
        inv = [0] * self.n
        isg = [1] * self.n
        for i, p in enumerate(self.perm):
            inv[p] = i
            isg[p] = self.signs[i]
        return SignedPerm(tuple(inv), tuple(isg))

    def __eq__(self, other):
        if not isinstance(other, SignedPerm):
            return NotImplemented
        return self.perm == other.perm and self.signs == other.signs

    def __hash__(self):
        return hash((self.perm, self.signs))

    def __repr__(self):
        return f"SignedPerm({self.perm}, {self.signs})"


def enumerate_group(n: int) -> list[SignedPerm]:
    """All 2^n n! signed permutations; deterministic, identity first.

    >>> enumerate_group(2)[0] == SignedPerm.identity(2)
    True
    >>> len(enumerate_group(3))
    48
    """
    if not 1 <= n <= 6:
        raise ValueError("group enumeration supported for 1 <= n <= 6")
    out = []
    for perm in itertools.permutations(range(n)):
        for signs in itertools.product((1, -1), repeat=n):
            out.append(SignedPerm(perm, signs))
    return out


def coordinate_flip(n: int) -> SignedPerm:
    """The simple sign flip on the last coordinate."""
    return SignedPerm(tuple(range(n)), (1,) * (n - 1) + (-1,))


# -- roots ------------------------------------------------------------------

def short_positive_roots(n: int) -> list[Vec]:
    """e_i - e_j and e_i + e_j for i < j, n(n-1) in total."""
    roots = []
    for i in range(n):
        for j in range(i + 1, n):
            minus = [0] * n
            minus[i], minus[j] = 1, -1
            plus = [0] * n
            plus[i], plus[j] = 1, 1
            roots.append(tuple(minus))
            roots.append(tuple(plus))
    return roots


def long_positive_roots(n: int) -> list[Vec]:
    """2 e_i for each i."""
    roots = []
    for i in range(n):
        r = [0] * n
        r[i] = 2
        roots.append(tuple(r))
    return roots


def positive_roots(n: int) -> list[Vec]:
    return short_positive_roots(n) + long_positive_roots(n)


def is_positive_vec(v: Sequence[int]) -> bool:
    for c in v:
        if c:
            return c > 0
    return False


def negated_positive_set(sigma: SignedPerm, include_long: bool) -> list[Vec]:
    """Positive roots sent to negative ones by ``sigma``.

    Always scans the short positive roots; includes the long ones only when
    ``include_long`` is set.

    >>> tau = coordinate_flip(2)
    >>> negated_positive_set(tau, include_long=True)
    [(0, 2)]
    >>> negated_positive_set(tau, include_long=False)
    []
    """
    n = sigma.n
    roots = short_positive_roots(n)
    if include_long:
        roots = roots + long_positive_roots(n)
    return [a for a in roots if not is_positive_vec(sigma.act_vector(a))]


_INVERSIONS: dict[tuple[Vec, Vec], tuple[int, int]] = {}


def inversion_counts(sigma: SignedPerm) -> tuple[int, int]:
    """(#short positive roots negated, #long positive roots negated), counted
    once per element.

    sigma sends e_i to s_i e_k, k = k_i the place that perm holds i at and
    s_i the sign there.  So 2 e_i is negated when s_i = -1, and for i < j
    both of e_i - e_j, e_i + e_j are negated when k_i < k_j and s_i = -1,
    exactly one of them when k_i > k_j.
    """
    key = (sigma.perm, sigma.signs)
    counts = _INVERSIONS.get(key)
    if counts is None:
        place = [0] * sigma.n
        for k, i in enumerate(sigma.perm):
            place[i] = k
        short = 0
        for i, k in enumerate(place):
            for l in place[i + 1:]:
                short += 1 if k > l else 2 if sigma.signs[k] < 0 else 0
        counts = _INVERSIONS[key] = (short, sigma.signs.count(-1))
    return counts


def length(sigma: SignedPerm) -> int:
    """Coxeter length = total number of negated positive roots."""
    s, l = inversion_counts(sigma)
    return s + l


def stabilizer(lam: Sequence[int], n: int) -> list[SignedPerm]:
    """Group elements fixing the vector ``lam`` (padded to length n).

    >>> len(stabilizer((1, 1), 2))
    2
    >>> len(stabilizer((0, 0), 2))
    8
    """
    v = tuple(lam) + (0,) * (n - len(lam))
    return [g for g in enumerate_group(n) if g.act_vector(v) == v]


def poincare_poly(elems: Iterable[SignedPerm], t_short: QLaurent, t_long: QLaurent) -> QLaurent:
    """Sum of t_short^(short inversions) * t_long^(long inversions), one
    term per pair of counts times the elements that have it.

    >>> from fractions import Fraction
    >>> w = poincare_poly(enumerate_group(1), QLaurent.const(0), QLaurent.gen())
    >>> str(w)
    'q + 1'
    """
    pairs: dict[tuple[int, int], int] = {}
    for g in elems:
        key = inversion_counts(g)
        pairs[key] = pairs.get(key, 0) + 1
    total = QLaurent()
    for (s, l), count in pairs.items():
        total = total + count * t_short**s * t_long**l
    return total
