import itertools
from fractions import Fraction

import pytest

from hermlab.scalars import GaussianRational, QLaurent
from hermlab.weyl import (
    SignedPerm,
    coordinate_flip,
    enumerate_group,
    inversion_counts,
    length,
    long_positive_roots,
    negated_positive_set,
    poincare_poly,
    positive_roots,
    short_positive_roots,
    stabilizer,
)

Q = QLaurent.gen()


def test_group_sizes():
    assert len(enumerate_group(1)) == 2
    assert len(enumerate_group(2)) == 8
    assert len(enumerate_group(3)) == 48
    assert len(set(enumerate_group(3))) == 48


def test_identity_first_and_deterministic():
    g = enumerate_group(2)
    assert g[0] == SignedPerm.identity(2)
    assert g == enumerate_group(2)


def test_composition_matches_action():
    for a, b in itertools.product(enumerate_group(2), repeat=2):
        v = (3, -7)
        assert (a * b).act_vector(v) == a.act_vector(b.act_vector(v))


def test_inverses():
    for g in enumerate_group(2):
        assert g * g.inverse() == SignedPerm.identity(g.n)
        assert g.inverse() * g == SignedPerm.identity(g.n)


def test_root_counts():
    for n in (1, 2, 3):
        assert len(short_positive_roots(n)) == n * (n - 1)
        assert len(long_positive_roots(n)) == n


def test_action_permutes_all_roots():
    n = 2
    allr = set(positive_roots(n)) | {tuple(-c for c in r) for r in positive_roots(n)}
    for g in enumerate_group(n):
        assert {g.act_vector(r) for r in allr} == allr


def simple_reflections(n):
    """The n - 1 adjacent transpositions and the last-coordinate sign flip."""
    gens = []
    for i in range(n - 1):
        perm = list(range(n))
        perm[i], perm[i + 1] = perm[i + 1], perm[i]
        gens.append(SignedPerm(tuple(perm), (1,) * n))
    gens.append(coordinate_flip(n))
    return gens


# Coxeter length from the root system must agree with the word metric:
# BFS over the Cayley graph of the simple reflections.
def test_length_equals_word_metric():
    n = 3
    gens = simple_reflections(n)
    dist = {SignedPerm.identity(n): 0}
    frontier = [SignedPerm.identity(n)]
    while frontier:
        nxt = []
        for g in frontier:
            for s in gens:
                h = g * s
                if h not in dist:
                    dist[h] = dist[g] + 1
                    nxt.append(h)
        frontier = nxt
    assert len(dist) == 48
    for g, d in dist.items():
        assert length(g) == d


def test_negated_set_of_flip():
    tau = coordinate_flip(1)
    assert negated_positive_set(tau, include_long=True) == [(2,)]
    assert negated_positive_set(tau, include_long=False) == []
    tau2 = coordinate_flip(2)
    assert negated_positive_set(tau2, include_long=True) == [(0, 2)]


def test_longest_element_negates_everything():
    n = 2
    w0 = SignedPerm(tuple(range(n)), (-1,) * n)
    s, l = inversion_counts(w0)
    assert s == n * (n - 1) and l == n


def test_stabilizer_sizes():
    assert len(stabilizer((0,), 1)) == 2
    assert len(stabilizer((1,), 1)) == 1
    assert len(stabilizer((1, 1), 2)) == 2
    assert len(stabilizer((2, 1), 2)) == 1
    assert len(stabilizer((1, 0), 2)) == 2
    assert len(stabilizer((0, 0, 0), 3)) == 48


def test_poincare_whole_group_rank1():
    # W(C_1) = {1, flip}: 1 + t_long
    ts = QLaurent.const(Fraction(-1, 3))        # t_s = -1/q at q=3
    tl = QLaurent.const(Fraction(-1, 9))        # t_l = -1/q^2
    w = poincare_poly(enumerate_group(1), ts, tl)
    assert w == QLaurent.const(Fraction(8, 9))  # 1 - q^-2 at q=3


def test_poincare_stabilizer_example():
    # stabilizer of (1,1) in rank 2 is {id, swap}: 1 + t_s
    ts = QLaurent.const(Fraction(-1, 3))
    tl = QLaurent.const(Fraction(-1, 9))
    w = poincare_poly(stabilizer((1, 1), 2), ts, tl)
    assert w == QLaurent.const(Fraction(2, 3))  # 1 - q^-1 at q=3


def test_poincare_symbolic_rank2():
    # whole group, both parameters = q: classical (1+q)^2 (1+q+q^2+q^3) ... check degree
    w = poincare_poly(enumerate_group(2), Q, Q)
    assert dict(w.items())[0] == GaussianRational(1)
    assert max(e for e, _ in w.items()) == 4  # longest element has length n^2 = 4
    assert sum(1 for _ in w.items()) == 5


def test_enumerate_bounds():
    with pytest.raises(ValueError):
        enumerate_group(0)
    with pytest.raises(ValueError):
        enumerate_group(7)
