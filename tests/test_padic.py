import hashlib
import json
import math
import random
import signal
from fractions import Fraction

import numpy as np
import pytest

from hermlab import padic
from hermlab.errors import InexactDivision, PrecisionError, ResourceLimit
from hermlab.padic import (
    LocalMatrix,
    assert_unitary,
    classify_g_orbit,
    classify_k_orbit,
    diagonalize_x1,
    hensel_norm_solve,
    invariant_factors,
    is_member_X,
    j_matrix,
    random_k,
    t_diag,
    x_lambda,
)
from hermlab.hall_littlewood import partitions
from hermlab.residue import (
    ENUMERATION_BOUND,
    LocalField,
    _assert_isotropic_row,
    _cell_factor,
    _diag_units,
    _isotropic_row,
    _mc_valuation_histogram,
    k1_cell_counts,
    monte_carlo_omega1,
    norm_count,
    norm_residual,
    omega_n1_closed,
    pair_unitary,
    pconj,
    pmatmul,
    pmul,
    pnorm,
    pstar,
    punit_inverse,
    pval,
    pzero,
    smallest_nonresidue,
)
from hermlab.scalars import QFraction, QLaurent
from hermlab.spherical import omega_rank1_s_form

F3 = LocalField(3)
F5 = LocalField(5)
F7 = LocalField(7)


# -- the Fraction-pair exact scalar, kept as the reference --------------------------


def _vp_fraction(x, p):
    v, num, den = 0, x.numerator, x.denominator
    while num % p == 0:
        num //= p
        v += 1
    while den % p == 0:
        den //= p
        v -= 1
    return v


class RefExactLocal:
    """a + b*sqrt(eps) with a, b stored as Fractions: the exact scalar the
    package used before its Q(sqrt(eps)) values became int pairs."""

    __slots__ = ("field", "a", "b")

    def __init__(self, field, a, b=0):
        self.field = field
        self.a = Fraction(a)
        self.b = Fraction(b)

    def _coerce(self, other):
        if isinstance(other, RefExactLocal):
            return other
        if isinstance(other, (int, Fraction)):
            return RefExactLocal(self.field, other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        return RefExactLocal(self.field, self.a + o.a, self.b + o.b)

    def __neg__(self):
        return RefExactLocal(self.field, -self.a, -self.b)

    def __sub__(self, other):
        o = self._coerce(other)
        return RefExactLocal(self.field, self.a - o.a, self.b - o.b)

    def __mul__(self, other):
        o = self._coerce(other)
        e = self.field.eps
        return RefExactLocal(
            self.field, self.a * o.a + e * self.b * o.b, self.a * o.b + self.b * o.a
        )

    def conj(self):
        return RefExactLocal(self.field, self.a, -self.b)

    def norm(self):
        return self.a * self.a - self.field.eps * self.b * self.b

    def inverse(self):
        n = self.norm()
        if n == 0:
            raise ZeroDivisionError("inverting zero")
        return RefExactLocal(self.field, self.a / n, -self.b / n)

    def __truediv__(self, other):
        return self * self._coerce(other).inverse()

    def valuation(self):
        if self.a == 0 and self.b == 0:
            return math.inf
        vs = []
        if self.a != 0:
            vs.append(_vp_fraction(self.a, self.field.p))
        if self.b != 0:
            vs.append(_vp_fraction(self.b, self.field.p))
        return min(vs)

    def __eq__(self, other):
        o = self._coerce(other)
        return self.a == o.a and self.b == o.b

    def __repr__(self):
        if self.b == 0:
            return str(self.a)
        return f"{self.a}+{self.b}*sqrt({self.field.eps})"


def ref_to_residue(rows, field, prec):
    """(shift, [[(a, b)]]) of the residue matrix p^-shift * rows, as
    LocalMatrix.to_residue formed it from Fraction entries."""
    p = field.p
    vals = [e.valuation() for row in rows for e in row]
    s = -min([0] + [int(v) for v in vals if v != math.inf])
    mod = p**prec
    scale = Fraction(p) ** s

    def res(x):
        x = x * scale
        return x.numerator * pow(x.denominator, -1, mod) % mod

    return s, [[(res(e.a), res(e.b)) for e in row] for row in rows]


def _rand_fraction(rng):
    num = rng.choice([0, 0, 1, -1]) if rng.random() < 0.2 else rng.randrange(-60, 61)
    den = rng.choice([1, 1, 2, 3, 5, 7, 9, 27, 4, 15, 81])
    return Fraction(num * rng.choice([1, 3, 9, 5]), den)


def _same(x, ref):
    return x.a == ref.a and x.b == ref.b and repr(x) == repr(ref)


def _numerators(x):
    """A RefExactLocal as an int pair over one positive int denominator."""
    d = math.lcm(x.a.denominator, x.b.denominator)
    return (int(x.a * d), int(x.b * d)), d


def _over(pair, d, field):
    return RefExactLocal(field, Fraction(pair[0], d), Fraction(pair[1], d))


def test_exact_pair_kernel_matches_reference():
    # the pair kernel with modulus 0 on numerators over one denominator, and
    # 1x1 exact matrices built from pairs of Fractions, on rational draws
    rng = random.Random(2024)
    for field in (F3, F5):
        p, eps = field.p, field.eps
        for _ in range(400):
            rx = RefExactLocal(field, _rand_fraction(rng), _rand_fraction(rng))
            ry = RefExactLocal(field, _rand_fraction(rng), _rand_fraction(rng))
            n = rng.randrange(-5, 6)
            fr = Fraction(rng.randrange(-9, 10), rng.randrange(1, 10))
            (x, dx), (y, dy) = _numerators(rx), _numerators(ry)
            assert _same(_over(x, dx, field), rx)
            assert _same(_over(pmul(x, y, eps), dx * dy, field), rx * ry)
            assert _same(_over(pconj(x), dx, field), rx.conj())
            assert Fraction(pnorm(x, eps), dx * dx) == rx.norm()
            assert pval(x, p) - _vp_fraction(Fraction(dx), p) == rx.valuation()
            assert pzero(x) == (rx == 0) and pzero(pmul(x, y, eps)) == (rx * ry == 0)
            if rx.norm():
                # y / x = y conj(x) / N(x)
                q = [c * dx for c in pmul(y, pconj(x), eps)]
                assert _same(_over(q, dy * pnorm(x, eps), field), ry / rx)
            X, Y = (LocalMatrix.from_values(field, [[(r.a, r.b)]]) for r in (rx, ry))
            assert repr(X) == f"<[{rx!r}]>" and _values(X) == [[rx]]
            assert _values(X @ Y) == [[rx * ry]] and _values(X.star()) == [[rx.conj()]]
            for c in (n, fr):
                C = LocalMatrix.from_values(field, [[c]])
                assert _values(C @ X) == _values(X @ C) == [[rx * c]]
            assert (X == Y) == (rx == ry)


def test_equal_exact_values_are_stored_alike():
    # equal values built along different roads agree in every field
    x = LocalMatrix.from_values(F3, [[(Fraction(2, 6), Fraction(-4, 12))]])
    third = LocalMatrix.from_values(F3, [[Fraction(1, 3)]])
    y = LocalMatrix.from_values(F3, [[(1, -1)]]) @ third
    z = LocalMatrix.from_values(F3, [[(1, -1)]], shift=1)
    for w in (y, z):
        assert x == w and (x.rows, x.scale) == (w.rows, w.scale)
        assert repr(w) == "<[1/3+-1/3*sqrt(2)]>"
    five = LocalMatrix.from_values(F3, [[5]])
    assert five.rows == (((5, 0),),) and five == LocalMatrix.from_values(F3, [[(5, 0)]])


def test_exact_matrices_match_reference():
    rng = random.Random(77)
    for field in (F3, F5):
        for size in (1, 3, 5):
            for _ in range(15):
                vals = [
                    [[(_rand_fraction(rng), _rand_fraction(rng)) for _ in range(size)]
                     for _ in range(size)]
                    for _ in range(2)
                ]
                x, y = (LocalMatrix.from_values(field, m) for m in vals)
                rx, ry = (
                    [[RefExactLocal(field, *v) for v in row] for row in m] for m in vals
                )
                prod = x @ y
                ref = [
                    [sum((rx[i][t] * ry[t][j] for t in range(size)), RefExactLocal(field, 0))
                     for j in range(size)]
                    for i in range(size)
                ]
                assert math.gcd(prod.scale, *(v for row in prod.rows for e in row for v in e)) == 1
                for got, want in zip(_values(prod), ref):
                    assert all(_same(e, re) for e, re in zip(got, want))
                for prec in (4, 9):
                    shift, digits = ref_to_residue(ref, field, prec)
                    r = prod.to_residue(prec)
                    assert r.shift == shift and r.precision == prec
                    assert [list(row) for row in r.rows] == digits


# -- scalar models ----------------------------------------------------------------


def test_field_validation():
    with pytest.raises(ValueError):
        LocalField(4)
    with pytest.raises(ValueError):
        LocalField(2)
    with pytest.raises(ValueError):
        LocalField(3, eps=4)  # 4 = 2^2 is a square mod 3... and everywhere
    assert smallest_nonresidue(3) == 2
    assert smallest_nonresidue(5) == 2
    assert smallest_nonresidue(7) == 3


# -- the pair kernel, against the Fraction reference reduced mod p^m ----------------


def _ref_mod(x, mod):
    """A RefExactLocal with unit denominators as a pair reduced mod `mod`."""
    return tuple(v.numerator * pow(v.denominator, -1, mod) % mod for v in (x.a, x.b))


def _reduced(x, mod):
    return tuple(v % mod for v in x)


@pytest.mark.parametrize("field", [F3, F5], ids=["p3", "p5"])
@pytest.mark.parametrize("m", [1, 8, 30])
def test_pair_kernel_matches_reference(field, m):
    # at m = 30 the pairs reach p^60, past int64
    p, eps, mod = field.p, field.eps, field.p**m
    rng = random.Random(f"kernel:{p}:{m}")

    def draw():
        x = RefExactLocal(field, rng.randrange(mod), rng.randrange(mod))
        return x, (int(x.a), int(x.b))

    for _ in range(200):
        (rx, x), (ry, y) = draw(), draw()
        assert _reduced(pmul(x, y, eps), mod) == _ref_mod(rx * ry, mod)
        assert _reduced(pconj(x), mod) == _ref_mod(rx.conj(), mod)
        assert pnorm(x, eps) % mod == rx.norm() % mod
        assert pzero(pmul(x, y, eps), mod) == (_ref_mod(rx * ry, mod) == (0, 0))
        assert pval(x, p) == rx.valuation()
        if rx.valuation() == 0:
            inv = punit_inverse(x, eps, mod)
            assert inv == _ref_mod(rx.inverse(), mod)
            assert _reduced(pmul(x, inv, eps), mod) == (1, 0)
    for size in (1, 3, 5):
        cells = [[[draw() for _ in range(size)] for _ in range(size)] for _ in range(2)]
        (rg, g), (rh, h) = ([[[e[k] for e in row] for row in c] for k in (0, 1)] for c in cells)
        ref = [
            [sum((rg[i][t] * rh[t][j] for t in range(size)), RefExactLocal(field, 0))
             for j in range(size)]
            for i in range(size)
        ]
        got = pmatmul(g, h, eps)
        assert [[_reduced(e, mod) for e in row] for row in got] == [
            [_ref_mod(e, mod) for e in row] for row in ref
        ]
        assert [[_reduced(e, mod) for e in row] for row in pstar(g)] == [
            [_ref_mod(rg[j][i].conj(), mod) for j in range(size)] for i in range(size)
        ]


def test_pair_kernel_is_exact_without_a_modulus():
    x, y = (5, -7), (-3, 11)
    assert pmul(x, y, 2) == (5 * -3 + 2 * -7 * 11, 5 * 11 + -7 * -3)
    assert pnorm(x, 2) == 25 - 2 * 49 and pconj(x) == (5, 7)
    assert pval((0, 0), 3) == math.inf and pval((9, -27), 3) == 2 and pval((2, 0), 3) == 0
    assert pzero((0, 0)) and not pzero((9, 0)) and pzero((9, 0), 9)
    j = [[(0, 0), (1, 0)], [(1, 0), (0, 0)]]
    assert pair_unitary(j, 2) and not pair_unitary(j, 2, c=4) and pair_unitary(j, 2, 4, 3)


def test_norm_counts_frozen():
    # unit target, r = 0: 1 - q^-1 - q^-2
    assert norm_count(3, 1, 0) == Fraction(5, 9)
    assert norm_count(5, 1, 0) == Fraction(19, 25)
    # deeper shells: (1 - q^-2) q^-r
    assert norm_count(3, 1, 1) == Fraction(8, 27)
    assert norm_count(3, 2, 2) == Fraction(8, 81)
    assert norm_count(5, 3, 2) == Fraction(24, 625)


def test_norm_count_completeness():
    # the shell masses plus the undecided residual fill the whole torus exactly
    for p, xi, R in [(3, 1, 3), (3, 2, 4), (5, 1, 2)]:
        total = sum(norm_count(p, xi, r) for r in range(R + 1))
        assert total + norm_residual(p, xi, R + 1) == 1
        q = Fraction(p)
        assert norm_residual(p, xi, R + 1) == q ** -(R + 1) * (1 + 1 / q)


# -- the full P x P grid of the norm counts, kept as the reference -------------------


def ref_norm_count(p, xi, r):
    P = p ** (r + 1)
    eps = smallest_nonresidue(p)
    a = np.arange(P, dtype=np.int64)
    grid = (a[:, None] * a[:, None] - eps * a[None, :] * a[None, :] - xi) % P
    pr = p**r
    hit = (grid % pr == 0) & ((grid // pr) % p != 0)
    return Fraction(int(hit.sum()), P * P)


def ref_norm_residual(p, xi, R):
    if R == 0:
        return Fraction(1)
    P = p**R
    eps = smallest_nonresidue(p)
    a = np.arange(P, dtype=np.int64)
    grid = (a[:, None] * a[:, None] - eps * a[None, :] * a[None, :] - xi) % P
    return Fraction(int((grid == 0).sum()), P * P)


def test_norm_counts_match_the_grid():
    # every unit xi < 2p and every depth the enumeration bound allows, and
    # one case near the bound (43^4 = 3418801 pairs)
    cases = [(43, 1, 1), (43, 5, 1)]
    for p in (3, 5, 7, 11, 13):
        for xi in range(1, 2 * p):
            r = 0
            while xi % p and p ** (2 * (r + 1)) <= ENUMERATION_BOUND:
                cases.append((p, xi, r))
                r += 1
    for p, xi, r in cases:
        assert norm_count(p, xi, r) == ref_norm_count(p, xi, r), (p, xi, r)
        for R in (r, r + 1):
            assert norm_residual(p, xi, R) == ref_norm_residual(p, xi, R), (p, xi, R)


def test_norm_count_resource_guard():
    with pytest.raises(ResourceLimit):
        norm_count(997, 1, 3)
    with pytest.raises(ValueError):
        norm_count(3, 3, 0)  # target must be a unit


@pytest.mark.parametrize("p", [4, 9, 2, 1, -3])
def test_norm_counts_need_an_odd_prime(p):
    # p = 4 used to give 3/4: the counts ran on a ring with no residue field
    with pytest.raises(ValueError, match="must be an odd prime"):
        norm_count(p, 1, 0)
    with pytest.raises(ValueError, match="must be an odd prime"):
        norm_residual(p, 1, 0)


def test_hensel_norm_solve():
    rng = random.Random(11)
    for field in (F3, F5):
        p = field.p
        for _ in range(12):
            t = rng.randrange(1, p**4)
            if t % p == 0:
                t += 1
            a, b = hensel_norm_solve(field, t, 6)
            assert 0 <= a < p**6 and 0 <= b < p**6
            assert pnorm((a, b), field.eps) % p**6 == t


def test_hensel_norm_solve_refuses_a_non_unit():
    with pytest.raises(ValueError, match="target must be a unit"):
        hensel_norm_solve(F3, 3, 4)


# -- matrices ---------------------------------------------------------------------


def _values(x):
    """The entries of an exact matrix as RefExactLocal values."""
    return [[_over(e, x.scale, x.field) for e in row] for row in x.rows]


def _from_ref(field, rows):
    """The exact matrix of an array of RefExactLocal values."""
    return LocalMatrix.from_values(field, [[(e.a, e.b) for e in row] for row in rows])


def _det(rows):
    """Determinant of a square array of entries, by cofactors along the
    first row."""
    if len(rows) == 1:
        return rows[0][0]
    acc = None
    for j, e in enumerate(rows[0]):
        term = e * _det([row[:j] + row[j + 1 :] for row in rows[1:]])
        if j % 2:
            term = -term
        acc = term if acc is None else acc + term
    return acc


def test_matrix_algebra_and_star():
    k = random_k(F3, 2, seed=3)
    m = random_k(F3, 2, seed=4)
    assert (k @ m).star() == m.star() @ k.star()
    assert_unitary(k @ m)
    j = j_matrix(F3, 5)
    assert j @ j == LocalMatrix.identity(F3, 5)


def test_matrix_shift_normalization():
    x = x_lambda(F3, 1, (2,))
    r = x.to_residue(8)
    assert r.shift == 2
    assert r == x.to_residue(10)  # equality sees through different shifts
    assert _det(_values(x)) == 1


def test_exact_matrix_normalization():
    # p^-2 [[3, 9/2], [0, 6 + 3 sqrt(2)]] = [[2, 3], [0, 4 + 2 sqrt(2)]] / 6 in
    # lowest terms: the shift is already the least, and normalized keeps it
    x = LocalMatrix.from_values(F3, [[3, Fraction(9, 2)], [0, (6, 3)]], 2)
    assert x.scale == 6 and x.shift == 1
    assert x.rows == (((2, 0), (3, 0)), ((0, 0), (4, 2)))
    assert x.normalized() == x and x.normalized().rows == x.rows


def test_matmul_keeps_the_lesser_precision():
    # a product with a matrix known mod 3^2 is known mod 3^2, reduced there
    a = LocalMatrix.from_values(F3, [[0, 10], [10, 0]], prec=2)
    b = LocalMatrix.identity(F3, 2, prec=9)
    assert a.precision == 2 and b.precision == 9 and a.rows[0][1] == (1, 0)
    for mat in (a @ b, b @ a):
        assert mat.precision == 2 and mat.rows == a.rows
    assert a @ b == a == LocalMatrix.from_values(F3, [[0, 1], [1, 0]], prec=9)


def test_matrix_json_roundtrip():
    for mat in (
        x_lambda(F3, 2, (3, 1)),
        x_lambda(F5, 1, (2,)).to_residue(7),
        random_k(F3, 2, seed=9),
    ):
        again = LocalMatrix.from_json_dict(mat.to_json_dict())
        assert again == mat
        assert again.precision == mat.precision and again.shift == mat.shift


def test_prec_alone_selects_the_residue_model():
    assert LocalMatrix.identity(F3, 5, prec=4).precision == 4
    assert LocalMatrix.identity(F3, 5).precision is None
    assert j_matrix(F3, 3, prec=6).precision == 6


def test_json_residue_entries_share_the_least_precision():
    d = x_lambda(F3, 1, (1,)).to_residue(6).to_json_dict()
    d["entries"][1][1][2] = 4
    d["entries"][0][0][0] += 3**5
    x = LocalMatrix.from_json_dict(d)
    assert x.precision == 4
    assert x.to_json_dict()["entries"][0][0] == [9, 0, 4]
    assert all(e[2] == 4 for row in x.to_json_dict()["entries"] for e in row)


def test_from_values_refuses_a_denominator_divisible_by_p():
    with pytest.raises(InexactDivision, match="negative valuation"):
        LocalMatrix.from_values(F3, [[Fraction(1, 3)]], prec=4)


def test_exact_json_with_a_shift_loads():
    # older versions wrote an exact matrix as p^-shift times its entries
    d = {"model": "exact", "p": 3, "eps": 2, "size": 1, "shift": 2, "entries": [[["9/2", "3"]]]}
    x = LocalMatrix.from_json_dict(d)
    assert x == LocalMatrix.from_values(F3, [[(Fraction(1, 2), Fraction(1, 3))]])
    assert x.to_json_dict()["shift"] == 0 and x.to_json_dict()["entries"] == [[["1/2", "1/3"]]]


def test_exact_equality_sees_through_the_shift():
    # 1/3 and p^-1 * 1 are one value, stored alike
    x = LocalMatrix.from_values(F3, [[Fraction(1, 3)]])
    y = LocalMatrix.from_values(F3, [[1]], shift=1)
    assert x.to_residue(4) == y.to_residue(4)
    assert x == y and (x.rows, x.scale) == (y.rows, y.scale)


def test_matrices_are_unhashable():
    # equal matrices may carry different precisions, so no hash agrees with ==
    a = LocalMatrix.from_values(F3, [[Fraction(1, 2)]], prec=2)
    b = LocalMatrix.from_values(F3, [[Fraction(1, 2)]], prec=4)
    assert a == b
    for x in (a, x_lambda(F3, 1, (1,))):
        with pytest.raises(TypeError):
            hash(x)


@pytest.mark.parametrize("field", [F3, F5], ids=["p3", "p5"])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_products_commute_with_reduction(field, n):
    # @ and star run one path in both models: the exact product reduced mod
    # p^m is the product of the reductions, x_lambda carrying p^-l entries
    for lam in [(0,) * n, (2,) + (0,) * (n - 1), tuple(range(n, 0, -1))]:
        x = x_lambda(field, n, lam)
        for seed in (0, 1):
            k = random_k(field, n, seed=seed)
            for m in (3, 7):
                want = k.act(x).to_residue(m)
                got = k.to_residue(m).act(x.to_residue(m))
                assert got == want and got.to_json_dict() == want.to_json_dict()


def test_matmul_refuses_mixed_models_and_sizes():
    exact, residue = LocalMatrix.identity(F3, 3), LocalMatrix.identity(F3, 3, prec=4)
    for a, b in ((exact, residue), (residue, exact)):
        with pytest.raises(ValueError, match="incompatible matrices"):
            a @ b
        assert a != b
    for prec in (None, 4):
        big, small = LocalMatrix.identity(F3, 5, prec), LocalMatrix.identity(F3, 3, prec)
        with pytest.raises(ValueError, match="incompatible matrices"):
            big @ small


def ref_x_lambda_residue(field, lam, prec):
    """x_lambda mod p^prec built by hand: integer entries p^(l + s), p^s,
    p^(s - l) over the shift s = l1."""
    p = field.p
    s = lam[0] if lam else 0
    ent = [p ** (l + s) for l in lam] + [p**s] + [p ** (s - l) for l in reversed(lam)]
    size = len(ent)
    rows = [[(ent[i] % p**prec if i == j else 0, 0) for j in range(size)] for i in range(size)]
    return LocalMatrix(field, rows, p**s, prec)


def test_x_lambda_residue_matches_hand_construction():
    for field in (F3, F5):
        for n in (1, 2, 3):
            for lam in partitions(n, 3):
                for prec in (2, 5, 9):
                    got = x_lambda(field, n, lam).to_residue(prec)
                    want = ref_x_lambda_residue(field, lam, prec)
                    assert got.to_json_dict() == want.to_json_dict()


def test_x_lambda_pads_to_n_parts():
    assert x_lambda(F3, 2, (1,)) == x_lambda(F3, 2, (1, 0))
    assert x_lambda(F3, 2, (1,)).size == 5
    with pytest.raises(ValueError, match="more than 1 nonzero parts"):
        x_lambda(F3, 1, (2, 1))


# -- the hermitian space ------------------------------------------------------------


def test_membership():
    assert is_member_X(x_lambda(F3, 1, (0,)))
    assert is_member_X(x_lambda(F3, 2, (3, 1)))
    assert is_member_X(x_lambda(F5, 2, (2, 2)))
    # integral hermitian but the wrong characteristic polynomial
    bad = LocalMatrix.diagonal(F3, [Fraction(3), Fraction(1), Fraction(3)])
    assert not is_member_X(bad)
    notherm = LocalMatrix.from_values(F3, [[0, 0, 1], [0, 1, 1], [1, 0, 0]])
    assert not is_member_X(notherm)
    # -x_lambda is hermitian and involutive, but x j has trace -1
    assert not is_member_X(_negated(x_lambda(F3, 2, (3, 1))))


def _negated(x):
    return LocalMatrix(x.field, [[(-a, -b) for a, b in row] for row in x.rows], x.scale)


def _charpoly(m):
    """Faddeev-LeVerrier: the coefficients of t^n + c1 t^(n-1) + ... + cn of
    an exact matrix, highest power first."""
    n = m.size
    M = LocalMatrix.identity(m.field, n)
    coeffs = [RefExactLocal(m.field, 1)]
    for k in range(1, n + 1):
        AM = m @ M
        am = _values(AM)
        c = sum((am[i][i] for i in range(n)), RefExactLocal(m.field, 0)) * Fraction(-1, k)
        coeffs.append(c)
        M = _from_ref(
            m.field, [[e + c if i == j else e for j, e in enumerate(row)] for i, row in enumerate(am)]
        )
    return coeffs


def _member_by_charpoly(x):
    """Membership decided by the whole characteristic polynomial of x j
    against (t^2 - 1)^n (t - 1), the reference for the trace decision."""
    size = x.size
    v = _values(x)
    if any(v[i][j] != v[j][i].conj() for i in range(size) for j in range(size)):
        return False
    xj = x @ j_matrix(x.field, size)
    if xj @ xj != LocalMatrix.identity(x.field, size):
        return False
    target = [1, -1]  # t - 1, highest power first
    for _ in range(size // 2):
        target = [a - b for a, b in zip(target + [0, 0], [0, 0] + target)]
    return _charpoly(xj) == target


def test_membership_trace_matches_charpoly():
    decided = []
    for n in (1, 2, 3):
        size = 2 * n + 1
        cases = [LocalMatrix.identity(F3, size), j_matrix(F3, size)]
        for lam in partitions(n, 4):
            x = x_lambda(F3, n, lam)
            for seed in (None, 0, 1):
                if seed is not None:  # twisted members
                    x = random_k(F3, n, seed=seed + 10 * sum(lam)).act(x)
                corner = _values(x)
                corner[-1][-1] = corner[-1][-1] + 3
                cases += [x, _negated(x), _from_ref(F3, corner)]
        for x in cases:
            member = is_member_X(x)
            assert member == _member_by_charpoly(x)
            decided.append(member)
    assert True in decided and False in decided


def test_random_k_is_unitary_with_trivial_factors():
    for field, n, seed in [(F3, 1, 0), (F3, 2, 1), (F5, 2, 2), (F3, 3, 3)]:
        k = random_k(field, n, seed=seed)
        assert_unitary(k)
        assert invariant_factors(k) == [0] * (2 * n + 1)
        det = _det(_values(k))
        assert det * det.conj() == 1


def test_random_k_words_are_pinned():
    # the repr and JSON of every word for p 3, 5, 7, n 1..4 and seeds 0..14:
    # the generators are built once per (field, n), and the words read the
    # same draws as when they were built on each call
    h = hashlib.sha256()
    for field in (F3, F5, LocalField(7)):
        for n in (1, 2, 3, 4):
            for seed in range(15):
                k = random_k(field, n, seed=seed)
                h.update(repr(k).encode())
                h.update(json.dumps(k.to_json_dict(), sort_keys=True).encode())
    assert h.hexdigest() == "5324026c20e9feeb4cf4ee4fc7575cbde7209ecbbcf1b1a4173dda6925686eda"


def ref_random_k(field, n, seed):
    """random_k as it multiplied its words out: from the identity, with
    J U J as two products, every product through _ref_pmatmul."""

    def times(x, y):
        rows = _ref_pmatmul(x.rows, y.rows, field.eps, 0)
        return LocalMatrix(field, [list(row) for row in rows], x.scale * y.scale)

    rng = random.Random(seed)
    g = LocalMatrix.identity(field, 2 * n + 1)
    perms = padic._perm_generators(field, n)
    J = perms[-1]
    for _ in range(padic.RANDOM_K_WORD_LENGTH):
        kind = rng.randrange(4)
        if kind == 0:
            alphas = [padic._rand_exact_unit(field, rng) for _ in range(n)]
            step = padic._diag_element(field, alphas, padic._norm_one_unit(field, rng))
        elif kind == 1 or kind == 2:
            beta = [(rng.randrange(-4, 5), rng.randrange(-4, 5)) for _ in range(n)]
            H = [[(0, 0)] * n for _ in range(n)]
            for i in range(n):
                H[i][i] = (rng.randrange(-4, 5), 0)
                for j in range(i + 1, n):
                    H[i][j] = (rng.randrange(-4, 5), rng.randrange(-4, 5))
                    H[j][i] = pconj(H[i][j])
            step = padic._upper_unipotent(field, n, beta, H)
            if kind == 2:
                step = times(times(J, step), J)
        else:
            step = perms[rng.randrange(len(perms))]
        g = times(g, step)
    return g


def test_random_k_words_match_the_dense_products():
    # J U J read off U backwards, the word started at its first step and
    # the products that skip zeros against the dense products from 1
    kinds = set()
    for field in (F3, F5):
        for n in (1, 2, 3):
            for seed in range(12):
                k, want = random_k(field, n, seed=seed), ref_random_k(field, n, seed)
                assert (k.rows, k.scale) == (want.rows, want.scale)
                rng = random.Random(seed)
                kinds.update(rng.randrange(4) for _ in range(padic.RANDOM_K_WORD_LENGTH))
    assert kinds == {0, 1, 2, 3}


def test_pmatmul_and_pair_unitary_skip_zeros_exactly():
    # sparse inputs, whole zero columns among them, against the dense
    # references; and the sparse generators of random_k with one zero digit
    # made nonzero
    rng = random.Random("sparse")
    for size in (1, 3, 5, 7):
        for _ in range(20):
            g, h = (
                [[(rng.randint(-9, 9), rng.randint(-9, 9)) if rng.random() < 0.3 else (0, 0)
                  for _ in range(size)] for _ in range(size)]
                for _ in range(2)
            )
            want = _ref_pmatmul(g, h, 2, 0)
            assert [tuple(row) for row in pmatmul(g, h, 2)] == list(want)
    gens = [g for n in (1, 2, 3) for g in padic._perm_generators(F3, n)]
    u = padic._norm_one_unit(F3, random.Random(0))
    gens += [padic._diag_element(F3, [(1, 2)] * n, u) for n in (1, 2)]
    gens += [padic._upper_unipotent(F3, 2, [(1, 2), (0, 3)], [[(1, 0), (2, 1)], [(2, -1), (0, 0)]])]
    broken = 0
    for g in gens:
        c = g.scale**2
        assert pair_unitary(g.rows, F3.eps, c) and _ref_pair_unitary(g.rows, F3.eps, c, 0)
        zeros = [(i, j) for i, row in enumerate(g.rows) for j, e in enumerate(row) if e == (0, 0)]
        for i, j in rng.sample(zeros, min(3, len(zeros))):
            bad = [list(row) for row in g.rows]
            bad[i][j] = (0, 1)
            want = _ref_pair_unitary(bad, F3.eps, c, 0)
            assert pair_unitary(bad, F3.eps, c) == want
            broken += not want
    assert broken >= 20


def test_random_k_leaves_its_shared_generators_alone():
    gens = padic._perm_generators(F5, 3)
    before = [(g.rows, g.scale, g.precision) for g in gens]
    assert len(gens) == 4 and gens[-1] == j_matrix(F5, 7)
    for seed in range(10):
        random_k(F5, 3, seed=seed).to_residue(4)
    assert padic._perm_generators(F5, 3) is gens
    assert [(g.rows, g.scale, g.precision) for g in gens] == before


def test_classification_roundtrip():
    rng = random.Random(0)
    lams = {1: [(0,), (1,), (2,), (3,)], 2: [(0, 0), (1, 0), (1, 1), (2, 1), (3, 0)]}
    for n, lamlist in lams.items():
        for lam in lamlist:
            for trial in range(4):
                k = random_k(F3, n, seed=rng.randrange(10**6))
                x = k.act(x_lambda(F3, n, lam))
                assert is_member_X(x)
                assert classify_k_orbit(x) == lam
                # residue model agrees when given enough digits
                xr = x.to_residue(18)
                assert classify_k_orbit(xr) == lam


@pytest.mark.parametrize("field", [F3, F5, LocalField(7)], ids=["p3", "p5", "p7"])
def test_classification_needs_exactly_2l1_plus_1_digits(field):
    # the stored matrix p^l1 x has invariants l1 + l_i, l1, l1 - l_i: the
    # largest, 2 l1, is certified exactly when the precision exceeds it
    rng = random.Random(field.p)
    lams = {1: [(0,), (1,), (2,), (3,)], 2: [(0, 0), (1, 0), (1, 1), (2, 1), (3, 0)],
            3: [(0, 0, 0), (1, 0, 0), (2, 1, 0), (2, 2, 1)]}
    for n, lamlist in lams.items():
        for lam in lamlist:
            for trial in range(3):
                x = random_k(field, n, seed=rng.randrange(10**6)).act(x_lambda(field, n, lam))
                assert classify_k_orbit(x.to_residue(2 * lam[0] + 1)) == lam
                with pytest.raises(PrecisionError):
                    classify_k_orbit(x.to_residue(2 * lam[0]))


def test_classification_insufficient_precision():
    x = random_k(F3, 1, seed=8).act(x_lambda(F3, 1, (3,)))
    with pytest.raises(PrecisionError):
        classify_k_orbit(x.to_residue(3))


def test_g_orbit_parity_survives_torus_mixing():
    # the full-group invariant only sees |lambda| mod 2, so mixing by the
    # bigger torus must not change it even though the k-orbit moves
    x = x_lambda(F3, 2, (1, 0))
    assert classify_g_orbit(x) == 1
    t = t_diag(F3, [Fraction(3), Fraction(1, 9)])
    y = t.act(x)
    assert classify_g_orbit(y) == 1
    assert classify_k_orbit(y) != classify_k_orbit(x)
    assert classify_g_orbit(x_lambda(F3, 2, (2, 0))) == 0


# -- the field elimination, kept as the reference -------------------------------


def ref_invariant_factors(x):
    """invariant_factors as it was before it went fraction-free: the exact
    lift of the stored digits as RefExactLocal values, each lower row less
    (e / pivot) times the pivot row, over the field."""
    n, m = x.size, x.precision
    rows = [[RefExactLocal(x.field, a, b) for a, b in r] for r in x.rows]
    vals = []
    for top in range(n):
        v, bi, bj = min(
            (rows[i][j].valuation(), i, j) for i in range(top, n) for j in range(top, n)
        )
        if m is not None and v >= m:
            raise PrecisionError("an invariant factor reaches p^m", required=m + 1)
        if math.isinf(v):
            raise ValueError("matrix is singular")
        rows[top], rows[bi] = rows[bi], rows[top]
        for row in rows:
            row[top], row[bj] = row[bj], row[top]
        pivot_row = rows[top]
        for i in range(top + 1, n):
            e = rows[i][top]
            if e != 0:
                fac = e / pivot_row[top]
                rows[i] = [a - fac * b for a, b in zip(rows[i], pivot_row)]
        vals.append(v)
    return sorted((v - x.shift for v in vals), reverse=True)


def _elimination_outcome(fn, x):
    """The invariants fn finds for x, or the PrecisionError it raises."""
    try:
        return fn(x)
    except PrecisionError as e:
        return "PrecisionError", e.required


def _within(seconds, fn, *args):
    """fn(*args), or TimeoutError once `seconds` of wall time have passed."""

    def expire(signum, frame):
        raise TimeoutError(f"{fn.__name__} took more than {seconds} s")

    old = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        return fn(*args)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)


ELIMINATION_PRECISIONS = (1, 3, 5, 7, 9)


@pytest.mark.parametrize("field", [F3, F5, F7], ids=["p3", "p5", "p7"])
def test_elimination_matches_the_field_reference(field):
    # x_lambda and two twists of it for every lambda of weight <= 4 at
    # n <= 3, exact and at five precisions: 450 inputs for each p, every
    # PrecisionError outcome included
    outcomes = set()
    for n in (1, 2, 3):
        for lam in partitions(n, 4):
            x = x_lambda(field, n, lam)
            for y in (x, *(random_k(field, n, seed=s + 10 * sum(lam)).act(x) for s in (0, 1))):
                for z in (y, *(y.to_residue(m) for m in ELIMINATION_PRECISIONS)):
                    got = _elimination_outcome(invariant_factors, z)
                    assert got == _elimination_outcome(ref_invariant_factors, z), (n, lam, z.precision)
                    outcomes.add(type(got))
    assert outcomes == {list, tuple}


def test_elimination_keeps_the_digits_small_at_n6():
    # without dividing each new row by the part of its content prime to p,
    # the digits of this twisted 13x13 member grow until the elimination
    # takes minutes; the field reference takes a fraction of a second
    lam = (3, 2, 1, 1, 0, 0)
    x = random_k(F3, 6, seed=5).act(x_lambda(F3, 6, lam))
    for z in (x, x.to_residue(6), x.to_residue(7)):
        want = _elimination_outcome(ref_invariant_factors, z)
        assert _within(5, _elimination_outcome, invariant_factors, z) == want
    assert want == [3, 2, 1, 1, 0, 0, 0, 0, 0, -1, -1, -2, -3]


# -- the cells of the small unitary group ---------------------------------------


def test_k1_cell_counts_frozen():
    big, small, union = k1_cell_counts(3)
    assert (big, small, union) == (23328, 864, 24192)
    # |U3| over the residue field: q^3 (q+1)(q^2-1)(q^3+1)
    q = 3
    assert union == q**3 * (q + 1) * (q**2 - 1) * (q**3 + 1)
    assert big == (q**2 - 1) * (q + 1) * q**6
    assert small == (q**2 - 1) * (q + 1) * q**3


def test_mc_histogram_stream_pinned():
    # (histogram, saturated) recorded from the row sampler, which matches
    # ref_mc_valuation_histogram and passes the 3-sigma gates
    want = {
        0: ({0: 1725, 2: 244, 4: 25, 6: 6}, 0),
        1: ({-1: 1926, 1: 74}, 0),
        2: ({-2: 1941, 0: 38, 2: 17, 4: 4}, 0),
    }
    for ell, (hist, saturated) in want.items():
        assert _mc_valuation_histogram(3, ell, 2000, 8, 0) == (hist, saturated)


# -- the row classes the Monte-Carlo draws -------------------------------------------


def _isotropic_rows(p, m):
    """Every index of _isotropic_row mod p^m, as rows."""
    eps, mod = LocalField(p).eps, p**m
    return [_isotropic_row(k, p, eps, mod) for k in range(mod**3 + (mod // p) ** 3)]


def _brute_force_counts(p, m):
    """(primitive isotropic rows, units) mod p^m, by running over every
    residue; the row count tallies N(r1) once and runs over (r0, r2)."""
    eps, mod = LocalField(p).eps, p**m
    elems = [(a, b) for a in range(mod) for b in range(mod)]
    unit_set = {z for z in elems if z[0] % p or z[1] % p}
    norms, unit_norms = {}, {}
    for z in elems:
        n = (z[0] * z[0] - eps * z[1] * z[1]) % mod
        norms[n] = norms.get(n, 0) + 1
        if z in unit_set:
            unit_norms[n] = unit_norms.get(n, 0) + 1
    rows = 0
    for r0 in elems:
        for r2 in elems:
            # Tr(r0 conj(r2)) + N(r1) = 0, r1 a unit unless r0 or r2 is
            need = -2 * (r0[0] * r2[0] - eps * r0[1] * r2[1]) % mod
            table = norms if r0 in unit_set or r2 in unit_set else unit_norms
            rows += table.get(need, 0)
    return rows, len(unit_set)


@pytest.mark.parametrize("p, m", [(3, 1), (3, 2), (5, 1)])
def test_row_index_is_a_bijection_onto_row_classes(p, m):
    eps, mod = LocalField(p).eps, p**m
    rows = _isotropic_rows(p, m)
    for r in rows:
        _assert_isotropic_row(r, p, eps, mod)
    units = [(a, b) for a in range(mod) for b in range(mod) if a % p or b % p]
    # a class is the set of unit multiples of a row; its least member names it
    classes = {min(tuple(_ref_pmul(u, e, eps, mod) for e in r) for u in units) for r in rows}
    count, unit_count = _brute_force_counts(p, m)
    assert unit_count == len(units) == (p * p - 1) * p ** (2 * (m - 1))
    assert count == (p**3 + 1) * (p * p - 1) * p ** (5 * (m - 1))
    assert len(classes) == len(rows) == count // unit_count


def _laurent_coefficients(ell, terms):
    """The first coefficients of the u-series of omega_rank1_s_form(ell, u)
    at q = 3, from u^(-ell) up.

    g(u) = u^ell (1 - u^4 / 81) omega is a polynomial of degree at most
    2 ell + 4; it is interpolated from exact values at rational u (one point
    more than the degree checks that) and divided by 1 - u^4 / 81 as a series.
    """
    deg = 2 * ell + 4
    us = [Fraction(1, j + 2) for j in range(deg + 2)]
    values = []
    for u in us:
        got = omega_rank1_s_form(ell, QFraction(QLaurent.const(u))).eval(Fraction(3))
        assert got.im == 0
        values.append(u**ell * (1 - u**4 / 81) * got.re)
    # solve the Vandermonde system on the first deg + 1 points
    a = [[u**j for j in range(deg + 1)] + [v] for u, v in zip(us, values)]
    for col in range(deg + 1):
        piv = next(r for r in range(col, deg + 1) if a[r][col] != 0)
        a[col], a[piv] = a[piv], a[col]
        for r in range(deg + 1):
            if r != col and a[r][col] != 0:
                f = a[r][col] / a[col][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    g = [a[j][-1] / a[j][j] for j in range(deg + 1)]
    assert sum(c * us[-1] ** j for j, c in enumerate(g)) == values[-1]
    out = []
    for j in range(terms):
        out.append((g[j] if j <= deg else 0) + (out[j - 4] / 81 if j >= 4 else 0))
    return out


def test_row_law_is_the_closed_form_bin_by_bin():
    # every row class mod 3^3: the valuations below 3 are certified, and their
    # frequencies are the u-series coefficients of the rank-one closed form
    p, m = 3, 3
    eps, mod = F3.eps, p**m
    rows = _isotropic_rows(p, m)
    want = {
        0: [Fraction(6, 7), 0, Fraction(8, 63)],
        1: [Fraction(27, 28), 0, Fraction(1, 28)],
        2: [Fraction(27, 28), 0, Fraction(1, 42)],
    }
    for ell, fractions in want.items():
        counts = [0] * m
        for r in rows:
            w = sum(p ** (2 * ell - ell * i) * (a * a - eps * b * b) for i, (a, b) in enumerate(r))
            w %= mod
            if w:
                counts[next(v for v in range(m) if w % p ** (v + 1))] += 1
        law = [Fraction(c, len(rows)) for c in counts]
        assert law == _laurent_coefficients(ell, m) == fractions


def test_mc_histogram_refuses_a_bad_row(monkeypatch):
    from hermlab import residue

    assert _mc_valuation_histogram(3, 1, 40, 6, "bad-row")[0]
    for broken, message in [
        (lambda r, mod: (r[0], r[1], ((r[2][0] + 1) % mod, r[2][1])), "not isotropic"),
        # 3 r is isotropic and, mod 3^6, not zero
        (lambda r, mod: tuple((3 * a % mod, 3 * b % mod) for a, b in r), "not primitive"),
    ]:
        def corrupted(k, p, eps, mod, broken=broken):
            return broken(_isotropic_row(k, p, eps, mod), mod)

        monkeypatch.setattr(residue, "_isotropic_row", corrupted)
        with pytest.raises(AssertionError, match=message):
            _mc_valuation_histogram(3, 1, 40, 6, f"bad-row:{message}")


def test_pair_unitarity_check_rejects_a_corrupted_digit():
    # a cell factor N of k1_cell_counts and a 5x5 residue element of random_k
    eps, mod = F3.eps, 3**6
    elements = [
        [[_reduced(e, mod) for e in row] for row in _cell_factor((5, 7), 11, (4, 2), 13, big, eps, mod)]
        for big in (True, False)
    ]
    k = random_k(F3, 2, seed=9).to_residue(6)
    assert k.shift == 0
    elements.append(k.rows)
    for g in elements:
        size = len(g)
        assert pair_unitary(g, eps, 1, mod)
        for k in range(size * size):
            for part in (0, 1):
                bad = [[list(e) for e in row] for row in g]
                bad[k // size][k % size][part] = (bad[k // size][k % size][part] + 1) % mod
                assert not pair_unitary(bad, eps, 1, mod)


# 27 * 27 factors N in the big cell of k1_cell_counts(3), 27 in the small one
@pytest.mark.parametrize(
    "big_cell, index", [(True, 0), (True, 728), (False, 0), (False, 26)],
    ids=["big-first", "big-last", "small-first", "small-last"],
)
def test_cell_counts_check_every_cell_factor(monkeypatch, big_cell, index):
    # N times 1 + sqrt(eps), whose norm 1 - eps is -1 mod 3, has N* j N = -j
    from hermlab import residue

    cell_factor = residue._cell_factor
    seen = []

    def corrupted(d, f0, b, c0, big, eps, mod):
        n = cell_factor(d, f0, b, c0, big, eps, mod)
        if big == big_cell:
            seen.append(n)
            if len(seen) == index + 1:
                return tuple(tuple(_ref_pmul((1, 1), e, eps, mod) for e in row) for row in n)
        return n

    monkeypatch.setattr(residue, "_cell_factor", corrupted)
    with pytest.raises(AssertionError, match="not unitary for the antidiagonal form"):
        k1_cell_counts(3)
    assert len(seen) == index + 1


def test_cell_counts_check_the_diagonal_factor(monkeypatch):
    # D N is counted without being checked itself, so a D that is not unitary
    # must be caught on its own
    from hermlab import residue

    diag_units = residue._diag_units

    def bad_u(alpha, w, eps, mod):
        ainv, u = diag_units(alpha, w, eps, mod)
        return ainv, ((u[0] + 1) % mod, u[1])

    monkeypatch.setattr(residue, "_diag_units", bad_u)
    with pytest.raises(AssertionError, match="not unitary for the antidiagonal form"):
        k1_cell_counts(3)


def test_cell_counts_refuse_a_torus_short_of_a_unit(monkeypatch):
    # every D is still unitary, but u = -1 is never built: the counts would
    # hold 3 of the 4 products D N of each torus orbit
    from hermlab import residue

    diag_units = residue._diag_units

    def drop(alpha, w, eps, mod):
        ainv, u = diag_units(alpha, w, eps, mod)
        return ainv, (1, 0) if u == (mod - 1, 0) else u

    monkeypatch.setattr(residue, "_diag_units", drop)
    with pytest.raises(AssertionError, match="give 8 values of alpha and 3 of u, not the 8 and 4"):
        k1_cell_counts(3)


# The batched numpy kernel of stacks on int64, kept as the reference for
# k1_cell_counts: it multiplies out D and the two factors of each cell.


def ref_stack_matmul(x, y, eps, mod):
    """The products of two stacks mod `mod`, matrix by matrix."""
    xr, xi = x
    yr, yi = y
    return (xr @ yr + eps * (xi @ yi)) % mod, (xr @ yi + xi @ yr) % mod


def ref_assert_unitary_stack(g, eps, mod):
    """assert_unitary for every matrix of a stack: g* j g = j mod `mod`."""
    gr, gi = g
    tr, ti = np.swapaxes(gr, -1, -2), np.swapaxes(gi, -1, -2)
    hr, hi = gr[..., ::-1, :], gi[..., ::-1, :]  # j g
    re = (tr @ hr - eps * (ti @ hi)) % mod
    im = (tr @ hi - ti @ hr) % mod
    if (re != np.eye(3, dtype=np.int64)[::-1]).any() or (im != 0).any():
        raise AssertionError("constructed element is not unitary for the antidiagonal form")


def ref_stack(rows):
    """A stack from 3x3 nested rows of (re, im) entries, each an array over
    the stack."""
    first = rows[0][0][0]
    out = np.zeros((2,) + first.shape + (3, 3), dtype=first.dtype)
    for r, row in enumerate(rows):
        for c, e in enumerate(row):
            out[0, ..., r, c] = e[0]
            out[1, ..., r, c] = e[1]
    return out[0], out[1]


def ref_stack_products(params, eps, mod):
    """The group elements of a parameter table, one per row, checked unitary."""
    a0, a1, u0, u1, i0, i1, d0, d1, f0, b0, b1, c0, big = params.T
    half = -pow(2, -1, mod) % mod
    zero = np.zeros_like(a0)
    o, i = (zero, zero), (zero + 1, zero)
    d, b = (d0, d1), (b0, b1)
    dn, bn = (-d0 % mod, d1), (-b0 % mod, b1)  # -conj(d), -conj(b)
    f = ((d0 * d0 - eps * d1 * d1) % mod * half % mod, f0)
    c = ((b0 * b0 - eps * b1 * b1) % mod * half % mod, c0)
    diag = ref_stack([[(a0, a1), o, o], [o, (u0, u1), o], [o, o, (i0, i1)]])
    cell = big.astype(bool)[:, None, None]

    def by_cell(big_rows, small_rows):
        return [np.where(cell, x, y) for x, y in zip(ref_stack(big_rows), ref_stack(small_rows))]

    middle = by_cell([[i, dn, f], [o, i, d], [o, o, i]], [[i, o, o], [b, i, o], [c, bn, i]])
    last = by_cell([[o, o, i], [o, i, bn], [i, b, c]], [[i, d, f], [o, i, dn], [o, o, i]])
    g = ref_stack_matmul(ref_stack_matmul(diag, middle, eps, mod), last, eps, mod)
    ref_assert_unitary_stack(g, eps, mod)
    return g


def ref_entries(rows, eps, mod):
    """ref_stack_products as nine (re, im) entries per row."""
    re, im = ref_stack_products(np.array(rows, dtype=np.int64), eps, mod)
    return [
        tuple(zip(r, i)) for r, i in zip(re.reshape(-1, 9).tolist(), im.reshape(-1, 9).tolist())
    ]


def test_kernel_matches_stack_reference_on_k1_rows():
    # every parameter row of k1_cell_counts(3): all D, (d, f0) and (b, c0)
    p, eps = 3, F3.eps
    pairs = [(x, y) for x in range(p) for y in range(p)]
    diags = {
        (*alpha, *u, *ainv)
        for alpha in pairs[1:]
        for w in pairs[1:]
        for ainv, u in [_diag_units(alpha, w, eps, p)]
    }
    triples = [(*z, t) for z in pairs for t in range(p)]
    cells = {
        big: [(*df, *bc, big) for df in triples for bc in (triples if big else [(0, 0, 0)])]
        for big in (1, 0)
    }
    want = {
        big: set(ref_entries([diag + r for diag in sorted(diags) for r in rest], eps, p))
        for big, rest in cells.items()
    }
    assert k1_cell_counts(p) == (len(want[1]), len(want[0]), len(want[1] | want[0]))


def kernel_row(rng, p, prec):
    """A random parameter row (alpha, u, conj(alpha)^-1, d, f0, b, c0, big)
    mod p^prec, flat as ref_entries takes it, and the unit w of u = w /
    conj(w); the small cell, b and c0 divisible by p, is drawn with
    probability 1/(p^3 + 1)."""
    mod = p**prec

    def unit():
        while True:
            z = (rng.randrange(mod), rng.randrange(mod))
            if z[0] % p or z[1] % p:
                return z

    alpha, w = unit(), unit()
    d, f0 = (rng.randrange(mod), rng.randrange(mod)), rng.randrange(mod)
    big = rng.randrange(p**3 + 1) < p**3
    scale = 1 if big else p
    b = tuple(scale * rng.randrange(mod // scale) for _ in range(2))
    c0 = scale * rng.randrange(mod // scale)
    ainv, u = _diag_units(alpha, w, smallest_nonresidue(p), mod)
    return (*alpha, *u, *ainv, *d, f0, *b, c0, int(big)), w


def kernel_element(row, eps, mod):
    """D N of a parameter row from the residue kernel, nine reduced entries:
    row r of _cell_factor's N times the r-th diagonal entry of D."""
    diag = (row[0:2], row[2:4], row[4:6])
    n = _cell_factor(row[6:8], row[8], row[9:11], row[11], bool(row[12]), eps, mod)
    return tuple(_ref_pmul(diag[r], e, eps, mod) for r, n_row in enumerate(n) for e in n_row)


def _rows(g):
    """Nine entries in row order as three rows."""
    return [g[0:3], g[3:6], g[6:9]]


def test_kernel_matches_stack_reference_on_random_rows():
    p, eps, mod = 3, F3.eps, 3**8
    rows = [kernel_row(random.Random(f"row:{i}"), p, 8)[0] for i in range(2000)]
    got = [kernel_element(row, eps, mod) for row in rows]
    for g in got:
        assert pair_unitary(_rows(g), eps, 1, mod)
    assert got == ref_entries(rows, eps, mod)
    assert sum(not row[-1] for row in rows) >= 30  # the small cell is covered


# The pair-level group element, one pair product at a time, kept as the
# reference for the Monte-Carlo, which reads its bottom row.


def _ref_pmul(x, y, eps, mod):
    return ((x[0] * y[0] + eps * x[1] * y[1]) % mod, (x[0] * y[1] + x[1] * y[0]) % mod)


def _ref_pconj(z, mod):
    return (z[0], -z[1] % mod)


def _ref_pneg(z, mod):
    return (-z[0] % mod, -z[1] % mod)


def _ref_pnorm(z, eps, mod):
    return (z[0] * z[0] - eps * z[1] * z[1]) % mod


def _ref_punit_inverse(z, eps, mod):
    ninv = pow(_ref_pnorm(z, eps, mod), -1, mod)
    return (z[0] * ninv % mod, -z[1] * ninv % mod)


def _ref_pmatmul(x, y, eps, mod):
    # reduced mod `mod`, or exact when mod is 0
    cols = tuple(zip(*y))
    out = []
    for row in x:
        r = []
        for col in cols:
            re = im = 0
            for (a, b), (c, d) in zip(row, col):
                re += a * c + eps * b * d
                im += a * d + b * c
            r.append((re % mod, im % mod) if mod else (re, im))
        out.append(tuple(r))
    return tuple(out)


def ref_group_element(field, prec, alpha, w, d, f0, big_cell, b, c0):
    """The pair matrix of one parameter row, one pair product at a time:
    diag(alpha, u, conj(alpha)^-1) times the two factors of its cell."""
    p, eps = field.p, field.eps
    mod = p**prec
    half = -pow(2, -1, mod) % mod
    u = _ref_pmul(w, _ref_punit_inverse(_ref_pconj(w, mod), eps, mod), eps, mod)
    c = (_ref_pnorm(b, eps, mod) * half % mod, c0)
    f = (_ref_pnorm(d, eps, mod) * half % mod, f0)
    one, zero = (1, 0), (0, 0)
    diag = (
        (alpha, zero, zero),
        (zero, u, zero),
        (zero, zero, _ref_punit_inverse(_ref_pconj(alpha, mod), eps, mod)),
    )
    dbar, bbar = _ref_pneg(_ref_pconj(d, mod), mod), _ref_pneg(_ref_pconj(b, mod), mod)
    if big_cell:
        upper = ((one, dbar, f), (zero, one, d), (zero, zero, one))
        hook = ((zero, zero, one), (zero, one, bbar), (one, b, c))
        g = _ref_pmatmul(_ref_pmatmul(diag, upper, eps, mod), hook, eps, mod)
    else:
        lower = ((one, zero, zero), (b, one, zero), (c, bbar, one))
        upper = ((one, d, f), (zero, one, dbar), (zero, zero, one))
        g = _ref_pmatmul(_ref_pmatmul(diag, lower, eps, mod), upper, eps, mod)
    return [list(row) for row in g]


def test_kernel_matches_pair_reference_past_int64():
    # at prec 30 the entries reach 3^60, past int64 and the stack reference
    for prec in (2, 6, 30):
        mod, small = 3**prec, 0
        for i in range(200):
            row, w = kernel_row(random.Random(f"wide:{prec}:{i}"), 3, prec)
            small += not row[-1]
            g = kernel_element(row, F3.eps, mod)
            assert pair_unitary(_rows(g), F3.eps, 1, mod)
            want = ref_group_element(
                F3, prec, row[0:2], w, row[6:8], row[8], bool(row[12]), row[9:11], row[11]
            )
            assert [list(r) for r in _rows(g)] == want
        assert small >= 3



def _ref_pair_unitary(g, eps, c, mod):
    """Whether g* J g = c J, with the whole of g* J g formed through
    _ref_pmatmul, mod `mod` or exactly when mod is 0."""
    n = len(g)
    star = [[(a, -b) for a, b in col] for col in zip(*g)]
    j = [[(int(i + k == n - 1), 0) for k in range(n)] for i in range(n)]
    want = tuple(
        tuple((c % mod if mod else c, 0) if i + k == n - 1 else (0, 0) for k in range(n))
        for i in range(n)
    )
    return _ref_pmatmul(_ref_pmatmul(star, j, eps, mod), g, eps, mod) == want


@pytest.mark.parametrize("field", [F3, F5], ids=["p3", "p5"])
@pytest.mark.parametrize("m", [0, 1, 4], ids=["exact", "mod-p", "mod-p4"])
def test_pair_unitary_matches_the_whole_product(field, m):
    # inputs g with g* J g = c0 J: sizes 1, 3 and 5, the two cells of
    # k1_cell_counts and random_k; each also times s with N(s) = -1 and
    # times p, and each with one digit moved; c is 1, p or -1 times c0
    p, eps = field.p, field.eps
    mod = p**m if m else 0
    assert pnorm((1, 1), eps) == -1  # eps = 2
    cells = [_cell_factor((5, 7), 11, (4, 2), 13, big, eps, mod or p**4) for big in (True, False)]
    inputs = [([[(1, 0)]], 1), ([[(3, 2)]], 1), ([[(2, 1)]], 2)] + [(n, 1) for n in cells]
    for n, seed in ((1, 3), (1, 8), (2, 5), (2, 9)):
        k = random_k(field, n, seed=seed)
        if mod:
            k = k.to_residue(m)
        inputs.append((k.rows, k.scale**2))
    rng = random.Random(f"pair-unitary:{p}:{m}")
    agreed = unitary = 0
    for g, c0 in inputs:
        size = len(g)
        for s, factor in (((1, 0), 1), ((1, 1), -1), ((p, 0), p * p)):
            sg = [[pmul(s, e, eps) for e in row] for row in g]
            variants = [sg]
            for _ in range(4):
                bad = [[list(e) for e in row] for row in sg]
                bad[rng.randrange(size)][rng.randrange(size)][rng.randrange(2)] += 1
                variants.append([[tuple(e) for e in row] for row in bad])
            for h in variants:
                for c in (c0 * factor, p * c0 * factor, -c0 * factor):
                    want = _ref_pair_unitary(h, eps, c, mod)
                    assert pair_unitary(h, eps, c, mod) == want
                    agreed += 1
                    unitary += want
    assert unitary >= 20 and agreed - unitary >= 20


@pytest.mark.parametrize("eps", [2, 3])
def test_pmatmul_is_exact_on_negative_unreduced_entries(eps):
    rng = random.Random(f"pmatmul:{eps}")
    negative = 0
    for size in (1, 3, 5):
        g, h = (
            [[(rng.randint(-10**6, 10**6), rng.randint(-10**6, 10**6)) for _ in range(size)]
             for _ in range(size)]
            for _ in range(2)
        )
        want = _ref_pmatmul(g, h, eps, 0)
        assert [tuple(row) for row in pmatmul(g, h, eps)] == list(want)
        negative += sum(e[0] < 0 for row in want for e in row)
    assert negative >= 5

def ref_row_parameters(index, p, prec):
    """(big_cell, b, c0) of a row-class index: the big cell takes the first
    p^(3 prec) indices, b0, b1, c0 being its base-p^prec digits from the top;
    the small cell takes the rest, digits base p^(prec - 1), each times p."""
    big = p ** (3 * prec)
    if index < big:
        base, scale = p**prec, 1
    else:
        index, base, scale = index - big, p ** (prec - 1), p
    c0, b1, b0 = (scale * (index // base**j % base) for j in range(3))
    return scale == 1, (b0, b1), c0


def ref_mc_valuation_histogram(p, ell, samples, prec, seed):
    """The Monte-Carlo on the bottom row of the reference group element with
    alpha = w = 1 and d = f0 = 0, whose cell parameters one row-class index
    gives; valuations read with the reference's own."""
    if prec < 2:
        raise PrecisionError("sampling needs at least two digits", required=2)
    field = LocalField(p)
    rng = random.Random(f"{seed}:{ell}")
    classes = p ** (3 * prec) + p ** (3 * (prec - 1))
    hist, saturated, produced, i = {}, 0, 0, 0
    budget = samples + max(10, samples // 100)
    while produced < samples:
        if i >= budget:
            raise PrecisionError(
                f"saturation rate exceeded 1% at precision {prec}", required=prec + 4
            )
        big_cell, b, c0 = ref_row_parameters(rng.randrange(classes), p, prec)
        g = ref_group_element(field, prec, (1, 0), (1, 0), (0, 0), 0, big_cell, b, c0)
        i += 1
        bottom = [RefExactLocal(field, x, y) for x, y in g[2]]
        w = bottom[0].norm() * p ** (2 * ell) + bottom[1].norm() * p**ell + bottom[2].norm()
        # 0 mod p^prec has no certified valuation
        v_raw = RefExactLocal(field, w % p**prec).valuation()
        if v_raw > prec - 2:
            saturated += 1
            continue
        hist[v_raw - ell] = hist.get(v_raw - ell, 0) + 1
        produced += 1
    if saturated > samples / 100:
        raise PrecisionError(f"saturation rate {saturated}/{samples} above 1%", required=prec + 4)
    return hist, saturated


def _outcome(fn, *args):
    """The result with its dict order, or the PrecisionError's text and hint."""
    try:
        hist, saturated = fn(*args)
    except PrecisionError as e:
        return ("raised", str(e), e.required)
    return (list(hist.items()), saturated)


def test_mc_histogram_matches_reference_at_batch_boundaries():
    # at prec 6, ell 0 about one draw in 300 is replaced; seed "edge:282"
    # replaces one draw among the first 255, so every count but the first
    # runs the replacement path
    for samples in (1, 255, 256, 257, 300):
        args = (3, 0, samples, 6, "edge:282")
        assert _outcome(_mc_valuation_histogram, *args) == _outcome(
            ref_mc_valuation_histogram, *args
        )
    for samples in (255, 256, 257, 300):
        assert _mc_valuation_histogram(3, 0, samples, 6, "edge:282")[1] >= 1


def test_mc_histogram_matches_reference_when_the_budget_runs_out():
    # the first two run out of replacement draws, the last two finish above 1%
    for args, budget in [
        ((3, 0, 200, 2, 0), True),
        ((3, 0, 100, 3, 1), True),
        ((3, 2, 200, 2, 0), False),
        ((3, 0, 150, 4, 1), False),
    ]:
        got = _outcome(_mc_valuation_histogram, *args)
        assert got == _outcome(ref_mc_valuation_histogram, *args)
        assert got[0] == "raised" and ("exceeded" in got[1]) == budget


def test_mc_histogram_matches_reference_past_int64():
    args = (3, 12, 300, 30, 0)
    assert _outcome(_mc_valuation_histogram, *args) == _outcome(
        ref_mc_valuation_histogram, *args
    )


# -- the defining integral ----------------------------------------------------------


def test_mc_degenerate_exponent_is_exactly_one():
    out = monte_carlo_omega1(1, 0.0, 500, 6, seed=0)
    assert out["estimate"] == 1.0
    assert out["closed_form"] == pytest.approx(1.0, abs=1e-12)


def test_closed_form_matches_exact_series():
    # float evaluation against the exact rational expression at q = 3
    q = QLaurent.gen()
    for ell in range(4):
        for s in (1, 2, 3):
            u = QFraction(q ** (-s))
            exact = omega_rank1_s_form(ell, u).eval(Fraction(3))
            assert exact.im == 0
            assert omega_n1_closed(ell, s, 3) == pytest.approx(float(exact.re), rel=1e-12)


def test_mc_matches_closed_form():
    for ell, s in [(0, 1.0), (1, 1.0), (2, 0.5)]:
        out = monte_carlo_omega1(ell, s, 4000, 8, seed=123)
        # a few replacement draws are allowed; more than 1% would have raised
        assert out["saturated"] <= 40
        err = abs(out["estimate"] - out["closed_form"])
        assert err < 3 * out["stderr"] + 1e-12


def test_mc_is_deterministic():
    a = monte_carlo_omega1(1, 1.0, 300, 8, seed=42)
    b = monte_carlo_omega1(1, 1.0, 300, 8, seed=42)
    assert a["estimate"] == b["estimate"]
    assert a["histogram"] == b["histogram"]


def test_mc_histograms_reexported_as_the_same_dict():
    # readers of padic._MC_HISTOGRAMS must see the histograms the Monte-Carlo fills
    from hermlab import padic, residue

    assert padic._MC_HISTOGRAMS is residue._MC_HISTOGRAMS
    monte_carlo_omega1(1, 1.0, 20, 8, seed="reexport")
    assert (3, 1, 20, 8, "reexport") in padic._MC_HISTOGRAMS


def test_mc_saturation_guard():
    # at working precision 2 every valuation >= 1 is uncertifiable, so the
    # replacement budget must blow up for deep orbits
    with pytest.raises(PrecisionError):
        monte_carlo_omega1(2, 1.0, 200, 2, seed=0)


# -- constructive diagonalization ----------------------------------------------------


def bordered_form(field, m, ell, r):
    """The deep-corner family: antidiagonal ones plus a rank-one hermitian
    border with prescribed valuations (constraint solved for s)."""
    p = field.p
    s = Fraction(-2 - p ** (m + ell) * 2 * r)
    v = [Fraction(p**m), s, p**ell * r * s]
    rows = [
        [(Fraction(1) if i + j == 2 else Fraction(0)) + v[i] * v[j] / s for j in range(3)]
        for i in range(3)
    ]
    return LocalMatrix.from_values(field, rows)


def vanishing_corner_form(field, f):
    f = Fraction(f)
    return LocalMatrix.from_values(field, [[0, 0, 1], [0, -1, f], [1, f, -f * f / 2]])


def _assert_reduces(x, prec, want):
    """diagonalize_x1 of the exact member x at prec returns want with a
    unitary k that carries the full precision and conjugates x onto x_want."""
    xr = x.to_residue(prec)
    k, ell = diagonalize_x1(xr)
    assert ell == want
    assert k.precision == prec
    assert_unitary(k)
    assert k.act(xr) == x_lambda(xr.field, 1, (ell,)).to_residue(prec)


def test_diagonalize_representative():
    k, ell = diagonalize_x1(x_lambda(F3, 1, (2,)), prec=12)
    assert ell == 2
    assert_unitary(k)


def test_diagonalize_bordered_examples():
    x = bordered_form(F3, 1, 1, 1)
    assert is_member_X(x)
    _assert_reduces(x, 14, 0)
    # deeper corners still land where the invariant-factor oracle says
    for field in (F3, F5, F7):
        for m, el, r in [(2, 1, 1), (2, 2, 1), (3, 1, 2)]:
            x = bordered_form(field, m, el, r)
            assert is_member_X(x)
            _assert_reduces(x, 16, classify_k_orbit(x)[0])


def test_diagonalize_vanishing_corner_family():
    for field in (F3, F5, F7):
        p = field.p
        for f in (0, p, p * p, Fraction(1, p), 1):
            x = vanishing_corner_form(field, f)
            assert is_member_X(x)
            _assert_reduces(x, 14, classify_k_orbit(x)[0])


def test_diagonalize_roundtrips():
    for p, field in ((3, F3), (5, F5), (7, F7)):
        for ell in range(5):
            for trial in range(3):
                seed = 1000 * p + 10 * ell + trial
                x = random_k(field, 1, seed=seed).act(x_lambda(field, 1, (ell,)))
                _assert_reduces(x, 12, ell)


@pytest.mark.parametrize("field", [F3, F5, F7], ids=["p3", "p5", "p7"])
def test_diagonalize_needs_no_precision_retry(field):
    # every member reduces at every precision down to one digit, with k
    # certified at that precision: no input asks for more digits
    p = field.p
    members = [bordered_form(field, m, el, r) for m, el, r in [(1, 1, 1), (2, 2, 1), (3, 1, 2)]]
    members += [vanishing_corner_form(field, f) for f in (0, p, Fraction(1, p), 1)]
    for ell in range(5):
        members.append(x_lambda(field, 1, (ell,)))
        members.append(random_k(field, 1, seed=f"{p}:{ell}").act(x_lambda(field, 1, (ell,))))
    for x in members:
        want = classify_k_orbit(x)[0]
        for prec in range(1, 9):
            _assert_reduces(x, prec, want)


def test_diagonalize_certifies_the_norm_equation(monkeypatch):
    # with the norm equation answered wrongly, h(w, w) misses -2 p^ell and
    # the reduction must refuse rather than return a non-unitary k
    monkeypatch.setattr(padic, "hensel_norm_solve", lambda field, t, prec: (1, 0))
    for trial in range(10):
        x = random_k(F3, 1, seed=f"mutant:{trial}").act(x_lambda(F3, 1, (1,)))
        with pytest.raises(AssertionError):
            diagonalize_x1(x, prec=12)


def test_diagonalize_rejects_larger_sizes():
    with pytest.raises(ValueError):
        diagonalize_x1(x_lambda(F3, 2, (1, 0)), prec=10)
