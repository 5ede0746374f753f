import math
import random
from fractions import Fraction

import numpy as np
import pytest

from hermlab.errors import InexactDivision, PrecisionError, ResourceLimit
from hermlab.padic import (
    ExactLocal,
    LocalMatrix,
    ResidueElem,
    assert_unitary,
    classify_g_orbit,
    classify_k_orbit,
    diagonalize_x1,
    hensel_norm_solve,
    invariant_factors,
    is_member_X,
    j_matrix,
    random_k,
    sample_k1_haar,
    t_diag,
    x_lambda,
)
from hermlab.hall_littlewood import partitions
from hermlab.residue import (
    ENUMERATION_BOUND,
    LocalField,
    _assert_unitary_entries,
    _diag_units,
    _haar_draw,
    _haar_products,
    _haar_sample,
    _mc_valuation_histogram,
    k1_cell_counts,
    monte_carlo_omega1,
    norm_count,
    norm_residual,
    omega_n1_closed,
    smallest_nonresidue,
)
from hermlab.scalars import QFraction, QLaurent
from hermlab.spherical import omega_rank1_s_form

F3 = LocalField(3)
F5 = LocalField(5)


# -- the Fraction-pair ExactLocal, kept as the reference ----------------------------


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
    """a + b*sqrt(eps) with a, b stored as Fractions, as ExactLocal was."""

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

    def trace(self):
        return 2 * self.a

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

    def __hash__(self):
        # the key ExactLocal hashed before its integer storage
        return hash((ExactLocal, self.field.p, self.a, self.b))

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


def _pair_of_models(field, rng):
    a, b = _rand_fraction(rng), _rand_fraction(rng)
    return ExactLocal(field, a, b), RefExactLocal(field, a, b)


def _same(x, ref):
    return (
        x.a == ref.a
        and x.b == ref.b
        and type(x.a) is Fraction
        and repr(x) == repr(ref)
        and hash(x) == hash(ref)
    )


def test_exact_local_matches_reference():
    rng = random.Random(2024)
    for field in (F3, F5):
        for _ in range(400):
            x, rx = _pair_of_models(field, rng)
            y, ry = _pair_of_models(field, rng)
            n = rng.randrange(-5, 6)
            fr = Fraction(rng.randrange(-9, 10), rng.randrange(1, 10))
            assert _same(x, rx)
            assert _same(x + y, rx + ry) and _same(x - y, rx - ry)
            assert _same(x * y, rx * ry) and _same(-x, -rx) and _same(x.conj(), rx.conj())
            assert _same(x + n, rx + n) and _same(x * fr, rx * fr) and _same(n + x, rx + n)
            assert _same(n - x, -rx + n) and _same(fr * x, rx * fr)
            assert x.norm() == rx.norm() and x.trace() == rx.trace()
            assert x.valuation() == rx.valuation()
            assert (x == y) == (rx == ry) and (x == x.a) == (rx == rx.a)
            assert x == ExactLocal(field, rx.a, rx.b)
            if rx.norm() == 0:
                with pytest.raises(ZeroDivisionError):
                    x.inverse()
                continue
            assert _same(x.inverse(), rx.inverse())
            assert _same(y / x, ry / rx) and _same(n / x, RefExactLocal(field, n) / rx)


def test_exact_local_equal_values_hash_equal():
    # equal values built along different roads agree in every field
    x = ExactLocal(F3, Fraction(2, 6), Fraction(-4, 12))
    y = ExactLocal(F3, 1, 2) * ExactLocal(F3, Fraction(1, 3)) - ExactLocal(F3, 0, 1)
    assert x == y and hash(x) == hash(y) and repr(x) == repr(y) == "1/3+-1/3*sqrt(2)"
    assert hash(ExactLocal(F3, 5)) == hash((ExactLocal, 3, Fraction(5), Fraction(0)))
    assert ExactLocal(F3, 5) == 5 and ExactLocal(F3, Fraction(5, 2)) == Fraction(5, 2)


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
                x, y = (
                    LocalMatrix(field, [[ExactLocal(field, *v) for v in row] for row in m])
                    for m in vals
                )
                rx, ry = (
                    [[RefExactLocal(field, *v) for v in row] for row in m] for m in vals
                )
                prod = x @ y
                ref = [
                    [sum((rx[i][t] * ry[t][j] for t in range(size)), RefExactLocal(field, 0))
                     for j in range(size)]
                    for i in range(size)
                ]
                for got, want in zip(prod.rows, ref):
                    assert all(_same(e, re) for e, re in zip(got, want))
                for prec in (4, 9):
                    shift, digits = ref_to_residue(ref, field, prec)
                    r = prod.to_residue(prec)
                    assert r.shift == shift and r.precision == prec
                    assert [[(e.a, e.b) for e in row] for row in r.rows] == digits


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


def test_exact_local_algebra():
    x = ExactLocal(F3, Fraction(1, 2), 3)
    y = ExactLocal(F3, 2, Fraction(-1, 5))
    assert (x + y) - y == x
    assert x * y == y * x
    assert (x * y) * x.inverse() == y * (x * x.inverse())
    assert x * x.inverse() == ExactLocal(F3, 1)
    # norm is multiplicative and real
    assert (x * y).norm() == x.norm() * y.norm()
    assert x.trace() == Fraction(1)
    assert x.conj().conj() == x
    # valuation of a product adds
    assert (x * y).valuation() == x.valuation() + y.valuation()


def test_exact_valuation():
    assert ExactLocal(F3, 9, 27).valuation() == 2
    assert ExactLocal(F3, Fraction(1, 3)).valuation() == -1
    assert ExactLocal(F3, 0, 6).valuation() == 1
    assert ExactLocal(F3, 0).valuation() == math.inf


def test_residue_arithmetic_and_precision():
    a = ResidueElem(F3, 6, 5, 1)
    b = ResidueElem(F3, 4, 2, 7)
    assert (a * b).m == 4  # precision caps at the weaker operand
    assert (a + b).m == 4
    u = a.unit_inverse()
    assert (a * u) == ResidueElem(F3, 6, 1)
    # dividing by pi costs certified digits
    c = ResidueElem(F3, 6, 9)
    assert c.val() == 2
    d = c.div_pi_power(2)
    assert d.m == 4 and d == ResidueElem(F3, 4, 1)
    with pytest.raises(PrecisionError):
        ResidueElem(F3, 3, 27).val()  # reads 0 mod 27: could hide deeper divisibility
    with pytest.raises(PrecisionError):
        ResidueElem(F3, 3, 9).div_pi_power(2)  # would leave < 2 digits
    with pytest.raises(InexactDivision):
        ResidueElem(F3, 5, 1) / ResidueElem(F3, 5, 3)


def test_residue_division_restores_pi_powers():
    num = ResidueElem(F3, 8, 18, 9)  # valuation 2... (18,9) = 9*(2,1), v=2
    den = ResidueElem(F3, 8, 3)
    quo = num / den
    assert quo * den == num.reduce(quo.m)


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


def test_hensel_norm_solve():
    rng = random.Random(11)
    for field in (F3, F5):
        p = field.p
        for _ in range(12):
            t = rng.randrange(1, p**4)
            if t % p == 0:
                t += 1
            alpha = hensel_norm_solve(field, t, 6)
            assert alpha.norm() == ResidueElem(field, alpha.m, t)
    # Fraction targets with unit denominator work too
    alpha = hensel_norm_solve(F3, Fraction(5, 7), 8)
    assert alpha.norm() == ResidueElem(F3, alpha.m, Fraction(5, 7))


# -- matrices ---------------------------------------------------------------------


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
    assert _det(x.rows) == ExactLocal(F3, 1)


def test_exact_matrix_normalization():
    x = LocalMatrix.from_values(F3, [[3, Fraction(9, 2)], [0, ExactLocal(F3, 6, 3)]], 2)
    y = x.normalized()
    assert y.shift == 1
    assert y.rows == ((ExactLocal(F3, 1), ExactLocal(F3, Fraction(3, 2))),
                      (ExactLocal(F3, 0), ExactLocal(F3, 2, 1)))
    assert y == x


def test_matmul_precision_cap():
    # a zero entry known only mod 3^2 must cap the certified digits of any
    # sum it participates in, even though it contributes no term
    a = LocalMatrix.from_values(
        F3, [[ResidueElem(F3, 2, 0), ResidueElem(F3, 9, 1)],
             [ResidueElem(F3, 9, 1), ResidueElem(F3, 9, 0)]])
    b = LocalMatrix.from_values(
        F3, [[ResidueElem(F3, 9, 1), ResidueElem(F3, 9, 0)],
             [ResidueElem(F3, 9, 0), ResidueElem(F3, 9, 1)]])
    prod = a @ b
    assert prod.rows[0][0].m == 2
    assert prod.rows[1][0].m == 9


def test_matrix_json_roundtrip():
    for mat in (
        x_lambda(F3, 2, (3, 1)),
        x_lambda(F5, 1, (2,), prec=7),
        random_k(F3, 2, seed=9),
    ):
        again = LocalMatrix.from_json_dict(mat.to_json_dict())
        assert again == mat
        assert again.precision == mat.precision and again.shift == mat.shift


def test_prec_alone_selects_the_residue_model():
    assert LocalMatrix.identity(F3, 5, prec=4).precision == 4
    assert LocalMatrix.identity(F3, 5).precision is None
    assert j_matrix(F3, 3, prec=6).precision == 6
    assert random_k(F3, 2, seed=9, prec=6) == random_k(F3, 2, seed=9).to_residue(6)


def test_from_values_takes_a_carried_precision():
    x = LocalMatrix.from_values(
        F3, [[ResidueElem(F3, 7, 2), 0], [Fraction(1, 2), ResidueElem(F3, 5, 1)]]
    )
    assert x.precision == 5
    assert [[e.m for e in row] for row in x.rows] == [[7, 5], [5, 5]]
    assert x.rows[1][0] * 2 == 1


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
    rows = [[ResidueElem(field, prec, ent[i] if i == j else 0) for j in range(size)]
            for i in range(size)]
    return LocalMatrix(field, rows, s)


def test_x_lambda_residue_matches_hand_construction():
    for field in (F3, F5):
        for n in (1, 2, 3):
            for lam in partitions(n, 3):
                for prec in (2, 5, 9):
                    got = x_lambda(field, n, lam, prec)
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
    return LocalMatrix(x.field, [[-e for e in row] for row in x.rows], x.shift)


def _charpoly(m):
    """Faddeev-LeVerrier: the coefficients of t^n + c1 t^(n-1) + ... + cn of
    an unshifted exact matrix, highest power first."""
    assert m.shift == 0
    n = m.size
    M = LocalMatrix.identity(m.field, n)
    coeffs = [ExactLocal(m.field, 1)]
    for k in range(1, n + 1):
        AM = m @ M
        c = sum((AM.rows[i][i] for i in range(n)), ExactLocal(m.field, 0)) * Fraction(-1, k)
        coeffs.append(c)
        M = LocalMatrix(
            m.field, [[e + c if i == j else e for j, e in enumerate(row)] for i, row in enumerate(AM.rows)]
        )
    return coeffs


def _member_by_charpoly(x):
    """Membership decided by the whole characteristic polynomial of x j
    against (t^2 - 1)^n (t - 1), the reference for the trace decision."""
    size = x.size
    if any(x.rows[i][j] != x.rows[j][i].conj() for i in range(size) for j in range(size)):
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
                corner = [list(row) for row in x.rows]
                corner[-1][-1] = corner[-1][-1] + 3
                cases += [x, _negated(x), LocalMatrix(F3, corner)]
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
        assert _det(k.rows).norm() == 1


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
                # residue model agrees when given enough digits (elimination
                # spends them fast: the deepest case here needs 16)
                xr = x.to_residue(18)
                assert classify_k_orbit(xr) == lam


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


# -- Haar sampling on the small unitary group ------------------------------------


def test_k1_cell_counts_frozen():
    big, small, union = k1_cell_counts(3)
    assert (big, small, union) == (23328, 864, 24192)
    # |U3| over the residue field: q^3 (q+1)(q^2-1)(q^3+1)
    q = 3
    assert union == q**3 * (q + 1) * (q**2 - 1) * (q**3 + 1)
    assert big == (q**2 - 1) * (q + 1) * q**6
    assert small == (q**2 - 1) * (q + 1) * q**3


def test_sampler_products_stay_in_group():
    for seed in range(40):
        g = sample_k1_haar(F3, 6, seed=seed)
        assert_unitary(g)
        assert _det(g.rows).norm().val() == 0


def test_sampler_cell_frequency():
    # P(big cell) = 1/(1+q^-3) = 27/28; check a 3-sigma band at modest n
    n, hits = 4000, 0
    for seed in range(4000):
        g = sample_k1_haar(F3, 4, seed=f"cell:{seed}")
        if g.rows[2][2].val() == 0:
            hits += 1
    want = 27 / 28
    sigma = math.sqrt(want * (1 - want) / n)
    assert abs(hits / n - want) < 3 * sigma


def test_sampler_stream_pinned():
    # (a, b) digits recorded from the ResidueElem-level sampler, which passes
    # assert_unitary and the 3-sigma gates; seed 16 falls in the small cell
    want = {
        0: [[(614, 272), (658, 586), (579, 313)],
            [(248, 644), (118, 338), (384, 266)],
            [(176, 329), (229, 525), (76, 280)]],
        1: [[(201, 272), (307, 236), (90, 250)],
            [(660, 453), (622, 258), (434, 109)],
            [(671, 456), (242, 254), (145, 128)]],
        16: [[(370, 480), (388, 323), (269, 182)],
             [(108, 561), (524, 522), (106, 211)],
             [(333, 468), (441, 573), (502, 186)]],
    }
    for seed, rows in want.items():
        g = sample_k1_haar(F3, 6, seed)
        assert g.shift == 0 and g.precision == 6
        assert all(isinstance(e, ResidueElem) and e.m == 6 for row in g.rows for e in row)
        assert [[(e.a, e.b) for e in row] for row in g.rows] == rows


def test_mc_histogram_stream_pinned():
    # (histogram, saturated) recorded from the ResidueElem-level sampler
    want = {
        0: ({0: 1738, 2: 235, 4: 23, 6: 4}, 2),
        1: ({-1: 1929, 1: 71}, 0),
        2: ({-2: 1929, 0: 49, 2: 21, 4: 1}, 0),
    }
    for ell, (hist, saturated) in want.items():
        assert _mc_valuation_histogram(3, ell, 2000, 8, 0) == (hist, saturated)


def test_pair_unitarity_check_rejects_corruption():
    mod = 3**6
    (g,) = _haar_sample(F3, 6, [3])
    _assert_unitary_entries(g, F3.eps, mod)
    for k in range(9):
        for part in (0, 1):
            bad = [list(e) for e in g]
            bad[k][part] = (bad[k][part] + 1) % mod
            with pytest.raises(AssertionError):
                _assert_unitary_entries(bad, F3.eps, mod)


def test_unitarity_check_rejects_one_corrupted_matrix_in_a_batch(monkeypatch):
    from hermlab import residue

    mod = 3**6
    for g in _haar_sample(F3, 6, range(40)):
        _assert_unitary_entries(g, F3.eps, mod)
    cell_factor = residue._cell_factor
    for k, (i, j, part) in enumerate([(0, 0, 0), (2, 1, 1), (1, 2, 0)]):
        calls = []

        def corrupted(*args):
            n = [list(e) for e in cell_factor(*args)]
            if len(calls) == 17 + k:
                n[3 * i + j][part] += 1
            calls.append(1)
            return n

        monkeypatch.setattr(residue, "_cell_factor", corrupted)
        with pytest.raises(AssertionError, match="not unitary for the antidiagonal form"):
            _haar_sample(F3, 6, range(40))
        assert len(calls) == 18 + k


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


# The batched numpy kernel of stacks (int64 up to the overflow bound, object
# arrays above it), kept verbatim as the reference for the entry-wise kernel.


def ref_stack_dtype(eps, mod):
    """int64 while a sum of three products of reduced entries stays exact,
    3 (1 + eps) mod^2 < 2^63; object arrays of Python ints above that."""
    return np.int64 if 3 * (1 + eps) * mod * mod < 2**63 else object


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


def ref_haar_products(params, eps, mod):
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
    """ref_haar_products as nine (re, im) entries per row, and the dtype it used."""
    re, im = ref_haar_products(np.array(rows, dtype=ref_stack_dtype(eps, mod)), eps, mod)
    out = [
        tuple(zip(r, i)) for r, i in zip(re.reshape(-1, 9).tolist(), im.reshape(-1, 9).tolist())
    ]
    return out, re.dtype


def test_kernel_matches_stack_reference_on_mc_draws():
    mod = 3**8
    # the draws of _mc_valuation_histogram(3, 0, 2000, 8, 0)
    rows = [_haar_draw(random.Random(f"0:0:{i}"), 3, F3.eps, 8) for i in range(2000)]
    want, dtype = ref_entries(rows, F3.eps, mod)
    assert dtype == np.int64
    assert _haar_products(rows, F3.eps, mod) == want
    assert sum(not row[-1] for row in rows) >= 30  # the small cell is covered


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
    got = {}
    for big, rest in cells.items():
        rows = [diag + r for diag in sorted(diags) for r in rest]
        want, _ = ref_entries(rows, eps, p)
        got[big] = set(_haar_products(rows, eps, p))
        assert got[big] == set(want)
    assert k1_cell_counts(p) == (len(got[1]), len(got[0]), len(got[1] | got[0]))


def test_kernel_matches_stack_reference_past_int64():
    # 3 (1 + eps) mod^2 < 2^63 holds at p = 3 up to prec 18; at prec 30 the
    # reference ran on object arrays of Python ints
    assert ref_stack_dtype(F3.eps, 3**18) is np.int64
    assert ref_stack_dtype(F3.eps, 3**19) is object
    mod = 3**30
    rows = [_haar_draw(random.Random(f"wide:{i}"), 3, F3.eps, 30) for i in range(200)]
    want, dtype = ref_entries(rows, F3.eps, mod)
    assert dtype == object
    assert _haar_products(rows, F3.eps, mod) == want


# The pair-level sampler and Monte-Carlo loop, one draw at a time, kept as the
# reference for the residue kernel.


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
    cols = tuple(zip(*y))
    out = []
    for row in x:
        r = []
        for col in cols:
            re = im = 0
            for (a, b), (c, d) in zip(row, col):
                re += a * c + eps * b * d
                im += a * d + b * c
            r.append((re % mod, im % mod))
        out.append(tuple(r))
    return tuple(out)


def _ref_rand_pair(rng, mod):
    return (rng.randrange(mod), rng.randrange(mod))


def _ref_rand_pair_unit(rng, p, mod):
    while True:
        z = _ref_rand_pair(rng, mod)
        if z[0] % p or z[1] % p:
            return z


def ref_sample_pairs(field, prec, seed):
    """(pair matrix, big_cell) of one draw, one pair product at a time."""
    if prec < 2:
        raise PrecisionError("sampling needs at least two digits", required=2)
    rng = random.Random(seed)
    p, eps = field.p, field.eps
    mod = p**prec
    half = -pow(2, -1, mod) % mod
    alpha = _ref_rand_pair_unit(rng, p, mod)
    w = _ref_rand_pair_unit(rng, p, mod)
    u = _ref_pmul(w, _ref_punit_inverse(_ref_pconj(w, mod), eps, mod), eps, mod)
    d = _ref_rand_pair(rng, mod)
    f0 = rng.randrange(mod)
    big_cell = rng.randrange(p**3 + 1) < p**3
    if big_cell:
        b = _ref_rand_pair(rng, mod)
        c0 = rng.randrange(mod)
    else:
        b0, b1 = _ref_rand_pair(rng, p ** (prec - 1))
        b = (p * b0, p * b1)
        c0 = p * rng.randrange(p ** (prec - 1))
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
    return [list(row) for row in g], big_cell


def ref_mc_valuation_histogram(p, ell, samples, prec, seed):
    field = LocalField(p)
    hist, saturated, produced, i = {}, 0, 0, 0
    budget = samples + max(10, samples // 100)
    while produced < samples:
        if i >= budget:
            raise PrecisionError(
                f"saturation rate exceeded 1% at precision {prec}", required=prec + 4
            )
        g, _ = ref_sample_pairs(field, prec, f"{seed}:{ell}:{i}")
        i += 1
        bottom = [ResidueElem(field, prec, a, b) for a, b in g[2]]
        w = bottom[0].norm() * p ** (2 * ell) + bottom[1].norm() * p**ell + bottom[2].norm()
        try:
            v_raw = w.val()
        except PrecisionError:
            saturated += 1
            continue
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


def test_sampler_matches_pair_reference():
    for prec in (2, 6, 8, 30):
        small = 0
        for seed in range(200):
            want, big_cell = ref_sample_pairs(F3, prec, f"ref:{seed}")
            small += not big_cell
            g = sample_k1_haar(F3, prec, f"ref:{seed}")
            assert [[(e.a, e.b) for e in row] for row in g.rows] == want
        assert small >= 3


def test_mc_histogram_matches_reference_at_batch_boundaries():
    # at prec 6, ell 0 about one draw in 300 is replaced; seed "edge:282"
    # replaces draws 253 and 260, next to where the stack kernel's 256-draw
    # batches ended
    for samples in (1, 255, 256, 257, 300):
        args = (3, 0, samples, 6, "edge:282")
        assert _outcome(_mc_valuation_histogram, *args) == _outcome(
            ref_mc_valuation_histogram, *args
        )
    assert _mc_valuation_histogram(3, 0, 256, 6, "edge:282")[1] == 1
    assert _mc_valuation_histogram(3, 0, 300, 6, "edge:282")[1] == 2


def test_mc_histogram_matches_reference_when_the_budget_runs_out():
    # the first two run out of replacement draws, the last two finish above 1%
    for args, budget in [
        ((3, 0, 200, 2, 0), True),
        ((3, 0, 50, 3, 1), True),
        ((3, 2, 200, 2, 0), False),
        ((3, 0, 300, 4, 1), False),
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


def test_diagonalize_representative():
    k, ell = diagonalize_x1(x_lambda(F3, 1, (2,)), prec=12)
    assert ell == 2
    assert_unitary(k)


def test_diagonalize_bordered_examples():
    x = bordered_form(F3, 1, 1, 1)
    assert is_member_X(x)
    k, ell = diagonalize_x1(x, prec=14)
    assert ell == 0
    # deeper corners still land where the invariant-factor oracle says
    for field in (F3, F5):
        for m, el, r in [(2, 1, 1), (2, 2, 1), (3, 1, 2)]:
            x = bordered_form(field, m, el, r)
            assert is_member_X(x)
            want = classify_k_orbit(x)[0]
            k, got = diagonalize_x1(x, prec=16)
            assert got == want


def test_diagonalize_vanishing_corner_family():
    for field in (F3, F5):
        p = field.p
        for f in (0, p, p * p, Fraction(1, p), 1):
            x = vanishing_corner_form(field, f)
            assert is_member_X(x)
            want = classify_k_orbit(x)[0]
            k, got = diagonalize_x1(x, prec=14)
            assert got == want


def test_diagonalize_roundtrips():
    for p, field in ((3, F3), (5, F5)):
        for ell in range(4):
            for trial in range(3):
                seed = 1000 * p + 10 * ell + trial
                x = random_k(field, 1, seed=seed).act(x_lambda(field, 1, (ell,)))
                xr = x.to_residue(12)
                k, got = diagonalize_x1(xr)
                assert got == ell
                y = k.act(xr)
                pw = Fraction(p)
                for i, want in enumerate([pw**ell, Fraction(1), pw**-ell]):
                    e = y.rows[i][i]
                    assert e == e._coerce(want * pw**y.shift, e.m)
                for i in range(3):
                    for j in range(3):
                        if i != j:
                            assert y.rows[i][j].is_zero()


def test_diagonalize_precision_retry():
    # a saturated corner raises with a usable retry hint instead of lying
    x = x_lambda(F3, 1, (3,))
    prec, rounds = 3, 0
    while True:
        try:
            k, ell = diagonalize_x1(x.to_residue(prec))
            break
        except PrecisionError as e:
            assert e.required > prec
            prec = e.required
            rounds += 1
    assert ell == 3 and rounds >= 1


def test_diagonalize_rejects_larger_sizes():
    with pytest.raises(ValueError):
        diagonalize_x1(x_lambda(F3, 2, (1, 0)), prec=10)
