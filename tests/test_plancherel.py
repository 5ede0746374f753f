import itertools
import math
import random
from fractions import Fraction
from functools import lru_cache

import numpy as np
import pytest

from hermlab.errors import ENUMERATION_BOUND, ResourceLimit
from hermlab.plancherel import (
    QuadratureGrid,
    _delta_plus_at,
    _height,
    _root_factor,
    _root_params,
    basis_partitions,
    basis_rank_check,
    check_inversion,
    check_plancherel,
    expected_gram_diagonal,
    gram_matrix,
    measure_constant,
    pairing_at,
    pairing_misses,
    total_mass,
    transform_ch,
    volume,
)
from hermlab.scalars import QF_ZERO, GaussianRational, QFraction, QLaurent
from hermlab.spherical import PhasedScalar, SphericalValue, omega_explicit, phase_power, psi
from hermlab.torus import FactoredRational, TorusPoly, TorusPolyAt
from hermlab.hall_littlewood import (
    p_poly,
    partitions,
    q_poly,
    spec_params,
    w_lambda_value,
    w_poly,
    whole_group_value,
)
from hermlab.weyl import long_positive_roots, short_positive_roots


# -- the symbolic reference for the pairings at q0 ------------------------------------


def ref_split(v):
    if isinstance(v, TorusPoly):
        return PhasedScalar.one(), v
    if v.boundary.num or v.boundary.den:
        raise ValueError("the exact pairing needs a trivial boundary factor")
    return v.prefactor / v.boundary.front, v.numerator


def pairing_matrix(fs, gs, parity, conjugate=True):
    """Exact pairings <f, g> against the density of total mass 1, symbolic
    in q: the integral of f * conj(g), or of f * g when not ``conjugate``,
    as PhasedScalar values.  Each f and g is a W-invariant TorusPoly, or a
    SphericalValue with a trivial boundary factor; each product f * g is
    formed over QFraction coefficients and paired with Delta+ by its
    constant term, the identity ``pairing_at`` takes at q0."""
    left = [ref_split(f) for f in fs]
    right = [ref_split(g) for g in gs]
    if not left or not right:
        return [[] for _ in left]
    if conjugate:
        right = [(c.conjugate(), g.map_coeffs(QFraction.conjugate_coeffs)) for c, g in right]
    products = [[f * g for _, g in right] for _, f in left]
    height = max((-_height(e) for row in products for h in row for e in h.support()), default=0)
    delta = dict(ref_delta_plus(left[0][1].n, parity, max(height, 0)).terms())

    def ct(h):
        return sum((c * delta.get(tuple(-v for v in e), QF_ZERO) for e, c in h.terms()), QF_ZERO)

    return [[cf * cg * ct(h) for (cg, _), h in zip(right, row)] for (cf, _), row in zip(left, products)]


def at_q0(mat, q0):
    """Exact values at q0; an entry with an odd power of sqrt(q) raises ValueError."""
    return [[v.as_qfraction().eval(Fraction(q0)) for v in row] for row in mat]


def ref_transform(lam, n, parity):
    """The transform as q ** (-<lam, z0>) times the normalized orbit sum p_poly."""
    pre = phase_power(lam, n, parity).inverse()
    return SphericalValue(n, parity, lam, pre, p_poly(n, parity, lam), FactoredRational(1))


@lru_cache(maxsize=None)
def ref_pairings(n, parity, weight):
    """The gram, plancherel and inversion matrices of partitions(n, weight),
    symbolic in q."""
    lams = partitions(n, weight)
    sums = [p_poly(n, parity, lam) for lam in lams]
    vals = [ref_transform(lam, n, parity) for lam in lams]
    kernels = [psi(n, parity, lam) for lam in lams]
    return (
        pairing_matrix(sums, sums, parity),
        pairing_matrix(vals, vals, parity),
        pairing_matrix(vals, kernels, parity, conjugate=False),
    )


def ref_det(rows):
    """The determinant over Q(i) by Bareiss elimination on GaussianRational."""
    m = [list(r) for r in rows]
    prev, flipped = GaussianRational(1), False
    for col in range(len(m)):
        piv = next((r for r in range(col, len(m)) if not m[r][col].is_zero()), None)
        if piv is None:
            return GaussianRational(0)
        if piv != col:
            m[col], m[piv] = m[piv], m[col]
            flipped = not flipped
        top = m[col]
        for r in range(col + 1, len(m)):
            row = m[r]
            m[r] = [(row[c] * top[col] - row[col] * top[c]) / prev for c in range(len(m))]
        prev = top[col]
    return -prev if flipped else prev


def ref_basis_rank(n, parity, q0, seed, trials):
    """``basis_rank_check`` with each orbit sum evaluated symbolically in q
    on the sign flips and only then at q0."""
    rng = random.Random(seed)
    polys = [q_poly(n, parity, lam) for lam in basis_partitions(n)]
    dets = []
    for _ in range(trials):
        for _ in range(8):
            xs = [Fraction(rng.randrange(2, 60), rng.randrange(2, 60)) for _ in range(n)]
            flips = [
                [s * x for s, x in zip(signs, xs)]
                for signs in itertools.product((1, -1), repeat=n)
            ]
            det = ref_det([[f.eval_exact(x).eval(q0) for x in flips] for f in polys])
            if not det.is_zero():
                dets.append(math.sqrt(det.abs2()))
                break
        else:
            return {"ok": False, "dets": dets}
    return {"ok": True, "dets": dets}


REF_Q0 = (Fraction(3), Fraction(7, 2), Fraction(5))


@pytest.mark.parametrize(
    "n, parity, weight",
    [(n, parity, w) for n in (1, 2, 3) for parity in ("odd", "even") for w in (2, 4)
     if n <= 2 or w == 2],
)
def test_pairings_at_q0_equal_the_symbolic_reference(n, parity, weight):
    lams = partitions(n, weight)
    gram, plan, inv = ref_pairings(n, parity, weight)
    for q0 in REF_Q0:
        assert gram_matrix(lams, n, parity, q0) == at_q0(gram, q0)
        want = at_q0(plan, q0)
        got = check_plancherel(lams, n, parity, q0)
        masses = [volume(lam, n, parity, q0) for lam in lams]
        assert got == {"matrix": want, "misses": pairing_misses(want, masses)}
        want = at_q0(inv, q0)
        got = check_inversion(lams, n, parity, q0)
        assert got == {"matrix": want, "misses": pairing_misses(want, [1] * len(lams))}


@pytest.mark.parametrize("n", [1, 2, 3])
def test_basis_rank_equals_the_symbolic_reference(n):
    trials = 3 if n < 3 else 1
    for parity in ("odd", "even"):
        for q0 in REF_Q0:
            got = basis_rank_check(n, parity, q0, seed=11, trials=trials)
            assert got == ref_basis_rank(n, parity, q0, seed=11, trials=trials)


def ref_total_mass(n, parity, q0, N):
    """The density's mean over all N^n grid angles, one complex exponential
    per root and node: the unfactored reference for ``total_mass``."""
    thetas = QuadratureGrid(n, N).thetas
    ts, tl = spec_params(parity)
    out = np.full(len(thetas), float(measure_constant(n, parity, q0)))
    for t, roots in ((ts, short_positive_roots(n)), (tl, long_positive_roots(n))):
        t = t.eval_float(float(q0))
        for a in roots:
            w = np.exp(1j * (thetas @ np.array(a)))
            out *= (np.abs(1 - w) ** 2) / (np.abs(1 - t * w) ** 2)
    return float(np.mean(out))


@lru_cache(maxsize=None)
def ref_delta_plus(n, parity, height):
    """Delta+ from the full product of the root series, cut afterwards."""
    ts, tl = spec_params(parity)
    out = TorusPoly.const(n, 1)
    for t, roots in ((ts, short_positive_roots(n)), (tl, long_positive_roots(n))):
        for a in roots:
            series = {(0,) * n: 1}
            for k in range(1, height // _height(a) + 1):
                series[tuple(k * v for v in a)] = t**k - t ** (k - 1)
            out = out * TorusPoly(n, series)
            out = TorusPoly(n, {e: c for e, c in out.terms() if _height(e) <= height})
    return out


def density_point(n, parity, q0, thetas):
    """The density at one point of the torus, one root factor at a time."""
    theta = np.array(thetas, dtype=float)
    out = float(measure_constant(n, parity, q0))
    for a, t in _root_params(n, parity, q0):
        out *= _root_factor(np.exp(1j * (theta @ np.array(a))), t)
    return float(out)


def test_measure_density_frozen_point():
    # n=1 odd, q0=3, theta=pi/2: density = 9/4
    v = density_point(1, "odd", Fraction(3), [math.pi / 2])
    assert abs(v - 2.25) < 1e-12


def test_measure_constant_rank1():
    # (1/2) * w1 w2 / (1+1/q)^2 at q=3: (1/2)(4/3)(32/27)/(16/9) = 4/9
    assert measure_constant(1, "odd", Fraction(3)) == Fraction(4, 9)


def ref_measure_constant(n, parity, q0):
    """The front constant as a product: w_n(-1/q0) w_m'(-1/q0) / (1 + 1/q0)^m'
    / (2^n n!), with m' = n + 1 in the odd case and n in the even case."""
    t = -(QLaurent.gen() ** -1)
    mp = n + 1 if parity == "odd" else n
    w_n = w_poly(n, t).eval(Fraction(q0)).re
    w_mp = w_poly(mp, t).eval(Fraction(q0)).re
    return Fraction(1, 2**n * math.factorial(n)) * w_n * w_mp / (1 + Fraction(1, q0)) ** mp


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_measure_constant_matches_the_product_formula(n):
    for parity in ("odd", "even"):
        for q0 in (Fraction(3), Fraction(5), Fraction(7, 2)):
            assert measure_constant(n, parity, q0) == ref_measure_constant(n, parity, q0)


def test_total_mass_is_one():
    for q0 in (Fraction(3), Fraction(5)):
        for parity in ("odd", "even"):
            assert abs(total_mass(1, parity, q0, N=64) - 1) < 1e-10
            assert abs(total_mass(2, parity, q0, N=48) - 1) < 1e-8


def full_grid_gap(n, parity, q0, N):
    return abs(total_mass(n, parity, q0, N) - ref_total_mass(n, parity, q0, N))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_total_mass_matches_full_grid(n):
    for parity in ("odd", "even"):
        for q0 in (Fraction(3), Fraction(5), Fraction(7, 2)):
            for N in (2, 3, 5, 8, 16):
                assert full_grid_gap(n, parity, q0, N) <= 1e-13


def test_total_mass_matches_full_grid_n3_default():
    for parity in ("odd", "even"):
        assert full_grid_gap(3, parity, Fraction(3), 64) <= 1e-13


def test_total_mass_matches_full_grid_n4():
    # below N = 9 some root factor vanishes at every node of a rank-4 grid,
    # so N = 9, 12 and 16 are the cases where the mean is not ~0
    for parity in ("odd", "even"):
        for N in (3, 8, 9, 12, 16):
            assert full_grid_gap(4, parity, Fraction(3), N) <= 1e-13


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_total_mass_orbit_sizes_cover_the_grid(monkeypatch, n):
    # with no roots and a front constant of 1 every node weighs 1, so the
    # walk adds up the orbit sizes; they are integers below 2^53, the sum is
    # exact, and the mean is 1.0 exactly only when they add up to N^n
    monkeypatch.setattr("hermlab.plancherel._root_params", lambda *args: [])
    monkeypatch.setattr("hermlab.plancherel.measure_constant", lambda *args: Fraction(1))
    for N in (2, 3, 5, 8, 9, 16, 64):
        assert total_mass(n, "odd", Fraction(3), N) == 1.0


def test_density_is_weyl_invariant_on_the_grid():
    # the walk visits one node per W-orbit: a sign flip (k -> -k mod N) and
    # a transposition leave the density where it was
    N = 64
    for ks in ((5, 23), (5, 17, 40), (3, 11, 30, 50)):
        n = len(ks)
        flipped = ks[:-1] + (N - ks[-1],)
        swapped = (ks[1], ks[0]) + ks[2:]
        for parity in ("odd", "even"):
            for q0 in (Fraction(3), Fraction(7, 2)):
                at = [density_point(n, parity, q0, [2 * math.pi * k / N for k in img])
                      for img in (ks, flipped, swapped)]
                assert abs(at[1] - at[0]) <= 1e-13 and abs(at[2] - at[0]) <= 1e-13


def test_total_mass_refuses_too_many_orbits():
    # C(N // 2 + n, n) orbits: 22,632,705 at n = 3, N = 1024; at n = 1 and
    # N = 10^12 the refusal comes before any table of N values is built
    assert math.comb(512 + 3, 3) > ENUMERATION_BOUND
    for n, N in ((3, 1024), (1, 10**12)):
        with pytest.raises(ResourceLimit):
            total_mass(n, "odd", Fraction(3), N)


def test_total_mass_refines():
    # doubling the grid keeps the mass pinned at 1
    for N in (64, 128):
        assert abs(total_mass(1, "odd", Fraction(3), N=N) - 1) < 1e-12


def test_gram_orthogonality_rank1():
    lams = [(0,), (1,), (2,), (3,)]
    g = gram_matrix(lams, 1, "odd", Fraction(3))
    for i, lam in enumerate(lams):
        for j in range(len(lams)):
            want = expected_gram_diagonal(lam, 1, "odd", Fraction(3)) if i == j else 0
            assert g[i][j] == want
    # frozen: <P_1, P_1> = 8/9 at q0 = 3
    assert expected_gram_diagonal((1,), 1, "odd", Fraction(3)) == Fraction(8, 9)


def test_gram_orthogonality_rank2_both_parities():
    lams = [(0, 0), (1, 0), (1, 1), (2, 0)]
    for parity in ("odd", "even"):
        g = gram_matrix(lams, 2, parity, Fraction(3))
        for i, lam in enumerate(lams):
            for j in range(len(lams)):
                want = expected_gram_diagonal(lam, 2, parity, Fraction(3)) if i == j else 0
                assert g[i][j] == want


def test_orbit_sums_orthogonal_as_identity_in_q():
    # <q_lam, q_mu> = delta * W_0 * W_lam for every q, not only at q0
    for n in (1, 2):
        lams = [(0,) * n, (1,) + (0,) * (n - 1), (2,) + (0,) * (n - 1)]
        for parity in ("odd", "even"):
            polys = [q_poly(n, parity, lam) for lam in lams]
            m = pairing_matrix(polys, polys, parity)
            for i, lam in enumerate(lams):
                for j in range(len(lams)):
                    got = m[i][j].as_qfraction()
                    if i == j:
                        w0 = whole_group_value(n, parity)
                        assert got == QFraction(w0 * w_lambda_value(lam, n, parity))
                    else:
                        assert got.is_zero()


def test_pairing_misses_reads_both_diagonal_and_off_diagonal():
    mat = [[1, Fraction(1, 3)], [0, 2]]
    assert pairing_misses(mat, [1, 3]) == [(0, 1, Fraction(1, 3), 0), (1, 1, 2, 3)]
    # a repeated orbit sum is not orthogonal to itself
    g = gram_matrix([(1,), (1,)], 1, "odd", Fraction(3))
    assert [(i, j) for i, j, _, _ in pairing_misses(g, [Fraction(8, 9)] * 2)] == [(0, 1), (1, 0)]


def test_pairing_refuses_a_boundary_factor():
    with pytest.raises(ValueError, match="trivial boundary factor"):
        pairing_at([omega_explicit(1, "odd", (1,))], [psi(1, "odd", (1,))], "odd", Fraction(3))


def test_pairing_refuses_a_numerator_other_than_the_orbit_sum():
    lam = (1,)
    normalized = SphericalValue(
        1, "odd", lam, PhasedScalar.one(), p_poly(1, "odd", lam), FactoredRational(1)
    )
    with pytest.raises(ValueError, match="q_poly"):
        pairing_at([normalized], [psi(1, "odd", lam)], "odd", Fraction(3))


def test_pairing_refuses_a_nonzero_odd_half_power_only():
    # sqrt(q) * q_poly(()) pairs to a nonzero multiple of sqrt(q0) with the
    # constant kernel, which is not in Q(i), and to 0 with the kernel of (1,)
    root = SphericalValue(
        1, "odd", (0,), PhasedScalar(0, 1, 1), q_poly(1, "odd", ()), FactoredRational(1)
    )
    with pytest.raises(ValueError, match="odd half-power"):
        pairing_at([root], [psi(1, "odd", ())], "odd", Fraction(3))
    with pytest.raises(ValueError, match="odd half-power"):
        at_q0(pairing_matrix([root], [psi(1, "odd", ())], "odd"), Fraction(3))
    assert pairing_at([root], [psi(1, "odd", (1,))], "odd", Fraction(3)) == [[0]]


@pytest.mark.parametrize("n", [1, 2, 3])
def test_delta_plus_equals_full_product_cut(n):
    # Delta+ built at q0 on ints against the full symbolic product, cut and
    # then taken at q0
    for parity in ("odd", "even"):
        for height in range(13):
            want = ref_delta_plus(n, parity, height)
            for q0 in (Fraction(3), Fraction(7, 2)):
                got, at = _delta_plus_at(n, parity, height, q0), TorusPolyAt(want, q0)
                assert (got._c, got._d) == (at._c, at._d)


def test_volume_frozen_values():
    assert volume((), 1, "odd", Fraction(3)) == 1
    assert volume((1,), 1, "odd", Fraction(3)) == 8
    assert volume((2,), 1, "odd", Fraction(3)) == 72
    assert volume((1, 0), 2, "odd", Fraction(3)) == 56


def test_volume_positive_and_increasing_in_weight():
    for n, parity in [(1, "odd"), (1, "even"), (2, "odd"), (2, "even")]:
        vols = {}
        for lam in [((k,) + (0,) * (n - 1)) for k in range(4)]:
            v = volume(lam, n, parity, Fraction(3))
            assert v > 0
            vols[lam] = v
        assert vols[(1,) + (0,) * (n - 1)] > vols[(0,) * n]


def test_transform_structure():
    # q ** (-<lam, z0>) p_poly(lam), with 1/W_lam carried in the prefactor
    t = transform_ch((1,), 1, "odd")
    w = QFraction(1, w_lambda_value((1,), 1, "odd"))
    assert t.prefactor == phase_power((1,), 1, "odd").inverse() * w
    assert t.numerator is q_poly(1, "odd", (1,))
    assert t.numerator * w == p_poly(1, "odd", (1,))
    assert t.boundary.num == () and t.boundary.den == ()


def test_plancherel_pairing_rank1():
    lams = [(0,), (1,), (2,), (3,)]
    r = check_plancherel(lams, 1, "odd", Fraction(3))
    assert r["misses"] == []
    assert r["matrix"][0][0] == 1 and r["matrix"][1][1] == 8


def test_plancherel_pairing_rank2():
    lams = [(0, 0), (1, 0), (1, 1)]
    for parity in ("odd", "even"):
        r = check_plancherel(lams, 2, parity, Fraction(3))
        assert r["misses"] == []


def test_inversion_rank1_both_parities():
    lams = [(0,), (1,), (2,)]
    for parity in ("odd", "even"):
        r = check_inversion(lams, 1, parity, Fraction(3))
        assert r["misses"] == []


def test_inversion_rank2():
    lams = [(0, 0), (1, 0), (1, 1), (2, 1)]
    r = check_inversion(lams, 2, "odd", Fraction(3))
    assert r["misses"] == []


# negative control: using the non-inverted base-point power in the transform
# rescales the inversion diagonal by the squared power, here (i/q)^2 = -1/9
def test_inversion_phase_orientation_matters():
    lam = (1,)
    pre = phase_power(lam, 1, "odd") * QFraction(1, w_lambda_value(lam, 1, "odd"))
    wrong = SphericalValue(1, "odd", lam, pre, q_poly(1, "odd", lam), FactoredRational(1))
    got = pairing_at([wrong], [psi(1, "odd", lam)], "odd", Fraction(3), conjugate=False)[0][0]
    assert got == Fraction(-1, 9)


def test_basis_partitions_frozen():
    assert basis_partitions(1) == [(0,), (1,)]
    assert basis_partitions(2) == [(0, 0), (1, 0), (1, 1), (2, 1)]
    assert basis_partitions(3) == [
        (0, 0, 0),
        (1, 0, 0),
        (1, 1, 0),
        (1, 1, 1),
        (2, 1, 0),
        (2, 1, 1),
        (2, 2, 1),
        (3, 2, 1),
    ]
    assert basis_partitions(4) == [
        (0, 0, 0, 0),
        (1, 0, 0, 0),
        (1, 1, 0, 0),
        (1, 1, 1, 0),
        (1, 1, 1, 1),
        (2, 1, 0, 0),
        (2, 1, 1, 0),
        (2, 1, 1, 1),
        (2, 2, 1, 0),
        (2, 2, 1, 1),
        (2, 2, 2, 1),
        (3, 2, 1, 0),
        (3, 2, 1, 1),
        (3, 2, 2, 1),
        (3, 3, 2, 1),
        (4, 3, 2, 1),
    ]


def test_basis_partitions_are_sums_of_distinct_fundamental_weights():
    for n in range(1, 7):
        sel = basis_partitions(n)
        assert len(sel) == 2**n == len(set(sel))
        for lam in sel:
            assert len(lam) == n and lam[-1] in (0, 1)
            assert all(lam[i] - lam[i + 1] in (0, 1) for i in range(n - 1))
        # graded by largest part, then weight, then lexicographically
        keys = [(lam[0], sum(lam), lam) for lam in sel]
        assert keys == sorted(keys)


def test_basis_partitions_parity_balance():
    for n in (1, 2, 3):
        sel = basis_partitions(n)
        assert len(sel) == 2**n == len(set(sel))
        even = sum(1 for lam in sel if sum(lam) % 2 == 0)
        assert even == 2 ** (n - 1)


def test_basis_rank():
    for n in (1, 2, 3):
        for parity in ("odd", "even"):
            r = basis_rank_check(n, parity, Fraction(3), seed=4, trials=3)
            assert r["ok"]
            assert all(d > 1e-6 for d in r["dets"])


def test_basis_rank_needs_a_trial():
    with pytest.raises(ValueError, match="at least one trial is needed"):
        basis_rank_check(1, "odd", Fraction(3), trials=0)


def test_grid_integrates_exactly():
    # the uniform grid integrates low monomials to exact zero
    grid = QuadratureGrid(1, 16)
    vals = np.exp(1j * grid.thetas[:, 0] * 3)
    assert abs(np.mean(vals)) < 1e-14
    f = TorusPoly.monomial(1, (3,), 5) + TorusPoly.monomial(1, (-2,)) + 2
    assert abs(np.mean(grid.poly_values(f, 3.0)) - 2) < 1e-14
