"""Named verification checks and the consolidated report.

Every check is registered under a stable id in ``CHECKS``, runs a
self-contained exact or numerical verification against an independently
computed target, and reports one pass/fail line with a measured
discrepancy.  Reports are deterministic:
identical configurations produce identical bytes in every output format.
"""

from __future__ import annotations

import csv
import io
import json
import os
import random
import sys
from dataclasses import asdict, dataclass, field
from fractions import Fraction

from .errors import ResourceLimit
from .hall_littlewood import (
    PARITIES,
    p_poly,
    partitions,
    q_poly,
    spec_params,
    w_lambda_value,
    whole_group_value,
)
from .plancherel import (
    basis_rank_check,
    check_inversion,
    check_plancherel,
    expected_gram_diagonal,
    gram_matrix,
    pairing_misses,
    total_mass,
    volume,
)
from .residue import (
    LocalField,
    k1_cell_counts,
    mc_band,
    monte_carlo_omega1,
    norm_count,
    norm_residual,
    smallest_nonresidue,
)
from .scalars import QFraction, QLaurent
from .spherical import (
    base_point,
    base_point_exponent,
    check_functional_equation,
    check_gamma_cocycle,
    gamma_factor,
    identity_value_closed_form,
    identity_value_constant,
    omega_explicit,
    omega_rank1_s_form,
    omega_rank1_s_form_printed_variant,
    omega_rank1_z_form,
    parity_sign_relation,
    phase_power,
    rank1_substitution,
)
from .torus import TorusPoly
from .weyl import coordinate_flip, enumerate_group, poincare_poly, stabilizer

# The matrix layer, padic, is imported inside the three checks that use it,
# so a run without them never compiles it.
MATRIX_CHECKS = ("cartan-membership", "orbit-classification", "diagonalization-roundtrip")


@dataclass(frozen=True)
class RunConfig:
    """Everything a check is allowed to depend on."""

    n: int = 1
    q0: Fraction = Fraction(3)
    p: int = 3
    seed: int = 7
    grid_n: int = 64
    prec: int = 8
    samples: int = 2000
    tol: float = 1e-8


@dataclass
class CheckResult:
    check_id: str
    passed: bool
    detail: str
    data: dict = field(default_factory=dict)

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"{status}  {self.check_id:26s}  {self.detail}"


# -- individual checks ---------------------------------------------------------------
#
# A check returns what it found, (passed, detail) or (passed, detail, data);
# run_checks attaches the id it is registered under in CHECKS.


def check_norm_volume(cfg: RunConfig) -> tuple:
    p = cfg.p
    q = Fraction(p)
    bad = []
    for xi in (1, smallest_nonresidue(p)):
        for r in range(4):
            got = norm_count(p, xi, r)
            want = 1 - 1 / q - 1 / q**2 if r == 0 else (1 - q**-2) * q**-r
            if got != want:
                bad.append((xi, r, str(got), str(want)))
        total = sum(norm_count(p, xi, r) for r in range(4)) + norm_residual(p, xi, 4)
        if total != 1:
            bad.append((xi, "residual", str(total), "1"))
    if bad:
        return False, f"count mismatches at p={p}: {bad}", {"bad": bad}
    return (
        True,
        f"norm fiber volumes match the closed law exactly and fill the shell (p={p})",
        {"p": p},
    )


def check_cartan_membership(cfg: RunConfig) -> tuple:
    from .padic import classify_k_orbit, is_member_X, random_k, x_lambda

    field_ = LocalField(cfg.p)
    n = cfg.n
    checked = 0
    for lam in partitions(n, 3):
        for trial in range(2):
            k = random_k(field_, n, seed=f"{cfg.seed}:member:{lam}:{trial}")
            x = k.act(x_lambda(field_, n, lam))
            if not is_member_X(x):
                return False, f"conjugate of representative {lam} left the space"
            got = classify_k_orbit(x)
            if got != lam:
                return False, f"orbit label {got} != {lam} after compact twisting"
            checked += 1
    return (
        True,
        f"{checked} twisted representatives recovered their orbit label exactly (n={n}, p={cfg.p})",
        {"checked": checked},
    )


def check_rank1_closed_form(cfg: RunConfig) -> tuple:
    rng = random.Random(f"{cfg.seed}:rank1")
    worst_ell = 0
    for ell in range(5):
        explicit = omega_explicit(1, "odd", (ell,))
        for _ in range(3):
            x = Fraction(rng.randrange(2, 40), rng.randrange(2, 40))
            if x == 1:
                continue
            xq = QFraction(QLaurent.const(x))
            zf = omega_rank1_z_form(ell, xq)
            sf = omega_rank1_s_form(ell, rank1_substitution(x))
            ex = explicit.eval_exact([x]).as_qfraction()
            if not (zf == sf and zf == ex):
                return False, f"closed forms disagree at orbit {ell}, x={x}"
            worst_ell = max(worst_ell, ell)
    return (
        True,
        f"product formula and both closed forms agree exactly through orbit depth {worst_ell}",
    )


def check_rank1_sign(cfg: RunConfig) -> tuple:
    rng = random.Random(f"{cfg.seed}:rank1sign")
    for ell in (1, 3):
        x = Fraction(rng.randrange(2, 30), rng.randrange(31, 60))
        u = rank1_substitution(x)
        adopted = omega_rank1_s_form(ell, u)
        variant = omega_rank1_s_form_printed_variant(ell, u)
        ex = omega_explicit(1, "odd", (ell,)).eval_exact([x]).as_qfraction()
        if not (adopted == ex):
            return False, f"adopted sign fails at odd orbit {ell}"
        if variant == ex:
            return False, f"sign variants indistinguishable at odd orbit {ell}"
    for ell in (0, 2):
        x = Fraction(rng.randrange(2, 30), rng.randrange(31, 60))
        u = rank1_substitution(x)
        if not (omega_rank1_s_form(ell, u) == omega_rank1_s_form_printed_variant(ell, u)):
            return False, f"variants must coincide at even orbit {ell}"
    return (
        True,
        "parity-dependent sign confirmed: flipped variant contradicts the product formula at odd depth",
    )


def check_defining_integral_mc(cfg: RunConfig) -> tuple:
    out = monte_carlo_omega1(1, 1.0, cfg.samples, cfg.prec, seed=cfg.seed, p=cfg.p)
    err = abs(out["estimate"] - out["closed_form"])
    band = mc_band(out)
    return (
        err < band,
        f"haar estimate off by {err:.3e} (3-sigma band {band:.3e}, {cfg.samples} samples, p={cfg.p})",
        {"estimate": out["estimate"], "stderr": out["stderr"]},
    )


def check_functional_equation_all(cfg: RunConfig) -> tuple:
    lam = (1,) + (0,) * (cfg.n - 1)
    for parity in PARITIES:
        if not check_functional_equation(cfg.n, parity, lam):
            return False, f"twist relation fails ({parity} case)"
    size = len(enumerate_group(cfg.n))
    return (
        True,
        f"value picks up the factored twist under all {size} group elements, both cases (n={cfg.n})",
    )


def check_tau_functional_equation(cfg: RunConfig) -> tuple:
    n = cfg.n
    flip = coordinate_flip(n)
    rng = random.Random(f"{cfg.seed}:tau")
    q = QLaurent.gen()
    for _ in range(3):
        xs = [Fraction(rng.randrange(2, 50), rng.randrange(2, 50)) for _ in range(n)]
        if any(x == 1 for x in xs):
            continue
        x2 = xs[-1] ** 2
        tw = gamma_factor(flip, "odd").eval_exact(xs)
        explicit = QFraction(1 - QLaurent.term(x2, -1)) / QFraction(
            QLaurent.const(x2) - q**-1
        )
        if not (tw == explicit):
            return False, "last-flip twist differs from its closed form"
        if not (gamma_factor(flip, "even").eval_exact(xs) == QFraction(1)):
            return False, "last-flip twist must be trivial (even case)"
    lam = (1,) + (0,) * (n - 1)
    for parity in PARITIES:
        if not check_functional_equation(cfg.n, parity, lam, elements=[flip]):
            return False, f"flip equation fails ({parity} case)"
    return True, "sign-flip equation holds with the expected rational factor (trivial in the even case)"


def check_gamma_cocycle_all(cfg: RunConfig) -> tuple:
    for parity in PARITIES:
        if not check_gamma_cocycle(cfg.n, parity, seed=cfg.seed):
            return False, f"cocycle identity fails ({parity} case)"
    return True, f"twist cocycle identity holds exactly in factored form at random pairs (n={cfg.n}, both cases)"


def check_macdonald_constant(cfg: RunConfig) -> tuple:
    for n in range(1, cfg.n + 1):
        for parity in PARITIES:
            zero = (0,) * n
            w0 = whole_group_value(n, parity)
            if q_poly(n, parity, zero) != TorusPoly.const(n, w0):
                return False, f"degenerate orbit sum differs from the group series (n={n}, {parity})"
            if p_poly(n, parity, zero) != TorusPoly.const(n, QLaurent.const(1)):
                return False, f"normalized empty sum is not 1 (n={n}, {parity})"
            if poincare_poly(enumerate_group(n), *spec_params(parity)) != w0:
                return (
                    False,
                    f"group series differs from the length generating function (n={n}, {parity})",
                )
    return True, f"degenerate orbit sums equal the group length series through n={cfg.n}, both cases"


def check_stabilizer_closed_form(cfg: RunConfig) -> tuple:
    # the enumerated stabilizer is the reference for the closed form of W_lam
    forms = {"odd": "corrected closed form", "even": "closed form"}
    for n in range(1, cfg.n + 1):
        for lam in partitions(n, 3):
            stab = stabilizer(lam, n)
            for parity, form in forms.items():
                if poincare_poly(stab, *spec_params(parity)) != w_lambda_value(lam, n, parity):
                    return False, f"{form} misses the brute sum at {lam} (n={n}, {parity})"
    return (
        True,
        f"closed stabilizer series match brute-force length sums, weight <= 3, n <= {cfg.n}, both cases",
    )


def check_identity_value(cfg: RunConfig) -> tuple:
    for n in range(1, cfg.n + 1):
        for parity in PARITIES:
            if identity_value_constant(n, parity) != identity_value_closed_form(n, parity):
                return False, f"normalization constants disagree (n={n}, {parity})"
            for lam in ((0,) * n, (1,) + (0,) * (n - 1), (2,) + (1,) * (n - 1)):
                if not omega_explicit(n, parity, lam).eval_at_base_point().is_one():
                    return False, f"value at the base point is not 1 for {lam} (n={n}, {parity})"
    return (
        True,
        f"explicit values equal 1 at the base point and the constant matches its closed form (n <= {cfg.n})",
    )


def check_measure_total_mass(cfg: RunConfig) -> tuple:
    worst = 0.0
    for parity in PARITIES:
        m = total_mass(cfg.n, parity, cfg.q0, cfg.grid_n)
        worst = max(worst, abs(m - 1.0))
    return (
        worst < cfg.tol,
        f"mass deviates from 1 by {worst:.3e} (grid {cfg.grid_n}, tol {cfg.tol:.1e})",
        {"worst": worst},
    )


def _pairing_check(cfg: RunConfig, misses_of, passed: str) -> tuple:
    lams = partitions(cfg.n, 2)
    for parity in PARITIES:
        for i, j, got, want in misses_of(lams, parity)[:1]:
            return False, f"pairing of {lams[i]} with {lams[j]} is {got}, not {want} ({parity} case)"
    return True, passed.format(k=len(lams))


def check_gram_orthogonality(cfg: RunConfig) -> tuple:
    def misses(lams, parity):
        diag = [expected_gram_diagonal(lam, cfg.n, parity, cfg.q0) for lam in lams]
        return pairing_misses(gram_matrix(lams, cfg.n, parity, cfg.q0), diag)

    return _pairing_check(
        cfg,
        misses,
        "pairings of {k} orbit sums equal W_0/W_lam on the diagonal and 0 off it, exactly, both cases",
    )


def check_plancherel_diagonal(cfg: RunConfig) -> tuple:
    return _pairing_check(
        cfg,
        lambda lams, parity: check_plancherel(lams, cfg.n, parity, cfg.q0)["misses"],
        "transform pairings equal the orbit masses on the diagonal and 0 off it, exactly",
    )


def check_inversion_identity(cfg: RunConfig) -> tuple:
    return _pairing_check(
        cfg,
        lambda lams, parity: check_inversion(lams, cfg.n, parity, cfg.q0)["misses"],
        "inverse transform recovers the indicators exactly",
    )


def check_volume_prefactor_power(cfg: RunConfig) -> tuple:
    n, q0 = cfg.n, cfg.q0
    lam = (1,) + (0,) * (n - 1)
    measured = check_plancherel([lam], n, "odd", q0)["matrix"][0][0]
    adopted = volume(lam, n, "odd", q0)
    expo = -base_point_exponent(lam, n, "odd")[0]
    alt = q0 ** int(expo) * expected_gram_diagonal(lam, n, "odd", q0)
    return (
        measured == adopted and measured != alt,
        "finding: the orbit mass carries the doubled base-point power "
        f"(measured {measured}, adopted {adopted}, undoubled alternative {alt})",
        {"adopted": str(adopted), "alternative": str(alt), "measured": str(measured)},
    )


def check_basis_rank(cfg: RunConfig) -> tuple:
    dets = []
    for parity in PARITIES:
        out = basis_rank_check(cfg.n, parity, cfg.q0, seed=cfg.seed, trials=3)
        if not out["ok"]:
            return False, f"kernels went singular at sampled points ({parity} case)"
        dets += out["dets"]
    worst = min(dets)
    return (
        True,
        f"{2**cfg.n} kernels are exactly independent on sign-flipped rational points (least |det| {worst:.3e})",
        {"min_det": worst},
    )


def check_parity_sign(cfg: RunConfig) -> tuple:
    for lam in partitions(cfg.n, 3):
        want = -1 if sum(lam) % 2 else 1
        got = parity_sign_relation(lam, cfg.n)
        if got != want:
            return False, f"sign flip at {lam} is {got}, expected {want}"
    return (
        True,
        f"base-point convention shift flips values by the weight parity (|lam| <= 3, n={cfg.n})",
    )


def check_height_phase(cfg: RunConfig) -> tuple:
    for parity in PARITIES:
        for n in range(1, cfg.n + 1):
            z0 = base_point(n, parity)
            for lam in partitions(n, 2):
                re = sum((Fraction(l) * pt[0] for l, pt in zip(lam, z0)), Fraction(0))
                im = sum((Fraction(l) * pt[1] for l, pt in zip(lam, z0)), Fraction(0))
                ph = phase_power(lam, n, parity)
                if (2 * im) % 4 != ph.i_power % 4 or re != Fraction(ph.half_q, 2):
                    return (
                        False,
                        f"base-point power disagrees with the pairing at {lam} (n={n}, {parity})",
                    )
    one = phase_power((1,), 1, "odd")
    if not (one.i_power == 1 and one.half_q == -2):
        return False, "frozen rank-one phase changed"
    return True, f"base-point powers equal the pairing with the distinguished exponent (n <= {cfg.n})"


def check_orbit_classification(cfg: RunConfig) -> tuple:
    from .padic import classify_g_orbit, t_diag, x_lambda

    field_ = LocalField(cfg.p)
    n = cfg.n
    for lam in partitions(n, 3):
        x = x_lambda(field_, n, lam)
        if classify_g_orbit(x) != sum(lam) % 2:
            return False, f"full-group invariant wrong at {lam}"
    bs = [Fraction(cfg.p), Fraction(1)] + [Fraction(1)] * (n - 2)
    t = t_diag(field_, bs[:n])
    lam = (1,) + (0,) * (n - 1)
    y = t.act(x_lambda(field_, n, lam))
    if classify_g_orbit(y) != 1:
        return False, "full-group invariant moved under torus mixing"
    return (
        True,
        f"full-group invariant is the weight parity and survives torus mixing (n={n}, p={cfg.p})",
    )


def check_k1_cell_counts(cfg: RunConfig) -> tuple:
    q = cfg.p
    big, small, union = k1_cell_counts(q)
    ok = (
        big == (q**2 - 1) * (q + 1) * q**6
        and small == (q**2 - 1) * (q + 1) * q**3
        and union == q**3 * (q + 1) * (q**2 - 1) * (q**3 + 1)
    )
    return (
        ok,
        f"cell enumeration gives {big} + {small} = {union}, the full reduction count (q={q})",
        {"big": big, "small": small, "union": union},
    )


def check_diagonalization_roundtrip(cfg: RunConfig) -> tuple:
    from .padic import diagonalize_x1, random_k, x_lambda

    field_ = LocalField(cfg.p)
    hits = 0
    for ell in range(4):
        for trial in range(3):
            k0 = random_k(field_, 1, seed=f"{cfg.seed}:diag:{ell}:{trial}")
            x = k0.act(x_lambda(field_, 1, (ell,))).to_residue(cfg.prec)
            k, got = diagonalize_x1(x)
            if got != ell:
                return False, f"recovered orbit {got} != {ell} (p={cfg.p})"
            if k.act(x) != x_lambda(field_, 1, (ell,)).to_residue(cfg.prec):
                return False, f"conjugation missed the representative at orbit {ell}"
            hits += 1
    return (
        True,
        f"{hits} random conjugates reduced back to their representative (p={cfg.p})",
        {"roundtrips": hits},
    )


CHECKS = {
    "norm-volume": check_norm_volume,
    "cartan-membership": check_cartan_membership,
    "rank1-closed-form": check_rank1_closed_form,
    "rank1-closed-form-sign": check_rank1_sign,
    "defining-integral-mc": check_defining_integral_mc,
    "functional-equation": check_functional_equation_all,
    "tau-functional-equation": check_tau_functional_equation,
    "gamma-cocycle": check_gamma_cocycle_all,
    "macdonald-constant": check_macdonald_constant,
    "stabilizer-closed-form": check_stabilizer_closed_form,
    "identity-value": check_identity_value,
    "measure-total-mass": check_measure_total_mass,
    "gram-orthogonality": check_gram_orthogonality,
    "plancherel-diagonal": check_plancherel_diagonal,
    "inversion": check_inversion_identity,
    "volume-prefactor-power": check_volume_prefactor_power,
    "basis-rank": check_basis_rank,
    "parity-sign": check_parity_sign,
    "height-phase": check_height_phase,
    "orbit-classification": check_orbit_classification,
    "k1-cell-counts": check_k1_cell_counts,
    "diagonalization-roundtrip": check_diagonalization_roundtrip,
}


def _run_one(check_id: str, cfg: RunConfig) -> CheckResult:
    # looked up at call time: a profiler may have replaced the function
    return CheckResult(check_id, *CHECKS[check_id](cfg))


class Report:
    """An ordered collection of check results with stable renderings."""

    def __init__(self, cfg: RunConfig, results: list[CheckResult]):
        self.cfg = cfg
        self.results = results

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.results)

    def to_text(self) -> str:
        lines = [r.line() for r in self.results]
        failed = sum(not r.passed for r in self.results)
        if failed:
            lines.append(f"{failed} of {len(self.results)} checks failed")
        else:
            lines.append(f"all {len(self.results)} checks passed")
        return "\n".join(lines) + "\n"

    def to_json(self) -> str:
        payload = {
            "config": dict(asdict(self.cfg), q0=str(self.cfg.q0)),
            "results": [
                {"id": r.check_id, "passed": r.passed, "detail": r.detail, "data": r.data}
                for r in self.results
            ],
        }
        return json.dumps(payload, sort_keys=True, indent=2) + "\n"

    def to_csv(self) -> str:
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        w.writerow(["check", "status", "detail"])
        for r in self.results:
            w.writerow([r.check_id, "pass" if r.passed else "fail", r.detail])
        return buf.getvalue()

    def render(self, fmt: str) -> str:
        if fmt == "json":
            return self.to_json()
        if fmt == "csv":
            return self.to_csv()
        return self.to_text()


def _drain(tasks: int, width: int, ids: list, cfg: RunConfig) -> list:
    """Run the checks whose indices this process reads from the task pipe,
    one token at a time until the pipe is empty, as (index, result) pairs;
    an exception a check raises stands in for its result."""
    done = []
    while token := os.read(tasks, width):
        i = int(token)
        try:
            done.append((i, _run_one(ids[i], cfg)))
        except Exception as e:
            done.append((i, e))
    return done


def _run_forked(ids: list, cfg: RunConfig, workers: int) -> list:
    """The (index, result) pairs of every check, run by ``workers - 1``
    forked children and this process.  The indices wait in one pipe, so a
    process takes the next check when it is free.  Each child pickles its
    pairs into a pipe of its own and leaves through ``os._exit``, so it
    never returns into the caller nor flushes the stdio buffers it inherited.
    The command line runs no threads, so forking is safe."""
    import pickle  # only a parallel run needs it

    width = len(str(len(ids) - 1))
    blob = "".join(f"{i:0{width}d}" for i in range(len(ids))).encode()
    tasks, feed = os.pipe()
    children: dict[int, int] = {}  # pid -> read end of its result pipe
    sent: dict[int, bytes] = {}
    codes: dict[int, int] = {}
    try:
        # written whole before the fork, without blocking: no reader runs yet
        with open(feed, "wb", buffering=0) as fh:
            os.set_blocking(feed, False)
            if fh.write(blob) != len(blob):
                raise ResourceLimit(f"{len(ids)} checks do not fit the task pipe; use one worker")
        sys.stdout.flush()
        sys.stderr.flush()
        for _ in range(workers - 1):
            fd, out = os.pipe()
            pid = os.fork()
            if pid == 0:
                code = 1
                try:
                    for theirs in (*children.values(), fd):
                        os.close(theirs)
                    with open(out, "wb") as fh:
                        pickle.dump(_drain(tasks, width, ids, cfg), fh)
                    code = 0
                finally:
                    os._exit(code)
            os.close(out)
            children[pid] = fd
        done = _drain(tasks, width, ids, cfg)
        for pid, fd in children.items():
            with open(fd, "rb", closefd=False) as fh:
                sent[pid] = fh.read()
    finally:
        # no child outlives this call, whatever it raised
        os.close(tasks)
        for pid, fd in children.items():
            os.close(fd)
            codes[pid] = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    for pid, code in codes.items():
        if code or not sent[pid]:
            raise RuntimeError(f"check worker {pid} exited with code {code} before sending its results")
        done += pickle.loads(sent[pid])
    return sorted(done, key=lambda pair: pair[0])


def run_checks(check_ids, cfg: RunConfig, workers: int = 1) -> Report:
    """Run the checks in ``check_ids`` on ``workers`` processes, this one
    among them.  The report lists them in the order given, whatever the
    worker count; if checks raise, the first of them in that order raises
    here, after every check has run."""
    ids = list(check_ids)
    if workers > 1 and len(ids) > 1:
        # padic is imported before the fork when a check needs it, else each
        # worker that runs one would compile it again
        if any(i in MATRIX_CHECKS for i in ids):
            from . import padic  # noqa: F401

        results = []
        for _, result in _run_forked(ids, cfg, workers):
            if isinstance(result, Exception):
                raise result
            results.append(result)
    else:
        results = [_run_one(i, cfg) for i in ids]
    return Report(cfg, results)
