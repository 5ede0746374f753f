"""Command-line front end.

Verbs: compute orbit-sum polynomials, evaluate the explicit values and their
closed forms, run the quadrature suites, drive the residue-model laboratory,
and run the named verification checks as a consolidated report.

Exit codes: 0 all requested work passed; 1 a mathematical check failed;
2 usage or configuration error; 3 a resource or precision limit was hit.
Identical invocations produce byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from fractions import Fraction

# Each verb imports its own layer, so a process loads only what its verb
# needs; no verb loads numpy.  With no bytecode cached every imported module
# is compiled again, so even the exact scalars stay out of verbs that do not
# use them.
from .errors import InexactDivision, PrecisionError, ResourceLimit

EXIT_PASS = 0
EXIT_MATH_FAIL = 1
EXIT_USAGE = 2
EXIT_RESOURCE = 3

# At n = 4 all 22 checks pass when run in-process, in 13.7 s on a 2-core
# machine.  `basis-rank` takes 10.1 s of it, nearly all in its 32 `q_poly`
# builds (ROADMAP direction 2 evaluates through alternants instead);
# `gram-orthogonality` and `functional-equation` take under 1.4 s each, and
# `measure-total-mass` 0.1 s.  Until `verify all --n 4` runs within a
# stated budget, larger n exits EXIT_RESOURCE up front.
VERIFY_MAX_N = 3

# The verbs that build `q_poly` (`hl qpoly`, `sph`, `plancherel`) run at
# n = 4 in under 10 s each on a 2-core machine: `plancherel rank` in
# 5.7-8.0 s, nearly all of it its 16 `q_poly` builds; the others in under
# 1.1 s at their default sizes.  Larger n exits EXIT_RESOURCE up front.
QPOLY_MAX_N = 4

# `plancherel gram|check|inversion` pair every partition of weight up to
# --weight with every other, and build each one's `q_poly`.  From the CLI on
# a 2-core machine the three verbs take, in both cases, at the bound (in
# parentheses another weight, odd case)
#   n = 1, weight 128: 2.2-3.3 s   (weight 64: 0.4-0.6 s)
#   n = 2, weight 14:  2.7-4.5 s   (weight 16: 6.5-6.8 s)
#   n = 3, weight 6:   2.3-3.9 s   (weight 7: 4.7-6.2 s)
#   n = 4, weight 3:   3.3-4.6 s   (weight 4: 16-18 s, nearly all `q_poly`)
# A larger --weight exits EXIT_RESOURCE before any layer loads.
PLANCHEREL_MAX_WEIGHT = {1: 128, 2: 14, 3: 6, 4: 3}

# `padic classify` at n = 20 takes 0.55-1.1 s from the CLI on a 2-core
# machine (seeds 1, 2 and 7; lambda (1) and (4, 3, 2, 1)): 0.1-0.6 s in its
# one elimination, the rest in start-up and in building the `random_k` word
# and its products.  At n = 30 the word and the elimination take 0.8-3.1 s
# in-process.  Larger n exits EXIT_RESOURCE up front.
CLASSIFY_MAX_N = 20


def _parse_partition(text: str, check):
    """``check`` of the parts of --lambda; a usage error unless they parse
    and ``check`` accepts them without a ValueError."""
    text = text.strip()
    try:
        lam = tuple(int(t) for t in text.split(",")) if text else ()
    except ValueError:
        raise _usage_error(f"--lambda does not parse: {text!r}")
    try:
        return check(lam)
    except ValueError as e:
        raise _usage_error(f"--lambda: {e}")


def _at_least(value, least: int, flag: str):
    if value < least:
        raise _usage_error(f"{flag} must be at least {least}, got {value}")
    return value


def _above(value, bound: int, flag: str):
    # `not >` also refuses a float nan
    if not value > bound:
        raise _usage_error(f"{flag} must be above {bound}, got {value}")
    return value


def _local_field(p: int, flag: str):
    """The LocalField of p, or a usage error unless p is an odd prime."""
    from .residue import LocalField

    try:
        return LocalField(p)
    except ValueError:
        raise _usage_error(f"{flag} must be an odd prime, got {p}")


def _parse_fraction(text: str, flag: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise _usage_error(f"{flag} does not parse: {text!r}")


def _format_complex(z: complex) -> str:
    sign = "+" if z.imag >= 0 else "-"
    return f"{z.real:.12g}{sign}{abs(z.imag):.12g}i"


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _usage_error(message: str) -> SystemExit:
    """The SystemExit of a usage error, after its one-line message on stderr."""
    sys.stderr.write(message + "\n")
    return SystemExit(EXIT_USAGE)


def _read_text(path: str, what: str) -> str:
    """The text of a file named on the command line, or a usage error."""
    try:
        with open(path) as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as e:
        raise _usage_error(f"cannot read {what}: {e}")


def _read_config_file(path: str) -> dict:
    """Plain key = value lines; # starts a comment."""
    values: dict[str, str] = {}
    for lineno, raw in enumerate(_read_text(path, "config file").split("\n"), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise _usage_error(f"config line {lineno} is not key = value: {line}")
        key, val = line.split("=", 1)
        key = key.strip().replace("-", "_").lower()
        if key not in _CONFIG_KEYS:
            raise _usage_error(f"unknown config key: {key}")
        values[key] = val.strip()
    return values


# the verify settings with a range, each checked before the report loads
_VERIFY_RANGES = {
    "q0": lambda value, flag: _above(value, 1, flag),
    "p": _local_field,
    "grid_n": lambda value, flag: _at_least(value, 2, flag),
    "samples": lambda value, flag: _at_least(value, 1, flag),
    "tol": lambda value, flag: _above(value, 0, flag),
    "workers": lambda value, flag: _at_least(value, 1, flag),
}

_CONFIG_KEYS = {
    "n": int,
    "q0": Fraction,
    "p": int,
    "seed": int,
    "grid_n": int,
    "prec": int,
    "samples": int,
    "tol": float,
    "format": str,
    "workers": int,
}


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="hermlab")
    sub = top.add_subparsers(dest="command", required=True)

    ver = sub.add_parser("verify", help="run named checks and emit a report")
    ver.add_argument("checks", help="'all' or a comma-joined list of check ids")
    ver.add_argument("--n", type=int, default=None)
    ver.add_argument("--q", "--q0", dest="q0", default=None)
    ver.add_argument("--p", type=int, default=None)
    ver.add_argument("--seed", type=int, default=None)
    ver.add_argument("--grid-N", dest="grid_n", type=int, default=None)
    ver.add_argument("--prec", type=int, default=None)
    ver.add_argument("--samples", type=int, default=None)
    ver.add_argument("--tol", type=float, default=None)
    ver.add_argument("--format", choices=("text", "json", "csv"), default=None)
    ver.add_argument("--workers", type=int, default=None)
    ver.add_argument("--config", default=None, help="key = value defaults; flags win")
    ver.add_argument("--out", default=None)

    hl = sub.add_parser("hl", help="orbit-sum polynomials")
    hls = hl.add_subparsers(dest="subcommand", required=True)
    qp = hls.add_parser("qpoly")
    qp.add_argument("--n", type=int, required=True)
    qp.add_argument("--parity", choices=("odd", "even"), required=True)
    qp.add_argument("--lambda", dest="lam", required=True)
    qp.add_argument("--normalized", action="store_true", help="unit top coefficient")
    qp.add_argument("--format", choices=("text", "json"), default="text")
    qp.add_argument("--out", default=None)

    sph = sub.add_parser("sph", help="spherical values")
    sphs = sph.add_subparsers(dest="subcommand", required=True)
    om = sphs.add_parser("omega")
    om.add_argument("--ell", type=int, default=None, help="rank-one closed form")
    om.add_argument("--s", type=int, default=None, help="integer exponent, u = q^-s")
    om.add_argument("--n", type=int, default=None)
    om.add_argument("--parity", choices=("odd", "even"), default="odd")
    om.add_argument("--lambda", dest="lam", default=None)
    om.add_argument("--x", default=None, help="comma-joined nonzero rational coordinates")
    om.add_argument("--out", default=None)
    fe = sphs.add_parser("verify-feq")
    fe.add_argument("--n", type=int, required=True)
    fe.add_argument("--parity", choices=("odd", "even"), required=True)
    fe.add_argument("--lambda", dest="lam", required=True)
    ps = sphs.add_parser("parity-sign")
    ps.add_argument("--n", type=int, required=True)
    ps.add_argument("--lambda", dest="lam", required=True)

    pl = sub.add_parser("plancherel", help="measure, transforms, inversion")
    pls = pl.add_subparsers(dest="subcommand", required=True)
    for name in ("gram", "check", "inversion"):
        pp = pls.add_parser(name)
        pp.add_argument("--n", type=int, required=True)
        pp.add_argument("--parity", choices=("odd", "even"), required=True)
        pp.add_argument("--q0", default="3")
        pp.add_argument("--weight", type=int, default=2, help="max partition weight")
        pp.add_argument("--out", default=None)
    rk = pls.add_parser("rank")
    rk.add_argument("--n", type=int, required=True)
    rk.add_argument("--parity", choices=("odd", "even"), required=True)
    rk.add_argument("--q0", default="3")
    rk.add_argument("--seed", type=int, default=7)
    rk.add_argument("--trials", type=int, default=5)

    pa = sub.add_parser("padic", help="residue-model laboratory")
    pas = pa.add_subparsers(dest="subcommand", required=True)
    cn = pas.add_parser("count-norm")
    cn.add_argument("--p", type=int, required=True)
    cn.add_argument("--xi", type=int, required=True)
    cn.add_argument("--r", type=int, required=True)
    cl = pas.add_parser("classify")
    cl.add_argument("--p", type=int, default=3)
    cl.add_argument("--in", dest="infile", default=None, help="matrix as JSON")
    cl.add_argument("--n", type=int, default=1)
    cl.add_argument("--lambda", dest="lam", default=None)
    cl.add_argument("--seed", type=int, default=7)
    dg = pas.add_parser("diagonalize1")
    dg.add_argument("--p", type=int, default=3)
    dg.add_argument("--in", dest="infile", default=None, help="matrix as JSON")
    dg.add_argument("--ell", type=int, default=None)
    dg.add_argument("--seed", type=int, default=7)
    dg.add_argument("--prec", type=int, default=12)
    dg.add_argument("--out", default=None, help="write the reducing element as JSON")
    mc = pas.add_parser("mc-omega")
    mc.add_argument("--p", type=int, default=3)
    mc.add_argument("--ell", type=int, required=True)
    mc.add_argument("--s", type=float, required=True)
    mc.add_argument("--samples", type=int, default=10000)
    mc.add_argument("--prec", type=int, default=8)
    mc.add_argument("--seed", type=int, default=7)

    return top


# -- verb handlers --------------------------------------------------------------------


def _refuse_n(n: int, verb: str, max_n: int) -> int | None:
    """The exit code that refuses an --n outside 1..max_n, after its message
    on stderr; None when n is in range.  Called before any layer loads."""
    if n < 1:
        sys.stderr.write(f"--n must be at least 1, got {n}\n")
        return EXIT_USAGE
    if n > max_n:
        sys.stderr.write(f"resource: {verb} supports --n up to {max_n}, got {n}\n")
        return EXIT_RESOURCE
    return None


def _cmd_verify(args) -> int:
    values = _read_config_file(args.config) if args.config else {}
    merged = {}
    for key, conv in _CONFIG_KEYS.items():
        flag = getattr(args, key, None)
        if flag is not None:
            raw, source = flag, "--grid-N" if key == "grid_n" else f"--{key}"
        elif key in values:
            raw, source = values[key], f"config value for {key}"
        else:
            continue
        try:
            merged[key] = conv(raw)
        except (ValueError, ZeroDivisionError):
            raise _usage_error(f"{source} does not parse: {raw!r}")
        if key in _VERIFY_RANGES:
            _VERIFY_RANGES[key](merged[key], source)
    fmt = merged.pop("format", "text")
    workers = merged.pop("workers", None)
    if workers is None:
        env = os.environ.get("HERMLAB_WORKERS")
        try:
            workers = int(env) if env else (os.cpu_count() or 1)
        except ValueError:
            raise _usage_error(f"HERMLAB_WORKERS must be an integer, got {env!r}")
        _VERIFY_RANGES["workers"](workers, "HERMLAB_WORKERS")
    # refused before the layers load; an absent n takes RunConfig's default 1
    refused = _refuse_n(merged.get("n", 1), "verify", VERIFY_MAX_N)
    if refused is not None:
        return refused
    from .report import CHECKS, RunConfig, run_checks

    cfg = RunConfig(**merged)
    if args.checks == "all":
        ids = list(CHECKS)
    else:
        ids = [c.strip() for c in args.checks.split(",") if c.strip()]
        if not ids:
            sys.stderr.write(f"no checks named in {args.checks!r}\n")
            return EXIT_USAGE
        unknown = [c for c in ids if c not in CHECKS]
        if unknown:
            sys.stderr.write(f"unknown checks: {', '.join(unknown)}\n")
            return EXIT_USAGE
    report = run_checks(ids, cfg, workers=min(workers, len(ids)))
    _emit(report.render(fmt), args.out)
    return EXIT_PASS if report.passed else EXIT_MATH_FAIL


def _cmd_hl_qpoly(args) -> int:
    from .hall_littlewood import check_partition, p_poly, q_poly

    lam = _parse_partition(args.lam, lambda lam: check_partition(lam, args.n))
    poly = (p_poly if args.normalized else q_poly)(args.n, args.parity, lam)
    if args.format == "json":
        _emit(json.dumps(poly.to_json_dict(), sort_keys=True) + "\n", args.out)
    else:
        _emit(str(poly) + "\n", args.out)
    return EXIT_PASS


def _cmd_sph_omega(args) -> int:
    if args.ell is not None:
        _at_least(args.ell, 0, "--ell")
    from .hall_littlewood import check_partition
    from .spherical import omega_explicit, omega_rank1_s_form

    if args.ell is not None:
        if args.s is None:
            sys.stderr.write("rank-one closed form needs --s\n")
            return EXIT_USAGE
        from .scalars import QFraction, QLaurent

        q = QLaurent.gen()
        val = omega_rank1_s_form(args.ell, QFraction(q ** (-args.s)))
        _emit(str(val) + "\n", args.out)
        return EXIT_PASS
    if args.n is None or args.lam is None:
        sys.stderr.write("general evaluation needs --n and --lambda\n")
        return EXIT_USAGE
    lam = _parse_partition(args.lam, lambda lam: check_partition(lam, args.n))
    value = omega_explicit(args.n, args.parity, lam)
    if args.x is None:
        _emit(
            f"prefactor: {value.prefactor}\nnumerator: {value.numerator}\n"
            f"boundary: {value.boundary}\n",
            args.out,
        )
        return EXIT_PASS
    xs = [_parse_fraction(t, "--x") for t in args.x.split(",")]
    if len(xs) != args.n:
        sys.stderr.write(f"--x needs {args.n} coordinates, got {len(xs)}\n")
        return EXIT_USAGE
    if not all(xs):
        sys.stderr.write(f"--x coordinates must be nonzero: {args.x!r}\n")
        return EXIT_USAGE
    try:
        text = str(value.eval_exact(xs))
    except ZeroDivisionError:
        sys.stderr.write(f"omega has a pole at x = ({', '.join(map(str, xs))})\n")
        return EXIT_USAGE
    _emit(text + "\n", args.out)
    return EXIT_PASS


def _cmd_sph_feq(args) -> int:
    from .hall_littlewood import check_partition
    from .spherical import check_functional_equation

    lam = _parse_partition(args.lam, lambda lam: check_partition(lam, args.n))
    ok = check_functional_equation(args.n, args.parity, lam)
    print("functional-equation:", "pass" if ok else "fail")
    return EXIT_PASS if ok else EXIT_MATH_FAIL


def _cmd_sph_parity_sign(args) -> int:
    from .hall_littlewood import check_partition
    from .spherical import parity_sign_relation

    lam = _parse_partition(args.lam, lambda lam: check_partition(lam, args.n))
    want = -1 if sum(lam) % 2 else 1
    got = parity_sign_relation(lam, args.n)
    print(f"sign: {got:+d}" if got else "sign: 0 (not a constant sign)")
    return EXIT_PASS if got == want else EXIT_MATH_FAIL


def _cmd_plancherel(args) -> int:
    q0 = _above(_parse_fraction(args.q0, "--q0"), 1, "--q0")
    weight = _at_least(args.weight, 0, "--weight")
    bound = PLANCHEREL_MAX_WEIGHT[args.n]
    if weight > bound:
        sys.stderr.write(
            f"resource: plancherel {args.subcommand} supports --weight up to {bound} "
            f"at --n {args.n}, got {weight}\n"
        )
        return EXIT_RESOURCE
    from .hall_littlewood import partitions
    from .plancherel import check_inversion, check_plancherel, gram_matrix

    lams = sorted(partitions(args.n, weight), key=lambda t: (sum(t), t))
    header = ["partition"] + [",".join(map(str, lam)) or "0" for lam in lams]
    if args.subcommand == "gram":
        mat = gram_matrix(lams, args.n, args.parity, q0)
        lines = [";".join(header)]
        for i, lam in enumerate(lams):
            cells = [",".join(map(str, lam)) or "0"]
            cells += [_format_complex(complex(v)) for v in mat[i]]
            lines.append(";".join(cells))
        _emit("\n".join(lines) + "\n", args.out)
        return EXIT_PASS
    fn = check_plancherel if args.subcommand == "check" else check_inversion
    misses = fn(lams, args.n, args.parity, q0)["misses"]
    name = "plancherel-diagonal" if args.subcommand == "check" else "inversion"
    status = "fail" if misses else "pass"
    print(f"{name}: {status} ({len(misses)} of {len(lams) ** 2} exact pairings miss their targets)")
    return EXIT_MATH_FAIL if misses else EXIT_PASS


def _cmd_plancherel_rank(args) -> int:
    from .plancherel import basis_rank_check

    q0 = _above(_parse_fraction(args.q0, "--q0"), 1, "--q0")
    trials = _at_least(args.trials, 1, "--trials")
    out = basis_rank_check(args.n, args.parity, q0, seed=args.seed, trials=trials)
    if out["ok"]:
        print(f"basis-rank: pass (least |det| {min(out['dets']):.3e})")
        return EXIT_PASS
    print("basis-rank: fail (singular at a sampled point)")
    return EXIT_MATH_FAIL


def _matrix_file_problem(d) -> str | None:
    """What keeps a parsed matrix file from holding a square matrix of its
    declared model, as far as its shape shows; None when nothing does."""
    if not isinstance(d, dict):
        return "expected a JSON object"
    missing = [k for k in ("model", "p", "eps", "size", "shift", "entries") if k not in d]
    if missing:
        return "missing " + ", ".join(missing)
    width = {"exact": 2, "residue": 3}.get(d["model"])
    if width is None:
        return f"unknown model {d['model']!r}"
    size, shift, entries = d["size"], d["shift"], d["entries"]
    if any(type(d[k]) is not int for k in ("p", "eps", "size", "shift")):
        return "p, eps, size and shift must be integers"
    if size < 1 or shift < 0:
        return f"size must be positive and shift nonnegative, got {size} and {shift}"
    if not (
        isinstance(entries, list)
        and len(entries) == size
        and all(isinstance(row, list) and len(row) == size for row in entries)
        and all(isinstance(e, list) and len(e) == width for row in entries for e in row)
    ):
        return f"entries are not a {size}x{size} matrix of {d['model']} entries"
    if width == 3 and any(type(v) is not int for row in entries for e in row for v in e):
        return "residue entries must be integers"
    return None


def _load_matrix(path: str):
    """The matrix a file holds, or a usage error naming the file unless it
    holds a square matrix of its declared model."""
    from .padic import LocalMatrix

    text = _read_text(path, "matrix file")
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as e:
        raise _usage_error(f"matrix file {path} is not JSON: {e}")
    problem = _matrix_file_problem(payload)
    if problem is None:
        try:
            return LocalMatrix.from_json_dict(payload)
        except (ArithmeticError, TypeError, ValueError) as e:
            problem = str(e)
    raise _usage_error(f"matrix file {path} does not hold a matrix: {problem}")


def _not_a_member(x) -> bool:
    """Print whether the matrix lies in the space, a residue matrix at its
    precision; True when it does not."""
    from .padic import is_member_X

    member = is_member_X(x)
    print(f"member: {'yes' if member else 'no'}")
    return not member


def _cmd_padic(args) -> int:
    # every range is checked before the matrix layer loads
    field = _local_field(args.p, "--p")
    if args.subcommand == "mc-omega" and not math.isfinite(args.s):
        raise _usage_error(f"--s must be finite, got {args.s}")
    for flag, least in (("r", 0), ("ell", 0), ("s", 0), ("samples", 1)):
        if getattr(args, flag, None) is not None:
            _at_least(getattr(args, flag), least, f"--{flag}")
    if args.subcommand == "classify":
        refused = _refuse_n(args.n, "padic classify", CLASSIFY_MAX_N)
        if refused is not None:
            return refused
    if args.subcommand == "count-norm":
        from .residue import norm_count

        if args.xi % args.p == 0:
            raise _usage_error(f"--xi must be a unit mod {args.p}, got {args.xi}")
        print(norm_count(args.p, args.xi, args.r))
        return EXIT_PASS
    if args.subcommand == "mc-omega":
        from .residue import mc_band, monte_carlo_omega1

        out = monte_carlo_omega1(
            args.ell, args.s, args.samples, args.prec, seed=args.seed, p=args.p
        )
        err = abs(out["estimate"] - out["closed_form"])
        band = mc_band(out)
        print(f"estimate: {out['estimate']:.6f}")
        print(f"stderr: {out['stderr']:.6f}")
        print(f"closed form: {out['closed_form']:.6f}")
        print(f"replaced draws: {out['saturated']}")
        ok = err < band
        print("agreement:", "pass" if ok else "fail")
        return EXIT_PASS if ok else EXIT_MATH_FAIL
    from .padic import (
        diagonalize_x1,
        full_group_class,
        invariant_factors,
        orbit_label,
        random_k,
        x_lambda,
    )

    if args.subcommand == "classify":
        if args.infile:
            x = _load_matrix(args.infile)
        else:
            k = random_k(field, args.n, seed=args.seed)
            x = k.act(_parse_partition(args.lam or "1", lambda lam: x_lambda(field, args.n, lam)))
        if _not_a_member(x):
            return EXIT_MATH_FAIL
        # one elimination gives the factors, the label and the class
        facs = invariant_factors(x)
        print("invariant factors:", ",".join(map(str, facs)))
        label = orbit_label(facs)
        print("orbit:", ",".join(map(str, label)))
        print("full-group class:", full_group_class(label))
        return EXIT_PASS
    if args.subcommand == "diagonalize1":
        if args.infile:
            x = _load_matrix(args.infile)
            if _not_a_member(x):
                return EXIT_MATH_FAIL
        else:
            if args.ell is None:
                sys.stderr.write("need --in or --ell\n")
                return EXIT_USAGE
            k0 = random_k(field, 1, seed=args.seed)
            x = k0.act(x_lambda(field, 1, (args.ell,)))
        k, ell = diagonalize_x1(x, prec=args.prec)
        print("orbit index:", ell)
        print("certified precision:", k.precision)
        if args.out:
            with open(args.out, "w") as fh:
                json.dump(k.to_json_dict(), fh, sort_keys=True)
                fh.write("\n")
        return EXIT_PASS
    return EXIT_USAGE  # pragma: no cover - argparse guards subcommands


def run(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return EXIT_USAGE if e.code not in (0, None) else 0
    if args.command in ("hl", "sph", "plancherel") and args.n is not None:
        refused = _refuse_n(args.n, f"{args.command} {args.subcommand}", QPOLY_MAX_N)
        if refused is not None:
            return refused
    try:
        if args.command == "verify":
            return _cmd_verify(args)
        if args.command == "hl":
            return _cmd_hl_qpoly(args)
        if args.command == "sph":
            if args.subcommand == "omega":
                return _cmd_sph_omega(args)
            if args.subcommand == "verify-feq":
                return _cmd_sph_feq(args)
            return _cmd_sph_parity_sign(args)
        if args.command == "plancherel":
            if args.subcommand == "rank":
                return _cmd_plancherel_rank(args)
            return _cmd_plancherel(args)
        if args.command == "padic":
            return _cmd_padic(args)
    except SystemExit as e:
        return e.code if isinstance(e.code, int) else EXIT_USAGE
    except (PrecisionError, ResourceLimit) as e:
        sys.stderr.write(f"resource/precision: {e}\n")
        return EXIT_RESOURCE
    except InexactDivision as e:
        sys.stderr.write(f"inexact: {e}\n")
        return EXIT_MATH_FAIL
    except (ValueError, KeyError, AssertionError) as e:
        sys.stderr.write(f"error: {e}\n")
        return EXIT_MATH_FAIL
    return EXIT_USAGE  # pragma: no cover - unreachable


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
