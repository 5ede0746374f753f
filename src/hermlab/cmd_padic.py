"""The ``padic`` verb: the residue-model laboratory (norm counts, orbit
classification, rank-one diagonalization, the defining-integral
Monte-Carlo) and the matrix files it reads."""

from __future__ import annotations

import math
import sys

from .cli import (
    EXIT_MATH_FAIL,
    EXIT_PASS,
    EXIT_USAGE,
    _at_least,
    _emit,
    _local_field,
    _parse_partition,
    _read_text,
    _refuse_n,
    _usage_error,
)

# `padic classify` at n = 20 takes 0.55-1.1 s from the CLI on a 2-core
# machine (seeds 1, 2 and 7; lambda (1) and (4, 3, 2, 1)): 0.1-0.6 s in its
# one elimination, the rest in start-up and in building the `random_k` word
# and its products.  At n = 30 the word and the elimination take 0.8-3.1 s
# in-process.  Larger n exits EXIT_RESOURCE up front.
CLASSIFY_MAX_N = 20


def add_arguments(pa) -> None:
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
    import json

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


def handle(args) -> int:
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
        import json

        _emit(json.dumps(k.to_json_dict(), sort_keys=True) + "\n", args.out)
    return EXIT_PASS
