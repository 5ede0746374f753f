"""The ``sph`` verb: spherical values, their functional equation and the
parity sign."""

from __future__ import annotations

import sys

from .cli import (
    EXIT_MATH_FAIL,
    EXIT_PASS,
    EXIT_RESOURCE,
    EXIT_USAGE,
    RANK1_MAX_SPAN,
    _at_least,
    _emit,
    _parse_fraction,
    _parse_partition,
)


def add_arguments(sph) -> None:
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


def handle(args) -> int:
    if args.subcommand == "omega":
        return _omega(args)
    if args.subcommand == "verify-feq":
        return _feq(args)
    return _parity_sign(args)


def _omega(args) -> int:
    if args.ell is not None:
        _at_least(args.ell, 0, "--ell")
        if args.s is None:
            sys.stderr.write("rank-one closed form needs --s\n")
            return EXIT_USAGE
        span = 2 * (args.ell + 3) * abs(args.s)
        if span > RANK1_MAX_SPAN:
            sys.stderr.write(
                f"resource: sph omega supports 2 (ell + 3) |s| up to {RANK1_MAX_SPAN}, got {span}\n"
            )
            return EXIT_RESOURCE
    from .hall_littlewood import check_partition
    from .spherical import omega_explicit, omega_rank1_s_form

    if args.ell is not None:
        from .scalars import QFraction, QLaurent

        q = QLaurent.gen()
        try:
            val = omega_rank1_s_form(args.ell, QFraction(q ** (-args.s)))
        except ZeroDivisionError:
            # 1 - q^-4 u^4 vanishes at u = q
            sys.stderr.write(f"omega has a pole at s = {args.s}\n")
            return EXIT_USAGE
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


def _feq(args) -> int:
    from .hall_littlewood import check_partition
    from .spherical import check_functional_equation

    lam = _parse_partition(args.lam, lambda lam: check_partition(lam, args.n))
    ok = check_functional_equation(args.n, args.parity, lam)
    print("functional-equation:", "pass" if ok else "fail")
    return EXIT_PASS if ok else EXIT_MATH_FAIL


def _parity_sign(args) -> int:
    from .hall_littlewood import check_partition
    from .spherical import parity_sign_relation

    lam = _parse_partition(args.lam, lambda lam: check_partition(lam, args.n))
    want = -1 if sum(lam) % 2 else 1
    got = parity_sign_relation(lam, args.n)
    print(f"sign: {got:+d}" if got else "sign: 0 (not a constant sign)")
    return EXIT_PASS if got == want else EXIT_MATH_FAIL
