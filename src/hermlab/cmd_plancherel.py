"""The ``plancherel`` verb: the Gram matrix, the Plancherel and inversion
pairings and the rank of the evaluation matrix."""

from __future__ import annotations

import sys

from .cli import (
    EXIT_MATH_FAIL,
    EXIT_PASS,
    EXIT_RESOURCE,
    RANK_MAX_TRIALS,
    _above,
    _at_least,
    _emit,
    _parse_fraction,
    _refuse_above,
)

# `plancherel gram|check|inversion` pair every partition of weight up to
# --weight with every other, each one's orbit sum taken at q0 from its
# coefficients.  From the CLI on a 2-core machine the three verbs take, in
# both cases, at the bound (in parentheses another weight, odd case)
#   n = 1, weight 128: 1.8-2.3 s   (weight 64: 0.3 s)
#   n = 2, weight 14:  2.1-2.6 s   (weight 16: 4.2-4.4 s)
#   n = 3, weight 6:   0.8-1.1 s   (weight 7: 2.2-2.6 s)
#   n = 4, weight 3:   0.4-0.5 s   (weight 4: 1.3-1.7 s)
# A larger --weight exits EXIT_RESOURCE before any layer loads.
PLANCHEREL_MAX_WEIGHT = {1: 128, 2: 14, 3: 6, 4: 3}


def add_arguments(pl) -> None:
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


def _format_complex(z: complex) -> str:
    sign = "+" if z.imag >= 0 else "-"
    return f"{z.real:.12g}{sign}{abs(z.imag):.12g}i"


def handle(args) -> int:
    q0 = _above(_parse_fraction(args.q0, "--q0"), 1, "--q0")
    if args.subcommand == "rank":
        return _rank(args, q0)
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
    _emit(
        f"{name}: {status} ({len(misses)} of {len(lams) ** 2} exact pairings miss their targets)\n",
        args.out,
    )
    return EXIT_MATH_FAIL if misses else EXIT_PASS


def _rank(args, q0) -> int:
    trials = _at_least(args.trials, 1, "--trials")
    _refuse_above(trials, RANK_MAX_TRIALS, "--trials", "plancherel rank")
    from .plancherel import basis_rank_check

    out = basis_rank_check(args.n, args.parity, q0, seed=args.seed, trials=trials)
    if out["ok"]:
        print(f"basis-rank: pass (least |det| {min(out['dets']):.3e})")
        return EXIT_PASS
    print("basis-rank: fail (singular at a sampled point)")
    return EXIT_MATH_FAIL
