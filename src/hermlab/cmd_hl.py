"""The ``hl`` verb: orbit-sum polynomials."""

from __future__ import annotations

from .cli import EXIT_PASS, _emit, _parse_partition


def add_arguments(hl) -> None:
    hls = hl.add_subparsers(dest="subcommand", required=True)
    qp = hls.add_parser("qpoly")
    qp.add_argument("--n", type=int, required=True)
    qp.add_argument("--parity", choices=("odd", "even"), required=True)
    qp.add_argument("--lambda", dest="lam", required=True)
    qp.add_argument("--normalized", action="store_true", help="unit top coefficient")
    qp.add_argument("--format", choices=("text", "json"), default="text")
    qp.add_argument("--out", default=None)


def handle(args) -> int:
    from .hall_littlewood import check_partition, p_poly, q_poly

    lam = _parse_partition(args.lam, lambda lam: check_partition(lam, args.n))
    poly = (p_poly if args.normalized else q_poly)(args.n, args.parity, lam)
    if args.format == "json":
        import json

        _emit(json.dumps(poly.to_json_dict(), sort_keys=True) + "\n", args.out)
    else:
        _emit(str(poly) + "\n", args.out)
    return EXIT_PASS
