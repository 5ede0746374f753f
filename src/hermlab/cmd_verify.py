"""The ``verify`` verb: run named checks and emit one report."""

from __future__ import annotations

import os
import sys
from fractions import Fraction

from .cli import (
    EXIT_MATH_FAIL,
    EXIT_PASS,
    EXIT_USAGE,
    RESIDUE_MAX_PREC,
    _above,
    _at_least,
    _emit,
    _local_field,
    _read_text,
    _refuse_above,
    _refuse_draws,
    _refuse_n,
    _usage_error,
)

# At n = 4 all 22 checks pass when run in-process, in 2.9 s on a 2-core
# machine.  `basis-rank` takes 1.6-1.7 s of it, most of that in dividing
# out the integer basis of its 32 `q_poly` (ROADMAP direction 2 evaluates
# through alternants instead); `functional-equation` takes 0.6 s,
# `gram-orthogonality` 0.16 s and `measure-total-mass` 0.06 s.  Until
# `verify all --n 4` runs within a stated budget, larger n exits
# EXIT_RESOURCE up front.
VERIFY_MAX_N = 3

FORMATS = ("text", "json", "csv")


def _format(value: str, flag: str) -> str:
    if value not in FORMATS:
        raise _usage_error(f"{flag} must be one of {', '.join(FORMATS)}, got {value!r}")
    return value


# the verify settings with a range, each checked before the report loads
_VERIFY_RANGES = {
    "q0": lambda value, flag: _above(value, 1, flag),
    "p": _local_field,
    "grid_n": lambda value, flag: _at_least(value, 2, flag),
    "samples": lambda value, flag: _at_least(value, 1, flag),
    "tol": lambda value, flag: _above(value, 0, flag),
    "format": _format,
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


def add_arguments(ver) -> None:
    ver.add_argument("checks", help="'all' or a comma-joined list of check ids")
    ver.add_argument("--n", type=int, default=None)
    ver.add_argument("--q", "--q0", dest="q0", default=None)
    ver.add_argument("--p", type=int, default=None)
    ver.add_argument("--seed", type=int, default=None)
    ver.add_argument("--grid-N", dest="grid_n", type=int, default=None)
    ver.add_argument("--prec", type=int, default=None)
    ver.add_argument("--samples", type=int, default=None)
    ver.add_argument("--tol", type=float, default=None)
    ver.add_argument("--format", choices=FORMATS, default=None)
    ver.add_argument("--workers", type=int, default=None)
    ver.add_argument("--config", default=None, help="key = value defaults; flags win")
    ver.add_argument("--out", default=None)


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


def handle(args) -> int:
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
    # refused before the layers load; an absent setting takes RunConfig's
    # default: n = 1, p = 3, prec = 8, samples = 2000
    refused = _refuse_n(merged.get("n", 1), "verify", VERIFY_MAX_N)
    if refused is not None:
        return refused
    if "prec" in merged:
        _refuse_above(merged["prec"], RESIDUE_MAX_PREC, "--prec", "verify")
    _refuse_draws(merged.get("samples", 2000), merged.get("p", 3), merged.get("prec", 8), "verify")
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
