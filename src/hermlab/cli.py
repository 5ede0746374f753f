"""Command-line front end.

Verbs: compute orbit-sum polynomials, evaluate the explicit values and their
closed forms, run the quadrature suites, drive the residue-model laboratory,
and run the named verification checks as a consolidated report.

This module holds the verb table, the argument helpers the verbs share and
the dispatch.  Each verb's argument sub-tree and handlers live in a module of
its own, ``cmd_<verb>``, which a call imports and builds only for the verb it
names; each handler imports the layers it runs.  With no bytecode cached
every imported module is compiled again on each start, so a process
compiles only the code its verb uses, and no verb loads numpy.

Exit codes: 0 all requested work passed; 1 a mathematical check failed;
2 usage or configuration error; 3 a resource or precision limit was hit.
Identical invocations produce byte-identical output.

A command ends through ``main``, which freezes the heap before the exit:
the full collection CPython runs at shutdown then skips every object the
command made, instead of tracing and freeing the whole heap just before
the OS takes the memory back (8-12 ms of CPU of a 50-200 ms command).
"""

from __future__ import annotations

import argparse
import gc
import importlib
import sys
from fractions import Fraction

from .errors import InexactDivision, PrecisionError, ResourceLimit

EXIT_PASS = 0
EXIT_MATH_FAIL = 1
EXIT_USAGE = 2
EXIT_RESOURCE = 3

# The verbs that build `q_poly` (`hl qpoly`, `sph`, `plancherel`) run at
# n = 4 in under 2 s each on a 2-core machine: `plancherel rank` in
# 1.5-1.6 s, most of it dividing out the integer basis of its 16 orbit
# sums; the others in under 0.5 s at their default sizes.  Larger n exits
# EXIT_RESOURCE up front.
QPOLY_MAX_N = 4

# `sph omega --ell L --s S` builds the rank-one value over u = q^-S, a
# quotient of Laurent polynomials in q spanning up to about 2 (L + 3) |S|
# powers of q.  Up to RANK1_MAX_SPAN it runs in under 1 s and prints under
# 1 MB on a 2-core machine (at L = 97, S = -999: 0.8 s, 0.73 MB); a larger
# span exits EXIT_RESOURCE up front.
RANK1_MAX_SPAN = 200_000

# The residue model works mod p^prec, so its integers grow with --prec.  At
# RESIDUE_MAX_PREC and p = 3, on a 2-core machine: `padic mc-omega` at
# 10,000 samples took 0.7-1.0 s (MC_MAX_DRAW_WORK admits 2,500 there),
# `verify all --n 2` takes 0.3 s and `padic diagonalize1 --ell 10000` 0.3 s.
# At --prec 20000 the Monte-Carlo ran past 30 s.  A larger --prec exits
# EXIT_RESOURCE up front.
RESIDUE_MAX_PREC = 1000

# Two steps walk the integers up to p: LocalField tests p for primality by
# trial division up to sqrt(p), and `padic diagonalize1` takes a square root
# mod p by trying every residue.  On a 2-core machine the field takes 0.005 s
# at p ~ 10^9 and 0.15 s at p ~ 10^12, but `diagonalize1 --ell 3` takes
# 0.2-0.6 s just below 10^7, 1.7 s at p ~ 10^8 and 13 s at p ~ 10^9, and ran
# past 4 minutes at p ~ 10^12.  A larger --p exits EXIT_RESOURCE before the
# field is built.
LOCAL_FIELD_MAX_P = 10**7

# A Monte-Carlo draw works on integers mod p^prec.  On a 2-core machine one
# takes 5-15 us up to a few hundred bits of p^prec, and about the square of
# the bits above that: 80 us at 1,300 bits, 0.5 ms at 4,000, 33 ms at
# 40,000.  So --samples times max(bits, 256)^2, the bits counted as prec
# times the bit length of p, may be up to MC_MAX_DRAW_WORK; more exits
# EXIT_RESOURCE before any draw.  The largest runs it admits take 0.3-1.2 s
# from the CLI (152,587 draws at the default prec 8, 2,500 at p = 3 and
# prec 1000, 17 at p = 9,999,991 and prec 1000), where 200,000 draws at the
# default prec took 1.1 s and 10,000 at p = 97, prec 1000 took 8.8 s.
MC_MAX_DRAW_WORK = 10**10

# `plancherel rank` evaluates its 2^n orbit sums at one sampled point per
# trial: 0.1 / 0.4 / 2 / 28 ms a trial at n = 1 / 2 / 3 / 4 on a 2-core
# machine, where 2,000 trials at n = 3 took 3.3 s and 200 at n = 4 6.4 s.
# At RANK_MAX_TRIALS the verb takes 1.9-2.2 s at n = 4, most of it building
# the orbit sums, and 0.15 s at n = 3; more trials exit EXIT_RESOURCE before
# any trial runs.
RANK_MAX_TRIALS = 20

# the verbs in the order the help lists them, with their help text
VERBS = {
    "verify": "run named checks and emit a report",
    "hl": "orbit-sum polynomials",
    "sph": "spherical values",
    "plancherel": "measure, transforms, inversion",
    "padic": "residue-model laboratory",
}


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
    """The LocalField of p, or a usage error unless p is an odd prime; above
    LOCAL_FIELD_MAX_P a resource limit, before the residue layer loads."""
    if p > LOCAL_FIELD_MAX_P:
        sys.stderr.write(f"resource: {flag} must be at most {LOCAL_FIELD_MAX_P}, got {p}\n")
        raise SystemExit(EXIT_RESOURCE)
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


def _emit(text: str, out_path: str | None) -> None:
    """Write ``text`` to the --out file, or to stdout without one; a usage
    error when the file cannot be written."""
    if not out_path:
        sys.stdout.write(text)
        return
    try:
        with open(out_path, "w") as fh:
            fh.write(text)
    except OSError as e:
        raise _cannot_write(out_path, e)


def _cannot_write(path: str, e: OSError) -> SystemExit:
    return _usage_error(f"cannot write {path}: {e.strerror or e}")


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


def _refuse_above(value: int, bound: int, flag: str, verb: str) -> None:
    """Exit with EXIT_RESOURCE, after one line on stderr, when value is above
    bound.  Called before any layer loads."""
    if value > bound:
        sys.stderr.write(f"resource: {verb} supports {flag} up to {bound}, got {value}\n")
        raise SystemExit(EXIT_RESOURCE)


def _refuse_draws(samples: int, p: int, prec: int, verb: str) -> None:
    """Exit with EXIT_RESOURCE, after one line on stderr, when `samples`
    Monte-Carlo draws at p and prec exceed MC_MAX_DRAW_WORK."""
    most = MC_MAX_DRAW_WORK // max(prec * p.bit_length(), 256) ** 2
    _refuse_above(samples, most, "--samples", f"{verb} at p = {p}, prec = {prec}")


def run(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # argparse reads the verb from the first argument that is not an option
    named = next((a for a in argv if not a.startswith("-")), None)
    top = argparse.ArgumentParser(prog="hermlab")
    sub = top.add_subparsers(dest="command", required=True)
    verb = None
    for name, help_text in VERBS.items():
        parser = sub.add_parser(name, help=help_text)
        if name == named:
            verb = importlib.import_module(f".cmd_{name}", __package__)
            verb.add_arguments(parser)
    try:
        args = top.parse_args(argv)
    except SystemExit as e:
        return EXIT_USAGE if e.code not in (0, None) else 0
    out = getattr(args, "out", None)
    if out:
        # created, or emptied, before any work, as a shell redirection is, so
        # that a path that cannot be written is refused at once
        try:
            open(out, "w").close()
        except OSError as e:
            return _cannot_write(out, e).code
    if args.command in ("hl", "sph", "plancherel") and args.n is not None:
        refused = _refuse_n(args.n, f"{args.command} {args.subcommand}", QPOLY_MAX_N)
        if refused is not None:
            return refused
    try:
        return verb.handle(args)
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


def main() -> None:
    code = run()
    # CPython's full collection at shutdown traces and frees the whole heap,
    # as module dicts, functions and classes form cycles: 8-12 ms of CPU per
    # command on a 2-core machine, for memory the OS reclaims anyway.  The
    # permanent generation is skipped, so this cuts it to 2-4 ms;
    # atexit handlers still run and the standard streams are still flushed.
    # Not in run(), which callers in process use and whose heap must stay
    # collectable.
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    # Run as `python -m hermlab.cli`, this module is __main__; the verb
    # modules import their helpers from hermlab.cli, and would compile it a
    # second time under that name.
    sys.modules[f"{__package__}.cli"] = sys.modules[__name__]
    main()
