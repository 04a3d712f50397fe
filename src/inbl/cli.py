"""Command-line surface.

Subcommands run the search protocols on .nbl / phonebook files and execute
the statistical experiments. Reports are machine-readable JSON (amplitudes
always as exact {mantissa, exp2} pairs, never floating point) and are
bit-identical across reruns with the same seed, except the duration field.

Exit codes: 0 on Present/success, 1 on Absent, 2 on errors.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import time
from fractions import Fraction
from typing import Optional, Tuple

from . import experiments, oracle, phonebook
from .dsl import parse_fragments, parse_program
from .dyadic import Dyadic
from .errors import IllegalClass, InblError
from .expr import Expr, Pattern, build_product_string, build_universe, iter_wires
from .reference import BLOCK_CLOCKS, ReferenceSystem, RtwScheme
from .search import (
    DEFAULT_MAX_WAIT,
    DEFAULT_TAU,
    Verdict,
    entangle_discriminate,
    fragment_search,
    full_string_search,
)

EXIT_OK = 0
EXIT_ABSENT = 1
EXIT_ERROR = 2


def _seed(args) -> int:
    return args.seed if args.seed is not None else int(os.environ.get("INBL_SEED", "0"))


def _add_output_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--output", choices=["json", "table"], default="json")
    p.add_argument("--out", default=None, help="write the report to this path instead of stdout")


def _add_system_flags(p: argparse.ArgumentParser, waits_for_live_clock: bool) -> None:
    """Flags of the reference system; only protocols that wait for a live
    clock take --max-wait."""
    p.add_argument("--seed", type=int, default=None, help="master seed (default: $INBL_SEED or 0)")
    p.add_argument("--scheme", choices=["asym", "sym"], default="asym")
    p.add_argument("--flip-prob", default="1/2", help="per-clock sign flip probability (rational)")
    if waits_for_live_clock:
        p.add_argument("--max-wait", type=int, default=DEFAULT_MAX_WAIT)
    _add_output_flags(p)


def _make_system(args, num_bits: int) -> ReferenceSystem:
    try:
        flip_prob = Fraction(args.flip_prob)
    except ZeroDivisionError:
        raise ValueError(f"flip_prob must be in (0, 1], got {args.flip_prob}") from None
    return ReferenceSystem(
        num_bits,
        RtwScheme(args.scheme),
        master_seed=_seed(args),
        flip_prob=flip_prob,
    )


def _load_expr(path: str, num_bits: Optional[int] = None):
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    expr, declared = parse_program(text)
    bits = declared
    if bits is None:
        bits = max((w.bit_index for w in iter_wires(expr)), default=1)
    if num_bits is not None and num_bits != bits:
        size = (f"declares {bits} bits" if declared is not None
                else f"has no 'bits M;' header and uses bit indices up to {bits}")
        raise InblError(f"{path}: {size}, expected {num_bits}")
    return expr, bits


def _emit(report: dict, args, started: float) -> None:
    report["duration_s"] = time.monotonic() - started
    if args.output == "table":
        text = _as_table(report)
    else:
        text = json.dumps(report, indent=2)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _as_table(report: dict, indent: str = "") -> str:
    lines = []
    for key, value in report.items():
        if isinstance(value, dict):
            lines.append(f"{indent}{key}:")
            lines.append(_as_table(value, indent + "  "))
        elif isinstance(value, list):
            lines.append(f"{indent}{key}: {json.dumps(value)}")
        else:
            lines.append(f"{indent}{key}: {value}")
    return "\n".join(lines)


def _base_report(args, parameters: dict) -> dict:
    report = {"command": list(getattr(args, "_argv", [])), "subcommand": args.cmd}
    if "seed" in vars(args):  # the subcommand ran on a reference system
        report["seed"] = _seed(args)
        parameters.update(scheme=args.scheme, flip_prob=args.flip_prob)
    report["parameters"] = parameters
    return report


def _live_clock_report(live) -> dict:
    """A one-clock protocol's live clock, switch actions and one exact
    reading per recorded configuration, the un-grounded signal first."""
    return {"live_clock": live.clock, "switch_ops": live.switch_ops,
            "readings": [Dyadic(int(x), live.exp2).to_json() for x in live.readings[:, 0]]}


def _cmd_search(args) -> Tuple[dict, int]:
    expr, bits = _load_expr(args.file)
    system = _make_system(args, bits)
    if args.string:
        pattern, mode, search = Pattern.from_string(args.string), "full_string", full_string_search
    else:
        pattern, mode, search = parse_fragments(args.fragments), "fragment", fragment_search
        pattern.check_fits(bits)
    outcome = search(expr, system, pattern, tau=args.tau, max_wait=args.max_wait)
    report = _base_report(
        args,
        {
            "file": args.file,
            "bits": bits,
            "mode": mode,
            "pattern": str(pattern),
            "tau": args.tau,
            "max_wait": args.max_wait,
        },
    )
    report["outcome"] = outcome.to_json()
    if args.oracle_check:
        expansion = oracle.expand(expr, bits)
        survivors = oracle.surviving(expansion, pattern)
        agrees = (len(survivors) > 0) == outcome.present
        report["oracle_check"] = {
            "survivor_count": len(survivors),
            "survivors": sorted(survivors.entries),
            "noncanonical": expansion.noncanonical,
            "agrees": agrees,
        }
        # an oracle-confirmed empty survivor set upgrades a bounded verdict
        if outcome.verdict is Verdict.ABSENT_BOUNDED and len(survivors) == 0:
            report["oracle_check"]["certified_absent"] = True
    return report, EXIT_OK if outcome.present else EXIT_ABSENT


def _cmd_entangle(args) -> Tuple[dict, int]:
    expr, bits = _load_expr(args.file, num_bits=2)
    system = _make_system(args, 2)
    try:
        bell, live = entangle_discriminate(expr, system, args.max_wait, 0, args.probe_partner)
    except IllegalClass as exc:  # a signal outside the legal classes: name its file
        raise InblError(f"{args.file}: {exc}") from None
    report = _base_report(
        args,
        {
            "file": args.file,
            "probe_partner": args.probe_partner,
        },
    )
    report["bell_class"] = bell.value
    report.update(_live_clock_report(live))
    if args.oracle_check:
        expected = oracle.legal_bell_class(oracle.expand(expr, 2))
        report["oracle_check"] = {"bell_class": expected.value, "agrees": expected is bell}
    return report, EXIT_OK


def _cmd_lookup(args) -> Tuple[dict, int]:
    with open(args.file, "r", encoding="utf-8") as fh:
        spec = phonebook.parse_phonebook(fh.read())
    pb = phonebook.build_phonebook(spec)
    system = _make_system(args, spec.total_bits)
    if args.cmd == "lookup":
        direction, key_kind, key = "forward", "name", args.name
        book = dict(spec.entries)
    else:
        direction, key_kind, key = "inverse", "number", args.number
        book = {number: name for name, number in spec.entries}
    result, live = phonebook.probe_book(pb, system, key, direction, args.max_wait)
    verdict = Verdict.ABSENT if result is None else Verdict.PRESENT
    report = _base_report(args, {"file": args.file, key_kind: key, "direction": direction})
    report["verdict"] = verdict.value
    report["result"] = result
    report.update(_live_clock_report(live))
    report["switching_cost"] = phonebook.switching_cost(spec.name_bits, spec.number_bits, direction)
    if args.oracle_check:
        expected = book.get(key)
        report["oracle_check"] = {"expected": expected, "agrees": expected == result}
    return report, EXIT_OK if verdict is Verdict.PRESENT else EXIT_ABSENT


def _cmd_zero_stats(args) -> Tuple[dict, int]:
    if args.expr:
        expr, bits = _load_expr(args.expr)
    else:
        bits = args.bits
        expr = build_universe(bits)
    system = _make_system(args, bits)
    stats = experiments.run_zero_stats(expr, system, args.clocks)
    report = _base_report(
        args,
        {
            "expr": args.expr or f"U({bits})",
            "bits": bits,
            "clocks": args.clocks,
        },
    )
    report["zero_stats"] = stats.to_json()
    slope = stats.histogram_slope()
    report["zero_stats"]["histogram_log_slope"] = slope
    return report, EXIT_OK


def _cmd_crosscorr(args) -> Tuple[dict, int]:
    if args.strings:
        strings = [s.strip() for s in args.strings.split(",")]
        if len(strings) != 2:
            raise InblError("--strings takes exactly two comma-separated bit strings")
        bits = len(strings[0])
        expr_a = build_product_string(Pattern.from_string(strings[0]), bits)
        expr_b = build_product_string(Pattern.from_string(strings[1]), bits)
        names = strings
    else:
        if not args.file_a or not args.file_b:
            raise InblError("crosscorr needs two .nbl files or --strings")
        expr_a, bits = _load_expr(args.file_a)
        expr_b, bits_b = _load_expr(args.file_b)
        bits = max(bits, bits_b)
        names = [args.file_a, args.file_b]
    system = _make_system(args, bits)
    estimate = experiments.run_crosscorr(expr_a, expr_b, system, args.clocks)
    report = _base_report(
        args,
        {
            "signals": names,
            "bits": bits,
            "clocks": args.clocks,
        },
    )
    report["estimate"] = estimate
    report["bound_5_over_sqrt_T"] = 5.0 / args.clocks**0.5
    return report, EXIT_OK


def _cmd_speedup(args) -> Tuple[dict, int]:
    report = _base_report(args, {"bits": args.bits})
    report["speedup"] = experiments.speedup_report(
        args.bits, args.name_bits, args.number_bits
    )
    return report, EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of this process, built on the first call (not at import:
    that would add its build to every start-up) and shared by every later
    `main` call; parse_args keeps no state between calls."""
    parser = argparse.ArgumentParser(
        prog="inbl",
        description="Instantaneous noise-based logic: collapse search simulator",
    )
    sub = parser.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("search", help="full-string or fragment search on a .nbl file")
    p.add_argument("file")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--string", help="full bit string to search for, e.g. 1010")
    group.add_argument("--fragments", help="partial assignment, e.g. 1=0,2=0,4=0")
    p.add_argument("--tau", type=int, default=DEFAULT_TAU,
                   help="observation clocks before a bounded Absent verdict, on a "
                        f"search that one reading cannot settle (1 to {BLOCK_CLOCKS})")
    p.add_argument("--oracle-check", action="store_true")
    _add_system_flags(p, waits_for_live_clock=True)

    p = sub.add_parser("entangle", help="classify a 2-bit entangled superposition")
    p.add_argument("file")
    p.add_argument("--probe-partner", type=int, choices=[0, 1], default=0,
                   help="which bit-2 wire the second probe grounds")
    p.add_argument("--oracle-check", action="store_true")
    _add_system_flags(p, waits_for_live_clock=True)

    p = sub.add_parser("lookup", help="forward phonebook lookup")
    p.add_argument("file")
    p.add_argument("--name", required=True)
    p.add_argument("--oracle-check", action="store_true")
    _add_system_flags(p, waits_for_live_clock=True)

    p = sub.add_parser("inverse-lookup", help="inverse phonebook lookup")
    p.add_argument("file")
    p.add_argument("--number", required=True)
    p.add_argument("--oracle-check", action="store_true")
    _add_system_flags(p, waits_for_live_clock=True)

    p = sub.add_parser("zero-stats", help="zero-amplitude statistics of a superposition")
    p.add_argument("--expr", default=None, help=".nbl file (default: the Universe)")
    p.add_argument("--bits", type=int, default=4)
    p.add_argument("--clocks", type=int, default=100_000)
    _add_system_flags(p, waits_for_live_clock=False)

    p = sub.add_parser("crosscorr", help="cross-correlation of two signals")
    p.add_argument("file_a", nargs="?", default=None)
    p.add_argument("file_b", nargs="?", default=None)
    p.add_argument("--strings", default=None,
                   help="two product-strings instead of files, e.g. 1010,0110")
    p.add_argument("--clocks", type=int, default=1_000_000)
    _add_system_flags(p, waits_for_live_clock=False)

    p = sub.add_parser("speedup", help="complexity comparison report")
    p.add_argument("--bits", type=int, required=True)
    p.add_argument("--name-bits", type=int, default=None)
    p.add_argument("--number-bits", type=int, default=None)
    _add_output_flags(p)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    args._argv = list(argv) if argv is not None else sys.argv[1:]
    started = time.monotonic()
    handlers = {
        "search": _cmd_search,
        "entangle": _cmd_entangle,
        "lookup": _cmd_lookup,
        "inverse-lookup": _cmd_lookup,
        "zero-stats": _cmd_zero_stats,
        "crosscorr": _cmd_crosscorr,
        "speedup": _cmd_speedup,
    }
    try:
        report, code = handlers[args.cmd](args)
        _emit(report, args, started)
        # a verdict the oracle contradicts is an error, whatever it was
        return EXIT_ERROR if report.get("oracle_check", {}).get("agrees") is False else code
    except (InblError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except Exception as exc:
        # exit 1 means "absent": no failure may reach it through an uncaught raise
        import traceback  # only this path needs it; keeps the import off start-up

        traceback.print_exc()
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
