"""Command-line front end.

One executable, six subcommands::

    qadic iota        evaluate the interpolated q-power sum, or print a value
                      table with fixed residues bracketed
    qadic fixed       enumerate / count / classify fixed residues at a level
    qadic phi         parameter -> fixed point (loses one digit)
    qadic psi         fixed point -> parameter
    qadic exceptional digits of the two parameters with no attracting point
    qadic verify      run named property/oracle sweeps

Output conventions
------------------
Plain mode prints a single human-oriented value, listing, or table.  With
``--json`` the command instead emits exactly one self-describing record line
(JSON, sorted keys) that round-trips through ``OutputRecord.from_line``.
``--out FILE`` sends whatever would have gone to stdout into FILE.

Value literals accept three forms everywhere: integer (``21``), rational
(``-1/2``), or the canonical digit string (``3^4:1,1,0,0``).  Results that
are p-adic objects render as canonical digit strings; when the requested
exponent was given as a plain integer the value comes back as a plain
residue.

Exit codes: 0 success, 1 domain/parse error or a malformed setting,
2 precision error, 3 verification failure (including internal invariant
breaks), 4 resource cap.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import sys
import time

from . import suites as _suites
from .cocycle import iota_eval
from .config import check_listing_size, check_precision_request, precision_cap, scan_budget
from .correspondence import BRANCHES, ExceptionalReport, exceptional_q, phi, psi
from .errors import (
    DomainError,
    InvariantError,
    PrecisionError,
    QadicError,
    ResourceError,
)
from .fixed_points import classify, count_fixed_points, enumerate_fixed_points
from .padic_core import PadicInt, QParameter, _is_prime, from_rational, int_valuation, parse_value, read_literal

__all__ = ["OutputRecord", "build_parser", "run", "main"]

_TABLE_COLUMNS = 18
_RECORD_FIELDS = ("command", "inputs", "method", "result", "timing")


@dataclasses.dataclass(frozen=True)
class OutputRecord:
    """One structured result: command echo, parsed inputs, payload,
    provenance of method (structural closed forms vs oracle sweeps), timing."""

    command: tuple[str, ...]
    inputs: dict
    result: dict
    method: str
    timing: float

    def to_line(self) -> str:
        payload = {
            "command": list(self.command),
            "inputs": self.inputs,
            "method": self.method,
            "result": self.result,
            "timing": self.timing,
        }
        return json.dumps(payload, sort_keys=True, separators=(",", ":"))

    @classmethod
    def from_line(cls, line: str) -> "OutputRecord":
        try:
            data = json.loads(line)
        except json.JSONDecodeError as exc:
            raise DomainError(f"not a record line: {exc}") from None
        if not isinstance(data, dict) or set(data) != set(_RECORD_FIELDS):
            raise DomainError(f"record line must have exactly the keys {_RECORD_FIELDS}")
        return cls(
            command=tuple(data["command"]),
            inputs=data["inputs"],
            result=data["result"],
            method=data["method"],
            timing=float(data["timing"]),
        )


class _Parser(argparse.ArgumentParser):
    """argparse that reports bad flags through the DomainError path (exit 1)
    instead of calling sys.exit itself."""

    def error(self, message):
        raise DomainError(message)


def build_parser() -> argparse.ArgumentParser:
    common = _Parser(add_help=False)
    common.add_argument("--json", action="store_true", help="emit one structured record line")
    common.add_argument("--out", metavar="FILE", help="write output to FILE instead of stdout")

    parser = _Parser(prog="qadic", description="finite-precision q-power-sum interpolation toolkit")
    sub = parser.add_subparsers(dest="cmd", required=True, parser_class=_Parser)

    cmd = sub.add_parser("iota", parents=[common], help="evaluate the interpolation, or print a value table")
    cmd.add_argument("--p", type=int, required=True, help="prime")
    cmd.add_argument("--q", required=True, help="parameter: integer, a/b, or digit string")
    cmd.add_argument("--z", help="exponent: integer, a/b, or digit string")
    cmd.add_argument("--n", type=int, required=True, help="output modulus exponent")
    cmd.add_argument("--table", type=int, metavar="LIMIT", help="print values for z = 0..LIMIT")
    cmd.add_argument("--mark-fixed", action="store_true", help="bracket table entries with value = z")

    cmd = sub.add_parser("fixed", parents=[common], help="fixed residues of the level-n map")
    cmd.add_argument("mode", choices=("enumerate", "count", "classify"))
    cmd.add_argument("--p", type=int, required=True)
    cmd.add_argument("--q", required=True)
    cmd.add_argument("--n", type=int, required=True)
    cmd.add_argument("--z", help="the residue to classify (classify mode only)")

    cmd = sub.add_parser("phi", parents=[common], help="parameter to fixed point (p = 3)")
    cmd.add_argument("--q", required=True)
    cmd.add_argument("--precision", type=int, required=True, help="digits of q consumed")

    cmd = sub.add_parser("psi", parents=[common], help="fixed point to parameter (p = 3)")
    cmd.add_argument("--z", required=True)
    cmd.add_argument("--precision", type=int, required=True, help="digits of q produced")

    cmd = sub.add_parser("exceptional", parents=[common], help="digits of an exceptional parameter")
    cmd.add_argument("--branch", choices=BRANCHES, required=True)
    cmd.add_argument("--digits", type=int, required=True)

    cmd = sub.add_parser("verify", parents=[common], help="run property/oracle sweeps")
    cmd.add_argument("--suite", default="default", help='suite name, "default", or "all"')
    cmd.add_argument("--depth", type=int, default=5)
    cmd.add_argument("--seed", type=int, default=0)
    return parser


@functools.cache
def _parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The parser every `run` in this process shares, built on first use,
    with its subcommand parsers by name.

    A query that starts with a subcommand's name is parsed by that
    subcommand's parser alone, which is what the full parser would hand
    the rest of the line to; anything else goes to the full parser.
    parse_args keeps no state between calls: each returns a fresh
    Namespace, and a malformed line raises DomainError from `error`.
    """
    parser = build_parser()
    (sub,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return parser, sub.choices


# -- literals and the precision cap -----------------------------------------
# The cap applies to the caller's own --n or --precision, checked once as a
# handler reads its arguments; the library works at whatever higher levels
# it derives from them.


def _checked_prime(p: int) -> int:
    """The caller's --p, refused unless prime (before any literal is read)."""
    if not _is_prime(p):
        raise DomainError(f"--p must be prime, got {p}")
    return p


def _checked_level(n: int) -> int:
    """The caller's --n: at least 1 and within the precision cap."""
    if n < 1:
        raise DomainError("--n must be at least 1")
    return check_precision_request(n)


def _valuation(x, p: int):
    """v_p of a nonzero exact rational."""
    return int_valuation(x.numerator, p) - int_valuation(x.denominator, p)


def _q_literal(text: str, p: int, n: int) -> QParameter:
    """Parameter from a CLI literal, with enough digits for level-n work.

    Digit strings carry their own precision (too short fails honestly
    downstream).  Exact integer and rational literals are materialized at
    v_p(q-1) + n + 1 digits, which covers evaluation (m0+n), enumeration,
    and classification at level n in one policy.
    """
    x = read_literal(text, p)
    if isinstance(x, PadicInt):
        return QParameter(x)
    if x == 1:
        return QParameter(PadicInt.from_int(1, p, n))
    prec = n + max(_valuation(x - 1, p), 0) + 1
    return QParameter(from_rational(x.numerator, x.denominator, p, prec))


# -- subcommand handlers ----------------------------------------------------
# Each returns (plain_text, result_payload, method, exit_code).


def _cmd_iota(args):
    if args.table is None and args.z is None:
        raise DomainError("iota needs --z, or --table LIMIT")
    if args.table is not None and args.z is not None:
        raise DomainError("--z and --table are mutually exclusive")
    q = _q_literal(args.q, _checked_prime(args.p), _checked_level(args.n))

    if args.table is not None:
        if args.table < 0:
            raise DomainError("--table limit must be nonnegative")
        check_listing_size(args.table + 1, args.p, args.n, "table values")
        ring = args.p**args.n
        # On 1 + pZ_p iota_q is an isometry, so its values mod p^n repeat
        # with period p^n; elsewhere the exponent is used as an integer.
        span = min(args.table + 1, ring) if q.in_u1 else args.table + 1
        period = [iota_eval(q, z, args.n).lift() for z in range(span)]
        values = [period[z % span] for z in range(args.table + 1)]
        marks = [args.mark_fixed and val == z % ring for z, val in enumerate(values)]
        cells = [f"[{v}]" if m else str(v) for v, m in zip(values, marks)]
        lines = [
            " ".join(cells[i : i + _TABLE_COLUMNS])
            for i in range(0, len(cells), _TABLE_COLUMNS)
        ]
        payload = {
            "modulus": f"{args.p}^{args.n}",
            "values": values,
            "fixed_positions": [z for z, m in enumerate(marks) if m],
        }
        return "\n".join(lines), payload, "structural", 0

    if args.mark_fixed:
        raise DomainError("--mark-fixed is only meaningful with --table")
    z = parse_value(args.z, args.p, args.n)
    out = iota_eval(q, z, args.n)
    plain = str(out.lift()) if isinstance(z, int) else str(out)
    return plain, {"value": plain}, "structural", 0


def _cmd_fixed(args):
    q = _q_literal(args.q, _checked_prime(args.p), _checked_level(args.n))
    if args.mode == "classify":
        if args.z is None:
            raise DomainError("classify needs --z")
        z = parse_value(args.z, args.p, args.n)
        label = classify(q, z, args.n)
        return label, {"classification": label}, "structural", 0
    if args.z is not None:
        raise DomainError(f"--z has no meaning for {args.mode}")
    if args.mode == "count":
        count = count_fixed_points(q, args.n)
        return str(count), {"count": count}, "structural", 0
    fps = enumerate_fixed_points(q, args.n)
    residues = fps.residues()
    plain = ",".join(str(r) for r in residues)
    return plain, {"residues": residues, "count": len(residues)}, "structural", 0


def _cmd_phi(args):
    q = read_literal(args.q, 3)
    n = check_precision_request(args.precision)
    if not isinstance(q, PadicInt):
        q = from_rational(q.numerator, q.denominator, 3, max(n, 1))
    out = phi(q, n)
    if isinstance(out, ExceptionalReport):
        payload = {
            "exceptional": True,
            "branch": out.branch,
            "agreement_depth": out.agreement_depth,
        }
        return str(out), payload, "structural", 0
    return str(out), {"exceptional": False, "value": str(out)}, "structural", 0


def _cmd_psi(args):
    z = read_literal(args.z, 3)
    prec = check_precision_request(args.precision)
    if not isinstance(z, PadicInt):
        if z.denominator == 1:
            z = z.numerator
        else:
            # psi reads z mod 3^(prec + v0) with v0 = v(z(z-1))
            spare = max(_valuation(z * (z - 1), 3), 0)
            z = from_rational(z.numerator, z.denominator, 3, prec + spare)
    out = psi(z, prec)
    return str(out), {"value": str(out)}, "structural", 0


def _cmd_exceptional(args):
    out = exceptional_q(args.branch, args.digits)
    payload = {"branch": args.branch, "digits": args.digits, "value": str(out)}
    return str(out), payload, "structural", 0


def _cmd_verify(args):
    if args.suite == "all":
        names = list(_suites.SUITES)
    elif args.suite == "default":
        names = list(_suites.DEFAULT_SUITES)
    elif args.suite in _suites.SUITES:
        names = [args.suite]
    else:
        known = ", ".join(_suites.SUITES)
        raise DomainError(f"unknown suite {args.suite!r}; choose from: {known}, default, all")

    try:
        results = _suites.run_suites(names, depth=args.depth, seed=args.seed)
    except ResourceError as exc:
        raise ResourceError(f"verify --depth {args.depth}: {exc}") from None
    lines = []
    for r in results:
        lines.append(r.summary())
        if r.failures:
            lines.append(f"  first counterexample: {r.failures[0]}")
        for note in r.notes:
            lines.append(f"  note: {note}")
    all_passed = all(r.passed for r in results)
    payload = {
        "depth": args.depth,
        "seed": args.seed,
        "passed": all_passed,
        "suites": [
            {
                "name": r.name,
                "cases": r.cases,
                "failures": list(r.failures),
                "notes": list(r.notes),
                "passed": r.passed,
                "seconds": round(r.seconds, 3),
                "top_level": r.top_level,
            }
            for r in results
        ],
    }
    method = "oracle" if any(r.oracle for r in results) else "structural"
    return "\n".join(lines), payload, method, 0 if all_passed else 3


_HANDLERS = {
    "iota": _cmd_iota,
    "fixed": _cmd_fixed,
    "phi": _cmd_phi,
    "psi": _cmd_psi,
    "exceptional": _cmd_exceptional,
    "verify": _cmd_verify,
}


def _merge_negative_values(argv: list[str]) -> list[str]:
    """argparse reads a bare ``-1/2`` as an unknown flag; fold negative
    literals following the value flags into ``--flag=value`` form so the
    documented syntax works."""
    merged = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        if (
            tok in ("--q", "--z")
            and i + 1 < len(argv)
            and argv[i + 1][:1] == "-"
            and argv[i + 1][1:2].isdigit()
        ):
            merged.append(f"{tok}={argv[i + 1]}")
            i += 2
            continue
        merged.append(tok)
        i += 1
    return merged


def _echo_inputs(args) -> dict:
    skip = {"cmd", "json", "out"}
    return {k: v for k, v in vars(args).items() if k not in skip}


def _emit(text: str, out_path: str | None) -> None:
    if out_path is None:
        print(text)
        return
    try:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    except OSError as exc:
        raise DomainError(f"cannot write --out {out_path}: {exc.strerror or exc}") from None


def run(argv=None) -> int:
    """Entry point; returns the process exit code."""
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    try:
        # A malformed setting fails every command, not only those that read it.
        precision_cap()
        scan_budget()
        merged = _merge_negative_values(argv)
        parser, commands = _parser()
        if merged and merged[0] in commands:
            args = commands[merged[0]].parse_args(merged[1:])
            args.cmd = merged[0]
        else:
            args = parser.parse_args(merged)
        start = time.perf_counter()
        text, payload, method, code = _HANDLERS[args.cmd](args)
        elapsed = time.perf_counter() - start
        if args.json:
            record = OutputRecord(
                command=tuple(argv),
                inputs=_echo_inputs(args),
                result=payload,
                method=method,
                timing=round(elapsed, 6),
            )
            text = record.to_line()
        _emit(text, args.out)
        return code
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except PrecisionError as exc:
        print(f"precision error: {exc}", file=sys.stderr)
        return 2
    except InvariantError as exc:
        print(f"invariant violated: {exc}", file=sys.stderr)
        return 3
    except ResourceError as exc:
        print(f"resource cap: {exc}", file=sys.stderr)
        return 4
    except QadicError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
