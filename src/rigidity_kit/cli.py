"""Command-line front end.

Subcommands: ``rd`` (one rigidity degree), ``table`` (all labels of one
type), ``verify`` (closed-form vs oracle sweeps), ``rigdim`` (rigidity
dimension of the single-orbit families) and ``hammock`` (hammock and
orbit-quiver export, including DOT).

Exit codes: 0 success, 1 verification failure, 2 invalid input (type spec,
sweep bounds) or an ``--output`` path that cannot be written.
Output is deterministic for identical configurations.  ``verify`` takes
its sweep grid from ``rigidity.sweep_types`` and checks it sequentially,
in one process, through ``rigidity.agreement``.  ``main`` builds its parser
once per process, on its first call, and reuses it; ``build_parser``
returns a fresh one on every call.  Only callers that run ``main`` more
than once in a process gain from that; the ``rigidity-kit`` command runs
it once, so it builds one parser either way.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import re
import sys
from dataclasses import replace
from fractions import Fraction
from functools import lru_cache

from .orthogonal import rigdim_closed, rigdim_verify
from .quiver import (
    SPINE_MINUS,
    SPINE_PLUS,
    _U_PATTERN,
    AlgebraType,
    Vertex,
    hammock_dot,
    hammock_minus,
    hammock_plus,
    orbit_quiver_dot,
)
from .rigidity import RigidityReport, agreement, rd_closed, rd_oracle, sweep_types

__all__ = ["build_parser", "main", "parse_label", "parse_u"]

_INT_PATTERN = re.compile(r"-?[0-9]+")  # a negative label, rank or bound meets its own check


def parse_u(text: str) -> Fraction:
    """Exact rational parameter; floats are rejected on purpose."""
    if not _U_PATTERN.fullmatch(text):
        raise ValueError(f"u must be an exact rational like '17/8', got {text!r}")
    value = Fraction(text)
    if value <= 0:
        raise ValueError(f"u must be positive, got {text!r}")
    return value


def parse_label(text: str):
    if text in (SPINE_PLUS, "p"):
        return SPINE_PLUS
    if text in (SPINE_MINUS, "m"):
        return SPINE_MINUS
    if not _INT_PATTERN.fullmatch(text):
        raise ValueError(f"label must be an integer, 'm+'/'p' or 'm-'/'m', got {text!r}")
    return int(text)


def _parse_int(text: str) -> int:
    if not _INT_PATTERN.fullmatch(text):
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    return int(text)


def make_type(args: argparse.Namespace) -> AlgebraType:
    if args.n is not None:
        if args.u is not None:
            raise ValueError("give either --u or --n, not both")
        return AlgebraType.from_shift(args.delta, args.rank, args.n, args.s)
    if args.u is None:
        raise ValueError("a type spec needs --u or --n")
    return AlgebraType.create(args.delta, args.rank, parse_u(args.u), args.s)


def type_json(atype: AlgebraType) -> dict:
    return {
        "delta": atype.diagram.family,
        "rank": atype.diagram.rank,
        "u": str(atype.u),
        "s": atype.s,
        "n": atype.n,
    }


def report_json(report: RigidityReport) -> dict:
    return {
        "type": type_json(report.atype),
        "vertex": {"x": report.vertex.x, "t": str(report.vertex.t)},
        "rd": report.rd,
        "branch": report.branch,
        "witness": report.witness,
        "domdim_bound": report.domdim_bound,
    }


def _emit(args: argparse.Namespace, text: str) -> None:
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _dump_json(payload) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _add_type_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--delta", required=True, choices=["A", "D", "E"])
    parser.add_argument("--rank", required=True, type=_parse_int)
    parser.add_argument("--u", help="exact rational, e.g. 5 or 17/8")
    parser.add_argument("--n", type=_parse_int, help="raw tau-exponent (expert)")
    parser.add_argument("--s", type=_parse_int, default=1, choices=[1, 2, 3])


def _add_output_args(parser: argparse.ArgumentParser, formats: list[str]) -> None:
    parser.add_argument("--format", default=formats[0], choices=formats)
    parser.add_argument("--output", help="output path (default: stdout)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rigidity-kit",
        description="Rigidity degrees and rigidity dimensions on stable AR-quivers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_rd = sub.add_parser("rd", help="rigidity degree of one vertex")
    _add_type_args(p_rd)
    p_rd.add_argument("--t", required=True, help="Dynkin label (int, m+/p, m-/m)")
    p_rd.add_argument(
        "--oracle",
        action="store_true",
        help="also run the brute-force oracle; disagreement exits 1",
    )
    _add_output_args(p_rd, ["json", "csv", "text"])

    p_table = sub.add_parser("table", help="rd of every label of one type")
    _add_type_args(p_table)
    p_table.add_argument(
        "--no-witness", action="store_true", help="skip the oracle witness column"
    )
    _add_output_args(p_table, ["text", "csv", "json"])

    p_verify = sub.add_parser("verify", help="closed-form vs oracle sweep")
    p_verify.add_argument("--delta", required=True, choices=["A", "D", "E"])
    p_verify.add_argument("--s", type=_parse_int, default=1, choices=[1, 2, 3])
    p_verify.add_argument("--rank", type=_parse_int, help="single rank (required for type E)")
    p_verify.add_argument("--rank-max", type=_parse_int, help="sweep ranks up to this bound")
    p_verify.add_argument("--n-max", type=_parse_int, help="sweep raw shifts 1..n-max (A s=1)")
    p_verify.add_argument("--u-max", type=_parse_int, help="sweep u = 1..u-max")
    p_verify.add_argument(
        "--fractional",
        action="store_true",
        help="type D only: sweep u = v/3 over v = 1..u-max with 3 not dividing v",
    )
    _add_output_args(p_verify, ["text", "json"])

    p_rigdim = sub.add_parser("rigdim", help="closed-form rigidity dimension")
    _add_type_args(p_rigdim)
    p_rigdim.add_argument(
        "--no-verify", action="store_true", help="skip the certification run"
    )
    _add_output_args(p_rigdim, ["text", "json"])

    p_ham = sub.add_parser("hammock", help="export a hammock or the orbit quiver")
    _add_type_args(p_ham)
    p_ham.add_argument("--t", required=True, help="base label")
    p_ham.add_argument("--x", type=_parse_int, default=0, help="base slice coordinate")
    p_ham.add_argument(
        "--direction", default="minus", choices=["minus", "plus"],
        help="hammock into (minus) or out of (plus) the base vertex",
    )
    p_ham.add_argument(
        "--orbit", action="store_true", help="emit the orbit quiver instead"
    )
    _add_output_args(p_ham, ["dot", "json", "text"])
    return parser


def cmd_rd(args: argparse.Namespace) -> int:
    atype = make_type(args)
    t = parse_label(args.t)
    report = rd_closed(atype, t)
    status = 0
    if args.oracle:
        oracle = rd_oracle(atype, Vertex(0, t))
        report = replace(report, witness=oracle.witness)
        if oracle.rd != report.rd:
            sys.stderr.write(
                f"disagreement at {atype.describe()} t={t}: "
                f"closed={report.rd} oracle={oracle.rd}\n"
            )
            status = 1
    if args.format == "json":
        _emit(args, _dump_json(report_json(report)))
    elif args.format == "csv":
        _emit(args, _reports_csv([report]))
    else:
        witness = f" witness={report.witness}" if report.witness is not None else ""
        _emit(
            args,
            f"type {atype.describe()} t={t}: rd={report.rd} "
            f"branch={report.branch}{witness} domdim_bound={report.domdim_bound}\n",
        )
    return status


_CSV_COLUMNS = ["delta", "rank", "u", "s", "n", "x", "t", "rd", "branch", "witness", "domdim_bound"]


def _reports_csv(reports: list[RigidityReport]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(_CSV_COLUMNS)
    for rep in reports:
        record = report_json(rep)  # its type and vertex hold the first columns, in order
        writer.writerow([
            *record["type"].values(), *record["vertex"].values(), rep.rd, rep.branch or "",
            "" if rep.witness is None else rep.witness, rep.domdim_bound,
        ])
    return buf.getvalue()


def cmd_table(args: argparse.Namespace) -> int:
    atype = make_type(args)
    reports = []
    for t in atype.diagram.labels:
        rep = rd_closed(atype, t)
        if not args.no_witness:
            rep = replace(rep, witness=rd_oracle(atype, Vertex(0, t)).witness)
        reports.append(rep)
    if args.format == "json":
        _emit(args, _dump_json([report_json(r) for r in reports]))
    elif args.format == "csv":
        _emit(args, _reports_csv(reports))
    else:
        lines = [f"type {atype.describe()}  (t, rd, branch, witness)"]
        for rep in reports:
            lines.append(
                f"  t={rep.vertex.t:>3}  rd={str(rep.rd):<6} "
                f"branch={rep.branch}  witness={rep.witness}"
            )
        _emit(args, "\n".join(lines) + "\n")
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    types = sweep_types(
        args.delta, args.s, rank=args.rank, rank_max=args.rank_max,
        n_max=args.n_max, u_max=args.u_max, fractional=args.fractional,
    )
    checked, mismatches = agreement(types)
    if args.format == "json":
        payload = {
            "types": len(types),
            "vertices_checked": checked,
            "mismatches": mismatches,
            "ok": not mismatches,
        }
        _emit(args, _dump_json(payload))
    else:
        lines = list(mismatches)
        if mismatches:
            lines.append(f"FAIL: {len(mismatches)} disagreements in {checked} checks")
        else:
            lines.append(f"all agree: {checked} vertices across {len(types)} types")
        _emit(args, "\n".join(lines) + "\n")
    return 1 if mismatches else 0


def cmd_rigdim(args: argparse.Namespace) -> int:
    atype = make_type(args)
    formula = rigdim_closed(atype)
    if formula is None:
        payload = {"type": type_json(atype), "family": None}
        if args.format == "json":
            _emit(args, _dump_json(payload))
        else:
            _emit(args, f"type {atype.describe()}: no single-orbit closed form\n")
        return 0
    status = 0
    record = None
    if not args.no_verify:
        record = rigdim_verify(atype)
        if not record.passed:
            status = 1
    if args.format == "json":
        payload = {
            "type": type_json(atype),
            "family": formula.family,
            "a": formula.a,
            "r": formula.r,
            "rigdim": formula.rigdim,
        }
        if record is not None:
            payload["verified"] = record.passed
            payload["failures"] = record.failures()
        _emit(args, _dump_json(payload))
    else:
        text = (
            f"type {atype.describe()}: family {formula.family}, "
            f"r={formula.r}, rigdim={formula.rigdim}"
        )
        if record is not None:
            text += " [verified]" if record.passed else (
                " [FAILED: " + "; ".join(record.failures()) + "]"
            )
        _emit(args, text + "\n")
    return status


def cmd_hammock(args: argparse.Namespace) -> int:
    atype = make_type(args)
    t = parse_label(args.t)
    atype.diagram.check_label(t)
    base = Vertex(args.x, t)
    if args.orbit:
        if args.format != "dot":
            raise ValueError("--orbit supports --format dot only")
        _emit(args, orbit_quiver_dot(atype, highlight=base))
        return 0
    build = hammock_minus if args.direction == "minus" else hammock_plus
    hammock = build(atype.diagram, base)
    if args.format == "dot":
        _emit(args, hammock_dot(atype.diagram, base, hammock))
    elif args.format == "json":
        payload = {
            "type": type_json(atype),
            "base": {"x": base.x, "t": str(base.t)},
            "direction": args.direction,
            "members": [
                {"x": v.x, "t": str(v.t)} for v in sorted(hammock, key=Vertex.sort_key)
            ],
        }
        _emit(args, _dump_json(payload))
    else:
        members = " ".join(str(v) for v in sorted(hammock, key=Vertex.sort_key))
        _emit(args, f"H{'-' if args.direction == 'minus' else '+'}{base}: {members}\n")
    return 0


@lru_cache(maxsize=1)
def _parser() -> argparse.ArgumentParser:
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    handlers = {
        "rd": cmd_rd,
        "table": cmd_table,
        "verify": cmd_verify,
        "rigdim": cmd_rigdim,
        "hammock": cmd_hammock,
    }
    try:
        return handlers[args.command](args)
    except (ValueError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
