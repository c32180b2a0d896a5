"""Command-line interface over JSON documents.

One command per invocation: charpoly, detect, decide, monodromy,
campaign, or selftest.  Input is a UTF-8 JSON document (a pencil, or a
campaign plan); output is a report document on standard output or
--output.  Exact numbers travel as strings like "3/7" in both
directions; floating-point values appear only in monodromy payloads,
rounded to 15 significant digits.  Reports carry full coefficient
lists so every claimed factorization can be re-multiplied and checked
against the input curve without rerunning the tool.

Exit codes: 0 success, 1 selftest failure, 2 parse or validation
error, 3 unsupported precondition (repeated diagonals where the
lifting decision is required, or a curve with a repeated factor handed
to monodromy), 4 numeric tracking failure.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from fractions import Fraction

from . import __version__
from .errors import (
    JacobiSpecError,
    NotSquarefreeError,
    TrackingError,
    UnsupportedPencilError,
)
from .exactpoly import BiPoly, UniPoly, parse_rational
from .experiments import Campaign, CampaignReport, run_campaign
from .hensel import decide
from .mechanisms import MechanismReport, apply_all
from .monodromy import MonodromyReport, monodromy_group, orbit_factor_degrees
from .pencil import JacobiPencil, curve_t, curve_w, pencil

EXIT_OK = 0
EXIT_SELFTEST = 1
EXIT_VALIDATION = 2
EXIT_UNSUPPORTED = 3
EXIT_TRACKING = 4


class DocumentError(ValueError):
    """Malformed or inconsistent input document."""


def _round15(x: float) -> float:
    return float(f"{x:.15g}")


def _jsonable(obj):
    if isinstance(obj, BiPoly):
        return obj.to_lists()
    if isinstance(obj, UniPoly):
        return list(obj.to_strings())
    if isinstance(obj, Fraction):
        return str(obj)
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    return obj


def _require(doc: dict, key: str, kind: type, where: str):
    if key not in doc:
        raise DocumentError(f"{where}: missing field {key!r}")
    value = doc[key]
    # JSON true/false load as bool, which Python counts as an int
    if not isinstance(value, kind) or (kind is int and isinstance(value, bool)):
        raise DocumentError(f"{where}: field {key!r} must be {kind.__name__}")
    return value


def load_pencil(doc: dict) -> JacobiPencil:
    """Build a pencil from {n, a, b, label?} with rational strings."""
    if not isinstance(doc, dict):
        raise DocumentError("pencil document must be a JSON object")
    n = _require(doc, "n", int, "pencil")
    a = _require(doc, "a", list, "pencil")
    b = _require(doc, "b", list, "pencil")
    if n < 1:
        raise DocumentError("pencil: n must be at least 1")
    if len(a) != n:
        raise DocumentError(f"pencil: a has {len(a)} entries, expected n = {n}")
    if len(b) != n - 1:
        raise DocumentError(
            f"pencil: b has {len(b)} entries, expected n - 1 = {n - 1}"
        )
    try:
        av = [parse_rational(str(v)) for v in a]
        bv = [parse_rational(str(v)) for v in b]
    except ValueError as exc:
        raise DocumentError(f"pencil: {exc}") from exc
    return pencil(av, bv)


def load_campaign(doc: dict, seed_override: int | None) -> Campaign:
    if not isinstance(doc, dict):
        raise DocumentError("campaign document must be a JSON object")
    name = _require(doc, "name", str, "campaign")
    n = _require(doc, "n", int, "campaign")
    sampler = _require(doc, "sampler", str, "campaign")
    bound = _require(doc, "parameter_range", int, "campaign")
    count = _require(doc, "sample_count", int, "campaign")
    seed = _require(doc, "seed", int, "campaign") if "seed" in doc else 0
    if seed_override is not None:
        seed = seed_override
    try:
        return Campaign(name, n, sampler, bound, count, seed)
    except ValueError as exc:
        raise DocumentError(f"campaign: {exc}") from exc


def _certificate_payload(report: MechanismReport) -> dict:
    return {
        "reducible": report.reducible,
        "leaf_degrees": report.leaf_degrees,
        "certificates": [
            {
                "kind": c.kind,
                "block": list(c.block),
                "target": c.target.to_lists(),
                "factors": [f.to_lists() for f in c.factors],
                "data": _jsonable(c.data),
                "verified": c.verified,
            }
            for c in report.certificates
        ],
        "residual_factors": [f.to_lists() for f in report.residual_factors],
    }


def _monodromy_payload(report: MonodromyReport) -> dict:
    step = report.certified_step
    return {
        "base_point": {"re": _round15(report.base_point.re), "im": 0.0},
        "branch_points": [
            {"re": _round15(b.re), "im": _round15(b.im)}
            for b in report.branch_points
        ],
        "permutations": [list(g) for g in report.permutations],
        "group_order": report.group_order,
        "orbits": [list(o) for o in report.orbits],
        "orbit_degrees": orbit_factor_degrees(report),
        "certified_step": None if step == float("inf") else _round15(step),
        "consistent": report.consistent,
    }


def _campaign_payload(report: CampaignReport) -> dict:
    return {
        "campaign": vars(report.campaign).copy(),
        "counts": dict(sorted(report.counts.items())),
        "witnesses": _jsonable(report.witnesses),
        "runtime_seconds": _round15(report.runtime),
    }


def cmd_charpoly(p: JacobiPencil, form: str) -> dict:
    curve = curve_t(p) if form == "t" else curve_w(p)
    return {"form": form, "n": p.n, "curve": curve.to_lists()}


def cmd_detect(p: JacobiPencil) -> dict:
    return _certificate_payload(apply_all(p))


def cmd_decide(p: JacobiPencil) -> dict:
    decision = decide(p)
    return {
        "status": decision.status,
        "factor_degrees": decision.factor_degrees,
        "factors_t": [f.to_lists() for f in decision.factors_t],
        "factors_w": [f.to_lists() for f in decision.factors_w],
        "witnesses": [list(s.indices) for s in decision.witnesses],
    }


def cmd_monodromy(p: JacobiPencil) -> dict:
    return _monodromy_payload(monodromy_group(p))


def _render_human(command: str, payload: dict) -> str:
    lines = [f"{command}:"]

    def has_dict(obj) -> bool:
        if isinstance(obj, dict):
            return True
        if isinstance(obj, list):
            return any(has_dict(v) for v in obj)
        return False

    def walk(obj, indent):
        pad = "  " * indent
        if isinstance(obj, dict):
            for k, v in obj.items():
                if not has_dict(v):
                    lines.append(f"{pad}{k}: {json.dumps(v, ensure_ascii=False)}")
                else:
                    lines.append(f"{pad}{k}:")
                    walk(v, indent + 1)
        elif isinstance(obj, list):
            for v in obj:
                if not has_dict(v):
                    lines.append(f"{pad}- {json.dumps(v, ensure_ascii=False)}")
                else:
                    walk(v, indent + 1)

    walk(payload, 1)
    return "\n".join(lines) + "\n"


def _read_input(path: str | None) -> dict:
    try:
        if path is None or path == "-":
            text = sys.stdin.read()
        else:
            with open(path, encoding="utf-8") as fh:
                text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise DocumentError(f"cannot read input: {exc}") from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise DocumentError(
            f"input is not valid JSON: line {exc.lineno}, column {exc.colno}: "
            f"{exc.msg}"
        ) from exc


def _write_output(path: str | None, text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="jacobispec",
        description="exact reducibility analysis of tridiagonal spectral curves",
    )
    parser.add_argument("--input", help="input JSON document (default stdin)")
    parser.add_argument("--output", help="output file (default stdout)")
    parser.add_argument("--seed", type=int, help="override a campaign seed")
    parser.add_argument(
        "--form", choices=("t", "w"), default="t", help="curve variable for charpoly"
    )
    parser.add_argument("--csv", help="also write campaign samples as CSV")
    parser.add_argument(
        "--human", action="store_true", help="render a text summary instead of JSON"
    )
    parser.add_argument(
        "command",
        choices=("charpoly", "detect", "decide", "monodromy", "campaign", "selftest"),
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    started = time.perf_counter()
    try:
        if args.command == "selftest":
            from .acceptance import run_all

            results = run_all(quick=True)
            payload = {
                "results": [
                    {"criterion": name, "passed": ok, "detail": detail}
                    for name, ok, detail in results
                ],
                "passed": all(ok for _, ok, _ in results),
            }
            doc = _report_document("selftest", {}, payload, started)
            _emit(args, doc, payload)
            return EXIT_OK if payload["passed"] else EXIT_SELFTEST

        raw = _read_input(args.input)
        if args.command == "campaign":
            campaign = load_campaign(raw, args.seed)
            report = run_campaign(campaign)
            if args.csv:
                _write_output(args.csv, report.csv_text())
            payload = _campaign_payload(report)
        else:
            p = load_pencil(raw)
            if args.command == "charpoly":
                payload = cmd_charpoly(p, args.form)
            elif args.command == "detect":
                payload = cmd_detect(p)
            elif args.command == "decide":
                payload = cmd_decide(p)
            else:
                payload = cmd_monodromy(p)
        doc = _report_document(args.command, raw, payload, started)
        _emit(args, doc, payload)
        return EXIT_OK
    except DocumentError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (UnsupportedPencilError, NotSquarefreeError) as exc:
        print(f"unsupported: {exc}", file=sys.stderr)
        return EXIT_UNSUPPORTED
    except TrackingError as exc:
        print(f"tracking failure: {exc}", file=sys.stderr)
        return EXIT_TRACKING
    except JacobiSpecError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


def _report_document(
    command: str, raw: dict, payload: dict, started: float
) -> dict:
    return {
        "tool": "jacobispec",
        "version": __version__,
        "command": command,
        "input": raw,
        "result": payload,
        "timing_seconds": _round15(time.perf_counter() - started),
    }


def _emit(args, doc: dict, payload: dict) -> None:
    if args.human:
        _write_output(args.output, _render_human(args.command, payload))
    else:
        _write_output(args.output, json.dumps(doc, indent=2, ensure_ascii=False) + "\n")


if __name__ == "__main__":
    sys.exit(main())
