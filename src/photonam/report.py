"""Structured verification reports and deterministic renderers.

A report is byte-stable for a fixed config: records are sorted by check
id and floats are rendered with fixed formats.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace

from .errors import UnknownFormat

KIND_EQUALITY = "eq"
KIND_VIOLATION = "violation"


@dataclass(frozen=True)
class CheckRecord:
    """One named check with its residual and verdict.

    Equality checks pass when residual <= tolerance; violation checks pass
    when residual >= tolerance (the claim is that the algebra fails by at
    least that much).  A NaN or infinite residual fails either kind.
    """

    check_id: str
    anchor: str
    residual: float
    tolerance: float
    kind: str = KIND_EQUALITY

    @property
    def passed(self) -> bool:
        if not math.isfinite(self.residual):
            return False
        if self.kind == KIND_VIOLATION:
            return self.residual >= self.tolerance
        return self.residual <= self.tolerance


@dataclass
class VerificationReport:
    """Named suite outcome: sorted check records plus free-form notes."""

    suite: str
    config: dict
    checks: list[CheckRecord] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    def add(self, check_id: str, anchor: str, residual: float, tolerance: float,
            kind: str = KIND_EQUALITY) -> CheckRecord:
        rec = CheckRecord(check_id, anchor, float(residual), float(tolerance), kind)
        self.checks.append(rec)
        return rec

    def note(self, text: str) -> None:
        self.notes.append(text)

    def finalize(self) -> "VerificationReport":
        self.checks.sort(key=lambda r: r.check_id)
        return self

    @property
    def all_passed(self) -> bool:
        return all(r.passed for r in self.checks)

    @property
    def counts(self) -> tuple[int, int, int]:
        passed = sum(1 for r in self.checks if r.passed)
        return len(self.checks), passed, len(self.checks) - passed


def _fmt(x: float) -> str:
    return f"{x:.6e}"


def render_report(report: VerificationReport, fmt: str) -> bytes:
    """Render to `text`, `json`, or `csv`; raises UnknownFormat otherwise."""
    report.finalize()
    if fmt == "text":
        return _render_text(report)
    if fmt == "json":
        return _render_json(report)
    if fmt == "csv":
        return _render_csv(report)
    raise UnknownFormat(f"unsupported report format {fmt!r}")


def _render_text(report: VerificationReport) -> bytes:
    total, passed, failed = report.counts
    lines = [f"suite: {report.suite}"]
    for key in sorted(report.config):
        lines.append(f"config {key} = {report.config[key]}")
    lines.append("")
    for rec in report.checks:
        verdict = "PASS" if rec.passed else "FAIL"
        rel = "<=" if rec.kind == KIND_EQUALITY else ">="
        lines.append(
            f"{verdict} {rec.check_id:<44} [{rec.anchor}] "
            f"residual={_fmt(rec.residual)} {rel} {_fmt(rec.tolerance)}"
        )
    if report.notes:
        lines.append("")
        for note in report.notes:
            lines.append(f"note: {note}")
    lines.append("")
    lines.append(f"passed {passed}/{total}" + (f" ({failed} failed)" if failed else ""))
    return ("\n".join(lines) + "\n").encode()


def _render_json(report: VerificationReport) -> bytes:
    total, passed, failed = report.counts
    payload = {
        "suite": report.suite,
        "config": {k: str(v) for k, v in report.config.items()},
        "summary": {"total": total, "passed": passed, "failed": failed},
        "notes": list(report.notes),
        "checks": [
            {
                "id": rec.check_id,
                "anchor": rec.anchor,
                "kind": rec.kind,
                "residual": rec.residual,
                "tolerance": rec.tolerance,
                "pass": rec.passed,
            }
            for rec in report.checks
        ],
    }
    return (json.dumps(payload, indent=2, sort_keys=True) + "\n").encode()


def _render_csv(report: VerificationReport) -> bytes:
    lines = ["check_id,anchor,residual,tolerance,pass"]
    for rec in report.checks:
        lines.append(
            f"{rec.check_id},{rec.anchor},{_fmt(rec.residual)},"
            f"{_fmt(rec.tolerance)},{'true' if rec.passed else 'false'}"
        )
    return ("\n".join(lines) + "\n").encode()


def merge_reports(name: str, config: dict, parts: list[VerificationReport]) -> VerificationReport:
    merged = VerificationReport(suite=name, config=config)
    for part in parts:
        for rec in part.checks:
            merged.checks.append(replace(rec, check_id=f"{part.suite}/{rec.check_id}"))
        for note in part.notes:
            merged.notes.append(f"{part.suite}: {note}")
    return merged.finalize()
