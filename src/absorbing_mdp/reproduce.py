"""Run the frozen claim tables of the built-in instances and report
pass/fail per claim.

A claim passes when its computed value matches the recorded expectation:
string verdicts must match verbatim, exact numeric expectations must match
structurally (no tolerance), and toleranced expectations must agree within
the recorded tolerance including any tracked error bound.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from fractions import Fraction

from .numbers import Number, format_number
from .zoo import ZOO, Claim, ZooEntry

REQUIRED_TAGS = tuple(f"A{i}" for i in range(1, 10))


@dataclass(frozen=True)
class ClaimRow:
    id: str
    statement: str
    expected: str
    computed: str
    passed: bool
    acceptance: str | None = None
    tol: float | None = None


@dataclass(frozen=True)
class ReproduceReport:
    target: str
    rows: tuple[ClaimRow, ...]
    passed: bool
    covered_tags: tuple[str, ...]
    missing_tags: tuple[str, ...]


def _render(v) -> str:
    if isinstance(v, Number):
        return format_number(v)
    if isinstance(v, (int, Fraction)):
        return format_number(Number.lift(v))
    return str(v)


def run_claim(claim: Claim) -> ClaimRow:
    try:
        computed = claim.compute()
    except Exception as exc:
        shown, ok = f"error: {type(exc).__name__}: {exc}", False
    else:
        if isinstance(claim.expected, str):
            ok = computed == claim.expected
        else:
            want = Number.lift(claim.expected)
            if not isinstance(computed, Number):
                ok = False
            elif claim.tol is None:
                ok = computed == want
            else:
                ok = computed.within(want, claim.tol)
        shown = _render(computed)
    return ClaimRow(
        claim.id, claim.statement, _render(claim.expected), shown, bool(ok), claim.acceptance, claim.tol
    )


def run_entry(entry: ZooEntry, ids=None) -> list[ClaimRow]:
    rows = []
    for claim in entry.claims:
        if ids is not None and claim.id not in ids:
            continue
        rows.append(run_claim(claim))
    return rows


def reproduce(target: str = "all") -> ReproduceReport:
    if target == "all":
        names = list(ZOO)
    elif target in ZOO:
        names = [target]
    else:
        raise KeyError(f"unknown target {target!r}; have {sorted(ZOO)} or 'all'")
    rows: list[ClaimRow] = []
    for name in names:
        rows.extend(run_entry(ZOO[name]()))
    covered = sorted({r.acceptance for r in rows if r.acceptance and r.passed})
    missing = tuple(t for t in REQUIRED_TAGS if t not in covered) if target == "all" else ()
    passed = all(r.passed for r in rows) and not missing
    return ReproduceReport(target, tuple(rows), passed, tuple(covered), missing)


def report_to_dict(rep: ReproduceReport) -> dict:
    return {
        "format": "absorbing-mdp/reproduce-report",
        "version": 1,
        "target": rep.target,
        "passed": rep.passed,
        "covered_tags": list(rep.covered_tags),
        "missing_tags": list(rep.missing_tags),
        "rows": [asdict(r) for r in rep.rows],
    }


def format_lines(rep: ReproduceReport) -> str:
    lines = []
    for r in rep.rows:
        mark = "PASS" if r.passed else "FAIL"
        tag = f" [{r.acceptance}]" if r.acceptance else ""
        lines.append(f"{mark} {r.id}{tag}: expected {r.expected}, got {r.computed}")
    lines.append("")
    total = len(rep.rows)
    good = sum(1 for r in rep.rows if r.passed)
    lines.append(f"{good}/{total} claims passed")
    if rep.missing_tags:
        lines.append(f"missing acceptance coverage: {', '.join(rep.missing_tags)}")
    return "\n".join(lines)
