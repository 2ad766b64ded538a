"""The exact bytes of every `amdp` report shape, pinned by a golden file.

Each case is an argv for `cli.main`; `tests/golden/cli_reports.json` maps
the argv, joined by spaces, to the text the command writes on stdout.
Regenerate it (only when a report is meant to change) with

    PYTHONPATH=src python tests/test_cli_reports.py
"""

import contextlib
import io
import json
import os
import sys

import pytest

from absorbing_mdp.cli import main

GOLDEN = os.path.join(os.path.dirname(__file__), "golden", "cli_reports.json")

REPORTS = (
    ("occupation", "--zoo", "example2", "--strategy", "always_branch", "--trunc-states", "80"),
    ("occupation", "--zoo", "example1", "--strategy", "spread_first:4", "--solver", "unroll",
     "--horizon", "2"),
    ("absorption", "--zoo", "example2", "--family", "climb_then_linger", "--n-max", "8",
     "--trunc-states", "80"),
    ("convergence", "--zoo", "example1", "--family", "spread_first", "--limit", "point_first",
     "--battery", "w-poly", "--horizon", "2", "--tol", "0.1"),
    ("convergence", "--zoo", "example1", "--family", "spread_first", "--limit", "point_first",
     "--battery", "w-poly", "--horizon", "2", "--tol", "1e-9"),
)

FORMATS = (("--format", "md"), ("--format", "csv"), ("--format", "json", "--no-timestamp"))


def cases():
    out = [("list",)]
    for fmt in FORMATS:
        out.append(("reproduce", "--target", "remark2") + fmt)
    for report in REPORTS:
        for fmt in FORMATS:
            out.append(report + fmt)
            out.append(report + fmt + ("--float",))
    return out


def render(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = main(list(argv))
    return rc, buf.getvalue()


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN) as fh:
        return json.load(fh)


def test_golden_covers_every_case(golden):
    assert sorted(golden) == sorted(" ".join(argv) for argv in cases())


@pytest.mark.parametrize("argv", cases(), ids=" ".join)
def test_report_bytes_match_golden(golden, argv):
    rc, text = render(argv)
    assert rc == 0
    assert text == golden[" ".join(argv)]


if __name__ == "__main__":
    doc = {}
    for argv in cases():
        rc, text = render(argv)
        if rc != 0:
            sys.exit(f"{' '.join(argv)} exited {rc}")
        doc[" ".join(argv)] = text
    with open(GOLDEN, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
