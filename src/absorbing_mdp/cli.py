"""Command-line interface.

Subcommands:

* ``list`` - show the built-in instances, their strategies, families and
  batteries;
* ``occupation`` - compute an occupation measure and its certified tail;
* ``absorption`` - tail-sum table and uniformity verdict over a family;
* ``convergence`` - battery-relative convergence of a family's occupation
  measures against a named limit strategy;
* ``reproduce`` - run frozen claim tables and report pass/fail per claim.

Exit codes: 0 on success (including honest "diverges" verdicts), 1 when an
analysis ran and failed (failed claims, solver refusals, model diagnostics),
2 on bad input (unknown names, unparsable values, missing files).
"""

from __future__ import annotations

import argparse
import csv
import io
import math
import sys
from datetime import datetime, timezone
from fractions import Fraction
from functools import partial

from .numbers import DigitLimitError, Number, format_number, parse_number
from .measure import CoverageError, IntegrationError, MeasureError
from .mdp import ModelError, validate_model, validate_strategy
from .occupation import (
    SolverError,
    Truncation,
    expected_hitting_time,
    occupation_countable,
    occupation_unroll,
)
from .absorption import uniformity_report
from .topology import BatteryError, check_convergence
from .serialize import (
    FormatError,
    absorption_report_to_dict,
    convergence_report_to_dict,
    dumps,
    enc_number,
    load_json,
    measure_to_dict,
    model_from_dict,
)
from .spaces import StatePoint


class CliInputError(Exception):
    pass


def _fmt_num(n: Number, as_float: bool) -> str:
    if n.is_exact:
        return repr(float(n.value)) if as_float else format_number(n)
    if float(n.err) == 0.0:
        return repr(float(n.value))
    return f"{float(n.value)!r} (err<={float(n.err):.3g})"


def _parse_x0(space, text: str) -> StatePoint:
    if ":" in text:
        label, _, coord = text.partition(":")
        try:
            c = parse_number(coord)
        except (ValueError, ZeroDivisionError) as exc:
            raise CliInputError(f"bad coordinate {coord!r}") from exc
        value = c.value if c.is_exact else Fraction(float(c.value))
        try:
            return space.segment_point(label, value)
        except (KeyError, ValueError) as exc:
            raise CliInputError(str(exc)) from exc
    try:
        return space.point(text)
    except KeyError as exc:
        raise CliInputError(str(exc)) from exc


def _x0(args, model, default: StatePoint | None) -> StatePoint:
    """The initial state: `--x0` if given, else the instance's default."""
    if args.x0:
        return _parse_x0(model.states, args.x0)
    if default is None:
        raise CliInputError("this model has no default initial state; pass --x0")
    return default


def _lookup(table: dict, kind: str, name: str):
    if name not in table:
        have = ", ".join(sorted(table)) or "none"
        raise CliInputError(f"unknown {kind} {name!r}; have {have}")
    return table[name]


def _load_model(args):
    """(model, strategies, batteries, families, default_x0, source name)."""
    if args.zoo:
        from .zoo import ZOO

        entry = _lookup(ZOO, "instance", args.zoo)()
        strategies = dict(entry.strategies)
        for fam in entry.families.values():
            for name, s in fam.explored():
                strategies.setdefault(name, s)
        return entry.model, strategies, entry.batteries, entry.families, entry.x0, entry.name
    if args.model:
        try:
            raw = load_json(args.model)
        except (OSError, ValueError) as exc:  # ValueError: the file is not JSON
            raise CliInputError(f"cannot read {args.model!r}: {exc}") from exc
        doc = model_from_dict(raw)
        return doc.model, doc.strategies, {}, {}, None, args.model
    raise CliInputError("pick an instance with --zoo or a file with --model")


def _resolve_strategy(strategies, families, name: str):
    if name not in strategies and ":" in name:
        label, _, idx = name.rpartition(":")
        fam = families.get(label)
        if fam is not None and fam.generator is not None and idx.lstrip("-").isdigit():
            k = int(idx)
            if fam.index_lo is not None and k < fam.index_lo:
                raise CliInputError(
                    f"strategy {name!r}: family {label!r} starts at index {fam.index_lo}"
                )
            if fam.index_hi is not None and k > fam.index_hi:
                raise CliInputError(
                    f"strategy {name!r}: family {label!r} ends at index {fam.index_hi}"
                )
            return fam.generator(k)
    return _lookup(strategies, "strategy", name)


def _checked(model, name: str, strategy):
    """`strategy`, refused as bad input, one line per diagnostic, when
    `validate_strategy` finds fault with it."""
    diags = validate_strategy(model, strategy)
    if diags:
        raise CliInputError("\n".join(f"strategy {name!r}: {d}" for d in diags))
    return strategy


def _arg_type(parse, ok, need: str):
    """argparse type: `parse(text)` when it parses and `ok` accepts it,
    else refused as 'need <need>, got <text>'."""

    def convert(text: str):
        try:
            value = parse(text)
        except (ValueError, ZeroDivisionError):
            value = None
        if value is None or not ok(value):
            raise argparse.ArgumentTypeError(f"need {need}, got {text!r}")
        return value

    return convert


# --eps: 'p/q', an integer or a finite decimal, as a Fraction
_positive_number = _arg_type(
    lambda t: Fraction(parse_number(t).value), lambda v: v > 0, "a finite positive number"
)
_positive_float = _arg_type(float, lambda v: math.isfinite(v) and v > 0, "a finite positive number")
_nonnegative_int = _arg_type(int, lambda v: v >= 0, "a nonnegative integer")


def _trunc(args) -> Truncation:
    return Truncation(states=args.trunc_states, stages=args.trunc_stages)


def _render(args, doc=None, rows=(), title=None, lines=(), summary=()) -> None:
    """Write one report in the shape `--format` asks for, to stdout or `-o`.

    * md: `# title`, a blank line, `rows` (header first) as a table, a blank
      line, then `lines`; a report without a title is `lines` alone;
    * csv: `rows`, then the `summary` rows (key, value);
    * json: the document that `doc()` builds, stamped with the time unless
      `--no-timestamp`; `doc` is called for json reports only.

    The whole text is built before the output file is opened, so a report
    that fails to render writes nothing.
    """
    if args.format == "json":
        report = doc()
        if not args.no_timestamp:
            report["generated_at"] = datetime.now(timezone.utc).isoformat()
        text = dumps(report)
    elif args.format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerows(rows)
        writer.writerows(summary)
        text = buf.getvalue()
    else:
        if title is not None:
            table = ["| " + " | ".join(row) + " |" for row in rows]
            table.insert(1, "|" + " --- |" * len(rows[0]))
            lines = [f"# {title}", "", *table, "", *lines]
        text = "\n".join(lines) + "\n"
    if not args.out:
        sys.stdout.write(text)
        return
    try:
        with open(args.out, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise CliInputError(f"cannot write {args.out!r}: {exc}") from exc


# -- list ------------------------------------------------------------------


def cmd_list(args) -> int:
    from .zoo import ZOO

    lines = []
    for name in sorted(ZOO):
        entry = ZOO[name]()
        lines.append(f"{name}: {entry.title}")
        lines.append(f"  strategies: {', '.join(sorted(entry.strategies))}")
        fams = []
        for label, fam in sorted(entry.families.items()):
            span = ""
            if fam.index_lo is not None:
                span = f"[{fam.index_lo}..{fam.index_hi}]"
            fams.append(label + span)
        lines.append(f"  families: {', '.join(fams) or 'none'}")
        bats = [f"{n} ({b.mode})" for n, b in sorted(entry.batteries.items())]
        lines.append(f"  batteries: {', '.join(bats)}")
        lines.append(f"  claims: {len(entry.claims)}")
        if entry.notes:
            lines.append(f"  notes: {entry.notes}")
    _render(args, lines=lines)
    return 0


# -- occupation ------------------------------------------------------------


def _state_label(part) -> str:
    """A component's state part (an atom or a density), or a StatePoint."""
    if hasattr(part, "breaks"):
        return f"{part.segment}[{part.breaks[0]}..{part.breaks[-1]}]"
    p = getattr(part, "point", part)
    if p.atom is not None:
        return p.atom
    return f"{p.segment}:{p.coord}"


def _action_label(part) -> str:
    if part is None:
        return "-"
    if hasattr(part, "action"):
        return str(part.action)
    if hasattr(part, "parts"):
        return "mixture(" + ", ".join(_action_label(p) for _, p in part.parts) + ")"
    return f"density[{part.breaks[0]}..{part.breaks[-1]}]"


def cmd_occupation(args) -> int:
    model, strategies, _, families, default_x0, source = _load_model(args)
    diags = validate_model(model)
    if diags:
        print("model diagnostics:", file=sys.stderr)
        for d in diags:
            print(f"  {d}", file=sys.stderr)
        return 1
    strategy = _checked(model, args.strategy, _resolve_strategy(strategies, families, args.strategy))
    x0 = _x0(args, model, default_x0)

    solver = args.solver
    if solver == "unroll" or (solver == "auto" and args.horizon is not None):
        if args.horizon is None:
            raise CliInputError("the unroll solver needs --horizon")
        occ = occupation_unroll(model, strategy, x0, args.horizon)
    elif solver == "countable":
        occ = occupation_countable(model, strategy, x0, _trunc(args))
    else:  # auto without a horizon
        try:
            occ = occupation_countable(model, strategy, x0, _trunc(args))
        except SolverError as exc:
            raise CliInputError(
                f"the countable solver refused this instance ({exc}); rerun "
                "with --solver unroll --horizon N or a larger --trunc-states"
            )

    total = occ.measure.total_mass()
    mean = expected_hitting_time(occ)
    num = partial(_fmt_num, as_float=args.float)
    rows = [["state", "action", "weight", "mass"]] + [
        [_state_label(c.state), _action_label(c.action), num(c.weight), num(c.mass())]
        for c in occ.measure.components
    ]
    total_s, tail_s, mean_s = num(total), num(occ.tail_bound), num(mean)
    _render(
        args,
        doc=lambda: {
            "source": source,
            "strategy": args.strategy,
            "x0": _state_label(x0),
            "method": occ.method,
            "total_mass": enc_number(total),
            "tail_bound": enc_number(occ.tail_bound),
            "expected_hitting_time": enc_number(mean),
            "measure": measure_to_dict(occ.measure),
        },
        rows=rows,
        title=f"occupation measure ({source}, strategy {args.strategy})",
        lines=[
            f"total mass: {total_s}",
            f"certified tail bound: {tail_s}",
            f"expected hitting time: {mean_s}",
            f"solver: {occ.method}",
        ],
        summary=[
            ["total_mass", total_s],
            ["tail_bound", tail_s],
            ["expected_hitting_time", mean_s],
        ],
    )
    return 0


# -- absorption ------------------------------------------------------------


def cmd_absorption(args) -> int:
    model, strategies, _, families, default_x0, source = _load_model(args)
    family = _lookup(families, "family", args.family)
    x0 = _x0(args, model, default_x0)
    rep = uniformity_report(
        model,
        family,
        x0,
        n_max=args.n_max,
        eps=args.eps,
        trunc=_trunc(args),
    )
    num = partial(_fmt_num, as_float=args.float)
    rows = [["strategy", "mean time"] + [f"n={n}" for n in range(rep.n_max + 1)]]
    for name, total, tails in zip(rep.strategy_names, rep.expected_times, rep.rows):
        rows.append([name, num(total), *map(num, tails)])
    rows.append(["sup", "", *map(num, rep.sup_row)])
    lines = [f"verdict: {rep.verdict}", f"note: {rep.note}"]
    if rep.witness is not None:
        name, n, v = rep.witness
        lines.append(f"witness: tail {num(v)} at stage {n} under {name}")
    _render(
        args,
        doc=lambda: {**absorption_report_to_dict(rep), "source": source},
        rows=rows,
        title=f"absorption tails ({source}, family {args.family})",
        lines=lines,
        summary=[["verdict", rep.verdict]],
    )
    return 0


# -- convergence -----------------------------------------------------------


def cmd_convergence(args) -> int:
    model, strategies, batteries, families, default_x0, source = _load_model(args)
    if not batteries:
        raise CliInputError("convergence checks need a built-in instance (--zoo)")
    battery = _lookup(batteries, "battery", args.battery)
    family = _lookup(families, "family", args.family)
    limit_strategy = _checked(model, args.limit, _resolve_strategy(strategies, families, args.limit))
    members = [_checked(model, name, s) for name, s in family.explored()]
    x0 = _x0(args, model, default_x0)

    def occupy(strategy):
        if args.horizon is not None:
            return occupation_unroll(model, strategy, x0, args.horizon).measure
        try:
            return occupation_countable(model, strategy, x0, _trunc(args)).measure
        except SolverError:
            raise CliInputError(
                "the countable solver refused this instance; rerun with --horizon N"
            )

    seq = [occupy(s) for s in members]
    rep = check_convergence(seq, occupy(limit_strategy), battery, tol=args.tol)
    num = partial(_fmt_num, as_float=args.float)
    rows = [["function", "limit value", "final gap", "converged", "persistent"]] + [
        [t.name, num(t.limit_value), num(t.gaps[-1]), str(t.converged), str(t.persistent)]
        for t in rep.traces
    ]
    lines = [f"verdict: {rep.verdict}" + (f" (witness: {rep.witness})" if rep.witness else "")]
    if rep.note:
        lines.append(f"note: {rep.note}")
    lines.append(f"caveat: {rep.caveat}")
    _render(
        args,
        doc=lambda: {
            **convergence_report_to_dict(rep),
            "source": source,
            "family": args.family,
            "limit": args.limit,
        },
        rows=rows,
        title=f"convergence ({source}, family {args.family} -> {args.limit}, "
        f"battery {args.battery}, mode {rep.mode})",
        lines=lines,
        summary=[["verdict", rep.verdict]],
    )
    return 0


# -- reproduce -------------------------------------------------------------


def cmd_reproduce(args) -> int:
    from .reproduce import format_lines, report_to_dict, reproduce

    try:
        rep = reproduce(args.target)
    except KeyError as exc:
        raise CliInputError(str(exc))
    rows = [["id", "acceptance", "passed", "expected", "computed"]] + [
        [r.id, r.acceptance or "", str(r.passed), r.expected, r.computed] for r in rep.rows
    ]
    _render(args, doc=lambda: report_to_dict(rep), rows=rows, lines=[format_lines(rep)])
    return 0 if rep.passed else 1


# -- entry point -----------------------------------------------------------


def _add_common(p: argparse.ArgumentParser):
    p.add_argument("--zoo", help="built-in instance name")
    p.add_argument("--model", help="model JSON file")
    p.add_argument("--x0", help="initial state: an atom name, or segment:coord")
    p.add_argument("--trunc-states", type=_nonnegative_int, default=Truncation().states)
    p.add_argument("--trunc-stages", type=_nonnegative_int, default=Truncation().stages)
    p.add_argument(
        "--float",
        action="store_true",
        help="render numbers as floats in md and csv reports; json reports keep exact values as p/q",
    )
    _add_output(p)


def _add_output(p: argparse.ArgumentParser):
    p.add_argument("--format", choices=("json", "csv", "md"), default="md")
    p.add_argument("--no-timestamp", action="store_true", help="omit the generated-at stamp")
    p.add_argument("-o", "--out", help="write the report to a file instead of stdout")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="amdp",
        description="occupation measures and absorption diagnostics for absorbing "
        "Markov decision processes",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("list", help="list built-in instances")
    p.add_argument("-o", "--out", help="write the list to a file instead of stdout")
    # the list has one shape, plain text: an md report without a title
    p.set_defaults(func=cmd_list, format="md")

    p = sub.add_parser("occupation", help="compute an occupation measure")
    _add_common(p)
    p.add_argument("--strategy", required=True)
    p.add_argument("--solver", choices=("auto", "countable", "unroll"), default="auto")
    p.add_argument("--horizon", type=_nonnegative_int)
    p.set_defaults(func=cmd_occupation)

    p = sub.add_parser("absorption", help="tail-sum table over a strategy family")
    _add_common(p)
    p.add_argument("--family", required=True)
    p.add_argument("--n-max", type=_nonnegative_int, default=20)
    p.add_argument("--eps", type=_positive_number, default="1/1000000")
    p.set_defaults(func=cmd_absorption)

    p = sub.add_parser("convergence", help="battery-relative convergence check")
    _add_common(p)
    p.add_argument("--family", required=True)
    p.add_argument("--limit", required=True, help="strategy whose occupation is the limit")
    p.add_argument("--battery", required=True)
    p.add_argument("--tol", type=_positive_float, default=1e-9)
    p.add_argument("--horizon", type=_nonnegative_int)
    p.set_defaults(func=cmd_convergence)

    p = sub.add_parser("reproduce", help="run the frozen claim tables")
    p.add_argument("--target", default="all")
    _add_output(p)
    p.set_defaults(func=cmd_reproduce)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CliInputError as exc:
        for line in str(exc).splitlines():
            print(f"error: {line}", file=sys.stderr)
        return 2
    except CoverageError as exc:
        # a KeyError subclass, but a failed analysis rather than bad input
        print(f"error: {exc.args[0] if exc.args else exc}", file=sys.stderr)
        return 1
    except (FormatError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (
        SolverError, ModelError, MeasureError, BatteryError, IntegrationError, DigitLimitError
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ZeroDivisionError as exc:
        print(f"error: division by zero in the analysis ({exc})", file=sys.stderr)
        return 1
    except OverflowError as exc:
        print(f"error: overflow in the analysis ({exc})", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
