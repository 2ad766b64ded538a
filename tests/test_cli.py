"""End-to-end command-line checks, run in process through cli.main (and once
through `python -m absorbing_mdp` in a child process)."""

import dataclasses
import json
import re
import subprocess

import pytest

from fractions import Fraction

from absorbing_mdp import (
    ActionAtom,
    AtomDecl,
    FiniteActions,
    IntervalActions,
    MdpModel,
    Number,
    StageKernel,
    StateSpace,
    StrategyRule,
    TransitionKernel,
    deterministic_stationary,
    format_number,
    markov_sequence,
)
from absorbing_mdp.cli import main
from absorbing_mdp.numbers import DigitLimitError
from absorbing_mdp.serialize import model_to_dict, save_json
from absorbing_mdp.zoo import ZOO

from conftest import REFUSALS, chain_model, module_command, negative_float_model, refusal_case

F = Fraction


def run(capsys, *argv):
    rc = main(list(argv))
    out = capsys.readouterr()
    return rc, out.out, out.err


def test_list_runs(capsys):
    rc, out, err = run(capsys, "list")
    assert rc == 0
    for name in ("example1:", "example2:", "remark1:", "remark2:"):
        assert name in out
    assert "batteries:" in out


def test_occupation_json_exact(capsys):
    rc, out, err = run(
        capsys,
        "occupation",
        "--zoo",
        "example1",
        "--strategy",
        "spread_first:4",
        "--solver",
        "unroll",
        "--horizon",
        "2",
        "--format",
        "json",
        "--no-timestamp",
    )
    assert rc == 0, err
    doc = json.loads(out)
    assert doc["method"] == "unroll"
    assert doc["total_mass"] == "2/1"
    assert doc["expected_hitting_time"] == "2/1"
    assert doc["tail_bound"] == "0/1"
    assert doc["measure"]["format"] == "absorbing-mdp/measure"
    assert "generated_at" not in doc


def test_occupation_x0_override(capsys):
    rc, out, err = run(
        capsys,
        "occupation",
        "--zoo",
        "example1",
        "--strategy",
        "point_first",
        "--x0",
        "0:1/2",
        "--solver",
        "unroll",
        "--horizon",
        "2",
        "--format",
        "json",
        "--no-timestamp",
    )
    assert rc == 0, err
    assert json.loads(out)["x0"] == "0:1/2"


def test_occupation_tables(capsys):
    common = (
        "occupation",
        "--zoo",
        "example2",
        "--strategy",
        "always_branch",
        "--trunc-states",
        "80",
    )
    rc, out, _ = run(capsys, *common, "--format", "md")
    assert rc == 0
    assert out.startswith("# occupation measure (example2, strategy always_branch)")
    assert "| state | action | weight | mass |" in out
    assert "total mass:" in out

    rc, out, _ = run(capsys, *common, "--format", "csv")
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "state,action,weight,mass"
    assert any(line.startswith("total_mass,") for line in lines)


@pytest.mark.parametrize("fmt", ["md", "csv"])
def test_tables_build_no_json_document(capsys, monkeypatch, fmt):
    import absorbing_mdp.cli as cli

    def unused(*args, **kwargs):
        raise AssertionError(f"a {fmt} report built a JSON document")

    monkeypatch.setattr(cli, "measure_to_dict", unused)
    monkeypatch.setattr(cli, "dumps", unused)
    rc, out, err = run(
        capsys, "occupation", "--zoo", "remark2", "--strategy", "only", "--format", fmt
    )
    assert rc == 0, err


def test_unknown_instance_is_input_error(capsys):
    rc, _, err = run(capsys, "occupation", "--zoo", "mystery", "--strategy", "x")
    assert rc == 2
    assert "unknown instance" in err


def test_unknown_strategy_is_input_error(capsys):
    rc, _, err = run(capsys, "occupation", "--zoo", "example1", "--strategy", "sprint")
    assert rc == 2
    assert "unknown strategy" in err


def test_unroll_needs_horizon(capsys):
    rc, _, err = run(
        capsys,
        "occupation",
        "--zoo",
        "example1",
        "--strategy",
        "point_first",
        "--solver",
        "unroll",
    )
    assert rc == 2
    assert "--horizon" in err


def test_countable_budget_refusal_is_analysis_failure(capsys):
    # depth-64 ladder holds more live states than the default budget
    rc, _, err = run(
        capsys,
        "occupation",
        "--zoo",
        "example2",
        "--strategy",
        "always_branch",
        "--solver",
        "countable",
    )
    assert rc == 1
    assert err.startswith("error:")


def test_auto_solver_refusal_suggests_flags(capsys):
    rc, _, err = run(
        capsys, "occupation", "--zoo", "example2", "--strategy", "always_branch"
    )
    assert rc == 2
    assert "--solver unroll" in err and "--trunc-states" in err


def test_model_file_source(tmp_path, capsys):
    path = tmp_path / "chain.json"
    save_json(str(path), model_to_dict(chain_model(), {"go": deterministic_stationary(default="fwd")}))

    rc, out, err = run(
        capsys,
        "occupation",
        "--model",
        str(path),
        "--strategy",
        "go",
        "--x0",
        "A",
        "--format",
        "json",
        "--no-timestamp",
    )
    assert rc == 0, err
    doc = json.loads(out)
    assert doc["source"] == str(path)
    assert doc["total_mass"] == "2/1"

    # a file-sourced model carries no default initial state
    rc, _, err = run(capsys, "occupation", "--model", str(path), "--strategy", "go")
    assert rc == 2
    assert "--x0" in err


def test_absorption_json(capsys):
    rc, out, err = run(
        capsys,
        "absorption",
        "--zoo",
        "example2",
        "--family",
        "climb_then_linger",
        "--n-max",
        "8",
        "--trunc-states",
        "80",
        "--format",
        "json",
        "--no-timestamp",
    )
    assert rc == 0, err
    doc = json.loads(out)
    assert doc["format"] == "absorbing-mdp/absorption-report"
    assert doc["n_max"] == 8
    assert doc["verdict"] in ("non_uniform_witness", "decays", "inconclusive")
    assert len(doc["tail_rows"]) == len(doc["strategies"])


def _convergence_argv(tol: str):
    return (
        "convergence",
        "--zoo",
        "example1",
        "--family",
        "spread_first",
        "--limit",
        "point_first",
        "--battery",
        "w-poly",
        "--horizon",
        "2",
        "--tol",
        tol,
        "--format",
        "json",
        "--no-timestamp",
    )


def test_convergence_json(capsys):
    # family gaps along m = 1..20 scale like 1/m; the final third sits
    # comfortably under 0.1
    rc, out, err = run(capsys, *_convergence_argv("0.1"))
    assert rc == 0, err
    doc = json.loads(out)
    assert doc["verdict"] == "converges"
    assert doc["family"] == "spread_first"
    assert doc["limit"] == "point_first"
    assert doc["caveat"]


def test_convergence_honest_divergence_still_exits_zero(capsys):
    rc, out, err = run(capsys, *_convergence_argv("1e-9"))
    assert rc == 0, err
    assert json.loads(out)["verdict"] == "diverges"


def test_convergence_unknown_battery(capsys):
    rc, _, err = run(
        capsys,
        "convergence",
        "--zoo",
        "example1",
        "--family",
        "spread_first",
        "--limit",
        "point_first",
        "--battery",
        "loud",
    )
    assert rc == 2
    assert "unknown battery" in err


def test_no_timestamp_output_is_reproducible(tmp_path, capsys):
    argv = (
        "occupation",
        "--zoo",
        "remark2",
        "--strategy",
        "only",
        "--format",
        "json",
    )
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert run(capsys, *argv, "--no-timestamp", "-o", str(a))[0] == 0
    assert run(capsys, *argv, "--no-timestamp", "-o", str(b))[0] == 0
    assert a.read_bytes() == b.read_bytes()

    rc, out, _ = run(capsys, *argv)
    assert rc == 0
    assert "generated_at" in json.loads(out)


def test_reproduce_target_csv(capsys):
    rc, out, err = run(
        capsys, "reproduce", "--target", "remark2", "--format", "csv"
    )
    assert rc == 0, err
    lines = out.splitlines()
    assert lines[0] == "id,acceptance,passed,expected,computed"
    assert all(",True," in line for line in lines[1:])


def test_reproduce_unknown_target(capsys):
    rc, _, err = run(capsys, "reproduce", "--target", "nothing")
    assert rc == 2
    assert "unknown target" in err


def test_module_entry_passes_exit_code_through():
    cmd, env = module_command()

    def child(*argv):
        return subprocess.run(
            cmd + list(argv), capture_output=True, text=True, timeout=120, env=env
        )

    ok = child("list")
    assert ok.returncode == 0, ok.stderr
    assert "example1:" in ok.stdout
    bad = child("occupation", "--zoo", "mystery", "--strategy", "x")
    assert bad.returncode == 2
    assert "unknown instance" in bad.stderr


BAD_INPUTS = {
    "family-index-below-range": (
        ["occupation", "--zoo", "example1", "--strategy", "spread_first:0"],
        "strategy 'spread_first:0': family 'spread_first' starts at index 1",
    ),
    "family-index-above-range": (
        ["occupation", "--zoo", "example2", "--strategy", "climb_then_linger:21"],
        "strategy 'climb_then_linger:21': family 'climb_then_linger' ends at index 20",
    ),
    # refused before the generator builds a rule over 10^20 rung names
    "family-index-20-digits": (
        ["occupation", "--zoo", "example2", "--strategy", "climb_then_linger:99999999999999999999"],
        "strategy 'climb_then_linger:99999999999999999999': "
        "family 'climb_then_linger' ends at index 20",
    ),
    "eps-not-a-number": (
        ["absorption", "--zoo", "example2", "--family", "climb_then_linger", "--eps", "abc"],
        "argument --eps: need a finite positive number, got 'abc'",
    ),
    "tol-nan": (
        ["convergence", "--zoo", "example1", "--family", "spread_first", "--limit",
         "point_first", "--battery", "w-poly", "--tol", "nan", "--horizon", "3"],
        "argument --tol: need a finite positive number, got 'nan'",
    ),
    "x0-zero-denominator": (
        ["occupation", "--zoo", "example1", "--strategy", "point_first", "--horizon", "2",
         "--x0", "0:1/0"],
        "bad coordinate",
    ),
    "horizon-negative": (
        ["occupation", "--zoo", "example1", "--strategy", "point_first", "--horizon", "-1"],
        "argument --horizon: need a nonnegative integer, got '-1'",
    ),
    "n-max-negative": (
        ["absorption", "--zoo", "example2", "--family", "climb_then_linger", "--n-max", "-2"],
        "argument --n-max: need a nonnegative integer, got '-2'",
    ),
    "trunc-states-negative": (
        ["occupation", "--zoo", "example2", "--strategy", "always_branch",
         "--trunc-states", "-1"],
        "argument --trunc-states: need a nonnegative integer, got '-1'",
    ),
    "trunc-stages-negative": (
        ["occupation", "--zoo", "example2", "--strategy", "always_branch",
         "--trunc-stages", "-1"],
        "argument --trunc-stages: need a nonnegative integer, got '-1'",
    ),
    # list prints plain text only, so it takes no report options
    "list-format": (["list", "--format", "json"], "unrecognized arguments"),
}


def assert_input_error(argv, message):
    """`python -m absorbing_mdp argv` exits 2 with one `error:` line naming
    `message`, and no traceback."""
    cmd, env = module_command()
    proc = subprocess.run(cmd + argv, capture_output=True, text=True, timeout=120, env=env)
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    last = proc.stderr.strip().splitlines()[-1]
    assert "error:" in last and message in last


@pytest.mark.parametrize("case", sorted(BAD_INPUTS))
def test_bad_input_exits_2_without_traceback(case):
    assert_input_error(*BAD_INPUTS[case])


def test_unwritable_output_path_is_input_error(tmp_path):
    out = tmp_path / "no-such-dir" / "x.md"
    assert_input_error(
        ["occupation", "--zoo", "remark2", "--strategy", "only", "-o", str(out)], "cannot write"
    )


@pytest.mark.parametrize(
    "text, message",
    [("not json", "cannot read"), ("[1]", "expected a 'absorbing-mdp/model' document")],
)
def test_model_file_that_is_not_a_json_object_is_input_error(tmp_path, text, message):
    path = tmp_path / "model.json"
    path.write_text(text)
    assert_input_error(
        ["occupation", "--model", str(path), "--strategy", "go", "--x0", "A"], message
    )


def _unhashable_strategy_atom() -> str:
    # a strategy rule atom that is a list: the rule's atom set cannot hold it
    doc = model_to_dict(negative_float_model(), {"go": deterministic_stationary(default="a")})
    doc["strategies"]["go"]["stages"][0]["rules"][0]["atoms"] = [["s"]]
    return json.dumps(doc)


def _unhashable_region_atom() -> str:
    # a kernel region atom that is a list: validation's name lookups cannot hold it
    doc = model_to_dict(negative_float_model(rule=True), {"go": deterministic_stationary(default="a")})
    doc["kernel"]["rules"][0]["region"]["atoms"] = [["s"]]
    return json.dumps(doc)


@pytest.mark.parametrize(
    "text, message",
    [
        (
            '{"format": "absorbing-mdp/model", "version": 1, "kernel": {"rows": [[1]]}}',
            "bad model field 'kernel'",
        ),
        ('{"format": "absorbing-mdp/model", "version": 1}', "no 'kernel' field"),
        (_unhashable_strategy_atom(), "bad model field 'strategies': unhashable type: 'list'"),
        (_unhashable_region_atom(), "bad model field 'kernel': region atom ['s'] is not a string"),
    ],
    ids=["kernel-row-not-a-pair", "no-kernel", "strategy-atom-unhashable", "kernel-region-atom-unhashable"],
)
def test_model_document_of_the_wrong_shape_is_input_error(tmp_path, text, message):
    path = tmp_path / "model.json"
    path.write_text(text)
    assert_input_error(
        ["occupation", "--model", str(path), "--strategy", "go", "--x0", "A"], message
    )


def test_strategy_naming_an_unknown_action_is_input_error(tmp_path):
    # the strategy went unchecked: the analysis failed, exit 1, with
    # "no kernel row for ('b1', '9')"
    path = tmp_path / "model.json"
    save_json(str(path), model_to_dict(ZOO["example2"]().model, {"br": deterministic_stationary(default="9")}))
    assert_input_error(
        ["occupation", "--model", str(path), "--strategy", "br", "--x0", "b1"],
        "strategy 'br': stage[0].rule[0]: unknown action '9'",
    )


def test_convergence_checks_the_limit_and_every_member(capsys, monkeypatch):
    entry = ZOO["example1"]()
    # two faults: one error line each
    bad = markov_sequence([StageKernel((StrategyRule(dist=ActionAtom(F(2))), StrategyRule(dist=ActionAtom("x"))))])
    patched = dataclasses.replace(entry, strategies={**entry.strategies, "bad": bad})
    monkeypatch.setitem(ZOO, "example1", lambda: patched)
    argv = ["convergence", "--zoo", "example1", "--family", "spread_first", "--battery", "w-poly", "--horizon", "3"]
    rc, out, err = run(capsys, *argv, "--limit", "bad")
    assert (rc, out) == (2, "")
    assert err.splitlines() == [
        "error: strategy 'bad': stage[0].rule[0]: action 2 outside [0, 1]",
        "error: strategy 'bad': stage[0].rule[1]: interval actions need numeric values, got 'x'",
    ]
    family = entry.families["spread_first"]
    members = dataclasses.replace(family, index_hi=2, members=(("spread_first:bad", bad),))
    monkeypatch.setitem(ZOO, "example1", lambda: dataclasses.replace(
        entry, families={**entry.families, "spread_first": members}))
    rc, out, err = run(capsys, *argv, "--limit", "point_first")
    assert (rc, out) == (2, "")
    assert err.splitlines()[0] == "error: strategy 'spread_first:bad': stage[0].rule[0]: action 2 outside [0, 1]"


def test_integration_error_is_analysis_failure(capsys, monkeypatch):
    import absorbing_mdp.cli as cli
    from absorbing_mdp.measure import IntegrationError

    def refuse(*args, **kwargs):
        raise IntegrationError("quadrature did not converge", value=0.5, err=1.0)

    monkeypatch.setattr(cli, "check_convergence", refuse)
    rc, _, err = run(
        capsys, "convergence", "--zoo", "example1", "--family", "spread_first",
        "--limit", "point_first", "--battery", "w-poly", "--horizon", "2",
    )
    assert rc == 1
    assert err == "error: quadrature did not converge\n"


def test_zero_division_is_analysis_failure(capsys, monkeypatch):
    import absorbing_mdp.cli as cli

    def divide(*args, **kwargs):
        return Number.approx(1.0) / Number.approx(0.0, 1e-9)

    monkeypatch.setattr(cli, "occupation_countable", divide)
    rc, _, err = run(
        capsys, "occupation", "--zoo", "example2", "--strategy", "always_branch",
        "--solver", "countable",
    )
    assert rc == 1
    assert err.startswith("error: division by zero") and err.count("\n") == 1


def test_coverage_error_is_analysis_failure(capsys, monkeypatch):
    # CoverageError is a KeyError, but it means a structured form was asked
    # about a point it does not cover: the analysis failed, the input was fine
    import absorbing_mdp.cli as cli
    from absorbing_mdp import const_poly

    def uncovered(*args, **kwargs):
        return const_poly(1).value_at(2)

    monkeypatch.setattr(cli, "occupation_countable", uncovered)
    rc, _, err = run(
        capsys, "occupation", "--zoo", "example2", "--strategy", "always_branch",
        "--solver", "countable",
    )
    assert rc == 1
    assert err == "error: 2 outside piecewise range\n"


def test_model_diagnostics_end_the_analysis(tmp_path, capsys):
    model = dataclasses.replace(chain_model(), frontier=frozenset({"Delta"}))
    path = tmp_path / "frontier.json"
    save_json(str(path), model_to_dict(model, {"go": deterministic_stationary(default="fwd")}))
    rc, out, err = run(capsys, "occupation", "--model", str(path), "--strategy", "go", "--x0", "A")
    assert (rc, out) == (1, "")
    assert err == (
        "model diagnostics:\n"
        "  frontier: the cemetery 'Delta' is absorbing and cannot be a frontier atom\n"
    )


def test_negative_float_probability_ends_the_analysis(tmp_path, capsys):
    model = negative_float_model()
    path = tmp_path / "negative.json"
    save_json(str(path), model_to_dict(model, {"go": deterministic_stationary(default="a")}))
    rc, out, err = run(capsys, "occupation", "--model", str(path), "--strategy", "go", "--x0", "s")
    assert (rc, out) == (1, "")
    assert err == "model diagnostics:\n  row ('s', 'a'): negative probability on 'Delta'\n"


def test_float_overflow_is_analysis_failure(tmp_path, capsys):
    # the row's float probabilities are finite, their sum is not
    model = negative_float_model()
    big = (("t", Number.approx(1e308)), ("Delta", Number.approx(1e308)))
    rows = tuple((key, big if key == ("s", "a") else row) for key, row in model.kernel.rows)
    model = dataclasses.replace(model, kernel=TransitionKernel(rows=rows))
    path = tmp_path / "overflow.json"
    save_json(str(path), model_to_dict(model, {"go": deterministic_stationary(default="a")}))
    rc, out, err = run(capsys, "occupation", "--model", str(path), "--strategy", "go", "--x0", "s")
    assert (rc, out) == (1, "")
    assert err.startswith("error: overflow in the analysis") and err.count("\n") == 1


@pytest.mark.parametrize("cause", sorted(REFUSALS))
def test_atomic_refusal_is_analysis_failure(tmp_path, capsys, cause):
    # the strategy plays actions of the interval, 0 and 1, so that it passes
    # validate_strategy and reaches the solver; the missing row is 1's
    model, stage = refusal_case(cause, IntervalActions(), plays=(F(0), F(1)))
    path = tmp_path / "refuse.json"
    save_json(str(path), model_to_dict(model, {"play": markov_sequence([stage])}))
    rc, _, err = run(
        capsys, "occupation", "--model", str(path), "--strategy", "play", "--x0", "s1",
        "--solver", "countable",
    )
    assert rc == 1
    assert err == f"error: {REFUSALS[cause][1]}\n".replace("'y'", repr(F(1)))


def long_digits_model() -> MdpModel:
    """s0 -> s1 -> ... -> s51, each step advancing with probability
    1 - 10^-100: the visits to s51 have a denominator of 5,101 digits."""
    eps = Fraction(1, 10 ** 100)
    names = [f"s{i}" for i in range(52)]
    rows = [((a, "go"), ((b, Number(1 - eps)), ("Delta", Number(eps))))
            for a, b in zip(names, names[1:])]
    rows += [((names[-1], "go"), (("Delta", Number(1)),)), (("Delta", "go"), (("Delta", Number(1)),))]
    return MdpModel(
        name="longdigits",
        states=StateSpace(atoms=tuple(AtomDecl(n) for n in names + ["Delta"])),
        actions=FiniteActions(("go",)),
        kernel=TransitionKernel(rows=tuple(rows)),
    )


@pytest.mark.parametrize("fmt", ["md", "csv", "json"])
def test_unprintable_exact_value_is_analysis_failure(tmp_path, capsys, fmt):
    path = tmp_path / "longdigits.json"
    save_json(str(path), model_to_dict(long_digits_model(), {"go": deterministic_stationary(default="go")}))
    argv = ["occupation", "--model", str(path), "--strategy", "go", "--x0", "s0", "--format", fmt]
    rc, out, err = run(capsys, *argv)
    assert rc == 1
    assert out == ""
    assert re.fullmatch(r"error: an exact value of about \d+ digits is too long to print\n", err)
    # a report that fails to render creates no output file
    report = tmp_path / f"report.{fmt}"
    rc, out, err = run(capsys, *argv, "-o", str(report))
    assert (rc, out) == (1, "") and err.startswith("error: an exact value")
    assert not report.exists()
    if fmt == "json":
        # json encodes exact values exactly under --float too, so this
        # report fails inside the renderer
        rc, out, err = run(capsys, *argv, "--float", "-o", str(report))
        assert (rc, out) == (1, "") and err.startswith("error: an exact value")
        assert not report.exists()
    else:
        # the float rendering needs no string of the exact value
        rc, out, err = run(capsys, *argv, "--float")
        assert rc == 0, err
        assert "52.0" in out


def test_format_number_keeps_the_digit_limit():
    big = Number(Fraction(1, 10 ** 5000))
    with pytest.raises(DigitLimitError):
        format_number(big)
