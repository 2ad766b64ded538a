"""Shared fixtures: small hand-checkable models used across the test modules."""

import os
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import absorbing_mdp
from absorbing_mdp import (
    ActionAtom,
    ActionDensity,
    ActionPushforward,
    AtomDecl,
    FiniteActions,
    FixedDiffuse,
    FromRegion,
    MdpModel,
    ModelError,
    Number,
    ONE,
    SegmentDecl,
    SolverError,
    StageKernel,
    StateSpace,
    StrategyRule,
    TransitionKernel,
)

HALF = Number.exact(1, 2)

# one "ACCEPTANCE n [tag] PASS/FAIL: text" line per criterion, printed in the
# terminal summary so they survive output capture
ACCEPTANCE_LINES: list = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in sorted(ACCEPTANCE_LINES):
            terminalreporter.write_line(line)


def module_command():
    """`python -m absorbing_mdp` and an environment whose PYTHONPATH starts
    with the source tree this suite imports, so that the child process runs
    the same code rather than any other installed copy."""
    src = str(Path(absorbing_mdp.__file__).resolve().parents[1])
    rest = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, rest]) if rest else src)
    return [sys.executable, "-m", "absorbing_mdp"], env


def negative_float_model(rule: bool = False) -> MdpModel:
    """s -a-> t 1.5, Delta -0.5 in float probabilities: the row sums to 1,
    but it is no distribution.  With rule=True the same jump is a diffuse
    rule from s."""
    space = StateSpace(atoms=(AtomDecl("s"), AtomDecl("t"), AtomDecl("Delta")))
    jump = (("t", Number.approx(1.5)), ("Delta", Number.approx(-0.5)))
    rows = [(("t", "a"), (("Delta", ONE),)), (("Delta", "a"), (("Delta", ONE),))]
    rules = ()
    if rule:
        rules = (FixedDiffuse(FromRegion(atoms=("s",)), atom_probs=jump),)
    else:
        rows.append((("s", "a"), jump))
    return MdpModel(
        name="negative",
        states=space,
        actions=FiniteActions(("a",)),
        kernel=TransitionKernel(rows=tuple(rows), rules=rules),
    )


def chain_model() -> MdpModel:
    """A -> B -> Delta with a stalling branch at both states.

    Under the all-"fwd" strategy the path is deterministic (absorbed at t=2);
    "stall" keeps the chain at A with probability 1/2.
    """
    space = StateSpace(
        atoms=(AtomDecl("A"), AtomDecl("B"), AtomDecl("Delta")),
    )
    actions = FiniteActions(("fwd", "stall"))
    rows = (
        (("A", "fwd"), (("B", ONE),)),
        (("A", "stall"), (("A", HALF), ("Delta", HALF))),
        (("B", "fwd"), (("Delta", ONE),)),
        (("B", "stall"), (("A", HALF), ("Delta", HALF))),
        (("Delta", "fwd"), (("Delta", ONE),)),
        (("Delta", "stall"), (("Delta", ONE),)),
    )
    return MdpModel(
        name="chain",
        states=space,
        actions=actions,
        kernel=TransitionKernel(rows=rows),
    )


def ladder_model(depth: int) -> MdpModel:
    """c1 -> c2 -> ... with per-step absorption 1/2; the last rung is the
    declared frontier.  Visits to cn are exactly 2^(1-n)."""
    names = [f"c{n}" for n in range(1, depth + 2)]
    space = StateSpace(atoms=tuple(AtomDecl(n) for n in names) + (AtomDecl("Delta"),))
    actions = FiniteActions(("step",))
    rows = []
    for n in range(1, depth + 1):
        rows.append(((f"c{n}", "step"), ((f"c{n + 1}", HALF), ("Delta", HALF))))
    rows.append(((f"c{depth + 1}", "step"), (("Delta", ONE),)))
    rows.append((("Delta", "step"), (("Delta", ONE),)))
    return MdpModel(
        name=f"ladder{depth}",
        states=space,
        actions=actions,
        kernel=TransitionKernel(rows=tuple(rows)),
        frontier=frozenset({f"c{depth + 1}"}),
    )


def loop_model() -> MdpModel:
    """A proper two-cycle A -> B -> A with absorption 1/2 per step; a
    two-state class for the countable solver's elimination."""
    space = StateSpace(atoms=(AtomDecl("A"), AtomDecl("B"), AtomDecl("Delta")))
    actions = FiniteActions(("x",))
    rows = (
        (("A", "x"), (("B", HALF), ("Delta", HALF))),
        (("B", "x"), (("A", HALF), ("Delta", HALF))),
        (("Delta", "x"), (("Delta", ONE),)),
    )
    return MdpModel(
        name="loop",
        states=space,
        actions=actions,
        kernel=TransitionKernel(rows=rows),
    )


def segment_space() -> StateSpace:
    """One unit segment plus an isolated start atom; used by density tests."""
    return StateSpace(
        atoms=(AtomDecl("start"), AtomDecl("Delta")),
        segments=(SegmentDecl("seg", Fraction(0), Fraction(1)),),
    )


# what the atomic solvers refuse at an atom, and how
REFUSALS = {
    "density target": (SolverError, "atomic solver met a density target"),
    "segment rule": (SolverError, "atomic solver met a segment embedding rule"),
    "missing row": (ModelError, "no kernel row for ('s1', 'y')"),
    "action density": (SolverError, "atomic dynamics cannot draw from an action density"),
}


def refusal_case(cause: str, actions, plays=("x", "y")) -> tuple:
    """(model, stage kernel) whose atom s1 shows one cause of REFUSALS; the
    cemetery jumps to itself by a diffuse rule, so the model also validates
    with an interval action space.  The rows are s1's under actions "x" and
    "y"; the strategy plays the first of `plays`, or the second where the
    missing row is its own."""
    x, y = plays
    s1 = FromRegion(atoms=("s1",))
    rules = [FixedDiffuse(FromRegion(atoms=("Delta",)), atom_probs=(("Delta", ONE),))]
    rows = [(("s1", a), (("Delta", ONE),)) for a in ("x", "y")]
    play = ActionAtom(x)
    if cause == "density target":
        rows = []
        rules.append(FixedDiffuse(s1, pieces=(("seg", (Fraction(0), Fraction(1)), (ONE,)),)))
    elif cause == "segment rule":
        rows = []
        rules.append(ActionPushforward(s1, "seg"))
    elif cause == "missing row":
        rows = rows[:1]
        play = ActionAtom(y)
    else:
        play = ActionDensity((Fraction(0), Fraction(1)), (ONE,))
    model = MdpModel(
        name=f"refuse-{cause}",
        states=StateSpace(
            atoms=(AtomDecl("s1"), AtomDecl("Delta")),
            segments=(SegmentDecl("seg", Fraction(0), Fraction(1)),),
        ),
        actions=actions,
        kernel=TransitionKernel(rows=tuple(rows), rules=tuple(rules)),
    )
    stage = StageKernel((StrategyRule(dist=play, atoms=("s1",)), StrategyRule(dist=ActionAtom(x))))
    return model, stage


@pytest.fixture
def chain():
    return chain_model()


@pytest.fixture
def ladder8():
    return ladder_model(8)


@pytest.fixture
def loop():
    return loop_model()
