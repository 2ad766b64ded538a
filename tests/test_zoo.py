"""Built-in instances: structural health plus independent numerical oracles
for a few of their frozen values."""

import subprocess
from fractions import Fraction

import pytest

from absorbing_mdp import (
    integrate,
    occupation_countable,
    occupation_unroll,
    marginal_state,
    Truncation,
    validate_model,
    validate_strategy,
)
from absorbing_mdp.reproduce import REQUIRED_TAGS
from absorbing_mdp.zoo import ZOO, atom_masses, example2, load_zoo, remark1

from conftest import module_command

F = Fraction


@pytest.fixture(scope="module")
def entries():
    return {name: ctor() for name, ctor in ZOO.items()}


def test_every_model_validates(entries):
    for name, entry in entries.items():
        assert validate_model(entry.model) == [], name


def test_every_strategy_validates(entries):
    for name, entry in entries.items():
        for sname, s in entry.strategies.items():
            assert validate_strategy(entry.model, s) == [], (name, sname)


def test_claim_ids_are_unique_and_tagged(entries):
    seen = set()
    tags = set()
    for entry in entries.values():
        for claim in entry.claims:
            assert claim.id not in seen, claim.id
            seen.add(claim.id)
            if claim.acceptance is not None:
                assert claim.acceptance in REQUIRED_TAGS
                tags.add(claim.acceptance)
    assert tags == set(REQUIRED_TAGS)


def test_load_zoo_rejects_unknown():
    with pytest.raises(KeyError):
        load_zoo("nothing-here")


def test_batteries_have_distinct_modes(entries):
    for entry in entries.values():
        modes = {b.mode for b in entry.batteries.values()}
        assert len(modes) >= 2, entry.name


# -- independent oracles ---------------------------------------------------


def test_selector_limit_integrals_against_riemann_sums():
    """The frozen exact integrals for the coin-mixing limit strategy are
    re-derived here by brute-force float Riemann sums."""
    entry = remark1()
    occ = occupation_unroll(entry.model, entry.strategies["fair_coin"], entry.x0, 2)
    cells = 2 ** 16
    for f in entry.batteries["w-poly"].functions:
        got = float(integrate(occ.measure, f).value)
        # first stage always plays "0" at the start atom; the coin only
        # applies once the state has jumped onto the segment
        space = entry.model.states
        acc = float(f.evaluate(space.point("start"), "0").value)
        for i in range(cells):
            x = F(2 * i + 1, 2 * cells)  # midpoint rule
            p = space.segment_point("unit", x)
            for a in ("0", "1"):
                acc += 0.5 * float(f.evaluate(p, a).value) / cells
        assert abs(got - acc) <= 1e-4, f.name


def test_ladder_masses_against_closed_form():
    """Occupancies under the always-branch strategy, recomputed from the
    geometric closed form with plain fractions."""
    entry = example2(depth=16)
    occ = occupation_countable(
        entry.model,
        entry.strategies["always_branch"],
        entry.x0,
        Truncation(states=24),
    )
    masses = atom_masses(occ.measure)
    for n in range(1, 17):
        assert masses[f"b{n}"].value == F(1, 2 ** (n - 1))
    # limit-state mass: quarter of every rung visit, up to the frontier cut
    want_limit = sum(F(1, 4) * F(1, 2 ** (n - 1)) for n in range(1, 17))
    assert masses["1"].value == want_limit
    assert occ.tail_bound.value == F(4) * F(1, 2 ** 16)


def test_spread_family_mean_time_is_two():
    entry = load_zoo("example1")
    fam = entry.families["spread_first"]
    for name, s in fam.explored():
        occ = occupation_unroll(entry.model, s, entry.x0, 2)
        assert occ.measure.total_mass().value == 2, name


def test_marginal_of_sliding_mass_is_one_step():
    entry = load_zoo("remark2")
    occ = occupation_unroll(
        entry.model, entry.strategies["only"], entry.model.states.point("1/7"), 1
    )
    m = marginal_state(occ.measure)
    assert len(m.components) == 1
    assert m.components[0].state.point.atom == "1/7"
    assert occ.measure.total_mass().value == 1


def test_zoo_is_imported_on_first_use():
    # a fresh interpreter: this process has imported the zoo already
    code = "\n".join([
        "import sys, absorbing_mdp, absorbing_mdp.cli",
        "assert 'absorbing_mdp.zoo' not in sys.modules",
        "assert 'absorbing_mdp.reproduce' not in sys.modules",
        "assert set(absorbing_mdp.__all__) <= set(dir(absorbing_mdp))",
        "ns = {}",
        "exec('from absorbing_mdp import *', ns)",
        "assert set(ns) - {'__builtins__'} == set(absorbing_mdp.__all__)",
        "from absorbing_mdp import zoo",
        "assert ns['ZOO'] is zoo.ZOO and ns['load_zoo'] is zoo.load_zoo",
        "try:",
        "    absorbing_mdp.no_such_name",
        "except AttributeError:",
        "    pass",
        "else:",
        "    raise SystemExit('missing names must raise AttributeError')",
    ])
    cmd, env = module_command()
    proc = subprocess.run(cmd[:1] + ["-c", code], capture_output=True, text=True, timeout=120, env=env)
    assert proc.returncode == 0, proc.stderr
