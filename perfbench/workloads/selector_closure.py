"""selector-closure: one jump onto the unit interval, then absorption; the
second action is chosen by a segment selector of 2^k equal cells.

Why: it puts nearly all work into `measure` (exact structured integration
over one component per cell), `topology` (`determinism_defect`, whose cost is
quadratic in the cells, and `check_convergence`) and the exact `numbers`
path, and none into `countable`, `absorption` or `quadrature`.  Random
selectors repeat an action on adjacent cells, alternating selectors never
do: a change that merges same-action cells works on the first kind and must
leave the second alone.  Every cycle holds the same number of selectors of
each kind for each k (PAIRS), so the work per cycle does not depend on the
seed.
"""

from __future__ import annotations

from fractions import Fraction

from .. import reference as ref
from ..checks import Checker

NAME = "selector-closure"
# k -> selectors of each kind per cycle; the k = 6 ones put the median
# latency inside a band of near-equal analyses
PAIRS = {4: 2, 5: 2, 6: 7, 7: 1, 8: 3, 9: 1, 10: 1}
TOY_PAIRS = {2: 1, 3: 1}
CONVERGENCE_TOL = 5e-3

F = Fraction


def generate(rng, toy: bool) -> dict:
    items = []
    for k, pairs in (TOY_PAIRS if toy else PAIRS).items():
        cells = 2 ** k
        for _ in range(pairs):
            phase = rng.randint(0, 1)
            alternating = "".join("1" if (j + phase) % 2 == 0 else "0" for j in range(cells))
            random_acts = "".join(rng.choice("01") for _ in range(cells))
            items.append({"k": k, "kind": "alternating", "actions": alternating})
            items.append({"k": k, "kind": "random", "actions": random_acts})
    rng.shuffle(items)
    return {"items": items}


def reference(spec) -> list:
    limit = ref.fair_coin_integrals()
    out = []
    for item in spec["items"]:
        values = ref.selector_integrals(item["actions"])
        verdict = ref.convergence_verdict(values, limit, ref.SELECTOR_W, CONVERGENCE_TOL)
        cells = len(item["actions"])
        # the start atom plays "0"; every selector cell carries one action
        defect = ref.defect([(F(1), {"0": F(1)})] + [(F(1, cells), {a: F(1)}) for a in item["actions"]])
        out.append({"integrals": values, "limit": limit, "verdict": verdict, "defect": defect})
    return out


def build(lib, spec, want, tracer) -> dict:
    """The remark1-style model, the fair-coin limit and both batteries."""
    m = lib
    one = m.ONE
    space = m.StateSpace(
        atoms=(m.AtomDecl("start"), m.AtomDecl("Delta")),
        segments=(m.SegmentDecl("unit", F(0), F(1)),),
    )
    actions = m.FiniteActions(("0", "1"))
    kernel = m.TransitionKernel(
        rules=(
            m.FixedDiffuse(m.FromRegion(atoms=("start",)), pieces=(("unit", (F(0), F(1)), (one,)),)),
            m.FixedDiffuse(m.FromRegion(segment="unit"), atom_probs=(("Delta", one),)),
            m.FixedDiffuse(m.FromRegion(atoms=("Delta",)), atom_probs=(("Delta", one),)),
        )
    )
    model = m.MdpModel(name="selector-closure", states=space, actions=actions, kernel=kernel)
    x0 = space.point("start")
    first = m.StageKernel((m.StrategyRule(dist=m.ActionAtom("0")),))
    half = m.Number.exact(1, 2)
    coin = m.ActionMixture(((half, m.ActionAtom("0")), (half, m.ActionAtom("1"))))
    fair_coin = m.markov_sequence((first, m.StageKernel((m.StrategyRule(dist=coin),))))

    def poly(*coeffs):
        return m.PiecewisePoly((F(0), F(1)), (coeffs,))

    def state_factor(p, start):
        return m.StateFactor(segment_polys=(("unit", p),), atom_values=(("start", start), ("Delta", F(0))))

    upper = m.PiecewisePoly((F(0), F(1, 3), F(1)), ((F(0),), (F(1),)), knots=(F(0), F(0), F(1)))
    sf_one = state_factor(poly(F(1)), F(1))
    sf_x = state_factor(poly(F(0), F(1)), F(0))
    sf_x2 = state_factor(poly(F(0), F(0), F(1)), F(0))
    sf_upper = state_factor(upper, F(0))
    af1 = m.ActionFactor(const=F(1))
    af_a = m.ActionFactor(table=(("0", F(0)), ("1", F(1))))
    af_neg = m.ActionFactor(table=(("0", F(0)), ("1", F(-1))))
    joint = m.structured_joint_function
    w_funcs = (
        joint("unit", m.CONTINUOUS, ((sf_one, af1),), F(1)),
        joint("coordinate", m.CONTINUOUS, ((sf_x, af1),), F(1)),
        joint("coordinate-squared", m.CONTINUOUS, ((sf_x2, af1),), F(1)),
        joint("chosen-action", m.CONTINUOUS, ((sf_one, af_a),), F(1)),
        joint("coordinate-times-action", m.CONTINUOUS, ((sf_x, af_a),), F(1)),
        joint("flipped-coordinate-times-action", m.CONTINUOUS, ((sf_one, af_a), (sf_x, af_neg)), F(1)),
    )
    ws_funcs = w_funcs + (joint("upper-third-action", m.CARATHEODORY, ((sf_upper, af_a),), F(1)),)
    w = tracer.call("topology.make_battery", m.make_battery, "w", "w", w_funcs, space, actions)
    ws = tracer.call("topology.make_battery", m.make_battery, "ws", "ws", ws_funcs, space, actions)
    limit = m.occupation_unroll(model, fair_coin, x0, 2).measure
    return {"model": model, "x0": x0, "first": first, "w": w, "ws": ws, "limit": limit}


def analyse(lib, st, item, tracer) -> dict:
    m = lib

    def strategy():
        cells = 2 ** item["k"]
        breaks = tuple(F(j, cells) for j in range(cells + 1))
        selector = m.SegmentSelector("unit", breaks, tuple(item["actions"]))
        second = m.StageKernel((selector, m.StrategyRule(dist=m.ActionAtom("0"))))
        return m.markov_sequence((st["first"], second))

    strat = tracer.call("mdp.strategy_build", strategy)
    occ = tracer.call("occupation.occupation_unroll", m.occupation_unroll, st["model"], strat, st["x0"], 2)
    mean = tracer.call("occupation.expected_hitting_time", m.expected_hitting_time, occ)
    integrals = {
        f.name: tracer.call("measure.integrate", m.integrate, occ.measure, f) for f in st["ws"].functions
    }
    defect = tracer.call("topology.determinism_defect", m.determinism_defect, occ.measure)
    report = tracer.call(
        "topology.check_convergence", m.check_convergence, [occ.measure], st["limit"], st["w"], CONVERGENCE_TOL
    )
    return {"occ": occ, "mean": mean, "integrals": integrals, "defect": defect, "report": report}


def check(st, item, want, got, chk: Checker, counts) -> None:
    label = f"k={item['k']} {item['kind']}"
    occ = got["occ"]
    counts["occupation.components"] += len(occ.measure.components)
    chk.value(f"{label} tail bound", occ.tail_bound, 0)
    chk.value(f"{label} mean time", got["mean"], 2)
    chk.value(f"{label} defect", got["defect"], want["defect"])
    for name, v in got["integrals"].items():
        chk.value(f"{label} integral {name}", v, want["integrals"][name])
    rep = got["report"]
    verdict, witness, gap = want["verdict"]
    chk.equal(f"{label} verdict", (rep.verdict, rep.witness), (verdict, witness))
    if gap is not None:
        chk.value(f"{label} witness gap", rep.witness_gap, gap)
    for trace in rep.traces:
        chk.value(f"{label} trace {trace.name}", trace.values[0], want["integrals"][trace.name])
        chk.value(f"{label} limit {trace.name}", trace.limit_value, want["limit"][trace.name])


def probe_target(st):
    """The model the layer probes run against."""
    return st["model"]
