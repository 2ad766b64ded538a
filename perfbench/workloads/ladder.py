"""ladder: example2-style rung ladders accumulating at a limit state.

Why: it drives the acyclic closed-form path of `occupation_countable`, the
`absorption` supersolution check and `marginal_state` + `check_convergence`
on atom-supported measures, where the number of states is the working set
of the linear scans in `spaces` and `mdp`.  It does almost no segment work.
Each cycle holds one model near each depth in PLAN (jittered down by at
most 1/64) and a fixed list of strategies per model, more on the shallow
models than on the deepest ones: climb-then-linger(n) with n near depth/2,
always-branch, and stationary exact rational mixtures of the two climbing
actions.  The model is built once per depth; strategies are built per
analysis.
"""

from __future__ import annotations

from fractions import Fraction
from types import SimpleNamespace

from .. import reference as ref
from ..checks import Checker, Mismatch

NAME = "ladder"
# depth -> strategy kinds analysed on it per cycle
PLAN = {
    128: ("climb", "branch", "mixture", "climb"),
    256: ("climb", "branch", "mixture", "climb", "branch", "mixture", "climb"),
    512: ("climb", "branch", "mixture", "climb", "mixture"),
    1024: ("climb", "mixture"),
    2048: ("climb", "branch"),
}
TOY_PLAN = {6: ("climb", "branch"), 10: ("mixture",)}
CONVERGENCE_TOL = 1e-3

F = Fraction


def generate(rng, toy: bool) -> dict:
    depths = []
    items = []
    for base, kinds in (TOY_PLAN if toy else PLAN).items():
        depth = base - rng.randint(0, base // 64)
        model = len(depths)
        depths.append(depth)
        spread = max(1, depth // 64)
        for kind in kinds:
            strategy = {"kind": kind}
            if kind == "climb":
                strategy["n"] = max(3, depth // 2 + rng.randint(-spread, spread))
            elif kind == "mixture":
                q = rng.randint(5, 9)
                strategy["w3"] = f"{rng.randint(1, q - 1)}/{q}"
            surv_n = rng.randint(3, min(24, depth - 2))
            items.append({
                "model": model,
                "strategy": strategy,
                "surv_n": surv_n,
                "tail_n": rng.randint(1, surv_n),
            })
    rng.shuffle(items)
    return {"depths": depths, "items": items}


def reference(spec) -> list:
    depths = spec["depths"]
    branch = {}
    for i, depth in enumerate(depths):
        q = ref.ladder_chain(depth, {"kind": "branch"})
        v = ref.visits_acyclic(q, "b1", ref.ladder_order(depth))
        v.pop(f"b{depth + 1}", None)
        branch[i] = v
    kinds = {i: ref.ladder_candidate_kind(d) for i, d in enumerate(depths)}
    out = []
    for item in spec["items"]:
        depth = depths[item["model"]]
        strategy = item["strategy"]
        q = ref.ladder_chain(depth, strategy)
        visits = ref.visits_acyclic(q, "b1", ref.ladder_order(depth))
        frontier = visits.pop(f"b{depth + 1}", F(0))
        total = sum(visits.values(), F(0))
        true_total = total + frontier * ref.ladder_remaining(strategy)
        surv = ref.survival(q, "b1", item["surv_n"])
        occupation = {
            (x, a): v * w for x, v in visits.items() for a, w in ref.ladder_policy(strategy, x).items()
        }
        out.append({
            "occupation": occupation,
            "visits": visits,
            "frontier": frontier,
            "total": total,
            "true_total": true_total,
            "survival": surv,
            "tail": true_total - sum(surv[: item["tail_n"]], F(0)),
            "kind": kinds[item["model"]],
            "limit": branch[item["model"]],
        })
    return out


def _model(m, depth: int):
    one = m.ONE
    half, quarter = m.Number.exact(1, 2), m.Number.exact(1, 4)
    rows = []
    for a in ("1", "2", "3"):
        rows.append((("1", a), (("Delta", one),)))
        rows.append((("Delta", a), (("Delta", one),)))
    for n in range(1, depth + 1):
        b, up = f"b{n}", f"b{n + 1}"
        if n <= 2:
            rows.append(((b, "1"), (("Delta", one),)))
        else:
            die = m.Number.exact(1, 2 ** (n - 2))
            rows.append(((b, "1"), ((b, one - die), ("Delta", die))))
        rows.append(((b, "2"), ((up, half), ("Delta", half))))
        rows.append(((b, "3"), ((up, half), ("1", quarter), ("Delta", quarter))))
    names = [f"b{n}" for n in range(1, depth + 2)]
    atoms = [m.AtomDecl(x, m.ISOLATED, ref.ladder_coord(x)) for x in names]
    atoms += [m.AtomDecl("1", m.LIMIT_POINT, F(1)), m.AtomDecl("Delta")]
    space = m.StateSpace(atoms=tuple(atoms), sequences=(m.ConvergentSeq(tuple(names), "1"),))
    return m.MdpModel(
        name=f"ladder-{depth}",
        states=space,
        actions=m.FiniteActions(("1", "2", "3")),
        kernel=m.TransitionKernel(rows=tuple(rows)),
        frontier=frozenset({f"b{depth + 1}"}),
    )


def _candidate(m, depth: int):
    values = {f"b{n}": m.Number(ref.ladder_candidate(n)) for n in range(1, depth + 2)}
    values["1"] = m.ONE
    return m.ValueFunction(values, cemetery="Delta")


def _limit_marginal(m, model, visits: dict):
    space = model.states
    comps = tuple(m.MeasureComponent(m.StateAtom(space.point(x)), None, m.Number(v)) for x, v in visits.items())
    return m.HybridMeasure(m.Domain(space, model.actions), comps)


def _coord(p):
    return p.coord if p.coord is not None else F(0)


def build(lib, spec, want, tracer) -> dict:
    """Models, candidates and batteries per depth.  The convergence checks
    compare against the always-branch marginal, which is an input here:
    it is built from the reference's exact visits."""
    m = lib
    limits = {item["model"]: w["limit"] for item, w in zip(spec["items"], want)}
    state = {"models": [], "candidates": [], "supports": [], "limits": []}
    for i, depth in enumerate(spec["depths"]):
        model = _model(m, depth)
        state["models"].append(model)
        state["candidates"].append(_candidate(m, depth))
        state["supports"].append([f"b{n}" for n in range(1, depth + 1)] + ["1"])
        state["limits"].append(_limit_marginal(m, model, limits[i]))
    TF = m.TestFunction
    w_funcs = (
        TF("unit", m.CONTINUOUS, lambda p: 1, F(1), arity="state"),
        TF("coordinate", m.CONTINUOUS, _coord, F(1), arity="state"),
        TF("coordinate-squared", m.CONTINUOUS, lambda p: _coord(p) ** 2, F(1), arity="state"),
        TF("distance-to-limit", m.CONTINUOUS, lambda p: 1 - _coord(p), F(1), arity="state"),
    )
    s_funcs = (
        TF("at-limit-atom", m.MEASURABLE, lambda p: 1 if p.atom == "1" else 0, F(1), arity="state"),
        TF("on-first-rung", m.MEASURABLE, lambda p: 1 if p.atom == "b1" else 0, F(1), arity="state"),
    )
    deepest = state["models"][-1]
    state["w"] = tracer.call("topology.make_battery", m.make_battery, "w", "w", w_funcs, deepest.states, deepest.actions)
    state["s"] = tracer.call("topology.make_battery", m.make_battery, "s", "s", s_funcs, deepest.states, deepest.actions)
    return state


def _strategy(m, strategy: dict):
    kind = strategy["kind"]
    if kind == "climb":
        rungs = tuple(f"b{i}" for i in range(1, strategy["n"] + 1))
        return m.Strategy(stages=(m.StageKernel((
            m.StrategyRule(dist=m.ActionAtom("2"), atoms=rungs),
            m.StrategyRule(dist=m.ActionAtom("3"), atoms=("1", "Delta")),
            m.StrategyRule(dist=m.ActionAtom("1")),
        )),))
    if kind == "branch":
        return m.deterministic_stationary(default="3")
    w3 = m.Number(F(strategy["w3"]))
    mix = m.ActionMixture(((m.ONE - w3, m.ActionAtom("2")), (w3, m.ActionAtom("3"))))
    return m.deterministic_stationary(default=mix)


def analyse(lib, st, item, tracer) -> dict:
    m = lib
    i = item["model"]
    model = st["models"][i]
    depth = len(st["supports"][i]) - 1
    x0 = model.states.point("b1")
    trunc = m.Truncation(states=depth + 4)
    diags = tracer.call("mdp.validate_model", m.validate_model, model)
    strat = tracer.call("mdp.strategy_build", _strategy, m, item["strategy"])
    occ = tracer.call("occupation.occupation_countable", m.occupation_countable, model, strat, x0, trunc)
    mean = tracer.call("occupation.expected_hitting_time", m.expected_hitting_time, occ)
    surv = tracer.call("occupation.survival_probs", m.survival_probs, model, strat, x0, item["surv_n"])
    tail = tracer.call("occupation.tail_sum", m.tail_sum, model, strat, x0, item["tail_n"], trunc=trunc)
    verdict = tracer.call(
        "absorption.verify_supersolution", m.verify_supersolution, model, st["candidates"][i], st["supports"][i]
    )
    marg = tracer.call("measure.marginal_state", m.marginal_state, occ.measure)
    reps = [
        tracer.call("topology.check_convergence", m.check_convergence, [marg], st["limits"][i], st[b], CONVERGENCE_TOL)
        for b in ("w", "s")
    ]
    return {"diags": diags, "occ": occ, "mean": mean, "surv": surv, "tail": tail,
            "verdict": verdict, "marg": marg, "reports": reps}


def _integrals(visits: dict, battery) -> dict:
    """Battery integrals of an atom marginal, evaluated exactly."""
    out = {}
    for f in battery.functions:
        total = F(0)
        for x, v in visits.items():
            total += v * F(f.evaluator(SimpleNamespace(atom=x, coord=ref.ladder_coord(x))))
        out[f.name] = total
    return out


def check(st, item, want, got, chk: Checker, counts) -> None:
    label = f"depth={len(st['supports'][item['model']]) - 1} {item['strategy']}"
    chk.equal(f"{label} diagnostics", got["diags"], [])
    occ = got["occ"]
    counts["occupation.components"] += len(occ.measure.components)
    counts["occupation.reachable_states"] += len(want["visits"])
    seen = set()
    for c in occ.measure.components:
        key = (c.state.point.atom, c.action.action)
        if key not in want["occupation"]:
            raise Mismatch(f"{label}: unexpected component {key}")
        seen.add(key)
        chk.value(f"{label} occupation {key}", c.weight, want["occupation"][key])
    chk.equal(f"{label} support", seen, set(want["occupation"]))
    tail = occ.tail_bound
    chk.count_value(tail)
    if want["frontier"]:
        counts["occupation.tail_nonzero"] += 1
        missing = want["true_total"] - want["total"]
        if not (tail.is_exact and tail.value >= missing):
            raise Mismatch(f"{label}: tail bound {tail!r} below the frontier occupation {float(missing)}")
    elif tail.value != 0:
        raise Mismatch(f"{label}: tail bound {tail!r} with no frontier inflow")
    chk.value(f"{label} mean time", got["mean"], want["true_total"])
    chk.equal(f"{label} survival length", len(got["surv"]), len(want["survival"]))
    for t, (g, w) in enumerate(zip(got["surv"], want["survival"])):
        chk.value(f"{label} survival[{t}]", g, w)
    chk.value(f"{label} tail sum", got["tail"], want["tail"])
    chk.equal(f"{label} candidate", (got["verdict"].kind, got["verdict"].state), (want["kind"], None))
    for c in got["marg"].components:
        chk.value(f"{label} marginal {c.state.point.atom}", c.weight, want["visits"][c.state.point.atom])
    for rep in got["reports"]:
        battery = st[rep.mode]
        values = _integrals(want["visits"], battery)
        limit = _integrals(want["limit"], battery)
        names = [f.name for f in battery.functions]
        verdict, witness, gap = ref.convergence_verdict(values, limit, names, CONVERGENCE_TOL)
        chk.equal(f"{label} {rep.mode} verdict", (rep.verdict, rep.witness), (verdict, witness))
        if gap is not None:
            chk.value(f"{label} {rep.mode} witness gap", rep.witness_gap, gap)
        for trace in rep.traces:
            chk.value(f"{label} {rep.mode} trace {trace.name}", trace.values[0], values[trace.name])
            chk.value(f"{label} {rep.mode} limit {trace.name}", trace.limit_value, limit[trace.name])


def probe_target(st):
    return st["models"][-1]
