"""continuum-quadrature: example1-style two-step model with interval
actions; the first action is the landing coordinate on the second segment.

Why: it is the only workload that reaches `quadrature` and the float side
of `numbers`.  Each analysis draws piecewise-constant densities for both
actions and integrates evaluator-only test functions with closed-form
integrals (sin(wx)cos(va), the kink |x - c| and the diagonal step
1{a > x}) at the requested tolerance, next to two structured twins (the
kink as a piecewise polynomial, and x*a) that integrate exactly.  Every
cycle holds the same number of analyses at each tolerance, the densities
have a fixed number of pieces and the frequencies are drawn from narrow
bands, so the work per cycle does not depend on the seed.  The benchmark's
own evaluators count their calls.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .. import reference as ref
from ..checks import Checker

NAME = "continuum-quadrature"
# tolerance -> analyses per cycle
TOLERANCES = {1e-6: 3, 1e-7: 3, 1e-8: 2, 1e-9: 4, 1e-10: 2}
TOY_TOLERANCES = {1e-4: 2}
FIRST_PIECES = 4
SECOND_PIECES = 3
# evaluator-only integrands that are indicators of a set (see checks.py)
INDICATORS = ("diagonal-step",)

F = Fraction


def _density(rng, pieces: int) -> dict:
    cuts = sorted(rng.sample(range(1, 64), pieces - 1))
    breaks = [F(0)] + [F(c, 64) for c in cuts] + [F(1)]
    weights = [rng.randint(1, 9) for _ in range(pieces)]
    mass = sum(w * (b - a) for w, a, b in zip(weights, breaks, breaks[1:]))
    return {"breaks": [str(b) for b in breaks], "heights": [str(w / mass) for w in weights]}


def generate(rng, toy: bool) -> dict:
    items = []
    for tol, count in (TOY_TOLERANCES if toy else TOLERANCES).items():
        for _ in range(count):
            items.append({
                "tol": tol,
                "first": _density(rng, FIRST_PIECES),
                "second": _density(rng, SECOND_PIECES),
                "omega": round(6.5 + rng.random(), 6),
                "nu": round(3.5 + rng.random(), 6),
                "kink": f"{rng.randint(1, 63)}/64",
            })
    rng.shuffle(items)
    return {"items": items}


def _pieces(d):
    return [F(b) for b in d["breaks"]], [F(h) for h in d["heights"]]


def reference(spec) -> list:
    out = []
    for item in spec["items"]:
        xb, xh = _pieces(item["first"])
        ab, ah = _pieces(item["second"])
        c = F(item["kink"])
        kink = c + ref.kink_integral(xb, xh, c)  # start point x = 0, then the landing density
        osc, osc_err = ref.oscillation_integral(xb, xh, item["omega"], ab, ah, item["nu"])
        out.append({
            "oscillation": (osc, osc_err),
            "kink": (kink, 0),
            "diagonal-step": (1 + ref.step_integral(xb, xh, ab, ah), 0),
            "kink-structured": (kink, 0),
            "coordinate-times-action": (ref.moment_integral(xb, xh) * ref.moment_integral(ab, ah), 0),
        })
    return out


class _Counter:
    def __init__(self):
        self.calls = 0


def build(lib, spec, want, tracer) -> dict:
    m = lib
    one = m.ONE
    space = m.StateSpace(
        atoms=(m.AtomDecl("Delta"),),
        segments=(m.SegmentDecl("0", F(0), F(1)), m.SegmentDecl("1", F(0), F(1))),
    )
    kernel = m.TransitionKernel(rules=(
        m.ActionPushforward(m.FromRegion(segment="0"), segment="1"),
        m.FixedDiffuse(m.FromRegion(segment="1"), atom_probs=(("Delta", one),)),
        m.FixedDiffuse(m.FromRegion(atoms=("Delta",)), atom_probs=(("Delta", one),)),
    ))
    model = m.MdpModel(name="continuum", states=space, actions=m.IntervalActions(F(0), F(1)), kernel=kernel)
    counter = _Counter()
    x_poly = m.PiecewisePoly((F(0), F(1)), ((F(0), F(1)),))
    sf_x = m.StateFactor(segment_polys=(("0", x_poly), ("1", x_poly)), atom_values=(("Delta", F(0)),))
    xa = m.structured_joint_function(
        "coordinate-times-action", m.CONTINUOUS, ((sf_x, m.ActionFactor(poly=x_poly)),), F(1)
    )
    functions = []
    for item in spec["items"]:
        omega, nu, c = item["omega"], item["nu"], F(item["kink"])
        cf = float(c)

        def osc(p, a, omega=omega, nu=nu):
            counter.calls += 1
            return math.sin(omega * float(p.coord)) * math.cos(nu * float(a))

        def kink(p, cf=cf):
            counter.calls += 1
            return abs(float(p.coord) - cf) if p.coord is not None else 0.0

        def step(p, a):
            counter.calls += 1
            return 1.0 if a > p.coord else 0.0

        kink_poly = m.PiecewisePoly((F(0), c, F(1)), ((c, F(-1)), (-c, F(1))))
        kink_factor = m.StateFactor(segment_polys=(("0", kink_poly), ("1", kink_poly)), atom_values=(("Delta", F(0)),))
        functions.append((
            m.TestFunction("oscillation", m.CONTINUOUS, osc, F(1)),
            m.TestFunction("kink", m.CONTINUOUS, kink, F(1), arity="state"),
            m.TestFunction("diagonal-step", m.MEASURABLE, step, F(1)),
            m.structured_state_function("kink-structured", m.CONTINUOUS, kink_factor, F(1)),
            xa,
        ))
    return {"model": model, "x0": space.segment_point("0", F(0)), "functions": functions, "counter": counter}


def _action_density(m, d):
    breaks, heights = _pieces(d)
    return m.ActionDensity(tuple(breaks), tuple(m.Number(h) for h in heights))


def analyse(lib, st, item, tracer) -> dict:
    m = lib

    def strategy():
        first = m.StageKernel((m.StrategyRule(dist=_action_density(m, item["first"])),))
        second = m.StageKernel((m.StrategyRule(dist=_action_density(m, item["second"])),))
        return m.markov_sequence((first, second))

    strat = tracer.call("mdp.strategy_build", strategy)
    occ = tracer.call("occupation.occupation_unroll", m.occupation_unroll, st["model"], strat, st["x0"], 2)
    mean = tracer.call("occupation.expected_hitting_time", m.expected_hitting_time, occ)
    before = st["counter"].calls
    values = {
        f.name: tracer.call("measure.integrate", m.integrate, occ.measure, f, item["tol"])
        for f in st["functions"][item["index"]]
    }
    return {"occ": occ, "mean": mean, "values": values, "evals": st["counter"].calls - before}


def check(st, item, want, got, chk: Checker, counts) -> None:
    label = f"tol={item['tol']:g}"
    counts["occupation.components"] += len(got["occ"].measure.components)
    counts["quadrature.evals"] += got["evals"]
    chk.value(f"{label} tail bound", got["occ"].tail_bound, 0)
    chk.value(f"{label} mean time", got["mean"], 2)
    for name, v in got["values"].items():
        target, target_err = want[name]
        chk.value(f"{label} {name}", v, target, target_err, tol=item["tol"], layer="quadrature",
                  indicator=name in INDICATORS)
        if not v.is_exact:
            chk.err_ratios.append(float(v.err) / item["tol"])


def probe_target(st):
    return st["model"]
