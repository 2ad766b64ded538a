"""Versioned JSON encoding for models, strategies, measures and reports.

Exact scalars are written as "p/q" strings and parse back bit-exactly, so a
round trip through to-dict and from-dict reproduces structurally equal
objects.  Approximate scalars keep their float value and error bound.
Positions (coordinates, breaks, affine parameters) are Fractions or floats;
action values may also be names, and are tagged to keep "1/2" the name apart
from 1/2 the coordinate.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction

from .numbers import Number, format_number
from .measure import (
    ActionAtom,
    ActionDensity,
    ActionMixture,
    Domain,
    HybridMeasure,
    MeasureComponent,
    StateAtom,
    StateDensity,
)
from .mdp import (
    ActionPushforward,
    FixedDiffuse,
    FromRegion,
    MdpModel,
    SegmentSelector,
    StageKernel,
    Strategy,
    StrategyRule,
    TransitionKernel,
)
from .spaces import (
    AtomDecl,
    ConvergentSeq,
    FiniteActions,
    IntervalActions,
    SegmentDecl,
    StatePoint,
    StateSpace,
)

FORMAT_VERSION = 1


class FormatError(ValueError):
    pass


# -- scalar encoders -------------------------------------------------------


def enc_number(n: Number):
    if n.is_exact:
        return format_number(n)
    return {"f": float(n.value), "err": float(n.err)}


def dec_number(v) -> Number:
    if isinstance(v, str):
        return Number(dec_pos(v))
    if isinstance(v, dict):
        return Number.approx(float(v["f"]), float(v.get("err", 0.0)))
    raise FormatError(f"bad number encoding {v!r}")


def enc_pos(x):
    if isinstance(x, (int, Fraction)):
        f = Fraction(x)
        return f"{f.numerator}/{f.denominator}"
    return float(x)


def dec_pos(v):
    if isinstance(v, str):
        p, _, q = v.partition("/")
        return Fraction(int(p), int(q) if q else 1)
    return float(v)


def enc_action_value(a):
    if isinstance(a, str):
        return {"name": a}
    return {"coord": enc_pos(a)}


def dec_action_value(v):
    if "name" in v:
        return v["name"]
    return dec_pos(v["coord"])


def _enc_opt_pos(x):
    return None if x is None else enc_pos(x)


def _dec_opt_pos(v):
    return None if v is None else dec_pos(v)


# -- spaces ----------------------------------------------------------------


def space_to_dict(space: StateSpace) -> dict:
    return {
        "cemetery": space.cemetery,
        "atoms": [
            {"name": a.name, "topology": a.topology, "coord": _enc_opt_pos(a.coord)}
            for a in space.atoms
        ],
        "segments": [
            {"label": s.label, "lo": enc_pos(s.lo), "hi": enc_pos(s.hi)}
            for s in space.segments
        ],
        "sequences": [
            {"terms": list(q.terms), "limit": q.limit} for q in space.sequences
        ],
    }


def space_from_dict(d: dict) -> StateSpace:
    return StateSpace(
        atoms=tuple(
            AtomDecl(a["name"], a["topology"], _dec_opt_pos(a.get("coord")))
            for a in d["atoms"]
        ),
        segments=tuple(
            SegmentDecl(s["label"], dec_pos(s["lo"]), dec_pos(s["hi"]))
            for s in d["segments"]
        ),
        sequences=tuple(
            ConvergentSeq(tuple(q["terms"]), q["limit"]) for q in d["sequences"]
        ),
        cemetery=d["cemetery"],
    )


def actions_to_dict(actions) -> dict:
    if isinstance(actions, FiniteActions):
        return {"type": "finite", "names": list(actions.names)}
    return {"type": "interval", "lo": enc_pos(actions.lo), "hi": enc_pos(actions.hi)}


def actions_from_dict(d: dict):
    if d["type"] == "finite":
        return FiniteActions(tuple(d["names"]))
    if d["type"] == "interval":
        return IntervalActions(dec_pos(d["lo"]), dec_pos(d["hi"]))
    raise FormatError(f"unknown action space type {d['type']!r}")


# -- measures --------------------------------------------------------------


def _state_part_to_dict(s) -> dict:
    if isinstance(s, StateAtom):
        p = s.point
        if p.atom is not None:
            return {"type": "state-atom", "atom": p.atom, "coord": _enc_opt_pos(p.coord)}
        return {"type": "state-atom", "segment": p.segment, "coord": enc_pos(p.coord)}
    return {
        "type": "state-density",
        "segment": s.segment,
        "breaks": [enc_pos(b) for b in s.breaks],
        "heights": [enc_number(h) for h in s.heights],
    }


def _state_part_from_dict(d):
    if d["type"] == "state-atom":
        if "atom" in d and d["atom"] is not None:
            return StateAtom(StatePoint(atom=d["atom"], coord=_dec_opt_pos(d.get("coord"))))
        return StateAtom(StatePoint(segment=d["segment"], coord=dec_pos(d["coord"])))
    if d["type"] == "state-density":
        return StateDensity(
            d["segment"],
            tuple(dec_pos(b) for b in d["breaks"]),
            tuple(dec_number(h) for h in d["heights"]),
        )
    raise FormatError(f"unknown state part type {d['type']!r}")


def _action_part_to_dict(a):
    if a is None:
        return None
    if isinstance(a, ActionAtom):
        return {"type": "action-atom", "action": enc_action_value(a.action)}
    if isinstance(a, ActionDensity):
        return {
            "type": "action-density",
            "breaks": [enc_pos(b) for b in a.breaks],
            "heights": [enc_number(h) for h in a.heights],
        }
    return {
        "type": "action-mixture",
        "parts": [[enc_number(w), _action_part_to_dict(p)] for w, p in a.parts],
    }


def _action_part_from_dict(d):
    if d is None:
        return None
    if d["type"] == "action-atom":
        return ActionAtom(dec_action_value(d["action"]))
    if d["type"] == "action-density":
        return ActionDensity(
            tuple(dec_pos(b) for b in d["breaks"]),
            tuple(dec_number(h) for h in d["heights"]),
        )
    if d["type"] == "action-mixture":
        return ActionMixture(
            tuple((dec_number(w), _action_part_from_dict(p)) for w, p in d["parts"])
        )
    raise FormatError(f"unknown action part type {d['type']!r}")


def measure_to_dict(mu: HybridMeasure) -> dict:
    return {
        "format": "absorbing-mdp/measure",
        "version": FORMAT_VERSION,
        "domain": {
            "states": space_to_dict(mu.domain.states),
            "actions": actions_to_dict(mu.domain.actions),
        },
        "components": [
            {
                "state": _state_part_to_dict(c.state),
                "action": _action_part_to_dict(c.action),
                "weight": enc_number(c.weight),
            }
            for c in mu.components
        ],
    }


def measure_from_dict(d: dict) -> HybridMeasure:
    _expect(d, "absorbing-mdp/measure")
    domain = Domain(
        space_from_dict(d["domain"]["states"]),
        actions_from_dict(d["domain"]["actions"]),
    )
    comps = tuple(
        MeasureComponent(
            _state_part_from_dict(c["state"]),
            _action_part_from_dict(c.get("action")),
            dec_number(c["weight"]),
        )
        for c in d["components"]
    )
    return HybridMeasure(domain, comps)


# -- models and strategies -------------------------------------------------


def _region_to_dict(r: FromRegion) -> dict:
    if r.atoms is not None:
        return {"atoms": list(r.atoms)}
    return {"segment": r.segment}


def _region_from_dict(d: dict) -> FromRegion:
    if "atoms" in d:
        for a in d["atoms"]:
            if type(a) is not str:
                raise TypeError(f"region atom {a!r} is not a string")
        return FromRegion(atoms=tuple(d["atoms"]))
    return FromRegion(segment=d["segment"])


def _rule_to_dict(rule) -> dict:
    if isinstance(rule, ActionPushforward):
        return {
            "type": "embed",
            "region": _region_to_dict(rule.region),
            "segment": rule.segment,
            "alpha": enc_pos(rule.alpha),
            "beta": enc_pos(rule.beta),
        }
    return {
        "type": "diffuse",
        "region": _region_to_dict(rule.region),
        "atom_probs": [[name, enc_number(p)] for name, p in rule.atom_probs],
        "pieces": [
            [label, [enc_pos(b) for b in breaks], [enc_number(h) for h in heights]]
            for label, breaks, heights in rule.pieces
        ],
    }


def _rule_from_dict(d: dict):
    if d["type"] == "embed":
        return ActionPushforward(
            _region_from_dict(d["region"]),
            d["segment"],
            dec_pos(d["alpha"]),
            dec_pos(d["beta"]),
        )
    if d["type"] == "diffuse":
        return FixedDiffuse(
            _region_from_dict(d["region"]),
            atom_probs=tuple((name, dec_number(p)) for name, p in d["atom_probs"]),
            pieces=tuple(
                (
                    label,
                    tuple(dec_pos(b) for b in breaks),
                    tuple(dec_number(h) for h in heights),
                )
                for label, breaks, heights in d["pieces"]
            ),
        )
    raise FormatError(f"unknown kernel rule type {d['type']!r}")


def _strategy_rule_to_dict(rule) -> dict:
    if isinstance(rule, SegmentSelector):
        return {
            "type": "selector",
            "segment": rule.segment,
            "breaks": [enc_pos(b) for b in rule.breaks],
            "actions": [enc_action_value(a) for a in rule.actions],
        }
    return {
        "type": "rule",
        "dist": _action_part_to_dict(rule.dist),
        "atoms": None if rule.atoms is None else list(rule.atoms),
        "segment": rule.segment,
    }


def _strategy_rule_from_dict(d: dict):
    if d["type"] == "selector":
        return SegmentSelector(
            d["segment"],
            tuple(dec_pos(b) for b in d["breaks"]),
            tuple(dec_action_value(a) for a in d["actions"]),
        )
    if d["type"] == "rule":
        return StrategyRule(
            dist=_action_part_from_dict(d["dist"]),
            atoms=None if d.get("atoms") is None else tuple(d["atoms"]),
            segment=d.get("segment"),
        )
    raise FormatError(f"unknown strategy rule type {d['type']!r}")


def strategy_to_dict(s: Strategy) -> dict:
    return {
        "stages": [
            {"rules": [_strategy_rule_to_dict(r) for r in st.rules]} for st in s.stages
        ],
        "stationary_tail": s.stationary_tail,
    }


def strategy_from_dict(d: dict) -> Strategy:
    return Strategy(
        stages=tuple(
            StageKernel(tuple(_strategy_rule_from_dict(r) for r in st["rules"]))
            for st in d["stages"]
        ),
        stationary_tail=bool(d["stationary_tail"]),
    )


@dataclass(frozen=True)
class ModelDocument:
    model: MdpModel
    strategies: dict


def model_to_dict(model: MdpModel, strategies: dict | None = None) -> dict:
    doc = {
        "format": "absorbing-mdp/model",
        "version": FORMAT_VERSION,
        "name": model.name,
        "states": space_to_dict(model.states),
        "actions": actions_to_dict(model.actions),
        "kernel": {
            "rows": [
                [[src, act], [[name, enc_number(p)] for name, p in row]]
                for (src, act), row in model.kernel.rows
            ],
            "rules": [_rule_to_dict(r) for r in model.kernel.rules],
        },
        "condition_tags": sorted(model.condition_tags),
        "condition_note": model.condition_note,
        "frontier": sorted(model.frontier),
    }
    if strategies:
        doc["strategies"] = {name: strategy_to_dict(s) for name, s in strategies.items()}
    return doc


def _kernel_from_dict(d: dict) -> TransitionKernel:
    return TransitionKernel(
        rows=tuple(
            ((src, act), tuple((name, dec_number(p)) for name, p in row))
            for (src, act), row in d["rows"]
        ),
        rules=tuple(_rule_from_dict(r) for r in d["rules"]),
    )


_REQUIRED = object()


def _field(d: dict, name: str, decode=None, default=_REQUIRED):
    """d[name], or `default` when the field is absent, through `decode`.  A
    missing field, or a value of the wrong shape, raises FormatError naming
    the field; the model's own errors (ModelError, MeasureError, ...) pass
    through."""
    if name not in d and default is _REQUIRED:
        raise FormatError(f"model document has no {name!r} field")
    value = d.get(name, default)
    if decode is None:
        return value
    try:
        return decode(value)
    except (KeyError, IndexError, TypeError, AttributeError, ZeroDivisionError, ValueError) as exc:
        if isinstance(exc, ValueError) and type(exc) not in (ValueError, FormatError):
            raise
        detail = f"missing {exc}" if type(exc) is KeyError else str(exc)
        raise FormatError(f"bad model field {name!r}: {detail}") from exc


def model_from_dict(d: dict) -> ModelDocument:
    _expect(d, "absorbing-mdp/model")
    kernel = _field(d, "kernel", _kernel_from_dict)
    model = MdpModel(
        name=_field(d, "name"),
        states=_field(d, "states", space_from_dict),
        actions=_field(d, "actions", actions_from_dict),
        kernel=kernel,
        condition_tags=_field(d, "condition_tags", frozenset, ()),
        condition_note=_field(d, "condition_note", default=""),
        frontier=_field(d, "frontier", frozenset, ()),
    )
    strategies = _field(
        d, "strategies", lambda ss: {name: strategy_from_dict(s) for name, s in ss.items()}, {}
    )
    return ModelDocument(model, strategies)


def _expect(d: dict, fmt: str):
    if not isinstance(d, dict):
        raise FormatError(f"expected a {fmt!r} document, got a {type(d).__name__}")
    if d.get("format") != fmt:
        raise FormatError(f"expected a {fmt!r} document, got {d.get('format')!r}")
    if d.get("version") != FORMAT_VERSION:
        raise FormatError(f"unsupported format version {d.get('version')!r}")


# -- reports (one-way) -----------------------------------------------------


def convergence_report_to_dict(rep) -> dict:
    return {
        "format": "absorbing-mdp/convergence-report",
        "version": FORMAT_VERSION,
        "battery": rep.battery,
        "mode": rep.mode,
        "tol": rep.tol,
        "verdict": rep.verdict,
        "witness": rep.witness,
        "witness_gap": None if rep.witness_gap is None else enc_number(rep.witness_gap),
        "traces": [
            {
                "function": t.name,
                "values": [enc_number(v) for v in t.values],
                "limit_value": enc_number(t.limit_value),
                "gaps": [enc_number(g) for g in t.gaps],
                "converged": t.converged,
                "persistent": t.persistent,
            }
            for t in rep.traces
        ],
        "note": rep.note,
        "caveat": rep.caveat,
    }


def absorption_report_to_dict(rep) -> dict:
    return {
        "format": "absorbing-mdp/absorption-report",
        "version": FORMAT_VERSION,
        "eps": rep.eps,
        "n_max": rep.n_max,
        "strategies": list(rep.strategy_names),
        "expected_times": [enc_number(t) for t in rep.expected_times],
        "tail_rows": [[enc_number(v) for v in row] for row in rep.rows],
        "sup_row": [enc_number(v) for v in rep.sup_row],
        "verdict": rep.verdict,
        "witness": None
        if rep.witness is None
        else {
            "strategy": rep.witness[0],
            "stage": rep.witness[1],
            "tail": enc_number(rep.witness[2]),
        },
        "note": rep.note,
    }


# -- files -----------------------------------------------------------------


def dumps(doc: dict) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def save_json(path: str, doc: dict) -> None:
    with open(path, "w") as fh:
        fh.write(dumps(doc))


def load_json(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)
