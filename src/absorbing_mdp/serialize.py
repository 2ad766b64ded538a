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

from .numbers import Number, _exact, format_number
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
    if isinstance(n.value, float):
        return {"f": float(n.value), "err": float(n.err)}
    return format_number(n)


def dec_number(v) -> Number:
    if isinstance(v, str):
        return _exact(dec_pos(v))
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


# -- tagged types ----------------------------------------------------------
#
# Each tagged type is declared once, in the table of the position it stands
# at: its "type" tag and its fields, one (key, codec) per field, the key its
# attribute's name and the fields in its constructor's order.  A codec is an
# (encode, decode) pair; None in a place passes the value through as it is.
# `_encode` and `_decode` walk every table.


class _Optional(tuple):
    """A codec whose field may be absent from a document: it reads as None."""


def _or_none(enc, dec):
    """None both ways, anything else through (enc, dec)."""
    return (lambda x: None if x is None else enc(x)), (lambda v: None if v is None else dec(v))


def _each(enc, dec):
    """A list out and a tuple back, each item through (enc, dec)."""
    return (lambda xs: [enc(x) for x in xs]), (lambda vs: tuple([dec(v) for v in vs]))


_enc_opt_pos, _dec_opt_pos = _or_none(enc_pos, dec_pos)
_AS_IS = (None, None)
_POS = (enc_pos, dec_pos)
_POSITIONS = _each(enc_pos, dec_pos)
_NUMBERS = _each(enc_number, dec_number)


class _Table:
    """The tagged types of one position: `tags` maps each class to its tag
    and (key, encode) pairs, `classes` each tag to its class and (key,
    decode, may the key be absent) triples."""

    def __init__(self, what: str, *entries):
        self.what = what
        self.tags = {
            cls: (tag, tuple((key, codec[0]) for key, codec in fields)) for cls, tag, fields in entries
        }
        self.classes = {
            tag: (cls, tuple((key, codec[1], type(codec) is _Optional) for key, codec in fields))
            for cls, tag, fields in entries
        }


def _encode(table: _Table, obj) -> dict:
    tag, fields = table.tags[type(obj)]
    out = {"type": tag}
    values = obj.__dict__
    for key, enc in fields:
        out[key] = values[key] if enc is None else enc(values[key])
    return out


def _decode(table: _Table, d: dict):
    tag = d["type"]
    entry = table.classes.get(tag) if isinstance(tag, str) else None
    if entry is None:
        raise FormatError(f"unknown {table.what} type {tag!r}")
    cls, fields = entry
    args = []
    for key, dec, optional in fields:
        v = d.get(key) if optional else d[key]
        args.append(v if dec is None else dec(v))
    return cls(*args)


def _enc_part(a):
    return None if a is None else _encode(_ACTION_PARTS, a)


def _dec_part(d):
    return None if d is None else _decode(_ACTION_PARTS, d)


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


_ACTION_SPACES = _Table(
    "action space",
    (FiniteActions, "finite", [("names", (list, tuple))]),
    (IntervalActions, "interval", [("lo", _POS), ("hi", _POS)]),
)
_STATE_DENSITIES = _Table(
    "state part",
    (StateDensity, "state-density", [("segment", _AS_IS), ("breaks", _POSITIONS), ("heights", _NUMBERS)]),
)
_ACTION_PARTS = _Table(
    "action part",
    (ActionAtom, "action-atom", [("action", (enc_action_value, dec_action_value))]),
    (ActionDensity, "action-density", [("breaks", _POSITIONS), ("heights", _NUMBERS)]),
    (ActionMixture, "action-mixture", [("parts", (
        lambda parts: [[enc_number(w), _enc_part(p)] for w, p in parts],
        lambda parts: tuple([(dec_number(w), _dec_part(p)) for w, p in parts]),
    ))]),
)
_REGION = (_region_to_dict, _region_from_dict)
_KERNEL_RULES = _Table(
    "kernel rule",
    (ActionPushforward, "embed", [("region", _REGION), ("segment", _AS_IS), ("alpha", _POS), ("beta", _POS)]),
    (FixedDiffuse, "diffuse", [
        ("region", _REGION),
        ("atom_probs", (
            lambda probs: [[name, enc_number(p)] for name, p in probs],
            lambda probs: tuple([(name, dec_number(p)) for name, p in probs]),
        )),
        ("pieces", (
            lambda pieces: [[label, _POSITIONS[0](b), _NUMBERS[0](h)] for label, b, h in pieces],
            lambda pieces: tuple([(label, _POSITIONS[1](b), _NUMBERS[1](h)) for label, b, h in pieces]),
        )),
    ]),
)
_STRATEGY_RULES = _Table(
    "strategy rule",
    (SegmentSelector, "selector", [
        ("segment", _AS_IS), ("breaks", _POSITIONS), ("actions", _each(enc_action_value, dec_action_value)),
    ]),
    (StrategyRule, "rule", [
        ("dist", (_enc_part, _dec_part)),
        ("atoms", _Optional(_or_none(list, tuple))),
        ("segment", _Optional(_AS_IS)),
    ]),
)


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


# -- measures --------------------------------------------------------------


def _state_part_to_dict(s) -> dict:
    if isinstance(s, StateAtom):
        p = s.point
        if p.atom is not None:
            return {"type": "state-atom", "atom": p.atom, "coord": _enc_opt_pos(p.coord)}
        return {"type": "state-atom", "segment": p.segment, "coord": enc_pos(p.coord)}
    return _encode(_STATE_DENSITIES, s)


def _state_part_from_dict(d):
    if d["type"] == "state-atom":
        if "atom" in d and d["atom"] is not None:
            return StateAtom(StatePoint(atom=d["atom"], coord=_dec_opt_pos(d.get("coord"))))
        return StateAtom(StatePoint(segment=d["segment"], coord=dec_pos(d["coord"])))
    return _decode(_STATE_DENSITIES, d)


def measure_to_dict(mu: HybridMeasure) -> dict:
    return {
        "format": "absorbing-mdp/measure",
        "version": FORMAT_VERSION,
        "domain": {
            "states": space_to_dict(mu.domain.states),
            "actions": _encode(_ACTION_SPACES, mu.domain.actions),
        },
        "components": [
            {
                "state": _state_part_to_dict(c.state),
                "action": _enc_part(c.action),
                "weight": enc_number(c.weight),
            }
            for c in mu.components
        ],
    }


def measure_from_dict(d: dict) -> HybridMeasure:
    _expect(d, "absorbing-mdp/measure")
    domain = _field(
        d, "domain", lambda x: Domain(space_from_dict(x["states"]), _decode(_ACTION_SPACES, x["actions"])),
        doc="measure",
    )
    comps = _field(d, "components", _components_from_list, doc="measure")
    return HybridMeasure(domain, comps)


def _components_from_list(cs) -> tuple:
    return tuple(
        MeasureComponent(_state_part_from_dict(c["state"]), _dec_part(c.get("action")), dec_number(c["weight"]))
        for c in cs
    )


# -- models and strategies -------------------------------------------------


def strategy_to_dict(s: Strategy) -> dict:
    return {
        "stages": [
            {"rules": [_encode(_STRATEGY_RULES, r) for r in st.rules]} for st in s.stages
        ],
        "stationary_tail": s.stationary_tail,
    }


def strategy_from_dict(d: dict) -> Strategy:
    return Strategy(
        stages=tuple(
            StageKernel(tuple(_decode(_STRATEGY_RULES, r) for r in st["rules"]))
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
        "actions": _encode(_ACTION_SPACES, model.actions),
        "kernel": {
            "rows": [
                [[src, act], [[name, enc_number(p)] for name, p in row]]
                for (src, act), row in model.kernel.rows
            ],
            "rules": [_encode(_KERNEL_RULES, r) for r in model.kernel.rules],
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
        rules=tuple(_decode(_KERNEL_RULES, r) for r in d["rules"]),
    )


_REQUIRED = object()


def _field(d: dict, name: str, decode=None, default=_REQUIRED, doc="model"):
    """d[name] of a `doc` document, or `default` when the field is absent,
    through `decode`.  A missing field, or a value of the wrong shape,
    raises FormatError naming the field; the model's own errors
    (ModelError, MeasureError, ...) pass through."""
    if name not in d and default is _REQUIRED:
        raise FormatError(f"{doc} document has no {name!r} field")
    value = d.get(name, default)
    if decode is None:
        return value
    try:
        return decode(value)
    except (KeyError, IndexError, TypeError, AttributeError, ZeroDivisionError, ValueError) as exc:
        if isinstance(exc, ValueError) and type(exc) not in (ValueError, FormatError):
            raise
        detail = f"missing {exc}" if type(exc) is KeyError else str(exc)
        raise FormatError(f"bad {doc} field {name!r}: {detail}") from exc


def model_from_dict(d: dict) -> ModelDocument:
    _expect(d, "absorbing-mdp/model")
    kernel = _field(d, "kernel", _kernel_from_dict)
    model = MdpModel(
        name=_field(d, "name"),
        states=_field(d, "states", space_from_dict),
        actions=_field(d, "actions", lambda a: _decode(_ACTION_SPACES, a)),
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
