"""cyclic-chains: random absorbing chains with proper cycles, analysed
through the command-line tool.

Why: it runs `occupation_countable` on its iterate-and-certify path (256
exact stages, denominators of hundreds of digits, no work shared between
analyses) and is the only workload that goes through `serialize` and `cli`.
Each analysis writes the model document, calls `cli.main(["occupation",
...])` in-process with the output format rotating over md, csv and json,
and the benchmark parses the report back.  Chains whose states absorb
slowly are refused by today's solver; they stay in the mix and show in
`answered_frac`.  Every cycle holds the chains listed in CHAINS (size,
absorption level) and gives every state out-degree 1, 2 or 3 by a fixed
pattern, so the work per cycle does not depend on the seed; the seed draws
the successors, weights, per-state absorption (in [level, 2 level)) and
the strategy.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import re
from fractions import Fraction

from .. import reference as ref
from ..checks import Checker, Mismatch, Refused

NAME = "cyclic-chains"
# (states, absorption level); levels of 1/20 and below mix too slowly for
# today's 256-stage iteration, levels of 1/6 and above are answered
CHAINS = (
    (8, "1/2"), (8, "1/50"), (8, "1/3"),
    (12, "1/4"), (12, "1/30"), (12, "1/5"), (12, "1/60"), (12, "1/6"), (12, "1/100"),
    (16, "1/3"), (16, "1/40"), (16, "1/4"), (16, "1/80"),
    (24, "1/20"),
    (32, "1/50"),
    (48, "1/5"),
)
TOY_CHAINS = ((3, "1/2"), (4, "1/3"))
FORMATS = ("md", "csv", "json")
# how the countable solver declines a chain it cannot certify in its stage
# budget; any other exit 1 of the tool is not a refusal
_REFUSAL = "above the requested bound"

F = Fraction


def generate(rng, toy: bool) -> dict:
    items = []
    for i, (n, level) in enumerate(TOY_CHAINS if toy else CHAINS):
        names = [f"s{j}" for j in range(n)]
        a = F(level)
        rows = []
        for j, s in enumerate(names):
            absorb = a + a * F(rng.randint(0, 99), 100)
            for k, act in enumerate(("x", "y")):
                # the ring successor keeps every state reachable and the
                # strategy-fixed chain cyclic, whatever the strategy plays
                ring = names[(j + 1) % n]
                others = [t for t in names if t != ring]
                targets = [ring] + rng.sample(others, (j + k) % 3)
                weights = [rng.randint(1, 9) for _ in targets]
                total = sum(weights)
                row = [(t, str((1 - absorb) * F(w, total))) for t, w in zip(targets, weights)]
                rows.append([s, act, row + [("Delta", str(absorb))]])
        policy = {s: rng.choice("xy") for s in names}
        items.append({"n": n, "level": level, "rows": rows, "policy": policy, "format": FORMATS[i % 3]})
    rng.shuffle(items)
    return {"items": items}


def _chain(item) -> dict:
    q: dict = {}
    for s, act, row in item["rows"]:
        if item["policy"][s] != act:
            continue
        q[s] = {t: F(p) for t, p in row if t != "Delta"}
    return q


def reference(spec) -> list:
    out = []
    for item in spec["items"]:
        visits = ref.visits_dense(_chain(item), "s0")
        out.append({"occupation": {(s, item["policy"][s]): v for s, v in visits.items()},
                    "total": sum(visits.values(), F(0))})
    return out


def build(lib, spec, want, tracer) -> dict:
    """Library models and strategies for every chain, and the work
    directory the command-line tool writes into."""
    m = lib
    cli = __import__("absorbing_mdp.cli", fromlist=["main"])
    serialize = __import__("absorbing_mdp.serialize", fromlist=["model_to_dict"])
    models = []
    for item in spec["items"]:
        names = [f"s{j}" for j in range(item["n"])]
        space = m.StateSpace(atoms=tuple(m.AtomDecl(s) for s in names) + (m.AtomDecl("Delta"),))
        rows = [((s, act), tuple((t, m.Number(F(p))) for t, p in row)) for s, act, row in item["rows"]]
        rows += [(("Delta", act), (("Delta", m.ONE),)) for act in ("x", "y")]
        model = m.MdpModel(
            name=f"chain-{item['n']}",
            states=space,
            actions=m.FiniteActions(("x", "y")),
            kernel=m.TransitionKernel(rows=tuple(rows)),
        )
        strategy = m.deterministic_stationary(dict(item["policy"]))
        models.append((model, {"pi": strategy}))
    return {"models": models, "cli": cli, "serialize": serialize, "exit_nonzero": 0}


def analyse(lib, st, item, tracer) -> dict:
    index = item["index"]
    model, strategies = st["models"][index]
    ser = st["serialize"]
    path = os.path.join(st["workdir"], f"chain-{index}.json")
    out = os.path.join(st["workdir"], f"chain-{index}.{item['format']}")
    doc = tracer.call("serialize.model_to_dict", ser.model_to_dict, model, strategies)
    tracer.call("serialize.save_json", ser.save_json, path, doc)
    argv = ["occupation", "--model", path, "--x0", "s0", "--strategy", "pi", "--solver", "countable",
            "--format", item["format"], "--no-timestamp", "-o", out]
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = tracer.call("cli.main", st["cli"].main, argv)
    message = err.getvalue().strip()
    if code != 0:
        st["exit_nonzero"] += 1
    if code == 1 and _REFUSAL in message:
        raise Refused(message)
    if code == 1 and message.startswith("model diagnostics"):
        # every generated chain is a valid model
        raise Mismatch(f"chain n={item['n']} level={item['level']}: {message}")
    if code != 0:
        raise RuntimeError(f"amdp exited {code}: {message}")
    return {"path": out}


_FLOAT_ERR = re.compile(r"^(\S+) \(err<=(\S+)\)$")


def _num(text: str):
    """A rendered number: ("exact", Fraction) or ("float", value, err)."""
    text = text.strip()
    m = _FLOAT_ERR.match(text)
    if m:
        # the renderer keeps three significant digits of the bound
        return ("float", float(m.group(1)), float(m.group(2)) * 1.005)
    if "/" in text:
        return ("exact", F(text))
    return ("float", float(text), 0.0)


def _dec(v):
    if isinstance(v, str):
        return ("exact", F(v))
    return ("float", float(v["f"]), float(v["err"]))


def parse(path: str, fmt: str) -> dict:
    """(components, total, tail, mean) from a report in any format."""
    with open(path) as fh:
        text = fh.read()
    if fmt == "json":
        doc = json.loads(text)
        comps = {(c["state"]["atom"], c["action"]["action"]["name"]): _dec(c["weight"])
                 for c in doc["measure"]["components"]}
        return {"components": comps, "total": _dec(doc["total_mass"]),
                "tail": _dec(doc["tail_bound"]), "mean": _dec(doc["expected_hitting_time"]),
                "bytes": len(text)}
    comps = {}
    scalars = {}
    if fmt == "csv":
        for line in text.splitlines()[1:]:
            cells = line.split(",")
            if len(cells) == 4:
                comps[(cells[0], cells[1])] = _num(cells[2])
            else:
                scalars[cells[0]] = _num(cells[1])
    else:
        for line in text.splitlines():
            if line.startswith("| ") and not line.startswith(("| state", "| ---")):
                cells = [c.strip() for c in line.strip("|").split("|")]
                comps[(cells[0], cells[1])] = _num(cells[2])
            elif ": " in line and not line.startswith("#"):
                key, _, value = line.partition(": ")
                scalars[key.replace("certified ", "").replace(" ", "_")] = value
        scalars = {k: _num(v) for k, v in scalars.items() if k != "solver"}
    return {"components": comps, "total": scalars["total_mass"], "tail": scalars["tail_bound"],
            "mean": scalars["expected_hitting_time"], "bytes": len(text)}


class _Rendered:
    """A parsed number in the shape the checker reads."""

    def __init__(self, parsed):
        self.is_exact = parsed[0] == "exact"
        self.value = parsed[1]
        self.err = 0.0 if self.is_exact else parsed[2]


def check(st, item, want, got, chk: Checker, counts) -> None:
    label = f"chain n={item['n']} level={item['level']} ({item['format']})"
    rep = parse(got["path"], item["format"])
    counts["serialize.bytes_out"] += rep["bytes"]
    counts["occupation.components"] += len(rep["components"])
    counts["occupation.reachable_states"] += len(want["occupation"])
    tail = _Rendered(rep["tail"])
    chk.count_value(tail)
    if not tail.is_exact:
        raise Mismatch(f"{label}: tail bound {tail.value} is not exact")
    if tail.value:
        counts["occupation.tail_nonzero"] += 1
    if set(rep["components"]) != set(want["occupation"]):
        raise Mismatch(f"{label}: components {sorted(rep['components'])} differ from the reference")
    for key, parsed in rep["components"].items():
        w = _Rendered(parsed)
        chk.count_value(w)
        if not w.is_exact:
            raise Mismatch(f"{label}: occupation {key} rendered as a float")
        short = want["occupation"][key] - w.value
        if not 0 <= short <= tail.value:
            raise Mismatch(f"{label}: occupation {key} = {w.value} is off the reference by {float(short)}")
    total = _Rendered(rep["total"])
    chk.count_value(total)
    if not (total.is_exact and 0 <= want["total"] - total.value <= tail.value):
        raise Mismatch(f"{label}: total mass {total.value} against reference {float(want['total'])}")
    chk.value(f"{label} mean time", _Rendered(rep["mean"]), want["total"])


def probe_target(st):
    return max((model for model, _ in st["models"]), key=lambda mdl: len(mdl.states.atoms))


# names the tool imported from other layers, recorded as child spans of
# cli.main in traced runs
_CLI_CALLS = (
    ("load_json", "serialize.load_json"),
    ("model_from_dict", "serialize.model_from_dict"),
    ("validate_model", "mdp.validate_model"),
    ("occupation_countable", "occupation.occupation_countable"),
    ("expected_hitting_time", "occupation.expected_hitting_time"),
    ("measure_to_dict", "serialize.measure_to_dict"),
    ("dumps", "serialize.dumps"),
)


def instrument(st, tracer) -> None:
    cli = st["cli"]
    for attr, name in _CLI_CALLS:
        setattr(cli, attr, tracer.wrap(name, getattr(cli, attr)))
