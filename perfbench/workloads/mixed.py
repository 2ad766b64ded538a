"""A workload made of part workloads: every cycle holds every part's items,
shuffled together, so one closed loop drives all the parts.  Each part
module keeps its own generator, reference, set-up, analysis and checks."""

from __future__ import annotations


class Mixed:
    def __init__(self, name: str, parts, tail_pct: int):
        self.NAME = name
        self.parts = {p.NAME: p for p in parts}
        self.TAIL_PCT = tail_pct

    def generate(self, rng, toy: bool) -> dict:
        specs = {}
        items = []
        for name, part in self.parts.items():
            spec = part.generate(rng, toy)
            for i, item in enumerate(spec["items"]):
                item["index"] = i
                items.append({"part": name, "item": item})
            specs[name] = spec
        rng.shuffle(items)
        return {"parts": specs, "items": items}

    def reference(self, spec) -> list:
        wants = {name: part.reference(spec["parts"][name]) for name, part in self.parts.items()}
        return [wants[it["part"]][it["item"]["index"]] for it in spec["items"]]

    def build(self, lib, spec, want, tracer, workdir: str) -> dict:
        wants = {name: [None] * len(s["items"]) for name, s in spec["parts"].items()}
        for it, w in zip(spec["items"], want):
            wants[it["part"]][it["item"]["index"]] = w
        state = {}
        for name, part in self.parts.items():
            state[name] = part.build(lib, spec["parts"][name], wants[name], tracer)
            state[name]["workdir"] = workdir
        return state

    def instrument(self, state, tracer) -> None:
        for name, part in self.parts.items():
            if hasattr(part, "instrument"):
                part.instrument(state[name], tracer)

    def analyse(self, lib, state, item, tracer):
        name = item["part"]
        return self.parts[name].analyse(lib, state[name], item["item"], tracer)

    def check(self, state, item, want, got, chk, counts) -> None:
        name = item["part"]
        self.parts[name].check(state[name], item["item"], want, got, chk, counts)

    def probe_target(self, state):
        """The part model with the most atoms."""
        models = [part.probe_target(state[name]) for name, part in self.parts.items()]
        return max(models, key=lambda model: len(model.states.atoms))
