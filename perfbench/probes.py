"""Micro-measurements that the traced run adds after its timed loop: the
cost of single `Number` operations on operands taken from the workload's own
results, of `StateSpace.point` and of `mdp.resolve_rule` on the workload's
largest model, and a fixed machine-speed probe."""

from __future__ import annotations

import statistics
import time
from fractions import Fraction

_BATCH_S = 0.01
_REPEATS = 5


def per_call_s(fn, args_list) -> float:
    """Median seconds per call of `fn(*args)` over batches of `args_list`."""
    reps = 1
    while True:
        t0 = time.perf_counter()
        for _ in range(reps):
            for args in args_list:
                fn(*args)
        if time.perf_counter() - t0 >= _BATCH_S:
            break
        reps *= 2
    samples = []
    for _ in range(_REPEATS):
        t0 = time.perf_counter()
        for _ in range(reps):
            for args in args_list:
                fn(*args)
        samples.append((time.perf_counter() - t0) / (reps * len(args_list)))
    return statistics.median(samples)


def numbers_ns(lib, fractions: list, floats: list) -> dict:
    Number = lib.Number
    fracs = fractions or [Fraction(1, 3), Fraction(2, 7)]
    flts = floats or [float(f) for f in fracs]
    exact = [Number(f) for f in fracs]
    approx = [Number.approx(x, 1e-12) for x in flts]
    exact_pairs = list(zip(exact, exact[1:] + exact[:1]))
    float_pairs = list(zip(approx, approx[1:] + approx[:1]))
    return {
        "numbers.exact_add_ns": 1e9 * per_call_s(Number.__add__, exact_pairs),
        "numbers.exact_mul_ns": 1e9 * per_call_s(Number.__mul__, exact_pairs),
        "numbers.construct_ns": 1e9 * per_call_s(Number, [(f,) for f in fracs]),
        "numbers.float_mul_ns": 1e9 * per_call_s(Number.__mul__, float_pairs),
    }


def _sample(items, k=256):
    step = max(1, len(items) // k)
    return items[::step]


def space_point_us(space) -> float:
    names = _sample([a.name for a in space.atoms])
    return 1e6 * per_call_s(space.point, [(n,) for n in names])


def resolve_rule_us(lib, model) -> float:
    space = model.states
    parts = [lib.StateAtom(space.point(a.name)) for a in space.atoms if a.name not in model.frontier]
    parts += [lib.StateAtom(space.segment_point(s.label, (s.lo + s.hi) / 2)) for s in space.segments]
    resolve = lib.mdp.resolve_rule
    return 1e6 * per_call_s(resolve, [(model, p) for p in _sample(parts)])


def calibration_ms() -> float:
    """A fixed exact-arithmetic loop: machine speed at the time of the run."""
    t0 = time.perf_counter()
    x = Fraction(0)
    for i in range(1, 20001):
        x += Fraction(1, i % 97 + 1)
    return 1e3 * (time.perf_counter() - t0)
