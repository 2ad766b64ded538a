"""One benchmark run: generate a workload's inputs from the seed, solve the
reference, set the library up, then drive a closed loop (one client, one
thread, the next analysis only after the previous one returned) for whole
cycles over the inputs until `--seconds` of analysis time have passed.
Every answer is checked against the reference; a wrong value aborts the
run.  The last line of standard output is the JSON result."""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import random
import resource
import shutil
import statistics
import sys
import time
import traceback
from collections import defaultdict

from . import probes
from .checks import Checker, Mismatch, Refused
from .tracing import NullTracer, Tracer
from .workloads import cyclic_chains, continuum_quadrature, ladder, selector_closure
from .workloads.mixed import Mixed

# Two workloads of two parts each, so that one run can measure long enough
# to average out the host's speed drift.  `segments` (unit-interval and
# interval-action models: exact structured integration, determinism defect,
# convergence, adaptive quadrature) and `atoms` (atom-supported chains: the
# acyclic and the iterate-and-certify countable paths, absorption, and the
# command-line tool with its serializers) share only `numbers`, `mdp` and
# `check_convergence`, so a change to one side's own paths is predicted to
# leave the other unchanged.  The tail percentiles fall inside a band of
# similar latencies of a cycle.
WORKLOADS = {
    w.NAME: w
    for w in (
        Mixed("segments", (selector_closure, continuum_quadrature), tail_pct=80),
        Mixed("atoms", (ladder, cyclic_chains), tail_pct=75),
    )
}

# every run measures at least this many whole cycles over its inputs
MIN_CYCLES = 2
SETUP_REPS = 9
# stop within the current cycle once this much analysis time has passed,
# so that a much slower program still ends well inside the time limit
HARD_STOP_S = 120.0

END_TO_END = (
    ("setup_s", "s"),
    ("analyses_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("answered_frac", "ratio"),
    ("exact_frac", "ratio"),
    ("peak_rss_mb", "MB"),
)

# every library call the workloads record as a span
CALLS = (
    "mdp.strategy_build",
    "mdp.validate_model",
    "occupation.occupation_unroll",
    "occupation.occupation_countable",
    "occupation.expected_hitting_time",
    "occupation.survival_probs",
    "occupation.tail_sum",
    "measure.integrate",
    "measure.marginal_state",
    "topology.determinism_defect",
    "topology.check_convergence",
    "topology.make_battery",
    "absorption.verify_supersolution",
    "serialize.model_to_dict",
    "serialize.save_json",
    "serialize.load_json",
    "serialize.model_from_dict",
    "serialize.measure_to_dict",
    "serialize.dumps",
    "cli.main",
)

PER_LAYER = (
    ("trace.analyses_per_s", "1/s"),
    ("numbers.exact_add_ns", "ns"),
    ("numbers.exact_mul_ns", "ns"),
    ("numbers.construct_ns", "ns"),
    ("numbers.float_mul_ns", "ns"),
    ("numbers.max_denominator_digits", "count"),
    ("spaces.point.us", "us"),
    ("spaces.atoms", "count"),
    ("mdp.resolve_rule.us", "us"),
    ("occupation.components", "count"),
    ("occupation.reachable_states", "count"),
    ("occupation.refused", "count"),
    ("occupation.tail_nonzero", "count"),
    ("occupation.bound_misses", "count"),
    ("quadrature.evals", "count"),
    ("quadrature.err_over_tol", "ratio"),
    ("quadrature.bound_misses", "count"),
    ("quadrature.gross_misses", "count"),
    ("serialize.bytes_out", "count"),
    ("cli.exit_nonzero", "count"),
) + tuple(
    (f"{call}.{kind}", unit)
    for call in CALLS
    for kind, unit in (("calls", "count"), ("failed", "count"), ("self_pct", "%"))
)


def parse_args(argv):
    p = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__)
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--toy", action="store_true", help="tiny inputs, for the benchmark's own tests")
    return p.parse_args(argv)


def generate(workload, seed: int, toy: bool):
    """The workload's inputs and their digest; the same seed gives the
    same inputs."""
    rng = random.Random(f"{workload.NAME}:{seed}")
    spec = workload.generate(rng, toy)
    blob = json.dumps(spec, sort_keys=True, default=str).encode()
    return spec, hashlib.sha256(blob).hexdigest()[:16]


def import_library():
    """A fresh import of the library, so that every set-up pays for it."""
    for name in [n for n in sys.modules if n == "absorbing_mdp" or n.startswith("absorbing_mdp.")]:
        del sys.modules[name]
    return importlib.import_module("absorbing_mdp")


def setup(workload, spec, want, tracer, reps: int, workdir: str):
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        lib = import_library()
        state = workload.build(lib, spec, want, tracer, workdir)
        times.append(time.perf_counter() - t0)
    return times, lib, state


def percentile(values, pct: float) -> float:
    """Linear interpolation between order statistics."""
    v = sorted(values)
    pos = (len(v) - 1) * pct / 100
    lo = int(pos)
    hi = min(lo + 1, len(v) - 1)
    return v[lo] + (v[hi] - v[lo]) * (pos - lo)


class Loop:
    """The closed loop and what it observed."""

    def __init__(self):
        self.latencies: list = []
        self.refused = 0
        self.failed = 0
        self.busy = 0.0
        self.cycles = 0
        self.counts = defaultdict(int)
        self.checker = Checker()

    @property
    def attempted(self) -> int:
        return len(self.latencies)

    @property
    def answered(self) -> int:
        return self.attempted - self.refused - self.failed


def drive(workload, lib, state, spec, want, tracer, seconds: float) -> Loop:
    loop = Loop()
    refusals = (Refused, lib.SolverError, lib.measure.IntegrationError)
    while loop.cycles < MIN_CYCLES or loop.busy < seconds:
        for item, w in zip(spec["items"], want):
            tracer.begin_analysis(loop.attempted)
            t0 = time.perf_counter()
            try:
                got = workload.analyse(lib, state, item, tracer)
                outcome = "answered"
            except refusals:
                outcome = "refused"
            except Mismatch:
                raise
            except Exception:  # a crash is counted, reported, and the loop goes on
                outcome = "failed"
                if loop.failed < 3:
                    traceback.print_exc()
            dt = time.perf_counter() - t0
            loop.latencies.append(dt)
            loop.busy += dt
            if outcome == "answered":
                workload.check(state, item, w, got, loop.checker, loop.counts)
                # free the result here: rebinding `got` inside the next timed
                # region would charge its deallocation to the next analysis
                del got
            elif outcome == "refused":
                loop.refused += 1
            else:
                loop.failed += 1
            if loop.busy > HARD_STOP_S:
                print(f"note: stopped inside cycle {loop.cycles + 1} after {loop.busy:.1f} s", file=sys.stderr)
                loop.cycles = loop.attempted / len(spec["items"])
                return loop
        loop.cycles += 1
    return loop


def end_to_end(workload, loop: Loop, setup_times) -> dict:
    chk = loop.checker
    return {
        "setup_s": statistics.median(setup_times),
        "analyses_per_s": loop.answered / loop.busy,
        "latency_p50_ms": 1e3 * statistics.median(loop.latencies),
        "latency_tail_ms": 1e3 * percentile(loop.latencies, workload.TAIL_PCT),
        "answered_frac": loop.answered / loop.attempted,
        "exact_frac": chk.exact / chk.values if chk.values else 0.0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def per_layer(workload, lib, state, loop: Loop, tracer: Tracer) -> dict:
    chk = loop.checker
    per_cycle = 1.0 / loop.cycles
    out = {
        "trace.analyses_per_s": loop.answered / loop.busy,
        **probes.numbers_ns(lib, chk.fractions, chk.floats),
        "numbers.max_denominator_digits": chk.max_den_digits,
    }
    target = workload.probe_target(state)
    out["spaces.point.us"] = probes.space_point_us(target.states)
    out["spaces.atoms"] = len(target.states.atoms)
    out["mdp.resolve_rule.us"] = probes.resolve_rule_us(lib, target)
    for name in ("occupation.components", "occupation.reachable_states", "occupation.tail_nonzero",
                 "quadrature.evals", "serialize.bytes_out"):
        out[name] = loop.counts[name] * per_cycle
    out["occupation.refused"] = loop.refused * per_cycle
    out["cli.exit_nonzero"] = sum(part.get("exit_nonzero", 0) for part in state.values()) * per_cycle
    out["occupation.bound_misses"] = chk.bound_misses.get("occupation", 0) * per_cycle
    out["quadrature.bound_misses"] = chk.bound_misses.get("quadrature", 0) * per_cycle
    out["quadrature.gross_misses"] = chk.gross_misses * per_cycle
    out["quadrature.err_over_tol"] = statistics.median(chk.err_ratios) if chk.err_ratios else 0.0
    summary = tracer.summary()
    setup_calls = {s[0] for s in tracer.spans if s[4] == "setup"}
    traced_s = tracer.spanned_s()
    for call in CALLS:
        row = summary.get(call, {"calls": 0, "failed": 0, "self_s": 0.0})
        scale = 1 if call in setup_calls else per_cycle
        out[f"{call}.calls"] = row["calls"] * scale
        out[f"{call}.failed"] = row["failed"] * scale
        out[f"{call}.self_pct"] = 100 * row["self_s"] / traced_s if traced_s else 0.0
    return out


def layer_table(loop: Loop, tracer: Tracer) -> list:
    """Human-readable per-call lines: mean and self time per call."""
    lines = ["layer call                              calls/cycle  failed   mean_ms    self_ms  self_%"]
    summary = tracer.summary()
    traced_s = tracer.spanned_s()
    for call in CALLS:
        row = summary.get(call)
        if row is None:
            lines.append(f"{call:<38} {'n/a':>11}")
            continue
        lines.append(
            f"{call:<38} {row['calls'] / loop.cycles:>11.2f} {row['failed']:>7d} "
            f"{1e3 * row['total_s'] / row['calls']:>9.3f} {1e3 * row['self_s'] / row['calls']:>10.3f} "
            f"{100 * row['self_s'] / traced_s:>7.2f}"
        )
    integrate = summary.get("measure.integrate")
    comps = loop.counts["occupation.components"]
    if integrate and comps:
        # every analysis integrates the same number of functions over its measure
        component_integrals = integrate["calls"] / loop.answered * comps
        lines.append(f"measure.integrate.us_per_component {1e6 * integrate['total_s'] / component_integrals:.3f}")
    return lines


def main(argv) -> int:
    args = parse_args(argv)
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "absorbing_mdp", "__init__.py")):
        print(f"error: no library source under {src}; run from a checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    workload = WORKLOADS[args.workload]

    spec, digest = generate(workload, args.seed, args.toy)
    print(f"inputs: workload={workload.NAME} seed={args.seed} items={len(spec['items'])} digest={digest}")
    want = workload.reference(spec)

    workdir = os.path.join(root, ".bench_work", f"{workload.NAME}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    tracer = Tracer() if args.trace else NullTracer()
    tracer.begin_analysis("setup")
    setup_times, lib, state = setup(workload, spec, want, tracer, 1 if args.trace else SETUP_REPS, workdir)
    if args.trace:
        workload.instrument(state, tracer)
    gc.collect()

    cal_before = probes.calibration_ms()
    try:
        loop = drive(workload, lib, state, spec, want, tracer, args.seconds)
    except Mismatch as exc:
        print(f"error: wrong value: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    cal_after = probes.calibration_ms()

    print(f"env.cal_ms: before={cal_before:.2f} after={cal_after:.2f}")
    print(f"setup_s: {' '.join(f'{t:.4f}' for t in setup_times)}")
    print(
        f"loop: cycles={loop.cycles:g} attempted={loop.attempted} answered={loop.answered} "
        f"refused={loop.refused} failed={loop.failed} busy_s={loop.busy:.3f} "
        f"tail=p{workload.TAIL_PCT} values={loop.checker.values} exact={loop.checker.exact}"
    )
    if args.trace:
        metrics = per_layer(workload, lib, state, loop, tracer)
        for line in layer_table(loop, tracer):
            print(line)
        trace_path = os.path.join(root, ".bench_work", f"trace-{workload.NAME}-seed{args.seed}.json")
        tracer.write(trace_path)
        print(f"spans: {len(tracer.spans)} written to {os.path.relpath(trace_path, root)}")
        units = dict(PER_LAYER)
    else:
        metrics = end_to_end(workload, loop, setup_times)
        units = dict(END_TO_END)
    result = {
        "correct": True,  # a value that disagreed with the reference ended the run above
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(result))
    return 0
