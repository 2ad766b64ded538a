"""Independent exact reference for every workload.

Nothing here imports the library.  Chains are plain dictionaries
``{state: {successor: Fraction}}`` over in-play states only: mass that
leaves the dictionary is absorbed (or, for the ladder, enters the frontier).
Closed forms for the segment workloads are written out cell by cell.
"""

from __future__ import annotations

import math
from fractions import Fraction

F = Fraction


# -- atom-supported chains -------------------------------------------------


def visits_acyclic(q: dict, start: str, order) -> dict:
    """Expected visits per state for a chain that is acyclic apart from
    self-loops, by back-substitution along `order` (a topological order)."""
    enter = {x: F(0) for x in order}
    enter[start] = F(1)
    visits = {}
    for x in order:
        if enter[x] == 0:
            continue
        row = q.get(x, {})
        stay = row.get(x, F(0))
        if stay >= 1:
            raise ValueError(f"state {x!r} never leaves itself")
        v = enter[x] / (1 - stay)
        visits[x] = v
        for y, p in row.items():
            if y != x and y in enter:
                enter[y] += v * p
    return visits


def visits_dense(q: dict, start: str) -> dict:
    """Expected visits per state, v = e_start (I - Q)^-1, by Gaussian
    elimination over the rationals on (I - Q)^T v = e_start.  Successors
    without a row of their own count as leaving the chain."""
    states = sorted(q)
    index = {s: i for i, s in enumerate(states)}
    n = len(states)
    # row i of the system is column i of I - Q
    a = [[F(0)] * n + [F(1) if states[i] == start else F(0)] for i in range(n)]
    for i, s in enumerate(states):
        a[i][i] += 1
        for t, p in q[s].items():
            if t in index:
                a[index[t]][i] -= p
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col] != 0), None)
        if piv is None:
            raise ValueError("I - Q is singular: some state never escapes")
        a[col], a[piv] = a[piv], a[col]
        prow = a[col]
        inv = 1 / prow[col]
        for j in range(col, n + 1):
            prow[j] *= inv
        for r in range(n):
            if r != col and a[r][col] != 0:
                f = a[r][col]
                row = a[r]
                for j in range(col, n + 1):
                    if prow[j]:
                        row[j] -= f * prow[j]
    return {s: a[index[s]][n] for s in states if a[index[s]][n] != 0}


def survival(q: dict, start: str, n_max: int) -> list:
    """P(still in play at t) for t = 0..n_max, by exact forward stepping."""
    dist = {start: F(1)}
    out = []
    for t in range(n_max + 1):
        out.append(sum(dist.values(), F(0)))
        if t == n_max:
            break
        nxt: dict = {}
        for x, m in dist.items():
            for y, p in q.get(x, {}).items():
                nxt[y] = nxt.get(y, F(0)) + m * p
        dist = nxt
    return out


# -- the rung ladder -------------------------------------------------------


def ladder_row(n: int, action: str) -> dict:
    """Successors of rung b<n> under one action, cemetery omitted."""
    up = f"b{n + 1}"
    if action == "1":
        if n <= 2:
            return {}
        return {f"b{n}": 1 - F(1, 2 ** (n - 2))}
    if action == "2":
        return {up: F(1, 2)}
    return {up: F(1, 2), "1": F(1, 4)}


def ladder_policy(strategy: dict, state: str) -> dict:
    """Action weights of a ladder strategy spec at a state."""
    kind = strategy["kind"]
    if kind == "climb":
        if state.startswith("b") and int(state[1:]) <= strategy["n"]:
            return {"2": F(1)}
        return {"3": F(1)} if state == "1" else {"1": F(1)}
    if kind == "branch":
        return {"3": F(1)}
    w3 = F(strategy["w3"])
    return {"2": 1 - w3, "3": w3}


def ladder_chain(depth: int, strategy: dict) -> dict:
    """Strategy-fixed chain on rungs b1..b<depth> and the limit state "1";
    the frontier rung b<depth+1> is kept as a sink entry."""
    q: dict = {}
    for n in range(1, depth + 1):
        row: dict = {}
        for a, w in ladder_policy(strategy, f"b{n}").items():
            for y, p in ladder_row(n, a).items():
                row[y] = row.get(y, F(0)) + w * p
        q[f"b{n}"] = row
    q["1"] = {}
    return q


def ladder_order(depth: int) -> list:
    return [f"b{n}" for n in range(1, depth + 2)] + ["1"]


def ladder_remaining(strategy: dict) -> Fraction:
    """Expected further time of a unit of mass entering the frontier, on the
    infinite ladder (zero when the strategy never reaches it)."""
    if strategy["kind"] == "climb":
        return F(0)
    w3 = F(1) if strategy["kind"] == "branch" else F(strategy["w3"])
    # up with probability 1/2 under either climbing action: 2 rung visits
    # on average, each branching to the limit state with probability w3/4
    return 2 + w3 / 2


def ladder_candidate(n: int) -> Fraction:
    """Closed-form worst-case hitting time at rung b<n>."""
    return F(5, 2) + F(2) ** (n - 2)


def ladder_candidate_kind(depth: int) -> str:
    """Exact comparison of the candidate against its Bellman image on
    b1..b<depth> and the limit state."""
    def w(name):
        if name == "1":
            return F(1)
        return ladder_candidate(int(name[1:]))

    strict = False
    for n in range(1, depth + 1):
        best = max(
            sum((p * w(y) for y, p in ladder_row(n, a).items()), F(0)) for a in ("1", "2", "3")
        )
        lhs, rhs = w(f"b{n}"), 1 + best
        if lhs < rhs:
            return "violated"
        strict = strict or lhs > rhs
    # the limit state absorbs surely under every action: T w = 1 = w
    return "strict_supersolution" if strict else "fixed_point"


def ladder_coord(name: str) -> Fraction:
    if name == "1":
        return F(1)
    n = int(name[1:])
    return F(2 ** n - 1, 2 ** n)


# -- battery-relative convergence -------------------------------------------


def convergence_verdict(values: dict, limits: dict, names, tol: float):
    """(verdict, witness, witness_gap) for a one-measure sequence, by the
    rule: converge iff every gap <= tol; the witness is the bad function with
    the largest gap, preferring gaps >= 10*tol."""
    t = F(tol)
    gaps = {f: abs(values[f] - limits[f]) for f in names}
    bad = [f for f in names if not gaps[f] <= t]
    if not bad:
        return "converges", None, None
    pool = [f for f in bad if gaps[f] >= 10 * t] or bad
    witness = max(pool, key=lambda f: float(gaps[f]))
    return "diverges", witness, gaps[witness]


# -- selector closure --------------------------------------------------------

SELECTOR_FUNCTIONS = (
    "unit",
    "coordinate",
    "coordinate-squared",
    "chosen-action",
    "coordinate-times-action",
    "flipped-coordinate-times-action",
    "upper-third-action",
)
SELECTOR_W = SELECTOR_FUNCTIONS[:6]


def selector_integrals(actions: str) -> dict:
    """Integrals of the selector battery against the occupation of a
    selector with `actions[j]` on cell j of 2^k equal cells; the start atom
    plays action "0" and contributes 1 to "unit" only."""
    cells = len(actions)
    out = {f: F(0) for f in SELECTOR_FUNCTIONS}
    out["unit"] = F(1)
    third = F(1, 3)
    for j, a in enumerate(actions):
        lo, hi = F(j, cells), F(j + 1, cells)
        length = hi - lo
        first = (hi * hi - lo * lo) / 2
        out["unit"] += length
        out["coordinate"] += first
        out["coordinate-squared"] += (hi ** 3 - lo ** 3) / 3
        if a == "1":
            out["chosen-action"] += length
            out["coordinate-times-action"] += first
            out["flipped-coordinate-times-action"] += length - first
            out["upper-third-action"] += max(F(0), hi - max(lo, third))
    return out


def fair_coin_integrals() -> dict:
    half = F(1, 2)
    return {
        "unit": F(2),
        "coordinate": half,
        "coordinate-squared": F(1, 3),
        "chosen-action": half,
        "coordinate-times-action": F(1, 4),
        "flipped-coordinate-times-action": F(1, 4),
        "upper-third-action": F(1, 3),
    }


def defect(cells) -> Fraction:
    """Determinism defect of a measure given as (length, {action: mass})
    cells: the mass not carried by the heaviest action, summed."""
    total = F(0)
    for length, per_action in cells:
        masses = list(per_action.values())
        total += length * (sum(masses, F(0)) - max(masses))
    return total


# -- continuum quadrature ------------------------------------------------------


def pieces_integral(breaks, heights, antiderivative):
    return sum(
        (h * (antiderivative(b) - antiderivative(a)) for a, b, h in zip(breaks, breaks[1:], heights)),
        F(0),
    )


def kink_integral(breaks, heights, c: Fraction) -> Fraction:
    """Integral of |x - c| against a piecewise-constant density."""
    def anti(x):
        # antiderivative of |x - c|, continuous at c
        d = x - c
        return d * abs(d) / 2
    return pieces_integral(breaks, heights, anti)


def moment_integral(breaks, heights) -> Fraction:
    return pieces_integral(breaks, heights, lambda x: x * x / 2)


def _above_diagonal(x0, x1, a0, a1) -> Fraction:
    """Area of {(x, a): a > x} inside [x0, x1] x [a0, a1]."""
    def g(x):  # length of {a in [a0, a1]: a > x}
        return max(F(0), a1 - max(a0, x))
    pts = sorted({x0, x1} | {p for p in (a0, a1) if x0 < p < x1})
    total = F(0)
    for lo, hi in zip(pts, pts[1:]):
        total += (g(lo) + g(hi)) * (hi - lo) / 2  # g is linear between the points
    return total


def step_integral(xb, xh, ab, ah) -> Fraction:
    total = F(0)
    for x0, x1, hx in zip(xb, xb[1:], xh):
        for a0, a1, ha in zip(ab, ab[1:], ah):
            total += hx * ha * _above_diagonal(x0, x1, a0, a1)
    return total


def oscillation_integral(xb, xh, omega: float, ab, ah, nu: float) -> tuple[float, float]:
    """(value, error) of the integral of sin(omega x) cos(nu a) against the
    product density, as a product of two one-dimensional closed forms."""
    s = math.fsum(
        float(h) * (math.cos(omega * float(a)) - math.cos(omega * float(b))) / omega
        for a, b, h in zip(xb, xb[1:], xh)
    )
    c = math.fsum(
        float(h) * (math.sin(nu * float(b)) - math.sin(nu * float(a))) / nu
        for a, b, h in zip(ab, ab[1:], ah)
    )
    value = s * c
    return value, 1e-13 * (1.0 + abs(value))
