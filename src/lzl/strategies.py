"""Executable cop strategies: trees, pathwidth, domination, separators, lifts.

Schedule generators (prox mode) are verified mechanically by the
contamination engine; policy generators (localization mode) are verified by
adversarial simulation.  Where a strategy leaves round-level slack the
generators may spend extra rounds, never extra cops.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Callable, Sequence

from .errors import (
    GraphValidationError,
    ScheduleError,
    SeparatorContractError,
    SizeCapError,
    StrategyPreconditionError,
)
from .graphs import (
    Graph,
    check_mask,
    closed_nb_bits,
    components_bits,
    distances,
    induced_subgraph,
    is_c4_free,
    iter_bits,
    mask_of,
    max_degree,
    neighbor_tuples,
    rooted_tree,
)
from .prox import ProbeSchedule, prox_solve, run_schedule
from .zeta import Policy, SchedulePolicy

#: Largest orders the exhaustive pathwidth, domination and separator searches accept.
PATHWIDTH_CAP = 10
DOMINATION_CAP = 20
SEPARATOR_CAP = 20


def _require_tree(g: Graph) -> None:
    if not g.is_tree():
        raise GraphValidationError("operation requires a tree")


# -- midway vertex and the order-based strategy ---------------------------


def _midway_bits(g: Graph, comp: int) -> int:
    """Smallest vertex of the subtree ``comp`` whose removal leaves parts of order <= |comp|/2."""
    size = comp.bit_count()
    for v in iter_bits(comp):
        parts = components_bits(g, comp & ~(1 << v))
        if all(2 * p.bit_count() <= size for p in parts):
            return v
    raise AssertionError("every tree has a midway vertex")


def _log_rounds(g: Graph, comp: int) -> list[int]:
    size = comp.bit_count()
    if size == 1:
        return [comp]
    if size == 2:
        return [comp & -comp]  # probing one endpoint separates both
    x = _midway_bits(g, comp)
    rounds: list[int] = []
    for part in components_bits(g, comp & ~(1 << x)):
        rounds.extend(_log_rounds(g, part))
    return [(1 << x) | r for r in rounds]


def strat_tree_log(g: Graph) -> Policy:
    """Midway-recursion policy with budget ceil(log2 n).

    One cop pins the midway vertex every round while the remaining budget
    sweeps each component in turn; components recurse the same way.
    """
    _require_tree(g)
    if g.n < 2:
        raise GraphValidationError("order strategy needs n >= 2")
    budget = (g.n - 1).bit_length()
    rounds = [set(iter_bits(r)) for r in _log_rounds(g, (1 << g.n) - 1)]
    return SchedulePolicy(rounds, budget=budget, name="tree-log")


# -- depth-based prox strategy ---------------------------------------------


def _leaf_paths(g: Graph, root: int) -> list[list[int]]:
    """Root-to-leaf paths in DFS order, children visited ascending."""
    parent, children, depth = rooted_tree(g, root)
    paths = []
    stack = [root]
    while stack:
        v = stack.pop()
        if not children[v] and v != root:
            path = []
            w = v
            while w != -1:
                path.append(w)
                w = parent[w]
            paths.append(path[::-1])
        for c in reversed(children[v]):
            stack.append(c)
    if not paths:  # single-vertex tree
        paths = [[root]]
    return paths


def strat_tree_depth(g: Graph, root: int) -> ProbeSchedule:
    """Two probe rounds per leaf path: indices 0 mod 4, then 2 mod 4.

    Clears leaf paths in DFS order; a path of length q spends one round on
    {u_{4j}} and one on {u_{4j+2}}, so paths shorter than 4 degenerate to
    probing u_0 and, when q >= 2, u_2.  Budget floor(d/4)+1.
    """
    _require_tree(g)
    rounds: list[set[int]] = []
    per_path = []
    for path in _leaf_paths(g, root):
        q = len(path) - 1
        round_a = {path[4 * j] for j in range(q // 4 + 1)}
        round_b = {path[4 * j + 2] for j in range((q - 2) // 4 + 1)} if q >= 2 else set()
        rounds.append(round_a)
        rounds.append(round_b)
        per_path.append({"leaf": path[-1] + 1, "length": q})
    budget = max(1, max(len(r) for r in rounds))
    return ProbeSchedule.from_lists(
        budget,
        rounds,
        metadata={"strategy": "tree-depth", "root": root + 1, "paths": per_path},
    )


# -- level decomposition and the level-line prox strategy -------------------


@dataclass(frozen=True)
class LevelDecomposition:
    root: int
    levels: tuple[int, ...]  # masks of L_1..L_d by distance from the root
    nonleaf_counts: tuple[int, ...]

    @property
    def depth(self) -> int:
        return len(self.levels)

    @property
    def max_nonleaf(self) -> int:
        return max(self.nonleaf_counts, default=0)


def level_decomposition(g: Graph, root: int) -> LevelDecomposition:
    _require_tree(g)
    dist = distances(g, root)
    levels = [0] * (max(dist) + 1)
    counts = [0] * len(levels)
    for v, i in enumerate(dist):
        levels[i] |= 1 << v
        counts[i] += g.degree(v) >= 2
    return LevelDecomposition(root, tuple(levels[1:]), tuple(counts[1:]))


class _Guard:
    """One cop cycling a fixed group of at most three vertices."""

    __slots__ = ("cycle", "pos")

    def __init__(self, cycle: Sequence[int]):
        self.cycle = list(cycle)
        self.pos = 0

    def tick(self) -> int:
        v = self.cycle[self.pos % len(self.cycle)]
        self.pos += 1
        return v


def strat_tree_levels(g: Graph, root: int) -> ProbeSchedule:
    """Level-line prox strategy with budget ceil(max nonleaf-per-level / 3) + 1.

    Vertices with children on one level form the line: each group of at
    most three is cycled by one cop, which walls off everything below.  The
    line advances upward one level at a time: new groups on the level above
    start cycling while old groups keep their wall, and an old group
    retires once all parents of its vertices have been probed by an active
    new group.  The spare cop both seeds new groups ahead of retirements
    and finishes the game with root probes.  Group membership is ascending
    vertex order, last group possibly smaller; the choreography is recorded
    in the metadata since round-level choices beyond the cop budget are
    free.
    """
    _require_tree(g)
    parent, children, depth = rooted_tree(g, root)
    d = max(depth)
    ld = level_decomposition(g, root) if d >= 1 else None
    k = -(-ld.max_nonleaf // 3) if ld else 0
    budget = k + 1
    rounds: list[set[int]] = []
    guards: list[_Guard] = []

    def emit(extra: Sequence[int] = ()) -> None:
        probes = set(extra)
        for gd in guards:
            probes.add(gd.tick())
        if len(probes) > budget:
            raise AssertionError("level strategy exceeded its cop budget")
        rounds.append(probes)

    nonleaf_by_level = {
        j: [v for v in iter_bits(ld.levels[j - 1]) if children[v]]
        for j in range(1, d + 1)
    } if ld else {}

    for j in range(d - 1, 0, -1):
        old_guards = guards
        order: list[int] = []
        seen: set[int] = set()
        for og in sorted(old_guards, key=lambda og: min(parent[v] for v in og.cycle)):
            for v in og.cycle:
                p = parent[v]
                if p not in seen:
                    seen.add(p)
                    order.append(p)
        for v in nonleaf_by_level[j]:
            if v not in seen:
                seen.add(v)
                order.append(v)
        pending = deque(order[i : i + 3] for i in range(0, len(order), 3))
        guards = []
        new_guards: list[_Guard] = []
        probed_new: set[int] = set()

        while pending or old_guards:
            old_guards = [
                og
                for og in old_guards
                if not {parent[v] for v in og.cycle} <= probed_new
            ]
            while pending and len(old_guards) + len(new_guards) < budget:
                new_guards.append(_Guard(pending.popleft()))
            if not pending and not old_guards:
                break
            guards = old_guards + new_guards
            emit()
            for gd in new_guards:
                probed_new.add(gd.cycle[(gd.pos - 1) % len(gd.cycle)])
        guards = new_guards
        for _ in range(3 if guards else 0):
            emit()

    # line sits on level 1; only the root and its leaf children remain
    for _ in range(2):
        emit((root,))
    return ProbeSchedule.from_lists(
        budget,
        rounds,
        metadata={
            "strategy": "tree-levels",
            "root": root + 1,
            "max_nonleaf_per_level": ld.max_nonleaf if ld else 0,
            "grouping": "ascending vertex order, last group may be smaller",
        },
    )


# -- path decompositions ----------------------------------------------------


@dataclass(frozen=True)
class PathDecomposition:
    bags: tuple[int, ...]

    @property
    def width(self) -> int:
        return max(b.bit_count() for b in self.bags) - 1


def validate_path_decomposition(g: Graph, bags: Sequence[int]) -> list[str]:
    """Return the list of violated properties (empty when valid)."""
    violations = []
    cover = 0
    for i, b in enumerate(bags, start=1):
        check_mask(g, b, f"bag {i}")
        cover |= b
    if cover != (1 << g.n) - 1:
        violations.append("(1) bags do not cover every vertex")
    for u, v in g.edges():
        uv = (1 << u) | (1 << v)
        if not any(b & uv == uv for b in bags):
            violations.append(f"(2) edge ({u + 1}, {v + 1}) is in no bag")
            break
    for v in range(g.n):
        idx = [i for i, b in enumerate(bags) if (b >> v) & 1]
        if idx and idx != list(range(idx[0], idx[-1] + 1)):
            violations.append(f"(3) bags containing vertex {v + 1} are not contiguous")
            break
    return violations


def normalize_path_decomposition(
    g: Graph, bags: Sequence[int]
) -> PathDecomposition:
    """Drop redundant bags and trailing bag vertices without bag neighbors.

    After normalization every bag differs from its successor, and every
    vertex in its last bag keeps a neighbor inside that bag (a vertex whose
    only bag it is always does, in a connected graph).
    """
    violations = validate_path_decomposition(g, bags)
    if violations:
        raise ScheduleError("; ".join(violations))
    work = list(bags)
    changed = True
    while changed:
        changed = False
        # drop bags contained in a neighbor
        for i in range(len(work) - 1, -1, -1):
            if len(work) == 1:
                break
            nb = []
            if i > 0:
                nb.append(work[i - 1])
            if i + 1 < len(work):
                nb.append(work[i + 1])
            if any(work[i] & ~other == 0 for other in nb):
                del work[i]
                changed = True
        # trim a vertex from its last bag when it has no neighbor there
        for v in range(g.n):
            idx = [i for i, b in enumerate(work) if (b >> v) & 1]
            if len(idx) >= 2:
                last = idx[-1]
                if g.adj_bits[v] & work[last] == 0:
                    work[last] &= ~(1 << v)
                    changed = True
    return PathDecomposition(tuple(work))


def brute_pathwidth(g: Graph) -> PathDecomposition:
    """Minimum-width decomposition via exhaustive search over vertex orders.

    Dynamic program over prefix subsets (vertex separation form): the cost
    of a prefix is its count of vertices with a neighbor outside, and the
    optimal ordering is reconstructed from the subset table.
    """
    if g.n > PATHWIDTH_CAP:
        raise SizeCapError("exhaustive pathwidth", g.n, PATHWIDTH_CAP)
    n = g.n
    full = (1 << n) - 1
    adj = g.adj_bits
    active = [0] * (full + 1)
    for s in range(1, full + 1):
        active[s] = sum(1 for v in iter_bits(s) if adj[v] & ~s)

    best = [0] * (full + 1)
    choice = [-1] * (full + 1)
    for s in range(1, full + 1):
        cost = active[s]
        b = None
        c = -1
        for v in iter_bits(s):
            prev = best[s & ~(1 << v)]
            val = prev if prev > cost else cost
            if b is None or val < b or (val == b and v < c):
                b, c = val, v
        best[s] = b
        choice[s] = c
    order = []
    s = full
    while s:
        v = choice[s]
        order.append(v)
        s &= ~(1 << v)
    order.reverse()
    pos = {v: i for i, v in enumerate(order)}
    bags = []
    for i, v in enumerate(order):
        bag = 1 << v
        for u in order[:i]:
            if any(pos[w] >= i for w in iter_bits(adj[u])):
                bag |= 1 << u
        bags.append(bag)
    assert max(b.bit_count() for b in bags) - 1 == best[full]
    return normalize_path_decomposition(g, bags)


def strat_pathwidth(g: Graph, decomposition: PathDecomposition) -> Policy:
    """Probe each bag minus one designated vertex, left to right.

    The designated vertex of a bag is a bag neighbor of a vertex leaving
    the decomposition at that bag, so an adjacency flag there pins the
    robber.  Budget equals the decomposition width.
    """
    bags = decomposition.bags
    if validate_path_decomposition(g, bags):
        raise StrategyPreconditionError("invalid path decomposition")
    if g.n == 1:
        # the robber's one vertex is known before any probe
        return SchedulePolicy([], budget=1, name="pathwidth")
    rounds = []
    k = len(bags)
    for i, bag in enumerate(bags):
        if k == 1:
            leaving = bag
        elif i + 1 < k:
            leaving = bag & ~bags[i + 1]
        else:
            leaving = bag & ~bags[i - 1]
        u = (leaving & -leaving).bit_length() - 1  # lowest leaving vertex
        nb = g.adj_bits[u] & bag if leaving else 0  # its neighbours in the bag
        if not nb:
            raise StrategyPreconditionError(
                f"bag {i + 1} has no leaving vertex with a bag neighbor; normalize first"
            )
        rounds.append(set(iter_bits(bag & ~(nb & -nb))))
    budget = max(1, decomposition.width)
    return SchedulePolicy(rounds, budget=budget, name="pathwidth")


# -- domination -------------------------------------------------------------


def min_dominating_set(g: Graph) -> int:
    if g.n > DOMINATION_CAP:
        raise SizeCapError("exhaustive domination", g.n, DOMINATION_CAP)
    full = (1 << g.n) - 1
    for size in range(1, g.n + 1):
        for combo in combinations(range(g.n), size):
            dom = mask_of(combo)
            if closed_nb_bits(g, dom) == full:
                return dom
    raise AssertionError("V(G) always dominates")


class DominationPolicy(Policy):
    """Dominating-set cops plus a neighborhood squad chasing adjacency flags.

    The dominators probe every round; when some probe returns 1 the next
    round also probes that vertex's whole neighborhood.  On a C4-free graph
    the pair of adjacency flags then identifies the robber uniquely.
    """

    def __init__(self, g: Graph, dom: int):
        self.g = g
        self.dom = frozenset(iter_bits(dom))
        self.name = "domination"
        self.budget = dom.bit_count() + max_degree(g)

    def probes(self, state) -> frozenset[int]:
        if state is None:
            return self.dom
        return self.dom | frozenset(iter_bits(self.g.adj_bits[state]))

    def advance(self, state, flagged):
        return flagged[0] if flagged else None


def strat_domination(g: Graph, dominating_set: int | None = None) -> Policy:
    if dominating_set is not None:
        check_mask(g, dominating_set, "dominating set")
    if not is_c4_free(g):
        raise StrategyPreconditionError("domination strategy needs a C4-free graph")
    dom = dominating_set if dominating_set is not None else min_dominating_set(g)
    if closed_nb_bits(g, dom) != (1 << g.n) - 1:
        raise StrategyPreconditionError("given set is not dominating")
    return DominationPolicy(g, dom)


# -- separators --------------------------------------------------------------


def balanced_separator_brute(
    g: Graph,
    part_fraction: Fraction = Fraction(2, 3),
) -> tuple[int, int, int]:
    """Smallest C with the components of G - C splittable into balanced parts.

    Returns the masks (A, B, C).
    """
    if g.n > SEPARATOR_CAP:
        raise SizeCapError("exhaustive separator", g.n, SEPARATOR_CAP)
    n = g.n
    full = (1 << n) - 1
    limit_num = part_fraction.numerator * n
    limit_den = part_fraction.denominator
    for size in range(0, n + 1):
        for combo in combinations(range(n), size):
            c_bits = mask_of(combo)
            comps = components_bits(g, full & ~c_bits)
            comps.sort(key=lambda m: -m.bit_count())
            split = _split_parts(comps, limit_num, limit_den)
            if split is not None:
                return (*split, c_bits)
    raise AssertionError("C = V always separates")


def _split_parts(comps: list[int], limit_num: int, limit_den: int):
    """Assign components to two parts, each of order <= limit_num/limit_den."""
    if len(comps) > 16:
        return None
    sizes = [c.bit_count() for c in comps]
    for assign in range(1 << len(comps)):
        a = sum(sizes[i] for i in range(len(comps)) if (assign >> i) & 1)
        b = sum(sizes) - a
        if a * limit_den <= limit_num and b * limit_den <= limit_num:
            a_bits = 0
            b_bits = 0
            for i, c in enumerate(comps):
                if (assign >> i) & 1:
                    a_bits |= c
                else:
                    b_bits |= c
            return a_bits, b_bits
    return None


SeparatorOracle = Callable[[Graph], tuple[int, int, int]]


def strat_separator(
    g: Graph, separator_oracle: SeparatorOracle | None = None
) -> ProbeSchedule:
    """Divide-and-conquer prox schedule: hold C every round, clear A then B.

    Base instances of order at most sqrt(n) of the original graph are
    probed wholesale in a single round under the accumulated guards.
    """
    oracle = separator_oracle or balanced_separator_brute
    base = max(1, math.isqrt(g.n))

    def rec(region: int, guards: int) -> list[int]:
        if region.bit_count() <= base:
            return [region | guards]
        sub, old = induced_subgraph(g, region)
        a, b, c = oracle(sub)
        _check_separator(sub, a, b, c)
        to_old = lambda m: mask_of(old[i] for i in iter_bits(m))
        a_bits, b_bits, c_bits = to_old(a), to_old(b), to_old(c)
        inner_guards = guards | c_bits
        rounds: list[int] = []
        for part in (a_bits, b_bits):
            if part:
                rounds.extend(rec(part, inner_guards))
        if not rounds:
            rounds = [inner_guards | region]
        return rounds

    round_masks = rec((1 << g.n) - 1, 0)
    budget = max(m.bit_count() for m in round_masks)
    return ProbeSchedule.from_lists(
        budget,
        [set(iter_bits(m)) for m in round_masks],
        metadata={"strategy": "separator", "base_size": base},
    )


def _check_separator(sub: Graph, a: int, b: int, c: int) -> None:
    n = sub.n
    if (a | b | c) != (1 << n) - 1 or a & b or a & c or b & c:
        raise SeparatorContractError("A, B, C must partition the region")
    if 3 * a.bit_count() > 2 * n or 3 * b.bit_count() > 2 * n:
        raise SeparatorContractError("parts exceed two thirds of the region")
    for v in iter_bits(a):
        if sub.adj_bits[v] & b:
            raise SeparatorContractError("edge between the two parts")


# -- lifting prox strategies into the localization game ---------------------


class TreeLiftPolicy(Policy):
    """Root-guard lift: replay a winning prox schedule beside a moving guard.

    One cop probes the current guard vertex every round; the schedule cops
    replay their winning rounds.  An adjacency flag away from the guard
    pins the robber's subtree, so the guard drops to that child and the
    replay restarts.  A flag at the guard alone pins nothing (the robber
    hides among the guard's neighbors, which no replay may ever separate),
    so it switches the schedule cops to a round-robin over the guard's
    neighbors until the robber is caught there, descends, or retreats out
    of sight; the pointer persists per guard so the robber cannot reset it
    by dipping in and out.  Budget is the schedule's plus one.  The state
    is (guard, mode, replay index, ring pointer); index and pointer wrap.
    """

    def __init__(self, g: Graph, schedule: ProbeSchedule, root: int):
        self.g = g
        self.schedule = schedule
        self.name = "lift-tree"
        self.budget = schedule.cops + 1
        self.root = root
        self.nbrs = neighbor_tuples(g)
        self.parent, _, self.depth = rooted_tree(g, root)

    def _toward(self, u: int, v: int) -> int:
        """The neighbor of u on the tree path from u to v != u."""
        w = v
        while self.depth[w] > self.depth[u] + 1:
            w = self.parent[w]
        return w if self.parent[w] == u else self.parent[u]

    def initial_state(self):
        return (self.root, "replay", 0, 0)

    def probes(self, state) -> frozenset[int]:
        guard, mode, idx, rr = state
        if mode == "standoff":
            return frozenset({guard, self.nbrs[guard][rr]})
        return self.schedule.rounds[idx] | {guard}

    def advance(self, state, flagged):
        guard, mode, idx, rr = state
        # a standoff round consumed ring[rr] whatever was observed
        if mode == "standoff":
            rr = (rr + 1) % len(self.nbrs[guard])
        for v in flagged:
            if v != guard:
                return (self._toward(guard, v), "replay", 0, 0)
        if flagged:
            return (guard, "standoff", idx, rr)
        if mode == "standoff":
            return (guard, "replay", 0, rr)
        return (guard, "replay", (idx + 1) % len(self.schedule.rounds), rr)


class EndgameLiftPolicy(Policy):
    """Large-budget lift: replay the prox schedule, then probe the two-ball.

    Needs budget >= max degree squared: once a probe flags adjacency at v,
    every vertex at distance one or two from v is probed next round, which
    determines the robber exactly.  The replay index wraps.
    """

    def __init__(self, g: Graph, schedule: ProbeSchedule):
        self.g = g
        self.schedule = schedule
        self.name = "lift-endgame"
        self.budget = schedule.cops
        # N[N[v]] minus v: every vertex at distance one or two from v
        self.ball2 = [
            frozenset(iter_bits(closed_nb_bits(g, closed_nb_bits(g, 1 << v)) & ~(1 << v)))
            for v in range(g.n)
        ]

    def initial_state(self):
        return ("replay", 0)

    def probes(self, state) -> frozenset[int]:
        kind, x = state
        if kind == "replay":
            return self.schedule.rounds[x]
        return self.ball2[x]

    def advance(self, state, flagged):
        kind, x = state
        if kind == "replay":
            if flagged:
                return ("endgame", flagged[0])
            return ("replay", (x + 1) % len(self.schedule.rounds))
        return ("replay", 0)


def lift_prox_to_zeta(
    g: Graph,
    prox_strategy: ProbeSchedule,
    *,
    variant: str = "delta",
    root: int = 0,
) -> Policy:
    """Turn a verified winning prox schedule into a localization policy.

    ``delta``: every probed vertex brings max-degree-minus-one neighbors
    along, budget Delta * cops.  ``tree``: root-guard-and-restart with
    budget cops + 1 (trees only).  ``endgame``: replay with the distance-2
    finish, budget cops, valid when cops >= Delta^2.
    """
    trace = run_schedule(g, prox_strategy)
    if not trace.cleared:
        raise StrategyPreconditionError(
            "prox strategy does not win the one-proximity game"
        )
    if variant == "delta":
        delta = max_degree(g)
        rounds = []
        for r in prox_strategy.rounds:
            probes = set(r)
            for u in sorted(r):
                probes.update(sorted(iter_bits(g.adj_bits[u]))[: delta - 1])
            rounds.append(probes)
        return SchedulePolicy(
            rounds, budget=delta * prox_strategy.cops, name="lift-delta"
        )
    if variant == "tree":
        _require_tree(g)
        return TreeLiftPolicy(g, prox_strategy, root)
    if variant == "endgame":
        delta = max_degree(g)
        if prox_strategy.cops < delta * delta:
            raise StrategyPreconditionError(
                "endgame lift needs cop budget at least max degree squared"
            )
        return EndgameLiftPolicy(g, prox_strategy)
    raise ValueError(f"unknown lift variant '{variant}'")


# -- registry ---------------------------------------------------------------


STRATEGY_REGISTRY: dict[str, Callable] = {
    "tree-log": lambda g, **kw: ("policy", strat_tree_log(g)),
    "tree-depth": lambda g, root=0, **kw: ("schedule", strat_tree_depth(g, root)),
    "tree-levels": lambda g, root=0, **kw: ("schedule", strat_tree_levels(g, root)),
    "pathwidth": lambda g, **kw: ("policy", strat_pathwidth(g, brute_pathwidth(g))),
    "domination": lambda g, **kw: ("policy", strat_domination(g)),
    "separator": lambda g, **kw: ("schedule", strat_separator(g)),
    "lift-delta": lambda g, **kw: (
        "policy",
        lift_prox_to_zeta(g, prox_solve(g)[1], variant="delta"),
    ),
    "lift-tree": lambda g, root=0, **kw: (
        "policy",
        lift_prox_to_zeta(g, prox_solve(g)[1], variant="tree", root=root),
    ),
}
