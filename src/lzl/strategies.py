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
from itertools import combinations, cycle
from typing import Callable, Iterable, Sequence

from .errors import SizeCapError, UsageError
from .graphs import (
    Graph,
    closed_nb_bits,
    components_bits,
    is_c4_free,
    iter_bits,
    mask_of,
    max_degree,
    rooted_tree,
)
from .prox import ProbeSchedule, prox_solve, run_schedule
from .zeta import Policy, SchedulePolicy

#: Largest orders the exhaustive pathwidth, domination and separator searches accept.
PATHWIDTH_CAP = 10
DOMINATION_CAP = 20
SEPARATOR_CAP = 20


def _require_tree(g: Graph) -> Graph:
    if not g.is_tree():
        raise UsageError("operation requires a tree")
    return g


# -- midway vertex and the order-based strategy ---------------------------


def _midway(g: Graph, comp: Sequence[int]) -> int:
    """Smallest vertex of the subtree on the vertices ``comp`` whose removal leaves parts of order <= |comp|/2.

    That is the smaller-index centroid (Jordan 1869), read off subtree sizes
    with ``comp`` rooted at its lowest vertex: removing v leaves the
    subtrees of its children and the |comp| - size(v) vertices above it.
    The walk reads the graph's neighbour tuples.
    """
    nbrs = g.nbrs
    inside = set(comp)
    root = min(comp)
    bfs = [root]
    parent = {root: -1}
    for v in bfs:  # the list grows while it is read
        for w in nbrs[v]:
            if w in inside and w != parent[v]:
                parent[w] = v
                bfs.append(w)
    size = len(bfs)
    below = dict.fromkeys(bfs, 1)
    largest = dict.fromkeys(bfs, 0)  # order of the largest child subtree
    for v in reversed(bfs[1:]):
        p = parent[v]
        below[p] += below[v]
        largest[p] = max(largest[p], below[v])
    return min(v for v in bfs if 2 * max(largest[v], size - below[v]) <= size)


def _log_rounds(g: Graph, comp: Sequence[int]) -> list[tuple[int, ...]]:
    """The tree-log rounds that clear the subtree on the vertices ``comp``.

    Each round is the midway vertex followed by a round of one part of
    ``comp`` minus it, the parts taken in the order of their lowest vertex.
    """
    if len(comp) <= 2:
        return [(min(comp),)]  # probing one endpoint separates both
    nbrs = g.nbrs
    x = _midway(g, comp)
    rest = set(comp)
    rest.discard(x)
    parts = []
    for w in nbrs[x]:  # in a tree each neighbour of x starts its own part
        if w in rest:
            rest.discard(w)
            part = [w]
            for v in part:  # the list grows while it is read
                for u in nbrs[v]:
                    if u in rest:
                        rest.discard(u)
                        part.append(u)
            parts.append(part)
    parts.sort(key=min)
    return [(x, *r) for part in parts for r in _log_rounds(g, part)]


def strat_tree_log(g: Graph) -> Policy:
    """Midway-recursion policy with budget ceil(log2 n).

    One cop pins the midway vertex every round while the remaining budget
    sweeps each component in turn; components recurse the same way.
    """
    _require_tree(g)
    if g.n < 2:
        raise UsageError("order strategy needs n >= 2")
    budget = order_bound(g.n)
    return SchedulePolicy(_log_rounds(g, range(g.n)), budget=budget, name="tree-log")


# -- depth-based prox strategy ---------------------------------------------


def strat_tree_depth(g: Graph, root: int) -> ProbeSchedule:
    """Two probe rounds per leaf path: indices 0 mod 4, then 2 mod 4.

    Clears the root-to-leaf paths in DFS order, children visited ascending;
    a path u_0..u_q spends one round on {u_{4j}} and one on {u_{4j+2}}, so
    paths shorter than 4 degenerate to probing u_0 and, when q >= 2, u_2.
    The DFS keeps the path to the current vertex, so each leaf's rounds are
    two slices of it, sorted (ids need not ascend from the root).  A
    one-vertex tree is one path of one vertex.  Budget floor(d/4)+1.
    """
    _require_tree(g)
    _, children, depth = rooted_tree(g, root)
    rounds: list[tuple[int, ...]] = []
    path: list[int] = []
    stack = [root]
    while stack:
        v = stack.pop()
        del path[depth[v]:]
        path.append(v)
        if children[v]:
            stack += reversed(children[v])
        else:
            rounds += tuple(sorted(path[::4])), tuple(sorted(path[2::4]))
    return ProbeSchedule(max(1, max(map(len, rounds))), tuple(rounds))


# -- tree levels and the level-line prox strategy ---------------------------


def nonleaf_levels(children: list[list[int]], depth: list[int]) -> list[list[int]]:
    """The vertices with children on each level 1..d of a rooted tree, ascending.

    Reads the children and depths that ``rooted_tree`` returns.  There is
    one list per level, so d is their number; level d holds only leaves
    and its list is empty.
    """
    levels: list[list[int]] = [[] for _ in range(max(depth))]
    for v, i in enumerate(depth):
        if i and children[v]:
            levels[i - 1].append(v)
    return levels


def order_bound(n: int) -> int:
    """ceil(log2 n): the order bound on a tree of order n, and the tree-log budget."""
    return (n - 1).bit_length()


def depth_bound(d: int) -> int:
    """floor(d/4) + 2: the depth bound on a rooted tree of depth d."""
    return d // 4 + 2


def level_bound(levels: list[list[int]]) -> int:
    """ceil(max nonleaf-per-level / 3) + 1 over ``nonleaf_levels``: the level
    bound, and the level-line budget."""
    return -(-max(map(len, levels), default=0) // 3) + 1


def tree_upper_bounds(g: Graph, root: int) -> tuple[int, int, int]:
    """The order, depth and level upper bounds of the tree ``g`` rooted at ``root``."""
    _, children, depth = rooted_tree(g, root)
    levels = nonleaf_levels(children, depth)
    return order_bound(g.n), depth_bound(len(levels)), level_bound(levels)


class _Guard:
    """One cop cycling a fixed group of at most three vertices, with their parents."""

    __slots__ = ("group", "ticks", "parents")

    def __init__(self, group: Sequence[int], parent: Sequence[int]):
        self.group = group
        self.ticks = cycle(group)  # the vertex it probes in each round
        self.parents = {parent[v] for v in group}


def strat_tree_levels(g: Graph, root: int) -> ProbeSchedule:
    """Level-line prox strategy with budget ceil(max nonleaf-per-level / 3) + 1.

    Vertices with children on one level form the line: each group of at
    most three is cycled by one cop, which walls off everything below.  The
    line advances upward one level at a time: new groups on the level above
    start cycling while old groups keep their wall, and an old group
    retires once all parents of its vertices have been probed by an active
    new group.  The spare cop both seeds new groups ahead of retirements
    and finishes the game with root probes.  Group membership is ascending
    vertex order, last group possibly smaller.
    """
    _require_tree(g)
    parent, children, depth = rooted_tree(g, root)
    levels = nonleaf_levels(children, depth)
    budget = level_bound(levels)
    rounds: list[tuple[int, ...]] = []

    def emit(guards: list[_Guard], extra: Iterable[int] = ()) -> None:
        probes = {next(gd.ticks) for gd in guards}
        probes.update(extra)
        if len(probes) > budget:
            raise AssertionError("level strategy exceeded its cop budget")
        rounds.append(tuple(sorted(probes)))

    guards: list[_Guard] = []
    for j in range(len(levels) - 1, 0, -1):
        old_guards = guards
        order: list[int] = []
        seen: set[int] = set()
        for og in sorted(old_guards, key=lambda og: min(og.parents)):
            for v in og.group:
                p = parent[v]
                if p not in seen:
                    seen.add(p)
                    order.append(p)
        for v in levels[j - 1]:
            if v not in seen:
                seen.add(v)
                order.append(v)
        pending = deque(order[i : i + 3] for i in range(0, len(order), 3))
        guards = []
        probed_new: set[int] = set()

        while pending or old_guards:
            old_guards = [og for og in old_guards if not og.parents <= probed_new]
            while pending and len(old_guards) + len(guards) < budget:
                guards.append(_Guard(pending.popleft(), parent))
            if not pending and not old_guards:
                break
            fresh = [next(gd.ticks) for gd in guards]  # the new line's probes this round
            probed_new.update(fresh)
            emit(old_guards, fresh)
        for _ in range(3 if guards else 0):
            emit(guards)

    # line sits on level 1; only the root and its leaf children remain
    for _ in range(2):
        emit(guards, (root,))
    return ProbeSchedule(budget, tuple(rounds))


# -- path decompositions ----------------------------------------------------


@dataclass(frozen=True)
class PathDecomposition:
    bags: tuple[int, ...]

    @property
    def width(self) -> int:
        return max(b.bit_count() for b in self.bags) - 1


def brute_pathwidth(g: Graph) -> PathDecomposition:
    """Minimum-width decomposition via exhaustive search over vertex orders.

    Dynamic program over prefix subsets (vertex separation form): the cost
    of a prefix is its count of vertices with a neighbor outside, and the
    optimal ordering is reconstructed from the subset table.

    Bag i holds the i-th vertex of the order and every earlier vertex with
    a neighbor at position i or later, so each vertex's bags are
    consecutive and its last bag holds a neighbor of it (the graph is
    connected).  A bag contained in its successor is dropped.  The last bag
    of a vertex is never dropped, since its successor lacks that vertex, so
    every kept bag before the final one has a vertex leaving there with a
    neighbor beside it, and no vertex can be trimmed from its last bag.  No
    bag is contained in its predecessor, which lacks the bag's own vertex.
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
    return PathDecomposition(
        tuple(b for b, nxt in zip(bags, bags[1:]) if b & ~nxt) + (bags[-1],)
    )


def strat_pathwidth(g: Graph) -> Policy:
    """Probe each bag of ``brute_pathwidth(g)`` minus one designated vertex, left to right.

    The designated vertex of a bag is a bag neighbor of a vertex leaving
    the decomposition at that bag, so an adjacency flag there pins the
    robber.  Budget equals the pathwidth.
    """
    decomposition = brute_pathwidth(g)
    bags = decomposition.bags
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
            raise AssertionError(f"bag {i + 1} has no leaving vertex with a bag neighbor")
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
        return self.dom | frozenset(self.g.nbrs[state])

    def advance(self, state, flagged):
        return (flagged & -flagged).bit_length() - 1 if flagged else None


def strat_domination(g: Graph) -> Policy:
    if not is_c4_free(g):
        raise UsageError("domination strategy needs a C4-free graph")
    return DominationPolicy(g, min_dominating_set(g))


# -- separators --------------------------------------------------------------


def balanced_separator_brute(g: Graph, region: int) -> tuple[int, int, int]:
    """Smallest C with the components of ``region`` - C splittable into parts of order <= 2|region|/3.

    C runs over the region's vertices in ascending order, smallest sets
    first.  Returns the masks (A, B, C).
    """
    vertices = list(iter_bits(region))
    n = len(vertices)
    if n > SEPARATOR_CAP:
        raise SizeCapError("exhaustive separator", n, SEPARATOR_CAP)
    for size in range(0, n + 1):
        for combo in combinations(vertices, size):
            c_bits = mask_of(combo)
            comps = components_bits(g, region & ~c_bits)
            comps.sort(key=lambda m: -m.bit_count())
            split = _split_parts(comps, n)
            if split is not None:
                return (*split, c_bits)
    raise AssertionError("C = region always separates")


def _split_parts(comps: list[int], n: int) -> tuple[int, int] | None:
    """Assign components to parts A and B, each of order at most 2n/3.

    Of the assignments that fit, returns the one whose A-membership bits
    (component i is bit i) form the smallest integer, or None when none
    fits.  ``reach[i]`` holds as bits the orders the first i components
    can give A, so bits are fixed from the top component down, each 0
    whenever the components below can still bring A into the window.
    """
    sizes = [c.bit_count() for c in comps]
    limit = 2 * n // 3
    lo = sum(sizes) - limit  # B fits exactly when A has at least this order
    reach = [1]
    for size in sizes:
        reach.append(reach[-1] | reach[-1] << size)

    def fits(i: int, a: int) -> bool:
        """Some choice among components 0..i-1 brings A from order a into [lo, limit]."""
        low, high = max(lo - a, 0), limit - a
        return low <= high and (reach[i] >> low) & ((2 << (high - low)) - 1) != 0

    if not fits(len(comps), 0):
        return None
    a = 0
    a_bits = 0
    b_bits = 0
    for i in range(len(comps) - 1, -1, -1):
        if fits(i, a):
            b_bits |= comps[i]
        else:
            a += sizes[i]
            a_bits |= comps[i]
    return a_bits, b_bits


def strat_separator(g: Graph) -> ProbeSchedule:
    """Divide-and-conquer prox schedule: hold C every round, clear A then B.

    Base instances of order at most sqrt(n) of the original graph are
    probed wholesale in a single round under the accumulated guards.
    """
    base = max(1, math.isqrt(g.n))

    def rec(region: int, guards: int) -> list[int]:
        if region.bit_count() <= base:
            return [region | guards]
        a_bits, b_bits, c_bits = balanced_separator_brute(g, region)
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
    return ProbeSchedule.from_lists(budget, map(iter_bits, round_masks))


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
        self.schedule = schedule
        self.name = "lift-tree"
        self.budget = schedule.cops + 1
        self.root = root
        self.nbrs = g.nbrs
        self.parent, _, self.depth = rooted_tree(g, root)

    def _toward(self, u: int, v: int) -> int:
        """The neighbor of u on the tree path from u to v != u."""
        w = v
        while self.depth[w] > self.depth[u] + 1:
            w = self.parent[w]
        return w if self.parent[w] == u else self.parent[u]

    def initial_state(self):
        return (self.root, "replay", 0, 0)

    def probes(self, state) -> set[int]:
        guard, mode, idx, rr = state
        if mode == "standoff":
            return {guard, self.nbrs[guard][rr]}
        return {guard, *self.schedule.rounds[idx]}

    def advance(self, state, flagged):
        guard, mode, idx, rr = state
        # a standoff round consumed ring[rr] whatever was observed
        if mode == "standoff":
            rr = (rr + 1) % len(self.nbrs[guard])
        for v in iter_bits(flagged):
            if v != guard:
                return (self._toward(guard, v), "replay", 0, 0)
        if flagged:
            return (guard, "standoff", idx, rr)
        if mode == "standoff":
            return (guard, "replay", 0, rr)
        return (guard, "replay", (idx + 1) % len(self.schedule.rounds), rr)


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
    budget cops + 1 (trees only).  The schedule is the exact solver's
    witness, so one that does not clear is an engine fault.
    """
    trace = run_schedule(g, prox_strategy)
    if not trace.cleared:
        raise AssertionError("prox strategy does not win the one-proximity game")
    if variant == "delta":
        delta = max_degree(g)
        rounds = []
        for r in prox_strategy.rounds:
            probes = set(r)
            for u in r:
                probes.update(g.nbrs[u][: delta - 1])
            rounds.append(probes)
        return SchedulePolicy(
            rounds, budget=delta * prox_strategy.cops, name="lift-delta"
        )
    if variant == "tree":
        _require_tree(g)
        return TreeLiftPolicy(g, prox_strategy, root)
    raise ValueError(f"unknown lift variant '{variant}'")


# -- registry ---------------------------------------------------------------


#: name -> (kind, whether the builder takes a root vertex after the graph, builder):
#: run_schedule verifies a "schedule", simulate_policy a "policy"
STRATEGY_REGISTRY: dict[str, tuple[str, bool, Callable[..., ProbeSchedule | Policy]]] = {
    "tree-log": ("policy", False, strat_tree_log),
    "tree-depth": ("schedule", True, strat_tree_depth),
    "tree-levels": ("schedule", True, strat_tree_levels),
    "pathwidth": ("policy", False, strat_pathwidth),
    "domination": ("policy", False, strat_domination),
    "separator": ("schedule", False, strat_separator),
    "lift-delta": ("policy", False, lambda g: lift_prox_to_zeta(
        g, prox_solve(g)[1], variant="delta")),
    # a non-tree is refused before the exact solve, which may pass its size cap
    "lift-tree": ("policy", True, lambda g, root: lift_prox_to_zeta(
        g, prox_solve(_require_tree(g))[1], variant="tree", root=root)),
}
