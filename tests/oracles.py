"""Independent reference implementations used only to check the library.

Everything here works on plain dict/set adjacency and explicit walk
extension so it shares no code path with the bitmask matrix machinery.
"""

from __future__ import annotations

from itertools import combinations


def adjacency(n: int, arcs) -> dict[int, frozenset[int]]:
    adj: dict[int, set[int]] = {v: set() for v in range(n)}
    for u, v in arcs:
        adj[u].add(v)
    return {v: frozenset(nbrs) for v, nbrs in adj.items()}


def sources(n: int, arcs) -> frozenset[int]:
    """Vertices that no arc enters."""
    heads = {v for _, v in arcs}
    return frozenset(v for v in range(n) if v not in heads)


def weak_components(n: int, arcs) -> list[frozenset[int]]:
    """Components of the underlying graph by search over undirected
    neighbor sets, ordered by smallest member.
    """
    nbrs: dict[int, set[int]] = {v: set() for v in range(n)}
    for u, v in arcs:
        nbrs[u].add(v)
        nbrs[v].add(u)
    comps: list[frozenset[int]] = []
    seen: set[int] = set()
    for start in range(n):
        if start in seen:
            continue
        comp = {start}
        stack = [start]
        while stack:
            for w in nbrs[stack.pop()] - comp:
                comp.add(w)
                stack.append(w)
        seen |= comp
        comps.append(frozenset(comp))
    return comps


def _step(adj, state) -> tuple[frozenset[int], ...]:
    """Extend every frontier set in ``state`` by one arc."""
    out = []
    for frontier in state:
        nxt: set[int] = set()
        for w in frontier:
            nxt |= adj[w]
        out.append(frozenset(nxt))
    return tuple(out)


def prey_sets(n: int, arcs, m: int) -> list[frozenset[int]]:
    """N^+_m(v) for every v by stepping frontier sets one arc at a time.

    The global tuple of frontier sets is eventually periodic, so arbitrary
    m is handled by detecting the cycle instead of stepping m times.
    """
    adj = adjacency(n, arcs)
    if m == 0:
        return [frozenset((v,)) for v in range(n)]

    state = tuple(adj[v] for v in range(n))  # N^+_1
    history = [state]
    seen = {state: 0}
    while len(history) < m:
        state = _step(adj, state)
        if state in seen:
            mu = seen[state]
            period = len(history) - mu
            idx = mu + (m - 1 - mu) % period
            return list(history[idx])
        seen[state] = len(history)
        history.append(state)
    return list(history[m - 1])


def prey_sets_through(n: int, arcs, m_max: int) -> list[list[frozenset[int]]]:
    """``prey_sets(n, arcs, m)`` for m = 1..m_max, in that order, from one
    walk of m_max - 1 steps instead of one walk per m.
    """
    adj = adjacency(n, arcs)
    walk = [tuple(adj[v] for v in range(n))]  # N^+_1
    while len(walk) < m_max:
        walk.append(_step(adj, walk[-1]))
    return [list(state) for state in walk]


def predator_sets(n: int, arcs, m: int) -> list[frozenset[int]]:
    return prey_sets(n, [(v, u) for u, v in arcs], m)


def _shared_prey_edges(prey: list[frozenset[int]]) -> set[frozenset[int]]:
    """Pairs of distinct vertices whose prey sets ``prey`` intersect."""
    return {
        frozenset((u, v))
        for u, v in combinations(range(len(prey)), 2)
        if prey[u] & prey[v]
    }


def competition_edges(n: int, arcs, m: int) -> set[frozenset[int]]:
    """Edges of the m-step competition graph by pairwise prey intersection."""
    return _shared_prey_edges(prey_sets(n, arcs, m))


def competition_edges_through(n: int, arcs, m_max: int) -> list[set[frozenset[int]]]:
    """``competition_edges(n, arcs, m)`` for m = 1..m_max, from one prey walk."""
    return [_shared_prey_edges(prey) for prey in prey_sets_through(n, arcs, m_max)]


def has_triangle(edges: set[frozenset[int]], n: int) -> bool:
    return any(
        frozenset((a, b)) in edges
        and frozenset((b, c)) in edges
        and frozenset((a, c)) in edges
        for a, b, c in combinations(range(n), 3)
    )


def partition_count(total: int) -> int:
    """p(total) by the standard bounded-part dynamic program."""
    # ways[t] = number of partitions of t using parts considered so far
    ways = [0] * (total + 1)
    ways[0] = 1
    for part in range(1, total + 1):
        for t in range(part, total + 1):
            ways[t] += ways[t - part]
    return ways[total]


def is_star_graph(n: int, edges: set[frozenset[int]]) -> bool:
    """K_{1,n-1} check: one hub adjacent to all others, no other edges."""
    if n < 2:
        return False
    if n == 2:
        return edges == {frozenset((0, 1))}
    degree = {v: 0 for v in range(n)}
    for e in edges:
        for v in e:
            degree[v] += 1
    hubs = [v for v in range(n) if degree[v] == n - 1]
    leaves = [v for v in range(n) if degree[v] == 1]
    return len(edges) == n - 1 and len(hubs) == 1 and len(leaves) == n - 1
