"""Undirected graphs and m-step competition graph machinery."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

from .digraph import (
    Digraph,
    InputError,
    _check_steps,
    _checked_rows,
    _component_masks,
    _dot,
    _format_pairs,
    _parse_pairs,
    _row_power,
    bits,
)


# One-vertex component sets of the low vertices, shared by every graph:
# isolated vertices are the commonest component, and frozensets are immutable.
# Components stay frozensets, not masks: with masks, a benchmark that keeps every
# result (perfbench query_mixed) peaked 10-18 % higher in RSS on 2 vCPUs, Python 3.11.
_SINGLETONS = tuple(frozenset((v,)) for v in range(64))


class Graph:
    """Immutable simple graph on 0..n-1; ``rows[v]`` is the bitmask of neighbors.

    ``InputError`` is raised unless there are n rows, each in [0, 2**n).
    Rows must also be symmetric and loop-free; that is the caller's
    contract, not checked here (``graph_from_edges`` builds checked rows).
    The constructor also finds the components as frozensets, by smallest member.
    """

    __slots__ = ("n", "rows", "_comps")

    def __init__(self, n: int, rows: Iterable[int]):
        self.n = n
        self.rows = _checked_rows(n, rows, "rows")
        self._comps = tuple(
            frozenset(bits(c))
            if c & (c - 1) or c >> len(_SINGLETONS)
            else _SINGLETONS[c.bit_length() - 1]
            for c in _component_masks(n, self.rows)
        )

    def edges(self) -> Iterator[tuple[int, int]]:
        for u in range(self.n):
            for v in bits(self.rows[u] >> (u + 1) << (u + 1)):
                yield (u, v)

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.rows[u] >> v & 1)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Graph) and self.n == other.n and self.rows == other.rows

    def __hash__(self) -> int:
        return hash((self.n, self.rows))

    def __repr__(self) -> str:
        return f"Graph({self.n}, edges={sorted(self.edges())})"


def graph_from_edges(n: int, edges: Iterable[tuple[int, int]]) -> Graph:
    if n < 1:
        raise InputError(f"vertex count must be positive, got {n}")
    rows = [0] * n
    for pair in edges:
        u, v = pair
        if not (0 <= u < n and 0 <= v < n):
            raise InputError(f"edge {(u, v)} out of range for n={n}")
        if u == v:
            raise InputError(f"self-edge {(u, v)} not allowed")
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    return Graph(n, rows)


def competition_graph(d: Digraph, m: int) -> Graph:
    """Graph joining distinct u, v iff they share an m-step common prey in d.

    A competition graph is the union of the cliques on the predator sets
    of its prey (Dutton and Brigham, 1983), and the m-step predator rows
    are the rows of (D^T)^m = (D^m)^T.  So each distinct predator set is
    filled in as a clique (a lone predator adds no edge), which costs work
    in proportion to those sets rather than to all pairs of vertices.
    """
    _check_steps(m, 1)
    rows = [0] * d.n
    for clique in set(_row_power(d.in_rows, m)):
        rest = clique
        while rest:
            low = rest & -rest
            rows[low.bit_length() - 1] |= clique ^ low
            rest ^= low
    return Graph(d.n, rows)


def is_triangle_free(g: Graph) -> tuple[bool, tuple[int, int, int] | None]:
    """(True, None) if no triangle exists, else (False, first triangle (x, y, z)).

    For the first x and then the first y > x with a common neighbor above
    x, that neighbor z exceeds y: a common neighbor z < y would have been
    tried as y earlier and found y.
    """
    rows = g.rows
    for x in range(g.n):
        rx = rows[x] >> (x + 1) << (x + 1)
        rest = rx
        while rest:
            low = rest & -rest
            common = rx & rows[low.bit_length() - 1]
            if common:
                return False, (x, low.bit_length() - 1, (common & -common).bit_length() - 1)
            rest ^= low
    return True, None


def components(g: Graph) -> list[frozenset[int]]:
    """Connected components, ordered by smallest member."""
    return list(g._comps)


@dataclass(frozen=True, slots=True)
class Star:
    center: int
    leaves: frozenset[int]


@dataclass(frozen=True, slots=True)
class StarDecomposition:
    """Partition of a graph into nontrivial stars with prescribed centers."""

    stars: tuple[Star, ...]

    def __bool__(self) -> bool:
        return True


@dataclass(frozen=True, slots=True)
class StarDecompositionFailure:
    component: frozenset[int]
    reason: str  # "trivial" | "not_a_star" | "center_not_in_sources"

    def __bool__(self) -> bool:
        return False


def star_decomposition(
    g: Graph, source_set: frozenset[int]
) -> StarDecomposition | StarDecompositionFailure:
    """Decompose g into nontrivial stars whose centers lie in source_set.

    Succeeds iff every component is a star K_{1,t} with t >= 1 and admits a
    center in source_set.  A component is connected, so it is a star iff at
    most one vertex has degree >= 2 (then every other vertex's one neighbor
    is that vertex, or the component is one edge); the center is the lowest
    in source_set of that vertex, or of both ends of the edge.
    """
    rows = g.rows
    stars = []
    for comp in g._comps:
        if len(comp) == 1:
            return StarDecompositionFailure(comp, "trivial")
        wide = [v for v in comp if rows[v].bit_count() > 1]
        if len(wide) > 1:
            return StarDecompositionFailure(comp, "not_a_star")
        center = min((v for v in wide or comp if v in source_set), default=None)
        if center is None:
            return StarDecompositionFailure(comp, "center_not_in_sources")
        stars.append(Star(center, comp - {center}))
    return StarDecomposition(tuple(stars))


# --- text formats ---------------------------------------------------------


def parse_graph_edge_list(text: str) -> Graph:
    """Parse the undirected edge-list format (mirrors the digraph format)."""
    return graph_from_edges(*_parse_pairs(text, "graph"))


def format_graph_edge_list(g: Graph) -> str:
    return _format_pairs(g.n, g.edges())


def graph_to_dot(g: Graph, labels: dict[int, str] | None = None, name: str = "G") -> str:
    return _dot("graph", "--", g.n, g.edges(), labels, name)
