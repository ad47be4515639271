"""Generators: partitions, canonical star-generating digraphs, the (k, l)
source/component family, the figure digraphs, and the exhaustive stream of
labeled digraphs with minimum outdegree 1.
"""

from __future__ import annotations

from itertools import permutations
from typing import Iterator

from .digraph import Digraph, InputError, _check_count, _check_index, bits, from_arc_list


def partitions(total: int) -> Iterator[tuple[int, ...]]:
    """All partitions of ``total`` as nonincreasing tuples, reverse-lex order."""
    _check_count(total, 1, "partition total")
    yield from _partitions(total, total)


def _partition_count(total: int) -> int:
    """p(total) by Euler's pentagonal-number recurrence, total >= 0:
    p(t) is the signed sum of p(t - g) over the generalized pentagonal
    numbers g = k(3k - 1)/2 and k(3k + 1)/2, sign (-1)**(k + 1), k >= 1.
    """
    p = [1] + [0] * total
    for t in range(1, total + 1):
        k = 1
        while k * (3 * k - 1) // 2 <= t:
            sign = 1 if k % 2 else -1
            for g in (k * (3 * k - 1) // 2, k * (3 * k + 1) // 2):
                if g <= t:
                    p[t] += sign * p[t - g]
            k += 1
    return p[total]


def _partitions(total: int, max_part: int) -> Iterator[tuple[int, ...]]:
    if total == 0:
        yield ()
        return
    for first in range(min(total, max_part), 0, -1):
        for rest in _partitions(total - first, first):
            yield (first,) + rest


def star_generating_from_partition(parts: tuple[int, ...]) -> Digraph:
    """Canonical single-source star-generating digraph for a cycle-length partition.

    Vertex 0 is the source with an arc to every other vertex; vertices
    1..n-1 carry vertex-disjoint directed cycles whose lengths are the
    parts, laid out in part order on consecutive indices.
    """
    for p in parts:
        _check_count(p, 1, "part")
    if not parts or list(parts) != sorted(parts, reverse=True):
        raise InputError(f"parts must be a non-empty nonincreasing sequence, got {parts}")
    n = sum(parts) + 1
    arcs = [(0, v) for v in range(1, n)]
    base = 1
    for length in parts:
        for i in range(length):
            arcs.append((base + i, base + (i + 1) % length))
        base += length
    return from_arc_list(n, arcs)


def enumerate_single_source_star_generating(n: int) -> Iterator[Digraph]:
    """One representative per isomorphism class of single-source
    star-generating digraphs of order n; the count is the number of
    partitions of n-1.
    """
    _check_count(n, 2, "order")
    for parts in partitions(n - 1):
        yield star_generating_from_partition(parts)


def lemma_kl_digraph(k: int, l: int) -> Digraph:
    """Weakly connected digraph with k sources whose m-step competition graph
    has l components for every m.

    Vertices: sources 0..k-1, a loop vertex k they all feed, and a directed
    cycle on k+1..k+l (a loop when l = 1) entered from source k-1.
    """
    _check_count(k, 1, "k")
    _check_count(l, 1, "l")
    u = k
    w = [k + 1 + i for i in range(l)]
    arcs = [(v, u) for v in range(k)]
    arcs.append((u, u))
    arcs.append((k - 1, w[0]))
    for i in range(l):
        arcs.append((w[i], w[(i + 1) % l]))
    return from_arc_list(k + l + 1, arcs)


def digraph_space_size(n: int) -> int:
    """Number of labeled digraphs on n vertices with every outdegree >= 1."""
    _check_count(n, 0, "vertex count")
    return (2**n - 1) ** n


def _out_rows(n: int, index: int) -> list[int]:
    """Out-rows of the index-th digraph of order n: the base 2**n - 1 digits
    of index, most significant first, each plus one.
    """
    base = 2**n - 1
    rows = [0] * n
    for v in range(n - 1, -1, -1):
        index, digit = divmod(index, base)
        rows[v] = digit + 1
    return rows


def digraph_at(n: int, index: int) -> Digraph:
    """The index-th digraph of the stream (lexicographic by out-row tuple)."""
    _check_index(index, n, "index", digraph_space_size(n))
    return Digraph(n, _out_rows(n, index))


def all_digraphs(n: int) -> Iterator[Digraph]:
    """Stream every labeled digraph on n vertices with all outdegrees >= 1.

    Out-row tuples count lexicographically, each digraph appearing exactly
    once, the index-th as ``digraph_at(n, index)``.
    """
    _check_count(n, 1, "vertex count")
    for index in range(digraph_space_size(n)):
        yield Digraph(n, _out_rows(n, index))


def _relabelings(d: Digraph) -> Iterator[tuple[int, ...]]:
    """The out-rows of d under each of the n! relabelings of its vertices."""
    n = d.n
    for perm in permutations(range(n)):
        rows_new = [0] * n
        for old in range(n):
            acc = 0
            for w in bits(d.out_rows[old]):
                acc |= 1 << perm[w]
            rows_new[perm[old]] = acc
        yield tuple(rows_new)


def canonical_form(d: Digraph) -> tuple[int, tuple[int, ...]]:
    """Isomorphism-invariant key by brute-force permutation minimization.

    Only intended for small orders; guarded at n <= 8.
    """
    n = d.n
    if n > 8:
        raise InputError(f"canonical_form is limited to n <= 8, got n={n}")
    return n, min(_relabelings(d))


def are_isomorphic(a: Digraph, b: Digraph) -> bool:
    if a.n != b.n:
        return False
    return canonical_form(a) == canonical_form(b)


_FIGURES = {
    "fig1_D1": (3, [(0, 1), (0, 2), (1, 1), (2, 2)], ["a", "b", "d"]),
    "fig1_D2": (3, [(0, 1), (0, 2), (1, 2), (2, 1)], ["a", "b", "d"]),
    "fig2_D1": (4, [(0, 1), (0, 2), (0, 3), (1, 1), (2, 2), (3, 3)], ["v", "b", "c", "d"]),
    "fig2_D2": (4, [(0, 1), (0, 2), (0, 3), (2, 2), (1, 3), (3, 1)], ["v", "b", "c", "d"]),
    "fig2_D3": (4, [(0, 1), (0, 2), (0, 3), (2, 1), (1, 3), (3, 2)], ["v", "b", "c", "d"]),
    "fig4_D": (3, [(0, 1), (1, 1), (1, 2), (2, 2)], ["v1", "v2", "v3"]),
}


def figure_digraphs() -> dict[str, Digraph]:
    """The worked example digraphs, keyed by figure name."""
    return {name: from_arc_list(n, arcs) for name, (n, arcs, _) in _FIGURES.items()}


def figure_labels() -> dict[str, dict[int, str]]:
    """Human-readable vertex labels for the figure digraphs."""
    return {
        name: dict(enumerate(labels)) for name, (_, _, labels) in _FIGURES.items()
    }
