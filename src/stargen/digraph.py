"""Labeled digraphs on vertices 0..n-1 with bitmask adjacency rows.

Out-neighborhoods are stored as Python ints used as bitmasks (bit j of
row i set iff the arc (i, j) exists), so set algebra on neighborhoods is
single int operations and boolean matrix products stay cheap for the
small orders this toolkit works at.  Loops are allowed; parallel arcs are
not representable.
"""

from __future__ import annotations

from typing import Iterable, Iterator


class InputError(ValueError):
    """Malformed caller input (bad vertex index, bad file, bad option)."""


def bits(mask: int) -> Iterator[int]:
    """Yield the set bit positions of ``mask`` >= 0 in increasing order.

    A mask of up to 64 bits drops its low bit at each step.  A wider one,
    such as a bit plane, is read byte by byte, since each such step would
    copy the whole int, so the walk stays linear in the mask's size.
    """
    if mask >> 64:
        for i, byte in enumerate(mask.to_bytes((mask.bit_length() + 7) // 8, "little")):
            while byte:
                low = byte & -byte
                yield i << 3 | low.bit_length() - 1
                byte ^= low
        return
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _checked_rows(n: int, rows: Iterable[int], noun: str) -> tuple[int, ...]:
    """``rows`` as a tuple; ``InputError`` unless there are n, each in [0, 2**n)."""
    rows = tuple(rows)
    if len(rows) != n:
        raise InputError(f"expected {n} {noun}, got {len(rows)}")
    if rows and (min(rows) < 0 or max(rows) >> n):
        raise InputError(f"{noun} must lie in [0, 2**{n}), got {min(rows)}..{max(rows)}")
    return rows


class Digraph:
    """Immutable digraph; vertices are 0..n-1.

    ``out_rows[i]`` is the bitmask of out-neighbors of i and ``in_rows[i]``
    that of its in-neighbors; ``InputError`` is raised unless there are n
    out-rows, each in [0, 2**n).  Both are built by the constructor and
    never mutated after it, so instances are safe to share across threads.
    """

    __slots__ = ("n", "out_rows", "in_rows")

    def __init__(self, n: int, out_rows: Iterable[int]):
        self.n = n
        self.out_rows = _checked_rows(n, out_rows, "out-rows")
        in_rows = [0] * n
        for u, row in enumerate(self.out_rows):
            bit = 1 << u
            while row:
                low = row & -row
                in_rows[low.bit_length() - 1] |= bit
                row ^= low
        self.in_rows = tuple(in_rows)

    def arcs(self) -> Iterator[tuple[int, int]]:
        """Yield every arc (u, v), in ascending order."""
        for u, row in enumerate(self.out_rows):
            while row:
                low = row & -row
                yield (u, low.bit_length() - 1)
                row ^= low

    def arc_count(self) -> int:
        return sum(row.bit_count() for row in self.out_rows)

    def has_arc(self, u: int, v: int) -> bool:
        return bool(self.out_rows[u] >> v & 1)

    def out_neighbors(self, v: int) -> frozenset[int]:
        return frozenset(bits(self.out_rows[v]))

    def in_neighbors(self, v: int) -> frozenset[int]:
        return frozenset(bits(self.in_rows[v]))

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Digraph)
            and self.n == other.n
            and self.out_rows == other.out_rows
        )

    def __hash__(self) -> int:
        return hash((self.n, self.out_rows))

    def __repr__(self) -> str:
        return f"Digraph({self.n}, arcs={list(self.arcs())})"


def from_arc_list(n: int, arcs: Iterable[tuple[int, int]]) -> Digraph:
    """Build a digraph from ordered vertex pairs; duplicates collapse."""
    if n < 1:
        raise InputError(f"vertex count must be positive, got {n}")
    rows = [0] * n
    for pair in arcs:
        u, v = pair
        if not (0 <= u < n and 0 <= v < n):
            raise InputError(f"arc {(u, v)} out of range for n={n}")
        rows[u] |= 1 << v
    return Digraph(n, rows)


def has_min_outdegree_one(d: Digraph) -> bool:
    """True iff every vertex has at least one prey."""
    return all(row for row in d.out_rows)


def _row_product(a_rows, b_rows) -> list[int]:
    """Boolean relational product: bit (i,k) set iff some j links i->j->k."""
    out = []
    for row in a_rows:
        acc = 0
        while row:
            low = row & -row
            acc |= b_rows[low.bit_length() - 1]
            row ^= low
        out.append(acc)
    return out


def _power(x, m: int, product):
    """x**m under an associative ``product``, by squaring; m >= 1.

    Powers of a boolean matrix are eventually periodic, so its squares
    S_t = x**(2**t) repeat after a few steps.  Every square is kept in a
    list, and the first S_k equal (``==``) to an earlier S_j ends the
    squaring: then x**(i + 2**k - 2**j) = x**i for every i >= 2**j, so m is
    reduced below 2**k, where the kept squares suffice.
    """
    squares = [x]
    while m >> len(squares):
        sq = product(squares[-1], squares[-1])
        if sq in squares:
            low = 1 << squares.index(sq)
            m = low + (m - low) % ((1 << len(squares)) - low)
        else:
            squares.append(sq)
    result = None
    for t, sq in enumerate(squares):
        if m >> t & 1:
            result = sq if result is None else product(result, sq)
    return result


def _row_power(rows, m: int) -> list[int]:
    return _power(list(rows), m, _row_product)


def _check_steps(m, least: int) -> None:
    """``InputError`` unless the step count m is an int (not a bool) >= least (0 or 1)."""
    if type(m) is not int:
        raise InputError(f"step count must be an int, got {m!r}")
    if m < least:
        raise InputError(f"step count must be {'positive' if least else 'nonnegative'}, got {m}")


def compose(a: Digraph, b: Digraph) -> Digraph:
    """Relational product: arc (u, v) iff some w has (u, w) in a and (w, v) in b."""
    if a.n != b.n:
        raise InputError(f"vertex counts differ: {a.n} != {b.n}")
    return Digraph(a.n, _row_product(a.out_rows, b.out_rows))


def m_step_digraph(d: Digraph, m: int) -> Digraph:
    """Digraph with arc (u, v) iff a directed walk of length exactly m runs u to v.

    Uses exponentiation by squaring, which stops at the first repeated
    square, so m may be arbitrarily large.
    """
    _check_steps(m, 1)
    return Digraph(d.n, _row_power(d.out_rows, m))


def step_neighbors(d: Digraph, v: int, m: int, direction: str = "prey") -> frozenset[int]:
    """Vertices reached from v (prey) or reaching v (predator) by length-m walks.

    m = 0 gives {v} (the empty walk).
    """
    if not 0 <= v < d.n:
        raise InputError(f"vertex {v} out of range for n={d.n}")
    _check_steps(m, 0)
    if direction == "prey":
        rows = d.out_rows
    elif direction == "predator":
        rows = d.in_rows
    else:
        raise InputError(f"direction must be 'prey' or 'predator', got {direction!r}")
    if m == 0:
        return frozenset((v,))
    return frozenset(bits(_row_power(rows, m)[v]))


def _source_mask(d: Digraph) -> int:
    """Bitmask of the vertices of in-degree 0."""
    mask = 0
    for v, row in enumerate(d.in_rows):
        if not row:
            mask |= 1 << v
    return mask


def sources(d: Digraph) -> frozenset[int]:
    """All vertices of indegree 0."""
    return frozenset(bits(_source_mask(d)))


def _component_masks(n: int, sym_rows) -> list[int]:
    # grow each component as a bitmask fixpoint; ascending lowest-unseen
    # start vertex gives the smallest-member ordering for free
    comps = []
    unseen = (1 << n) - 1
    while unseen:
        start = unseen & -unseen
        comp = start
        frontier = start
        while frontier:
            grown = 0
            while frontier:
                low = frontier & -frontier
                grown |= sym_rows[low.bit_length() - 1]
                frontier ^= low
            frontier = grown & ~comp
            comp |= grown
        comps.append(comp)
        unseen ^= comp
    return comps


def _weak_masks(d: Digraph) -> list[int]:
    """Bitmasks of the weak components, ordered by smallest member."""
    return _component_masks(d.n, [a | b for a, b in zip(d.out_rows, d.in_rows)])


def weak_components(d: Digraph) -> list[frozenset[int]]:
    """Connected components of the underlying graph, ordered by smallest member."""
    return [frozenset(bits(c)) for c in _weak_masks(d)]


def induced_subdigraph(d: Digraph, keep: Iterable[int]) -> tuple[Digraph, list[int]]:
    """Subdigraph induced on ``keep``, plus the new-index -> old-vertex map."""
    old = sorted(set(keep))
    for v in old:
        if not 0 <= v < d.n:
            raise InputError(f"vertex {v} out of range for n={d.n}")
    new_of = {o: i for i, o in enumerate(old)}
    rows = []
    for o in old:
        acc = 0
        for w in bits(d.out_rows[o]):
            if w in new_of:
                acc |= 1 << new_of[w]
        rows.append(acc)
    return Digraph(len(old), rows), old


# --- text formats ---------------------------------------------------------
# Digraphs and undirected graphs share one text format and one DOT layout;
# they differ only in the pair iterator, the DOT keyword and edge operator.

# Largest vertex count a text file may declare.  Every pass over bitmask rows
# is at least quadratic in n, and the header alone would otherwise size the
# row list, so a stray header like 1000000000 exhausts memory.
MAX_TEXT_ORDER = 1024


def _parse_pairs(text: str, noun: str) -> tuple[int, list[tuple[int, int]]]:
    """Parse the edge-list format into (n, pairs): first line n, then one
    'u v' pair per line.  Blank lines and '#' comments are ignored.
    """
    n = None
    pairs = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        try:
            if n is None:
                if len(fields) != 1:
                    raise ValueError
                n = int(fields[0])
            else:
                if len(fields) != 2:
                    raise ValueError
                pairs.append((int(fields[0]), int(fields[1])))
        except ValueError:
            raise InputError(f"line {lineno}: cannot parse {raw!r}") from None
    if n is None:
        raise InputError(f"empty {noun} file")
    if n > MAX_TEXT_ORDER:
        raise InputError(f"vertex count {n} exceeds the limit of {MAX_TEXT_ORDER}")
    return n, pairs


def _format_pairs(n: int, pairs: Iterable[tuple[int, int]]) -> str:
    lines = [str(n)]
    lines.extend(f"{u} {v}" for u, v in pairs)
    return "\n".join(lines) + "\n"


def _dot(keyword: str, op: str, n: int, pairs, labels: dict[int, str] | None, name: str) -> str:
    def fmt(v: int) -> str:
        return f'"{labels[v]}"' if labels else str(v)

    lines = [f"{keyword} {name} {{"]
    for v in range(n):
        lines.append(f"  {fmt(v)};")
    for u, v in pairs:
        lines.append(f"  {fmt(u)} {op} {fmt(v)};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def parse_edge_list(text: str) -> Digraph:
    """Parse the edge-list format: first line n, then one 'u v' arc per line.

    Blank lines and '#' comments are ignored.
    """
    return from_arc_list(*_parse_pairs(text, "digraph"))


def format_edge_list(d: Digraph) -> str:
    return _format_pairs(d.n, d.arcs())


def to_dot(d: Digraph, labels: dict[int, str] | None = None, name: str = "D") -> str:
    """Render as Graphviz DOT; loops are drawn like any other arc."""
    return _dot("digraph", "->", d.n, d.arcs(), labels, name)
