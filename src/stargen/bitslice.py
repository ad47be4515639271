"""Bit-sliced evaluation of claim atoms over batches of digraphs.

A *plane* is a Python int whose bit b stands for one digraph of a batch
(the bitslice technique of Biham, *A fast new DES implementation in
software*, FSE 1997).  The n x n arc planes of a batch hold its adjacency
matrices, so one boolean matrix product of planes is one product for
every digraph of the batch, and a property of (D, m) becomes one plane
whose set bits are the digraphs that have it.  Every plane is masked to
the batch's ``full``, the plane of its bits that are digraphs (every
out-row non-empty), and ``PlaneContext.digraph(b)`` reads bit b's
digraph back from the arc planes.

Exhaustive scans run on two streams of n-digit tuples, built by one
constructor, in batches whose leading digits are constant, so their arc
planes are all-zero or all-one, and whose t trailing digits vary, t the
most that keep a batch within ``CAP_BITS``; the trailing arc planes are
built once per call.  ``batches`` counts out-rows, each one of the
2**n - 1 non-empty sets, so every bit is a digraph.  ``capped_batches``
counts in-columns, each one of the 1 + n + C(n, 2) predator sets of at
most two vertices, and ``full`` leaves out the column tuples that give
some vertex no prey; the bits of ``full`` are the digraphs with every
in-degree at most 2, each once, in fewer bits than ``batches`` from order
4 on (``capped_stream``).  Sampled scans run on ``draws``, batches of any
stream indices of one order, repeats included.

``PlaneContext`` mirrors ``verify.ClaimContext``: it memoizes powers,
competition graphs, sources, closures and degree counters for one batch,
and every atom of the claim catalog reads its ``plane`` from it.  The
subdigraph check (Lemma 3.4) derives each subdigraph's arc planes from the
batch's and powers them one subdigraph at a time, keeping none.
"""

from __future__ import annotations

from typing import Callable, Iterator, Sequence

from . import digraph as _digraph
from . import generate as _generate

# most digraphs (bits) one batch may hold
CAP_BITS = 1 << 18


def _trailing_digits(base: int, n: int) -> int:
    """The number t of digits that vary inside a batch of n base-``base`` digits."""
    t = 1
    while t < n and base ** (t + 1) <= CAP_BITS:
        t += 1
    return t


def _trailing_planes(values: Sequence[int], n: int, t: int) -> tuple[tuple[int, ...], ...]:
    """Planes of the last t digits of a batch, the same in every batch of
    one stream and order, each digit picking an n-bit value from ``values``.

    Item i is digit ``p = t - 1 - i`` from the least significant end,
    ``(b // base**p) % base`` at bit b with base ``len(values)``; its plane w
    is set where ``values[digit]`` has bit w.
    """
    base = len(values)
    planes = []
    for p in range(t - 1, -1, -1):
        run = base**p
        period = run * base
        # the period's pattern repeats base**(t-p-1) times; the repunit
        # multiplier copies it without carries, since pattern < 2**period
        copies = base ** (t - p - 1)
        repunit = ((1 << period * copies) - 1) // ((1 << period) - 1)
        block = (1 << run) - 1
        digit_planes = []
        for w in range(n):
            pattern = 0
            for digit, value in enumerate(values):
                if value >> w & 1:
                    pattern |= block << digit * run
            digit_planes.append(pattern * repunit)
        planes.append(tuple(digit_planes))
    return tuple(planes)


def _predator_sets(n: int) -> list[int]:
    """The 1 + n + C(n, 2) sets of at most two vertices, as masks: the
    digit values of the capped stream's in-columns.
    """
    pairs = [1 << u | 1 << v for u in range(n) for v in range(u + 1, n)]
    return [0] + [1 << u for u in range(n)] + pairs


def _stream(
    n: int, values: Sequence[int], columns: bool, first: int = 0, stop: int | None = None
) -> Iterator[PlaneContext]:
    """One ``PlaneContext`` per batch, batches [first, stop), of the tuples
    of n digits of order n, each digit picking an n-bit value from
    ``values``: an out-row, or an in-column where ``columns``.
    """
    base = len(values)
    t = _trailing_digits(base, n)
    size = base**t
    ones = (1 << size) - 1
    trailing = _trailing_planes(values, n, t)
    count = base ** (n - t)
    for k in range(first, count if stop is None else min(stop, count)):
        # the leading digits are those of k: plane w of each is all-one
        # where its value has bit w
        leading, rest = [], k
        for _ in range(n - t):
            rest, digit = divmod(rest, base)
            leading.append(tuple(ones if values[digit] >> w & 1 else 0 for w in range(n)))
        arcs = tuple(reversed(leading)) + trailing
        if columns:  # arc plane (u, w) is plane u of column w
            arcs = tuple(zip(*arcs))
        yield PlaneContext(n, arcs, _all((_any(row) for row in arcs), ones))


def batches(n: int, first: int = 0, stop: int | None = None) -> Iterator[PlaneContext]:
    """One ``PlaneContext`` per batch of order n, batches [first, stop), to the last by default."""
    return _stream(n, range(1, 2**n), False, first, stop)


def capped_batches(n: int) -> Iterator[PlaneContext]:
    """One ``PlaneContext`` per batch of the capped stream of order n: its
    bits in ``full`` are the digraphs with every in-degree at most 2.
    """
    return _stream(n, _predator_sets(n), True)


def capped_stream(n: int) -> Callable[[int], Iterator[PlaneContext]]:
    """The batches of order n to scan where every in-degree is at most 2:
    ``capped_batches`` where it has fewer bits than ``batches``, from order
    4 on, and ``batches`` below, which holds every such digraph in no more
    bits (343 of each at order 3).
    """
    return capped_batches if len(_predator_sets(n)) < 2**n - 1 else batches


def draws(n: int, indices: Sequence[int]) -> PlaneContext:
    """The batch whose bit b is the order-n digraph at stream index ``indices[b]``."""
    # draw b's out-rows are field b of one binary string, which arc plane
    # (u, w) reads with stride n*n
    width = n * n
    fields = []
    for index in reversed(indices):
        packed = 0
        for v, row in enumerate(_generate._out_rows(n, index)):
            packed |= row << v * n
        fields.append(format(packed, f"0{width}b"))
    text = "".join(fields)
    arcs = tuple(
        tuple(int(text[width - 1 - u * n - w :: width], 2) for w in range(n)) for u in range(n)
    )
    return PlaneContext(n, arcs, (1 << len(indices)) - 1)


# --- plane arithmetic ------------------------------------------------------


def _product(a, b) -> tuple[tuple[int, ...], ...]:
    """Boolean matrix product of two n x n matrices of planes."""
    out = []
    for row in a:
        acc = [0] * len(row)
        for x, brow in zip(row, b):
            if x:
                for k, y in enumerate(brow):
                    acc[k] |= x & y
        out.append(tuple(acc))
    return tuple(out)


def _power(a, m: int):
    return _digraph._power(a, m, _product)


def _at_least(planes, top: int, full: int) -> list[int]:
    """Saturating bit-sliced counter: item j is set where at least j of
    ``planes`` are, for j = 0..top.
    """
    ge = [full] + [0] * top
    for x in planes:
        for j in range(top, 0, -1):
            ge[j] |= ge[j - 1] & x
    return ge


def _exactly(ge: list[int]) -> list[int]:
    """Exact counts from an unsaturated ``_at_least`` counter."""
    return [a ^ b for a, b in zip(ge, ge[1:])] + [ge[-1]]


def _closure(adj, full: int) -> list[list[int]]:
    """Reflexive-transitive closure of a symmetric matrix of planes (Warshall)."""
    n = len(adj)
    r = [list(row) for row in adj]
    for v in range(n):
        r[v][v] = full
    for k in range(n):
        rk = r[k]
        for ri in r:
            x = ri[k]
            if x:
                for j in range(n):
                    ri[j] |= x & rk[j]
    return r


def _minima(r, full: int) -> list[int]:
    """Planes of 'v is the smallest vertex of its component' from a closure."""
    return [full & ~_any(r[u][v] for u in range(v)) for v in range(len(r))]


def _any(planes) -> int:
    acc = 0
    for x in planes:
        acc |= x
    return acc


def _all(planes, full: int) -> int:
    acc = full
    for x in planes:
        acc &= x
    return acc


# --- the per-batch memo ----------------------------------------------------


class PlaneContext:
    """Memo of bit planes for one batch of digraphs of order n.

    Bit b of every plane is one digraph, which ``digraph(b)`` rebuilds
    from ``arcs``.  ``full`` is the plane of the bits that are digraphs,
    those whose out-rows in ``arcs`` are all non-empty.  Methods mirror
    ``verify.ClaimContext``, return planes masked to ``full``, and take m
    even for properties of D alone.  A scan evaluates m in increasing order
    and calls ``release`` after each, so only the planes of about two
    consecutive m, and the power the next m steps from, are held at a time.
    """

    __slots__ = (
        "n",
        "full",
        "arcs",
        "in_degrees",
        "sources",
        "source_count",
        "_powers",
        "_graphs",
        "_cm",
        "_stars",
        "_weak",
        "_local_sg",
        "_pred",
        "_arc_bytes",
    )

    def __init__(self, n: int, arcs, full: int):
        self.n = n
        self.full = full
        self.arcs = arcs
        self.in_degrees = self._in_counts(arcs)
        self.sources = [full ^ ge[1] for ge in self.in_degrees]
        # item j: the plane of digraphs with exactly j sources
        self.source_count = _exactly(_at_least(self.sources, n, full))
        self._powers = {1: arcs}
        self._graphs = {}
        self._cm = {}  # m -> (connected, exact counts of l, components meet sources)
        self._stars = {}
        self._weak = None
        self._local_sg = None
        # predator bound: [item i: in-degrees <= 2 in D^1..D^i, anchor power, repeated]
        self._pred = None
        self._arc_bytes = None

    def digraph(self, b: int) -> _digraph.Digraph:
        """The digraph of bit b, read from ``arcs``; ``InputError`` for a bit
        outside ``full``.
        """
        if self._arc_bytes is None:
            # one byte string per arc plane, built on the first call: reading
            # a bit from it costs no shift of a whole plane
            size = (self.full.bit_length() + 7) // 8
            self._arc_bytes = [
                [(x & self.full).to_bytes(size, "little") for x in row] for row in self.arcs
            ]
        view, rows = self._arc_bytes, [0]
        if 0 <= b < 8 * len(view[0][0]):
            i, mask = b >> 3, 1 << (b & 7)
            rows = [sum(1 << w for w, x in enumerate(row) if x[i] & mask) for row in view]
        # the planes are masked to full, so a bit outside it has no arc
        if not all(rows):
            raise _digraph.InputError(f"bit {b} is not a digraph of this order-{self.n} batch")
        return _digraph.Digraph(self.n, rows)

    def release(self, m: int) -> None:
        """Drop the planes that only steps at m or below read, but keep
        ``power(m)``: the next m steps from it instead of squaring.
        """
        for memo in (self._graphs, self._cm, self._stars):
            for key in [key for key in memo if key <= m]:
                del memo[key]
        for key in [key for key in self._powers if 1 < key < m]:
            del self._powers[key]

    # -- D and its powers

    def power(self, m: int):
        p = self._powers.get(m)
        if p is None:
            prev = self._powers.get(m - 1)
            p = _product(prev, self.arcs) if prev is not None else _power(self.arcs, m)
            self._powers[m] = p
        return p

    def _in_counts(self, power) -> list[list[int]]:
        # per vertex, its in-degree counter saturated at 3
        return [_at_least(col, 3, self.full) for col in zip(*power)]

    def _out_degree_one(self, keep=None) -> list[int]:
        # planes of 'exactly one prey' (among ``keep`` when given) per vertex
        full = self.full
        out = []
        for row in self.arcs:
            ge = _at_least(row if keep is None else (x & k for x, k in zip(row, keep)), 2, full)
            out.append(ge[1] ^ ge[2])
        return out

    def one_source(self, m: int = 0) -> int:
        return self.source_count[1]

    # -- C^m(D)

    def graph(self, m: int) -> list[list[int]]:
        """Edge planes of C^m(D), as a symmetric matrix with a zero diagonal."""
        g = self._graphs.get(m)
        if g is None:
            prey = self.power(m)
            n = self.n
            g = [[0] * n for _ in range(n)]
            for u in range(n):
                for v in range(u + 1, n):
                    e = 0
                    for x, y in zip(prey[u], prey[v]):
                        e |= x & y
                    g[u][v] = g[v][u] = e
            self._graphs[m] = g
        return g

    def triangle_free(self, m: int) -> int:
        g = self.graph(m)
        n = self.n
        tri = 0
        for u in range(n):
            for v in range(u + 1, n):
                uv = g[u][v]
                if uv:
                    for w in range(v + 1, n):
                        tri |= uv & g[u][w] & g[v][w]
        return self.full & ~tri

    def _components(self, m: int):
        c = self._cm.get(m)
        if c is None:
            r = _closure(self.graph(m), self.full)
            l = _exactly(_at_least(_minima(r, self.full), self.n, self.full))
            c = (_all(r[0], self.full), l, self._components_meet_sources(r))
            self._cm[m] = c
        return c

    def connected(self, m: int) -> int:
        return self._components(m)[0]

    def k_eq_l(self, m: int) -> int:
        return _any(a & b for a, b in zip(self.source_count, self._components(m)[1]))

    def k_le_l(self, m: int) -> int:
        # l >= j for the j = k of each digraph: suffix unions of the exact counts
        l_ge, acc = [], 0
        for plane in reversed(self._components(m)[1]):
            acc |= plane
            l_ge.append(acc)
        return _any(a & b for a, b in zip(self.source_count, reversed(l_ge)))

    def every_cm_component_meets_sources(self, m: int) -> int:
        return self._components(m)[2]

    def star_ok(self, m: int) -> int:
        """Every component of C^m is a nontrivial star with a center among the sources.

        A component is a nontrivial star iff it has no isolated vertex and
        no edge joins two vertices of degree >= 2; its center is then the
        one vertex of degree >= 2, or either end of a single edge.
        """
        ok = self._stars.get(m)
        if ok is None:
            g = self.graph(m)
            src = self.sources
            full = self.full
            deg = [_at_least(row, 2, full) for row in g]
            bad = 0
            for v in range(self.n):
                bad |= (full ^ deg[v][1]) | (deg[v][2] & ~src[v])
                for u in range(v):
                    e = g[u][v]
                    if e:
                        hubs, leaves = deg[u][2] & deg[v][2], ~(deg[u][2] | deg[v][2])
                        bad |= e & (hubs | leaves & ~(src[u] | src[v]))
            ok = self._stars[m] = full & ~bad
        return ok

    def k_stars(self, m: int) -> int:
        # a star decomposition has one star per component of C^m
        return self.star_ok(m) & self.k_eq_l(m)

    # -- properties of D

    def _components_meet_sources(self, r) -> int:
        src = self.sources
        bad = 0
        for v, first in enumerate(_minima(r, self.full)):
            bad |= first & ~_any(x & s for x, s in zip(r[v], src))
        return self.full & ~bad

    def _weak_components(self):
        # (weakly connected, every weak component has a source, closure)
        if self._weak is None:
            a = self.arcs
            n = self.n
            r = _closure([[a[u][v] | a[v][u] for v in range(n)] for u in range(n)], self.full)
            self._weak = (_all(r[0], self.full), self._components_meet_sources(r), r)
        return self._weak

    def weakly_connected(self, m: int = 0) -> int:
        return self._weak_components()[0]

    def has_source(self, m: int = 0) -> int:
        return _any(self.sources)

    def every_weak_component_has_source(self, m: int = 0) -> int:
        return self._weak_components()[1]

    def all_weak_star_generating(self, m: int = 0) -> int:
        """Every weak component is star-generating on its own.

        No arc leaves a weak component, so its sources, prey and
        predators are those of D: S1 (less 'a source exists', checked per
        component), S2 and S3 are conditions on single vertices of D.
        """
        if self._local_sg is None:
            full = self.full
            src = self.sources
            in_eq2 = [ge[2] & ~ge[3] for ge in self.in_degrees]
            out_eq1 = self._out_degree_one()
            bad = 0
            for w, col in enumerate(zip(*self.arcs)):
                by_src = _at_least((x & s for x, s in zip(col, src)), 2, full)
                bad |= (
                    (full & ~_any(self.arcs[w]))  # no prey
                    | by_src[2]  # S2: two sources share prey w
                    | by_src[1] & ~in_eq2[w]  # S1: prey w of a source
                    | ~src[w] & ~(out_eq1[w] & in_eq2[w] & by_src[1] & ~by_src[2])  # S3
                )
            self._local_sg = full & ~bad & self.every_weak_component_has_source()
        return self._local_sg

    def star_generating(self, m: int = 0) -> int:
        return self.all_weak_star_generating() & self.weakly_connected()

    def cycle_union(self, m: int = 0) -> int:
        in_eq1 = [ge[1] & ~ge[2] for ge in self.in_degrees]
        return _all(self._out_degree_one() + in_eq1, self.full)

    def no_common_prey(self, m: int = 0) -> int:
        in_le1 = [self.full ^ ge[2] for ge in self.in_degrees]
        return _all(self._out_degree_one() + in_le1, self.full)

    def non_sources_cycle_union(self, m: int = 0) -> int:
        """Deleting the sources leaves a vertex-disjoint union of cycles."""
        full = self.full
        kept = [full ^ s for s in self.sources]
        out_eq1 = self._out_degree_one(kept)
        bad = 0
        for u, col in enumerate(zip(*self.arcs)):
            ge = _at_least((x & k for x, k in zip(col, kept)), 2, full)
            bad |= kept[u] & ~(out_eq1[u] & ge[1] & ~ge[2])
        return full & ~bad

    # -- witness atoms

    def prey_monotone(self, m: int) -> int:
        g, g_next = self.graph(m), self.graph(m + 1)
        bad = 0
        for u in range(self.n):
            for v in range(u + 1, self.n):
                bad |= g[u][v] & ~g_next[u][v]
        return self.full & ~bad

    def predator_bound(self, m: int) -> int:
        """In-degrees stay <= 2 in D^1..D^m.

        Powers are eventually periodic, so once a digraph's D^i equals an
        earlier power, later powers add no new in-degrees, and the loop
        stops when that holds for the whole batch.  D^i is compared with
        the anchor D^(2^k), 2^k < i <= 2^(k+1), as in Brent's cycle
        detection: a digraph whose powers repeat from D^a on, with period
        p, matches by i = 2 max(a, p), and only one earlier power is kept.
        """
        if self._pred is None:
            self._pred = [[self.full], None, 0]
        ok, anchor, repeated = self._pred
        full = self.full
        while len(ok) <= m and repeated != full:
            i = len(ok)
            p = self.power(i)
            if anchor is not None:
                same = full
                for x, y in zip(sum(p, ()), anchor):
                    same &= ~(x ^ y)
                    if not same:
                        break
                repeated |= same
            if not i & (i - 1):
                anchor = sum(p, ())
            ok.append(ok[-1] & ~_any(ge[3] for ge in self._in_counts(p)))
        self._pred[1:] = anchor, repeated
        return ok[min(m, len(ok) - 1)]

    def predators_when_k_eq_l(self, m: int) -> int:
        """When k = l, every non-source has two m-step predators and shares
        at most one with any other vertex.
        """
        full = self.full
        src = self.sources
        power = self.power(m)
        pred = list(zip(*power))
        bad = 0
        for u, ge in enumerate(self._in_counts(power)):
            bad |= ~src[u] & ~(ge[2] & ~ge[3])
            for v in range(u + 1, self.n):
                shared = _at_least((x & y for x, y in zip(pred[u], pred[v])), 2, full)
                bad |= shared[2] & ~(src[u] & src[v])
        return full & ~(bad & self.k_eq_l(m))

    def pendant(self, m: int) -> int:
        """A vertex sharing prey with a source has one prey, and that source
        is its only neighbor in C^m.
        """
        g1, g = self.graph(1), self.graph(m)
        src = self.sources
        out_eq1 = self._out_degree_one()
        n = self.n
        bad = 0
        for u in range(n):
            for v in range(n):
                if u != v:
                    only_v = g[u][v] & ~_any(g[u][x] for x in range(n) if x != v)
                    bad |= src[v] & g1[u][v] & ~(out_eq1[u] & only_v)
        return self.full & ~bad

    def _subdigraphs(self):
        """(mask, arc planes) of each subdigraph of ``verify.ClaimContext.subdigraphs``.

        The mask marks the digraphs that have the subdigraph: D - uv where
        u has another prey, and, where D is not weakly connected, the weak
        component of each root r with every arc outside it dropped.  A
        component with several roots is yielded once per root.
        """
        a = self.arcs
        full = self.full
        for u, row in enumerate(a):
            several = _at_least(row, 2, full)[2]
            for v, x in enumerate(row):
                if x & several:
                    yield x & several, a[:u] + (row[:v] + (0,) + row[v + 1 :],) + a[u + 1 :]
        split = full ^ self.weakly_connected()
        if split:
            r = self._weak_components()[2]
            for root in range(self.n):
                yield split, tuple(tuple(x & r[u][root] for x in row) for u, row in enumerate(a))

    def sub_monotone(self, m: int) -> int:
        """Every edge of a subdigraph's C^m is an edge of C^m(D).

        Each subdigraph is built and powered on its own, and none of its
        planes is kept, so the memory held is that of one power sequence.
        Only digraphs whose C^m misses some pair are tested.
        """
        g = self.graph(m)
        full = self.full
        n = self.n
        pairs = [(x, y) for x in range(n) for y in range(x + 1, n)]
        todo = full & ~_all((g[x][y] for x, y in pairs), full)
        bad = 0
        for mask, sub in self._subdigraphs():
            mask &= todo & ~bad
            if not mask:
                continue
            prey = _power(sub, m)
            for x, y in pairs:
                miss = mask & ~g[x][y]
                if miss:
                    e = 0
                    for s, t in zip(prey[x], prey[y]):
                        e |= s & t
                    bad |= miss & e
        return full & ~bad
