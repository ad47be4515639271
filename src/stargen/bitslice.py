"""Bit-sliced evaluation of claim atoms over batches of digraphs.

A *plane* is a Python int whose bit b stands for one digraph of a batch
(the bitslice technique of Biham, *A fast new DES implementation in
software*, FSE 1997).  The n x n arc planes of a batch hold its adjacency
matrices, so one boolean matrix product of planes is one product for
every digraph of the batch, and a property of (D, m) becomes one plane
whose set bits are the digraphs that have it.  Every plane is masked to
the batch's ``full``, the plane of its bits that are digraphs (every
out-row non-empty).  A scan walks a plane's set bits with ``digraph.bits``,
linear in the plane's size, and ``PlaneContext.digraph(b)`` reads bit b's
digraph back from the arc planes.

Exhaustive scans run on streams of n-digit tuples, all from
``batches(n, degrees)``, in batches whose leading digits are constant, so
their arc planes are all-zero or all-one, and whose t trailing digits
vary, t the most that keep a batch within ``CAP_BITS``; the trailing arc
planes are built once per call, each by doubling one period of its
pattern, and ``first``/``stop`` resume any stream at a batch.  With
``degrees`` None the digits are out-rows, each one of the 2**n - 1
non-empty sets, so every bit is a digraph.  With a set of in-degrees
they are in-columns, each one of the predator sets whose size lies in
the set, and ``full`` leaves out the column tuples that give some vertex
no prey; the bits of ``full`` are the digraphs with every in-degree in
that set, each once.  Sampled scans run on ``draws``, batches of any
stream indices of one order, repeats included.

``PlaneContext`` mirrors ``verify.ClaimContext`` for one batch: it
memoizes the powers and competition graphs, the C^m and weak component
summaries, the local star-generating plane and the subdigraph verdicts,
and every atom of the claim catalog reads its ``plane`` from it.  The
subdigraph check (Lemma 3.4) derives each subdigraph's arc planes from the
batch's and sweeps its ``m_values`` one subdigraph at a time, stepping its
power by one product per m: it holds one power chain and the C^m edge
planes of the m values still to come, |m values| x C(n, 2) planes.
"""

from __future__ import annotations

from typing import Iterator, Sequence

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
    size = base**t
    ones = (1 << size) - 1
    planes = []
    for p in range(t - 1, -1, -1):
        run = base**p
        block = (1 << run) - 1
        digit_planes = []
        for w in range(n):
            plane = 0
            for digit, value in enumerate(values):
                if value >> w & 1:
                    plane |= block << digit * run
            # the pattern fills one period of run * base bits; each shift
            # doubles the copies made so far, and ``ones`` cuts the overshoot
            width = run * base
            while width < size:
                plane |= plane << width
                width <<= 1
            digit_planes.append(plane & ones)
        planes.append(tuple(digit_planes))
    return tuple(planes)


def _predator_sets(n: int, degrees: frozenset[int]) -> list[int]:
    """The sets of vertices whose size lies in ``degrees``, as masks: the
    digit values of a capped stream's in-columns.
    """
    return [mask for mask in range(2**n) if mask.bit_count() in degrees]


def batches(
    n: int, degrees: frozenset[int] | None = None, *, first: int = 0, stop: int | None = None
) -> Iterator[PlaneContext]:
    """One ``PlaneContext`` per batch of order n, batches [first, stop), to
    the last by default.

    With ``degrees`` None each digit is an out-row, one of the 2**n - 1
    non-empty sets.  With a set of in-degrees each digit is an in-column,
    one of the predator sets whose size lies in ``degrees``, and the bits
    of ``full`` are the digraphs with every in-degree in that set.
    """
    if first < 0:  # divmod would read the digits of a negative k from the end
        raise _digraph.InputError(f"first batch must be non-negative, got {first}")
    values = range(1, 2**n) if degrees is None else _predator_sets(n, degrees)
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
        if degrees is not None:  # arc plane (u, w) is plane u of column w
            arcs = tuple(zip(*arcs))
        yield PlaneContext(n, arcs, _all((_any(row) for row in arcs), ones))


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
    ``m_values``, empty unless the scan sets it, lists its rounds' m:
    ``sub_monotone`` sweeps them at once and holds their C^m until then.
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
        "_sub_bad",
        "_weak",
        "_local_sg",
        "_arc_bytes",
        "m_values",
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
        self._cm = {}  # m -> _components(m)
        self._sub_bad = {}  # m -> plane of digraphs failing sub_monotone at m
        self._weak = None
        self._local_sg = None
        self._arc_bytes = None
        self.m_values = ()

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
            rows = []
            for row in view:
                acc = 0
                for w, x in enumerate(row):
                    if x[i] & mask:
                        acc |= 1 << w
                rows.append(acc)
        # the planes are masked to full, so a bit outside it has no arc
        if not all(rows):
            raise _digraph.InputError(f"bit {b} is not a digraph of this order-{self.n} batch")
        return _digraph.Digraph(self.n, rows)

    def release(self, m: int) -> None:
        """Drop the planes that only steps at m or below read, but keep
        ``power(m)``: the next m steps from it instead of squaring.
        """
        for memo in (self._graphs, self._cm, self._sub_bad):
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

    def _summary(self, adj):
        """(connected, ``_at_least`` counter of the component count, every
        component meets a source, closure) of a symmetric matrix of planes.
        """
        full = self.full
        r = _closure(adj, full)
        minima = _minima(r, full)
        bad = 0
        for v, first in enumerate(minima):
            bad |= first & ~_any(x & s for x, s in zip(r[v], self.sources))
        return _all(r[0], full), _at_least(minima, self.n, full), full & ~bad, r

    def _components(self, m: int):
        """C^m's ``_summary`` less its closure: the memo holds no closure."""
        c = self._cm.get(m)
        if c is None:
            c = self._cm[m] = self._summary(self.graph(m))[:3]
        return c

    def connected(self, m: int) -> int:
        return self._components(m)[0]

    def k_eq_l(self, m: int) -> int:
        l = _exactly(self._components(m)[1])
        return _any(a & b for a, b in zip(self.source_count, l))

    def k_le_l(self, m: int) -> int:
        # l >= j for the j = k of each digraph
        return _any(a & b for a, b in zip(self.source_count, self._components(m)[1]))

    def every_cm_component_meets_sources(self, m: int) -> int:
        return self._components(m)[2]

    def star_ok(self, m: int) -> int:
        """Every component of C^m is a nontrivial star with a center among the sources.

        A component is a nontrivial star iff it has no isolated vertex and
        no edge joins two vertices of degree >= 2; its center is then the
        one vertex of degree >= 2, or either end of a single edge.
        """
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
        return full & ~bad

    # -- properties of D

    def _weak_components(self):
        # the ``_summary`` of D's underlying graph
        if self._weak is None:
            a = self.arcs
            n = self.n
            self._weak = self._summary([[a[u][v] | a[v][u] for v in range(n)] for u in range(n)])
        return self._weak

    def weakly_connected(self, m: int = 0) -> int:
        return self._weak_components()[0]

    def has_source(self, m: int = 0) -> int:
        return self.full ^ self.source_count[0]

    def every_weak_component_has_source(self, m: int = 0) -> int:
        return self._weak_components()[2]

    def all_weak_star_generating(self, m: int = 0) -> int:
        """Every weak component is star-generating on its own.

        No arc leaves a weak component, so its sources, prey and
        predators are those of D: S1 (less 'a source exists', checked per
        component), S2 and S3 are conditions on single vertices of D.  S3
        decides all three: a source's prey has a predator, so it is no source,
        and S3 gives it two predators, exactly one of them a source.
        """
        if self._local_sg is None:
            full = self.full
            src = self.sources
            in_eq2 = [ge[2] & ~ge[3] for ge in self.in_degrees]
            out_eq1 = self._out_degree_one()
            bad = 0
            for w, col in enumerate(zip(*self.arcs)):
                by_src = _at_least((x & s for x, s in zip(col, src)), 2, full)
                bad |= ~src[w] & ~(out_eq1[w] & in_eq2[w] & by_src[1] & ~by_src[2])
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
        """In-degrees stay <= 2 in D^1..D^m, decided on D^m alone.

        Three predators of a vertex in D^i give some vertex three in every
        later power, by the walk-on argument of ``verify.Atom``, so D^m has
        one wherever an earlier power does.
        """
        return self.full & ~_any(ge[3] for ge in self._in_counts(self.power(m)))

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
            r = self._weak_components()[3]
            for root in range(self.n):
                yield split, tuple(tuple(x & r[u][root] for x in row) for u, row in enumerate(a))

    def sub_monotone(self, m: int) -> int:
        """Every edge of a subdigraph's C^m is an edge of C^m(D).

        The first call sweeps m and the later ``m_values`` in one walk of
        the subdigraphs.  Each keeps one power, stepped by one product to
        the next m or squared after a gap, and dropped before the next.
        At each m only digraphs whose C^m misses some pair, and that have
        not failed, are tested; a subdigraph none of them has is skipped.
        """
        if m not in self._sub_bad:
            full = self.full
            n = self.n
            pairs = [(x, y) for x in range(n) for y in range(x + 1, n)]
            ks = [m] + [k for k in self.m_values if k > m]
            graphs = []
            for k in ks:
                graphs.append(self.graph(k))
                # keep D^m and the power the next k steps from; a later
                # round that needs its own power steps to it again
                for key in [key for key in self._powers if m < key < k]:
                    del self._powers[key]
            todo = [full & ~_all((g[x][y] for x, y in pairs), full) for g in graphs]
            bad = [0] * len(ks)
            for mask, sub in self._subdigraphs():
                prey = at = None
                for i, k in enumerate(ks):
                    test = mask & todo[i] & ~bad[i]
                    if test:
                        prey = _product(prey, sub) if at == k - 1 else _power(sub, k)
                        at = k
                        for x, y in pairs:
                            miss = test & ~graphs[i][x][y]
                            if miss:
                                e = 0
                                for s, t in zip(prey[x], prey[y]):
                                    e |= s & t
                                bad[i] |= miss & e
            self._sub_bad.update(zip(ks, bad))
        return self.full & ~self._sub_bad[m]
