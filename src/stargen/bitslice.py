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

``PlaneContext`` mirrors ``verify.ClaimContext`` for one batch.  It
takes the batch's arc planes and ``runs``, and works out n and ``full``
from the arc planes.  When the batch is built it counts every vertex's
predators, its 'one prey' plane, which ``pendant`` and the deletion walk
read, and the sources and their number; it memoizes the powers and
competition graphs, the C^m and weak component summaries, the local
star-generating plane and the deletions' power chains; and every atom
of the claim catalog reads its ``plane`` from it.  The subdigraph check
(Lemma 3.4) walks the one-arc deletions D - uv at one m per call.  On
the out-row stream a deletion whose u is a trailing digit is a digraph
of the same batch, a fixed number of bits below D, so its C^m edge
planes are the batch's, shifted; every other deletion, an arc of a
leading row, derives its arc planes from the batch's and keeps its power
between rounds, stepped by one product per m.  Every deletion of a
draws batch leaves it, so there each power is squared and dropped.  The
check holds that m's C^m edge and non-edge planes, 2 x C(n, 2) planes,
and one power per leading-row deletion of a stream batch (at most 10 at
order 5, 18 at order 6) or one power on draws.
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
    _digraph._check_count(n, 1, "order")
    # divmod would read the digits of a negative k from the end
    _digraph._check_count(first, 0, "first batch")
    if stop is not None:
        _digraph._check_count(stop, 0, "stop batch")
    values = range(1, 2**n) if degrees is None else _predator_sets(n, degrees)
    base = len(values)
    t = _trailing_digits(base, n)
    size = base**t
    ones = (1 << size) - 1
    trailing = _trailing_planes(values, n, t)
    # out-row u's digit has run base**(n - 1 - u) inside a batch when trailing;
    # dropping an arc from an in-column may leave the capped stream
    runs = None
    if degrees is None:
        runs = (None,) * (n - t) + tuple(base**p for p in range(t - 1, -1, -1))
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
        yield PlaneContext(arcs, runs)


def draws(n: int, indices: Sequence[int]) -> PlaneContext:
    """The batch whose bit b is the order-n digraph at stream index ``indices[b]``."""
    _digraph._check_count(n, 1, "order")
    total = _generate.digraph_space_size(n)
    # draw b's out-rows are field b of one binary string, which arc plane
    # (u, w) reads with stride n*n; a zero field on top keeps it non-empty
    # and is bit len(indices) of every arc plane, so no bit from there up
    # is in full
    width = n * n
    fields = ["0" * width]
    for index in reversed(indices):
        # the test inline, and the call only to refuse: this runs once per draw
        if type(index) is not int or not 0 <= index < total:
            _digraph._check_index(index, n, "index", total)
        packed = 0
        for v, row in enumerate(_generate._out_rows(n, index)):
            packed |= row << v * n
        fields.append(format(packed, f"0{width}b"))
    text = "".join(fields)
    arcs = tuple(
        tuple(int(text[width - 1 - u * n - w :: width], 2) for w in range(n)) for u in range(n)
    )
    return PlaneContext(arcs)


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


def _meet(a, b) -> int:
    """The plane where two rows of planes share a column."""
    acc = 0
    for x, y in zip(a, b):
        acc |= x & y
    return acc


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
    from ``arcs``.  The constructor takes the arc planes and ``runs`` and
    works out the rest: n is the number of rows of ``arcs``, and ``full``,
    the plane of the bits that are digraphs, those whose out-rows are all
    non-empty, is the AND over the rows of each row's OR.  Methods mirror
    ``verify.ClaimContext``, return planes masked to ``full``, and take m
    even for properties of D alone.  Built up front, per vertex: its
    in-degree counter saturated at 3 (``in_degrees``), and its planes of
    'exactly one prey' (``one_prey``, read by ``pendant`` and the deletion
    walk) and 'no predator' (``sources``); and per j the plane of 'exactly
    j sources' (``source_count``).  The structure planes test in-degrees
    only, and their docstrings prove the prey counts they imply from two
    facts: every vertex of a digraph bit has a prey, and no arc enters a
    source, so every prey is a non-source.  A scan evaluates m in
    increasing order and calls ``release`` after each, so only the planes
    of about two consecutive m, the power the next m steps from and, on a
    stream batch, one power per leading-row deletion are held at a time.
    ``runs``, given by the out-row stream only, holds per vertex u the run
    of u's out-row digit inside the batch, or None where that digit is a
    leading one: then D - uv is bit ``2**v * runs[u]`` below D, in the batch.
    """

    __slots__ = (
        "n",
        "full",
        "arcs",
        "in_degrees",
        "one_prey",
        "sources",
        "source_count",
        "_powers",
        "_graphs",
        "_cm",
        "_chains",
        "_weak",
        "_local_sg",
        "_arc_bytes",
        "runs",
    )

    def __init__(self, arcs, runs=None):
        n = self.n = len(arcs)
        # the bits whose out-rows are all non-empty
        full = self.full = _all(map(_any, arcs), -1)
        self.arcs = arcs
        self.runs = runs or (None,) * n
        self.in_degrees = self._in_counts(arcs)
        # every digraph bit has a prey, so 'not two' is 'exactly one'
        self.one_prey = [full ^ _at_least(row, 2, full)[2] for row in arcs]
        self.sources = [full ^ ge[1] for ge in self.in_degrees]
        # item j: the plane of digraphs with exactly j sources
        self.source_count = _exactly(_at_least(self.sources, n, full))
        self._powers = {1: arcs}
        self._graphs = {}
        self._cm = {}  # m -> _components(m)
        # position in _subdigraphs() -> (m, the deletion's power m), on a stream
        # batch only: a draws batch's deletions all leave it
        self._chains = {} if runs else None
        self._weak = None
        self._local_sg = None
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
        ``power(m)`` and the deletions' chains: the next m steps from them
        instead of squaring.
        """
        for memo in (self._graphs, self._cm):
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
                    g[u][v] = g[v][u] = _meet(prey[u], prey[v])
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
        component meets a source) of a symmetric matrix of planes.
        """
        full = self.full
        r = _closure(adj, full)
        minima = _minima(r, full)
        bad = 0
        for v, first in enumerate(minima):
            bad |= first & ~_meet(r[v], self.sources)
        return _all(r[0], full), _at_least(minima, self.n, full), full & ~bad

    def _components(self, m: int):
        c = self._cm.get(m)
        if c is None:
            c = self._cm[m] = self._summary(self.graph(m))
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
        predators are those of D, and one test on each non-source decides
        S1, S2 and S3: at most two predators, at least one of them a source.
        - S3: a non-source's prey are non-sources, and each of the n - k
          non-sources has a prey, so at least n - k arcs run among them.
          The test leaves each non-source at most one non-source
          predator, so each has exactly one, and with its source predator
          exactly two; then n - k arcs leave the n - k non-sources, so
          each has exactly one prey.
        - S1's 'a source exists': every weak component holds some
          vertex's prey, a non-source, and its source predator lies in the
          same component.
        - The rest of S1, and S2: a source's prey is a non-source, so it
          has two predators, exactly one of them a source.
        """
        if self._local_sg is None:
            src = self.sources
            bad = 0
            for w, col in enumerate(zip(*self.arcs)):
                bad |= ~src[w] & (self.in_degrees[w][3] | ~_meet(col, src))
            self._local_sg = self.full & ~bad
        return self._local_sg

    def star_generating(self, m: int = 0) -> int:
        return self.all_weak_star_generating() & self.weakly_connected()

    def cycle_union(self, m: int = 0) -> int:
        """D is a vertex-disjoint union of cycles: every vertex has one
        predator and one prey.

        In-degree 1 everywhere gives n arcs, and each of the n vertices has
        a prey, so each has exactly one.
        """
        return _all((ge[1] & ~ge[2] for ge in self.in_degrees), self.full)

    def no_common_prey(self, m: int = 0) -> int:
        """No two vertices share a prey, and every vertex has one prey.

        In-degree at most 1 everywhere gives at most n arcs, and each of
        the n vertices has a prey, so each has exactly one.
        """
        return self.full & ~_any(ge[2] for ge in self.in_degrees)

    def non_sources_cycle_union(self, m: int = 0) -> int:
        """Deleting the sources leaves a vertex-disjoint union of cycles:
        every non-source has one non-source predator and one prey.

        A non-source's prey are non-sources.  One non-source predator per
        non-source gives the n - k non-sources n - k arcs among themselves,
        and each has a prey, so each has exactly one.
        """
        full = self.full
        kept = [full ^ s for s in self.sources]
        bad = 0
        for u, col in enumerate(zip(*self.arcs)):
            ge = _at_least((x & k for x, k in zip(col, kept)), 2, full)
            bad |= kept[u] & ~(ge[1] & ~ge[2])
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
        is its only neighbor in C^m: u is adjacent to v, and below 2 on the
        degree counter ``star_ok`` builds.
        """
        g1, g = self.graph(1), self.graph(m)
        src = self.sources
        full = self.full
        bad = 0
        for u, row in enumerate(g):
            single = self.one_prey[u] & ~_at_least(row, 2, full)[2]
            for v, e in enumerate(row):  # g1's zero diagonal leaves v = u out
                bad |= src[v] & g1[u][v] & ~(single & e)
        return full & ~bad

    def _subdigraphs(self):
        """(mask, shift, arc planes) of each one-arc deletion D - uv of
        ``verify.ClaimContext.subdigraphs``; the mask marks the digraphs
        where u has another prey.

        Where u's out-row is a trailing digit of ``runs``, dropping v lowers
        that digit, u's row less one, by 2**v with no borrow, since u keeps
        another prey: D - uv is the digraph ``shift = 2**v * runs[u]`` bits
        below D, so its C^m edge planes are the batch's shifted up by
        ``shift``, and its arc planes are None.  Every other deletion has
        shift None and its own arc planes.
        """
        a = self.arcs
        full = self.full
        for u, (row, run, one) in enumerate(zip(a, self.runs, self.one_prey)):
            several = full ^ one
            for v, x in enumerate(row):
                mask = x & several
                if mask:
                    if run is None:
                        sub = a[:u] + (row[:v] + (0,) + row[v + 1 :],) + a[u + 1 :]
                        yield mask, None, sub
                    else:
                        yield mask, run << v, None

    def sub_monotone(self, m: int) -> int:
        """Every edge of a subdigraph's C^m is an edge of C^m(D).

        One walk of the one-arc deletions.  A deletion in the batch reads
        its C^m as the batch's C^m shifted by its ``shift``.  On a stream
        batch any other, a leading-row arc, keeps its last power in
        ``_chains``, stepped by one product from m - 1 and squared
        otherwise, as ``power`` does.  Every deletion of a draws batch
        leaves it, up to n**2 of them, so it keeps no chain and squares
        each power, holding one at a time.  Only digraphs whose C^m misses
        some pair, and that have not failed, are tested; a deletion none of
        them has is skipped.
        """
        full = self.full
        chains = self._chains
        g = self.graph(m)
        pairs = [(x, y) for x in range(self.n) for y in range(x + 1, self.n)]
        # the plane of each pair's non-edge, and of any non-edge
        gaps = [full & ~g[x][y] for x, y in pairs]
        todo = _any(gaps)
        bad = 0
        for i, (mask, shift, sub) in enumerate(self._subdigraphs()):
            test = mask & todo & ~bad
            if test:
                if shift is None:
                    at, prey = (chains or {}).get(i, (None, None))
                    prey = _product(prey, sub) if at == m - 1 else _power(sub, m)
                    if chains is not None:
                        chains[i] = m, prey
                for (x, y), gap in zip(pairs, gaps):
                    miss = test & gap
                    if miss:
                        if shift is None:
                            bad |= miss & _meet(prey[x], prey[y])
                        else:
                            bad |= miss & g[x][y] << shift
        return full & ~bad
