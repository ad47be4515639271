"""Exhaustive and sampled verification of the catalog of structural claims
about m-step competition graphs over bounded digraph spaces.

Every claim is split into directed sub-checks with their own minimum m
(biconditionals are never merged, since the two directions hold on
different m ranges).  Each direction is ``hypothesis atoms ⇒
conclusion atoms`` over one set of named atoms, which are composed from
the public operations of the other modules.  An atom's check returns
None where it holds and the failure detail where it does not, so any
atom can be a conclusion.  A per-digraph context memoizes the powers,
competition graphs and weak-component verdict the checks reread at each
m, and keeps D's sources and weak components only as the bitmasks of
``digraph._source_mask`` and ``_weak_masks``, so the atoms on them are
popcounts, shifts and ANDs.  Every atom also has a bit plane form.

Scans run in one process.  Exhaustive and sampled scans, and the
``thm_3_2`` census, evaluate every direction on batches of the stream or
of seeded draws at once (``bitslice``) and build a digraph only for the
bits they flag: ``digraph.bits`` walks them, and after a batch's rounds
each is read back from its arc planes (``PlaneContext.digraph``) and
replayed once, on a ``ClaimContext`` that writes the failure details of
all its entries and must agree; hits and entries go straight into the
reports.  Each atom's one-line proof gives the in-degrees of D it allows
(``Atom.cap``).  An exhaustive scan runs each direction on
``bitslice.batches(n, cap)``, the digraphs with every in-degree in the
intersection of its hypothesis atoms' sets, the census included, and
the directions without a capped atom on the whole stream (``cap``
None); sampled scans draw from the whole space.
Either way a report counts the whole space it covers.  ``ClaimContext``
also runs the grid and replays, and is the reference the tests check
every plane against.
"""

from __future__ import annotations

import json
import operator
import random
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, NamedTuple

from . import bitslice as _bitslice
from . import classify as _classify
from . import competition as _competition
from . import digraph as _digraph
from . import generate as _generate
from .digraph import Digraph, InputError


class ClaimContext:
    """One digraph under scrutiny, with memos of what the atoms reread at
    every m: D's powers and competition graphs, and whether every weak
    component is star-generating.  Every context reads D's sources and weak
    components, so it builds them with itself, as bitmasks only:
    ``source_mask`` (the vertices of in-degree 0) and ``weak_masks``
    (ordered by smallest member).  The atoms on them are popcounts, shifts
    and ANDs of ints, and the classifier reuses both masks, so D is searched
    once.  ``STAR_OK`` builds the source set from its mask for
    ``competition.star_decomposition``, the one public call that takes a set.
    """

    __slots__ = (
        "d", "_powers", "_graphs", "source_mask", "weak_masks", "weakly_connected", "_all_weak_sg"
    )

    def __init__(self, d: Digraph):
        self.d = d
        self._powers = {1: d}
        self._graphs = {}
        self.source_mask = _digraph._source_mask(d)
        self.weak_masks = _digraph._weak_masks(d)
        self.weakly_connected = len(self.weak_masks) == 1
        self._all_weak_sg = None

    def power(self, m: int) -> Digraph:
        p = self._powers.get(m)
        if p is None:
            # step from D^(m-1) when it is cached, else square from scratch
            prev = self._powers.get(m - 1)
            if prev is not None:
                p = _digraph.compose(prev, self.d)
            else:
                p = _digraph.m_step_digraph(self.d, m)
            self._powers[m] = p
        return p

    def graph(self, m: int) -> _competition.Graph:
        g = self._graphs.get(m)
        if g is None:
            # C^m(D) equals the ordinary competition graph of D^m
            g = _competition.competition_graph(self.power(m), 1)
            self._graphs[m] = g
        return g

    def n_components(self, m: int) -> int:
        return len(self.graph(m)._comps)

    @property
    def all_weak_star_generating(self) -> bool:
        if self._all_weak_sg is None:
            # no arc leaves a weak component, so each is classified in place
            src = self.source_mask
            self._all_weak_sg = all(
                _classify._classify(self.d, [c], src).star_generating
                for c in self.weak_masks
            )
        return self._all_weak_sg

    def subdigraphs(self) -> list[list[int]]:
        """Deterministic subdigraph selection for monotonicity checks.

        Each subdigraph is a list of out-rows on this digraph's labels, in
        this order: every one-arc deletion (u, v) that keeps all outdegrees
        >= 1, by (u, v); then, when there are several weak components, each
        component with every row outside it zeroed.
        """
        host = self.d.out_rows
        subs = []
        for u, row in enumerate(host):
            if row.bit_count() < 2:
                continue
            for v in _digraph.bits(row):
                rows = list(host)
                rows[u] = row & ~(1 << v)
                subs.append(rows)
        if not self.weakly_connected:
            for comp in self.weak_masks:
                subs.append([row if comp >> u & 1 else 0 for u, row in enumerate(host)])
        return subs


# --- atoms ----------------------------------------------------------------
# Every claim direction is an implication between about a dozen properties
# of D and C^m(D).  An atom names one of them: ``check`` returns None where
# it holds on a ``ClaimContext`` and the failure detail where it does not,
# ``plane`` decides it for a whole batch of digraphs on a
# ``bitslice.PlaneContext``, and ``cap`` is the set of in-degrees of D
# where it holds.


class Atom(NamedTuple):
    """A property of (D, m); any atom can be a hypothesis or a conclusion.

    ``cap`` is the frozenset of in-degrees of D that a digraph with the
    property can have, or None; each atom's comment gives its proof.  TF's
    rests on the walk-on argument: every vertex of D has a prey, so three
    i-step predators of a vertex w are (i + 1)-step predators of any prey
    of w, and a vertex with three predators in D^i leaves one with three
    in every later power.  With i = 1, three predators of one prey share
    an m-step prey at every m, and C^m has a triangle (Proposition 2.3
    with i = 1), so TF allows in-degrees {0, 1, 2} only.  A direction
    scans the digraphs with every in-degree in the intersection of its
    hypothesis atoms' sets (``bitslice.batches(n, cap)``); the same argument
    lets ``PlaneContext.predator_bound`` decide Proposition 2.3 on D^m alone.
    """

    check: Callable[[ClaimContext, int], str | None]
    plane: Callable[[_bitslice.PlaneContext, int], int]
    cap: frozenset[int] | None = None


def _prey_monotone(c: ClaimContext, m: int) -> str | None:
    g, g_next = c.graph(m), c.graph(m + 1)
    for v in range(g.n):
        extra = g.rows[v] & ~g_next.rows[v]
        if extra:
            u = (extra & -extra).bit_length() - 1
            return (
                f"vertices {min(u, v)} and {max(u, v)} share a {m}-step prey "
                f"but no {m + 1}-step prey"
            )
    return None


def _predator_bound(c: ClaimContext, m: int) -> str | None:
    seen = set()
    for i in range(1, m + 1):
        p = c.power(i)
        if p.out_rows in seen:
            break  # powers are eventually periodic: no new in-rows from here on
        seen.add(p.out_rows)
        for u, row in enumerate(p.in_rows):
            count = row.bit_count()
            if count > 2:
                return f"vertex {u} has {count} {i}-step predators"
    return None


def _predators_when_k_eq_l(c: ClaimContext, m: int) -> str | None:
    src = c.source_mask
    if src.bit_count() != c.n_components(m):
        return None
    pred = c.power(m).in_rows
    non_sources = [u for u in range(c.d.n) if not src >> u & 1]
    for u in non_sources:
        count = pred[u].bit_count()
        if count != 2:
            return f"l = k but vertex {u} has {count} m-step predators"
    for u in non_sources:
        for v in range(c.d.n):
            if v != u and (pred[u] & pred[v]).bit_count() > 1:
                return (
                    f"l = k but vertices {u} and {v} share "
                    f"{(pred[u] & pred[v]).bit_count()} m-step predators"
                )
    return None


def _pendant(c: ClaimContext, m: int) -> str | None:
    out = c.d.out_rows
    cg = c.graph(m)
    for v in _digraph.bits(c.source_mask):
        for u in range(c.d.n):
            if u == v or not out[u] & out[v]:
                continue
            if out[u].bit_count() != 1:
                return f"vertex {u} shares prey with source {v} but has several prey"
            if cg.rows[u] != 1 << v:
                return (
                    f"vertex {u} shares prey with source {v} but its "
                    f"competition neighbors are not exactly {{{v}}}"
                )
    return None


def _sub_monotone(c: ClaimContext, m: int) -> str | None:
    # a subdigraph's edge is missing from the host's C^m iff it joins a
    # host non-edge, so only those pairs are tested, in lexicographic order
    g = c.graph(m).rows
    n = c.d.n
    missing = [(u, v) for u in range(n) for v in range(u + 1, n) if not g[u] >> v & 1]
    if not missing:
        return None
    for prey in (_digraph._row_power(sub, m) for sub in c.subdigraphs()):
        for u, v in missing:
            if prey[u] & prey[v]:
                return (
                    f"edge {{{u}, {v}}} of a subdigraph's "
                    f"{m}-step competition graph is missing from the host's"
                )
    return None


def _non_sources_cycle_union(c: ClaimContext, m: int) -> str | None:
    keep = [v for v in range(c.d.n) if not c.source_mask >> v & 1]
    sub, _ = _digraph.induced_subdigraph(c.d, keep)
    if _classify.is_disjoint_cycle_union(sub)[0]:
        return None
    return "removing the sources does not leave disjoint cycles"


def _one_source(c: ClaimContext, m: int) -> str | None:
    k = c.source_mask.bit_count()
    return None if k == 1 else f"digraph has {k} sources"


def _connected(c: ClaimContext, m: int) -> str | None:
    l = c.n_components(m)
    return None if l == 1 else f"competition graph has {l} components"


def _k_vs_l(relation: Callable[[int, int], bool]) -> Callable[[ClaimContext, int], str | None]:
    """The check that k and l are in ``relation``; its detail gives both."""

    def check(c: ClaimContext, m: int) -> str | None:
        k, l = c.source_mask.bit_count(), c.n_components(m)
        return None if relation(k, l) else f"{k} sources but {l} components"

    return check


def _star_ok(c: ClaimContext, m: int) -> str | None:
    sd = _competition.star_decomposition(c.graph(m), frozenset(_digraph.bits(c.source_mask)))
    return None if sd else f"component {sorted(sd.component)}: {sd.reason}"


# properties of D; m is ignored
_PC = _bitslice.PlaneContext
WEAKLY_CONNECTED = Atom(
    lambda c, m: None if c.weakly_connected else "digraph is not weakly connected",
    _PC.weakly_connected,
)
HAS_SOURCE = Atom(lambda c, m: None if c.source_mask else "digraph has no source", _PC.has_source)
WEAK_SOURCES = Atom(
    lambda c, m: (
        None
        if all(comp & c.source_mask for comp in c.weak_masks)
        else "some weak component has no source"
    ),
    _PC.every_weak_component_has_source,
)
NO_COMMON_PREY = Atom(
    lambda c, m: (
        None
        if _classify.check_no_common_prey_functional(c.d)
        else "not every vertex has one prey of its own"
    ),
    _PC.no_common_prey,
    cap=frozenset({0, 1}),  # no two vertices share a prey
)
ONE_SOURCE = Atom(_one_source, _PC.one_source)
SG = Atom(
    lambda c, m: (
        None
        if c.weakly_connected and c.all_weak_star_generating
        else "digraph is not star-generating"
    ),
    _PC.star_generating,
    cap=frozenset({0, 2}),  # by S1-S3 a non-source has exactly two predators, a source none
)
ALL_WEAK_SG = Atom(
    lambda c, m: (
        None if c.all_weak_star_generating else "some weak component is not star-generating"
    ),
    _PC.all_weak_star_generating,
    cap=frozenset({0, 2}),  # as for SG, one weak component at a time
)
CYCLE_UNION = Atom(
    lambda c, m: (
        None
        if _classify.is_disjoint_cycle_union(c.d)[0]
        else "not a vertex-disjoint union of directed cycles"
    ),
    _PC.cycle_union,
)
NON_SOURCES_CYCLE_UNION = Atom(_non_sources_cycle_union, _PC.non_sources_cycle_union)

# properties of C^m(D), k = |sources of D|, l = |components of C^m(D)|
TF = Atom(
    lambda c, m: (
        None if _competition.is_triangle_free(c.graph(m))[0] else "competition graph has a triangle"
    ),
    _PC.triangle_free,
    cap=frozenset({0, 1, 2}),  # three predators of one prey: a triangle at every m (Atom)
)
CONNECTED = Atom(_connected, _PC.connected)
K_EQ_L = Atom(_k_vs_l(operator.eq), _PC.k_eq_l)
K_LE_L = Atom(_k_vs_l(operator.le), _PC.k_le_l)
COMPS_MEET_SOURCES = Atom(
    lambda c, m: (
        None
        if all(any(c.source_mask >> v & 1 for v in comp) for comp in c.graph(m)._comps)
        else "some component avoids every source"
    ),
    _PC.every_cm_component_meets_sources,
)
STAR_OK = Atom(
    _star_ok,
    _PC.star_ok,
    cap=frozenset({0, 1, 2}),  # a star forest is triangle-free, so TF's cap holds
)
PREY_MONOTONE = Atom(_prey_monotone, _PC.prey_monotone)
PRED_BOUND = Atom(_predator_bound, _PC.predator_bound)
PREDATORS_WHEN_K_EQ_L = Atom(_predators_when_k_eq_l, _PC.predators_when_k_eq_l)
PENDANT = Atom(_pendant, _PC.pendant)
SUB_MONOTONE = Atom(_sub_monotone, _PC.sub_monotone)


# --- claim catalog --------------------------------------------------------


@dataclass(frozen=True)
class Direction:
    """The direction ``hypothesis[0] ∧ hypothesis[1] ∧ … ⇒ conclusion[0] ∧ …``."""

    name: str
    min_m: int | None  # None: m-independent, checked once per digraph
    hypothesis: tuple[Atom, ...]
    conclusion: tuple[Atom, ...]

    @property
    def cap(self) -> frozenset[int] | None:
        """The in-degrees of D on which the hypothesis can hold: the
        intersection of its atoms' caps, None when none has one.
        """
        caps = [a.cap for a in self.hypothesis if a.cap is not None]
        return frozenset.intersection(*caps) if caps else None

    def counts(self, m: int | None) -> bool:
        """True when a failure at m counts toward the claim, False for a boundary
        instance, below an m-dependent direction's range; m is None for
        m-independent checks and the grid's checks of the construction alone.
        """
        return m is None or self.min_m is None or m >= self.min_m

    # plain loops, not all(): replays call these once per flagged digraph and m
    def holds(self, c: ClaimContext, m: int) -> bool:
        """True when every hypothesis atom holds."""
        for atom in self.hypothesis:
            if atom.check(c, m) is not None:
                return False
        return True

    def failure(self, c: ClaimContext, m: int) -> str | None:
        """The detail of the first failing conclusion atom, or None if all hold."""
        for atom in self.conclusion:
            detail = atom.check(c, m)
            if detail is not None:
                return detail
        return None


@dataclass(frozen=True)
class Claim:
    id: str
    kind: str  # "digraph" | "grid" | "census"
    directions: tuple[Direction, ...]

    @property
    def min_m(self) -> int | None:
        """The smallest m some direction accepts; None when no check depends on m."""
        mins = [d.min_m for d in self.directions if d.min_m is not None]
        return min(mins) if mins else None


CATALOG: dict[str, Claim] = {
    c.id: c
    for c in (
        Claim("prop_2_1", "digraph", (Direction("forward", 1, (), (PREY_MONOTONE,)),)),
        Claim("lemma_2_2", "grid", (Direction("construction", 1, (), ()),)),
        Claim("prop_2_3", "digraph", (Direction("forward", 1, (TF,), (PRED_BOUND,)),)),
        Claim("lemma_2_4", "digraph", (
            Direction(
                "forward", 1, (WEAKLY_CONNECTED, HAS_SOURCE, TF), (K_LE_L, PREDATORS_WHEN_K_EQ_L)
            ),
        )),
        Claim("prop_2_5", "digraph", (
            Direction("forward", 2, (WEAKLY_CONNECTED, TF, K_EQ_L), (PENDANT,)),
        )),
        Claim("lemma_2_6", "digraph", (
            Direction("forward", None, (NO_COMMON_PREY,), (CYCLE_UNION,)),
        )),
        Claim("thm_2_7", "digraph", (
            Direction("forward", 2, (WEAKLY_CONNECTED, TF, K_EQ_L), (STAR_OK, SG)),
        )),
        Claim("lemma_3_1", "digraph", (
            Direction("forward", None, (SG,), (NON_SOURCES_CYCLE_UNION,)),
        )),
        # the census records one hit per order
        Claim("thm_3_2", "census", (Direction("count", None, (ONE_SOURCE, SG), ()),)),
        # k stars: a star decomposition has one star per component of C^m
        Claim("prop_3_3", "digraph", (Direction("forward", 1, (SG,), (STAR_OK, K_EQ_L)),)),
        Claim("lemma_3_4", "digraph", (Direction("forward", 1, (), (SUB_MONOTONE,)),)),
        Claim("lemma_3_5", "digraph", (
            Direction("forward", 2, (WEAK_SOURCES, TF), (K_LE_L,)),
        )),
        Claim("lemma_3_6", "digraph", (
            Direction("only_if", 1, (WEAK_SOURCES, ALL_WEAK_SG), (TF, K_EQ_L)),
            Direction("if", 2, (WEAK_SOURCES, TF, K_EQ_L), (ALL_WEAK_SG,)),
        )),
        Claim("prop_3_7", "digraph", (
            Direction("only_if", 1, (WEAK_SOURCES, TF, COMPS_MEET_SOURCES), (K_EQ_L,)),
            Direction("if", 2, (WEAK_SOURCES, TF, K_EQ_L), (COMPS_MEET_SOURCES,)),
        )),
        Claim("cor_3_8", "digraph", (
            Direction("forward", 2, (WEAK_SOURCES, TF, COMPS_MEET_SOURCES), (ALL_WEAK_SG,)),
        )),
        Claim("thm_1_2", "digraph", (
            Direction("only_if", 1, (WEAK_SOURCES, ALL_WEAK_SG), (STAR_OK,)),
            Direction("if", 2, (WEAK_SOURCES, STAR_OK), (ALL_WEAK_SG,)),
        )),
        Claim("thm_1_3", "digraph", (
            Direction("if", 1, (ONE_SOURCE, SG), (CONNECTED, TF)),
            Direction("only_if", 2, (HAS_SOURCE, CONNECTED, TF), (SG, ONE_SOURCE)),
        )),
    )
}


def valid_m_values(claim_id: str, candidates: Iterable[int]) -> frozenset[int]:
    """The subset of ``candidates`` some direction of the claim accepts."""
    claim = _lookup(claim_id)
    if claim.min_m is None:
        return frozenset()
    return frozenset(m for m in candidates if m >= claim.min_m)


def _lookup(claim_id: str) -> Claim:
    try:
        return CATALOG[claim_id]
    except KeyError:
        raise InputError(f"unknown claim id {claim_id!r}; choose from {sorted(CATALOG)}") from None


# --- reports --------------------------------------------------------------


@dataclass
class VerificationReport:
    claim_id: str
    mode: str
    n_max: int
    m_values: tuple[int, ...]
    digraphs_examined: int = 0
    hypothesis_hits: int = 0  # summed over hits_by_direction inside each direction's m range
    counterexamples: list[dict] = field(default_factory=list)
    boundary_instances: list[dict] = field(default_factory=list)
    elapsed: float = 0.0
    # direction -> m (None when m-independent) -> hypothesis hits, below the m range too
    hits_by_direction: dict[str, dict[int | None, int]] = field(init=False)

    def __post_init__(self) -> None:
        self.hits_by_direction = {
            d.name: dict.fromkeys((None,) if d.min_m is None else self.m_values, 0)
            for d in CATALOG[self.claim_id].directions
        }

    @property
    def verified(self) -> bool:
        return not self.counterexamples

    def add_hits(self, direction: Direction, m: int | None, count: int) -> None:
        """Add hits of ``direction`` at m; only those in its range count in ``hypothesis_hits``."""
        self.hits_by_direction[direction.name][None if direction.min_m is None else m] += count
        if direction.counts(m):
            self.hypothesis_hits += count

    def add_entry(self, direction: Direction, n: int, arcs, m: int | None, detail: str, **extra):
        """File a failure of ``direction`` at m as a counterexample, or as a
        boundary instance below its range.  ``arcs`` is ``list(d.arcs())``,
        ascending already, or None for the census; the grid adds k and l.
        """
        entry = {"claim": self.claim_id, "direction": direction.name, "n": n, "arcs": arcs}
        entry.update(m=None if direction.min_m is None else m, detail=detail, **extra)
        (self.counterexamples if direction.counts(m) else self.boundary_instances).append(entry)

    def to_dict(self) -> dict[str, Any]:
        return {
            "claim": self.claim_id,
            "mode": self.mode,
            "n_max": self.n_max,
            "m_values": list(self.m_values),
            "digraphs_examined": self.digraphs_examined,
            "hypothesis_hits": self.hypothesis_hits,
            "hits_by_direction": {
                name: {"null" if m is None else str(m): count for m, count in by_m.items()}
                for name, by_m in self.hits_by_direction.items()
            },
            "counterexamples": self.counterexamples,
            "boundary_instances": self.boundary_instances,
            "elapsed": self.elapsed,
            "verified": self.verified,
        }

    def to_json_line(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)


def _entry_sort_key(entry: dict):
    return (entry["n"], entry["arcs"], entry["m"] if entry["m"] is not None else 0, entry["direction"])


# --- scanning -------------------------------------------------------------


def _plan(reports, m_list, capped: bool) -> dict[frozenset[int] | None, list[tuple]]:
    """The rounds each stream runs: {key: [(m, [(report, direction), ...]), ...]}
    by increasing m, keys in the order the rounds first need them; an
    m-independent direction runs once, at m = 0.

    A direction has no hit with an in-degree outside its ``cap``, so an
    exhaustive (``capped``) scan runs it on ``bitslice.batches(n, cap)``,
    the whole stream where ``cap`` is None, and leaves out a stream no
    direction needs.  A sample runs every direction on its draws, under None.
    """
    plan = {}
    for m in [0, *m_list]:
        for rep in reports:
            for direction in CATALOG[rep.claim_id].directions:
                if (direction.min_m is None) == (m == 0):
                    key = direction.cap if capped else None
                    plan.setdefault(key, {}).setdefault(m, []).append((rep, direction))
    return {key: list(by_m.items()) for key, by_m in plan.items()}


def _plane(p: _bitslice.PlaneContext, atoms: tuple[Atom, ...], m: int, held: int) -> int:
    """``held`` ANDed with the planes of ``atoms`` at m, stopping once it is empty."""
    for atom in atoms:
        if not held:
            break
        held &= atom.plane(p, m)
    return held


def _check_batch(p: _bitslice.PlaneContext, rounds) -> None:
    """Evaluate every direction of the rounds on a batch of digraphs at once.

    Hits are popcounts of hypothesis planes, filed in the reports.  The
    batch learns the rounds' m values first, so the subdigraph check sweeps
    them at once, and each round's planes are released after it.  A digraph
    whose hypothesis holds but conclusion fails is flagged at that m and
    step; after the rounds each flagged digraph is replayed once, on one
    ``ClaimContext`` that writes and files all its entries, which must
    agree and share one arcs list, and is dropped before the next.
    """
    flagged = {}  # batch bit -> its (m, report, direction) failures, in round order
    p.m_values = tuple(m for m, _ in rounds)
    for m, steps in rounds:
        for rep, direction in steps:
            held = _plane(p, direction.hypothesis, m, p.full)
            rep.add_hits(direction, m, held.bit_count())
            failure = (m, rep, direction)
            for b in _digraph.bits(held & ~_plane(p, direction.conclusion, m, held)):
                flagged.setdefault(b, []).append(failure)
        p.release(m)
    for b, failures in flagged.items():
        ctx = ClaimContext(p.digraph(b))
        arcs = list(ctx.d.arcs())
        for m, rep, direction in failures:
            detail = direction.failure(ctx, m) if direction.holds(ctx, m) else None
            if detail is None:
                raise RuntimeError(
                    f"{rep.claim_id} {direction.name} at m={m}: "
                    f"bit planes flag {ctx.d!r}, ClaimContext does not"
                )
            rep.add_entry(direction, p.n, arcs, m, detail)


def _sampled_batches(n_max: int, seed: int | None, count: int):
    """Seeded draws of (order, index), one order per batch: each batch is
    yielded at ``CAP_BITS`` draws, the remainders at the end.
    """
    rng = random.Random(seed)
    pending: dict[int, list[int]] = {}
    for _ in range(count):
        n = rng.randint(min(2, n_max), n_max)
        indices = pending.setdefault(n, [])
        indices.append(rng.randrange(_generate.digraph_space_size(n)))
        if len(indices) == _bitslice.CAP_BITS:
            yield _bitslice.draws(n, pending.pop(n))
    for n, indices in pending.items():
        yield _bitslice.draws(n, indices)


def _grid_problems(d: Digraph, k: int, l: int, m_list) -> list[tuple[int | None, str]]:
    """The (m, detail) problems of the (k, l) construction d: a wrong source
    count or weak disconnection (m None), and a wrong component count at
    each m of ``m_list``.
    """
    ctx = ClaimContext(d)
    problems = []
    k_found = ctx.source_mask.bit_count()
    if k_found != k:
        problems.append((None, f"expected {k} sources, found {k_found}"))
    if not ctx.weakly_connected:
        problems.append((None, "construction is not weakly connected"))
    for m in m_list:
        l_found = ctx.n_components(m)
        if l_found != l:
            problems.append((m, f"expected {l} components, found {l_found}"))
    return problems


def _verify_grid(m_list, n_max: int, report: VerificationReport) -> None:
    (direction,) = CATALOG[report.claim_id].directions
    for k in range(1, n_max + 1):
        for l in range(1, n_max + 1):
            d = _generate.lemma_kl_digraph(k, l)
            report.digraphs_examined += 1
            for m in m_list:
                report.add_hits(direction, m, 1)
            for m, detail in _grid_problems(d, k, l, m_list):
                report.add_entry(direction, d.n, list(d.arcs()), m, detail, k=k, l=l)


# Largest census order a replay rescans: on the census's capped stream order 5 takes
# about 0.02 s and order 6 about 0.4 s.
CENSUS_REPLAY_ORDER = 6


def _census_check(n: int) -> tuple[bool, str | None]:
    """Count isomorphism classes of single-source star-generating digraphs
    of order n by brute force and compare against the enumerator.

    The brute force flags the hypothesis of the ``thm_3_2`` direction on
    bit planes of its capped stream.  Each flagged digraph is read back from
    its batch's arc planes and must pass the hypothesis's checks.  Only the
    first digraph of each class is canonicalized: all its relabelings go
    into ``seen``, and their minimum, its ``canonical_form``, into ``found``.
    """
    (direction,) = CATALOG["thm_3_2"].directions
    expected = _generate._partition_count(n - 1)
    found = set()
    seen = set()
    for p in _bitslice.batches(n, direction.cap):
        for b in _digraph.bits(_plane(p, direction.hypothesis, 0, p.full)):
            d = p.digraph(b)
            if not direction.holds(ClaimContext(d), 0):
                raise RuntimeError(
                    f"thm_3_2 order {n}: bit planes flag {d!r}, the scalar checks do not"
                )
            if d.out_rows not in seen:
                relabeled = set(_generate._relabelings(d))
                seen |= relabeled
                found.add((n, min(relabeled)))
    reps = {
        _generate.canonical_form(d)
        for d in _generate.enumerate_single_source_star_generating(n)
    }
    if len(found) != expected:
        return False, f"order {n}: {len(found)} classes, expected {expected}"
    if reps != found:
        return False, f"order {n}: enumerated representatives do not cover the classes"
    return True, None


def _verify_census(n_max: int, report: VerificationReport) -> None:
    (direction,) = CATALOG[report.claim_id].directions
    for n in range(2, n_max + 1):
        report.add_hits(direction, None, 1)
        ok, detail = _census_check(n)
        report.digraphs_examined += _generate.digraph_space_size(n)
        if not ok:
            report.add_entry(direction, n, None, None, detail)


def verify_claims(
    claim_ids: Iterable[str],
    n_max: int,
    m_set: Iterable[int],
    *,
    seed: int | None = None,
    sample_count: int | None = None,
) -> list[VerificationReport]:
    """Run several claims in one pass over the digraph space.

    Returns one report per claim, in the order given; every input is
    checked before any claim runs.  A ``sample_count`` selects sampling,
    seeded by ``seed``: each draw's order is uniform in 2..n_max (1 when
    n_max is 1), not in proportion to the size of each order's space, then
    its index uniform within that order; the grid and census run whole, and
    their reports say "exhaustive".
    """
    if isinstance(claim_ids, str):
        raise InputError(f"claim ids must be a list, got {claim_ids!r}; verify_claim runs one")
    try:
        claim_ids = list(dict.fromkeys(claim_ids))
    except TypeError:  # not iterable, or an id that cannot be looked up, such as a list
        raise InputError(f"claim ids must be a list of ids, got {claim_ids!r}") from None
    claims = [_lookup(cid) for cid in claim_ids]
    try:
        m_values = list(m_set)
    except TypeError:
        raise InputError(f"m_set must be a list of ints, got {m_set!r}") from None
    counts = [("n_max", n_max)] + [("m", m) for m in m_values]
    counts += [(k, v) for k, v in (("sample count", sample_count), ("seed", seed)) if v is not None]
    for name, value in counts:
        if type(value) is not int:  # a bool is an int, but not a count
            raise InputError(f"{name} must be an int, got {value!r}")
    m_list = sorted(set(m_values))
    if any(m < 1 for m in m_list):
        raise InputError("m values must be positive")
    for claim in claims:
        below = [m for m in m_list if claim.min_m is not None and m < claim.min_m]
        if below:
            raise InputError(f"claim {claim.id} requires m >= {claim.min_m}; got {below}")
    special = [c for c in claims if c.kind != "digraph"]
    scan_ids = [c.id for c in claims if c.kind == "digraph"]
    if n_max < 1:
        raise InputError(f"n_max must be positive, got {n_max}")
    if n_max < 2 and any(c.kind == "census" for c in claims):
        raise InputError("thm_3_2 needs n_max >= 2")
    if not m_list and any(c.min_m is not None for c in claims):
        raise InputError("m_set is empty but some requested claim depends on m")
    if seed is not None and sample_count is None:
        raise InputError(f"seed {seed} needs a sample count: only a sample is drawn")
    if sample_count is not None:
        if not scan_ids:
            raise InputError(f"sample count {sample_count}: no requested claim samples")
        if sample_count < 1:
            raise InputError(f"sample count must be at least 1, got {sample_count}")
        if n_max > _digraph.MAX_TEXT_ORDER:  # a draw builds (2**n - 1)**n
            raise InputError(f"sampled n_max {n_max} exceeds {_digraph.MAX_TEXT_ORDER}")

    started = time.perf_counter()
    reports = {}
    for c in claims:  # the grid and the census run whole, sampled or not
        mode = "sampled" if sample_count is not None and c.kind == "digraph" else "exhaustive"
        reports[c.id] = VerificationReport(c.id, mode, n_max, tuple(m_list))
    for claim in special:
        if claim.kind == "grid":
            _verify_grid(m_list, n_max, reports[claim.id])
        else:
            _verify_census(n_max, reports[claim.id])

    if scan_ids:
        scanned = [reports[cid] for cid in scan_ids]
        plan = _plan(scanned, m_list, capped=sample_count is None)
        if sample_count is None:
            # a verdict covers the whole space, whichever stream ran
            examined = sum(_generate.digraph_space_size(n) for n in range(1, n_max + 1))
            for n in range(1, n_max + 1):
                for cap, rounds in plan.items():
                    for p in _bitslice.batches(n, cap):
                        _check_batch(p, rounds)
        else:
            examined = sample_count
            for p in _sampled_batches(n_max, seed, sample_count):
                _check_batch(p, plan[None])
        for rep in scanned:
            rep.digraphs_examined = examined
            rep.counterexamples.sort(key=_entry_sort_key)
            rep.boundary_instances.sort(key=_entry_sort_key)

    elapsed = time.perf_counter() - started
    for rep in reports.values():
        rep.elapsed = elapsed
    return [reports[cid] for cid in claim_ids]


def verify_claim(
    claim_id: str,
    n_max: int,
    m_set: Iterable[int],
    *,
    seed: int | None = None,
    sample_count: int | None = None,
) -> VerificationReport:
    """Run one claim over the bounded digraph space; see ``verify_claims``."""
    return verify_claims([claim_id], n_max, m_set, seed=seed, sample_count=sample_count)[0]


def replay_counterexample(entry: dict) -> bool:
    """Re-evaluate a report entry from its serialized digraph.

    True iff the hypothesis still holds and the conclusion still fails.
    """
    try:
        claim = _lookup(entry["claim"])
        direction = {dd.name: dd for dd in claim.directions}[entry["direction"]]
        m = entry["m"]
        # the grid reads k and l, the others n and a scan its arcs: ints, not bools
        ints = [entry[key] for key in (("k", "l") if claim.kind == "grid" else ("n",))]
        if claim.kind == "digraph":
            ints += [v for arc in entry["arcs"] for v in arc]
    except (KeyError, TypeError):
        raise InputError(f"malformed counterexample entry: {entry!r}") from None
    if any(type(v) is not int for v in ints) or not (m is None or type(m) is int):
        raise InputError(f"malformed counterexample entry: {entry!r}")
    # the (k, l) construction has k + l + 1 vertices
    order = ints[0] + ints[1] + 1 if claim.kind == "grid" else ints[0]
    if order > _digraph.MAX_TEXT_ORDER:
        raise InputError(
            f"counterexample order {order} exceeds the limit of {_digraph.MAX_TEXT_ORDER}"
        )
    # an m-dependent direction needs an int m (below its minimum in a boundary
    # entry), an m-independent one a null m; the grid takes either
    if claim.kind != "grid" and (m is None) != (direction.min_m is None):
        raise InputError(
            f"{claim.id} {direction.name!r} takes "
            f"{'no m' if direction.min_m is None else 'an int m'}, got m={m!r}"
        )
    if m is not None and m < 1:
        raise InputError(f"{claim.id} {direction.name!r} takes m >= 1, got m={m}")

    if claim.kind == "census":
        if order < 2:
            raise InputError(f"thm_3_2 needs order >= 2, got {order}")
        if order > CENSUS_REPLAY_ORDER:
            raise InputError(
                f"census order {order}: a replay scans the capped stream of its order, "
                f"up to order {CENSUS_REPLAY_ORDER}"
            )
        ok, _ = _census_check(order)
        return not ok
    if claim.kind == "grid":
        k, l = ints
        problems = _grid_problems(_generate.lemma_kl_digraph(k, l), k, l, [] if m is None else [m])
        return any(at == m for at, _ in problems)

    try:
        d = _digraph.from_arc_list(entry["n"], [tuple(a) for a in entry["arcs"]])
    except ValueError:  # an arc that is not a pair, or out of range
        raise InputError(f"malformed counterexample entry: {entry!r}") from None
    if not _digraph.has_min_outdegree_one(d):
        raise InputError(
            f"vertex {d.out_rows.index(0)} has no prey; scans cover only digraphs "
            f"where every vertex has one"
        )
    ctx = ClaimContext(d)
    m_eval = 0 if m is None else m
    return direction.holds(ctx, m_eval) and direction.failure(ctx, m_eval) is not None


def write_report_lines(reports: Iterable[VerificationReport], path: str) -> None:
    """Append one JSON line per report to ``path``."""
    with open(path, "a", encoding="utf-8") as handle:
        for rep in reports:
            handle.write(rep.to_json_line() + "\n")
