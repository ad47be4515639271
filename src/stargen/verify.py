"""Exhaustive and sampled verification of the catalog of structural claims
about m-step competition graphs over bounded digraph spaces.

Every claim is split into directed sub-checks with their own minimum m
(biconditionals are never merged, since the two directions hold on
different m ranges).  Each direction is ``hypothesis atoms ⇒
conclusion atoms`` over one set of named atoms, which are composed from
the public operations of the other modules; a per-digraph context only
memoizes their results.  Every atom also has a bit plane form.

Scans run in one process.  Exhaustive and sampled scans, and the
``thm_3_2`` census, evaluate every direction on batches of the stream or
of seeded draws at once (``bitslice``) and build a digraph only for the
bits they flag, read back from the batch's arc planes
(``PlaneContext.digraph``) and replayed on a ``ClaimContext`` that writes
the failure details and must agree; hits and entries go straight into
the reports.  Every vertex of a scanned digraph has a prey, so three
predators of one prey make a triangle in every C^m: an atom that forces a
triangle-free C^m caps in-degree at 2 (``Atom.cap``).  Exhaustive scans
therefore run every direction with a capped hypothesis, and the census,
on the digraphs with every in-degree at most 2 (``capped_stream``, from
order 4 on, where they take fewer bits), and only the directions without
one on the whole stream; sampled scans draw from the whole space.
Either way a report counts the whole space it covers.  ``ClaimContext``
also runs the grid and replays, and is the reference the tests check
every plane against.
"""

from __future__ import annotations

import json
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
    """Memo of public-operation results for one digraph under scrutiny."""

    __slots__ = (
        "d",
        "_powers",
        "_graphs",
        "_tf",
        "_sources",
        "_weak",
        "_report",
        "_all_weak_sg",
        "_every_weak_src",
        "_stars",
        "_subs",
    )

    def __init__(self, d: Digraph):
        self.d = d
        self._powers = {1: d}
        self._graphs = {}
        self._tf = {}
        self._sources = None
        self._weak = None
        self._report = None
        self._all_weak_sg = None
        self._every_weak_src = None
        self._stars = {}
        self._subs = None

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

    def triangle_free(self, m: int) -> bool:
        tf = self._tf.get(m)
        if tf is None:
            tf = _competition.is_triangle_free(self.graph(m))[0]
            self._tf[m] = tf
        return tf

    def components(self, m: int) -> list[frozenset[int]]:
        return _competition.components(self.graph(m))

    def n_components(self, m: int) -> int:
        return len(self.components(m))

    @property
    def sources(self) -> frozenset[int]:
        if self._sources is None:
            self._sources = _digraph.sources(self.d)
        return self._sources

    @property
    def weak(self) -> list[frozenset[int]]:
        if self._weak is None:
            self._weak = _digraph.weak_components(self.d)
        return self._weak

    @property
    def weakly_connected(self) -> bool:
        return len(self.weak) == 1

    @property
    def report(self) -> _classify.ClassificationReport:
        if self._report is None:
            self._report = _classify.classify_star_generating(self.d)
        return self._report

    @property
    def all_weak_star_generating(self) -> bool:
        if self._all_weak_sg is None:
            if self.weakly_connected:
                self._all_weak_sg = self.report.star_generating
            else:
                self._all_weak_sg = all(
                    rep.star_generating for _, rep in _classify.classify_components(self.d)
                )
        return self._all_weak_sg

    @property
    def every_weak_component_has_source(self) -> bool:
        if self._every_weak_src is None:
            src = self.sources
            if not src:
                self._every_weak_src = False
            else:
                self._every_weak_src = all(not comp.isdisjoint(src) for comp in self.weak)
        return self._every_weak_src

    def every_cm_component_meets_sources(self, m: int) -> bool:
        src = self.sources
        return all(not comp.isdisjoint(src) for comp in self.components(m))

    def star_decomposition(self, m: int):
        sd = self._stars.get(m)
        if sd is None:
            sd = _competition.star_decomposition(self.graph(m), self.sources)
            self._stars[m] = sd
        return sd

    def subdigraphs(self) -> list[list[int]]:
        """Deterministic subdigraph selection for monotonicity checks.

        Each subdigraph is a list of out-rows on this digraph's labels, in
        this order: every one-arc deletion (u, v) that keeps all outdegrees
        >= 1, by (u, v); then, when there are several weak components, each
        component with every row outside it zeroed.
        """
        if self._subs is None:
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
                for comp in self.weak:
                    subs.append([row if u in comp else 0 for u, row in enumerate(host)])
            self._subs = subs
        return self._subs

    def sub_powers(self, m: int) -> list[list[int]]:
        """The m-step prey rows of every subdigraph, in ``subdigraphs`` order."""
        return [_digraph._row_power(s, m) for s in self.subdigraphs()]


# --- atoms ----------------------------------------------------------------
# Every claim direction is an implication between about a dozen properties
# of D and C^m(D).  An atom names one of them: ``test`` decides it on a
# ``ClaimContext``, ``why`` formats the failure detail, called only after
# ``test`` failed, ``plane`` decides it for a whole batch of digraphs on a
# ``bitslice.PlaneContext``, and ``cap`` bounds the in-degrees of D where
# it holds.


class Atom(NamedTuple):
    """A property of (D, m); atoms used only in hypotheses need no ``why``
    (None), and every atom of a direction needs a ``plane``.

    ``cap`` is the largest in-degree of D that any digraph with the
    property can have, or None.  Every vertex of D has a prey, so three
    predators of one prey w share an m-step prey, any vertex m - 1 steps on
    from w, and C^m has a triangle at every m (Proposition 2.3 with i = 1):
    every property that forces a triangle-free C^m caps in-degree at 2.  A
    direction whose hypothesis has a capped atom scans only the digraphs
    with every in-degree at most 2 (``bitslice.capped_stream``).
    """

    test: Callable[[ClaimContext, int], bool]
    why: Callable[[ClaimContext, int], str] | None
    plane: Callable[[_bitslice.PlaneContext, int], int] | None
    cap: int | None = None


def _witness(find: Callable[[ClaimContext, int], str | None], plane) -> Atom:
    """Atom whose detail names a witness: ``find`` returns it, or None if the property holds."""
    return Atom(lambda c, m: find(c, m) is None, find, plane)


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
    if len(c.sources) != c.n_components(m):
        return None
    pred = c.power(m).in_rows
    non_sources = [u for u in range(c.d.n) if u not in c.sources]
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
    for v in sorted(c.sources):
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
    for prey in c.sub_powers(m):
        for u, v in missing:
            if prey[u] & prey[v]:
                return (
                    f"edge {{{u}, {v}}} of a subdigraph's "
                    f"{m}-step competition graph is missing from the host's"
                )
    return None


def _non_sources_cycle_union(c: ClaimContext, m: int) -> bool:
    keep = [v for v in range(c.d.n) if v not in c.sources]
    sub, _ = _digraph.induced_subdigraph(c.d, keep)
    return _classify.is_disjoint_cycle_union(sub)[0]


def _k_vs_l(c: ClaimContext, m: int) -> str:
    return f"{len(c.sources)} sources but {c.n_components(m)} components"


def _star_failure(c: ClaimContext, m: int) -> str:
    sd = c.star_decomposition(m)
    return f"component {sorted(sd.component)}: {sd.reason}"


def _k_stars(c: ClaimContext, m: int) -> str | None:
    sd = c.star_decomposition(m)
    if not sd:
        return _star_failure(c, m)
    if len(sd.stars) != len(c.sources):
        return f"{len(sd.stars)} stars but {len(c.sources)} sources"
    return None


# properties of D; m is ignored
_PC = _bitslice.PlaneContext
WEAKLY_CONNECTED = Atom(lambda c, m: c.weakly_connected, None, _PC.weakly_connected)
HAS_SOURCE = Atom(lambda c, m: bool(c.sources), None, _PC.has_source)
WEAK_SOURCES = Atom(
    lambda c, m: c.every_weak_component_has_source, None, _PC.every_weak_component_has_source
)
NO_COMMON_PREY = Atom(
    lambda c, m: _classify.check_no_common_prey_functional(c.d),
    None,
    _PC.no_common_prey,
    cap=1,  # no two vertices share a prey
)
ONE_SOURCE = Atom(
    lambda c, m: len(c.sources) == 1,
    lambda c, m: f"digraph has {len(c.sources)} sources",
    _PC.one_source,
)
SG = Atom(
    lambda c, m: c.report.star_generating,
    lambda c, m: "digraph is not star-generating",
    _PC.star_generating,
    cap=2,  # by S1-S3 a non-source has exactly two predators, a source none
)
ALL_WEAK_SG = Atom(
    lambda c, m: c.all_weak_star_generating,
    lambda c, m: "some weak component is not star-generating",
    _PC.all_weak_star_generating,
    cap=2,  # as for SG, one weak component at a time
)
CYCLE_UNION = Atom(
    lambda c, m: _classify.is_disjoint_cycle_union(c.d)[0],
    lambda c, m: "not a vertex-disjoint union of directed cycles",
    _PC.cycle_union,
)
NON_SOURCES_CYCLE_UNION = Atom(
    _non_sources_cycle_union,
    lambda c, m: "removing the sources does not leave disjoint cycles",
    _PC.non_sources_cycle_union,
)

# properties of C^m(D), k = |sources of D|, l = |components of C^m(D)|
TF = Atom(
    ClaimContext.triangle_free,
    lambda c, m: "competition graph has a triangle",
    _PC.triangle_free,
    cap=2,  # three predators of one prey make a triangle at every m (Atom)
)
CONNECTED = Atom(
    lambda c, m: c.n_components(m) == 1,
    lambda c, m: f"competition graph has {c.n_components(m)} components",
    _PC.connected,
)
K_EQ_L = Atom(lambda c, m: len(c.sources) == c.n_components(m), _k_vs_l, _PC.k_eq_l)
K_LE_L = Atom(lambda c, m: len(c.sources) <= c.n_components(m), _k_vs_l, _PC.k_le_l)
ENOUGH_COMPONENTS = Atom(
    K_LE_L.test,
    lambda c, m: f"{len(c.sources)} sources but only {c.n_components(m)} components",
    _PC.k_le_l,
)
COMPS_MEET_SOURCES = Atom(
    ClaimContext.every_cm_component_meets_sources,
    lambda c, m: "some component avoids every source",
    _PC.every_cm_component_meets_sources,
)
STAR_OK = Atom(
    lambda c, m: bool(c.star_decomposition(m)),
    _star_failure,
    _PC.star_ok,
    cap=2,  # a star forest is triangle-free, so TF's cap holds
)
K_STARS = _witness(_k_stars, _PC.k_stars)
PREY_MONOTONE = _witness(_prey_monotone, _PC.prey_monotone)
PRED_BOUND = _witness(_predator_bound, _PC.predator_bound)
PREDATORS_WHEN_K_EQ_L = _witness(_predators_when_k_eq_l, _PC.predators_when_k_eq_l)
PENDANT = _witness(_pendant, _PC.pendant)
SUB_MONOTONE = _witness(_sub_monotone, _PC.sub_monotone)


# --- claim catalog --------------------------------------------------------


@dataclass(frozen=True)
class Direction:
    """The direction ``hypothesis[0] ∧ hypothesis[1] ∧ … ⇒ conclusion[0] ∧ …``."""

    name: str
    min_m: int | None  # None: m-independent, checked once per digraph
    hypothesis: tuple[Atom, ...]
    conclusion: tuple[Atom, ...]

    @property
    def cap(self) -> int | None:
        """The largest in-degree of D on which the hypothesis can hold: the
        smallest cap among its atoms, None when none has one.
        """
        return min((a.cap for a in self.hypothesis if a.cap is not None), default=None)

    # plain loops, not all(): replays call these once per flagged digraph and m
    def holds(self, c: ClaimContext, m: int) -> bool:
        """True when every hypothesis atom holds."""
        for atom in self.hypothesis:
            if not atom.test(c, m):
                return False
        return True

    def failure(self, c: ClaimContext, m: int) -> str | None:
        """The ``why`` of the first failing conclusion atom, or None if all hold."""
        for atom in self.conclusion:
            if not atom.test(c, m):
                return atom.why(c, m)
        return None


def _implies(
    name: str, min_m: int | None, hypothesis: tuple[Atom, ...], *conclusion: Atom
) -> Direction:
    """The direction ``hypothesis ⇒ conclusion``; every conclusion atom
    needs a ``why``, every atom a ``plane``, and a cap must be at most 2,
    the in-degrees the capped stream holds.
    """
    if any(atom.why is None for atom in conclusion):
        raise ValueError(f"direction {name!r}: every conclusion atom needs a why")
    if any(atom.plane is None for atom in hypothesis + conclusion):
        raise ValueError(f"direction {name!r}: every atom needs a plane")
    direction = Direction(name, min_m, hypothesis, conclusion)
    if direction.cap is not None and direction.cap > 2:
        raise ValueError(f"direction {name!r}: the capped stream holds in-degrees up to 2")
    return direction


@dataclass(frozen=True)
class Claim:
    id: str
    kind: str  # "digraph" | "grid" | "census"
    directions: tuple[Direction, ...] = ()

    @property
    def min_m(self) -> int | None:
        mins = [d.min_m for d in self.directions if d.min_m is not None]
        return min(mins) if mins else None


CATALOG: dict[str, Claim] = {
    c.id: c
    for c in (
        Claim("prop_2_1", "digraph", (_implies("forward", 1, (), PREY_MONOTONE),)),
        Claim("lemma_2_2", "grid"),
        Claim("prop_2_3", "digraph", (_implies("forward", 1, (TF,), PRED_BOUND),)),
        Claim("lemma_2_4", "digraph", (
            _implies(
                "forward", 1, (WEAKLY_CONNECTED, HAS_SOURCE, TF),
                ENOUGH_COMPONENTS, PREDATORS_WHEN_K_EQ_L,
            ),
        )),
        Claim("prop_2_5", "digraph", (
            _implies("forward", 2, (WEAKLY_CONNECTED, TF, K_EQ_L), PENDANT),
        )),
        Claim("lemma_2_6", "digraph", (
            _implies("forward", None, (NO_COMMON_PREY,), CYCLE_UNION),
        )),
        Claim("thm_2_7", "digraph", (
            _implies("forward", 2, (WEAKLY_CONNECTED, TF, K_EQ_L), STAR_OK, SG),
        )),
        Claim("lemma_3_1", "digraph", (
            _implies("forward", None, (SG,), NON_SOURCES_CYCLE_UNION),
        )),
        Claim("thm_3_2", "census"),
        Claim("prop_3_3", "digraph", (_implies("forward", 1, (SG,), STAR_OK, K_STARS),)),
        Claim("lemma_3_4", "digraph", (_implies("forward", 1, (), SUB_MONOTONE),)),
        Claim("lemma_3_5", "digraph", (
            _implies("forward", 2, (WEAK_SOURCES, TF), K_LE_L),
        )),
        Claim("lemma_3_6", "digraph", (
            _implies("only_if", 1, (WEAK_SOURCES, ALL_WEAK_SG), TF, K_EQ_L),
            _implies("if", 2, (WEAK_SOURCES, TF, K_EQ_L), ALL_WEAK_SG),
        )),
        Claim("prop_3_7", "digraph", (
            _implies("only_if", 1, (WEAK_SOURCES, TF, COMPS_MEET_SOURCES), K_EQ_L),
            _implies("if", 2, (WEAK_SOURCES, TF, K_EQ_L), COMPS_MEET_SOURCES),
        )),
        Claim("cor_3_8", "digraph", (
            _implies("forward", 2, (WEAK_SOURCES, TF, COMPS_MEET_SOURCES), ALL_WEAK_SG),
        )),
        Claim("thm_1_2", "digraph", (
            _implies("only_if", 1, (WEAK_SOURCES, ALL_WEAK_SG), STAR_OK),
            _implies("if", 2, (WEAK_SOURCES, STAR_OK), ALL_WEAK_SG),
        )),
        Claim("thm_1_3", "digraph", (
            _implies("if", 1, (ONE_SOURCE, SG), CONNECTED, TF),
            _implies("only_if", 2, (HAS_SOURCE, CONNECTED, TF), SG, ONE_SOURCE),
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
        raise InputError(f"unknown claim id {claim_id!r}") from None


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
    hits_by_direction: dict[str, dict[int | None, int]] = field(default_factory=dict)

    @property
    def verified(self) -> bool:
        return not self.counterexamples

    def add_hits(self, direction: str, m: int | None, count: int, in_range: bool = True) -> None:
        by_m = self.hits_by_direction.setdefault(direction, {})
        by_m[m] = by_m.get(m, 0) + count
        if in_range:
            self.hypothesis_hits += count

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


def _entry(claim_id: str, direction: str, d: Digraph, m: int | None, detail: str | None) -> dict:
    return {
        "claim": claim_id,
        "direction": direction,
        "n": d.n,
        "arcs": sorted(d.arcs()),
        "m": m,
        "detail": detail,
    }


def _entry_sort_key(entry: dict):
    return (entry["n"], entry["arcs"], entry["m"] if entry["m"] is not None else 0, entry["direction"])


# --- scanning -------------------------------------------------------------


def _rounds(reports, m_list) -> list[tuple[int, list[tuple]]]:
    """[(m, [(report, direction, hits m, in range), ...]), ...] by increasing m.

    An m-independent direction runs once, at m = 0, its hits recorded at m
    None.  A failure below a direction's m range is a boundary instance, not
    a counterexample.  Every (direction, m) starts at zero hits, in catalog order.
    """
    rounds = {}
    for rep in reports:
        for direction in CATALOG[rep.claim_id].directions:
            if direction.min_m is None:
                steps = [(0, None, True)]
            else:
                steps = [(m, m, m >= direction.min_m) for m in m_list]
            for m, hits_m, in_range in steps:
                rep.add_hits(direction.name, hits_m, 0)
                rounds.setdefault(m, []).append((rep, direction, hits_m, in_range))
    return sorted(rounds.items())


def _streams(rounds, n: int) -> dict[Callable, list[tuple[int, list[tuple]]]]:
    """The rounds each exhaustive stream runs at order n, keyed by its batch
    generator.

    A direction whose hypothesis caps in-degree has no hit above its cap,
    so it runs on ``capped_stream(n)``, which from order 4 on holds only
    the digraphs with every in-degree at most 2; the rest run on
    ``batches``.  Below order 4 both are ``batches`` and share its planes.
    A stream no direction needs is left out.
    """
    capped = _bitslice.capped_stream(n)
    streams = {}
    for m, steps in rounds:
        for step in steps:
            stream = _bitslice.batches if step[1].cap is None else capped
            streams.setdefault(stream, {}).setdefault(m, []).append(step)
    return {stream: list(by_m.items()) for stream, by_m in streams.items()}


def _check_batch(p: _bitslice.PlaneContext, rounds) -> None:
    """Evaluate every direction of the rounds on a batch of digraphs at once.

    Hits are popcounts of hypothesis planes, added to the reports.  Each
    digraph whose hypothesis holds but conclusion fails is replayed on a
    ``ClaimContext``, which writes the entry's detail and must agree.  A
    digraph flagged more than once shares one context across directions
    and m.  Each round's planes are released after it.
    """
    replays = {}  # batch bit -> its ClaimContext
    for m, steps in rounds:
        for rep, direction, hits_m, in_range in steps:
            held = p.full
            for atom in direction.hypothesis:
                if not held:
                    break
                held &= atom.plane(p, m)
            rep.add_hits(direction.name, hits_m, held.bit_count(), in_range)
            ok = held
            for atom in direction.conclusion:
                if not ok:
                    break
                ok &= atom.plane(p, m)
            for b in _digraph.bits(held & ~ok):
                ctx = replays.get(b)
                if ctx is None:
                    ctx = replays[b] = ClaimContext(p.digraph(b))
                detail = direction.failure(ctx, m) if direction.holds(ctx, m) else None
                if detail is None:
                    raise RuntimeError(
                        f"{rep.claim_id} {direction.name} at m={m}: "
                        f"bit planes flag {ctx.d!r}, ClaimContext does not"
                    )
                entries = rep.counterexamples if in_range else rep.boundary_instances
                entries.append(_entry(rep.claim_id, direction.name, ctx.d, hits_m, detail))
        p.release(m)


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


def _verify_grid(m_list, n_max: int, report: VerificationReport) -> None:
    bound = n_max if n_max >= 1 else 5
    ms = m_list or list(range(1, 11))
    for k in range(1, bound + 1):
        for l in range(1, bound + 1):
            d = _generate.lemma_kl_digraph(k, l)
            ctx = ClaimContext(d)
            report.digraphs_examined += 1
            problems = []
            if len(ctx.sources) != k:
                problems.append((None, f"expected {k} sources, found {len(ctx.sources)}"))
            if not ctx.weakly_connected:
                problems.append((None, "construction is not weakly connected"))
            for m in ms:
                report.add_hits("construction", m, 1)
                l_found = ctx.n_components(m)
                if l_found != l:
                    problems.append((m, f"expected {l} components, found {l_found}"))
            for m, detail in problems:
                entry = _entry("lemma_2_2", "construction", d, m, detail)
                entry.update({"k": k, "l": l})
                report.counterexamples.append(entry)


# Largest census order a replay rescans: on the capped stream order 5 takes
# about 0.1 s and order 6 about 5 s.
CENSUS_REPLAY_ORDER = 6


def _census_check(n: int) -> tuple[bool, str | None]:
    """Count isomorphism classes of single-source star-generating digraphs
    of order n by brute force and compare against the enumerator.

    The brute force runs on bit planes of ``capped_stream(n)``, since SG
    caps in-degree at 2.  Each digraph they flag is read back from its
    batch's arc planes and must pass the scalar checks, and only those reach
    ``canonical_form``.
    """
    expected = sum(1 for _ in _generate.partitions(n - 1))
    found = set()
    for p in _bitslice.capped_stream(n)(n):
        for b in _digraph.bits(p.one_source() & p.star_generating()):
            d = p.digraph(b)
            sg = _classify.classify_star_generating(d).star_generating
            if len(_digraph.sources(d)) != 1 or not sg:
                raise RuntimeError(
                    f"thm_3_2 order {n}: bit planes flag {d!r}, the scalar checks do not"
                )
            found.add(_generate.canonical_form(d))
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
    for n in range(2, n_max + 1):
        report.add_hits("count", None, 1)
        ok, detail = _census_check(n)
        report.digraphs_examined += _generate.digraph_space_size(n)
        if not ok:
            report.counterexamples.append(
                {"claim": "thm_3_2", "direction": "count", "n": n, "arcs": None, "m": None, "detail": detail}
            )


def verify_claims(
    claim_ids: Iterable[str],
    n_max: int,
    m_set: Iterable[int],
    mode: str = "exhaustive",
    seed: int | None = None,
    sample_count: int | None = None,
) -> list[VerificationReport]:
    """Run several claims in one pass over the digraph space.

    Returns one report per claim, in the order given; every input is
    checked before any claim runs.  Sampled mode draws each digraph's order
    uniformly from 2..n_max (1 when n_max is 1), not in proportion to the
    size of each order's space, then an index uniformly within that order.
    """
    claim_ids = list(dict.fromkeys(claim_ids))
    claims = [_lookup(cid) for cid in claim_ids]
    if mode not in ("exhaustive", "sampled"):
        raise InputError(f"unknown mode {mode!r}")
    m_list = sorted(set(m_set))
    if any(m < 1 for m in m_list):
        raise InputError("m values must be positive")
    for claim in claims:
        if claim.kind != "digraph" or claim.min_m is None:
            continue
        below = [m for m in m_list if m < claim.min_m]
        if below:
            raise InputError(
                f"claim {claim.id} requires m >= {claim.min_m}; got {below}"
            )
    special = [c for c in claims if c.kind != "digraph"]
    scan_ids = [c.id for c in claims if c.kind == "digraph"]
    if n_max < 2 and any(c.kind == "census" for c in claims):
        raise InputError("thm_3_2 needs n_max >= 2")
    if scan_ids:
        if n_max < 1:
            raise InputError(f"n_max must be positive, got {n_max}")
        if not m_list and any(CATALOG[cid].min_m is not None for cid in scan_ids):
            raise InputError("m_set is empty but some requested claim depends on m")
        if mode == "sampled":
            if sample_count is None or sample_count < 1:
                raise InputError(f"sample count must be at least 1, got {sample_count}")
            if n_max > _digraph.MAX_TEXT_ORDER:  # a draw builds (2**n - 1)**n
                raise InputError(f"sampled n_max {n_max} exceeds {_digraph.MAX_TEXT_ORDER}")

    started = time.perf_counter()
    reports = {
        cid: VerificationReport(cid, mode, n_max, tuple(m_list)) for cid in claim_ids
    }
    for claim in special:
        if claim.kind == "grid":
            _verify_grid(m_list, n_max, reports[claim.id])
        else:
            _verify_census(n_max, reports[claim.id])

    if scan_ids:
        scanned = [reports[cid] for cid in scan_ids]
        rounds = _rounds(scanned, m_list)
        if mode == "exhaustive":
            # a verdict covers the whole space, whichever stream ran
            examined = sum(_generate.digraph_space_size(n) for n in range(1, n_max + 1))
            for n in range(1, n_max + 1):
                for stream, stream_rounds in _streams(rounds, n).items():
                    for p in stream(n):
                        _check_batch(p, stream_rounds)
        else:
            examined = sample_count
            for p in _sampled_batches(n_max, seed, sample_count):
                _check_batch(p, rounds)
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
    mode: str = "exhaustive",
    seed: int | None = None,
    sample_count: int | None = None,
) -> VerificationReport:
    """Run one claim over the bounded digraph space; see ``verify_claims``."""
    return verify_claims([claim_id], n_max, m_set, mode, seed, sample_count)[0]


def replay_counterexample(entry: dict) -> bool:
    """Re-evaluate a report entry from its serialized digraph.

    True iff the hypothesis still holds and the conclusion still fails.
    """
    try:
        claim = _lookup(entry["claim"])
        direction_name = entry["direction"]
        m = entry["m"]
        # the grid reads k and l, the others n; each must be an int (not a bool)
        ints = [entry[key] for key in (("k", "l") if claim.kind == "grid" else ("n",))]
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
        ctx = ClaimContext(_generate.lemma_kl_digraph(k, l))
        if m is None:
            return len(ctx.sources) != k or not ctx.weakly_connected
        return ctx.n_components(m) != l

    directions = {dd.name: dd for dd in claim.directions}
    try:
        direction = directions[direction_name]
        d = _digraph.from_arc_list(entry["n"], [tuple(a) for a in entry["arcs"]])
    except (KeyError, TypeError, ValueError):
        raise InputError(f"malformed counterexample entry: {entry!r}") from None
    ctx = ClaimContext(d)
    m_eval = 0 if m is None else m
    return direction.holds(ctx, m_eval) and direction.failure(ctx, m_eval) is not None


def write_report_lines(reports: Iterable[VerificationReport], path: str) -> None:
    """Append one JSON line per report to ``path``."""
    with open(path, "a", encoding="utf-8") as handle:
        for rep in reports:
            handle.write(rep.to_json_line() + "\n")
