"""Exhaustive and sampled verification of the catalog of structural claims
about m-step competition graphs over bounded digraph spaces.

Every claim is split into directed sub-checks with their own minimum m
(biconditionals are never merged, since the two directions hold on
different m ranges).  Each direction is written as ``hypothesis ⇒
conclusion atoms`` over one set of named atoms, which are composed from
the public operations of the other modules; a per-digraph context only
memoizes their results.  The subdigraph check alone works on out-rows
directly, so no context is built per subdigraph.
"""

from __future__ import annotations

import json
import multiprocessing
import random
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, NamedTuple

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
        "_comps",
        "_sources",
        "_weak",
        "_report",
        "_all_weak_sg",
        "_every_weak_src",
        "_subs",
    )

    def __init__(self, d: Digraph):
        self.d = d
        self._powers = {1: d}
        self._graphs = {}
        self._tf = {}
        self._comps = {}
        self._sources = None
        self._weak = None
        self._report = None
        self._all_weak_sg = None
        self._every_weak_src = None
        self._subs = None  # m -> prey rows of every subdigraph; 1 holds the subdigraphs

    def power(self, m: int) -> Digraph:
        p = self._powers.get(m)
        if p is None:
            # compose two cached powers when the exponents add up
            for a in sorted(self._powers, reverse=True):
                if a < m and (m - a) in self._powers:
                    p = _digraph.compose(self._powers[a], self._powers[m - a])
                    break
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
        c = self._comps.get(m)
        if c is None:
            c = _competition.components(self.graph(m))
            self._comps[m] = c
        return c

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
        return _competition.star_decomposition(self.graph(m), self.sources)

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
            self._subs = {1: subs}
        return self._subs[1]

    def sub_powers(self, m: int) -> list[list[int]]:
        """The m-step prey rows of every subdigraph, in ``subdigraphs`` order."""
        subs = self.subdigraphs()
        powers = self._subs.get(m)
        if powers is None:
            prev = self._subs.get(m - 1)
            if prev is not None:
                powers = [_digraph._row_product(p, s) for p, s in zip(prev, subs)]
            else:
                powers = [_digraph._row_power(s, m) for s in subs]
            self._subs[m] = powers
        return powers


# --- atoms ----------------------------------------------------------------
# Every claim direction is an implication between about a dozen properties
# of D and C^m(D).  An atom names one of them: ``test`` decides it and
# ``why`` formats the failure detail, called only after ``test`` failed.


class Atom(NamedTuple):
    """A property of (D, m); atoms used only in hypotheses need no ``why``."""

    test: Callable[[ClaimContext, int], bool]
    why: Callable[[ClaimContext, int], str] | None = None


def _witness(find: Callable[[ClaimContext, int], str | None]) -> Atom:
    """Atom whose detail names a witness: ``find`` returns it, or None if the property holds."""
    return Atom(lambda c, m: find(c, m) is None, find)


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
    for i in range(1, m + 1):
        rows = c.power(i).in_rows
        for u in range(c.d.n):
            count = rows[u].bit_count()
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


# properties of D; m is ignored
WEAKLY_CONNECTED = Atom(lambda c, m: c.weakly_connected)
HAS_SOURCE = Atom(lambda c, m: bool(c.sources))
WEAK_SOURCES = Atom(lambda c, m: c.every_weak_component_has_source)
NO_COMMON_PREY = Atom(lambda c, m: _classify.check_no_common_prey_functional(c.d))
ONE_SOURCE = Atom(
    lambda c, m: len(c.sources) == 1, lambda c, m: f"digraph has {len(c.sources)} sources"
)
SG = Atom(lambda c, m: c.report.star_generating, lambda c, m: "digraph is not star-generating")
ALL_WEAK_SG = Atom(
    lambda c, m: c.all_weak_star_generating,
    lambda c, m: "some weak component is not star-generating",
)
CYCLE_UNION = Atom(
    lambda c, m: _classify.is_disjoint_cycle_union(c.d)[0],
    lambda c, m: "not a vertex-disjoint union of directed cycles",
)
NON_SOURCES_CYCLE_UNION = Atom(
    _non_sources_cycle_union,
    lambda c, m: "removing the sources does not leave disjoint cycles",
)

# properties of C^m(D), k = |sources of D|, l = |components of C^m(D)|
TF = Atom(ClaimContext.triangle_free, lambda c, m: "competition graph has a triangle")
CONNECTED = Atom(
    lambda c, m: c.n_components(m) == 1,
    lambda c, m: f"competition graph has {c.n_components(m)} components",
)
K_EQ_L = Atom(lambda c, m: len(c.sources) == c.n_components(m), _k_vs_l)
K_LE_L = Atom(lambda c, m: len(c.sources) <= c.n_components(m), _k_vs_l)
ENOUGH_COMPONENTS = Atom(
    K_LE_L.test,
    lambda c, m: f"{len(c.sources)} sources but only {c.n_components(m)} components",
)
COMPS_MEET_SOURCES = Atom(
    ClaimContext.every_cm_component_meets_sources,
    lambda c, m: "some component avoids every source",
)
STAR_OK = Atom(lambda c, m: bool(c.star_decomposition(m)), _star_failure)
K_STARS = Atom(
    lambda c, m: len(c.star_decomposition(m).stars) == len(c.sources),
    lambda c, m: f"{len(c.star_decomposition(m).stars)} stars but {len(c.sources)} sources",
)
PREY_MONOTONE = _witness(_prey_monotone)
PRED_BOUND = _witness(_predator_bound)
PREDATORS_WHEN_K_EQ_L = _witness(_predators_when_k_eq_l)
PENDANT = _witness(_pendant)
SUB_MONOTONE = _witness(_sub_monotone)


# --- claim catalog --------------------------------------------------------


@dataclass(frozen=True)
class Direction:
    name: str
    min_m: int | None  # None: m-independent, checked once per digraph
    hypothesis: Callable[[ClaimContext, int], bool]
    conclusion: Callable[[ClaimContext, int], tuple[bool, str | None]]


def _implies(name: str, min_m: int | None, hypothesis, *conclusion: Atom) -> Direction:
    """The direction ``hypothesis ⇒ conclusion[0] ∧ conclusion[1] ∧ …``.

    ``hypothesis`` is one inline conjunction of atom tests: a loop over a
    tuple of atoms would run for every digraph and m of a scan.  A failed
    conclusion reports the ``why`` of its first failing atom.
    """
    if any(atom.why is None for atom in conclusion):
        raise ValueError(f"direction {name!r}: every conclusion atom needs a why")

    def conclude(c: ClaimContext, m: int) -> tuple[bool, str | None]:
        for test, why in conclusion:
            if not test(c, m):
                return False, why(c, m)
        return True, None

    return Direction(name, min_m, hypothesis, conclude)


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
        Claim("prop_2_1", "digraph", (_implies("forward", 1, lambda c, m: True, PREY_MONOTONE),)),
        Claim("lemma_2_2", "grid"),
        Claim("prop_2_3", "digraph", (_implies("forward", 1, TF.test, PRED_BOUND),)),
        Claim("lemma_2_4", "digraph", (
            _implies(
                "forward", 1,
                lambda c, m: WEAKLY_CONNECTED.test(c, m) and HAS_SOURCE.test(c, m)
                and TF.test(c, m),
                ENOUGH_COMPONENTS, PREDATORS_WHEN_K_EQ_L,
            ),
        )),
        Claim("prop_2_5", "digraph", (
            _implies(
                "forward", 2,
                lambda c, m: WEAKLY_CONNECTED.test(c, m) and TF.test(c, m) and K_EQ_L.test(c, m),
                PENDANT,
            ),
        )),
        Claim("lemma_2_6", "digraph", (
            _implies("forward", None, NO_COMMON_PREY.test, CYCLE_UNION),
        )),
        Claim("thm_2_7", "digraph", (
            _implies(
                "forward", 2,
                lambda c, m: WEAKLY_CONNECTED.test(c, m) and TF.test(c, m) and K_EQ_L.test(c, m),
                STAR_OK, SG,
            ),
        )),
        Claim("lemma_3_1", "digraph", (
            _implies("forward", None, SG.test, NON_SOURCES_CYCLE_UNION),
        )),
        Claim("thm_3_2", "census"),
        Claim("prop_3_3", "digraph", (_implies("forward", 1, SG.test, STAR_OK, K_STARS),)),
        Claim("lemma_3_4", "digraph", (_implies("forward", 1, lambda c, m: True, SUB_MONOTONE),)),
        Claim("lemma_3_5", "digraph", (
            _implies("forward", 2, lambda c, m: WEAK_SOURCES.test(c, m) and TF.test(c, m), K_LE_L),
        )),
        Claim("lemma_3_6", "digraph", (
            _implies(
                "only_if", 1,
                lambda c, m: WEAK_SOURCES.test(c, m) and ALL_WEAK_SG.test(c, m),
                TF, K_EQ_L,
            ),
            _implies(
                "if", 2,
                lambda c, m: WEAK_SOURCES.test(c, m) and TF.test(c, m) and K_EQ_L.test(c, m),
                ALL_WEAK_SG,
            ),
        )),
        Claim("prop_3_7", "digraph", (
            _implies(
                "only_if", 1,
                lambda c, m: WEAK_SOURCES.test(c, m) and TF.test(c, m)
                and COMPS_MEET_SOURCES.test(c, m),
                K_EQ_L,
            ),
            _implies(
                "if", 2,
                lambda c, m: WEAK_SOURCES.test(c, m) and TF.test(c, m) and K_EQ_L.test(c, m),
                COMPS_MEET_SOURCES,
            ),
        )),
        Claim("cor_3_8", "digraph", (
            _implies(
                "forward", 2,
                lambda c, m: WEAK_SOURCES.test(c, m) and TF.test(c, m)
                and COMPS_MEET_SOURCES.test(c, m),
                ALL_WEAK_SG,
            ),
        )),
        Claim("thm_1_2", "digraph", (
            _implies(
                "only_if", 1,
                lambda c, m: WEAK_SOURCES.test(c, m) and ALL_WEAK_SG.test(c, m),
                STAR_OK,
            ),
            _implies(
                "if", 2,
                lambda c, m: WEAK_SOURCES.test(c, m) and STAR_OK.test(c, m),
                ALL_WEAK_SG,
            ),
        )),
        Claim("thm_1_3", "digraph", (
            _implies(
                "if", 1,
                lambda c, m: ONE_SOURCE.test(c, m) and SG.test(c, m),
                CONNECTED, TF,
            ),
            _implies(
                "only_if", 2,
                lambda c, m: HAS_SOURCE.test(c, m) and CONNECTED.test(c, m) and TF.test(c, m),
                SG, ONE_SOURCE,
            ),
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
    hypothesis_hits: int = 0
    counterexamples: list[dict] = field(default_factory=list)
    boundary_instances: list[dict] = field(default_factory=list)
    elapsed: float = 0.0

    @property
    def verified(self) -> bool:
        return not self.counterexamples

    def to_dict(self) -> dict[str, Any]:
        return {
            "claim": self.claim_id,
            "mode": self.mode,
            "n_max": self.n_max,
            "m_values": list(self.m_values),
            "digraphs_examined": self.digraphs_examined,
            "hypothesis_hits": self.hypothesis_hits,
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


def _check_digraph(d: Digraph, claim_ids, m_list, acc) -> None:
    """Evaluate every requested claim on one digraph, updating accumulators.

    An m-independent direction is evaluated once, at m = 0, and recorded
    with m None.  A failure below a direction's m range is a boundary
    instance: recorded, never a counterexample.
    """
    ctx = ClaimContext(d)
    for cid in claim_ids:
        hits, cexs, bounds = acc[cid]
        for direction in CATALOG[cid].directions:
            min_m = direction.min_m
            for m in m_list if min_m is not None else (0,):
                if direction.hypothesis(ctx, m):
                    in_range = min_m is None or m >= min_m
                    hits[0] += in_range
                    ok, detail = direction.conclusion(ctx, m)
                    if not ok:
                        entry = _entry(cid, direction.name, d, m or None, detail)
                        (cexs if in_range else bounds).append(entry)


def _scan_job(args) -> tuple[int, dict]:
    claim_ids, m_list, job = args
    acc = {cid: ([0], [], []) for cid in claim_ids}
    examined = 0
    kind, payload = job
    if kind == "range":
        n, start, stop = payload
        stream = _generate.all_digraphs(n, start=start, stop=stop)
    else:  # "draws": explicit (n, index) pairs
        stream = (_generate.digraph_at(n, idx) for n, idx in payload)
    for d in stream:
        examined += 1
        _check_digraph(d, claim_ids, m_list, acc)
    return examined, acc


def _range_jobs(n_max: int, chunk: int) -> list[tuple[str, tuple]]:
    jobs = []
    for n in range(1, n_max + 1):
        total = _generate.digraph_space_size(n)
        for start in range(0, total, chunk):
            jobs.append(("range", (n, start, min(start + chunk, total))))
    return jobs


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
                report.hypothesis_hits += 1
                l_found = ctx.n_components(m)
                if l_found != l:
                    problems.append((m, f"expected {l} components, found {l_found}"))
            for m, detail in problems:
                entry = _entry("lemma_2_2", "construction", d, m, detail)
                entry.update({"k": k, "l": l})
                report.counterexamples.append(entry)


def _census_check(n: int) -> tuple[bool, str | None, int]:
    """Count isomorphism classes of single-source star-generating digraphs
    of order n by brute force and compare against the enumerator.
    """
    expected = sum(1 for _ in _generate.partitions(n - 1))
    found = set()
    examined = 0
    for d in _generate.all_digraphs(n):
        examined += 1
        if len(_digraph.sources(d)) != 1:
            continue
        if _classify.classify_star_generating(d).star_generating:
            found.add(_generate.canonical_form(d))
    reps = {
        _generate.canonical_form(d)
        for d in _generate.enumerate_single_source_star_generating(n)
    }
    if len(found) != expected:
        return False, f"order {n}: {len(found)} classes, expected {expected}", examined
    if reps != found:
        return False, f"order {n}: enumerated representatives do not cover the classes", examined
    return True, None, examined


def _verify_census(n_max: int, report: VerificationReport) -> None:
    if n_max < 2:
        raise InputError("thm_3_2 needs n_max >= 2")
    for n in range(2, n_max + 1):
        report.hypothesis_hits += 1
        ok, detail, examined = _census_check(n)
        report.digraphs_examined += examined
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
    workers: int = 1,
) -> list[VerificationReport]:
    """Run several claims in one pass over the digraph space.

    Returns one report per claim, in the order given.  With ``workers > 1``
    the space is split into contiguous index ranges; merged results do not
    depend on the worker count.  Sampled mode draws each digraph's order
    uniformly from 2..n_max (1 when n_max is 1), not in proportion to the
    size of each order's space, then an index uniformly within that order.
    """
    if workers < 1:
        raise InputError(f"workers must be at least 1, got {workers}")
    claim_ids = list(dict.fromkeys(claim_ids))
    claims = [_lookup(cid) for cid in claim_ids]
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
    started = time.perf_counter()
    reports = {
        cid: VerificationReport(cid, mode, n_max, tuple(m_list)) for cid in claim_ids
    }

    special = [c for c in claims if c.kind != "digraph"]
    scan_ids = [c.id for c in claims if c.kind == "digraph"]
    for claim in special:
        if claim.kind == "grid":
            _verify_grid(m_list, n_max, reports[claim.id])
        else:
            _verify_census(n_max, reports[claim.id])

    if scan_ids:
        if n_max < 1:
            raise InputError(f"n_max must be positive, got {n_max}")
        if not m_list and any(CATALOG[cid].min_m is not None for cid in scan_ids):
            raise InputError("m_set is empty but some requested claim depends on m")
        if mode == "exhaustive":
            chunk = 200_000
            jobs = _range_jobs(n_max, chunk)
        elif mode == "sampled":
            if sample_count is None:
                raise InputError("sampled mode needs a sample count")
            rng = random.Random(seed)
            draws = []
            for _ in range(sample_count):
                n = rng.randint(min(2, n_max), n_max)
                draws.append((n, rng.randrange(_generate.digraph_space_size(n))))
            chunk = 50_000
            jobs = [
                ("draws", draws[i : i + chunk]) for i in range(0, len(draws), chunk)
            ]
        else:
            raise InputError(f"unknown mode {mode!r}")

        job_args = [(scan_ids, m_list, job) for job in jobs]
        if workers > 1 and len(jobs) > 1:
            with multiprocessing.get_context("fork").Pool(workers) as pool:
                partials = pool.map(_scan_job, job_args)
        else:
            partials = [_scan_job(a) for a in job_args]

        for examined, acc in partials:
            for cid in scan_ids:
                hits, cexs, bounds = acc[cid]
                rep = reports[cid]
                rep.digraphs_examined += examined
                rep.hypothesis_hits += hits[0]
                rep.counterexamples.extend(cexs)
                rep.boundary_instances.extend(bounds)
        for cid in scan_ids:
            reports[cid].counterexamples.sort(key=_entry_sort_key)
            reports[cid].boundary_instances.sort(key=_entry_sort_key)

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
    workers: int = 1,
) -> VerificationReport:
    """Run one claim over the bounded digraph space; see ``verify_claims``."""
    return verify_claims([claim_id], n_max, m_set, mode, seed, sample_count, workers)[0]


def replay_counterexample(entry: dict) -> bool:
    """Re-evaluate a report entry from its serialized digraph.

    True iff the hypothesis still holds and the conclusion still fails.
    """
    try:
        claim = _lookup(entry["claim"])
        direction_name = entry["direction"]
        m = entry["m"]
    except (KeyError, TypeError):
        raise InputError(f"malformed counterexample entry: {entry!r}") from None

    if claim.kind == "census":
        ok, _, _ = _census_check(entry["n"])
        return not ok
    if claim.kind == "grid":
        try:
            k, l = entry["k"], entry["l"]
        except KeyError:
            raise InputError(f"malformed lemma_2_2 entry: {entry!r}") from None
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
    if not direction.hypothesis(ctx, m_eval):
        return False
    ok, _ = direction.conclusion(ctx, m_eval)
    return not ok


def write_report_lines(reports: Iterable[VerificationReport], path: str) -> None:
    """Append one JSON line per report to ``path``."""
    with open(path, "a", encoding="utf-8") as handle:
        for rep in reports:
            handle.write(rep.to_json_line() + "\n")
