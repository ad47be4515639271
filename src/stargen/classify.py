"""Star-generating digraph recognition and related structural predicates.

A weakly connected digraph is star-generating when it has a source, every
prey of every source has exactly two predators, no two sources share a
prey, and every non-source vertex has exactly one prey and exactly two
predators of which exactly one is a source.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Any

from .digraph import Digraph, _source_mask, _weak_masks, bits

Witness = dict[str, Any]


@dataclass(frozen=True, slots=True)
class Verdict:
    holds: bool
    witness: Witness | None = None

    def __bool__(self) -> bool:
        return self.holds


@dataclass(frozen=True, slots=True)
class ClassificationReport:
    """Per-condition verdicts; false verdicts carry a concrete witness.

    ``min_outdegree_one`` is reported alongside the defining conditions
    because the non-source prey requirement presupposes that prey exist.
    """

    min_outdegree_one: Verdict
    weakly_connected: Verdict
    s1: Verdict
    s2: Verdict
    s3: Verdict

    @property
    def star_generating(self) -> bool:
        return (
            self.min_outdegree_one.holds
            and self.weakly_connected.holds
            and self.s1.holds
            and self.s2.holds
            and self.s3.holds
        )

    def to_dict(self) -> dict[str, Any]:
        verdicts = [(name, getattr(self, name)) for name in _CONDITIONS]
        return {
            **{name: v.holds for name, v in verdicts},
            "star_generating": self.star_generating,
            "witnesses": {name: v.witness for name, v in verdicts if v.witness is not None},
        }


# the verdict names, in report order
_CONDITIONS = tuple(f.name for f in fields(ClassificationReport))

# every verdict that holds is this one; verdicts are immutable
_HOLDS = Verdict(True)


def classify_star_generating(d: Digraph) -> ClassificationReport:
    """Check weak connectivity and the three defining source/prey conditions.

    Violations are verdicts with witnesses, never errors.  Witnesses are
    the first violation in vertex order.
    """
    return _classify(d, _weak_masks(d), _source_mask(d))


def classify_components(d: Digraph) -> list[tuple[frozenset[int], ClassificationReport]]:
    """Classify each weak component separately, witnesses in D's labels.

    No arc leaves a weak component, so its vertices keep their prey,
    predators and sources in D, and each component is classified in place.
    """
    src = _source_mask(d)
    return [(frozenset(bits(c)), _classify(d, [c], src)) for c in _weak_masks(d)]


def _classify(d: Digraph, comps: list[int], sources: int) -> ClassificationReport:
    """Classify the subdigraph of d on the union of ``comps``, its
    weak-component masks ordered by smallest member, checking its vertices
    in ascending order; ``sources`` is the bitmask of D's sources.
    """
    out_rows = d.out_rows
    in_rows = d.in_rows
    # the masks are disjoint, so their sum is their union
    union = sum(comps)

    outdeg = _HOLDS
    for v in bits(union):
        if not out_rows[v]:
            outdeg = Verdict(False, {"vertex": v, "problem": "no prey"})
            break

    if len(comps) == 1:
        connected = _HOLDS
    else:
        # masks come ordered by lowest member, so their low bits are the minima
        connected = Verdict(
            False,
            {
                "components": len(comps),
                "separated": [(c & -c).bit_length() - 1 for c in comps[:2]],
            },
        )

    src = sources & union
    src_sorted = list(bits(src))

    # each source's prey must have exactly two predators; a source must exist
    if not src:
        s1 = Verdict(False, {"problem": "no source"})
    else:
        s1 = _HOLDS
        for v in src_sorted:
            for w in bits(out_rows[v]):
                if in_rows[w].bit_count() != 2:
                    s1 = Verdict(
                        False,
                        {"source": v, "prey": w, "predators": list(bits(in_rows[w]))},
                    )
                    break
            if not s1:
                break

    # no two sources share a prey
    s2 = _HOLDS
    for i, a in enumerate(src_sorted):
        for b in src_sorted[i + 1 :]:
            common = out_rows[a] & out_rows[b]
            if common:
                prey = (common & -common).bit_length() - 1
                s2 = Verdict(False, {"sources": [a, b], "common_prey": prey})
                break
        if not s2:
            break

    # non-source vertices: one prey, two predators, exactly one a source
    s3 = _HOLDS
    for u in bits(union):
        if src >> u & 1:
            continue
        if out_rows[u].bit_count() != 1:
            s3 = Verdict(False, {"vertex": u, "prey": list(bits(out_rows[u]))})
            break
        preds = in_rows[u]
        if preds.bit_count() != 2:
            s3 = Verdict(False, {"vertex": u, "predators": list(bits(preds))})
            break
        if (preds & src).bit_count() != 1:
            s3 = Verdict(
                False,
                {
                    "vertex": u,
                    "predators": list(bits(preds)),
                    "source_predators": list(bits(preds & src)),
                },
            )
            break

    return ClassificationReport(outdeg, connected, s1, s2, s3)


def is_disjoint_cycle_union(d: Digraph) -> tuple[bool, list[tuple[int, ...]] | None]:
    """True iff every vertex has exactly one prey and one predator.

    On success also returns the cycle decomposition, cycles ordered by
    smallest member and each starting at its smallest vertex; loops are
    cycles of length 1.
    """
    out_rows = d.out_rows
    in_rows = d.in_rows
    for v in range(d.n):
        if out_rows[v].bit_count() != 1 or in_rows[v].bit_count() != 1:
            return False, None
    cycles = []
    seen = set()
    for start in range(d.n):
        if start in seen:
            continue
        cycle = []
        v = start
        while v not in seen:
            seen.add(v)
            cycle.append(v)
            v = out_rows[v].bit_length() - 1
        cycles.append(tuple(cycle))
    return True, cycles


def check_no_common_prey_functional(d: Digraph) -> bool:
    """True iff every vertex has exactly one prey and no two vertices share one."""
    if any(row.bit_count() != 1 for row in d.out_rows):
        return False
    union = 0
    for row in d.out_rows:
        if union & row:
            return False
        union |= row
    return True
