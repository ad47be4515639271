"""Pinned report digests: one sha256 per ``verify_claims`` call over its
report lines, ``elapsed`` zeroed.

A change that should leave every report as it was must pass this test
unedited.  The calls are the three of criterion 4 at n_max 4, grouped by
m range as ``test_exhaustive_catalog_n4`` groups them, and every digraph
claim at m {2, 3} in three seeded sampled runs.
"""

import hashlib
import json

import pytest

from stargen import CATALOG, verify_claims


def _calls():
    """{name: (claim ids, n_max, m set, {"seed": ..., "sample_count": ...})}"""
    groups = {}
    for cid, claim in CATALOG.items():
        if cid == "lemma_2_2":
            key = (1, 2, 3, 4, 5, 6)  # grid family, full m range
        elif claim.min_m is None:
            key = ()
        else:
            key = tuple(range(claim.min_m, 7))
        groups.setdefault(key, []).append(cid)
    calls = {
        f"exhaustive n_max 4 m {list(m_set)}": (ids, 4, m_set, {})
        for m_set, ids in sorted(groups.items())
    }
    digraph = [cid for cid, claim in CATALOG.items() if claim.kind == "digraph"]
    for n_max, seed, count in [(4, 11, 5000), (5, 3, 20000), (7, 5, 3000)]:
        calls[f"sampled n_max {n_max} seed {seed} draws {count}"] = (
            digraph, n_max, (2, 3), {"seed": seed, "sample_count": count}
        )
    return calls


CALLS = _calls()

DIGESTS = {
    "exhaustive n_max 4 m []": (
        "f6fc3159a4d99aba159b4095d6462871aca8cbb81b9e8bb5498c7ede7fbb1365"
    ),
    "exhaustive n_max 4 m [1, 2, 3, 4, 5, 6]": (
        "e88f803521b66fd6044b3cb3b544a45fedfb8684ff643c198dc625cc8c3acb87"
    ),
    "exhaustive n_max 4 m [2, 3, 4, 5, 6]": (
        "e3af44ff8fba11f36d146f7d3b3c9179b9b21d8aca20ed6e01602999187a01b9"
    ),
    "sampled n_max 4 seed 11 draws 5000": (
        "ed5247976889c814992e94fee0afcefb209a3e290c15957c713871f574644ff3"
    ),
    "sampled n_max 5 seed 3 draws 20000": (
        "ddfb55a7d1169e68e04ec4231eba78dfc4ed372f535dfb3d5a67c686effebc6b"
    ),
    "sampled n_max 7 seed 5 draws 3000": (
        "8b683c5595ce0402b1b41e17c45706e41924ecfac768b2d86c99203c1fa11f24"
    ),
}


def test_every_call_is_pinned():
    assert set(CALLS) == set(DIGESTS)


@pytest.mark.parametrize("name", list(DIGESTS))
def test_reports_match_their_digest(name):
    *args, kwargs = CALLS[name]
    reports = verify_claims(*args, **kwargs)
    digest = hashlib.sha256()
    for rep in reports:
        line = rep.to_dict()
        line["elapsed"] = 0
        digest.update((json.dumps(line, sort_keys=True) + "\n").encode())
    counts = [
        f"{rep.claim_id}: {rep.hypothesis_hits} hits, "
        f"{len(rep.counterexamples)} counterexamples, "
        f"{len(rep.boundary_instances)} boundary instances"
        for rep in reports
    ]
    assert digest.hexdigest() == DIGESTS[name], f"{name}:\n" + "\n".join(counts)
