"""The bit-plane engine against the scalar ClaimContext path it must reproduce."""

import random

import pytest

from stargen import CATALOG, replay_counterexample, verify_claim, verify_claims
from stargen import bitslice, verify
from stargen.generate import digraph_at, digraph_space_size
from stargen.verify import CONNECTED, Atom, Claim, ClaimContext, Direction, _implies

PLANED_ATOMS = {
    name: atom
    for name, atom in vars(verify).items()
    if isinstance(atom, Atom) and atom.plane is not None
}
PLANED_CLAIMS = sorted(
    cid
    for cid, claim in CATALOG.items()
    if claim.kind == "digraph" and all(d.planed for d in claim.directions)
)


def _sorted_acc(acc):
    key = verify._entry_sort_key
    return {
        cid: (hits, sorted(cexs, key=key), sorted(bounds, key=key))
        for cid, (hits, cexs, bounds) in acc.items()
    }


def _both_paths(claim_ids, m_list, n, start, stop):
    """(engine, scalar) accumulators of one index range."""
    examined, planes = verify._scan_job((claim_ids, m_list, ("range", (n, start, stop))))
    assert examined == stop - start
    draws = [(n, i) for i in range(start, stop)]
    examined, scalar = verify._scan_job((claim_ids, m_list, ("draws", draws)))
    assert examined == stop - start
    return _sorted_acc(planes), _sorted_acc(scalar)


class TestBatches:
    def test_batch_shapes(self):
        assert [bitslice.trailing_rows(n) for n in range(1, 7)] == [1, 2, 3, 4, 3, 3]
        assert bitslice.batch_size(4) == 15**4
        assert bitslice.batch_size(5) == 31**3
        assert all(bitslice.batch_size(n) <= bitslice.CAP_BITS for n in range(1, 12))

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_arc_planes_decode_to_the_stream(self, n):
        rng = random.Random(n)
        total = digraph_space_size(n)
        size = bitslice.batch_size(n)
        for _ in range(3):
            start = rng.randrange(total)
            stop = min(total, start + rng.randrange(1, 2 * size))
            batches = list(bitslice.batches(n, start, stop))
            assert sum(p.valid.bit_count() for p in batches) == stop - start
            for p in batches:
                assert p.start % size == 0
                for b in rng.sample(range(size), min(size, 40)):
                    rows = digraph_at(n, p.start + b).out_rows
                    got = tuple(
                        sum((p.arcs[u][w] >> b & 1) << w for w in range(n)) for u in range(n)
                    )
                    assert got == rows
                    assert bool(p.valid >> b & 1) is (start <= p.start + b < stop)


class TestAtomPlanes:
    def test_every_plane_equals_its_test(self):
        for n in range(1, 4):
            total = digraph_space_size(n)
            (p,) = bitslice.batches(n, 0, total)
            contexts = [ClaimContext(digraph_at(n, i)) for i in range(total)]
            for m in (1, 2, 3, 4, 5, 2**60):
                for name, atom in PLANED_ATOMS.items():
                    plane = atom.plane(p, m)
                    assert 0 <= plane <= p.full, (name, n, m)
                    for b, ctx in enumerate(contexts):
                        assert bool(plane >> b & 1) is atom.test(ctx, m), (name, ctx.d, m)

    def test_only_sub_monotone_is_scalar(self):
        scalar = {
            name
            for name, atom in vars(verify).items()
            if isinstance(atom, Atom) and atom.plane is None
        }
        assert scalar == {"SUB_MONOTONE"}
        assert PLANED_CLAIMS == sorted(
            cid for cid, c in CATALOG.items() if c.kind == "digraph" and cid != "lemma_3_4"
        )
        assert not CATALOG["lemma_3_4"].directions[0].planed
        assert not Direction("raw", 1, lambda c, m: True, lambda c, m: (True, None)).planed


class TestSameReports:
    def test_exhaustive_n4(self):
        # hits per direction and m, counterexamples and boundary
        # instances with their details, for every planed claim
        m_list = list(range(1, 8))
        for n in range(1, 5):
            planes, scalar = _both_paths(PLANED_CLAIMS, m_list, n, 0, digraph_space_size(n))
            assert planes == scalar, n

    def test_seeded_sample_n5(self):
        # a seeded range of 20 000 indices; this one spans two batches
        rng = random.Random(20261018)
        start = rng.randrange(digraph_space_size(5) - 20_000)
        size = bitslice.batch_size(5)
        assert start // size != (start + 20_000) // size
        planes, scalar = _both_paths(PLANED_CLAIMS, list(range(1, 8)), 5, start, start + 20_000)
        assert planes == scalar

    def test_hits_by_direction_agree(self):
        claim_ids = ["thm_1_3", "lemma_2_6", "prop_3_7"]
        reports = verify_claims(claim_ids, 4, range(2, 5))
        draws = [(n, i) for n in range(1, 5) for i in range(digraph_space_size(n))]
        _, scalar = verify._scan_job((claim_ids, [2, 3, 4], ("draws", draws)))
        for rep in reports:
            hits = scalar[rep.claim_id][0]
            assert rep.hits_by_direction == {
                name: {m: count for (d, m), count in hits.items() if d == name}
                for name, _ in hits
            }
            assert rep.hypothesis_hits == sum(hits.values())
        assert reports[0].hits_by_direction == {
            "if": {2: 32, 3: 32, 4: 32},
            "only_if": {2: 32, 3: 32, 4: 32},
        }
        assert reports[1].hits_by_direction == {"forward": {None: 33}}
        assert reports[0].to_dict()["hits_by_direction"]["if"] == {"2": 32, "3": 32, "4": 32}
        assert reports[1].to_dict()["hits_by_direction"] == {"forward": {"null": 33}}


class TestFalseClaim:
    def test_identical_replayable_counterexamples(self, monkeypatch):
        bogus = Claim("bogus_planed", "digraph", (_implies("forward", 1, (), CONNECTED),))
        assert bogus.directions[0].planed
        monkeypatch.setitem(CATALOG, "bogus_planed", bogus)
        failures = 0
        for n in range(1, 4):
            planes, scalar = _both_paths(["bogus_planed"], [1, 2], n, 0, digraph_space_size(n))
            assert planes == scalar
            failures += len(scalar["bogus_planed"][1])
        report = verify_claim("bogus_planed", 3, [1, 2])
        assert len(report.counterexamples) == failures > 0
        for entry in report.counterexamples:
            assert entry["detail"].startswith("competition graph has ")
            assert replay_counterexample(entry)

    def test_plane_the_scalar_path_contradicts_raises(self, monkeypatch):
        lying = Atom(CONNECTED.test, CONNECTED.why, lambda p, m: 0)
        lying_claim = Claim("bogus_lying", "digraph", (_implies("forward", 1, (), lying),))
        monkeypatch.setitem(CATALOG, "bogus_lying", lying_claim)
        with pytest.raises(RuntimeError, match="bit planes flag"):
            verify_claim("bogus_lying", 2, [1])
