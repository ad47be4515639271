"""The bit-plane engine against the scalar ClaimContext path it must reproduce."""

import random
from collections import Counter
from math import comb

import pytest

from stargen import CATALOG, replay_counterexample, verify_claim, verify_claims
from stargen import bitslice, verify
from stargen.competition import Graph
from stargen.digraph import InputError, bits
from stargen.generate import digraph_at, digraph_space_size
from stargen.verify import CONNECTED, SUB_MONOTONE, TF, Atom, Claim, ClaimContext, _implies

ATOMS = {name: atom for name, atom in vars(verify).items() if isinstance(atom, Atom)}
PLANED_CLAIMS = sorted(cid for cid, claim in CATALOG.items() if claim.kind == "digraph")
# the claims that accept m = 1, where directions with min m 2 leave boundary instances
LOW_M_CLAIMS = [cid for cid in PLANED_CLAIMS if (CATALOG[cid].min_m or 1) <= 1]


def _check_digraph(d, rounds, hits):
    """The scalar reference: every direction of the rounds on one ClaimContext.

    Hits go to the ``hits`` counter, entries straight into the reports.
    """
    ctx = ClaimContext(d)
    for m, steps in rounds:
        for rep, direction, hits_m, in_range in steps:
            if direction.holds(ctx, m):
                hits[rep.claim_id, direction.name, hits_m, in_range] += 1
                detail = direction.failure(ctx, m)
                if detail is not None:
                    entry = verify._entry(rep.claim_id, direction.name, d, hits_m, detail)
                    (rep.counterexamples if in_range else rep.boundary_instances).append(entry)


def _dicts(reports, examined):
    """Report dicts as ``verify_claims`` finishes them, elapsed zeroed."""
    out = []
    for rep in reports:
        rep.digraphs_examined = examined
        rep.counterexamples.sort(key=verify._entry_sort_key)
        rep.boundary_instances.sort(key=verify._entry_sort_key)
        out.append(dict(rep.to_dict(), elapsed=0.0))
    return out


def _start(claim_ids, m_list, mode="exhaustive", n_max=0):
    """Empty reports of the claims and their ``verify._rounds``."""
    reports = [verify.VerificationReport(cid, mode, n_max, tuple(m_list)) for cid in claim_ids]
    return reports, verify._rounds(reports, m_list)


def _scalar_reports(claim_ids, m_list, draws, mode="exhaustive", n_max=0):
    """Report dicts of every direction run on one ClaimContext per (n, index)."""
    reports, rounds = _start(claim_ids, m_list, mode, n_max)
    hits = Counter()
    for n, i in draws:
        _check_digraph(digraph_at(n, i), rounds, hits)
    by_id = {rep.claim_id: rep for rep in reports}
    for (cid, name, m, in_range), count in hits.items():
        by_id[cid].add_hits(name, m, count, in_range)
    return _dicts(reports, len(draws))


def _both_paths(claim_ids, m_list, contexts, draws):
    """(engine, scalar) report dicts of the digraphs of some batches, whose
    bits are the (order, index) pairs ``draws``.
    """
    reports, rounds = _start(claim_ids, m_list)
    for p in contexts:
        verify._check_batch(p, rounds)
    return _dicts(reports, len(draws)), _scalar_reports(claim_ids, m_list, draws)


def _whole(n):
    """The (order, index) pairs of the whole stream of order n."""
    return [(n, i) for i in range(digraph_space_size(n))]


def _sampled_draws(n_max, seed, count):
    """The (order, index) pairs of a sampled scan, drawn as ``verify_claims`` draws them."""
    rng = random.Random(seed)
    pairs = []
    for _ in range(count):
        n = rng.randint(min(2, n_max), n_max)
        pairs.append((n, rng.randrange(digraph_space_size(n))))
    return pairs


def _decode(p, b):
    """The out-rows of bit b of a batch, read from its arc planes."""
    return tuple(sum((p.arcs[u][w] >> b & 1) << w for w in range(p.n)) for u in range(p.n))


def _batch_size(n, base):
    """Bits per batch of an order-n stream whose digits take ``base`` values."""
    return base ** bitslice._trailing_digits(base, n)


class TestBatches:
    def test_batch_shapes(self):
        rows = [bitslice._trailing_digits(2**n - 1, n) for n in range(1, 7)]
        assert rows == [1, 2, 3, 4, 3, 3]
        assert _batch_size(4, 15) == 15**4
        assert _batch_size(5, 31) == 31**3
        for n in range(1, 12):
            assert _batch_size(n, 2**n - 1) <= bitslice.CAP_BITS
            assert _batch_size(n, len(bitslice._predator_sets(n))) <= bitslice.CAP_BITS

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_arc_planes_decode_to_the_stream(self, n):
        rng = random.Random(n)
        total = digraph_space_size(n)
        size = _batch_size(n, 2**n - 1)
        count = total // size
        for k in {0, count - 1} | {rng.randrange(count) for _ in range(2)}:
            (p,) = bitslice.batches(n, k, k + 1)
            assert p.full == (1 << size) - 1
            for b in rng.sample(range(size), min(size, 40)):
                d = digraph_at(n, k * size + b)
                assert _decode(p, b) == d.out_rows
                assert p.digraph(b) == d
        assert list(bitslice.batches(n, count, count + 5)) == []
        # a batch of draws keeps every draw, repeats included, as its own bit
        indices = [rng.randrange(total) for _ in range(30)]
        indices += indices[:7] + [0, total - 1]
        p = bitslice.draws(n, indices)
        assert p.full == (1 << len(indices)) - 1
        for b, index in enumerate(indices):
            d = digraph_at(n, index)
            assert _decode(p, b) == d.out_rows
            assert p.digraph(b) == d

    def test_a_bit_outside_full_raises(self):
        (whole,) = bitslice.batches(2)  # 9 bits, all digraphs
        drawn = bitslice.draws(3, [5, 5, 0])
        (capped,) = bitslice.capped_batches(2)  # bit 0: both in-columns empty
        assert not capped.full & 1
        for p, b in [(whole, 9), (whole, -1), (whole, 1 << 40), (drawn, 3), (capped, 0)]:
            with pytest.raises(InputError, match="not a digraph"):
                p.digraph(b)

    def test_release_keeps_the_power_the_next_m_steps_from(self, monkeypatch):
        (p,) = bitslice.batches(3)
        p.power(3)
        p.release(3)
        assert sorted(p._powers) == [1, 3]
        p.power(4)
        p.release(4)
        assert sorted(p._powers) == [1, 4]
        # each m after the first costs one product per batch, at n = 2, 3, 4
        products = Counter()
        product = bitslice._product

        def counting_product(a, b):
            products[len(a)] += 1
            return product(a, b)

        monkeypatch.setattr(bitslice, "_product", counting_product)
        verify_claims(["lemma_3_5"], 4, range(2, 7))
        assert products == {2: 5, 3: 5, 4: 5}


def _above(p, cap):
    """The plane of a batch's digraphs with some in-degree above ``cap``."""
    return bitslice._any(ge[cap + 1] for ge in p.in_degrees)


CAPPED_ATOMS = {name: atom for name, atom in ATOMS.items() if atom.cap is not None}


class TestCappedStream:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_full_bits_are_the_capped_digraphs_once(self, n):
        seen = []
        size = _batch_size(n, len(bitslice._predator_sets(n)))
        for p in bitslice.capped_batches(n):
            for b in range(size):
                if p.full >> b & 1:
                    seen.append(p.digraph(b).out_rows)
                    assert _decode(p, b) == seen[-1]
                else:
                    assert not all(_decode(p, b))  # some vertex has no prey
                    with pytest.raises(InputError, match="not a digraph"):
                        p.digraph(b)
        # in index order, since the stream counts out-row tuples
        stream = (digraph_at(n, i) for i in range(digraph_space_size(n)))
        capped = [d.out_rows for d in stream if max(row.bit_count() for row in d.in_rows) <= 2]
        assert sorted(seen) == capped
        assert len(seen) == [1, 9, 174, 6510][n - 1]

    def test_counts_by_inclusion_exclusion(self):
        # tuples of predator sets of size <= 2, signed over the k vertices
        # that some of them leave without prey
        counts = [sum(p.full.bit_count() for p in bitslice.capped_batches(n)) for n in range(1, 7)]
        expected = [
            sum((-1) ** k * comb(n, k) * (1 + n - k + comb(n - k, 2)) ** n for k in range(n + 1))
            for n in range(1, 7)
        ]
        assert counts == expected
        assert counts[1:] == [9, 174, 6510, 401_310, 36_998_100]

    def test_every_plane_lies_within_full(self):
        for n in range(1, 5):
            for p in bitslice.capped_batches(n):
                for m in (1, 2, 3, 2**60):
                    for name, atom in ATOMS.items():
                        assert atom.plane(p, m) & ~p.full == 0, (name, n, m)

    def test_caps(self):
        caps = {name: atom.cap for name, atom in CAPPED_ATOMS.items()}
        assert caps == {"NO_COMMON_PREY": 1, "SG": 2, "ALL_WEAK_SG": 2, "TF": 2, "STAR_OK": 2}
        uncapped = [
            (cid, d.name) for cid, claim in CATALOG.items() for d in claim.directions if d.cap is None
        ]
        assert uncapped == [("prop_2_1", "forward"), ("lemma_3_4", "forward")]
        assert CATALOG["lemma_2_6"].directions[0].cap == 1

    def test_cap_gate(self):
        # no digraph above an atom's cap has the atom, over the whole stream
        for n in range(1, 6):
            for p in bitslice.batches(n):
                above = {atom.cap: _above(p, atom.cap) for atom in CAPPED_ATOMS.values()}
                for m in range(1, 7):
                    for name, atom in CAPPED_ATOMS.items():
                        assert atom.plane(p, m) & above[atom.cap] == 0, (name, n, m)
                    p.release(m)

    def test_implies_rejects_a_cap_the_stream_does_not_hold(self):
        loose = Atom(TF.test, TF.why, TF.plane, 3)
        with pytest.raises(ValueError, match="in-degrees up to 2"):
            _implies("forward", 1, (loose,), CONNECTED)
        assert _implies("forward", 1, (loose, TF), CONNECTED).cap == 2

    def test_capped_reports_equal_full_stream_reports(self):
        # the engine on the full stream, every direction on every digraph
        m_list = [1, 2, 3]
        reports, rounds = _start(LOW_M_CLAIMS, m_list, n_max=4)
        for n in range(1, 5):
            for p in bitslice.batches(n):
                verify._check_batch(p, rounds)
        full = _dicts(reports, sum(digraph_space_size(n) for n in range(1, 5)))
        capped = verify_claims(LOW_M_CLAIMS, 4, m_list)
        assert [dict(rep.to_dict(), elapsed=0.0) for rep in capped] == full

    def test_each_order_scans_only_the_streams_it_needs(self, monkeypatch):
        # below order 4 the capped stream is no smaller, so capped
        # directions share the whole stream's batches there
        calls = []
        for name in ("batches", "capped_batches"):
            stream = getattr(bitslice, name)
            monkeypatch.setattr(
                bitslice, name, lambda n, name=name, stream=stream: calls.append((name, n)) or stream(n)
            )
        whole = [("batches", n) for n in (1, 2, 3)]
        for claim_ids, expected in [
            (["thm_1_3", "lemma_2_6"], whole + [("capped_batches", 4)]),
            (["prop_2_1"], whole + [("batches", 4)]),
            (["prop_2_1", "thm_1_3"], whole + [("batches", 4), ("capped_batches", 4)]),
        ]:
            calls.clear()
            assert all(rep.verified for rep in verify_claims(claim_ids, 4, [1, 2]))
            assert calls == expected, claim_ids


class TestAtomPlanes:
    def test_every_plane_equals_its_test(self):
        for stream in (bitslice.batches, bitslice.capped_batches):
            for n in range(1, 4):
                (p,) = stream(n)
                contexts = {b: ClaimContext(p.digraph(b)) for b in bits(p.full)}
                for m in (1, 2, 3, 4, 5, 2**60):
                    for name, atom in ATOMS.items():
                        plane = atom.plane(p, m)
                        assert plane & ~p.full == 0, (name, n, m)
                        for b, ctx in contexts.items():
                            assert bool(plane >> b & 1) is atom.test(ctx, m), (name, ctx.d, m)

    def test_sub_monotone_plane_on_forced_failures(self):
        # natural data never fails Lemma 3.4, so the host's C^m is emptied
        # through both memos: every subdigraph edge is then missing from it
        failures = 0
        for n in range(1, 4):
            total = digraph_space_size(n)
            (p,) = bitslice.batches(n)
            for m in (1, 2, 3, 4, 5, 2**60):
                p._graphs[m] = [[0] * n for _ in range(n)]
                plane = SUB_MONOTONE.plane(p, m)
                for b in range(total):
                    ctx = ClaimContext(digraph_at(n, b))
                    ctx._graphs[m] = Graph(n, [0] * n)
                    holds = SUB_MONOTONE.test(ctx, m)
                    assert bool(plane >> b & 1) is holds, (ctx.d, m)
                    if m <= 4 and not holds:
                        failures += 1
        assert failures == 1308

    def test_every_catalog_atom_has_a_plane(self):
        assert all(atom.plane is not None for atom in ATOMS.values())
        for claim in CATALOG.values():
            for d in claim.directions:
                assert all(atom.plane is not None for atom in d.hypothesis + d.conclusion)

    def test_implies_rejects_an_atom_without_a_plane(self):
        scalar = Atom(TF.test, TF.why, None)
        with pytest.raises(ValueError, match="needs a plane"):
            _implies("forward", 1, (), scalar)
        with pytest.raises(ValueError, match="needs a plane"):
            _implies("forward", 1, (scalar,), TF)


class TestSameReports:
    def test_exhaustive_n4(self):
        # hits per direction and m, counterexamples and boundary
        # instances with their details, for every planed claim
        m_list = list(range(1, 8))
        for n in range(1, 5):
            planes, scalar = _both_paths(PLANED_CLAIMS, m_list, bitslice.batches(n), _whole(n))
            assert planes == scalar, n

    def test_seeded_sample_n5(self):
        # a seeded run of 20 000 consecutive indices, as one batch of draws
        rng = random.Random(20261018)
        start = rng.randrange(digraph_space_size(5) - 20_000)
        indices = range(start, start + 20_000)
        batch, draws = [bitslice.draws(5, indices)], [(5, i) for i in indices]
        planes, scalar = _both_paths(PLANED_CLAIMS, list(range(1, 8)), batch, draws)
        assert planes == scalar

    def test_hits_by_direction_agree(self):
        claim_ids = ["thm_1_3", "lemma_2_6", "prop_3_7"]
        reports = verify_claims(claim_ids, 4, range(2, 5))
        draws = [(n, i) for n in range(1, 5) for i in range(digraph_space_size(n))]
        scalar = _scalar_reports(claim_ids, [2, 3, 4], draws, n_max=4)
        assert [dict(rep.to_dict(), elapsed=0.0) for rep in reports] == scalar
        assert reports[0].hits_by_direction == {
            "if": {2: 32, 3: 32, 4: 32},
            "only_if": {2: 32, 3: 32, 4: 32},
        }
        assert reports[1].hits_by_direction == {"forward": {None: 33}}
        assert reports[0].to_dict()["hits_by_direction"]["if"] == {"2": 32, "3": 32, "4": 32}
        assert reports[1].to_dict()["hits_by_direction"] == {"forward": {"null": 33}}


class TestSampledScans:
    """Sampled reports against the same seeded draws on the scalar reference."""

    def _assert_scalar_reports(self, claim_ids, m_list, n_max, seed, count):
        kwargs = dict(mode="sampled", seed=seed, sample_count=count)
        reports = verify_claims(claim_ids, n_max, m_list, **kwargs)
        draws = _sampled_draws(n_max, seed, count)
        scalar = _scalar_reports(claim_ids, m_list, draws, "sampled", n_max)
        assert all(rep.digraphs_examined == count for rep in reports)
        assert [dict(rep.to_dict(), elapsed=0.0) for rep in reports] == scalar
        return reports

    @pytest.mark.parametrize("n_max, seed, count", [(5, 3, 2000), (7, 5, 500)])
    def test_every_claim_matches_the_scalar_path(self, monkeypatch, n_max, seed, count):
        bogus = Claim("bogus_planed", "digraph", (_implies("forward", 1, (), CONNECTED),))
        monkeypatch.setitem(CATALOG, "bogus_planed", bogus)
        low_m = LOW_M_CLAIMS + ["bogus_planed"]
        low = self._assert_scalar_reports(low_m, [1, 2, 3], n_max, seed, count)
        self._assert_scalar_reports(PLANED_CLAIMS, [2, 3, 2**60], n_max, seed, count)
        assert low[-1].counterexamples
        assert any(rep.boundary_instances for rep in low)

    def test_orders_flush_mid_stream(self, monkeypatch):
        # with room for 16 draws per batch, every order fills batches and
        # leaves a remainder
        monkeypatch.setattr(bitslice, "CAP_BITS", 16)
        sizes = Counter()
        draws = bitslice.draws

        def counting_draws(n, indices):
            sizes[n, len(indices) == 16] += 1
            return draws(n, indices)

        monkeypatch.setattr(bitslice, "draws", counting_draws)
        self._assert_scalar_reports(LOW_M_CLAIMS, [1, 2], 5, 11, 150)
        assert {(n, full) for n, full in sizes} == {(n, f) for n in (2, 3, 4, 5) for f in (0, 1)}


class TestFalseClaim:
    def test_identical_replayable_counterexamples(self, monkeypatch):
        bogus = Claim("bogus_planed", "digraph", (_implies("forward", 1, (), CONNECTED),))
        monkeypatch.setitem(CATALOG, "bogus_planed", bogus)
        failures = 0
        for n in range(1, 4):
            planes, scalar = _both_paths(["bogus_planed"], [1, 2], bitslice.batches(n), _whole(n))
            assert planes == scalar
            failures += len(scalar[0]["counterexamples"])
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

    def test_census_plane_the_scalar_checks_contradict_raises(self, monkeypatch):
        monkeypatch.setattr(bitslice.PlaneContext, "star_generating", lambda p, m=0: p.full)
        with pytest.raises(RuntimeError, match="bit planes flag"):
            verify_claim("thm_3_2", 3, [])


class TestOrderFive:
    def test_sub_monotone_and_census_n5(self, monkeypatch):
        # the census rebuilds only the digraphs its planes flag: the n!
        # labelings of the one-source star-generating digraphs
        rebuilt = Counter()
        digraph = bitslice.PlaneContext.digraph

        def counting_digraph(p, b):
            rebuilt[p.n] += 1
            return digraph(p, b)

        monkeypatch.setattr(bitslice.PlaneContext, "digraph", counting_digraph)
        lemma, census = verify_claims(["lemma_3_4", "thm_3_2"], 5, [2])
        assert lemma.verified and census.verified
        assert lemma.digraphs_examined == lemma.hypothesis_hits == 28_680_129
        assert census.digraphs_examined == 28_680_128
        assert rebuilt == {2: 2, 3: 6, 4: 24, 5: 120}
