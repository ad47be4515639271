"""The bit-plane engine against the scalar ClaimContext path it must reproduce."""

import random
from collections import Counter
from math import comb

import pytest

from stargen import CATALOG, replay_counterexample, verify_claims
from stargen import bitslice, verify
from stargen.competition import Graph
from stargen.digraph import Digraph, InputError, _row_power, bits
from stargen.generate import digraph_at, digraph_space_size
from stargen.verify import (
    CONNECTED,
    ONE_SOURCE,
    PRED_BOUND,
    SG,
    SUB_MONOTONE,
    TF,
    Atom,
    Claim,
    ClaimContext,
    Direction,
)

ATOMS = {name: atom for name, atom in vars(verify).items() if isinstance(atom, Atom)}
# the in-degree sets of the catalog's directions, whose capped streams the scans run
UP_TO_2, SG_DEGREES, UP_TO_1 = frozenset({0, 1, 2}), frozenset({0, 2}), frozenset({0, 1})
PLANED_CLAIMS = sorted(cid for cid, claim in CATALOG.items() if claim.kind == "digraph")
# the claims that accept m = 1, where directions with min m 2 leave boundary instances
LOW_M_CLAIMS = [cid for cid in PLANED_CLAIMS if (CATALOG[cid].min_m or 1) <= 1]


def _check_digraph(d, rounds, hits):
    """The scalar reference: every direction of the rounds on one ClaimContext.

    Hits go to the ``hits`` counter, keyed by claim id and direction name,
    entries straight into the reports.
    """
    ctx = ClaimContext(d)
    for m, steps in rounds:
        for rep, direction in steps:
            if direction.holds(ctx, m):
                hits[rep.claim_id, direction.name, m] += 1
                detail = direction.failure(ctx, m)
                if detail is not None:
                    rep.add_entry(direction, d.n, list(d.arcs()), m, detail)


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
    """Empty reports of the claims and the rounds of their sampled ``verify._plan``."""
    reports = [verify.VerificationReport(cid, mode, n_max, tuple(m_list)) for cid in claim_ids]
    return reports, verify._plan(reports, m_list, capped=False)[None]


def _scalar_reports(claim_ids, m_list, draws, mode="exhaustive", n_max=0):
    """Report dicts of every direction run on one ClaimContext per (n, index)."""
    reports, rounds = _start(claim_ids, m_list, mode, n_max)
    hits = Counter()
    for n, i in draws:
        _check_digraph(digraph_at(n, i), rounds, hits)
    steps = {(rep.claim_id, d.name): (rep, d) for _, in_round in rounds for rep, d in in_round}
    for (cid, name, m), count in hits.items():
        rep, direction = steps[cid, name]
        rep.add_hits(direction, m, count)
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
            assert _batch_size(n, len(bitslice._predator_sets(n, UP_TO_2))) <= bitslice.CAP_BITS

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_arc_planes_decode_to_the_stream(self, n):
        rng = random.Random(n)
        total = digraph_space_size(n)
        size = _batch_size(n, 2**n - 1)
        count = total // size
        for k in {0, count - 1} | {rng.randrange(count) for _ in range(2)}:
            (p,) = bitslice.batches(n, first=k, stop=k + 1)
            assert p.full == (1 << size) - 1
            for b in rng.sample(range(size), min(size, 40)):
                d = digraph_at(n, k * size + b)
                assert _decode(p, b) == d.out_rows
                assert p.digraph(b) == d
        assert list(bitslice.batches(n, first=count, stop=count + 5)) == []
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
        (capped,) = bitslice.batches(2, UP_TO_2)  # bit 0: both in-columns empty
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

    def test_sub_monotone_steps_each_subdigraph_once_per_m(self, monkeypatch):
        # lemma_3_4 over m 1..6 steps D's powers alone: below order 5 every
        # one-arc deletion is in the batch and steps none
        products = Counter()
        product = bitslice._product

        def counting_product(a, b):
            products[len(a)] += 1
            return product(a, b)

        monkeypatch.setattr(bitslice, "_product", counting_product)
        verify_claims(["lemma_3_4"], 4, range(1, 7))
        assert products == {1: 5, 2: 5, 3: 5, 4: 5}
        # each call builds its own m's C^m and no later one, nor a later
        # power, and keeps no chain
        (p,) = bitslice.batches(3)
        for m in range(1, 7):
            p.sub_monotone(m)
            assert sorted(p._graphs) == [m] and max(p._powers) == m
            assert p._chains == {}
            p.release(m)

    def test_sub_monotone_builds_no_weak_components(self):
        # Lemma 3.4 checks the one-arc deletions alone, so it never reads
        # D's weak components
        for n in range(1, 5):
            for p in bitslice.batches(n):
                for m in range(1, 7):
                    p.sub_monotone(m)
                assert p._weak is None, n

    def test_sub_monotone_steps_leading_deletions_once_per_m(self, monkeypatch):
        # at order 5 rows 0 and 1 are leading digits, here holding all five
        # prey: each of their 10 deletions leaves the batch and steps its own
        # power once per m after the first, as D does
        (p,) = bitslice.batches(5, first=960, stop=961)
        assert p.runs == (None, None, 961, 31, 1)
        assert p.arcs[0] == p.arcs[1] == (p.full,) * 5
        products = Counter()
        product = bitslice._product

        def counting_product(a, b):
            products[len(a)] += 1
            return product(a, b)

        monkeypatch.setattr(bitslice, "_product", counting_product)
        for m in (1, 2, 3):
            SUB_MONOTONE.plane(p, m)
        assert products == {5: 2 + 10 * 2}

    def test_check_batch_holds_one_m_and_the_leading_chains(self, monkeypatch):
        # a lemma_3_4 round builds its own C^m alone, none for the rounds
        # to come, and keeps one power per deletion outside the batch: the
        # 10 of this stream batch's two leading rows.  Every deletion of a
        # draws batch leaves it, so draws keep no chain at all
        (p,) = bitslice.batches(5, first=960, stop=961)
        outside = [i for i, (_, shift, _) in enumerate(p._subdigraphs()) if shift is None]
        assert len(outside) == 10
        rng = random.Random(5)
        sample = bitslice.draws(5, [rng.randrange(digraph_space_size(5)) for _ in range(2000)])
        held = []
        release = bitslice.PlaneContext.release

        def spying_release(ctx, m):
            chains = None if ctx._chains is None else sorted(ctx._chains)
            held.append((sorted(ctx._graphs), chains))
            release(ctx, m)

        monkeypatch.setattr(bitslice.PlaneContext, "release", spying_release)
        for batch in (p, sample):
            reports, rounds = _start(["lemma_3_4"], range(1, 7))
            verify._check_batch(batch, rounds)
            assert reports[0].verified
        assert held == [([m], outside) for m in range(1, 7)] + [([m], None) for m in range(1, 7)]

    def test_no_arc_enters_a_source(self):
        # a source plane is full less the union of its column, so it meets
        # no arc plane into it on any bit; non_sources_cycle_union rests on it
        contexts = [
            p
            for n in range(1, 5)
            for degrees in (None, UP_TO_1, SG_DEGREES, UP_TO_2)
            for p in bitslice.batches(n, degrees)
        ]
        rng = random.Random(5)
        contexts.append(bitslice.draws(5, [rng.randrange(digraph_space_size(5)) for _ in range(300)]))
        for p in contexts:
            for u in range(p.n):
                for w in range(p.n):
                    assert p.arcs[u][w] & p.sources[w] == 0, (p.n, u, w)

    def test_bits_at_every_width(self):
        # masks above 64 bits are read byte by byte; the reference reads the
        # binary string, since shifting a 2**18-bit plane once per bit is slow
        rng = random.Random(7)
        masks = [0] + [1 << i for i in (0, 8, 63, 64, 65, 2**18 - 1)]
        for width in (64, 65):  # exactly 64 and 65 bits wide
            masks += [2**width - 1, rng.getrandbits(width - 1) | 1 << (width - 1)]
        masks += [2**12 - 1, rng.getrandbits(2**12)]
        for _ in range(2):
            sparse = rng.getrandbits(2**18)
            for _ in range(4):
                sparse &= rng.getrandbits(2**18)
            masks.append(sparse | 1 << (2**18 - 1))
        for x in masks:
            assert list(bits(x)) == [i for i, c in enumerate(reversed(f"{x:b}")) if c == "1"]

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_trailing_planes_match_their_digits(self, n):
        # bit b of plane w of digit p is set iff values[(b // base**p) % base] has bit w
        for values in (range(1, 2**n), bitslice._predator_sets(n, UP_TO_2)):
            base = len(values)
            t = bitslice._trailing_digits(base, n)
            for i, planes in enumerate(bitslice._trailing_planes(values, n, t)):
                run = base ** (t - 1 - i)
                for w, plane in enumerate(planes):
                    expect = [values[b // run % base] >> w & 1 for b in range(base**t)]
                    assert f"{plane:0{base**t}b}"[::-1] == "".join(map(str, expect))


def _outside(p, degrees, m=1):
    """The plane of a batch's digraphs with some in-degree in D^m outside
    ``degrees``, a subset of {0, 1, 2}; in-degrees above 2 count as 3.
    """
    counts = [bitslice._exactly(ge) for ge in p._in_counts(p.power(m))]
    return bitslice._any(c[j] for c in counts for j in range(4) if j not in degrees)


CAPPED_ATOMS = {name: atom for name, atom in ATOMS.items() if atom.cap is not None}
# each set with the digraphs of its capped stream at n = 1..6: the 1, 2, 6,
# ... n! with every in-degree at most 1 are the permutation digraphs
CAPPED_COUNTS = {
    UP_TO_1: [1, 2, 6, 24, 120, 720],
    SG_DEGREES: [0, 3, 42, 1470, 86_940, 7_831_620],
    UP_TO_2: [1, 9, 174, 6510, 401_310, 36_998_100],
}


class TestCappedStream:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_full_bits_are_the_capped_digraphs_once(self, n):
        whole = [digraph_at(n, i) for i in range(digraph_space_size(n))]
        for degrees, pinned in CAPPED_COUNTS.items():
            seen = []
            size = _batch_size(n, len(bitslice._predator_sets(n, degrees)))
            for p in bitslice.batches(n, degrees):
                for b in range(size):
                    if p.full >> b & 1:
                        seen.append(p.digraph(b).out_rows)
                        assert _decode(p, b) == seen[-1]
                    else:
                        assert not all(_decode(p, b))  # some vertex has no prey
                        with pytest.raises(InputError, match="not a digraph"):
                            p.digraph(b)
            # in index order, since the stream counts out-row tuples
            capped = [d.out_rows for d in whole if {r.bit_count() for r in d.in_rows} <= degrees]
            assert sorted(seen) == capped, sorted(degrees)
            assert len(seen) == pinned[n - 1]

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_capped_streams_resume(self, n):
        # batch k of a capped stream started at k is batch k of the whole
        # stream; order 5 of {0, 1, 2} has 16 batches
        for degrees in CAPPED_COUNTS:
            count = 0
            for k, p in enumerate(bitslice.batches(n, degrees)):
                (resumed,) = bitslice.batches(n, degrees, first=k, stop=k + 1)
                assert (resumed.arcs, resumed.full) == (p.arcs, p.full), (sorted(degrees), k)
                count += 1
            assert list(bitslice.batches(n, degrees, first=count, stop=count + 5)) == []

    def test_bad_order_stop_or_index_refused(self):
        # each used to raise a bare TypeError or ZeroDivisionError, to yield
        # a batch, or, for an index past the stream, to build a digraph
        for kwargs, message in [
            (dict(n=2.0), "^order must be an int, got 2.0$"),
            (dict(n=0), "^order must be positive, got 0$"),
            (dict(n=2, stop=1.5), "^stop batch must be an int, got 1.5$"),
            (dict(n=2, stop=-1), "^stop batch must be nonnegative, got -1$"),
        ]:
            with pytest.raises(InputError, match=message):
                list(bitslice.batches(**kwargs))
        for n, indices, message in [
            (0, [], "^order must be positive, got 0$"),
            (2, [1.5], r"^index 1\.5 out of range for n=2$"),
            (2, [0, 10**6], "^index 1000000 out of range for n=2$"),
            (2, [9], "^index 9 out of range for n=2$"),
            (2, [-1], "^index -1 out of range for n=2$"),
            (2, [True], "^index True out of range for n=2$"),
        ]:
            with pytest.raises(InputError, match=message):
                bitslice.draws(n, indices)
        assert bitslice.draws(2, [8]).digraph(0) == digraph_at(2, 8)

    def test_negative_first_batch_refused(self):
        # order 3 has one batch, but first=-2 used to yield three, and at
        # order 5 first=-1 a copy of the last batch: divmod of a negative k
        # read the digits from the end; 1.5 used to raise TypeError from
        # range(), and True to start at batch 1
        for n, first, stop, message in [
            (3, -2, 1, "nonnegative, got -2"),
            (5, -1, 0, "nonnegative, got -1"),
            (3, 1.5, None, r"an int, got 1\.5"),
            (3, True, None, "an int, got True"),
        ]:
            for degrees in [None, *CAPPED_COUNTS]:
                with pytest.raises(InputError, match=f"^first batch must be {message}$"):
                    list(bitslice.batches(n, degrees, first=first, stop=stop))

    def test_no_draws_make_an_empty_batch(self):
        # draws(n, []) used to raise a bare ValueError from int('', 2)
        reports, rounds = _start(PLANED_CLAIMS, [1, 2, 3])
        empty = _dicts(reports, 0)
        for n in range(1, 5):
            p = bitslice.draws(n, [])
            assert p.full == 0 and p.arcs == ((0,) * n,) * n
            for m in (1, 2, 3, 2**60):
                for name, atom in ATOMS.items():
                    assert atom.plane(p, m) == 0, (name, n, m)
            verify._check_batch(bitslice.draws(n, []), rounds)
        assert _dicts(reports, 0) == empty

    def test_counts_by_inclusion_exclusion(self):
        # tuples of predator sets with sizes in the set, signed over the k
        # vertices that some of them leave without prey
        for degrees, pinned in CAPPED_COUNTS.items():
            counts = [
                sum(p.full.bit_count() for p in bitslice.batches(n, degrees))
                for n in range(1, 7)
            ]
            expected = [
                sum(
                    (-1) ** k * comb(n, k) * sum(comb(n - k, j) for j in degrees) ** n
                    for k in range(n + 1)
                )
                for n in range(1, 7)
            ]
            assert counts == expected == pinned, sorted(degrees)

    def test_every_plane_lies_within_full(self):
        for degrees in CAPPED_COUNTS:
            for n in range(1, 5):
                for p in bitslice.batches(n, degrees):
                    for m in (1, 2, 3, 2**60):
                        for name, atom in ATOMS.items():
                            assert atom.plane(p, m) & ~p.full == 0, (name, n, m)

    def test_caps(self):
        caps = {name: atom.cap for name, atom in CAPPED_ATOMS.items()}
        assert caps == {
            "NO_COMMON_PREY": {0, 1},
            "SG": {0, 2},
            "ALL_WEAK_SG": {0, 2},
            "TF": {0, 1, 2},
            "STAR_OK": {0, 1, 2},
        }
        assert all(type(cap) is frozenset for cap in caps.values())
        by_cap = {}
        for cid, claim in CATALOG.items():
            if claim.kind == "grid":  # it scans no stream; the census scans its direction's
                continue
            for d in claim.directions:
                by_cap.setdefault(d.cap, []).append((cid, d.name))
        assert by_cap[None] == [("prop_2_1", "forward"), ("lemma_3_4", "forward")]
        assert by_cap[UP_TO_1] == [("lemma_2_6", "forward")]
        assert by_cap[SG_DEGREES] == [
            ("lemma_3_1", "forward"),
            ("thm_3_2", "count"),
            ("prop_3_3", "forward"),
            ("lemma_3_6", "only_if"),
            ("thm_1_2", "only_if"),
            ("thm_1_3", "if"),
        ]
        assert set(by_cap) == {None, UP_TO_1, SG_DEGREES, UP_TO_2}

    def test_cap_gate(self):
        # no digraph with an in-degree outside an atom's set has the atom,
        # over the whole stream; and the walk-on argument that PRED_BOUND's
        # plane rests on: three predators in D^(m-1) leave three in D^m,
        # and none with a triangle-free C^m has them
        caps = set(atom.cap for atom in CAPPED_ATOMS.values())
        for n in range(1, 6):
            for p in bitslice.batches(n):
                outside = {cap: _outside(p, cap) for cap in caps}
                earlier = 0
                for m in range(1, 7):
                    for name, atom in CAPPED_ATOMS.items():
                        assert atom.plane(p, m) & outside[atom.cap] == 0, (name, n, m)
                    three = _outside(p, UP_TO_2, m)
                    assert earlier & ~three == 0, (n, m)
                    assert three & TF.plane(p, m) == 0, (n, m)
                    earlier = three
                    p.release(m)

    def test_a_wider_set_has_its_stream(self, monkeypatch):
        # a planted atom allowing in-degree 3 runs on its own capped stream
        # and reports as the full stream does
        wide = Atom(TF.check, TF.plane, frozenset({0, 1, 2, 3}))
        planted = Claim("bogus_wide", "digraph", (Direction("forward", 1, (wide,), (CONNECTED,)),))
        monkeypatch.setitem(CATALOG, "bogus_wide", planted)
        m_list = [1, 2, 3]
        reports, rounds = _start(["bogus_wide"], m_list, n_max=4)
        for n in range(1, 5):
            for p in bitslice.batches(n):
                verify._check_batch(p, rounds)
        full = _dicts(reports, sum(digraph_space_size(n) for n in range(1, 5)))
        (capped,) = verify_claims(["bogus_wide"], 4, m_list)
        assert [dict(capped.to_dict(), elapsed=0.0)] == full
        assert capped.counterexamples

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
        # one pass per in-degree set at every order, None for the whole
        # stream, in the order the rounds first need them; a direction's set
        # is the intersection of its hypothesis atoms' sets
        planted = Claim(
            "bogus_tf_sg", "digraph", (Direction("forward", 1, (TF, verify.SG), (TF,)),)
        )
        monkeypatch.setitem(CATALOG, "bogus_tf_sg", planted)
        calls = []
        batches = bitslice.batches

        def counting_batches(n, degrees=None):
            calls.append((n, None if degrees is None else sorted(degrees)))
            return batches(n, degrees)

        monkeypatch.setattr(bitslice, "batches", counting_batches)
        for claim_ids, sets in [
            (["thm_1_3", "lemma_2_6"], [[0, 1], [0, 2], [0, 1, 2]]),
            (["prop_2_1"], [None]),
            (["prop_2_1", "thm_1_3"], [None, [0, 2], [0, 1, 2]]),
            (["thm_3_2"], [[0, 2]]),
            (["bogus_tf_sg"], [[0, 2]]),
        ]:
            calls.clear()
            assert all(rep.verified for rep in verify_claims(claim_ids, 4, [1, 2]))
            first = 2 if claim_ids == ["thm_3_2"] else 1
            assert calls == [(n, s) for n in range(first, 5) for s in sets], claim_ids


class TestAtomPlanes:
    def test_every_plane_equals_its_test(self):
        for degrees in [None, *CAPPED_COUNTS]:
            for n in range(1, 4):
                (p,) = bitslice.batches(n, degrees)
                contexts = {b: ClaimContext(p.digraph(b)) for b in bits(p.full)}
                for m in (1, 2, 3, 4, 5, 2**60):
                    for name, atom in ATOMS.items():
                        plane = atom.plane(p, m)
                        assert plane & ~p.full == 0, (name, n, m)
                        for b, ctx in contexts.items():
                            holds = atom.check(ctx, m) is None
                            assert bool(plane >> b & 1) is holds, (name, ctx.d, m)

    def test_weak_components_together_have_the_host_cm(self):
        # why Lemma 3.4 checks no weak-component restriction: no arc leaves
        # a weak component, and a common m-step prey puts two vertices in
        # one, so the union of the restrictions' C^m is C^m(D)
        sample = random.Random(5).sample(range(digraph_space_size(5)), 3000)
        checked = Counter()
        for n, i in [pair for n in range(1, 5) for pair in _whole(n)] + [(5, i) for i in sample]:
            ctx = ClaimContext(digraph_at(n, i))
            if ctx.weakly_connected:
                continue
            checked[n] += 1
            host = ctx.d.out_rows
            restrictions = [
                [row if comp >> u & 1 else 0 for u, row in enumerate(host)]
                for comp in ctx.weak_masks
            ]
            for m in (1, 2, 3, 2**60):
                union = [0] * n
                for prey in (_row_power(sub, m) for sub in restrictions):
                    for x in range(n):
                        for y in range(n):
                            if x != y and prey[x] & prey[y]:
                                union[x] |= 1 << y
                assert union == list(ctx.graph(m).rows), (ctx.d, m)
        assert checked == {2: 1, 3: 25, 4: 1513, 5: 35}

    def test_sub_monotone_plane_on_forced_failures(self):
        # natural data never fails Lemma 3.4, so the host's C^m is emptied
        # through both memos: every subdigraph edge is then missing from it.
        # A batch of the stream would read its deletions' C^m from the same
        # emptied memo, so the whole stream runs as draws, whose subdigraphs
        # step their own powers
        failures = 0
        for n in range(1, 4):
            total = digraph_space_size(n)
            p = bitslice.draws(n, range(total))
            for m in (1, 2, 3, 4, 5, 2**60):
                p._graphs[m] = [[0] * n for _ in range(n)]
                plane = SUB_MONOTONE.plane(p, m)
                for b in range(total):
                    ctx = ClaimContext(digraph_at(n, b))
                    ctx._graphs[m] = Graph(n, [0] * n)
                    holds = SUB_MONOTONE.check(ctx, m) is None
                    assert bool(plane >> b & 1) is holds, (ctx.d, m)
                    if m <= 4 and not holds:
                        failures += 1
        assert failures == 1284

    def test_sub_monotone_chains_across_gaps(self):
        # batch 960 of order 5 has the full out-rows 0 and 1 as leading
        # digits, so its 10 deletions outside it keep chains.  With C^m(D)
        # forced to K_5 minus {3, 4}, the shifted planes of the deletions
        # in the batch have no edge {3, 4}, and a digraph fails exactly
        # where some D - uv, u 0 or 1, gives 3 and 4 a common m-step prey.
        # One batch called at each m in turn steps its chains, or squares
        # them across a gap; a fresh batch per m squares from scratch: a
        # power stepped instead of squared, or taken from a wrong m, shows
        n = 5
        rng = random.Random(4)
        rows = [sum(1 << y for y in range(n) if y != x and {x, y} != {3, 4}) for x in range(n)]

        def batch():
            (p,) = bitslice.batches(n, first=960, stop=961)
            return p

        def forced(p, m):
            p._graphs[m] = [[p.full * (row >> y & 1) for y in range(n)] for row in rows]
            return SUB_MONOTONE.plane(p, m)

        size = batch().full.bit_length()
        for m_values in [(1, 2**60), (1, 3, 2**60), (1, 2, 3, 4, 5, 2**60)]:
            chained, planes = batch(), []
            for m in m_values:
                planes.append(forced(chained, m))
                assert len(chained._chains) == 10
                chained.release(m)
            assert planes == [forced(batch(), m) for m in m_values]
            assert planes[0] != planes[-1]
            for b in rng.sample(range(size), 100):
                out = chained.digraph(b).out_rows
                subs = [
                    ClaimContext(Digraph(n, out[:u] + (out[u] & ~(1 << v),) + out[u + 1 :]))
                    for u in (0, 1)
                    for v in range(n)
                ]
                for m, plane in zip(m_values, planes):
                    fails = any(sub.graph(m).has_edge(3, 4) for sub in subs)
                    assert bool(plane >> b & 1) is not fails, (out, m)

    def test_in_batch_deletions_read_the_batch_planes(self):
        # D - uv, u's out-row a trailing digit of the out-row stream, is the
        # digraph 2**v * runs[u] bits below D: the batch's C^m shifted that
        # far equals the one stepped from the deletion's own arc planes
        # wherever u has another prey, at every order-4 batch and below and
        # at the first and last of order 5, whose two leading rows are not read
        count = digraph_space_size(5) // 31**3
        contexts = [next(bitslice.batches(n)) for n in range(1, 5)]
        contexts += [next(bitslice.batches(5, first=k)) for k in (0, count - 1)]
        m_values = (1, 2, 3, 4, 5, 6, 2**60)
        assert [p.runs for p in contexts] == [
            tuple((2**n - 1) ** (n - 1 - u) for u in range(n)) for n in range(1, 5)
        ] + [(None, None, 31**2, 31, 1)] * 2
        for p in contexts:
            n, a = p.n, p.arcs
            expected = []
            for u, run in enumerate(p.runs):
                if run is None:
                    continue
                several = bitslice._at_least(a[u], 2, p.full)[2]
                for v in range(n):
                    mask, shift = a[u][v] & several, run << v
                    expected.append((mask, shift))
                    sub = a[:u] + (a[u][:v] + (0,) + a[u][v + 1 :],) + a[u + 1 :]
                    prey = None
                    for m in m_values:
                        stepped = prey is not None and m < 2**60
                        prey = bitslice._product(prey, sub) if stepped else bitslice._power(sub, m)
                        g = p.graph(m)
                        for x in range(n):
                            for y in range(x + 1, n):
                                e = bitslice._any(s & t for s, t in zip(prey[x], prey[y]))
                                assert mask & e == mask & g[x][y] << shift, (n, u, v, m)
            read = [(mask, shift) for mask, shift, _ in p._subdigraphs() if shift is not None]
            assert read == [(mask, shift) for mask, shift in expected if mask], n

    @pytest.mark.parametrize("n", [3, 4])
    def test_planted_faults_flag_exactly_their_bits(self, n):
        # one C^m edge of a few scattered hosts is cleared in the memos,
        # an edge that some subdigraph's C^m has; no host is another's
        # deletion partner, so the partners keep their C^m and exactly the
        # hosts fail, on the stream's batch, on draws and on the scalar path
        rng = random.Random(n)
        total = digraph_space_size(n)
        runs = next(bitslice.batches(n)).runs
        for m in (1, 3, 2**60):
            planted, near = {}, set()
            for b in rng.sample(range(total), total):
                d = digraph_at(n, b)
                partners = {
                    b - (runs[u] << v)
                    for u, row in enumerate(d.out_rows)
                    if row.bit_count() > 1
                    for v in bits(row)
                }
                if b in near or partners & planted.keys():
                    continue
                ctx = ClaimContext(d)
                shared = [
                    (x, y)
                    for sub in ctx.subdigraphs()
                    for prey in [_row_power(sub, m)]
                    for x in range(n)
                    for y in range(x + 1, n)
                    if prey[x] & prey[y]
                ]
                if shared:
                    planted[b] = shared[0]
                    near |= partners
                if len(planted) == 6:
                    break
            assert len(planted) == 6
            for q in (next(bitslice.batches(n)), bitslice.draws(n, range(total))):
                g = q.graph(m)
                for b, (x, y) in planted.items():
                    g[x][y] &= ~(1 << b)
                    g[y][x] &= ~(1 << b)
                assert set(bits(q.full & ~SUB_MONOTONE.plane(q, m))) == set(planted), m
            for b in set(planted) | near | set(rng.sample(range(total), 100)):
                ctx = ClaimContext(digraph_at(n, b))
                if b in planted:
                    x, y = planted[b]
                    rows = list(ctx.graph(m).rows)
                    rows[x] &= ~(1 << y)
                    rows[y] &= ~(1 << x)
                    ctx._graphs[m] = Graph(n, rows)
                assert (SUB_MONOTONE.check(ctx, m) is None) is (b not in planted), (b, m)

    def test_every_catalog_atom_has_a_plane(self):
        assert all(atom.plane is not None for atom in ATOMS.values())
        for claim in CATALOG.values():
            for d in claim.directions:
                assert all(atom.plane is not None for atom in d.hypothesis + d.conclusion)

    def test_structure_planes_imply_the_terms_they_leave_out(self):
        # the prey counts, and ALL_WEAK_SG's source in every weak component
        # and two predators, one a source, per non-source, follow from the
        # planes' own tests by counting arcs (see their docstrings), so each
        # plane lies inside what it leaves out
        def contexts():
            for n in range(1, 5):
                for degrees in [None, *CAPPED_COUNTS]:
                    yield from bitslice.batches(n, degrees)
            for degrees in CAPPED_COUNTS:
                yield from bitslice.batches(5, degrees)
            for degrees in (UP_TO_1, SG_DEGREES):
                yield from bitslice.batches(6, degrees)
            for n in (5, 6, 7):
                rng, total = random.Random(n), digraph_space_size(n)
                yield bitslice.draws(n, [rng.randrange(total) for _ in range(20_000)])

        names = ("ALL_WEAK_SG", "CYCLE_UNION", "NO_COMMON_PREY", "NON_SOURCES_CYCLE_UNION")
        hits = Counter()
        for p in contexts():
            plane = {name: ATOMS[name].plane(p, 1) for name in names}
            hits.update({name: x.bit_count() for name, x in plane.items()})
            assert plane["ALL_WEAK_SG"] & ~p.every_weak_component_has_source() == 0, p.n
            for u, col in enumerate(zip(*p.arcs)):
                for name in ("CYCLE_UNION", "NO_COMMON_PREY"):
                    assert plane[name] & ~p.one_prey[u] == 0, (name, p.n, u)
                for name in ("ALL_WEAK_SG", "NON_SOURCES_CYCLE_UNION"):
                    assert plane[name] & ~(p.one_prey[u] | p.sources[u]) == 0, (name, p.n, u)
                by_src = bitslice._at_least((x & s for x, s in zip(col, p.sources)), 2, p.full)
                in_eq2 = p.in_degrees[u][2] & ~p.in_degrees[u][3]
                assert plane["ALL_WEAK_SG"] & ~p.sources[u] & ~(in_eq2 & ~by_src[2]) == 0, (p.n, u)
        assert all(hits[name] for name in names), hits


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
        kwargs = dict(seed=seed, sample_count=count)
        reports = verify_claims(claim_ids, n_max, m_list, **kwargs)
        draws = _sampled_draws(n_max, seed, count)
        scalar = _scalar_reports(claim_ids, m_list, draws, "sampled", n_max)
        assert all(rep.digraphs_examined == count for rep in reports)
        assert [dict(rep.to_dict(), elapsed=0.0) for rep in reports] == scalar
        return reports

    @pytest.mark.parametrize("n_max, seed, count", [(5, 3, 2000), (7, 5, 500)])
    def test_every_claim_matches_the_scalar_path(self, monkeypatch, n_max, seed, count):
        bogus = Claim("bogus_planed", "digraph", (Direction("forward", 1, (), (CONNECTED,)),))
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
        bogus = Claim("bogus_planed", "digraph", (Direction("forward", 1, (), (CONNECTED,)),))
        monkeypatch.setitem(CATALOG, "bogus_planed", bogus)
        failures = 0
        for n in range(1, 4):
            planes, scalar = _both_paths(["bogus_planed"], [1, 2], bitslice.batches(n), _whole(n))
            assert planes == scalar
            failures += len(scalar[0]["counterexamples"])
        report = verify_claims(["bogus_planed"], 3, [1, 2])[0]
        assert len(report.counterexamples) == failures > 0
        for entry in report.counterexamples:
            assert entry["detail"].startswith("competition graph has ")
            assert replay_counterexample(entry)

    def test_predator_bound_plane_against_every_power(self, monkeypatch):
        # TF keeps prop_2_3 from failing; with no hypothesis PRED_BOUND
        # fails, and its plane, which reads D^m alone, must flag what the
        # scalar bound, which walks D^1..D^m, finds
        bogus = Claim("bogus_pred", "digraph", (Direction("forward", 1, (), (PRED_BOUND,)),))
        monkeypatch.setitem(CATALOG, "bogus_pred", bogus)
        failures = 0
        for n in range(1, 5):
            planes, scalar = _both_paths(
                ["bogus_pred"], [1, 2, 3, 2**60], bitslice.batches(n), _whole(n)
            )
            assert planes == scalar, n
            for entry in scalar[0]["counterexamples"]:
                assert replay_counterexample(entry), entry
            failures += len(scalar[0]["counterexamples"])
        assert failures > 0

    @pytest.mark.parametrize("name", sorted(ATOMS))
    def test_every_atom_as_the_only_conclusion(self, monkeypatch, name):
        # any atom can be a conclusion: where it fails, its check's detail
        # is the entry's, on both paths, and the entry replays
        bogus = Claim("bogus_atom", "digraph", (Direction("forward", 1, (), (ATOMS[name],)),))
        monkeypatch.setitem(CATALOG, "bogus_atom", bogus)
        for n in range(1, 4):
            planes, scalar = _both_paths(["bogus_atom"], [1, 2, 3], bitslice.batches(n), _whole(n))
            assert planes == scalar, (name, n)
            for entry in scalar[0]["counterexamples"]:
                assert replay_counterexample(entry), entry

    def test_arcs_built_once_per_flagged_digraph(self, monkeypatch):
        # a claim failing at m 1, 2 and 3 on every digraph: each digraph is
        # replayed once, after the batch's rounds, and its three entries
        # share one arcs list
        always = Atom(lambda c, m: "planted failure", lambda p, m: 0)
        bogus = Claim("bogus_always", "digraph", (Direction("forward", 1, (), (always,)),))
        monkeypatch.setitem(CATALOG, "bogus_always", bogus)
        built = Counter()
        arcs = Digraph.arcs

        def counting_arcs(d):
            built[d.n, d.out_rows] += 1
            return arcs(d)

        monkeypatch.setattr(Digraph, "arcs", counting_arcs)
        reports, rounds = _start(["bogus_always"], [1, 2, 3])
        for n in range(1, 4):
            for p in bitslice.batches(n):
                verify._check_batch(p, rounds)
        assert len(built) == sum(digraph_space_size(n) for n in range(1, 4))
        assert set(built.values()) == {1}
        shared = {}
        for entry in reports[0].counterexamples:
            shared.setdefault((entry["n"], tuple(entry["arcs"])), []).append(entry["arcs"])
        assert len(shared) == len(built)
        for lists in shared.values():
            assert len(lists) == 3 and all(a is lists[0] for a in lists)

    def test_plane_the_scalar_path_contradicts_raises(self, monkeypatch):
        lying = Atom(CONNECTED.check, lambda p, m: 0)
        lying_claim = Claim("bogus_lying", "digraph", (Direction("forward", 1, (), (lying,)),))
        monkeypatch.setitem(CATALOG, "bogus_lying", lying_claim)
        with pytest.raises(RuntimeError, match="bit planes flag"):
            verify_claims(["bogus_lying"], 2, [1])[0]

    def test_census_plane_the_scalar_checks_contradict_raises(self, monkeypatch):
        lying = Atom(SG.check, lambda p, m: p.full, SG.cap)
        census = Claim("thm_3_2", "census", (Direction("count", None, (ONE_SOURCE, lying), ()),))
        monkeypatch.setitem(CATALOG, "thm_3_2", census)
        with pytest.raises(RuntimeError, match="bit planes flag"):
            verify_claims(["thm_3_2"], 3, [])[0]


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
