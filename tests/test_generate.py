import pytest

import oracles
from stargen import (
    InputError,
    all_digraphs,
    are_isomorphic,
    canonical_form,
    classify_star_generating,
    competition_graph,
    components,
    digraph_at,
    digraph_space_size,
    enumerate_single_source_star_generating,
    figure_digraphs,
    figure_labels,
    induced_subdigraph,
    is_disjoint_cycle_union,
    lemma_kl_digraph,
    partitions,
    sources,
    star_generating_from_partition,
    weak_components,
)
from stargen import generate

FIGS = figure_digraphs()


class TestPartitions:
    def test_three(self):
        assert list(partitions(3)) == [(3,), (2, 1), (1, 1, 1)]

    def test_one(self):
        assert list(partitions(1)) == [(1,)]

    def test_seven_count(self):
        assert oracles.partition_count(7) == 15
        assert sum(1 for _ in partitions(7)) == 15

    def test_counts_match_dp_oracle(self):
        for total in range(1, 13):
            assert sum(1 for _ in partitions(total)) == oracles.partition_count(total)

    def test_pentagonal_count_matches_dp_oracle(self):
        for total in range(200):
            assert generate._partition_count(total) == oracles.partition_count(total)

    def test_reverse_lexicographic_and_nonincreasing(self):
        got = list(partitions(6))
        assert got == sorted(got, reverse=True)
        for parts in got:
            assert sum(parts) == 6
            assert list(parts) == sorted(parts, reverse=True)
            assert all(p >= 1 for p in parts)
        assert len(set(got)) == len(got)

    def test_rejects_nonpositive(self):
        with pytest.raises(InputError):
            list(partitions(0))


class TestStarGeneratingFromPartition:
    def test_all_loops_is_fig2_d1(self):
        assert star_generating_from_partition((1, 1, 1)) == FIGS["fig2_D1"]

    def test_single_part_one(self):
        d = star_generating_from_partition((1,))
        assert sorted(d.arcs()) == [(0, 1), (1, 1)]

    def test_two_one_matches_fig2_d2(self):
        assert are_isomorphic(star_generating_from_partition((2, 1)), FIGS["fig2_D2"])

    def test_rejects_bad_parts(self):
        # (2.0, 1) used to raise TypeError, and (True,) to build a digraph
        for bad in ((), (0,), (1, 2), (-1,), (2.0, 1), (True,)):
            with pytest.raises(InputError):
                star_generating_from_partition(bad)

    def test_cycle_layout(self):
        d = star_generating_from_partition((3, 2))
        assert sorted(d.arcs()) == [
            (0, 1),
            (0, 2),
            (0, 3),
            (0, 4),
            (0, 5),
            (1, 2),
            (2, 3),
            (3, 1),
            (4, 5),
            (5, 4),
        ]


class TestEnumerate:
    def test_order_three_gives_the_two_known_digraphs(self):
        reps = list(enumerate_single_source_star_generating(3))
        assert len(reps) == 2
        assert any(are_isomorphic(r, FIGS["fig1_D1"]) for r in reps)
        assert any(are_isomorphic(r, FIGS["fig1_D2"]) for r in reps)

    def test_order_four_gives_the_three_known_digraphs(self):
        reps = list(enumerate_single_source_star_generating(4))
        assert len(reps) == 3
        for name in ("fig2_D1", "fig2_D2", "fig2_D3"):
            assert any(are_isomorphic(r, FIGS[name]) for r in reps)

    def test_order_two(self):
        reps = list(enumerate_single_source_star_generating(2))
        assert len(reps) == 1
        assert sorted(reps[0].arcs()) == [(0, 1), (1, 1)]

    def test_rejects_order_one(self):
        with pytest.raises(InputError, match="order must be at least 2, got 1"):
            list(enumerate_single_source_star_generating(1))

    def test_every_representative_classifies(self):
        for n in range(2, 11):
            for d in enumerate_single_source_star_generating(n):
                assert classify_star_generating(d).star_generating
                assert sources(d) == {0}

    def test_distinct_partitions_give_distinct_cycle_structure(self):
        for n in range(2, 11):
            seen = set()
            for d in enumerate_single_source_star_generating(n):
                keep = set(range(d.n)) - sources(d)
                sub, _ = induced_subdigraph(d, keep)
                ok, cycles = is_disjoint_cycle_union(sub)
                assert ok
                lengths = tuple(sorted((len(c) for c in cycles), reverse=True))
                assert lengths not in seen
                seen.add(lengths)

    def test_pairwise_non_isomorphic_small(self):
        for n in range(2, 8):
            forms = [canonical_form(d) for d in enumerate_single_source_star_generating(n)]
            assert len(set(forms)) == len(forms)

    def test_completeness_by_brute_force(self):
        # every single-source star-generating digraph found by exhaustive
        # search is a relabeling of exactly one enumerated representative
        for n in (2, 3, 4):
            rep_forms = {
                canonical_form(d): d
                for d in enumerate_single_source_star_generating(n)
            }
            found = {}
            for d in all_digraphs(n):
                if len(sources(d)) == 1 and classify_star_generating(d).star_generating:
                    found.setdefault(canonical_form(d), 0)
                    found[canonical_form(d)] += 1
            assert set(found) == set(rep_forms)
            assert len(found) == oracles.partition_count(n - 1)


class TestLemmaKlDigraph:
    def test_smallest_case(self):
        d = lemma_kl_digraph(1, 1)
        assert d.n == 3
        assert sorted(d.arcs()) == [(0, 1), (0, 2), (1, 1), (2, 2)]

    def test_component_structure(self):
        d = lemma_kl_digraph(2, 3)
        for m in range(1, 11):
            comps = components(competition_graph(d, m))
            assert comps == [frozenset({0, 1, 2, 5}), frozenset({3}), frozenset({4})]

    def test_connected_when_l_is_one(self):
        d = lemma_kl_digraph(3, 1)
        for m in range(1, 11):
            assert len(components(competition_graph(d, m))) == 1

    def test_counts(self):
        for k in range(1, 7):
            for l in range(1, 7):
                d = lemma_kl_digraph(k, l)
                assert len(sources(d)) == k
                assert len(weak_components(d)) == 1

    def test_rejects_nonpositive(self):
        with pytest.raises(InputError):
            lemma_kl_digraph(0, 1)


class TestAllDigraphs:
    def test_counts(self):
        assert digraph_space_size(3) == 343
        assert digraph_space_size(4) == 50625
        assert sum(1 for _ in all_digraphs(3)) == 343

    def test_no_duplicates_and_all_valid(self):
        seen = set()
        for d in all_digraphs(3):
            assert all(row for row in d.out_rows)
            seen.add(d.out_rows)
        assert len(seen) == 343

    def test_lexicographic_order(self):
        rows = [d.out_rows for d in all_digraphs(2)]
        assert rows == sorted(rows)
        assert len(rows) == 9

    def test_digraph_at_agrees_with_stream(self):
        for idx, d in enumerate(all_digraphs(3)):
            if idx % 37 == 0:
                assert digraph_at(3, idx) == d

    def test_filtered_count_is_stable(self):
        # frozen by an exhaustive run: digraphs on 3 vertices in which
        # every weak component contains a source
        def every_component_has_source(d):
            src = sources(d)
            return all(not c.isdisjoint(src) for c in weak_components(d))

        assert sum(1 for d in all_digraphs(3) if every_component_has_source(d)) == 72
        assert sum(1 for d in all_digraphs(2) if every_component_has_source(d)) == 2

    def test_bad_arguments(self):
        with pytest.raises(InputError):
            list(all_digraphs(0))
        with pytest.raises(InputError):
            digraph_at(3, 343)
        # used to report "out-rows must be ints, got (1.0, 2.5)"
        with pytest.raises(InputError, match=r"^index 1\.5 out of range for n=2$"):
            digraph_at(2, 1.5)


class TestCountChecks:
    @pytest.mark.parametrize(
        "call, message",
        [
            (lambda: digraph_space_size(2.0), "vertex count must be an int, got 2.0"),
            (lambda: digraph_space_size(True), "vertex count must be an int, got True"),
            (lambda: digraph_space_size(-1), "vertex count must be nonnegative, got -1"),
            (lambda: list(partitions(2.0)), "partition total must be an int, got 2.0"),
            (lambda: lemma_kl_digraph(1.0, 1), "k must be an int, got 1.0"),
            (lambda: lemma_kl_digraph(1, 0), "l must be positive, got 0"),
            (
                lambda: list(enumerate_single_source_star_generating(3.0)),
                "order must be an int, got 3.0",
            ),
        ],
        ids=["space-float", "space-bool", "space-negative", "partitions", "k", "l", "enumerate"],
    )
    def test_counts_checked_where_they_enter(self, call, message):
        # digraph_space_size(2.0) used to return 9.0 and (True) 1, and the
        # others to raise TypeError from range()
        with pytest.raises(InputError) as info:
            call()
        assert str(info.value) == message


class TestCanonicalForm:
    def test_invariant_under_relabeling(self):
        import random

        rng = random.Random(7)
        for d in (FIGS["fig2_D3"], lemma_kl_digraph(2, 2)):
            perm = list(range(d.n))
            rng.shuffle(perm)
            relabeled_arcs = [(perm[u], perm[v]) for u, v in d.arcs()]
            from stargen import from_arc_list

            assert canonical_form(d) == canonical_form(from_arc_list(d.n, relabeled_arcs))

    def test_distinguishes(self):
        assert canonical_form(FIGS["fig1_D1"]) != canonical_form(FIGS["fig1_D2"])
        # orders differ: no canonical form is taken, so order 9 is no error
        assert not are_isomorphic(FIGS["fig1_D1"], lemma_kl_digraph(4, 4))

    def test_size_guard(self):
        from stargen import from_arc_list

        big = from_arc_list(9, [(v, v) for v in range(9)])
        with pytest.raises(InputError):
            canonical_form(big)


class TestFigures:
    def test_exact_arc_sets(self):
        assert sorted(FIGS["fig4_D"].arcs()) == [(0, 1), (1, 1), (1, 2), (2, 2)]
        assert sorted(FIGS["fig2_D3"].arcs()) == [
            (0, 1),
            (0, 2),
            (0, 3),
            (1, 3),
            (2, 1),
            (3, 2),
        ]
        assert sorted(FIGS["fig1_D1"].arcs()) == [(0, 1), (0, 2), (1, 1), (2, 2)]

    def test_labels_cover_all_vertices(self):
        labels = figure_labels()
        assert set(labels) == set(FIGS)
        for name, d in FIGS.items():
            assert set(labels[name]) == set(range(d.n))
