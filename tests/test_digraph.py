import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import digraphs, every_digraph, wide_digraphs
from stargen import (
    Digraph,
    InputError,
    all_digraphs,
    competition_graph,
    compose,
    figure_digraphs,
    from_arc_list,
    graph_from_edges,
    has_min_outdegree_one,
    induced_subdigraph,
    lemma_kl_digraph,
    m_step_digraph,
    sources,
    step_neighbors,
    weak_components,
)
from stargen.digraph import _source_mask, _weak_masks, bits

FIGS = figure_digraphs()


class TestFromArcList:
    def test_two_vertex_star_generating(self):
        d = from_arc_list(2, [(1, 0), (0, 0)])
        assert d.n == 2
        assert sorted(d.arcs()) == [(0, 0), (1, 0)]

    def test_single_loop_vertex(self):
        d = from_arc_list(1, [(0, 0)])
        assert sorted(d.arcs()) == [(0, 0)]

    def test_duplicates_collapse(self):
        d = from_arc_list(3, [(0, 1), (0, 1), (0, 2)])
        assert sorted(d.arcs()) == [(0, 1), (0, 2)]

    def test_out_of_range_names_pair(self):
        with pytest.raises(InputError, match=r"\(0, 5\)"):
            from_arc_list(3, [(0, 5)])
        # a float used to raise TypeError from 1 << 1.5, and a bool to build an arc
        for pair in [(0, 1.5), (True, 2), (1, False)]:
            with pytest.raises(InputError, match=rf"^arc {re.escape(str(pair))} out of range"):
                from_arc_list(3, [pair])
        with pytest.raises(InputError):
            from_arc_list(0, [])

    def test_non_pair_names_it(self):
        # unpacking used to raise a bare ValueError or TypeError
        for arc in [(0, 1, 2), (0,), 5]:
            with pytest.raises(InputError, match=rf"^arc {re.escape(repr(arc))} is not a pair"):
                from_arc_list(3, [arc])


class TestRowValidation:
    @pytest.mark.parametrize(
        "n, rows, message",
        [
            (2, [0b100, 1], r"out-rows must lie in \[0, 2\*\*2\)"),
            (3, [1], "expected 3 out-rows, got 1"),
            (2, [-1, 1], r"out-rows must lie in \[0, 2\*\*2\)"),
            # each used to raise TypeError, fail later, misreport or build
            (2.0, [1, 1], r"^vertex count must be an int, got 2\.0$"),
            (2, [1.5, 1], r"^out-rows must be ints"),
            (2, ["1", 1], r"^out-rows must be ints"),
            (2, [0.5, 1], r"^out-rows must be ints"),
            ("2", [1, 1], r"^vertex count must be an int, got '2'$"),
            (True, [1], r"^vertex count must be an int, got True$"),
        ],
    )
    def test_malformed_rows_rejected(self, n, rows, message):
        # a row bit at or above n used to surface as an IndexError deep in classify
        with pytest.raises(InputError, match=message):
            Digraph(n, rows)

    @pytest.mark.parametrize("build", [from_arc_list, graph_from_edges])
    def test_vertex_count_must_be_an_int(self, build):
        # used to raise TypeError from [0] * n
        with pytest.raises(InputError, match=r"^vertex count must be an int, got 2\.0$"):
            build(2.0, [])

    def test_full_rows_accepted(self):
        assert Digraph(2, [0b11, 0b11]).arc_count() == 4
        assert Digraph(0, []).n == 0

    def test_in_rows_are_built_with_the_digraph(self):
        d = Digraph(3, [0b110, 0b100, 0])
        assert d.in_rows == (0, 0b001, 0b011)
        assert "in_rows" in Digraph.__slots__ and not hasattr(d, "__dict__")


class TestStepCountType:
    """A step count must be an int; a float, str or bool used to return a
    graph or raise a ``TypeError`` from inside the squaring.
    """

    @pytest.mark.parametrize("m", [1.0, 2.5, 2.0, "2", True])
    @pytest.mark.parametrize(
        "call",
        [
            competition_graph,
            m_step_digraph,
            lambda d, m: step_neighbors(d, 0, m),
        ],
        ids=["competition_graph", "m_step_digraph", "step_neighbors"],
    )
    def test_non_int_refused(self, call, m):
        with pytest.raises(InputError) as info:
            call(FIGS["fig4_D"], m)
        assert str(info.value) == f"step count must be an int, got {m!r}"

    def test_out_of_range_wording_kept(self):
        with pytest.raises(InputError, match="^step count must be positive, got 0$"):
            competition_graph(FIGS["fig4_D"], 0)
        with pytest.raises(InputError, match="^step count must be nonnegative, got -1$"):
            step_neighbors(FIGS["fig4_D"], 0, -1)


class TestMinOutdegree:
    def test_examples(self):
        assert has_min_outdegree_one(FIGS["fig1_D1"])
        assert has_min_outdegree_one(FIGS["fig4_D"])
        assert not has_min_outdegree_one(from_arc_list(2, [(0, 1)]))


class TestStepNeighbors:
    def test_source_one_step(self):
        assert step_neighbors(FIGS["fig1_D1"], 0, 1, "prey") == {1, 2}

    def test_zero_steps_is_identity(self):
        for name, d in FIGS.items():
            for v in range(d.n):
                assert step_neighbors(d, v, 0, "prey") == {v}
                assert step_neighbors(d, v, 0, "predator") == {v}

    def test_fig4_two_step(self):
        expected = oracles.prey_sets(3, list(FIGS["fig4_D"].arcs()), 2)[0]
        assert expected == {1, 2}
        assert step_neighbors(FIGS["fig4_D"], 0, 2, "prey") == {1, 2}

    def test_bad_arguments(self):
        with pytest.raises(InputError):
            step_neighbors(FIGS["fig4_D"], 7, 1)
        # a float used to raise TypeError, and True to stand for vertex 1
        for v in (1.5, True):
            with pytest.raises(InputError, match=f"^vertex {v} out of range for n=3$"):
                step_neighbors(FIGS["fig4_D"], v, 1)
        with pytest.raises(InputError):
            step_neighbors(FIGS["fig4_D"], 0, -1)
        with pytest.raises(InputError):
            step_neighbors(FIGS["fig4_D"], 0, 1, "sideways")

    def test_agrees_with_oracle_exhaustively_n3(self):
        for d in all_digraphs(3):
            arcs = list(d.arcs())
            for m in range(1, 9):
                prey = oracles.prey_sets(3, arcs, m)
                pred = oracles.predator_sets(3, arcs, m)
                for v in range(3):
                    assert step_neighbors(d, v, m, "prey") == prey[v]
                    assert step_neighbors(d, v, m, "predator") == pred[v]

    @given(digraphs(min_n=4, max_n=5), st.integers(1, 8))
    @settings(max_examples=150)
    def test_agrees_with_oracle_sampled(self, d, m):
        arcs = list(d.arcs())
        prey = oracles.prey_sets(d.n, arcs, m)
        pred = oracles.predator_sets(d.n, arcs, m)
        for v in range(d.n):
            assert step_neighbors(d, v, m, "prey") == prey[v]
            assert step_neighbors(d, v, m, "predator") == pred[v]

    @given(digraphs(max_n=5), st.integers(1, 8))
    @settings(max_examples=100)
    def test_prey_nonempty_under_outdegree_assumption(self, d, m):
        for v in range(d.n):
            assert step_neighbors(d, v, m, "prey")


class TestMStepDigraph:
    def test_three_cycle_returns_home(self):
        d = from_arc_list(3, [(0, 1), (1, 2), (2, 0)])
        assert sorted(m_step_digraph(d, 3).arcs()) == [(0, 0), (1, 1), (2, 2)]

    def test_loops_absorb_walks(self):
        assert sorted(m_step_digraph(FIGS["fig1_D1"], 5).arcs()) == [
            (0, 1),
            (0, 2),
            (1, 1),
            (2, 2),
        ]

    def test_one_step_is_identity_case(self):
        for d in FIGS.values():
            assert m_step_digraph(d, 1) == d

    def test_rejects_zero(self):
        with pytest.raises(InputError):
            m_step_digraph(FIGS["fig1_D1"], 0)

    def test_huge_exponent(self):
        d = from_arc_list(3, [(0, 1), (1, 2), (2, 0)])
        # 2**60 = 1 mod 3, so the cycle rotates by one step
        assert m_step_digraph(d, 2**60) == d
        assert m_step_digraph(d, 3**25) == m_step_digraph(d, 3)

    def test_matches_oracle_exhaustively_small(self):
        for n in (1, 2, 3):
            for d in all_digraphs(n):
                walk = oracles.prey_sets_through(n, list(d.arcs()), 8)
                for m in range(1, 9):
                    prey = walk[m - 1]
                    dm = m_step_digraph(d, m)
                    for v in range(n):
                        assert dm.out_neighbors(v) == prey[v]

    def test_arc_iff_prey_iff_predator(self):
        for d in all_digraphs(3):
            for m in (1, 3, 7):
                dm = m_step_digraph(d, m)
                for u in range(3):
                    for v in range(3):
                        arc = dm.has_arc(u, v)
                        assert arc == (v in step_neighbors(d, u, m, "prey"))
                        assert arc == (u in step_neighbors(d, v, m, "predator"))

    @given(digraphs(max_n=6), st.integers(1, 6), st.integers(1, 6))
    @settings(max_examples=150)
    def test_power_composes(self, d, a, b):
        combined = m_step_digraph(d, a + b)
        assert combined == compose(m_step_digraph(d, a), m_step_digraph(d, b))

    def test_compose_rejects_different_orders(self):
        with pytest.raises(InputError, match="vertex counts differ: 3 != 4"):
            compose(FIGS["fig1_D1"], FIGS["fig2_D1"])


class TestSources:
    def test_examples(self):
        assert sources(FIGS["fig1_D1"]) == {0}
        assert sources(from_arc_list(1, [(0, 0)])) == frozenset()
        assert sources(lemma_kl_digraph(3, 2)) == {0, 1, 2}


def _disjoint_union(a, b):
    arcs = list(a.arcs()) + [(u + a.n, v + a.n) for u, v in b.arcs()]
    return from_arc_list(a.n + b.n, arcs)


class TestWeakComponents:
    def test_examples(self):
        assert weak_components(FIGS["fig1_D1"]) == [frozenset({0, 1, 2})]
        two_loops = from_arc_list(2, [(0, 0), (1, 1)])
        assert weak_components(two_loops) == [frozenset({0}), frozenset({1})]
        union = _disjoint_union(FIGS["fig1_D1"], FIGS["fig1_D2"])
        assert weak_components(union) == [frozenset({0, 1, 2}), frozenset({3, 4, 5})]

    @given(digraphs(max_n=7, min_outdegree_one=False))
    @settings(max_examples=200)
    def test_partition(self, d):
        comps = weak_components(d)
        seen = set()
        for comp in comps:
            assert comp
            assert not comp & seen
            seen |= comp
        assert seen == set(range(d.n))
        assert comps == sorted(comps, key=min)


class TestSourcesAndComponentsAgainstOracles:
    """The source and weak-component masks that ``classify`` and ``verify``
    read, and the public functions over them, agree with ``oracles``.
    """

    @staticmethod
    def _check(d):
        arcs = list(d.arcs())
        src = oracles.sources(d.n, arcs)
        weak = oracles.weak_components(d.n, arcs)
        assert _source_mask(d) == sum(1 << v for v in src), d
        assert sources(d) == src, d
        assert [frozenset(bits(c)) for c in _weak_masks(d)] == weak, d
        assert weak_components(d) == weak, d

    def test_every_digraph_to_order_four(self):
        for n in range(1, 5):
            for d in every_digraph(n):
                self._check(d)

    def test_rows_wider_than_64_bits(self):
        for d in wide_digraphs(seed=5):
            self._check(d)


class TestBitWalks:
    """``arcs`` and ``in_rows`` walk the rows' bits inline; report entries
    take ``list(d.arcs())`` as sorted.
    """

    @staticmethod
    def _check(d):
        arcs = list(d.arcs())
        assert arcs == sorted(arcs)
        assert len(arcs) == len(set(arcs)) == d.arc_count()
        assert all(d.has_arc(u, v) for u, v in arcs)
        transpose = [
            sum(1 << u for u in range(d.n) if d.out_rows[u] >> v & 1) for v in range(d.n)
        ]
        assert list(d.in_rows) == transpose

    def test_every_digraph_to_order_four(self):
        for n in range(1, 5):
            for d in every_digraph(n):
                self._check(d)

    def test_rows_wider_than_64_bits(self):
        for d in wide_digraphs(seed=4):
            self._check(d)


class TestInducedSubdigraph:
    def test_fig2_d3_non_sources(self):
        sub, old_of = induced_subdigraph(FIGS["fig2_D3"], {1, 2, 3})
        assert old_of == [1, 2, 3]
        # the 3-cycle c -> b -> d -> c in new labels
        assert sorted(sub.arcs()) == [(0, 2), (1, 0), (2, 1)]

    def test_whole_vertex_set_is_identity(self):
        for d in FIGS.values():
            sub, old_of = induced_subdigraph(d, range(d.n))
            assert sub == d
            assert old_of == list(range(d.n))

    def test_fig1_d2_two_cycle(self):
        sub, _ = induced_subdigraph(FIGS["fig1_D2"], {1, 2})
        assert sorted(sub.arcs()) == [(0, 1), (1, 0)]

    def test_out_of_range_vertex(self):
        with pytest.raises(InputError, match="vertex 3 out of range for n=3"):
            induced_subdigraph(FIGS["fig1_D2"], {0, 3})
        # a float used to raise TypeError, and True to stand for vertex 1
        for v in (0.5, True):
            with pytest.raises(InputError, match=f"^vertex {v} out of range for n=3$"):
                induced_subdigraph(FIGS["fig1_D2"], [v])


class TestEdgeListFormat:
    def test_round_trip(self):
        from stargen import parse_edge_list
        from stargen.digraph import format_edge_list

        for d in FIGS.values():
            assert parse_edge_list(format_edge_list(d)) == d

    def test_comments_and_blanks(self):
        from stargen import parse_edge_list

        text = "# a digraph\n3\n\n0 1  # arc\n1 2\n"
        assert sorted(parse_edge_list(text).arcs()) == [(0, 1), (1, 2)]

    def test_malformed(self):
        from stargen import parse_edge_list

        with pytest.raises(InputError, match="line 2"):
            parse_edge_list("3\n0 x\n")
        with pytest.raises(InputError):
            parse_edge_list("")
        # the header holds the order alone
        with pytest.raises(InputError, match="^line 1: cannot parse '3 4'$"):
            parse_edge_list("3 4\n0 1\n")

    def test_header_over_the_order_limit(self):
        from stargen.digraph import MAX_TEXT_ORDER, parse_edge_list

        parse_edge_list(f"{MAX_TEXT_ORDER}\n0 1\n")
        with pytest.raises(InputError, match="vertex count 1000000000 exceeds"):
            parse_edge_list("# big\n1000000000\n0 1\n")
