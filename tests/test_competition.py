import random
from itertools import combinations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import digraphs
from stargen import (
    Digraph,
    Star,
    StarDecomposition,
    StarDecompositionFailure,
    all_digraphs,
    competition_graph,
    components,
    InputError,
    figure_digraphs,
    from_arc_list,
    graph_from_edges,
    is_triangle_free,
    lemma_kl_digraph,
    sources,
    star_decomposition,
    weak_components,
)
from stargen.competition import _SINGLETONS, Graph

FIGS = figure_digraphs()


def edge_set(g):
    return {frozenset(e) for e in g.edges()}


class TestCompetitionGraph:
    def test_fig1_d1_is_a_star(self):
        g = competition_graph(FIGS["fig1_D1"], 3)
        assert edge_set(g) == {frozenset((0, 1)), frozenset((0, 2))}

    def test_fig4_one_step_is_a_path(self):
        g = competition_graph(FIGS["fig4_D"], 1)
        assert edge_set(g) == {frozenset((0, 1)), frozenset((1, 2))}

    def test_fig4_two_steps_is_a_triangle(self):
        expected = oracles.competition_edges(3, list(FIGS["fig4_D"].arcs()), 2)
        assert expected == {frozenset((0, 1)), frozenset((0, 2)), frozenset((1, 2))}
        assert edge_set(competition_graph(FIGS["fig4_D"], 2)) == expected

    def test_matches_oracle_exhaustively_n3(self):
        for d in all_digraphs(3):
            walk = oracles.competition_edges_through(3, list(d.arcs()), 8)
            for m in range(1, 9):
                assert edge_set(competition_graph(d, m)) == walk[m - 1]

    @given(digraphs(max_n=6), st.integers(1, 8))
    @settings(max_examples=200)
    def test_matches_oracle_sampled(self, d, m):
        assert edge_set(competition_graph(d, m)) == oracles.competition_edges(
            d.n, list(d.arcs()), m
        )

    @given(digraphs(max_n=7, min_outdegree_one=False), st.integers(1, 6))
    @settings(max_examples=200)
    def test_symmetric_and_loop_free(self, d, m):
        g = competition_graph(d, m)
        for v in range(g.n):
            assert not g.has_edge(v, v)
            for u in range(g.n):
                assert g.has_edge(u, v) == g.has_edge(v, u)

    @given(digraphs(max_n=7), st.integers(1, 6))
    @settings(max_examples=200)
    def test_edges_stay_within_weak_components(self, d, m):
        comp_of = {}
        for comp in weak_components(d):
            for v in comp:
                comp_of[v] = min(comp)
        for u, v in competition_graph(d, m).edges():
            assert comp_of[u] == comp_of[v]

    @given(digraphs(max_n=6), st.integers(1, 6), st.data())
    @settings(max_examples=200)
    def test_subdigraph_monotone(self, d, m, data):
        arcs = sorted(d.arcs())
        keep = data.draw(st.lists(st.sampled_from(arcs), unique=True, min_size=1))
        sub = Digraph(d.n, [0] * d.n)
        rows = [0] * d.n
        for u, v in keep:
            rows[u] |= 1 << v
        sub = Digraph(d.n, rows)
        g, gs = competition_graph(d, m), competition_graph(sub, m)
        for u, v in gs.edges():
            assert g.has_edge(u, v)


class TestTriangleFree:
    def test_path_is_triangle_free(self):
        ok, witness = is_triangle_free(competition_graph(FIGS["fig4_D"], 1))
        assert ok and witness is None

    def test_triangle_witness(self):
        ok, witness = is_triangle_free(graph_from_edges(3, [(0, 1), (1, 2), (0, 2)]))
        assert not ok
        assert witness == (0, 1, 2)

    def test_fig4_two_steps(self):
        ok, witness = is_triangle_free(competition_graph(FIGS["fig4_D"], 2))
        assert not ok and witness == (0, 1, 2)

    def test_witness_is_lexicographic_first(self):
        g = graph_from_edges(5, [(1, 3), (3, 4), (1, 4), (0, 2), (2, 4), (0, 4)])
        ok, witness = is_triangle_free(g)
        assert not ok and witness == (0, 2, 4)

    def test_predator_bound_when_triangle_free(self):
        # digraphs whose competition graph stays triangle-free keep every
        # i-step predator set at size <= 2
        from stargen import step_neighbors

        for d in all_digraphs(3):
            for m in range(1, 7):
                if is_triangle_free(competition_graph(d, m))[0]:
                    for i in range(1, m + 1):
                        for u in range(3):
                            assert len(step_neighbors(d, u, i, "predator")) <= 2


class TestComponents:
    def test_lemma_family(self):
        g = competition_graph(lemma_kl_digraph(2, 3), 4)
        assert components(g) == [frozenset({0, 1, 2, 5}), frozenset({3}), frozenset({4})]

    def test_edgeless(self):
        g = graph_from_edges(4, [])
        assert components(g) == [frozenset({v}) for v in range(4)]

    def test_fig2_d2_connected(self):
        g = competition_graph(FIGS["fig2_D2"], 1)
        assert components(g) == [frozenset({0, 1, 2, 3})]

    def test_source_count_bounds_components(self):
        # triangle-free competition graphs of source-covered digraphs have
        # at least as many components as the digraph has sources
        for d in all_digraphs(3):
            src = sources(d)
            if not all(
                any(v in src for v in comp) for comp in weak_components(d)
            ):
                continue
            for m in range(2, 7):
                g = competition_graph(d, m)
                if is_triangle_free(g)[0]:
                    assert len(src) <= len(components(g))


class TestStarDecomposition:
    def test_fig2_d3_decomposes(self):
        g = competition_graph(FIGS["fig2_D3"], 5)
        sd = star_decomposition(g, frozenset({0}))
        assert sd
        assert len(sd.stars) == 1
        assert sd.stars[0].center == 0
        assert sd.stars[0].leaves == {1, 2, 3}

    def test_isolated_vertex_is_trivial(self):
        g = graph_from_edges(1, [])
        sd = star_decomposition(g, frozenset({0}))
        assert not sd
        assert sd.reason == "trivial"

    def test_path_center_not_a_source(self):
        g = competition_graph(FIGS["fig4_D"], 1)  # path 0 - 1 - 2
        sd = star_decomposition(g, frozenset({0}))
        assert not sd
        assert sd.reason == "center_not_in_sources"
        assert sd.component == {0, 1, 2}

    def test_triangle_is_not_a_star(self):
        g = graph_from_edges(3, [(0, 1), (1, 2), (0, 2)])
        sd = star_decomposition(g, frozenset({0, 1, 2}))
        assert not sd and sd.reason == "not_a_star"

    def test_two_vertex_component_prefers_low_source(self):
        g = graph_from_edges(2, [(0, 1)])
        assert star_decomposition(g, frozenset({0, 1})).stars[0].center == 0
        assert star_decomposition(g, frozenset({1})).stars[0].center == 1

    def test_mixed_components(self):
        g = graph_from_edges(5, [(0, 1), (0, 2), (3, 4)])
        sd = star_decomposition(g, frozenset({0, 3}))
        assert sd
        assert [(s.center, set(s.leaves)) for s in sd.stars] == [
            (0, {1, 2}),
            (3, {4}),
        ]


class TestSharedResults:
    def test_failure_reuses_the_component_set(self):
        g = graph_from_edges(4, [(0, 1), (1, 2), (0, 2)])
        comps = components(g)
        sd = star_decomposition(g, frozenset({0}))
        assert not sd and sd.reason == "not_a_star"
        assert sd.component is comps[0]
        assert components(g)[1] is comps[1]

    def test_returned_list_is_fresh(self):
        g = graph_from_edges(3, [(0, 1)])
        first = components(g)
        first.clear()
        assert components(g) == [frozenset({0, 1}), frozenset({2})]

    def test_results_have_no_dict_and_compare_as_values(self):
        star = Star(0, frozenset({1}))
        failure = StarDecompositionFailure(frozenset({2}), "trivial")
        decomposition = StarDecomposition((star,))
        for value, twin in (
            (star, Star(0, frozenset({1}))),
            (failure, StarDecompositionFailure(frozenset({2}), "trivial")),
            (decomposition, StarDecomposition((Star(0, frozenset({1})),))),
        ):
            assert not hasattr(value, "__dict__")
            assert value == twin and hash(value) == hash(twin)
        assert decomposition and not failure
        assert star != Star(1, frozenset({0}))
        with pytest.raises(AttributeError):
            star.center = 2


class TestGraphFormats:
    def test_round_trip(self):
        from stargen.competition import format_graph_edge_list, parse_graph_edge_list

        g = competition_graph(FIGS["fig2_D2"], 2)
        assert parse_graph_edge_list(format_graph_edge_list(g)) == g

    def test_header_with_two_fields(self):
        from stargen.competition import parse_graph_edge_list

        with pytest.raises(InputError, match="^line 1: cannot parse '3 4'$"):
            parse_graph_edge_list("3 4\n0 1\n")

    def test_no_self_edges(self):
        from stargen import InputError

        with pytest.raises(InputError):
            graph_from_edges(2, [(1, 1)])

    @pytest.mark.parametrize(
        "n, edges, message",
        [
            (0, [], "vertex count must be positive, got 0"),
            (2, [(0, 2)], r"edge \(0, 2\) out of range for n=2"),
            # used to raise TypeError from 1 << 1.5, or to build the edge (1, 2)
            (3, [(0, 1.5)], r"^edge \(0, 1\.5\) out of range for n=3$"),
            (3, [(True, 2)], r"^edge \(True, 2\) out of range for n=3$"),
            # unpacking used to raise a bare ValueError or TypeError
            (3, [(0, 1, 2)], r"^edge \(0, 1, 2\) is not a pair of vertices$"),
            (3, [5], "^edge 5 is not a pair of vertices$"),
        ],
    )
    def test_bad_order_or_edge(self, n, edges, message):
        with pytest.raises(InputError, match=message):
            graph_from_edges(n, edges)


def _all_graphs(n):
    """Every labeled simple graph on n vertices, as (edge set, Graph)."""
    pairs = list(combinations(range(n), 2))
    for mask in range(1 << len(pairs)):
        edges = {frozenset(p) for i, p in enumerate(pairs) if mask >> i & 1}
        yield edges, graph_from_edges(n, [tuple(e) for e in edges])


def _brute_components(n, edges):
    """Components by repeated merging of edge-linked sets, ordered by minimum."""
    comps = [{v} for v in range(n)]
    for e in edges:
        a, b = (next(c for c in comps if v in c) for v in e)
        if a is not b:
            a |= b
            comps.remove(b)
    return sorted((frozenset(c) for c in comps), key=min)


def _brute_star_decomposition(n, edges, source_set):
    stars = []
    for comp in _brute_components(n, edges):
        inner = [e for e in edges if e <= comp]
        if len(comp) == 1:
            return StarDecompositionFailure(comp, "trivial")
        hubs = [v for v in sorted(comp) if sum(v in e for e in inner) == len(comp) - 1]
        if len(inner) != len(comp) - 1 or not hubs:
            return StarDecompositionFailure(comp, "not_a_star")
        centers = [v for v in hubs if v in source_set]
        if not centers:
            return StarDecompositionFailure(comp, "center_not_in_sources")
        stars.append(Star(centers[0], comp - {centers[0]}))
    return StarDecomposition(tuple(stars))


class TestCliqueFill:
    """competition_graph fills predator cliques; the oracle intersects prey sets."""

    def test_every_digraph_up_to_order_three(self):
        for n in range(1, 4):
            for rows in product(range(1 << n), repeat=n):
                d = Digraph(n, rows)
                arcs = list(d.arcs())
                walk = oracles.competition_edges_through(n, arcs, 6)
                for m in (1, 2, 3, 4, 5, 6, 2**60):
                    expected = walk[m - 1] if m <= 6 else oracles.competition_edges(n, arcs, m)
                    assert competition_graph(d, m) == graph_from_edges(
                        n, [tuple(e) for e in expected]
                    ), (d, m)

    def test_seeded_random_digraphs_up_to_order_twelve(self):
        rng = random.Random(8)
        for _ in range(300):
            n = rng.randint(1, 12)
            density = rng.random()
            arcs = [(u, v) for u in range(n) for v in range(n) if rng.random() < density]
            d = from_arc_list(n, arcs)
            for m in (1, 2, 3, n, 2**60):
                expected = oracles.competition_edges(n, arcs, m)
                assert competition_graph(d, m) == graph_from_edges(
                    n, [tuple(e) for e in expected]
                ), (d, m)


class TestBruteForceKernels:
    def test_triangle_witness_is_the_first_of_a_brute_force_search(self):
        for n in range(1, 7):
            for edges, g in _all_graphs(n):
                first = next(
                    (
                        t
                        for t in combinations(range(n), 3)
                        if all(frozenset(p) in edges for p in combinations(t, 2))
                    ),
                    None,
                )
                assert is_triangle_free(g) == (first is None, first), g

    def test_star_decomposition_on_every_graph_and_source_set(self):
        for n in range(1, 6):
            for edges, g in _all_graphs(n):
                assert components(g) == _brute_components(n, edges)
                for mask in range(1 << n):
                    source_set = frozenset(v for v in range(n) if mask >> v & 1)
                    got = star_decomposition(g, source_set)
                    assert got == _brute_star_decomposition(n, edges, source_set), (
                        g,
                        source_set,
                    )


class TestGraphRows:
    @pytest.mark.parametrize(
        "n, rows",
        [
            (2, [0b100, 0]),
            (2, [0, -1]),
            (2, [0]),
            (2, [0, 0, 0]),
            (0, [1]),
            # each used to raise TypeError or build
            (2.0, [2, 1]),
            (2, [1.5, 0]),
            (2, ["1", 0]),
            (True, [0]),
        ],
    )
    def test_malformed_rows_rejected(self, n, rows):
        with pytest.raises(InputError):
            Graph(n, rows)

    @pytest.mark.parametrize(
        "n, rows, message",
        [(2, [0], "expected 2 rows, got 1"), (2, [0b100, 0], "rows must lie in [0, 2**2), got 0..4")],
    )
    def test_malformed_rows_message(self, n, rows, message):
        with pytest.raises(InputError) as info:
            Graph(n, rows)
        assert str(info.value) == message

    def test_full_rows_accepted(self):
        g = Graph(3, [0b110, 0b101, 0b011])
        assert components(g) == [frozenset({0, 1, 2})]

    def test_hash_and_repr(self):
        g = graph_from_edges(3, [(2, 0)])
        assert len({g, Graph(3, [0b100, 0, 0b001])}) == 1
        assert repr(g) == "Graph(3, edges=[(0, 2)])"

    def test_singleton_components_are_shared(self):
        a = components(graph_from_edges(4, [(1, 2)]))
        b = components(graph_from_edges(5, [(2, 4)]))
        assert a[0] is b[0] and a[2] is b[3] == frozenset({3})

    def test_singletons_beyond_the_table_are_still_sets(self):
        n = len(_SINGLETONS) + 3
        comps = components(Graph(n, [0] * n))
        assert comps == [frozenset({v}) for v in range(n)]
