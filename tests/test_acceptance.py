"""End-to-end acceptance checks, one test per criterion.

Each test prints a single ``[criterion N] ...: PASS`` / ``FAIL`` line so a
full run gives a compact scoreboard.  Criterion 5 scans the whole 5-vertex
digraph space; on bit planes it takes seconds, so it runs with the rest.
"""

import random
import time
from contextlib import contextmanager

import pytest

import oracles
from stargen import (
    CATALOG,
    Digraph,
    competition_graph,
    components,
    classify_star_generating,
    enumerate_single_source_star_generating,
    figure_digraphs,
    is_triangle_free,
    lemma_kl_digraph,
    sources,
    verify_claims,
    weak_components,
)

FIGS = figure_digraphs()


@pytest.fixture
def scoreboard(capsys, request):
    marker = request.node.get_closest_marker("criterion")
    num, label = marker.args

    @contextmanager
    def report():
        try:
            yield
        except BaseException:
            with capsys.disabled():
                print(f"\n[criterion {num}] {label}: FAIL")
            raise
        with capsys.disabled():
            print(f"\n[criterion {num}] {label}: PASS")

    return report


def edge_set(g):
    return {frozenset(e) for e in g.edges()}


@pytest.mark.criterion(1, "enumeration counts match the partition oracle")
def test_enumeration_counts(scoreboard):
    with scoreboard():
        started = time.perf_counter()
        for n in range(2, 9):
            reps = list(enumerate_single_source_star_generating(n))
            assert len(reps) == oracles.partition_count(n - 1)
        assert [oracles.partition_count(n - 1) for n in range(2, 9)] == [
            1, 2, 3, 5, 7, 11, 15,
        ]
        count_20 = sum(1 for _ in enumerate_single_source_star_generating(20))
        assert count_20 == oracles.partition_count(19) == 490
        elapsed = time.perf_counter() - started
        assert elapsed < 1.0, f"took {elapsed:.2f}s, budget 1s"


@pytest.mark.criterion(2, "worked examples produce stars for every m in 1..16")
def test_figure_reproduction(scoreboard):
    with scoreboard():
        for name in ("fig1_D1", "fig1_D2", "fig2_D1", "fig2_D2", "fig2_D3"):
            d = FIGS[name]
            src = sources(d)
            assert src == {0}, name
            want = {frozenset((0, v)) for v in range(1, d.n)}
            for m in range(1, 17):
                g = competition_graph(d, m)
                assert edge_set(g) == want, (name, m)
                assert oracles.is_star_graph(d.n, edge_set(g))


@pytest.mark.criterion(3, "(k,l) construction: k sources and l components for m in 1..10")
def test_lemma_kl_family(scoreboard):
    with scoreboard():
        started = time.perf_counter()
        for k in range(1, 7):
            for l in range(1, 7):
                d = lemma_kl_digraph(k, l)
                assert len(sources(d)) == k
                assert len(weak_components(d)) == 1
                for m in range(1, 11):
                    assert len(components(competition_graph(d, m))) == l, (k, l, m)
        elapsed = time.perf_counter() - started
        assert elapsed < 5.0, f"took {elapsed:.2f}s, budget 5s"


@pytest.mark.criterion(4, "whole claim catalog is exhaustive and clean for n <= 4")
def test_exhaustive_catalog_n4(scoreboard):
    with scoreboard():
        started = time.perf_counter()
        groups = {}
        for cid, claim in CATALOG.items():
            if cid == "lemma_2_2":
                key = (1, 2, 3, 4, 5, 6)  # grid family, full m range
            elif claim.min_m is None:
                key = ()
            else:
                key = tuple(range(claim.min_m, 7))
            groups.setdefault(key, []).append(cid)

        seen = set()
        for m_set, claim_ids in sorted(groups.items()):
            for rep in verify_claims(claim_ids, 4, m_set, workers=1):
                assert rep.verified, rep.to_dict()
                assert rep.hypothesis_hits > 0, rep.claim_id
                if CATALOG[rep.claim_id].kind == "digraph":
                    assert rep.digraphs_examined == 1 + 9 + 343 + 50625
                seen.add(rep.claim_id)
        assert seen == set(CATALOG)
        elapsed = time.perf_counter() - started
        assert elapsed < 120.0, f"took {elapsed:.1f}s, budget 120s single-threaded"


@pytest.mark.large
@pytest.mark.criterion(5, "stretch suite over all 5-vertex digraphs")
def test_exhaustive_stretch_n5(scoreboard):
    with scoreboard():
        started = time.perf_counter()
        reports = verify_claims(
            ["thm_1_2", "thm_1_3", "prop_2_3", "lemma_3_5"],
            5,
            {2, 3, 5},
            workers=8,
        )
        for rep in reports:
            assert rep.verified, rep.to_dict()
            assert rep.digraphs_examined == 1 + 9 + 343 + 50625 + 28629151
        elapsed = time.perf_counter() - started
        assert elapsed < 1800.0, f"took {elapsed:.0f}s, budget 30 min"


@pytest.mark.criterion(6, "boundary digraph: clean 1-step graph, triangle at 2 steps")
def test_boundary_digraph(scoreboard):
    with scoreboard():
        d = FIGS["fig4_D"]
        g1 = competition_graph(d, 1)
        assert len(components(g1)) == 1
        assert is_triangle_free(g1)[0]
        assert not classify_star_generating(d).star_generating
        ok, witness = is_triangle_free(competition_graph(d, 2))
        assert not ok and witness == (0, 1, 2)


@pytest.mark.criterion(7, "matrix-power competition graphs equal the stepping oracle")
def test_oracle_equivalence(scoreboard):
    with scoreboard():
        from stargen import all_digraphs

        for n in (1, 2, 3, 4):
            for d in all_digraphs(n):
                arcs = list(d.arcs())
                for m in range(1, 9):
                    assert edge_set(competition_graph(d, m)) == oracles.competition_edges(
                        n, arcs, m
                    ), (n, arcs, m)

        rng = random.Random(20260823)
        for _ in range(10_000):
            n = rng.randint(1, 12)
            rows = [rng.randrange(1, 1 << n) for _ in range(n)]
            d = Digraph(n, rows)
            arcs = list(d.arcs())
            for m in (1, 7, 2**60):
                assert edge_set(competition_graph(d, m)) == oracles.competition_edges(
                    n, arcs, m
                ), (n, arcs, m)


@pytest.mark.criterion(8, "connected triangle-free outcome at m = n is always a star")
def test_star_shape_at_m_equals_n(scoreboard):
    with scoreboard():
        from stargen import all_digraphs

        confirmed = 0
        for n in (3, 4):
            for d in all_digraphs(n):
                g = competition_graph(d, n)
                if len(components(g)) != 1:
                    continue
                if not is_triangle_free(g)[0]:
                    continue
                assert oracles.is_star_graph(n, edge_set(g)), sorted(d.arcs())
                confirmed += 1
        assert confirmed > 0
