import itertools
import json
import math
import os
from collections import Counter
from pathlib import Path

import pytest

import oracles
from conftest import every_digraph, wide_digraphs
from stargen import (
    CATALOG,
    InputError,
    classify_components,
    classify_star_generating,
    figure_digraphs,
    from_arc_list,
    replay_counterexample,
    verify_claims,
)
from stargen import Digraph, bitslice, classify, digraph, generate, verify
from stargen.competition import Graph, components
from stargen.digraph import MAX_TEXT_ORDER, bits, sources, weak_components
from stargen.generate import all_digraphs
from stargen.verify import (
    CONNECTED,
    K_EQ_L,
    PRED_BOUND,
    SG,
    STAR_OK,
    SUB_MONOTONE,
    TF,
    WEAK_SOURCES,
    Atom,
    Claim,
    ClaimContext,
    Direction,
)

ALL_IDS = sorted(CATALOG)


class TestCatalog:
    def test_expected_ids(self):
        assert ALL_IDS == sorted(
            [
                "prop_2_1",
                "lemma_2_2",
                "prop_2_3",
                "lemma_2_4",
                "prop_2_5",
                "lemma_2_6",
                "thm_2_7",
                "lemma_3_1",
                "thm_3_2",
                "prop_3_3",
                "lemma_3_4",
                "lemma_3_5",
                "lemma_3_6",
                "prop_3_7",
                "cor_3_8",
                "thm_1_2",
                "thm_1_3",
            ]
        )


class TestVerifyClaims:
    def test_thm_1_2_small_exhaustive(self):
        report = verify_claims(["thm_1_2"], 3, range(1, 7))[0]
        assert report.verified
        assert report.digraphs_examined == 1 + 9 + 343
        assert report.hypothesis_hits > 0

    def test_every_claim_is_its_directions(self):
        # the grid and the census included: each claim's min m is its
        # directions' least, None when none depends on m
        for claim in CATALOG.values():
            assert claim.directions, claim.id
            mins = [d.min_m for d in claim.directions if d.min_m is not None]
            assert claim.min_m == (min(mins) if mins else None), claim.id
        assert CATALOG["lemma_2_2"].min_m == 1 and CATALOG["thm_3_2"].min_m is None

    def test_biconditionals_have_two_directions(self):
        for cid in ("lemma_3_6", "prop_3_7", "thm_1_2", "thm_1_3"):
            assert len(CATALOG[cid].directions) == 2

    def test_lemma_2_2_default_grid(self):
        report = verify_claims(["lemma_2_2"], 5, range(1, 11))[0]
        assert report.verified
        assert report.digraphs_examined == 25
        assert report.hypothesis_hits == 250

    def test_thm_3_2_census(self):
        report = verify_claims(["thm_3_2"], 4, [])[0]
        assert report.verified
        assert report.hypothesis_hits == 3  # orders 2, 3, 4

    def test_census_canonicalizes_one_digraph_per_class(self, monkeypatch):
        # the 120 flagged labelings of order 5 fall in 5 classes; each class
        # and each of the 5 enumerated representatives is relabeled once
        calls = Counter()
        relabelings = generate._relabelings

        def counting(d):
            calls[d.n] += 1
            return relabelings(d)

        monkeypatch.setattr(generate, "_relabelings", counting)
        assert verify._census_check(5) is None
        assert calls == {5: 10}

    def test_m_independent_claims_ignore_m(self):
        for cid in ("lemma_2_6", "lemma_3_1"):
            report = verify_claims([cid], 3, [])[0]
            assert report.verified
            assert report.hypothesis_hits > 0

    def test_batch_matches_individual(self):
        batch = verify_claims(["prop_2_1", "thm_1_3"], 3, [1, 2])
        solo = [verify_claims(["prop_2_1"], 3, [1, 2])[0], verify_claims(["thm_1_3"], 3, [1, 2])[0]]
        for b, s in zip(batch, solo):
            assert b.claim_id == s.claim_id
            assert b.hypothesis_hits == s.hypothesis_hits
            assert b.counterexamples == s.counterexamples
            assert b.boundary_instances == s.boundary_instances


class TestErrors:
    def test_unknown_claim(self):
        with pytest.raises(InputError, match="unknown claim"):
            verify_claims(["lemma_9_9"], 3, [2])[0]

    def test_m_below_range_is_named(self):
        with pytest.raises(InputError, match="prop_2_5 requires m >= 2"):
            verify_claims(["prop_2_5"], 3, [1, 2])[0]

    def test_sampled_needs_count(self):
        # a seed alone used to be dropped, and the whole space scanned
        message = "^seed 1 needs a sample count: only a sample is drawn$"
        with pytest.raises(InputError, match=message):
            verify_claims(["prop_2_1"], 3, [2], seed=1)[0]

    def test_sampled_order_over_the_limit(self):
        # a draw builds (2**n - 1)**n, so the bound comes before any draw
        with pytest.raises(InputError, match=f"exceeds the limit of {MAX_TEXT_ORDER}"):
            verify_claims(["prop_2_1"], MAX_TEXT_ORDER + 1, [1], seed=1, sample_count=1)[0]

    def test_nonpositive_m_rejected(self):
        with pytest.raises(InputError):
            verify_claims(["prop_2_1"], 3, [0, 1])[0]

    @pytest.mark.parametrize("count", [0, -5])
    def test_sample_count_below_one_rejected(self, count):
        # a sampled scan of nothing used to report the claim verified
        with pytest.raises(InputError, match="sample count must be positive"):
            verify_claims(["prop_2_1"], 3, [1], seed=1, sample_count=count)[0]

    @pytest.mark.parametrize(
        "claim_ids, n_max, m_set, kwargs, message",
        [
            (["thm_3_2", "prop_2_1"], 5, [], {}, "m_set is empty"),
            (["lemma_2_2", "thm_3_2"], 1, [1], {}, "thm_3_2 needs n_max >= 2"),
            (["lemma_2_2", "prop_2_1"], 0, [1], {}, "n_max must be positive"),
            (["lemma_2_2", "thm_3_2", "prop_2_1"], 3, [1], {"seed": 1}, "sample count"),
            (["thm_3_2", "prop_2_1"], MAX_TEXT_ORDER + 1, [1], {"sample_count": 1}, "exceeds"),
            # the grid used to default n_max 0 to 5 and an empty m set to 1..10
            (["lemma_2_2"], 0, [1], {}, "n_max must be positive"),
            (["lemma_2_2"], 3, [], {}, "m_set is empty"),
            # each used to escape as a TypeError, or to run with a bool or float
            (["lemma_2_2", "prop_2_1"], 3, [1.5], {}, "m must be an int, got 1.5"),
            (["lemma_2_2", "prop_2_1"], 2.5, [1], {}, "n_max must be an int, got 2.5"),
            (
                ["thm_3_2", "prop_2_1"],
                3,
                [1],
                {"seed": 1, "sample_count": 2.5},
                "sample count must be an int, got 2.5",
            ),
            (["lemma_2_2", "prop_2_1"], 3, [True], {}, "m must be an int, got True"),
            (["lemma_2_2", "prop_2_1"], 3, [1.0], {}, "m must be an int, got 1.0"),
            (["lemma_2_2", "prop_2_1"], True, [1], {}, "n_max must be an int, got True"),
            # a list seed used to escape as a TypeError from random.Random, a
            # bool, float or str seed to run silently, sampled or not
            (["prop_2_1"], 3, [1], {"seed": [1]}, r"seed must be an int, got \[1\]"),
            (["prop_2_1"], 3, [1], {"seed": True}, "seed must be an int, got True"),
            (["prop_2_1"], 3, [1], {"seed": 1.5}, "seed must be an int, got 1.5"),
            (["thm_3_2"], 3, [1], {"seed": "abc"}, "seed must be an int, got 'abc'"),
            (["lemma_2_2"], 3, [1], {"seed": True}, "seed must be an int"),
            # a string used to be iterated, as the unknown claim id 't'
            ("thm_1_3", 3, [1], {}, "^claim ids must be a list, got 'thm_1_3'; wrap one id in a list"),
            # a count no requested claim draws used to be dropped, and the
            # reports labelled sampled
            (["lemma_2_2"], 3, [1], {"sample_count": 5}, "^sample count 5: no requested claim"),
            (["thm_3_2"], 3, [1], {"sample_count": 5}, "^sample count 5: no requested claim"),
            (["lemma_2_2", "thm_3_2"], 3, [1], {"seed": 1, "sample_count": 5}, "no requested"),
            # each used to escape as a TypeError
            (None, 2, [1], {}, "^claim ids must be a list of ids, got None$"),
            (["prop_2_1"], 2, None, {}, "^m_set must be a list of ints, got None$"),
            (["prop_2_1"], 2, 3, {}, "^m_set must be a list of ints, got 3$"),
            ([["x"]], 2, [1], {}, r"^claim ids must be a list of ids, got \[\['x'\]\]$"),
        ],
    )
    def test_inputs_checked_before_any_claim_runs(
        self, monkeypatch, claim_ids, n_max, m_set, kwargs, message
    ):
        # the grid and the census used to run before the scan's inputs were checked
        def fail(*args):
            pytest.fail("a claim ran before every input was checked")

        monkeypatch.setattr(verify, "_census_check", fail)
        monkeypatch.setattr(verify, "_verify_grid", fail)
        with pytest.raises(InputError, match=message):
            verify_claims(claim_ids, n_max, m_set, **kwargs)


class TestSampledMode:
    def test_count_selects_sampling(self):
        report = verify_claims(["prop_2_1"], 3, [1], seed=1, sample_count=5)[0]
        assert report.digraphs_examined == 5
        assert report.to_dict()["mode"] == "sampled"

    def test_each_report_says_how_its_claim_ran(self):
        # the grid and the census run whole, so a count used to mislabel them
        claim_ids = ["prop_2_1", "lemma_2_2", "thm_3_2"]
        reports = verify_claims(claim_ids, 3, [1], seed=1, sample_count=5)
        assert {r.claim_id: (r.mode, r.digraphs_examined) for r in reports} == {
            "prop_2_1": ("sampled", 5),
            "lemma_2_2": ("exhaustive", 9),
            "thm_3_2": ("exhaustive", 352),
        }

    def test_seed_reproducible(self):
        kwargs = dict(seed=99, sample_count=300)
        a = verify_claims(["prop_2_3"], 4, [2, 3], **kwargs)[0]
        b = verify_claims(["prop_2_3"], 4, [2, 3], **kwargs)[0]
        assert a.verified and b.verified
        assert a.hypothesis_hits == b.hypothesis_hits
        assert a.digraphs_examined == b.digraphs_examined == 300

    def test_n_max_one_draws_order_one(self, monkeypatch):
        failing = Claim(
            "bogus_failing",
            "digraph",
            (Direction("forward", 1, (), (_FORCED_FAILURE,)),),
        )
        monkeypatch.setitem(CATALOG, "bogus_failing", failing)
        report = verify_claims(["bogus_failing"], 1, [1], seed=3, sample_count=20)[0]
        assert report.n_max == 1
        assert len(report.counterexamples) == 20
        assert all(entry["n"] == 1 for entry in report.counterexamples)


class TestBoundaryInstances:
    def test_fig4_found_below_the_m_range(self):
        # the path-producing digraph has a connected triangle-free 1-step
        # competition graph without being star-generating
        report = verify_claims(["thm_1_3"], 3, [1, 2])[0]
        assert report.verified
        fig4_arcs = sorted(figure_digraphs()["fig4_D"].arcs())
        matching = [
            e
            for e in report.boundary_instances
            if e["arcs"] == fig4_arcs and e["m"] == 1 and e["direction"] == "only_if"
        ]
        assert matching

    def test_boundary_instances_replay_as_violations(self):
        report = verify_claims(["thm_1_3"], 3, [1, 2])[0]
        for entry in report.boundary_instances[:20]:
            assert replay_counterexample(entry)


class TestReplay:
    def test_forged_entry_with_false_hypothesis(self):
        entry = {
            "claim": "prop_2_3",
            "direction": "forward",
            "n": 3,
            # C^2 of the 2-cycle-with-chord digraph contains a triangle
            "arcs": [[0, 1], [0, 2], [1, 0], [1, 2], [2, 0], [2, 1]],
            "m": 2,
            "detail": None,
        }
        assert replay_counterexample(entry) is False

    def test_forged_entry_with_true_conclusion(self):
        entry = {
            "claim": "thm_1_3",
            "direction": "if",
            "n": 3,
            "arcs": sorted(figure_digraphs()["fig1_D1"].arcs()),
            "m": 4,
            "detail": None,
        }
        # hypothesis holds but so does the conclusion: not a counterexample
        assert replay_counterexample(entry) is False

    def test_malformed_entry(self):
        with pytest.raises(InputError):
            replay_counterexample({"claim": "thm_1_3"})
        with pytest.raises(InputError):
            replay_counterexample({"claim": "nope", "direction": "if", "m": 2})
        # each used to escape as a KeyError or TypeError
        arcs = [[0, 0]]
        for entry in (
            {"claim": "thm_3_2", "direction": "count", "m": None},
            {"claim": "thm_3_2", "direction": "count", "n": "x", "m": None},
            {"claim": "lemma_2_2", "direction": "construction", "k": "x", "l": 1, "m": 1},
            {"claim": "lemma_2_2", "direction": "construction", "k": 1, "l": 1, "m": "3"},
            {"claim": "prop_2_1", "direction": "forward", "n": 1, "arcs": arcs, "m": "2"},
            {"claim": "prop_2_1", "direction": "backward", "n": 1, "arcs": arcs, "m": 1},
            {"claim": "prop_2_1", "direction": "forward", "n": 1, "arcs": [[0, 0, 0]], "m": 1},
            # an unknown direction of the census or the grid used to replay as False
            {"claim": "thm_3_2", "direction": "bogus", "n": 4, "arcs": None, "m": None},
            {"claim": "lemma_2_2", "direction": "bogus", "k": 1, "l": 1, "m": 1},
            # a JSON true used to be read as vertex 1, and this entry replayed as False
            dict(claim="prop_2_1", direction="forward", n=2, arcs=[[0, True], [1, 1]], m=1),
        ):
            with pytest.raises(InputError, match="malformed"):
                replay_counterexample(entry)

    def test_m_the_direction_cannot_take(self):
        # prop_2_1 "forward" needs an int m: a null m was evaluated at m = 0;
        # lemma_2_6 "forward" takes none: m = 3 was evaluated as if it counted
        arcs = [[0, 0]]
        for entry, message in (
            (
                {"claim": "prop_2_1", "direction": "forward", "n": 1, "arcs": arcs, "m": None},
                "^prop_2_1 'forward' takes an int m, got m=None$",
            ),
            (
                {"claim": "lemma_2_6", "direction": "forward", "n": 1, "arcs": arcs, "m": 3},
                "^lemma_2_6 'forward' takes no m, got m=3$",
            ),
            # the census counts once per order, whatever the m
            (
                {"claim": "thm_3_2", "direction": "count", "n": 4, "m": 7},
                "^thm_3_2 'count' takes no m, got m=7$",
            ),
            # an m below 1 used to fail deep in m_step_digraph
            (
                {"claim": "lemma_2_2", "direction": "construction", "k": 1, "l": 1, "m": 0},
                "^lemma_2_2 'construction' takes m >= 1, got m=0$",
            ),
            (
                {"claim": "prop_2_1", "direction": "forward", "n": 1, "arcs": arcs, "m": -3},
                "^prop_2_1 'forward' takes m >= 1, got m=-3$",
            ),
        ):
            with pytest.raises(InputError, match=message):
                replay_counterexample(entry)

    def test_digraph_outside_the_scanned_space(self):
        # 0 and 1 share prey 2, which has none: no scan reaches this digraph,
        # and its replay used to report a counterexample to Proposition 2.1
        arcs = [[0, 2], [1, 2]]
        entry = {"claim": "prop_2_1", "direction": "forward", "n": 3, "arcs": arcs, "m": 1}
        with pytest.raises(InputError, match="^vertex 2 has no prey;"):
            replay_counterexample(entry)

    @pytest.mark.parametrize(
        "entry",
        [
            # used to escape as an OverflowError from the row list
            dict(claim="prop_2_1", direction="forward", n=10**19, arcs=[], m=1),
            dict(claim="prop_2_1", direction="forward", n=MAX_TEXT_ORDER + 1, arcs=[], m=1),
            # used to build an arc list of k pairs
            dict(claim="lemma_2_2", direction="construction", k=10**19, l=1, m=1),
            dict(claim="lemma_2_2", direction="construction", k=1, l=MAX_TEXT_ORDER, m=1),
        ],
    )
    def test_order_over_the_limit(self, entry):
        with pytest.raises(InputError, match="exceeds the limit"):
            replay_counterexample(entry)

    def test_census_order_over_the_replay_limit(self):
        # used to scan all (2**7 - 1)**7 digraphs
        entry = {"claim": "thm_3_2", "direction": "count", "n": 7, "m": None}
        with pytest.raises(InputError, match="scans the capped stream of its order, up to order 6"):
            replay_counterexample(entry)

    def test_census_order_six_replays(self, monkeypatch):
        orders = []
        monkeypatch.setattr(verify, "_census_check", lambda n: orders.append(n))
        entry = {"claim": "thm_3_2", "direction": "count", "n": 6, "m": None}
        assert replay_counterexample(entry) is False
        assert orders == [6]

    @pytest.mark.parametrize("order", [1, 0, -3])
    def test_census_order_below_two(self, order):
        entry = {"claim": "thm_3_2", "direction": "count", "n": order, "m": None}
        with pytest.raises(InputError, match=f"thm_3_2 needs order >= 2, got {order}"):
            replay_counterexample(entry)

    def test_grid_entry(self):
        entry = {
            "claim": "lemma_2_2",
            "direction": "construction",
            "n": 6,
            "arcs": [],
            "m": 3,
            "k": 2,
            "l": 3,
            "detail": None,
        }
        assert replay_counterexample(entry) is False  # the construction is sound


_FORCED_FAILURE = Atom(lambda ctx, m: "forced failure", lambda p, m: 0)
_CONNECTED_SCALAR = Atom(
    lambda ctx, m: None if ctx.n_components(m) == 1 else "not connected", CONNECTED.plane
)


class TestCounterexampleMachinery:
    def test_false_claim_produces_replayable_counterexamples(self, monkeypatch):
        bogus = Claim(
            "bogus_connected",
            "digraph",
            (Direction("forward", 1, (), (_CONNECTED_SCALAR,)),),
        )
        monkeypatch.setitem(CATALOG, "bogus_connected", bogus)
        report = verify_claims(["bogus_connected"], 2, [1])[0]
        assert not report.verified
        assert report.counterexamples
        for entry in report.counterexamples:
            assert replay_counterexample(entry)
            json.dumps(entry)

    def test_report_json_round_trip(self):
        report = verify_claims(["prop_2_1"], 3, [1, 2])[0]
        line = report.to_json_line()
        data = json.loads(line)
        assert data["claim"] == "prop_2_1"
        assert data["verified"] is True
        assert data["digraphs_examined"] == report.digraphs_examined

    def test_write_report_lines(self, tmp_path):
        from stargen.verify import write_report_lines

        path = tmp_path / "reports.jsonl"
        reports = verify_claims(["prop_2_1", "lemma_2_6"], 3, [1])
        write_report_lines(reports, str(path))
        write_report_lines(reports, str(path))  # append-only
        lines = path.read_text().splitlines()
        assert len(lines) == 4
        assert all(json.loads(line)["verified"] for line in lines)


class TestPinnedBoundaries:
    def test_boundary_details_n4(self):
        # what a correct catalog emits below each direction's m range at n <= 4
        reports = verify_claims(["lemma_3_6", "prop_3_7", "thm_1_2", "thm_1_3"], 4, range(1, 7))
        found = {
            rep.claim_id: Counter(
                (e["direction"], e["m"], e["detail"]) for e in rep.boundary_instances
            )
            for rep in reports
        }
        assert all(rep.verified for rep in reports)
        assert found == {
            "lemma_3_6": {("if", 1, "some weak component is not star-generating"): 384},
            "prop_3_7": {("if", 1, "some component avoids every source"): 12},
            "thm_1_2": {},
            "thm_1_3": {("only_if", 1, "digraph is not star-generating"): 372},
        }


def _oracle_component_count(n, edges):
    parent = list(range(n))

    def root(v):
        while parent[v] != v:
            v = parent[v]
        return v

    for e in edges:
        a, b = tuple(e)
        parent[root(a)] = root(b)
    return len({root(v) for v in range(n)})


class TestAtomsAgainstOracles:
    def test_tf_k_eq_l_connected(self):
        for n in range(1, 4):
            for d in all_digraphs(n):
                arcs = list(d.arcs())
                k = n - len({v for _, v in arcs})
                ctx = ClaimContext(d)
                walk = oracles.competition_edges_through(n, arcs, 4)
                for m in range(1, 5):
                    edges = walk[m - 1]
                    l = _oracle_component_count(n, edges)
                    triangle = oracles.has_triangle(edges, n)
                    assert (TF.check(ctx, m) is None) is not triangle, (d, m)
                    assert (K_EQ_L.check(ctx, m) is None) is (k == l), (d, m)
                    assert (CONNECTED.check(ctx, m) is None) is (l == 1), (d, m)


def _oracle_subdigraph_arcs(arcs):
    """Arc lists of the documented subdigraphs, in order: the one-arc
    deletions by (u, v) that keep every outdegree >= 1.
    """
    outdegree = Counter(u for u, _ in arcs)
    return [[a for a in arcs if a != (u, v)] for u, v in sorted(arcs) if outdegree[u] >= 2]


def _missing_edge(a, b, m):
    return f"edge {{{a}, {b}}} of a subdigraph's {m}-step competition graph is missing from the host's"


class TestSubMonotone:
    def test_forced_empty_host_names_first_subdigraph_edge(self):
        # with the host's C^m emptied through the memo, every edge of every
        # subdigraph's C^m is missing: the witness is the first edge of the
        # first subdigraph that has one
        failures = 0
        for n in range(1, 4):
            for d in all_digraphs(n):
                arcs = sorted(d.arcs())
                ctx = ClaimContext(d)
                for m in range(1, 5):
                    ctx._graphs[m] = Graph(n, [0] * n)
                    expected = None
                    for sub in _oracle_subdigraph_arcs(arcs):
                        edges = oracles.competition_edges(n, sub, m)
                        if edges:
                            expected = _missing_edge(*min(sorted(e) for e in edges), m)
                            break
                    assert SUB_MONOTONE.check(ctx, m) == expected, (arcs, m)
                    failures += expected is not None
        assert failures == 1284

    def test_disconnected_host_subdigraph_rows(self):
        # weak components {0, 1} and {2, 3}; only vertex 0 has two prey
        d = Digraph(4, [0b0011, 0b0001, 0b1000, 0b1000])
        assert ClaimContext(d).subdigraphs() == [
            [0b0010, 0b0001, 0b1000, 0b1000],
            [0b0001, 0b0001, 0b1000, 0b1000],
        ]

    def test_no_witness_without_a_one_arc_deletion(self):
        # where no vertex has two prey no arc can be deleted, so no
        # subdigraph is checked: SUB_MONOTONE holds even with the host's C^m
        # emptied, on planes as on contexts, on disconnected digraphs too
        for n in range(1, 4):
            space = range(generate.digraph_space_size(n))
            one_prey = [
                i
                for i in space
                if all(row.bit_count() == 1 for row in generate.digraph_at(n, i).out_rows)
            ]
            assert len(one_prey) == n**n
            p = bitslice.draws(n, one_prey)
            for m in range(1, 5):
                p._graphs[m] = [[0] * n for _ in range(n)]
                assert SUB_MONOTONE.plane(p, m) == p.full, (n, m)
                for i in one_prey:
                    ctx = ClaimContext(generate.digraph_at(n, i))
                    assert ctx.subdigraphs() == []
                    ctx._graphs[m] = Graph(n, [0] * n)
                    assert SUB_MONOTONE.check(ctx, m) is None, (ctx.d, m)

    def test_lemma_3_4_report_n4(self):
        report = verify_claims(["lemma_3_4"], 4, range(1, 7))[0]
        assert report.digraphs_examined == 50978
        assert report.hypothesis_hits == 305868
        assert report.counterexamples == []
        assert report.boundary_instances == []


class TestContextMemo:
    def test_k_stars_without_a_star_decomposition(self):
        # C^2 of the boundary digraph is a triangle: no stars to count
        ctx = ClaimContext(figure_digraphs()["fig4_D"])
        assert STAR_OK.check(ctx, 2) == "component [0, 1, 2]: not_a_star"

    def test_predator_bound_stops_once_powers_repeat(self):
        # D^i is eventually periodic, so at most a handful of powers are
        # built at n <= 3 however large m is
        for n in range(1, 4):
            for d in all_digraphs(n):
                ctx = ClaimContext(d)
                expected = PRED_BOUND.check(ClaimContext(d), 12)
                assert PRED_BOUND.check(ctx, 200) == expected, d
                assert len(ctx._powers) <= 8, d

    def test_predator_bound_detail_unchanged(self):
        # vertex 1 gets a third predator only at step 2
        ctx = ClaimContext(Digraph(3, [0b010, 0b011, 0b001]))
        assert PRED_BOUND.check(ctx, 10**9) == "vertex 1 has 3 2-step predators"


class TestContextMasks:
    """The source and weak-component masks a replay reads agree with the
    public operations, and ``n_components`` with ``components``.
    """

    @staticmethod
    def _check(d, m_values):
        ctx = ClaimContext(d)
        src = sources(d)
        weak = weak_components(d)
        assert ctx.source_mask == sum(1 << v for v in src)
        assert [frozenset(bits(comp)) for comp in ctx.weak_masks] == weak
        assert ctx.weakly_connected == (len(weak) == 1)
        assert (WEAK_SOURCES.check(ctx, 0) is None) == all(comp & src for comp in weak)
        for m in m_values:
            assert ctx.n_components(m) == len(components(ctx.graph(m)))

    def test_every_digraph_to_order_four(self):
        for n in range(1, 5):
            for d in every_digraph(n):
                self._check(d, (1, 2))

    def test_rows_wider_than_64_bits(self):
        for d in wide_digraphs(seed=3):
            self._check(d, (1, 2, 3))


class TestContextClassifier:
    """A replay context classifies on its own weak-component masks and
    agrees with the public classifier, disconnected digraphs included.
    """

    @staticmethod
    def _check(d):
        ctx = ClaimContext(d)
        assert (SG.check(ctx, 0) is None) is classify_star_generating(d).star_generating, d
        expected = all(rep.star_generating for _, rep in classify_components(d))
        assert ctx.all_weak_star_generating == expected, d
        return not ctx.weakly_connected

    def test_every_digraph_to_order_four(self):
        disconnected = sum(self._check(d) for n in range(1, 5) for d in every_digraph(n))
        assert disconnected > 0

    def test_rows_wider_than_64_bits(self):
        assert any([self._check(d) for d in wide_digraphs(seed=3)])

    def test_one_component_search_per_context(self, monkeypatch):
        searches = []
        search = digraph._component_masks

        def counting(*args):
            searches.append(args)
            return search(*args)

        monkeypatch.setattr(digraph, "_component_masks", counting)
        figs = figure_digraphs()
        two_components = from_arc_list(4, [(0, 1), (1, 1), (2, 3), (3, 3)])
        for d in (figs["fig2_D2"], figs["fig4_D"], two_components):
            searches.clear()
            ctx = ClaimContext(d)
            ctx.weak_masks, SG.check(ctx, 0), ctx.all_weak_star_generating
            assert len(searches) == 1, d

    def test_one_source_loop_per_context(self, monkeypatch):
        # the classifier takes the context's source mask, on each of two
        # weak components too, instead of finding the sources again
        loops = []
        source_mask = digraph._source_mask

        def counting(d):
            loops.append(d)
            return source_mask(d)

        monkeypatch.setattr(digraph, "_source_mask", counting)
        monkeypatch.setattr(classify, "_source_mask", counting)
        ctx = ClaimContext(from_arc_list(4, [(0, 1), (1, 1), (2, 3), (3, 3)]))
        for atom in (verify.HAS_SOURCE, SG, verify.ALL_WEAK_SG):
            atom.check(ctx, 0)
        # both components are star-generating, so both were classified
        assert not ctx.weakly_connected and ctx.all_weak_star_generating
        assert len(loops) == 1


class TestHitsByDirection:
    def test_report_line_carries_hits_per_direction_and_m(self):
        report = verify_claims(["thm_1_3"], 3, [1, 2])[0]
        data = json.loads(report.to_json_line())
        assert data["hits_by_direction"] == {
            "if": {"1": 8, "2": 8},
            "only_if": {"1": 20, "2": 8},
        }
        # only_if starts at m = 2, so its m = 1 hits are not counted
        assert data["hypothesis_hits"] == 8 + 8 + 8

    def test_grid_and_census(self):
        grid = verify_claims(["lemma_2_2"], 2, [1, 3])[0]
        assert grid.hits_by_direction == {"construction": {1: 4, 3: 4}}
        census = verify_claims(["thm_3_2"], 3, [])[0]
        assert census.hits_by_direction == {"count": {None: 2}}


class TestSharedReplays:
    def test_one_context_per_flagged_digraph(self, monkeypatch):
        # at m = 1 these three claims flag the same 384 digraphs twice over
        created = []
        init = ClaimContext.__init__

        def counting_init(self, d):
            created.append(d)
            init(self, d)

        monkeypatch.setattr(ClaimContext, "__init__", counting_init)
        reports = verify_claims(["lemma_3_6", "thm_1_3", "prop_3_7"], 4, [1])
        entries = [e for r in reports for e in r.counterexamples + r.boundary_instances]
        distinct = {(e["n"], tuple(map(tuple, e["arcs"]))) for e in entries}
        assert len(entries) == 768 and len(distinct) == 384
        assert len(created) == len(set(created)) == 384


class TestPlantedFailures:
    def test_grid_counterexamples_replay_only_while_planted(self, monkeypatch):
        # (2, 2) gets the (2, 3) construction: two sources, three components at every m
        real = generate.lemma_kl_digraph
        wrong = real(2, 3)
        with monkeypatch.context() as patch:
            patch.setattr(
                generate, "lemma_kl_digraph", lambda k, l: wrong if (k, l) == (2, 2) else real(k, l)
            )
            report = verify_claims(["lemma_2_2"], 3, [1, 2, 3])[0]
            entries = report.counterexamples
            assert entries == [
                {
                    "claim": "lemma_2_2",
                    "direction": "construction",
                    "n": 6,
                    "arcs": sorted(wrong.arcs()),
                    "m": m,
                    "detail": "expected 2 components, found 3",
                    "k": 2,
                    "l": 2,
                }
                for m in (1, 2, 3)
            ]
            assert all(replay_counterexample(entry) for entry in entries)
        assert not any(replay_counterexample(entry) for entry in entries)

    def test_grid_source_and_connectivity_details_replay_only_while_planted(self, monkeypatch):
        # (2, 2) gets the (1, 3) construction, one source; (1, 1) two weak components
        real = generate.lemma_kl_digraph
        planted = {(2, 2): real(1, 3), (1, 1): from_arc_list(3, [(0, 1), (1, 1), (2, 2)])}

        def built(k, l):
            return planted.get((k, l)) or real(k, l)

        with monkeypatch.context() as patch:
            patch.setattr(generate, "lemma_kl_digraph", built)
            report = verify_claims(["lemma_2_2"], 2, [1])[0]
            entries = [e for e in report.counterexamples if e["m"] is None]
            assert [(e["k"], e["l"], e["detail"]) for e in entries] == [
                (1, 1, "construction is not weakly connected"),
                (2, 2, "expected 2 sources, found 1"),
            ]
            assert all(replay_counterexample(entry) for entry in entries)
        assert not any(replay_counterexample(entry) for entry in entries)

    def _census_entry_replays_only_while_planted(self, monkeypatch, name, planted, detail):
        with monkeypatch.context() as patch:
            patch.setattr(generate, name, planted)
            report = verify_claims(["thm_3_2"], 4, [])[0]
            entry = {
                "claim": "thm_3_2",
                "direction": "count",
                "n": 4,
                "arcs": None,
                "m": None,
                "detail": detail,
            }
            assert report.counterexamples == [entry]
            assert replay_counterexample(entry)
        assert not replay_counterexample(entry)

    def test_census_class_count(self, monkeypatch):
        # one partition of 3 too many: order 4 expects four classes
        real = generate._partition_count
        self._census_entry_replays_only_while_planted(
            monkeypatch,
            "_partition_count",
            lambda total: real(total) + (total == 3),
            "order 4: 3 classes, expected 4",
        )

    def test_census_representatives(self, monkeypatch):
        # order 4 enumerates one representative too few
        real = generate.enumerate_single_source_star_generating
        self._census_entry_replays_only_while_planted(
            monkeypatch,
            "enumerate_single_source_star_generating",
            lambda n: list(real(n))[:-1] if n == 4 else real(n),
            "order 4: enumerated representatives do not cover the classes",
        )


class TestFailureDetails:
    def test_prey_monotone(self):
        # 1 and 2 share prey 3, which has no prey
        ctx = ClaimContext(Digraph(4, [0b0001, 0b1000, 0b1000, 0]))
        expected = "vertices 1 and 2 share a 1-step prey but no 2-step prey"
        assert verify._prey_monotone(ctx, 1) == expected

    def test_k_vs_l(self):
        # source 0 feeds the 2-cycle {1, 2}: C^1 is the edge {0, 2} and vertex 1
        ctx = ClaimContext(Digraph(3, [0b010, 0b100, 0b010]))
        assert K_EQ_L.check(ctx, 1) == "1 sources but 2 components"
        assert verify.K_LE_L.check(ctx, 1) is None

    def test_shared_predators_when_k_eq_l(self, monkeypatch):
        # sources 0 and 1 both feed 2 and 3; every non-source has two predators
        d = from_arc_list(6, [(0, 2), (0, 3), (1, 2), (1, 3), (2, 4), (3, 4), (4, 5), (5, 5)])
        assert verify._predators_when_k_eq_l(ClaimContext(d), 1) is None  # l = 3, k = 2
        # no digraph reaches this detail (``test_details_no_digraph_reaches``),
        # so l is set to k
        monkeypatch.setattr(
            ClaimContext, "n_components", lambda self, m: self.source_mask.bit_count()
        )
        expected = "l = k but vertices 2 and 3 share 2 m-step predators"
        assert verify._predators_when_k_eq_l(ClaimContext(d), 1) == expected

    def test_details_no_digraph_reaches(self):
        """No digraph reaches the shared-predator detail the test above
        forces, and a star decomposition always has k = l, one star per source.

        Shared predators: where every non-source has two m-step predators,
        each edge of C^m is the predator pair of some non-source, and two
        non-sources with the same pair leave at most n - k - 1 edges on n
        vertices, so l > k.  k = l: every star has a source center, so
        l <= k.  A source leaf s of a center c shares a prey x with c
        alone, so x's m-step predators are sources.  A walk along m-step
        prey from x cannot return to x, so it first repeats a vertex whose
        two predecessors on the walk are adjacent non-sources, and no star
        has an edge between non-sources.  So every source is a center, and
        k <= l.
        """
        for n in range(1, 4):
            for d in every_digraph(n):
                ctx = ClaimContext(d)
                for m in range(1, 5):
                    assert "share" not in (verify._predators_when_k_eq_l(ctx, m) or "")
                    assert STAR_OK.check(ctx, m) is not None or K_EQ_L.check(ctx, m) is None


# the 13 digraph claims but prop_2_1 and lemma_3_4 over orders <= 6 at m 2..6,
# written by the command under "Committed results" in README.md
ORDER6 = Path(__file__).resolve().parent.parent / "results" / "order6_m2-6.jsonl"


def _stirling2(n: int, k: int) -> int:
    """S(n, k), by inclusion-exclusion over the j of k blocks left empty."""
    return sum((-1) ** j * math.comb(k, j) * (k - j) ** n for j in range(k + 1)) // math.factorial(k)


def _connected_sg_count(n: int) -> int:
    """The (S, sigma, f) triples of order n whose digraph is weakly connected:
    S a source set, sigma a permutation of the other vertices giving arcs
    sigma(w) -> w, and f a map of them onto S giving arcs f(w) -> w.
    """
    count = 0
    for k in range(1, n):
        for s in itertools.combinations(range(n), k):
            rest = [v for v in range(n) if v not in s]
            for sigma in itertools.permutations(rest):
                for f in itertools.product(s, repeat=n - k):
                    if set(f) == set(s):
                        arcs = list(zip(sigma, rest)) + list(zip(f, rest))
                        count += len(weak_components(from_arc_list(n, arcs))) == 1
    return count


# n_max 5 always, and 6 on request
N_MAX = [
    5,
    pytest.param(
        6,
        marks=pytest.mark.skipif(
            os.environ.get("STARGEN_ORDER6") != "1",
            reason="order 6 runs on request: set STARGEN_ORDER6=1",
        ),
    ),
]


class TestClosedForms:
    """Hits summed over orders <= n_max, at every m in 2..6, against closed forms.

    - ``thm_1_3``: ONE_SOURCE and SG hold on the n! labelings of the
      single-source star-generating digraphs of each order n >= 2, and
      "only_if"'s HAS_SOURCE, CONNECTED and TF, the paper's count, on the
      same digraphs at every m >= 2.
    - ``lemma_2_6``: every vertex has one prey of its own exactly on the
      n! permutation digraphs, order 1 included.
    - ``lemma_3_6`` and ``thm_1_2``: WEAK_SOURCES and ALL_WEAK_SG pick k
      sources, a permutation of the other n - k vertices and a map of them
      onto the sources, n! * S(n - k, k) digraphs for each k >= 1; each
      "if" direction's hypothesis holds on the same set.
    - ``lemma_3_1`` and ``prop_3_3``: SG holds on the weakly connected ones
      among them, counted by building each from its triple.
    """

    @pytest.mark.parametrize("n_max", N_MAX)
    def test_hits_match_closed_forms(self, n_max):
        m_values = range(2, 7)
        reports = verify_claims(["thm_1_3", "lemma_2_6", "lemma_3_6", "thm_1_2"], n_max, m_values)
        orders = range(1, n_max + 1)
        one_source = sum(math.factorial(n) for n in orders if n >= 2)
        permutations = sum(math.factorial(n) for n in orders)
        weak_sg = sum(
            math.factorial(n) * sum(_stirling2(n - k, k) for k in range(1, n + 1)) for n in orders
        )

        def per_m(count):
            return dict.fromkeys(m_values, count)

        assert {r.claim_id: r.hits_by_direction for r in reports} == {
            "thm_1_3": {"if": per_m(one_source), "only_if": per_m(one_source)},
            "lemma_2_6": {"forward": {None: permutations}},
            "lemma_3_6": {"only_if": per_m(weak_sg), "if": per_m(weak_sg)},
            "thm_1_2": {"only_if": per_m(weak_sg), "if": per_m(weak_sg)},
        }
        assert all(r.verified and not r.boundary_instances for r in reports)
        if n_max == 6:
            committed = {}
            for line in ORDER6.read_text(encoding="utf-8").splitlines():
                entry = json.loads(line)
                assert entry["verified"] and not entry["boundary_instances"], entry["claim"]
                committed[entry.pop("claim")] = entry
            capped = {c.id for c in CATALOG.values() if c.kind == "digraph"}
            assert set(committed) == capped - {"prop_2_1", "lemma_3_4"}
            for rep in reports:
                fresh = json.loads(rep.to_json_line())
                del fresh["claim"], fresh["elapsed"]
                del committed[rep.claim_id]["elapsed"]
                assert fresh == committed[rep.claim_id], rep.claim_id

    @pytest.mark.parametrize("n_max", N_MAX)
    def test_sg_hits_match_an_independent_count(self, n_max):
        counts = [_connected_sg_count(n) for n in range(1, n_max + 1)]
        assert counts[:5] == [0, 2, 6, 36, 360]
        sg = sum(counts)
        assert sg == {5: 404, 6: 5324}[n_max]
        reports = verify_claims(["lemma_3_1", "prop_3_3"], n_max, [1, 2])
        assert {r.claim_id: r.hits_by_direction for r in reports} == {
            "lemma_3_1": {"forward": {None: sg}},
            "prop_3_3": {"forward": {1: sg, 2: sg}},
        }
        assert all(r.verified for r in reports)
        if n_max == 6:
            committed = [json.loads(line) for line in ORDER6.read_text(encoding="utf-8").splitlines()]
            hits = {e["claim"]: e["hits_by_direction"] for e in committed}
            assert hits["lemma_3_1"] == {"forward": {"null": sg}}
            assert hits["prop_3_3"] == {"forward": dict.fromkeys("23456", sg)}

    @pytest.mark.parametrize("n", range(2, 7))
    def test_census_representatives_label_n_factorial(self, n):
        # each representative R has n!/|Aut(R)| labelings, and together they
        # are the n! labeled single-source star-generating digraphs that
        # thm_1_3 "if" counts; automorphisms are counted here, not by generate
        def automorphisms(d):
            arcs = set(d.arcs())
            return sum(
                {(p[u], p[v]) for u, v in arcs} == arcs
                for p in itertools.permutations(range(d.n))
            )

        reps = list(generate.enumerate_single_source_star_generating(n))
        labelings = [math.factorial(n) // automorphisms(r) for r in reps]
        assert sum(labelings) == math.factorial(n)

    def test_m1_only_if_hits(self):
        # at m = 1, "only_if" holds on (n - 1)! * n**(n - 1) digraphs of each
        # order n >= 2, and the n! star-generating ones among them are "if"'s
        # hits; the rest are boundary instances below the m range
        (report,) = verify_claims(["thm_1_3"], 5, [1])
        only_if = {n: math.factorial(n - 1) * n ** (n - 1) for n in range(2, 6)}
        assert list(only_if.values()) == [2, 18, 384, 15_000]
        assert report.hits_by_direction == {"if": {1: 152}, "only_if": {1: 15_404}}
        boundary = Counter(e["n"] for e in report.boundary_instances)
        assert boundary == {n: only_if[n] - math.factorial(n) for n in range(3, 6)}
        assert len(report.boundary_instances) == 15_404 - 152 == 15_252
        # at n_max 4 the same rule gives the 372 that CI checks
        assert sum(boundary[n] for n in (3, 4)) == 372
