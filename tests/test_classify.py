import random
from itertools import product

import pytest
from hypothesis import given, settings

from conftest import digraphs, every_digraph
from stargen import (
    Digraph,
    all_digraphs,
    check_no_common_prey_functional,
    classify_components,
    classify_star_generating,
    enumerate_single_source_star_generating,
    figure_digraphs,
    from_arc_list,
    induced_subdigraph,
    is_disjoint_cycle_union,
    sources,
)
from stargen.classify import Verdict

FIGS = figure_digraphs()


def _disjoint_union(a, b):
    arcs = list(a.arcs()) + [(u + a.n, v + a.n) for u, v in b.arcs()]
    return from_arc_list(a.n + b.n, arcs)


class TestClassify:
    def test_fig1_d2_is_star_generating(self):
        report = classify_star_generating(FIGS["fig1_D2"])
        assert report.star_generating
        assert report.s1 and report.s2 and report.s3

    def test_fig4_fails_s3(self):
        report = classify_star_generating(FIGS["fig4_D"])
        assert not report.star_generating
        assert not report.s3
        assert report.s3.witness == {"vertex": 1, "prey": [1, 2]}

    def test_two_cycle_has_no_source(self):
        report = classify_star_generating(from_arc_list(2, [(0, 1), (1, 0)]))
        assert not report.star_generating
        assert not report.s1
        assert report.s1.witness == {"problem": "no source"}

    def test_all_figures(self):
        expected = {
            "fig1_D1": True,
            "fig1_D2": True,
            "fig2_D1": True,
            "fig2_D2": True,
            "fig2_D3": True,
            "fig4_D": False,
        }
        for name, want in expected.items():
            assert classify_star_generating(FIGS[name]).star_generating == want

    def test_report_serialization(self):
        import json

        data = classify_star_generating(FIGS["fig4_D"]).to_dict()
        assert set(data) == {
            "min_outdegree_one",
            "weakly_connected",
            "s1",
            "s2",
            "s3",
            "star_generating",
            "witnesses",
        }
        json.dumps(data)  # must be serializable as-is


class TestConnectivityWitness:
    def test_three_components_pin_the_first_two_minima(self):
        # weak components {0, 1, 4}, {2, 6}, {3, 5}
        d = from_arc_list(7, [(0, 1), (1, 4), (4, 0), (2, 6), (6, 2), (3, 5), (5, 5)])
        verdict = classify_star_generating(d).weakly_connected
        assert verdict == Verdict(False, {"components": 3, "separated": [0, 2]})

    def test_connected_has_no_witness(self):
        assert classify_star_generating(FIGS["fig1_D2"]).weakly_connected == Verdict(True)


class TestResultValues:
    def test_verdict_and_report_have_no_dict(self):
        report = classify_star_generating(FIGS["fig1_D2"])
        assert not hasattr(report, "__dict__")
        assert not hasattr(report.s1, "__dict__")
        assert report == classify_star_generating(FIGS["fig1_D2"])
        assert hash(report) == hash(classify_star_generating(FIGS["fig1_D2"]))

    def test_verdicts_compare_and_hash_as_values(self):
        assert Verdict(True) == Verdict(True, None) and hash(Verdict(True)) == hash(Verdict(True))
        assert Verdict(False, {"problem": "no source"}) == Verdict(False, {"problem": "no source"})
        assert Verdict(True) != Verdict(False)
        assert bool(Verdict(True)) and not Verdict(False)
        with pytest.raises(TypeError):
            hash(Verdict(False, {"problem": "no source"}))  # the witness is a dict


def _witness_violates(d, name, witness):
    """Replay a witness against the defining condition it claims to break."""
    src = sources(d)
    if name == "min_outdegree_one":
        return not d.out_rows[witness["vertex"]]
    if name == "weakly_connected":
        a, b = witness["separated"]
        from stargen import weak_components

        return not any(a in c and b in c for c in weak_components(d))
    if name == "s1":
        if witness == {"problem": "no source"}:
            return not src
        v, w = witness["source"], witness["prey"]
        return v in src and d.has_arc(v, w) and len(d.in_neighbors(w)) != 2
    if name == "s2":
        a, b = witness["sources"]
        w = witness["common_prey"]
        return a in src and b in src and d.has_arc(a, w) and d.has_arc(b, w)
    if name == "s3":
        u = witness["vertex"]
        if u in src:
            return False
        if "prey" in witness:
            return len(d.out_neighbors(u)) != 1
        preds = d.in_neighbors(u)
        return len(preds) != 2 or len(preds & src) != 1
    raise AssertionError(name)


class TestWitnessReplay:
    def test_false_verdicts_carry_valid_witnesses(self):
        checked = 0
        for d in all_digraphs(3):
            report = classify_star_generating(d)
            for name in ("min_outdegree_one", "weakly_connected", "s1", "s2", "s3"):
                verdict = getattr(report, name)
                if not verdict:
                    assert _witness_violates(d, name, verdict.witness), (d, name)
                    checked += 1
        assert checked > 100

    @given(digraphs(max_n=6, min_outdegree_one=False))
    @settings(max_examples=200)
    def test_witnesses_random(self, d):
        report = classify_star_generating(d)
        for name in ("min_outdegree_one", "weakly_connected", "s1", "s2", "s3"):
            verdict = getattr(report, name)
            if not verdict:
                assert _witness_violates(d, name, verdict.witness)


class TestClassifyComponents:
    def test_two_star_generating_components(self):
        union = _disjoint_union(FIGS["fig1_D1"], FIGS["fig2_D3"])
        results = classify_components(union)
        assert [comp for comp, _ in results] == [
            frozenset({0, 1, 2}),
            frozenset({3, 4, 5, 6}),
        ]
        assert all(rep.star_generating for _, rep in results)

    def test_weakly_connected_matches_whole(self):
        for d in FIGS.values():
            results = classify_components(d)
            assert len(results) == 1
            comp, rep = results[0]
            assert comp == frozenset(range(d.n))
            whole = classify_star_generating(d)
            assert rep.star_generating == whole.star_generating
            assert rep.to_dict() == whole.to_dict()

    def test_mixed_verdicts(self):
        two_cycle = from_arc_list(2, [(0, 1), (1, 0)])
        union = _disjoint_union(FIGS["fig1_D1"], two_cycle)
        results = classify_components(union)
        assert [rep.star_generating for _, rep in results] == [True, False]
        # witness vertices are reported in the original labels
        _, bad = results[1]
        assert bad.s1.witness == {"problem": "no source"}


class TestS3ImpliesS1AndS2:
    def test_every_component_to_order_four(self):
        # the lemma behind PlaneContext.all_weak_star_generating's one S3 term:
        # a source's prey is no source, so S3 gives it two predators, one a source
        found = 0
        for n in range(1, 5):
            for d in all_digraphs(n):
                for comp, report in classify_components(d):
                    if report.s3:
                        found += 1
                        assert report.s2, (d, comp)
                        assert report.s1 or report.s1.witness == {"problem": "no source"}, (d, comp)
        assert found == 182


class TestDisjointCycleUnion:
    def test_fig2_d2_minus_source(self):
        sub, _ = induced_subdigraph(FIGS["fig2_D2"], {1, 2, 3})
        ok, cycles = is_disjoint_cycle_union(sub)
        assert ok
        assert cycles == [(0, 2), (1,)]

    def test_single_loop(self):
        ok, cycles = is_disjoint_cycle_union(from_arc_list(1, [(0, 0)]))
        assert ok and cycles == [(0,)]

    def test_fig4_is_not(self):
        ok, cycles = is_disjoint_cycle_union(FIGS["fig4_D"])
        assert not ok and cycles is None

    def test_cycle_ordering_is_canonical(self):
        d = from_arc_list(6, [(5, 3), (3, 5), (1, 1), (0, 2), (2, 4), (4, 0)])
        ok, cycles = is_disjoint_cycle_union(d)
        assert ok
        assert cycles == [(0, 2, 4), (1,), (3, 5)]


class TestNoCommonPreyFunctional:
    def test_three_cycle(self):
        assert check_no_common_prey_functional(from_arc_list(3, [(0, 1), (1, 2), (2, 0)]))

    def test_fig1_d1_has_two_prey(self):
        assert not check_no_common_prey_functional(FIGS["fig1_D1"])

    def test_shared_prey(self):
        d = from_arc_list(2, [(0, 0), (1, 1), (0, 1)])
        assert not check_no_common_prey_functional(d)

    def test_implies_cycle_union_exhaustively(self):
        # every functional digraph on up to 5 vertices
        for n in range(1, 6):
            for targets in product(range(n), repeat=n):
                d = Digraph(n, [1 << t for t in targets])
                if check_no_common_prey_functional(d):
                    assert is_disjoint_cycle_union(d)[0]


class TestSourceRemovalLeavesCycles:
    def test_enumerated_star_generating(self):
        for n in range(2, 11):
            for d in enumerate_single_source_star_generating(n):
                keep = set(range(d.n)) - sources(d)
                sub, _ = induced_subdigraph(d, keep)
                assert is_disjoint_cycle_union(sub)[0]

    def test_brute_forced_star_generating_n4(self):
        found = 0
        for n in (2, 3, 4):
            for d in all_digraphs(n):
                if classify_star_generating(d).star_generating:
                    found += 1
                    keep = set(range(d.n)) - sources(d)
                    sub, _ = induced_subdigraph(d, keep)
                    assert is_disjoint_cycle_union(sub)[0]
        assert found > 0


_CONDITIONS = ("min_outdegree_one", "weakly_connected", "s1", "s2", "s3")


def _seeded_unions(seed, count, max_n):
    """Disjoint unions of small random digraphs, relabeled at random."""
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(2, max_n)
        arcs, base = [], 0
        while base < n:
            size = min(n - base, rng.randint(1, 4))
            density = rng.random()
            arcs += [
                (base + u, base + v)
                for u in range(size)
                for v in range(size)
                if rng.random() < density
            ]
            base += size
        label = rng.sample(range(n), n)
        yield from_arc_list(n, [(label[u], label[v]) for u, v in arcs])


def _witness_vertices(witness):
    # every witness value names vertices, except a problem and a count
    named = set()
    for key, value in witness.items():
        if key not in ("problem", "components"):
            named.update(value if isinstance(value, list) else [value])
    return named


def _assert_components_classified_in_place(d):
    src = sources(d)
    for comp, report in classify_components(d):
        sub, _ = induced_subdigraph(d, comp)
        alone = classify_star_generating(sub)
        for name in _CONDITIONS:
            verdict = getattr(report, name)
            assert verdict.holds == getattr(alone, name).holds, (d, comp, name)
            if verdict:
                continue
            assert _witness_vertices(verdict.witness) <= comp, (d, comp, name)
            if verdict.witness == {"problem": "no source"}:
                # D may have sources in other components
                assert comp.isdisjoint(src), (d, comp)
            else:
                assert _witness_violates(d, name, verdict.witness), (d, comp, name)


class TestComponentsInPlace:
    def test_every_digraph_to_order_four(self):
        for n in range(1, 5):
            for d in every_digraph(n):
                _assert_components_classified_in_place(d)

    def test_seeded_disjoint_unions(self):
        for d in _seeded_unions(seed=18, count=400, max_n=12):
            _assert_components_classified_in_place(d)
