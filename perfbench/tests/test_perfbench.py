"""Tests of the benchmark itself, at tiny sizes (n <= 3, a few queries).

Run from the repository root:

    python3 -m pytest perfbench/tests -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH_DIR))

import run as bench  # noqa: E402
from speedprobe import SpeedProbe  # noqa: E402

BENCHMARK = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
END_TO_END = {m["name"] for m in BENCHMARK["end_to_end"]}
PER_LAYER = {m["name"] for m in BENCHMARK["per_layer"]}


def tiny(name):
    return {
        "catalog_n4": lambda: bench.Scan(bench.CATALOG_CALLS, 1e-3, n_max=3),
        "monotone_n4": lambda: bench.Scan(bench.MONOTONE_CALLS, 1e-3, n_max=3),
        "query_mixed": lambda: bench.Queries(1e-3, count=30, warmup=5),
    }[name]()


def counts(metrics):
    return {name: value for name, (value, unit) in metrics.items() if unit == "count"}


@pytest.mark.parametrize("name", sorted(bench.WORKLOADS))
def test_smoke_run_reports_every_end_to_end_metric(name):
    result = bench.measure(tiny(name), seed=7, seconds=0.01, trace=False, setups=2)
    tally = result["tally"]
    assert tally.attempted > 0
    assert tally.failed == 0, tally.notes
    assert set(result["metrics"]) == END_TO_END
    assert all(value > 0 for value, _ in result["metrics"].values())


def test_traced_counts_repeat_and_memo_ratios():
    runs = [
        bench.measure(tiny("catalog_n4"), seed=1, seconds=0.01, trace=True, setups=1)
        for _ in range(2)
    ]
    first, second = (r["metrics"] for r in runs)
    assert set(first) == PER_LAYER
    assert counts(first) == counts(second)
    assert counts(first)["verify.ClaimContext.created"] > 0
    assert first["verify.graph_memo_hit_ratio"][0] > 0

    monotone = bench.measure(tiny("monotone_n4"), seed=1, seconds=0.01, trace=True, setups=1)
    assert monotone["metrics"]["verify.ClaimContext.graph.calls"][0] > 0
    assert monotone["metrics"]["verify.graph_memo_hit_ratio"][0] == 0


def test_corrupted_golden_count_raises_error_rate():
    golden = {n: dict(rows) for n, rows in bench.GOLDEN.items()}
    examined, hits, boundary = golden[3]["prop_2_1"]
    golden[3]["prop_2_1"] = (examined, hits + 1, boundary)
    scan = bench.Scan(bench.CATALOG_CALLS, 1e-3, n_max=3, golden=golden)
    result = bench.measure(scan, seed=0, seconds=0.01, trace=False, setups=1)
    # the warm-up calls at n_max = 2 pass; the n_max = 3 call holding prop_2_1 fails
    assert result["info"]["error_rate"][0] == pytest.approx(1 / 6)
    assert "prop_2_1" in result["tally"].notes[0]


def test_wrong_competition_graph_fails_the_oracle_check():
    program = bench.load_program()
    oracles = bench.load_oracles()
    query = next(q for q in bench.make_queries(program, 3, 9) if q.family == "random")
    per_m, report = bench.analyse(program, query.digraph)
    assert bench.check_query(oracles, query, (per_m, report)) is None

    g = per_m[0][0]
    empty = program.competition.Graph(g.n, [0] * g.n)
    wrong = [(empty,) + per_m[0][1:]] + per_m[1:]
    assert "oracle" in bench.check_query(oracles, query, (wrong, report))


def test_probe_subtracts_its_own_time_and_scales_by_kernel_speed():
    probe = SpeedProbe(kernel=lambda: None, reference_s=1.0, sensitivity=0.5)
    probe.times = [1.0, 2.0, 3.0]
    probe.durations = [4.0, 4.0, 4.0]
    probe.busy = [0.0, 0.1, 0.2, 0.3]
    # samples at 1.0 and 2.0 fall inside: 0.2 s of probe time; (1 / 4) ** 0.5 = 0.5
    assert probe.seconds(0.5, 2.5) == pytest.approx((2.0 - 0.2) * 0.5)


def test_exits_without_result_when_sources_are_missing(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH_DIR.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "catalog_n4", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
