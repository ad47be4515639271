"""Benchmark of stargen's exhaustive claim scans and single-digraph queries.

Run from the root of a stargen checkout:

    python3 perfbench/run.py --workload catalog_n4 --seed 1 --seconds 20 --trace 0

Workloads (see BENCHMARK.json for why each was chosen):

* ``catalog_n4``: the claim catalog except ``lemma_3_4`` over all 50 978
  digraphs with n <= 4, as three ``stargen verify`` calls grouped by m-set
  (none, 1..6, 2..6), the way acceptance criterion 4 groups them.
* ``monotone_n4``: ``lemma_3_4`` alone over n <= 4 with m = 1..6, through
  the same CLI path.  It builds a fresh ``ClaimContext`` per one-arc
  deletion, so the per-context memo never hits.
* ``query_mixed``: what ``stargen compete`` at m in {1, 2, 3, n, 2**60}
  plus ``stargen classify`` compute, one digraph at a time, on 3 000
  digraphs of order 6..16 generated from ``--seed``.  Only this workload
  reads the seed.

A run imports the program from ``src/`` of the checkout, generates its
inputs and warms up, five times over; ``setup_s`` is the median.  It then
repeats passes over the workload until ``--seconds`` have elapsed, and
reports the median pass time as ``wall_s``.  All times are converted to
seconds at a reference CPU speed by ``speedprobe.SpeedProbe``, which
samples the machine's speed throughout the run.  Every output is checked
outside the timed region: scan reports against golden counts, query
results against the independent oracles in ``tests/oracles.py``.  With
``--trace 1`` one more pass runs with every layer wrapped by
``layertrace.Tracer`` and the per-layer metrics are printed instead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before
it list the same metrics, plus ``error_rate`` and sample counts, for
people.  Without ``src/stargen`` in the checkout the run exits with
status 1 and prints no result.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import importlib.util
import io
import json
import math
import random
import resource
import shutil
import statistics
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import stargen_ref
from layertrace import Tracer
from speedprobe import SpeedProbe

ROOT = Path(__file__).resolve().parent.parent
SCRATCH = ROOT / ".perfbench_tmp"
SETUP_REPEATS = 5

# (m values, claim ids) per `stargen verify` call
CATALOG_CALLS = (
    ((), ("lemma_2_6", "lemma_3_1", "thm_3_2")),
    (
        (1, 6),
        (
            "lemma_2_2",
            "prop_2_1",
            "prop_2_3",
            "lemma_2_4",
            "prop_3_3",
            "lemma_3_6",
            "prop_3_7",
            "thm_1_2",
            "thm_1_3",
        ),
    ),
    ((2, 6), ("prop_2_5", "thm_2_7", "lemma_3_5", "cor_3_8")),
)
MONOTONE_CALLS = (((1, 6), ("lemma_3_4",)),)

# n_max -> claim -> (digraphs examined, hypothesis hits, boundary instances).
# The n_max = 4 row restates the seed-commit reports of the full scans; the
# smaller rows serve the warm-up scans and the benchmark's own tests.
GOLDEN = {
    4: {
        "lemma_2_6": (50978, 33, 0),
        "lemma_3_1": (50978, 44, 0),
        "thm_3_2": (50977, 3, 0),
        "lemma_2_2": (16, 96, 0),
        "prop_2_1": (50978, 305868, 0),
        "prop_2_3": (50978, 10788, 0),
        "lemma_2_4": (50978, 2058, 0),
        "prop_3_3": (50978, 264, 0),
        "lemma_3_6": (50978, 616, 384),
        "prop_3_7": (50978, 988, 12),
        "thm_1_2": (50978, 616, 0),
        "thm_1_3": (50978, 352, 372),
        "prop_2_5": (50978, 220, 0),
        "thm_2_7": (50978, 220, 0),
        "lemma_3_5": (50978, 1090, 0),
        "cor_3_8": (50978, 280, 0),
        "lemma_3_4": (50978, 305868, 0),
    },
    3: {
        "lemma_2_6": (353, 9, 0),
        "lemma_3_1": (353, 8, 0),
        "thm_3_2": (352, 2, 0),
        "lemma_2_2": (9, 54, 0),
        "prop_2_1": (353, 2118, 0),
        "prop_2_3": (353, 504, 0),
        "lemma_2_4": (353, 102, 0),
        "prop_3_3": (353, 48, 0),
        "lemma_3_6": (353, 88, 12),
        "prop_3_7": (353, 100, 0),
        "thm_1_2": (353, 88, 0),
        "thm_1_3": (353, 88, 12),
        "prop_2_5": (353, 40, 0),
        "thm_2_7": (353, 40, 0),
        "lemma_3_5": (353, 70, 0),
        "cor_3_8": (353, 40, 0),
        "lemma_3_4": (353, 2118, 0),
    },
    2: {
        "lemma_2_6": (10, 3, 0),
        "lemma_3_1": (10, 2, 0),
        "thm_3_2": (9, 1, 0),
        "lemma_2_2": (4, 24, 0),
        "prop_2_1": (10, 60, 0),
        "prop_2_3": (10, 60, 0),
        "lemma_2_4": (10, 12, 0),
        "prop_3_3": (10, 12, 0),
        "lemma_3_6": (10, 22, 0),
        "prop_3_7": (10, 22, 0),
        "thm_1_2": (10, 22, 0),
        "thm_1_3": (10, 22, 0),
        "prop_2_5": (10, 10, 0),
        "thm_2_7": (10, 10, 0),
        "lemma_3_5": (10, 10, 0),
        "cor_3_8": (10, 10, 0),
        "lemma_3_4": (10, 60, 0),
    },
}

QUERY_COUNT = 3000
QUERY_WARMUP = 100
QUERY_FAMILIES = ("random", "partition", "kl")

# speed-probe kernels: scans check this many fixed digraphs per call, the
# query kernel analyses this many fixed queries; both with stargen_ref
KERNEL_DIGRAPHS = 6
KERNEL_QUERIES = 6


def query_ms(n: int) -> tuple[int, ...]:
    return (1, 2, 3, n, 2**60)


def digraph_space(n_max: int) -> int:
    """Labeled digraphs with all outdegrees >= 1 and order 1..n_max."""
    return sum((2**n - 1) ** n for n in range(1, n_max + 1))


class Tally:
    """Operations attempted and failed, with the first few failure notes."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []

    def record(self, ok: bool, note: str | None = None, count: int = 1) -> None:
        self.attempted += count
        if not ok:
            self.failed += count
            if len(self.notes) < 10:
                self.notes.append(note or "failed")


def load_program():
    """Import ``stargen`` afresh from ``src/`` of this checkout.

    Exits with status 1 when the checkout has no sources, so a stray
    installed copy is never measured.
    """
    src = ROOT / "src"
    init = src / "stargen" / "__init__.py"
    if not init.is_file():
        raise SystemExit(f"perfbench: {init} not found; run from a stargen checkout")
    for key in [k for k in sys.modules if k == "stargen" or k.startswith("stargen.")]:
        del sys.modules[key]
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    program = importlib.import_module("stargen")
    importlib.import_module("stargen.cli")
    if Path(program.__file__).resolve() != init.resolve():
        raise SystemExit(f"perfbench: imported stargen from {program.__file__}, not {init}")
    return program


def load_oracles():
    """The independent reference implementations in ``tests/oracles.py``."""
    path = ROOT / "tests" / "oracles.py"
    if not path.is_file():
        raise SystemExit(f"perfbench: {path} not found; run from a stargen checkout")
    spec = importlib.util.spec_from_file_location("perfbench_oracles", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# --- exhaustive scans through the CLI ----------------------------------------


class Scan:
    """``stargen verify`` calls made in-process through ``stargen.cli.run``.

    A pass makes every call once at ``n_max``; the warm-up makes them at
    ``n_max - 1``.  Each call is one operation: it fails on an exception, a
    nonzero exit code, a counterexample, or a count that differs from
    ``golden``.
    """

    sensitivity = 0.7  # fitted over 2 000-digraph chunks of both scans

    def __init__(self, calls, reference_s: float, n_max: int = 4, golden=None):
        self.calls = calls
        self.reference_s = reference_s
        self.n_max = n_max
        self.golden = GOLDEN if golden is None else golden
        # every call includes at least one digraph-kind claim
        self.items_per_pass = len(calls) * digraph_space(n_max)

    def kernel(self, ref):
        """``ref``'s per-digraph check of every call's claims on fixed digraphs."""
        total = ref.generate.digraph_space_size(self.n_max)
        digraphs = [
            ref.generate.digraph_at(self.n_max, i * total // KERNEL_DIGRAPHS)
            for i in range(KERNEL_DIGRAPHS)
        ]
        groups = [
            (
                [cid for cid in claim_ids if ref.verify.CATALOG[cid].kind == "digraph"],
                list(range(m_range[0], m_range[1] + 1)) if m_range else [],
            )
            for m_range, claim_ids in self.calls
        ]

        def check():
            for claim_ids, m_list in groups:
                acc = {cid: ([0], [], []) for cid in claim_ids}
                for d in digraphs:
                    ref.verify._check_digraph(d, claim_ids, m_list, acc)

        return check

    def setup(self, program, seed: int, tally: Tally, workdir: Path) -> None:
        self.program = program
        self.report_path = workdir / "report.jsonl"
        self._pass(self.n_max - 1, tally)

    def run_pass(self, tally: Tally) -> list[tuple[float, float]]:
        return self._pass(self.n_max, tally)

    def finish(self, tally: Tally) -> None:
        pass

    def _pass(self, n_max: int, tally: Tally) -> list[tuple[float, float]]:
        spans = []
        for m_range, claim_ids in self.calls:
            argv = ["verify", "--n-max", str(n_max), "--report", str(self.report_path)]
            for cid in claim_ids:
                argv += ["--claim", cid]
            if m_range:
                argv += ["--m", f"{m_range[0]}..{m_range[1]}"]
            self.report_path.unlink(missing_ok=True)
            start = time.perf_counter()
            try:
                with contextlib.redirect_stdout(io.StringIO()):
                    code = self.program.cli.run(argv)
            except Exception as exc:  # the program failed; count it, keep measuring
                spans.append((start, time.perf_counter()))
                tally.record(False, f"verify {claim_ids} n_max={n_max}: {exc!r}")
                continue
            spans.append((start, time.perf_counter()))
            problem = self._check(code, claim_ids, n_max)
            tally.record(problem is None, f"verify {claim_ids} n_max={n_max}: {problem}")
        return spans

    def _check(self, code: int, claim_ids, n_max: int) -> str | None:
        if code != 0:
            return f"exit code {code}"
        try:
            lines = self.report_path.read_text(encoding="utf-8").splitlines()
            reports = {r["claim"]: r for r in map(json.loads, lines)}
            if sorted(reports) != sorted(claim_ids):
                return f"reports for {sorted(reports)}"
            golden = self.golden[n_max]
            for cid in claim_ids:
                r = reports[cid]
                if not r["verified"] or r["counterexamples"]:
                    return f"{cid}: {len(r['counterexamples'])} counterexamples"
                got = (r["digraphs_examined"], r["hypothesis_hits"], len(r["boundary_instances"]))
                if got != golden[cid]:
                    return f"{cid}: (examined, hits, boundary) = {got}, expected {golden[cid]}"
        except (OSError, ValueError, KeyError, TypeError) as exc:
            return f"unreadable report: {exc!r}"
        return None


# --- single-digraph queries --------------------------------------------------


@dataclass(frozen=True)
class Query:
    family: str
    n: int
    arcs: tuple[tuple[int, int], ...]
    digraph: object
    expect: int | None  # partition: the source vertex; kl: the component count l


def _relabeled(rng: random.Random, n: int, arcs) -> tuple[list[int], list[tuple[int, int]]]:
    perm = list(range(n))
    rng.shuffle(perm)
    return perm, sorted((perm[u], perm[v]) for u, v in arcs)


def _random_partition(rng: random.Random, total: int) -> tuple[int, ...]:
    parts = []
    while total:
        part = rng.randint(1, total)
        parts.append(part)
        total -= part
    return tuple(sorted(parts, reverse=True))


def make_queries(program, seed: int, count: int) -> list[Query]:
    """``count`` digraphs of order 6..16 in three equal families, shuffled.

    random: out-degree 1..3 per vertex; partition: relabeled
    ``star_generating_from_partition``; kl: relabeled
    ``lemma_kl_digraph(k, l)`` with k, l <= 7.
    """
    rng = random.Random(seed)
    gen, digraph_cls = program.generate, program.digraph.Digraph
    queries = []
    for i in range(count):
        family = QUERY_FAMILIES[i % 3]
        expect = None
        if family == "random":
            n = rng.randint(6, 16)
            arcs = sorted(
                (u, v) for u in range(n) for v in rng.sample(range(n), rng.randint(1, 3))
            )
        elif family == "partition":
            n = rng.randint(6, 16)
            base = gen.star_generating_from_partition(_random_partition(rng, n - 1))
            perm, arcs = _relabeled(rng, n, base.arcs())
            expect = perm[0]
        else:
            k, l = rng.randint(1, 7), rng.randint(1, 7)
            while k + l < 5:
                k, l = rng.randint(1, 7), rng.randint(1, 7)
            n = k + l + 1
            _, arcs = _relabeled(rng, n, gen.lemma_kl_digraph(k, l).arcs())
            expect = l
        rows = [0] * n
        for u, v in arcs:
            rows[u] |= 1 << v
        queries.append(Query(family, n, tuple(arcs), digraph_cls(n, rows), expect))
    rng.shuffle(queries)
    return queries


def analyse(program, d):
    """In-process ``stargen compete`` at each query m, then ``stargen classify``."""
    competition, digraph = program.competition, program.digraph
    per_m = []
    for m in query_ms(d.n):
        g = competition.competition_graph(d, m)
        per_m.append(
            (
                g,
                competition.is_triangle_free(g),
                competition.components(g),
                competition.star_decomposition(g, digraph.sources(d)),
            )
        )
    return per_m, program.classify.classify_star_generating(d)


def _oracle_components(n: int, edges) -> set[frozenset[int]]:
    adj = {v: set() for v in range(n)}
    for e in edges:
        a, b = tuple(e)
        adj[a].add(b)
        adj[b].add(a)
    comps, seen = set(), set()
    for v in range(n):
        if v in seen:
            continue
        comp, todo = {v}, [v]
        while todo:
            for w in adj[todo.pop()] - comp:
                comp.add(w)
                todo.append(w)
        seen |= comp
        comps.add(frozenset(comp))
    return comps


def _star_decomposable(edges, comps, sources) -> bool:
    """Every component is a nontrivial star with a center among ``sources``."""
    for comp in comps:
        inner = [e for e in edges if e <= comp]
        if len(comp) < 2 or len(inner) != len(comp) - 1:
            return False
        degree = {v: sum(v in e for e in inner) for v in comp}
        centers = [v for v in comp if degree[v] == len(comp) - 1]
        if not any(c in sources for c in centers):
            return False
    return True


def check_query(oracles, q: Query, result) -> str | None:
    """Compare one query's outputs with the oracles; None when all agree."""
    per_m, report = result
    n = q.n
    sources = set(range(n)) - {v for _, v in q.arcs}
    for m, (g, triangle, comps, decomposition) in zip(query_ms(n), per_m):
        edges = oracles.competition_edges(n, q.arcs, m)
        got = {
            frozenset((u, v)) for u in range(n) for v in range(u + 1, n) if g.rows[u] >> v & 1
        }
        if got != edges or any(g.rows[u] >> u & 1 for u in range(n)):
            return f"{q.family} n={n} m={m}: competition graph differs from the oracle"
        if triangle[0] == oracles.has_triangle(edges, n):
            return f"{q.family} n={n} m={m}: triangle verdict {triangle[0]} is wrong"
        expected_comps = _oracle_components(n, edges)
        if set(comps) != expected_comps or len(comps) != len(expected_comps):
            return f"{q.family} n={n} m={m}: components differ from the oracle"
        if bool(decomposition) != _star_decomposable(edges, expected_comps, sources):
            return f"{q.family} n={n} m={m}: star decomposition verdict is wrong"
        if q.family == "kl" and len(expected_comps) != q.expect:
            return f"kl n={n} m={m}: {len(expected_comps)} components, expected {q.expect}"
        if q.family == "partition" and (
            not decomposition or [s.center for s in decomposition.stars] != [q.expect]
        ):
            return f"partition n={n} m={m}: not one star centred at the source"
    if q.family == "partition" and not report.star_generating:
        return f"partition n={n}: classified as not star-generating"
    return None


class Queries:
    """One operation is one ``analyse`` call; a pass runs every query once.

    The first execution of each query is kept as its reference and later
    checked against the oracles; every later execution must equal it.
    """

    sensitivity = 1.0  # fitted over passes; the kernel is a sample of the workload

    def __init__(self, reference_s: float, count: int = QUERY_COUNT, warmup: int = QUERY_WARMUP):
        self.reference_s = reference_s
        self.count = count
        self.warmup = min(warmup, count)
        self.items_per_pass = count

    def kernel(self, ref):
        """``ref``'s analysis of fixed queries, the same for every seed."""
        queries = make_queries(ref, 0, KERNEL_QUERIES)

        def analyse_all():
            for q in queries:
                analyse(ref, q.digraph)

        return analyse_all

    def setup(self, program, seed: int, tally: Tally, workdir: Path) -> None:
        self.program = program
        self.oracles = load_oracles()
        self.queries = make_queries(program, seed, self.count)
        self.reference = [None] * self.count
        self.matches = [0] * self.count  # executions equal to the reference
        for i in range(self.warmup):
            self._execute(i, tally)

    def run_pass(self, tally: Tally) -> list[tuple[float, float]]:
        return [self._execute(i, tally) for i in range(self.count)]

    def _execute(self, i: int, tally: Tally) -> tuple[float, float]:
        start = time.perf_counter()
        try:
            result = analyse(self.program, self.queries[i].digraph)
        except Exception as exc:  # the program failed; count it, keep measuring
            span = (start, time.perf_counter())
            tally.record(False, f"query {i}: {exc!r}")
            return span
        span = (start, time.perf_counter())
        if self.reference[i] is None:
            self.reference[i] = result
        if result == self.reference[i]:
            self.matches[i] += 1  # judged in finish()
        else:
            tally.record(False, f"query {i}: result changed between executions")
        return span

    def finish(self, tally: Tally) -> None:
        for i, q in enumerate(self.queries):
            if self.matches[i]:
                try:
                    problem = check_query(self.oracles, q, self.reference[i])
                except Exception as exc:  # malformed program output
                    problem = f"unreadable result: {exc!r}"
                tally.record(problem is None, f"query {i}: {problem}", self.matches[i])


# the reference_s values are the kernels' median times on the machine that
# recorded baseline.json; they set the unit of the reported times
WORKLOADS = {
    "catalog_n4": lambda: Scan(CATALOG_CALLS, reference_s=1.6e-3),
    "monotone_n4": lambda: Scan(MONOTONE_CALLS, reference_s=1.0e-3),
    "query_mixed": lambda: Queries(reference_s=4.0e-3),
}


# --- measurement -------------------------------------------------------------


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile, q in (0, 100]."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100 * len(ordered)) - 1)]


def layer_metrics(tracer: Tracer, scale: float) -> dict[str, tuple[float, str]]:
    """Per-layer counts and self times; ``scale`` converts to reference seconds."""
    calls = tracer.calls
    self_s = {name: t * scale for name, t in tracer.self_s.items()}
    out = {
        "generate.all_digraphs.items": (tracer.items.get("generate.all_digraphs", 0), "count"),
        "generate.all_digraphs.self_s": (self_s.get("generate.all_digraphs", 0.0), "s"),
    }
    for name in (
        "digraph.compose",
        "digraph.m_step_digraph",
        "digraph.sources",
        "digraph.weak_components",
        "digraph.induced_subdigraph",
        "competition.competition_graph",
        "competition.is_triangle_free",
        "competition.components",
        "competition.star_decomposition",
        "classify.classify_star_generating",
        "classify.classify_components",
        "classify.is_disjoint_cycle_union",
        "classify.check_no_common_prey_functional",
        "verify.ClaimContext.graph",
        "verify.ClaimContext.power",
    ):
        out[f"{name}.calls"] = (calls.get(name, 0), "count")
        out[f"{name}.self_s"] = (self_s.get(name, 0.0), "s")
    for name in ("verify.verify_claims", "verify.write_report_lines", "cli.run", "verify.ClaimContext.init"):
        out[f"{name}.self_s"] = (self_s.get(name, 0.0), "s")
    out["verify.ClaimContext.created"] = (calls.get("verify.ClaimContext.init", 0), "count")

    def hit_ratio(lookups: int, misses: int) -> float:
        return 1 - misses / lookups if lookups else 0.0

    out["verify.graph_memo_hit_ratio"] = (
        hit_ratio(calls.get("verify.ClaimContext.graph", 0), calls.get("competition.competition_graph", 0)),
        "ratio",
    )
    out["verify.power_memo_hit_ratio"] = (
        hit_ratio(
            calls.get("verify.ClaimContext.power", 0),
            calls.get("digraph.compose", 0) + calls.get("digraph.m_step_digraph", 0),
        ),
        "ratio",
    )
    return out


def measure(workload, seed: int, seconds: float, trace: bool, setups: int = SETUP_REPEATS) -> dict:
    """Set up, run timed passes for ``seconds``, check, and return the result.

    Every time is converted to reference seconds by ``SpeedProbe``.
    """
    tally = Tally()
    SCRATCH.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=SCRATCH))
    tracer = None
    try:
        with SpeedProbe(
            workload.kernel(stargen_ref), workload.reference_s, workload.sensitivity
        ) as probe:
            setup_spans = []
            for _ in range(setups):
                start = time.perf_counter()
                workload.setup(load_program(), seed, tally, workdir)
                setup_spans.append((start, time.perf_counter()))

            passes = []
            began = time.perf_counter()
            while True:
                passes.append(workload.run_pass(tally))
                if time.perf_counter() - began >= seconds:
                    break
            peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

            if trace:
                tracer = Tracer()
                tracer.install()
                try:
                    traced = workload.run_pass(tally)
                finally:
                    tracer.uninstall()
        workload.finish(tally)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            SCRATCH.rmdir()  # only when no concurrent run still uses it

    latencies = [[probe.seconds(*span) for span in spans] for spans in passes]
    wall_s = statistics.median(sum(lat) for lat in latencies)
    samples = [x for lat in latencies for x in lat]
    info = {
        "error_rate": (tally.failed / tally.attempted, "ratio"),
        "passes": (len(passes), "count"),
        "wall_unscaled_s": (statistics.median(sum(e - s for s, e in spans) for spans in passes), "s"),
        "latency_samples": (len(samples), "count"),
        "probe_samples": (len(probe.durations), "count"),
        "probe_median_s": (statistics.median(probe.durations), "s"),
    }
    if tracer is None:
        metrics = {
            "setup_s": (statistics.median(probe.seconds(*span) for span in setup_spans), "s"),
            "wall_s": (wall_s, "s"),
            "digraphs_per_s": (workload.items_per_pass / wall_s, "1/s"),
            "query_p50_us": (statistics.median(samples) * 1e6, "us"),
            "query_p99_us": (percentile(samples, 99) * 1e6, "us"),
            "peak_rss_mib": (peak_rss_mib, "MiB"),
        }
    else:
        # self times include the probe handler's share; they are scaled by the
        # probe factor of the whole traced pass
        start, end = traced[0][0], traced[-1][1]
        metrics = layer_metrics(tracer, probe.scale(start, end))
        traced_wall = sum(probe.seconds(*span) for span in traced)
        metrics["trace.wall_s"] = (traced_wall, "s")
        metrics["trace.overhead_s"] = (traced_wall - wall_s, "s")
    return {"tally": tally, "metrics": metrics, "info": info}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    result = measure(WORKLOADS[args.workload](), args.seed, args.seconds, bool(args.trace))
    tally = result["tally"]
    for note in tally.notes:
        print(f"FAILED {note}", file=sys.stderr)
    for name, (value, unit) in {**result["metrics"], **result["info"]}.items():
        print(f"{name:48} {value:>16.6g} {unit}")
    print(f"{'attempted':48} {tally.attempted:>16} count")
    print(f"{'failed':48} {tally.failed:>16} count")
    print(
        json.dumps(
            {
                "correct": tally.failed == 0,
                "attempted": tally.attempted,
                "failed": tally.failed,
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in result["metrics"].items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
