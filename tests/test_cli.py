import contextlib
import io
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import oracles
from stargen import figure_digraphs, from_arc_list, generate, parse_edge_list, verify
from stargen.cli import MAX_LISTED, MAX_M_VALUES, run
from stargen.digraph import MAX_TEXT_ORDER, format_edge_list


@pytest.fixture
def fig4_file(tmp_path):
    path = tmp_path / "fig4.txt"
    path.write_text(format_edge_list(figure_digraphs()["fig4_D"]))
    return str(path)


@pytest.fixture
def star_file(tmp_path):
    path = tmp_path / "d1.txt"
    path.write_text(format_edge_list(figure_digraphs()["fig1_D1"]))
    return str(path)


def _assert_one_error_line(capsys, start):
    """The run printed one ``error:`` line beginning with ``start`` and nothing
    else; returns that line.
    """
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: {start}")
    assert len(captured.err.splitlines()) == 1
    assert captured.out == ""
    return captured.err


class TestCompete:
    def test_path_output(self, fig4_file, capsys):
        assert run(["compete", "--input", fig4_file, "--m", "1"]) == 0
        out = capsys.readouterr().out
        assert "0 1" in out and "1 2" in out
        assert "triangle-free: yes" in out

    def test_triangle_reported(self, fig4_file, capsys):
        assert run(["compete", "--input", fig4_file, "--m", "2"]) == 0
        out = capsys.readouterr().out
        assert "triangle-free: no, triangle [0, 1, 2]" in out

    def test_star_decomposition_note(self, star_file, capsys):
        assert run(["compete", "--input", star_file, "--m", "3"]) == 0
        out = capsys.readouterr().out
        assert "star decomposition: 0->[1, 2]" in out

    def test_dot_format(self, star_file, capsys):
        assert run(["compete", "--input", star_file, "--m", "1", "--format", "dot"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("graph")
        assert "--" in out

    def test_output_file_and_round_trip(self, fig4_file, tmp_path, capsys):
        dest = tmp_path / "out.txt"
        assert run(["compete", "--input", fig4_file, "--m", "1", "--output", str(dest)]) == 0
        assert capsys.readouterr().out == ""
        from stargen.competition import parse_graph_edge_list

        g = parse_graph_edge_list(dest.read_text())
        assert {frozenset(e) for e in g.edges()} == {frozenset((0, 1)), frozenset((1, 2))}
        # no stray temp files left behind
        assert [p.name for p in tmp_path.iterdir() if p.name.startswith(".stargen-")] == []

    def test_bad_m(self, fig4_file, capsys):
        assert run(["compete", "--input", fig4_file, "--m", "0"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_missing_input(self, capsys):
        assert run(["compete", "--input", "/nonexistent/d.txt", "--m", "1"]) == 1
        assert "cannot read" in capsys.readouterr().err

    def test_input_that_is_not_utf8(self, tmp_path, capsys):
        # used to escape as a UnicodeDecodeError traceback
        path = tmp_path / "bad.txt"
        path.write_bytes(b"3\n0 1\n\377\n")
        assert run(["compete", "--input", str(path), "--m", "1"]) == 1
        _assert_one_error_line(capsys, f"cannot read {path}: not UTF-8 text")

    def test_output_into_a_missing_directory(self, fig4_file, tmp_path, capsys):
        # used to escape as a FileNotFoundError traceback from mkstemp, then
        # to name the temp file in the message
        dest = tmp_path / "missing" / "out.txt"
        assert run(["compete", "--input", fig4_file, "--m", "1", "--output", str(dest)]) == 1
        err = _assert_one_error_line(capsys, f"cannot write {dest}: ")
        assert ".stargen-" not in err
        assert err.endswith("No such file or directory\n")

    def test_header_over_the_order_limit(self, tmp_path, capsys):
        # the header used to size the row list: a MemoryError traceback
        path = tmp_path / "huge.txt"
        path.write_text("1000000000\n0 1\n")
        assert run(["compete", "--input", str(path), "--m", "1"]) == 1
        err = capsys.readouterr().err
        assert err == f"error: vertex count 1000000000 exceeds the limit of {MAX_TEXT_ORDER}\n"


class TestClassify:
    def test_json_verdicts(self, fig4_file, capsys):
        assert run(["classify", "--input", fig4_file, "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["star_generating"] is False
        assert data["s3"] is False
        assert data["witnesses"]["s3"] == {"vertex": 1, "prey": [1, 2]}

    def test_text_verdicts(self, star_file, capsys):
        assert run(["classify", "--input", star_file]) == 0
        out = capsys.readouterr().out
        assert "star_generating: yes" in out
        assert out.count("ok") == 5

    def test_output_onto_a_directory(self, star_file, tmp_path, capsys):
        # used to escape as an IsADirectoryError traceback from os.replace
        dest = tmp_path / "taken"
        dest.mkdir()
        assert run(["classify", "--input", star_file, "--output", str(dest)]) == 1
        _assert_one_error_line(capsys, f"cannot write {dest}: ")
        assert [p.name for p in tmp_path.iterdir() if p.name.startswith(".stargen-")] == []
        assert list(dest.iterdir()) == []


class TestEnumerate:
    def test_count_only(self, capsys):
        assert run(["enumerate", "--n", "4", "--count-only"]) == 0
        assert capsys.readouterr().out == "3\n"

    def test_count_only_lists_no_partition(self, monkeypatch, capsys):
        # used to walk all p(n - 1) partitions: --n 90 ran for minutes
        def refuse(total):
            raise AssertionError("partitions listed for a count")

        monkeypatch.setattr(generate, "partitions", refuse)
        assert run(["enumerate", "--n", str(MAX_TEXT_ORDER), "--count-only"]) == 0
        assert capsys.readouterr().out == f"{oracles.partition_count(MAX_TEXT_ORDER - 1)}\n"

    def test_listing_parses_back(self, capsys):
        assert run(["enumerate", "--n", "4"]) == 0
        out = capsys.readouterr().out
        blocks = [b for b in out.split("# partition_") if b.strip()]
        assert len(blocks) == 3
        for block in blocks:
            text = block.split("\n", 1)[1]
            d = parse_edge_list(text)
            assert d.n == 4

    def test_dot_format(self, capsys):
        assert run(["enumerate", "--n", "3", "--format", "dot"]) == 0
        out = capsys.readouterr().out
        assert out.count("digraph partition_") == 2 and "->" in out

    def test_rejects_small_order(self, capsys):
        assert run(["enumerate", "--n", "1"]) == 1
        assert "at least 2" in capsys.readouterr().err

    def test_order_over_the_limit_builds_nothing(self, monkeypatch, capsys):
        # used to enumerate the partitions of any order, for minutes
        def refuse(n):
            raise AssertionError("partitions called above the order limit")

        monkeypatch.setattr(generate, "partitions", refuse)
        for extra in ([], ["--count-only"]):
            assert run(["enumerate", "--n", str(MAX_TEXT_ORDER + 1)] + extra) == 1
            err = capsys.readouterr().err
            assert err == f"error: order {MAX_TEXT_ORDER + 1} exceeds the limit of {MAX_TEXT_ORDER}\n"

    def test_listing_over_the_limit_builds_nothing(self, monkeypatch, capsys):
        # used to build every digraph before writing one: --n 200 held
        # 430 MiB after 8 s with nothing written
        def refuse(n):
            raise AssertionError("partitions listed above the listing limit")

        monkeypatch.setattr(generate, "partitions", refuse)
        assert oracles.partition_count(45) <= MAX_LISTED < oracles.partition_count(46)
        for n in (47, MAX_TEXT_ORDER):
            assert run(["enumerate", "--n", str(n)]) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == (
                f"error: order {n} has {oracles.partition_count(n - 1)} digraphs, "
                f"over {MAX_LISTED}; use --count-only\n"
            )


class TestGenerate:
    def test_lemma_kl(self, capsys):
        assert run(["generate", "--lemma-kl", "2", "3"]) == 0
        out = capsys.readouterr().out
        d = parse_edge_list(out.split("\n", 1)[1])
        assert d.n == 6

    def test_partition(self, capsys):
        assert run(["generate", "--partition", "2,1"]) == 0
        out = capsys.readouterr().out
        d = parse_edge_list(out.split("\n", 1)[1])
        assert sorted(d.arcs()) == [(0, 1), (0, 2), (0, 3), (1, 2), (2, 1), (3, 3)]

    def test_dot_format(self, capsys):
        assert run(["generate", "--lemma-kl", "2", "3", "--format", "dot"]) == 0
        assert capsys.readouterr().out.startswith("digraph kl_2_3 {")

    def test_requires_exactly_one_mode(self, capsys):
        assert run(["generate"]) == 1
        assert run(["generate", "--partition", "1", "--lemma-kl", "1", "1"]) == 1

    def test_bad_partition(self, capsys):
        assert run(["generate", "--partition", "1,2"]) == 1
        assert run(["generate", "--partition", "x"]) == 1

    @pytest.mark.parametrize(
        "argv, order", [(["--lemma-kl", "1025", "1"], 1027), (["--partition", "1024"], 1025)]
    )
    def test_order_over_the_limit(self, argv, order, capsys):
        # used to build the digraph of any order, until memory ran out
        assert run(["generate"] + argv) == 1
        err = capsys.readouterr().err
        assert err == f"error: order {order} exceeds the limit of {MAX_TEXT_ORDER}\n"


class TestFigures:
    def test_round_trip_all(self, capsys):
        assert run(["figures"]) == 0
        out = capsys.readouterr().out
        figures = figure_digraphs()
        for name, d in figures.items():
            assert f"# {name}" in out
        blocks = [b for b in out.split("# ") if b.strip()]
        assert len(blocks) == len(figures)
        for block in blocks:
            header, text = block.split("\n", 1)
            name = header.split(" ")[0]
            assert parse_edge_list(text) == figures[name]

    def test_single_figure_dot(self, capsys):
        assert run(["figures", "--name", "fig1_D2", "--format", "dot"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("digraph fig1_D2")
        assert "->" in out

    def test_unknown_name(self, capsys):
        assert run(["figures", "--name", "fig9"]) == 1
        assert "invalid choice: 'fig9'" in capsys.readouterr().err


class TestVerify:
    def test_verified_exit_zero(self, capsys):
        code = run(["verify", "--claim", "thm_1_3", "--n-max", "3", "--m", "1..3"])
        assert code == 0
        out = capsys.readouterr().out
        assert "thm_1_3: verified" in out
        assert "boundary instances below the m range" in out

    def test_m_spec_variants(self, capsys):
        assert run(["verify", "--claim", "prop_2_1", "--n-max", "2", "--m", "2,3,5"]) == 0
        assert run(["verify", "--claim", "prop_2_1", "--n-max", "2", "--m", "4"]) == 0
        capsys.readouterr()

    @pytest.mark.parametrize(
        "spec, part", [("abc", "'abc'"), ("1,,2", "''"), ("1,6..2", "'6..2'"), ("2..1", "'2..1'")]
    )
    def test_unparsable_m_spec(self, capsys, spec, part):
        assert run(["verify", "--claim", "prop_2_1", "--n-max", "2", "--m", spec]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: cannot parse m value " + part)
        assert len(err.splitlines()) == 1

    def test_m_range_over_the_limit(self, capsys):
        # the range used to be expanded whole: a MemoryError traceback
        argv = ["verify", "--claim", "prop_2_1", "--n-max", "2", "--m", "1..1000000000000"]
        assert run(argv) == 1
        err = capsys.readouterr().err
        assert err == (
            f"error: m specification '1..1000000000000' lists more than {MAX_M_VALUES} values\n"
        )

    def test_predator_bound_at_huge_m(self, capsys):
        # the bound used to build every power up to m and never finished
        argv = ["verify", "--claim", "prop_2_3", "--n-max", "2", "--m", "100000000"]
        assert run(argv) == 0
        assert "prop_2_3: verified" in capsys.readouterr().out

    @pytest.mark.parametrize("count", ["0", "-5"])
    def test_sample_count_below_one(self, count, capsys):
        # a sampled scan of nothing used to print "verified (0 digraphs, ...)"
        argv = ["verify", "--claim", "prop_2_1", "--n-max", "3", "--m", "1"]
        argv += ["--count", count, "--seed", "1"]
        assert run(argv) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: sample count must be positive, got {count}\n"
        assert captured.out == ""

    def test_grid_rejects_a_nonpositive_n_max(self, capsys):
        # the grid used to check a 5 x 5 grid in its place and exit 0
        assert run(["verify", "--claim", "lemma_2_2", "--n-max", "-3", "--m", "1"]) == 1
        captured = capsys.readouterr()
        assert captured.err == "error: n_max must be positive, got -3\n"
        assert captured.out == ""

    def test_m_below_claim_range(self, capsys):
        assert run(["verify", "--claim", "prop_2_5", "--n-max", "3", "--m", "1..3"]) == 1
        assert "requires m >= 2" in capsys.readouterr().err

    def test_large_guard(self, capsys):
        code = run(["verify", "--claim", "prop_2_1", "--n-max", "5", "--m", "2"])
        assert code == 1
        assert "--large" in capsys.readouterr().err

    def test_large_guards_only_whole_order_scans(self, capsys):
        argv = ["verify", "--claim", "thm_1_3", "--n-max", "8", "--m", "2"]
        assert run(argv + ["--count", "100", "--seed", "1"]) == 0
        assert "thm_1_3: verified (100 digraphs" in capsys.readouterr().out
        # the census scans every order, with or without a count
        argv = ["verify", "--claim", "thm_3_2", "--n-max", "5", "--count", "1"]
        assert run(argv) == 1
        assert "--large" in capsys.readouterr().err

    @pytest.mark.parametrize("count", [[], ["--count", "1"]], ids=["exhaustive", "sampled"])
    def test_large_guards_the_grid(self, count, monkeypatch, capsys):
        # the lemma_2_2 grid builds n_max**2 constructions, with or without a
        # count; at n_max 300 it used to run for minutes
        def unreachable(*args):
            raise AssertionError("the grid was built")

        monkeypatch.setattr(verify, "_verify_grid", unreachable)
        argv = ["verify", "--claim", "lemma_2_2", "--n-max", "300", "--m", "1"]
        assert run(argv + count) == 1
        err = capsys.readouterr().err
        assert "300 x 300 grid of (k, l) constructions" in err and "--large" in err
        assert "digraphs per order" not in err

    def test_unknown_claim(self, capsys):
        assert run(["verify", "--claim", "thm_9_9", "--n-max", "3", "--m", "2"]) == 1
        assert "unknown claim" in capsys.readouterr().err

    def test_report_file(self, tmp_path, capsys):
        report = tmp_path / "runs.jsonl"
        code = run(
            [
                "verify",
                "--claim",
                "prop_2_1",
                "--claim",
                "lemma_2_6",
                "--n-max",
                "3",
                "--m",
                "2",
                "--report",
                str(report),
            ]
        )
        assert code == 0
        capsys.readouterr()
        lines = report.read_text().splitlines()
        assert [json.loads(line)["claim"] for line in lines] == ["prop_2_1", "lemma_2_6"]

    def test_report_into_a_missing_directory(self, tmp_path, capsys):
        # used to escape as a FileNotFoundError traceback after the scan
        report = tmp_path / "missing" / "r.jsonl"
        argv = ["verify", "--claim", "thm_1_3", "--n-max", "2", "--m", "1"]
        assert run(argv + ["--report", str(report)]) == 1
        _assert_one_error_line(capsys, f"cannot write {report}: ")

    def test_unwritable_report_fails_before_the_scan(self, tmp_path, monkeypatch, capsys):
        # a mistyped path used to fail only after the whole scan
        def refuse(*args, **kwargs):
            raise AssertionError("the scan ran before the report path was checked")

        monkeypatch.setattr(verify, "verify_claims", refuse)
        report = tmp_path / "missing" / "r.jsonl"
        argv = ["verify", "--claim", "lemma_3_4", "--n-max", "5", "--m", "1..6", "--large"]
        assert run(argv + ["--report", str(report)]) == 1
        _assert_one_error_line(capsys, f"cannot write {report}: ")

    def test_refused_verify_leaves_no_report(self, tmp_path, capsys):
        # the report used to be created before the m values were checked
        report = tmp_path / "r.jsonl"
        argv = ["verify", "--claim", "thm_2_7", "--n-max", "3", "--m", "1..3"]
        assert run(argv + ["--report", str(report)]) == 1
        _assert_one_error_line(capsys, "claim thm_2_7 requires m >= 2")
        assert not report.exists()
        # a report that was there before the call is kept as it was
        report.write_text("earlier\n")
        assert run(argv + ["--report", str(report)]) == 1
        capsys.readouterr()
        assert report.read_text() == "earlier\n"

    @pytest.mark.parametrize("exc", [KeyboardInterrupt, RuntimeError])
    def test_interrupted_verify_leaves_no_report(self, exc, tmp_path, monkeypatch, capsys):
        # the report used to be removed only when an input was refused, and an
        # interrupt used to escape as a traceback; other errors still propagate
        def stop(*args, **kwargs):
            raise exc("stopped")

        def stopped_run():
            if exc is not KeyboardInterrupt:
                with pytest.raises(exc, match="stopped"):
                    run(argv)
                return
            # an escaped interrupt would end the whole pytest session
            try:
                code = run(argv)
            except KeyboardInterrupt:
                pytest.fail("the interrupt escaped run")
            assert code == 130
            _assert_one_error_line(capsys, "interrupted")

        monkeypatch.setattr(verify, "verify_claims", stop)
        report = tmp_path / "r.jsonl"
        argv = ["verify", "--claim", "lemma_3_4", "--n-max", "3", "--m", "1"]
        argv += ["--report", str(report)]
        stopped_run()
        assert not report.exists()
        # a report that was there before the call is kept as it was
        report.write_text("earlier\n")
        stopped_run()
        assert report.read_text() == "earlier\n"

    def test_consecutive_runs_share_no_arguments(self, tmp_path, capsys):
        # one parser serves every run: append lists start empty, defaults hold
        report = tmp_path / "r.jsonl"
        first = ["verify", "--claim", "prop_2_1", "--claim", "lemma_2_6", "--n-max", "2"]
        assert run(first + ["--m", "1", "--report", str(report)]) == 0
        assert [line.split(":")[0] for line in capsys.readouterr().out.splitlines()] == [
            "prop_2_1",
            "lemma_2_6",
        ]
        assert run(["verify", "--claim", "lemma_2_6", "--n-max", "2"]) == 0
        assert [line.split(":")[0] for line in capsys.readouterr().out.splitlines()] == [
            "lemma_2_6"
        ]
        lines = report.read_text().splitlines()
        assert [json.loads(line)["claim"] for line in lines] == ["prop_2_1", "lemma_2_6"]
        assert json.loads(lines[0])["m_values"] == [1]

    def test_sampled_mode(self, capsys):
        code = run(
            [
                "verify",
                "--claim",
                "prop_2_3",
                "--n-max",
                "4",
                "--m",
                "2",
                "--seed",
                "5",
                "--count",
                "200",
            ]
        )
        assert code == 0
        assert "200 digraphs" in capsys.readouterr().out

    def test_counterexamples_exit_two(self, capsys, monkeypatch):
        import stargen.verify as verify_mod
        from stargen.verify import Atom, Claim, Direction

        never = Atom(lambda ctx, m: "forced failure", lambda p, m: 0)
        monkeypatch.setitem(
            verify_mod.CATALOG,
            "bogus",
            Claim("bogus", "digraph", (Direction("forward", 1, (), (never,)),)),
        )
        code = run(["verify", "--claim", "bogus", "--n-max", "2", "--m", "1"])
        assert code == 2
        out = capsys.readouterr().out
        assert "counterexamples" in out
        assert "forced failure" in out


class TestUsageErrors:
    """argparse's own errors exit 1, like every input error; 2 means counterexamples."""

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["verify", "--claim", "thm_1_3", "--n-max", "abc"], "argument --n-max: invalid int"),
            (["verify", "--claim", "thm_1_3", "--m", "2"], "the following arguments are required"),
            (["bogus"], "argument command: invalid choice: 'bogus'"),
            (["compete", "--m", "y"], "argument --m: invalid int value: 'y'"),
            # a seed without a count used to be dropped, and all 353 digraphs scanned
            (
                ["verify", "--claim", "prop_2_1", "--n-max", "3", "--m", "1", "--seed", "1"],
                "seed 1 needs a sample count: only a sample is drawn",
            ),
            # a count alone selects sampling; --mode is no option
            (
                ["verify", "--claim", "prop_2_1", "--n-max", "3", "--m", "1"]
                + ["--mode", "sampled", "--count", "5"],
                "unrecognized arguments: --mode sampled",
            ),
        ],
    )
    def test_exit_one_with_one_line(self, argv, message, capsys):
        assert run(argv) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {message}")
        assert len(captured.err.splitlines()) == 1
        assert captured.out == ""

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["verify", "--help"])
        assert exc.value.code == 0
        assert "--n-max" in capsys.readouterr().out


def _run_quietly(argv):
    """Exit code and stderr of one in-process CLI run, a ``SystemExit``'s code included."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = run(argv)
        except SystemExit as exc:
            code = exc.code
    return code, err.getvalue()


# small orders keep each run fast; the rest are rejected or over the limit
_HEADERS = st.sampled_from([-1, 0, 1, 2, 3, 5, MAX_TEXT_ORDER + 1, 10**9])
_PAIR_LINE = st.one_of(
    st.tuples(st.integers(-1, 5), st.integers(-1, 5)).map(lambda p: f"{p[0]} {p[1]}"),
    st.text(alphabet="0123456789 -x#", max_size=6),
)
_EDGE_LIST_TEXT = st.one_of(
    st.builds(
        lambda header, lines: "\n".join([str(header), *lines]) + "\n",
        _HEADERS,
        st.lists(_PAIR_LINE, max_size=8),
    ),
    st.text(alphabet="0123456789 -\n#x", max_size=24),
)
_M_BOUND = st.sampled_from(["-1", "0", "1", "2", "3", "7", "1000000000000"])
_M_SPEC = st.one_of(
    _M_BOUND,
    st.builds(lambda lo, hi: f"{lo}..{hi}", _M_BOUND, _M_BOUND),
    st.lists(_M_BOUND, min_size=1, max_size=3).map(",".join),
    st.text(alphabet="0123456789.,- ", max_size=5),
)
_FUZZ = settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])


class TestFuzz:
    """Arbitrary input files and --m strings end in exit 0 or 1, never a traceback."""

    @_FUZZ
    @given(text=_EDGE_LIST_TEXT, m=st.sampled_from(["0", "1", "3", str(2**60), "x"]))
    def test_compete_and_classify_files(self, text, m):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "d.txt"
            path.write_text(text)
            for argv in (
                ["compete", "--input", str(path), "--m", m],
                ["classify", "--input", str(path), "--json"],
            ):
                code, err = _run_quietly(argv)
                assert code in (0, 1), (argv, text)
                assert "Traceback" not in err

    @_FUZZ
    @given(
        spec=_M_SPEC,
        claim=st.sampled_from(["prop_2_1", "prop_2_3", "lemma_3_4", "thm_1_3"]),
        n_max=st.integers(-1, 2),
    )
    def test_verify_m_specs(self, spec, claim, n_max):
        argv = ["verify", "--claim", claim, "--n-max", str(n_max), "--m", spec]
        code, err = _run_quietly(argv)
        # no claim has a counterexample at n_max <= 2
        assert code in (0, 1), argv
        assert "Traceback" not in err
