import json

import pytest

from stargen import figure_digraphs, from_arc_list, parse_edge_list
from stargen.cli import run
from stargen.digraph import format_edge_list


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


class TestEnumerate:
    def test_count_only(self, capsys):
        assert run(["enumerate", "--n", "4", "--count-only"]) == 0
        assert capsys.readouterr().out == "3\n"

    def test_listing_parses_back(self, capsys):
        assert run(["enumerate", "--n", "4"]) == 0
        out = capsys.readouterr().out
        blocks = [b for b in out.split("# partition_") if b.strip()]
        assert len(blocks) == 3
        for block in blocks:
            text = block.split("\n", 1)[1]
            d = parse_edge_list(text)
            assert d.n == 4

    def test_rejects_small_order(self, capsys):
        assert run(["enumerate", "--n", "1"]) == 1
        assert "at least 2" in capsys.readouterr().err


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

    def test_requires_exactly_one_mode(self, capsys):
        assert run(["generate"]) == 1
        assert run(["generate", "--partition", "1", "--lemma-kl", "1", "1"]) == 1

    def test_bad_partition(self, capsys):
        assert run(["generate", "--partition", "1,2"]) == 1
        assert run(["generate", "--partition", "x"]) == 1


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
        assert "unknown figure" in capsys.readouterr().err


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

    @pytest.mark.parametrize("spec, part", [("abc", "'abc'"), ("1,,2", "''")])
    def test_unparsable_m_spec(self, capsys, spec, part):
        assert run(["verify", "--claim", "prop_2_1", "--n-max", "2", "--m", spec]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: cannot parse m value " + part)
        assert len(err.splitlines()) == 1

    def test_workers_below_one(self, capsys):
        argv = ["verify", "--claim", "prop_2_1", "--n-max", "2", "--m", "1", "--workers", "0"]
        assert run(argv) == 1
        assert "workers must be at least 1" in capsys.readouterr().err

    def test_m_below_claim_range(self, capsys):
        assert run(["verify", "--claim", "prop_2_5", "--n-max", "3", "--m", "1..3"]) == 1
        assert "requires m >= 2" in capsys.readouterr().err

    def test_large_guard(self, capsys):
        code = run(["verify", "--claim", "prop_2_1", "--n-max", "5", "--m", "2"])
        assert code == 1
        assert "--large" in capsys.readouterr().err

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
                "--mode",
                "sampled",
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
        from stargen.verify import Claim, Direction

        def always(ctx, m):
            return True

        def never(ctx, m):
            return False, "forced failure"

        monkeypatch.setitem(
            verify_mod.CATALOG,
            "bogus",
            Claim("bogus", "digraph", (Direction("forward", 1, always, never),)),
        )
        code = run(["verify", "--claim", "bogus", "--n-max", "2", "--m", "1"])
        assert code == 2
        out = capsys.readouterr().out
        assert "counterexamples" in out
        assert "forced failure" in out
