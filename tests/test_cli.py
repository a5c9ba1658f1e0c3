import contextlib
import io
import json
import os
import tempfile

import pytest
from hypothesis import given, settings, strategies as st

from digraph_minors.cli import main
from digraph_minors.core import MAX_PARSED_VERTICES, gen_transitive, parse_digraph
from digraph_minors.minor import MinorMapping, verify_mapping
from digraph_minors.pathdecomp import PATHWIDTH_MAX_VERTICES, PathDecomposition


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_graph(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


class TestGen:
    def test_gen_transitive(self, capsys):
        code, out, _ = run(capsys, "gen", "transitive", "4")
        assert code == 0
        g = parse_digraph(out)
        assert g.vertex_count == 4 and len(g.edges) == 6

    def test_gen_round_trip_all_families(self, capsys):
        cases = [
            ("transitive", "5"),
            ("cycle", "4"),
            ("super_tournament", "4"),
            ("stability_two", "3"),
            ("random_tournament", "6"),
            ("random_digraph", "6"),
        ]
        for family, size in cases:
            code, out, _ = run(capsys, "gen", family, size, "--seed", "9")
            assert code == 0
            g = parse_digraph(out)
            assert g.to_text() == out

    def test_gen_seeded_deterministic(self, capsys):
        _, out1, _ = run(capsys, "gen", "random_tournament", "8", "--seed", "4")
        _, out2, _ = run(capsys, "gen", "random_tournament", "8", "--seed", "4")
        assert out1 == out2

    def test_gen_out_of_range(self, capsys):
        code, _, err = run(capsys, "gen", "super_tournament", "2")
        assert code == 2 and "error" in err


class TestClassify:
    def test_classify_json(self, capsys, tmp_path):
        path = write_graph(tmp_path, "g.txt", "2 2\n0 1\n1 0\n")
        code, out, _ = run(capsys, "classify", path)
        data = json.loads(out)
        assert code == 0
        assert data["schema"] == "digraph-class/1"
        assert data["semi_complete"] and not data["tournament"]

    def test_parse_error_line_number(self, capsys, tmp_path):
        path = write_graph(tmp_path, "bad.txt", "2 1\n0 bad\n")
        code, _, err = run(capsys, "classify", path)
        assert code == 2 and "line 2" in err


class TestPathwidth:
    def test_transitive_pipe(self, capsys, tmp_path):
        path = write_graph(tmp_path, "t4.txt", "4 6\n0 1\n0 2\n0 3\n1 2\n1 3\n2 3\n")
        code, out, _ = run(capsys, "pathwidth", path)
        assert code == 0 and out.strip() == "0"

    def test_writes_decomposition(self, capsys, tmp_path):
        path = write_graph(tmp_path, "c3.txt", "3 3\n0 1\n1 2\n2 0\n")
        decomp = tmp_path / "d.json"
        code, out, _ = run(capsys, "pathwidth", path, "--decomp", str(decomp))
        assert code == 0 and out.strip() == "1"
        p = PathDecomposition.from_json(decomp.read_text())
        assert p.width == 1

    def test_too_many_vertices_exit_2(self, capsys, tmp_path):
        n = PATHWIDTH_MAX_VERTICES + 1
        path = write_graph(tmp_path, "t21.txt", gen_transitive(n).to_text())
        code, out, err = run(capsys, "pathwidth", path)
        assert code == 2 and out == ""
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ") and str(n) in lines[0]


class TestVerifyDecomp:
    def test_valid_and_invalid(self, capsys, tmp_path):
        graph = write_graph(tmp_path, "g.txt", "2 1\n0 1\n")
        good = write_graph(tmp_path, "good.json", '{"bags": [[1], [0]]}')
        bad = write_graph(tmp_path, "bad.json", '{"bags": [[0], [1]]}')
        code, out, _ = run(capsys, "verify-decomp", graph, good)
        assert code == 0 and json.loads(out)["valid"] is True
        code, out, _ = run(capsys, "verify-decomp", graph, bad)
        assert code == 1 and json.loads(out)["valid"] is False

    def test_linked_flag_affects_exit(self, capsys, tmp_path):
        graph = write_graph(tmp_path, "g.txt", "2 1\n0 1\n")
        coarse = write_graph(tmp_path, "c.json", '{"bags": [[1], [0]]}')
        code, out, _ = run(capsys, "verify-decomp", graph, coarse, "--linked")
        data = json.loads(out)
        assert data["valid"] is True
        assert data["linked"]["increment_ok"] is False
        assert code == 1


@pytest.mark.parametrize("command", ["verify-decomp", "linked"])
@pytest.mark.parametrize(
    "payload", ['{"bags": 5}', '{"bags": [[0, "x"]]}', "5", '{"bags": [[0], 3]}', '{"bags": [[true]]}']
)
def test_malformed_decomposition_exit_2(capsys, tmp_path, command, payload):
    graph = write_graph(tmp_path, "g.txt", "2 1\n0 1\n")
    decomp = write_graph(tmp_path, "d.json", payload)
    code, out, err = run(capsys, command, graph, decomp)
    assert code == 2 and out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")


class TestLinked:
    def test_nonempty_endpoints(self, capsys, tmp_path):
        graph = write_graph(tmp_path, "g.txt", "2 1\n0 1\n")
        decomp = write_graph(tmp_path, "d.json", '{"bags": [[0], [0, 1], [1]]}')
        code, out, _ = run(capsys, "linked", graph, decomp, "--first", "0", "--last", "1")
        assert code == 0
        data = json.loads(out)
        assert data["bags"][0] == [0] and data["bags"][-1] == [1]

    def test_linked_output_verifies(self, capsys, tmp_path):
        graph = write_graph(tmp_path, "g.txt", "3 3\n0 1\n1 2\n2 0\n")
        code, out, _ = run(capsys, "pathwidth", graph, "--decomp", str(tmp_path / "d.json"))
        code, out, _ = run(capsys, "linked", graph, str(tmp_path / "d.json"))
        assert code == 0
        linked = json.loads(out)
        assert linked["schema"] == "decomposition/1"
        code, out, _ = run(
            capsys,
            "verify-decomp",
            graph,
            write_graph(tmp_path, "lp.json", json.dumps(linked)),
            "--linked",
        )
        assert code == 0


class TestMinor:
    def test_exit_codes(self, capsys, tmp_path):
        g3 = write_graph(tmp_path, "g3.txt", "3 6\n0 1\n0 2\n1 2\n0 1\n1 2\n0 2\n")
        g4path = tmp_path / "g4.txt"
        code, out, _ = run(capsys, "gen", "super_tournament", "4")
        assert code == 0
        g4path.write_text(out)
        code, out, _ = run(capsys, "minor", g3, str(g4path))
        assert code == 1 and out.strip() == "absent"
        code, out, _ = run(capsys, "minor", g3, g3)
        assert code == 0
        data = json.loads(out)
        assert data["schema"] == "minor-mapping/1"
        code, out, _ = run(capsys, "minor", g3, g3, "--budget", "1")
        assert code == 2 and out.strip() == "budget"

    def test_input_error_exit_3(self, capsys, tmp_path):
        bad = write_graph(tmp_path, "bad.txt", "nonsense\n")
        code, _, err = run(capsys, "minor", bad, bad)
        assert code == 3 and "error" in err


class TestHugeHeader:
    """A header above MAX_PARSED_VERTICES is refused on its own line; the
    `1000000000 0` file would otherwise ask for gigabytes."""

    HUGE = "1000000000 0\n"

    @pytest.mark.parametrize("command, code", [("pathwidth", 2), ("classify", 2), ("minor", 3)])
    def test_one_error_line(self, capsys, tmp_path, command, code):
        huge = write_graph(tmp_path, "huge.txt", self.HUGE)
        argv = [command, huge] + ([huge] if command == "minor" else [])
        got, out, err = run(capsys, *argv)
        lines = err.splitlines()
        assert got == code and out == ""
        assert len(lines) == 1 and lines[0].startswith("error: line 1: ")
        assert str(MAX_PARSED_VERTICES) in lines[0]


class TestTriple:
    def test_found_and_absent(self, capsys, tmp_path):
        c3 = write_graph(tmp_path, "c3.txt", "3 3\n0 1\n1 2\n2 0\n")
        code, out, _ = run(capsys, "triple", c3, "1")
        assert code == 0
        data = json.loads(out)
        assert data["schema"] == "ktriple/1"
        assert len(data["a"]) == 1
        t3 = write_graph(tmp_path, "t3.txt", "3 3\n0 1\n0 2\n1 2\n")
        code, out, _ = run(capsys, "triple", t3, "1")
        assert code == 1 and out.strip() == "absent"


class TestExperiment:
    def test_pathwidth_oracle_small(self, capsys):
        code, out, _ = run(
            capsys,
            "experiment",
            "pathwidth-oracle",
            "--param",
            "n=4",
            "--param",
            "samples=6",
            "--param",
            "seed=1",
        )
        assert code == 0
        data = json.loads(out)
        assert data["schema"] == "experiment-report/1"
        assert data["aggregate"]["all_pass"] is True
        assert len(data["instances"]) == 6
        assert all("wall_clock_s" in inst for inst in data["instances"])

    def test_unknown_param_rejected(self, capsys):
        code, _, err = run(
            capsys, "experiment", "pathwidth-oracle", "--param", "bogus=1"
        )
        assert code == 2 and "bogus" in err

    def test_counterexample_super_small(self, capsys):
        code, out, _ = run(
            capsys, "experiment", "counterexample-super", "--param", "max_i=4"
        )
        assert code == 0
        data = json.loads(out)
        assert data["aggregate"]["all_pass"] is True

    def test_counterexample_stability(self, capsys):
        code, out, _ = run(capsys, "experiment", "counterexample-stability")
        assert code == 0
        data = json.loads(out)
        assert data["aggregate"]["all_pass"] is True
        assert data["instances"][0]["check"] == "subdigraph"

    def test_oracle_equivalence_small(self, capsys):
        code, out, _ = run(
            capsys,
            "experiment",
            "oracle-equivalence",
            "--param",
            "n=3",
            "--param",
            "samples=2",
            "--param",
            "seed=5",
        )
        assert code == 0
        data = json.loads(out)
        assert data["aggregate"]["all_pass"] is True

    def test_budget_hit_is_a_failed_instance(self, capsys):
        code, out, _ = run(capsys, "experiment", "counterexample-super",
                           "--param", "max_i=4", "--param", "budget=10")
        assert code == 1
        data = json.loads(out)
        assert data["aggregate"] == {"all_pass": False, "pairs": 3}
        # the 3 -> 4 absence needs more than 10 placements
        assert [(inst["result"], inst["pass"]) for inst in data["instances"]] == [
            ("found", True), ("budget", False), ("found", True)]

    def test_determinism(self, capsys):
        args = ("experiment", "wqo-sample", "--param", "count=4", "--param",
                "n_max=4", "--param", "seed=3")
        _, out1, _ = run(capsys, *args)
        _, out2, _ = run(capsys, *args)
        d1, d2 = json.loads(out1), json.loads(out2)
        for inst in d1["instances"] + d2["instances"]:
            inst.pop("wall_clock_s")
        assert d1 == d2


@pytest.mark.parametrize(
    "name, param",
    [
        ("oracle-equivalence", "n=0"),
        ("oracle-equivalence", "n=-1"),
        ("oracle-equivalence", "samples=-3"),
        ("oracle-equivalence", "n=5"),
        ("pathwidth-oracle", "n=0"),
        ("pathwidth-oracle", "samples=-1"),
        ("pathwidth-oracle", f"n={PATHWIDTH_MAX_VERTICES + 1}"),
        ("counterexample-super", "budget=-1"),
        ("counterexample-super", "max_i=2"),
        ("wqo-sample", "count=-1"),
        ("wqo-sample", "n_max=0"),
        ("wqo-sample", "budget=-1"),
    ],
)
def test_experiment_parameter_out_of_range_exit_2(capsys, name, param):
    code, out, err = run(capsys, "experiment", name, "--param", param)
    assert code == 2 and out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ") and param.split("=")[0] in lines[0]


def test_stdin_dash(capsys, monkeypatch, tmp_path):
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO("2 1\n1 0\n"))
    code, out, _ = run(capsys, "pathwidth", "-")
    assert code == 0 and out.strip() == "0"


BAD_LINES = ["", "# note", "x", "1", "1 2 3", "- 1", "0 1.5", "0 9", "-1 0", "0 0"]
BAD_ENTRIES = [-1, 9, True, None, 1.5, "0", [0]]


@st.composite
def fuzz_cases(draw):
    """A digraph text with a header n <= 8, mostly well-formed loopless edges
    with at most one malformed, out-of-range or loop line among them and a
    sometimes wrong edge count, and a decomposition text: bags of vertex ids,
    bags with out-of-range or non-int entries, or not a decomposition."""
    n = draw(st.integers(0, 8))
    vertex = st.integers(0, max(n - 1, 0))
    edges = draw(st.lists(
        st.tuples(vertex, st.integers(1, max(n - 1, 1))).map(
            lambda e: f"{e[0]} {(e[0] + e[1]) % max(n, 1)}"),
        max_size=12 if n else 0,
    ))
    if draw(st.integers(0, 3)) == 3:
        edges.insert(draw(st.integers(0, len(edges))), draw(st.sampled_from(BAD_LINES)))
    count = len(edges) + {6: 1, 7: -1}.get(draw(st.integers(0, 7)), 0)
    graph = "\n".join([f"{n} {count}", *edges]) + "\n"
    bags = draw(st.one_of(
        st.lists(st.lists(vertex, max_size=n), max_size=8),
        st.lists(st.just(list(range(n))), min_size=1, max_size=3),
        st.lists(st.lists(st.one_of(vertex, st.sampled_from(BAD_ENTRIES)), max_size=4),
                 max_size=4),
        st.sampled_from([5, None, "bags", [], [[]]]),
    ))
    if draw(st.integers(0, 3)) == 3:
        return graph, draw(st.sampled_from(["", "{", "null", "[[0]]", '{"bags": [[0], 3]}']))
    return graph, json.dumps({"bags": bags})


def run_quiet(argv, codes=(0, 1, 2)):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    errors = [line for line in err.getvalue().splitlines() if line.startswith("error:")]
    assert code in codes and len(errors) <= 1, (argv, code, err.getvalue())
    return code, out.getvalue()


@settings(max_examples=120)
@given(fuzz_cases())
def test_fuzz_pathwidth_and_verify_decomp(case):
    graph_text, decomp_text = case
    with tempfile.TemporaryDirectory() as work:
        graph, fuzzed, written = (os.path.join(work, name) for name in ("g.txt", "f.json", "d.json"))
        with open(graph, "w", encoding="utf-8") as fh:
            fh.write(graph_text)
        with open(fuzzed, "w", encoding="utf-8") as fh:
            fh.write(decomp_text)
        run_quiet(["verify-decomp", graph, fuzzed, "--linked"])
        code, _ = run_quiet(["pathwidth", graph, "--decomp", written])
        if code == 0:
            code, out = run_quiet(["verify-decomp", graph, written, "--linked"])
            assert code in (0, 1) and json.loads(out)["valid"] is True


@st.composite
def minor_texts(draw):
    """A digraph text with a header n <= 7 and edges drawn with repetition,
    so loops and parallel edges are common, sometimes with one malformed or
    out-of-range line and a wrong edge count."""
    n = draw(st.integers(0, 7))
    vertex = st.integers(0, max(n - 1, 0))
    edges = [f"{t} {h}" for t, h in draw(st.lists(st.tuples(vertex, vertex), max_size=12))]
    if draw(st.integers(0, 4)) == 4:
        edges.insert(draw(st.integers(0, len(edges))), draw(st.sampled_from(BAD_LINES)))
    count = len(edges) + {6: 1, 7: -1}.get(draw(st.integers(0, 7)), 0)
    return "\n".join([f"{n} {count}", *edges]) + "\n"


@settings(max_examples=150)
@given(minor_texts(), minor_texts(), st.sampled_from([None, 0, 1, 5, 1000]))
def test_fuzz_minor(pattern_text, host_text, budget):
    with tempfile.TemporaryDirectory() as work:
        pattern, host = os.path.join(work, "h.txt"), os.path.join(work, "g.txt")
        for path, text in ((pattern, pattern_text), (host, host_text)):
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
        argv = ["minor", pattern, host] + ([] if budget is None else ["--budget", str(budget)])
        code, out = run_quiet(argv, codes=(0, 1, 2, 3))
    if code == 0:
        h, g = parse_digraph(pattern_text), parse_digraph(host_text)
        assert verify_mapping(h, g, MinorMapping.from_json(out, g)).ok
    elif code == 2:
        assert budget is not None and out.strip() == "budget"
