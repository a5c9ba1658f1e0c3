import contextlib
import inspect
import io
import itertools
import json
import os
import subprocess
import sys
import tempfile

import pytest
from hypothesis import given, settings, strategies as st

import digraph_minors
from digraph_minors import experiments
from digraph_minors.cli import main
from digraph_minors.connectivity import KTriple, is_k_triple
from digraph_minors.core import (
    FAMILIES, MAX_PARSED_VERTICES, gen_family, gen_transitive, parse_digraph)
from digraph_minors.experiments import EXPERIMENTS
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

    def test_gen_seed_not_kept_between_calls(self, capsys):
        run(capsys, "gen", "random_tournament", "8", "--seed", "4")
        _, out, _ = run(capsys, "gen", "random_tournament", "8")
        assert out == gen_family("random_tournament", 8).to_text()
        assert out != gen_family("random_tournament", 8, 4).to_text()

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

    @pytest.mark.parametrize("payload, first, last, message", [
        ('{"bags": [[0, 5], [0, 1]]}', "0,5", "0,1", "bag vertex 5 out of range"),
        # vertex 1 is missing, and no path leaves the sink 2
        ('{"bags": [[2], [0]]}', "2", "0", "input decomposition is invalid"),
    ])
    def test_bad_input_refused_before_the_end_bags_flow(self, capsys, tmp_path, payload,
                                                        first, last, message):
        graph = write_graph(tmp_path, "g.txt", "3 3\n0 1\n1 2\n0 2\n")
        decomp = write_graph(tmp_path, "d.json", payload)
        code, out, err = run(capsys, "linked", graph, decomp, "--first", first, "--last", last)
        assert (code, out, err) == (2, "", f"error: {message}\n")

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

    @pytest.mark.parametrize("extra", [["--budget", "abc"], ["--budget", "-1"], [], ["--bogus"]])
    def test_usage_error_exit_3(self, capsys, tmp_path, extra):
        """Exit 2 would read as a spent budget."""
        g3 = write_graph(tmp_path, "g3.txt", "3 3\n0 1\n1 2\n2 0\n")
        argv = ["minor", g3] + ([g3] if extra else []) + extra
        code, out, err = run(capsys, *argv)
        assert code == 3 and out == ""
        assert len([line for line in err.splitlines() if "error: " in line]) == 1

    def test_parser_reuse(self, capsys, tmp_path):
        g3 = write_graph(tmp_path, "g3.txt", "3 3\n0 1\n1 2\n2 0\n")
        assert run(capsys, "minor", g3, g3, "--budget", "1")[:2] == (2, "budget\n")
        assert run(capsys, "minor", g3, g3)[0] == 0


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
        ("counterexample-stability", "j=1"),
        ("counterexample-stability", "j=6"),
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


@pytest.mark.parametrize("param", ["n=x", "n=", "samples=1.5"])
def test_experiment_parameter_not_an_integer_exit_2(capsys, param):
    key, value = param.split("=")
    code, out, err = run(capsys, "experiment", "oracle-equivalence", "--param", param)
    assert (code, out) == (2, "")
    assert err.splitlines() == [f"error: parameter {key!r} must be an integer, got {value!r}"]


@pytest.mark.parametrize("param", ["j=1", "j=6"])
def test_stability_j_refused_before_any_search(capsys, monkeypatch, param):
    def search(*args):
        raise AssertionError("the stability-two search ran")

    monkeypatch.setattr(experiments, "gen_stability_two", search)
    monkeypatch.setattr(experiments, "find_subdigraph_embedding", search)
    code, out, err = run(capsys, "experiment", "counterexample-stability", "--param", param)
    assert (code, out) == (2, "")
    assert err.splitlines() == [f"error: j must be {'at least 2' if param == 'j=1' else 'at most 5'}, "
                                f"got {param[2:]}"]


class ClosedStdout(io.StringIO):
    """A standard output whose reader has gone: every write raises.  Its
    file descriptor is one the test owns."""

    def __init__(self, fd):
        super().__init__()
        self.fd = fd

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")

    def fileno(self):
        return self.fd


@pytest.fixture
def cli_files(tmp_path):
    """Inputs for every subcommand, by name."""
    graphs = {"t3": gen_transitive(3), "c3": gen_family("cycle", 3),
              "t6": gen_transitive(6), "r8": gen_family("random_tournament", 8, 1),
              "r9": gen_family("random_tournament", 9, 2)}
    files = {name: write_graph(tmp_path, f"{name}.txt", g.to_text()) for name, g in graphs.items()}
    files["d3"] = write_graph(tmp_path, "d3.json", '{"bags": [[0, 1, 2]]}')
    files["bad"] = write_graph(tmp_path, "bad.json", '{"bags": [[0], [1]]}')
    files["out"] = str(tmp_path / "out.json")
    return files


# every subcommand, once for each exit code that comes with output
EVERY_COMMAND = [
    ["gen", "random_tournament", "8", "--seed", "4"],
    ["classify", "{r9}"],
    ["pathwidth", "{r9}", "--decomp", "{out}"],
    ["verify-decomp", "{c3}", "{d3}", "--linked"],
    ["verify-decomp", "{c3}", "{bad}"],
    ["linked", "{c3}", "{d3}"],
    ["minor", "{t3}", "{r9}"],
    ["minor", "{c3}", "{t6}"],
    ["minor", "{r8}", "{r9}", "--budget", "3"],
    ["triple", "{c3}", "1"],
    ["triple", "{t3}", "1"],
    ["experiment", "counterexample-super", "--param", "max_i=4", "--param", "budget=10"],
    ["experiment", "pathwidth-oracle", "--param", "n=3", "--param", "samples=2"],
]


@pytest.mark.parametrize("argv", EVERY_COMMAND, ids=" ".join)
def test_closed_stdout_keeps_the_exit_code(capsys, cli_files, argv):
    argv = [arg.format(**cli_files) for arg in argv]
    code, out, err = run(capsys, *argv)
    assert out and "error:" not in err
    fd = os.open(os.devnull, os.O_WRONLY)
    try:
        with contextlib.redirect_stdout(ClosedStdout(fd)):
            assert main(argv) == code
    finally:
        os.close(fd)
    assert "error:" not in capsys.readouterr().err


@pytest.mark.parametrize("argv, want", [
    (["minor", "{t3}", "{r9}"], 0),
    (["minor", "{c3}", "{t6}"], 1),
    (["minor", "{r8}", "{r9}", "--budget", "3"], 2),
    (["gen", "random_tournament", "400"], 0),
])
def test_closed_pipe_process(cli_files, argv, want):
    """The command's stdout is a pipe whose read end was closed before it
    started, so its first write fails; `gen` writes more than 64 KB."""
    src = os.path.dirname(os.path.dirname(digraph_minors.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    read, write = os.pipe()
    os.close(read)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "digraph_minors.cli"] + [a.format(**cli_files) for a in argv],
            stdout=write, stderr=subprocess.PIPE, env=env, timeout=60)
    finally:
        os.close(write)
    assert (proc.returncode, proc.stderr) == (want, b"")


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
@given(minor_texts(), minor_texts(), st.sampled_from([None, -1, 0, 1, 5, 1000]))
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
    if budget == -1:
        assert code == 3


@st.composite
def semi_complete_texts(draw):
    """A semi-complete digraph text on 1 to 7 vertices: each pair joined one
    way, the other way, or both ways."""
    n = draw(st.integers(1, 7))
    edges = []
    for u, v in itertools.combinations(range(n), 2):
        way = draw(st.integers(0, 2))
        edges += [f"{u} {v}"] * (way != 1) + [f"{v} {u}"] * (way != 0)
    return "\n".join([f"{n} {len(edges)}", *edges]) + "\n"


graph_texts = st.one_of(minor_texts(), semi_complete_texts())
vertex_set_texts = st.one_of(
    st.lists(st.integers(-1, 7), max_size=3).map(lambda xs: ",".join(map(str, xs))),
    st.sampled_from(["x", ",", " ", "0,,1"]),
)


def write_texts(work, **texts):
    """Write each text to a file named after its key; return the paths."""
    paths = {}
    for name, text in texts.items():
        paths[name] = os.path.join(work, name)
        with open(paths[name], "w", encoding="utf-8") as fh:
            fh.write(text)
    return paths


@settings(max_examples=100)
@given(graph_texts)
def test_fuzz_classify(graph_text):
    with tempfile.TemporaryDirectory() as work:
        code, out = run_quiet(["classify", write_texts(work, g=graph_text)["g"]], codes=(0, 2))
    if code == 0:
        assert json.loads(out)["schema"] == "digraph-class/1"


@settings(max_examples=100)
@given(graph_texts, st.integers(-1, 3))
def test_fuzz_triple(graph_text, k):
    with tempfile.TemporaryDirectory() as work:
        code, out = run_quiet(["triple", write_texts(work, g=graph_text)["g"], str(k)])
    if code == 0:
        data = json.loads(out)
        triple = KTriple(tuple(data["a"]), tuple(data["b"]), tuple(data["c"]))
        assert triple.k == k and is_k_triple(parse_digraph(graph_text), triple)
    elif code == 1:
        assert out == "absent\n"


@settings(max_examples=100)
@given(graph_texts, st.lists(st.lists(st.integers(-1, 7), max_size=7), max_size=6),
       st.booleans(), vertex_set_texts, vertex_set_texts)
def test_fuzz_linked(graph_text, bags, computed, first, last):
    """`linked` on a drawn decomposition, or on the one `pathwidth` wrote;
    what it builds verifies as linked."""
    with tempfile.TemporaryDirectory() as work:
        paths = write_texts(work, g=graph_text, d=json.dumps({"bags": bags}))
        if computed:
            run_quiet(["pathwidth", paths["g"], "--decomp", paths["d"]])
        code, out = run_quiet(["linked", paths["g"], paths["d"], f"--first={first}",
                               f"--last={last}"], codes=(0, 2))
        if code == 0:
            linked = write_texts(work, linked=out)["linked"]
            assert run_quiet(["verify-decomp", paths["g"], linked, "--linked"])[0] == 0


@settings(max_examples=100)
@given(st.sampled_from(sorted(FAMILIES) + ["bogus"]), st.integers(-2, 9),
       st.one_of(st.none(), st.integers(-5, 10**9)))
def test_fuzz_gen(family, size, seed):
    argv = ["gen", family, str(size)] + ([] if seed is None else ["--seed", str(seed)])
    code, out = run_quiet(argv, codes=(0, 2))
    assert (code == 0) == (out != "")
    if code == 0:
        assert parse_digraph(out).to_text() == out


# Small values for every parameter, so that no default size runs.  Random
# hosts of `oracle-equivalence` are off: one of 5 vertices costs up to 1.5 s.
# `counterexample-stability` accepts j up to 5, but j stops at 3 here for
# time: j = 4 takes about 0.5 s and j = 5 about 5 s.
EXPERIMENT_VALUES = {
    "counterexample-super": {"max_i": st.integers(2, 4), "budget": st.integers(-1, 50)},
    "counterexample-stability": {"j": st.integers(0, 3)},
    "oracle-equivalence": {"n": st.integers(0, 3), "samples": st.integers(-1, 0),
                           "seed": st.integers(0, 99)},
    "pathwidth-oracle": {"n": st.integers(0, 5), "samples": st.integers(-1, 3),
                         "seed": st.integers(0, 99)},
    "wqo-sample": {"count": st.integers(-1, 3), "n_max": st.integers(0, 4),
                   "seed": st.integers(0, 99), "budget": st.integers(-1, 100)},
}


@st.composite
def experiment_argvs(draw):
    """`experiment` with every parameter given, sometimes with one more
    --param that is malformed, unknown or not an integer."""
    name = draw(st.sampled_from(sorted(EXPERIMENT_VALUES)))
    items = [f"{key}={draw(values)}" for key, values in EXPERIMENT_VALUES[name].items()]
    if draw(st.integers(0, 3)) == 3:
        items.insert(draw(st.integers(0, len(items))), draw(st.sampled_from(
            ["bogus=1", "n", "=1", "seed=x", "budget=", "j=1.5"])))
    return ["experiment", name] + [arg for item in items for arg in ("--param", item)]


def test_experiment_values_cover_every_experiment():
    assert {name: set(values) for name, values in EXPERIMENT_VALUES.items()} == {
        name: set(inspect.signature(fn).parameters) for name, fn in EXPERIMENTS.items()}


@settings(max_examples=100)
@given(experiment_argvs())
def test_fuzz_experiment(argv):
    code, out = run_quiet(argv)
    if code != 2:
        report = json.loads(out)
        assert (code == 0) == report["aggregate"].get("all_pass", True)


COMMANDS = ["gen", "classify", "pathwidth", "verify-decomp", "linked", "minor", "triple",
            "experiment"]
ARGV_TOKENS = COMMANDS + [
    "transitive", "cycle", "random_tournament", "counterexample-stability",
    "--seed", "--budget", "--decomp", "--linked", "--first", "--last", "--param", "-h",
    "--bogus", "--", "-1", "0", "1", "3", "7", "x", "", "j=3", "n=2", "0,1",
    "g.txt", "d.json", "missing.txt",
]


@settings(max_examples=150)
@given(st.one_of(st.sampled_from(COMMANDS), st.sampled_from(ARGV_TOKENS)),
       st.lists(st.sampled_from(ARGV_TOKENS), max_size=6))
def test_fuzz_argv(head, tail):
    """Raw argv tokens: an exit code from the documented set, 3 only for
    `minor`, or the exit 0 of a help message."""
    with tempfile.TemporaryDirectory() as work:
        paths = write_texts(work, **{"g.txt": gen_family("random_tournament", 6).to_text(),
                                     "d.json": '{"bags": [[0, 1, 2, 3, 4, 5]]}'})
        paths["missing.txt"] = os.path.join(work, "missing.txt")
        argv = [paths.get(token, token) for token in [head] + tail]
        try:
            code, _ = run_quiet(argv, codes=(0, 1, 2, 3))
        except SystemExit as exc:
            assert exc.code == 0 and "-h" in argv
            return
    assert code != 3 or head == "minor"
