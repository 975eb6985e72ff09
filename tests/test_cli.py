import contextlib
import io
import json
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from strategies import connected_graphs, graphs
from tightspan import (
    Graph,
    detectors,
    fixture,
    format_edge_list,
    generators,
    hellify_dh,
    helly,
    pruning_sequence,
    random_chordal,
    random_dh,
    split_family,
)
from tightspan import graphs as graphs_module
from tightspan.cli import run


def _run(argv):
    buf = io.StringIO()
    code = run(argv, out=buf)
    return code, buf.getvalue()


@pytest.fixture
def c4_file(tmp_path):
    path = tmp_path / "c4.txt"
    path.write_text(format_edge_list(fixture("C4")))
    return str(path)


@pytest.fixture
def house_file(tmp_path):
    path = tmp_path / "house.txt"
    path.write_text(format_edge_list(fixture("house")))
    return str(path)


def test_hull_summary(c4_file):
    code, out = _run(["hull", c4_file])
    assert code == 0
    assert out == "n_real=4\nn_helly=1\nhelly_gap=1\n"


def test_hull_tree(tmp_path):
    path = tmp_path / "tree.txt"
    path.write_text(format_edge_list(fixture("P5")))
    code, out = _run(["hull", str(path)])
    assert code == 0
    assert "n_helly=0" in out and "helly_gap=0" in out


def test_hull_json(c4_file):
    code, out = _run(["hull", c4_file, "--format", "json"])
    assert code == 0
    doc = json.loads(out)
    assert doc["n_real"] == 4 and doc["n_helly"] == 1


def test_hull_dot(c4_file):
    code, out = _run(["hull", c4_file, "--format", "dot"])
    assert code == 0
    assert out.startswith("graph H {\n") and "shape=square" in out


def test_hull_budget_exit_code(tmp_path):
    path = tmp_path / "c8.txt"
    path.write_text(format_edge_list(fixture("C8")))
    code, _ = _run(["hull", str(path), "--budget", "4"])
    assert code == 2


def test_two_sets_budget_exit_code(c4_file):
    assert _run(["two-sets", c4_file, "--budget", "1"]) == (2, "")


@pytest.mark.parametrize("budget", ["0", "-1"])
@pytest.mark.parametrize("command", ["hull", "recognize", "two-sets"])
def test_budget_below_one_is_usage_error(c4_file, command, budget, capsys):
    assert _run([command, c4_file, "--budget", budget]) == (1, "")
    assert "usage error:" in capsys.readouterr().err


def test_hull_budget_of_one_runs_out(c4_file, capsys):
    assert _run(["hull", c4_file, "--budget", "1"]) == (2, "")
    assert "exceeded 1 search nodes" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["hellify-dh", "hyperbolicity", "export-dot"])
def test_budget_is_usage_error_where_nothing_searches(c4_file, command, capsys):
    assert _run([command, c4_file, "--budget", "5"]) == (1, "")
    assert "unrecognized arguments: --budget" in capsys.readouterr().err


def test_hellify_summary(c4_file):
    code, out = _run(["hellify-dh", c4_file])
    assert code == 0
    assert out == (
        "hull_vertices=5 bound_2n=8 within=yes\n"
        "hull_edges=8 bound_4m=16 within=yes\n"
        "added=1\n"
    )


def test_hellify_edgelist(c4_file):
    code, out = _run(["hellify-dh", c4_file, "--format", "edgelist"])
    assert code == 0
    assert out.splitlines()[0] == "5 8"


def test_hellify_json_added(c4_file):
    code, out = _run(["hellify-dh", c4_file, "--format", "json"])
    doc = json.loads(out)
    assert doc["added"] == [[4, 2]]


@pytest.mark.parametrize("g", [fixture("P5"), fixture("C4"), fixture("K1")] + [
    random_dh(n, seed) for seed, n in enumerate((6, 20, 45, 80))
])
def test_hellify_json_matches_json_dumps(tmp_path, g):
    path = tmp_path / "g.txt"
    path.write_text(format_edge_list(g))
    result = hellify_dh(g)
    doc = {
        "n": result.hull.n,
        "m": result.hull.m,
        "added": [[v, anchor] for v, anchor in result.added],
        "edges": [[u, v] for u, v in result.hull.edges()],
    }
    assert _run(["hellify-dh", str(path), "--format", "json"]) == (
        0, json.dumps(doc, indent=2) + "\n"
    )


def _path_text(n):
    return f"{n} {n - 1}\n" + "".join(f"{i} {i + 1}\n" for i in range(n - 1))


def test_hellify_reads_up_to_4096_vertices(tmp_path, capsys):
    path = tmp_path / "p4096.txt"
    path.write_text(_path_text(4096))
    assert _run(["hellify-dh", str(path)]) == (0, (
        "hull_vertices=4096 bound_2n=8192 within=yes\n"
        "hull_edges=4095 bound_4m=16380 within=yes\n"
        "added=0\n"
    ))
    path.write_text(_path_text(4097))
    assert _run(["hellify-dh", str(path)]) == (1, "")
    assert "exceeds the size cap 4096" in capsys.readouterr().err
    # Every other command keeps the 512-vertex cap.
    path.write_text(_path_text(513))
    assert _run(["recognize", str(path)]) == (1, "")


def test_hellify_non_dh_exit_code(house_file):
    code, _ = _run(["hellify-dh", house_file])
    assert code == 3


def test_recognize(house_file):
    code, out = _run(["recognize", house_file])
    assert code == 0
    lines = dict(line.split("=", 1) for line in out.splitlines())
    assert lines["chordal"] == "no"
    assert lines["bipartite"] == "no"
    assert lines["split"] == "no"  # the house has an induced C4
    assert lines["at-free"] == "yes"
    assert lines["distance-hereditary"] == "no"
    assert lines["helly"] == "no"


def test_recognize_witness(c4_file):
    code, out = _run(["recognize", c4_file, "--witness"])
    assert code == 0
    assert "chordal=no witness=cycle:" in out
    assert "bipartite=yes witness=side:" in out


def _grid3(tmp_path):
    """The 3x3 grid: pseudo-modular, with a square that is not chordal."""
    edges = [(v, v + 1) for v in range(9) if v % 3 < 2] + [(v, v + 3) for v in range(6)]
    path = tmp_path / "grid.txt"
    path.write_text(format_edge_list(Graph.from_edge_list(9, edges)))
    return str(path)


def test_recognize_witness_respects_budget(tmp_path, monkeypatch):
    # Bron-Kerbosch runs on the grid's square, which is not chordal
    budgets = []
    original = helly.maximal_cliques

    def spy(rows, max_nodes=helly.DEFAULT_CLIQUE_NODES):
        budgets.append(max_nodes)
        return original(rows, max_nodes)

    monkeypatch.setattr(helly, "maximal_cliques", spy)
    code, out = _run(["recognize", _grid3(tmp_path), "--witness", "--budget", "123"])
    assert code == 0
    assert "square-chordal=no\nhelly=no witness=unsuspended:0,1,3,4\n" in out
    assert budgets and all(b == 123 for b in budgets)


@pytest.mark.parametrize("witness", [[], ["--witness"]])
def test_recognize_budget_reaches_the_search_of_a_chordal_square(c4_file, monkeypatch, witness):
    # C4's square is K4, so the 2-sets come off its MCS, one node per vertex,
    # and Bron-Kerbosch never runs
    def fail(*args):
        raise AssertionError("Bron-Kerbosch on a chordal square")

    monkeypatch.setattr(helly, "maximal_cliques", fail)
    code, out = _run(["recognize", c4_file, "--budget", "4", *witness])
    assert code == 0 and len(out.splitlines()) == 8
    assert "helly=no" in out and out.endswith("dually-chordal=no\n")
    code, out = _run(["recognize", c4_file, "--budget", "3", *witness])
    assert code == 2 and out.endswith("square-chordal=yes\n")


def test_recognize_budget_error_keeps_earlier_lines(c4_file):
    code, out = _run(["recognize", c4_file, "--budget", "1"])
    assert code == 2
    assert out == (
        "chordal=no\n"
        "bipartite=yes\n"
        "split=no\n"
        "at-free=yes\n"
        "distance-hereditary=yes\n"
        "square-chordal=yes\n"
    )


@pytest.mark.parametrize("witness", [False, True])
def test_recognize_budget_error_after_the_helly_line(house_file, witness):
    # The house is not pseudo-modular, so the helly line needs no 2-sets and
    # the budget cut falls before dually-chordal.
    argv = ["recognize", house_file, "--budget", "1"] + (["--witness"] if witness else [])
    code, out = _run(argv)
    assert code == 2
    assert "dually-chordal" not in out
    assert out.splitlines()[2:] == [
        "split=no",
        "at-free=yes",
        "distance-hereditary=no",
        "square-chordal=yes",
        "helly=no witness=non-pseudo-modular:4,2,3" if witness else "helly=no",
    ]


@pytest.mark.parametrize("name", ["house", "C5"])
def test_recognize_searches_witnesses_only_under_witness(tmp_path, monkeypatch, name):
    path = tmp_path / "g.txt"
    path.write_text(format_edge_list(fixture(name)))

    def fail(g):
        raise AssertionError("witness search without --witness")

    monkeypatch.setattr(detectors, "find_long_induced_cycle", fail)
    monkeypatch.setattr(detectors, "find_odd_cycle", fail)
    code, out = _run(["recognize", str(path)])
    assert code == 0 and len(out.splitlines()) == 8 and "witness" not in out
    with pytest.raises(AssertionError, match="witness search"):
        _run(["recognize", str(path), "--witness"])


@pytest.mark.parametrize("witness", [[], ["--witness"]])
@pytest.mark.parametrize("name", ["C4", "house"])
def test_recognize_lists_two_sets_once(tmp_path, monkeypatch, name, witness):
    path = tmp_path / "g.txt"
    path.write_text(format_edge_list(fixture(name)))
    calls = []
    original = helly.maximal_two_sets

    def spy(g, max_nodes=helly.DEFAULT_CLIQUE_NODES):
        calls.append(g)
        return original(g, max_nodes)

    monkeypatch.setattr(helly, "maximal_two_sets", spy)
    code, out = _run(["recognize", str(path), *witness])
    assert code == 0 and out.endswith("dually-chordal=no\n")
    assert len(calls) == 1


def _recognize_counting(monkeypatch, g, name, argv=("--witness",)):
    """``recognize -`` on g with ``helly.<name>`` counted: calls, exit code, output."""
    calls, original = [], getattr(helly, name)

    def counted(*args):
        calls.append(args)
        return original(*args)

    with monkeypatch.context() as m:
        m.setattr(helly, name, counted)
        m.setattr(sys, "stdin", io.StringIO(format_edge_list(g)))
        code, out = _run(["recognize", "-", *argv])
    return len(calls), code, out


@pytest.mark.parametrize("witness", [[], ["--witness"]])
@pytest.mark.parametrize("g", [fixture("C6"), *(random_chordal(160, seed) for seed in range(4))])
def test_recognize_lists_no_two_sets_when_no_line_needs_them(monkeypatch, g, witness):
    # a pseudo-modularity violation answers helly=no, and a square that is not
    # chordal answers dually-chordal=no
    assert helly.find_pseudo_modular_violation(g) and not detectors.is_square_chordal(g)
    calls, code, out = _recognize_counting(monkeypatch, g, "maximal_two_sets", witness)
    lines = out.splitlines()
    assert calls == 0 and code == 0 and len(lines) == 8
    assert lines[5] == "square-chordal=no" and lines[6].startswith("helly=no")
    assert lines[7] == "dually-chordal=no"


def test_recognize_lists_two_sets_for_dually_chordal_after_a_violation(monkeypatch):
    g = random_chordal(20, 0)
    assert helly.find_pseudo_modular_violation(g) and detectors.is_square_chordal(g)
    calls, code, out = _recognize_counting(monkeypatch, g, "maximal_two_sets")
    assert calls == 1 and code == 0
    assert out.endswith(f"dually-chordal={'yes' if helly.is_dually_chordal(g) else 'no'}\n")


@pytest.mark.parametrize("n", [96, 128, 160])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_recognize_runs_no_bron_kerbosch_on_dh_input(monkeypatch, n, seed):
    # the squares of DH graphs are chordal, so their 2-sets come off one MCS
    g = random_dh(n, seed)
    calls, code, out = _recognize_counting(monkeypatch, g, "maximal_cliques")
    assert calls == 0 and code == 0
    assert "distance-hereditary=yes\nsquare-chordal=yes\n" in out


def test_recognize_budget_cannot_cut_lines_that_need_no_two_sets(tmp_path):
    # C6 has a violation and its square, the octahedron, is not chordal: no
    # search runs, so budget 1 prints all eight lines (it exited 2 while the
    # 2-sets were listed on every input)
    path = tmp_path / "c6.txt"
    path.write_text(format_edge_list(fixture("C6")))
    code, out = _run(["recognize", str(path), "--budget", "1"])
    assert code == 0 and out == _run(["recognize", str(path)])[1]
    assert len(out.splitlines()) == 8 and out.endswith("helly=no\ndually-chordal=no\n")


def _assert_lines_match_library(g):
    with pytest.MonkeyPatch.context() as m:  # hypothesis tests take no fixtures
        m.setattr(sys, "stdin", io.StringIO(format_edge_list(g)))
        code, out = _run(["recognize", "-"])
    assert code == 0
    lines = dict(line.split("=") for line in out.splitlines())
    assert lines["helly"] == ("yes" if helly.is_helly(g) else "no")
    assert lines["dually-chordal"] == ("yes" if helly.is_dually_chordal(g) else "no")
    return lines["helly"], lines["dually-chordal"]


@given(connected_graphs(max_n=7))
@settings(max_examples=60, deadline=None)
def test_recognize_helly_and_dually_chordal_lines_match_library(g):
    _assert_lines_match_library(g)


def test_recognize_helly_and_dually_chordal_lines_match_library_on_seeded_graphs():
    from oracles import random_connected_graph

    # the 5x5 king's graph is Helly, and its square holds the induced C4
    # (0,2) (2,0) (4,2) (2,4), so it is not dually chordal
    king = Graph.from_edge_list(25, [
        (5 * r + c, 5 * (r + dr) + c + dc)
        for r in range(5) for c in range(5) for dr, dc in ((0, 1), (1, -1), (1, 0), (1, 1))
        if r + dr < 5 and 0 <= c + dc < 5
    ])
    graphs = [king, *map(fixture, ("house", "C6", "gem", "W5"))]
    graphs += [random_connected_graph(seed, min_n=5, max_n=12) for seed in range(40)]
    graphs += [gen(n, seed) for gen in (random_chordal, random_dh) for n in (12, 30, 60) for seed in range(4)]
    answers = {_assert_lines_match_library(g) for g in graphs}
    # dually chordal graphs are Helly: their disks form a hypertree (Brandstaedt,
    # Dragan, Chepoi and Voloshin, SIAM J. Discrete Math. 1998)
    assert answers == {("yes", "yes"), ("yes", "no"), ("no", "no")}


@pytest.mark.parametrize("witness", [[], ["--witness"]])
@pytest.mark.parametrize("name", ["C4", "C5"])
def test_recognize_builds_bfs_forest_once(tmp_path, monkeypatch, name, witness):
    path = tmp_path / "g.txt"
    path.write_text(format_edge_list(fixture(name)))
    calls = []
    original = detectors._bfs_forest

    def spy(g):
        calls.append(g)
        return original(g)

    monkeypatch.setattr(detectors, "_bfs_forest", spy)
    code, out = _run(["recognize", str(path), *witness])
    bipartite = name == "C4"
    assert code == 0 and f"bipartite={'yes' if bipartite else 'no'}" in out
    assert ("odd-cycle:" in out) == (not bipartite and bool(witness))
    assert len(calls) == 1


@pytest.mark.parametrize("argv,g", [
    (["recognize", "-", "--witness"], fixture("C6")),
    (["hull", "-", "--format", "json"], fixture("C6")),
    (["hellify-dh", "-", "--format", "json"], random_dh(60, 1)),
    (["hyperbolicity", "-"], fixture("C6")),
])
def test_each_op_searches_connectivity_once(monkeypatch, argv, g):
    # the parser, distances, powers and the DH check read one cached answer
    calls, reaches_all = [], graphs_module._reaches_all

    def counted(h):
        calls.append(h.n)
        return reaches_all(h)

    monkeypatch.setattr(graphs_module, "_reaches_all", counted)
    monkeypatch.setattr(sys, "stdin", io.StringIO(format_edge_list(g)))
    code, out = _run(argv)
    assert code == 0 and out
    assert calls == [g.n]


@pytest.mark.parametrize("argv", [["recognize", "-", "--witness"], ["two-sets", "-"]])
@pytest.mark.parametrize("g", [
    *(random_chordal(60, seed) for seed in (1, 2, 3)),
    *(random_dh(60, seed) for seed in (1, 2, 3)),
    fixture("house"),
    fixture("C6"),
])
def test_recognize_and_two_sets_build_no_layer_cache(monkeypatch, argv, g):
    # the square and pseudo-modularity run their own BFS per source, so no
    # all-pairs structure is built: the distance matrix is the only one a
    # graph caches, and it is for the all-pairs readers alone
    fresh, distances = [], Graph.distances

    def counted(self):
        if self._dm is None:
            fresh.append(self.n)
        return distances(self)

    monkeypatch.setattr(Graph, "distances", counted)
    monkeypatch.setattr(sys, "stdin", io.StringIO(format_edge_list(g)))
    code, out = _run(argv)
    assert code == 0 and out
    assert fresh == []


def _recognize_counting_scans(monkeypatch, g):
    """``recognize - --witness`` on g: the number of pseudo-modularity scans
    it ran, its answers by line name, and its output."""
    calls, scan = [], helly.find_pseudo_modular_violation

    def counted(h):
        calls.append(h.n)
        return scan(h)

    with monkeypatch.context() as m:
        m.setattr(helly, "find_pseudo_modular_violation", counted)
        m.setattr(sys, "stdin", io.StringIO(format_edge_list(g)))
        code, out = _run(["recognize", "-", "--witness"])
    assert code == 0
    return len(calls), dict(line.split(" ")[0].split("=") for line in out.splitlines()), out


@pytest.mark.parametrize("g", [random_dh(60, seed) for seed in (1, 2, 3)])
def test_recognize_skips_pseudo_modularity_on_dh_input(monkeypatch, g):
    # DH graphs are pseudo-modular (Bandelt and Mulder, JCTB 1986)
    scans, lines, _ = _recognize_counting_scans(monkeypatch, g)
    assert lines["distance-hereditary"] == "yes" and scans == 0
    assert lines["helly"] == ("yes" if helly.is_helly(g) else "no")


def test_recognize_skips_pseudo_modularity_on_dh_corpus(monkeypatch, corpus):
    dh = [g for _, g in corpus if pruning_sequence(g) is not None]
    assert len(dh) > 20
    answers = set()
    for g in dh:
        scans, lines, _ = _recognize_counting_scans(monkeypatch, g)
        assert lines["distance-hereditary"] == "yes" and scans == 0
        assert lines["helly"] == ("yes" if helly.is_helly(g) else "no")
        answers.add(lines["helly"])
    assert answers == {"yes", "no"}


@pytest.mark.parametrize("g", [fixture("C6"), random_chordal(60, 1)])
def test_recognize_scans_pseudo_modularity_on_other_input(monkeypatch, g):
    scans, lines, out = _recognize_counting_scans(monkeypatch, g)
    violation = helly.find_pseudo_modular_violation(g)
    assert lines["distance-hereditary"] == "no" and scans == 1 and violation is not None
    assert "helly=no witness=non-pseudo-modular:" + ",".join(map(str, violation)) in out
    assert lines["helly"] == ("yes" if helly.is_helly(g) else "no")


def test_hyperbolicity_output(c4_file):
    code, out = _run(["hyperbolicity", c4_file])
    assert code == 0
    assert out == "delta=2/2 witness=(0,1,2,3)\n"


def test_two_sets_output(tmp_path):
    path = tmp_path / "c6.txt"
    path.write_text(format_edge_list(fixture("C6")))
    code, out = _run(["two-sets", str(path)])
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 8
    assert "0 2 4 UNSUSPENDED" in lines
    assert "0 1 2 suspended_by=1" in lines


def test_generate_crown():
    code, out = _run(["generate", "crown", "--k", "4"])
    assert code == 0
    assert "# crown k=4" in out
    assert "8 12" in out


def test_generate_cocomparability_emits_order():
    code, out = _run(["generate", "cocomparability", "--k", "2"])
    assert code == 0
    assert any(line.startswith("# order:") for line in out.splitlines())


def test_generate_random_deterministic():
    code1, out1 = _run(["generate", "random-dh", "--n", "10", "--seed", "3"])
    code2, out2 = _run(["generate", "random-dh", "--n", "10", "--seed", "3"])
    assert code1 == code2 == 0
    assert out1 == out2


def test_generate_fixture_to_file(tmp_path):
    target = tmp_path / "out.txt"
    code, out = _run(["generate", "fixture", "--name", "house", "-o", str(target)])
    assert code == 0 and out == ""
    assert target.read_text().splitlines()[1] == "5 6"


def test_generate_missing_k_is_usage_error():
    code, _ = _run(["generate", "split"])
    assert code == 1


@pytest.mark.parametrize("family", ["crown", "split", "cocomparability"])
def test_generate_family_over_size_cap_fails_before_listing_edges(family, capsys):
    # k = 10^8 would list about 10^16 edges if the cap were checked last.
    code, out = _run(["generate", family, "--k", "100000000"])
    assert code == 1 and out == ""
    assert "exceeds the size cap 512" in capsys.readouterr().err


def test_generate_random_dh_over_size_cap_builds_nothing(monkeypatch, capsys):
    def fail(*args):
        raise AssertionError("built a sequence over the cap")

    monkeypatch.setattr(generators, "random_pruning_sequence", fail)
    assert _run(["generate", "random-dh", "--n", "100000000"]) == (1, "")
    assert "exceeds the size cap 4096" in capsys.readouterr().err


def test_generate_unknown_fixture_is_usage_error():
    code, _ = _run(["generate", "fixture", "--name", "nope"])
    assert code == 1


def test_export_dot(c4_file):
    code, out = _run(["export-dot", c4_file])
    assert code == 0
    assert out.startswith("graph G {")


def test_malformed_input_exit_code(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("2 1\n0 0\n")
    code, _ = _run(["hull", str(path)])
    assert code == 1


def test_disconnected_input_exit_code(tmp_path):
    path = tmp_path / "disc.txt"
    path.write_text("4 2\n0 1\n2 3\n")
    code, _ = _run(["hull", str(path)])
    assert code == 3


def test_missing_file_exit_code():
    code, _ = _run(["hull", "/nonexistent/file.txt"])
    assert code == 1


def test_unknown_command_exit_code():
    code, _ = _run(["frobnicate"])
    assert code == 1


def test_byte_identical_reruns(c4_file):
    assert _run(["hull", c4_file]) == _run(["hull", c4_file])
    assert _run(["recognize", c4_file]) == _run(["recognize", c4_file])


def test_pipe_generate_into_hull():
    generate = subprocess.run(
        [sys.executable, "-m", "tightspan", "generate", "crown", "--k", "4"],
        capture_output=True,
        text=True,
    )
    assert generate.returncode == 0
    hull = subprocess.run(
        [sys.executable, "-m", "tightspan", "hull", "-"],
        input=generate.stdout,
        capture_output=True,
        text=True,
    )
    assert hull.returncode == 0
    n_helly = int(dict(l.split("=") for l in hull.stdout.splitlines())["n_helly"])
    assert n_helly >= 6


FORMATS = {
    "hull": ["summary", "json", "dot"],
    "hellify-dh": ["summary", "edgelist", "json"],
    "recognize": [],
    "hyperbolicity": [],
    "two-sets": [],
    "export-dot": [],
}
MALFORMED = [
    "",
    "# only a comment\n",
    "2\n",
    "a b\n",
    "0 0\n",
    "-3 0\n",
    "2 1\n0 0\n",
    "3 1\n0 7\n",
    "3 2\n0 1\n",
    "2 1\n0 1 1\n",
    "600 0\n",
    "-99999999999999999999 0\n",
    "-99999999999999999999 1\n0 1\n",
    # near the canonical form that format_edge_list writes
    "3 5\n0 " + "9" * 5000 + "\n",
    "2 1\n0 1",
    "2 1\r\n0 1\r\n",
    "2  1\n0 1\n",
    "2 1\n00 1\n",
    "2 1\n0 1\n\n",
    "3 3\n0 1\n1 1\n1 2\n",
    "3 2\n0 1\n0 1\n",
    "4 2\n0 1\n2 3\n",
    "1 0\n",
]


@st.composite
def cli_calls(draw):
    command = draw(st.sampled_from(sorted(FORMATS)))
    argv = [command, "-"]
    fmt = draw(st.sampled_from([None] + FORMATS[command]))
    if fmt is not None:
        argv += ["--format", fmt]
    if draw(st.booleans()):
        argv.append("--witness")
    budget = draw(st.none() | st.integers(-2, 50))
    if budget is not None:
        argv += ["--budget", str(budget)]
    text = draw(st.sampled_from(MALFORMED) | graphs(max_n=7).map(format_edge_list))
    return argv, text


@given(cli_calls())
@settings(max_examples=60, deadline=None)
def test_cli_fuzz_exit_codes(call):
    argv, text = call
    err = io.StringIO()
    stdin = sys.stdin
    sys.stdin = io.StringIO(text)
    try:
        with contextlib.redirect_stderr(err):
            code = run(argv, out=io.StringIO())
    finally:
        sys.stdin = stdin
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err.getvalue()
    if "--budget" in argv and argv[0] in ("hellify-dh", "hyperbolicity", "export-dot"):
        assert code == 1
    if "--budget" in argv and int(argv[argv.index("--budget") + 1]) < 1:
        assert code == 1


@pytest.mark.parametrize(
    "text, message",
    [
        ("-99999999999999999999 0\n", "graph needs at least one vertex"),
        ("-99999999999999999999 1\n0 1\n", "edge (0,1) out of range for n=-99999999999999999999"),
    ],
)
@pytest.mark.parametrize("command", sorted(FORMATS))
def test_huge_negative_vertex_count_is_an_input_error(monkeypatch, capsys, command, text, message):
    monkeypatch.setattr(sys, "stdin", io.StringIO(text))
    assert _run([command, "-"]) == (1, "")
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("token", ["+1", "0_1", "\u0661"])
def test_only_ascii_digits_are_integers(monkeypatch, capsys, token):
    # int() reads each token as 1, but edge-list numbers are ASCII -?[0-9]+
    monkeypatch.setattr(sys, "stdin", io.StringIO(f"2 1\n0 {token}\n"))
    assert _run(["hull", "-"]) == (1, "")
    assert capsys.readouterr().err == f"error: invalid literal for int() with base 10: {token!r}\n"


@pytest.mark.parametrize("text, token", [("3 1\n0 +1\n", "+1"), ("2 1\n0 1_0\n", "1_0")])
def test_number_check_comes_before_graph_checks(monkeypatch, capsys, text, token):
    # Read by int(), "+1" would leave vertex 2 disconnected and "1_0" out of range.
    monkeypatch.setattr(sys, "stdin", io.StringIO(text))
    assert _run(["hull", "-"]) == (1, "")
    assert capsys.readouterr().err == f"error: invalid literal for int() with base 10: {token!r}\n"


@pytest.mark.parametrize("command, g, cap", [
    ("hull", split_family(3), 14),
    ("hyperbolicity", fixture("C129"), 128),
])
def test_over_size_cap_is_an_input_error(tmp_path, capsys, command, g, cap):
    # The library has no vertex cap; the reader refuses these before any search.
    path = tmp_path / "g.txt"
    path.write_text(format_edge_list(g))
    assert _run([command, str(path)]) == (1, "")
    assert capsys.readouterr().err == f"error: n={g.n} exceeds the size cap {cap}\n"


def test_at_size_cap_runs(tmp_path):
    path = tmp_path / "c14.txt"
    path.write_text(format_edge_list(fixture("C14")))
    code, out = _run(["hull", str(path)])
    # |H(C14)| = (3^7 + 1) / 2 = 1094
    assert (code, out.splitlines()[:2]) == (0, ["n_real=14", "n_helly=1080"])
    path.write_text(format_edge_list(fixture("C128")))
    assert _run(["hyperbolicity", str(path)]) == (0, "delta=64/2 witness=(0,32,64,96)\n")


def test_parser_is_built_once_and_reuse_keeps_bytes(c4_file, house_file):
    from tightspan import cli

    argvs = [
        ["recognize", c4_file, "--witness"],
        ["hull", c4_file, "--format", "json"],
        ["hellify-dh", house_file],  # exit 3
        ["hull", c4_file, "--budget", "1"],  # exit 2
        ["hull", c4_file],  # the default budget again
        ["two-sets", house_file, "--budget", "0"],  # exit 1
        ["hyperbolicity", c4_file],
        ["generate", "fixture", "--name", "C5"],
        ["export-dot", house_file],
        ["recognize", house_file],  # no --witness after a run with it
    ]

    def run_captured(argv):
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code, out = _run(argv)
        return code, out, err.getvalue()

    alone = []
    for argv in argvs:
        cli._build_parser.cache_clear()
        alone.append(run_captured(argv))
    cli._build_parser.cache_clear()
    together = [run_captured(argv) for argv in argvs]
    assert together == alone
    assert [code for code, _, _ in alone] == [0, 0, 3, 2, 0, 1, 0, 0, 0, 0]
    assert cli._build_parser.cache_info().misses == 1
