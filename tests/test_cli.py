import ast
import contextlib
import copy
import hashlib
import io
import json
import os
import re
import shlex
import subprocess
import sys
import tempfile
from functools import cache
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import linkless
from linkless import cli
from linkless.cli import build_parser, main
from linkless.embedding import embedding_to_json_dict, random_embedding
from linkless.multigraph import builtin_graph, format_edge_list, graph_from_pairs
from linkless.planarity import PlanarCertificate, planar_certificate_errors

SRC = str(Path(linkless.__file__).resolve().parents[1])


def run_python(code, *args):
    env = dict(os.environ, PYTHONPATH=SRC)
    return subprocess.run([sys.executable, "-c", code, *args], capture_output=True,
                          text=True, env=env, timeout=120)


def certificate_from_json(doc):
    return PlanarCertificate(doc["apex"], {int(v): tuple(order)
                                           for v, order in doc["rotation"].items()})


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_classify_k6(capsys):
    code, out, _ = run_cli(capsys, "classify", "K6")
    assert code == 0
    doc = json.loads(out)
    assert doc["verdict"] == "linked"
    assert doc["witness"]["member"] == "K6"
    assert doc["schema_version"] == 1
    assert set(doc["witness"]["branch_sets"]) == {str(i) for i in range(1, 7)}


def test_classify_k5(capsys):
    code, out, _ = run_cli(capsys, "classify", "K5")
    assert code == 0
    assert json.loads(out)["verdict"] == "unlinked"


def test_classify_file_input(tmp_path, capsys):
    path = tmp_path / "path.graph"
    path.write_text("3 2\n1 2\n2 3\n")
    code, out, _ = run_cli(capsys, "classify", str(path))
    assert code == 0
    assert json.loads(out)["verdict"] == "unlinked"


def test_classify_stdout_byte_identical(capsys):
    _, out1, _ = run_cli(capsys, "classify", "K3,3,1")
    _, out2, _ = run_cli(capsys, "classify", "K3,3,1")
    assert out1 == out2


def test_petersen_list(capsys):
    code, out, _ = run_cli(capsys, "petersen", "list")
    assert code == 0
    doc = json.loads(out)
    assert doc["count"] == 7
    names = [m["name"] for m in doc["members"]]
    assert names == ["K6", "P7", "K3,3,1", "P8a", "P8b", "P9", "petersen"]
    assert all(m["edges"] == 15 for m in doc["members"])
    assert all(m["edge_list"].splitlines()[0].endswith(" 15") for m in doc["members"])

    # the emitted edge-list documents parse back to the family members
    from linkless.canonical import canonical_form
    from linkless.multigraph import parse_edge_list

    for m in doc["members"]:
        g = parse_edge_list(m["edge_list"])
        assert canonical_form(g).hex() == m["canonical"]


def test_minor_subcommand(capsys):
    code, out, _ = run_cli(capsys, "minor", "K7", "K6")
    assert code == 0
    doc = json.loads(out)
    assert doc["found"] is True
    assert set(doc["model"]["branch_sets"]) == {str(i) for i in range(1, 7)}

    code, out, _ = run_cli(capsys, "minor", "petersen", "K6")
    assert json.loads(out)["found"] is False

    # K4,5 is not planar and clears the cycle-rank rule for K6, so the
    # budget runs out
    code, out, _ = run_cli(capsys, "minor", "K4,5", "K6", "--budget", "10")
    assert code == 0
    assert json.loads(out)["found"] is None


def test_deltay_subcommand(capsys):
    code, out, _ = run_cli(capsys, "deltay", "K6", "--triangle", "1,2,3")
    assert code == 0
    doc = json.loads(out)
    assert doc["result"]["vertices"] == 7
    assert doc["result"]["edges"] == 15
    assert doc["result"]["new_vertex"] == 7

    code, _, err = run_cli(capsys, "deltay", "K3,3", "--triangle", "1,2,3")
    assert code == 2
    assert "triangle" in err


def test_embed_and_omega_roundtrip(tmp_path, capsys):
    out_file = tmp_path / "k6.json"
    code, _, _ = run_cli(capsys, "embed", "K6", "--seed", "5", "-o", str(out_file))
    assert code == 0
    doc = json.loads(out_file.read_text())
    assert doc["schema_version"] == 1
    assert len(doc["vertices"]) == 6

    code, out, _ = run_cli(capsys, "omega", str(out_file))
    assert code == 0
    report = json.loads(out)
    assert report["omega"] == 1
    assert report["interpretation"] == "linked"
    assert report["pair_count"] == 10


def test_embed_of_an_edge_list_file_reads_back(tmp_path, capsys):
    # the file stem "tet" names no builtin graph, so the edge list is written
    graph_file, out_file = tmp_path / "tet.txt", tmp_path / "e.json"
    graph_file.write_text("4 6\n1 2\n1 3\n1 4\n2 3\n2 4\n3 4\n")
    code, _, _ = run_cli(capsys, "embed", str(graph_file), "-o", str(out_file))
    assert code == 0
    assert json.loads(out_file.read_text())["graph"] == graph_file.read_text()
    code, out, err = run_cli(capsys, "omega", str(out_file))
    assert (code, err) == (0, "")
    assert json.loads(out)["pair_count"] == 0


def test_embed_file_is_what_json_dumps_writes(tmp_path, capsys):
    out_file = tmp_path / "k7.json"
    code, out, _ = run_cli(capsys, "embed", "K7", "--seed", "2", "-o", str(out_file))
    assert code == 0
    doc = embedding_to_json_dict(random_embedding(builtin_graph("K7"), 2))
    assert out_file.read_text() == json.dumps(doc, sort_keys=True, indent=2) + "\n"
    assert out == json.dumps({"command": "embed", "graph": "K7", "schema_version": 1,
                              "seed": 2, "written": str(out_file)},
                             sort_keys=True, indent=2) + "\n"


_JSON_TREES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.text(st.characters(max_codepoint=0x1F600), max_size=6),
    lambda inner: st.lists(inner, max_size=4) | st.lists(inner, max_size=3).map(tuple)
    | st.dictionaries(st.text(max_size=4), inner, max_size=4)
    | st.dictionaries(st.integers(-3, 3), inner, max_size=2),
    max_leaves=30)


@settings(max_examples=500, deadline=None)
@given(_JSON_TREES)
def test_encoder_writes_what_json_dumps_writes(tree):
    assert cli._dumps(tree) == json.dumps(tree, sort_keys=True, indent=2)


def test_encoder_keeps_bools_ints_strings_and_none_apart():
    # ints and strings are written inline by their parent, which tests
    # ``type(value) is int``: True must still print as true, not as 1
    siblings = {"a": True, "b": 1, "c": "1", "d": None, "e": False, "f": 0}
    doc = {"dict": siblings, "tuple": (True, 1, "1", None, False, 0)}
    assert cli._dumps(doc) == json.dumps(doc, sort_keys=True, indent=2) == (
        '{\n  "dict": {\n    "a": true,\n    "b": 1,\n    "c": "1",\n    "d": null,\n'
        '    "e": false,\n    "f": 0\n  },\n  "tuple": [\n    true,\n    1,\n    "1",\n'
        '    null,\n    false,\n    0\n  ]\n}')


def test_embed_to_stdout_deterministic(capsys):
    _, out1, _ = run_cli(capsys, "embed", "K3,3", "--seed", "2")
    _, out2, _ = run_cli(capsys, "embed", "K3,3", "--seed", "2")
    assert out1 == out2
    doc = json.loads(out1)
    assert len(doc["edges"]) == 9


def test_omega_with_direction_flag(tmp_path, capsys):
    out_file = tmp_path / "k5.json"
    run_cli(capsys, "embed", "K5", "--seed", "1", "-o", str(out_file))
    code, out, _ = run_cli(capsys, "omega", str(out_file), "--direction", "0,0,1")
    assert code == 0
    doc = json.loads(out)
    assert doc["omega"] == 0
    assert doc["interpretation"] == "omega=0 (inconclusive)"


def test_omega_non_regular_direction_is_input_error(tmp_path, capsys):
    out_file = tmp_path / "k6.json"
    run_cli(capsys, "embed", "K6", "--seed", "0", "-o", str(out_file))
    doc = json.loads(out_file.read_text())
    a = [int(c) for c in doc["vertices"]["1"]]
    b = [int(c) for c in doc["vertices"]["2"]]
    along_edge = ",".join(str(x - y) for x, y in zip(a, b))
    code, _, err = run_cli(capsys, "omega", str(out_file), f"--direction={along_edge}")
    assert code == 2
    assert "end-on" in err or "regular" in err.lower()


def test_omega_rejects_corrupt_file(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run_cli(capsys, "omega", str(bad))
    assert code == 2
    assert "JSON" in err

    missing = tmp_path / "missing.json"
    code, _, _ = run_cli(capsys, "omega", str(missing))
    assert code == 2

    truncated = tmp_path / "trunc.json"
    truncated.write_text(json.dumps({"graph": "K3"}))
    code, _, err = run_cli(capsys, "omega", str(truncated))
    assert code == 2


def test_experiment_subcommand(capsys):
    code, out, err = run_cli(capsys, "experiment", "k6", "--trials", "10", "--seed", "0")
    assert code == 0
    doc = json.loads(out)
    assert doc["all_omega_one"] is True
    assert doc["omega_counts"] == {"1": 10}
    assert "10/10" in err


def test_reroute_check_subcommand(capsys):
    code, out, _ = run_cli(capsys, "reroute-check", "K6", "--trials", "5", "--seed", "0")
    assert code == 0
    doc = json.loads(out)
    assert doc["pass"] is True
    assert doc["preserved"] == 5


@pytest.mark.parametrize("command", ["experiment", "reroute-check"])
def test_experiment_commands_take_an_edge_list_file(tmp_path, capsys, command):
    path = tmp_path / "mygraph.txt"
    path.write_text(format_edge_list(builtin_graph("K6")))
    code, out, err = run_cli(capsys, command, str(path), "--trials", "3")
    assert code == 0
    doc = json.loads(out)
    assert doc["graph"] == "mygraph"
    assert doc[{"experiment": "all_omega_one", "reroute-check": "pass"}[command]] is True
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["experiment", "reroute-check"])
def test_k331_names_k331_in_experiment_commands(capsys, command):
    outputs = set()
    for name in ("k331", "K331", "K3,3,1"):
        code, out, _ = run_cli(capsys, command, name, "--trials", "2", "--seed", "5")
        assert code == 0
        outputs.add(out)
    assert len(outputs) == 1
    assert json.loads(outputs.pop())["graph"] == "K3,3,1"
    for name in ("K3_3_1", "k3 3 1", "heawood"):
        code, out, err = run_cli(capsys, command, name, "--trials", "1")
        assert (code, out) == (2, "")
        assert "unknown builtin graph name" in err and "Traceback" not in err


def test_reroute_check_on_edgeless_graph_exits_2(tmp_path, capsys):
    path = tmp_path / "empty.graph"
    path.write_text("3 0\n")
    code, out, err = run_cli(capsys, "reroute-check", str(path), "--trials", "2")
    assert (code, out) == (2, "")
    assert "at least one edge" in err and "Traceback" not in err


def test_classify_unknown_on_tiny_budget(capsys):
    # K6,6 is neither planar nor apex, and no member is ruled out by rank
    code, out, _ = run_cli(capsys, "classify", "K6,6", "--budget", "10")
    assert code == 0
    doc = json.loads(out)
    assert doc["verdict"] == "unknown"
    assert doc["witness"] is None
    assert all(v == "budget-exhausted" for v in doc["stats"]["per_member"].values())


def test_classify_planar_host_on_tiny_budget(capsys):
    code, out, _ = run_cli(capsys, "classify", "grid4x4", "--budget", "10")
    assert code == 0
    doc = json.loads(out)
    assert doc["verdict"] == "unlinked"
    assert doc["stats"] == {"decided_by": "planar", "nodes": 0, "per_member": {}}
    certificate = certificate_from_json(doc["certificate"])
    assert certificate.apex is None
    assert planar_certificate_errors(builtin_graph("grid4x4"), certificate) == []


def test_classify_searched_host_reports_route(capsys):
    _, out, _ = run_cli(capsys, "classify", "K6")
    doc = json.loads(out)
    assert doc["stats"]["decided_by"] == "search"
    assert doc["certificate"] is None


def test_classify_large_wheel(tmp_path, capsys):
    # 1101 vertices: far past any recursion limit, decided before any search
    n = 1100
    wheel = graph_from_pairs([(0, i) for i in range(1, n + 1)]
                             + [(i, i % n + 1) for i in range(1, n + 1)])
    path = tmp_path / "wheel.graph"
    path.write_text(format_edge_list(wheel))
    code, out, err = run_cli(capsys, "classify", str(path), "--budget", "100000")
    assert code == 0
    assert "Traceback" not in err
    doc = json.loads(out)
    assert doc["verdict"] == "unlinked"
    assert doc["stats"]["decided_by"] == "planar"
    assert planar_certificate_errors(wheel, certificate_from_json(doc["certificate"])) == []


def test_successive_calls_match_first_calls():
    # one process serves several commands, including a usage error and
    # --help; each must behave as it does as the first call of a process
    commands = [
        ["classify", "K5"],
        ["classify"],
        ["omega", "--help"],
        ["petersen", "list"],
        ["deltay", "K6", "--triangle", "1,2,3"],
        ["nonsense"],
        ["classify", "K3,3,1", "--budget", "100"],
        ["classify", "K5"],
    ]
    driver = """
import contextlib, io, json, sys
from linkless.cli import build_parser, main
results = []
for argv in json.loads(sys.argv[1]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    results.append([code, out.getvalue()])
print(json.dumps(results))
"""
    successive = json.loads(run_python(driver, json.dumps(commands)).stdout)
    for argv, (code, out) in zip(commands, successive):
        first = json.loads(run_python(driver, json.dumps([argv])).stdout)[0]
        assert [code, out] == first, argv
    assert [code for code, _ in successive] == [0, 2, 0, 0, 0, 2, 0, 0]


def test_runtime_does_not_import_networkx():
    probe = """
import sys
import linkless
from linkless.minors import is_intrinsically_linked
assert is_intrinsically_linked(linkless.builtin_graph("grid4x4")).decided_by == "planar"
print("networkx" in sys.modules)
"""
    result = run_python(probe)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "False"


def test_usage_errors_exit_2(capsys):
    assert run_cli(capsys, "classify", "heawood")[0] == 2
    assert run_cli(capsys, "experiment", "heawood", "--trials", "1")[0] == 2
    assert run_cli(capsys, "reroute-check", "heawood", "--trials", "1")[0] == 2
    assert run_cli(capsys, "classify")[0] == 2
    assert run_cli(capsys, "nonsense")[0] == 2


def test_oversized_graphs_exit_2_at_once(tmp_path, capsys):
    import time

    path = tmp_path / "huge.graph"
    path.write_text("1000000000 0\n")
    for graph in ("K100000", str(path)):
        start = time.process_time()
        code, out, err = run_cli(capsys, "classify", graph)
        assert time.process_time() - start < 1.0
        assert (code, out) == (2, "")
        assert err.startswith("error:") and "n + m may be at most" in err
        assert "Traceback" not in err


@pytest.mark.parametrize("graph", ["grid6x6", "grid20x20"])
def test_circuit_enumeration_work_is_bounded(capsys, graph):
    # their self-avoiding paths rarely close, so counting circuits alone
    # would run for minutes before reaching the circuit cap
    import time

    start = time.process_time()
    code, out, err = run_cli(capsys, "experiment", graph, "--trials", "1")
    assert time.process_time() - start < 20.0
    assert (code, out) == (2, "")
    assert err.startswith("error:") and "path extensions" in err
    assert "Traceback" not in err


def test_minor_on_a_large_host_runs_out_of_budget_without_a_traceback(tmp_path, capsys):
    # the subset enumeration once recursed per vertex added to a branch
    # set, so a budget of a few thousand nodes overflowed the stack here;
    # one edge across the grid makes the host non-planar, so it is searched
    import time

    path = tmp_path / "grid34x34+e.graph"
    grid = builtin_graph("grid34x34")
    path.write_text(format_edge_list(graph_from_pairs([(e.u, e.v) for e in grid.edges]
                                                      + [(351, 701)])))
    start = time.process_time()
    code, out, err = run_cli(capsys, "minor", str(path), "K6", "--budget", "3000")
    assert time.process_time() - start < 5.0
    assert code == 0
    doc = json.loads(out)
    assert (doc["found"], doc["reason"]) == (None, "budget exhausted")
    assert "Traceback" not in err


def test_unknown_flags_rejected(capsys):
    assert run_cli(capsys, "classify", "K6", "--frobnicate")[0] == 2


def test_help_available_everywhere(capsys):
    for sub in ["classify", "minor", "petersen", "deltay", "embed", "omega",
                "reroute-check", "experiment", "acceptance"]:
        code, out, err = run_cli(capsys, sub, "--help")
        assert code == 0
        assert "usage" in (out + err).lower()


def test_readme_commands_parse():
    # the command block under "Command line" in README.md; parsed, not run
    readme = Path(SRC).parent.joinpath("README.md").read_text()
    section = readme.split("## Command line", 1)[1]
    block = section.split("```", 2)[1]
    lines = [shlex.split(line, comments=True) for line in block.splitlines()]
    commands = [words[1:] for words in lines if words and words[0] == "linkless"]
    assert len(commands) >= 10
    parser = build_parser()
    for argv in commands:
        try:
            parser.parse_args(argv)
        except SystemExit:
            pytest.fail(f"README command does not parse: linkless {shlex.join(argv)}")


def test_no_module_reads_the_environment():
    # every setting is a command-line argument; none comes from os.environ
    for path in sorted(Path(SRC, "linkless").glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            name = (node.attr if isinstance(node, ast.Attribute)
                    else node.id if isinstance(node, ast.Name) else None)
            assert name not in ("environ", "environb", "getenv"), (
                f"{path.name}:{node.lineno} reads the environment")


def _sorts_edges_by_id(node) -> bool:
    """A sorted() or .sort() call keyed on .id, or sorted() of an `edges`
    attribute (an Edge sorts by its id first)."""
    if not (isinstance(node, ast.Call)
            and (isinstance(node.func, ast.Name) and node.func.id == "sorted"
                 or isinstance(node.func, ast.Attribute) and node.func.attr == "sort")):
        return False
    key = next((k.value for k in node.keywords if k.arg == "key"), None)
    return (isinstance(key, ast.Lambda) and isinstance(key.body, ast.Attribute)
            and key.body.attr == "id"
            or bool(node.args) and isinstance(node.args[0], ast.Attribute)
            and node.args[0].attr == "edges")


# the NonRegularProjection messages of the crossing kernel's pair test
PAIR_TEST_MESSAGES = ("tangential contact between segments", "triple point",
                      "segments sharing an endpoint overlap in projection")


def test_derived_state_stays_with_the_module_that_builds_it():
    # only `embedding` names its validation internals and only `omega` its
    # direction search, only `omega` builds a graph's pair index
    # (`graph_pairs`), only `projection` reads the crossing matrix, checks
    # lk parities and raises the pair test's messages (each in one place),
    # only `projection` constructs a `ProjectedDiagram` (in `project`), no module
    # sorts a graph's edges by id (a MultiGraph stores them in id order),
    # no report carries wall-clock timings, only `moves` names the pinned
    # family table, and only `canonical` packs keys and defines the search
    owners = {"_check_edge": {"embedding.py"}, "_segments": {"embedding.py"},
              "_general_position": {"embedding.py"},
              "COORDINATE_BOUND": {"embedding.py"}, "RETRY_LIMIT": {"embedding.py"},
              "direction_stream": {"omega.py"}, "DIRECTION_ATTEMPTS": {"omega.py"},
              "disjoint_circuit_pairs": {"circuits.py", "omega.py", "__init__.py"},
              "pair_index": {"projection.py", "omega.py"},
              "edge_endpoints": {"projection.py", "omega.py"},
              "crossing_matrix": {"projection.py"},
              "_FAMILY": {"moves.py"}, "_pack_key": {"canonical.py"},
              "_canonical_search": {"canonical.py"}}
    raised: dict[str, list[str]] = {}
    diagrams = set()
    for path in sorted(Path(SRC, "linkless").glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id == "NonRegularProjection" and node.args
                    and isinstance(node.args[0], ast.Constant)):
                raised.setdefault(node.args[0].value, []).append(path.name)
            if isinstance(node, ast.Call) and "ProjectedDiagram" in (
                    getattr(node.func, "id", None), getattr(node.func, "attr", None)):
                diagrams.add(path.name)
            name = (node.attr if isinstance(node, ast.Attribute)
                    else node.id if isinstance(node, ast.Name)
                    else node.name if isinstance(node, (ast.alias, ast.FunctionDef))
                    else None)
            assert path.name in owners.get(name, {path.name}), (
                f"{path.name}:{node.lineno} names {name}, owned by {sorted(owners[name])}")
            text = node.value if isinstance(node, ast.Constant) else None
            assert text != "_timings", f"{path.name}:{node.lineno} names a _timings key"
            assert not (isinstance(text, str) and "parity disagrees" in text
                        and path.name != "projection.py"), (
                f"{path.name}:{node.lineno} checks lk parities outside projection.py")
            assert not _sorts_edges_by_id(node), (
                f"{path.name}:{node.lineno} sorts edges by id")
    for message in PAIR_TEST_MESSAGES:
        assert raised.get(message) == ["projection.py"], (message, raised.get(message))
    assert diagrams == {"projection.py"}, f"a ProjectedDiagram is constructed in {diagrams}"


def _named_outside_their_defs(tree) -> set[str]:
    """The names of imports, variables and attributes in ``tree``, each
    kept unless it is the name of a function or class that encloses it."""
    named, todo = set(), [(tree, frozenset())]
    while todo:
        node, around = todo.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            around = around | {node.name}
        name = (node.attr if isinstance(node, ast.Attribute)
                else node.id if isinstance(node, ast.Name)
                else node.name if isinstance(node, ast.alias) else None)
        if name is not None and name not in around:
            named.add(name)
        todo += [(child, around) for child in ast.iter_child_nodes(node)]
    return named


def test_every_definition_has_a_caller_outside_the_tests():
    # a function or class of the package (dunders aside) is named in the
    # package outside its own definition, exported, or named by the
    # benchmarks; one that only tests call is not kept
    trees = {path.name: ast.parse(path.read_text(), filename=str(path))
             for path in sorted(Path(SRC, "linkless").glob("*.py"))}
    named = set().union(*map(_named_outside_their_defs, trees.values()))
    benchmarks = "\n".join(path.read_text()
                           for path in sorted(Path(SRC).parent.joinpath("benchmarks").glob("*.py")))
    uncalled = [
        f"{file}:{node.lineno} {node.name}"
        for file, tree in trees.items() for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not (node.name.startswith("__") and node.name.endswith("__"))
        and node.name not in named and node.name not in linkless.__all__
        and not re.search(rf"\b{node.name}\b", benchmarks)]
    assert uncalled == []


@pytest.mark.parametrize("argv", [
    ["reroute-check", "K6", "--trials", "-3"],
    ["reroute-check", "K6", "--trials", "0"],
    ["experiment", "k6", "--trials", "0"],
    ["acceptance", "--trials", "-1"],
    ["acceptance", "--trials", "0"],
    ["acceptance", "--trials", "three"],
    ["classify", "K6", "--budget", "-1"],
    ["minor", "K7", "K6", "--budget", "-1"],
], ids=" ".join)
def test_out_of_range_counts_exit_2(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert "must be at least" in err or "not an integer" in err


def test_zero_budget_is_valid(capsys):
    code, out, _ = run_cli(capsys, "classify", "K6", "--budget", "0")
    assert code == 0
    assert json.loads(out)["budget"] == 0


def test_unwritable_output_exits_2(tmp_path, capsys):
    target = tmp_path / "missing" / "x.json"
    code, out, err = run_cli(capsys, "embed", "K4", "-o", str(target))
    assert (code, out) == (2, "")
    assert err.startswith("error: cannot write")
    assert "Traceback" not in err


@pytest.mark.parametrize("text", ["[" + "9" * 5000 + "]", "[" * 200_000 + "]" * 200_000],
                         ids=["over-long integer", "deep nesting"])
def test_malformed_json_exits_2(tmp_path, capsys, text):
    path = tmp_path / "e.json"
    path.write_text(text)
    code, out, err = run_cli(capsys, "omega", str(path))
    assert (code, out) == (2, "")
    assert err.startswith("error: embedding file is not valid JSON")
    assert "Traceback" not in err


@pytest.mark.parametrize("text", ["null", "3", '"x"', "[1,2]"])
def test_an_embedding_document_that_is_no_object_exits_2(tmp_path, capsys, text):
    path = tmp_path / "e.json"
    path.write_text(text)
    code, out, err = run_cli(capsys, "omega", str(path))
    assert (code, out) == (2, "")
    assert err == ("input error: embedding document needs a graph string, "
                   "a vertices object and an edges list\n")


def test_a_builtin_name_of_another_size_exits_2_at_once(tmp_path, capsys, monkeypatch):
    # the name's counts are compared with the document's before anything
    # is built, and the message stays short
    import linkless.multigraph as multigraph

    def refuse(n):
        raise AssertionError(f"built K{n}")

    monkeypatch.setattr(multigraph, "complete_graph", refuse)
    path = tmp_path / "e.json"
    path.write_text('{"graph": "K1400", "vertices": {"1": ["0","0","0"]}, "edges": []}')
    code, out, err = run_cli(capsys, "omega", str(path))
    assert (code, out) == (2, "")
    assert "graph K1400 has 1400 vertices and 979300 edges" in err
    assert len(err) < 200


def test_unreadable_embedding_exits_2(tmp_path, capsys, monkeypatch):
    path = tmp_path / "e.json"
    path.write_text("{}")

    def refuse(self, *args, **kwargs):
        raise PermissionError(13, "Permission denied", str(self))

    monkeypatch.setattr(Path, "read_text", refuse)
    code, out, err = run_cli(capsys, "omega", str(path))
    assert (code, out) == (2, "")
    assert err.startswith("error: cannot read")
    assert "Traceback" not in err


def _k6_embedding_doc():
    return embedding_to_json_dict(random_embedding(builtin_graph("K6"), 0))


def _omega_on(tmp_path, capsys, doc):
    path = tmp_path / "e.json"
    path.write_text(json.dumps(doc))
    return run_cli(capsys, "omega", str(path))


def test_colliding_vertex_keys_exit_2(tmp_path, capsys):
    doc = _k6_embedding_doc()
    doc["vertices"]["01"] = ["5", "0", "0"]  # would silently move vertex 1
    code, out, err = _omega_on(tmp_path, capsys, doc)
    assert (code, out) == (2, "")
    assert "vertex 1" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("key", ["+2", " 2 ", "1_0", "01"])
def test_non_canonical_vertex_keys_exit_2(tmp_path, capsys, key):
    # the key replaces the decimal spelling of the vertex it names, so the
    # document is otherwise a valid embedding of the Petersen graph
    doc = embedding_to_json_dict(random_embedding(builtin_graph("petersen"), 0))
    doc["vertices"][key] = doc["vertices"].pop(str(int(key)))
    code, out, err = _omega_on(tmp_path, capsys, doc)
    assert (code, out) == (2, "")
    assert "decimal spelling" in err
    assert "Traceback" not in err


def test_boolean_edge_end_exits_2(tmp_path, capsys):
    doc = _k6_embedding_doc()
    edge = next(entry for entry in doc["edges"] if entry["u"] == 1)
    edge["u"] = True  # JSON true, which compares equal to vertex 1
    code, out, err = _omega_on(tmp_path, capsys, doc)
    assert (code, out) == (2, "")
    assert "integers" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("where", ["file", "direction"])
def test_exponent_coordinates_exit_2_at_once(tmp_path, capsys, where):
    import time

    doc = _k6_embedding_doc()
    args = []
    if where == "file":
        doc["vertices"]["1"][0] = "1e10000000"
    else:
        args = ["--direction", "1e10000000,0,1"]
    path = tmp_path / "e.json"
    path.write_text(json.dumps(doc))
    start = time.process_time()
    code, out, err = run_cli(capsys, "omega", str(path), *args)
    assert time.process_time() - start < 1.0
    assert (code, out) == (2, "")
    assert "not a rational" in err
    assert "Traceback" not in err


def test_acceptance_reduced_scale(capsys):
    code, out, err = run_cli(capsys, "acceptance", "--trials", "3")
    assert code == 0
    doc = json.loads(out)
    assert doc["pass"] is True
    assert len(doc["criteria"]) == 8
    assert err.count("PASS") == 8
    # the whole document is pinned: a refactor of the suite keeps it byte-identical
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "3d4a8ac1b3681b8791cf5dee0780d72ea0658b7e3931e162c0b2bdd1785ed646")


# -- fuzzing: any document gives exit 0, 1 or 2 and never an exception -------

_COUNTS = st.integers(0, 40)
_HEADERS = st.one_of(
    st.tuples(_COUNTS, _COUNTS).map(lambda nm: f"{nm[0]} {nm[1]}"),
    st.sampled_from(["", "3", "x 2", "3 y", "-1 0", "2 -1", "1 2 3", "2.5 1",
                     "0x3 1", "# 3 2", "3,2", "K4", "petersen 2"]),
)
_EDGE_LINES = st.one_of(
    st.tuples(st.integers(-2, 42), st.integers(-2, 42)).map(lambda uv: f"{uv[0]} {uv[1]}"),
    st.sampled_from(["", "1", "1 2 3", "a b", "# note", "1 x", "  7   8  ", "2\t3"]),
)


@st.composite
def _edge_list_documents(draw):
    if draw(st.booleans()):
        # a well-formed document, so that the commands get past parsing
        n = draw(st.integers(1, 12))
        vertex = st.integers(1, n)
        pairs = draw(st.lists(st.tuples(vertex, vertex), max_size=40))
        lines = [f"{n} {len(pairs)}"] + [f"{u} {v}" for u, v in pairs]
    else:
        lines = [draw(_HEADERS)] + draw(st.lists(_EDGE_LINES, max_size=40))
    return "\n".join(lines) + "\n"


@cache
def _base_embedding_bytes() -> bytes:
    # an unnamed K6, so that its graph is stored as an edge-list document
    k6 = graph_from_pairs([(u, v) for u in range(1, 7) for v in range(u + 1, 7)])
    emb = random_embedding(k6, 1)
    return json.dumps(embedding_to_json_dict(emb), sort_keys=True, indent=2).encode()


_MUTATIONS = st.lists(
    st.tuples(st.sampled_from(["replace", "insert", "delete"]),
              st.integers(0, 10**6), st.integers(0, 255)),
    min_size=1, max_size=4)


def _mutate(data: bytes, mutations) -> bytes:
    buf = bytearray(data)
    for kind, where, byte in mutations:
        i = where % (len(buf) + 1)
        if kind == "insert":
            buf.insert(i, byte)
        elif i < len(buf):
            if kind == "replace":
                buf[i] = byte
            else:
                del buf[i]
    return bytes(buf)


_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 8) | st.text("0123456789/- Kx\n", max_size=6),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(["u", "v", "waypoints", "1", "x"]), inner, max_size=3),
    max_leaves=5)


def _replace_value(doc, slot: int, value):
    """A copy of the JSON document whose slot-th value (pre-order, wrapping) is value."""
    doc = copy.deepcopy(doc)
    slots = []

    def walk(node):
        if isinstance(node, dict):
            children = node.items()
        elif isinstance(node, list):
            children = enumerate(node)
        else:
            return
        for key, child in children:
            slots.append((node, key))
            walk(child)

    walk(doc)
    node, key = slots[slot % len(slots)]
    node[key] = value
    return doc


def _quiet_main(argv) -> int:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return main(argv)


@settings(max_examples=60, deadline=None)
@given(doc=_edge_list_documents(), budget=st.integers(0, 200),
       command=st.sampled_from(["classify", "minor-host", "minor-target", "deltay"]))
def test_cli_survives_edge_list_documents(doc, budget, command):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "fuzz.graph")
        with open(path, "w") as fh:
            fh.write(doc)
        argv = {
            "classify": ["classify", path, "--budget", str(budget)],
            "minor-host": ["minor", path, "K4", "--budget", str(budget)],
            "minor-target": ["minor", "K6", path, "--budget", str(budget)],
            "deltay": ["deltay", path, "--triangle", "1,2,3"],
        }[command]
        assert _quiet_main(argv) in (0, 1, 2)


@settings(max_examples=60, deadline=None)
@given(mutations=_MUTATIONS)
def test_cli_survives_mutated_embedding_json(mutations):
    data = _mutate(_base_embedding_bytes(), mutations)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "fuzz.json")
        with open(path, "wb") as fh:
            fh.write(data)
        assert _quiet_main(["omega", path]) in (0, 1, 2)


@settings(max_examples=60, deadline=None)
@given(slot=st.integers(0, 10**4), value=_JSON_VALUES)
def test_cli_survives_retyped_embedding_json(slot, value):
    doc = _replace_value(json.loads(_base_embedding_bytes()), slot, value)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "fuzz.json")
        with open(path, "w") as fh:
            json.dump(doc, fh)
        assert _quiet_main(["omega", path]) in (0, 1, 2)


def test_non_utf8_files_are_input_errors(tmp_path, capsys):
    for name, argv in (("g.graph", ["classify"]), ("e.json", ["omega"])):
        path = tmp_path / name
        path.write_bytes(b"\x80\xff 3 2\n")
        code, out, err = run_cli(capsys, *argv, str(path))
        assert (code, out) == (2, "")
        assert err.startswith("error:")
