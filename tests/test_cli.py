import contextlib
import copy
import io
import json
import os
import subprocess
import sys
import tempfile
from functools import cache
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

import linkless
from linkless.cli import main
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

    code, out, _ = run_cli(capsys, "minor", "grid4x4", "K6", "--budget", "10")
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


def test_classify_unknown_on_tiny_budget(capsys):
    code, out, _ = run_cli(capsys, "classify", "petersen", "--budget", "10")
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
from linkless.cli import main
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
    assert run_cli(capsys, "experiment", "k9", "--trials", "1")[0] == 2
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


def test_unknown_flags_rejected(capsys):
    assert run_cli(capsys, "classify", "K6", "--frobnicate")[0] == 2


def test_help_available_everywhere(capsys):
    for sub in ["classify", "minor", "petersen", "deltay", "embed", "omega",
                "reroute-check", "experiment", "acceptance"]:
        code, out, err = run_cli(capsys, sub, "--help")
        assert code == 0
        assert "usage" in (out + err).lower()


def test_budget_env_override(capsys, monkeypatch):
    monkeypatch.setenv("LINKLESS_BUDGET", "10")
    code, out, _ = run_cli(capsys, "minor", "grid4x4", "K6")
    assert code == 0
    assert json.loads(out)["found"] is None
    monkeypatch.setenv("LINKLESS_BUDGET", "oops")
    assert run_cli(capsys, "minor", "grid4x4", "K6")[0] == 2


def test_acceptance_reduced_scale(capsys):
    code, out, err = run_cli(capsys, "acceptance", "--trials", "3")
    assert code == 0
    doc = json.loads(out)
    assert doc["pass"] is True
    assert len(doc["criteria"]) == 8
    assert err.count("PASS") == 8


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
