"""The CLI's stdout and exit codes, pinned by sha256 digests.

Every command below runs in-process through ``linkless.cli.main``; its
stdout digest and exit code must equal the ones stored in
``stdout_digests.json``.  A change that is meant to keep stdout
byte-identical (a speed-up, a refactor) must leave this test passing.  A
change that alters stdout on purpose re-records the file with

    PYTHONPATH=src python tests/test_stdout_contract.py

and says why in its change notes; ``--check`` compares instead of
recording, and exits 1 on a difference.  Neither needs pytest, so both
run under the oldest supported interpreter.  The ``omega`` cases read the
embeddings that the ``embed`` cases print, so those files never need to
be stored.  The other cases on "{...}" names read the edge lists in
``EDGE_LISTS`` and the embeddings in ``EMBEDDINGS``, written to a
temporary directory.
"""

from __future__ import annotations

import contextlib
import copy
import hashlib
import io
import json
import sys
import tempfile
from functools import cache
from pathlib import Path

from linkless import cli
from linkless.cli import main

DIGESTS = Path(__file__).with_name("stdout_digests.json")

# Edge-list files for the classifier cases.  P9 with its vertices relabelled,
# two edges subdivided and two pendant trees is linked, and the search passes
# through five members before P9.  The Petersen graph minus one edge, scaled
# by 3, with one edge subdivided and a pendant vertex, is a near miss that
# the apex route decides.  Two K5s joined by an edge are neither planar nor
# apex, so all seven member searches run to completion.
EDGE_LISTS = {
    "{P9+decorations}": """15 21
23 40
40 28
23 14
17 12
17 14
31 12
31 28
31 14
31 19
14 19
25 23
25 12
25 19
11 17
11 28
11 41
41 42
42 19
31 50
50 51
14 52
""",
    "{petersen-e+decorations}": """12 16
3 15
3 18
6 12
6 40
40 18
9 12
9 15
24 3
24 12
27 6
27 15
27 21
30 9
30 18
30 21
21 41
""",
    "{K5-bridge-K5}": "10 21\n" + "".join(
        f"{u + side} {v + side}\n" for side in (0, 5)
        for u in range(1, 6) for v in range(u + 1, 6)) + "5 6\n",
    "{K6-e}": "6 14\n" + "".join(
        f"{u} {v}\n" for u in range(1, 7) for v in range(u + 1, 7) if (u, v) != (5, 6)),
    # the K5-bridge-K5 host beside K3,3,1 on 21-27 (sides {21,24,27} and
    # {22,25,26}, apex 23), edges in scrambled order: the components route
    "{K5-bridge-K5+K3,3,1}": "17 36\n" + "".join(
        f"{u + side} {v + side}\n" for side in (0, 5)
        for u in range(1, 6) for v in range(u + 1, 6)) + "5 6\n" + """26 24
23 21
25 27
21 22
23 26
24 25
27 23
22 27
25 21
23 24
26 21
22 24
23 25
26 27
22 23
""",
}

# Embedding files written by hand: K6 with rational vertices and polyline
# edges with rational waypoints, so the projection clears denominators.
_K6_WAYPOINTS = {
    (1, 2): [["3/2", "-1", "1/2"]],
    (1, 4): [["-1", "1", "1/3"], ["-2/3", "5/2", "3/2"]],
    (2, 5): [["5/2", "2", "7/2"]],
    (3, 4): [["1", "9/2", "1/2"]],
    (3, 6): [["4", "1/4", "1/5"]],
    (4, 5): [["0", "5/2", "4"]],
}
EMBEDDINGS = {
    "{K6-polyline}": json.dumps({
        "graph": "K6",
        "vertices": {"1": ["0", "0", "0"], "2": ["3", "1/2", "1"],
                     "3": ["5/2", "7/2", "-1/3"], "4": ["-1/2", "3", "2"],
                     "5": ["1", "3/2", "9/2"], "6": ["7/3", "-2", "5/2"]},
        "edges": [{"u": u, "v": v, "waypoints": _K6_WAYPOINTS.get((u, v), [])}
                  for u in range(1, 7) for v in range(u + 1, 7)],
    }),
}

# (case name, argv); "{K6}" and "{K7}" stand for the file holding the
# stdout of the "embed-K6" and "embed-K7" cases, the other "{...}" names
# for the files of EDGE_LISTS and EMBEDDINGS
CASES = [
    ("experiment-k6", ["experiment", "k6", "--trials", "30", "--seed", "5"]),
    ("experiment-k331", ["experiment", "k331", "--trials", "20", "--seed", "2"]),
    ("experiment-petersen", ["experiment", "petersen", "--trials", "4", "--seed", "1"]),
    ("reroute-K6", ["reroute-check", "K6", "--trials", "20", "--seed", "4"]),
    ("reroute-K3,3,1", ["reroute-check", "K3,3,1", "--trials", "10", "--seed", "1"]),
    # the straight Petersen embedding is accepted by the segment-pair walk,
    # not by the general-position certificate
    ("reroute-petersen", ["reroute-check", "petersen", "--trials", "4", "--seed", "1"]),
    ("embed-K6", ["embed", "K6", "--seed", "1"]),
    ("embed-K7", ["embed", "K7", "--seed", "2"]),
    ("omega-K6", ["omega", "{K6}"]),
    ("omega-K6-seed", ["omega", "{K6}", "--seed", "3"]),
    ("omega-K6-direction", ["omega", "{K6}", "--direction", "1/2,-2/3,5"]),
    ("omega-K7", ["omega", "{K7}"]),
    ("omega-K7-direction", ["omega", "{K7}", "--direction", "1/2,-2/3,5"]),
    ("omega-K7-zero-direction", ["omega", "{K7}", "--direction", "0,0,0"]),
    ("classify-K6", ["classify", "K6"]),
    ("classify-petersen", ["classify", "petersen"]),
    ("classify-grid3x3", ["classify", "grid3x3"]),
    # searches that run out of budget partway, and searches that pass
    # through several members before a witness or a definitive "no"
    ("minor-petersen-K6-budget", ["minor", "petersen", "K6", "--budget", "100"]),
    ("classify-petersen-budget", ["classify", "petersen", "--budget", "100"]),
    # a planar host has no K6 minor, so this "no" spends no node; K4,5 is
    # not planar and its K6 search runs out
    ("minor-grid5x5-K6-budget", ["minor", "grid5x5", "K6", "--budget", "100"]),
    ("minor-K4,5-K6-budget", ["minor", "K4,5", "K6", "--budget", "100"]),
    ("classify-K6,6-budget", ["classify", "K6,6", "--budget", "10"]),
    ("classify-P9-decorated", ["classify", "{P9+decorations}"]),
    ("classify-P9-decorated-budget", ["classify", "{P9+decorations}", "--budget", "100"]),
    ("classify-near-miss", ["classify", "{petersen-e+decorations}"]),
    ("classify-K5-bridge-K5", ["classify", "{K5-bridge-K5}"]),
    ("minor-K5-bridge-K5-K6", ["minor", "{K5-bridge-K5}", "K6"]),
    ("classify-K5-bridge-K5+K3,3,1", ["classify", "{K5-bridge-K5+K3,3,1}"]),
    ("petersen-list", ["petersen", "list"]),
    ("deltay-K6", ["deltay", "K6", "--triangle", "1,2,3"]),
    ("minor-K7-K6", ["minor", "K7", "K6"]),
    # reroutes that change omega: exit 1 with omega-changed and even-cover
    ("reroute-K6-e", ["reroute-check", "{K6-e}", "--trials", "10", "--seed", "3"]),
    ("omega-K6-polyline", ["omega", "{K6-polyline}"]),
]


def run_cases() -> dict[str, dict]:
    """{case name: {"exit": code, "sha256": stdout digest}} for every case."""
    results: dict[str, dict] = {}
    with tempfile.TemporaryDirectory() as tmp:
        files: dict[str, str] = {}
        for i, (key, text) in enumerate({**EDGE_LISTS, **EMBEDDINGS}.items()):
            path = Path(tmp) / f"graph{i}.txt"
            path.write_text(text)
            files[key] = str(path)
        for name, argv in CASES:
            argv = [files.get(a, a) for a in argv]
            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                code = main(argv)
            text = out.getvalue()
            if name.startswith("embed-"):
                path = Path(tmp) / f"{name}.json"
                path.write_text(text)
                files["{" + name.removeprefix("embed-") + "}"] = str(path)
            results[name] = {"exit": code,
                             "sha256": hashlib.sha256(text.encode()).hexdigest()}
    return results


@cache
def recorded_run():
    """The results of every case, and each document printed with its text."""
    emitted = []
    encode = cli._dumps

    def recording(doc):
        text = encode(doc)
        emitted.append((copy.deepcopy(doc), text))
        return text

    cli._dumps = recording
    try:
        return run_cases(), emitted
    finally:
        cli._dumps = encode


def pytest_generate_tests(metafunc):
    # one test per case, with the case name as its id
    if "name" in metafunc.fixturenames:
        metafunc.parametrize("name", [name for name, _ in CASES])


def test_printed_text_is_what_json_dumps_writes():
    results, emitted = recorded_run()
    assert len(emitted) == sum(result["exit"] != 2 for result in results.values())
    for doc, text in emitted:
        assert text == json.dumps(doc, sort_keys=True, indent=2)


def test_stdout_and_exit_code_match_the_record(name):
    recorded = json.loads(DIGESTS.read_text())
    assert set(recorded) == {name for name, _ in CASES}
    assert recorded_run()[0][name] == recorded[name]


if __name__ == "__main__":
    if sys.argv[1:] not in ([], ["--check"]):
        print(f"usage: {sys.argv[0]} [--check]", file=sys.stderr)
        sys.exit(2)
    results = run_cases()
    if not sys.argv[1:]:
        DIGESTS.write_text(json.dumps(results, indent=2, sort_keys=True) + "\n")
        sys.exit(0)
    recorded = json.loads(DIGESTS.read_text())
    names = sorted(set(results) | set(recorded))
    differ = [name for name in names if results.get(name) != recorded.get(name)]
    for name in differ:
        print(f"{name}: recorded {recorded.get(name)}, got {results.get(name)}")
    print(f"{len(names) - len(differ)} of {len(names)} cases match the record")
    sys.exit(1 if differ else 0)
