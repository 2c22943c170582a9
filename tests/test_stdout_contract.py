"""The CLI's stdout and exit codes, pinned by sha256 digests.

Every command below runs in-process through ``linkless.cli.main``; its
stdout digest and exit code must equal the ones stored in
``stdout_digests.json``.  A change that is meant to keep stdout
byte-identical (a speed-up, a refactor) must leave this test passing.  A
change that alters stdout on purpose re-records the file with

    PYTHONPATH=src python tests/test_stdout_contract.py

and says why in its change notes.  The ``omega`` cases read the
embeddings that the ``embed`` cases print, so those files never need to
be stored.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

import pytest

from linkless.cli import main

DIGESTS = Path(__file__).with_name("stdout_digests.json")

# (case name, argv); "{K6}" and "{K7}" stand for the file holding the
# stdout of the "embed-K6" and "embed-K7" cases
CASES = [
    ("experiment-k6", ["experiment", "k6", "--trials", "30", "--seed", "5"]),
    ("experiment-k331", ["experiment", "k331", "--trials", "20", "--seed", "2"]),
    ("experiment-petersen", ["experiment", "petersen", "--trials", "4", "--seed", "1"]),
    ("reroute-K6", ["reroute-check", "K6", "--trials", "20", "--seed", "4"]),
    ("reroute-K3,3,1", ["reroute-check", "K3,3,1", "--trials", "10", "--seed", "1"]),
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
]


def run_cases() -> dict[str, dict]:
    """{case name: {"exit": code, "sha256": stdout digest}} for every case."""
    results: dict[str, dict] = {}
    with tempfile.TemporaryDirectory() as tmp:
        files: dict[str, str] = {}
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


@pytest.fixture(scope="module")
def results():
    return run_cases()


@pytest.mark.parametrize("name", [name for name, _ in CASES])
def test_stdout_and_exit_code_match_the_record(results, name):
    recorded = json.loads(DIGESTS.read_text())
    assert set(recorded) == {name for name, _ in CASES}
    assert results[name] == recorded[name]


if __name__ == "__main__":
    DIGESTS.write_text(json.dumps(run_cases(), indent=2, sort_keys=True) + "\n")
    sys.exit(0)
