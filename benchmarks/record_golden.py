"""Record the answers the benchmark checks against (benchmarks/golden.json).

    python3 benchmarks/record_golden.py

Runs the program on every pooled input that has no known answer by
construction: the `odd_pair_counts` histogram of each pooled experiment,
and the lk-table digest of each pooled embedding file.  An embedding the
program rejects (a degenerate draw) gets no entry, so the benchmark never
selects it.  Recording again on a later commit would hide a changed
answer, so re-record only when the pools themselves change.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

import corpus
from run import import_program, lk_digest


def call(cli, argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, out.getvalue()


def main() -> int:
    cli = import_program().cli
    golden = {"experiment": {}, "omega": {}}
    for graph, trials in corpus.EXPERIMENT_TRIALS.items():
        for seed in corpus.EXPERIMENT_SEEDS:
            code, out = call(cli, ["experiment", graph, "--trials", str(trials),
                                   "--seed", str(seed)])
            doc = json.loads(out)
            if code != 0 or not doc["all_omega_one"]:
                raise SystemExit(f"experiment {graph} seed {seed} failed: {out}")
            golden["experiment"][f"{graph}/{trials}/{seed}"] = doc["odd_pair_counts"]
    rejected = 0
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "emb.json"
        for host in corpus.OMEGA_HOSTS:
            for kind in corpus.KINDS:
                for seed in corpus.EMBEDDING_SEEDS:
                    path.write_text(json.dumps(corpus.embedding_doc(host, kind, seed)))
                    code, out = call(cli, ["omega", str(path)])
                    if code != 0:
                        rejected += 1
                        continue
                    doc = json.loads(out)
                    if host in corpus.FAMILY and doc["omega"] != 1:
                        raise SystemExit(f"omega={doc['omega']} on {host}/{kind}/{seed}")
                    golden["omega"][f"{host}/{kind}/{seed}"] = lk_digest(doc["pairs"])
    corpus.GOLDEN_PATH.write_text(json.dumps(golden, indent=0, sort_keys=True) + "\n")
    print(f"recorded {len(golden['experiment'])} experiments, {len(golden['omega'])} "
          f"embeddings ({rejected} rejected draws skipped)", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
