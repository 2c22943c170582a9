"""End-to-end benchmark of the linkless command line.

    python3 benchmarks/run.py --workload mc-k6k331 --seed 1 --seconds 25 --trace 0

Run from the root of a checkout.  It imports the package from `src/`
(nothing needs installing) and drives `linkless.cli.main` in-process with
stdout captured: one process, one thread, one closed-loop client, so the
next request starts only when the previous one returned.  Every answer is
checked.  The last stdout line is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With `--trace 0` the metrics are the end-to-end ones, measured untraced.
With `--trace 1` the pool is run alternately untraced and traced; the
metrics are per-layer numbers from the traced passes, and the tracing
overhead is the traced time minus the untraced time of the same requests.
A report for people goes to stderr.  Exits 2 without a result when the
program cannot be imported.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import platform
import shutil
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

sys.path.insert(0, str(HERE))
import corpus  # noqa: E402
import tracing  # noqa: E402

MIN_OPS = 100  # so that p90 has at least 10 samples beyond it
SETUP_REPEATS = 15
WARMUP_OPS = 6
# Every reported time is CPU time rescaled to a fixed machine speed.  On a
# shared virtual CPU the same work takes up to twice as long from one
# minute to the next.  A fixed slice of pure-Python work, timed after
# every request, tracks that drift; a time is divided by the mean slice
# time of the requests around it and multiplied by REFERENCE_S, the
# slice's CPU time on the 2-vCPU x86 VM the benchmark was defined on.
REFERENCE_S = 0.002
SPEED_WINDOW = 10  # requests on each side whose slices set the local speed
SETUP_SLICES = 10


class ProgramMissing(Exception):
    pass


def import_program():
    """Import `linkless.cli` afresh from this checkout's `src/`.

    Modules imported earlier are dropped first, so each call pays the
    full import, as a new process would.
    """
    if not (SRC / "linkless" / "cli.py").is_file():
        raise ProgramMissing(f"{SRC / 'linkless'} not found; run from the root of a checkout")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [n for n in sys.modules if n == "linkless" or n.startswith("linkless.")]:
        del sys.modules[name]
    import linkless.cli

    if Path(linkless.cli.__file__).resolve().parent != (SRC / "linkless").resolve():
        raise ProgramMissing(f"linkless was imported from {linkless.cli.__file__}, not {SRC}")
    return linkless


def setup(workload: str, seed: int, workdir: Path, golden: dict):
    """Import, Petersen-family closure and input generation, several times.

    Returns the program, the pool from the last repetition, and the median
    set-up and closure times at the reference speed, each repetition
    rescaled by the reference slices run right after it.
    """
    totals, closures = [], []
    for r in range(SETUP_REPEATS):
        target = workdir / f"setup{r}"
        target.mkdir()
        gc.collect()  # drop the previous import, as a new process starts clean
        t0 = time.process_time()
        lk = import_program()
        t1 = time.process_time()
        lk.petersen_family()
        t2 = time.process_time()
        pool = corpus.build_pool(workload, seed, target, golden)
        t3 = time.process_time()
        scale = REFERENCE_S * SETUP_SLICES / sum(reference_slice() for _ in range(SETUP_SLICES))
        totals.append((t3 - t0) * scale)
        closures.append((t2 - t1) * scale)
    return lk, pool, statistics.median(totals), statistics.median(closures)


def reference_slice() -> float:
    """CPU seconds of a fixed slice of pure-Python work (dicts, tuples, ints)."""
    t0 = time.process_time()
    table, acc = {}, 0
    for i in range(4000):
        key = (i * 40503) & 511
        table[key] = table.get(key, 0) + 1
        acc ^= hash((key, i)) & 0xFFFF
    return time.process_time() - t0


def rescale(latencies: list[float], references: list[float]) -> list[float]:
    """CPU times at the reference speed, each by the slices around it."""
    out = []
    for i, latency in enumerate(latencies):
        window = references[max(0, i - SPEED_WINDOW):i + SPEED_WINDOW + 1]
        out.append(latency * REFERENCE_S * len(window) / sum(window))
    return out


def lk_digest(pairs: list[dict]) -> str:
    """Order-independent digest of the (J, K, lk) table of an omega report."""
    rows = sorted([min(p["j"], p["k"]), max(p["j"], p["k"]), p["lk"]] for p in pairs)
    return hashlib.sha256(json.dumps(rows).encode()).hexdigest()[:16]


class WrongAnswer(Exception):
    pass


class Checker:
    """Checks one answer; returns (decided, counters) or raises WrongAnswer."""

    def __init__(self, lk, golden: dict):
        self.lk = lk
        self.golden = golden
        self.family = {m.name: m.graph for m in lk.petersen_family()}

    def __call__(self, op: dict, code, out: str):
        if code != 0:
            raise WrongAnswer(f"exit code {code}")
        doc = json.loads(out)
        return getattr(self, "_" + op["kind"].replace("-", "_"))(op, doc)

    def _classify(self, op, doc):
        verdict = doc["verdict"]
        counters = {"nodes": doc["stats"]["nodes"],
                    "budget_exhausted": sum(1 for r in doc["stats"]["per_member"].values()
                                            if r == "budget-exhausted")}
        if verdict == "unknown":
            return False, counters
        if verdict != op["expected"]:
            raise WrongAnswer(f"{verdict} on a {op['class']} host")
        if verdict == "linked":
            w = doc["witness"]
            model = self.lk.MinorModel(
                {int(h): frozenset(bs) for h, bs in w["branch_sets"].items()},
                {int(h): g for h, g in w["edge_map"].items()})
            host = self.lk.parse_graph(op["path"].read_text())
            if not self.lk.verify_minor_model(host, self.family[w["member"]], model):
                raise WrongAnswer(f"witness for {w['member']} does not verify")
        return True, counters

    def _omega(self, op, doc):
        for p in doc["pairs"]:
            if p["omega"] != p["lk"] % 2:
                raise WrongAnswer("pair omega is not lk mod 2")
        if doc["omega"] != sum(p["omega"] for p in doc["pairs"]) % 2:
            raise WrongAnswer("omega is not the parity of the pair table")
        if op["class"] == "family" and doc["omega"] != 1:
            raise WrongAnswer(f"omega={doc['omega']} on {op['graph']}")
        if lk_digest(doc["pairs"]) != self.golden["omega"][op["golden_key"]]:
            raise WrongAnswer(f"lk table of {op['golden_key']} differs from the recorded one")
        return True, {}

    def _experiment(self, op, doc):
        if not doc["all_omega_one"] or doc["omega_counts"] != {"1": op["trials"]}:
            raise WrongAnswer(f"omega counts {doc['omega_counts']}")
        if doc["odd_pair_counts"] != self.golden["experiment"][op["golden_key"]]:
            raise WrongAnswer(f"odd_pair_counts of {op['golden_key']} differ from the recorded ones")
        return True, {}

    def _reroute_check(self, op, doc):
        if doc["pass"] is not True or doc["preserved"] != op["trials"]:
            raise WrongAnswer(f"reroute-check failed: {doc['violations'][:1]}")
        return True, {"reroute_retries": doc["reroute_retries"]}


class Client:
    """The closed-loop client: runs operations one at a time and checks them."""

    def __init__(self, lk, checker: Checker):
        self.main = lk.cli.main
        self.check = checker
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def run(self, op: dict, tracer=None):
        """Returns (CPU seconds, reference slice seconds, decided, counters).

        A failed request returns decided None.
        """
        out, err = io.StringIO(), io.StringIO()
        span = tracer.operation(self.attempted) if tracer else contextlib.nullcontext()
        code = None
        t0 = time.process_time()
        try:
            with span, contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = self.main(list(op["argv"]))
        except Exception as exc:  # a crash is a failed request, not the end of the run
            crash = f"{type(exc).__name__}: {exc}"
        else:
            crash = None
        latency = time.process_time() - t0
        reference = reference_slice()
        self.attempted += 1
        try:
            if crash:
                raise WrongAnswer(f"crashed: {crash}")
            decided, counters = self.check(op, code, out.getvalue())
        except (WrongAnswer, ValueError, KeyError, TypeError) as exc:
            self.failed += 1
            if len(self.errors) < 5:
                self.errors.append(f"{' '.join(op['argv'])}: {type(exc).__name__}: {exc}")
            return latency, reference, None, {}
        return latency, reference, decided, counters


def measure(client: Client, pool: list[dict], seconds: float) -> dict:
    """Untraced closed loop over whole pool cycles for at least `seconds`."""
    for op in pool[:WARMUP_OPS]:
        client.run(op)
    cpu, reference, decided = [], [], 0
    start = time.perf_counter()
    while not (len(cpu) >= MIN_OPS and len(cpu) % len(pool) == 0
               and time.perf_counter() - start >= seconds):
        latency, ref, ok, _ = client.run(pool[len(cpu) % len(pool)])
        cpu.append(latency)
        reference.append(ref)
        decided += bool(ok)
    latencies = rescale(cpu, reference)
    deciles = statistics.quantiles(latencies, n=10)
    cpu_deciles = statistics.quantiles(cpu, n=10)
    return {
        "samples": len(latencies),
        "wall_s": time.perf_counter() - start,
        "speed": REFERENCE_S / statistics.mean(reference),
        "cpu_ms": {"p50": cpu_deciles[4] * 1e3, "p90": cpu_deciles[8] * 1e3,
                   "mean": statistics.mean(cpu) * 1e3},
        "metrics": {
            "ops_per_s": len(latencies) / sum(latencies),
            "latency_p50_ms": deciles[4] * 1e3,
            "latency_p90_ms": deciles[8] * 1e3,
            "decided_frac": decided / len(latencies),
        },
    }


def measure_traced(client: Client, pool: list[dict], seconds: float) -> dict:
    """Alternating untraced and traced passes over the pool for `seconds`."""
    tracer = tracing.Tracer()
    counters: dict[str, int] = {}
    plain, traced = ([], []), ([], [])
    group_of: dict[int, str] = {}
    passes = 0
    start = time.perf_counter()
    while passes == 0 or time.perf_counter() - start < seconds:
        for op in pool:
            latency, ref, _, _ = client.run(op)
            plain[0].append(latency)
            plain[1].append(ref)
        with tracer.installed():
            for op in pool:
                group_of[client.attempted] = op["class"]
                latency, ref, _, found = client.run(op, tracer)
                traced[0].append(latency)
                traced[1].append(ref)
                for key, value in found.items():
                    counters[key] = counters.get(key, 0) + value
        passes += 1
    ops = passes * len(pool)
    scale = REFERENCE_S / statistics.mean(traced[1])
    metrics, layer_s = tracing.layer_metrics(tracer.spans, ops, counters, scale)
    plain_s, traced_s = sum(rescale(*plain)), sum(rescale(*traced))
    metrics["trace.overhead_ms"] = (traced_s - plain_s) / ops * 1e3
    metrics["trace.overhead_frac"] = traced_s / plain_s - 1
    busy = sum(layer_s.values())
    return {
        "samples": ops,
        "passes": passes,
        "spans": len(tracer.spans),
        "metrics": metrics,
        "layer_share": {layer: round(s / busy, 3) for layer, s in layer_s.items()},
        "layer_share_by_class": tracing.layer_shares(tracer.spans, group_of),
    }


def machine() -> dict:
    cpu = "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {"nproc": os.cpu_count(), "python": platform.python_version(), "cpu": cpu}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="linkless end-to-end benchmark")
    parser.add_argument("--workload", required=True, choices=corpus.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    golden = corpus.load_golden()
    WORK.mkdir(exist_ok=True)
    workdir = WORK / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir()
    try:
        try:
            lk, pool, setup_s, closure_s = setup(args.workload, args.seed, workdir, golden)
        except ProgramMissing as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        client = Client(lk, Checker(lk, golden))
        if args.trace:
            result = measure_traced(client, pool, args.seconds)
            result["metrics"]["moves.petersen_family_s"] = closure_s
        else:
            result = measure(client, pool, args.seconds)
            result["metrics"]["setup_s"] = setup_s
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()

    classes: dict[str, int] = {}
    for op in pool:
        classes[op["class"]] = classes.get(op["class"], 0) + 1
    report = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "machine": machine(), "classify_budget": corpus.CLASSIFY_BUDGET,
        "pool_size": len(pool), "pool_classes": classes,
        "samples": result["samples"], "errors": client.errors,
    }
    for key in ("wall_s", "speed", "cpu_ms", "passes", "spans", "layer_share",
                "layer_share_by_class"):
        if key in result:
            report[key] = result[key]
    print(json.dumps(report, indent=1), file=sys.stderr)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    print(json.dumps({
        "correct": client.failed == 0,
        "attempted": client.attempted,
        "failed": client.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in result["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
