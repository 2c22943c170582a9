"""Seeded inputs for the three benchmark workloads.

Every input is a pure function of the workload seed.  The graphs are
written from the benchmark's own edge lists and coordinate draws, not by
calling the program, so a later change to the program cannot change
what it is asked.  Each workload is a fixed cycle of operations (its
*pool*); the class and size mix of a pool is fixed, the seed draws the
concrete graphs, labels, embeddings and seeds inside it.

Run as a script to list the inputs of one workload and seed, with n, m,
circuit count, disjoint pair count, class and expected answer:

    python3 benchmarks/corpus.py classify-corpus --seed 3
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
GOLDEN_PATH = HERE / "golden.json"

WORKLOADS = ("mc-k6k331", "omega-files", "classify-corpus")

# Per-member node budget of every classify request.  At this budget the
# apex and large planar hosts come back "unknown" (about 0.2 s each on a
# 2-core x86 VM), so decided_frac on classify-corpus is below 1 today.
CLASSIFY_BUDGET = 5000

# The seven Petersen-family members, edge lists as `linkless petersen list`
# prints them.
FAMILY = {
    "K6": [(1, 2), (1, 3), (1, 4), (1, 5), (1, 6), (2, 3), (2, 4), (2, 5), (2, 6),
           (3, 4), (3, 5), (3, 6), (4, 5), (4, 6), (5, 6)],
    "P7": [(1, 4), (1, 5), (1, 6), (2, 4), (2, 5), (2, 6), (3, 4), (3, 5), (3, 6),
           (4, 5), (4, 6), (5, 6), (7, 1), (7, 2), (7, 3)],
    "K3,3,1": [(1, 4), (1, 5), (1, 6), (2, 4), (2, 5), (2, 6), (3, 4), (3, 5), (3, 6),
               (1, 7), (2, 7), (3, 7), (4, 7), (5, 7), (6, 7)],
    "P8a": [(1, 4), (1, 5), (1, 6), (2, 4), (2, 5), (2, 6), (3, 4), (3, 5), (3, 6),
            (7, 1), (7, 2), (7, 3), (8, 4), (8, 5), (8, 6)],
    "P8b": [(1, 5), (1, 6), (2, 4), (2, 5), (2, 6), (3, 4), (3, 5), (3, 6), (2, 7),
            (3, 7), (5, 7), (6, 7), (8, 1), (8, 4), (8, 7)],
    "P9": [(1, 5), (1, 6), (2, 4), (2, 6), (3, 4), (3, 5), (3, 6), (3, 7), (6, 7),
           (8, 1), (8, 4), (8, 7), (9, 2), (9, 5), (9, 7)],
    "petersen": [(1, 5), (1, 6), (2, 4), (2, 6), (3, 4), (3, 5), (8, 1), (8, 4),
                 (8, 7), (9, 2), (9, 5), (9, 7), (10, 3), (10, 6), (10, 7)],
}


def complete(n: int) -> list[tuple[int, int]]:
    return [(a, b) for a in range(1, n + 1) for b in range(a + 1, n + 1)]


def multipartite(*sizes: int) -> list[tuple[int, int]]:
    parts, start = [], 1
    for s in sizes:
        parts.append(range(start, start + s))
        start += s
    return [(a, b) for i, p in enumerate(parts) for q in parts[i + 1:] for a in p for b in q]


def grid(rows: int, cols: int, diagonals: bool = False) -> list[tuple[int, int]]:
    def vid(r, c):
        return r * cols + c + 1
    pairs = []
    for r in range(rows):
        for c in range(cols):
            if c + 1 < cols:
                pairs.append((vid(r, c), vid(r, c + 1)))
            if r + 1 < rows:
                pairs.append((vid(r, c), vid(r + 1, c)))
            if diagonals and r + 1 < rows and c + 1 < cols:
                pairs.append((vid(r, c), vid(r + 1, c + 1)))
    return pairs


def apex(pairs: list[tuple[int, int]]) -> list[tuple[int, int]]:
    vs = sorted({v for p in pairs for v in p})
    a = vs[-1] + 1
    return pairs + [(a, v) for v in vs]


# Hosts with many disjoint circuit pairs for omega-files (K7 - e drops edge 1-2).
OMEGA_HOSTS = dict(FAMILY)
OMEGA_HOSTS.update({
    "K7": complete(7),
    "K7-e": complete(7)[1:],
    "K3,3,2": multipartite(3, 3, 2),
    "K4,4": multipartite(4, 4),
})

# Planar (grid, triangulated grid) and apex hosts: unlinked by Sachs'
# theorem.  The "decided" ones finish within CLASSIFY_BUDGET, the "hard"
# ones exhaust it on every member search.
PLANAR_DECIDED = {
    "grid3x4": grid(3, 4),
    "trigrid3x3": grid(3, 3, True),
    "trigrid3x4": grid(3, 4, True),
    "apex+grid2x4": apex(grid(2, 4)),
}
PLANAR_HARD = {
    "grid4x4": grid(4, 4),
    "trigrid4x4": grid(4, 4, True),
    "apex+grid3x4": apex(grid(3, 4)),
    "apex+trigrid3x3": apex(grid(3, 3, True)),
    "apex+grid2x5": apex(grid(2, 5)),
}
LINKED_BASES = dict(FAMILY)
LINKED_BASES.update({"K7": complete(7), "K4,4": multipartite(4, 4)})


def edge_list_text(pairs: list[tuple[int, int]]) -> str:
    n = len({v for p in pairs for v in p})
    return "\n".join([f"{n} {len(pairs)}"] + [f"{u} {v}" for u, v in pairs]) + "\n"


# -- mc-k6k331 -------------------------------------------------------------

# Trial counts chosen so that the two graphs cost about the same per
# request: experiments form one latency band, reroute-checks a second
# band about twice as slow.
EXPERIMENT_TRIALS = {"k6": 16, "k331": 16}
REROUTE_TRIALS = {"K6": 16, "K3,3,1": 15}
# Experiment seeds come from a recorded set (multiples of 32, so the
# trial seeds seed ^ t of different entries never overlap); each has a
# golden odd_pair_counts histogram in golden.json.
EXPERIMENT_SEEDS = [32 * i for i in range(128)]
# Two experiments per reroute-check, so p50 lies inside the experiment
# band and p90 inside the reroute band rather than on their boundary.
MC_PATTERN = [("experiment", "k6"), ("experiment", "k331"), ("reroute-check", "K6"),
              ("experiment", "k331"), ("experiment", "k6"), ("reroute-check", "K3,3,1")]
MC_POOL_BLOCKS = 8


def mc_pool(seed: int) -> list[dict]:
    rng = random.Random(f"mc-k6k331:{seed}")
    exp_seeds = rng.sample(EXPERIMENT_SEEDS, 2 * MC_POOL_BLOCKS * 2)
    ops = []
    for _ in range(MC_POOL_BLOCKS):
        for cmd, graph in MC_PATTERN:
            if cmd == "experiment":
                s = exp_seeds.pop()
                trials = EXPERIMENT_TRIALS[graph]
            else:
                s = rng.randrange(1 << 20)
                trials = REROUTE_TRIALS[graph]
            ops.append({
                "kind": cmd, "class": cmd, "graph": graph, "trials": trials, "seed": s,
                "argv": [cmd, graph, "--trials", str(trials), "--seed", str(s)],
                "golden_key": f"{graph}/{trials}/{s}" if cmd == "experiment" else None,
            })
    return ops


# -- omega-files -----------------------------------------------------------

COORD = 10**6
# Pool seeds per (host, kind) for which golden.json records a digest.
EMBEDDING_SEEDS = range(24)
KINDS = ("straight", "polyline")
# Slots per pool cycle.  The family members and K4,4 make the cheap 71%
# (44 slots), K7 - e and K3,3,2 the next 10%, K7, the slowest, the top
# 19% (12 slots): p50 lies well inside the cheap band and p90 inside the
# K7 band.  Each slot gets its own pooled embedding.
OMEGA_SLOTS = (
    [(name, kind) for name in FAMILY for kind in KINDS for _ in range(3)]
    + [("K4,4", kind) for kind in KINDS]
    + [("K7-e", "straight"), ("K7-e", "polyline"), ("K7-e", "straight")]
    + [("K3,3,2", "straight"), ("K3,3,2", "polyline"), ("K3,3,2", "straight")]
    + [("K7", kind) for kind in KINDS for _ in range(6)]
)


def embedding_doc(host: str, kind: str, emb_seed: int) -> dict:
    """An embedding file in the program's JSON schema, drawn from the seed.

    Vertices are random integer points in [-10^6, 10^6]^3.  A polyline
    edge bends once, at an integer point near its midpoint.  (Rational
    waypoints would make every file 6-8x slower, all of it in `Fraction`
    arithmetic, and hide the circuits layer this workload is for.)
    Validity is not checked here: golden.json lists only the seeds the
    program accepted when recorded.
    """
    pairs = OMEGA_HOSTS[host]
    rng = random.Random(f"{host}:{kind}:{emb_seed}")
    vs = sorted({v for p in pairs for v in p})
    pts = {v: tuple(rng.randint(-COORD, COORD) for _ in range(3)) for v in vs}
    edges = []
    for u, v in pairs:
        waypoints = []
        if kind == "polyline":
            mid = [(a + b) // 2 + rng.randint(-COORD // 10, COORD // 10)
                   for a, b in zip(pts[u], pts[v])]
            waypoints = [[str(c) for c in mid]]
        edges.append({"u": u, "v": v, "waypoints": waypoints})
    return {
        "schema_version": 1,
        "graph": edge_list_text(pairs),
        "vertices": {str(v): [str(c) for c in p] for v, p in pts.items()},
        "edges": edges,
    }


def omega_pool(seed: int, workdir: Path, golden: dict) -> list[dict]:
    rng = random.Random(f"omega-files:{seed}")
    slots: dict[tuple[str, str], int] = {}
    for slot in OMEGA_SLOTS:
        slots[slot] = slots.get(slot, 0) + 1
    draws = {
        (host, kind): rng.sample([s for s in EMBEDDING_SEEDS
                                  if f"{host}/{kind}/{s}" in golden["omega"]], count)
        for (host, kind), count in slots.items()
    }
    ops = []
    for i, (host, kind) in enumerate(OMEGA_SLOTS):
        emb_seed = draws[host, kind].pop()
        path = workdir / f"{i:02d}.json"
        path.write_text(json.dumps(embedding_doc(host, kind, emb_seed)))
        ops.append({
            "kind": "omega", "class": "family" if host in FAMILY else host,
            "graph": host, "embedding": kind, "seed": emb_seed,
            "argv": ["omega", str(path)],
            "golden_key": f"{host}/{kind}/{emb_seed}",
        })
    return ops


# -- classify-corpus -------------------------------------------------------

def relabel(pairs, rng: random.Random):
    vs = sorted({v for p in pairs for v in p})
    ids = rng.sample(range(1, 10 * len(vs) + 100), len(vs))
    mapping = dict(zip(vs, ids))
    out = [(mapping[u], mapping[v]) for u, v in pairs]
    rng.shuffle(out)
    return out


def fresh_id(pairs) -> int:
    return max(v for p in pairs for v in p) + 1


def subdivide(pairs, rng: random.Random, k: int):
    pairs = list(pairs)
    for _ in range(k):
        i = rng.randrange(len(pairs))
        u, v = pairs[i]
        x = fresh_id(pairs)
        pairs[i:i + 1] = [(u, x), (x, v)]
    return pairs


def add_pendant_trees(pairs, rng: random.Random, k: int):
    """k trees of 3 new vertices, each hanging from a random vertex."""
    pairs = list(pairs)
    for _ in range(k):
        vs = sorted({v for p in pairs for v in p})
        tree = [rng.choice(vs)]
        for _ in range(3):
            x = fresh_id(pairs)
            pairs.append((rng.choice(tree), x))
            tree.append(x)
    return pairs


def add_edges(pairs, rng: random.Random, k: int):
    """k extra edges: between non-adjacent vertices, or to a new vertex."""
    pairs = list(pairs)
    for _ in range(k):
        vs = sorted({v for p in pairs for v in p})
        present = {frozenset(p) for p in pairs}
        missing = [(a, b) for i, a in enumerate(vs) for b in vs[i + 1:]
                   if frozenset((a, b)) not in present]
        if missing:
            pairs.append(rng.choice(missing))
        else:
            x = fresh_id(pairs)
            pairs.extend((x, v) for v in rng.sample(vs, 3))
    return pairs


def decorate(pairs, rng: random.Random, how: str, k: int):
    if how == "edges":
        return add_edges(pairs, rng, k)
    if how == "subdivide":
        return subdivide(pairs, rng, k)
    return add_pendant_trees(pairs, rng, k)


# Pool of 80: 32 linked, 24 near-miss, 8 planar decided within budget,
# 16 planar/apex that exhaust it.  The last 16 are the slowest 20%, so p90
# lies inside them; p50 lies inside the cheap 70%.  How many edges,
# subdivisions or trees decorate a host is fixed by its slot, not drawn,
# so that the cost mix of a pool does not depend on the seed.
CLASSIFY_COUNTS = {"linked": 32, "near-miss": 24, "planar": 8, "planar-hard": 16}


def classify_pool(seed: int, workdir: Path) -> list[dict]:
    rng = random.Random(f"classify-corpus:{seed}")
    hosts = []
    linked_bases = list(LINKED_BASES)
    for i in range(CLASSIFY_COUNTS["linked"]):
        base = linked_bases[i % len(linked_bases)]
        how = ("edges", "subdivide", "pendants")[i // len(linked_bases) % 3]
        pairs = decorate(relabel(LINKED_BASES[base], rng), rng, how, 1 + i % 3)
        hosts.append(("linked", f"{base}+{how}", pairs))
    members = list(FAMILY)
    for i in range(CLASSIFY_COUNTS["near-miss"]):
        base = members[i % len(members)]
        pairs = list(FAMILY[base])
        pairs.pop(rng.randrange(len(pairs)))
        how = ("subdivide", "pendants")[i % 2]
        pairs = decorate(relabel(pairs, rng), rng, how, 1 + i // 2 % 3)
        hosts.append(("near-miss", f"{base}-e+{how}", pairs))
    for cls, table in (("planar", PLANAR_DECIDED), ("planar-hard", PLANAR_HARD)):
        names = list(table)
        for i in range(CLASSIFY_COUNTS[cls]):
            base = names[i % len(names)]
            pairs = relabel(table[base], rng)
            if i % 2:
                pairs = add_pendant_trees(pairs, rng, 1)
            hosts.append((cls, base, pairs))
    rng.shuffle(hosts)
    ops = []
    for i, (cls, label, pairs) in enumerate(hosts):
        path = workdir / f"{i:02d}.graph"
        path.write_text(edge_list_text(pairs))
        ops.append({
            "kind": "classify", "class": cls, "graph": label,
            "n": len({v for p in pairs for v in p}), "m": len(pairs),
            "expected": "linked" if cls == "linked" else "unlinked",
            "argv": ["classify", str(path), "--budget", str(CLASSIFY_BUDGET)],
            "path": path,
        })
    return ops


def load_golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text())


def build_pool(workload: str, seed: int, workdir: Path, golden: dict) -> list[dict]:
    if workload == "mc-k6k331":
        return mc_pool(seed)
    if workload == "omega-files":
        return omega_pool(seed, workdir, golden)
    return classify_pool(seed, workdir)


def _manifest(workload: str, seed: int) -> None:
    import tempfile

    from run import import_program

    import_program()
    from linkless import CircuitCapExceeded, disjoint_circuit_pairs, enumerate_circuits, parse_graph

    cap = 50_000
    with tempfile.TemporaryDirectory() as tmp:
        pool = build_pool(workload, seed, Path(tmp), load_golden())
        for op in pool:
            if op["kind"] == "classify":
                g = parse_graph(Path(op["path"]).read_text())
                expected = op["expected"]
            elif op["kind"] == "omega":
                g = parse_graph(edge_list_text(OMEGA_HOSTS[op["graph"]]))
                expected = "omega=1" if op["class"] == "family" else "golden lk digest"
            else:
                name = {"k6": "K6", "k331": "K3,3,1"}.get(op["graph"], op["graph"])
                g = parse_graph(name)
                expected = "all omega=1" if op["kind"] == "experiment" else "pass"
            try:
                circuits = len(enumerate_circuits(g, cap=cap))
                pairs = len(disjoint_circuit_pairs(g, cap=cap))
            except CircuitCapExceeded:
                circuits = pairs = f">{cap}"
            row = {"argv": " ".join(op["argv"][:1] + [op["graph"]] + op["argv"][2:]),
                   "n": g.n, "m": g.m, "circuits": circuits, "pairs": pairs,
                   "class": op["class"], "input": op.get("embedding", op.get("seed")),
                   "expected": expected}
            print(json.dumps(row))


if __name__ == "__main__":
    import argparse

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    sys.exit(_manifest(args.workload, args.seed))
