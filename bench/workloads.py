"""Workload definitions: the CLI calls each workload issues, in order.

Sweep workloads cover fixed a1 ranges and take no seed. They are issued as
consecutive a1 blocks, one `sweep` call per block, cycling over the range,
so that a run can stop on a block boundary once its time is up.

Query workloads draw from recorded pools (bench/data/*_pool.json, made by
bench/record.py). Each pool kind is sorted by recorded work and cut into
strata of equal size; a round of queries takes one seeded pick from every
stratum and shuffles them. Every round therefore has the same mix of cheap
and expensive inputs, which keeps throughput steady across seeds while each
seed still selects its own inputs.
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass
from math import gcd
from pathlib import Path

DATA = Path(__file__).resolve().parent / "data"


@dataclass(frozen=True)
class SweepWorkload:
    name: str
    n: int
    eps: str
    a1_min: int
    a1_max: int
    tail_caps: tuple[int, ...]
    workers: int
    block: int  # a1 values per sweep call

    def argv(self, lo: int, hi: int) -> list[str]:
        return [
            "sweep", "--n", str(self.n), "--eps", self.eps,
            "--a1-min", str(lo), "--a1-max", str(hi),
            "--tail-cap", ",".join(map(str, self.tail_caps)),
            "--no-timing", "--workers", str(self.workers),
        ]

    def blocks(self) -> list[tuple[int, int]]:
        return [
            (lo, min(lo + self.block - 1, self.a1_max))
            for lo in range(self.a1_min, self.a1_max + 1, self.block)
        ]

    def tuples(self, a1: int):
        """Sorted coprime tuples with first entry a1, lexicographic, as the sweep orders them."""
        caps = self.tail_caps
        for rest in itertools.combinations_with_replacement(range(a1, a1 + max(caps) + 1), self.n - 1):
            if all(x <= a1 + c for x, c in zip(rest, caps)) and gcd(a1, *rest) == 1:
                yield (a1, *rest)


SWEEPS = {
    w.name: w
    for w in (
        SweepWorkload("sweep-n2", 2, "1/2", 26, 126, (500,), workers=1, block=4),
        SweepWorkload("sweep-n3", 3, "1/2", 2, 24, (24, 24), workers=2, block=4),
    )
}


@dataclass(frozen=True)
class Query:
    kind: str  # pool kind, e.g. "mld-n2"
    argv: tuple[str, ...]
    entry: dict  # the pool entry, with the recorded answer


# workload -> pool kind -> strata, i.e. queries of that kind per round
QUERY_KINDS = {
    "mld-large": {
        "mld-n2": 32,
        "mld-n3": 32,
        "check": 16,
    },
    "witness-large": {
        "witness-n3": 60,
        "witness-n4": 20,
    },
}

# batches the traced run replays, once untraced and once traced: the same
# inputs on every commit, so per-layer counts compare exactly
TRACE_BATCHES = {"sweep-n2": 26, "sweep-n3": 12, "mld-large": 1, "witness-large": 1}

POOL_FILES = {"mld-large": "mld_pool.json", "witness-large": "witness_pool.json"}


def query_argv(kind: str, weights) -> tuple[str, ...]:
    w = ",".join(map(str, weights))
    if kind.startswith("mld"):
        return ("mld", "--weights", w)
    if kind == "check":
        return ("check", "--weights", w, "--eps", "1")
    return ("witness", "--weights", w, "--eps", "1/2")


def load_pool(workload: str) -> dict:
    with open(DATA / POOL_FILES[workload], encoding="utf-8") as handle:
        return json.load(handle)


def query_rounds(workload: str, seed: int, pool: dict, tiny: bool = False):
    """Endless seeded rounds; each round holds one query per stratum.

    In tiny mode a single round takes the cheapest entry of each kind.
    """
    kinds = QUERY_KINDS[workload]
    if tiny:
        yield [Query(k, query_argv(k, pool[k][0]["weights"]), pool[k][0]) for k in kinds]
        return
    rng = random.Random(seed)
    while True:
        batch = []
        for kind, strata in kinds.items():
            entries = pool[kind]
            size = len(entries) // strata
            for s in range(strata):
                e = entries[s * size + rng.randrange(size)]
                batch.append(Query(kind, query_argv(kind, e["weights"]), e))
        rng.shuffle(batch)
        yield batch


def load_sweep_reference(workload: str) -> dict[int, str]:
    with open(DATA / f"{workload}_reference.json", encoding="utf-8") as handle:
        raw = json.load(handle)
    return {int(a1): verdicts for a1, verdicts in raw["verdicts"].items()}
