"""What each workload runs, generated from the workload seed.

Cells are plain dicts (``design``, ``benchmark``, ``seed``, ``reads``,
``warmup``, ``mshrs``) so the plan can be built, and its digests checked,
without importing the simulator. The seed drives the cell seeds, the serve
popularity draws and the seeds of the never-seen serve cells; the program
only ever receives the generated cells.
"""

from __future__ import annotations

import itertools
import random
from typing import Dict, Iterator, List

#: Seed whose digests are committed in ``expected_digests.json``.
DEFAULT_SEED = 1

PAPER_DESIGNS = (
    "no-cache",
    "perfect-l3",
    "sram-tag",
    "lh-cache",
    "alloy-map-i",
    "ideal-lo",
)
PAPER_BENCHMARKS = ("mcf_r", "milc_r", "soplex_r", "gcc_r", "libquantum_r")
PAPER_READS = 1000

#: (design, MSHRs per core): the set-assoc, victim-buffer and MLP paths.
ENVELOPE_DESIGNS = (
    ("alloy-4way", 1),
    ("alloy-victim16", 1),
    ("alloy-2way", 1),
    ("alloy-map-i", 4),
    ("lh-cache", 4),
)
ENVELOPE_BENCHMARKS = ("mix3", "mix7", "lbm_r")
ENVELOPE_READS = 1000
ENVELOPE_WORKERS = 2

SERVE_BENCHMARKS = ("mcf_r", "milc_r", "gcc_r", "libquantum_r")
SERVE_READS = 400
SERVE_CLIENTS = 2
#: Every this-many-th request carries one never-seen cell (10%).
SERVE_FRESH_EVERY = 10
#: Zipf exponent of catalogue popularity.
SERVE_ZIPF_S = 1.0

WORKLOADS = ("paper-grid", "envelope-j2", "serve-mixed")


def cell(design: str, benchmark: str, seed: int, reads: int, mshrs: int = 1) -> Dict:
    return {
        "design": design,
        "benchmark": benchmark,
        "seed": seed,
        "reads": reads,
        "warmup": 0.25,
        "mshrs": mshrs,
    }


def cell_id(c: Dict) -> str:
    """Stable id of a cell, independent of the program's own cache keys."""
    return (
        f"{c['design']}/{c['benchmark']}/s{c['seed']}/r{c['reads']}"
        f"/w{c['warmup']}/m{c['mshrs']}"
    )


def design_of_id(cid: str) -> str:
    """Design name plus a suffix for non-default MSHRs (``lh-cache.m4``)."""
    parts = cid.split("/")
    mshrs = int(parts[-1][1:])
    return parts[0] if mshrs == 1 else f"{parts[0]}.m{mshrs}"


def paper_grid_cells(seed: int) -> List[Dict]:
    return [
        cell(d, b, seed, PAPER_READS)
        for b in PAPER_BENCHMARKS
        for d in PAPER_DESIGNS
    ]


def envelope_cells(seed: int) -> List[Dict]:
    return [
        cell(d, b, seed, ENVELOPE_READS, mshrs)
        for b in ENVELOPE_BENCHMARKS
        for d, mshrs in ENVELOPE_DESIGNS
    ]


def serve_catalogue(seed: int) -> List[Dict]:
    """Paper designs x 4 benchmarks x 2 cell seeds."""
    return [
        cell(d, b, s, SERVE_READS)
        for s in (seed, seed + 1)
        for b in SERVE_BENCHMARKS
        for d in PAPER_DESIGNS
    ]


def fresh_cell(seed: int, index: int) -> Dict:
    """The ``index``-th never-seen serve cell. Designs and benchmarks take
    turns, so runs of any seed simulate the same mix of them. Its seed lies
    above every catalogue seed, so no two fresh cells and no catalogue cell
    coincide."""
    designs, benchmarks = len(PAPER_DESIGNS), len(SERVE_BENCHMARKS)
    return cell(
        PAPER_DESIGNS[index % designs],
        SERVE_BENCHMARKS[index // designs % benchmarks],
        seed + 2 + index,
        SERVE_READS,
    )


def serve_requests(seed: int) -> Iterator[List[Dict]]:
    """Endless, seed-determined request stream: 1-4 Zipf-popular catalogue
    cells, plus one fresh cell in every :data:`SERVE_FRESH_EVERY`-th."""
    rng = random.Random(f"serve-mixed/{seed}")
    catalogue = serve_catalogue(seed)
    rng.shuffle(catalogue)
    weights = [1.0 / (rank + 1) ** SERVE_ZIPF_S for rank in range(len(catalogue))]
    offset = rng.randrange(SERVE_FRESH_EVERY)
    for index in itertools.count():
        wanted = rng.randint(1, 4)
        picked: List[Dict] = []
        while len(picked) < wanted:
            c = rng.choices(catalogue, weights)[0]
            if c not in picked:
                picked.append(c)
        if index % SERVE_FRESH_EVERY == offset:
            picked.append(fresh_cell(seed, index // SERVE_FRESH_EVERY))
        yield picked
