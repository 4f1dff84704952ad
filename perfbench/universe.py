"""The finite request universes the workloads draw from.

Every seed maps into these fixed sets, so each request's exact paper
metrics can be frozen once (``expected.json``, see ``freeze.py``) and
checked on every run.
"""

from __future__ import annotations

import random
from typing import Dict, List, Tuple

#: The paper's evaluation matrix: every registered workload x
#: {gremio, dswp} x COCO {off, on} x {2, 4} threads, at ``train`` scale.
SWEEP_TECHNIQUES = ("gremio", "dswp")
SWEEP_COCO = (False, True)
SWEEP_THREADS = (2, 4)
SCALE = "train"

#: Serve universe: techniques incl. ``gremio-flat``, COCO, threads, and
#: three machine/schedule variants (plain; the local scheduler; the
#: clustered ``quad-2x2`` machine with the affinity placer).
SERVE_TECHNIQUES = ("gremio", "gremio-flat", "dswp")
SERVE_VARIANTS = (
    {},
    {"local_schedule": "early"},
    {"topology": "quad-2x2", "placer": "affinity"},
)

#: Repeated requests the daemon answers from its memo after warm-up.
#: Three threads lie outside the drawn universe, so no draw repeats them.
HOT_SET = (
    {"workload": "ks", "technique": "gremio", "coco": False,
     "n_threads": 3},
    {"workload": "adpcmdec", "technique": "dswp", "coco": True,
     "n_threads": 3},
    {"workload": "181.mcf", "technique": "gremio-flat", "coco": False,
     "n_threads": 3},
    {"workload": "syn.dotsat", "technique": "dswp", "coco": False,
     "n_threads": 3},
)

#: Tune workload pairs (the first is the CLI ``--smoke`` pair, shared
#: with the ``tune_smoke`` bench baseline) and the seed modulus.
TUNE_PAIRS = (("adpcmdec", "ks"), ("181.mcf", "syn.dotsat"),
              ("300.twolf", "syn.prefix"))
TUNE_SEEDS = 4
TUNE_BUDGET = 24
TUNE_STRATEGY = "greedy"
TUNE_BACKEND = "fast"

# -- inline kernels ----------------------------------------------------------

_KERNEL = '''\
def kernel_{index}(bias: int, xs: "int[{size}]", ys: "int[{size}]"):
    acc = 0
    for i in range({size}):
        v = xs[i] * {scale} + bias
        if v > {threshold}:
            v = v - ys[i]
        else:
            v = v {op} ys[i] // 2
        ys[i] = v
        acc = acc + (v & 255)
    return acc
'''

_SIZES = (24, 32, 40, 48)
_OPS = ("+", "-")
_SCALES = (3, 5, 7, 9)
_THRESHOLDS = (10, 40)


def inline_pool() -> List[Dict[str, object]]:
    """The benchmark-owned templated pool of inline ``ProgramSpec.source``
    kernels, each with the cell it is evaluated as."""
    pool = []
    for size in _SIZES:
        for op in _OPS:
            for scale in _SCALES:
                for threshold in _THRESHOLDS:
                    index = len(pool)
                    pool.append({
                        "source": _KERNEL.format(index=index, size=size,
                                                 op=op, scale=scale,
                                                 threshold=threshold),
                        "technique": SWEEP_TECHNIQUES[index % 2],
                        "coco": False, "n_threads": 2})
    return pool


# -- registry cells -----------------------------------------------------------

def cell_key(fields: Dict[str, object]) -> str:
    """Stable key of one registry cell (the fields that shape its
    result)."""
    return "%s/%s/%s/%d/%s/%s/%s/%s" % (
        fields["workload"], fields["technique"],
        "coco" if fields.get("coco") else "plain",
        fields["n_threads"], fields.get("scale", SCALE),
        fields.get("local_schedule") or "-",
        fields.get("topology") or "-",
        fields.get("placer", "identity"))


def sweep_cells(workloads: List[str]) -> List[Dict[str, object]]:
    return [{"workload": name, "technique": technique, "coco": coco,
             "n_threads": threads}
            for name in workloads
            for technique in SWEEP_TECHNIQUES
            for coco in SWEEP_COCO
            for threads in SWEEP_THREADS]


def serve_universe(workloads: List[str]) -> List[Dict[str, object]]:
    """Every registry cell serve-open can draw."""
    return [serve_cell(name, technique, variant, coco, threads)
            for name in workloads
            for technique in SERVE_TECHNIQUES
            for variant in SERVE_VARIANTS
            for coco in SWEEP_COCO
            for threads in SWEEP_THREADS]


def serve_cell(workload: str, technique: str, variant: Dict[str, object],
               coco: bool, threads: int) -> Dict[str, object]:
    cell = {"workload": workload, "technique": technique, "coco": coco,
            "n_threads": threads}
    cell.update(variant)
    return cell


def serve_draw(workloads: List[str], count: int,
               rng: random.Random) -> List[Dict[str, object]]:
    """``count`` distinct universe cells in a balanced design: the k-th
    draw takes configuration ``k mod 9`` (technique x variant), workload
    ``k mod 16`` of a seeded workload order, and cycles each
    configuration through a seeded order of its COCO x threads options.
    Every seed thus offers the same configurations equally often and
    only pairs them with different workloads, which keeps the offered
    work alike across seeds."""
    configs = [(technique, variant) for technique in SERVE_TECHNIQUES
               for variant in SERVE_VARIANTS]
    options = [(coco, threads) for coco in SWEEP_COCO
               for threads in SWEEP_THREADS]
    limit = len(configs) * len(workloads) * len(options)
    if count > limit:
        raise ValueError("only %d distinct serve cells, %d asked"
                         % (limit, count))
    order = list(workloads)
    rng.shuffle(order)
    option_orders = [rng.sample(options, len(options)) for _ in configs]
    period = len(configs) * len(order)
    cells = []
    for k in range(count):
        config = k % len(configs)
        coco, threads = option_orders[config][
            (k // len(configs) + k // period) % len(options)]
        technique, variant = configs[config]
        cells.append(serve_cell(order[k % len(order)], technique, variant,
                                coco, threads))
    return cells


def tune_key(pair: Tuple[str, str], seed: int) -> str:
    return "%s+%s/seed%d" % (pair[0], pair[1], seed)
