"""Freeze the exact expected outputs of every request universe.

    python3 perfbench/freeze.py

Evaluates every registry cell the workloads can draw (the sweep matrix,
the serve universe and hot set), every inline kernel of the pool, and
every (pair, seed) tune request; checks each evaluation's live-outs
against its workload oracle (CPython for inline kernels); cross-checks
the frozen metrics against the ``fig8_speedup`` and ``tune_smoke``
entries of ``benchmarks/baselines/bench_baseline.json`` on every cell
they share; and writes ``perfbench/expected.json``.
"""

from __future__ import annotations

import json
import os
import sys
from typing import Dict, List

if __package__ in (None, ""):
    sys.path.insert(0, os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))))

from perfbench import common  # noqa: E402
from perfbench.oracle import (EXPECTED_PATH, LiveOutOracle,  # noqa: E402
                              frozen_subset, tune_summary)
from perfbench.universe import (HOT_SET, SCALE, TUNE_BACKEND,  # noqa: E402
                                TUNE_BUDGET, TUNE_PAIRS, TUNE_SEEDS,
                                TUNE_STRATEGY, cell_key, inline_pool,
                                serve_universe, sweep_cells, tune_key)

#: Worker processes for the registry cells.
JOBS = 2

BASELINE_PATH = os.path.join(common.ROOT, "benchmarks", "baselines",
                             "bench_baseline.json")


def baseline_mismatches(expected: Dict[str, Dict],
                        baseline_path: str = BASELINE_PATH) -> List[str]:
    """Disagreements between ``expected`` and the committed bench
    baseline on every cell they share (empty list = agreement)."""
    with open(baseline_path, encoding="utf-8") as handle:
        specs = json.load(handle)["specs"]
    problems = []
    shared = 0
    for name, metric in specs["fig8_speedup"]["metrics"].items():
        parts = name.split("/")
        if parts[0] != "speedup":
            continue
        technique, _, coco = parts[1].partition("+")
        key = cell_key({"workload": parts[2], "technique": technique,
                        "coco": bool(coco), "n_threads": 2})
        cell = expected["cells"].get(key)
        if cell is None:
            continue
        shared += 1
        speedup = cell["st_cycles"] / cell["mt_cycles"]
        if speedup != metric["value"]:
            problems.append("%s: frozen speedup %r, baseline %r"
                            % (key, speedup, metric["value"]))
    smoke = specs["tune_smoke"]["metrics"]
    frozen = expected["tune"].get(tune_key(TUNE_PAIRS[0], 0))
    if frozen is not None:
        shared += 1
        for workload in TUNE_PAIRS[0]:
            pairs = [("best_cycles/" + workload, frozen["best"][workload])]
            pairs += [("%s_cycles/%s" % (label, workload), cycles)
                      for label, cycles
                      in frozen["baselines"][workload].items()]
            for metric, value in pairs:
                if smoke[metric]["value"] != value:
                    problems.append("tune %s: frozen %r, baseline %r"
                                    % (metric, value,
                                       smoke[metric]["value"]))
        if smoke["candidates_evaluated"]["value"] != frozen["evaluated"]:
            problems.append("tune candidates: frozen %r, baseline %r"
                            % (frozen["evaluated"],
                               smoke["candidates_evaluated"]["value"]))
    if not shared:
        problems.append("no cell shared with the bench baseline")
    return problems


def _registry_cells(workloads: List[str]) -> List[Dict[str, object]]:
    cells: Dict[str, Dict[str, object]] = {}
    for cell in (sweep_cells(workloads) + serve_universe(workloads)
                 + [dict(cell) for cell in HOT_SET]):
        cells.setdefault(cell_key(cell), cell)
    return [cells[key] for key in sorted(cells)]


def freeze() -> Dict[str, Dict]:
    from repro.api import (EvaluateRequest, MatrixCell, ProgramSpec,
                           TuneRequest, configure_cache, evaluate,
                           evaluate_matrix, get_workload, tune,
                           workload_names)
    workdir = common.Workdir("freeze")
    oracle = LiveOutOracle()
    problems: List[str] = []
    try:
        configure_cache(workdir.fresh("cache"))
        fields = _registry_cells(workload_names())
        common.log("evaluating %d registry cells" % len(fields))
        evaluations = evaluate_matrix(
            [MatrixCell(cell["workload"], cell["technique"], cell["coco"],
                        cell["n_threads"], SCALE,
                        local_schedule=cell.get("local_schedule"),
                        topology=cell.get("topology"),
                        placer=cell.get("placer", "identity"))
             for cell in fields], jobs=JOBS)
        cells = {}
        for cell, evaluation in zip(fields, evaluations):
            key = cell_key(cell)
            problems += oracle.check(get_workload(cell["workload"]), SCALE,
                                     evaluation.mt_result, key)
            cells[key] = frozen_subset(evaluation.metrics())
        inline = {}
        for index, kernel in enumerate(inline_pool()):
            request = EvaluateRequest(
                program=ProgramSpec.source(kernel["source"]),
                technique=kernel["technique"], coco=kernel["coco"],
                n_threads=kernel["n_threads"], scale=SCALE).validate()
            result = evaluate(request)
            problems += oracle.check(get_workload(request.workload), SCALE,
                                     _mt_result(request), "inline %d"
                                     % index)
            inline[str(index)] = frozen_subset(result.metrics)
        common.log("evaluated %d inline kernels" % len(inline))
        frozen_tune = {}
        for pair in TUNE_PAIRS:
            for seed in range(TUNE_SEEDS):
                configure_cache(workdir.fresh("tune"))
                result = tune(TuneRequest(
                    workloads=pair, strategy=TUNE_STRATEGY,
                    budget=TUNE_BUDGET, seed=seed, scale=SCALE,
                    backend=TUNE_BACKEND))
                frozen_tune[tune_key(pair, seed)] = tune_summary(result)
        common.log("ran %d tune requests" % len(frozen_tune))
    finally:
        workdir.close()
    if problems:
        raise SystemExit("oracle disagreements:\n" + "\n".join(problems))
    return {"cells": cells, "inline": inline, "tune": frozen_tune}


def _mt_result(request):
    """The MT result of an inline request, evaluated in-process (the
    facade's result document carries metrics, not memory)."""
    from repro.api import evaluate_workload, get_workload
    return evaluate_workload(get_workload(request.workload),
                             technique=request.technique,
                             n_threads=request.n_threads, coco=request.coco,
                             scale=request.scale).mt_result


def main() -> int:
    common.isolate_environment()
    sys.path.insert(0, common.SRC)
    expected = freeze()
    problems = baseline_mismatches(expected)
    if problems:
        print("\n".join(problems), file=sys.stderr)
        return 1
    common.log("frozen outputs agree with %s"
               % os.path.relpath(BASELINE_PATH, common.ROOT))
    with open(EXPECTED_PATH, "w", encoding="utf-8") as handle:
        json.dump(expected, handle, indent=1, sort_keys=True)
        handle.write("\n")
    common.log("wrote %s" % os.path.relpath(EXPECTED_PATH, common.ROOT))
    return 0


if __name__ == "__main__":
    sys.exit(main())
