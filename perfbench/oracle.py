"""Output oracles.

Two independent checks, both outside every timed region:

* **live-outs** — an evaluation's MT live-out registers and output
  memory objects against ``Workload.reference(inputs)``, the workload's
  hand-written Python oracle (CPython itself for inline kernels);
* **frozen metrics** — exact paper metrics (cycles, dynamic and
  communication instructions, channels; best cycles for tune) against
  ``expected.json``, frozen once by ``freeze.py`` and cross-checked
  there against the committed bench baseline.
"""

from __future__ import annotations

import json
import math
import os
from typing import Dict, List, Mapping, Optional

from .universe import cell_key

EXPECTED_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                             "expected.json")

#: The per-cell metrics frozen in ``expected.json``.
FROZEN_METRICS = ("st_cycles", "mt_cycles", "dynamic_instructions",
                  "communication_instructions", "channels")


def load_expected(path: str = EXPECTED_PATH) -> Dict[str, Dict]:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def same_value(got: object, want: object) -> bool:
    if isinstance(want, float) or isinstance(got, float):
        try:
            return math.isclose(float(got), float(want), rel_tol=1e-12,
                                abs_tol=0.0) or float(got) == float(want)
        except (TypeError, ValueError):
            return False
    return got == want


def frozen_subset(metrics: Mapping[str, object]) -> Dict[str, float]:
    return {name: float(metrics[name]) for name in FROZEN_METRICS
            if name in metrics}


def compare_frozen(metrics: Mapping[str, object],
                   expected: Optional[Mapping[str, float]],
                   label: str) -> List[str]:
    if expected is None:
        return ["%s: no frozen metrics" % label]
    got = frozen_subset(metrics)
    return ["%s: %s = %r, frozen %r" % (label, name, got.get(name), want)
            for name, want in sorted(expected.items())
            if got.get(name) != want]


class LiveOutOracle:
    """Reference outputs per (workload, scale), computed once."""

    def __init__(self) -> None:
        self._memo: Dict[tuple, tuple] = {}

    def prepare(self, workload, scale: str) -> tuple:
        key = (workload.name, scale)
        entry = self._memo.get(key)
        if entry is None:
            inputs = workload.make_inputs(scale)
            function = workload.build()
            function.layout_memory()
            layout = {name: (function.mem_objects[name].base,
                             function.mem_objects[name].size)
                      for name in workload.output_objects}
            entry = (list(function.live_outs),
                     workload.reference(inputs), layout)
            self._memo[key] = entry
        return entry

    def check(self, workload, scale: str, mt_result,
              label: str) -> List[str]:
        live_outs, expected, layout = self.prepare(workload, scale)
        problems = []
        for register in live_outs:
            if register not in expected:
                problems.append("%s: oracle lacks live-out %s"
                                % (label, register))
            elif not same_value(mt_result.live_outs.get(register),
                                expected[register]):
                problems.append("%s: live-out %s = %r, oracle %r" % (
                    label, register, mt_result.live_outs.get(register),
                    expected[register]))
        for name, (base, size) in layout.items():
            want = expected.get(name)
            if want is None:
                problems.append("%s: oracle lacks object %s"
                                % (label, name))
                continue
            got = mt_result.memory.read_array(base, size)[:len(want)]
            if len(got) != len(want) or not all(
                    same_value(g, w) for g, w in zip(got, want)):
                problems.append("%s: output object %s differs from the "
                                "oracle" % (label, name))
        return problems


def check_evaluation(evaluation, fields: Mapping[str, object],
                     expected_cells: Mapping[str, Mapping[str, float]],
                     live_outs: LiveOutOracle) -> List[str]:
    """Every problem with one in-process evaluation of a registry cell."""
    key = cell_key(fields)
    problems = compare_frozen(evaluation.metrics(),
                              expected_cells.get(key), key)
    problems += live_outs.check(evaluation.workload,
                                str(fields.get("scale", "train")),
                                evaluation.mt_result, key)
    return problems


def tune_summary(result) -> Dict[str, object]:
    """The frozen facts of one tune result."""
    return {
        "evaluated": result.evaluated,
        "best": {workload: float(best["metrics"]["mt_cycles"])
                 for workload, best in sorted(result.best.items())},
        "baselines": {workload: {label: float(cycles) for label, cycles
                                 in sorted(best["baseline_mt_cycles"]
                                           .items())}
                      for workload, best in sorted(result.best.items())},
    }
