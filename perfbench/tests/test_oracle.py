"""The output oracles catch planted wrong results, and the frozen
outputs agree with the committed bench baseline."""

import copy
import os

import pytest

from perfbench import common
from perfbench.freeze import BASELINE_PATH, baseline_mismatches
from perfbench.oracle import LiveOutOracle, check_evaluation, load_expected
from perfbench.universe import cell_key


@pytest.fixture(scope="module")
def evaluation(tmp_path_factory):
    from repro.api import MatrixCell, configure_cache, evaluate_matrix
    configure_cache(str(tmp_path_factory.mktemp("cache")))
    fields = {"workload": "ks", "technique": "gremio", "coco": False,
              "n_threads": 2}
    cell = MatrixCell("ks", "gremio", False, 2, "train")
    return fields, evaluate_matrix([cell])[0]


def test_correct_evaluation_passes(evaluation):
    fields, result = evaluation
    assert check_evaluation(result, fields, load_expected()["cells"],
                            LiveOutOracle()) == []


def test_planted_wrong_live_out_is_caught(evaluation):
    fields, result = evaluation
    planted = copy.copy(result.mt_result)
    planted.live_outs = dict(result.mt_result.live_outs)
    register = sorted(planted.live_outs)[0]
    planted.live_outs[register] = planted.live_outs[register] + 1
    problems = LiveOutOracle().check(result.workload, "train", planted,
                                     "ks")
    assert problems and register in problems[0]


def test_planted_wrong_frozen_metric_is_caught(evaluation):
    fields, result = evaluation
    cells = copy.deepcopy(load_expected()["cells"])
    cells[cell_key(fields)]["mt_cycles"] += 1
    problems = check_evaluation(result, fields, cells, LiveOutOracle())
    assert problems and "mt_cycles" in problems[0]
    result_line = common.Result()
    result_line.attempted = 1
    result_line.fail(problems[0])
    assert result_line.failed == 1


@pytest.mark.skipif(not os.path.exists(BASELINE_PATH),
                    reason="bench baseline not in this checkout")
def test_frozen_outputs_agree_with_bench_baseline():
    expected = load_expected()
    assert baseline_mismatches(expected) == []
    tampered = copy.deepcopy(expected)
    key = cell_key({"workload": "ks", "technique": "dswp", "coco": True,
                    "n_threads": 2})
    tampered["cells"][key]["mt_cycles"] += 1
    assert baseline_mismatches(tampered)
