"""Correctness subsystem: static MT validators, the differential
execution oracle, and the fuzzing driver.

The whole reproduction rests on one invariant — for any program and any
partition, the MTCG-generated multi-threaded program is observationally
equivalent to the single-threaded original and never deadlocks.  This
package turns the ad-hoc spot checks scattered across ``debug.py`` and
the test suite into reusable, CLI-driven infrastructure:

* :mod:`repro.check.validators` — post-MTCG static checks (channel
  balance, queue-allocation conflict freedom, cross-thread register
  isolation, a conservative wait-for-graph deadlock check), run by the
  pipeline's opt-in ``check`` stage (``--check``);
* :mod:`repro.check.oracle` — the differential execution oracle with a
  bounded-step watchdog classifying hangs as deadlock vs. livelock;
* :mod:`repro.check.generate` — the random structured-program /
  random-partition grammar (shared by the fuzzer and the property
  tests; hypothesis strategies in :mod:`repro.check.strategies`);
* :mod:`repro.check.fuzz` — the resumable fuzzing loop behind
  ``python -m repro fuzz``, with greedy shrinking and a persistent
  failure corpus;
* :mod:`repro.check.reference_timing` — the readable reference timing
  model, the oracle :mod:`repro.check.differential_backend` holds the
  product simulator (:mod:`repro.machine.fast_timing`) to, results and
  trace events alike.

See ``docs/correctness.md`` for the invariants and workflow.
"""

from .differential_backend import (CaseResult, DifferentialReport,
                                   diff_snapshots, run_differential,
                                   run_fuzz_case, run_workload_case,
                                   snapshot_result, snapshot_trace)
from .fuzz import FuzzFailure, FuzzReport, run_fuzz
from .generate import (MEM_SIZE, SAFE_BINOPS, ProgramSketch, random_args,
                       random_partition, random_sketch, render_program,
                       shrink_candidates, sketch_from_json, sketch_size,
                       sketch_to_json)
from .oracle import VERDICTS, OracleResult, run_oracle
from .validators import (MTValidationError, ValidationReport, Violation,
                         check_channel_balance, check_deadlock_freedom,
                         check_queue_conflicts, check_register_isolation,
                         validate_program)

__all__ = [
    # validators
    "MTValidationError", "ValidationReport", "Violation",
    "check_channel_balance", "check_deadlock_freedom",
    "check_queue_conflicts", "check_register_isolation",
    "validate_program",
    # oracle
    "OracleResult", "VERDICTS", "run_oracle",
    # generation
    "MEM_SIZE", "SAFE_BINOPS", "ProgramSketch", "random_args",
    "random_partition", "random_sketch", "render_program",
    "shrink_candidates", "sketch_from_json", "sketch_size",
    "sketch_to_json",
    # fuzzing
    "FuzzFailure", "FuzzReport", "run_fuzz",
    # backend equivalence
    "CaseResult", "DifferentialReport", "diff_snapshots",
    "run_differential", "run_fuzz_case", "run_workload_case",
    "snapshot_result", "snapshot_trace",
]
