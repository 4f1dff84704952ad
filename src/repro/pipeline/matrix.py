"""Batch evaluation: fan a (workload x technique x coco x threads)
matrix across a ``multiprocessing`` pool.

``evaluate_matrix()`` is the sweep engine behind ``python -m repro sweep
--jobs N`` and the benchmark harness.  Cells are evaluated through the
same staged, cached pipeline as single calls, so parallel workers share
the persistent artifact cache (atomic writes make that safe) and results
are bit-identical to serial execution.  Any failure to parallelize —
no ``multiprocessing`` support, unpicklable state, a crashed pool —
degrades gracefully to the serial path.

Cells may carry *overrides* — a tuple of namespaced ``(knob, value)``
pairs tweaking the machine model (``machine.comm_latency``) or the
partitioner's cost-model thresholds (``partitioner.split_threshold``).
They are how the ``repro tune`` search driver dispatches candidate
configurations through the same batched, cached evaluation path as
everything else; :func:`validate_overrides` is the single gatekeeper
for the knob namespace.
"""

from __future__ import annotations

import dataclasses
import warnings
from typing import (Dict, Iterable, List, Mapping, NamedTuple, Optional,
                    Sequence, Tuple, Union)

from ..machine.config import (DEFAULT_BACKEND, TUNABLE_MACHINE_FIELDS,
                              MachineConfig)
from ..workloads import get_workload, workload_names
from ..workloads.common import Workload
from .cache import configure_cache, get_cache
from .core import Evaluation, evaluate_workload
from .stages import PARTITIONER_PARAMS, technique_config
from .telemetry import Telemetry, global_telemetry

Overrides = Tuple[Tuple[str, object], ...]


def validate_overrides(overrides: Iterable[Sequence],
                       technique: str = "gremio") -> Overrides:
    """Check ``(knob, value)`` override pairs against the tunable-knob
    registries and return them as a canonical sorted tuple.

    Knobs are namespaced: ``machine.<field>`` tweaks a whitelisted
    :class:`~repro.machine.config.MachineConfig` field
    (:data:`~repro.machine.config.TUNABLE_MACHINE_FIELDS`);
    ``partitioner.<param>`` forwards a keyword to the technique's
    partitioner (:data:`~repro.pipeline.stages.PARTITIONER_PARAMS`).
    Raises :class:`ValueError` with an actionable message otherwise.
    """
    canonical: Dict[str, object] = {}
    partitioner_params = PARTITIONER_PARAMS.get(technique, ())
    for pair in overrides:
        if len(tuple(pair)) != 2 or not isinstance(pair[0], str):
            raise ValueError(
                "override entries must be (name, value) pairs with a "
                "string name, got %r" % (pair,))
        name, value = pair
        domain, _, field = name.partition(".")
        if domain == "machine":
            if field not in TUNABLE_MACHINE_FIELDS:
                raise ValueError(
                    "unknown machine override %r (tunable machine "
                    "fields: %s)" % (name, ", ".join(
                        sorted(TUNABLE_MACHINE_FIELDS))))
            TUNABLE_MACHINE_FIELDS[field].check(name, value)
        elif domain == "partitioner":
            if field not in partitioner_params:
                raise ValueError(
                    "technique %r does not accept partitioner override "
                    "%r (tunable: %s)"
                    % (technique, name,
                       ", ".join(partitioner_params) or "none"))
            if not isinstance(value, (int, float)) \
                    or isinstance(value, bool) or not value > 0:
                raise ValueError(
                    "partitioner override %r must be a positive number, "
                    "got %r" % (name, value))
        else:
            raise ValueError(
                "unknown override namespace %r in %r (use "
                "'machine.<field>' or 'partitioner.<param>')"
                % (domain, name))
        if name in canonical:
            raise ValueError("duplicate override %r" % (name,))
        canonical[name] = value
    return tuple(sorted(canonical.items()))


def split_overrides(overrides: Optional[Iterable[Sequence]]
                    ) -> Tuple[Dict[str, object], Dict[str, object]]:
    """Partition override pairs into machine-config fields and
    partitioner keyword arguments (names with the namespace stripped)."""
    machine: Dict[str, object] = {}
    partitioner: Dict[str, object] = {}
    for name, value in overrides or ():
        domain, _, field = name.partition(".")
        (machine if domain == "machine" else partitioner)[field] = value
    return machine, partitioner


def overrides_config(technique: str,
                     overrides: Optional[Iterable[Sequence]]
                     ) -> Tuple[Optional[MachineConfig],
                                Optional[Mapping[str, object]]]:
    """Resolve override pairs into the ``(config, partitioner_args)``
    arguments of :func:`~repro.pipeline.core.evaluate_workload`: a
    machine configuration with the overridden fields applied on top of
    the technique's default (or ``None`` when untouched), plus the
    partitioner keyword mapping (or ``None``)."""
    machine, partitioner = split_overrides(overrides)
    config = None
    if machine:
        config = dataclasses.replace(technique_config(technique),
                                     **machine)
    return config, (partitioner or None)


class MatrixCell(NamedTuple):
    """One point of the evaluation matrix.

    ``backend`` is deprecated and ignored (there is one simulator); it
    is not part of the cell's *identity* — :meth:`identity` strips it,
    and request keys/baselines built from it are backend-invariant.
    ``overrides`` optionally carries ``(knob, value)`` pairs (see
    :func:`validate_overrides`); it *is* identity when non-empty, and
    the empty default keeps the identity tuple byte-compatible with
    pre-override cells."""

    workload: str
    technique: str = "gremio"
    coco: bool = False
    n_threads: int = 2
    scale: str = "ref"
    alias_mode: str = "annotated"
    local_schedule: Optional[str] = None
    mt_check: bool = False
    topology: Optional[str] = None
    placer: str = "identity"
    backend: str = DEFAULT_BACKEND
    overrides: Overrides = ()

    def identity(self) -> tuple:
        """The fields that determine this cell's results (everything but
        ``backend``) — the key for caches, baselines, and the daemon."""
        base = tuple(self[:10])
        if self.overrides:
            return base + (("overrides",
                            tuple(sorted(self.overrides))),)
        return base


def build_cells(workloads: Optional[
                    Iterable[Union[str, Workload]]] = None,
                techniques: Sequence[str] = ("gremio",),
                coco: Sequence[bool] = (False,),
                n_threads: Sequence[int] = (2,),
                scale: str = "ref",
                alias_mode: str = "annotated",
                local_schedule: Optional[str] = None,
                mt_check: bool = False,
                topology: Optional[str] = None,
                placer: str = "identity",
                backend: str = DEFAULT_BACKEND,
                overrides: Overrides = ()) -> List[MatrixCell]:
    """The cross product, in deterministic workload-major order."""
    if workloads is None:
        names = workload_names()
    else:
        names = [w.name if isinstance(w, Workload) else w
                 for w in workloads]
    return [MatrixCell(name, technique, use_coco, threads, scale,
                       alias_mode, local_schedule, mt_check,
                       topology, placer, backend, overrides)
            for name in names
            for technique in techniques
            for use_coco in coco
            for threads in n_threads]


def evaluate_matrix(cells: Optional[Iterable[MatrixCell]] = None,
                    workloads: Optional[
                        Iterable[Union[str, Workload]]] = None,
                    techniques: Sequence[str] = ("gremio",),
                    coco: Sequence[bool] = (False,),
                    n_threads: Sequence[int] = (2,),
                    scale: str = "ref",
                    alias_mode: str = "annotated",
                    local_schedule: Optional[str] = None,
                    mt_check: bool = False,
                    jobs: int = 1,
                    check: bool = True,
                    telemetry: Optional[Telemetry] = None,
                    topology: Optional[str] = None,
                    placer: str = "identity",
                    backend: str = DEFAULT_BACKEND,
                    overrides: Overrides = ()
                    ) -> List[Evaluation]:
    """Evaluate every cell and return the evaluations in cell order.

    Pass explicit ``cells``, or let the (workloads x techniques x coco x
    n_threads) product be built for you.  With ``jobs > 1`` the cells run
    on a ``multiprocessing`` pool; workers share the persistent artifact
    cache, and their telemetry is merged back into the parent, so the
    results — including metrics — are identical to ``jobs=1``.
    """
    if cells is None:
        cells = build_cells(workloads, techniques, coco, n_threads, scale,
                            alias_mode, local_schedule, mt_check,
                            topology, placer, backend, overrides)
    cells = [cell if isinstance(cell, MatrixCell) else MatrixCell(*cell)
             for cell in cells]

    results: Optional[List[Evaluation]] = None
    if jobs and jobs > 1 and len(cells) > 1:
        results = _evaluate_pool(cells, jobs, check)
        if results is not None:
            accumulator = global_telemetry()
            for evaluation in results:
                if evaluation.telemetry is not None:
                    accumulator.merge(evaluation.telemetry)
                    if (telemetry is not None
                            and telemetry is not accumulator):
                        telemetry.merge(evaluation.telemetry)
    if results is None:
        results = [_run_cell(cell, check, telemetry) for cell in cells]
    return results


def _run_cell(cell: MatrixCell, check: bool,
              telemetry: Optional[Telemetry]) -> Evaluation:
    config, partitioner_args = overrides_config(cell.technique,
                                                cell.overrides)
    return evaluate_workload(get_workload(cell.workload),
                             technique=cell.technique,
                             n_threads=cell.n_threads, coco=cell.coco,
                             scale=cell.scale, config=config, check=check,
                             alias_mode=cell.alias_mode,
                             local_schedule=cell.local_schedule,
                             mt_check=cell.mt_check,
                             telemetry=telemetry,
                             topology=cell.topology,
                             placer=cell.placer,
                             backend=cell.backend,
                             partitioner_args=partitioner_args)


def pool_payload(cell: MatrixCell, check: bool = True,
                 cache=None) -> tuple:
    """The picklable unit of work a pool worker executes: the cell plus
    the parent's cache configuration.  Shared with the ``repro serve``
    worker pool so both fan-outs evaluate cells identically."""
    if cache is None:
        cache = get_cache()
    return (cell, check, cache.directory, cache.enabled)


def run_cell_payload(payload) -> Evaluation:
    """Execute one :func:`pool_payload` in the current process,
    re-pointing the process-wide cache at the parent's directory first
    (a no-op under fork, required under spawn)."""
    cell, check, cache_dir, cache_enabled = payload
    configure_cache(cache_dir, cache_enabled)
    return _run_cell(cell, check, telemetry=None)


# Kept under the historical name: pickled pool entry points must stay
# importable across versions for in-flight spawn workers.
_pool_worker = run_cell_payload


def _run_batch_payload(batch) -> List[Evaluation]:
    return [run_cell_payload(payload) for payload in batch]


def _evaluate_pool(cells: List[MatrixCell], jobs: int,
                   check: bool) -> Optional[List[Evaluation]]:
    payloads = [pool_payload(cell, check) for cell in cells]
    # One batch per workload: cells of a workload share their expensive
    # front-end artifacts (profile, PDG, the single-threaded baseline
    # simulation), and a worker that evaluates them back-to-back reuses
    # those through its in-process cache tier.  Scattering them across
    # workers instead would race the disk tier and compute the shared
    # stages once per worker.
    groups: dict = {}
    for index, cell in enumerate(cells):
        groups.setdefault(cell.workload, []).append(index)
    batches = [[payloads[index] for index in indices]
               for indices in groups.values()]
    try:
        import multiprocessing
        with multiprocessing.Pool(min(jobs, len(batches))) as pool:
            batch_results = pool.map(_run_batch_payload, batches)
    except (AssertionError, KeyboardInterrupt):
        raise  # real evaluation failures / user interrupts propagate
    except Exception as error:
        warnings.warn("parallel evaluation unavailable (%s); "
                      "falling back to serial execution" % (error,),
                      RuntimeWarning)
        return None
    results: List[Optional[Evaluation]] = [None] * len(cells)
    for indices, batch in zip(groups.values(), batch_results):
        for index, evaluation in zip(indices, batch):
            results[index] = evaluation
    return results
