"""The ``repro tune`` search driver.

For each requested workload the driver runs one seeded search over the
knob space: it always scores the baseline candidates first (default
GREMIO and default DSWP — the search can therefore never lose to them),
then repeatedly asks the strategy for fixed-size generations of unseen
candidates and scores them through the batched
:func:`repro.api.evaluate_many` path.  The
objective is total MT cycles; ties at the minimum are broken by traced
critical-path length.

Determinism contract: generation size is fixed (``GENERATION``)
independently of ``--jobs``, all randomness flows from
``Random("repro-tune:<seed>:<workload>")``, evaluation results are
pool-invariant by the matrix contract, and leaderboards carry no
wall-clock data — so equal ``(seed, budget, knobs, workloads)`` yield
byte-identical leaderboard JSON.

Cost amortization: every scored candidate is memoized in the persistent
artifact cache under its request key (stage
``tune-candidate``; traced tie-breaks under ``tune-trace``), so re-runs
— and overlapping searches — skip straight to the verdict.
"""

from __future__ import annotations

import random
from dataclasses import replace
from typing import Callable, Dict, List, Optional, Set, Tuple

from ..api import (TOPOLOGIES, EvaluateRequest, ProgramSpec, TuneRequest,
                   TuneResult, evaluate, evaluate_many, get_cache)
from .space import DEFAULT_SPACE, CanonicalCandidate, KnobSpace
from .strategies import Strategy, make_strategy

#: Candidates scored per strategy round.  Fixed (never derived from
#: ``--jobs``) so the explored sequence is pool-invariant.
GENERATION = 8

#: At most this many candidates tied at the minimum cycle count are
#: traced for the critical-path tie-break (tracing bypasses the
#: simulate cache, so it is rationed).
TRACE_TIES = 4

#: The per-candidate metrics recorded on leaderboard entries (all
#: deterministic simulator outputs; no wall-clock data).
ENTRY_METRICS = ("mt_cycles", "st_cycles", "speedup",
                 "communication_fraction", "communication_instructions",
                 "dynamic_instructions", "channels")

Progress = Optional[Callable[[str], None]]


def _say(progress: Progress, message: str) -> None:
    if progress is not None:
        progress(message)


def candidate_request(workload: str, candidate: CanonicalCandidate,
                      request: TuneRequest) -> EvaluateRequest:
    """The evaluation-cell request scoring one candidate."""
    return EvaluateRequest(
        program=ProgramSpec.registry(workload),
        technique=candidate.technique,
        coco=candidate.coco, n_threads=request.n_threads,
        scale=request.scale, topology=candidate.topology,
        placer=candidate.placer, backend=request.backend,
        overrides=candidate.overrides)


def _feasible(candidate: CanonicalCandidate, n_threads: int) -> bool:
    if candidate.topology is None:
        return True
    return n_threads <= TOPOLOGIES[candidate.topology].n_cores


def _score_requests(requests: List[EvaluateRequest],
                    jobs: int) -> List[Dict[str, float]]:
    """Metrics for each request, via the ``tune-candidate`` memo when
    possible and the batched evaluation path otherwise."""
    cache = get_cache()
    use_cache = cache is not None and cache.enabled
    metrics: List[Optional[Dict[str, float]]] = [None] * len(requests)
    misses: List[int] = []
    for index, request in enumerate(requests):
        if use_cache:
            hit, payload = cache.load("tune-candidate",
                                      request.request_key())
            if hit:
                metrics[index] = payload["metrics"]
                continue
        misses.append(index)
    if misses:
        results = evaluate_many([requests[i] for i in misses], jobs=jobs)
        for index, result in zip(misses, results):
            subset = {name: float(result.metrics[name])
                      for name in ENTRY_METRICS
                      if name in result.metrics}
            metrics[index] = subset
            if use_cache:
                cache.store("tune-candidate",
                            requests[index].request_key(),
                            {"metrics": subset})
    return [m if m is not None else {} for m in metrics]


def _critical_path(request: EvaluateRequest) -> Optional[float]:
    """Traced critical-path cycles of one candidate, memoized under
    ``tune-trace`` (traced simulations themselves are uncacheable)."""
    traced = replace(request, trace=True)
    cache = get_cache()
    use_cache = cache is not None and cache.enabled
    key = traced.request_key()
    if use_cache:
        hit, payload = cache.load("tune-trace", key)
        if hit:
            return payload["critical_path_cycles"]
    result = evaluate(traced)
    value = result.metrics.get("critical_path_cycles")
    value = float(value) if value is not None else None
    if use_cache:
        cache.store("tune-trace", key, {"critical_path_cycles": value})
    return value


def _jsonable(value: object) -> object:
    return value


def _make_entry(key: str, source: str, assignment: Dict[str, object],
                candidate: CanonicalCandidate) -> Dict[str, object]:
    return {
        "key": key,
        "source": source,
        "candidate": {name: _jsonable(value)
                      for name, value in sorted(assignment.items())},
        "technique": candidate.technique,
        "coco": candidate.coco,
        "placer": candidate.placer,
        "topology": candidate.topology,
        "overrides": [[name, value]
                      for name, value in candidate.overrides],
        "metrics": {},
        "critical_path_cycles": None,
    }


class _WorkloadSearch:
    """One workload's seeded search state."""

    def __init__(self, request: TuneRequest, workload: str,
                 space: KnobSpace, jobs: int, progress: Progress):
        self.request = request
        self.workload = workload
        self.space = space
        self.jobs = jobs
        self.progress = progress
        self.rng = random.Random("repro-tune:%d:%s"
                                 % (request.seed, workload))
        self.strategy: Strategy = make_strategy(request.strategy, space,
                                                self.rng)
        self.seen: Set[str] = set()
        self.entries: Dict[str, Dict[str, object]] = {}
        self.evaluated = 0

    # -- candidate generation ---------------------------------------------

    def _baseline_assignments(self) -> List[Tuple[str, Dict[str, object]]]:
        if "technique" in self.space:
            techniques = self.space.knob("technique").values
        else:
            techniques = (None,)
        baselines = []
        for technique in techniques:
            assignment = self.space.default_assignment()
            if technique is not None:
                assignment["technique"] = technique
            label = technique if technique is not None else "default"
            baselines.append(("baseline:%s" % label, assignment))
        return baselines

    def _next_generation(self, want: int
                         ) -> List[Tuple[str, Dict[str, object],
                                         CanonicalCandidate]]:
        """Up to ``want`` fresh, feasible candidates from the strategy
        (infeasible proposals are consumed as seen, not scored)."""
        generation = []
        while len(generation) < want:
            batch = self.strategy.propose(want - len(generation),
                                          self.seen)
            if not batch:
                break
            for assignment in batch:
                candidate = self.space.canonical(assignment)
                key = candidate.key()
                self.seen.add(key)
                if key in self.entries:
                    continue
                if not _feasible(candidate, self.request.n_threads):
                    continue
                generation.append((key, assignment, candidate))
        return generation

    # -- scoring -----------------------------------------------------------

    def _score(self, batch: List[Tuple[str, Dict[str, object],
                                       CanonicalCandidate]],
               sources: Dict[str, str]) -> None:
        requests = [candidate_request(self.workload, candidate,
                                      self.request)
                    for _, _, candidate in batch]
        scored = _score_requests(requests, self.jobs)
        for (key, assignment, candidate), metrics in zip(batch, scored):
            entry = _make_entry(key, sources.get(key, "search"),
                                assignment, candidate)
            entry["metrics"] = metrics
            self.entries[key] = entry
            self.evaluated += 1
            self.strategy.observe(assignment, key,
                                  metrics.get("mt_cycles", float("inf")))

    def run(self) -> Tuple[List[Dict[str, object]], int]:
        budget = self.request.budget
        baselines = []
        sources: Dict[str, str] = {}
        for source, assignment in self._baseline_assignments():
            candidate = self.space.canonical(assignment)
            key = candidate.key()
            if key in self.seen or len(baselines) >= budget:
                continue
            self.seen.add(key)
            sources[key] = source
            baselines.append((key, assignment, candidate))
        self._score(baselines, sources)
        round_number = 0
        while self.evaluated < budget:
            round_number += 1
            generation = self._next_generation(
                min(GENERATION, budget - self.evaluated))
            if not generation:
                _say(self.progress,
                     "%s: space exhausted after %d candidates"
                     % (self.workload, self.evaluated))
                break
            self._score(generation, sources)
            best = min(entry["metrics"].get("mt_cycles", float("inf"))
                       for entry in self.entries.values())
            _say(self.progress,
                 "%s: round %d, %d/%d evaluated, best %.0f cycles"
                 % (self.workload, round_number, self.evaluated,
                    budget, best))
        return self._leaderboard(), self.evaluated

    # -- ranking -----------------------------------------------------------

    def _leaderboard(self) -> List[Dict[str, object]]:
        entries = sorted(
            self.entries.values(),
            key=lambda e: (e["metrics"].get("mt_cycles", float("inf")),
                           e["key"]))
        if not entries:
            return []
        minimum = entries[0]["metrics"].get("mt_cycles", float("inf"))
        tied = [e for e in entries
                if e["metrics"].get("mt_cycles") == minimum]
        to_trace = tied[:TRACE_TIES]
        traced_keys = {e["key"] for e in to_trace}
        for entry in entries:
            if entry["source"].startswith("baseline:") \
                    and entry["key"] not in traced_keys:
                to_trace.append(entry)
                traced_keys.add(entry["key"])
        for entry in to_trace:
            candidate = CanonicalCandidate(
                entry["technique"], entry["coco"], entry["placer"],
                entry["topology"],
                tuple((name, value)
                      for name, value in entry["overrides"]))
            entry["critical_path_cycles"] = _critical_path(
                candidate_request(self.workload, candidate,
                                  self.request))

        def rank_key(entry: Dict[str, object]):
            cycles = entry["metrics"].get("mt_cycles", float("inf"))
            critical = entry["critical_path_cycles"]
            if cycles == minimum:
                return (cycles,
                        critical if critical is not None
                        else float("inf"),
                        entry["key"])
            return (cycles, float("inf"), entry["key"])

        entries.sort(key=rank_key)
        for rank, entry in enumerate(entries):
            entry["rank"] = rank
        return entries


def run_tune(request: TuneRequest, jobs: int = 1,
             out_dir: Optional[str] = None, top: int = 10,
             progress: Progress = None) -> TuneResult:
    """Run the full tuning search and return (and optionally write,
    see :mod:`repro.tune.leaderboard`) its leaderboards."""
    request = request.validate()
    space = (DEFAULT_SPACE.subspace(request.knobs)
             if request.knobs else DEFAULT_SPACE)
    _say(progress,
         "tuning %d workload(s), strategy %s, budget %d, seed %d, "
         "space of %d knobs (<= %d raw candidates)"
         % (len(request.workloads), request.strategy, request.budget,
            request.seed, len(space), space.size()))
    leaderboards: Dict[str, List[Dict[str, object]]] = {}
    best: Dict[str, Dict[str, object]] = {}
    total = 0
    for workload in request.workloads:
        search = _WorkloadSearch(request, workload, space, jobs,
                                 progress)
        entries, evaluated = search.run()
        total += evaluated
        leaderboards[workload] = entries[:max(top, 1)]
        if entries:
            best[workload] = _best_summary(entries, evaluated)
            _say(progress, "%s: best %s (%.0f cycles)"
                 % (workload, best[workload]["source"],
                    best[workload]["metrics"]["mt_cycles"]))
    result = TuneResult(request=request, leaderboards=leaderboards,
                        best=best, evaluated=total)
    if out_dir is not None:
        from .leaderboard import write_outputs
        for path in write_outputs(result, out_dir):
            _say(progress, "wrote %s" % path)
    return result


def _best_summary(entries: List[Dict[str, object]],
                  evaluated: int) -> Dict[str, object]:
    """The winning entry plus its deltas against every seeded
    baseline (negative improvement would mean the search lost to a
    baseline it contains — impossible by construction)."""
    winner = dict(entries[0])
    winner["evaluated"] = evaluated
    baseline_cycles: Dict[str, float] = {}
    improvement: Dict[str, float] = {}
    cycles = winner["metrics"].get("mt_cycles")
    for entry in entries:
        source = entry["source"]
        if not source.startswith("baseline:"):
            continue
        label = source.split(":", 1)[1]
        base = entry["metrics"].get("mt_cycles")
        baseline_cycles[label] = base
        if base and cycles is not None:
            improvement[label] = round(100.0 * (base - cycles) / base, 4)
    winner["baseline_mt_cycles"] = baseline_cycles
    winner["improvement_pct"] = improvement
    return winner
