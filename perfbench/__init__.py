"""Steady performance benchmark for the GMT scheduling reproduction.

``python3 perfbench/run.py --workload NAME --seed N --seconds S --trace
0|1`` runs one seeded workload through the program's public surfaces
(``repro.api.evaluate_matrix``, a ``repro serve`` daemon over HTTP,
``repro.api.tune``), checks every output against an oracle and prints
one JSON result line.  See ``perfbench/README.md``.
"""
