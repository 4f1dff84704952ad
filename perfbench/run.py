"""Run one benchmark workload and print its result line.

    python3 perfbench/run.py --workload sweep-cold --seed 1 \\
        --seconds 20 --trace 0

Run from the root of a checkout: the program under test is imported
from ``src/`` of that checkout.  The last line of standard output is
one JSON object (``correct``, ``attempted``, ``failed``, ``metrics``);
the lines before it name every metric with its unit and sample count.
``--trace 1`` reports the per-layer metrics instead of the end-to-end
ones and writes a Chrome trace-event span file under
``.perfbench/traces/`` (opens in Perfetto).
"""

from __future__ import annotations

import argparse
import os
import signal
import sys

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))))

from perfbench import common  # noqa: E402

WORKLOADS = ("sweep-cold", "sweep-warm", "serve-open", "tune")


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def _terminate(signum, _frame):
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    args = _parse(argv)
    if not common.program_available():
        print("perfbench: no program at %s (run from the root of a "
              "checkout)" % common.SRC, file=sys.stderr)
        return 2
    removed = common.isolate_environment()
    common.log("isolated environment: removed %s; cache under %s"
               % (", ".join(removed) or "nothing (none set)",
                  os.path.relpath(common.WORK, common.ROOT)))
    sys.path.insert(0, common.SRC)
    import repro
    if not os.path.abspath(repro.__file__).startswith(common.SRC + os.sep):
        print("perfbench: imported repro from %s, not %s"
              % (repro.__file__, common.SRC), file=sys.stderr)
        return 2
    for signum in (signal.SIGTERM, signal.SIGINT):
        signal.signal(signum, _terminate)

    from perfbench.inprocess import Sweep, Tune
    from perfbench.serve import ServeOpen
    result = common.Result()
    workdir = common.Workdir(args.workload)
    common.log("workload %s, seed %d, %.1f s, trace %d"
               % (args.workload, args.seed, args.seconds, args.trace))
    workload = None
    try:
        if args.workload == "serve-open":
            workload = ServeOpen(args.seed, args.seconds, result, workdir)
        elif args.workload == "tune":
            workload = Tune(args.seed, args.seconds, result, workdir)
        else:
            workload = Sweep(args.seed, args.seconds, result, workdir,
                             warm=args.workload == "sweep-warm")
        workload.run(bool(args.trace))
    finally:
        if isinstance(workload, ServeOpen):
            workload.close()
        workdir.close()
    result.emit()
    return 0


if __name__ == "__main__":
    sys.exit(main())
