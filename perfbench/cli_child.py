"""Runs one ``prony`` command in the traced cli workload.

    PYTHONPATH=src python3 perfbench/cli_child.py light|traced STATS ARGS...

``light`` times the whole command and its write_outputs calls, and
nothing else.  ``traced`` installs the per-layer
tracer before the command runs.  Either way the timings go to the JSON
file STATS and the exit code is that of the command.
"""

import json
import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))


def main():
    mode, stats_path, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    clock = time.perf_counter
    import prony.cli
    stats = {"write_s": 0.0}
    if mode == "traced":
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    else:
        tracer = None
        write = prony.cli.write_outputs

        def timed_write(*args, **kwargs):
            start = clock()
            try:
                return write(*args, **kwargs)
            finally:
                stats["write_s"] += clock() - start

        prony.cli.write_outputs = timed_write
    t0 = clock()
    code = prony.cli.main(argv)
    stats["main_s"] = clock() - t0
    if tracer is not None:
        tracer.uninstall()
        stats["trace"] = {"stats": tracer.stats, "observed": tracer.observed}
    with open(stats_path, "w") as handle:
        json.dump(stats, handle)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
