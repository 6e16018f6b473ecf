"""One `isl` process as the benchmark runs it.

    python perfbench/islproc.py SAMPLES_OUT TRACE_OUT ISL_ARGS...

Behaves like `python -m intervalsemirings.cli ISL_ARGS...` (same stdout,
stderr and exit code), with the calibration sampler of calib.py running
from start-up; its unit timings go to SAMPLES_OUT at exit.  Unless
TRACE_OUT is "-", the benchmark's wrappers are installed after the package
import, and the call counters, coarse spans and the import and main times
are written to TRACE_OUT.
"""

import sys
import time

from calib import Sampler


def main(samples_out, trace_out, argv):
    sampler = Sampler()
    sampler.start()
    try:
        t0 = time.perf_counter()
        import intervalsemirings.cli as cli
        import_s = time.perf_counter() - t0
        tracer = None
        if trace_out != "-":
            from tracing import Tracer

            tracer = Tracer()
            tracer.install()
            tracer.job = "isl"
        t1 = time.perf_counter()
        code = cli.main(argv)
        main_s = time.perf_counter() - t1
        sys.stdout.flush()
        if tracer is not None:
            tracer.dump(trace_out, {"import_s": import_s, "main_s": main_s})
    finally:
        sampler.stop()
        sampler.dump(samples_out)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2], sys.argv[3:]))
