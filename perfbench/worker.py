"""One benchmark request in a fresh interpreter.

Usage: python3 -I worker.py SRC_DIR TRACE [heatinv arguments...]

Times ``import heatjets.cli`` from SRC_DIR (nothing but ``sys`` and ``time``
is imported before it, so the figure is what a `heatinv` process pays), then
runs ``heatjets.cli.main`` on the arguments with its standard output
captured, under a ``tracer.Tracer`` when TRACE is 1.  With no arguments only
the import is timed.  Prints one JSON object: setup_s, peak_rss_mb and, for
a request, exit, solve_s, stdout and the per-layer figures (or null).
"""

import sys
import time

def main():
    src, trace, argv = sys.argv[1], sys.argv[2] == "1", sys.argv[3:]
    sys.path.insert(0, src)
    start = time.perf_counter()
    import heatjets.cli
    setup_s = time.perf_counter() - start

    import contextlib
    import io
    import json
    import os
    import resource

    if not os.path.abspath(heatjets.cli.__file__).startswith(
            os.path.abspath(src) + os.sep):
        sys.exit(f"heatjets was imported from {heatjets.cli.__file__}, "
                 f"not from {src}")
    report = {"setup_s": setup_s}
    if argv:
        tracer = None
        if trace:
            sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
            from tracer import Tracer
            tracer = Tracer()
            tracer.install()
        out = io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out):
                code = heatjets.cli.main(argv)
        finally:
            solve_s = time.perf_counter() - start
            if tracer is not None:
                tracer.uninstall()
        report.update(exit=code, solve_s=solve_s, stdout=out.getvalue(),
                      layers=tracer.layer_metrics() if tracer else None)
    report["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
    sys.stdout.write(json.dumps(report))


if __name__ == "__main__":
    main()
