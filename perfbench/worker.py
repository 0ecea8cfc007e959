"""One ``ccc`` invocation in a fresh interpreter.

Usage: ``python worker.py SPEC`` where SPEC is a JSON object with
``launch`` (the parent's ``time.perf_counter()`` just before the launch; on
Linux it reads the system-wide monotonic clock, so it is comparable here),
``argv`` (the ``ccc`` arguments, or null to stop once ``ccc.cli`` is
imported), ``trace`` (install the tracer around the call) and ``spans``
(where a traced run writes its spans).

A fresh process per invocation keeps the module-level lru caches as cold
as a ``ccc`` user sees them.  Nothing but ``sys`` and ``time`` is imported
before ``ccc.cli``, so the setup and import times hold only what a cold
``ccc`` pays.  The last line of stdout is a JSON result.
"""

import sys
import time


def main() -> None:
    before_import = time.perf_counter()
    import ccc.cli

    ready = time.perf_counter()
    import contextlib
    import io
    import json

    import tracer

    spec = json.loads(sys.argv[1])
    result = {
        "setup_s": ready - spec["launch"],
        "import_s": ready - before_import,
    }
    if spec["argv"] is not None:
        tr = tracer.Tracer() if spec["trace"] else None
        if tr is not None:
            tr.install()
        buf = io.StringIO()
        try:
            with contextlib.redirect_stdout(buf):
                start = time.perf_counter_ns()
                code = ccc.cli.run(spec["argv"])
                end = time.perf_counter_ns()
        finally:
            if tr is not None:
                tr.restore()
        result.update(exit=code, report=buf.getvalue(), call_s=(end - start) / 1e9)
        if tr is not None:
            result["trace_problems"] = tr.check(start, end)
            result["layers"] = tr.summary()
            tr.write_spans(spec["spans"])
    result["left_wrapped"] = tracer.wrapped_objects()
    print(json.dumps(result, sort_keys=True))


if __name__ == "__main__":
    main()
