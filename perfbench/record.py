"""Record the expected output of every invocation the benchmark can make.

Run from the repository root, on a commit whose reports are known good:

    python3 perfbench/record.py

Each argv of ``run.catalogue()`` runs once as a cold ``python -m ccc.cli``
and its report, exit code and SVG digest go to ``perfbench/expected.json``.
A report other than ``ok`` is refused unless it is listed in
CHECK_FAILED_EXPECTED, so a wrong verdict is never recorded as expected.
"""

import json
import sys

import run

# reversed weights: the weight map is not an order embedding (exit 2)
CHECK_FAILED_EXPECTED = {
    run.key(["check", "poset-embedding", run.DATA + "samebase_rev.json", "--window", "4"]),
}


def main() -> int:
    expected = {}
    for argv in run.catalogue():
        run.clear_figure()
        out, code, wall, _ = run.spawn([sys.executable, "-m", "ccc.cli", *argv])
        report = out.decode()
        status = json.loads(report)["status"]
        allowed = "check-failed" if run.key(argv) in CHECK_FAILED_EXPECTED else "ok"
        if status != allowed:
            print(f"refusing to record {status!r} for {argv}: {report}", file=sys.stderr)
            return 1
        expected[run.key(argv)] = {
            "exit": code,
            "report": report,
            "svg_sha256": run.figure_digest(),
        }
        print(f"{wall:7.3f}s exit {code} {' '.join(argv)}")
    run.clear_figure()
    run.EXPECTED.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
