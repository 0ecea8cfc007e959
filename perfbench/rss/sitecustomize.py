"""Record this interpreter's peak RSS when it exits.

The benchmark puts this directory on the PYTHONPATH of every process it
starts and names a file in PERFBENCH_RSS_FILE.  The ru_maxrss that wait4
returns would also count the benchmark process itself, because Linux
carries the parent's peak RSS across fork and exec; VmHWM counts only the
memory of this process since its exec.
"""

import atexit
import os

_PATH = os.environ.get("PERFBENCH_RSS_FILE")


def _write_peak() -> None:
    with open("/proc/self/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                with open(_PATH, "w", encoding="ascii") as out:
                    out.write(line.split()[1])
                return


if _PATH:
    atexit.register(_write_peak)
