"""One set-up sample, taken in a fresh interpreter so the import is cold.

    python3 bench/setup_probe.py <workload> <seed>

run.py starts this once per extra sample, one at a time, and waits for
it.  Prints one JSON line with import_s, build_s, warmup_s and setup_s.
"""

import json
import shutil
import sys

import run


def main() -> int:
    workdir = run.make_workdir()
    try:
        timings, *_ = run.timed_setup(sys.argv[1], int(sys.argv[2]), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(timings))
    return 0


if __name__ == "__main__":
    sys.exit(main())
