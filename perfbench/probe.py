"""Set-up probe: one fresh interpreter, timed from its first statement
until the workload's program objects are ready for the first unit of
work (program import, executor/pool construction, worker fork, spool
open and replay, watcher start).  Prints ``{"setup_s": ...}``.

Usage: ``python3 perfbench/probe.py <workload> <scratch dir>``.
"""

import time

START = time.perf_counter()

import json  # noqa: E402
import pathlib  # noqa: E402
import sys  # noqa: E402

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402  (imports the program)


def main() -> None:
    name, scratch = sys.argv[1], pathlib.Path(sys.argv[2])
    scratch.mkdir(parents=True, exist_ok=True)
    workload = workloads.WORKLOADS[name](seed=1, workdir=scratch)
    try:
        workload.setup(scratch)
        ready = time.perf_counter() - START
    finally:
        workload.close()
    print(json.dumps({"setup_s": ready}))


if __name__ == "__main__":
    main()
