"""Time the import of kschannel plus one workload's first minimal call, in this process.

Usage: python3 perfbench/setup_probe.py WORKLOAD SEED
Prints the elapsed seconds and then the calibration kernel's time, on the
last line of standard output.  run.py starts a fresh process for every
probe so that nothing is imported or cached beforehand.
"""

import time

T0 = time.perf_counter()

import contextlib  # noqa: E402
import io  # noqa: E402
import sys  # noqa: E402


def main() -> int:
    name, seed = sys.argv[1], int(sys.argv[2])
    from workloads import FULL, WORKLOADS, calibration_s

    workload = WORKLOADS[name](seed, FULL)
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        workload.minimal()
    elapsed = time.perf_counter() - T0
    kernel = sorted(calibration_s() for _ in range(3))[1]
    print(repr(elapsed), repr(kernel))
    return 0


if __name__ == "__main__":
    sys.exit(main())
