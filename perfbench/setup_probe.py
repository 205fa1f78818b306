"""Child process for the setup_s metric: import nswlp and solve one tiny
instance through the CLI entry point, then print the seconds this took.

    python3 setup_probe.py SRC_DIR INSTANCE ALLOCATION_OUT REPORT_OUT
"""

import sys
import time


def main() -> int:
    src, instance, alloc, report = sys.argv[1:5]
    start = time.perf_counter()
    sys.path.insert(0, src)
    from nswlp import cli

    code = cli.main(["solve", instance, "--epsilon", "0.1", "-o", alloc, "--report", report])
    elapsed = time.perf_counter() - start
    if code != 0:
        return code
    print(repr(elapsed))
    return 0


if __name__ == "__main__":
    sys.exit(main())
