"""Set-up cost of the library in a fresh interpreter.

    python3 setup_probe.py SRC_DIR < pair.json

Reads two 5x4 point lists as JSON from stdin, then times importing
``hypercongruence`` from SRC_DIR plus deciding that one tiny pair, and
prints {"seconds": ..., "congruent": ...}.
"""

import json
import sys
import time


def main() -> None:
    a, b = json.load(sys.stdin)
    t0 = time.perf_counter()
    sys.path.insert(0, sys.argv[1])
    from hypercongruence import congruence_test_4d
    verdict = congruence_test_4d(a, b)
    seconds = time.perf_counter() - t0
    print(json.dumps({"seconds": seconds, "congruent": bool(verdict.congruent)}))


if __name__ == "__main__":
    main()
