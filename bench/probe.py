"""Set-up probe: run in a fresh interpreter to time a workload's set-up.

Usage: python3 bench/probe.py --workload NAME --seed N

Prints one JSON line with the monotonic clock reading at the moment set-up
finished and the import time of ``certsurv.cli``.  The caller reads the
clock just before starting this process, so the difference covers
interpreter start-up, imports, data loading and splitting, and (for
eval-grid) checkpoint loading.
"""

import argparse
import json
import logging
import time

import workloads


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()
    workloads.use_checkout_source()
    logging.getLogger("certsurv").addHandler(logging.NullHandler())
    state = workloads.set_up(args.workload, args.seed)
    done = time.monotonic()
    print(json.dumps({"done": done, "import_s": state.import_s}))


if __name__ == "__main__":
    main()
