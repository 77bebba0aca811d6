"""Regenerate reference.json, the outputs every benchmark pass is checked against.

    python3 perfbench/make_reference.py

Runs one pass of every workload in each seed orientation (a highest weight
or its dual) and stores the floats of its outputs and the SHA-256 digests of
its exact outputs.  Regenerate only when a change is meant to alter outputs,
and say in the change why they moved.
"""

from __future__ import annotations

import json
import random
import sys
import tempfile
from pathlib import Path

import run


def main() -> int:
    run.load_package()
    from workloads import WORKLOADS, Checks

    reference = {}
    for name, cls in WORKLOADS.items():
        for choice in range(len(cls(random.Random(0)).choices)):
            workload = cls(random.Random(0), choice=choice)
            checks = Checks()
            run.WORK.mkdir(exist_ok=True)
            with tempfile.TemporaryDirectory(dir=run.WORK) as work:
                state = workload.setup(Path(work))
                outputs = workload.run_pass(state)
                floats, digests = workload.observe(state, outputs, checks)
            if checks.failed:
                print(f"{name} {workload.orientation}: identities fail: {checks.failures}", file=sys.stderr)
                return 1
            reference.setdefault(name, {})[workload.orientation] = {"floats": floats, "digests": digests}
            print(f"{name} {workload.orientation}: {len(floats)} floats, {len(digests)} digests", file=sys.stderr)
    with open(run.REFERENCE, "w") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
