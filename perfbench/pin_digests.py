"""Write ``digests.json``: the digest of every call's output for the default seed.

Run from the root of a checkout, on the commit whose outputs are the
reference:

    python3 perfbench/pin_digests.py
"""

import json
import os
import shutil
import sys

import run
import workloads


def main():
    sys.path.insert(0, run.SRC)
    digests = {}
    for name in workloads.WORKLOADS:
        workdir = os.path.join(run.HERE, "out", f"pin-{name}-{os.getpid()}")
        try:
            _, ops = run.setup(name, run.DEFAULT_SEED, workdir)
            digests[name] = {}
            for op in ops:
                _, output, error = run.run_op(op)
                problem = run.settle(op, output, error, None)
                if problem is not None:
                    print(f"FAILED {op.id}: {problem}", file=sys.stderr)
                    return 1
                digests[name][op.id] = workloads.digest(output)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
    with open(os.path.join(run.HERE, "digests.json"), "w", encoding="utf-8") as handle:
        json.dump(digests, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
