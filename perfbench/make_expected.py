"""Record the outputs the Monte Carlo workloads are checked against.

Run from the root of an afrelay checkout, at the commit whose outputs are
the reference:

    python3 perfbench/make_expected.py

For every program seed in workloads.PROGRAM_SEEDS it runs one round of
mc-sweep and exact-dist and writes perfbench/expected.json: the digest of
the Monte Carlo estimate and density columns and the standard errors per
program seed, and the closed-form columns, which must not depend on the seed.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path.cwd() / "src"))

import workloads  # noqa: E402


def main() -> int:
    sweep = {"by_seed": {}}
    dist = {"by_seed": {}, "closed": {}}
    for ps_index, ps in enumerate(workloads.PROGRAM_SEEDS):
        w = workloads.McSweep(ps_index)
        [argv] = w.ops()
        rc, text = w.run_op(argv)
        if rc != 0:
            raise SystemExit(f"mc-sweep exited {rc} at program seed {ps}")
        rec = w.record(text)
        closed = {"columns": rec["columns"], "closed": rec["closed"]}
        if ps_index == 0:
            sweep.update(closed)
        elif {k: sweep[k] for k in closed} != closed:
            raise SystemExit(f"mc-sweep closed-form columns depend on the seed ({ps})")
        sweep["by_seed"][str(ps)] = {"mc_digest": rec["mc_digest"], "se": rec["se"]}

        w = workloads.ExactDist(ps_index)
        digests = {}
        for argv in w.ops():
            rc, text = w.run_op(argv)
            g = argv[argv.index("--gamma-db") + 1]
            if rc != 0:
                raise SystemExit(f"dist at {g} dB exited {rc} at program seed {ps}")
            rec = w.record(text)
            if ps_index == 0:
                dist["columns"] = rec["columns"]
                dist["closed"][g] = rec["closed"]
            elif rec["closed"] != dist["closed"][g]:
                raise SystemExit(f"exact-dist closed-form columns depend on the seed ({ps})")
            digests[g] = rec["mc_digest"]
        dist["by_seed"][str(ps)] = digests
        print(f"program seed {ps} recorded", file=sys.stderr)

    with open(workloads.EXPECTED_PATH, "w") as fh:
        json.dump({"mc-sweep": sweep, "exact-dist": dist}, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
