"""Record the reference output digests that ``run.py`` checks at the default seed.

    python3 perfbench/record_digests.py

Runs every entry of the input cycle of each workload with output digests
(``scene``, ``cli``) at ``DEFAULT_SEED`` and writes perfbench/digests.json.
Rerun only when an output is meant to change; the digests pin the
byte-identical-output rule.
"""

import json
from pathlib import Path

from workloads import DEFAULT_SEED, DIGESTS, WORKLOADS, import_package

ROOT = Path(__file__).resolve().parent.parent


def main():
    dsp = import_package(ROOT)
    (ROOT / ".bench_out").mkdir(exist_ok=True)
    recorded = {}
    for name in ("scene", "cli"):
        workload = WORKLOADS[name](dsp, ROOT, DEFAULT_SEED)
        try:
            workload.setup()
            entries = []
            for i in range(workload.cycle):
                checked = workload.check(i, workload.op(i))
                if checked.problems:
                    raise SystemExit(f"{name} op {i} failed its checks: {checked.problems}")
                entries.append(checked.digests)
            recorded[name] = entries
        finally:
            workload.close()
    DIGESTS.write_text(json.dumps(recorded, indent=1) + "\n")


if __name__ == "__main__":
    main()
