"""Record the golden report digests the benchmark checks every pass against.

Run from the repository root, only when a change is meant to alter report
text:

    python3 perfbench/make_golden.py

It writes perfbench/golden.json: the sha256 of the canonical `cli.to_json`
text of every report the workloads produce, and of each whole
`verify all` document with its check count.
"""

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from affine_verma import cli  # noqa: E402

from workloads import (FULL_RANKS, GOLDEN_PATH, ORACLE_RANKS,  # noqa: E402
                       SMOKE_RANKS, check_key, clear_caches, digest,
                       range_key)


def main():
    golden = {"reports": {}, "all": {}}
    for ranks in (FULL_RANKS, SMOKE_RANKS):
        clear_caches()
        report = cli.run_all(ranks, 1)
        golden["all"][range_key(ranks)] = {
            "digest": digest(cli.to_json(report)),
            "checks": len(report["reports"]),
        }
        for s, rep in zip(report["summary"], report["reports"]):
            key = check_key(s["check"], s["type"], s["l"])
            golden["reports"][key] = digest(cli.to_json(rep))
    for kind in "BD":
        for l in ORACLE_RANKS:
            rep = cli.run_check("singular", kind, l, strict=True)
            key = check_key("singular", kind, l, strict=True)
            golden["reports"][key] = digest(cli.to_json(rep))
    golden["reports"] = dict(sorted(golden["reports"].items()))
    with open(GOLDEN_PATH, "w") as fh:
        json.dump(golden, fh, indent=2)
        fh.write("\n")


if __name__ == "__main__":
    main()
