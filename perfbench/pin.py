"""Write perfbench/references.json: the expected output of every report.

Usage (from the repository root):  python3 perfbench/pin.py

Runs each distinct report of every workload once at --seed 0 and records
its exit code, the sha256 of its stdout, and the sha256 of its canonical
payload with the seed-dependent field masked (see run.check_output).
The references are pinned at a commit whose reports are trusted; running
this script at a later commit would silently accept whatever that commit
prints, so a report that changes on purpose is re-pinned by hand.
"""

import hashlib
import json
import shutil
import sys
import tempfile
from pathlib import Path

from run import (BENCH_DIR, ENTRY, PINNED_SEED, REPORT_TIMEOUT_S, STATE_DIR,
                 Runner, build, masked_sha256)
from workloads import WORKLOADS, cli_args, report_key


def main() -> int:
    build()
    STATE_DIR.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="pin-", dir=STATE_DIR))
    refs = {}
    try:
        runner = Runner(work, {}, PINNED_SEED)
        for report in dict.fromkeys(r for rs in WORKLOADS.values() for r in rs):
            argv = [sys.executable, "-c", ENTRY,
                    *cli_args(report, PINNED_SEED)]
            code, out, _, _, _, home = runner.spawn(argv, REPORT_TIMEOUT_S)
            shutil.rmtree(home, ignore_errors=True)
            if code not in (0, 3):
                raise SystemExit(f"{report_key(report)} exited {code}")
            refs[report_key(report)] = {
                "exit": code,
                "sha256": hashlib.sha256(out).hexdigest(),
                "masked_sha256": masked_sha256(json.loads(out)),
            }
    finally:
        shutil.rmtree(work, ignore_errors=True)
    doc = {"pinned_seed": PINNED_SEED, "reports": refs}
    (BENCH_DIR / "references.json").write_text(
        json.dumps(doc, indent=2, sort_keys=True) + "\n")
    print(f"pinned {len(refs)} reports")
    return 0


if __name__ == "__main__":
    sys.exit(main())
