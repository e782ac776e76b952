"""Record the output digests that the benchmark's correctness gate checks.

Usage: python3 perfbench/record.py

Writes perfbench/expected.json: the SHA-256 of the stdout of every scan and
suite job format, and the session output digest for seeds 0..SESSION_SEEDS-1.
Run it only at a commit whose outputs are known to be right; the gate then
holds every later commit to them.
"""

import hashlib
import json
import sys

from run import CLI_WORKLOADS, HERE, SRC, SessionWorker, spawn

SESSION_SEEDS = 100


def main() -> int:
    expected = {}
    for workload, (args, formats) in CLI_WORKLOADS.items():
        expected[workload] = {}
        for fmt in formats:
            code, out, err, _, _ = spawn([sys.executable, str(HERE / "cli_job.py"), str(SRC),
                                          "--", *args, "--format", fmt])
            if code != 0:
                sys.stderr.write(err.decode(errors="replace"))
                return 1
            expected[workload][fmt] = hashlib.sha256(out).hexdigest()
    worker = SessionWorker(SRC)
    try:
        expected["session"] = {}
        for seed in range(SESSION_SEEDS):
            reply = worker.job(seed, False)
            if reply["error"] or not reply["symmetric"]:
                sys.stderr.write(f"seed {seed}: {reply}\n")
                return 1
            expected["session"][str(seed)] = reply["digest"]
    finally:
        worker.close()
    (HERE / "expected.json").write_text(json.dumps(expected, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
