"""Rebuild perfbench/reference_hashes.json from the current package.

    PYTHONPATH=src:perfbench python3 perfbench/make_references.py

Runs every job any seed can draw and stores the SHA-256 of its canonical
result under the job's key.  The file is the correctness gate, so rebuild it
only when a change is meant to alter a result, and say so in the change.
"""

from __future__ import annotations

import json

import child
import workloads


def main() -> int:
    references = {}
    for workload in workloads.WORKLOADS:
        for job in workloads.reference_jobs(workload):
            payload, verdict = job.run()
            if not verdict:
                raise SystemExit(f"{job.key}: wrong verdict, not recording a reference")
            references[job.key] = child.result_hash(payload)
            print(job.key, references[job.key][:12], flush=True)
    child.REFERENCE_FILE.write_text(json.dumps(references, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
