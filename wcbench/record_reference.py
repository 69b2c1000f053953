"""Record the suite workload's reference: the verdict, value and passed flag
of every scenario check from one `scenarios.run_all()`.

    python3 wcbench/record_reference.py

Writes wcbench/reference.json.  The suite workload fails an operation whose
verdict or passed flags differ from it, and reports the largest drift of the
values as scenarios.max_rel_drift.  Re-record only when a change to the
scenarios is intended.
"""

import json
import os
import sys

import run

if __name__ == "__main__":
    run.import_program()
    import workloads

    path = os.path.join(run.HERE, "reference.json")
    with open(path, "w") as fh:
        json.dump(workloads.record_reference(), fh, indent=1, sort_keys=True)
        fh.write("\n")
    sys.exit(0)
