"""Regenerate reference.json: the closed-form outputs at the default seed.

    python3 bench/make_reference.py

The closed-form workload compares every op against these values.  Rerun
this only for a change that is meant to move closed-form values, and say
so in that change.
"""

from __future__ import annotations

import json
import tempfile
from pathlib import Path

import checks
import worker

SEED = 0


def main() -> None:
    runs = worker.BENCH / "runs"
    runs.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=runs) as tmp:
        workload = worker.ClosedForm(SEED, Path(tmp), reference={})
        stdouts = worker.run_op(workload)
        tables = [checks.parse_csv(path.read_text()) for path in workload.outputs]
    columns = list(tables[0][0])
    reference = {
        "seed": SEED,
        "spec": workload.spec,
        "gamma_max": {"gamma_max": float(checks.parse_fields(stdouts[0])[0]["gamma_max"])},
        "predict_columns": columns,
        "predict": [[{c: float(row[c]) for c in columns} for row in rows] for rows in tables],
    }
    worker.REFERENCE.write_text(json.dumps(reference, indent=1) + "\n")


if __name__ == "__main__":
    main()
