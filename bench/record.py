#!/usr/bin/env python3
"""Record the value line of every base case into ``bench/expected.json``.

    python3 bench/record.py

Runs each workload's base corpus once, unrelabeled, through the command
line and stores the one line whose content does not depend on tie-breaking:
``VIOLATION``/``NONE`` for separate, ``WEIGHT`` for match, ``ALPHA`` for
approx and ``VALUE`` for oracle-opt.  Each recorded output must also pass
the independent checks.  The file in the repository was recorded at the
commit that introduced the benchmark; record again only when the corpus
changes, never to make a changed program pass.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile

import run

from checks import check, value_line


def main() -> int:
    sys.path.insert(0, run.SRC)
    import zerohalf.cli as cli

    recorded: dict[str, dict[str, str]] = {}
    os.makedirs(run.WORKROOT, exist_ok=True)
    for workload in run.corpus.WORKLOADS:
        values: dict[str, str] = {}
        with tempfile.TemporaryDirectory(prefix="record-", dir=run.WORKROOT) as workdir:
            for op in run.corpus.build_ops(workload, None, 1, workdir):
                code, out, _, err = run.run_op(cli, op)
                if code != 0:
                    print(f"error: {op.key} exited {code}: {err}", file=sys.stderr)
                    return 1
                values[op.key] = value_line(out)
                reason = check(op, code, out, values)
                if reason is not None:
                    print(f"error: {op.key}: {reason}", file=sys.stderr)
                    return 1
        recorded[workload] = values
        print(f"{workload}: {len(values)} values")
    with open(os.path.join(run.HERE, "expected.json"), "w", encoding="utf-8") as handle:
        json.dump(recorded, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
