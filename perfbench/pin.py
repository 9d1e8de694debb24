#!/usr/bin/env python3
"""Compute the table digests that ``gate.py`` pins, and write ``digests.json``.

    python3 perfbench/pin.py

Run from the checkout root.  Covers every workload at its own wmax and at
SMOKE_WMAX, and every parameter draw in the pool.  Each table must pass the
other three checks of the gate before its digest is written.  Digests pin the
output of one commit: regenerate them only for a change that is meant to
alter the tables, never to make a failing run pass.
"""

import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from gate import DIGESTS_PATH, check_table, digest_key, load_closed_forms  # noqa: E402
from run import RATIONAL_POOL, WORKLOADS, workload_spec  # noqa: E402

SMOKE_WMAX = 3


def specs():
    for name, base in WORKLOADS.items():
        draws = ([{"alpha": a, "beta": b} for a, b in RATIONAL_POOL]
                 if base["pool"] == "rational" else [{}])
        for wmax in (base["wmax"], SMOKE_WMAX):
            for params in draws:
                yield {**workload_spec(name, 0, wmax), "params": params}


def main() -> int:
    root = os.getcwd()
    closed_forms = load_closed_forms(root)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(root, "src") + os.pathsep + env.get("PYTHONPATH", "")
    digests = {}
    for spec in specs():
        child_spec = json.dumps({k: spec[k] for k in ("algebra", "wmax", "params")})
        proc = subprocess.run([sys.executable, os.path.join(HERE, "child.py"), "table",
                               child_spec], cwd=root, env=env, capture_output=True,
                              text=True, check=True)
        table_json = json.loads(proc.stdout.strip().splitlines()[-1])["table_json"]
        key = digest_key(spec["algebra"], spec["wmax"], spec["params"])
        sha = hashlib.sha256(table_json.encode("utf-8")).hexdigest()
        check_table(table_json, spec, root, closed_forms, {key: sha})
        digests[key] = sha
        print(key, sha)
    with open(DIGESTS_PATH, "w", encoding="utf-8") as fh:
        json.dump(digests, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
