#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of ``superhomology.betti_table``.

    python3 perfbench/run.py --workload heis3-w25 --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the package is imported from ``src`` there.
Every timed run is one fresh child process (``child.py``), started one at a
time.  ``--trace 0`` times untraced tables and prints the end-to-end metrics;
``--trace 1`` adds one traced sequential pass and prints the per-layer
metrics.  Every table passes the gate in ``gate.py`` or counts as failed.
The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the full result, with the environment, goes to
``perfbench/out/``.  See README.md beside this file.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from gate import GateError, check_table, load_closed_forms, load_digests  # noqa: E402

# Why each workload: see README.md.  "expected" names the file under
# expected/, "closed_form" a row generator in tools/gen_expected.py.
WORKLOADS = {
    "heis3-w25": {"algebra": "heis3", "wmax": 25, "expected": "g3d1_central.json",
                  "closed_form": "central_rows", "pool": None},
    "gl2-w6": {"algebra": "gl2", "wmax": 6, "expected": "gl2.json",
               "closed_form": None, "pool": None},
    "g3d3-rational": {"algebra": "g3d3", "wmax": 16, "expected": "a1.json",
                      "closed_form": "derived3_rows", "pool": "rational"},
}

# Nonzero rationals with non-unit denominators for g3d3's (alpha, beta).
# Chain dimensions do not depend on them, so every draw has the same size.
RATIONAL_POOL = [
    ("2/3", "5/7"), ("3/5", "7/4"), ("-4/3", "2/5"), ("5/2", "-3/7"),
    ("-3/4", "5/3"), ("7/5", "-2/3"), ("4/7", "3/2"), ("-5/3", "-4/5"),
]

SETUP_SAMPLES = 15    # setup-only children per run; setup_s is the median of all
MIN_TABLES = 2        # untraced tables per --trace 0 run, however long they take
DEADLINE_S = 170.0    # a run stops starting children and kills stragglers here


def workload_spec(name: str, seed: int, wmax: int | None = None) -> dict:
    """The inputs of one run.  Only g3d3-rational uses the seed."""
    base = WORKLOADS[name]
    params: dict[str, str] = {}
    if base["pool"] == "rational":
        alpha, beta = random.Random(seed).choice(RATIONAL_POOL)
        params = {"alpha": alpha, "beta": beta}
    return {"workload": name, "algebra": base["algebra"],
            "wmax": base["wmax"] if wmax is None else wmax, "params": params,
            "expected": base["expected"], "closed_form": base["closed_form"],
            "seed_used": base["pool"] is not None}


def git_commit(root: str) -> str:
    """HEAD of the checkout, read from .git without running git; 'unknown' if absent."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(root: str, backend: str | None) -> dict:
    return {
        "python": sys.version.split()[0],
        "backend": backend,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "SUPERHOMOLOGY_THREADS": os.environ.get("SUPERHOMOLOGY_THREADS"),
        "SUPERHOMOLOGY_PURE_PY": os.environ.get("SUPERHOMOLOGY_PURE_PY"),
        "commit": git_commit(root),
    }


class Harness:
    """Starts children one at a time, gates their tables and tallies failures."""

    def __init__(self, root: str, spec: dict, start: float):
        self.root = root
        self.spec = spec
        self.deadline = start + DEADLINE_S
        self.closed_forms = load_closed_forms(root)
        self.digests = load_digests()
        self.attempted = 0
        self.failures: list[str] = []
        self.backend: str | None = None
        self.env = dict(os.environ)
        src = os.path.join(root, "src")
        self.env["PYTHONPATH"] = src + os.pathsep + self.env.get("PYTHONPATH", "")
        self.child_spec = json.dumps({k: spec[k] for k in ("algebra", "wmax", "params")})

    def child(self, mode: str) -> dict | None:
        """One child run; None (and a counted failure) if it crashed, timed out or failed the gate."""
        self.attempted += 1
        out = self._launch(mode)
        if out is None:
            return None
        self.backend = out["backend"]
        if "table_json" in out:
            t1 = time.perf_counter()
            try:
                check_table(out["table_json"], self.spec, self.root, self.closed_forms,
                            self.digests)
            except GateError as exc:
                return self._fail(f"{mode} child failed the gate: {exc}")
            out["verify_s"] = time.perf_counter() - t1
        return out

    def _launch(self, mode: str) -> dict | None:
        """Start child.py, wait for it and parse its JSON line."""
        t0 = time.monotonic()
        try:
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "child.py"), mode, self.child_spec],
                cwd=self.root, env=self.env, capture_output=True, text=True,
                timeout=max(self.time_left(), 1.0))
        except subprocess.TimeoutExpired:
            return self._fail(f"{mode} child timed out after {time.monotonic() - t0:.1f} s")
        if proc.returncode != 0:
            tail = proc.stderr.strip().splitlines()[-1:] or ["(no stderr)"]
            return self._fail(f"{mode} child exited {proc.returncode}: {tail[0]}")
        try:
            return json.loads(proc.stdout.strip().splitlines()[-1])
        except (IndexError, ValueError):
            return self._fail(f"{mode} child printed no result")

    def _fail(self, reason: str) -> None:
        self.failures.append(reason)
        print(f"FAILED: {reason}", file=sys.stderr)
        return None

    def time_left(self) -> float:
        return self.deadline - time.monotonic()


def measure_tables(h: Harness, seconds: float, start: float, minimum: int) -> list[dict]:
    """Untraced tables until the next one would end after ``seconds``."""
    done: list[dict] = []
    walls: list[float] = []
    while True:
        if len(walls) >= minimum:
            elapsed = time.monotonic() - start
            if elapsed + statistics.median(walls) > seconds:
                break
        if h.time_left() < 2.0 or (walls and h.time_left() < max(walls)):
            break
        t0 = time.monotonic()
        out = h.child("table")
        walls.append(time.monotonic() - t0)
        if not out:
            break  # counted as failed; the run is not correct, so stop spending time
        done.append(out)
    return done


def layer_metrics(trace: dict, untraced_table_s: float) -> dict[str, float]:
    """Per-layer totals, counts and self times derived from the traced child's spans."""
    spans = trace["spans"]
    cells = trace["cells"]
    total: dict[str, float] = {}
    child_time: dict[int, float] = {}
    for s in spans:
        d = s["end"] - s["start"]
        total[s["name"]] = total.get(s["name"], 0.0) + d
        if s["parent"] is not None:
            child_time[s["parent"]] = child_time.get(s["parent"], 0.0) + d
    row_self = sum(s["end"] - s["start"] - child_time.get(s["id"], 0.0)
                   for s in spans if s["name"] == "homology.row")
    bases: dict[tuple[int, int], int] = {}
    for c in cells:
        bases[(c["w"], c["m"])] = c["cols"]
        bases[(c["w"], c["m"] - 1)] = c["rows"]
    cols = sum(c["cols"] for c in cells)
    traced_s = total["homology.table"]
    return {
        "algebra.load_s": total["algebra.load"],
        "exterior.generators_s": total["exterior.generators"],
        "exterior.pair_brackets": trace["pair_brackets"],
        "chain.basis_s": total.get("chain.basis", 0.0),
        "chain.basis_monomials": sum(bases.values()),
        "chain.assembly_s": total.get("chain.assembly", 0.0),
        "chain.assembly_cols": cols,
        "chain.assembly_nnz": sum(c["nnz"] for c in cells),
        "chain.fraction_entries": sum(c["fraction_entries"] for c in cells),
        "chain.assembly_us_per_col": total.get("chain.assembly", 0.0) / max(cols, 1) * 1e6,
        "ranklin.rank_s": total.get("ranklin.rank", 0.0),
        "ranklin.introws_s": total.get("ranklin.introws", 0.0),
        "ranklin.fill_in": sum(c["fill_in"] for c in cells),
        "ranklin.fallbacks": sum(1 for c in cells if "fallback" in c["backend"]),
        "ranklin.input_max_bits": max((c["input_max_bits"] for c in cells), default=0),
        "ranklin.blocks": sum(c["blocks"] for c in cells),
        "ranklin.largest_block_cols": max((c["largest_block_cols"] for c in cells), default=0),
        "ranklin.multiblock_cols": sum(c["cols"] for c in cells if c["blocks"] > 1),
        "matrix.nnz_max": max((c["nnz"] for c in cells), default=0),
        "homology.self_s": row_self,
        "homology.verify_s": trace["verify_s"],
        "trace.traced_table_s": traced_s,
        # traced sequential pass minus the default (thread-pooled) betti_table
        "trace.overhead_s": traced_s - untraced_table_s,
    }


UNITS = {"_s": "s", "_mb": "MB", "_bits": "bits", "_us_per_col": "us/col"}


def unit_of(name: str) -> str:
    for suffix, unit in UNITS.items():
        if name.endswith(suffix):
            return unit
    return "count"


def run(workload: str, seed: int, seconds: float, trace: bool, root: str,
        wmax: int | None = None) -> dict:
    """One benchmark run; returns the full result (metrics, environment, failures)."""
    start = time.monotonic()
    spec = workload_spec(workload, seed, wmax)
    h = Harness(root, spec, start)
    metrics: dict[str, float] = {}
    trace_out = None
    setup: list[float] = []
    if trace:
        trace_out = h.child("trace")
        tables = measure_tables(h, seconds, start, minimum=1)
        if trace_out and tables:
            metrics = layer_metrics(trace_out, statistics.median(t["table_s"] for t in tables))
    else:
        h.child("setup")  # discarded: the first import of a checkout writes __pycache__
        setup = [out["setup_s"] for out in (h.child("setup") for _ in range(SETUP_SAMPLES))
                 if out]
        tables = measure_tables(h, seconds, start, minimum=MIN_TABLES)
        setup += [t["setup_s"] for t in tables]
        if tables:
            metrics = {
                "table_s": statistics.median(t["table_s"] for t in tables),
                "setup_s": statistics.median(setup),
                "peak_rss_mb": statistics.median(t["peak_rss_mb"] for t in tables),
            }
    result = {
        "workload": workload, "seed": seed, "seed_used": spec["seed_used"],
        "params": spec["params"], "wmax": spec["wmax"], "trace": int(trace),
        "seconds": seconds, "tables": len(tables),
        "table_s_samples": [t["table_s"] for t in tables],
        "setup_s_samples": setup,
        "environment": environment(root, h.backend),
        "attempted": h.attempted, "failed": len(h.failures), "failures": h.failures,
        "fail_ratio": len(h.failures) / max(h.attempted, 1),
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()},
    }
    if trace_out:
        result["spans"] = trace_out["spans"]
        result["cells"] = trace_out["cells"]
    return result


def preflight(root: str) -> str | None:
    for rel in ("src/superhomology/__init__.py", "tools/gen_expected.py", "expected"):
        if not os.path.exists(os.path.join(root, rel)):
            return f"{rel} not found under {root}: run from the root of a superhomology checkout"
    return None


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    root = os.getcwd()
    problem = preflight(root)
    if problem:
        print(problem, file=sys.stderr)
        return 2
    result = run(args.workload, args.seed, args.seconds, bool(args.trace), root)

    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    out_path = os.path.join(out_dir, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
        fh.write("\n")

    env = result["environment"]
    seed_note = "" if result["seed_used"] else " (seed unused: no parameters)"
    print(f"workload {args.workload}  seed {args.seed}{seed_note}  params {result['params']}")
    print("environment " + "  ".join(f"{k}={v}" for k, v in env.items()))
    print(f"tables timed: {result['tables']}  fail_ratio {result['fail_ratio']:.3f} "
          f"({result['failed']}/{result['attempted']} runs)  full result: {out_path}")
    for name, m in result["metrics"].items():
        print(f"  {name:<28} {m['value']:>14.6g} {m['unit']}")
    correct = result["failed"] == 0 and bool(result["metrics"])
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": result["metrics"]}))
    return 0 if result["metrics"] else 1


if __name__ == "__main__":
    sys.exit(main())
