"""The correctness gate applied to every table the benchmark computes.

A table passes only if all four checks hold:

1. cells equal ``expected/*.json`` wherever that file has a row;
2. cells equal the closed form in ``tools/gen_expected.py`` for every
   computed weight, where the workload has one;
3. each row holds its invariants (Betti >= 0, Euler sums 0,
   0 <= kernel <= dim) and the rows are exactly w = 0..wmax;
4. the sha256 of the full table JSON equals the digest pinned in
   ``digests.json`` for that algebra, wmax and parameter values.

The checks raise ``GateError``; none uses ``assert``.  The gate does not call
into the package it checks.
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
import os

HERE = os.path.dirname(os.path.abspath(__file__))
DIGESTS_PATH = os.path.join(HERE, "digests.json")


class GateError(Exception):
    """A computed table failed a correctness check."""


def digest_key(algebra: str, wmax: int, params: dict[str, str]) -> str:
    binds = ",".join(f"{k}={v}" for k, v in sorted(params.items()))
    return f"{algebra}@{wmax}" + (f"[{binds}]" if binds else "")


def load_digests() -> dict[str, str]:
    with open(DIGESTS_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def load_closed_forms(root: str):
    """The ``tools/gen_expected.py`` module of the checkout at ``root``."""
    path = os.path.join(root, "tools", "gen_expected.py")
    spec = importlib.util.spec_from_file_location("gen_expected", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _cell(row: dict, m: int, field: str) -> int:
    if m in row["degrees"]:
        return row[field][row["degrees"].index(m)]
    return 0


def compare_rows(rows_by_w: dict[int, dict], expected_rows: list[dict], label: str) -> int:
    """Compare every expected cell with a computed row; return the cell count."""
    checked = 0
    for doc in expected_rows:
        w, degrees = doc["w"], doc.get("degrees")
        if degrees is None or w not in rows_by_w:
            continue
        for field in ("dims", "kernels", "betti"):
            for m, want in zip(degrees, doc.get(field, ())):
                got = _cell(rows_by_w[w], m, field)
                if got != want:
                    raise GateError(f"{label}: w={w} m={m} {field} "
                                    f"expected {want}, computed {got}")
                checked += 1
    return checked


def check_invariants(rows: list[dict], wmax: int) -> None:
    if [r["w"] for r in rows] != list(range(wmax + 1)):
        raise GateError(f"rows are not w = 0..{wmax}: {[r['w'] for r in rows]}")
    for r in rows:
        w, degrees, dims, kernels, betti = (r["w"], r["degrees"], r["dims"],
                                            r["kernels"], r["betti"])
        if not len(degrees) == len(dims) == len(kernels) == len(betti):
            raise GateError(f"w={w}: row lists differ in length")
        if any(b < 0 for b in betti):
            raise GateError(f"w={w}: negative Betti number {betti}")
        if any(not 0 <= k <= d for k, d in zip(kernels, dims)):
            raise GateError(f"w={w}: kernel outside 0..dim: {kernels} vs {dims}")
        if sum((-1) ** m * d for m, d in zip(degrees, dims)):
            raise GateError(f"w={w}: nonzero Euler sum of dimensions")
        if sum((-1) ** m * b for m, b in zip(degrees, betti)):
            raise GateError(f"w={w}: nonzero Euler sum of Betti numbers")


def check_table(table_json: str, workload: dict, root: str, closed_forms,
                digests: dict[str, str]) -> int:
    """Raise GateError unless the table passes every check; return cells compared."""
    key = digest_key(workload["algebra"], workload["wmax"], workload["params"])
    table = json.loads(table_json)
    rows = table["rows"]
    check_invariants(rows, workload["wmax"])
    rows_by_w = {r["w"]: r for r in rows}
    with open(os.path.join(root, "expected", workload["expected"]), encoding="utf-8") as fh:
        checked = compare_rows(rows_by_w, json.load(fh)["rows"], workload["expected"])
    if workload["closed_form"]:
        form = getattr(closed_forms, workload["closed_form"])
        checked += compare_rows(rows_by_w, form(workload["wmax"]), workload["closed_form"])
    pinned = digests.get(key)
    if pinned is None:
        raise GateError(f"no pinned digest for {key}")
    actual = hashlib.sha256(table_json.encode("utf-8")).hexdigest()
    if actual != pinned:
        raise GateError(f"{key}: table sha256 {actual} differs from pinned {pinned}")
    return checked
