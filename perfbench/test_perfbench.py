"""Tests of the benchmark itself.  Run from the checkout root:

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

import os
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import run  # noqa: E402
from gate import GateError, check_table, load_closed_forms, load_digests  # noqa: E402
from pin import SMOKE_WMAX  # noqa: E402


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_smoke_run_through_the_harness(workload, trace):
    result = run.run(workload, seed=3, seconds=0.0, trace=trace, root=ROOT, wmax=SMOKE_WMAX)
    assert result["failed"] == 0, result["failures"]
    assert result["attempted"] >= 2
    names = set(result["metrics"])
    if trace:
        assert {"chain.assembly_s", "ranklin.rank_s", "ranklin.blocks",
                "trace.overhead_s"} <= names
    else:
        assert names == {"table_s", "setup_s", "peak_rss_mb"}
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_corrupted_table_counts_as_failure():
    from superhomology import betti_table, catalog_get, generator_system

    spec = run.workload_spec("heis3-w25", seed=0, wmax=SMOKE_WMAX)
    table = betti_table(generator_system(catalog_get("heis3")), SMOKE_WMAX)
    closed_forms, digests = load_closed_forms(ROOT), load_digests()
    assert check_table(table.to_json(), spec, ROOT, closed_forms, digests) > 0

    table.rows[2].betti[1] += 1
    with pytest.raises(GateError):
        check_table(table.to_json(), spec, ROOT, closed_forms, digests)

    # through the harness: a child that prints the corrupted table is a failed run
    h = run.Harness(ROOT, spec, start=time.monotonic())
    h._launch = lambda mode: {"backend": "python", "table_json": table.to_json()}
    assert h.child("table") is None
    assert (h.attempted, len(h.failures)) == (1, 1)


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_traced_rows_equal_betti_table(workload):
    from fractions import Fraction

    from superhomology import betti_table, catalog_get, generator_system
    from tracing import Tracer, traced_table

    spec = run.workload_spec(workload, seed=5, wmax=5)
    params = {k: Fraction(v) for k, v in spec["params"].items()}
    traced_rows, cells = traced_table(
        generator_system(catalog_get(spec["algebra"], params)), spec["wmax"], Tracer("t"))
    plain = betti_table(generator_system(catalog_get(spec["algebra"], params)), spec["wmax"])
    assert [r.to_dict() for r in traced_rows] == [r.to_dict() for r in plain.rows]
    assert cells and all(c["blocks"] >= 1 for c in cells if c["nnz"])
