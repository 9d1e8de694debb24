"""One timed run of the benchmark, in a fresh interpreter.

    python3 perfbench/child.py setup|table|trace '<spec json>'

Run from the checkout root with ``src`` on ``PYTHONPATH``; ``run.py`` starts
it.  The spec names the algebra, its parameter values and wmax.  Modes:

* ``setup``: import the package, ``catalog_get`` and ``generator_system``;
* ``table``: the same, then ``betti_table(gs, wmax)`` at the program defaults;
* ``trace``: the traced sequential pass of ``tracing.py``.

Prints one JSON object on stdout.  A fresh process per run matters twice:
``ru_maxrss`` is a high-water mark of the whole process, and the generator
system caches bases and pair brackets, so a second table on the same object
would time cache hits that a command-line user never gets.
"""

import json
import os
import resource
import sys
import time


def main(argv: list[str]) -> int:
    mode, spec = argv[1], json.loads(argv[2])
    start = time.perf_counter()
    if mode == "trace":
        return _trace(spec, start)

    from fractions import Fraction

    import superhomology
    params = {k: Fraction(v) for k, v in spec["params"].items()}
    gs = superhomology.generator_system(superhomology.catalog_get(spec["algebra"], params))
    out = {"setup_s": time.perf_counter() - start, "backend": superhomology.BACKEND}
    if mode == "table":
        t0 = time.perf_counter()
        table = superhomology.betti_table(gs, spec["wmax"], params=params)
        out["table_s"] = time.perf_counter() - t0
        out["table_json"] = table.to_json()
    elif mode != "setup":
        raise SystemExit(f"unknown mode {mode!r}")
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(out))
    return 0


def _trace(spec: dict, start: float) -> int:
    from fractions import Fraction

    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    import superhomology
    from tracing import Tracer, traced_table

    tracer = Tracer(run_id=f"{spec['algebra']}-w{spec['wmax']}-{os.getpid()}")
    params = {k: Fraction(v) for k, v in spec["params"].items()}
    with tracer.span("algebra.load"):
        sc = superhomology.catalog_get(spec["algebra"], params)
    with tracer.span("exterior.generators"):
        gs = superhomology.generator_system(sc)
    setup_s = time.perf_counter() - start
    rows, cells = traced_table(gs, spec["wmax"], tracer)
    table = superhomology.BettiTable(algebra=gs.sc.name, params=params, rows=rows)
    print(json.dumps({
        "setup_s": setup_s,
        "backend": superhomology.BACKEND,
        "table_json": table.to_json(),
        "spans": tracer.records,
        "cells": cells,
        # distinct generator pairs bracketed during the pass
        "pair_brackets": len(gs._pair_cache),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
