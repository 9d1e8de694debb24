#!/usr/bin/env python3
"""Put two benchmark results side by side, metric by metric.

    python3 perfbench/compare.py BASE.json NEW.json

The files are the full results ``run.py`` writes to ``perfbench/out/``.
Results from different elimination backends (``superhomology.BACKEND``),
workloads or trace modes are not comparable: the script refuses them with
exit 2 instead of reporting a gain or a loss.  One pair of runs is not a
claim; see README.md for the rule a claim needs.
"""

import json
import sys


def comparable(base: dict, new: dict) -> str | None:
    """Why two results cannot be compared, or None if they can."""
    for label, get in (("backend", lambda r: r["environment"]["backend"]),
                       ("workload", lambda r: r["workload"]),
                       ("trace mode", lambda r: r["trace"])):
        if get(base) != get(new):
            return f"{label} differs: {get(base)!r} vs {get(new)!r}"
    return None


def main(argv: list[str]) -> int:
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    with open(argv[1], encoding="utf-8") as fh:
        base = json.load(fh)
    with open(argv[2], encoding="utf-8") as fh:
        new = json.load(fh)
    reason = comparable(base, new)
    if reason:
        print(f"refused: {reason}", file=sys.stderr)
        return 2
    print(f"workload {base['workload']}  backend {base['environment']['backend']}  "
          f"commits {base['environment']['commit'][:12]} -> {new['environment']['commit'][:12]}")
    for name, b in base["metrics"].items():
        n = new["metrics"].get(name)
        if n is None:
            print(f"  {name:<28} {b['value']:>14.6g} {'(missing)':>14}")
            continue
        change = (f"{(n['value'] - b['value']) / b['value']:+.1%}" if b["value"] else "")
        print(f"  {name:<28} {b['value']:>14.6g} {n['value']:>14.6g} {b['unit']:<7} {change}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
