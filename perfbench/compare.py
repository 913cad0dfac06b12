"""Compare two sets of benchmark results; refuse when their set-ups differ.

    python3 perfbench/compare.py BASE_DIR NEW_DIR

Each directory holds result files written by perfbench/run.py (it saves them
under .bench_work/results/). For every workload and end-to-end metric this
prints both sides' medians and quartiles, the relative change (positive means
worse) and the bound from BENCHMARK.json. A metric whose spread on either
side exceeds its bound is reported as unresolved, not as unchanged.

Exit codes: 0 nothing worse than its bound, 1 something is, 2 the two sets
were measured on different set-ups (Python, library or BLAS versions, thread
pinning, processor count), which makes the timings incomparable.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(directory: str) -> list[dict]:
    records = [json.loads(p.read_text(encoding="utf-8")) for p in sorted(Path(directory).glob("*.json"))]
    if not records:
        raise SystemExit(f"no result files in {directory}")
    return records


def spread(values: list[float]) -> tuple[float, float, float]:
    """(median, first quartile, third quartile)."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    base, new = load(argv[0]), load(argv[1])
    setups = {json.dumps(r["fingerprint"], sort_keys=True) for r in base + new}
    if len(setups) != 1:
        print("refusing to compare: the results come from different set-ups:", file=sys.stderr)
        for s in sorted(setups):
            print(f"  {s}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    worse = False
    print(f"{'workload':<14} {'metric':<16} {'base median [q1, q3]':>34} {'new median [q1, q3]':>34} "
          f"{'change':>8} {'bound':>6}")
    for workload in sorted({r["workload"] for r in base} & {r["workload"] for r in new}):
        for m in spec["end_to_end"]:
            name, bound = m["name"], m["bound"]
            b = spread([r["metrics"][name] for r in base if r["workload"] == workload])
            n = spread([r["metrics"][name] for r in new if r["workload"] == workload])
            sign = 1.0 if m["better"] == "lower" else -1.0
            change = sign * (n[0] - b[0]) / abs(b[0]) if b[0] else 0.0
            unresolved = any(abs(s[2] - s[1]) > bound * abs(s[0]) for s in (b, n) if s[0])
            verdict = "WORSE" if change > bound else ("unresolved" if unresolved else "ok")
            worse = worse or change > bound
            print(f"{workload:<14} {name:<16} {b[0]:>12.6g} [{b[1]:.4g}, {b[2]:.4g}]".ljust(66)
                  + f" {n[0]:>12.6g} [{n[1]:.4g}, {n[2]:.4g}]".ljust(35)
                  + f" {change:>+8.2%} {bound:>6.0%} {verdict}")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
