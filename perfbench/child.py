"""One benchmark repetition, run in a fresh process by perfbench/run.py.

Loads every study config, then runs the studies back to back through the
public CLI entry point ``fracldg.cli.main(["run", ..., "--check"])`` and checks
every number the run wrote against the frozen values in the config's
``expect`` block. With --setup-only it stops after the imports and config
loads, which is what run.py times as set-up. With --spans the traced
wrappers of tracing.py are installed and the per-layer metrics are added to
the result.

    python3 perfbench/child.py --out DIR --result FILE [--spans FILE] [--setup-only] STUDY...

STUDY is a shipped preset name or a YAML path. The result is one JSON file.
The thread variables must already be set in the environment: numpy reads
them once, at import, so this process cannot pin them itself.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)

#: Deviation recorded for an error check whose study produced no value.
MISSING_DEVIATION = 1.0


def fingerprint() -> dict:
    """Everything about the set-up that changes timings: interpreter, library
    and BLAS versions, thread pinning and the processors available."""
    import platform

    import mpmath
    import numpy
    import scipy
    import yaml

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "mpmath": mpmath.__version__,
        "pyyaml": yaml.__version__,
        "blas": blas,
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


def read_report(csv_path: Path) -> tuple[list[float], list[float]] | None:
    """(errors, rates) from the CSV a run wrote, or None when it is absent."""
    if not csv_path.is_file():
        return None
    errors, rates = [], []
    for line in csv_path.read_text(encoding="utf-8").splitlines()[1:]:
        _, err, rate = line.split(",")
        errors.append(float(err))
        if rate:
            rates.append(float(rate))
    return errors, rates


def evaluate(cfg, report) -> tuple[list[bool], list[float]]:
    """Check a study's reported errors and rates against its frozen values.

    Returns one pass flag per check and the relative deviation
    |measured - frozen| / |frozen| of every error check. report is
    (errors, rates) or None for a study that produced nothing; then every
    check fails.
    """
    e = cfg.expect
    if e is None:
        return [], []
    errors, rates = report if report is not None else ([], [])
    passed: list[bool] = []
    devs: list[float] = []
    for i, ref in enumerate(e.errors or ()):
        if i < len(errors):
            dev = abs(errors[i] - ref) / abs(ref)
            passed.append(abs(errors[i] - ref) <= e.error_rtol * abs(ref))
        else:
            dev = MISSING_DEVIATION
            passed.append(False)
        devs.append(dev)
    for i, ref in enumerate(e.rates or ()):
        passed.append(i < len(rates) and abs(rates[i] - ref) <= e.rate_atol)
    flux_list = list(cfg.flux_list or ())
    width = len(flux_list)
    if e.cond_monotone:
        for r in range(len(cfg.cond_rows or ())):
            group = errors[r * width : (r + 1) * width]
            passed.append(
                len(group) == width and all(a >= b for a, b in zip(group, group[1:]))
            )
    if e.cond_anchor is not None:
        degree, alpha, s1, s2, value, factor = e.cond_anchor
        idx = None
        for r, row in enumerate(cfg.cond_rows or ()):
            if row.degree == degree and row.alpha == alpha and (s1, s2) in flux_list:
                idx = r * width + flux_list.index((s1, s2))
        passed.append(idx is not None and idx < len(errors)
                      and value / factor <= errors[idx] <= value * factor)
    return passed, devs


def run_study(ref: str, cfg, out_dir: Path, tracer) -> dict:
    from fracldg import cli

    csv_path = out_dir / f"{cfg.name}.csv"
    csv_path.unlink(missing_ok=True)
    argv = ["run", "--config", ref, "--check", "--out", str(out_dir)]
    rc, error = None, None
    try:
        if tracer is None:
            rc = cli.main(argv)
        else:
            tracer.run_id = cfg.name
            with tracer.span("cli.main"):
                rc = cli.main(argv)
    except Exception as exc:  # a failed study is a result, not a crash of the benchmark
        traceback.print_exc()
        error = repr(exc)
    report = read_report(csv_path)
    passed, devs = evaluate(cfg, report)
    if rc != 0:
        passed = [False] * len(passed)
    return {
        "name": cfg.name,
        "rc": rc,
        "error": error,
        "checks": len(passed),
        "failed": passed.count(False),
        "devs": devs,
    }


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--out", type=Path, required=True, help="directory for the CLI's outputs")
    p.add_argument("--result", type=Path, required=True, help="JSON file to write")
    p.add_argument("--spans", type=Path, default=None, help="trace; write spans here")
    p.add_argument("--setup-only", action="store_true", help="stop after imports and config loads")
    p.add_argument("studies", nargs="+")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    import mpmath  # noqa: F401  -- imports are part of the timed set-up
    import numpy  # noqa: F401
    import scipy.sparse.linalg  # noqa: F401

    import fracldg
    from fracldg import analysis, basis, cli, fractional, ldg, problems  # noqa: F401

    if not Path(fracldg.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"fracldg imported from {fracldg.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    cfgs = [cli.load_config(ref) for ref in args.studies]
    result = {
        "t_ready": time.monotonic(),
        "fingerprint": fingerprint(),
        "expected_checks": sum(len(evaluate(c, None)[0]) for c in cfgs),
    }
    if not args.setup_only:
        tracer = None
        if args.spans is not None:
            from tracing import Tracer

            tracer = Tracer()
            tracer.install()
        args.out.mkdir(parents=True, exist_ok=True)
        result["studies"] = [run_study(ref, cfg, args.out, tracer) for ref, cfg in zip(args.studies, cfgs)]
        if tracer is not None:
            tracer.uninstall()
            result["layers"] = tracer.layer_metrics()
            result["missing"] = tracer.missing
            tracer.write(args.spans)
    args.result.write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
