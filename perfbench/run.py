"""Benchmark runner for the fracldg solver.

Runs one workload for a fixed time budget. Every repetition is a fresh child
process (perfbench/child.py) with the BLAS/OpenMP thread variables pinned in
its environment before numpy loads. With --trace 0 it prints the end-to-end
metrics; with --trace 1 it adds one traced repetition and prints the
per-layer split. The last line of standard output is one JSON object with
the keys correct, attempted, failed and metrics; attempted and failed count
frozen checks.

    python3 perfbench/run.py --workload q2-graded --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seconds 40   # every metric, every workload

Raw results, with the set-up fingerprint, go to .bench_work/results/;
perfbench/compare.py compares two sets of them.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".bench_work"
sys.path.insert(0, str(HERE))

from child import THREAD_VARS  # noqa: E402
from tracing import PER_LAYER, largest_self  # noqa: E402

#: Studies per workload: shipped presets by name, or configs owned by the benchmark.
PAPER_TABLES = (
    "table1-row1",
    "table1-row2",
    "table2-row1",
    "table4-row1",
    "table5-row1",
    "table5-central-a03",
    "table7-row1",
    "table7-row3",
    "table7-row5",
    "table8-cond",
)
WORKLOADS = {
    "q2-graded": ("table6-row1",),
    "long-memory": (str(HERE / "configs" / "long-memory.yaml"),),
    "paper-tables": PAPER_TABLES,
}

#: (name, unit, better) of the end-to-end metrics, as BENCHMARK.json lists them.
END_TO_END = (
    ("wall_s", "s", "lower"),
    ("cpu_s", "s", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("check_pass_frac", "ratio", "higher"),
    ("err_rel_dev_max", "ratio", "lower"),
)

#: BLAS/OpenMP threads per child; 1 keeps runs steady on a shared machine.
THREADS = 1
#: Set-up-only children per repetition. One more, untimed, runs first and
#: fills the bytecode and file caches.
PROBES_PER_REP = 2
#: Largest relative residual a traced solve may show.
RESIDUAL_LIMIT = 1e-10
#: Children are killed once a run has taken this long.
HARD_LIMIT_S = 170.0


class BenchError(Exception):
    """The benchmark cannot produce a result."""


@dataclass
class Child:
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    returncode: int
    result: dict | None
    t_spawn: float

    @property
    def ok(self) -> bool:
        return self.returncode == 0 and self.result is not None

    @property
    def setup_s(self) -> float:
        return self.result["t_ready"] - self.t_spawn


def child_env() -> dict:
    env = dict(os.environ)
    env.update({var: str(THREADS) for var in THREAD_VARS})
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn(studies, deadline: float, *, setup_only=False, spans: Path | None = None) -> Child:
    """Run child.py once and wait for it; times it from before the spawn."""
    tag = f"{os.getpid()}-{time.monotonic_ns()}"
    result_path = WORK / "tmp" / f"{tag}.json"
    out_dir = WORK / "tmp" / f"{tag}-out"
    log_path = WORK / "tmp" / f"{tag}.log"
    cmd = [sys.executable, str(HERE / "child.py"), "--out", str(out_dir), "--result", str(result_path)]
    if setup_only:
        cmd.append("--setup-only")
    if spans is not None:
        cmd += ["--spans", str(spans)]
    cmd += list(studies)
    with open(log_path, "w", encoding="utf-8") as log:
        t0 = time.monotonic()
        proc = subprocess.Popen(cmd, env=child_env(), cwd=ROOT, stdout=log, stderr=subprocess.STDOUT)
        killer = threading.Timer(max(1.0, deadline - t0), proc.kill)
        killer.start()
        reaped = False
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            reaped = True
        finally:
            killer.cancel()
            if not reaped:
                proc.kill()
                proc.wait()
        t1 = time.monotonic()
    proc.returncode = os.waitstatus_to_exitcode(status)
    result = None
    if proc.returncode == 0 and result_path.is_file():
        result = json.loads(result_path.read_text(encoding="utf-8"))
    child = Child(
        wall_s=t1 - t0,
        cpu_s=usage.ru_utime + usage.ru_stime,
        peak_rss_mb=usage.ru_maxrss / 1024.0,
        returncode=proc.returncode,
        result=result,
        t_spawn=t0,
    )
    if child.ok:
        log_path.unlink()
    else:
        tail = log_path.read_text(encoding="utf-8", errors="replace")[-2000:]
        print(f"child {tag} exited {proc.returncode}; log {log_path}:\n{tail}", file=sys.stderr)
    result_path.unlink(missing_ok=True)
    shutil.rmtree(out_dir, ignore_errors=True)
    return child


def study_order(workload: str, seed: int) -> list[str]:
    """The workload's studies; the seed only permutes their order."""
    studies = list(WORKLOADS[workload])
    random.Random(seed).shuffle(studies)
    return studies


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    studies = study_order(workload, seed)
    t_start = time.monotonic()
    hard_deadline = t_start + HARD_LIMIT_S
    (WORK / "tmp").mkdir(parents=True, exist_ok=True)

    warmup = spawn(studies, hard_deadline, setup_only=True)
    if not warmup.ok:
        raise BenchError("the set-up child failed; see the log above")
    expected = warmup.result["expected_checks"]

    # Closed loop: start another repetition only while it fits the budget,
    # keeping room for the traced one; an untraced run always takes a median
    # of at least two. Set-up-only children run before each repetition, so
    # the set-up samples spread over the whole run.
    probes: list[Child] = []
    reps: list[Child] = []
    while True:
        probes += [spawn(studies, hard_deadline, setup_only=True) for _ in range(PROBES_PER_REP)]
        reps.append(spawn(studies, hard_deadline))
        est = statistics.median(r.wall_s for r in reps)
        if len(reps) >= 2 - trace and time.monotonic() + est * (1 + trace) > t_start + seconds:
            break
    traced = None
    if trace:
        spans = WORK / "spans" / f"{workload}-seed{seed}.jsonl"
        spans.parent.mkdir(parents=True, exist_ok=True)
        traced = spawn(studies, hard_deadline, spans=spans)

    children = [warmup] + probes + reps + ([traced] if traced else [])
    prints = {json.dumps(c.result["fingerprint"], sort_keys=True) for c in children if c.ok}
    if len(prints) != 1:
        raise BenchError(f"children reported different set-ups: {sorted(prints)}")
    fp = json.loads(prints.pop())
    if fp["threads"] != {var: str(THREADS) for var in THREAD_VARS}:
        raise BenchError(f"thread pinning did not reach the child: {fp['threads']}")

    attempted = failed = 0
    devs: list[float] = []
    for c in reps + ([traced] if traced else []):
        if c.ok:
            attempted += sum(s["checks"] for s in c.result["studies"])
            failed += sum(s["failed"] for s in c.result["studies"])
            devs += [d for s in c.result["studies"] for d in s["devs"]]
        else:
            attempted += expected
            failed += expected
    layers = {}
    if traced is not None:
        if traced.ok:
            layers = dict(traced.result["layers"])
            if layers["ldg.solve_system.calls"]:
                attempted += 1
                failed += not layers["ldg.solve_system.max_rel_residual"] <= RESIDUAL_LIMIT
        else:
            layers = {name: 0.0 for name, _, _ in PER_LAYER}
    ok_reps = [r for r in reps if r.ok]
    record = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "studies": studies,
        "fingerprint": fp,
        "setup_s": [c.setup_s for c in probes + ok_reps if c.ok],
        "reps": [
            {"wall_s": r.wall_s, "cpu_s": r.cpu_s, "peak_rss_mb": r.peak_rss_mb,
             "returncode": r.returncode}
            for r in reps
        ],
    }
    walls = [r.wall_s for r in ok_reps] or [r.wall_s for r in reps]
    metrics = {
        "wall_s": statistics.median(walls),
        "cpu_s": statistics.median(r.cpu_s for r in ok_reps or reps),
        "setup_s": statistics.median(record["setup_s"]),
        "peak_rss_mb": statistics.median(r.peak_rss_mb for r in ok_reps or reps),
        "check_pass_frac": 1.0 - failed / attempted if attempted else 0.0,
        "err_rel_dev_max": max(devs, default=1.0),
    }
    if traced is not None:
        layers["trace.overhead_s"] = traced.wall_s - statistics.median(walls)
        metrics.update(layers)
        record["traced_wall_s"] = traced.wall_s
        record["missing"] = traced.result["missing"] if traced.ok else ["traced repetition failed"]
    correct = failed == 0 and all(c.ok for c in children)
    record.update(attempted=attempted, failed=failed, correct=correct, metrics=metrics)
    return record


def save(record: dict) -> Path:
    out = WORK / "results"
    out.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    path = out / f"{record['workload']}-seed{record['seed']}-trace{record['trace']}-{stamp}-{os.getpid()}.json"
    path.write_text(json.dumps(record, indent=1), encoding="utf-8")
    return path


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def print_human(record: dict) -> None:
    m = record["metrics"]
    print(f"workload {record['workload']}  seed {record['seed']}  trace {record['trace']}  "
          f"repetitions {len(record['reps'])}  set-up samples {len(record['setup_s'])}")
    print(f"studies: {' '.join(Path(s).stem for s in record['studies'])}")
    print(f"set-up: {json.dumps(record['fingerprint'], sort_keys=True)}")
    frac = record["failed"] / record["attempted"] if record["attempted"] else 1.0
    print(f"  {'check_fail_frac':<42} {_fmt(frac):>14} ratio  ({record['failed']}/{record['attempted']} checks)")
    specs = END_TO_END + (PER_LAYER if record["trace"] else ())
    for name, unit, _ in specs:
        print(f"  {name:<42} {_fmt(m[name]):>14} {unit}")
    if record["trace"]:
        print(f"largest self time: {largest_self(m)}; p99/p50 rest on the .calls samples")
        if record.get("missing"):
            print(f"missing wrappers: {', '.join(record['missing'])}")


def contract_line(record: dict) -> str:
    wanted = PER_LAYER if record["trace"] else END_TO_END
    metrics = {name: {"value": record["metrics"][name], "unit": unit} for name, unit, _ in wanted}
    return json.dumps({
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": metrics,
    })


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="fracldg benchmark runner")
    p.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=40.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    # Turn SIGTERM into SystemExit so spawn() kills and reaps its child.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (ROOT / "src" / "fracldg" / "__init__.py").is_file():
        print(f"no fracldg sources under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2
    try:
        if args.workload != "all":
            record = measure(args.workload, args.seed, args.seconds, bool(args.trace))
            save(record)
            print_human(record)
            print(contract_line(record))
            return 0
        # A traced run also measures the untraced repetitions, so it prints
        # every end-to-end and per-layer metric.
        for workload in WORKLOADS:
            record = measure(workload, args.seed, args.seconds, trace=True)
            save(record)
            print_human(record)
            print()
        return 0
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
