"""Experiment runner: configuration loading, presets, reports, and plots.

Verbs:
  run              execute one experiment config (or named preset)
  list-presets     show the shipped benchmark presets
  validate-config  parse and validate a config without running it

Exit codes: 0 success, 2 configuration error, 3 numeric failure,
4 expectation mismatch when --check is passed.

Heavy numerical imports happen inside the run functions, after the thread
environment variables are set, so --threads/--deterministic take effect on
the linear-algebra backends.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import asdict, dataclass
from pathlib import Path

import yaml

from .errors import ConfigError, FracLdgError, NumericError

__all__ = ["ExperimentConfig", "Expectations", "load_config", "main"]

KINDS = ("spatial-convergence", "temporal-convergence", "condition-number", "single-run")
PROBLEMS = ("example1", "example2")
_THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
#: Safe YAML loader: the libyaml-backed one when PyYAML was built with it
#: (about eight times faster on the shipped configs), else the pure-Python one.
_YAML_LOADER = yaml.CSafeLoader if yaml.__with_libyaml__ else yaml.SafeLoader


def presets_dir() -> Path:
    return Path(__file__).resolve().parent / "presets"


@dataclass(frozen=True)
class Expectations:
    """Optional published values a run is compared against."""

    errors: tuple[float, ...] | None = None
    error_rtol: float = 0.05
    rates: tuple[float, ...] | None = None
    rate_atol: float = 0.1
    cond_monotone: bool = False
    cond_anchor: tuple[int, float, float, float, float, float] | None = None
    # cond_anchor: (degree, alpha, sigma1, sigma2, value, factor)


@dataclass(frozen=True)
class CondRow:
    degree: int
    alpha: float
    gamma: float


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment: what to solve, on which meshes, and what to expect."""

    name: str
    kind: str
    problem: str
    alpha: float
    degree: int
    flux: tuple[float, float]
    M: int
    gamma: float
    T: float
    title: str = ""
    delta: float | None = None
    nx: int | None = None
    nx_list: tuple[int, ...] | None = None
    M_list: tuple[int, ...] | None = None
    cond_rows: tuple[CondRow, ...] | None = None
    flux_list: tuple[tuple[float, float], ...] | None = None
    quad_t: int = 3
    metric: str = "final-time"
    expect: Expectations | None = None

    def to_dict(self) -> dict:
        """Plain-dict form mirroring the YAML schema (round-trips losslessly)."""
        d: dict = {
            "name": self.name,
            "kind": self.kind,
            "problem": self.problem,
            "alpha": self.alpha,
            "degree": self.degree,
            "flux": list(self.flux),
            "time": {"M": self.M, "gamma": self.gamma, "T": self.T},
            "quad_t": self.quad_t,
            "metric": self.metric,
        }
        if self.title:
            d["title"] = self.title
        if self.delta is not None:
            d["delta"] = self.delta
        if self.nx is not None:
            d["nx"] = self.nx
        if self.nx_list is not None:
            d["nx_list"] = list(self.nx_list)
        if self.M_list is not None:
            d["M_list"] = list(self.M_list)
        if self.cond_rows is not None:
            d["cond_rows"] = [asdict(row) for row in self.cond_rows]
        if self.flux_list is not None:
            d["flux_list"] = [list(pair) for pair in self.flux_list]
        if self.expect is not None:
            e = self.expect
            ed: dict = {"error_rtol": e.error_rtol, "rate_atol": e.rate_atol}
            if e.errors is not None:
                ed["errors"] = list(e.errors)
            if e.rates is not None:
                ed["rates"] = list(e.rates)
            if e.cond_monotone:
                ed["cond_monotone"] = True
            if e.cond_anchor is not None:
                degree, alpha, s1, s2, value, factor = e.cond_anchor
                ed["cond_anchor"] = {
                    "degree": degree,
                    "alpha": alpha,
                    "flux": [s1, s2],
                    "value": value,
                    "factor": factor,
                }
            d["expect"] = ed
        return d


def _need(d: dict, key: str, ctx: str):
    if key not in d:
        raise ConfigError(f"{ctx}: missing required key {key!r}")
    return d[key]


def _as_float(value, ctx: str) -> float:
    try:
        return float(value)
    except (TypeError, ValueError):
        raise ConfigError(f"{ctx}: expected a number, got {value!r}") from None


def _as_int(value, ctx: str) -> int:
    f = _as_float(value, ctx)
    if f != int(f):
        raise ConfigError(f"{ctx}: expected an integer, got {value!r}")
    return int(f)


def _as_list(value, ctx: str) -> list | tuple:
    if not isinstance(value, (list, tuple)):
        raise ConfigError(f"{ctx}: expected a list, got {value!r}")
    return value


def _as_mapping(value, ctx: str) -> dict:
    if not isinstance(value, dict):
        raise ConfigError(f"{ctx}: expected a mapping, got {value!r}")
    return value


def _as_flux(value, ctx: str) -> tuple[float, float]:
    if not isinstance(value, (list, tuple)) or len(value) != 2:
        raise ConfigError(f"{ctx}: flux must be a pair [sigma1, sigma2], got {value!r}")
    s1, s2 = (_as_float(v, ctx) for v in value)
    for s in (s1, s2):
        if not 0.0 <= s <= 1.0:
            raise ConfigError(f"{ctx}: flux weights must lie in [0, 1], got {s}")
    return (s1, s2)


def _parse_expect(d, ctx: str) -> Expectations:
    d = _as_mapping(d, ctx)
    known = {"errors", "error_rtol", "rates", "rate_atol", "cond_monotone", "cond_anchor"}
    extra = set(d) - known
    if extra:
        raise ConfigError(f"{ctx}: unknown expect keys {sorted(extra)}")
    errors = d.get("errors")
    if errors is not None:
        errors = tuple(_as_float(e, f"{ctx}.errors") for e in _as_list(errors, f"{ctx}.errors"))
    rr = d.get("rates")
    if rr is not None:
        rr = tuple(_as_float(r, f"{ctx}.rates") for r in _as_list(rr, f"{ctx}.rates"))
    anchor = d.get("cond_anchor")
    if anchor is not None:
        a = _as_mapping(anchor, f"{ctx}.cond_anchor")
        anchor = (
            _as_int(_need(a, "degree", ctx), ctx),
            _as_float(_need(a, "alpha", ctx), ctx),
            *_as_flux(_need(a, "flux", ctx), ctx),
            _as_float(_need(a, "value", ctx), ctx),
            _as_float(a.get("factor", 2.0), ctx),
        )
    return Expectations(
        errors=errors,
        error_rtol=_as_float(d.get("error_rtol", 0.05), ctx),
        rates=rr,
        rate_atol=_as_float(d.get("rate_atol", 0.1), ctx),
        cond_monotone=bool(d.get("cond_monotone", False)),
        cond_anchor=anchor,
    )


def config_from_dict(raw: dict, source: str = "config") -> ExperimentConfig:
    if not isinstance(raw, dict):
        raise ConfigError(f"{source}: top level must be a mapping")
    name = str(_need(raw, "name", source))
    kind = str(_need(raw, "kind", source))
    if kind not in KINDS:
        raise ConfigError(f"{source}: kind must be one of {KINDS}, got {kind!r}")
    problem = str(raw.get("problem", "example1"))
    if problem not in PROBLEMS:
        raise ConfigError(f"{source}: problem must be one of {PROBLEMS}, got {problem!r}")
    alpha = _as_float(_need(raw, "alpha", source), f"{source}.alpha")
    if not 0.0 < alpha < 1.0:
        raise ConfigError(
            f"{source}: alpha must lie in the admissible range (0, 1), got {alpha}"
        )
    degree = _as_int(raw.get("degree", 0), f"{source}.degree")
    if not 0 <= degree <= 8:
        raise ConfigError(f"{source}: degree must lie in 0..8, got {degree}")
    flux = _as_flux(raw.get("flux", [1.0, 0.0]), source)
    time = _as_mapping(_need(raw, "time", source), f"{source}.time")
    M = _as_int(_need(time, "M", f"{source}.time"), f"{source}.time.M")
    if M < 1:
        raise ConfigError(f"{source}: time.M must be >= 1, got {M}")
    gamma = _as_float(time.get("gamma", 1.0), f"{source}.time.gamma")
    if gamma < 1.0:
        raise ConfigError(f"{source}: time.gamma must be >= 1, got {gamma}")
    T = _as_float(time.get("T", 0.1), f"{source}.time.T")
    if T <= 0.0:
        raise ConfigError(f"{source}: time.T must be positive, got {T}")
    delta = raw.get("delta")
    if delta is not None:
        delta = _as_float(delta, f"{source}.delta")
        if not (0.0 < delta < 2.0) or delta == 1.0:
            raise ConfigError(
                f"{source}: delta must lie in the admissible range (0,1) or (1,2), got {delta}"
            )
    quad_t = _as_int(raw.get("quad_t", 3), f"{source}.quad_t")
    if quad_t < 2:
        raise ConfigError(f"{source}: quad_t must be >= 2, got {quad_t}")
    metric = str(raw.get("metric", "final-time"))
    if metric not in ("final-time", "time-integrated"):
        raise ConfigError(
            f"{source}: metric must be 'final-time' or 'time-integrated', got {metric!r}"
        )

    nx = raw.get("nx")
    if nx is not None:
        nx = _as_int(nx, f"{source}.nx")
        if nx < 1:
            raise ConfigError(f"{source}: nx must be >= 1, got {nx}")
    nx_list = raw.get("nx_list")
    if nx_list is not None:
        ctx = f"{source}.nx_list"
        nx_list = tuple(_as_int(v, ctx) for v in _as_list(nx_list, ctx))
        if not nx_list or any(v < 1 for v in nx_list):
            raise ConfigError(f"{source}: nx_list must be nonempty positive integers")
    M_list = raw.get("M_list")
    if M_list is not None:
        ctx = f"{source}.M_list"
        M_list = tuple(_as_int(v, ctx) for v in _as_list(M_list, ctx))
        if not M_list or any(v < 1 for v in M_list):
            raise ConfigError(f"{source}: M_list must be nonempty positive integers")
    cond_rows = raw.get("cond_rows")
    if cond_rows is not None:
        rows = []
        for row in _as_list(cond_rows, f"{source}.cond_rows"):
            row = _as_mapping(row, f"{source}.cond_rows")
            rows.append(
                CondRow(
                    degree=_as_int(_need(row, "degree", f"{source}.cond_rows"), source),
                    alpha=_as_float(_need(row, "alpha", f"{source}.cond_rows"), source),
                    gamma=_as_float(_need(row, "gamma", f"{source}.cond_rows"), source),
                )
            )
        for row in rows:
            if not 0.0 < row.alpha < 1.0:
                raise ConfigError(
                    f"{source}: cond_rows alpha must lie in the admissible range (0, 1), "
                    f"got {row.alpha}"
                )
            if not 0 <= row.degree <= 8:
                raise ConfigError(f"{source}: cond_rows degree must lie in 0..8, got {row.degree}")
            if row.gamma < 1.0:
                raise ConfigError(f"{source}: cond_rows gamma must be >= 1, got {row.gamma}")
        cond_rows = tuple(rows)
    flux_list = raw.get("flux_list")
    if flux_list is not None:
        ctx = f"{source}.flux_list"
        flux_list = tuple(_as_flux(v, ctx) for v in _as_list(flux_list, ctx))

    if kind == "spatial-convergence" and not nx_list:
        raise ConfigError(f"{source}: spatial-convergence requires nx_list")
    if kind == "temporal-convergence" and not M_list:
        raise ConfigError(f"{source}: temporal-convergence requires M_list")
    if kind == "condition-number" and (not cond_rows or not flux_list or nx is None):
        raise ConfigError(f"{source}: condition-number requires nx, cond_rows, flux_list")
    if kind == "single-run" and nx is None:
        raise ConfigError(f"{source}: single-run requires nx")

    expect = raw.get("expect")
    if expect is not None:
        expect = _parse_expect(expect, f"{source}.expect")

    known_keys = {
        "name", "title", "kind", "problem", "alpha", "degree", "flux", "time",
        "delta", "nx", "nx_list", "M_list", "cond_rows", "flux_list", "quad_t",
        "expect", "reference", "metric",
    }
    extra = set(raw) - known_keys
    if extra:
        raise ConfigError(f"{source}: unknown keys {sorted(extra)}")

    return ExperimentConfig(
        name=name,
        title=str(raw.get("title", "")),
        kind=kind,
        problem=problem,
        alpha=alpha,
        degree=degree,
        flux=flux,
        M=M,
        gamma=gamma,
        T=T,
        delta=delta,
        nx=nx,
        nx_list=nx_list,
        M_list=M_list,
        cond_rows=cond_rows,
        flux_list=flux_list,
        quad_t=quad_t,
        metric=metric,
        expect=expect,
    )


def load_config(ref: str) -> ExperimentConfig:
    """Load a config from a YAML path or from a shipped preset name."""
    path = Path(ref)
    if not path.is_file():
        candidate = presets_dir() / f"{ref}.yaml"
        if candidate.is_file():
            path = candidate
        else:
            names = ", ".join(sorted(p.stem for p in presets_dir().glob("*.yaml")))
            raise ConfigError(f"no config file or preset named {ref!r} (presets: {names})")
    try:
        raw = yaml.load(path.read_text(encoding="utf-8"), Loader=_YAML_LOADER)
    except yaml.YAMLError as exc:
        raise ConfigError(f"{path}: not valid YAML: {exc}") from exc
    return config_from_dict(raw, source=path.name)


def _set_thread_env(threads: int | None, deterministic: bool) -> None:
    if deterministic:
        threads = 1
    if threads is None:
        return
    if threads < 1:
        raise ConfigError(f"--threads must be >= 1, got {threads}")
    for var in _THREAD_VARS:
        os.environ[var] = str(threads)


def _run_solves(cfg: ExperimentConfig):
    """Every study that solves: one solve per case (label, rate abscissa,
    nx, M), each measured by the observer of cfg.metric against the exact
    solution while the run goes, so no level is kept."""
    from .analysis import ErrorReport, FinalTimeError, TimeIntegratedError, rates
    from .basis import BasisSpec
    from .ldg import FluxWeights, solve
    from .meshes import build_graded_time_mesh, build_spatial_mesh
    from .problems import example1, example2

    if cfg.kind == "spatial-convergence":
        cases = [(f"1/{nx}", 1.0 / nx, nx, cfg.M) for nx in cfg.nx_list]
    elif cfg.kind == "temporal-convergence":
        # Coupled spatial resolution h = M^((alpha-2)/(k+1)) keeps the
        # spatial error subordinate while the time error is measured.
        cases = [(str(M), 1.0 / M, max(1, round(M ** ((2.0 - cfg.alpha) / (cfg.degree + 1)))), M)
                 for M in cfg.M_list]
    else:
        cases = [(f"1/{cfg.nx}", 1.0 / cfg.nx, cfg.nx, cfg.M)]
    if cfg.problem == "example1":
        prob = example1(cfg.alpha, T=cfg.T)
    else:
        prob = example2(cfg.alpha, delta=cfg.delta, T=cfg.T)
    basis = BasisSpec(cfg.degree)
    fw = FluxWeights(*cfg.flux)
    errors = []
    for _, _, nx, M in cases:
        mesh = build_spatial_mesh(nx, nx)
        tm = build_graded_time_mesh(M, cfg.gamma, cfg.T)
        if cfg.metric == "time-integrated":
            measure = TimeIntegratedError(tm, mesh, basis, prob.exact, cfg.quad_t)
        else:
            measure = FinalTimeError(tm, mesh, basis, prob.exact)
        solve(prob, mesh, tm, basis, fw, measure)
        errors.append(measure.value)
    labels, xs = [c[0] for c in cases], [c[1] for c in cases]
    rr = rates(errors, xs) if len(errors) >= 2 else []
    param_name = "M" if cfg.kind == "temporal-convergence" else "h"
    meta = {"h": xs} if cfg.kind == "spatial-convergence" else {}
    return ErrorReport(cfg.kind, param_name, labels, errors, rr, meta)


def _run_condition(cfg: ExperimentConfig):
    from .analysis import ErrorReport, condition_number
    from .basis import BasisSpec
    from .fractional import l1_coefficients
    from .ldg import FluxWeights, assemble_operators
    from .meshes import build_graded_time_mesh, build_spatial_mesh

    mesh = build_spatial_mesh(cfg.nx, cfg.nx)
    labels, values, groups = [], [], []
    # Rows differ in (degree, alpha, gamma); the operators depend only on
    # the degree and the flux pair, so each pair is assembled once.
    operators = {}
    for row in cfg.cond_rows:
        basis = BasisSpec(row.degree)
        tm = build_graded_time_mesh(cfg.M, row.gamma, cfg.T)
        A = l1_coefficients(tm, row.alpha)
        group_vals = []
        for s1, s2 in cfg.flux_list:
            key = (row.degree, s1, s2)
            if key not in operators:
                operators[key] = assemble_operators(mesh, basis, FluxWeights(s1, s2))
            c2 = condition_number(operators[key], A, cfg.M)
            labels.append(f"Q{row.degree} alpha={row.alpha:g} flux={s1:g}:{s2:g}")
            values.append(c2)
            group_vals.append(c2)
        groups.append((f"Q{row.degree} alpha={row.alpha:g}", group_vals))
    return ErrorReport("condition-number", "case", labels, values, [], {"groups": groups})


_RUNNERS = {
    "spatial-convergence": _run_solves,
    "temporal-convergence": _run_solves,
    "condition-number": _run_condition,
    "single-run": _run_solves,
}


def check_report(report, expect: Expectations) -> list[tuple[bool, str]]:
    """Compare a finished report against its expectations; one line each."""
    checks: list[tuple[bool, str]] = []
    if expect.errors is not None:
        for i, ref in enumerate(expect.errors):
            if i >= len(report.errors):
                checks.append((False, f"error[{i}]: missing (expected {ref:.4e})"))
                continue
            got = report.errors[i]
            ok = abs(got - ref) <= expect.error_rtol * abs(ref)
            checks.append(
                (ok, f"error[{i}] = {got:.4e} vs {ref:.4e} "
                     f"(rtol {expect.error_rtol:g})")
            )
    if expect.rates is not None:
        for i, ref in enumerate(expect.rates):
            if i >= len(report.rates):
                checks.append((False, f"rate[{i}]: missing (expected {ref:.4f})"))
                continue
            got = report.rates[i]
            ok = abs(got - ref) <= expect.rate_atol
            checks.append(
                (ok, f"rate[{i}] = {got:.4f} vs {ref:.4f} (atol {expect.rate_atol:g})")
            )
    if expect.cond_monotone:
        for label, vals in report.meta.get("groups", []):
            ok = all(vals[i] >= vals[i + 1] for i in range(len(vals) - 1))
            pretty = " -> ".join(f"{v:.4e}" for v in vals)
            checks.append((ok, f"monotone {label}: {pretty}"))
    if expect.cond_anchor is not None:
        degree, alpha, s1, s2, value, factor = expect.cond_anchor
        label = f"Q{degree} alpha={alpha:g} flux={s1:g}:{s2:g}"
        if label in report.params:
            got = report.errors[report.params.index(label)]
            ok = value / factor <= got <= value * factor
            checks.append((ok, f"anchor {label} = {got:.4e} vs {value:.4e} (x{factor:g})"))
        else:
            checks.append((False, f"anchor case {label} not present in report"))
    return checks


def _emit(report, cfg: ExperimentConfig, out_dir: Path, plot: bool) -> list[Path]:
    out_dir.mkdir(parents=True, exist_ok=True)
    written = []
    csv_path = out_dir / f"{cfg.name}.csv"
    with open(csv_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(report.to_csv())
    written.append(csv_path)
    txt_path = out_dir / f"{cfg.name}.txt"
    with open(txt_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"{cfg.title or cfg.name}\n\n")
        fh.write(report.to_text())
    written.append(txt_path)
    if plot and report.kind in ("spatial-convergence", "temporal-convergence"):
        from .svgplot import write_loglog_svg

        if report.kind == "spatial-convergence":
            xs = report.meta["h"]
            xlabel = "h"
        else:
            xs = [1.0 / float(p) for p in report.params]
            xlabel = "1/M"
        svg_path = out_dir / f"{cfg.name}.svg"
        write_loglog_svg(
            str(svg_path),
            [(cfg.name, xs, report.errors)],
            title=cfg.title or cfg.name,
            xlabel=xlabel,
            ylabel="error E",
        )
        written.append(svg_path)
    return written


def _cmd_run(args) -> int:
    _set_thread_env(args.threads, args.deterministic)
    cfg = load_config(args.config)
    report = _RUNNERS[cfg.kind](cfg)
    print(cfg.title or cfg.name)
    print(report.to_text(), end="")
    failed = False
    if cfg.expect is not None:
        for ok, line in check_report(report, cfg.expect):
            print(("PASS " if ok else "FAIL ") + line)
            failed = failed or not ok
    written = _emit(report, cfg, Path(args.out), args.plot)
    for path in written:
        print(f"wrote {path}")
    if args.check and failed:
        return 4
    return 0


def _cmd_list_presets(_args) -> int:
    paths = sorted(presets_dir().glob("*.yaml"))
    for path in paths:
        raw = yaml.load(path.read_text(encoding="utf-8"), Loader=_YAML_LOADER)
        cfg = config_from_dict(raw, path.name)
        print(f"{cfg.name:<22} {cfg.kind:<22} {cfg.title}")
    print(f"{len(paths)} presets")
    return 0


def _cmd_validate(args) -> int:
    cfg = load_config(args.config)
    roundtrip = config_from_dict(cfg.to_dict(), source=f"{cfg.name} (round trip)")
    if roundtrip != cfg:
        raise ConfigError(f"{cfg.name}: config does not round-trip through serialization")
    print(f"ok: {cfg.name} ({cfg.kind})")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fracldg",
        description="Convergence and conditioning experiments for the tempered-memory "
        "diffusion solver.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)
    run_p = sub.add_parser("run", help="execute one experiment")
    run_p.add_argument("--config", required=True,
                       help="path to a YAML config, or the name of a shipped preset")
    run_p.add_argument("--out", default="out", help="output directory (default: ./out)")
    run_p.add_argument("--deterministic", action="store_true",
                       help="force single-threaded backends for byte-identical output")
    run_p.add_argument("--threads", type=int, default=None,
                       help="thread count for linear-algebra backends")
    run_p.add_argument("--plot", action="store_true", help="also write an SVG plot")
    run_p.add_argument("--check", action="store_true",
                       help="exit 4 if configured expectations are not met")
    sub.add_parser("list-presets", help="list shipped presets")
    val_p = sub.add_parser("validate-config", help="validate a config without running")
    val_p.add_argument("--config", required=True)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "run": _cmd_run,
        "list-presets": _cmd_list_presets,
        "validate-config": _cmd_validate,
    }
    try:
        return handlers[args.verb](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3
    except FracLdgError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
