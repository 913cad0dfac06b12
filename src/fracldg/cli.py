"""Experiment runner: configuration loading, presets, reports, and plots.

Verbs:
  run              execute one experiment config (or named preset)
  list-presets     show the shipped benchmark presets
  validate-config  parse and validate a config without running it

Exit codes: 0 success, 2 configuration error, 3 numeric failure,
4 expectation mismatch when --check is passed. A config whose run would
not fit in the machine's physical memory is refused, by both run and
validate-config, with exit 3 before any of it is built.

Every mapping of a config (the top level, `time`, each `cond_rows` entry,
`expect` and `expect.cond_anchor`) is read through one key-consuming
reader, and each kind reads only the keys its study runs, so an unknown,
misspelt or misplaced key at any level is a configuration error; only
`reference` is free-form notes and is not looked into. A number whose
range the library has too (alpha, delta, gamma, T, the counts, the degree
and the flux weights) is read by that range's one owner in fracldg.errors,
named by its key path, so a config is refused in the library's words.

Heavy numerical imports happen inside the run functions, after the thread
environment variables are set, so --threads/--deterministic take effect on
the linear-algebra backends.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from dataclasses import dataclass
from pathlib import Path

import yaml

from .errors import (ConfigError, FracLdgError, InvalidArgumentError, NumericError, check_alpha,
                     check_count, check_degree, check_delta, check_gamma, check_range,
                     check_real, check_sigma, check_T, require_memory)

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
    """One experiment: what to solve, on which meshes, and what to expect.

    A field its kind does not read is None. condition-number sets nx, M,
    cond_rows and flux_list. The solving kinds set problem, alpha, degree,
    flux, gamma and delta (if given), and spatial-convergence nx_list and
    M, temporal-convergence M_list, single-run nx and M."""

    name: str
    kind: str
    T: float
    title: str = ""
    problem: str | None = None
    alpha: float | None = None
    degree: int | None = None
    flux: tuple[float, float] | None = None
    delta: float | None = None
    M: int | None = None
    gamma: float | None = None
    nx: int | None = None
    nx_list: tuple[int, ...] | None = None
    M_list: tuple[int, ...] | None = None
    cond_rows: tuple[CondRow, ...] | None = None
    flux_list: tuple[tuple[float, float], ...] | None = None
    expect: Expectations | None = None


_REQUIRED = object()


class _Mapping:
    """One mapping of a config, read key by key.

    Every read marks its key, and `done` rejects the keys nothing read. A
    reader asks only for the keys its study runs, so a misspelt key, or one
    that only another kind reads, fails the config instead of being ignored.
    """

    def __init__(self, value, ctx: str):
        if not isinstance(value, dict):
            raise ConfigError(f"{ctx}: expected a mapping, got {value!r}")
        self.ctx = ctx
        self._d = value
        self._unread = set(value)

    def get(self, key: str, default=_REQUIRED):
        self._unread.discard(key)
        if key in self._d:
            return self._d[key]
        if default is _REQUIRED:
            raise ConfigError(f"{self.ctx}: missing required key {key!r}")
        return default

    def num(self, key: str, check=check_real, default=_REQUIRED):
        """The number under `key`, read by `check` (_number); None only when
        the key is optional (default None) and absent or null."""
        value = self.get(key, default)
        if value is None and default is None:
            return None
        return _number(value, f"{self.ctx}.{key}", check)

    def choice(self, key: str, choices: tuple[str, ...], default=_REQUIRED) -> str:
        value = str(self.get(key, default))
        if value not in choices:
            raise ConfigError(f"{self.ctx}.{key} must be one of {choices}, got {value!r}")
        return value

    def items(self, key: str, item, default=_REQUIRED) -> tuple | None:
        """The nonempty list under `key`, entry i read by item(value, ctx)
        with ctx naming it, `key[i]`; None only when the key is optional
        (default None) and absent or null."""
        value = self.get(key, default)
        if value is None and default is None:
            return None
        ctx = f"{self.ctx}.{key}"
        if not isinstance(value, (list, tuple)):
            raise ConfigError(f"{ctx}: expected a list, got {value!r}")
        if not value:
            raise ConfigError(f"{ctx} must be nonempty")
        return tuple(item(v, f"{ctx}[{i}]") for i, v in enumerate(value))

    def done(self) -> None:
        if self._unread:
            raise ConfigError(f"{self.ctx}: unknown keys {sorted(self._unread)}")


def _number(value, ctx: str, check=check_real):
    """value read by check, a check of fracldg.errors, with the key path ctx
    as its name: the owner of each admissible range words the refusal, and
    the reader only makes it a ConfigError."""
    try:
        return check(value, ctx)
    except InvalidArgumentError as exc:
        raise ConfigError(str(exc)) from None


def _whole(value, ctx: str, check=check_count) -> int:
    """An integer entry read by check (_number). A hand-written count may
    carry a decimal point, so an integral float such as nx: 4.0 reads as 4."""
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    return _number(value, ctx, check)


def _size(r: _Mapping, key: str) -> int:
    return _whole(r.get(key), f"{r.ctx}.{key}")


def _degree(r: _Mapping, default=_REQUIRED) -> int:
    return _whole(r.get("degree", default), f"{r.ctx}.degree", check_degree)


def _as_flux(value, ctx: str) -> tuple[float, float]:
    if not isinstance(value, (list, tuple)) or len(value) != 2:
        raise ConfigError(f"{ctx} must be a pair [sigma1, sigma2], got {value!r}")
    return tuple(_number(v, f"{ctx}[{i}]", check_sigma) for i, v in enumerate(value))


def _range(ok, want: str):
    """The check of a range that only a config has (an expectation's
    tolerance or anchor), for _number."""
    return lambda value, name: check_range(value, name, ok, want)


def _cond_row(value, ctx: str) -> CondRow:
    r = _Mapping(value, ctx)
    row = CondRow(_degree(r), r.num("alpha", check_alpha), r.num("gamma", check_gamma))
    r.done()
    return row


def _parse_expect(value, ctx: str) -> Expectations:
    r = _Mapping(value, ctx)
    monotone = r.get("cond_monotone", False)
    if not isinstance(monotone, bool):
        raise ConfigError(f"{ctx}.cond_monotone: expected true or false, got {monotone!r}")
    anchor = r.get("cond_anchor", None)
    if anchor is not None:
        a = _Mapping(anchor, f"{ctx}.cond_anchor")
        anchor = (_degree(a), a.num("alpha", check_alpha),
                  *_as_flux(a.get("flux"), f"{a.ctx}.flux"),
                  a.num("value", _range(lambda v: v > 0.0, "must be positive")),
                  a.num("factor", _range(lambda f: f >= 1.0, "must be >= 1"), 2.0))
        a.done()
    tolerance = _range(lambda t: t >= 0.0, "must be >= 0")
    expect = Expectations(
        errors=r.items("errors", _number, None),
        error_rtol=r.num("error_rtol", tolerance, 0.05),
        rates=r.items("rates", _number, None),
        rate_atol=r.num("rate_atol", tolerance, 0.1),
        cond_monotone=monotone,
        cond_anchor=anchor,
    )
    r.done()
    return expect


def config_from_dict(raw: dict, source: str = "config") -> ExperimentConfig:
    r = _Mapping(raw, source)
    name = str(r.get("name"))
    # The name is the stem of every output file, written under --out.
    if name in ("", "..") or Path(name).name != name:
        raise ConfigError(f"{source}.name must be a single file name, got {name!r}")
    kind = r.choice("kind", KINDS)
    time = _Mapping(r.get("time"), f"{source}.time")
    # Each kind reads exactly the keys its study runs; done() rejects the rest.
    if kind == "condition-number":
        study = dict(nx=_size(r, "nx"), M=_size(time, "M"),
                     cond_rows=r.items("cond_rows", _cond_row),
                     flux_list=r.items("flux_list", _as_flux))
    else:
        study = dict(
            problem=r.choice("problem", PROBLEMS, "example1"),
            alpha=r.num("alpha", check_alpha),
            degree=_degree(r, 0),
            flux=_as_flux(r.get("flux", [1.0, 0.0]), f"{source}.flux"),
            delta=r.num("delta", check_delta, None),
            gamma=time.num("gamma", check_gamma, 1.0),
        )
        if kind == "temporal-convergence":
            study.update(M_list=r.items("M_list", _whole))
        elif kind == "spatial-convergence":
            study.update(nx_list=r.items("nx_list", _whole), M=_size(time, "M"))
        else:
            study.update(nx=_size(r, "nx"), M=_size(time, "M"))
    T = time.num("T", check_T, 0.1)
    time.done()
    expect = r.get("expect", None)
    cfg = ExperimentConfig(
        name=name,
        title=str(r.get("title", "")),
        kind=kind,
        T=T,
        expect=expect if expect is None else _parse_expect(expect, f"{source}.expect"),
        **study,
    )
    r.get("reference", None)  # free-form notes: accepted, never read
    r.done()
    if cfg.problem == "example1" and cfg.delta is not None:
        raise ConfigError(f"{source}.delta applies to example2 only; example1 has no delta")
    _check_time_meshes(cfg, source)
    return cfg


def _time_meshes(cfg: ExperimentConfig) -> list[tuple[str, int, float]]:
    """(key, M, gamma) of every graded time mesh a run of cfg builds, in run
    order; key names the config entry that sets it. The one owner of which
    meshes each kind builds: the runners and the config check both read it."""
    if cfg.kind == "temporal-convergence":
        return [(f"M_list[{i}]", M, cfg.gamma) for i, M in enumerate(cfg.M_list)]
    if cfg.kind == "condition-number":
        return [(f"cond_rows[{i}].gamma", cfg.M, row.gamma)
                for i, row in enumerate(cfg.cond_rows)]
    return [("time", cfg.M, cfg.gamma)]


def _solve_cases(cfg: ExperimentConfig) -> list[tuple[str, float, int, int, float]]:
    """(label, rate abscissa, nx, M, gamma) of every solve a run of cfg
    makes, in run order; cfg is of a kind that solves."""
    if cfg.kind == "temporal-convergence":
        # Coupled spatial resolution h = M^((alpha-2)/(k+1)) keeps the
        # spatial error subordinate while the time error is measured.
        return [(str(M), 1.0 / M, max(1, round(M ** ((2.0 - cfg.alpha) / (cfg.degree + 1)))),
                 M, gamma) for _, M, gamma in _time_meshes(cfg)]
    [(_, M, gamma)] = _time_meshes(cfg)
    return [(f"1/{nx}", 1.0 / nx, nx, M, gamma) for nx in cfg.nx_list or (cfg.nx,)]


def _check_time_meshes(cfg: ExperimentConfig, source: str) -> None:
    """Refuse a config whose run would not fit in memory, before any time
    mesh is built, then build every graded time mesh a run of cfg builds, so
    a mesh that cannot be built (its first step underflows) fails the
    config, not the run.

    Every case of the run, (nx, M, degree), is sized by ldg.footprint_bytes
    and refused by errors.require_memory with solve's NumericError (exit 3),
    so validate-config refuses what run would, and the answer depends on
    the physical memory of the machine. A condition-number row is sized as
    a solve on its mesh, degree and M, which its study does not make, plus
    what condition_number holds at once (analysis._fourier_blocks_bytes)."""
    # Imported here: importing the CLI must not load numpy before the
    # thread count is pinned.
    from .analysis import _fourier_blocks_bytes
    from .basis import BasisSpec
    from .ldg import footprint_bytes
    from .meshes import GradedTimeMesh, SpatialMesh

    if cfg.kind == "condition-number":
        sizes = [(cfg.nx, cfg.M, row.degree) for row in cfg.cond_rows]
    else:
        sizes = [(nx, M, cfg.degree) for _, _, nx, M, _ in _solve_cases(cfg)]
    for nx, M, degree in sizes:
        mesh, basis = SpatialMesh(nx, nx), BasisSpec(degree)
        blocks = _fourier_blocks_bytes(mesh, basis) if cfg.kind == "condition-number" else 0
        require_memory(footprint_bytes(mesh, M, basis) + blocks)
    for key, M, gamma in _time_meshes(cfg):
        try:
            GradedTimeMesh(M, gamma, cfg.T)
        except InvalidArgumentError as exc:
            raise ConfigError(
                f"{source}.{key}: M={M}, gamma={gamma:g}, T={cfg.T:g}: {exc}"
            ) from None


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
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text: {exc}") from exc
    except yaml.YAMLError as exc:
        raise ConfigError(f"{path}: not valid YAML: {exc}") from exc
    return config_from_dict(raw, source=path.name)


def _set_thread_env(threads: int | None, deterministic: bool) -> None:
    if deterministic:
        threads = 1
    if threads is None:
        return
    threads = _number(threads, "--threads", check_count)
    for var in _THREAD_VARS:
        os.environ[var] = str(threads)


def _run_solves(cfg: ExperimentConfig):
    """Every study that solves: one solve per case (label, rate abscissa,
    nx, M, gamma), each measured by a FinalTimeError observer against the
    exact solution while the run goes, so no level is kept."""
    from .analysis import ErrorReport, FinalTimeError, rates
    from .basis import BasisSpec
    from .ldg import FluxWeights, solve
    from .meshes import GradedTimeMesh, SpatialMesh
    from .problems import example1, example2

    cases = _solve_cases(cfg)
    if cfg.problem == "example1":
        prob = example1(cfg.alpha)
    else:
        prob = example2(cfg.alpha, delta=cfg.delta)
    basis = BasisSpec(cfg.degree)
    fw = FluxWeights(*cfg.flux)
    errors = []
    for _, _, nx, M, gamma in cases:
        mesh = SpatialMesh(nx, nx)
        tm = GradedTimeMesh(M, gamma, cfg.T)
        measure = FinalTimeError(tm, mesh, basis, prob.exact)
        solve(prob, mesh, tm, basis, fw, measure)
        errors.append(measure.value)
    labels, xs = [c[0] for c in cases], [c[1] for c in cases]
    rr = rates(errors, xs) if len(errors) >= 2 else []
    param_name = "M" if cfg.kind == "temporal-convergence" else "h"
    return ErrorReport(cfg.kind, param_name, labels, errors, rr, {"x": xs})


def _cond_label(degree: int, alpha: float, s1: float, s2: float) -> str:
    """Report label of one condition-number case; the anchor check finds its
    case by this label."""
    return f"Q{degree} alpha={alpha:g} flux={s1:g}:{s2:g}"


def _run_condition(cfg: ExperimentConfig):
    from .analysis import ErrorReport, condition_number
    from .basis import BasisSpec
    from .fractional import L1Kernel
    from .ldg import FluxWeights, LdgOperators
    from .meshes import GradedTimeMesh, SpatialMesh

    mesh = SpatialMesh(cfg.nx, cfg.nx)
    labels, values, groups = [], [], []
    # Rows differ in (degree, alpha, gamma); the operators depend only on
    # the degree and the flux pair, and compare by their inputs, so each
    # pair is assembled once.
    operators = functools.cache(LdgOperators)
    for row, (_, M, gamma) in zip(cfg.cond_rows, _time_meshes(cfg), strict=True):
        basis = BasisSpec(row.degree)
        tm = GradedTimeMesh(M, gamma, cfg.T)
        A = L1Kernel(row.alpha, tm)
        group_vals = []
        for s1, s2 in cfg.flux_list:
            c2 = condition_number(operators(mesh, basis, FluxWeights(s1, s2)), A)
            labels.append(_cond_label(row.degree, row.alpha, s1, s2))
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
        label = _cond_label(degree, alpha, s1, s2)
        if label in report.params:
            got = report.errors[report.params.index(label)]
            ok = value / factor <= got <= value * factor
            checks.append((ok, f"anchor {label} = {got:.4e} vs {value:.4e} (x{factor:g})"))
        else:
            checks.append((False, f"anchor case {label} not present in report"))
    return checks


def _emit(report, cfg: ExperimentConfig, out_dir: Path, plot: bool) -> list[Path]:
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

        svg_path = out_dir / f"{cfg.name}.svg"
        write_loglog_svg(
            str(svg_path),
            (cfg.name, report.meta["x"], report.errors),
            title=cfg.title or cfg.name,
            xlabel="h" if report.kind == "spatial-convergence" else "1/M",
            ylabel="error E",
        )
        written.append(svg_path)
    return written


def _cmd_run(args) -> int:
    _set_thread_env(args.threads, args.deterministic)
    cfg = load_config(args.config)
    out_dir = Path(args.out)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"--out {args.out}: cannot create the output directory: {exc}") from exc
    report = _RUNNERS[cfg.kind](cfg)
    print(cfg.title or cfg.name)
    print(report.to_text(), end="")
    failed = False
    if cfg.expect is not None:
        for ok, line in check_report(report, cfg.expect):
            print(("PASS " if ok else "FAIL ") + line)
            failed = failed or not ok
    written = _emit(report, cfg, out_dir, args.plot)
    for path in written:
        print(f"wrote {path}")
    if args.check and failed:
        return 4
    return 0


def _cmd_list_presets(_args) -> int:
    paths = sorted(presets_dir().glob("*.yaml"))
    for path in paths:
        cfg = load_config(str(path))
        print(f"{cfg.name:<22} {cfg.kind:<22} {cfg.title}")
    print(f"{len(paths)} presets")
    return 0


def _cmd_validate(args) -> int:
    cfg = load_config(args.config)
    print(f"ok: {cfg.name} ({cfg.kind})")
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process and shared, so callers do
    not change it: each tree is a cycle of objects, so one per call would
    leave garbage for the collector."""
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
