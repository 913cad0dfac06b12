from __future__ import annotations

import contextlib
import copy
import dataclasses
import io
import math
import os
import re
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import yaml
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fracldg.analysis
import fracldg.cli
import fracldg.errors
import fracldg.problems
from fracldg.analysis import ErrorReport
from fracldg.cli import (
    Expectations,
    check_report,
    config_from_dict,
    load_config,
    main,
    presets_dir,
)
from fracldg.errors import (
    ConfigError,
    FracLdgError,
    InvalidArgumentError,
    NumericError,
    check_alpha,
    check_count,
    check_degree,
    check_delta,
    check_gamma,
    check_sigma,
    check_T,
)
from fracldg.problems import example1, example2
from fracldg.svgplot import write_loglog_svg

from oracles import final_time_error, solve_fields


_SOLVING = {"problem": "example1", "alpha": 0.5, "degree": 0, "flux": [1.0, 0.0]}

#: A small valid config of each kind, with no key that kind does not read.
_BASES = {
    "single-run": {**_SOLVING, "nx": 4, "time": {"M": 3, "gamma": 2.0, "T": 0.1}},
    "spatial-convergence": {**_SOLVING, "nx_list": [3, 4],
                            "time": {"M": 3, "gamma": 2.0, "T": 0.1}},
    "temporal-convergence": {**_SOLVING, "M_list": [2, 3], "time": {"gamma": 2.0, "T": 0.1}},
    "condition-number": {"nx": 3, "time": {"M": 3, "T": 0.1},
                         "cond_rows": [{"degree": 0, "alpha": 0.5, "gamma": 1.0}],
                         "flux_list": [[1.0, 0.0]]},
}


def _base_config(kind: str = "single-run", **overrides) -> dict:
    """The base config of `kind` (single-run for a kind that does not
    exist) named tiny, with overrides replacing whole top-level keys."""
    d = {"name": "tiny", "kind": kind, **copy.deepcopy(_BASES.get(kind, _BASES["single-run"]))}
    d.update(overrides)
    return d


def _write_config(tmp_path, d, name="cfg.yaml"):
    p = tmp_path / name
    p.write_text(yaml.safe_dump(d), encoding="utf-8")
    return str(p)


def test_load_config_resolves_preset_names():
    cfg = load_config("table1-row1")
    assert cfg.kind == "spatial-convergence"
    assert cfg.problem == "example1"
    assert cfg.nx_list == (12, 14, 16, 18)
    assert cfg.flux == (0.0, 1.0)
    assert cfg.M == 20 and cfg.gamma == 2.0 and cfg.T == 0.1
    assert cfg.expect is not None and cfg.expect.rates is not None


def test_unknown_preset_error_lists_available_names():
    with pytest.raises(ConfigError) as ei:
        load_config("no-such-preset")
    msg = str(ei.value)
    assert "table1-row1" in msg
    assert "table8-cond" in msg


@pytest.mark.parametrize("overrides,needle", [
    ({"alpha": 1.5}, "admissible range"),
    ({"alpha": 0.0}, "admissible range"),
    ({"bogus": 1}, "unknown keys"),
    ({"kind": "banana"}, "kind must be one of"),
    ({"problem": "example3"}, "problem must be one of"),
    ({"flux": [1.2, 0.0]}, "must lie in [0, 1]"),
    ({"flux": [1.0]}, "flux must be a pair"),
    ({"time": {"M": 0, "gamma": 2.0, "T": 0.1}}, "time.M must be >= 1"),
    ({"time": {"M": 3, "gamma": 0.5, "T": 0.1}}, "time.gamma must be >= 1"),
    ({"time": {"M": 3, "gamma": 2.0, "T": 0.0}}, "time.T must be positive"),
    ({"problem": "example2", "delta": 1.0}, "admissible range"),
    ({"quad_t": 1}, "unknown keys ['quad_t']"),
    ({"metric": "l-infinity"}, "unknown keys ['metric']"),
    ({"nx": 4.5}, "expected an integer"),
    ({"degree": 9}, "degree must lie in 0..8"),
    ({"time": 3}, "time: expected a mapping"),
    ({"kind": "spatial-convergence", "nx_list": 5}, "nx_list: expected a list"),
    ({"kind": "temporal-convergence", "M_list": 5}, "M_list: expected a list"),
    ({"kind": "condition-number", "flux_list": 5}, "flux_list: expected a list"),
    ({"kind": "condition-number", "cond_rows": 5}, "cond_rows: expected a list"),
    ({"kind": "condition-number", "cond_rows": [3]}, "config.cond_rows[0]: expected a mapping"),
    ({"kind": "condition-number", "cond_rows": [{"degree": 12, "alpha": 0.5, "gamma": 1.0}]},
     "degree must lie in 0..8"),
    ({"kind": "condition-number", "cond_rows": [{"degree": 1, "alpha": 0.5, "gamma": 0.5}]},
     "gamma must be >= 1"),
    ({"expect": 5}, "expect: expected a mapping"),
    ({"expect": {"errors": 0.1}}, "errors: expected a list"),
    ({"expect": {"rates": 2.0}}, "rates: expected a list"),
    ({"expect": {"cond_anchor": 5}}, "cond_anchor: expected a mapping"),
    ({"time": {"M": 3, "gama": 6.0}}, "config.time: unknown keys ['gama']"),
    ({"kind": "condition-number",
      "cond_rows": [{"degree": 1, "alpha": 0.5, "gamma": 1.0, "flux": [0.5, 0.5]}]},
     "config.cond_rows[0]: unknown keys ['flux']"),
    ({"expect": {"errors": [0.1], "error_tol": 0.1}}, "config.expect: unknown keys ['error_tol']"),
    ({"expect": {"cond_anchor": {"degree": 0, "alpha": 0.7, "flux": [1.0, 0.0],
                                 "value": 14.0, "colour": "red"}}},
     "config.expect.cond_anchor: unknown keys ['colour']"),
    ({"kind": "condition-number", "cond_rows": [{"degree": 1, "alpha": "x", "gamma": 1.0}]},
     "config.cond_rows[0].alpha: expected a number"),
    ({"expect": {"cond_anchor": {"degree": 0, "alpha": 1.5, "flux": [1.0, 0.0], "value": 14.0}}},
     "config.expect.cond_anchor.alpha must lie in the admissible range (0, 1)"),
    ({"nx": float("inf")}, "config.nx: expected a finite number"),
    ({"time": {"M": 3, "T": float("nan")}}, "config.time.T: expected a finite number"),
    ({"time": {"M": 3, "gamma": float("nan")}}, "config.time.gamma: expected a finite number"),
    ({"expect": {"error_rtol": float("nan")}}, "config.expect.error_rtol: expected a finite number"),
    ({"expect": {"cond_monotone": "false"}}, "cond_monotone: expected true or false"),
    ({"expect": {"cond_monotone": 1}}, "cond_monotone: expected true or false"),
    ({"name": "sub/t"}, "config.name must be a single file name"),
    ({"name": "../t"}, "config.name must be a single file name"),
    ({"name": ".."}, "config.name must be a single file name"),
    ({"name": "."}, "config.name must be a single file name"),
    ({"name": ""}, "config.name must be a single file name"),
    ({"nx": True}, "config.nx: expected a number, got True"),
    ({"degree": True}, "config.degree: expected a number, got True"),
    ({"time": {"M": True}}, "config.time.M: expected a number, got True"),
    ({"expect": {"error_rtol": -1.0}}, "config.expect.error_rtol must be >= 0"),
    ({"expect": {"rate_atol": -0.1}}, "config.expect.rate_atol must be >= 0"),
    ({"expect": {"errors": []}}, "config.expect.errors must be nonempty"),
    ({"expect": {"rates": []}}, "config.expect.rates must be nonempty"),
    ({"expect": {"cond_anchor": {"degree": 0, "alpha": 0.7, "flux": [1.0, 0.0], "value": 0.0}}},
     "config.expect.cond_anchor.value must be positive"),
    ({"expect": {"cond_anchor": {"degree": 0, "alpha": 0.7, "flux": [1.0, 0.0],
                                 "value": 14.0, "factor": 0.5}}},
     "config.expect.cond_anchor.factor must be >= 1"),
    ({"delta": 0.4}, "config.delta applies to example2 only"),
    # Time meshes whose first step underflows to 0: the config fails, as the
    # run would, and the message names the key that asks for the mesh.
    ({"time": {"M": 1000, "gamma": 200}},
     "config.time: M=1000, gamma=200, T=0.1: nonpositive time step produced"),
    # Degree 2 couples M 1000 to nx 32, a run that fits; at degree 0 its nx
    # of 31 623 would be refused for its size first (exit 3).
    ({"kind": "temporal-convergence", "M_list": [2, 1000], "degree": 2, "time": {"gamma": 200}},
     "config.M_list[1]: M=1000, gamma=200, T=0.1: nonpositive time step produced"),
    ({"kind": "condition-number", "time": {"M": 1000},
      "cond_rows": [{"degree": 0, "alpha": 0.5, "gamma": 1.0},
                    {"degree": 1, "alpha": 0.5, "gamma": 200}]},
     "config.cond_rows[1].gamma: M=1000, gamma=200, T=0.1: nonpositive time step produced"),
    # A bad entry past the first is named by its index.
    ({"kind": "condition-number",
      "cond_rows": [{"degree": 0, "alpha": 0.5, "gamma": 1.0},
                    {"degree": 1, "alpha": "x", "gamma": 1.0}]},
     "config.cond_rows[1].alpha: expected a number, got 'x'"),
    ({"kind": "temporal-convergence", "M_list": [2, 0]}, "config.M_list[1] must be >= 1, got 0"),
    # An empty list of a kind's required key, as in expect.
    ({"kind": "spatial-convergence", "nx_list": []}, "config.nx_list must be nonempty"),
    ({"kind": "temporal-convergence", "M_list": []}, "config.M_list must be nonempty"),
    ({"kind": "condition-number", "cond_rows": []}, "config.cond_rows must be nonempty"),
    ({"kind": "condition-number", "flux_list": []}, "config.flux_list must be nonempty"),
    ({"kind": "condition-number", "nx": 0}, "config.nx must be >= 1, got 0"),
])
def test_config_validation_messages(overrides, needle):
    with pytest.raises(ConfigError) as ei:
        config_from_dict(_base_config(**overrides))
    assert needle in str(ei.value)


@pytest.mark.parametrize("kind,keys", [
    ("spatial-convergence", ["nx_list"]),
    ("temporal-convergence", ["M_list"]),
    ("condition-number", ["nx", "cond_rows", "flux_list"]),
], ids=lambda v: f"requires {', '.join(v)}" if isinstance(v, list) else None)
def test_kind_specific_requirements(kind, keys):
    for key in keys:
        d = _base_config(kind)
        del d[key]
        with pytest.raises(ConfigError, match=f"config: missing required key '{key}'"):
            config_from_dict(d)


def test_single_run_requires_mesh_size():
    d = _base_config()
    del d["nx"]
    with pytest.raises(ConfigError, match="config: missing required key 'nx'"):
        config_from_dict(d)


#: The keys each kind reads beside name, title, kind, time.T, expect and
#: reference; time.X is key X of the time mapping.
_SOLVING_KEYS = ("problem", "alpha", "degree", "flux", "delta", "time.gamma")
_KIND_KEYS = {
    "spatial-convergence": _SOLVING_KEYS + ("nx_list", "time.M"),
    "temporal-convergence": _SOLVING_KEYS + ("M_list",),
    "condition-number": ("nx", "time.M", "cond_rows", "flux_list"),
    "single-run": _SOLVING_KEYS + ("nx", "time.M"),
}

#: A valid value of every key in _KIND_KEYS.
_KEY_VALUES = {
    "problem": "example2", "alpha": 0.5, "degree": 1, "flux": [0.5, 0.5], "delta": 0.5,
    "time.gamma": 2.0, "time.M": 3, "nx": 3, "nx_list": [3], "M_list": [2],
    "cond_rows": [{"degree": 0, "alpha": 0.5, "gamma": 1.0}], "flux_list": [[1.0, 0.0]],
}


@pytest.mark.parametrize("kind", list(_KIND_KEYS))
def test_keys_of_another_kind_are_unknown(kind, tmp_path, capsys):
    # A key only another kind reads is misplaced: validate-config names it
    # as unknown and exits 2 instead of ignoring it.
    assert main(["validate-config", "--config", _write_config(tmp_path, _base_config(kind))]) == 0
    capsys.readouterr()
    foreign = set().union(*_KIND_KEYS.values()) - set(_KIND_KEYS[kind])
    assert foreign
    for key in sorted(foreign):
        d = _base_config(kind)
        mapping, _, name = key.rpartition(".")
        (d[mapping] if mapping else d)[name] = _KEY_VALUES[key]
        assert main(["validate-config", "--config", _write_config(tmp_path, d)]) == 2, key
        where = "cfg.yaml" + (f".{mapping}" if mapping else "")
        assert f"config error: {where}: unknown keys ['{name}']" in capsys.readouterr().err, key


def test_reference_is_free_form_notes():
    cfg = config_from_dict(_base_config(reference={"anything": 1}))
    assert cfg == config_from_dict(_base_config())


def test_yaml_loaders_agree_on_shipped_configs(monkeypatch, capsys):
    # The libyaml parser is used when PyYAML has it; every shipped config
    # must load to the same ExperimentConfig through the pure-Python one.
    assert fracldg.cli._YAML_LOADER is (
        yaml.CSafeLoader if yaml.__with_libyaml__ else yaml.SafeLoader
    )
    paths = sorted(presets_dir().glob("*.yaml"))
    paths.append(Path(__file__).resolve().parents[1] / "perfbench" / "configs" / "long-memory.yaml")
    assert len(paths) == 13
    default = [load_config(str(p)) for p in paths]
    assert main(["list-presets"]) == 0
    default_listing = capsys.readouterr().out
    monkeypatch.setattr(fracldg.cli, "_YAML_LOADER", yaml.SafeLoader)
    assert [load_config(str(p)) for p in paths] == default
    assert main(["list-presets"]) == 0
    assert capsys.readouterr().out == default_listing


def test_every_config_key_is_set_by_a_shipped_config(monkeypatch):
    # Every key the reader asks for while the shipped presets and the
    # benchmark's configs load is set by at least one of them, so no option
    # exists that no shipped run uses. Keys are compared by their path below
    # the file, e.g. time.M or expect.cond_anchor.factor.
    get = fracldg.cli._Mapping.get
    asked, given = set(), set()
    source = ""

    def recording_get(self, key, *default):
        # cond_rows[3].alpha and cond_rows[0].alpha are one key.
        ctx = re.sub(r"\[\d+\]", "", self.ctx.removeprefix(source))
        path = (ctx.lstrip(".") + "." + key).lstrip(".")
        asked.add(path)
        if key in self._d:
            given.add(path)
        return get(self, key, *default)

    monkeypatch.setattr(fracldg.cli._Mapping, "get", recording_get)
    bench = Path(__file__).resolve().parents[1] / "perfbench" / "configs"
    paths = sorted(presets_dir().glob("*.yaml")) + sorted(bench.glob("*.yaml"))
    for path in paths:
        source = path.name
        load_config(str(path))
    assert {"expect.cond_anchor.factor", "cond_rows.alpha"} <= asked
    assert sorted(asked - given) == []


@pytest.mark.filterwarnings("ignore:central flux weight")
def test_runners_build_the_time_meshes_the_config_check_builds(monkeypatch):
    # validate-config builds the meshes _time_meshes lists; every runner
    # must build exactly those, in that order, or the two verbs disagree on
    # which configs are valid. Solving and measuring are stubbed out.
    import fracldg.ldg
    import fracldg.meshes

    class NoError:
        value = 1.0

        def __init__(self, *args):
            pass

    build = fracldg.meshes.GradedTimeMesh
    built = []

    def recording_build(M, gamma, T):
        built.append((M, gamma))
        return build(M, gamma, T)

    monkeypatch.setattr(fracldg.ldg, "solve", lambda *args: None)
    monkeypatch.setattr(fracldg.ldg, "LdgOperators", lambda *args: None)
    monkeypatch.setattr(fracldg.analysis, "FinalTimeError", NoError)
    monkeypatch.setattr(fracldg.analysis, "condition_number", lambda *args: 1.0)
    bench = Path(__file__).resolve().parents[1] / "perfbench" / "configs"
    paths = sorted(presets_dir().glob("*.yaml")) + sorted(bench.glob("*.yaml"))
    kinds = set()
    for path in paths:
        cfg = load_config(str(path))
        kinds.add(cfg.kind)
        built.clear()
        monkeypatch.setattr(fracldg.meshes, "GradedTimeMesh", recording_build)
        fracldg.cli._RUNNERS[cfg.kind](cfg)
        monkeypatch.setattr(fracldg.meshes, "GradedTimeMesh", build)
        expected = [(M, gamma) for _, M, gamma in fracldg.cli._time_meshes(cfg)]
        if cfg.kind == "spatial-convergence":
            expected *= len(cfg.nx_list)
        assert built == expected, path.name
    assert kinds == set(fracldg.cli._RUNNERS)


def test_validate_config_verb(capsys):
    assert main(["validate-config", "--config", "table8-cond"]) == 0
    out = capsys.readouterr().out
    assert "ok: table8-cond (condition-number)" in out


def test_list_presets_verb(capsys):
    assert main(["list-presets"]) == 0
    out = capsys.readouterr().out
    assert "table1-row1" in out and "table8-cond" in out
    count = len(list(presets_dir().glob("*.yaml")))
    assert f"{count} presets" in out


def test_main_leaves_no_cyclic_garbage(tmp_path):
    # An argparse tree is 134 objects in reference cycles, enough garbage
    # per call to set off collections inside a multi-study run, so main
    # builds its parser once per process. After one warm-up call of each
    # verb, further calls with the collector off leave nothing to collect.
    import gc

    verbs = (["list-presets"], ["validate-config", "--config", "table6-row1"],
             ["validate-config", "--config", "no-such-preset"],
             ["run", "--config", "table8-cond", "--out", str(tmp_path / "out")])
    for argv in verbs:
        main(argv)
    gc.collect()
    gc.disable()
    try:
        codes = [main(argv) for argv in verbs + verbs]
        garbage = gc.collect()
    finally:
        gc.enable()
    assert codes == [0, 0, 2, 0] * 2
    assert garbage == 0


def test_run_writes_csv_and_text_report(tmp_path, capsys):
    cfg_path = _write_config(tmp_path, _base_config())
    assert main(["run", "--config", cfg_path, "--out", str(tmp_path / "out")]) == 0
    out = capsys.readouterr().out
    assert "wrote" in out
    csv_text = (tmp_path / "out" / "tiny.csv").read_text(encoding="utf-8")
    lines = csv_text.strip().splitlines()
    assert lines[0] == "param,error,rate"
    assert lines[1].startswith("1/4,")
    assert (tmp_path / "out" / "tiny.txt").exists()


def test_run_spatial_reports_rates_and_plot(tmp_path):
    cfg_path = _write_config(tmp_path, _base_config("spatial-convergence", name="tiny-spatial"))
    assert main(["run", "--config", cfg_path, "--out", str(tmp_path / "out"), "--plot"]) == 0
    lines = (tmp_path / "out" / "tiny-spatial.csv").read_text().strip().splitlines()
    assert len(lines) == 3
    assert lines[1].endswith(",")          # first row has no rate
    assert not lines[2].endswith(",")      # second row does
    svg = (tmp_path / "out" / "tiny-spatial.svg").read_text()
    assert svg.startswith("<svg") or "<svg" in svg


@pytest.mark.parametrize("ys", [[1e-2, 0.0], [1e-2, -1e-3], [1e-2], [1e-2, math.nan],
                                [1e-2, math.inf]],
                         ids=["zero", "negative", "short", "nan", "inf"])
def test_loglog_svg_rejects_what_it_cannot_draw(tmp_path, ys):
    # A zero, negative, nan or infinite error has no place on a log axis,
    # and a series needs one y per x; each raises before anything is
    # written, where a nan would write nan coordinates and an infinity
    # overflow in the decade ticks.
    path = tmp_path / "e.svg"
    with pytest.raises(InvalidArgumentError, match="series 'e'"):
        write_loglog_svg(str(path), ("e", [0.5, 0.25], ys), "t", "h", "error E")
    assert not path.exists()
    write_loglog_svg(str(path), ("e", [0.5, 0.25], [1e-2, 2.5e-3]), "t", "h", "error E")
    svg = path.read_text()
    assert svg.count("<polyline") == 1 and svg.count("slope ") == 3


def test_loglog_svg_escapes_its_text(tmp_path):
    # Title, axis labels and series label may hold XML's special characters;
    # the file must still parse and read back the same text.
    path = tmp_path / "e.svg"
    texts = ("a<b", "Q0 & Q1 <h>", "h > 0", "E & F")
    write_loglog_svg(str(path), (texts[0], [0.5, 0.25], [1e-2, 2.5e-3]), *texts[1:])
    found = {el.text for el in ET.parse(path).getroot().iter("{http://www.w3.org/2000/svg}text")}
    assert set(texts) <= found


def test_deterministic_reruns_are_byte_identical(tmp_path):
    cfg_path = _write_config(tmp_path, _base_config("spatial-convergence", name="tiny-det"))
    for sub in ("a", "b"):
        rc = main([
            "run", "--config", cfg_path, "--out", str(tmp_path / sub), "--deterministic",
        ])
        assert rc == 0
    a = (tmp_path / "a" / "tiny-det.csv").read_bytes()
    b = (tmp_path / "b" / "tiny-det.csv").read_bytes()
    assert a == b


def test_check_flag_controls_exit_code(tmp_path, capsys):
    d = _base_config(name="tiny-check",
                     expect={"errors": [1.0], "error_rtol": 1e-6})
    cfg_path = _write_config(tmp_path, d)
    assert main(["run", "--config", cfg_path, "--out", str(tmp_path / "o1")]) == 0
    assert "FAIL" in capsys.readouterr().out
    rc = main(["run", "--config", cfg_path, "--out", str(tmp_path / "o2"), "--check"])
    assert rc == 4


def test_config_errors_exit_2(tmp_path, capsys):
    assert main(["run", "--config", str(tmp_path / "absent.yaml")]) == 2
    assert "config error" in capsys.readouterr().err
    bad = tmp_path / "bad.yaml"
    bad.write_text("kind: [unclosed", encoding="utf-8")
    assert main(["run", "--config", str(bad)]) == 2
    assert "not valid YAML" in capsys.readouterr().err
    assert main(["validate-config", "--config", "missing-thing"]) == 2


def test_non_utf8_config_is_a_config_error(tmp_path, capsys):
    bad = tmp_path / "bad.yaml"
    bad.write_bytes(b"name: tiny\xff\nkind: single-run\n")
    for verb in ("validate-config", "run"):
        assert main([verb, "--config", str(bad)]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and "not UTF-8 text" in err


def test_out_naming_a_file_fails_before_any_solve(tmp_path, capsys, monkeypatch):
    import fracldg.ldg

    def no_solve(*args, **kwargs):
        raise AssertionError("solve called although --out cannot be created")

    monkeypatch.setattr(fracldg.ldg, "solve", no_solve)
    out = tmp_path / "taken"
    out.write_text("not a directory", encoding="utf-8")
    cfg_path = _write_config(tmp_path, _base_config())
    assert main(["run", "--config", cfg_path, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "config error: --out" in err and "output directory" in err
    assert out.read_text(encoding="utf-8") == "not a directory"


@pytest.mark.parametrize("text,needle", [
    ("time: {M: 3, gama: 6.0}", "cfg.yaml.time: unknown keys ['gama']"),
    ("nx: .inf", "cfg.yaml.nx: expected a finite number"),
    ("time: {M: 3, T: .nan}", "cfg.yaml.time.T: expected a finite number"),
    ("expect: {cond_monotone: \"false\"}", "cfg.yaml.expect.cond_monotone: expected true or false"),
    ("name: sub/t", "cfg.yaml.name must be a single file name"),
])
def test_validate_config_rejects_bad_yaml_values(tmp_path, capsys, text, needle):
    base = "name: tiny\nkind: single-run\nalpha: 0.5\nnx: 4\ntime: {M: 3, gamma: 2.0, T: 0.1}"
    key = text.split(":")[0]
    lines = [line for line in base.splitlines() if line.split(":")[0] != key]
    p = tmp_path / "cfg.yaml"
    p.write_text("\n".join(lines + [text]) + "\n", encoding="utf-8")
    assert main(["validate-config", "--config", str(p)]) == 2
    assert f"config error: {needle}" in capsys.readouterr().err


def test_run_with_path_in_name_writes_nothing(tmp_path, capsys):
    for name in ("sub/t", "../t"):
        cfg_path = _write_config(tmp_path, _base_config(name=name))
        assert main(["run", "--config", cfg_path, "--out", str(tmp_path / "out")]) == 2
        assert "config error:" in capsys.readouterr().err
        assert [p.name for p in tmp_path.rglob("*")] == ["cfg.yaml"]


def test_numeric_failure_exits_3(tmp_path, capsys, monkeypatch):
    def boom(*args, **kwargs):
        raise NumericError("synthetic breakdown")

    monkeypatch.setattr(fracldg.analysis, "condition_number", boom)
    cfg_path = _write_config(tmp_path, _base_config("condition-number", name="tiny-cond"))
    assert main(["run", "--config", cfg_path, "--out", str(tmp_path / "out")]) == 3
    assert "numeric failure" in capsys.readouterr().err


def test_nonfinite_solve_exits_3(tmp_path, capsys, monkeypatch):
    # A source that evaluates to NaN must stop the run with exit code 3 and a
    # diagnostic, not write a NaN error to the CSV.
    real_example2 = fracldg.problems.example2

    def nan_source(alpha, delta=None):
        prob = real_example2(alpha, delta=delta)
        return dataclasses.replace(prob, f=lambda t, x, y: (np.full(np.shape(x), np.nan), np.ones(np.shape(y))))

    monkeypatch.setattr(fracldg.problems, "example2", nan_source)
    cfg_path = _write_config(tmp_path, _base_config(problem="example2"))
    out = tmp_path / "out"
    assert main(["run", "--config", cfg_path, "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert "numeric failure" in err and "not finite" in err
    assert not list(out.glob("*.csv"))


def test_run_larger_than_physical_memory_exits_3(tmp_path, capsys, monkeypatch):
    # The probe reports 4 MiB; the streamed run (16 x 16 Q1, M = 800) would
    # hold ~7.1 MB. The run stops before it assembles or allocates anything.
    import fracldg.ldg
    from fracldg.basis import BasisSpec
    from fracldg.meshes import SpatialMesh

    def no_assembly(*args, **kwargs):
        raise AssertionError("operators assembled before the footprint check")

    monkeypatch.setattr(fracldg.errors, "physical_memory_bytes", lambda: 4 * 2**20)
    monkeypatch.setattr(fracldg.ldg, "LdgOperators", no_assembly)
    d = _base_config(name="too-big", problem="example2", degree=1, nx=16,
                     time={"M": 800, "gamma": 2.0, "T": 0.1})
    out = tmp_path / "out"
    assert main(["run", "--config", _write_config(tmp_path, d), "--out", str(out)]) == 3
    need = fracldg.ldg.footprint_bytes(SpatialMesh(16, 16), 800, BasisSpec(1))
    err = capsys.readouterr().err
    assert "numeric failure" in err and f"needs {need} bytes" in err
    assert not list(out.glob("*.csv"))


@pytest.mark.parametrize("kind,key,value", [
    ("single-run", "time", {"M": 100000000000000000000, "gamma": 2.0, "T": 0.1}),
    ("single-run", "time", {"M": 2000000000, "gamma": 2.0, "T": 0.1}),
    ("spatial-convergence", "nx_list", [3, 10**12]),
    ("temporal-convergence", "M_list", [2, 10**15]),
    ("condition-number", "time", {"M": 10**20, "T": 0.1}),
    ("single-run", "nx", 1e300),  # more bytes than a float holds
])
def test_config_too_large_for_memory_is_refused_before_any_time_mesh(
    tmp_path, capsys, monkeypatch, kind, key, value
):
    # Each run would hold far more than any machine's memory: its time mesh
    # alone, of M + 1 floats, could not be allocated. Both verbs size every
    # case with footprint_bytes and refuse it, exit 3 with solve's message,
    # before anything builds a time mesh; the builder is patched to raise,
    # so no such mesh is ever attempted here, and a verb allocates little.
    import tracemalloc

    import fracldg.meshes

    def no_mesh(*args):
        raise AssertionError("time mesh built before the footprint check")

    monkeypatch.setattr(fracldg.meshes, "GradedTimeMesh", no_mesh)
    path = _write_config(tmp_path, _base_config(kind, **{key: value}))
    for argv in (["validate-config", "--config", path],
                 ["run", "--config", path, "--out", str(tmp_path / "out")]):
        tracemalloc.start()
        try:
            assert main(argv) == 3, argv
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20, (argv, peak)
        err = capsys.readouterr().err
        assert err.startswith("numeric failure: the run needs ") and err.count("\n") == 1, err
        assert "bytes of physical memory" in err, err
    assert not (tmp_path / "out").exists() or not list((tmp_path / "out").iterdir())


def test_refusal_names_the_footprint_of_the_case_over_the_limit(tmp_path, capsys, monkeypatch):
    # The refusal names the bytes of the first case over the limit, exactly
    # the number solve would name for it.
    import fracldg.ldg
    from fracldg.basis import BasisSpec
    from fracldg.meshes import SpatialMesh

    d = _base_config("spatial-convergence", degree=1, nx_list=[2, 16],
                     time={"M": 800, "gamma": 2.0, "T": 0.1})
    small = fracldg.ldg.footprint_bytes(SpatialMesh(2, 2), 800, BasisSpec(1))
    need = fracldg.ldg.footprint_bytes(SpatialMesh(16, 16), 800, BasisSpec(1))
    monkeypatch.setattr(fracldg.errors, "physical_memory_bytes", lambda: need - 1)
    assert small < need - 1
    assert main(["validate-config", "--config", _write_config(tmp_path, d)]) == 3
    assert f"needs {need} bytes" in capsys.readouterr().err
    monkeypatch.setattr(fracldg.errors, "physical_memory_bytes", lambda: need)
    assert main(["validate-config", "--config", _write_config(tmp_path, d)]) == 0


def test_condition_rows_are_sized_with_their_fourier_blocks(tmp_path, capsys, monkeypatch):
    # condition_number holds all nx ny Fourier blocks at once, with the
    # parts they are summed from: 19 487 184 B at nx 12, degree 8, thirteen
    # times the 1 449 984 B footprint of a solve at M 1. With a 4 MiB probe
    # both verbs refuse the row for its blocks, before any operator is
    # assembled.
    import fracldg.ldg
    from fracldg.basis import BasisSpec
    from fracldg.meshes import SpatialMesh

    def no_assembly(*args, **kwargs):
        raise AssertionError("operators assembled before the footprint check")

    mesh, basis = SpatialMesh(12, 12), BasisSpec(8)
    solve_bytes = fracldg.ldg.footprint_bytes(mesh, 1, basis)
    blocks = fracldg.analysis._fourier_blocks_bytes(mesh, basis)
    assert (solve_bytes, blocks) == (1_449_984, 19_487_184)
    monkeypatch.setattr(fracldg.errors, "physical_memory_bytes", lambda: 4 * 2**20)
    monkeypatch.setattr(fracldg.ldg, "LdgOperators", no_assembly)
    d = _base_config("condition-number", nx=12, time={"M": 1, "T": 0.1},
                     cond_rows=[{"degree": 8, "alpha": 0.5, "gamma": 1.0}])
    path = _write_config(tmp_path, d)
    out = tmp_path / "out"
    for argv in (["validate-config", "--config", path], ["run", "--config", path, "--out", str(out)]):
        assert main(argv) == 3, argv
        err = capsys.readouterr().err
        assert err.startswith("numeric failure: the run needs ") and err.count("\n") == 1, err
        assert f"needs {solve_bytes + blocks} bytes" in err, err
    assert not out.exists() or not list(out.iterdir())


#: Values a config key may be changed to: the kinds of YAML scalar, list and
#: map that a hand-edited config can hold, with the extremes of each number
#: (1e400 reads as inf, 1e-320 is subnormal, 10**20 and 2**63 exceed any
#: size a machine holds and are refused for their size).
_ODD_VALUES = (
    None, True, False, 0, -1, -2.5, 1e400, float("nan"), 10**20, 2**63, 1e-320,
    "x", "", [], [1, 2], {}, {"a": 1},
)


def _key_paths(node, path=()) -> list[tuple]:
    """Every key of a config mapping and every entry of its lists, at any
    depth, as the path of keys and indices that reaches it."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return []
    return [p for key, child in items for p in [path + (key,)] + _key_paths(child, path + (key,))]


_PRESET_DICTS = [yaml.safe_load(p.read_text(encoding="utf-8"))
                 for p in sorted(presets_dir().glob("*.yaml"))]
_PRESET_KEYS = [(i, path) for i, d in enumerate(_PRESET_DICTS) for path in _key_paths(d)]


@settings(max_examples=200, deadline=None)
@given(case=st.sampled_from(_PRESET_KEYS), value=st.sampled_from(_ODD_VALUES))
def test_no_single_key_change_of_a_preset_reaches_a_traceback(tmp_path_factory, case, value):
    # One key of a shipped preset set to any value of the pool: validate-config
    # accepts it (0), names the bad key (2) or refuses the run for its size
    # (3), with one line on stderr, and never lets an exception escape.
    index, path = case
    d = copy.deepcopy(_PRESET_DICTS[index])
    owner = d
    for key in path[:-1]:
        owner = owner[key]
    owner[path[-1]] = value
    cfg = tmp_path_factory.mktemp("odd") / "cfg.yaml"
    cfg.write_text(yaml.safe_dump(d), encoding="utf-8")
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        rc = main(["validate-config", "--config", str(cfg)])
    err = err.getvalue()
    assert rc in (0, 2, 3), (path, value, rc, err)
    assert "Traceback" not in err
    assert err.count("\n") == (0 if rc == 0 else 1), (path, value, err)


#: Each of the seven admissible ranges: its owner in fracldg.errors, the key
#: path the CLI reads it from and the keys of the single-run config it is
#: changed in.
_OWNED_KEYS = {
    "alpha": (check_alpha, ("alpha",), {}),
    "delta": (check_delta, ("delta",), {"problem": "example2"}),
    "gamma": (check_gamma, ("time", "gamma"), {}),
    "T": (check_T, ("time", "T"), {}),
    "M": (check_count, ("time", "M"), {}),
    "k": (check_degree, ("degree",), {}),
    "sigma": (check_sigma, ("flux", 0), {}),
}


@pytest.mark.parametrize("param", _OWNED_KEYS)
def test_config_reader_and_owner_agree_on_every_value(param):
    # The reader states no range itself: on every value of the pool the
    # owner and config_from_dict both accept or both refuse, and the
    # config's message is the owner's with the key path for the name. M is
    # 1, so no grading underflows; an admitted count too large for memory is
    # refused for its size (NumericError), after the reader took it. A null
    # delta is an absent one, which example2 reads as delta = alpha. Beside
    # the pool, the values at and next to each range's bounds catch a range
    # restated with another bound; for a count or the degree, whose reader
    # reads an integral float as an int, only integers.
    owner, path, overrides = _OWNED_KEYS[param]
    key = "config" + "".join(f"[{p}]" if isinstance(p, int) else f".{p}" for p in path)
    bounds = (0, 1, 2, 8, 9) if owner in (check_count, check_degree) else (
        0.0, 1e-9, 0.5, 1.0 - 1e-9, 1.0, 1.0 + 1e-9, 2.0 - 1e-9, 2.0)
    for value in _ODD_VALUES + bounds:
        d = _base_config(**overrides, time={"M": 1, "gamma": 2.0, "T": 0.1})
        parent = d
        for p in path[:-1]:
            parent = parent[p]
        parent[path[-1]] = value
        try:
            owner(d["alpha"] if param == "delta" and value is None else value, param)
            clause = None
        except InvalidArgumentError as exc:
            clause = str(exc)[len(param):]
        try:
            config_from_dict(d)
        except ConfigError as exc:
            assert clause is not None and str(exc) == key + clause, (value, str(exc), clause)
        except NumericError:
            assert clause is None and param == "M", value
        else:
            assert clause is None, (value, clause)


def test_integer_past_the_float_range_is_a_config_error(tmp_path, capsys):
    # YAML reads 1 followed by 400 zeros as an int that no float holds; the
    # real check names it instead of letting float() overflow.
    d = _base_config(alpha=10**400)
    assert main(["validate-config", "--config", _write_config(tmp_path, d)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: cfg.yaml.alpha: expected a finite number, got 1000"), err


def test_integral_floats_read_as_counts_and_degrees():
    # A hand-written count may carry a decimal point. The library refuses a
    # float count, so the reader makes an integral one an int first.
    cfg = config_from_dict(_base_config("spatial-convergence", degree=1.0, nx_list=[3.0, 4],
                                        time={"M": 3.0, "gamma": 2.0, "T": 0.1}))
    assert (cfg.degree, cfg.nx_list, cfg.M) == (1, (3, 4), 3)
    assert all(type(n) is int for n in (cfg.degree, cfg.M, *cfg.nx_list))


#: Small admissible values of each numeric argument of the library gate:
#: nx, ny <= 3, M <= 4 and k <= 2.
_LIBRARY_ARGS = {
    "alpha": (0.3, 0.7), "delta": (None, 0.6, 1.4), "nx": (1, 2, 3), "ny": (1, 2, 3),
    "k": (0, 1, 2), "sigma1": (0.0, 0.3, 1.0), "sigma2": (0.0, 0.7, 1.0), "M": (1, 2, 3, 4),
    "gamma": (1.0, 6.0), "T": (0.1, 1.0),
}


@settings(max_examples=200, deadline=None)
@given(data=st.data(), problem=st.sampled_from((example1, example2)))
def test_no_library_argument_of_the_pool_reaches_a_traceback(data, problem):
    # The library keeps the CLI's promise. Up to two numeric arguments of
    # the constructors and of solve are drawn from the pool, the rest from
    # small admissible values: the run observes only finite fields or raises
    # a FracLdgError, and footprint_bytes of admissible sizes is an int.
    import fracldg.ldg
    from fracldg.basis import BasisSpec
    from fracldg.meshes import GradedTimeMesh, SpatialMesh

    a = {key: data.draw(st.sampled_from(values), label=key) for key, values in _LIBRARY_ARGS.items()}
    for key in data.draw(st.lists(st.sampled_from(sorted(_LIBRARY_ARGS)), max_size=2, unique=True)):
        a[key] = data.draw(st.sampled_from(_ODD_VALUES), label=key)

    def observe(n, u):
        assert np.isfinite(u.coeffs).all(), n

    try:
        prob = example1(a["alpha"]) if problem is example1 else example2(a["alpha"], a["delta"])
        mesh = SpatialMesh(a["nx"], a["ny"])
        basis = BasisSpec(a["k"])
        fw = fracldg.ldg.FluxWeights(a["sigma1"], a["sigma2"])
        tm = GradedTimeMesh(a["M"], a["gamma"], a["T"])
        assert type(fracldg.ldg.footprint_bytes(mesh, tm.M, basis)) is int
        fracldg.ldg.solve(prob, mesh, tm, basis, fw, observe)
    except FracLdgError:
        pass


def test_subnormal_final_time_overflows_the_norm_of_the_step_rhs():
    # An admissible T = 1e-320 gives A_0^1 = tau^-0.7 / Gamma(1.3) ~ 1e224
    # and a right-hand side of ~2e205, whose square no float holds. The
    # step takes the norms rescaled and observes a finite field; sqrt(b @ b)
    # made numpy warn of the overflow and, outside the suite, stopped the
    # run with "right-hand side is not finite".
    import fracldg.ldg
    from fracldg.basis import BasisSpec
    from fracldg.meshes import GradedTimeMesh, SpatialMesh

    def observe(n, u):
        assert np.isfinite(u.coeffs).all(), n

    fracldg.ldg.solve(example1(0.7), SpatialMesh(1, 1), GradedTimeMesh(1, 1.0, 1e-320),
                      BasisSpec(0), fracldg.ldg.FluxWeights(1.0, 0.0), observe)


def _solving_studies() -> list[str]:
    """Every shipped preset that calls solve, and the benchmark's long-memory run."""
    presets = [p.stem for p in sorted(presets_dir().glob("*.yaml"))]
    repo = Path(fracldg.cli.__file__).resolve().parents[2]
    return [name for name in presets if load_config(name).kind != "condition-number"] + [
        str(repo / "perfbench" / "configs" / "long-memory.yaml")
    ]


@pytest.mark.filterwarnings("ignore:central flux weight")
@pytest.mark.parametrize("config", _solving_studies(), ids=lambda c: Path(c).stem)
def test_cli_errors_equal_functional_of_full_trajectory(config, tmp_path, monkeypatch):
    # Differential check of the streamed CLI path: every error a study
    # reports equals, as a float, the defining formula of its functional on
    # all levels of a run with the same arguments, kept by a collecting
    # observer. The formulas are the test oracles, not the CLI's observers.
    import fracldg.ldg

    solve = fracldg.ldg.solve
    emit = fracldg.cli._emit
    calls, reports = [], []

    def recording_solve(prob, mesh, tm, basis, fw, observe):
        calls.append((prob, mesh, tm, basis, fw))
        return solve(prob, mesh, tm, basis, fw, observe)

    def recording_emit(report, cfg, out_dir, plot):
        reports.append(report)
        return emit(report, cfg, out_dir, plot)

    monkeypatch.setattr(fracldg.ldg, "solve", recording_solve)
    monkeypatch.setattr(fracldg.cli, "_emit", recording_emit)
    assert main(["run", "--config", config, "--out", str(tmp_path), "--check"]) == 0
    [report] = reports
    assert len(calls) == len(report.errors) > 0
    for (prob, mesh, tm, basis, fw), err in zip(calls, report.errors):
        fields = solve_fields(prob, mesh, tm, basis, fw)
        assert err == final_time_error(fields, tm, mesh, basis, prob.exact)


def test_condition_study_assembles_each_operator_once(tmp_path, monkeypatch):
    # table8-cond has 6 (degree, alpha, gamma) rows over 3 degrees and 4 flux
    # pairs: 12 distinct operators, assembled 24 times when each row built
    # its own. Operators are values, so distinct inputs give distinct ones.
    import fracldg.ldg

    build = fracldg.ldg.LdgOperators
    built = []

    def counting(mesh, basis, fw):
        built.append(build(mesh, basis, fw))
        return built[-1]

    monkeypatch.setattr(fracldg.ldg, "LdgOperators", counting)
    assert main(["run", "--config", "table8-cond", "--out", str(tmp_path), "--check"]) == 0
    assert len(built) == 12
    assert len(set(built)) == 12


def test_q2_graded_run_peak_rss_is_bounded(tmp_path):
    # example2 with Q2 elements on a graded time mesh: A_0^n changes at every
    # one of the 100 steps, so storing anything per distinct A_0^n (such as a
    # factorization) climbs to about 1 GB here. The child reports its own
    # peak RSS, which RUSAGE_CHILDREN would mix with other tests' children.
    d = _base_config(name="q2-rss", problem="example2", alpha=0.3, delta=0.3,
                     degree=2, nx=16, time={"M": 100, "gamma": 6.0, "T": 0.1})
    cfg_path = _write_config(tmp_path, d)
    child = (
        "import resource, sys\n"
        "from fracldg.cli import main\n"
        "rc = main(sys.argv[1:])\n"
        "print(rc, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)\n"
    )
    src = Path(fracldg.analysis.__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-c", child, "run", "--config", cfg_path,
         "--out", str(tmp_path / "out"), "--threads", "1"],
        env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    rc, maxrss = proc.stdout.split()[-2:]
    assert rc == "0"
    peak_mb = int(maxrss) / (2**20 if sys.platform == "darwin" else 2**10)
    assert peak_mb < 200.0


def test_check_report_compares_errors_rates_and_conditioning():
    rep = ErrorReport(
        kind="spatial-convergence",
        param_name="h",
        params=["1/4", "1/8"],
        errors=[1.0e-2, 2.5e-3],
        rates=[2.0],
        meta={"groups": [("Q0 alpha=0.7", [5.0, 4.0, 4.5])]},
    )
    exp = Expectations(
        errors=(1.0e-2, 2.6e-3), error_rtol=0.05,
        rates=(2.05,), rate_atol=0.1, cond_monotone=True,
    )
    checks = check_report(rep, exp)
    assert [ok for ok, _ in checks] == [True, True, True, False]
    assert "monotone" in checks[3][1]

    missing = check_report(rep, Expectations(errors=(1.0e-2, 2.5e-3, 9.9e-4)))
    assert missing[2][0] is False and "missing" in missing[2][1]

    cond_rep = ErrorReport(
        kind="condition-number", param_name="case",
        params=["Q0 alpha=0.7 flux=1:0"], errors=[14.0], rates=[], meta={},
    )
    hit = check_report(cond_rep, Expectations(cond_anchor=(0, 0.7, 1.0, 0.0, 14.294, 2.0)))
    assert hit == [(True, hit[0][1])] and "anchor" in hit[0][1]
    miss = check_report(cond_rep, Expectations(cond_anchor=(1, 0.7, 1.0, 0.0, 14.294, 2.0)))
    assert miss[0][0] is False
