from __future__ import annotations

import copy
import dataclasses
import os
import re
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import yaml
import pytest

import fracldg.analysis
import fracldg.cli
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
from fracldg.errors import ConfigError, InvalidArgumentError, NumericError
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
    ({"kind": "temporal-convergence", "M_list": [2, 1000], "time": {"gamma": 200}},
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

    build = fracldg.meshes.build_graded_time_mesh
    built = []

    def recording_build(M, gamma, T):
        built.append((M, gamma))
        return build(M, gamma, T)

    monkeypatch.setattr(fracldg.ldg, "solve", lambda *args: None)
    monkeypatch.setattr(fracldg.ldg, "assemble_operators", lambda *args: None)
    monkeypatch.setattr(fracldg.analysis, "FinalTimeError", NoError)
    monkeypatch.setattr(fracldg.analysis, "condition_number", lambda *args: 1.0)
    bench = Path(__file__).resolve().parents[1] / "perfbench" / "configs"
    paths = sorted(presets_dir().glob("*.yaml")) + sorted(bench.glob("*.yaml"))
    kinds = set()
    for path in paths:
        cfg = load_config(str(path))
        kinds.add(cfg.kind)
        built.clear()
        monkeypatch.setattr(fracldg.meshes, "build_graded_time_mesh", recording_build)
        fracldg.cli._RUNNERS[cfg.kind](cfg)
        monkeypatch.setattr(fracldg.meshes, "build_graded_time_mesh", build)
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


@pytest.mark.parametrize("ys", [[1e-2, 0.0], [1e-2, -1e-3], [1e-2]],
                         ids=["zero", "negative", "short"])
def test_loglog_svg_rejects_what_it_cannot_draw(tmp_path, ys):
    # A zero or negative error has no logarithm, and a series needs one y
    # per x; either raises before anything is written.
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
        return dataclasses.replace(prob, f=lambda t, x, y: np.full(np.broadcast(x, y).shape, np.nan))

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
    from fracldg.meshes import build_spatial_mesh

    def no_assembly(*args, **kwargs):
        raise AssertionError("operators assembled before the footprint check")

    monkeypatch.setattr(fracldg.ldg, "physical_memory_bytes", lambda: 4 * 2**20)
    monkeypatch.setattr(fracldg.ldg, "assemble_operators", no_assembly)
    d = _base_config(name="too-big", problem="example2", degree=1, nx=16,
                     time={"M": 800, "gamma": 2.0, "T": 0.1})
    out = tmp_path / "out"
    assert main(["run", "--config", _write_config(tmp_path, d), "--out", str(out)]) == 3
    need = fracldg.ldg.footprint_bytes(build_spatial_mesh(16, 16), 800, BasisSpec(1))
    err = capsys.readouterr().err
    assert "numeric failure" in err and f"needs {need} bytes" in err
    assert not list(out.glob("*.csv"))


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
    # its own.
    import fracldg.ldg

    assemble = fracldg.ldg.assemble_operators
    calls = []

    def counting(mesh, basis, fw):
        calls.append((basis.k, fw.sigma1, fw.sigma2))
        return assemble(mesh, basis, fw)

    monkeypatch.setattr(fracldg.ldg, "assemble_operators", counting)
    assert main(["run", "--config", "table8-cond", "--out", str(tmp_path), "--check"]) == 0
    assert len(calls) == 12
    assert len(set(calls)) == 12


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
