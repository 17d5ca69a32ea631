import csv
import filecmp
import hashlib
import json
import os
import re
import subprocess
import sys
import tracemalloc
from dataclasses import fields, replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import spinpad
from spinpad import cli, energy
from spinpad.arraymodel import (ArrayMetrics, CalibrationTable, MemoryTechnology,
                                metrics_at_capacity)
from spinpad.cli import _COMMANDS, _json_text, _parse_float_list, build_parser, main
from spinpad.dataflow import AcceleratorConfig
from spinpad.energy import SystemEnergyConfig
from spinpad.errors import ConfigError
from spinpad.errortrain import (BufferErrorBinding, ExperimentConfig, SegmentErrorConfig,
                                TinyNetSpec, make_moons_dataset, train_reference)
from spinpad.magnetics import MagSimConfig, MtjDevice, WerCurve, run_wer_sweep


CONFIGS = Path(__file__).parent.parent / "configs"


def run_cli(*argv):
    return main(list(argv))


def read_csv(path):
    with open(path) as fh:
        first = fh.readline()
        assert first == "# manifest: manifest.json\n"
        return list(csv.DictReader(fh))


def read_json(path):
    with open(path) as fh:
        doc = json.load(fh)
    assert doc["manifest"] == "manifest.json"
    return doc


def read_manifest(out_dir):
    with open(out_dir / "manifest.json") as fh:
        return json.load(fh)


def assert_stdlib_json_format(out_dir):
    """Every JSON file the run wrote, manifest.json included, reads as the
    stdlib's indent=2, sort_keys=True spelling of its own content."""
    names = sorted(p.name for p in out_dir.glob("*.json"))
    assert "manifest.json" in names
    for name in names:
        text = (out_dir / name).read_text()
        assert text == json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n", name


def assert_rerun_identical(out_dir, tmp_path):
    """rerun rewrites every data file byte for byte; both runs pass the JSON format guard."""
    assert_stdlib_json_format(out_dir)
    replay = tmp_path / "replay"
    assert run_cli("rerun", str(out_dir / "manifest.json"), "--out", str(replay)) == 0
    assert_stdlib_json_format(replay)
    manifest = read_manifest(out_dir)
    for name in manifest["outputs"]:
        assert filecmp.cmp(out_dir / name, replay / name, shallow=False), name
    again = read_manifest(replay)
    again.pop("created")
    original = dict(manifest)
    original.pop("created")
    assert again == original


# ----------------------------------------------------------- grid parsing


def test_parse_comma_list():
    assert _parse_float_list("1,2.5,3", "--x") == [1.0, 2.5, 3.0]


def test_parse_colon_range_excludes_stop():
    assert _parse_float_list("50:80:6", "--x") == [50.0, 56.0, 62.0, 68.0, 74.0]


@pytest.mark.parametrize("text", ["", "a,b", "1:2", "5:1:1", "1:9:0", "1:9:-1"])
def test_parse_rejects_malformed(text):
    with pytest.raises(ConfigError):
        _parse_float_list(text, "--x")


@pytest.mark.parametrize("text", ["50:inf:1", "-inf:50:1", "50:80:inf", "nan:80:6",
                                  "50:nan:6", "50:80:nan", "nan,50", "50,inf", "-inf"])
def test_parse_rejects_non_finite(text):
    with pytest.raises(ConfigError, match="non-finite"):
        _parse_float_list(text, "--x")


def test_parse_step_error_names_the_step():
    with pytest.raises(ConfigError, match="step must be positive"):
        _parse_float_list("1:9:0", "--x")


@pytest.mark.parametrize("argv", [
    ("wer-sweep", "--amplitudes", "50:inf:1"),
    ("wer-sweep", "--amplitudes", "nan,50"),
    ("wer-sweep", "--durations", "inf"),
    ("wer-sweep", "--durations", "0.5:nan:1"),
    ("system-compare", "--sweep", "32.0,nan"),
    ("system-compare", "--sweep", "32:inf:1"),
])
def test_non_finite_grid_exits_one_and_writes_nothing(argv, tmp_path, capsys):
    out = tmp_path / "o"
    assert run_cli(*argv, "--out", str(out)) == 1
    assert "non-finite" in capsys.readouterr().err
    assert not out.exists()


# ------------------------------------------------------------ JSON writer

_JSON_FLOATS = st.one_of(
    st.floats(),  # nan, +-inf, +-0.0 and subnormals included
    st.sampled_from([0.0, -0.0, 5e-324, -2.2250738585072014e-308, 1e16, 1e-5,
                     float("inf"), float("-inf"), float("nan")]),
    st.floats(allow_nan=False).map(np.float64))
_JSON_TEXT = st.text(st.one_of(st.characters(), st.sampled_from('"\\\x00\x1f\x7f\n\t/')))
_JSON_LEAVES = st.one_of(_JSON_TEXT, st.integers(), st.booleans(), st.none(), _JSON_FLOATS)
_JSON_DOCS = st.recursive(
    _JSON_LEAVES,
    lambda children: st.one_of(st.lists(children, max_size=4),
                               st.lists(children, max_size=4).map(tuple),
                               st.dictionaries(_JSON_TEXT, children, max_size=4)),
    max_leaves=30)


@given(doc=_JSON_DOCS)
@settings(max_examples=300)
def test_json_writer_matches_stdlib_indent_bytes(doc):
    assert _json_text(doc) == json.dumps(doc, indent=2, sort_keys=True)


def test_json_writer_matches_stdlib_on_edge_values():
    doc = {"z": [], "a": {}, "e\u00e9\"\\": (1, -0.0, 5e-324, 1e16, np.float64(1e-5)),
           "n": [float("nan"), float("inf"), -float("inf"), None, True, False, [[], {}]],
           "\x00": {"b": {"c": 10 ** 30}}}
    assert _json_text(doc) == json.dumps(doc, indent=2, sort_keys=True)
    # a dict writes a finite float value inline: every other value beside it
    inline = {"f64": np.float64(0.1), "nan": float("nan"), "inf": float("inf"),
              "-inf": -float("inf"), "-0": -0.0, "tiny": 5e-324, "one": 1.0, "int": 3,
              "true": True, "none": None, "str": "1.5", "\u00e9": 2.5}
    # one key at several depths, beside and inside a list
    nested = {"k": {"k": {"k": 1.5, "j": [{"k": float("nan")}, {"k": -2.5}]}, "j": 0.5},
              "j": [{"k": {"k": {}}}]}
    # back to back, the second document reusing the first one's keys
    for doc in (inline, nested, {"k": "k", "j": [inline, nested]}, inline):
        assert _json_text(doc) == json.dumps(doc, indent=2, sort_keys=True)


# ------------------------------------------------------------ exit codes


def test_version_exits_zero(capsys):
    assert run_cli("--version") == 0
    assert "spinpad" in capsys.readouterr().out


def test_usage_error_exits_one():
    assert run_cli("no-such-command") == 1


def test_missing_config_file_exits_one(tmp_path):
    assert run_cli("array-sweep", "--config", str(tmp_path / "nope.json"),
                   "--out", str(tmp_path / "o")) == 1


def test_malformed_config_json_exits_one(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run_cli("array-sweep", "--config", str(bad),
                   "--out", str(tmp_path / "o")) == 1


def test_unknown_config_key_exits_one(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"capacitees_kb": [32.0]}))
    assert run_cli("array-sweep", "--config", str(bad),
                   "--out", str(tmp_path / "o")) == 1
    # a section that is not an object is named, not taken apart
    for section in ([1, 2], "abc"):
        bad.write_text(json.dumps({"device": section}))
        capsys.readouterr()
        assert run_cli("wer-sweep", "--config", str(bad),
                       "--out", str(tmp_path / "o")) == 1
        err = capsys.readouterr().err
        assert "device: expected an object" in err, err
    # a key naming a field the loader builds itself is unknown too: the net of
    # error-train comes from the top-level keys, a technology's kind from its form
    for command, doc, key in (
            ("error-train", _experiment(net=5), "net"),
            ("error-train", _experiment(net={"epochs": 2}), "net"),
            ("system-compare", {"sweep": [32.0], "tech_b": {"kind": "sram"}}, "kind"),
            ("system-compare", {"sweep": [32.0], "tech_b": {"kind": "mram_custom",
                                                           **_CUSTOM_TECH}}, "kind")):
        bad.write_text(json.dumps(doc))
        out = tmp_path / command
        assert run_cli(command, "--config", str(bad), "--out", str(out)) == 1
        err = capsys.readouterr().err
        assert f"unknown key(s) {key}" in err, err
        assert not out.exists()


def test_out_of_range_capacity_exits_one(tmp_path):
    assert run_cli("array-sweep", "--capacities", "1.0",
                   "--out", str(tmp_path / "o")) == 1


@pytest.mark.parametrize("argv", [
    ("array-sweep", "--seed", "1"),
    ("array-sweep", "--workers", "2"),
    ("system-compare", "--seed", "1"),
    ("system-compare", "--workers", "2"),
    ("hetero-write", "--seed", "1"),
    ("hetero-write", "--workers", "2"),
    ("error-train", "--workers", "2"),
])
def test_flag_the_subcommand_does_not_read_exits_one(argv, tmp_path):
    out = tmp_path / "o"
    assert run_cli(*argv, "--out", str(out)) == 1
    assert not out.exists()


@pytest.mark.parametrize("how", ["flag", "config"])
def test_worker_count_below_one_exits_one(how, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"workers": 0}))
    argv = ["--workers", "-4"] if how == "flag" else ["--config", str(cfg)]
    out = tmp_path / "o"
    assert run_cli("wer-sweep", "--trials", "1", *argv, "--out", str(out)) == 1
    err = capsys.readouterr().err
    assert "workers must be" in err, err
    assert not out.exists()


_CONFIG_COMMANDS = {"wer_sweep_": "wer-sweep", "compare_": "system-compare",
                    "hetero_write": "hetero-write", "error_train_": "error-train"}


@pytest.mark.parametrize("path", sorted(CONFIGS.glob("*.json")), ids=lambda p: p.name)
def test_bundled_config_resolves(path):
    """Each bundled config passes its subcommand's resolver, without a run."""
    (command,) = [c for prefix, c in _CONFIG_COMMANDS.items()
                  if path.name.startswith(prefix)]
    args = build_parser().parse_args([command, "--config", str(path)])
    _COMMANDS[command][1](args)


# ------------------------------------------------------------- wer-sweep


@pytest.fixture(scope="module")
def wer_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("wer")
    assert run_cli("wer-sweep", "--trials", "60", "--out", str(out)) == 0
    return out


def test_wer_sweep_csv_structure(wer_run):
    rows = read_csv(wer_run / "sweep.csv")
    assert len(rows) == 5
    assert list(rows[0]) == ["amplitude_uA", "duration_ns", "trials",
                             "p_switch", "ln_wer"]
    assert all(r["trials"] == "60" for r in rows)


def test_wer_sweep_ladder_increases_and_has_baseline(wer_run):
    doc = read_json(wer_run / "ladder.json")
    (fit,) = doc["durations"]
    assert fit["r_squared"] > 0.8
    targets = [e["target_wer"] for e in fit["ladder"]]
    amps = [e["amplitude_ua"] for e in fit["ladder"]]
    assert targets == sorted(targets, reverse=True)
    assert 8.62e-10 in targets
    assert amps == sorted(amps)  # rarer errors need more current


def test_wer_sweep_manifest_records_seed(wer_run):
    manifest = read_manifest(wer_run)
    assert manifest["command"] == "wer-sweep"
    assert manifest["seed"] == manifest["config"]["simulation"]["seed"] == 20240817
    assert manifest["outputs"] == ["sweep.csv", "ladder.json"]


def test_wer_sweep_rerun_byte_identical(wer_run, tmp_path):
    assert_rerun_identical(wer_run, tmp_path)


# sha256 of (sweep.csv, ladder.json) of the default 300 K sweep at 60 trials:
# five points in one batch over about 50 compaction chunks. A change to the
# thermal integrator or the stream layout that flips one trial's outcome fails here.
PINNED_WER_SWEEP = ("8472083b3833f5d9b67ddc17ebb5898362b6587d77106fa4df4a611385183e9e",
                    "e7feb7a75e1b1a236abfa57f2bc966777b7e2ec4a262de15884a77c280fe6553")


def test_wer_sweep_outputs_pinned(wer_run):
    digests = tuple(hashlib.sha256((wer_run / f).read_bytes()).hexdigest()
                    for f in ("sweep.csv", "ladder.json"))
    assert digests == PINNED_WER_SWEEP


def test_wer_sweep_precedence_flag_beats_file_beats_default(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "simulation": {"trials": 50, "seed": 99},
        "durations_ns": [15.0],
    }))
    out = tmp_path / "o"
    assert run_cli("wer-sweep", "--config", str(cfg), "--trials", "60",
                   "--out", str(out)) == 0
    resolved = read_manifest(out)["config"]
    assert resolved["simulation"]["trials"] == 60  # flag wins
    assert resolved["simulation"]["seed"] == 99  # file beats default
    assert resolved["durations_ns"] == [15.0]
    assert resolved["amplitudes_ua"] == [50.0, 56.0, 62.0, 68.0, 74.0]
    assert resolved["simulation"]["time_step_ps"] == 1.0  # untouched default


def test_wer_sweep_zero_amplitude_never_switches(tmp_path):
    out = tmp_path / "o"
    assert run_cli("wer-sweep", "--amplitudes", "0.0,55.0,58.0,61.0,64.0",
                   "--trials", "60", "--out", str(out)) == 0
    rows = read_csv(out / "sweep.csv")
    assert rows[0]["amplitude_uA"] == "0.0"
    assert float(rows[0]["p_switch"]) == 0.0
    assert float(rows[0]["ln_wer"]) == 0.0


@pytest.mark.parametrize("key,value", [("trials", 2.5), ("seed", "7"), ("trials", True)])
def test_wer_sweep_non_integer_field_exits_one(tmp_path, capsys, key, value):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"simulation": {key: value}}))
    out = tmp_path / "o"
    assert run_cli("wer-sweep", "--config", str(cfg), "--out", str(out)) == 1
    assert re.search(f"simulation: {key} must be an integer", capsys.readouterr().err)
    assert not out.exists()


def test_wer_sweep_without_onset_exits_one(tmp_path):
    assert run_cli("wer-sweep", "--amplitudes", "1.0,2.0,3.0",
                   "--trials", "20", "--out", str(tmp_path / "o")) == 1


# a 5 ns grid small enough to run twice, with five post-onset points
_SMALL_WER = ("wer-sweep", "--durations", "5.0",
              "--amplitudes", "110,120,130,140,150", "--trials", "20")


@pytest.fixture(scope="module")
def small_wer_runs(tmp_path_factory):
    outs = {}
    for workers in (1, 2):
        outs[workers] = tmp_path_factory.mktemp(f"wer-w{workers}")
        assert run_cli(*_SMALL_WER, "--workers", str(workers),
                       "--out", str(outs[workers])) == 0
    return outs


def test_wer_sweep_workers_byte_identical(small_wer_runs):
    for data_file in ("sweep.csv", "ladder.json"):
        assert filecmp.cmp(small_wer_runs[1] / data_file,
                           small_wer_runs[2] / data_file, shallow=False)


def test_wer_sweep_csv_reads_back_as_library_points(small_wer_runs):
    back = WerCurve.from_csv(small_wer_runs[1] / "sweep.csv")
    curve = run_wer_sweep(MtjDevice(), [110.0, 120.0, 130.0, 140.0, 150.0], [5.0],
                          MagSimConfig(trials=20, seed=20240817))
    assert back.points == curve.points


# ----------------------------------------------------------- array-sweep


def test_array_sweep_matches_library(tmp_path):
    out = tmp_path / "o"
    assert run_cli("array-sweep", "--technologies", "sram,mram_base",
                   "--capacities", "32.0,183.0", "--out", str(out)) == 0
    rows = read_csv(out / "metrics.csv")
    assert len(rows) == 4
    table = CalibrationTable()
    for row in rows:
        tech = MemoryTechnology.from_name(row["technology"])
        m = metrics_at_capacity(table, tech, float(row["capacity_kb"]))
        assert float(row["write_energy_pj"]) == m.write_energy_pj
        assert float(row["area_mm2"]) == m.area_mm2
        assert float(row["wer"]) == m.wer


def test_array_sweep_rerun_byte_identical(tmp_path):
    out = tmp_path / "o"
    assert run_cli("array-sweep", "--out", str(out)) == 0
    assert_rerun_identical(out, tmp_path)


def test_array_sweep_unknown_technology_exits_one(tmp_path):
    assert run_cli("array-sweep", "--technologies", "dram",
                   "--out", str(tmp_path / "o")) == 1


# -------------------------------------------------------- system-compare


def test_system_compare_identity_pair_improvement_one(tmp_path):
    out = tmp_path / "o"
    assert run_cli("system-compare", "--tech-b", "sram",
                   "--sweep", "32.0,512.0", "--out", str(out)) == 0
    rows = read_csv(out / "compare.csv")
    assert [r["status"] for r in rows] == ["ok", "ok"]
    assert all(float(r["improvement"]) == 1.0 for r in rows)
    assert all(r["capacity_a_kb"] == r["capacity_b_kb"] for r in rows)


def test_system_compare_partial_failure_keeps_error_row(tmp_path):
    out = tmp_path / "o"
    assert run_cli("system-compare", "--sweep", "1.0,32.0",
                   "--out", str(out)) == 0
    rows = read_csv(out / "compare.csv")
    assert [r["status"] for r in rows] == ["error", "ok"]
    assert "outside calibrated range" in rows[0]["detail"]
    assert rows[0]["improvement"] == ""
    doc = read_json(out / "breakdown.json")
    assert [p["status"] for p in doc["points"]] == ["error", "ok"]


def test_system_compare_all_points_failing_exits_two(tmp_path):
    out = tmp_path / "o"
    assert run_cli("system-compare", "--sweep", "1.0,2.0",
                   "--out", str(out)) == 2
    rows = read_csv(out / "compare.csv")  # partial results still on disk
    assert [r["status"] for r in rows] == ["error", "error"]


def test_system_compare_iso_area_resolves_capacities(tmp_path):
    out = tmp_path / "o"
    assert run_cli("system-compare", "--mode", "iso-area", "--sweep", "0.5",
                   "--out", str(out)) == 0
    (row,) = read_csv(out / "compare.csv")
    assert float(row["capacity_b_kb"]) > float(row["capacity_a_kb"])
    doc = read_json(out / "breakdown.json")
    assert doc["mode"] == "iso-area"
    assert doc["points"][0]["tech_b"]["total_nj"] > 0


def test_system_compare_breakdown_matches_csv(tmp_path):
    out = tmp_path / "o"
    assert run_cli("system-compare", "--sweep", "32.0", "--out", str(out)) == 0
    (row,) = read_csv(out / "compare.csv")
    (point,) = read_json(out / "breakdown.json")["points"]
    assert float(row["improvement"]) == point["improvement"]
    assert float(row["total_a_nj"]) == point["tech_a"]["total_nj"]
    assert float(row["total_b_nj"]) == point["tech_b"]["total_nj"]


def test_system_compare_workload_file_embedded_in_manifest(tmp_path):
    wl = tmp_path / "net.txt"
    wl.write_text("conv b=8 i=3 m=8 n=8 o=4 k=3 stride=1 pad=1\n"
                  "fc b=8 in=256 out=10\n")
    out = tmp_path / "o"
    assert run_cli("system-compare", "--workload", str(wl),
                   "--sweep", "32.0", "--out", str(out)) == 0
    layers = read_manifest(out)["config"]["workload"]
    assert [l["kind"] for l in layers] == ["conv", "fc"]
    assert layers[0]["out_channels"] == 4
    wl.unlink()  # manifest is self-contained: replay needs no source file
    assert_rerun_identical(out, tmp_path)


# the one clock is the system config's, and every element is a binary32 word:
# the accelerator has neither setting
@pytest.mark.parametrize("key,value", [("clock_ghz", 4.0), ("element_size_bytes", 4)])
def test_system_compare_rejects_removed_accelerator_keys(tmp_path, capsys, key, value):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"accelerator": {key: value}}))
    assert run_cli("system-compare", "--config", str(cfg), "--sweep", "32.0",
                   "--out", str(tmp_path / "o")) == 1
    assert f"accelerator: unknown key(s) {key}" in capsys.readouterr().err


_NUMERIC_FIELDS = ([("accelerator", f.name) for f in fields(AcceleratorConfig)]
                   + [("system", f.name) for f in fields(SystemEnergyConfig)])

# json.load reads NaN and +-Infinity; every number of a config meets them and
# a bool, which Python would otherwise compare as 0 or 1
_NOT_NUMBERS = ["NaN", "Infinity", "-Infinity", "true"]


@pytest.mark.parametrize("value", _NOT_NUMBERS)
@pytest.mark.parametrize("section,key", _NUMERIC_FIELDS + [(None, "sweep")])
def test_non_finite_system_compare_number_exits_one(tmp_path, capsys, section, key,
                                                    value):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(f'{{"sweep": [32.0, {value}]}}' if section is None else
                   f'{{"sweep": [32.0], "{section}": {{"{key}": {value}}}}}')
    out = tmp_path / "o"
    assert run_cli("system-compare", "--config", str(cfg), "--out", str(out)) == 1
    err = capsys.readouterr().err
    assert (f"{section}: {key} " if section else f"{cfg}: sweep ") in err, err
    assert not (out / "compare.csv").exists()


# an old config may carry a removed key with a value no number check would pass:
# it is refused by name, as unknown, not by the value it holds
@pytest.mark.parametrize("value", _NOT_NUMBERS)
@pytest.mark.parametrize("key", ["clock_ghz", "element_size_bytes"])
def test_non_finite_removed_accelerator_key_exits_one(tmp_path, capsys, key, value):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(f'{{"sweep": [32.0], "accelerator": {{"{key}": {value}}}}}')
    out = tmp_path / "o"
    assert run_cli("system-compare", "--config", str(cfg), "--out", str(out)) == 1
    err = capsys.readouterr().err
    assert f"accelerator: unknown key(s) {key}" in err, err
    assert not (out / "compare.csv").exists()


# every sweep point puts its own capacity in all three buffers, so a buffer
# size in the config would be a setting nothing reads
@pytest.mark.parametrize("key", ["activation_buffer_kb", "weight_buffer_kb",
                                 "error_buffer_kb"])
def test_system_compare_refuses_accelerator_buffer_size(tmp_path, capsys, key):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"sweep": [32.0], "accelerator": {key: 1}}))
    out = tmp_path / "o"
    assert run_cli("system-compare", "--config", str(cfg), "--out", str(out)) == 1
    err = capsys.readouterr().err
    assert f"accelerator: {key} is set by the sweep" in err, err
    assert not out.exists()
    # the default value is what a manifest records, so it is accepted
    cfg.write_text(json.dumps({"sweep": [32.0], "accelerator": {
        key: getattr(AcceleratorConfig(), key)}}))
    assert run_cli("system-compare", "--config", str(cfg), "--out", str(out)) == 0


# a technology spec or workload that the run would refuse is refused with the
# config, before the output directory is made, from a config file or a flag
@pytest.mark.parametrize("command, doc, flags, message", [
    ("array-sweep", {"technologies": ["mram_base", {"write_latency_factor": 0.1}]}, (),
     "technologies: write_latency_factor or write_energy_factor < 1 requires wer above"),
    ("array-sweep", {}, ("--technologies", "sram,flash"),
     "technologies: unknown technology 'flash'"),
    ("system-compare", {"sweep": [32.0], "tech_a": {"write_latency_factor": 0.5}}, (),
     "tech_a: write_latency_factor or write_energy_factor < 1 requires wer above"),
    ("system-compare", {"sweep": [32.0]}, ("--tech-b", "flash"),
     "tech_b: unknown technology 'flash'"),
    ("system-compare", {"sweep": [32.0], "workload": []}, (),
     "workload must be a non-empty list"),
    ("system-compare", {"sweep": [32.0], "workload": [{"kind": "conv"}]}, (), "workload[0]"),
    ("hetero-write", {"mantissa_mode": "flash"}, (),
     "mantissa_mode: unknown technology 'flash'"),
    ("hetero-write", {"exponent_mode": {"write_latency_factor": 0.5, "wer": 0.0}}, (),
     "exponent_mode: write_latency_factor or write_energy_factor < 1 requires wer above"),
    # a list-valued key takes a list, not a string of its items or one number
    ("array-sweep", {"technologies": "sram"}, (), "technologies must be a list, got 'sram'"),
    ("array-sweep", {"technologies": 5}, (), "technologies must be a list, got 5"),
    ("system-compare", {"sweep": 5}, (), "sweep must be a list, got 5"),
    ("system-compare", {"sweep": "32"}, (), "sweep must be a list, got '32'"),
    ("wer-sweep", {"durations_ns": 20}, (), "durations_ns must be a list, got 20"),
], ids=["array-sweep-shorter-write", "array-sweep-flag-name",
        "system-compare-shorter-write", "system-compare-flag-name",
        "system-compare-empty-workload", "system-compare-bad-layer", "hetero-write-name",
        "hetero-write-shorter-write", "array-sweep-string-technologies",
        "array-sweep-number-technologies", "system-compare-number-sweep",
        "system-compare-string-sweep", "wer-sweep-number-durations"])
def test_refused_spec_makes_no_output_directory(tmp_path, capsys, command, doc, flags,
                                                message):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    out = tmp_path / "o"
    assert run_cli(command, "--config", str(cfg), *flags, "--out", str(out)) == 1
    err = capsys.readouterr().err
    assert message in err, err
    assert not out.exists()


def test_system_compare_rerun_byte_identical(tmp_path):
    out = tmp_path / "o"
    assert run_cli("system-compare", "--sweep", "32.0,183.0",
                   "--out", str(out)) == 0
    assert_rerun_identical(out, tmp_path)


@pytest.mark.parametrize("command, doc, flags, key", [
    ("system-compare", {"sweep": []}, (), "sweep"),
    ("wer-sweep", {"amplitudes_ua": []}, (), "amplitudes_ua"),
    ("wer-sweep", {"durations_ns": []}, (), "durations_ns"),
    ("array-sweep", {"capacities_kb": []}, (), "capacities_kb"),
    ("array-sweep", {"technologies": []}, (), "technologies"),
    ("array-sweep", {}, ("--technologies", ","), "technologies"),
], ids=["sweep", "amplitudes_ua", "durations_ns", "capacities_kb", "technologies",
        "technologies-flag"])
def test_empty_list_key_exits_one_and_makes_no_output_directory(tmp_path, capsys, command,
                                                                doc, flags, key):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    out = tmp_path / "o"
    assert run_cli(command, "--config", str(cfg), *flags, "--out", str(out)) == 1
    err = capsys.readouterr().err
    assert f"{key}: empty value list" in err, err
    assert not out.exists()


def _log_sweep_config(path, n):
    """A toy-VGG iso-capacity sweep of n log-spaced points over 32 KB-512 MB."""
    path.write_text(json.dumps({"mode": "iso-capacity", "sweep": [
        32.0 * 2.0 ** (14 * i / (n - 1)) for i in range(n)]}))
    return ["--config", str(path), "--workload", str(CONFIGS / "workload_vgg_toy.txt")]


def test_system_compare_memory_does_not_grow_with_points(tmp_path):
    """Each point's row and object are written as they come: no point is kept."""
    peaks = {}
    for n in (8, 100, 400):  # the 8-point run fills the caches of the first call
        argv = _log_sweep_config(tmp_path / f"{n}.json", n)
        tracemalloc.start()
        try:
            assert run_cli("system-compare", *argv, "--out", str(tmp_path / str(n))) == 0
            peaks[n] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks[400] < 1.5 * peaks[100], peaks


@pytest.mark.parametrize("k", [0, 3])
def test_system_compare_failure_mid_sweep_leaves_old_files(tmp_path, monkeypatch, k):
    """A sweep that raises at point k, rerun into its own directory, exits 2
    and leaves the earlier data files and no temporary file."""
    out = tmp_path / "o"
    assert run_cli("system-compare", "--sweep", "32.0,183.0,512.0,40592.0",
                   "--out", str(out)) == 0
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    real, calls = cli.compare_iso_capacity, []

    def failing(*args, **kwargs):
        calls.append(args)
        if len(calls) > k:
            raise RuntimeError("stop mid-sweep")
        return real(*args, **kwargs)

    monkeypatch.setattr(cli, "compare_iso_capacity", failing)
    assert run_cli("rerun", str(out / "manifest.json")) == 2
    assert len(calls) == k + 1
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before


def test_system_compare_breakdown_with_error_points_matches_stdlib(tmp_path):
    """Error points first, between ok ones and last: the streamed separators,
    head and tail give json.dumps's bytes."""
    out = tmp_path / "o"
    # below 0.1145 mm2 SRAM has no anchor
    assert run_cli("system-compare", "--mode", "iso-area", "--sweep", "0.05,0.5,0.06,0.7,0.07",
                   "--out", str(out)) == 0
    text = (out / "breakdown.json").read_text()
    doc = json.loads(text)
    assert [p["status"] for p in doc["points"]] == ["error", "ok", "error", "ok", "error"]
    assert text == json.dumps(doc, indent=2, sort_keys=True) + "\n"
    assert sorted(p.name for p in out.iterdir()) == ["breakdown.json", "compare.csv",
                                                      "manifest.json"]


# ---------------------------------------------------------- hetero-write


def test_hetero_write_sweeps_all_mantissa_splits(tmp_path):
    out = tmp_path / "o"
    assert run_cli("hetero-write", "--out", str(out)) == 0
    rows = read_csv(out / "hetero.csv")
    assert [int(r["mantissa_bits"]) for r in rows] == list(range(24))
    factors = [float(r["word_energy_factor"]) for r in rows]
    assert factors[0] == 1.0  # no bits remapped, all base mode
    assert factors == sorted(factors, reverse=True)
    assert abs(factors[23] - 0.56875) < 1e-12


def test_hetero_write_json_reports_word_improvement(tmp_path):
    out = tmp_path / "o"
    assert run_cli("hetero-write", "--out", str(out)) == 0
    doc = read_json(out / "hetero.json")
    assert sorted(doc) == ["improvement", "manifest", "mantissa_bits",
                           "per_word_energy_pj", "word_energy_factor"]
    assert doc["mantissa_bits"] == 23
    assert doc["improvement"] == pytest.approx(1.0 / 0.56875)


def test_hetero_write_invalid_split_writes_nothing(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"mantissa_bits": 30}))
    out = tmp_path / "o"
    assert run_cli("hetero-write", "--config", str(cfg), "--out", str(out)) == 1
    err = capsys.readouterr().err
    assert "mantissa_bits must be" in err, err
    assert not out.exists()


def test_hetero_write_flag_overrides_bits(tmp_path):
    out = tmp_path / "o"
    assert run_cli("hetero-write", "--mantissa-bits", "16", "--out", str(out)) == 0
    doc = read_json(out / "hetero.json")
    assert doc["mantissa_bits"] == 16
    expected = (1.0 + 15.0 * 1.0 + 16.0 * 0.40) / 32.0
    assert doc["word_energy_factor"] == pytest.approx(expected)


# sha256 of (hetero.csv, hetero.json) of configs/hetero_write.json
PINNED_HETERO_WRITE = ("39b005e1d158cc528f28725a571b99a33b013ddb31c306843354f78695720f1d",
                       "1b19612c77333003bc66897f7ea5f7a886d142a43b2079feebdabd38f51de7ef")


def test_bundled_hetero_write_outputs_pinned(tmp_path):
    out = tmp_path / "o"
    cfg = CONFIGS / "hetero_write.json"
    assert run_cli("hetero-write", "--config", str(cfg), "--out", str(out)) == 0
    digests = tuple(hashlib.sha256((out / f).read_bytes()).hexdigest()
                    for f in ("hetero.csv", "hetero.json"))
    assert digests == PINNED_HETERO_WRITE


def test_hetero_write_rerun_byte_identical(tmp_path):
    out = tmp_path / "o"
    assert run_cli("hetero-write", "--out", str(out)) == 0
    assert_rerun_identical(out, tmp_path)


# ----------------------------------------------------------- error-train


def _experiment(**overrides):
    base = {
        "layer_sizes": [2, 16, 2],
        "epochs": 4,
        "seeds": [1],
        "n_train": 120,
        "n_test": 60,
        "binding": {},
    }
    base.update(overrides)
    return base


def test_error_train_zero_binding_matches_reference(tmp_path):
    cfg = tmp_path / "exp.json"
    cfg.write_text(json.dumps(_experiment()))
    out = tmp_path / "o"
    assert run_cli("error-train", "--config", str(cfg), "--out", str(out)) == 0
    rows = read_csv(out / "curves.csv")
    spec = TinyNetSpec(layer_sizes=(2, 16, 2), epochs=4, seed=1)
    ds = make_moons_dataset(120, 60, noise=0.3, seed=7)
    ref = train_reference(spec, ds)
    assert [float(r["train_loss"]) for r in rows] == ref.train_loss
    assert [float(r["test_accuracy"]) for r in rows] == ref.test_accuracy
    assert all(r["nan_sanitized_count"] == "0" for r in rows)


def test_error_train_seed_flag_restricts_seeds(tmp_path):
    cfg = tmp_path / "exp.json"
    cfg.write_text(json.dumps(_experiment(seeds=[1, 2, 3])))
    out = tmp_path / "o"
    assert run_cli("error-train", "--config", str(cfg), "--seed", "2",
                   "--out", str(out)) == 0
    manifest = read_manifest(out)
    assert manifest["config"]["experiment"]["seeds"] == [2]
    assert manifest["seed"] == [2]
    doc = read_json(out / "summary.json")
    assert list(doc["seeds"]) == ["2"]


# runs train once per entry of "seeds": a top-level seed is not a setting, and
# it is refused by name whatever it holds
@pytest.mark.parametrize("value", ["5"] + _NOT_NUMBERS)
def test_error_train_seed_key_is_unknown(tmp_path, capsys, value):
    cfg = tmp_path / "exp.json"
    cfg.write_text(json.dumps(_experiment(seed="SEED")).replace('"SEED"', value))
    out = tmp_path / "o"
    assert run_cli("error-train", "--config", str(cfg), "--out", str(out)) == 1
    err = capsys.readouterr().err
    assert f"{cfg}: experiment: unknown key(s) seed" in err, err
    assert not out.exists()


def test_error_train_divergence_still_exits_zero(tmp_path):
    cfg = tmp_path / "exp.json"
    cfg.write_text(json.dumps(_experiment(
        binding={"weights": {"exponent_wer": 0.01}})))
    out = tmp_path / "o"
    assert run_cli("error-train", "--config", str(cfg), "--out", str(out)) == 0
    doc = read_json(out / "summary.json")
    (entry,) = doc["seeds"].values()
    assert entry["diverged"] is True
    assert entry["epochs_completed"] < 4


def test_error_train_overflow_prints_nothing_to_stderr(tmp_path):
    """Flipped exponents overflow an activation; the trainer sanitizes or
    diverges, and numpy's overflow warning does not reach the terminal."""
    cfg = tmp_path / "exp.json"
    cfg.write_text(json.dumps({"binding": {"weights": {"exponent_wer": 1e-3}}}))
    proc = subprocess.run(
        [sys.executable, "-W", "default", "-m", "spinpad.cli", "error-train",
         "--config", str(cfg), "--out", str(tmp_path / "o")],
        capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": str(Path(spinpad.__file__).parents[1])})
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""


def test_error_train_invalid_binding_exits_one(tmp_path):
    cfg = tmp_path / "exp.json"
    cfg.write_text(json.dumps(_experiment(
        binding={"weights": {"mantissa_wer": 2.0}})))
    assert run_cli("error-train", "--config", str(cfg),
                   "--out", str(tmp_path / "o")) == 1


@pytest.mark.parametrize("overrides,key", [
    ({"binding": {"weights": {"affected_mantissa_bits": 5.0}}},
     "binding: weights: affected_mantissa_bits"),
    ({"batch_size": 2.5}, "batch_size"),
    ({"epochs": True}, "epochs"),
    ({"n_train": 40.5}, "n_train"),
    ({"seeds": [1.5]}, r"seeds\[0\]"),
    ({"layer_sizes": [2, 8.0, 2]}, r"layer_sizes\[1\]"),
])
def test_error_train_non_integer_field_exits_one(tmp_path, capsys, overrides, key):
    cfg = tmp_path / "exp.json"
    cfg.write_text(json.dumps(_experiment(**overrides)))
    out = tmp_path / "o"
    assert run_cli("error-train", "--config", str(cfg), "--out", str(out)) == 1
    assert re.search(f"{key} must be an integer", capsys.readouterr().err)
    assert not out.exists()


@pytest.mark.parametrize("command,section,key", [
    ("system-compare", {"accelerator": {"rows": 16.5, "cols": 16}, "sweep": [64.0]},
     "accelerator: rows"),
    ("system-compare", {"accelerator": {"cols": 16.0}, "sweep": [64.0]},
     "accelerator: cols"),
    ("system-compare", {"system": {"dram_burst_elements": 16.0}, "sweep": [64.0]},
     "system: dram_burst_elements"),
    ("system-compare", {"system": {"dram_burst_elements": 16.5}, "sweep": [64.0]},
     "system: dram_burst_elements"),
    ("wer-sweep", {"workers": 1.9}, "workers"),
    ("wer-sweep", {"workers": True}, "workers"),
    ("hetero-write", {"mantissa_bits": 7.9}, "mantissa_bits"),
])
def test_non_integer_count_exits_one(tmp_path, capsys, command, section, key):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(section))
    out = tmp_path / "o"
    assert run_cli(command, "--config", str(cfg), "--out", str(out)) == 1
    assert re.search(f"{key} must be an integer", capsys.readouterr().err)
    assert not out.exists()


def test_initial_tilt_above_zero_kelvin_exits_one(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(
        {"simulation": {"trials": 20, "seed": 3, "initial_tilt_rad": 1.4}}))
    assert run_cli("wer-sweep", "--config", str(cfg), "--out", str(tmp_path / "o")) == 1
    assert "initial_tilt_rad" in capsys.readouterr().err


# sha256 of (curves.csv, summary.json) of each bundled error-train config:
# a change to the injection path that alters one bit of a curve fails here
PINNED_ERROR_TRAIN = {
    "baseline": ("5d2653d215fe2e9a9456d2ed3c60141c1dd3e5afa3cec0932fa514f184c1c26b",
                 "8dbc65841e3bff10a58f1adfd07af31677407670c3e7f9ffc905259530670dac"),
    "mantissa": ("f5d8e891bd4f86c7e6983c7ba5ae60cb671ea60f62471c03df904394dd073906",
                 "a759cb788aeecc52f71e79e2d8af2a720f4beaf1f3a9aed3581445d4ad78c430"),
    "exponent": ("c4ef5686ca0efa5896369f886d31c6eebac2d99d3042df25ad9dab96ee541c02",
                 "7ac47a3fa5dfed0c23aeef4d18d31246472db354ca0bb3f39cd6a2e2057af527"),
}


@pytest.mark.parametrize("name", sorted(PINNED_ERROR_TRAIN))
def test_bundled_error_train_outputs_pinned(tmp_path, name):
    out = tmp_path / "o"
    cfg = CONFIGS / f"error_train_{name}.json"
    assert run_cli("error-train", "--config", str(cfg), "--out", str(out)) == 0
    digests = tuple(hashlib.sha256((out / f).read_bytes()).hexdigest()
                    for f in ("curves.csv", "summary.json"))
    assert digests == PINNED_ERROR_TRAIN[name]


# sha256 of (compare.csv, breakdown.json) of the system-compare path: the two
# bundled configs on the toy VGG, and a dense VGG-16 iso-capacity sweep whose
# FIFO eviction decisions change from point to point. A change to the trace
# or energy bookkeeping that alters one bit of a report fails here. Re-pinned
# when the log-log interpolation was made monotone at the ulp scale: every
# number moved by at most 3.4e-15 relative.
PINNED_SYSTEM_COMPARE = {
    "iso_area": ("a0a9a58bbcc60e6a6f58ec08b39c7393b4c1133b9a9f39eedc2a75fa1b49fb23",
                 "600a0d973890d1f7a03e8b879fd0b29bc8a1fa3d386d3c5e68485d6d370af4f6"),
    "iso_capacity": ("c0af2febfaaec0d4d4bd2eb242c8e092c5ecc7e9cb28f24f591aaa85afed7c14",
                     "9c908a986ed0d2b2288acbd4edec8ad2a74cbfe5077bd1c8e142144969385d32"),
    "vgg16_dense": ("7318ffe89d67f83b76909b00ff1c9c47c25fc35c6e570a7f652a9df60f5f577f",
                    "dc7d1b86e2f8df98bcdcf646398fd3613d8cfb4116ad849886c237a31f2f9b36"),
}

# VGG-16 at 224x224, batch 32, with pooling folded into the next layer's input
_VGG16_CONVS = ((3, 64, 224), (64, 64, 224), (64, 128, 112), (128, 128, 112),
                (128, 256, 56), (256, 256, 56), (256, 256, 56),
                (256, 512, 28), (512, 512, 28), (512, 512, 28),
                (512, 512, 14), (512, 512, 14), (512, 512, 14))
_VGG16_FCS = ((25088, 4096), (4096, 4096), (4096, 1000))
# 48 log-spaced capacities from 32 KB to 512 MB (32 * 2^14 KB)
_DENSE_CAPACITIES_KB = [32.0 * 2.0 ** (14 * i / 47) for i in range(48)]


def _system_compare_args(name, tmp_path):
    if name != "vgg16_dense":
        return ["--config", str(CONFIGS / f"compare_{name}.json"),
                "--workload", str(CONFIGS / "workload_vgg_toy.txt")]
    wl = tmp_path / "vgg16.txt"
    wl.write_text("".join(
        [f"conv b=32 i={i} m={m} n={m} o={o} k=3 stride=1 pad=1\n"
         for i, o, m in _VGG16_CONVS]
        + [f"fc b=32 in={i} out={o}\n" for i, o in _VGG16_FCS]))
    cfg = tmp_path / "dense.json"
    cfg.write_text(json.dumps({"mode": "iso-capacity", "sweep": _DENSE_CAPACITIES_KB,
                               "tech_a": "sram", "tech_b": "mram_base"}))
    return ["--config", str(cfg), "--workload", str(wl)]


@pytest.mark.parametrize("name", sorted(PINNED_SYSTEM_COMPARE))
def test_system_compare_outputs_pinned(tmp_path, name):
    out = tmp_path / "o"
    argv = _system_compare_args(name, tmp_path)
    assert run_cli("system-compare", *argv, "--out", str(out)) == 0
    digests = tuple(hashlib.sha256((out / f).read_bytes()).hexdigest()
                    for f in ("compare.csv", "breakdown.json"))
    assert digests == PINNED_SYSTEM_COMPARE[name]
    if name == "vgg16_dense":  # the grid is dense enough to move FIFO decisions
        rows = read_csv(out / "compare.csv")
        assert len({r["dram_elements_a"] for r in rows}) > 30


# traces the sweep memo builds for each pinned sweep, one per run of points
# that share every FIFO decision
PINNED_TRACES_BUILT = {"iso_area": 4, "iso_capacity": 4, "vgg16_dense": 38}


@pytest.mark.parametrize("name", sorted(PINNED_TRACES_BUILT))
def test_system_compare_traces_built_pinned(tmp_path, name):
    built = []
    real = energy.simulate_iteration

    def counting(workload, cfg):
        built.append(cfg)
        return real(workload, cfg)

    argv = _system_compare_args(name, tmp_path)
    with mock.patch.object(energy, "simulate_iteration", counting):
        assert run_cli("system-compare", *argv, "--out", str(tmp_path / "o")) == 0
    assert len(built) == PINNED_TRACES_BUILT[name]


def test_error_train_rerun_byte_identical(tmp_path):
    cfg = tmp_path / "exp.json"
    cfg.write_text(json.dumps(_experiment(
        binding={"activations": {"mantissa_wer": 1e-3}})))
    out = tmp_path / "o"
    assert run_cli("error-train", "--config", str(cfg), "--out", str(out)) == 0
    assert_rerun_identical(out, tmp_path)


def test_error_train_default_config_is_bundled_experiment(tmp_path):
    out = tmp_path / "o"
    assert run_cli("error-train", "--seed", "1", "--out", str(out)) == 0
    exp = read_manifest(out)["config"]["experiment"]
    assert exp["layer_sizes"] == [2, 32, 32, 2]
    assert exp["noise"] == 0.3
    assert exp["binding"]["weights"]["mantissa_wer"] == 1e-3


# ------------------------------------------------------- config numbers


def _numbers(cls) -> list[str]:
    """The fields of a config dataclass that hold one number (or None)."""
    return [f.name for f in fields(cls) if f.type.split(" |")[0] in ("int", "float")]


_CUSTOM_TECH = {"write_latency_factor": 0.47, "write_energy_factor": 0.4, "wer": 8e-4}

# (command, a valid config, the path of the key's section in it, the key)
_CONFIG_NUMBERS = (
    [("wer-sweep", {}, ("device",), k) for k in _numbers(MtjDevice)]
    + [("wer-sweep", {}, ("simulation",), k) for k in _numbers(MagSimConfig)]
    + [("hetero-write", {}, (), k) for k in _numbers(_COMMANDS["hetero-write"][0])]
    + [("error-train", _experiment(), (), k)
       for k in _numbers(TinyNetSpec) + _numbers(ExperimentConfig) if k != "seed"]
    + [("error-train", _experiment(), ("binding", store.name), k)
       for store in fields(BufferErrorBinding) for k in _numbers(SegmentErrorConfig)]
    + [("system-compare", {"sweep": [32.0], "tech_b": _CUSTOM_TECH}, ("tech_b",), k)
       for k in _numbers(MemoryTechnology)]
)


@pytest.mark.parametrize("value", _NOT_NUMBERS)
@pytest.mark.parametrize("command,base,path,key", _CONFIG_NUMBERS,
                         ids=[f"{c}-{':'.join(p + (k,))}" for c, _, p, k in _CONFIG_NUMBERS])
def test_non_number_in_config_exits_one_naming_the_key(tmp_path, capsys, command, base,
                                                       path, key, value):
    doc = json.loads(json.dumps(base))
    section = doc
    for name in path:
        section = section.setdefault(name, {})
    section[key] = "PLACEHOLDER"
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc).replace('"PLACEHOLDER"', value))
    out = tmp_path / "o"
    assert run_cli(command, "--config", str(cfg), "--out", str(out)) == 1
    err = capsys.readouterr().err
    assert re.search(re.escape(": ".join(path + (key,))) + " must be", err), err
    assert not out.exists() or not any(out.iterdir())


_CSV_NUMBERS = [f.name for f in fields(ArrayMetrics)]


@pytest.mark.parametrize("value", _NOT_NUMBERS)
@pytest.mark.parametrize("column", _CSV_NUMBERS)
def test_non_number_in_calibration_csv_exits_one(tmp_path, capsys, column, value):
    lines = (CONFIGS / "calibration_default.csv").read_text().splitlines()
    header = lines[0].split(",")
    row = lines[1].split(",")
    row[header.index(column)] = value
    csv_path = tmp_path / "cal.csv"
    csv_path.write_text("\n".join([lines[0], ",".join(row), *lines[2:]]) + "\n")
    out = tmp_path / "o"
    for argv in (("array-sweep",), ("system-compare", "--sweep", "512.0")):
        assert run_cli(*argv, "--calibration", str(csv_path), "--out", str(out)) == 1
        assert f"{csv_path}:2: " in capsys.readouterr().err
        assert not out.exists() or not any(out.iterdir())


# ----------------------------------------------------------------- rerun


def test_rerun_missing_manifest_exits_one(tmp_path):
    assert run_cli("rerun", str(tmp_path / "nope.json")) == 1


def test_rerun_rejects_manifest_without_command(tmp_path):
    bad = tmp_path / "manifest.json"
    bad.write_text(json.dumps({"config": {}, "outputs": []}))
    assert run_cli("rerun", str(bad)) == 1


def test_rerun_rejects_unknown_command(tmp_path):
    bad = tmp_path / "manifest.json"
    bad.write_text(json.dumps({"command": "frobnicate", "config": {},
                               "outputs": []}))
    assert run_cli("rerun", str(bad)) == 1


@pytest.mark.parametrize("key", ["bogus", "clock_ghz", "element_size_bytes"])
def test_rerun_validates_manifest_config(key, tmp_path, capsys):
    out = tmp_path / "o"
    assert run_cli("system-compare", "--sweep", "32.0", "--out", str(out)) == 0
    manifest = read_manifest(out)
    manifest["config"]["accelerator"][key] = 1
    bad = tmp_path / "manifest.json"
    bad.write_text(json.dumps(manifest))
    capsys.readouterr()
    assert run_cli("rerun", str(bad), "--out", str(tmp_path / "replay")) == 1
    assert f"config: accelerator: unknown key(s) {key}" in capsys.readouterr().err


def test_rerun_defaults_to_manifest_directory(tmp_path):
    out = tmp_path / "o"
    assert run_cli("array-sweep", "--out", str(out)) == 0
    before = (out / "metrics.csv").read_bytes()
    assert run_cli("rerun", str(out / "manifest.json")) == 0
    assert (out / "metrics.csv").read_bytes() == before


def test_repeated_runs_are_deterministic(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert run_cli("array-sweep", "--out", str(out)) == 0
    assert filecmp.cmp(a / "metrics.csv", b / "metrics.csv", shallow=False)
