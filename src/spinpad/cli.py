"""Reproducible command-line front end over the whole pipeline.

Every subcommand resolves its configuration with flag > config file >
built-in default precedence, executes, and writes its data files plus a
manifest.json into the output directory. The manifest records the command,
tool version, seed, the fully resolved config snapshot, and the output file
names; `spinpad rerun <manifest>` replays the snapshot and reproduces every
data file byte for byte (the timestamp lives only in the manifest).

Exit codes: 0 success, 1 configuration error, 2 runtime failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from dataclasses import asdict
from datetime import datetime, timezone
from pathlib import Path

from . import __version__
from .arraymodel import (
    CalibrationTable,
    MemoryTechnology,
    TechnologyKind,
    metrics_at_capacity,
)
from .dataflow import (
    AcceleratorConfig,
    Conv,
    FullyConnected,
    LayerSpec,
    load_workload,
    simulate_iteration,
)
from .energy import (
    SegmentMap,
    SystemEnergyConfig,
    compare_iso_area,
    compare_iso_capacity,
    hetero_system_write_improvement,
    hetero_write_energy,
)
from .errors import ConfigError, SpinpadError
from .errortrain import experiment_from_dict, run_experiment
from .magnetics import (
    MagSimConfig,
    MtjDevice,
    amplitude_ladder,
    fit_ln_wer,
    run_wer_sweep,
)

_METRIC_FIELDS = ("capacity_kb", "area_mm2", "read_latency_ns", "write_latency_ns",
                  "read_energy_pj", "write_energy_pj", "leakage_mw", "wer")


# --------------------------------------------------------------- file I/O

def _write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    with open(path, "w", newline="") as fh:
        fh.write("# manifest: manifest.json\n")
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(header)
        w.writerows(rows)


def _write_json(path: Path, payload: dict) -> None:
    doc = {"manifest": "manifest.json", **payload}
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def _fmt(value) -> str:
    """Floats as repr so files round-trip exactly; everything else as str."""
    return repr(float(value)) if isinstance(value, float) else str(value)


def _load_json_object(path: str) -> dict:
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: {exc}") from None
    except OSError as exc:
        raise ConfigError(f"{path}: {exc}") from None
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: expected a JSON object")
    return raw


def _merge_section(defaults: dict, override: dict, valid: set[str],
                   where: str) -> dict:
    unknown = set(override) - valid
    if unknown:
        raise ConfigError(f"{where}: unknown key(s) {', '.join(sorted(unknown))}")
    return {**defaults, **override}


# -------------------------------------------------------- shared parsing

def _parse_float_list(text: str, flag: str) -> list[float]:
    """Either 'a,b,c' or an arange-style 'start:stop:step' (stop exclusive)."""
    try:
        if ":" in text:
            start, stop, step = (float(t) for t in text.split(":"))
            if step <= 0:
                raise ConfigError(f"{flag}: step must be positive")
            values, i = [], 0
            while (v := start + i * step) < stop:
                values.append(v)
                i += 1
        else:
            values = [float(t) for t in text.split(",") if t.strip()]
    except ValueError:
        raise ConfigError(f"{flag}: cannot parse {text!r}") from None
    if not values:
        raise ConfigError(f"{flag}: empty value list {text!r}")
    return values


def _tech_from_spec(spec, where: str) -> MemoryTechnology:
    if isinstance(spec, str):
        return MemoryTechnology.from_name(spec)
    if isinstance(spec, dict):
        valid = {"kind", "write_latency_factor", "write_energy_factor", "wer"}
        unknown = set(spec) - valid
        if unknown:
            raise ConfigError(f"{where}: unknown key(s) {', '.join(sorted(unknown))}")
        kind = spec.get("kind", TechnologyKind.MRAM_CUSTOM.value)
        if kind == TechnologyKind.MRAM_CUSTOM.value:
            return MemoryTechnology.custom(
                spec.get("write_latency_factor", 1.0),
                spec.get("write_energy_factor", 1.0),
                spec.get("wer", 0.0),
            )
        if len(spec) > 1:
            raise ConfigError(f"{where}: named technology {kind!r} carries no factors")
        return MemoryTechnology.from_name(kind)
    raise ConfigError(f"{where}: expected a name or an object")


def _layer_to_dict(layer: LayerSpec) -> dict:
    kind = "conv" if isinstance(layer, Conv) else "fc"
    return {"kind": kind, **asdict(layer)}


def _layer_from_dict(raw: dict, where: str) -> LayerSpec:
    if not isinstance(raw, dict) or "kind" not in raw:
        raise ConfigError(f"{where}: each layer needs a 'kind'")
    raw = dict(raw)
    kind = raw.pop("kind")
    cls = {"conv": Conv, "fc": FullyConnected}.get(kind)
    if cls is None:
        raise ConfigError(f"{where}: unknown layer kind {kind!r}")
    try:
        return cls(**raw)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{where}: {exc}") from None


def _workload_from_config(items, where: str) -> list[LayerSpec]:
    if not isinstance(items, list) or not items:
        raise ConfigError(f"{where}: workload must be a non-empty list")
    return [_layer_from_dict(item, f"{where}[{i}]") for i, item in enumerate(items)]


def _table_from_config(cfg: dict) -> CalibrationTable:
    path = cfg.get("calibration_csv")
    return CalibrationTable.from_csv(path) if path else CalibrationTable.default()


def _default_workload() -> list[dict]:
    """Batch-64 toy VGG-style stack; the reference system-trend workload."""
    layers = [
        Conv(64, 3, 16, 16, 16, 3, 1, 1),
        Conv(64, 16, 16, 16, 16, 3, 1, 1),
        Conv(64, 16, 16, 16, 32, 3, 2, 1),
        Conv(64, 32, 8, 8, 32, 3, 1, 1),
        FullyConnected(64, 2048, 64),
        FullyConnected(64, 64, 10),
    ]
    return [_layer_to_dict(l) for l in layers]


# ------------------------------------------------------------- wer-sweep

_WER_CONFIG_KEYS = {"device", "simulation", "durations_ns", "amplitudes_ua",
                    "workers"}


def _resolve_wer_sweep(args) -> dict:
    file_raw = _load_json_object(args.config) if args.config else {}
    unknown = set(file_raw) - _WER_CONFIG_KEYS
    if unknown:
        raise ConfigError(
            f"{args.config}: unknown key(s) {', '.join(sorted(unknown))}")
    device = _merge_section(asdict(MtjDevice()), file_raw.get("device", {}),
                            set(MtjDevice.__dataclass_fields__),
                            "device")
    sim_defaults = {**asdict(MagSimConfig()), "trials": 200, "seed": 20240817}
    sim = _merge_section(sim_defaults, file_raw.get("simulation", {}),
                         set(MagSimConfig.__dataclass_fields__), "simulation")
    cfg = {
        "device": device,
        "simulation": sim,
        "durations_ns": [float(d) for d in file_raw.get("durations_ns", [20.0])],
        "amplitudes_ua": [float(a) for a in file_raw.get(
            "amplitudes_ua", [50.0, 56.0, 62.0, 68.0, 74.0])],
        "workers": int(file_raw.get("workers", 1)),
    }
    if args.durations is not None:
        cfg["durations_ns"] = _parse_float_list(args.durations, "--durations")
    if args.amplitudes is not None:
        cfg["amplitudes_ua"] = _parse_float_list(args.amplitudes, "--amplitudes")
    if args.trials is not None:
        cfg["simulation"]["trials"] = args.trials
    if args.seed is not None:
        cfg["simulation"]["seed"] = args.seed
    if args.workers is not None:
        cfg["workers"] = args.workers
    return cfg


def _exec_wer_sweep(cfg: dict, out: Path) -> list[str]:
    device = MtjDevice(**cfg["device"])
    sim = MagSimConfig(**cfg["simulation"])
    curve = run_wer_sweep(device, cfg["amplitudes_ua"], cfg["durations_ns"],
                          sim, workers=cfg["workers"])
    rows = [[_fmt(p.amplitude_ua), _fmt(p.duration_ns), p.trials,
             _fmt(p.p_switch), _fmt(p.ln_wer)] for p in curve.points]
    _write_csv(out / "sweep.csv",
               ["amplitude_uA", "duration_ns", "trials", "p_switch", "ln_wer"],
               rows)
    fits = []
    for d in cfg["durations_ns"]:
        fit = fit_ln_wer(curve, d)
        ladder = amplitude_ladder(fit)
        fits.append({
            "duration_ns": d,
            "onset_amplitude_ua": curve.onset_amplitude(d),
            "slope_per_ua": fit.slope_per_ua,
            "intercept": fit.intercept,
            "r_squared": fit.r_squared,
            "n_points": fit.n_points,
            "ladder": [
                {"target_wer": t, "amplitude_ua": a}
                for t, a in sorted(ladder.items(), reverse=True)
            ],
        })
    _write_json(out / "ladder.json", {"durations": fits})
    return ["sweep.csv", "ladder.json"]


# ----------------------------------------------------------- array-sweep

_ARRAY_CONFIG_KEYS = {"technologies", "capacities_kb", "calibration_csv"}


def _resolve_array_sweep(args) -> dict:
    file_raw = _load_json_object(args.config) if args.config else {}
    unknown = set(file_raw) - _ARRAY_CONFIG_KEYS
    if unknown:
        raise ConfigError(
            f"{args.config}: unknown key(s) {', '.join(sorted(unknown))}")
    cfg = {
        "technologies": list(file_raw.get("technologies", ["sram", "mram_base"])),
        "capacities_kb": [float(c) for c in file_raw.get(
            "capacities_kb", [32.0, 183.0, 512.0, 40592.0, 131072.0, 524288.0])],
        "calibration_csv": file_raw.get("calibration_csv"),
    }
    if args.technologies is not None:
        cfg["technologies"] = [t.strip() for t in args.technologies.split(",")
                               if t.strip()]
    if args.capacities is not None:
        cfg["capacities_kb"] = _parse_float_list(args.capacities, "--capacities")
    if args.calibration is not None:
        cfg["calibration_csv"] = args.calibration
    return cfg


def _exec_array_sweep(cfg: dict, out: Path) -> list[str]:
    table = _table_from_config(cfg)
    rows = []
    for spec in cfg["technologies"]:
        tech = _tech_from_spec(spec, "technologies")
        name = spec if isinstance(spec, str) else tech.kind.value
        for cap in cfg["capacities_kb"]:
            m = metrics_at_capacity(table, tech, cap)
            rows.append([name] + [_fmt(getattr(m, f)) for f in _METRIC_FIELDS])
    _write_csv(out / "metrics.csv", ["technology", *_METRIC_FIELDS], rows)
    return ["metrics.csv"]


# -------------------------------------------------------- system-compare

_COMPARE_CONFIG_KEYS = {"workload", "mode", "sweep", "tech_a", "tech_b",
                        "accelerator", "system", "calibration_csv"}


def _resolve_system_compare(args) -> dict:
    file_raw = _load_json_object(args.config) if args.config else {}
    unknown = set(file_raw) - _COMPARE_CONFIG_KEYS
    if unknown:
        raise ConfigError(
            f"{args.config}: unknown key(s) {', '.join(sorted(unknown))}")
    accelerator = _merge_section(asdict(AcceleratorConfig()),
                                 file_raw.get("accelerator", {}),
                                 set(AcceleratorConfig.__dataclass_fields__),
                                 "accelerator")
    system = _merge_section(asdict(SystemEnergyConfig()),
                            file_raw.get("system", {}),
                            set(SystemEnergyConfig.__dataclass_fields__),
                            "system")
    cfg = {
        "workload": file_raw.get("workload", _default_workload()),
        "mode": file_raw.get("mode", "iso-capacity"),
        "sweep": [float(v) for v in file_raw.get(
            "sweep", [32.0, 183.0, 512.0, 40592.0, 131072.0, 524288.0])],
        "tech_a": file_raw.get("tech_a", "sram"),
        "tech_b": file_raw.get("tech_b", "mram_base"),
        "accelerator": accelerator,
        "system": system,
        "calibration_csv": file_raw.get("calibration_csv"),
    }
    if args.workload is not None:
        cfg["workload"] = [_layer_to_dict(l) for l in load_workload(args.workload)]
    if args.mode is not None:
        cfg["mode"] = args.mode
    if args.sweep is not None:
        cfg["sweep"] = _parse_float_list(args.sweep, "--sweep")
    if args.tech_a is not None:
        cfg["tech_a"] = args.tech_a
    if args.tech_b is not None:
        cfg["tech_b"] = args.tech_b
    if args.system is not None:
        cfg["system"] = _merge_section(
            asdict(SystemEnergyConfig()), _load_json_object(args.system),
            set(SystemEnergyConfig.__dataclass_fields__), args.system)
    if args.calibration is not None:
        cfg["calibration_csv"] = args.calibration
    if cfg["mode"] not in ("iso-capacity", "iso-area"):
        raise ConfigError(f"mode must be iso-capacity or iso-area, got {cfg['mode']!r}")
    return cfg


_COMPARE_HEADER = ["index", "mode", "sweep_value", "status", "detail",
                   "capacity_a_kb", "capacity_b_kb", "total_a_nj", "total_b_nj",
                   "improvement", "dram_elements_a", "dram_elements_b"]


def _exec_system_compare(cfg: dict, out: Path) -> list[str]:
    workload = _workload_from_config(cfg["workload"], "workload")
    acc = AcceleratorConfig(**cfg["accelerator"])
    sysc = SystemEnergyConfig(**cfg["system"])
    table = _table_from_config(cfg)
    tech_a = _tech_from_spec(cfg["tech_a"], "tech_a")
    tech_b = _tech_from_spec(cfg["tech_b"], "tech_b")
    compare = (compare_iso_capacity if cfg["mode"] == "iso-capacity"
               else compare_iso_area)
    rows, points, failures = [], [], 0
    for i, value in enumerate(cfg["sweep"]):
        try:
            pt = compare(workload, acc, value, tech_a, tech_b,
                         table=table, sys=sysc)
        except SpinpadError as exc:
            failures += 1
            rows.append([i, cfg["mode"], _fmt(value), "error", str(exc),
                         "", "", "", "", "", "", ""])
            points.append({"index": i, "sweep_value": value,
                           "status": "error", "detail": str(exc)})
            continue
        rows.append([
            i, cfg["mode"], _fmt(value), "ok", "",
            _fmt(pt.capacity_a_kb), _fmt(pt.capacity_b_kb),
            _fmt(pt.report_a.total_nj), _fmt(pt.report_b.total_nj),
            _fmt(pt.improvement), pt.dram_elements_a, pt.dram_elements_b,
        ])
        points.append({
            "index": i,
            "sweep_value": value,
            "status": "ok",
            "improvement": pt.improvement,
            "capacity_a_kb": pt.capacity_a_kb,
            "capacity_b_kb": pt.capacity_b_kb,
            "dram_elements_a": pt.dram_elements_a,
            "dram_elements_b": pt.dram_elements_b,
            "tech_a": pt.report_a.as_dict(),
            "tech_b": pt.report_b.as_dict(),
        })
    _write_csv(out / "compare.csv", _COMPARE_HEADER, rows)
    _write_json(out / "breakdown.json", {"mode": cfg["mode"], "points": points})
    if failures == len(cfg["sweep"]):
        raise RuntimeError("every sweep point failed; see compare.csv")
    return ["compare.csv", "breakdown.json"]


# ---------------------------------------------------------- hetero-write

_HETERO_CONFIG_KEYS = {"sign_mode", "exponent_mode", "mantissa_mode",
                       "mantissa_bits", "bit_energy_pj", "workload",
                       "capacity_kb", "accelerator", "calibration_csv"}


def _resolve_hetero_write(args) -> dict:
    file_raw = _load_json_object(args.config) if args.config else {}
    unknown = set(file_raw) - _HETERO_CONFIG_KEYS
    if unknown:
        raise ConfigError(
            f"{args.config}: unknown key(s) {', '.join(sorted(unknown))}")
    accelerator = _merge_section(asdict(AcceleratorConfig()),
                                 file_raw.get("accelerator", {}),
                                 set(AcceleratorConfig.__dataclass_fields__),
                                 "accelerator")
    cfg = {
        "sign_mode": file_raw.get("sign_mode", "mram_base"),
        "exponent_mode": file_raw.get("exponent_mode", "mram_base"),
        "mantissa_mode": file_raw.get("mantissa_mode", "mram_low_duration"),
        "mantissa_bits": int(file_raw.get("mantissa_bits", 23)),
        "bit_energy_pj": float(file_raw.get("bit_energy_pj", 1.0)),
        "workload": file_raw.get("workload", _default_workload()),
        "capacity_kb": float(file_raw.get("capacity_kb", 1024.0)),
        "accelerator": accelerator,
        "calibration_csv": file_raw.get("calibration_csv"),
    }
    if args.mantissa_bits is not None:
        cfg["mantissa_bits"] = args.mantissa_bits
    if args.bit_energy is not None:
        cfg["bit_energy_pj"] = args.bit_energy
    if args.workload is not None:
        cfg["workload"] = [_layer_to_dict(l) for l in load_workload(args.workload)]
    if args.capacity is not None:
        cfg["capacity_kb"] = args.capacity
    if args.calibration is not None:
        cfg["calibration_csv"] = args.calibration
    return cfg


def _exec_hetero_write(cfg: dict, out: Path) -> list[str]:
    sign = _tech_from_spec(cfg["sign_mode"], "sign_mode")
    exponent = _tech_from_spec(cfg["exponent_mode"], "exponent_mode")
    mantissa = _tech_from_spec(cfg["mantissa_mode"], "mantissa_mode")

    rows = []
    for bits in range(24):
        seg = SegmentMap(sign=sign, exponent=exponent, mantissa=mantissa,
                         mantissa_bits_on_optimized=bits)
        res = hetero_write_energy(seg, cfg["bit_energy_pj"])
        rows.append([bits, _fmt(res.word_energy_factor),
                     _fmt(res.per_word_energy_pj), _fmt(res.improvement)])
    _write_csv(out / "hetero.csv",
               ["mantissa_bits", "word_energy_factor", "per_word_energy_pj",
                "improvement"], rows)

    seg = SegmentMap(sign=sign, exponent=exponent, mantissa=mantissa,
                     mantissa_bits_on_optimized=cfg["mantissa_bits"])
    res = hetero_write_energy(seg, cfg["bit_energy_pj"])
    payload = {
        "mantissa_bits": cfg["mantissa_bits"],
        "word_energy_factor": res.word_energy_factor,
        "per_word_energy_pj": res.per_word_energy_pj,
        "improvement": res.improvement,
    }
    workload = _workload_from_config(cfg["workload"], "workload")
    acc = AcceleratorConfig(**cfg["accelerator"])
    table = _table_from_config(cfg)
    trace = simulate_iteration(workload, acc)
    m = metrics_at_capacity(table, MemoryTechnology.mram_base(),
                            cfg["capacity_kb"])
    payload["system_write_improvement"] = hetero_system_write_improvement(
        trace, m, m, m, seg)
    _write_json(out / "hetero.json", payload)
    return ["hetero.csv", "hetero.json"]


# ----------------------------------------------------------- error-train

_DEFAULT_EXPERIMENT = {
    "layer_sizes": [2, 32, 32, 2],
    "activation": "tanh",
    "learning_rate": 0.2,
    "batch_size": 32,
    "epochs": 30,
    "seeds": [1, 2, 3],
    "n_train": 400,
    "n_test": 200,
    "noise": 0.3,
    "dataset_seed": 7,
    "binding": {
        "activations": {"mantissa_wer": 1e-3},
        "weights": {"mantissa_wer": 1e-3},
        "errors": {"mantissa_wer": 1e-3},
    },
}


def _resolve_error_train(args) -> dict:
    raw = (_load_json_object(args.config) if args.config
           else json.loads(json.dumps(_DEFAULT_EXPERIMENT)))
    if args.seed is not None:
        raw["seeds"] = [args.seed]
    experiment_from_dict(raw, where=args.config or "defaults")  # validate now
    return {"experiment": raw}


def _exec_error_train(cfg: dict, out: Path) -> list[str]:
    exp = experiment_from_dict(cfg["experiment"])
    results = run_experiment(exp)
    rows = []
    for seed in exp.seeds:
        r = results[seed]
        for epoch, (loss, acc, san) in enumerate(
                zip(r.train_loss, r.test_accuracy, r.sanitized_per_epoch)):
            rows.append([seed, epoch, _fmt(loss), _fmt(acc), san])
    _write_csv(out / "curves.csv",
               ["seed", "epoch", "train_loss", "test_accuracy",
                "nan_sanitized_count"], rows)
    summary = {
        "seeds": {
            str(seed): {
                "final_accuracy": results[seed].final_accuracy,
                "diverged": results[seed].diverged,
                "epochs_completed": results[seed].epochs_completed,
                "total_sanitized": results[seed].total_sanitized,
            }
            for seed in exp.seeds
        }
    }
    _write_json(out / "summary.json", summary)
    return ["curves.csv", "summary.json"]


# ------------------------------------------------------------- dispatch

_EXECUTORS = {
    "wer-sweep": _exec_wer_sweep,
    "array-sweep": _exec_array_sweep,
    "system-compare": _exec_system_compare,
    "hetero-write": _exec_hetero_write,
    "error-train": _exec_error_train,
}

_RESOLVERS = {
    "wer-sweep": _resolve_wer_sweep,
    "array-sweep": _resolve_array_sweep,
    "system-compare": _resolve_system_compare,
    "hetero-write": _resolve_hetero_write,
    "error-train": _resolve_error_train,
}


def _manifest_seed(command: str, cfg: dict):
    if command == "wer-sweep":
        return cfg["simulation"]["seed"]
    if command == "error-train":
        return list(cfg["experiment"].get("seeds", []))
    return None


def _write_manifest(out: Path, command: str, cfg: dict,
                    outputs: list[str]) -> None:
    manifest = {
        "command": command,
        "version": __version__,
        "seed": _manifest_seed(command, cfg),
        "config": cfg,
        "outputs": outputs,
        "created": datetime.now(timezone.utc).isoformat(timespec="seconds"),
    }
    (out / "manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def _run_command(command: str, cfg: dict, out: Path) -> int:
    out.mkdir(parents=True, exist_ok=True)
    outputs = _EXECUTORS[command](cfg, out)
    _write_manifest(out, command, cfg, outputs)
    print(f"{command}: wrote {', '.join(outputs)} and manifest.json to {out}")
    return 0


def _cmd_rerun(args) -> int:
    manifest_path = Path(args.manifest)
    raw = _load_json_object(str(manifest_path))
    for key in ("command", "config", "outputs"):
        if key not in raw:
            raise ConfigError(f"{manifest_path}: missing manifest key {key!r}")
    command = raw["command"]
    if command not in _EXECUTORS:
        raise ConfigError(f"{manifest_path}: unknown command {command!r}")
    out = Path(args.out) if args.out else manifest_path.parent
    return _run_command(command, raw["config"], out)


class _Parser(argparse.ArgumentParser):
    """Argument errors are configuration errors: exit 1, not argparse's 2."""

    def error(self, message):
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="spinpad",
                     description="STT-MRAM scratchpad evaluation pipeline")
    parser.add_argument("--version", action="version",
                        version=f"spinpad {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, default_out: str) -> None:
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--out", default=default_out, help="output directory")

    p = sub.add_parser("wer-sweep", help="Monte Carlo WER vs write amplitude")
    common(p, "runs/wer-sweep")
    p.add_argument("--seed", type=int, help="override the run seed")
    p.add_argument("--workers", type=int,
                   help="parallel workers; the points of one duration are "
                        "split into up to N batches")
    p.add_argument("--durations", help="pulse durations ns: 'a,b' or 'a:b:step'")
    p.add_argument("--amplitudes", help="amplitude grid uA: 'a,b' or 'a:b:step'")
    p.add_argument("--trials", type=int, help="Monte Carlo trials per point")

    p = sub.add_parser("array-sweep", help="array metrics across capacities")
    common(p, "runs/array-sweep")
    p.add_argument("--technologies", help="comma list, e.g. sram,mram_base")
    p.add_argument("--capacities", help="capacities KB: 'a,b' or 'a:b:step'")
    p.add_argument("--calibration", help="calibration CSV replacing built-ins")

    p = sub.add_parser("system-compare",
                       help="iso-capacity/iso-area energy comparison")
    common(p, "runs/system-compare")
    p.add_argument("--workload", help="workload file (conv/fc lines)")
    p.add_argument("--mode", choices=["iso-capacity", "iso-area"])
    p.add_argument("--sweep", help="capacities KB or areas mm2")
    p.add_argument("--tech-a", dest="tech_a", help="first technology name")
    p.add_argument("--tech-b", dest="tech_b", help="second technology name")
    p.add_argument("--system", help="system energy config JSON")
    p.add_argument("--calibration", help="calibration CSV replacing built-ins")

    p = sub.add_parser("hetero-write",
                       help="per-segment write energy for binary32 words")
    common(p, "runs/hetero-write")
    p.add_argument("--mantissa-bits", dest="mantissa_bits", type=int,
                   help="mantissa bits on the optimized array")
    p.add_argument("--bit-energy", dest="bit_energy", type=float,
                   help="base write energy per bit, pJ")
    p.add_argument("--workload", help="workload file for the system estimate")
    p.add_argument("--capacity", type=float,
                   help="scratchpad capacity KB for the system estimate")
    p.add_argument("--calibration", help="calibration CSV replacing built-ins")

    p = sub.add_parser("error-train",
                       help="train the desk-scale MLP under write errors")
    common(p, "runs/error-train")
    p.add_argument("--seed", type=int, help="override the run seed")

    p = sub.add_parser("rerun", help="replay a run from its manifest")
    p.add_argument("manifest", help="path to a manifest.json")
    p.add_argument("--out", help="output directory (default: manifest's)")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        if args.command == "rerun":
            return _cmd_rerun(args)
        cfg = _RESOLVERS[args.command](args)
        return _run_command(args.command, cfg, Path(args.out))
    except ValueError as exc:  # ConfigError, InvalidParameterError, ...
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:
        print(f"runtime failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
