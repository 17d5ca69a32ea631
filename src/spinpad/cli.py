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
import copy
import csv
import json
import math
import sys
from dataclasses import asdict, dataclass, field, replace
from datetime import datetime, timezone
from json.encoder import encode_basestring_ascii
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
    layer_from_dict,
    load_workload,
)
from .energy import (
    MANTISSA_BITS,
    SegmentMap,
    SystemEnergyConfig,
    compare_iso_area,
    compare_iso_capacity,
    hetero_write_energy,
)
from .errors import (FINITE, POSITIVE, ConfigError, InvalidParameterError, SpinpadError,
                     bounded, check_fields, check_range, config_from, listed)
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

_ANCHOR_CAPACITIES_KB = (32.0, 183.0, 512.0, 40592.0, 131072.0, 524288.0)


# --------------------------------------------------------------- file I/O

def _write_csv(path: Path, header: list[str], rows) -> None:
    with open(path, "w", newline="") as fh:
        fh.write("# manifest: manifest.json\n")
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(header)
        w.writerows(rows)


def _json_text(value, indent: str = "\n", keys: dict | None = None) -> str:
    """Exactly json.dumps(value, indent=2, sort_keys=True), without the stdlib's
    pure-Python encoder that any indent runs; `indent` is the newline and
    indent of the line `value` starts on, and `keys` caches each key's encoding
    and ": " across the calls that write one document."""
    keys = {} if keys is None else keys

    def text(value, indent: str) -> str:
        kind = type(value)
        if kind is int or kind is float and value - value == 0.0:  # inf - inf is nan
            return repr(value)
        inner = indent + "  "
        if isinstance(value, dict) and value:  # a finite float value is written inline
            return "{" + inner + ("," + inner).join([
                (keys.get(k) or keys.setdefault(k, encode_basestring_ascii(k) + ": "))
                + (repr(v) if type(v) is float and v - v == 0.0 else text(v, inner))
                for k, v in sorted(value.items())]) + indent + "}"
        if isinstance(value, (list, tuple)) and value:
            return "[" + inner + ("," + inner).join(
                [text(v, inner) for v in value]) + indent + "]"
        return json.dumps(value)  # str, bool, None, inf, nan, subclasses, {} and []
    return text(value, indent)


def _write_json(path: Path, payload: dict) -> None:
    """Exactly the bytes of json.dumps(doc, indent=2, sort_keys=True) + "\n",
    doc being payload with its "manifest" key. system-compare writes its
    breakdown.json point by point through _json_text instead, to the same bytes."""
    path.write_text(_json_text({"manifest": "manifest.json", **payload}) + "\n")


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


def _from_file(cls, path: str | None):
    """A run config from its --config file, or the defaults without one."""
    return config_from(cls, _load_json_object(path) if path else {}, path or "defaults")


# -------------------------------------------------------- shared parsing

def _parse_float_list(text: str, flag: str) -> list[float]:
    """Either 'a,b,c' or an arange-style 'start:stop:step' (stop exclusive)."""
    try:
        if ":" in text:
            start, stop, step = numbers = [float(t) for t in text.split(":")]
        else:
            numbers = [float(t) for t in text.split(",") if t.strip()]
    except ValueError:
        raise ConfigError(f"{flag}: cannot parse {text!r}") from None
    if not all(map(math.isfinite, numbers)):
        raise ConfigError(f"{flag}: non-finite value in {text!r}")
    if ":" in text:
        if step <= 0:
            raise ConfigError(f"{flag}: step must be positive")
        numbers, i = [], 0
        while (v := start + i * step) < stop:
            numbers.append(v)
            i += 1
    if not numbers:
        raise ConfigError(f"{flag}: empty value list {text!r}")
    return numbers


def _tech_from_spec(spec, where: str) -> MemoryTechnology:
    """A technology's preset name, or an object of mram_custom factors."""
    if isinstance(spec, str):
        try:
            return MemoryTechnology.from_name(spec)
        except ConfigError as exc:
            raise ConfigError(f"{where}: {exc}") from None
    return config_from(MemoryTechnology, spec, where, kind=TechnologyKind.MRAM_CUSTOM)


def _layer_to_dict(layer: LayerSpec) -> dict:
    kind = "conv" if isinstance(layer, Conv) else "fc"
    return {"kind": kind, **asdict(layer)}


def _workload_from_config(items, where: str) -> list[LayerSpec]:
    if not isinstance(items, list) or not items:
        raise ConfigError(f"{where}: workload must be a non-empty list")
    return [layer_from_dict(item, f"{where}[{i}]") for i, item in enumerate(items)]


def _nonempty(name: str, values):
    """A list-valued key's value, refused unless it is a list with an item."""
    if not listed(name, values):
        raise ConfigError(f"{name}: empty value list")
    return values


def _floats(name: str, values, lo: float = FINITE) -> tuple[float, ...]:
    """A config's list of numbers as floats, each checked to lie in [lo, inf)."""
    for value in _nonempty(name, values):
        check_range(name, value, lo)
    return tuple(map(float, values))


def _table(calibration_csv: str | None) -> CalibrationTable:
    return (CalibrationTable.from_csv(calibration_csv) if calibration_csv
            else CalibrationTable())


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


# Each subcommand has one config dataclass: what its executor reads and
# what its manifest records. config_from builds it from the --config file
# or, on rerun, from the manifest; the resolver then sets the fields its
# flags override. Its __post_init__ checks every field, technology specs and
# workload included, so a refused config makes no output directory.

# ------------------------------------------------------------- wer-sweep


@dataclass
class _WerSweep:
    device: MtjDevice = MtjDevice()
    simulation: MagSimConfig = MagSimConfig(trials=200, seed=20240817)
    durations_ns: tuple[float, ...] = (20.0,)
    amplitudes_ua: tuple[float, ...] = (50.0, 56.0, 62.0, 68.0, 74.0)
    workers: int = bounded(1, default=1, integer=True)

    def __post_init__(self) -> None:
        self.durations_ns = _floats("durations_ns", self.durations_ns, POSITIVE)
        self.amplitudes_ua = _floats("amplitudes_ua", self.amplitudes_ua, 0.0)
        check_fields(self)


def _resolve_wer_sweep(args) -> _WerSweep:
    cfg = _from_file(_WerSweep, args.config)
    if args.durations is not None:
        cfg.durations_ns = tuple(_parse_float_list(args.durations, "--durations"))
    if args.amplitudes is not None:
        cfg.amplitudes_ua = tuple(_parse_float_list(args.amplitudes, "--amplitudes"))
    if args.trials is not None:
        cfg.simulation = replace(cfg.simulation, trials=args.trials)
    if args.seed is not None:
        cfg.simulation = replace(cfg.simulation, seed=args.seed)
    if args.workers is not None:
        cfg.workers = args.workers
    return cfg


def _exec_wer_sweep(cfg: _WerSweep, out: Path) -> list[str]:
    curve = run_wer_sweep(cfg.device, cfg.amplitudes_ua, cfg.durations_ns,
                          cfg.simulation, workers=cfg.workers)
    rows = [[_fmt(p.amplitude_ua), _fmt(p.duration_ns), p.trials,
             _fmt(p.p_switch), _fmt(p.ln_wer)] for p in curve.points]
    _write_csv(out / "sweep.csv",
               ["amplitude_uA", "duration_ns", "trials", "p_switch", "ln_wer"],
               rows)
    fits = []
    for d in cfg.durations_ns:
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


@dataclass
class _ArraySweep:
    technologies: tuple = ("sram", "mram_base")
    capacities_kb: tuple[float, ...] = _ANCHOR_CAPACITIES_KB
    calibration_csv: str | None = None

    def __post_init__(self) -> None:
        self.capacities_kb = _floats("capacities_kb", self.capacities_kb)
        for spec in _nonempty("technologies", self.technologies):
            _tech_from_spec(spec, "technologies")


def _resolve_array_sweep(args) -> _ArraySweep:
    cfg = _from_file(_ArraySweep, args.config)
    if args.technologies is not None:
        cfg.technologies = tuple(t.strip() for t in args.technologies.split(",")
                                 if t.strip())
    if args.capacities is not None:
        cfg.capacities_kb = tuple(_parse_float_list(args.capacities, "--capacities"))
    if args.calibration is not None:
        cfg.calibration_csv = args.calibration
    return cfg


def _exec_array_sweep(cfg: _ArraySweep, out: Path) -> list[str]:
    table = _table(cfg.calibration_csv)
    rows = []
    for spec in cfg.technologies:
        tech = _tech_from_spec(spec, "technologies")
        name = spec if isinstance(spec, str) else tech.kind.value
        for cap in cfg.capacities_kb:
            m = metrics_at_capacity(table, tech, cap)
            rows.append([name] + [_fmt(getattr(m, f)) for f in _METRIC_FIELDS])
    _write_csv(out / "metrics.csv", ["technology", *_METRIC_FIELDS], rows)
    return ["metrics.csv"]


# -------------------------------------------------------- system-compare


@dataclass
class _SystemCompare:
    workload: list = field(default_factory=_default_workload)
    mode: str = "iso-capacity"
    sweep: tuple[float, ...] = _ANCHOR_CAPACITIES_KB
    tech_a: str | dict = "sram"
    tech_b: str | dict = "mram_base"
    accelerator: AcceleratorConfig = AcceleratorConfig()
    system: SystemEnergyConfig = SystemEnergyConfig()
    calibration_csv: str | None = None

    def __post_init__(self) -> None:
        self.sweep = _floats("sweep", self.sweep)
        if self.mode not in ("iso-capacity", "iso-area"):
            raise InvalidParameterError(
                f"mode must be iso-capacity or iso-area, got {self.mode!r}")
        # each sweep point puts its own capacity in every buffer
        for name in ("activation_buffer_kb", "weight_buffer_kb", "error_buffer_kb"):
            if getattr(self.accelerator, name) != getattr(AcceleratorConfig(), name):
                raise InvalidParameterError(
                    f"accelerator: {name} is set by the sweep, not by the config")
        _workload_from_config(self.workload, "workload")
        _tech_from_spec(self.tech_a, "tech_a")
        _tech_from_spec(self.tech_b, "tech_b")


def _resolve_system_compare(args) -> _SystemCompare:
    cfg = _from_file(_SystemCompare, args.config)
    if args.workload is not None:
        cfg.workload = [_layer_to_dict(l) for l in load_workload(args.workload)]
    if args.mode is not None:
        cfg.mode = args.mode
    if args.sweep is not None:
        cfg.sweep = tuple(_parse_float_list(args.sweep, "--sweep"))
    if args.tech_a is not None:
        cfg.tech_a = args.tech_a
    if args.tech_b is not None:
        cfg.tech_b = args.tech_b
    if args.system is not None:
        cfg.system = config_from(SystemEnergyConfig,
                                 _load_json_object(args.system), args.system)
    if args.calibration is not None:
        cfg.calibration_csv = args.calibration
    return cfg


_COMPARE_HEADER = ["index", "mode", "sweep_value", "status", "detail",
                   "capacity_a_kb", "capacity_b_kb", "total_a_nj", "total_b_nj",
                   "improvement", "dram_elements_a", "dram_elements_b"]


def _exec_system_compare(cfg: _SystemCompare, out: Path) -> list[str]:
    """Writes each point's compare.csv row and breakdown.json object as soon as
    it has them, under temporary names that replace the old files once the
    sweep ends, so the sweep holds no point and a failed one changes no file."""
    workload = _workload_from_config(cfg.workload, "workload")
    table = _table(cfg.calibration_csv)
    tech_a = _tech_from_spec(cfg.tech_a, "tech_a")
    tech_b = _tech_from_spec(cfg.tech_b, "tech_b")
    compare = (compare_iso_capacity if cfg.mode == "iso-capacity"
               else compare_iso_area)
    memo: dict = {}  # the last trace per side, reused inside its decision ranges
    keys: dict = {}  # each key's encoding, shared by every point of the document
    # json.dumps's bytes around the points, which sort last and sit at "\n    "
    head, tail = _json_text({"manifest": "manifest.json", "mode": cfg.mode, "points": [0]},
                            keys=keys).split("\n    0")
    failures = 0

    def rows(fh):  # writes each point's JSON object and yields its CSV row
        nonlocal failures
        for i, value in enumerate(cfg.sweep):
            try:
                pt = compare(workload, cfg.accelerator, value, tech_a, tech_b,
                             table=table, sys=cfg.system, memo=memo)
            except SpinpadError as exc:
                failures += 1
                point = {"index": i, "sweep_value": value,
                         "status": "error", "detail": str(exc)}
                row = [i, cfg.mode, _fmt(value), "error", str(exc), "", "", "", "", "", "", ""]
            else:
                point = {"index": i, "sweep_value": value, "status": "ok",
                         "improvement": pt.improvement,
                         "capacity_a_kb": pt.capacity_a_kb, "capacity_b_kb": pt.capacity_b_kb,
                         "dram_elements_a": pt.dram_elements_a,
                         "dram_elements_b": pt.dram_elements_b,
                         "tech_a": pt.report_a.as_dict(), "tech_b": pt.report_b.as_dict()}
                row = [
                    i, cfg.mode, _fmt(value), "ok", "",
                    _fmt(pt.capacity_a_kb), _fmt(pt.capacity_b_kb),
                    _fmt(pt.report_a.total_nj), _fmt(pt.report_b.total_nj),
                    _fmt(pt.improvement), pt.dram_elements_a, pt.dram_elements_b,
                ]
            fh.write(("," if i else head) + "\n    " + _json_text(point, "\n    ", keys))
            yield row
        fh.write(tail + "\n")

    names = ["compare.csv", "breakdown.json"]
    temps = [out / f"{name}.tmp" for name in names]
    try:
        with open(temps[1], "w", buffering=1 << 16) as fh:  # 8 KB writes cost ~1.5%
            _write_csv(temps[0], _COMPARE_HEADER, rows(fh))
        for temp, name in zip(temps, names):
            temp.replace(out / name)
    finally:
        for temp in temps:
            temp.unlink(missing_ok=True)
    if failures == len(cfg.sweep):
        raise RuntimeError("every sweep point failed; see compare.csv")
    return names


# ---------------------------------------------------------- hetero-write


@dataclass
class _HeteroWrite:
    sign_mode: str | dict = "mram_base"
    exponent_mode: str | dict = "mram_base"
    mantissa_mode: str | dict = "mram_low_duration"
    mantissa_bits: int = bounded(0, MANTISSA_BITS + 1, default=MANTISSA_BITS, integer=True)
    bit_energy_pj: float = bounded(POSITIVE, default=1.0)

    def __post_init__(self) -> None:
        check_fields(self)
        self.bit_energy_pj = float(self.bit_energy_pj)
        for name in ("sign_mode", "exponent_mode", "mantissa_mode"):
            _tech_from_spec(getattr(self, name), name)


def _resolve_hetero_write(args) -> _HeteroWrite:
    cfg = _from_file(_HeteroWrite, args.config)
    if args.mantissa_bits is not None:
        cfg.mantissa_bits = args.mantissa_bits
    if args.bit_energy is not None:
        cfg.bit_energy_pj = args.bit_energy
    return cfg


def _exec_hetero_write(cfg: _HeteroWrite, out: Path) -> list[str]:
    segments = [_tech_from_spec(getattr(cfg, name), name)
                for name in ("sign_mode", "exponent_mode", "mantissa_mode")]
    # every split is built and checked before the first file is written
    *sweep, chosen = [hetero_write_energy(SegmentMap(*segments, bits), cfg.bit_energy_pj)
                      for bits in (*range(24), cfg.mantissa_bits)]
    _write_csv(out / "hetero.csv",
               ["mantissa_bits", "word_energy_factor", "per_word_energy_pj",
                "improvement"],
               [[bits, _fmt(res.word_energy_factor), _fmt(res.per_word_energy_pj),
                 _fmt(res.improvement)] for bits, res in enumerate(sweep)])
    _write_json(out / "hetero.json", {"mantissa_bits": cfg.mantissa_bits, **asdict(chosen)})
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


@dataclass
class _ErrorTrain:
    experiment: dict  # the flat schema of errortrain.experiment_from_dict

    def __post_init__(self) -> None:
        experiment_from_dict(self.experiment)


def _resolve_error_train(args) -> _ErrorTrain:
    raw = (_load_json_object(args.config) if args.config
           else copy.deepcopy(_DEFAULT_EXPERIMENT))
    if args.seed is not None:
        raw["seeds"] = [args.seed]
    return config_from(_ErrorTrain, {"experiment": raw}, args.config or "defaults")


def _exec_error_train(cfg: _ErrorTrain, out: Path) -> list[str]:
    exp = experiment_from_dict(cfg.experiment)
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

# subcommand -> (config dataclass, resolver from the flags, executor)
_COMMANDS = {
    "wer-sweep": (_WerSweep, _resolve_wer_sweep, _exec_wer_sweep),
    "array-sweep": (_ArraySweep, _resolve_array_sweep, _exec_array_sweep),
    "system-compare": (_SystemCompare, _resolve_system_compare,
                       _exec_system_compare),
    "hetero-write": (_HeteroWrite, _resolve_hetero_write, _exec_hetero_write),
    "error-train": (_ErrorTrain, _resolve_error_train, _exec_error_train),
}


def _manifest_seed(cfg):
    if isinstance(cfg, _WerSweep):
        return cfg.simulation.seed
    if isinstance(cfg, _ErrorTrain):
        return list(cfg.experiment.get("seeds", []))
    return None


def _write_manifest(out: Path, command: str, cfg, outputs: list[str]) -> None:
    manifest = {
        "command": command,
        "version": __version__,
        "seed": _manifest_seed(cfg),
        "config": asdict(cfg),
        "outputs": outputs,
        "created": datetime.now(timezone.utc).isoformat(timespec="seconds"),
    }
    (out / "manifest.json").write_text(_json_text(manifest) + "\n")


def _run_command(command: str, cfg, out: Path) -> int:
    out.mkdir(parents=True, exist_ok=True)
    outputs = _COMMANDS[command][2](cfg, out)
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
    if command not in _COMMANDS:
        raise ConfigError(f"{manifest_path}: unknown command {command!r}")
    cfg = config_from(_COMMANDS[command][0], raw["config"], f"{manifest_path}: config")
    out = Path(args.out) if args.out else manifest_path.parent
    return _run_command(command, cfg, out)


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
        cfg = _COMMANDS[args.command][1](args)
        # the flags set fields after the config was checked: building it again checks
        # them too, before the output directory is made
        return _run_command(args.command, replace(cfg), Path(args.out))
    except ValueError as exc:  # ConfigError, InvalidParameterError, ...
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:
        print(f"runtime failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
