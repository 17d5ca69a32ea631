"""Access counting for one DNN training iteration on a systolic accelerator.

The array is output stationary: each tile of the output matrix is pinned to
the processing elements while both operands stream through, so per tile with
r x c active elements and reduction depth k the row port moves r*k words, the
column port c*k words, r*c results drain out, and the pipeline occupies
k + r + c - 1 cycles.

Training runs as four phases per layer: FORWARD, BACKWARD_INPUT_GRAD,
BACKWARD_WEIGHT_GRAD (all GEMMs), then an element-wise WEIGHT_UPDATE pass
(2 reads + 1 write per weight, vector path, zero systolic cycles).

On-chip residency follows a FIFO scratchpad model. A tensor is placed in its
home buffer exactly once, when it first materializes; placement evicts the
buffer's oldest tensors first and never writes anything back. Forward places
tensors only in the activation and weight buffers and backward only in the
error buffer, so no buffer holds tensors of both passes. A tensor loaded
from DRAM charges one DRAM read per element when placed; a tensor that does
not fit stays in DRAM and every streamed access goes there instead. Weight
gradients live in the error buffer; the loss gradient at the top of the
network materializes in place, free of charge. Every element is a binary32
word of ELEMENT_BYTES bytes. Under this policy DRAM traffic can rise with
capacity between nearby points: a tensor that newly fits can push out one
that is read later.

A trace is built in two steps. The schedule, built once per (workload,
rows, cols), holds each tensor's home buffer and size, every placement and
access in order with its GEMM counts, and the compute per phase. Each
tensor's accesses are in schedule order, so its last read is known before
any capacity is. The replay, run per capacity, makes only the FIFO placement
decisions and adds each access to its phase's count under its tensor's
buffer or DRAM. The trace keeps no per-layer counts; tests/oracles.py
`reference_iteration` answers per-layer questions with the same counts.

Every placement compares a tensor's bytes with its buffer's capacity, so a
trace also carries, per store, the byte range [lo, hi) of capacities over
which each of those comparisons comes out the same. Inside that range the
same tensors are placed and evicted in the same order, so the trace is
identical, and a caller may reuse it for any capacity in the range.

DRAM read/write counts in the trace are in elements; the energy model
(energy.estimate_energy) divides them by a configurable burst width.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from functools import lru_cache
from math import inf
from pathlib import Path

from .errors import (POSITIVE, ConfigError, InvalidLayerError, InvalidParameterError,
                     NotAGemmError, bounded, check_fields, config_from)


class Phase(str, Enum):
    FORWARD = "forward"
    BACKWARD_INPUT_GRAD = "backward_input_grad"
    BACKWARD_WEIGHT_GRAD = "backward_weight_grad"
    WEIGHT_UPDATE = "weight_update"


class Store(str, Enum):
    ACTIVATION = "activation"
    WEIGHT = "weight"
    ERROR = "error"
    DRAM = "dram"


ELEMENT_BYTES = 4  # binary32


@dataclass(frozen=True)
class Conv:
    batch: int = bounded(1, integer=True)
    in_channels: int = bounded(1, integer=True)
    in_height: int = bounded(1, integer=True)
    in_width: int = bounded(1, integer=True)
    out_channels: int = bounded(1, integer=True)
    kernel: int = bounded(1, integer=True)
    stride: int = bounded(1, default=1, integer=True)
    padding: int = bounded(0, default=0, integer=True)

    def __post_init__(self) -> None:
        check_fields(self)
        if (self.kernel > self.in_height + 2 * self.padding
                or self.kernel > self.in_width + 2 * self.padding):
            raise InvalidLayerError("kernel larger than padded input")


@dataclass(frozen=True)
class FullyConnected:
    batch: int = bounded(1, integer=True)
    in_features: int = bounded(1, integer=True)
    out_features: int = bounded(1, integer=True)

    __post_init__ = check_fields


LayerSpec = Conv | FullyConnected


@dataclass(frozen=True)
class AcceleratorConfig:
    rows: int = bounded(1, default=256, integer=True)
    cols: int = bounded(1, default=256, integer=True)
    activation_buffer_kb: float = bounded(POSITIVE, default=1024.0)
    weight_buffer_kb: float = bounded(POSITIVE, default=1024.0)
    error_buffer_kb: float = bounded(POSITIVE, default=1024.0)

    __post_init__ = check_fields

    def buffer_bytes(self, store: Store) -> int:
        kb = {
            Store.ACTIVATION: self.activation_buffer_kb,
            Store.WEIGHT: self.weight_buffer_kb,
            Store.ERROR: self.error_buffer_kb,
        }[store]
        return int(kb * 1024)


@dataclass(frozen=True)
class GemmShape:
    m_rows: int = bounded(1, integer=True)
    k_depth: int = bounded(1, integer=True)
    n_cols: int = bounded(1, integer=True)

    __post_init__ = check_fields


def out_dims(layer: Conv) -> tuple[int, int]:
    oh = (layer.in_height + 2 * layer.padding - layer.kernel) // layer.stride + 1
    ow = (layer.in_width + 2 * layer.padding - layer.kernel) // layer.stride + 1
    return oh, ow


def activation_elements(layer: LayerSpec) -> int:
    """Input tensor size of a layer, in elements."""
    if isinstance(layer, Conv):
        return layer.batch * layer.in_channels * layer.in_height * layer.in_width
    return layer.batch * layer.in_features


def output_elements(layer: LayerSpec) -> int:
    if isinstance(layer, Conv):
        oh, ow = out_dims(layer)
        return layer.batch * layer.out_channels * oh * ow
    return layer.batch * layer.out_features


def weight_elements(layer: LayerSpec) -> int:
    if isinstance(layer, Conv):
        return layer.out_channels * layer.in_channels * layer.kernel * layer.kernel
    return layer.in_features * layer.out_features


def gemm_view(layer: LayerSpec, phase: Phase) -> GemmShape:
    """GEMM dimensions (m, k, n) of one training phase of a layer."""
    if phase == Phase.WEIGHT_UPDATE:
        raise NotAGemmError("weight update is element-wise, not a GEMM")
    if isinstance(layer, Conv):
        oh, ow = out_dims(layer)
        k2 = layer.kernel * layer.kernel
        if phase == Phase.FORWARD:
            return GemmShape(layer.batch * oh * ow, k2 * layer.in_channels,
                             layer.out_channels)
        if phase == Phase.BACKWARD_INPUT_GRAD:
            return GemmShape(layer.batch * layer.in_height * layer.in_width,
                             k2 * layer.out_channels, layer.in_channels)
        return GemmShape(layer.out_channels, layer.batch * oh * ow,
                         k2 * layer.in_channels)
    if phase == Phase.FORWARD:
        return GemmShape(layer.batch, layer.in_features, layer.out_features)
    if phase == Phase.BACKWARD_INPUT_GRAD:
        return GemmShape(layer.batch, layer.out_features, layer.in_features)
    return GemmShape(layer.out_features, layer.batch, layer.in_features)


@dataclass(frozen=True)
class PhaseCounts:
    tiles: int
    row_reads: int
    col_reads: int
    result_writes: int
    macs: int
    cycles: int


def count_phase_accesses(shape: GemmShape, cfg: AcceleratorConfig) -> PhaseCounts:
    """Streamed words, results, macs, and pipeline cycles of a tiled GEMM."""
    m, k, n = shape.m_rows, shape.k_depth, shape.n_cols
    row_tiles = -(-m // cfg.rows)
    col_tiles = -(-n // cfg.cols)
    tiles = row_tiles * col_tiles
    # sum over tiles of r*k / c*k / r*c / (k + r + c - 1), in closed form
    row_reads = k * m * col_tiles
    col_reads = k * n * row_tiles
    result_writes = m * n
    cycles = tiles * (k - 1) + m * col_tiles + n * row_tiles
    return PhaseCounts(tiles, row_reads, col_reads, result_writes, m * k * n, cycles)


@dataclass
class AccessTrace:
    """Read/write counts of one training iteration, plus compute totals.

    `totals[(phase, store)]` is [reads, writes] and `phase_compute[phase]` is
    (macs, cycles), each summed over the layers; the energy model reads them
    directly, a key the trace lacks counting as zero. The benchmark reads
    `dram_elements()` and `total_cycles()`.

    `capacity_range[store]` is the byte range [lo, hi) of that buffer's
    capacity over which every placement decision of simulate_iteration comes
    out the same (hi may be inf). The stores decide independently, so the
    trace built at any capacities inside all three ranges, with the same
    workload, rows and cols, equals this one.
    """

    totals: dict[tuple[Phase, Store], list[int]] = field(default_factory=dict)
    phase_compute: dict[Phase, tuple[int, int]] = field(default_factory=dict)
    capacity_range: dict[Store, list[int | float]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self._dram = sum(sum(self.totals.get((phase, Store.DRAM), (0, 0)))
                         for phase in Phase)
        self.priced = None  # energy's record of this unchanging trace at one system config

    def dram_elements(self) -> int:
        return self._dram

    def total_cycles(self) -> int:
        return sum(cycles for _, cycles in self.phase_compute.values())


_BUFFERS = (Store.ACTIVATION, Store.WEIGHT, Store.ERROR)
_PLACE, _ACCESS = range(2)  # schedule event kinds


@lru_cache(maxsize=64)
def _schedule(workload: tuple[LayerSpec, ...], rows: int, cols: int):
    """Everything about one iteration that no buffer capacity changes.

    Returns (sizes, homes, events, phase_compute). Tensor t has sizes[t]
    bytes and lives in buffer homes[t], an index into _BUFFERS. `events` is
    the iteration in order:
      (_PLACE, t, elements, loaded): place t; if t is loaded from DRAM, a
        placement charges `elements` DRAM reads under the key
        loaded = (phase, DRAM) (the buffer's fill writes are not metered);
      (_ACCESS, t, reads, writes, on_chip, in_dram): one stream of a GEMM or
        of the weight update, counted under the key on_chip = (phase, home)
        while t is resident, else under in_dram = (phase, DRAM).
    `phase_compute[phase]` is (macs, cycles) summed over the layers.
    """
    array = AcceleratorConfig(rows=rows, cols=cols)
    homes, elements, events = [], [], []
    phase_compute = dict.fromkeys(Phase, (0, 0))

    def tensor(store: Store, n: int) -> int:
        homes.append(_BUFFERS.index(store))
        elements.append(n)
        return len(homes) - 1

    def place(t: int, phase: Phase | None = None) -> None:
        loaded = None if phase is None else (phase, Store.DRAM)
        events.append((_PLACE, t, elements[t], loaded))

    def access(t: int, phase: Phase, reads: int, writes: int) -> None:
        events.append((_ACCESS, t, reads, writes, (phase, _BUFFERS[homes[t]]),
                       (phase, Store.DRAM)))

    def gemm(layer: LayerSpec, phase: Phase, row_t: int, col_t: int, out_t: int) -> None:
        counts = count_phase_accesses(gemm_view(layer, phase), array)
        access(row_t, phase, counts.row_reads, 0)
        access(col_t, phase, counts.col_reads, 0)
        access(out_t, phase, 0, counts.result_writes)
        macs, cycles = phase_compute[phase]
        phase_compute[phase] = (macs + counts.macs, cycles + counts.cycles)

    n_layers = len(workload)
    acts = [tensor(Store.ACTIVATION, activation_elements(workload[0]))]
    acts += [tensor(Store.ACTIVATION, output_elements(layer)) for layer in workload]
    weights = [None] + [tensor(Store.WEIGHT, weight_elements(layer)) for layer in workload]
    errs = [tensor(Store.ERROR, elements[t]) for t in acts]
    wgrads = [None] + [tensor(Store.ERROR, elements[t]) for t in weights[1:]]

    place(acts[0], Phase.FORWARD)
    for l, layer in enumerate(workload, start=1):
        place(weights[l], Phase.FORWARD)
        place(acts[l])  # produced on chip, no DRAM fill
        gemm(layer, Phase.FORWARD, acts[l - 1], weights[l], acts[l])

    place(errs[n_layers])  # loss gradient materializes in place

    for l in range(n_layers, 0, -1):
        layer = workload[l - 1]
        place(errs[l - 1])
        gemm(layer, Phase.BACKWARD_INPUT_GRAD, errs[l], weights[l], errs[l - 1])
        place(wgrads[l])
        gemm(layer, Phase.BACKWARD_WEIGHT_GRAD, errs[l], acts[l - 1], wgrads[l])

    for l in range(1, n_layers + 1):
        w = elements[weights[l]]
        access(weights[l], Phase.WEIGHT_UPDATE, w, w)
        access(wgrads[l], Phase.WEIGHT_UPDATE, w, 0)

    return [n * ELEMENT_BYTES for n in elements], homes, events, phase_compute


def simulate_iteration(workload: list[LayerSpec], cfg: AcceleratorConfig) -> AccessTrace:
    """Access trace of one full training iteration over the workload.

    Replays the workload's schedule, built once per (workload, rows, cols),
    through the FIFO buffers at cfg's capacities: only the placements and
    evictions, and so each access's store, depend on the capacities.
    """
    if not workload:
        raise InvalidParameterError("workload is empty")
    sizes, homes, events, phase_compute = _schedule(tuple(workload), cfg.rows, cfg.cols)
    capacity = [cfg.buffer_bytes(store) for store in _BUFFERS]
    used = [0, 0, 0]
    pools = [[], [], []]  # resident tensors per buffer, oldest first
    bounds = [[0, inf], [0, inf], [0, inf]]  # [lo, hi) per buffer, see below
    resident = [False] * len(sizes)
    totals = {(phase, store): [0, 0] for phase in Phase for store in Store}
    for ev in events:
        kind, t = ev[0], ev[1]
        if kind == _ACCESS:
            reads, writes = ev[2], ev[3]
            key = ev[4] if resident[t] else ev[5]
        else:
            # Each comparison of a size with a capacity narrows the home
            # buffer's range to the capacities that decide it the same way.
            b, size = homes[t], sizes[t]
            cap, bound, pool = capacity[b], bounds[b], pools[b]
            if size > cap:
                bound[1] = min(bound[1], size)
                continue
            while cap - used[b] < size:
                bound[1] = min(bound[1], used[b] + size)
                victim = pool.pop(0)
                resident[victim] = False
                used[b] -= sizes[victim]
            used[b] += size
            bound[0] = max(bound[0], used[b])
            pool.append(t)
            resident[t] = True
            if ev[3] is None:
                continue
            reads, writes, key = ev[2], 0, ev[3]
        cell = totals[key]
        cell[0] += reads
        cell[1] += writes
    return AccessTrace(totals, dict(phase_compute), dict(zip(_BUFFERS, bounds)))


# each layer kind, and the short keys of its workload-file line
_LAYER_KINDS = {
    "conv": (Conv, {"b": "batch", "i": "in_channels", "m": "in_height", "n": "in_width",
                    "o": "out_channels", "k": "kernel", "stride": "stride", "pad": "padding"}),
    "fc": (FullyConnected, {"b": "batch", "in": "in_features", "out": "out_features"}),
}


def layer_from_dict(raw, where: str) -> LayerSpec:
    """A layer from {"kind": "conv" or "fc", field: value, ...}, built by config_from."""
    if not isinstance(raw, dict) or "kind" not in raw:
        raise ConfigError(f"{where}: each layer needs a 'kind'")
    raw = dict(raw)
    kind = raw.pop("kind")
    if not isinstance(kind, str) or kind not in _LAYER_KINDS:
        raise ConfigError(f"{where}: unknown layer kind {kind!r}")
    return config_from(_LAYER_KINDS[kind][0], raw, where)


def load_workload(path: str | Path) -> list[LayerSpec]:
    """Parse a layer-per-line workload file.

    Lines look like `conv b=8 i=3 m=16 n=16 o=16 k=3 stride=1 pad=1` or
    `fc b=8 in=2048 out=64`; blank lines and #-comments are skipped. Each
    short key names a field of the kind's layer (_LAYER_KINDS); any other key
    is taken as a field name, and a field set twice is an error. The line is
    built as layer_from_dict builds a workload entry of a config.
    """
    layers: list[LayerSpec] = []
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            where = f"{path}:{lineno}"
            kind, *tokens = line.split()
            short = _LAYER_KINDS.get(kind.lower(), (None, {}))[1]
            layer = {"kind": kind.lower()}
            for token in tokens:
                key, sep, value = token.partition("=")
                if not sep:
                    raise ConfigError(f"{where}: expected key=value, got {token!r}")
                name = short.get(key, key)
                if name in layer:
                    raise ConfigError(f"{where}: {key} given twice")
                try:
                    layer[name] = int(value)
                except ValueError:
                    raise ConfigError(f"{where}: {key} must be an integer") from None
            layers.append(layer_from_dict(layer, where))
    if not layers:
        raise ConfigError(f"{path}: no layers defined")
    return layers
