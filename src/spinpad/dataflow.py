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
home buffer exactly once, when it first materializes; placement evicts older
tensors (arrival order during forward; during backward, forward-era tensors
newest-first, then backward-era tensors oldest-first, which tracks liveness)
and never writes anything back. A tensor loaded from DRAM charges one DRAM
read per element when placed; a tensor that does not fit stays in DRAM and
every streamed access goes there instead. Weight gradients live in the error
buffer; the loss gradient at the top of the network materializes in place,
free of charge. Under this policy DRAM traffic can rise with capacity between
nearby points: a tensor that newly fits can push out one that is read later.

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

from .errors import (ConfigError, InvalidLayerError, InvalidParameterError,
                     NotAGemmError, check_int)


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


@dataclass(frozen=True)
class Conv:
    batch: int
    in_channels: int
    in_height: int
    in_width: int
    out_channels: int
    kernel: int
    stride: int = 1
    padding: int = 0

    def __post_init__(self) -> None:
        for name in ("batch", "in_channels", "in_height", "in_width",
                     "out_channels", "kernel", "stride"):
            if getattr(self, name) < 1:
                raise InvalidLayerError(f"{name} must be >= 1")
        if self.padding < 0:
            raise InvalidLayerError("padding must be >= 0")
        if (self.kernel > self.in_height + 2 * self.padding
                or self.kernel > self.in_width + 2 * self.padding):
            raise InvalidLayerError("kernel larger than padded input")


@dataclass(frozen=True)
class FullyConnected:
    batch: int
    in_features: int
    out_features: int

    def __post_init__(self) -> None:
        for name in ("batch", "in_features", "out_features"):
            if getattr(self, name) < 1:
                raise InvalidLayerError(f"{name} must be >= 1")


LayerSpec = Conv | FullyConnected


@dataclass(frozen=True)
class AcceleratorConfig:
    rows: int = 256
    cols: int = 256
    activation_buffer_kb: float = 1024.0
    weight_buffer_kb: float = 1024.0
    error_buffer_kb: float = 1024.0
    element_size_bytes: int = 4

    def __post_init__(self) -> None:
        for name in ("rows", "cols", "element_size_bytes"):
            check_int(name, getattr(self, name))
        if self.rows < 1 or self.cols < 1:
            raise InvalidParameterError("array dimensions must be >= 1")
        for name in ("activation_buffer_kb", "weight_buffer_kb", "error_buffer_kb"):
            if getattr(self, name) <= 0:
                raise InvalidParameterError(f"{name} must be positive")
        if self.element_size_bytes != 4:
            raise InvalidParameterError("element size is fixed at 4 bytes (binary32)")

    def buffer_bytes(self, store: Store) -> int:
        kb = {
            Store.ACTIVATION: self.activation_buffer_kb,
            Store.WEIGHT: self.weight_buffer_kb,
            Store.ERROR: self.error_buffer_kb,
        }[store]
        return int(kb * 1024)


@dataclass(frozen=True)
class GemmShape:
    m_rows: int
    k_depth: int
    n_cols: int

    def __post_init__(self) -> None:
        if self.m_rows < 1 or self.k_depth < 1 or self.n_cols < 1:
            raise InvalidParameterError("gemm dimensions must be >= 1")


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


# Operand routing per GEMM phase: (row-port store, col-port store, result store)
_PHASE_STORES = {
    Phase.FORWARD: (Store.ACTIVATION, Store.WEIGHT, Store.ACTIVATION),
    Phase.BACKWARD_INPUT_GRAD: (Store.ERROR, Store.WEIGHT, Store.ERROR),
    Phase.BACKWARD_WEIGHT_GRAD: (Store.ERROR, Store.ACTIVATION, Store.ERROR),
}


@dataclass
class AccessTrace:
    """Read/write counts per (layer, phase, store) plus compute totals.

    `accesses` and `compute` are the per-key record that bench/spans.py and
    the tests read. Only `add` and `set_compute` fill them, and they also keep
    the totals per (phase, store) and per phase that every getter looks up.

    `capacity_range[store]` is the byte range [lo, hi) of that buffer's
    capacity over which every placement decision of simulate_iteration comes
    out the same (hi may be inf). The stores decide independently, so the
    trace built at any capacities inside all three ranges, with the same
    workload, rows and cols, equals this one record for record.
    """

    accesses: dict[tuple[int, Phase, Store], list[int]] = field(default_factory=dict, init=False)
    compute: dict[tuple[int, Phase], tuple[int, int]] = field(default_factory=dict, init=False)
    _totals: dict[tuple[Phase, Store], list[int]] = field(default_factory=dict, init=False)
    _phase_compute: dict[Phase, list[int]] = field(default_factory=dict, init=False)
    capacity_range: dict[Store, list[int | float]] = field(default_factory=dict, init=False)

    def add(self, layer: int, phase: Phase, store: Store,
            reads: int = 0, writes: int = 0) -> None:
        cell = self.accesses.setdefault((layer, phase, store), [0, 0])
        cell[0] += reads
        cell[1] += writes
        total = self._totals.setdefault((phase, store), [0, 0])
        total[0] += reads
        total[1] += writes

    def set_compute(self, layer: int, phase: Phase, macs: int, cycles: int) -> None:
        old_macs, old_cycles = self.compute.get((layer, phase), (0, 0))
        self.compute[(layer, phase)] = (macs, cycles)
        total = self._phase_compute.setdefault(phase, [0, 0])
        total[0] += macs - old_macs
        total[1] += cycles - old_cycles

    def reads(self, store: Store) -> int:
        return sum(self.phase_reads(phase, store) for phase in Phase)

    def writes(self, store: Store) -> int:
        return sum(self.phase_writes(phase, store) for phase in Phase)

    def dram_elements(self) -> int:
        return self.reads(Store.DRAM) + self.writes(Store.DRAM)

    def total_macs(self) -> int:
        return sum(self.phase_macs(phase) for phase in Phase)

    def total_cycles(self) -> int:
        return sum(self.phase_cycles(phase) for phase in Phase)

    def phase_macs(self, phase: Phase) -> int:
        return self._phase_compute.get(phase, (0, 0))[0]

    def phase_cycles(self, phase: Phase) -> int:
        return self._phase_compute.get(phase, (0, 0))[1]

    def phase_reads(self, phase: Phase, store: Store) -> int:
        return self._totals.get((phase, store), (0, 0))[0]

    def phase_writes(self, phase: Phase, store: Store) -> int:
        return self._totals.get((phase, store), (0, 0))[1]


@dataclass
class _Tensor:
    name: str
    home: Store
    elements: int
    resident: bool = False
    era: int = 0  # 0 = placed during forward, 1 = during backward
    seq: int = -1  # arrival order

    def bytes(self, cfg: AcceleratorConfig) -> int:
        return self.elements * cfg.element_size_bytes

    def location(self) -> Store:
        return self.home if self.resident else Store.DRAM


class _Buffers:
    """FIFO scratchpad state for the three on-chip buffers."""

    def __init__(self, cfg: AcceleratorConfig):
        self.cfg = cfg
        self.resident: dict[Store, list[_Tensor]] = {
            Store.ACTIVATION: [], Store.WEIGHT: [], Store.ERROR: []
        }
        self.capacity = {store: cfg.buffer_bytes(store) for store in self.resident}
        self.used = dict.fromkeys(self.resident, 0)  # bytes of resident[store]
        self.bounds = {store: [0, inf] for store in self.resident}  # [lo, hi), see place
        self.backward = False
        self._seq = 0

    def _evict_one(self, store: Store) -> None:
        pool = self.resident[store]
        if not self.backward:
            victim = min(pool, key=lambda t: t.seq)  # oldest first
        else:
            fwd_era = [t for t in pool if t.era == 0]
            if fwd_era:
                victim = max(fwd_era, key=lambda t: t.seq)  # deepest layer first
            else:
                victim = min(pool, key=lambda t: t.seq)
        pool.remove(victim)
        victim.resident = False
        self.used[store] -= victim.bytes(self.cfg)

    def place(self, tensor: _Tensor) -> bool:
        """Try to make a tensor resident in its home buffer; True if placed."""
        store = tensor.home
        size = tensor.bytes(self.cfg)
        bound = self.bounds[store]
        if size > self.capacity[store]:
            bound[1] = min(bound[1], size)
            return False
        while self.capacity[store] - self.used[store] < size:
            bound[1] = min(bound[1], self.used[store] + size)
            self._evict_one(store)
        bound[0] = max(bound[0], self.used[store] + size)
        tensor.resident = True
        tensor.era = 1 if self.backward else 0
        tensor.seq = self._seq
        self._seq += 1
        self.resident[store].append(tensor)
        self.used[store] += size
        return True


@lru_cache(maxsize=4096)
def _gemm_counts(layer: LayerSpec, phase: Phase, rows: int, cols: int) -> PhaseCounts:
    """count_phase_accesses of one layer's phase, which reads only rows x cols."""
    return count_phase_accesses(gemm_view(layer, phase),
                                AcceleratorConfig(rows=rows, cols=cols))


def simulate_iteration(workload: list[LayerSpec], cfg: AcceleratorConfig) -> AccessTrace:
    """Access trace of one full training iteration over the workload."""
    if not workload:
        raise InvalidParameterError("workload is empty")
    n_layers = len(workload)
    acts = [_Tensor("act0", Store.ACTIVATION, activation_elements(workload[0]))]
    acts += [_Tensor(f"act{l}", Store.ACTIVATION, output_elements(layer))
             for l, layer in enumerate(workload, start=1)]
    weights = {l: _Tensor(f"w{l}", Store.WEIGHT, weight_elements(layer))
               for l, layer in enumerate(workload, start=1)}
    errs = [_Tensor(f"err{l}", Store.ERROR, t.elements) for l, t in enumerate(acts)]
    wgrads = {l: _Tensor(f"wgrad{l}", Store.ERROR, weights[l].elements)
              for l in weights}

    trace = AccessTrace()
    buffers = _Buffers(cfg)

    def place_from_dram(tensor: _Tensor, layer: int, phase: Phase) -> None:
        if buffers.place(tensor):
            # one-shot buffer fill; the fill writes are not metered
            trace.add(layer, phase, Store.DRAM, reads=tensor.elements)

    def run_gemm(layer_idx: int, layer: LayerSpec, phase: Phase,
                 row_t: _Tensor, col_t: _Tensor, out_t: _Tensor) -> None:
        counts = _gemm_counts(layer, phase, cfg.rows, cfg.cols)
        trace.add(layer_idx, phase, row_t.location(), reads=counts.row_reads)
        trace.add(layer_idx, phase, col_t.location(), reads=counts.col_reads)
        trace.add(layer_idx, phase, out_t.location(), writes=counts.result_writes)
        trace.set_compute(layer_idx, phase, counts.macs, counts.cycles)

    for l, layer in enumerate(workload, start=1):
        if l == 1:
            place_from_dram(acts[0], l, Phase.FORWARD)
        place_from_dram(weights[l], l, Phase.FORWARD)
        buffers.place(acts[l])  # produced on chip, no DRAM fill
        run_gemm(l, layer, Phase.FORWARD, acts[l - 1], weights[l], acts[l])

    buffers.backward = True
    buffers.place(errs[n_layers])  # loss gradient materializes in place

    for l in range(n_layers, 0, -1):
        layer = workload[l - 1]
        buffers.place(errs[l - 1])
        run_gemm(l, layer, Phase.BACKWARD_INPUT_GRAD,
                 errs[l], weights[l], errs[l - 1])
        buffers.place(wgrads[l])
        run_gemm(l, layer, Phase.BACKWARD_WEIGHT_GRAD,
                 errs[l], acts[l - 1], wgrads[l])

    for l in range(1, n_layers + 1):
        w = weights[l].elements
        trace.add(l, Phase.WEIGHT_UPDATE, weights[l].location(), reads=w, writes=w)
        trace.add(l, Phase.WEIGHT_UPDATE, wgrads[l].location(), reads=w)
        trace.set_compute(l, Phase.WEIGHT_UPDATE, 0, 0)

    trace.capacity_range = buffers.bounds
    return trace


def _require_keys(tokens: dict[str, int], required: tuple[str, ...],
                  optional: tuple[str, ...], where: str) -> None:
    missing = [k for k in required if k not in tokens]
    if missing:
        raise ConfigError(f"{where}: missing field(s) {', '.join(missing)}")
    unknown = [k for k in tokens if k not in required + optional]
    if unknown:
        raise ConfigError(f"{where}: unknown field(s) {', '.join(unknown)}")


def load_workload(path: str | Path) -> list[LayerSpec]:
    """Parse a layer-per-line workload file.

    Lines look like `conv b=8 i=3 m=16 n=16 o=16 k=3 stride=1 pad=1` or
    `fc b=8 in=2048 out=64`; blank lines and #-comments are skipped.
    """
    layers: list[LayerSpec] = []
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            where = f"{path}:{lineno}"
            parts = line.split()
            kind, fields = parts[0].lower(), parts[1:]
            tokens: dict[str, int] = {}
            for part in fields:
                key, sep, value = part.partition("=")
                if not sep:
                    raise ConfigError(f"{where}: expected key=value, got {part!r}")
                try:
                    tokens[key] = int(value)
                except ValueError:
                    raise ConfigError(f"{where}: {key} must be an integer") from None
            try:
                if kind == "conv":
                    _require_keys(tokens, ("b", "i", "m", "n", "o", "k"),
                                  ("stride", "pad"), where)
                    layers.append(Conv(
                        batch=tokens["b"], in_channels=tokens["i"],
                        in_height=tokens["m"], in_width=tokens["n"],
                        out_channels=tokens["o"], kernel=tokens["k"],
                        stride=tokens.get("stride", 1),
                        padding=tokens.get("pad", 0),
                    ))
                elif kind == "fc":
                    _require_keys(tokens, ("b", "in", "out"), (), where)
                    layers.append(FullyConnected(
                        batch=tokens["b"], in_features=tokens["in"],
                        out_features=tokens["out"],
                    ))
                else:
                    raise ConfigError(f"{where}: unknown layer kind {kind!r}")
            except InvalidLayerError as exc:
                raise ConfigError(f"{where}: {exc}") from None
    if not layers:
        raise ConfigError(f"{path}: no layers defined")
    return layers
