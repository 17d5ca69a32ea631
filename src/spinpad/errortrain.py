"""Bit-level write-error injection into a small numpy MLP trainer.

Write errors are modeled as independent per-bit flips on IEEE 754 binary32
words, with separate rates for the sign bit, the exponent bits, and a
configurable span of low-order mantissa bits. Injection happens on every
scratchpad write event during training: layer activations in the forward
pass, error tensors during the backward pass, and weights after the update
step. Weight gradients are consumed immediately and never written back, so
they are not an injection point. Values that come out of injection non-finite
are replaced with zero and counted, so a wrecked run diverges observably
instead of crashing.

One forward/backward pass, _backprop, serves the trainer, the test accuracy
and the gradient check. It hands every tensor it stores to a write hook,
write(kind, layer, tensor), and goes on with what the hook returns: the
trainer's hook injects, the default hook keeps the tensor as written.

Randomness is derived per write event from a counter-style key
(seed, kind, epoch, batch, layer), making the training curve a pure function
of (network spec, dataset, binding, seed) regardless of execution order.
The keys of one epoch's write events are derived as one table
(magnetics.derive_streams). Each write event draws one uniform per element
and bit at risk, bit by bit in the order sign, exponent bits 23..30,
mantissa bits 0..span-1. A draw covers k consecutive bits of one segment,
k * size words, which consumes the stream exactly as k draws of the tensor's
shape do, with k = max(1, _DRAW_CAP // tensor size) or fewer at the end of
the segment: a training tensor takes one draw per segment at risk and write
event, and a tensor of _DRAW_CAP elements or more one draw per bit. All the
bits of one draw share the segment's rate, so one scalar limit tests them.

A bit flips when its uniform u is below the segment's rate p. Philox's
random() makes u = (w >> 11) * 2**-53 from one raw 64-bit word w, and
random_raw yields the same words, so the test is made on the words
themselves: u < p exactly when (w >> 11) < ceil(p * 2**53), that is when
w <= ceil(p * 2**53) * 2**11 - 1, for every p in (0, 1]; p = 1 gives
2**64 - 1 and always flips. Only the hits, about p of the draws, are
scattered into the XOR mask.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, fields, replace

import numpy as np

from .errors import (POSITIVE, THROUGH_ONE, ConfigError, InvalidParameterError, bounded,
                     check_fields, check_int, check_range, config_from)
from .magnetics import derive_stream, derive_streams

SIGN_BIT = 31
EXPONENT_BITS = range(23, 31)
MANTISSA_SPAN = 23

# Bound on the uniforms one draw of _flip_mask holds (see the module
# docstring); it keeps the memory of a large tensor's injection bounded.
_DRAW_CAP = 1 << 16

_ACTIVATIONS = ("tanh", "relu")

# Stream kinds for counter-based randomness derivation.
_K_INIT, _K_SHUFFLE, _K_ACT, _K_ERR, _K_WEIGHT, _K_BIAS, _K_DATA = range(7)
_WRITE_KINDS = (_K_ACT, _K_ERR, _K_WEIGHT, _K_BIAS)


@dataclass(frozen=True)
class SegmentErrorConfig:
    """Per-segment bit flip probabilities for one scratchpad's writes."""

    sign_wer: float = bounded(0.0, THROUGH_ONE, default=0.0)
    exponent_wer: float = bounded(0.0, THROUGH_ONE, default=0.0)
    mantissa_wer: float = bounded(0.0, THROUGH_ONE, default=0.0)
    affected_mantissa_bits: int = bounded(0, MANTISSA_SPAN + 1, default=MANTISSA_SPAN,
                                          integer=True)  # lowest-order bits at risk

    __post_init__ = check_fields

    @property
    def is_zero(self) -> bool:
        return self.sign_wer == self.exponent_wer == self.mantissa_wer == 0.0


@dataclass(frozen=True)
class BufferErrorBinding:
    """Which write-error config applies to each of the three scratchpads."""

    activations: SegmentErrorConfig = SegmentErrorConfig()
    weights: SegmentErrorConfig = SegmentErrorConfig()
    errors: SegmentErrorConfig = SegmentErrorConfig()

    @property
    def is_zero(self) -> bool:
        return (self.activations.is_zero and self.weights.is_zero
                and self.errors.is_zero)


@dataclass(frozen=True)
class InjectionStats:
    bit_flips: int
    sanitized: int


@functools.lru_cache(maxsize=64)
def _bit_plan(cfg: SegmentErrorConfig) -> tuple[tuple[np.ndarray, np.uint64], ...]:
    """(bit values, raw-word hit limit) of each segment at risk, in draw order."""
    plan = []
    for p, segment in ((cfg.sign_wer, (SIGN_BIT,)),
                       (cfg.exponent_wer, EXPONENT_BITS),
                       (cfg.mantissa_wer, range(cfg.affected_mantissa_bits))):
        if p > 0.0:  # random() < p  <=>  word < ceil(p * 2**53) * 2**11
            bits = np.array([1 << bit for bit in segment], dtype=np.uint32)
            bits.flags.writeable = False  # the cache hands it to every caller
            plan.append((bits, np.uint64((math.ceil(p * 2.0 ** 53) << 11) - 1)))
    return tuple(plan)


def _flip_mask(shape: tuple[int, ...], cfg: SegmentErrorConfig,
               rng: np.random.Generator) -> tuple[np.ndarray, int]:
    """Per-element uint32 XOR mask and flip count, drawn in blocks of bits."""
    n = math.prod(shape)
    block = max(1, _DRAW_CAP // max(1, n))
    mask = np.zeros(n, dtype=np.uint32)
    flips = 0
    for bits, limit in _bit_plan(cfg):
        for lo in range(0, len(bits), block):
            run = bits[lo:lo + block]
            hits = np.flatnonzero(rng.bit_generator.random_raw(len(run) * n) <= limit)
            if hits.size:
                row, col = np.divmod(hits, n)
                np.bitwise_or.at(mask, col, run[row])
                flips += hits.size
    return mask.reshape(shape), flips


def inject_tensor(values: np.ndarray, cfg: SegmentErrorConfig,
                  rng: np.random.Generator) -> tuple[np.ndarray, InjectionStats]:
    """Flip bits element-wise; zero out (and count) non-finite results."""
    out = np.ascontiguousarray(values, dtype=np.float32).copy()
    if cfg.is_zero:
        return out, InjectionStats(0, 0)
    mask, flips = _flip_mask(out.shape, cfg, rng)
    out.view(np.uint32)[...] ^= mask
    bad = ~np.isfinite(out)
    sanitized = int(bad.sum())
    if sanitized:
        out[bad] = 0.0
    return out, InjectionStats(flips, sanitized)


# ----------------------------------------------------------------- dataset

@dataclass(frozen=True)
class Dataset:
    x_train: np.ndarray
    y_train: np.ndarray
    x_test: np.ndarray
    y_test: np.ndarray


def two_moons(n: int, noise: float = 0.15, seed: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """Two interleaved half circles, shuffled; the bundled desk-scale task."""
    check_int("n", n)
    check_range("n", n, 2)
    check_range("noise", noise, 0.0)
    rng = derive_stream(seed, _K_DATA)
    n_outer = n // 2
    n_inner = n - n_outer
    t_outer = rng.random(n_outer) * np.pi
    t_inner = rng.random(n_inner) * np.pi
    x = np.concatenate([
        np.stack([np.cos(t_outer), np.sin(t_outer)], axis=1),
        np.stack([1.0 - np.cos(t_inner), 0.5 - np.sin(t_inner)], axis=1),
    ])
    x += rng.standard_normal(x.shape) * noise
    y = np.concatenate([np.zeros(n_outer, dtype=np.int64),
                        np.ones(n_inner, dtype=np.int64)])
    order = rng.permutation(n)
    return x[order].astype(np.float32), y[order]


def make_moons_dataset(n_train: int = 400, n_test: int = 200,
                       noise: float = 0.15, seed: int = 0) -> Dataset:
    x, y = two_moons(n_train + n_test, noise=noise, seed=seed)
    return Dataset(x[:n_train], y[:n_train], x[n_train:], y[n_train:])


# --------------------------------------------------------------------- MLP

@dataclass(frozen=True)
class TinyNetSpec:
    """Feedforward net: layer_sizes[0] inputs through layer_sizes[-1] classes."""

    layer_sizes: tuple[int, ...] = (2, 32, 32, 2)
    activation: str = "tanh"
    learning_rate: float = bounded(POSITIVE, default=0.2)
    batch_size: int = bounded(1, default=32, integer=True)
    epochs: int = bounded(1, default=30, integer=True)
    seed: int = bounded(0, default=0, integer=True)

    def __post_init__(self) -> None:
        object.__setattr__(self, "layer_sizes", tuple(self.layer_sizes))
        for i, size in enumerate(self.layer_sizes):
            check_int(f"layer_sizes[{i}]", size)
            check_range(f"layer_sizes[{i}]", size, 1)
        check_fields(self)
        if len(self.layer_sizes) < 2:
            raise InvalidParameterError("need at least input and output sizes")
        if self.activation not in _ACTIVATIONS:
            raise InvalidParameterError(
                f"activation must be one of {_ACTIVATIONS}, got {self.activation!r}"
            )


def _activation_pair(tag: str):
    """(f, f' as a function of the post-activation value)."""
    if tag == "tanh":
        return np.tanh, lambda a: 1.0 - a * a
    return (lambda z: np.maximum(z, 0.0),
            lambda a: (a > 0).astype(a.dtype))


def init_params(spec: TinyNetSpec, dtype=np.float32) -> list[tuple[np.ndarray, np.ndarray]]:
    """1/sqrt(fan_in)-scaled normal weights, zero biases, seed-derived."""
    rng = derive_stream(spec.seed, _K_INIT)
    params = []
    for fan_in, fan_out in zip(spec.layer_sizes, spec.layer_sizes[1:]):
        w = rng.standard_normal((fan_in, fan_out)) / math.sqrt(fan_in)
        params.append((w.astype(dtype), np.zeros(fan_out, dtype=dtype)))
    return params


def _softmax(logits: np.ndarray) -> np.ndarray:
    z = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def _keep(kind: int, layer: int, tensor: np.ndarray) -> np.ndarray:
    """The write hook of a pass without injection: stored as written."""
    return tensor


def _forward(params, x, act_fn, write=_keep) -> list[np.ndarray]:
    """x and what each layer writes of its activation; the last is the logits."""
    acts = [x]
    last = len(params) - 1
    for li, (w, b) in enumerate(params):
        z = acts[-1] @ w + b
        acts.append(write(_K_ACT, li, act_fn(z) if li < last else z))
    return acts


def _backprop(params, x, y, act_fn, act_deriv, write=_keep):
    """Mean cross-entropy loss and its parameter gradients, in x's dtype.

    Each activation and each propagated error tensor (the loss gradient
    first) goes through write(kind, layer, tensor), which returns what the
    scratchpad holds once the tensor is written; the pass goes on with that.
    The gradients are None when the loss is not finite.
    """
    acts = _forward(params, x, act_fn, write)
    rows = np.arange(x.shape[0])
    p = _softmax(acts[-1])
    with np.errstate(divide="ignore"):
        loss = float(-np.log(p[rows, y]).mean())
    if not math.isfinite(loss):
        return loss, None
    onehot = np.zeros_like(p)
    onehot[rows, y] = 1.0
    last = len(params) - 1
    e = write(_K_ERR, last, (p - onehot) / x.shape[0])
    grads = [None] * len(params)
    for li in range(last, -1, -1):
        grads[li] = (acts[li].T @ e, e.sum(axis=0))
        if li:
            e = write(_K_ERR, li - 1, (e @ params[li][0].T) * act_deriv(acts[li]))
    return loss, grads


# ---------------------------------------------------------------- training

@dataclass(frozen=True)
class TrainingResult:
    """Per-epoch curve; lists stop early when the run diverges."""

    train_loss: list[float]
    test_accuracy: list[float]  # percent
    sanitized_per_epoch: list[int]
    diverged: bool
    diverged_sanitized: int = 0  # sanitized in the epoch that diverged

    @property
    def epochs_completed(self) -> int:
        return len(self.test_accuracy)

    @property
    def final_accuracy(self) -> float:
        return self.test_accuracy[-1] if self.test_accuracy else 0.0

    @property
    def total_sanitized(self) -> int:
        return sum(self.sanitized_per_epoch) + self.diverged_sanitized


def _validate_dataset(spec: TinyNetSpec, ds: Dataset) -> None:
    for x, y, tag in ((ds.x_train, ds.y_train, "train"),
                      (ds.x_test, ds.y_test, "test")):
        if x.ndim != 2 or x.shape[1] != spec.layer_sizes[0]:
            raise InvalidParameterError(
                f"{tag} inputs must be (n, {spec.layer_sizes[0]})")
        if y.shape != (x.shape[0],):
            raise InvalidParameterError(f"{tag} labels must match inputs")
        if y.size and (y.min() < 0 or y.max() >= spec.layer_sizes[-1]):
            raise InvalidParameterError(
                f"{tag} labels must be in [0, {spec.layer_sizes[-1]})")
    if ds.x_train.shape[0] < 1 or ds.x_test.shape[0] < 1:
        raise InvalidParameterError("train and test splits must be non-empty")


def _accuracy(params, x, y, act_fn) -> float:
    logits = _forward(params, x, act_fn)[-1]
    return 100.0 * float((logits.argmax(axis=1) == y).mean())


def train_with_errors(spec: TinyNetSpec, dataset: Dataset,
                      binding: BufferErrorBinding) -> TrainingResult:
    """Minibatch SGD with write-error injection at every scratchpad write.

    Each minibatch is one _backprop pass in float32 followed by the SGD
    update. Every tensor the scratchpads store goes through one write hook:
    each layer's activation in the forward pass, each propagated error
    tensor in the backward pass (the loss gradient first), and each
    weight and bias tensor after the update. The hook injects with the
    write event's own stream and counts what was sanitized; for a store
    whose config is zero it returns the tensor unchanged, so a zero binding
    is bit-identical to an error-free trainer with the same seed.
    """
    _validate_dataset(spec, dataset)
    act_fn, act_deriv = _activation_pair(spec.activation)
    params = init_params(spec)
    x_train = np.ascontiguousarray(dataset.x_train, dtype=np.float32)
    y_train = np.ascontiguousarray(dataset.y_train, dtype=np.int64)
    x_test = np.ascontiguousarray(dataset.x_test, dtype=np.float32)
    y_test = np.ascontiguousarray(dataset.y_test, dtype=np.int64)
    n = x_train.shape[0]
    lr = np.float32(spec.learning_rate)
    stores = {_K_ACT: binding.activations, _K_ERR: binding.errors,
              _K_WEIGHT: binding.weights, _K_BIAS: binding.weights}

    def write(kind, layer, tensor):
        nonlocal epoch_sanitized
        cfg = stores[kind]
        if cfg.is_zero:
            return tensor
        out, st = inject_tensor(tensor, cfg, stream(kind, epoch, batch, layer))
        epoch_sanitized += st.sanitized
        return out

    losses: list[float] = []
    accs: list[float] = []
    sanitized: list[int] = []

    for epoch in range(spec.epochs):
        order = derive_stream(spec.seed, _K_SHUFFLE, epoch).permutation(n)
        if not binding.is_zero:  # the write events' streams of this epoch
            stream = derive_streams(spec.seed, [
                (kind, epoch, batch, li) for kind in _WRITE_KINDS
                for batch in range(-(-n // spec.batch_size))
                for li in range(len(params))])
        xs, ys = x_train[order], y_train[order]
        batch_losses: list[float] = []
        epoch_sanitized = 0

        for batch, lo in enumerate(range(0, n, spec.batch_size)):
            loss, grads = _backprop(params, xs[lo:lo + spec.batch_size],
                                    ys[lo:lo + spec.batch_size], act_fn, act_deriv, write)
            if grads is None:
                return TrainingResult(losses, accs, sanitized, True, epoch_sanitized)
            batch_losses.append(loss)
            # weights are written back, gradients never are
            for li, ((w, b), (dw, db)) in enumerate(zip(params, grads)):
                params[li] = (write(_K_WEIGHT, li, w - lr * dw),
                              write(_K_BIAS, li, b - lr * db))

        losses.append(float(np.mean(batch_losses)))
        accs.append(_accuracy(params, x_test, y_test, act_fn))
        sanitized.append(epoch_sanitized)

    return TrainingResult(losses, accs, sanitized, False)


def train_reference(spec: TinyNetSpec, dataset: Dataset) -> TrainingResult:
    """Error-free baseline with the identical schedule and randomness."""
    return train_with_errors(spec, dataset, BufferErrorBinding())


# ------------------------------------------------------------- experiments

@dataclass(frozen=True)
class ExperimentConfig:
    """One error-resilience experiment: net, task, binding, seed list."""

    net: TinyNetSpec
    binding: BufferErrorBinding = BufferErrorBinding()
    seeds: tuple[int, ...] = (1, 2, 3)
    n_train: int = bounded(1, default=400, integer=True)
    n_test: int = bounded(1, default=200, integer=True)
    noise: float = bounded(0.0, default=0.3)
    dataset_seed: int = bounded(0, default=7, integer=True)

    def __post_init__(self) -> None:
        object.__setattr__(self, "seeds", tuple(self.seeds))
        for i, seed in enumerate(self.seeds):
            check_int(f"seeds[{i}]", seed)
            check_range(f"seeds[{i}]", seed, 0)
        check_fields(self)
        if not self.seeds:
            raise InvalidParameterError("need at least one seed")

    def dataset(self) -> Dataset:
        return make_moons_dataset(self.n_train, self.n_test, self.noise,
                                  self.dataset_seed)


def experiment_from_dict(raw, where: str = "experiment") -> ExperimentConfig:
    """Experiment schema: net fields at top level, binding nested per buffer.

    The net's seed is not a key: run_experiment trains once per entry of
    `seeds`, so a top-level seed would name a setting nothing reads."""
    if not isinstance(raw, dict):
        raise ConfigError(f"{where}: expected an object, got {type(raw).__name__}")
    net_keys = {f.name for f in fields(TinyNetSpec)} - {"seed"}
    net = config_from(TinyNetSpec, {k: v for k, v in raw.items() if k in net_keys}, where)
    rest = {k: v for k, v in raw.items() if k not in net_keys}
    return config_from(ExperimentConfig, rest, where, net=net)


def run_experiment(cfg: ExperimentConfig) -> dict[int, TrainingResult]:
    """Train once per seed on the shared dataset; keyed by seed."""
    ds = cfg.dataset()
    return {seed: train_with_errors(replace(cfg.net, seed=seed), ds, cfg.binding)
            for seed in cfg.seeds}
