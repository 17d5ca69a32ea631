import json
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from spinpad.errors import ConfigError, InvalidParameterError
from spinpad.errortrain import (
    _DRAW_CAP,
    BufferErrorBinding,
    Dataset,
    ExperimentConfig,
    SegmentErrorConfig,
    TinyNetSpec,
    TrainingResult,
    _flip_mask,
    experiment_from_dict,
    init_params,
    inject_tensor,
    loss_and_gradients,
    make_moons_dataset,
    run_experiment,
    train_reference,
    train_with_errors,
    two_moons,
)
from spinpad.magnetics import derive_stream

from oracles import flip_mask_per_bit, gradient_check, inject_word

SIGN_MASK = 0x80000000
EXP_MASK = 0x7F800000
MANT_MASK = 0x007FFFFF

# Bundled desk-scale task: noisy two moons + the default MLP.
DATASET = make_moons_dataset(400, 200, noise=0.3, seed=7)
SPEC = TinyNetSpec()  # (2, 32, 32, 2), tanh, lr 0.2, batch 32, 30 epochs


def rng(*key):
    return derive_stream(99, *key)


def bits(values):
    return np.ascontiguousarray(values, dtype=np.float32).view(np.uint32)


# --------------------------------------------------------------- configs

def test_segment_config_validation():
    for kwargs in ({"sign_wer": -0.1}, {"exponent_wer": 1.5},
                   {"mantissa_wer": 2.0}, {"affected_mantissa_bits": 24},
                   {"affected_mantissa_bits": -1}, {"mantissa_wer": True},
                   {"sign_wer": "0.1"}):
        with pytest.raises(InvalidParameterError):
            SegmentErrorConfig(**kwargs)
    for kwargs in ({"affected_mantissa_bits": 5.0},
                   {"affected_mantissa_bits": True}):
        with pytest.raises(ConfigError, match="affected_mantissa_bits"):
            SegmentErrorConfig(**kwargs)


def test_zero_configs():
    assert SegmentErrorConfig.zero().is_zero
    assert not SegmentErrorConfig(mantissa_wer=1e-3).is_zero
    assert BufferErrorBinding.zero().is_zero
    uni = BufferErrorBinding.uniform(SegmentErrorConfig(sign_wer=0.1))
    assert not uni.is_zero
    assert uni.activations == uni.weights == uni.errors


# ------------------------------------------------------------- injection

def test_inject_word_identity():
    assert inject_word(1.25, SegmentErrorConfig.zero(), rng(0)) == 1.25


def test_inject_word_forced_sign_flip():
    cfg = SegmentErrorConfig(sign_wer=1.0)
    assert inject_word(1.0, cfg, rng(1)) == -1.0
    assert inject_word(-2.5, cfg, rng(2)) == 2.5


def test_inject_word_forced_low_mantissa_bit():
    cfg = SegmentErrorConfig(mantissa_wer=1.0, affected_mantissa_bits=1)
    out = inject_word(1.0, cfg, rng(3))
    expected = np.array([0x3F800001], dtype=np.uint32).view(np.float32)[0]
    assert np.float32(out) == expected


def test_inject_word_rejects_nonfinite():
    with pytest.raises(InvalidParameterError):
        inject_word(float("nan"), SegmentErrorConfig.zero(), rng(4))


def test_inject_tensor_zero_config_bit_identical():
    x = np.linspace(-5, 5, 1000, dtype=np.float32)
    out, stats = inject_tensor(x, SegmentErrorConfig.zero(), rng(5))
    assert np.array_equal(bits(out), bits(x))
    assert (stats.bit_flips, stats.sanitized) == (0, 0)


def test_inject_tensor_flip_fraction():
    # 1e6 elements x 23 mantissa bits at p = 0.5; binomial 3-sigma is ~0.03%
    n = 1_000_000
    x = np.ones(n, dtype=np.float32)
    cfg = SegmentErrorConfig(mantissa_wer=0.5)
    _, stats = inject_tensor(x, cfg, rng(6))
    frac = stats.bit_flips / (n * 23)
    assert abs(frac - 0.5) < 0.0051
    assert stats.sanitized == 0  # mantissa flips keep values finite


@pytest.mark.parametrize("cfg,allowed", [
    (SegmentErrorConfig(sign_wer=0.3), SIGN_MASK),
    (SegmentErrorConfig(exponent_wer=0.3), EXP_MASK),
    (SegmentErrorConfig(mantissa_wer=0.3), MANT_MASK),
])
def test_segment_isolation(cfg, allowed):
    x = np.full(100_000, 1.5, dtype=np.float32)
    out, stats = inject_tensor(x, cfg, rng(7))
    changed = bits(x) ^ bits(out)
    # sanitization zeroes whole words, so restrict to surviving elements
    survivors = out != 0.0
    assert stats.bit_flips > 0
    assert (changed[survivors] & ~np.uint32(allowed)).max(initial=0) == 0


def test_mantissa_span_restricts_bits():
    x = np.full(50_000, 1.0, dtype=np.float32)
    cfg = SegmentErrorConfig(mantissa_wer=0.5, affected_mantissa_bits=4)
    out, _ = inject_tensor(x, cfg, rng(8))
    changed = bits(x) ^ bits(out)
    assert (changed & ~np.uint32(0xF)).max(initial=0) == 0


def test_nonfinite_results_sanitized_to_zero():
    # 0.0 has all-zero exponent; forcing all 8 exponent flips gives +Inf
    x = np.zeros(10, dtype=np.float32)
    out, stats = inject_tensor(x, SegmentErrorConfig(exponent_wer=1.0), rng(9))
    assert np.array_equal(out, np.zeros(10, dtype=np.float32))
    assert stats.sanitized == 10


def test_injection_deterministic_per_stream():
    x = np.linspace(0.1, 9.9, 4096, dtype=np.float32)
    cfg = SegmentErrorConfig(sign_wer=0.01, exponent_wer=0.01, mantissa_wer=0.1)
    a, _ = inject_tensor(x, cfg, derive_stream(5, 1, 2, 3))
    b, _ = inject_tensor(x, cfg, derive_stream(5, 1, 2, 3))
    c, _ = inject_tensor(x, cfg, derive_stream(5, 1, 2, 4))
    assert np.array_equal(bits(a), bits(b))
    assert not np.array_equal(bits(a), bits(c))


def _every_segment(p):
    return {"sign_wer": p, "exponent_wer": p, "mantissa_wer": p}


_SEGMENTS = {
    "sign": {"sign_wer": 0.2},
    "exponent": {"exponent_wer": 0.2},
    "mantissa": {"mantissa_wer": 0.2},
    "all": {"sign_wer": 0.05, "exponent_wer": 0.1, "mantissa_wer": 0.3},
    "all_p1": _every_segment(1.0),
    "exponent_mantissa": {"exponent_wer": 0.5, "mantissa_wer": 1.0},
    # edges of the raw-word threshold ceil(p * 2**53): the least positive
    # uniform, a p between two uniforms, the least subnormal, one half, the
    # greatest uniform below 1, and the bundled rate
    "p_2m53": _every_segment(2.0 ** -53),
    "p_3x2m54": _every_segment(3 * 2.0 ** -54),
    "p_5e-324": _every_segment(5e-324),
    "p_half": _every_segment(0.5),
    "p_1m2m53": _every_segment(1 - 2.0 ** -53),
    "p_bundled": _every_segment(1e-3),
}


@pytest.mark.parametrize("shape", [
    (0, 4), (1,), (32, 32), (5, 3, 4),
    (_DRAW_CAP // 12 + 1,),  # 11 bits a draw: several draws, the last short
    (_DRAW_CAP + 3,),  # one bit per draw
])
@pytest.mark.parametrize("span", [0, 1, 7, 23])
@pytest.mark.parametrize("segments", sorted(_SEGMENTS))
def test_flip_mask_matches_per_bit_oracle(segments, span, shape):
    # the blocked draw must consume each stream exactly as one draw per bit
    cfg = SegmentErrorConfig(affected_mantissa_bits=span, **_SEGMENTS[segments])
    mask, flips = _flip_mask(shape, cfg, derive_stream(42, span))
    want_mask, want_flips = flip_mask_per_bit(shape, cfg, derive_stream(42, span))
    assert mask.dtype == np.uint32 and mask.shape == shape
    assert np.array_equal(mask, want_mask)
    assert flips == want_flips


def test_large_injection_memory_bounded():
    # 1e6 words x 32 bits at risk: drawn at once it would hold 256 MB of
    # uniforms; the block rule keeps one bit's worth (8 MB) at a time
    x = np.ones(1_000_000, dtype=np.float32)
    cfg = SegmentErrorConfig(sign_wer=1e-3, exponent_wer=1e-3, mantissa_wer=1e-3)
    tracemalloc.start()
    try:
        inject_tensor(x, cfg, rng(10))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20


@settings(max_examples=40, deadline=None)
@given(
    values=hnp.arrays(np.float32, st.integers(1, 64),
                      elements=st.floats(-(2.0 ** 100), 2.0 ** 100, width=32)),
    sign=st.floats(0, 1),
    exp=st.floats(0, 1),
    mant=st.floats(0, 1),
    span=st.integers(0, 23),
    key=st.integers(0, 2**31 - 1),
)
def test_injected_output_always_finite(values, sign, exp, mant, span, key):
    cfg = SegmentErrorConfig(sign_wer=sign, exponent_wer=exp,
                             mantissa_wer=mant, affected_mantissa_bits=span)
    out, _ = inject_tensor(values, cfg, derive_stream(0, key))
    assert np.isfinite(out).all()


# --------------------------------------------------------------- dataset

def test_two_moons_shapes_and_balance():
    x, y = two_moons(401, seed=3)
    assert x.shape == (401, 2) and x.dtype == np.float32
    assert y.shape == (401,) and y.dtype == np.int64
    assert int((y == 0).sum()) == 200
    assert int((y == 1).sum()) == 201


def test_two_moons_noise_free_geometry():
    x, y = two_moons(200, noise=0.0, seed=5)
    outer = x[y == 0].astype(np.float64)
    r = np.hypot(outer[:, 0], outer[:, 1])
    assert np.allclose(r, 1.0, atol=1e-6)
    assert (outer[:, 1] >= -1e-6).all()  # upper half circle


def test_two_moons_deterministic():
    a = two_moons(100, seed=11)
    b = two_moons(100, seed=11)
    c = two_moons(100, seed=12)
    assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])
    assert not np.array_equal(a[0], c[0])


def test_two_moons_validation():
    with pytest.raises(InvalidParameterError):
        two_moons(1)
    with pytest.raises(InvalidParameterError):
        two_moons(10, noise=-0.1)


def test_make_moons_dataset_split():
    ds = make_moons_dataset(300, 100, seed=2)
    assert ds.x_train.shape == (300, 2)
    assert ds.x_test.shape == (100, 2)
    assert ds.y_train.shape == (300,) and ds.y_test.shape == (100,)


# ------------------------------------------------------------------- net

def test_tinynet_validation():
    for kwargs in ({"layer_sizes": (4,)}, {"layer_sizes": (4, 0)},
                   {"learning_rate": 0.0}, {"batch_size": 0},
                   {"epochs": 0}, {"activation": "sigmoid"}):
        with pytest.raises(InvalidParameterError):
            TinyNetSpec(**kwargs)
    for kwargs, name in (({"batch_size": 2.5}, "batch_size"),
                         ({"batch_size": True}, "batch_size"),
                         ({"epochs": True}, "epochs"),
                         ({"epochs": 3.0}, "epochs"),
                         ({"seed": 1.5}, "seed"),
                         ({"seed": False}, "seed"),
                         ({"layer_sizes": (2, 8.0, 2)}, r"layer_sizes\[1\]"),
                         ({"layer_sizes": (True, 2)}, r"layer_sizes\[0\]")):
        with pytest.raises(ConfigError, match=name):
            TinyNetSpec(**kwargs)
    assert TinyNetSpec(layer_sizes=(np.int64(2), 4, 2), epochs=np.int32(3)).epochs == 3


def test_init_params_shapes_and_determinism():
    spec = TinyNetSpec(layer_sizes=(2, 5, 3), seed=4)
    p1 = init_params(spec)
    p2 = init_params(spec)
    assert [w.shape for w, _ in p1] == [(2, 5), (5, 3)]
    assert all(b.shape == (n,) for (_, b), n in zip(p1, (5, 3)))
    assert all(np.array_equal(a[0], b[0]) for a, b in zip(p1, p2))
    assert all(w.dtype == np.float32 and b.dtype == np.float32 for w, b in p1)


def test_gradient_check_two_hidden_layers():
    x, y = two_moons(10, seed=13)
    err = gradient_check(TinyNetSpec(layer_sizes=(2, 8, 8, 2), seed=3), x, y)
    assert err < 1e-4


def test_gradient_check_linear_quadratic():
    # quadratic loss on a single linear layer: central differences are exact
    # up to float64 rounding
    x, y = two_moons(8, seed=17)
    err = gradient_check(TinyNetSpec(layer_sizes=(2, 2), seed=6), x, y,
                         loss="quadratic")
    assert err < 1e-8


def test_gradient_check_relu():
    x, y = two_moons(10, seed=19)
    spec = TinyNetSpec(layer_sizes=(2, 8, 2), activation="relu", seed=5)
    assert gradient_check(spec, x, y) < 1e-4


def test_zero_weight_network_has_zero_weight_gradients():
    spec = TinyNetSpec(layer_sizes=(2, 4, 2), seed=0)
    params = [(np.zeros((2, 4)), np.zeros(4)), (np.zeros((4, 2)), np.zeros(2))]
    x, y = two_moons(6, seed=23)
    _, grads = loss_and_gradients(params, x.astype(np.float64), y)
    # tanh(0) = 0 kills every activation, so all weight gradients cancel
    assert np.array_equal(grads[0][0], np.zeros((2, 4)))
    assert np.array_equal(grads[1][0], np.zeros((4, 2)))
    assert gradient_check(spec, x, y, params=params) < 1e-6


def test_unknown_loss_rejected():
    params = init_params(TinyNetSpec(layer_sizes=(2, 2)), dtype=np.float64)
    x, y = two_moons(4, seed=29)
    with pytest.raises(InvalidParameterError):
        loss_and_gradients(params, x.astype(np.float64), y, loss="hinge")


# -------------------------------------------------------------- training

def test_dataset_validation():
    good = make_moons_dataset(40, 10, seed=1)
    spec = TinyNetSpec(epochs=1)
    with pytest.raises(InvalidParameterError):
        train_with_errors(spec, Dataset(good.x_train[:, :1], good.y_train,
                                        good.x_test, good.y_test),
                          BufferErrorBinding.zero())
    with pytest.raises(InvalidParameterError):
        train_with_errors(spec, Dataset(good.x_train, good.y_train + 5,
                                        good.x_test, good.y_test),
                          BufferErrorBinding.zero())
    with pytest.raises(InvalidParameterError):
        train_with_errors(spec, Dataset(good.x_train, good.y_train,
                                        good.x_test[:0], good.y_test[:0]),
                          BufferErrorBinding.zero())


def test_zero_binding_matches_reference_bit_identically():
    spec = replace(SPEC, epochs=8)
    a = train_with_errors(spec, DATASET, BufferErrorBinding.zero())
    b = train_reference(spec, DATASET)
    assert a.train_loss == b.train_loss
    assert a.test_accuracy == b.test_accuracy
    assert a.sanitized_per_epoch == b.sanitized_per_epoch == [0] * 8
    assert not a.diverged and not b.diverged


def test_training_curve_deterministic():
    spec = replace(SPEC, epochs=5)
    binding = BufferErrorBinding.uniform(SegmentErrorConfig(mantissa_wer=1e-2))
    a = train_with_errors(spec, DATASET, binding)
    b = train_with_errors(spec, DATASET, binding)
    assert a.train_loss == b.train_loss
    assert a.test_accuracy == b.test_accuracy


def test_training_reaches_good_accuracy():
    result = train_reference(replace(SPEC, seed=1), DATASET)
    assert result.epochs_completed == SPEC.epochs
    assert result.final_accuracy >= 88.0
    assert all(np.isfinite(result.train_loss))


def test_mantissa_noise_changes_curve_but_not_outcome():
    spec = replace(SPEC, seed=1, epochs=10)
    base = train_reference(spec, DATASET)
    noisy = train_with_errors(
        spec, DATASET,
        BufferErrorBinding.uniform(SegmentErrorConfig(mantissa_wer=1e-3)))
    assert noisy.train_loss != base.train_loss
    assert abs(noisy.final_accuracy - base.final_accuracy) <= 5.0


def test_exponent_errors_wreck_training():
    spec = replace(SPEC, seed=1)
    result = train_with_errors(
        spec, DATASET,
        BufferErrorBinding.uniform(SegmentErrorConfig(exponent_wer=1e-2)))
    base = train_reference(spec, DATASET)
    assert result.diverged or result.final_accuracy <= base.final_accuracy - 10.0


def test_diverged_result_shape():
    spec = replace(SPEC, seed=2)
    result = train_with_errors(
        spec, DATASET,
        BufferErrorBinding.uniform(SegmentErrorConfig(exponent_wer=0.5)))
    assert result.diverged
    assert result.epochs_completed < spec.epochs
    assert result.final_accuracy == 0.0 or result.test_accuracy


def test_diverged_run_counts_every_sanitized_value(monkeypatch):
    """The epoch that diverges has no curve row, but its sanitized values count."""
    counted = []

    def counting(*args):
        out, stats = inject_tensor(*args)
        counted.append(stats.sanitized)
        return out, stats

    monkeypatch.setattr("spinpad.errortrain.inject_tensor", counting)
    result = train_with_errors(
        replace(SPEC, seed=2), DATASET,
        BufferErrorBinding.uniform(SegmentErrorConfig(exponent_wer=0.5)))
    assert result.diverged
    assert sum(counted) > sum(result.sanitized_per_epoch)
    assert result.total_sanitized == sum(counted)


def test_monotone_stress_majority():
    # mean accuracy trends down over the mantissa stress sweep; per adjacent
    # step a majority of seeds must be non-increasing (single runs are noisy)
    seeds = (1, 2, 3)
    wers = (0.0, 1e-3, 1e-2, 1e-1)
    finals = {}
    for wer in wers:
        binding = (BufferErrorBinding.zero() if wer == 0.0 else
                   BufferErrorBinding.uniform(SegmentErrorConfig(mantissa_wer=wer)))
        finals[wer] = [
            train_with_errors(replace(SPEC, seed=s), DATASET, binding).final_accuracy
            for s in seeds
        ]
    for wa, wb in zip(wers, wers[1:]):
        non_increasing = sum(b <= a for a, b in zip(finals[wa], finals[wb]))
        assert non_increasing * 2 > len(seeds), (wa, wb, finals)
    assert np.mean(finals[wers[-1]]) < np.mean(finals[0.0])


# ----------------------------------------------------------- experiments

def test_experiment_config_validation():
    with pytest.raises(InvalidParameterError):
        ExperimentConfig(net=SPEC, binding=BufferErrorBinding.zero(), seeds=())
    with pytest.raises(InvalidParameterError):
        ExperimentConfig(net=SPEC, binding=BufferErrorBinding.zero(), n_train=0)
    for kwargs, name in (({"n_train": 40.5}, "n_train"),
                         ({"n_test": True}, "n_test"),
                         ({"dataset_seed": 7.0}, "dataset_seed"),
                         ({"dataset_seed": "7"}, "dataset_seed"),
                         ({"seeds": (1.5,)}, r"seeds\[0\]"),
                         ({"seeds": (1, True)}, r"seeds\[1\]")):
        with pytest.raises(ConfigError, match=name):
            ExperimentConfig(net=SPEC, **kwargs)


def test_run_experiment_keyed_by_seed():
    cfg = ExperimentConfig(net=replace(SPEC, epochs=2),
                           binding=BufferErrorBinding.zero(),
                           seeds=(5, 6), n_train=64, n_test=32)
    results = run_experiment(cfg)
    assert set(results) == {5, 6}
    assert all(isinstance(r, TrainingResult) for r in results.values())
    assert results[5].train_loss != results[6].train_loss


def load_experiment(path) -> ExperimentConfig:
    """An experiment config loaded from its JSON file, as error-train does."""
    return experiment_from_dict(json.loads(path.read_text()), where=str(path))


def test_load_experiment_roundtrip(tmp_path):
    payload = {
        "layer_sizes": [2, 16, 2], "activation": "tanh",
        "learning_rate": 0.3, "batch_size": 16, "epochs": 4,
        "seeds": [9], "n_train": 80, "n_test": 40, "noise": 0.2,
        "dataset_seed": 3,
        "binding": {"weights": {"mantissa_wer": 1e-3,
                                "affected_mantissa_bits": 8}},
    }
    path = tmp_path / "exp.json"
    path.write_text(json.dumps(payload))
    cfg = load_experiment(path)
    assert cfg.net.layer_sizes == (2, 16, 2)
    assert cfg.net.learning_rate == 0.3
    assert cfg.seeds == (9,)
    assert cfg.binding.weights.mantissa_wer == 1e-3
    assert cfg.binding.weights.affected_mantissa_bits == 8
    assert cfg.binding.activations.is_zero
    results = run_experiment(cfg)
    assert results[9].epochs_completed == 4


@pytest.mark.parametrize("body", [
    '[]',
    '{"layer_sizes": [2, 2], "bogus": 1}',
    '{"binding": {"bogus": {}}}',
    '{"binding": {"weights": {"mantissa_wer": 2.0}}}',
    '{"binding": {"weights": {"bogus_wer": 0.1}}}',
    '{"binding": {"weights": {"mantissa_wer": true}}}',
    '{"binding": {"errors": {"sign_wer": "0.1"}}}',
    '{"layer_sizes": [2, 2], "epochs": 0}',
    '{"seeds": []}',
])
def test_load_experiment_errors(tmp_path, body):
    path = tmp_path / "exp.json"
    path.write_text(body)
    with pytest.raises(ConfigError):
        load_experiment(path)
