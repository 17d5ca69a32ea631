"""Every numeric bound goes through errors.check_range, a half-open interval.

A closed end is written as the next float above it (or the next integer), so
each bound must still accept its inclusive ends and reject the nearest value
outside them; a NaN, an infinity or a bool never passes.

One declaration per bound: each int or float field of a config dataclass
declares its bound once, with errors.bounded, and errors.check_fields
enforces it however the object is built.
"""

import math
from dataclasses import fields, replace

import numpy as np
import pytest

from spinpad.arraymodel import ArrayMetrics, MemoryTechnology, TechnologyKind
from spinpad.cli import _HeteroWrite, _WerSweep
from spinpad.dataflow import AcceleratorConfig, Conv, FullyConnected, GemmShape
from spinpad.energy import SegmentMap, SystemEnergyConfig
from spinpad.errors import (POSITIVE, ConfigError, InvalidParameterError, check_range,
                            config_from)
from spinpad.errortrain import ExperimentConfig, SegmentErrorConfig, TinyNetSpec
from spinpad.magnetics import (LnWerFit, MagSimConfig, MtjDevice, WerPoint, WritePulse,
                               required_amplitude)


def below(x):
    return math.nextafter(x, -math.inf)


def above(x):
    return math.nextafter(x, math.inf)


def _custom(**kw):
    return MemoryTechnology(TechnologyKind.MRAM_CUSTOM,
                            **{"write_energy_factor": 0.5, "wer": 1e-3, **kw})


def _segments(bits):
    base = MemoryTechnology.from_name("mram_base")
    return SegmentMap(base, base, base, bits)


_FIT = LnWerFit(20.0, -0.5, 10.0, 1.0, 4)

# (name, build from one value, the inclusive ends, the nearest values outside)
BOUNDS = [
    ("thermal_stability", lambda v: MtjDevice(thermal_stability=v),
     (20.0, 100.0), (below(20.0), above(100.0))),
    ("damping", lambda v: MtjDevice(damping=v), (POSITIVE, below(1.0)), (0.0, 1.0)),
    ("temperature_k", lambda v: MtjDevice(temperature_k=v), (0.0,), (-POSITIVE,)),
    ("fl_thickness_nm", lambda v: MtjDevice(fl_thickness_nm=v), (POSITIVE,), (0.0,)),
    ("time_step_ps", lambda v: MagSimConfig(time_step_ps=v), (POSITIVE, 10.0),
     (0.0, above(10.0))),
    ("relax_time_ns", lambda v: MagSimConfig(relax_time_ns=v), (0.0,), (-POSITIVE,)),
    ("trials", lambda v: MagSimConfig(trials=v), (1,), (0,)),
    ("simulation seed", lambda v: MagSimConfig(seed=v), (0,), (-1,)),
    ("initial_tilt_rad", lambda v: MagSimConfig(initial_tilt_rad=v),
     (0.0, below(math.pi / 2)), (-POSITIVE, math.pi / 2)),
    ("pulse amplitude_ua", lambda v: WritePulse(v, 1.0), (0.0,), (-POSITIVE,)),
    ("pulse duration_ns", lambda v: WritePulse(1.0, v), (POSITIVE,), (0.0,)),
    ("p_switch", lambda v: WerPoint(50.0, 1.0, 10, v), (0.0, 1.0), (-POSITIVE, above(1.0))),
    ("target_wer", lambda v: required_amplitude(_FIT, v), (POSITIVE, below(1.0)), (0.0, 1.0)),
    ("write_latency_factor", lambda v: _custom(write_latency_factor=v), (POSITIVE, 1.0),
     (0.0, above(1.0))),
    ("write_energy_factor", lambda v: _custom(write_energy_factor=v), (POSITIVE, 1.0),
     (0.0, above(1.0))),
    ("technology wer", lambda v: _custom(write_energy_factor=1.0, wer=v),
     (0.0, below(1.0)), (-POSITIVE, 1.0)),
    ("array wer", lambda v: ArrayMetrics(1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, wer=v),
     (0.0, below(1.0)), (-POSITIVE, 1.0)),
    ("leakage_mw", lambda v: ArrayMetrics(1.0, 1.0, 1.0, 1.0, 1.0, 1.0, v), (0.0,),
     (-POSITIVE,)),
    ("mantissa_wer", lambda v: SegmentErrorConfig(mantissa_wer=v), (0.0, 1.0),
     (-POSITIVE, above(1.0))),
    ("affected_mantissa_bits", lambda v: SegmentErrorConfig(affected_mantissa_bits=v),
     (0, 23), (-1, 24)),
    ("mantissa_bits_on_optimized", _segments, (0, 23), (-1, 24)),
    ("learning_rate", lambda v: TinyNetSpec(learning_rate=v), (POSITIVE,), (0.0,)),
    ("noise", lambda v: ExperimentConfig(net=TinyNetSpec(), noise=v), (0.0,), (-POSITIVE,)),
    ("net seed", lambda v: TinyNetSpec(seed=v), (0,), (-1,)),
    ("seeds", lambda v: ExperimentConfig(net=TinyNetSpec(), seeds=(v,)), (0,), (-1,)),
    ("dataset_seed", lambda v: ExperimentConfig(net=TinyNetSpec(), dataset_seed=v), (0,),
     (-1,)),
    ("padding", lambda v: Conv(1, 1, 4, 4, 1, 3, padding=v), (0,), (-1,)),
    ("m_rows", lambda v: GemmShape(v, 1, 1), (1,), (0,)),
    ("workers", lambda v: _WerSweep(workers=v), (1,), (0,)),
    ("hetero-write mantissa_bits", lambda v: _HeteroWrite(mantissa_bits=v), (0, 23), (-1, 24)),
]


@pytest.mark.parametrize("build,inside,outside", [b[1:] for b in BOUNDS],
                         ids=[b[0] for b in BOUNDS])
def test_bound_keeps_its_inclusive_ends(build, inside, outside):
    for value in inside:
        build(value)
    for value in outside:
        with pytest.raises(InvalidParameterError):
            build(value)


@pytest.mark.parametrize("build", [b[1] for b in BOUNDS], ids=[b[0] for b in BOUNDS])
def test_bound_rejects_nan_infinities_and_bools(build):
    for value in (math.nan, math.inf, -math.inf, True, False):
        with pytest.raises(ValueError):  # InvalidParameterError, or ConfigError for an int
            build(value)


@pytest.mark.parametrize("value", [True, False, "0.5", None, [0.5], np.array([0.5, 0.6])])
def test_check_range_rejects_what_is_not_one_number(value):
    with pytest.raises(InvalidParameterError, match="^key must be a finite number"):
        check_range("key", value, 0.0, 1.0)


def test_check_range_accepts_numpy_scalars():
    check_range("key", np.float64(0.5), 0.0, 1.0)
    check_range("key", np.int64(3), 1)


_BASE = MemoryTechnology.from_name("mram_base")

# one valid instance of every config dataclass whose numbers carry a bound
CONFIGS = [MtjDevice(), WritePulse(1.0, 1.0), MagSimConfig(), WerPoint(50.0, 1.0, 10, 0.5),
           _BASE, ArrayMetrics(1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0),
           Conv(1, 1, 4, 4, 1, 3), FullyConnected(1, 1, 1), GemmShape(1, 1, 1),
           AcceleratorConfig(), SystemEnergyConfig(), SegmentMap(_BASE, _BASE, _BASE),
           SegmentErrorConfig(), TinyNetSpec(), ExperimentConfig(net=TinyNetSpec()),
           _WerSweep(), _HeteroWrite()]


@pytest.mark.parametrize("cls", [type(c) for c in CONFIGS], ids=lambda c: c.__name__)
def test_every_config_number_declares_its_bound(cls):
    # optional and sequence fields are annotated otherwise and keep their own checks
    numbers = [f for f in fields(cls) if f.type in (int, float, "int", "float")]
    assert numbers
    assert [f.name for f in numbers if "bound" not in f.metadata] == []


BOUNDED = [(c, f) for c in CONFIGS for f in fields(c) if "bound" in f.metadata]


@pytest.mark.parametrize("obj,f", BOUNDED,
                         ids=[f"{type(c).__name__}.{f.name}" for c, f in BOUNDED])
def test_declared_bound_holds_through_replace_and_config_from(obj, f):
    """The CLI's flags set a field through dataclasses.replace, a config file
    through config_from; both refuse the nearest value below the bound."""
    lo, _, integer = f.metadata["bound"]
    name, value = f.name, lo - 1 if integer else math.nextafter(lo, -math.inf)
    message = f"{name} must be a finite number in"
    with pytest.raises(InvalidParameterError, match=f"^{message}"):
        replace(obj, **{name: value})
    with pytest.raises(ConfigError, match=f"^cfg: {message}"):
        config_from(obj, {name: value}, "cfg")
