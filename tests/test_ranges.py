"""Every numeric bound goes through errors.check_range, a half-open interval.

A closed end is written as the next float above it (or the next integer), so
each bound must still accept its inclusive ends and reject the nearest value
outside them; a NaN, an infinity or a bool never passes.
"""

import math

import numpy as np
import pytest

from spinpad.arraymodel import ArrayMetrics, MemoryTechnology, TechnologyKind
from spinpad.dataflow import Conv, GemmShape
from spinpad.energy import SegmentMap
from spinpad.errors import POSITIVE, InvalidParameterError, check_range
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
