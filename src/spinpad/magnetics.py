"""Stochastic macro-spin model of spin-torque MTJ write switching.

The free layer is a single macro-spin m (unit vector) with uniaxial
perpendicular anisotropy along +z.  Dynamics follow the Landau-Lifshitz
form of the LLG equation with a Slonczewski spin-transfer term whose
polarizer points along -z, so a positive write amplitude drives the
stored bit from the +z basin toward -z:

    (1+a^2) dm/dt = -g m x H  -  g*a m x (m x H)
                    + g*aj m x (m x z) + g*a*aj (m x z)

with g the gyromagnetic ratio, a the damping constant, H the effective
field (anisotropy + thermal), and aj the spin-torque amplitude in field
units.  aj is calibrated so the zero-temperature long-pulse switching
threshold from an infinitesimal tilt sits exactly at
i_c0 = thermal_stability / stt_efficiency; from a finite starting tilt it
is i_c0 * cos(tilt).

Unit system is CGS-Gaussian: fields in Oe, magnetization in emu/cc,
k_B = 1.380649e-16 erg/K.  The API uses nm / ns / ps / uA; conversions
happen internally.  The per-step thermal field has one independent
normal sample per spatial component with standard deviation

    sigma = sqrt(2 * a * k_B * T / (g * M_s * V * dt))

which makes the integrated noise a proper Wiener increment regardless
of the step size.  At T > 0 integration uses the stochastic Heun scheme
(the thermal field is frozen within a step and shared by predictor and
corrector) with renormalization of m after every step.  m, the predictor
and H are (5, rows) buffers with rows x y z x y: [1:4] and [2:5] are the
cyclic shifts, so m x H is two multiplies and a subtract and each term
above is evaluated over (3, rows), every element in its component order.
Each call is of numpy's cheap kind, with unchanged bits: constants are 0-d
arrays, not floats, and the drive is tiled to (3, rows); -m x H - a D is
D (-a) - m x H, as negation is exact; m.H and |m|^2 are (t_x + t_y) + t_z,
the order add.reduce takes.

At T = 0 the field is purely uniaxial and the polarizer collinear, so
the dynamics keep their axial symmetry and reduce exactly to

    dm_z/dt = g/(1+a^2) * (1 - m_z^2) * (a*H_k*m_z - aj)

which is integrated alone with the same Heun step, from
m_z = cos(tilt).  m_z = aj / (a*H_k) is an unstable fixed point: a trial
above it can never switch under a constant or zero drive.  Every trial
starts from the same m_z, so each distinct amplitude is integrated once,
as a scalar loop that stops at its crossing step or at its retirement
step, the first step above the fixed point (m_z > I / i_c0 during the
pulse, m_z > 0 during relaxation).

Monte Carlo streams: every sweep point derives a private stream from
(seed, point index) through SeedSequence spawn keys.  A sweep integrates
the points of one duration together, each point owning a contiguous
block of cfg.trials rows; a point's initial states and its thermal noise
for its still-active rows are drawn from its own stream alone, in the
order and shapes a lone integration of that point would draw them.
Estimates are therefore bit-identical for a fixed seed however the
points are grouped into batches or spread over workers.

derive_stream builds one stream from one key. derive_streams builds the
same streams for a table of keys, such as every write event of a training
epoch: Philox takes its key from SeedSequence.generate_state(2, uint64),
whose hashmix and mix steps run on uint32 words with hash constants that
depend only on the number of words. The steps are therefore run once on
columns of the table. One Philox serves the table: a stream sets its key
words and a zero counter, and a SeedSequence stand-in carries its spawn_key
and words; each stream's output is bit-identical to derive_stream's.
"""

from __future__ import annotations

import concurrent.futures
import csv
import functools
import math
import operator
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    POSITIVE,
    THROUGH_ONE,
    InsufficientDataError,
    InvalidFitError,
    InvalidParameterError,
    NumericalFailureError,
    bounded,
    check_fields,
    check_int,
    check_range,
)

KB_ERG = 1.380649e-16      # Boltzmann constant [erg/K]
T_REF_K = 300.0            # reference temperature anchoring the stability factor [K]
GYRO_OE = 1.76e7           # free-electron gyromagnetic ratio [rad/(s*Oe)]
SWITCH_THRESHOLD_MZ = -0.5  # m_z below this counts as switched
WER_BASELINE = 8.62e-10    # write error rate at the baseline operating point

# WER targets for the required-amplitude ladder, shallow to deep.
LADDER_TARGETS = (1e-5, 1e-6, 1e-7, 1e-8, 1e-9)


@dataclass(frozen=True)
class MtjDevice:
    """Perpendicular MTJ free layer, geometry in nm, CGS magnetics.

    thermal_stability is the barrier height in units of k_B * 300 K
    (anchoring to a fixed reference keeps the anisotropy field finite
    when the simulated temperature is 0).  stt_efficiency converts the
    barrier to the critical current: i_c0 = thermal_stability /
    stt_efficiency, in uA.
    """

    fl_thickness_nm: float = bounded(POSITIVE, default=1.0)
    lateral_x_nm: float = bounded(POSITIVE, default=35.0)
    lateral_y_nm: float = bounded(POSITIVE, default=35.0)
    saturation_magnetization_emu_cc: float = bounded(POSITIVE, default=1200.0)
    damping: float = bounded(POSITIVE, 1.0, default=0.006)
    temperature_k: float = bounded(0.0, default=300.0)
    thermal_stability: float = bounded(20.0, math.nextafter(100.0, math.inf), default=55.0)
    stt_efficiency_kbt_per_ua: float = bounded(POSITIVE, default=1.15)
    gyromagnetic_ratio_oe: float = bounded(POSITIVE, default=GYRO_OE)

    __post_init__ = check_fields

    @property
    def volume_cm3(self) -> float:
        return (self.fl_thickness_nm * self.lateral_x_nm * self.lateral_y_nm) * 1e-21

    @property
    def barrier_erg(self) -> float:
        return self.thermal_stability * KB_ERG * T_REF_K

    @property
    def anisotropy_field_oe(self) -> float:
        # E_b = M_s * H_k * V / 2  ->  H_k = 2 E_b / (M_s V)
        return 2.0 * self.barrier_erg / (self.saturation_magnetization_emu_cc * self.volume_cm3)

    @property
    def critical_current_ua(self) -> float:
        return self.thermal_stability / self.stt_efficiency_kbt_per_ua


@dataclass(frozen=True)
class WritePulse:
    """Rectangular current pulse in the switching polarity."""

    amplitude_ua: float = bounded(0.0)
    duration_ns: float = bounded(POSITIVE)

    __post_init__ = check_fields


@dataclass(frozen=True)
class MagSimConfig:
    """Integrator and Monte Carlo settings.

    initial_tilt_rad, in [0, pi/2), applies only at T = 0, where there is
    no thermal distribution to draw the starting angle from; None picks
    the room-temperature equilibrium scale 1/sqrt(2*thermal_stability).
    Setting it for a device at T > 0 is an error.
    """

    time_step_ps: float = bounded(POSITIVE, math.nextafter(10.0, math.inf), default=1.0)
    relax_time_ns: float = bounded(0.0, default=5.0)
    trials: int = bounded(1, default=20000, integer=True)
    seed: int = bounded(0, default=12345, integer=True)
    initial_tilt_rad: float | None = None

    def __post_init__(self):
        check_fields(self)
        if self.initial_tilt_rad is not None:
            check_range("initial_tilt_rad", self.initial_tilt_rad, 0.0, math.pi / 2)


@dataclass(frozen=True)
class WerPoint:
    amplitude_ua: float = bounded(0.0)
    duration_ns: float = bounded(POSITIVE)
    trials: int = bounded(1, integer=True)
    p_switch: float = bounded(0.0, THROUGH_ONE)

    __post_init__ = check_fields

    @property
    def ln_wer(self) -> float:
        # ln(1 - p); p == 1 maps to -inf, which is fine for reporting
        return math.log1p(-self.p_switch) if self.p_switch < 1.0 else -math.inf


@dataclass
class WerCurve:
    """Monte Carlo switching-probability samples over an amplitude/duration grid."""

    points: list[WerPoint] = field(default_factory=list)

    def at_duration(self, duration_ns: float) -> list[WerPoint]:
        pts = [p for p in self.points if abs(p.duration_ns - duration_ns) < 1e-9]
        return sorted(pts, key=lambda p: p.amplitude_ua)

    def onset_amplitude(self, duration_ns: float) -> float:
        """First grid amplitude whose p_switch reaches 0.5."""
        for p in self.at_duration(duration_ns):
            if p.p_switch >= 0.5:
                return p.amplitude_ua
        raise InsufficientDataError(
            f"no point reaches p_switch >= 0.5 at duration {duration_ns} ns"
        )

    @classmethod
    def from_csv(cls, path) -> "WerCurve":
        pts = []
        with open(path, newline="") as fh:
            # the CLI heads its CSV files with a "# manifest: ..." line
            r = csv.DictReader(line for line in fh if not line.startswith("#"))
            for row in r:
                pts.append(WerPoint(float(row["amplitude_uA"]), float(row["duration_ns"]),
                                    int(row["trials"]), float(row["p_switch"])))
        return cls(pts)


@dataclass(frozen=True)
class LnWerFit:
    """Least-squares line ln(WER) = slope * amplitude + intercept at one duration."""

    duration_ns: float
    slope_per_ua: float
    intercept: float
    r_squared: float
    n_points: int

    def ln_wer_at(self, amplitude_ua: float) -> float:
        return self.slope_per_ua * amplitude_ua + self.intercept

    def wer_at(self, amplitude_ua: float) -> float:
        return math.exp(self.ln_wer_at(amplitude_ua))


# ---------------------------------------------------------------------------
# thermal field


def thermal_field_std_oe(device: MtjDevice, time_step_ps: float) -> float:
    """Per-component standard deviation of the thermal field, in Oe."""
    check_range("time_step_ps", time_step_ps, POSITIVE)
    check_range("volume_cm3", device.volume_cm3, POSITIVE)
    dt_s = time_step_ps * 1e-12
    num = 2.0 * device.damping * KB_ERG * device.temperature_k
    den = (device.gyromagnetic_ratio_oe * device.saturation_magnetization_emu_cc
           * device.volume_cm3 * dt_s)
    return math.sqrt(num / den)


# ---------------------------------------------------------------------------
# integrator


def derive_stream(seed: int, *key: int) -> np.random.Generator:
    """Counter-style stream splitting: a private generator per index tuple."""
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed, spawn_key=key)))


# SeedSequence's hash constants and pool size (numpy's bit_generator.pyx)
_SS_POOL = 4
_SS_INIT_A, _SS_MULT_A = 0x43B0D7E5, 0x931E8875
_SS_INIT_B, _SS_MULT_B = 0x8B51F9DD, 0x58F38DED
_SS_MIX_L, _SS_MIX_R = 0xCA01F9DD, 0x4973F715
_U32 = 0xFFFFFFFF


class _SpawnedKey:
    """A spawn key and the Philox key words its SeedSequence generates.

    derive_streams registers it as numpy's ISeedSequence: subclassing at
    import would load numpy.random into every command that never draws.
    """

    spawn_key: tuple[int, ...] = ()
    words = (0, 0)

    def generate_state(self, n_words, dtype=np.uint32):
        if (n_words, np.dtype(dtype)) != (2, np.dtype(np.uint64)):
            raise ValueError("only Philox's two-word key is precomputed")
        return np.array(self.words, dtype=np.uint64)


def derive_streams(seed: int, keys: list[tuple[int, ...]]):
    """derive_stream(seed, *key) for a table of equal-length keys, lazily.

    Returns stream(*key), which re-keys one Philox to any key of the table
    and returns its generator, that key's stream until the next call.
    SeedSequence's hash steps run once for the whole table (see the module
    docstring): on Python ints while they mix only the seed, then on one
    uint32 column per key word, so a stream costs only its key. Every key
    word must be < 2**32.
    """
    np.random.bit_generator.ISeedSequence.register(_SpawnedKey)
    seed = operator.index(seed)
    check_range("seed", seed, 0)
    table = np.array(keys, dtype=np.uint64)
    if (table >> np.uint64(32)).any():
        raise InvalidParameterError("stream key words must be < 2**32")
    run = [(seed >> s) & _U32 for s in range(0, max(1, seed.bit_length()), 32)]
    run += [0] * (_SS_POOL - len(run))  # a spawn key pads the seed to the pool
    words = run + list(table.astype(np.uint32).T)
    h = _SS_INIT_A

    # Each step masks to 32 bits, so it gives the same word on a Python int
    # as on a uint32 column, and an int operand never overflows a column.
    def hashed(v, mult):
        nonlocal h
        v = v ^ h
        h = h * mult & _U32
        v = v * h & _U32
        return v ^ (v >> 16)

    def mix(x, y):
        r = ((_SS_MIX_L * x & _U32) - (_SS_MIX_R * y & _U32)) & _U32
        return r ^ (r >> 16)

    pool = [hashed(w, _SS_MULT_A) for w in words[:_SS_POOL]]
    for src in range(_SS_POOL):
        for dst in range(_SS_POOL):
            if src != dst:
                pool[dst] = mix(pool[dst], hashed(pool[src], _SS_MULT_A))
    for w in words[_SS_POOL:]:
        for dst in range(_SS_POOL):
            pool[dst] = mix(pool[dst], hashed(w, _SS_MULT_A))
    h = _SS_INIT_B
    state = np.empty((len(keys), 4), dtype=np.uint32)
    for i in range(4):  # generate_state(2, np.uint64): 4 words, little-endian pairs
        state[:, i] = hashed(pool[i % _SS_POOL], _SS_MULT_B)
    index = dict(zip(keys, state.astype("<u4").view("<u8").tolist()))
    seed_seq = _SpawnedKey()
    rng = np.random.Generator(np.random.Philox(seed_seq))
    fresh = {"bit_generator": "Philox", "state": {"counter": [0] * 4}, "buffer": [0] * 4,
             "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}

    def stream(*key: int) -> np.random.Generator:
        seed_seq.spawn_key = key
        seed_seq.words = fresh["state"]["key"] = index[key]
        rng.bit_generator.state = fresh
        return rng

    return stream


def _default_tilt(device: MtjDevice) -> float:
    return 1.0 / math.sqrt(2.0 * device.thermal_stability)


def _initial_state(device: MtjDevice, rng: np.random.Generator,
                   n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Initial (mx, my, mz) columns near +z at T > 0.

    The polar angle is drawn from the small-angle equilibrium
    distribution in the +z well, p(th) ~ th * exp(-D_T th^2) with
    D_T = thermal_stability * T_ref / T (Rayleigh with scale
    1/sqrt(2 D_T)), and the azimuth uniformly.
    """
    scale = math.sqrt(device.temperature_k
                      / (2.0 * device.thermal_stability * T_REF_K))
    theta = np.minimum(rng.rayleigh(scale=scale, size=n), math.pi / 2)
    phi = rng.uniform(0.0, 2.0 * math.pi, size=n)
    st = np.sin(theta)
    return st * np.cos(phi), st * np.sin(phi), np.cos(theta)


_CHUNK_STEPS = 512  # finished trials are compacted out every chunk
_NOISE_BLOCK_STEPS = 64  # thermal noise is drawn in blocks of this many steps


def _llg_chunk(rngs, sigma, hk, alpha, pre, dt, state, aj, steps):
    """Advance the 3-D stochastic macrospin by `steps` Heun steps.

    state is (mx, my, mz, point): the active rows, grouped by point in
    order, and the index into rngs of each row's point.  Each block of
    _NOISE_BLOCK_STEPS steps draws a (block, rows, 3) normal array per
    point from that point's stream, over its active rows only; block
    after block this consumes every stream exactly as one (steps, rows,
    3) draw would, while the noise held at once stays one block.

    m, the predictor and H are stacked (see the module docstring); the
    torque terms are skipped under the 0.0 of relaxation.  A step keeps |m|,
    and m before its division in its spent noise rows; per block a
    non-finite or collapsed (< 0.5) |m| raises, and crossings come from m_z.

    Returns (state, first): the new state and the 1-based step of each
    row's first crossing of SWITCH_THRESHOLD_MZ (-1 for none).
    """
    mx, my, mz, point = state
    na = len(mz)
    rows = np.bincount(point, minlength=len(rngs))
    drive = np.ndim(aj) > 0 or aj != 0.0
    mul, add, sub, copyto = np.multiply, np.add, np.subtract, np.copyto
    hk, one, nalpha, pre, dt, half = map(np.array, (hk, 1.0, -alpha, pre, dt, 0.5 * dt))
    if drive:
        aj, signed_aaj = np.tile(aj, (3, 1)), np.array([[1.0], [-1.0]]) * (alpha * aj)
    m = np.array((mx, my, mz, mx, my))
    p, h = np.empty((2, 5, na))
    (k1, k2, damp, tmp), (mdh, field) = np.empty((4, 3, na)), np.empty((2, na))
    h3, h14, h25, hz, pair = h[:3], h[1:4], h[2:5], h[2], damp[:2]
    t0, t1, t2 = tmp

    def rhs(v3, v14, v25, vz, vyx, out, out01):
        """Landau-Lifshitz right-hand side at v into out; hz holds H_z in full."""
        mul(v3, h3, tmp)
        add(add(t0, t1, mdh), t2, mdh)  # m.H
        sub(mul(v3, mdh, damp), h3, damp)  # m (m.H) - H
        sub(mul(v14, h25, out), mul(v25, h14, tmp), out)  # m x H
        sub(mul(damp, nalpha, damp), out, out)  # -a (m (m.H) - H) - m x H
        if drive:
            mul(v3, vz, tmp)  # m m_z - z
            sub(t2, one, t2)
            add(out, mul(tmp, aj, tmp), out)
            add(out01, mul(vyx, signed_aaj, pair), out01)  # (m_y, -m_x)
        mul(out, pre, out)

    m3, mz_, m01, m34 = m[:3], m[2], m[:2], m[3:]
    p3, pz, p01, p34 = p[:3], p[2], p[:2], p[3:]
    at_m = (m3, m[1:4], m[2:5], mz_, m[4:2:-1], k1, k1[:2])
    at_p = (p3, p[1:4], p[2:5], pz, p[4:2:-1], k2, k2[:2])
    noise, norm = np.empty((_NOISE_BLOCK_STEPS, 5, na)), np.empty((_NOISE_BLOCK_STEPS, na))
    first = np.full(na, -1, dtype=np.int64)
    for start in range(0, steps, _NOISE_BLOCK_STEPS):
        block = min(_NOISE_BLOCK_STEPS, steps - start)
        for rng, k, hi in zip(rngs, rows, np.cumsum(rows)):
            if k:
                mul(rng.standard_normal((block, k, 3)).transpose(0, 2, 1), sigma,
                    out=noise[:block, :3, hi - k:hi])
        noise[:block, 3:] = noise[:block, :2]
        for nj, nzj, mj, nrm in zip(noise, noise[:, 2], noise[:block, :3], norm):
            copyto(h, nj)
            add(hz, mul(mz_, hk, field), hz)
            rhs(*at_m)
            add(m3, mul(k1, dt, p3), p3)
            copyto(p34, p01)
            add(nzj, mul(pz, hk, field), hz)
            rhs(*at_p)
            add(m3, mul(add(k1, k2, k1), half, k1), mj)
            mul(mj, mj, tmp)
            add(add(t0, t1, nrm), t2, nrm)  # |m|^2
            np.divide(mj, np.sqrt(nrm, nrm), m3)
            copyto(m34, m01)
        if not np.all(np.isfinite(norm[:block])) or np.any(norm[:block] < 0.5):
            raise NumericalFailureError("integration blow-up: |m| left the unit sphere")
        below = noise[:block, 2] / norm[:block] < SWITCH_THRESHOLD_MZ
        hit = below.any(axis=0) & (first < 0)
        first[hit] = start + np.argmax(below[:, hit], axis=0) + 1
    return (m[0], m[1], m[2], point), first


def _axial_switch_step(ahk, pre, dt, mz0, aj, n_pulse, n_relax):
    """1-based step of a T = 0 trial's first m_z < SWITCH_THRESHOLD_MZ, or -1.

    Heun steps of the axial ODE on Python floats, n_pulse under the drive
    aj, then n_relax under none; a float64 scalar rounds each operation as
    the ufunc on an array does.  Each step checks m_z against [-1, 1], then
    stops at a crossing, or with -1 once ahk * m_z exceeds the drive.
    """
    mz, half, step = mz0, 0.5 * dt, 0
    for a, steps in ((aj, n_pulse), (0.0, n_relax)):
        for step in range(step + 1, step + steps + 1):
            k1 = pre * (1.0 - mz * mz) * (ahk * mz - a)
            p = mz + dt * k1
            k2 = pre * (1.0 - p * p) * (ahk * p - a)
            mz = mz + half * (k1 + k2)
            if not -1.0 <= mz <= 1.0:
                raise NumericalFailureError("integration blow-up: m_z left [-1, 1]")
            if mz < SWITCH_THRESHOLD_MZ:
                return step
            if ahk * mz > a:
                return -1
    return -1


def _integrate_batch(device: MtjDevice, amplitudes_ua: np.ndarray, duration_ns: float,
                     cfg: MagSimConfig,
                     rngs: list[np.random.Generator] | None) -> tuple[np.ndarray, np.ndarray]:
    """Integrate a batch of trials; row i uses drive amplitudes_ua[i].

    Returns (switched bool array, first-crossing time in ns with nan for
    trials that never switched).  The pulse runs for duration_ns, then the
    drive is removed for cfg.relax_time_ns while the state keeps evolving.

    At T > 0 the full 3-D stochastic LLG runs from thermal initial states.
    The rows fall into len(rngs) equal contiguous blocks, one per point:
    block k draws its initial states and its noise from rngs[k] alone (see
    _llg_chunk), so its outcomes do not depend on the other blocks.  Rows
    are compacted out at the end of each chunk once they have switched.  At
    T = 0 only the axial m_z equation is integrated, one scalar loop per
    distinct amplitude that stops at its crossing or retirement step (see
    the module docstring), and rngs is not read, so it may be None.  The
    step is small enough (dt * g * H_k ~ 0.05 rad) that the Heun map never
    carries a retired trial back across the fixed point, so retirement
    changes no outcome.
    """
    n = len(amplitudes_ua)
    alpha = device.damping
    pre = device.gyromagnetic_ratio_oe / (1.0 + alpha * alpha)
    hk = device.anisotropy_field_oe
    # calibrated torque prefactor: aj = alpha * hk at the critical current
    aj_all = alpha * hk * np.asarray(amplitudes_ua, dtype=float) / device.critical_current_ua
    dt = cfg.time_step_ps * 1e-12

    n_pulse = max(1, round(duration_ns * 1000.0 / cfg.time_step_ps))
    n_relax = round(cfg.relax_time_ns * 1000.0 / cfg.time_step_ps)

    if cfg.initial_tilt_rad is not None and device.temperature_k != 0:
        raise InvalidParameterError("initial_tilt_rad applies only at temperature_k == 0")
    if device.temperature_k == 0:
        tilt = cfg.initial_tilt_rad if cfg.initial_tilt_rad is not None else _default_tilt(device)
        distinct, inverse = np.unique(aj_all, return_inverse=True)
        steps = [_axial_switch_step(alpha * hk, pre, dt, math.cos(tilt), aj, n_pulse, n_relax)
                 for aj in distinct.tolist()]
        switch_step = np.array(steps, dtype=np.int64)[inverse]
    else:
        if not rngs or n % len(rngs):
            raise InvalidParameterError(
                f"{n} rows do not split into equal blocks over {len(rngs or ())} streams")
        per_point = n // len(rngs)
        columns = zip(*(_initial_state(device, rng, per_point) for rng in rngs))
        state = (*(np.concatenate(c) for c in columns),
                 np.repeat(np.arange(len(rngs)), per_point))
        sigma = thermal_field_std_oe(device, cfg.time_step_ps)
        switch_step = np.full(n, -1, dtype=np.int64)
        active = np.arange(n)
        step = 0
        for phase_steps, with_drive in ((n_pulse, True), (n_relax, False)):
            target = step + phase_steps
            while step < target and len(active):
                chunk = min(_CHUNK_STEPS, target - step)
                aj = aj_all[active] if with_drive else 0.0
                state, first = _llg_chunk(rngs, sigma, hk, alpha, pre, dt, state, aj, chunk)
                hit = first >= 0
                switch_step[active[hit]] = step + first[hit]
                keep = ~hit
                active = active[keep]
                state = tuple(s[keep] for s in state)
                step += chunk
            step = target

    switched = switch_step >= 0
    times = np.where(switched, switch_step * cfg.time_step_ps * 1e-3, np.nan)
    return switched, times


def estimate_psw(device: MtjDevice, pulse: WritePulse, cfg: MagSimConfig,
                 rng: np.random.Generator | None = None) -> float:
    """Monte Carlo switching probability over cfg.trials trials."""
    if rng is None:
        rng = derive_stream(cfg.seed)
    switched, _ = _integrate_batch(
        device, np.full(cfg.trials, pulse.amplitude_ua), pulse.duration_ns, cfg, [rng])
    return int(switched.sum()) / cfg.trials


# ---------------------------------------------------------------------------
# sweeps and fits


def _sweep_group(args):
    """(point index, WerPoint) for pulses of one duration, as one batch."""
    device, cfg, keyed = args
    amps = np.repeat([pulse.amplitude_ua for _, pulse in keyed], cfg.trials)
    rngs = [derive_stream(cfg.seed, i) for i, _ in keyed]
    duration = keyed[0][1].duration_ns
    switched, _ = _integrate_batch(device, amps, duration, cfg, rngs)
    hits = switched.reshape(len(keyed), cfg.trials).sum(axis=1)
    return [(i, WerPoint(pulse.amplitude_ua, duration, cfg.trials, int(h) / cfg.trials))
            for (i, pulse), h in zip(keyed, hits)]


def run_wer_sweep(device: MtjDevice, amplitudes_ua, durations_ns,
                  cfg: MagSimConfig, workers: int = 1) -> WerCurve:
    """Monte Carlo p_switch over the amplitude x duration grid.

    Each grid point gets a private stream derived from (cfg.seed, point
    index), points in duration-major order.  The points of one duration
    are split into min(workers, amplitudes) contiguous blocks in amplitude
    order, sized as an even split with the larger blocks at the high end,
    where rows switch sooner and a point costs less.  Each block is
    integrated as one batch in one task, on min(workers, tasks) processes
    (this one alone when that is 1).  A point's estimate depends only on
    its own stream, so the result is identical however the points are
    grouped and however many workers run.
    """
    check_int("workers", workers)
    check_range("workers", workers, 1)
    amps = [float(a) for a in amplitudes_ua]
    groups = min(workers, len(amps))
    q, r = divmod(len(amps), max(groups, 1))  # the last r blocks take q + 1
    cuts = [g * q + max(0, g - groups + r) for g in range(groups + 1)]
    order = sorted(range(len(amps)), key=amps.__getitem__)
    tasks = []
    for di, d in enumerate(durations_ns):
        keyed = [(di * len(amps) + ai, WritePulse(amps[ai], float(d))) for ai in order]
        tasks += [(device, cfg, keyed[a:b]) for a, b in zip(cuts, cuts[1:])]
    pool_size = min(workers, len(tasks))  # a pool forks all its workers at its first task
    if pool_size > 1:
        with concurrent.futures.ProcessPoolExecutor(pool_size) as pool:
            done = list(pool.map(_sweep_group, tasks))
    else:
        done = [_sweep_group(t) for t in tasks]
    indexed = dict(pair for group in done for pair in group)
    return WerCurve([indexed[i] for i in range(len(indexed))])


def fit_ln_wer(curve: WerCurve, duration_ns: float) -> LnWerFit:
    """Least-squares ln(WER)-vs-amplitude line over the post-onset points.

    Post-onset means p_switch >= 0.5 (the onset definition) and < 1 so
    the log error is finite; below onset ln(WER) is pinned near zero and
    does not sit on the exponential-decay line.
    """
    pts = [p for p in curve.at_duration(duration_ns) if 0.5 <= p.p_switch < 1.0]
    if len(pts) < 3:
        raise InsufficientDataError(
            f"need >= 3 post-onset points with p_switch in [0.5, 1) at "
            f"{duration_ns} ns, found {len(pts)}")
    x = np.array([p.amplitude_ua for p in pts])
    y = np.array([p.ln_wer for p in pts])
    slope, intercept = np.polyfit(x, y, 1)
    if not slope < 0:
        raise InvalidFitError(f"ln(WER) slope must be negative, got {slope}")
    resid = y - (slope * x + intercept)
    ss_res = float(resid @ resid)
    ss_tot = float(((y - y.mean()) ** 2).sum())
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return LnWerFit(duration_ns, float(slope), float(intercept), r2, len(pts))


def required_amplitude(fit: LnWerFit, target_wer: float) -> float:
    """Amplitude at which the fitted line reaches the target WER."""
    check_range("target_wer", target_wer, POSITIVE, 1.0)
    if not fit.slope_per_ua < 0:
        raise InvalidFitError("fit slope must be negative")
    return (math.log(target_wer) - fit.intercept) / fit.slope_per_ua


def amplitude_ladder(fit: LnWerFit, targets=LADDER_TARGETS,
                     baseline_wer: float = WER_BASELINE) -> dict[float, float]:
    """Required amplitudes for each WER target plus the baseline point."""
    ladder = {t: required_amplitude(fit, t) for t in targets}
    ladder[baseline_wer] = required_amplitude(fit, baseline_wer)
    return ladder


def relative_write_energy(pulse: WritePulse, baseline: WritePulse) -> float:
    """(I/I0)^2 * (t/t0): write energy relative to a baseline pulse."""
    check_range("baseline amplitude_ua", baseline.amplitude_ua, POSITIVE)
    return ((pulse.amplitude_ua / baseline.amplitude_ua) ** 2
            * (pulse.duration_ns / baseline.duration_ns))


def find_switching_threshold(device: MtjDevice, duration_ns: float, cfg: MagSimConfig,
                             lo_ua: float, hi_ua: float, probes: int = 16,
                             rounds: int = 2) -> float:
    """Deterministic (T = 0) switching boundary in amplitude.

    Batched bisection: a round lays `probes` amplitudes over the bracket and
    keeps the interval up to the first that switches.  It integrates hi, lo,
    then the interior upward to that probe, each amplitude once a search, so
    at most probes * rounds integrations.  T = 0; lo must not switch, hi must.
    """
    if device.temperature_k != 0:
        raise InvalidParameterError("threshold search requires temperature_k == 0")
    if not (math.isfinite(duration_ns) and duration_ns > 0):
        raise InvalidParameterError(f"need finite duration_ns > 0, got {duration_ns}")
    if not (math.isfinite(hi_ua) and 0 <= lo_ua < hi_ua):
        raise InvalidParameterError(f"need finite 0 <= lo_ua < hi_ua, got {lo_ua}, {hi_ua}")
    check_int("probes", probes)
    check_int("rounds", rounds)
    if probes < 3 or rounds < 1:  # two probes are the bracket and narrow nothing
        raise InvalidParameterError(f"need probes >= 3 and rounds >= 1, got {probes}, {rounds}")
    # one memo a search; linspace keeps lo and hi exactly, so later ends are hits
    switches = functools.cache(lambda amp: bool(
        _integrate_batch(device, np.array([amp]), duration_ns, cfg, None)[0][0]))
    for _ in range(rounds):
        grid = np.linspace(lo_ua, hi_ua, probes).tolist()
        if not switches(grid[-1]) or switches(grid[0]):
            raise InvalidParameterError(
                f"bracket [{lo_ua}, {hi_ua}] uA does not straddle the threshold")
        first = next(i for i in range(1, probes) if switches(grid[i]))
        lo_ua, hi_ua = grid[first - 1], grid[first]
    return 0.5 * (lo_ua + hi_ua)
