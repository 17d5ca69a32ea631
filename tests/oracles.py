"""Independent reference implementations used to cross-check the package.

Everything here is deliberately written from the governing equations with the
dumbest possible numerics (fixed-step RK4, brute-force loop nests) so that a
bug in the package and a bug in the oracle are unlikely to coincide.
"""

import math
from bisect import bisect_right
from dataclasses import dataclass, field
from functools import reduce
from operator import add

import numpy as np

from spinpad.dataflow import (ELEMENT_BYTES, Phase, Store, activation_elements,
                              count_phase_accesses, gemm_view, output_elements,
                              weight_elements)
from spinpad.energy import EnergyReport, PhaseEnergy
from spinpad.errors import InvalidParameterError
from spinpad.errortrain import (_K_ACT, _K_BIAS, _K_ERR, _K_SHUFFLE, _K_WEIGHT,
                                 TrainingResult, _activation_pair, _backprop, _forward,
                                 init_params, inject_tensor)
from spinpad.magnetics import _default_tilt, _integrate_batch, _llg_chunk, derive_stream

KB_ERG = 1.380649e-16
GYRO = 1.76e7


def rk4_macrospin(delta, ms_emu_cc, volume_cm3, alpha, current_ua,
                  eta_kbt_per_ua, duration_ns, dt_ps=0.1, tilt_rad=0.0953,
                  relax_ns=5.0):
    """Zero-temperature macrospin switch test, classic RK4 at a fine step.

    Returns (switched, switch_time_ns). Uses the Landau-Lifshitz form with a
    Slonczewski term whose prefactor is calibrated so the long-pulse
    instability threshold sits at I_c0 = delta / eta. Polarizer along -z, so
    positive current drives +z -> -z; switching is declared the first time
    m_z < -0.5.
    """
    hk = 2.0 * delta * KB_ERG * 300.0 / (ms_emu_cc * volume_cm3)
    ic0 = delta / eta_kbt_per_ua
    aj = alpha * hk * (current_ua / ic0)
    pre = GYRO / (1.0 + alpha * alpha)

    def deriv(m):
        mx, my, mz = m
        h = np.array([0.0, 0.0, hk * mz])
        mxh = np.cross(m, h)
        mxmxh = np.cross(m, mxh)
        mxz = np.cross(m, [0.0, 0.0, 1.0])
        mxmxz = np.cross(m, mxz)
        return pre * (-mxh - alpha * mxmxh + aj * mxmxz + alpha * aj * mxz)

    dt = dt_ps * 1e-12
    n_pulse = int(round(duration_ns * 1000.0 / dt_ps))
    n_relax = int(round(relax_ns * 1000.0 / dt_ps))
    m = np.array([np.sin(tilt_rad), 0.0, np.cos(tilt_rad)])
    for step in range(n_pulse + n_relax):
        if step == n_pulse:
            aj = 0.0
        k1 = deriv(m)
        k2 = deriv(m + 0.5 * dt * k1)
        k3 = deriv(m + 0.5 * dt * k2)
        k4 = deriv(m + dt * k3)
        m = m + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        m = m / np.linalg.norm(m)
        if m[2] < -0.5:
            return True, (step + 1) * dt_ps / 1000.0
    return False, None


def _axial_params(delta, ms_emu_cc, volume_cm3, alpha, current_ua, eta_kbt_per_ua):
    """(P, A, J) of the T = 0 axial ODE dm_z/dt = P (1 - m_z^2)(A m_z - J)."""
    hk = 2.0 * delta * KB_ERG * 300.0 / (ms_emu_cc * volume_cm3)
    a = alpha * hk
    return GYRO / (1.0 + alpha * alpha), a, a * (current_ua / (delta / eta_kbt_per_ua))


def axial_switch_time_ns(delta, ms_emu_cc, volume_cm3, alpha, current_ua,
                         eta_kbt_per_ua, tilt_rad):
    """Closed-form T = 0 switching time under a constant drive.

    With no thermal field, uniaxial anisotropy and a collinear polarizer the
    macrospin keeps its axial symmetry and m_z obeys
    dm/dt = P (1 - m^2)(A m - J), P = g / (1 + a^2), A = a H_k and
    J = A I / I_c0 (Sun, Phys. Rev. B 62, 570, 2000).  Partial fractions give
    t(m) = [ln|1 - m| / (2 (J - A)) - ln|1 + m| / (2 (A + J))
            + A ln|A m - J| / (A^2 - J^2)] / P,
    taken here from m = cos(tilt) to m = -0.5.  Returns None when the drive
    cannot carry m_z down (J <= A cos(tilt)); J = A is not handled.
    """
    pre, a, j = _axial_params(delta, ms_emu_cc, volume_cm3, alpha, current_ua,
                              eta_kbt_per_ua)
    m0 = np.cos(tilt_rad)
    if j <= a * m0:
        return None

    def t(m):
        return (np.log(abs(1.0 - m)) / (2.0 * (j - a))
                - np.log(abs(1.0 + m)) / (2.0 * (a + j))
                + a * np.log(abs(a * m - j)) / (a * a - j * j)) / pre

    return float(t(-0.5) - t(m0)) * 1e9


def heun_axial(delta, ms_emu_cc, volume_cm3, alpha, current_ua, eta_kbt_per_ua,
               duration_ns, tilt_rad, dt_ps=1.0, relax_ns=5.0):
    """One T = 0 trial of the axial ODE above, plain Heun on Python floats.

    Every step of the pulse and the relaxation is taken until m_z < -0.5;
    nothing is retired early.  Returns (switched, switch_time_ns).
    """
    pre, a, j = _axial_params(delta, ms_emu_cc, volume_cm3, alpha, current_ua,
                              eta_kbt_per_ua)
    dt = dt_ps * 1e-12
    n_pulse = int(round(duration_ns * 1000.0 / dt_ps))
    n_relax = int(round(relax_ns * 1000.0 / dt_ps))
    m = float(np.cos(tilt_rad))
    for step in range(n_pulse + n_relax):
        if step == n_pulse:
            j = 0.0
        k1 = pre * (1.0 - m * m) * (a * m - j)
        p = m + dt * k1
        k2 = pre * (1.0 - p * p) * (a * p - j)
        m = m + 0.5 * dt * (k1 + k2)
        if m < -0.5:
            return True, (step + 1) * dt_ps / 1000.0
    return False, None


def axial_chunked_reference(device, amplitudes_ua, duration_ns, cfg):
    """T = 0 batch on float64 arrays, retired and checked per 512-step chunk.

    The array form of spinpad.magnetics._integrate_batch at T = 0: every
    active row takes the same Heun step as one numpy expression, m_z is
    checked against [-1, 1] at the end of each chunk, and a row leaves the
    batch at the end of the chunk in which it crossed m_z < -0.5 or ended
    above the unstable fixed point of the chunk's drive.  It rounds each
    step as the scalar loop does, so (switched, times) must match bit for
    bit.
    """
    alpha = device.damping
    pre = device.gyromagnetic_ratio_oe / (1.0 + alpha * alpha)
    hk = device.anisotropy_field_oe
    ahk = alpha * hk
    aj_all = alpha * hk * np.asarray(amplitudes_ua, dtype=float) / device.critical_current_ua
    dt = cfg.time_step_ps * 1e-12
    n_pulse = max(1, round(duration_ns * 1000.0 / cfg.time_step_ps))
    n_relax = round(cfg.relax_time_ns * 1000.0 / cfg.time_step_ps)
    tilt = cfg.initial_tilt_rad if cfg.initial_tilt_rad is not None else _default_tilt(device)

    n = len(aj_all)
    mz = np.full(n, math.cos(tilt))
    switch_step = np.full(n, -1, dtype=np.int64)
    active = np.arange(n)
    step = 0
    for phase_steps, with_drive in ((n_pulse, True), (n_relax, False)):
        target = step + phase_steps
        while step < target and len(active):
            chunk = min(512, target - step)
            aj = aj_all[active] if with_drive else 0.0
            trace = np.empty((chunk, len(mz)))
            for j in range(chunk):
                k1 = pre * (1.0 - mz * mz) * (ahk * mz - aj)
                p = mz + dt * k1
                k2 = pre * (1.0 - p * p) * (ahk * p - aj)
                mz = mz + 0.5 * dt * (k1 + k2)
                trace[j] = mz
            if not np.all(np.abs(mz) <= 1.0):
                raise ArithmeticError("integration blow-up: m_z left [-1, 1]")
            below = trace < -0.5
            crossed = below.any(axis=0)
            switch_step[active[crossed]] = step + np.argmax(below[:, crossed], axis=0) + 1
            keep = ~(crossed | (ahk * mz > aj))
            active, mz = active[keep], mz[keep]
            step += chunk
        step = target
    switched = switch_step >= 0
    times = np.where(switched, switch_step * cfg.time_step_ps * 1e-3, np.nan)
    return switched, times


def threshold_all_probes(device, duration_ns, cfg, lo_ua, hi_ua, probes=16, rounds=2):
    """spinpad.magnetics.find_switching_threshold integrating every probe.

    Each round integrates all `probes` amplitudes of the bracket as one
    batch and keeps the interval that ends at argmax(switched), the first
    probe that switches; nothing is skipped or remembered between rounds.
    """
    for _ in range(rounds):
        grid = np.linspace(lo_ua, hi_ua, probes)
        switched, _ = _integrate_batch(device, grid, duration_ns, cfg, None)
        if switched[0] or not switched[-1]:
            raise InvalidParameterError(
                f"bracket [{lo_ua}, {hi_ua}] uA does not straddle the threshold")
        first = int(np.argmax(switched))
        lo_ua, hi_ua = float(grid[first - 1]), float(grid[first])
    return 0.5 * (lo_ua + hi_ua)


@dataclass(frozen=True)
class SwitchingResult:
    switched: bool
    switch_time_ns: float | None


def integrate_llg(device, pulse, cfg, rng=None):
    """Single-trial switching outcome for one write pulse."""
    if rng is None:
        rng = derive_stream(cfg.seed)
    switched, times = _integrate_batch(
        device, np.array([pulse.amplitude_ua]), pulse.duration_ns, cfg, [rng])
    return SwitchingResult(bool(switched[0]),
                           float(times[0]) if switched[0] else None)


def brute_force_gemm_counts(m, k, n, rows, cols):
    """Enumerate output-stationary tiles with plain loops and count accesses.

    Returns a dict with row_reads (stationary-side operand words streamed in
    through the row ports), col_reads, writes (result words drained), cycles
    (sum over tiles of k + r + c - 1) and macs.
    """
    row_reads = col_reads = writes = cycles = 0
    for r0 in range(0, m, rows):
        r = min(rows, m - r0)
        for c0 in range(0, n, cols):
            c = min(cols, n - c0)
            row_reads += r * k
            col_reads += c * k
            writes += r * c
            cycles += k + r + c - 1
    return {
        "row_reads": row_reads,
        "col_reads": col_reads,
        "writes": writes,
        "cycles": cycles,
        "macs": m * k * n,
        "tiles": -(-m // rows) * -(-n // cols),
    }


def conv_out_dim(size, kernel, stride, pad):
    return (size + 2 * pad - kernel) // stride + 1


def flip_mask_per_bit(shape, cfg, rng):
    """Bit-flip XOR mask of one write event, one binary32 bit per draw.

    One uniform per element for each bit at risk, bit by bit in the order
    sign (bit 31), exponent (bits 23..30), then the mantissa bits
    0..affected_mantissa_bits-1; returns (uint32 mask, number of flips).
    """
    mask = np.zeros(shape, dtype=np.uint32)
    flips = 0
    plan = []
    if cfg.sign_wer > 0:
        plan.append((cfg.sign_wer, 31))
    if cfg.exponent_wer > 0:
        plan.extend((cfg.exponent_wer, bit) for bit in range(23, 31))
    if cfg.mantissa_wer > 0:
        plan.extend((cfg.mantissa_wer, bit)
                    for bit in range(cfg.affected_mantissa_bits))
    for p, bit in plan:
        hit = rng.random(shape) < p
        flips += int(hit.sum())
        mask |= hit.astype(np.uint32) << np.uint32(bit)
    return mask, flips


@np.errstate(over="ignore", invalid="ignore")  # as train_with_errors
def train_per_bit(spec, dataset, binding):
    """train_with_errors' schedule with every write event injected afresh.

    Each event builds its own stream, derive_stream(seed, kind, epoch,
    batch, layer), takes its XOR mask from flip_mask_per_bit (one uniform
    per element and bit), and zeroes and counts what comes out non-finite.
    """
    act_fn, act_deriv = _activation_pair(spec.activation)
    params = init_params(spec)
    x_train, y_train = dataset.x_train.astype(np.float32), dataset.y_train
    n, size = len(x_train), spec.batch_size
    lr = np.float32(spec.learning_rate)
    stores = {_K_ACT: binding.activations, _K_ERR: binding.errors,
              _K_WEIGHT: binding.weights, _K_BIAS: binding.weights}
    losses, accs, sanitized = [], [], []
    for epoch in range(spec.epochs):
        order = derive_stream(spec.seed, _K_SHUFFLE, epoch).permutation(n)
        xs, ys = x_train[order], y_train[order]
        batch_losses, bad_values = [], 0
        for batch, lo in enumerate(range(0, n, size)):
            def write(kind, layer, tensor):
                nonlocal bad_values
                cfg = stores[kind]
                if cfg.is_zero:
                    return tensor
                rng = derive_stream(spec.seed, kind, epoch, batch, layer)
                mask, _ = flip_mask_per_bit(tensor.shape, cfg, rng)
                out = (tensor.view(np.uint32) ^ mask).view(np.float32)
                bad = ~np.isfinite(out)
                bad_values += int(bad.sum())
                out[bad] = 0.0
                return out

            loss, grads = _backprop(params, xs[lo:lo + size], ys[lo:lo + size],
                                    act_fn, act_deriv, write)
            if grads is None:
                return TrainingResult(losses, accs, sanitized, True, bad_values)
            batch_losses.append(loss)
            for li, ((w, b), (dw, db)) in enumerate(zip(params, grads)):
                params[li] = (write(_K_WEIGHT, li, w - lr * dw), write(_K_BIAS, li, b - lr * db))
        losses.append(float(np.mean(batch_losses)))
        logits = _forward(params, dataset.x_test.astype(np.float32), act_fn)[-1]
        accs.append(100.0 * float((logits.argmax(axis=1) == dataset.y_test).mean()))
        sanitized.append(bad_values)
    return TrainingResult(losses, accs, sanitized, False)


def _llg_rhs(mx, my, mz, hx, hy, hz, aj, alpha, pre):
    """Landau-Lifshitz right-hand side per component; hz includes anisotropy."""
    mdh = mx * hx + my * hy + mz * hz
    # -m x H (precession) and -a m x (m x H) = -a (m (m.H) - H) (damping)
    rx = pre * (-(my * hz - mz * hy) - alpha * (mx * mdh - hx)
                + aj * (mx * mz) + alpha * aj * my)
    ry = pre * (-(mz * hx - mx * hz) - alpha * (my * mdh - hy)
                + aj * (my * mz) - alpha * aj * mx)
    rz = pre * (-(mx * hy - my * hx) - alpha * (mz * mdh - hz)
                + aj * (mz * mz - 1.0))
    return rx, ry, rz


def heun_llg_reference(rngs, sigma, hk, alpha, pre, dt, state, aj, steps):
    """Stochastic Heun on per-component columns, checked after every step.

    Takes and returns what spinpad.magnetics._llg_chunk does, and draws
    the thermal field the same way: a (block, rows, 3) normal array per
    point and 64-step noise block, over that point's rows; switching is
    m_z < -0.5.  Every term is spelled out on its own column and |m| is
    checked before each renormalization, so this is the bit-level
    reference for the stacked integrator.
    """
    mx, my, mz, point = state
    na = len(mz)
    rows = np.bincount(point, minlength=len(rngs))
    crossed = np.zeros(na, dtype=bool)
    first = np.full(na, -1, dtype=np.int64)
    for start in range(0, steps, 64):
        block = min(64, steps - start)
        noise = sigma * np.concatenate(
            [rng.standard_normal((block, k, 3)) for rng, k in zip(rngs, rows) if k],
            axis=1)
        for j in range(block):
            hx, hy, hz = noise[j, :, 0], noise[j, :, 1], noise[j, :, 2]
            k1x, k1y, k1z = _llg_rhs(mx, my, mz, hx, hy, hz + hk * mz, aj, alpha, pre)
            px, py, pz = mx + dt * k1x, my + dt * k1y, mz + dt * k1z
            k2x, k2y, k2z = _llg_rhs(px, py, pz, hx, hy, hz + hk * pz, aj, alpha, pre)
            mx = mx + 0.5 * dt * (k1x + k2x)
            my = my + 0.5 * dt * (k1y + k2y)
            mz = mz + 0.5 * dt * (k1z + k2z)
            norm = np.sqrt(mx * mx + my * my + mz * mz)
            if not np.all(np.isfinite(norm)) or np.any(norm < 0.5):
                raise ArithmeticError("integration blow-up: |m| left the unit sphere")
            mx = mx / norm
            my = my / norm
            mz = mz / norm
            newly = (mz < -0.5) & ~crossed
            if newly.any():
                crossed |= newly
                first[newly] = start + j + 1
    return (mx, my, mz, point), first


def phase_totals(ref):
    """A ReferenceTrace's per-key record summed per phase.

    Returns ({(phase, store): [reads, writes]}, {phase: (macs, cycles)}): the
    first has an entry for every phase and store, [0, 0] where the record has
    none, and the second an entry for every phase that occurs in its keys.
    """
    access = {(phase, store): [0, 0] for phase in Phase for store in Store}
    for (_, phase, store), (reads, writes) in ref.accesses.items():
        access[(phase, store)][0] += reads
        access[(phase, store)][1] += writes
    compute = {}
    for (_, phase), (macs, cycles) in ref.compute.items():
        m, c = compute.get(phase, (0, 0))
        compute[phase] = (m + macs, c + cycles)
    return access, compute


# ------------------------------------------------ dataflow reference model
# The object-based FIFO model that spinpad.dataflow.simulate_iteration
# replaced with a schedule built once and a replay per capacity: one _Tensor
# per tensor, one place call per placement and one add per access. Its
# per-key record also answers per-layer questions, such as a layer's weight
# gradient writes, that the trace's per-phase totals do not.


@dataclass
class ReferenceTrace:
    """The per-(layer, phase, store) record of one iteration, filled one
    access at a time, and the per-(layer, phase) compute."""

    accesses: dict = field(default_factory=dict)
    compute: dict = field(default_factory=dict)
    capacity_range: dict = field(default_factory=dict)

    def add(self, layer, phase, store, reads=0, writes=0):
        cell = self.accesses.setdefault((layer, phase, store), [0, 0])
        cell[0] += reads
        cell[1] += writes


@dataclass
class _Tensor:
    name: str
    home: Store
    elements: int
    resident: bool = False
    era: int = 0  # 0 = placed during forward, 1 = during backward
    seq: int = -1  # arrival order

    def bytes(self):
        return self.elements * ELEMENT_BYTES

    def location(self):
        return self.home if self.resident else Store.DRAM


class _Buffers:
    """FIFO scratchpad state for the three on-chip buffers."""

    def __init__(self, cfg):
        self.resident = {Store.ACTIVATION: [], Store.WEIGHT: [], Store.ERROR: []}
        self.capacity = {store: cfg.buffer_bytes(store) for store in self.resident}
        self.used = dict.fromkeys(self.resident, 0)  # bytes of resident[store]
        self.bounds = {store: [0, math.inf] for store in self.resident}  # [lo, hi)
        self.backward = False
        self._seq = 0

    def _evict_one(self, store):
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
        self.used[store] -= victim.bytes()

    def place(self, tensor):
        """Try to make a tensor resident in its home buffer; True if placed."""
        store = tensor.home
        size = tensor.bytes()
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


def reference_iteration(workload, cfg):
    """spinpad.dataflow.simulate_iteration, one object per tensor."""
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

    trace = ReferenceTrace()
    buffers = _Buffers(cfg)

    def place_from_dram(tensor, layer, phase):
        if buffers.place(tensor):
            # one-shot buffer fill; the fill writes are not metered
            trace.add(layer, phase, Store.DRAM, reads=tensor.elements)

    def run_gemm(layer_idx, layer, phase, row_t, col_t, out_t):
        counts = count_phase_accesses(gemm_view(layer, phase), cfg)
        trace.add(layer_idx, phase, row_t.location(), reads=counts.row_reads)
        trace.add(layer_idx, phase, col_t.location(), reads=counts.col_reads)
        trace.add(layer_idx, phase, out_t.location(), writes=counts.result_writes)
        trace.compute[(layer_idx, phase)] = (counts.macs, counts.cycles)

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
        trace.compute[(l, Phase.WEIGHT_UPDATE)] = (0, 0)

    trace.capacity_range = buffers.bounds
    return trace


def inject_word(value, cfg, rng):
    """One binary32 word through the write-error channel of inject_tensor."""
    if not math.isfinite(value):
        raise InvalidParameterError("inject_word requires a finite input")
    out, _ = inject_tensor(np.array([value], dtype=np.float32), cfg, rng)
    return float(out[0])


def gradient_check(spec, x, y, params=None, step=1e-4):
    """Max relative error of _backprop's gradients vs central differences of
    its loss, in float64 (the trainer runs the same pass in float32)."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    if params is None:
        params = init_params(spec, dtype=np.float64)
    else:
        params = [(np.asarray(w, np.float64), np.asarray(b, np.float64))
                  for w, b in params]
    act = _activation_pair(spec.activation)
    _, grads = _backprop(params, x, y, *act)
    worst = 0.0
    for li, (w, b) in enumerate(params):
        for tensor, grad in ((w, grads[li][0]), (b, grads[li][1])):
            flat = tensor.reshape(-1)
            gflat = grad.reshape(-1)
            for j in range(flat.size):
                keep = flat[j]
                flat[j] = keep + step
                up, _ = _backprop(params, x, y, *act)
                flat[j] = keep - step
                dn, _ = _backprop(params, x, y, *act)
                flat[j] = keep
                numeric = (up - dn) / (2.0 * step)
                scale = max(abs(gflat[j]), abs(numeric))
                if scale > 1e-8:
                    worst = max(worst, abs(gflat[j] - numeric) / scale)
    return worst


def applied_thermal_field(sigma, rng, n):
    """(n, 3) thermal field samples, read back from one step of _llg_chunk.

    With no damping, anisotropy or drive, a Heun step of length dt turns m
    by dt * (H x m) to first order: (H_y, -H_x, 0) from m = +z and
    (0, H_z, -H_y) from m = +x. n rows start at each; H_x and H_y come from
    the first n, H_z from the other n. With dt * |H| a few 1e-4 at 300 K the
    second-order terms sit far below any statistical tolerance, and with
    no field m does not move at all.
    """
    dt = 1e-6
    zero, one = np.zeros(n), np.ones(n)
    state = (np.concatenate([zero, one]), np.zeros(2 * n), np.concatenate([one, zero]),
             np.zeros(2 * n, dtype=np.int64))
    (mx, my, _, _), _ = _llg_chunk([rng], sigma, 0.0, 0.0, 1.0, dt, state, 0.0, 1)
    return np.stack([-my[:n], mx[:n], my[n:]], axis=1) / dt


def loglog_interp(x, xs, ys):
    """One field's piecewise log-log interpolation, flat beyond the ends and
    anchor-exact, with every log taken afresh: arraymodel's routine before its
    table kept the segment logs."""
    if x <= xs[0]:
        return ys[0]
    if x >= xs[-1]:
        return ys[-1]
    i = bisect_right(xs, x) - 1
    y0, y1 = ys[i], ys[i + 1]
    t = math.log(x / xs[i]) / math.log(xs[i + 1] / xs[i])
    y = y0 * math.exp(t * math.log(y1 / y0))
    return min(y, y1) if y1 >= y0 else max(y, y1)


def components(report):
    """The four energy components of a phase or iteration report, by name."""
    return {name: getattr(report, name)
            for name in ("dram_nj", "onchip_nj", "leakage_nj", "compute_nj")}


def estimate_energy_per_call(trace, act, wt, err, sys):
    """energy.estimate_energy as it was before a trace kept its priced record: every
    call prices the trace's DRAM, compute and base time itself, in the same order, and
    adds each total up over the phases from left to right (Python 3.12's sum() adds
    floats with compensation, so it is not used here)."""
    buffers = [(store, m.read_energy_pj, m.write_energy_pj, m.read_latency_ns,
                m.write_latency_ns) for store, m in
               ((Store.ACTIVATION, act), (Store.WEIGHT, wt), (Store.ERROR, err))]
    leak_mw = act.leakage_mw + wt.leakage_mw + err.leakage_mw
    per_phase, rows = {}, []
    for phase in Phase:
        reads, writes = trace.totals.get((phase, Store.DRAM), (0, 0))
        dram_accesses = (reads + writes) / sys.dram_burst_elements
        macs, cycles = trace.phase_compute.get(phase, (0, 0))
        onchip_pj = 0.0
        time_ns = cycles / sys.clock_ghz + dram_accesses * sys.dram_latency_ns
        for store, read_pj, write_pj, read_ns, write_ns in buffers:
            reads, writes = trace.totals.get((phase, store), (0, 0))
            onchip_pj += reads * read_pj
            onchip_pj += writes * write_pj
            time_ns += reads * read_ns
            time_ns += writes * write_ns
        rows.append((dram_accesses * sys.dram_energy_per_access_nj, onchip_pj / 1e3,
                     leak_mw * time_ns / 1e3, macs * sys.mac_energy_pj / 1e3, time_ns))
        per_phase[phase] = PhaseEnergy(*rows[-1])
    return EnergyReport(*(reduce(add, column, 0.0) for column in zip(*rows)), per_phase)
