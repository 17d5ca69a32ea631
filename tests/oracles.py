"""Independent reference implementations used to cross-check the package.

Everything here is deliberately written from the governing equations with the
dumbest possible numerics (fixed-step RK4, brute-force loop nests) so that a
bug in the package and a bug in the oracle are unlikely to coincide.
"""

import numpy as np

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
    return (mx, my, mz, point), first, crossed


def phase_totals(trace):
    """Per-phase totals of an access trace, by scanning its per-key record.

    Returns ({(phase, store): (reads, writes)}, {phase: (macs, cycles)}) with
    an entry for every phase and store that occurs in the trace's keys.
    """
    access = {}
    for (_, phase, store), (reads, writes) in trace.accesses.items():
        r, w = access.get((phase, store), (0, 0))
        access[(phase, store)] = (r + reads, w + writes)
    compute = {}
    for (_, phase), (macs, cycles) in trace.compute.items():
        m, c = compute.get(phase, (0, 0))
        compute[phase] = (m + macs, c + cycles)
    return access, compute
