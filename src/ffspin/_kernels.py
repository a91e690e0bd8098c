"""RK4 stepping kernel for the fast-forward Schrodinger equation.

The hot loop assembles H(t) = H_base + R(t) H_slope + v(t) * sum_k w_k(R) G_k
at each Runge-Kutta stage and advances the state with fixed steps.  Repeated
runs are bit-for-bit reproducible.
"""
from __future__ import annotations

import numpy as np


def _rk4_run(h_base, h_slope, gens, breaks, coeffs, r0, v_bar, t_ff,
             psi0, n_steps, stride, drive):
    """Fixed-step RK4 for i dpsi/dt = H(t) psi, recording every ``stride`` steps.

    Parameters are plain arrays and scalars: ``gens`` is (3, dim, dim)
    complex, ``breaks``/``coeffs`` describe the piecewise-cubic coefficient
    interpolants (coeffs is (3, 4, n_segments), highest power first),
    ``drive`` switches the driving term.

    Returns (psis, ts, rs, vs, ws) with one row per record; ws has columns
    (w1, w2, bz) evaluated at the record parameter.
    """
    dim = psi0.shape[0]
    n_rec = n_steps // stride + 1
    psis = np.empty((n_rec, dim), dtype=np.complex128)
    ts = np.empty(n_rec)
    rs = np.empty(n_rec)
    vs = np.empty(n_rec)
    ws = np.empty((n_rec, 3))
    dt = t_ff / n_steps
    two_pi = 2.0 * np.pi
    n_seg = breaks.shape[0] - 1
    psi = psi0.copy()
    h_stage = np.empty((3, dim, dim), dtype=np.complex128)
    stage_r = np.empty(3)
    stage_v = np.empty(3)
    stage_w = np.empty((3, 3))
    rec = 0
    for step in range(n_steps + 1):
        t = step * dt
        # stage 0 is the current time; stages 1, 2 midpoint and endpoint
        for q in range(3):
            tq = t + 0.5 * dt * q
            phase = two_pi * tq / t_ff
            r = r0 + 2.0 * v_bar * (0.5 * tq - t_ff * np.sin(phase) / (4.0 * np.pi))
            v = v_bar * (1.0 - np.cos(phase))
            j = np.searchsorted(breaks, r) - 1
            if j < 0:
                j = 0
            if j > n_seg - 1:
                j = n_seg - 1
            u = r - breaks[j]
            for k in range(3):
                stage_w[q, k] = ((coeffs[k, 0, j] * u + coeffs[k, 1, j]) * u
                                 + coeffs[k, 2, j]) * u + coeffs[k, 3, j]
            stage_r[q] = r
            stage_v[q] = v
            h = h_base + r * h_slope
            if drive:
                h = h + (v * stage_w[q, 0]) * gens[0] \
                      + (v * stage_w[q, 1]) * gens[1] \
                      + (v * stage_w[q, 2]) * gens[2]
            h_stage[q] = h
        if step % stride == 0:
            psis[rec] = psi
            ts[rec] = t
            rs[rec] = stage_r[0]
            vs[rec] = stage_v[0]
            ws[rec] = stage_w[0]
            rec += 1
        if step == n_steps:
            break
        k1 = -1j * (h_stage[0] @ psi)
        k2 = -1j * (h_stage[1] @ (psi + (0.5 * dt) * k1))
        k3 = -1j * (h_stage[1] @ (psi + (0.5 * dt) * k2))
        k4 = -1j * (h_stage[2] @ (psi + dt * k3))
        psi = psi + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return psis, ts, rs, vs, ws
