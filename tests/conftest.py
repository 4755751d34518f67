"""Shared helpers: independent reference integrators and mode-space oracles."""

from __future__ import annotations

import numpy as np
import pytest

from torusfloer.hamiltonians import hamiltonian_residual
from torusfloer.spectral import TorusField, derivative_numbers
from torusfloer.symbol import symbol_matrix


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def mode_block(m1: int, m2: int) -> np.ndarray:
    """Per-mode matrix of the linearized operator at zero flow frequency."""
    return symbol_matrix(0.0, m1, m2)


def project_flow_stable(field: TorusField) -> TorusField:
    """Keep only non-growing eigendirections of the free linear flow.

    Per mode the flow factor along an eigendirection with eigenvalue lam of
    the linear block is exp(-lam * s); directions with Re(lam) < 0 grow and
    are removed (that includes the constant-p direction at the zero mode).
    """
    n = field.grid_size
    if field.components != 4:
        raise ValueError("helper supports single-pair fields")
    coeffs = np.fft.fft2(field.values, axes=(0, 1), norm="forward")
    m1g, m2g = derivative_numbers(n)
    out = np.zeros_like(coeffs)
    for a in range(n):
        for b in range(n):
            c = coeffs[a, b]
            if not np.any(c):
                continue
            lam, vec = np.linalg.eig(mode_block(int(m1g[a, b]), int(m2g[a, b])))
            keep = np.diag((lam.real >= -1e-12).astype(float))
            out[a, b] = vec @ keep @ np.linalg.solve(vec, c)
    values = np.fft.ifft2(out, axes=(0, 1), norm="forward").real
    return TorusField(values, field.layout)


def linear_flow_exact(field: TorusField, s: float) -> TorusField:
    """Closed-form free flow: per mode exp(-s * L(m)) applied to coefficients."""
    n = field.grid_size
    coeffs = np.fft.fft2(field.values, axes=(0, 1), norm="forward")
    m1g, m2g = derivative_numbers(n)
    out = np.zeros_like(coeffs)
    for a in range(n):
        for b in range(n):
            c = coeffs[a, b]
            if not np.any(c):
                continue
            lam, vec = np.linalg.eig(mode_block(int(m1g[a, b]), int(m2g[a, b])))
            out[a, b] = vec @ (np.exp(-s * lam) * np.linalg.solve(vec, c))
    values = np.fft.ifft2(out, axes=(0, 1), norm="forward").real
    return TorusField(values, field.layout)


def flow_bytes(result):
    """The bytes of a FlowResult's field, counters, reason and diagnostics rows."""
    return (
        result.Z.values.tobytes(),
        result.n_steps,
        result.ds_final,
        result.s_reached,
        result.residual_norm,
        result.reason,
        np.array(result.rows).tobytes(),
    )


def rk4_reference(Z: TorusField, spec, triple, s_total: float, n_sub: int,
                  profile=None, s0: float = 0.0) -> TorusField:
    """Classical RK4 on the full nonlinear flow velocity; test-side oracle."""
    ds = s_total / n_sub

    def rhs_at(values, s):
        weight = 1.0 if profile is None else float(profile.value(s))
        return -hamiltonian_residual(spec, TorusField(values, "z"), triple, weight).values

    values = Z.values.copy()
    s = s0
    for _ in range(n_sub):
        k1 = rhs_at(values, s)
        k2 = rhs_at(values + 0.5 * ds * k1, s + 0.5 * ds)
        k3 = rhs_at(values + 0.5 * ds * k2, s + 0.5 * ds)
        k4 = rhs_at(values + ds * k3, s + ds)
        values = values + ds / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)
        s += ds
    return TorusField(values, "z")
