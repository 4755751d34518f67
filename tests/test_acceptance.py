"""Acceptance suite: one test per release criterion, each printing a verdict.

Run with `pytest tests/test_acceptance.py -v -s` to see the pass/fail lines.
The multistart experiment (criteria 10/11) and the switching trajectories
(criteria 8/9) are computed once in module-scoped fixtures and shared.
"""

import json
import time
from pathlib import Path

import numpy as np
import pytest

from torusfloer.floer import (
    action,
    constant_start,
    energy_identity_check,
    flow_constants,
    max_principle_check,
    run_homotopy,
)
from torusfloer.hamiltonians import (
    hamiltonian_from_config,
    hamiltonian_residual,
    hofer_norm,
    quadratic_lagrangian,
    euler_lagrange_residual,
    ddw_kernel_witness,
    ddw_residual,
    TrigPotential,
)
from torusfloer.runner import ExperimentConfig, quotient_l2_distance, seed_field, verify_count
from torusfloer.spectral import (
    TorusField,
    constant_field,
    derivative,
    dirac,
    l2_inner,
    l2_norm,
    laplacian,
    random_band_limited,
    sobolev_norm,
)
from torusfloer.structures import (
    compatible_triple,
    random_regularized_pair,
    standard_structures,
)
from torusfloer.symbol import P_MATRIX, det_formula, eigenvalue_formula, symbol_matrix

CONFIG_PATH = Path(__file__).resolve().parent.parent / "configs" / "trig_n1.json"

TRIG = {"kind": "trig_potential", "epsilon": 0.1, "modes": [[1, 0], [0, 1]]}

J4 = np.array([[0, 0, -1, 0], [0, 0, 0, -1], [1, 0, 0, 0], [0, 1, 0, 0]], dtype=float)
K4 = np.array([[0, 0, 0, 1], [0, 0, -1, 0], [0, 1, 0, 0], [-1, 0, 0, 0]], dtype=float)


def verdict(num, ok, detail):
    line = f"[criterion {num:2d}] {'PASS' if ok else 'FAIL'}: {detail}"
    print(line)
    assert ok, line


def _frequency_sample(count=10_000, seed=42):
    rng = np.random.default_rng(seed)
    xi = rng.uniform(-100.0, 100.0, size=count)
    m1 = rng.integers(-100, 101, size=count)
    m2 = rng.integers(-100, 101, size=count)
    return xi, m1, m2


# ---------------------------------------------------------------------------
# shared heavy fixtures


@pytest.fixture(scope="module")
def homotopy_runs():
    spec = hamiltonian_from_config(TRIG, rho=4.0)
    rng = np.random.default_rng(501)
    runs = []
    for _ in range(5):
        q = rng.uniform(0.0, 2.0 * np.pi, size=2)
        z0 = constant_field(32, [q[0], q[1], 0.0, 0.0], "z")
        runs.append(run_homotopy(z0, spec, r=1.0, ds=5e-3))
    return spec, runs


@pytest.fixture(scope="module")
def flagship_report():
    config = ExperimentConfig.from_dict(json.loads(CONFIG_PATH.read_text()))
    start = time.monotonic()
    report = verify_count(config)
    report.elapsed = time.monotonic() - start
    return report


# ---------------------------------------------------------------------------
# criteria


def test_criterion_1_symbol_determinant():
    start = time.monotonic()
    xi, m1, m2 = _frequency_sample()
    dets = np.linalg.det(symbol_matrix(xi, m1, m2))
    formulas = det_formula(xi, m1, m2)
    worst = float(np.max(np.abs(dets - formulas) / np.maximum(1.0, np.abs(formulas))))
    elapsed = time.monotonic() - start
    verdict(
        1,
        worst < 1e-10 and elapsed < 5.0,
        f"determinant residual {worst:.3e} over 10^4 frequencies in {elapsed:.2f}s",
    )


def test_criterion_2_symbol_eigenvalues():
    start = time.monotonic()
    xi, m1, m2 = _frequency_sample()
    numeric = np.linalg.eigvals(symbol_matrix(xi, m1, m2))
    lam_p, lam_m = eigenvalue_formula(xi, m1, m2)
    expected = np.stack([lam_p, lam_p, lam_m, lam_m], axis=-1)
    order = np.lexsort((numeric.imag, numeric.real), axis=-1)
    numeric = np.take_along_axis(numeric, order, axis=-1)
    order = np.lexsort((expected.imag, expected.real), axis=-1)
    expected = np.take_along_axis(expected, order, axis=-1)
    scale = np.maximum(1.0, np.max(np.abs(expected), axis=-1))
    worst = float(np.max(np.max(np.abs(numeric - expected), axis=-1) / scale))
    # zero-frequency spectrum against the eigendecomposition of -P
    oracle = np.sort(np.linalg.eigvals(-P_MATRIX).real)
    zero = np.sort(np.linalg.eigvals(symbol_matrix(0.0, 0, 0)).real)
    zero_ok = np.allclose(zero, oracle, atol=1e-14) and np.allclose(
        oracle, [-1.0, -1.0, 0.0, 0.0]
    )
    elapsed = time.monotonic() - start
    verdict(
        2,
        worst < 1e-10 and zero_ok and elapsed < 5.0,
        f"spectrum residual {worst:.3e}, zero-frequency spectrum {{0,0,-1,-1}} "
        f"verified, in {elapsed:.2f}s",
    )


def test_criterion_3_compatible_triple_algebra():
    start = time.monotonic()
    rng = np.random.default_rng(7)
    worst = 0.0
    for n in (1, 2):
        for _ in range(100):
            w1, w2, big_i = random_regularized_pair(rng, n)
            out = compatible_triple(w1, w2, big_i)
            worst = max(worst, max(out.algebra_residuals().values()))
    std = compatible_triple(*(lambda t: (t.omega1, t.omega2, t.I))(standard_structures(1)))
    exact = np.array_equal(std.J, J4) and np.array_equal(std.K, K4)
    elapsed = time.monotonic() - start
    verdict(
        3,
        worst < 1e-10 and exact and elapsed < 5.0,
        f"worst identity residual {worst:.3e} over 200 pairs (dim 4 and 8), "
        f"standard block matrices exact, in {elapsed:.2f}s",
    )


def test_criterion_4_dirac_squared():
    start = time.monotonic()
    rng = np.random.default_rng(11)
    triple = standard_structures(1)
    worst = 0.0
    for _ in range(50):
        z = TorusField(rng.standard_normal((64, 64, 4)), "z")
        dd = dirac(dirac(z, triple), triple)
        defect = l2_norm(TorusField(dd.values + laplacian(z).values, "z"))
        worst = max(worst, defect / sobolev_norm(z, 2))
    elapsed = time.monotonic() - start
    verdict(
        4,
        worst < 1e-10 and elapsed < 5.0,
        f"relative operator defect {worst:.3e} over 50 random 64x64 fields in {elapsed:.2f}s",
    )


def test_criterion_5_action_gradient():
    start = time.monotonic()
    rng = np.random.default_rng(13)
    spec = hamiltonian_from_config(TRIG, rho=4.0)
    triple = standard_structures(1)
    z = random_band_limited(rng, 32, 4, max_mode=3, amplitude=0.2, layout="z")
    res = hamiltonian_residual(spec, z, triple)
    eps = 1e-5
    worst = 0.0
    for _ in range(20):
        y = random_band_limited(rng, 32, 4, max_mode=3, layout="z")
        plus = TorusField(z.values + eps * y.values, "z")
        minus = TorusField(z.values - eps * y.values, "z")
        fd = (action(spec, plus) - action(spec, minus)) / (2.0 * eps)
        pairing = l2_inner(res, y)
        worst = max(worst, abs(fd - pairing) / max(1e-30, abs(pairing)))
    elapsed = time.monotonic() - start
    verdict(
        5,
        worst < 1e-6 and elapsed < 30.0,
        f"gradient identity relative defect {worst:.3e} over 20 directions in {elapsed:.2f}s",
    )


def test_criterion_6_lagrange_hamilton_equivalence():
    start = time.monotonic()
    rng = np.random.default_rng(17)
    spec = hamiltonian_from_config(TRIG)
    lag = quadratic_lagrangian(TrigPotential(0.1, [[1, 0], [0, 1]]))
    triple = standard_structures(1)
    worst = 0.0
    for _ in range(10):
        q = random_band_limited(rng, 32, 2, max_mode=3, amplitude=0.1, layout="q")
        p = 2.0 * derivative(q, "dt").values
        z = TorusField(np.concatenate([q.values, p], axis=2), "z")
        el = euler_lagrange_residual(lag, q).values
        ham = hamiltonian_residual(spec, z, triple).values
        worst = max(worst, float(np.max(np.abs(el - ham[:, :, :2]))))
        worst = max(worst, float(np.max(np.abs(ham[:, :, 2:]))))
    elapsed = time.monotonic() - start
    verdict(
        6,
        worst < 1e-8 and elapsed < 10.0,
        f"variational vs first-order residual gap {worst:.3e} on 10 fields in {elapsed:.2f}s",
    )


def test_criterion_7_ddw_kernel_witness():
    start = time.monotonic()
    rng = np.random.default_rng(19)
    worst = 0.0
    for _ in range(20):
        psi = random_band_limited(rng, 32, 1, max_mode=5, layout="scalar")
        witness = ddw_kernel_witness(psi, q0=float(rng.uniform(0, 2 * np.pi)))
        worst = max(worst, l2_norm(ddw_residual(None, witness)))
    elapsed = time.monotonic() - start
    verdict(
        7,
        worst < 1e-12 and elapsed < 5.0,
        f"kernel witness residual {worst:.3e} over 20 fields in {elapsed:.2f}s",
    )


def test_criterion_8_energy_bound_and_identity(homotopy_runs):
    start = time.monotonic()
    spec, runs = homotopy_runs
    bound = 2.0 * hofer_norm(spec).value
    worst_defect = 0.0
    worst_excess = -np.inf
    all_converged = True
    for traj in runs:
        rep = energy_identity_check(traj)
        worst_defect = max(worst_defect, rep.defect)
        worst_excess = max(worst_excess, rep.energy - bound)
        all_converged = all_converged and all(traj.ends_converged)
    elapsed = time.monotonic() - start
    verdict(
        8,
        worst_defect < 1e-3 and worst_excess <= 1e-2 and all_converged and elapsed < 300.0,
        f"identity defect {worst_defect:.3e}, energy excess over 2*Hofer "
        f"{worst_excess:.3e}, converged ends, in {elapsed:.2f}s",
    )


def test_criterion_9_maximum_principle(homotopy_runs):
    spec, runs = homotopy_runs
    worst = 0.0
    ok = True
    for traj in runs:
        rep = max_principle_check(traj, spec.rho)
        worst = max(worst, rep.max_p_sq)
        ok = ok and rep.passed and all(rep.ends_converged)
    verdict(9, ok, f"max |p|^2 = {worst:.3e} <= rho = {spec.rho} on all 5 trajectories")


def _critical_points_oracle():
    """Independent root-finding on the potential gradient (not the lattice)."""
    from scipy.optimize import fsolve

    def grad(q):
        return -0.1 * np.sin(q)

    found = []
    for a in np.linspace(0.1, 2 * np.pi, 7):
        for b in np.linspace(0.2, 2 * np.pi, 7):
            root, _, ok, _ = fsolve(grad, np.array([a, b]), full_output=True)
            if ok != 1:
                continue
            root = np.mod(root, 2 * np.pi)
            if not any(
                np.max(np.abs(np.mod(root - r + np.pi, 2 * np.pi) - np.pi)) < 1e-6
                for r in found
            ):
                found.append(root)
    return found


def test_criterion_10_solution_count(flagship_report):
    report = flagship_report
    config = report.config
    residual_ok = all(rec.residual < config.residual_tol for rec in report.records)
    crit = _critical_points_oracle()
    match_ok = True
    for rec in report.records:
        if rec.classification != "constant":
            continue
        q = np.mod(rec.q_mean, 2 * np.pi)
        dists = [
            np.max(np.abs(np.mod(q - r + np.pi, 2 * np.pi) - np.pi)) for r in crit
        ]
        match_ok = match_ok and min(dists) < 1e-6
    ok = (
        report.distinct >= report.bound
        and report.passed
        and residual_ok
        and match_ok
        and report.elapsed < 600.0
    )
    verdict(
        10,
        ok,
        f"distinct solutions {report.distinct} >= {report.bound} from "
        f"{config.n_seeds} seeds ({len(report.records)} converged, "
        f"{len(report.divergent)} divergent), residuals < {config.residual_tol}, "
        f"constant limits match gradient roots, in {report.elapsed:.1f}s",
    )


def test_criterion_11_action_lower_bound(flagship_report):
    report = flagship_report
    c0, c1 = report.bound_constants
    worst = min((rec.bound_margin for rec in report.records), default=np.inf)
    # the bound is saturated exactly at the potential maximum, so allow
    # round-off on the boundary
    verdict(
        11,
        worst >= -1e-12,
        f"action >= {c0} |p|^2 - {c1:.3f} holds for all {len(report.records)} "
        f"records (worst margin {worst:.3e})",
    )


def test_polished_flagship_limits_match_the_flow(flagship_report):
    """Every Newton-polished constant lies within 1e-6 of the flow's own limit at residual_tol."""
    config = flagship_report.config
    spec = config.build_spec()
    polished = [rec for rec in flagship_report.records if "Newton" in rec.reason]
    assert len(polished) == 32  # 36 lattice seeds, 4 of them start on critical points
    flowed = flow_constants(
        [constant_start(spec, seed_field(config, rec.seed_index)) for rec in polished],
        spec,
        tol=config.residual_tol,
        s_max=config.s_max,
        ds=config.ds,
        check_every=config.check_every,
    )
    worst = 0.0
    for rec, plain in zip(polished, flowed):
        assert rec.residual < 1e-12 and plain.converged
        # a field's layout decides how its grid means round (q_mean, the action)
        assert rec.field.values.strides == plain.Z.values.strides
        worst = max(worst, quotient_l2_distance(rec.field, plain.Z))
    assert worst < 1e-6
