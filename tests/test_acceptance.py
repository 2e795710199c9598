"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.
"""

import time

import numpy as np
import pytest

from sdcontrol.backward_solver import duality_residual, solve_backward
from sdcontrol.discrete_calc import (DualGridFunction, GridFunction,
                                     consistency_orders, ibp_residuals,
                                     leibniz_residuals)
from sdcontrol.forward_solver import (Coefficients, ControlPair, OmegaRegion,
                                      solve_forward)
from sdcontrol.harness import (ExperimentConfig, cli, sweep_settings_from_config)
from sdcontrol.hum import (HumProblem, conjugate_gradient, evaluate_functional,
                           gramian_apply, riccati_preconditioner, solve_hum)
from sdcontrol.inequalities import (carleman_ratio_study, h_sweep,
                                    observability_sample)
from sdcontrol.mesh import build_mesh
from sdcontrol.noise_tree import build_tree, martingale_coeff, random_levels, tree_inner
from sdcontrol.weights import validate_regime

from oracles import dense_gramian, scheduled_weights, small_problem


def report(criterion, ok, detail, started, limit):
    elapsed = time.time() - started
    print(f"\n[criterion {criterion:02d}] {'PASS' if ok else 'FAIL'} "
          f"({elapsed:.2f}s / limit {limit:.0f}s) {detail}")
    assert ok, detail
    assert elapsed < limit, f"criterion {criterion} exceeded its runtime limit"


def test_criterion_01_product_identities():
    started = time.time()
    worst = 0.0
    rng = np.random.default_rng(101)
    for N in (3, 8, 16, 64):
        mesh = build_mesh(N)
        for _ in range(25):
            u = GridFunction(mesh, rng.standard_normal(N + 2))
            v = GridFunction(mesh, rng.standard_normal(N + 2))
            scale = max(1.0, np.abs(u.values).max()) * max(1.0, np.abs(v.values).max()) / mesh.h
            worst = max(worst, max(leibniz_residuals(u, v)) / scale)
    report(1, worst <= 1e-12, f"max scaled residual {worst:.3e} (tol 1e-12)", started, 1.0)


def test_criterion_02_summation_by_parts():
    started = time.time()
    worst = 0.0
    rng = np.random.default_rng(102)
    for N in (3, 8, 16, 64):
        mesh = build_mesh(N)
        for _ in range(25):
            u = GridFunction(mesh, rng.standard_normal(N + 2))  # nonzero boundary
            v = DualGridFunction(mesh, rng.standard_normal(N + 1))
            scale = max(1.0, np.abs(u.values).max()) * max(1.0, np.abs(v.values).max()) / mesh.h
            worst = max(worst, max(ibp_residuals(u, v)) / scale)
    report(2, worst <= 1e-12, f"max scaled residual {worst:.3e} (tol 1e-12)", started, 1.0)


def test_criterion_03_consistency_order():
    started = time.time()
    orders = consistency_orders()
    ok = all(abs(o - 2.0) <= 0.15 for o in orders.values())
    detail = ", ".join(f"{k}={v:.3f}" for k, v in orders.items())
    report(3, ok, f"observed orders: {detail}", started, 1.0)


def test_criterion_04_tree_exactness():
    started = time.time()
    worst = 0.0
    rng = np.random.default_rng(104)
    for depth in range(1, 11):
        tree = build_tree(depth, 1.0)
        for k in range(depth + 1):
            worst = max(worst, abs(tree.num_nodes(k) * tree.node_probability(k) - 1.0))
        for k in range(1, depth + 1):
            db = tree.edge_signs(k) * tree.increment
            worst = max(worst, abs(db.mean()))
            worst = max(worst, np.abs(db**2 - tree.dt).max())
        vals = rng.standard_normal((tree.num_nodes(depth), 1))
        mean, _ = martingale_coeff(vals, tree.dt)
        tower = abs(mean.mean() - vals.mean())
        worst = max(worst, tower / max(1.0, np.abs(vals).max()))
    report(4, worst <= 1e-14, f"max residual {worst:.3e} (tol 1e-14)", started, 1.0)


def test_criterion_05_duality_identity():
    started = time.time()
    rng = np.random.default_rng(105)
    worst = 0.0
    for _ in range(50):
        N = int(rng.integers(3, 17))
        depth = int(rng.integers(1, 11))
        mesh = build_mesh(N)
        tree = build_tree(depth, 1.0)
        mag = min(0.9, 0.8 / tree.dt)
        coeffs = Coefficients.adapted_random(tree, mesh, rng, mag, 1.0)
        region = OmegaRegion(mesh, (0.25, 0.75))
        controls = ControlPair(u=random_levels(mesh, rng, (), depth),
                               v=random_levels(mesh, rng, (), depth), region=region)
        y0 = rng.standard_normal(N)
        yT = solve_forward(y0, controls, coeffs)
        bwd = solve_backward(rng.standard_normal((tree.num_nodes(depth), N)), coeffs)
        res, scale = duality_residual(y0, yT, bwd, controls, tree, mesh)
        worst = max(worst, res / scale)
    report(5, worst <= 1e-10, f"max relative residual {worst:.3e} over 50 instances "
           "(tol 1e-10)", started, 30.0)


def test_criterion_06_gramian_symmetry_psd():
    started = time.time()
    problem, rng = small_problem(seed=106)
    mat = dense_gramian(problem)
    sym = np.abs(mat - mat.T).max() / max(np.abs(mat).max(), 1e-300)
    min_eig = np.linalg.eigvalsh(0.5 * (mat + mat.T)).min()
    z = rng.standard_normal(64)
    applied = gramian_apply(z.reshape(16, 4), problem).ravel()
    col_err = np.abs(applied - mat @ z).max() / max(1.0, np.abs(mat @ z).max())
    ok = sym <= 1e-10 and min_eig >= -1e-10 and col_err <= 1e-12
    report(6, ok, f"symmetry {sym:.3e}, min eig {min_eig:.3e}, "
           f"matrix-free vs dense {col_err:.3e}", started, 30.0)


def test_criterion_07_hum_closure():
    started = time.time()
    rng = np.random.default_rng(107)
    worst_excess = -np.inf
    details = []
    for _ in range(10):
        N = int(rng.integers(4, 13))
        depth = int(rng.integers(3, 11))
        mesh = build_mesh(N)
        tree = build_tree(depth, 1.0)
        mag = min(0.7, 0.8 / tree.dt)
        coeffs = Coefficients.adapted_random(tree, mesh, rng, mag, 0.7)
        region = OmegaRegion(mesh, (0.3, 0.7))
        eps = 10.0 ** rng.uniform(-6, -2)
        problem = HumProblem(y0=rng.standard_normal(N), coeffs=coeffs, region=region,
                             tree=tree, mesh=mesh, epsilon=eps, cg_maxiter=2000)
        sol = solve_hum(problem)
        bound = max(sol.closure_bound, 1e-13)
        worst_excess = max(worst_excess, sol.closure_error / bound)
        details.append(sol.closure_error)
    ok = worst_excess <= 1.0
    report(7, ok, f"max closure/bound {worst_excess:.3f}, "
           f"closure errors up to {max(details):.2e}", started, 120.0)


def test_criterion_08_cg_vs_dense_oracle():
    started = time.time()
    problem, rng = small_problem(seed=108, eps=2e-4)
    mat = dense_gramian(problem) + problem.epsilon * np.eye(64)
    b = solve_forward(problem.y0, None, problem.coeffs).ravel()
    x_dense = np.linalg.solve(mat, b)
    x_cg, _ = conjugate_gradient(
        lambda z: gramian_apply(z.reshape(16, 4), problem).ravel() + problem.epsilon * z,
        b, 1e-12, 1000, riccati_preconditioner(problem))
    rel = np.linalg.norm(x_cg - x_dense) / np.linalg.norm(x_dense)
    report(8, rel <= 1e-8, f"PCG vs dense relative error {rel:.3e} (tol 1e-8)", started, 10.0)


def test_criterion_09_gradient_check():
    started = time.time()
    problem, rng = small_problem(seed=109)
    z = rng.standard_normal((16, 4))
    b = solve_forward(problem.y0, None, problem.coeffs)
    grad = gramian_apply(z, problem) + problem.epsilon * z - b
    worst = 0.0
    step = 1e-3
    for _ in range(20):
        d = rng.standard_normal((16, 4))
        fd = (evaluate_functional(problem, z + step * d)
              - evaluate_functional(problem, z - step * d)) / (2 * step)
        analytic = tree_inner(problem.tree, problem.mesh, 4, grad, d)
        worst = max(worst, abs(fd - analytic) / max(abs(analytic), 1e-30))
    report(9, worst <= 1e-6, f"max relative gradient error {worst:.3e} "
           "over 20 directions (tol 1e-6)", started, 30.0)


def test_criterion_10_terminal_decay_sweep():
    started = time.time()
    cfg = ExperimentConfig()
    cfg.sweep["h_values"] = [1 / 8, 1 / 12, 1 / 16, 1 / 20]
    rows = h_sweep(sweep_settings_from_config(cfg))
    ok = all(not r.skipped for r in rows)
    ratios = [r.term_ratio for r in rows]
    monotone = all(ratios[i + 1] <= ratios[i] for i in range(len(ratios) - 1))
    inv_h = np.array([1.0 / r.h for r in rows])
    slope = float(np.polyfit(inv_h, np.log(ratios), 1)[0])
    max_cost = max(r.cost_ratio for r in rows)
    ok = ok and monotone and slope < 0 and np.isfinite(max_cost)
    report(10, ok, f"ratios {['%.2e' % r for r in ratios]}, slope {slope:.3f}, "
           f"max cost ratio {max_cost:.3e}", started, 600.0)


def test_criterion_11_observability_fit():
    started = time.time()
    mesh = build_mesh(8)
    tree = build_tree(8, 1.0)
    region = OmegaRegion(mesh, (0.3, 0.7))
    coeffs = Coefficients.adapted_random(tree, mesh, np.random.default_rng(1111), 0.5, 0.5)
    weights = scheduled_weights(mesh)
    fit = observability_sample(coeffs, weights, tree, mesh, region,
                               np.random.default_rng(111), 200, 200, c_eps=1.0)
    fit_h = observability_sample(coeffs, weights, tree, mesh, region,
                                 np.random.default_rng(112), 200, 200, c_eps=1.0,
                                 terminal_h_scaling=True)
    ok = fit.holdout_violations == 0 and fit.fitted_C > 0
    report(11, ok, f"fitted C {fit.fitted_C:.3e} (safety x{fit.safety:.0f}), "
           f"violations {fit.holdout_violations}, h-scaled variant C "
           f"{fit_h.fitted_C:.3e} violations {fit_h.holdout_violations}",
           started, 300.0)


def test_criterion_12_carleman_ratio_stability():
    started = time.time()
    rng = np.random.default_rng(1212)
    maxima = []
    for N in (8, 17):
        mesh = build_mesh(N)
        tree = build_tree(6, 1.0)
        region = OmegaRegion(mesh, (0.3, 0.7))
        weights = scheduled_weights(mesh)
        ok_regime, _ = validate_regime(weights, mesh.h)
        assert ok_regime
        ratios = carleman_ratio_study(weights, tree, mesh, region, rng, 100)
        assert np.isfinite(ratios).all()
        maxima.append(float(ratios.max()))
    stability = max(maxima) / min(maxima)
    ok = stability <= 5.0
    report(12, ok, f"max ratios {maxima[0]:.4f} -> {maxima[1]:.4f}, "
           f"stability factor {stability:.3f} (limit 5)", started, 300.0)


def test_criterion_13_sweep_determinism(tmp_path):
    started = time.time()
    import dataclasses
    import json
    cfg = ExperimentConfig()
    cfg.depth = 4
    cfg.sweep = {"h_values": [1 / 8, 1 / 12], "obs_train": 8, "obs_holdout": 8}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(dataclasses.asdict(cfg)), encoding="utf-8")
    out1, out2 = tmp_path / "t1.csv", tmp_path / "t4.csv"
    code1 = cli(["sweep", "--config", str(path), "--out", str(out1), "--threads", "1"])
    code2 = cli(["sweep", "--config", str(path), "--out", str(out2), "--threads", "4"])
    identical = out1.read_bytes() == out2.read_bytes()
    ok = code1 == 0 and code2 == 0 and identical
    report(13, ok, f"byte-identical under 1 and 4 threads: {identical}", started, 600.0)
