"""Oracles and seeded problems shared by the test modules, one copy each."""

import numpy as np

from sdcontrol.forward_solver import Coefficients, ControlPair, OmegaRegion
from sdcontrol.hum import HumProblem, gramian_apply
from sdcontrol.mesh import build_mesh
from sdcontrol.noise_tree import build_tree, random_levels
from sdcontrol.weights import WeightParams, build_weights


def dense_step(mesh, dt, a1):
    """I - dt*(second difference + a1) as a dense matrix on the interior."""
    ones = np.ones(mesh.N - 1)
    lap = (np.diag(ones, -1) - 2 * np.eye(mesh.N) + np.diag(ones, 1)) / mesh.h**2
    return np.eye(mesh.N) - dt * (lap + np.diag(a1))


def random_controls(tree, mesh, region, rng):
    u = random_levels(mesh, rng, (), tree.depth)
    v = random_levels(mesh, rng, (), tree.depth)
    return ControlPair(u=u, v=v, region=region)


def scheduled_weights(mesh, lam=2.0, mu=1.2, delta0=0.25, eps0=1.0, T=1.0):
    return build_weights(WeightParams(T=T, lam=lam, mu=mu, delta=delta0, x0=0.5,
                                      eps0=eps0).at_mesh(mesh.h))


def small_problem(N=4, depth=4, eps=1e-3, seed=0, coeff_mag=(0.5, 0.5), **kwargs):
    mesh = build_mesh(N)
    tree = build_tree(depth, 1.0)
    rng = np.random.default_rng(seed)
    coeffs = Coefficients.adapted_random(tree, mesh, rng, *coeff_mag)
    region = OmegaRegion(mesh, (0.3, 0.7))
    y0 = rng.standard_normal(mesh.N)
    return HumProblem(y0=y0, coeffs=coeffs, region=region, tree=tree, mesh=mesh,
                      epsilon=eps, **kwargs), rng


def dense_gramian(problem):
    dim = problem.tree.num_nodes(problem.tree.depth) * problem.mesh.N
    mat = np.empty((dim, dim))
    shape = (problem.tree.num_nodes(problem.tree.depth), problem.mesh.N)
    for j in range(dim):
        e = np.zeros(dim)
        e[j] = 1.0
        mat[:, j] = gramian_apply(e.reshape(shape), problem).ravel()
    return mat


def carleman_quadrature(w, sources, weights, tree, mesh, region):
    """The seven integrals of the weighted estimate as the level-by-level sums
    sum_k dt * 2^-k * h * sum(weight_k * a_k**2) they stand for, by
    ``CarlemanTerms`` field, with the same normalizing shift; the oracle
    for ``carleman_terms``.  The gradient is the padded staggered
    difference of each node's values."""
    h, depth = mesh.h, tree.depth
    times = np.arange(depth) * tree.dt
    exp_int = np.outer(weights.s(times), weights.phi(mesh.interior))
    exp_star = np.outer(weights.s(times), weights.phi(mesh.star))
    exp_ends = np.outer([weights.s(0.0), weights.s(weights.params.T)],
                        weights.phi(mesh.interior))
    shift = max(exp_int.max(), exp_star.max(), exp_ends.max())
    w2_int = np.exp(2.0 * (exp_int - shift))
    w2_star = np.exp(2.0 * (exp_star - shift))
    w2_t0, w2_tT = np.exp(2.0 * (exp_ends - shift))
    s = weights.s(times)[:, np.newaxis]
    grads = [np.diff(wk, axis=-1, prepend=0.0, append=0.0) / h for wk in w[:depth]]

    def pairing(field, weight):
        return sum(tree.dt * h / 2**k * (weight[k] * field[k]**2).sum(axis=(-2, -1))
                   for k in range(depth))

    leaves = w[depth]
    return {
        "lhs_state": pairing(w, s**3 * w2_int),
        "lhs_gradient": pairing(grads, s * w2_star),
        "rhs_window": pairing(w, s**3 * region.indicator * w2_int),
        "rhs_diffusion": pairing(sources.g, s**2 * w2_int),
        "rhs_drift": pairing(sources.f, w2_int),
        "rhs_initial": h * (w2_t0 * w[0]**2).sum(axis=(-2, -1)) / h**2,
        "rhs_terminal": h / 2**depth * (w2_tT * leaves**2).sum(axis=(-2, -1)) / h**2,
    }
