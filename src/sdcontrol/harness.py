"""Configuration ingestion, CLI subcommands, and CSV emission."""

from __future__ import annotations

import argparse
import copy
import csv
import json
import math
import sys
from dataclasses import dataclass, field, asdict

import numpy as np

from . import discrete_calc as dc
from . import hum as hum_mod
from . import inequalities as ineq
from . import noise_tree as nt
from .backward_solver import duality_residual, solve_backward
from .errors import (ConfigurationError, ConvergenceError, SingularSystemError)
from .forward_solver import (Coefficients, ControlPair, OmegaRegion, sampled_levels,
                             solve_forward, uniform_levels)
from .mesh import build_mesh, integrate
from .weights import WeightParams, build_weights, theta_bound_margins, weight_problems

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3


def _default_coefficients() -> dict:
    return {
        "a1": {"kind": "constant", "magnitude": 0.5},
        "a2": {"kind": "constant", "magnitude": 0.5},
    }


def _default_weights() -> dict:
    return {"lam": 2.0, "mu": 1.2, "delta0": 0.25, "x0": 0.5, "K": 2.0,
            "eps0": 1.0, "c_eps": 1.0}


def _default_hum() -> dict:
    return {"cg_tol": 1e-10, "cg_maxiter": 500, "epsilon": None}


def _default_y0() -> dict:
    return {"kind": "sine", "coeffs": [1.0, 0.0, 0.5]}


def _default_observability() -> dict:
    return {"train": 200, "holdout": 200, "safety": 2.0}


def _default_carleman() -> dict:
    return {"samples": 100, "depth": 6, "modes": 3}


def _default_sweep() -> dict:
    # deep-penalty rows need far more Krylov iterations than a single solve
    return {"h_values": [1 / 8, 1 / 12, 1 / 16, 1 / 20],
            "obs_train": 64, "obs_holdout": 64, "cg_maxiter": 10000}


@dataclass
class ExperimentConfig:
    """One experiment description; every field has a runnable default."""

    N: int = 8
    depth: int = 8
    T: float = 1.0
    seed: int = 1234
    output: str = "results.csv"
    omega: list = field(default_factory=lambda: [0.3, 0.7])
    omega0: list = field(default_factory=lambda: [0.4, 0.6])
    coefficients: dict = field(default_factory=_default_coefficients)
    weights: dict = field(default_factory=_default_weights)
    hum: dict = field(default_factory=_default_hum)
    y0: dict = field(default_factory=_default_y0)
    observability: dict = field(default_factory=_default_observability)
    carleman: dict = field(default_factory=_default_carleman)
    sweep: dict = field(default_factory=_default_sweep)

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        cfg = cls()
        unknown = set(data) - set(cfg.__dataclass_fields__)
        if unknown:
            raise ConfigurationError(f"unknown config keys: {sorted(unknown)}")
        for key, value in data.items():
            current = getattr(cfg, key)
            if isinstance(current, dict) and isinstance(value, dict):
                bad = set(value) - set(current)
                if bad:
                    raise ConfigurationError(f"unknown keys in config section {key!r}: {sorted(bad)}")
                merged = copy.deepcopy(current)
                merged.update(value)
                setattr(cfg, key, merged)
            else:
                setattr(cfg, key, copy.deepcopy(value))
        return cfg

    def to_dict(self) -> dict:
        return copy.deepcopy(asdict(self))

    def validate(self) -> list[str]:
        """Collect violated constraints (empty when the config is runnable)."""
        problems = []
        if self.N < 2:
            problems.append(f"N must be >= 2, got {self.N}")
        if not 1 <= self.depth <= nt.DEFAULT_DEPTH_CAP:
            problems.append(f"depth must be in 1..{nt.DEFAULT_DEPTH_CAP}, got {self.depth}")
        w = self.weights
        if len(self.omega) != 2 or len(self.omega0) != 2:
            problems.append(f"omega and omega0 must be two-element intervals, "
                            f"got {self.omega}, {self.omega0}")
        else:
            if not (0 <= self.omega[0] and self.omega[1] <= 1):
                problems.append(f"omega must lie in [0, 1], got {self.omega}")
            # the weights' own rules, with the margin at the coarsest mesh
            problems.extend(weight_problems(self.T, w["lam"], w["mu"], w["delta0"], w["x0"],
                                            w["eps0"], self.omega0, self.omega))
        if w["c_eps"] <= 0:
            problems.append(f"weights.c_eps must be positive, got {w['c_eps']}")
        if self.hum["cg_tol"] <= 0 or self.hum["cg_maxiter"] < 1:
            problems.append("hum.cg_tol must be positive and hum.cg_maxiter >= 1")
        for name in ("a1", "a2"):
            kind = self.coefficients[name].get("kind")
            if kind not in ("zero", "constant", "sinusoid", "adapted_random"):
                problems.append(f"coefficients.{name}.kind must be one of "
                                f"zero|constant|sinusoid|adapted_random, got {kind!r}")
        if self.y0.get("kind") not in ("sine", "random"):
            problems.append(f"y0.kind must be sine or random, got {self.y0.get('kind')!r}")
        if self.observability["train"] < 1 or self.observability["holdout"] < 1:
            problems.append("observability.train and .holdout must be >= 1")
        if self.observability["safety"] <= 0:
            problems.append(f"observability.safety must be positive, "
                            f"got {self.observability['safety']}")
        if self.carleman["samples"] < 1:
            problems.append("carleman.samples must be >= 1")
        if not 1 <= self.carleman["depth"] <= nt.DEFAULT_DEPTH_CAP:
            problems.append(f"carleman.depth must be in 1..{nt.DEFAULT_DEPTH_CAP}, "
                            f"got {self.carleman['depth']}")
        for h in self.sweep["h_values"]:
            if h <= 0:
                problems.append(f"sweep.h_values entries must be positive, got {h}")
        if self.sweep["cg_maxiter"] < 1:
            problems.append(f"sweep.cg_maxiter must be >= 1, got {self.sweep['cg_maxiter']}")
        if self.sweep["obs_train"] < 1 or self.sweep["obs_holdout"] < 1:
            problems.append("sweep.obs_train and .obs_holdout must be >= 1")
        return problems

    @property
    def h(self) -> float:
        return 1.0 / (self.N + 1)


def load_config(path: str | None) -> ExperimentConfig:
    if path is None:
        return ExperimentConfig()
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except FileNotFoundError as exc:
        raise ConfigurationError(f"config file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"config file {path} is not valid JSON: {exc}") from exc
    return ExperimentConfig.from_dict(data)


def _coeff_function(spec: dict):
    kind = spec["kind"]
    mag = float(spec.get("magnitude", 0.0))
    if kind == "zero":
        return lambda x, t: np.zeros_like(x)
    if kind == "constant":
        return lambda x, t: np.full_like(x, mag)
    if kind == "sinusoid":
        freq = float(spec.get("frequency", 1.0))
        phase = float(spec.get("phase", 0.0))
        return lambda x, t: mag * np.sin(freq * np.pi * x + phase)
    raise ConfigurationError(f"no deterministic builder for coefficient kind {kind!r}")


def _coeff_levels(spec: dict, tree, mesh, rng) -> list[np.ndarray]:
    if spec["kind"] == "adapted_random":
        return uniform_levels(tree, mesh, rng, float(spec.get("magnitude", 0.0)))
    return sampled_levels(tree, mesh, _coeff_function(spec))


def build_coefficients(cfg: ExperimentConfig, tree, mesh, rng) -> Coefficients:
    """a1 then a2, each random or deterministic on its own; random levels
    draw from ``rng`` in that order."""
    a1 = _coeff_levels(cfg.coefficients["a1"], tree, mesh, rng)
    a2 = _coeff_levels(cfg.coefficients["a2"], tree, mesh, rng)
    return Coefficients(tree, mesh, a1, a2)


def build_y0(cfg: ExperimentConfig, mesh, rng=None) -> np.ndarray:
    kind = cfg.y0["kind"]
    if kind == "sine":
        coeffs = cfg.y0.get("coeffs", [1.0])
        x = mesh.interior
        out = np.zeros(mesh.N)
        for j, c in enumerate(coeffs, start=1):
            out += float(c) * np.sin(j * np.pi * x)
        return out
    if kind == "random":
        if rng is None:
            rng = np.random.default_rng(cfg.seed)
        return rng.standard_normal(mesh.N)
    raise ConfigurationError(f"unknown y0 kind {kind!r}")


def _weight_family(cfg: ExperimentConfig) -> WeightParams:
    """The config's weight family at the coarsest scheduled mesh (delta = delta0)."""
    w = cfg.weights
    return WeightParams(T=cfg.T, lam=w["lam"], mu=w["mu"], delta=w["delta0"],
                        x0=w["x0"], K=w["K"], eps0=w["eps0"],
                        omega0=tuple(cfg.omega0), omega=tuple(cfg.omega))


def scheduled_weights(cfg: ExperimentConfig, h: float | None = None) -> WeightParams:
    """Weight parameters with the margin tied to the mesh size."""
    family = _weight_family(cfg)
    try:
        return family.at_mesh(cfg.h if h is None else h)
    except ValueError as exc:
        raise ConfigurationError(
            f"mesh too coarse for the margin schedule: {exc} "
            f"(raise N, lower weights.lam, or raise weights.delta0)"
        ) from exc


def resolve_epsilon(cfg: ExperimentConfig) -> float:
    direct = cfg.hum.get("epsilon")
    if direct is not None:
        return float(direct)
    return hum_mod.epsilon_from_mesh(cfg.weights["c_eps"], cfg.h)


# ---------------------------------------------------------------------------
# identity suite (shared by the CLI and the test suite)
# ---------------------------------------------------------------------------

def _scale(*arrays) -> float:
    return max(1.0, *(float(np.abs(a).max()) for a in arrays if np.asarray(a).size))


def run_identity_checks(seed: int = 1234) -> list[tuple[str, bool, str]]:
    """Full property suite: mesh algebra, operators, tree, duality, weights."""
    results = []
    root = np.random.SeedSequence(seed)
    rngs = [np.random.default_rng(s) for s in root.spawn(4)]

    # dual meshes: star = closure midpoints, prime = interior midpoints
    bad = []
    for N in (2, 3, 8, 16, 64):
        mesh = build_mesh(N)
        for name, got, points in (("star", mesh.star, mesh.closure),
                                  ("prime", mesh.prime, mesh.interior)):
            mids = 0.5 * (points[:-1] + points[1:])
            if got.shape != mids.shape or np.abs(got - mids).max() > 1e-15:
                bad.append(f"N={N} {name}")
    results.append(("dual meshes", not bad, "; ".join(bad) or "N in {2,3,8,16,64}"))

    # integrate linearity
    worst = 0.0
    for N in (3, 8, 16):
        mesh = build_mesh(N)
        u = rngs[0].standard_normal(N)
        v = rngs[0].standard_normal(N)
        lhs = integrate(mesh, 2.5 * u - 1.25 * v)
        rhs = 2.5 * integrate(mesh, u) - 1.25 * integrate(mesh, v)
        worst = max(worst, abs(lhs - rhs) / _scale(u, v))
    results.append(("integration linearity", worst <= 1e-14, f"max rel residual {worst:.2e}"))

    # product and summation-by-parts identities
    worst_leib, worst_ibp = 0.0, 0.0
    for N in (3, 8, 16, 64):
        mesh = build_mesh(N)
        for _ in range(25):
            u = dc.GridFunction(mesh, rngs[1].standard_normal(N + 2))
            v = dc.GridFunction(mesh, rngs[1].standard_normal(N + 2))
            s = _scale(u.values, v.values) ** 2 / mesh.h
            worst_leib = max(worst_leib, max(dc.leibniz_residuals(u, v)) / s)
            vd = dc.DualGridFunction(mesh, rngs[1].standard_normal(N + 1))
            s2 = _scale(u.values) * _scale(vd.values) / mesh.h
            worst_ibp = max(worst_ibp, max(dc.ibp_residuals(u, vd)) / s2)
    results.append(("product identities", worst_leib <= 1e-12, f"max scaled residual {worst_leib:.2e}"))
    results.append(("summation by parts", worst_ibp <= 1e-12, f"max scaled residual {worst_ibp:.2e}"))

    # consistency orders
    orders = dc.consistency_orders()
    ok = all(abs(o - 2.0) <= 0.15 for o in orders.values())
    results.append(("operator consistency order 2.00 +- 0.15", ok,
                    ", ".join(f"{k}: {v:.3f}" for k, v in orders.items())))

    # tree exactness
    worst = 0.0
    for depth in range(1, 11):
        tree = nt.build_tree(depth, 1.0)
        for k in range(depth + 1):
            worst = max(worst, abs(tree.num_nodes(k) * tree.node_probability(k) - 1.0))
        for k in range(1, depth + 1):
            signs = tree.edge_signs(k)
            worst = max(worst, abs(signs.mean()) * tree.increment)
            worst = max(worst, np.abs((signs * tree.increment) ** 2 - tree.dt).max())
        vals = rngs[2].standard_normal(tree.num_nodes(depth))
        mean, _ = nt.martingale_coeff(vals[1::2], vals[0::2], tree.dt)
        worst = max(worst, abs(mean.mean() - vals.mean()) / _scale(vals))
    results.append(("tree exactness (depths 1-10)", worst <= 1e-14, f"max residual {worst:.2e}"))

    # duality
    worst = 0.0
    for _ in range(10):
        N, depth = 6, 4
        mesh = build_mesh(N)
        tree = nt.build_tree(depth, 1.0)
        coeffs = Coefficients.adapted_random(tree, mesh, rngs[3], 0.8, 0.8)
        region = OmegaRegion(mesh, (0.3, 0.7))
        controls = ControlPair(
            u=nt.AdaptedField(tree, mesh, [region.indicator * a for a in
                                           nt.AdaptedField.random(tree, mesh, rngs[3], depth).levels]),
            v=nt.AdaptedField.random(tree, mesh, rngs[3], depth),
            region=region,
        )
        y0 = rngs[3].standard_normal(N)
        zT = rngs[3].standard_normal((tree.num_nodes(depth), N))
        fwd = solve_forward(y0, controls, coeffs, tree, mesh)
        bwd = solve_backward(zT, coeffs, tree, mesh)
        res, scale = duality_residual(fwd, bwd, controls, tree, mesh)
        worst = max(worst, res / scale)
    results.append(("pairing identity (10 random instances)", worst <= 1e-10,
                    f"max rel residual {worst:.2e}"))

    # weights (inverse pair sampled where both factors are representable)
    params = WeightParams(T=1.0, lam=2.0, mu=1.2, delta=0.25, x0=0.5)
    weights = build_weights(params)
    x = np.linspace(0, 1, 33)
    t = np.linspace(0.25, 0.75, 17)
    inv = max(float(np.abs(weights.r(tj, x) * weights.rho(tj, x) - 1.0).max()) for tj in t)
    margins = theta_bound_margins(weights)
    ok = inv <= 1e-14 and margins["symmetry"] <= 1e-14 and all(
        margins[k] >= -1e-12 for k in ("floor", "mid_ceiling", "endpoint_floor"))
    results.append(("weight inverse pair + time-factor bounds", ok,
                    f"inverse residual {inv:.2e}, margins {margins}"))

    return results


# ---------------------------------------------------------------------------
# CSV
# ---------------------------------------------------------------------------

CSV_HEADER = ["h", "delta", "lambda", "mu", "N", "depth", "eps", "obs_C",
              "term_ratio", "cost_ratio", "cg_iters", "closure_err", "skipped", "reason"]


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    value = float(value)
    if math.isnan(value):
        return ""
    return repr(value)


def emit_csv(rows: list[ineq.SweepRow], path: str) -> None:
    """Write sweep rows with full-precision decimals, UTF-8, LF endings."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(CSV_HEADER)
        for row in rows:
            writer.writerow([
                _fmt(row.h), _fmt(row.delta), _fmt(row.lam), _fmt(row.mu),
                _fmt(row.N), _fmt(row.depth), _fmt(row.eps), _fmt(row.obs_C),
                _fmt(row.term_ratio), _fmt(row.cost_ratio), _fmt(row.cg_iters),
                _fmt(row.closure_err), _fmt(row.skipped), row.reason,
            ])


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_identities(cfg: ExperimentConfig, args) -> int:
    results = run_identity_checks(cfg.seed)
    passed = sum(1 for _, ok, _ in results if ok)
    for name, ok, detail in results:
        print(f"{'PASS' if ok else 'FAIL'}  {name}  [{detail}]")
    print(f"{passed}/{len(results)} checks passed")
    return EXIT_OK if passed == len(results) else EXIT_NUMERICAL


def _seeded_setup(cfg: ExperimentConfig):
    """Mesh, tree, window and coefficients of ``cfg``, plus the generator of
    the seed's second stream: y0's for ``hum``, the plain samples' for
    ``observability``."""
    mesh = build_mesh(cfg.N)
    tree = nt.build_tree(cfg.depth, cfg.T)
    region = OmegaRegion(mesh, tuple(cfg.omega))
    seq = np.random.SeedSequence(cfg.seed)
    rng_coeff, rng = [np.random.default_rng(s) for s in seq.spawn(2)]
    return mesh, tree, region, build_coefficients(cfg, tree, mesh, rng_coeff), rng


def _emit_payload(payload: dict, out: str | None) -> None:
    """Print one ``key: value`` line per entry (``section.key`` inside a
    nested section) and write the payload as JSON to ``out`` when given."""
    for key, value in payload.items():
        if isinstance(value, dict):
            for sub_key, item in value.items():
                print(f"{key}.{sub_key}: {item}")
        else:
            print(f"{key}: {value}")
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2)
            fh.write("\n")


def _hum_problem(cfg: ExperimentConfig):
    mesh, tree, region, coeffs, rng_y0 = _seeded_setup(cfg)
    return hum_mod.HumProblem(
        y0=build_y0(cfg, mesh, rng_y0), coeffs=coeffs, region=region, tree=tree, mesh=mesh,
        epsilon=resolve_epsilon(cfg),
        cg_tol=cfg.hum["cg_tol"], cg_maxiter=cfg.hum["cg_maxiter"],
    )


def _cmd_hum(cfg: ExperimentConfig, args) -> int:
    problem = _hum_problem(cfg)
    sol = hum_mod.solve_hum(problem)
    report = hum_mod.report_bounds(sol, problem)
    _emit_payload({
        "N": cfg.N, "depth": cfg.depth, "epsilon": problem.epsilon,
        "cg_iterations": sol.cg_iterations,
        "cg_final_residual": sol.cg_residuals[-1] if sol.cg_residuals else 0.0,
        "closure_error": sol.closure_error,
        "closure_bound": sol.closure_bound,
        "functional_value": sol.functional_value,
        "control_cost": report.control_cost,
        "cost_ratio": report.cost_ratio,
        "terminal_ratio": report.terminal_ratio,
        "terminal_to_penalty_ratio": report.terminal_to_penalty_ratio,
    }, args.out)
    return EXIT_OK


def _cmd_observability(cfg: ExperimentConfig, args) -> int:
    weights = build_weights(scheduled_weights(cfg))
    mesh, tree, region, coeffs, rng_plain = _seeded_setup(cfg)
    rng_scaled = np.random.default_rng(np.random.SeedSequence(cfg.seed).spawn(3)[2])
    obs = cfg.observability
    payload = {}
    for label, rng in (("plain", rng_plain), ("h_scaled", rng_scaled)):
        fit = ineq.observability_sample(
            coeffs, weights, tree, mesh, region, rng,
            obs["train"], obs["holdout"], cfg.weights["c_eps"],
            safety=obs["safety"], terminal_h_scaling=label == "h_scaled")
        payload[label] = {
            "fitted_C": fit.fitted_C, "bound_C": fit.bound_C,
            "holdout_violations": fit.holdout_violations,
            "holdout_max_ratio": fit.holdout_max_ratio,
            "excluded": fit.excluded, "samples": fit.samples,
        }
    _emit_payload(payload, args.out)
    return EXIT_OK if all(p["holdout_violations"] == 0 for p in payload.values()) else EXIT_NUMERICAL


def _cmd_carleman(cfg: ExperimentConfig, args) -> int:
    car = cfg.carleman
    seq = np.random.SeedSequence(cfg.seed)
    payload = {}
    maxima = []
    for label, N in (("base", cfg.N), ("refined", 2 * cfg.N + 1)):
        mesh = build_mesh(N)
        tree = nt.build_tree(car["depth"], cfg.T)
        region = OmegaRegion(mesh, tuple(cfg.omega))
        weights = build_weights(scheduled_weights(cfg, h=mesh.h))
        rng = np.random.default_rng(seq.spawn(1)[0])
        ratios = ineq.carleman_ratio_study(weights, tree, mesh, region, rng,
                                           car["samples"], modes=car["modes"])
        maxima.append(float(ratios.max()))
        payload[label] = {"N": N, "max_ratio": maxima[-1],
                          "median_ratio": float(np.median(ratios)),
                          "finite": bool(np.isfinite(ratios).all())}
    payload["stability_factor"] = max(maxima) / min(maxima)
    _emit_payload(payload, args.out)
    ok = all(p["finite"] for p in (payload["base"], payload["refined"]))
    return EXIT_OK if ok and payload["stability_factor"] <= 5.0 else EXIT_NUMERICAL


def sweep_settings_from_config(cfg: ExperimentConfig) -> ineq.SweepSettings:
    return ineq.SweepSettings(
        h_values=list(cfg.sweep["h_values"]), depth=cfg.depth,
        weights=_weight_family(cfg), c_eps=cfg.weights["c_eps"],
        coeff_factory=lambda tree, mesh, rng: build_coefficients(cfg, tree, mesh, rng),
        y0_factory=lambda mesh: build_y0(cfg, mesh),
        seed=cfg.seed, cg_tol=cfg.hum["cg_tol"], cg_maxiter=cfg.sweep["cg_maxiter"],
        obs_train=cfg.sweep["obs_train"], obs_holdout=cfg.sweep["obs_holdout"],
        obs_safety=cfg.observability["safety"],
    )


def _cmd_sweep(cfg: ExperimentConfig, args) -> int:
    rows = ineq.h_sweep(sweep_settings_from_config(cfg))
    out = args.out or cfg.output
    emit_csv(rows, out)
    for row in rows:
        status = f"skipped ({row.reason})" if row.skipped else (
            f"eps={row.eps:.3e} term_ratio={row.term_ratio:.3e} cost_ratio={row.cost_ratio:.3e}")
        print(f"h={row.h:.6g} N={row.N}: {status}")
    print(f"wrote {out}")
    return EXIT_OK


_COMMANDS = {
    "identities": _cmd_identities,
    "hum": _cmd_hum,
    "observability": _cmd_observability,
    "carleman": _cmd_carleman,
    "sweep": _cmd_sweep,
}


def cli(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="sdcontrol",
        description="Verification harness for tree-based stochastic parabolic control.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", default=None, help="JSON experiment config")
        p.add_argument("--out", default=None, help="output file")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument("--threads", type=int, default=1,
                       help="worker count (results are thread-count independent)")
    args = parser.parse_args(argv)

    try:
        if args.threads < 1:
            raise ConfigurationError(f"--threads must be >= 1, got {args.threads}")
        cfg = load_config(args.config)
        problems = cfg.validate()
        if problems:
            for p in problems:
                print(f"config error: {p}", file=sys.stderr)
            return EXIT_CONFIG
        if args.seed is not None:
            cfg.seed = args.seed
        return _COMMANDS[args.command](cfg, args)
    except ConfigurationError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (SingularSystemError, ConvergenceError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        if isinstance(exc, ConvergenceError) and exc.residuals:
            print(f"residual history tail: {exc.residuals[-5:]}", file=sys.stderr)
        return EXIT_NUMERICAL
    except OSError as exc:
        print(f"i/o failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


def main() -> None:
    sys.exit(cli())


if __name__ == "__main__":
    main()
