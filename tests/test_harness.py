import json
from pathlib import Path

import numpy as np
import pytest

from sdcontrol.errors import ConfigurationError
from sdcontrol.forward_solver import Coefficients
from sdcontrol.harness import (CSV_HEADER, ExperimentConfig, build_coefficients,
                               build_y0, cli, emit_csv, load_config,
                               resolve_epsilon, run_identity_checks)
from sdcontrol.inequalities import SweepRow
from sdcontrol.mesh import build_mesh
from sdcontrol.noise_tree import build_tree


class TestConfig:
    def test_defaults_are_valid(self):
        assert ExperimentConfig().validate() == []

    def test_round_trip_value_identical(self):
        cfg = ExperimentConfig()
        cfg.N = 12
        cfg.weights["lam"] = 3.0
        as_dict = cfg.to_dict()
        again = ExperimentConfig.from_dict(as_dict)
        assert again == cfg
        assert json.loads(json.dumps(as_dict)) == as_dict

    def test_partial_dict_merges_into_defaults(self):
        cfg = ExperimentConfig.from_dict({"N": 4, "weights": {"mu": 1.5}})
        assert cfg.N == 4
        assert cfg.weights["mu"] == 1.5
        assert cfg.weights["lam"] == 2.0

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigurationError):
            ExperimentConfig.from_dict({"meshsize": 4})
        with pytest.raises(ConfigurationError):
            ExperimentConfig.from_dict({"weights": {"lambda_": 2.0}})

    def test_validate_names_violations(self):
        cfg = ExperimentConfig.from_dict({"N": 1, "weights": {"lam": 0.5}})
        problems = cfg.validate()
        assert any("N must be" in p for p in problems)
        assert any("lam" in p for p in problems)

    def test_validate_applies_weight_rules(self):
        cfg = ExperimentConfig.from_dict({"weights": {"x0": 0.35, "delta0": 0.6}})
        problems = cfg.validate()
        assert any("x0=0.35 must lie inside omega0" in p for p in problems)
        assert any("delta must lie in (0, 1/2), got 0.6" in p for p in problems)
        cfg = ExperimentConfig.from_dict({"omega": [-0.1, 0.7]})
        assert cfg.validate() == ["omega must lie in [0, 1], got [-0.1, 0.7]"]

    def test_missing_file_is_config_error(self):
        with pytest.raises(ConfigurationError):
            load_config("/nonexistent/config.json")

    def test_epsilon_resolution(self):
        cfg = ExperimentConfig()
        assert resolve_epsilon(cfg) == pytest.approx(np.exp(-9.0))
        cfg.hum["epsilon"] = 1e-4
        assert resolve_epsilon(cfg) == 1e-4


class TestCoefficientBuilders:
    def test_each_kind(self):
        mesh = build_mesh(6)
        tree = build_tree(3, 1.0)
        rng = np.random.default_rng(0)
        for kind, extra in (("zero", {}), ("constant", {"magnitude": 0.4}),
                            ("sinusoid", {"magnitude": 0.3, "frequency": 2.0}),
                            ("adapted_random", {"magnitude": 0.2})):
            cfg = ExperimentConfig.from_dict(
                {"coefficients": {"a1": {"kind": kind, **extra},
                                  "a2": {"kind": "zero"}}})
            coeffs = build_coefficients(cfg, tree, mesh, rng)
            assert isinstance(coeffs, Coefficients)
            if kind == "zero":
                assert coeffs.sup_norm == 0.0
            if kind == "sinusoid":
                expected = 0.3 * np.sin(2 * np.pi * mesh.interior)
                np.testing.assert_allclose(coeffs.a1_levels[0][0], expected)

    def test_adapted_random_reproducible(self):
        mesh = build_mesh(4)
        tree = build_tree(3, 1.0)
        cfg = ExperimentConfig.from_dict(
            {"coefficients": {"a1": {"kind": "adapted_random", "magnitude": 0.5},
                              "a2": {"kind": "adapted_random", "magnitude": 0.5}}})
        c1 = build_coefficients(cfg, tree, mesh, np.random.default_rng(5))
        c2 = build_coefficients(cfg, tree, mesh, np.random.default_rng(5))
        for a, b in zip(c1.a1_levels, c2.a1_levels):
            np.testing.assert_array_equal(a, b)

    def test_random_a1_draws_come_first(self):
        # a1 random: its levels are the first draws, whatever a2 is
        mesh = build_mesh(4)
        tree = build_tree(3, 1.0)
        both = Coefficients.adapted_random(tree, mesh, np.random.default_rng(5), 0.5, 0.3)
        for a2 in ({"kind": "adapted_random", "magnitude": 0.3}, {"kind": "zero"}):
            cfg = ExperimentConfig.from_dict(
                {"coefficients": {"a1": {"kind": "adapted_random", "magnitude": 0.5},
                                  "a2": a2}})
            built = build_coefficients(cfg, tree, mesh, np.random.default_rng(5))
            for a, b in zip(built.a1_levels, both.a1_levels):
                np.testing.assert_array_equal(a, b)
            if a2["kind"] == "adapted_random":
                for a, b in zip(built.a2_levels, both.a2_levels):
                    np.testing.assert_array_equal(a, b)

    def test_y0_builders(self):
        mesh = build_mesh(5)
        cfg = ExperimentConfig.from_dict({"y0": {"kind": "sine", "coeffs": [1.0, 2.0]}})
        expected = np.sin(np.pi * mesh.interior) + 2.0 * np.sin(2 * np.pi * mesh.interior)
        np.testing.assert_allclose(build_y0(cfg, mesh), expected)
        cfg2 = ExperimentConfig.from_dict({"y0": {"kind": "random"}})
        r1 = build_y0(cfg2, mesh, np.random.default_rng(3))
        r2 = build_y0(cfg2, mesh, np.random.default_rng(3))
        np.testing.assert_array_equal(r1, r2)


class TestCsv:
    def test_empty_rows_header_only(self, tmp_path):
        path = tmp_path / "empty.csv"
        emit_csv([], str(path))
        text = path.read_text(encoding="utf-8")
        assert text == ",".join(CSV_HEADER) + "\n"

    def test_three_rows_four_lines(self, tmp_path):
        rows = [SweepRow(h=1 / (n + 9), N=n, lam=2.0, mu=1.2, delta=0.2, depth=4,
                         eps=1e-5, obs_C=0.5, term_ratio=1e-7, cost_ratio=0.1,
                         cg_iters=12, closure_err=1e-12) for n in (8, 10, 12)]
        path = tmp_path / "rows.csv"
        emit_csv(rows, str(path))
        lines = path.read_text(encoding="utf-8").split("\n")
        assert len(lines) == 5 and lines[-1] == ""

    def test_full_precision_round_trip(self, tmp_path):
        row = SweepRow(h=1 / 12, N=11, lam=2.0, mu=1.2, delta=0.2,
                       depth=4, eps=np.exp(-12.0), obs_C=1.23456789012345e-6,
                       term_ratio=3.3e-9, cost_ratio=0.25, cg_iters=7, closure_err=1e-13)
        path = tmp_path / "precision.csv"
        emit_csv([row], str(path))
        line = path.read_text(encoding="utf-8").split("\n")[1].split(",")
        assert float(line[0]) == 1 / 12
        assert float(line[6]) == np.exp(-12.0)
        assert float(line[7]) == 1.23456789012345e-6

    def test_skipped_row_has_reason_and_empty_metrics(self, tmp_path):
        row = SweepRow(h=0.25, skipped=True, reason="schedule needs h <= h1")
        path = tmp_path / "skip.csv"
        emit_csv([row], str(path))
        line = path.read_text(encoding="utf-8").split("\n")[1]
        assert "true" in line and "schedule needs" in line

    def test_byte_identical_reruns(self, tmp_path):
        rows = [SweepRow(h=0.125, N=7, lam=2.0, mu=1.2, delta=0.25, depth=4,
                         eps=1e-4, obs_C=0.1, term_ratio=1e-6, cost_ratio=0.2,
                         cg_iters=3, closure_err=1e-11)]
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        emit_csv(rows, str(p1))
        emit_csv(rows, str(p2))
        assert p1.read_bytes() == p2.read_bytes()


class TestIdentitySuite:
    def test_all_checks_pass(self):
        results = run_identity_checks()
        failed = [name for name, ok, _ in results if not ok]
        assert failed == []


class TestCli:
    def _write_config(self, tmp_path, **overrides):
        cfg = ExperimentConfig.from_dict(overrides)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg.to_dict()), encoding="utf-8")
        return str(path)

    def test_missing_config_exits_2(self, capsys):
        assert cli(["hum", "--config", "/no/such/file.json"]) == 2
        assert "config error" in capsys.readouterr().err

    def test_invalid_config_exits_2(self, tmp_path, capsys):
        path = self._write_config(tmp_path)
        data = json.loads(Path(path).read_text(encoding="utf-8"))
        data["N"] = 1
        Path(path).write_text(json.dumps(data), encoding="utf-8")
        assert cli(["hum", "--config", path]) == 2
        assert "N must be" in capsys.readouterr().err

    @pytest.mark.parametrize("section, value, name", [
        ("carleman", {"depth": 0}, "carleman.depth"),
        ("carleman", {"depth": 17}, "carleman.depth"),
        ("sweep", {"cg_maxiter": 0}, "sweep.cg_maxiter"),
        ("sweep", {"obs_train": 0}, "sweep.obs_train"),
        ("sweep", {"obs_holdout": 0}, "sweep.obs_train and .obs_holdout"),
        ("observability", {"safety": 0.0}, "observability.safety"),
        ("observability", {"safety": -1.0}, "observability.safety"),
    ])
    def test_out_of_range_field_exits_2_naming_it(self, tmp_path, capsys, section, value, name):
        path = self._write_config(tmp_path, **{section: value})
        assert cli([section, "--config", path]) == 2
        assert f"config error: {name}" in capsys.readouterr().err

    def test_bad_threads_exits_2(self):
        assert cli(["identities", "--threads", "0"]) == 2

    def test_hum_subcommand(self, tmp_path, capsys):
        path = self._write_config(tmp_path, N=4, depth=3,
                                  hum={"cg_tol": 1e-10, "cg_maxiter": 200, "epsilon": 1e-3})
        out = tmp_path / "report.json"
        assert cli(["hum", "--config", path, "--out", str(out)]) == 0
        captured = capsys.readouterr().out
        assert "closure_error" in captured and "cost_ratio" in captured
        payload = json.loads(out.read_text())
        assert payload["closure_error"] <= max(payload["closure_bound"], 1e-12)

    def test_sweep_subcommand_deterministic_across_threads(self, tmp_path):
        path = self._write_config(
            tmp_path, depth=3,
            sweep={"h_values": [1 / 8, 1 / 10], "obs_train": 4, "obs_holdout": 4,
                   "cg_maxiter": 3000})
        out1, out2 = tmp_path / "one.csv", tmp_path / "four.csv"
        assert cli(["sweep", "--config", path, "--out", str(out1), "--threads", "1"]) == 0
        assert cli(["sweep", "--config", path, "--out", str(out2), "--threads", "4"]) == 0
        b1, b2 = out1.read_bytes(), out2.read_bytes()
        assert b1 == b2
        assert b1.decode("utf-8").splitlines()[0] == ",".join(CSV_HEADER)

    def test_observability_subcommand(self, tmp_path, capsys):
        path = self._write_config(tmp_path, N=8, depth=6,
                                  observability={"train": 40, "holdout": 40, "safety": 2.0})
        assert cli(["observability", "--config", path]) == 0
        assert "fitted_C" in capsys.readouterr().out

    def test_carleman_subcommand(self, tmp_path, capsys):
        path = self._write_config(tmp_path, N=8,
                                  carleman={"samples": 5, "depth": 4, "modes": 2})
        assert cli(["carleman", "--config", path]) == 0
        assert "stability_factor" in capsys.readouterr().out

    def test_identities_subcommand(self, capsys):
        assert cli(["identities"]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out and "FAIL" not in out

    def test_too_coarse_mesh_for_schedule_exits_2(self, tmp_path, capsys):
        path = self._write_config(tmp_path, N=4)
        assert cli(["observability", "--config", path]) == 2
        assert "schedule" in capsys.readouterr().err

    def test_unwritable_output_exits_3(self, tmp_path):
        path = self._write_config(tmp_path, depth=3,
                                  sweep={"h_values": [1 / 8], "obs_train": 2,
                                         "obs_holdout": 2, "cg_maxiter": 2000})
        assert cli(["sweep", "--config", path, "--out", "/no/such/dir/out.csv"]) == 3


class TestConfigHardening:
    def test_malformed_interval_is_named_violation(self):
        cfg = ExperimentConfig.from_dict({"omega": [0.2, 0.5, 0.9]})
        problems = cfg.validate()
        assert any("two-element" in p for p in problems)

    def test_mixed_adapted_and_deterministic_coefficients(self):
        mesh = build_mesh(5)
        tree = build_tree(3, 1.0)
        cfg = ExperimentConfig.from_dict(
            {"coefficients": {"a1": {"kind": "adapted_random", "magnitude": 0.4},
                              "a2": {"kind": "sinusoid", "magnitude": 0.3,
                                     "frequency": 1.0}}})
        coeffs = build_coefficients(cfg, tree, mesh, np.random.default_rng(2))
        assert coeffs.a1_levels[2].shape == (4, mesh.N)      # nodewise
        assert coeffs.a2_levels[2].shape == (1, mesh.N)      # deterministic
        np.testing.assert_allclose(coeffs.a2_levels[0][0],
                                   0.3 * np.sin(np.pi * mesh.interior))
        assert np.abs(coeffs.a1_levels[2]).max() <= 0.4
