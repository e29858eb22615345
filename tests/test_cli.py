"""Command-line interface: config plumbing, subcommands, exit codes."""

import copy
import json
import math

import pytest

import gridsense.cli as cli
from gridsense.cli import (
    ConfigError,
    DEFAULT_CONFIG,
    build_params,
    load_config,
    main,
    validate_config,
)


def write_config(tmp_path, overrides):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(overrides))
    return str(path)


FAST = ["--steps", "2", "--n-mc", "10000"]


class TestConfigLoading:
    def test_defaults_deep_copied(self):
        cfg = load_config(None)
        cfg["noise"]["eta"] = 0.1
        assert DEFAULT_CONFIG["noise"]["eta"] == 0.9

    def test_file_overrides_nested_key(self, tmp_path):
        path = write_config(tmp_path, {"noise": {"eta": 0.8}})
        cfg = load_config(path)
        assert cfg["noise"]["eta"] == 0.8
        assert cfg["noise"]["gamma"] == 0.05  # sibling untouched

    def test_unknown_key_reports_dotted_path(self, tmp_path):
        path = write_config(tmp_path, {"train": {"nope": 1}})
        with pytest.raises(ConfigError, match="train.nope"):
            load_config(path)

    def test_non_object_root_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("[1, 2]")
        with pytest.raises(ConfigError, match="root must be an object"):
            load_config(str(path))

    def test_parse_error_carries_position(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"noise": }')
        with pytest.raises(ConfigError, match="line 1"):
            load_config(str(path))

    def test_missing_file_rejected(self):
        with pytest.raises(ConfigError, match="cannot read"):
            load_config("/no/such/config.json")


class TestValidateConfig:
    def check_rejects(self, mutate, match):
        cfg = copy.deepcopy(DEFAULT_CONFIG)
        mutate(cfg)
        with pytest.raises(ConfigError, match=match):
            validate_config(cfg)

    def test_range_guards(self):
        self.check_rejects(lambda c: c["noise"].update(eta=1.5), "noise.eta")
        self.check_rejects(lambda c: c["noise"].update(gamma=0.6),
                           "noise.gamma")
        self.check_rejects(lambda c: c["lattice"].update(r=2.5), "lattice.r")
        self.check_rejects(lambda c: c["state"].update(epsilon=0.001),
                           "state.epsilon")
        self.check_rejects(lambda c: c["state"].update(bloch_theta=4.0),
                           "bloch_theta")
        self.check_rejects(lambda c: c["train"].update(steps=0),
                           "train.steps")
        self.check_rejects(lambda c: c["train"].update(freeze=["woof"]),
                           "freeze")
        self.check_rejects(lambda c: c.update(cutoff=9), "cutoff")
        self.check_rejects(lambda c: c.update(n_mc=5), "n_mc")

    def test_range_endpoints(self):
        # epsilon's range is open, r's and bloch_theta's are closed
        for eps in (0.005, 0.5):
            self.check_rejects(lambda c: c["state"].update(epsilon=eps),
                               "state.epsilon")
        for r in (0.5, 2.0):
            cfg = copy.deepcopy(DEFAULT_CONFIG)
            cfg["lattice"]["r"] = r
            validate_config(cfg)
        for bt in (0.0, math.pi):
            cfg = copy.deepcopy(DEFAULT_CONFIG)
            cfg["state"]["bloch_theta"] = bt
            validate_config(cfg)

    def test_bool_is_not_a_number(self):
        self.check_rejects(lambda c: c["noise"].update(eta=True),
                           "must be a number")

    def test_nonfinite_rejected(self):
        self.check_rejects(lambda c: c["noise"].update(gamma=math.nan),
                           "finite")

    def test_default_config_validates(self):
        validate_config(copy.deepcopy(DEFAULT_CONFIG))


class TestBuildParams:
    def test_explicit_angle_overrides_charge(self):
        cfg = copy.deepcopy(DEFAULT_CONFIG)
        cfg["lattice"]["theta_deg"] = 90.0
        params = build_params(cfg)
        assert abs(params.theta - math.pi / 2) < 1e-15
        assert params.ell == 2.0  # converted through ell_max = 4

    def test_charge_used_when_no_angle(self):
        cfg = copy.deepcopy(DEFAULT_CONFIG)
        cfg["lattice"]["ell"] = 1.5
        params = build_params(cfg)
        assert abs(math.degrees(params.theta) - 67.5) < 1e-12


class TestExitCodes:
    def test_config_error_is_2(self, tmp_path, capsys):
        code = main(["single", "--eta", "1.5", "-o", str(tmp_path)])
        assert code == 2
        assert "config error" in capsys.readouterr().err

    def test_no_root_is_4_with_status_file(self, tmp_path, capsys):
        # weak dephasing: the balance equation keeps one sign, there is no
        # interior optimum, and the tool must say so rather than invent one
        code = main(["theta_star", "--gamma", "0.005", "-o", str(tmp_path)])
        assert code == 4
        payload = json.loads((tmp_path / "theta_star.json").read_text())
        assert payload["status"] == "no_root"
        assert payload["gamma"] == 0.005

    def test_numeric_failure_is_3(self, tmp_path, monkeypatch, capsys):
        from gridsense.optimize import TrainDiverged

        def boom(cfg, init):
            raise TrainDiverged("synthetic blow-up", trace=[])

        monkeypatch.setattr(cli, "train", boom)
        code = main(["single", "-o", str(tmp_path), *FAST])
        assert code == 3
        assert "numeric failure" in capsys.readouterr().err

    def test_freezing_psi_is_a_config_error(self, tmp_path, capsys):
        code = main(["single", "--freeze", "psi", "-o", str(tmp_path), *FAST])
        assert code == 2
        assert "'psi'" in capsys.readouterr().err

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert "gridsense" in capsys.readouterr().out

    def test_missing_subcommand_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main([])


class TestSingle:
    def test_writes_report_and_trace(self, tmp_path, capsys):
        code = main(["single", "-o", str(tmp_path), *FAST])
        assert code == 0
        report = json.loads((tmp_path / "report.json").read_text())
        trace_lines = (tmp_path / "trace.csv").read_text().splitlines()
        assert trace_lines[0] == "step,loss,qfi,p_err,grad_norm,lr"
        assert len(trace_lines) == 3  # header + 2 steps
        m = report["metrics"]
        for key in ("qfi", "p_err_analytic", "p_err_mc", "p_err_mc_stderr",
                    "eta_meas", "capacity"):
            assert key in m
        assert m["qfi"] > 0
        assert report["config"]["train"]["steps"] == 2
        assert report["adam"]["beta1"] == 0.9
        out = capsys.readouterr().out
        assert "qfi=" in out and "report.json" in out

    def test_replay_reproduces_bit_for_bit(self, tmp_path):
        out1 = tmp_path / "a"
        out2 = tmp_path / "b"
        assert main(["single", "-o", str(out1), *FAST,
                     "--seed", "7"]) == 0
        assert main(["single", "-o", str(out2), "--replay",
                     str(out1 / "report.json")]) == 0
        assert (out1 / "report.json").read_bytes() == \
            (out2 / "report.json").read_bytes()
        assert (out1 / "trace.csv").read_bytes() == \
            (out2 / "trace.csv").read_bytes()

    def test_replay_rejects_foreign_json(self, tmp_path):
        bad = tmp_path / "not_a_report.json"
        bad.write_text('{"metrics": {}}')
        code = main(["single", "-o", str(tmp_path), "--replay", str(bad)])
        assert code == 2


class TestThetaStar:
    def test_benchmark_point(self, tmp_path):
        code = main(["theta_star", "-o", str(tmp_path)])
        assert code == 0
        payload = json.loads((tmp_path / "theta_star.json").read_text())
        assert payload["status"] == "ok"
        assert abs(payload["theta_star_deg"] - 64.389) < 0.01
        assert payload["theta_fit_deg"] == pytest.approx(68.42)
        assert payload["dtheta_deta_deg"] < 0
        assert payload["dtheta_dgamma_deg"] < 0
        lo, hi = payload["bracket_deg"]
        assert lo < payload["theta_star_deg"] < hi

    @pytest.mark.parametrize("eta", ["1", "0.99995"])
    def test_lossless_edge(self, tmp_path, eta):
        # a central step in eta would build eta > 1; the difference there
        # is one-sided instead
        code = main(["theta_star", "--eta", eta, "--gamma", "0.05",
                     "-o", str(tmp_path)])
        assert code == 0
        payload = json.loads((tmp_path / "theta_star.json").read_text())
        assert math.isfinite(payload["dtheta_deta_deg"])
        assert math.isfinite(payload["dtheta_dgamma_deg"])

    def test_neighbour_without_a_root(self, tmp_path):
        # gamma - 1e-4 has no root here; the gamma difference is one-sided
        code = main(["theta_star", "--gamma", "0.02631906943556492",
                     "-o", str(tmp_path)])
        assert code == 0
        payload = json.loads((tmp_path / "theta_star.json").read_text())
        assert payload["status"] == "ok"
        assert math.isfinite(payload["dtheta_deta_deg"])
        assert math.isfinite(payload["dtheta_dgamma_deg"])

    def test_noiseless_has_no_root(self, tmp_path):
        # zero spread: B is undefined everywhere, so there is no optimum
        code = main(["theta_star", "--eta", "1", "--gamma", "0",
                     "-o", str(tmp_path)])
        assert code == 4
        payload = json.loads((tmp_path / "theta_star.json").read_text())
        assert payload["status"] == "no_root"


class TestPhaseDiagram:
    def test_small_grid(self, tmp_path, capsys):
        code = main(["phase_diagram", "--n", "3",
                     "--eta-range", "0.85", "0.95",
                     "--gamma-range", "0.01", "0.15", "-o", str(tmp_path)])
        assert code == 0
        lines = (tmp_path / "phase_diagram.csv").read_text().splitlines()
        assert lines[0] == ("eta,gamma,theta_star_deg,p_err_at_star,"
                            "p_err_square,improvement")
        assert len(lines) == 10  # header + 3x3 cells
        # gamma = 0.01 cells have no root: empty theta cell, square value set
        no_root = [l for l in lines[1:] if ",,," in l]
        assert no_root, "expected at least one no-root cell on this grid"
        out = capsys.readouterr().out
        assert "9 cells" in out

    def test_flat_balance_warns_once_per_run(self, tmp_path):
        # r = 1 and gamma = 0: B == 0 at every angle in every cell
        with pytest.warns(UserWarning, match="4 of 4 cells") as rec:
            code = main(["phase_diagram", "--r", "1", "--gamma-range", "0",
                         "0", "--n", "2", "-o", str(tmp_path)])
        assert code == 0
        assert len(rec) == 1
        lines = (tmp_path / "phase_diagram.csv").read_text().splitlines()
        assert len(lines) == 5  # header + 2x2 cells
        assert all(",,," not in line for line in lines[1:])

    def test_bad_range_rejected(self, tmp_path):
        code = main(["phase_diagram", "--eta-range", "0.9", "0.8",
                     "-o", str(tmp_path)])
        assert code == 2


class TestSweepCommands:
    def test_fractional(self, tmp_path, capsys):
        code = main(["fractional", "--ells", "0,2", "-o", str(tmp_path),
                     *FAST])
        assert code == 0
        lines = (tmp_path / "fractional.csv").read_text().splitlines()
        assert lines[0] == "ell,theta_deg,qfi,p_err,improvement,capacity"
        assert len(lines) == 3
        row0 = lines[1].split(",")
        row2 = lines[2].split(",")
        assert float(row2[3]) < float(row0[3])  # twisting helps
        assert "argmin" in capsys.readouterr().out

    def test_pareto(self, tmp_path):
        # the default freeze set holds ell and r, so lambda is inert
        with pytest.warns(UserWarning, match="lambda cannot move"):
            code = main(["pareto", "--lambdas", "1,100", "-o", str(tmp_path),
                         *FAST])
        assert code == 0
        lines = (tmp_path / "pareto.csv").read_text().splitlines()
        assert lines[0] == "lambda,qfi,p_err"
        assert len(lines) == 3

    def test_pareto_rejects_negative_lambda(self, tmp_path):
        code = main(["pareto", "--lambdas", "-1", "-o", str(tmp_path)])
        assert code == 2


class TestTolerance:
    def test_defaults_center_on_analytic_optimum(self, tmp_path, capsys):
        code = main(["tolerance", "--deltas-deg", "0,3", "-o",
                     str(tmp_path)])
        assert code == 0
        lines = (tmp_path / "tolerance.csv").read_text().splitlines()
        assert lines[0] == "delta_deg,theta_deg,p_err,improvement,retained"
        base_theta = float(lines[1].split(",")[1])
        assert abs(base_theta - 64.389) < 0.01
        assert "base theta_deg=64.389" in capsys.readouterr().out

    def test_explicit_angle_takes_precedence(self, tmp_path):
        code = main(["tolerance", "--deltas-deg", "0", "--theta-deg",
                     "67.5", "-o", str(tmp_path)])
        assert code == 0
        lines = (tmp_path / "tolerance.csv").read_text().splitlines()
        assert float(lines[1].split(",")[1]) == 67.5

    def test_no_root_default_center_exits_4(self, tmp_path):
        code = main(["tolerance", "--gamma", "0.005", "-o", str(tmp_path)])
        assert code == 4


class TestWigner:
    def test_grid_export(self, tmp_path, capsys):
        code = main(["wigner", "--n-points", "41", "--ell", "1.5",
                     "--bloch-theta", "0", "-o", str(tmp_path)])
        assert code == 0
        meta = json.loads((tmp_path / "wigner.json").read_text())
        assert meta["n_points"] == 41
        assert meta["theta_deg"] == pytest.approx(67.5)
        assert 0.9 < meta["integral"] < 1.01
        assert meta["min_w"] < 0.0  # grid state stays nonclassical here
        assert meta["negativity"] > 0.0
        lines = (tmp_path / "wigner.csv").read_text().splitlines()
        assert lines[0] == "q,p,W"
        assert len(lines) == 1 + 41 * 41

    def test_too_coarse_rejected(self, tmp_path):
        code = main(["wigner", "--n-points", "8", "-o", str(tmp_path)])
        assert code == 2

    def test_grid_size_checked_before_state_is_built(self, tmp_path,
                                                     monkeypatch):
        monkeypatch.setattr(cli, "sensor_state", None)
        code = main(["wigner", "--n-points", "8", "-o", str(tmp_path)])
        assert code == 2

    @pytest.mark.parametrize("window", [
        ["--q-range", "6", "-6"], ["--q-range", "1", "1"],
        ["--p-range", "-6", "-7"], ["--p-range", "-6", "inf"],
        ["--q-range", "nan", "6"]])
    def test_inverted_empty_or_nonfinite_window_rejected(self, tmp_path,
                                                         monkeypatch, window):
        # checked before the state is built; no file is written
        monkeypatch.setattr(cli, "sensor_state", None)
        code = main(["wigner", *window, "--n-points", "32",
                     "-o", str(tmp_path)])
        assert code == 2
        assert list(tmp_path.iterdir()) == []

    def test_csv_rows_are_q_major_with_p_fastest(self, tmp_path):
        n = 33
        code = main(["wigner", "--q-range", "-5", "3.5", "--p-range", "-2",
                     "6", "--n-points", str(n), "-o", str(tmp_path)])
        assert code == 0
        cfg = load_config(None)
        rho = cli.sensor_state(
            build_params(cfg).sensor_spec(cfg["cutoff"]), cli.build_noise(cfg))
        grid = cli.wigner_grid(rho, q_range=(-5.0, 3.5), p_range=(-2.0, 6.0),
                               n_points=n)
        lines = (tmp_path / "wigner.csv").read_text().splitlines()
        assert len(lines) == 1 + n * n
        for i, line in enumerate(lines[1:]):
            row = tuple(float(cell) for cell in line.split(","))
            assert row == (grid.q_axis[i // n], grid.p_axis[i % n],
                           grid.values[i % n, i // n])
