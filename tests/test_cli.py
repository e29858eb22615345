"""Command-line interface: config plumbing, subcommands, exit codes."""

import copy
import json
import math
import warnings

import pytest

import gridsense.cli as cli
from gridsense import SensorSpec
from gridsense.optimize import BOUNDS, TrainConfig, TrainableParams
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

SUBCOMMANDS = ("single", "theta_star", "phase_diagram", "fractional",
               "pareto", "tolerance", "wigner")

# Every config leaf: its flag, a valid value other than the default as typed
# on the command line, and the value that reaches the config.
LEAF_FLAGS = {
    "noise.eta": ("--eta", "0.8", 0.8),
    "noise.gamma": ("--gamma", "0.1", 0.1),
    "lattice.ell": ("--ell", "1.5", 1.5),
    "lattice.ell_max": ("--ell-max", "6", 6),
    "lattice.r": ("--r", "1.2", 1.2),
    "lattice.theta_deg": ("--theta-deg", "45", 45.0),
    "state.epsilon": ("--epsilon", "0.1", 0.1),
    "state.bloch_theta": ("--bloch-theta", "1", 1.0),
    "state.bloch_phi": ("--bloch-phi", "-2", -2.0),
    "train.steps": ("--steps", "7", 7),
    "train.lr_init": ("--lr-init", "0.01", 0.01),
    "train.lr_final": ("--lr-final", "0", 0.0),
    "train.clip_norm": ("--clip-norm", "2.5", 2.5),
    "train.lambda": ("--lambda", "3", 3.0),
    "train.p_th": ("--p-th", "1e-4", 1e-4),
    "train.seed": ("--seed", "11", 11),
    "train.freeze": ("--freeze", "ell,r", ["ell", "r"]),
    "cutoff": ("--cutoff", "40", 40),
    "n_mc": ("--n-mc", "20000", 20000),
}

# The leaves each subcommand reads, and so has a flag for; `--config` sets
# the others, and they cannot move the subcommand's outputs.
NOISE = {"noise.eta", "noise.gamma"}
LATTICE = {"lattice.ell", "lattice.ell_max", "lattice.r", "lattice.theta_deg"}
STATE = {"state.epsilon", "state.bloch_theta", "state.bloch_phi"}
TRAIN = {"train.steps", "train.lr_init", "train.lr_final", "train.clip_norm",
         "train.freeze"}
READS = {
    "single": set(LEAF_FLAGS),
    "theta_star": NOISE | {"lattice.r"},
    "phase_diagram": {"lattice.r"},
    "fractional": NOISE | {"lattice.ell_max", "lattice.r"} | STATE | TRAIN
    | {"cutoff"},
    "pareto": NOISE | LATTICE | STATE | TRAIN | {"train.p_th", "cutoff"},
    "tolerance": NOISE | LATTICE,
    "wigner": NOISE | LATTICE | STATE | {"cutoff"},
}
READ_PAIRS = [(c, p) for c in SUBCOMMANDS for p in sorted(READS[c])]
DROPPED_PAIRS = [(c, p) for c in SUBCOMMANDS
                 for p in sorted(set(LEAF_FLAGS) - READS[c])]

# A small default run of each subcommand.
SMALL = {
    "single": ["--steps", "2", "--n-mc", "10000"],
    "theta_star": [],
    "phase_diagram": ["--n", "2"],
    "fractional": ["--steps", "2"],
    "pareto": ["--steps", "2"],
    "tolerance": [],
    "wigner": ["--n-points", "32"],
}

# (command, leaf) -> the arguments both runs add, and the value that moves
# an output where the LEAF_FLAGS one does not: ell_max matters at ell != 0,
# theta_star and tolerance need a noise point with a root, lambda and p_th
# need a free r and an active hinge, and the sweeps report the last step's
# state, which lr_final reaches only at the third step.
MOVERS = {
    ("single", "lattice.ell_max"): (["--ell", "1"], None),
    ("single", "train.clip_norm"): ([], "1e-3"),
    ("single", "train.lambda"): (["--freeze", "ell,epsilon", "--p-th",
                                  "1e-6"], None),
    ("theta_star", "noise.eta"): ([], "0.95"),
    ("theta_star", "lattice.r"): ([], "1.05"),
    ("fractional", "train.lr_final"): (["--steps", "3"], None),
    ("fractional", "train.clip_norm"): ([], "1e-3"),
    ("pareto", "lattice.ell_max"): (["--ell", "1"], None),
    ("pareto", "train.lr_final"): (["--steps", "3"], None),
    ("pareto", "train.clip_norm"): ([], "1e-3"),
    ("pareto", "train.p_th"): (["--freeze", "ell,epsilon"], "1e-5"),
    ("tolerance", "noise.eta"): ([], "0.95"),
    ("tolerance", "lattice.r"): ([], "1.05"),
    ("tolerance", "lattice.ell_max"): (["--ell", "1"], None),
    ("wigner", "lattice.ell_max"): (["--ell", "1"], None),
}

# The ranged leaves: (lo, lo included, hi, hi included), None: unbounded.
RANGES = {
    "noise.eta": (0.0, False, 1.0, True),
    "noise.gamma": (0.0, True, 0.5, True),
    "lattice.ell_max": (1, True, None, None),
    "lattice.r": (BOUNDS["r"][0], True, BOUNDS["r"][1], True),
    "state.epsilon": (BOUNDS["epsilon"][0], True, BOUNDS["epsilon"][1], True),
    "state.bloch_theta": (0.0, True, math.pi, True),
    "train.steps": (1, True, None, None),
    "train.lr_init": (0.0, False, None, None),
    "train.lr_final": (0.0, True, None, None),
    "train.clip_norm": (0.0, False, None, None),
    "train.lambda": (0.0, True, None, None),
    "train.p_th": (0.0, True, None, None),
    "train.seed": (0, True, None, None),
    "cutoff": (10, True, None, None),
    "n_mc": (10_000, True, None, None),
}


def leaf_paths(cfg, prefix=""):
    for key, value in cfg.items():
        if isinstance(value, dict):
            yield from leaf_paths(value, f"{prefix}{key}.")
        else:
            yield prefix + key


def set_leaf(cfg, path, value):
    *sections, key = path.split(".")
    for section in sections:
        cfg = cfg[section]
    cfg[key] = value


class TestConfigLoading:
    def test_default_config_text(self):
        # report.json echoes this, and --replay and the bench checks read it
        assert json.dumps(DEFAULT_CONFIG) == (
            '{"noise": {"eta": 0.9, "gamma": 0.05}, "lattice": {"ell": 0.0, '
            '"ell_max": 4, "r": 1.092, "theta_deg": null}, "state": '
            '{"epsilon": 0.063, "bloch_theta": 1.5707963267948966, '
            '"bloch_phi": 1.5707963267948966}, "train": {"steps": 500, '
            '"lr_init": 0.005, "lr_final": 1e-05, "clip_norm": 1.0, '
            '"lambda": 100.0, "p_th": 0.001, "seed": 0, "freeze": ["ell", '
            '"r", "epsilon"]}, "cutoff": 30, "n_mc": 1000000}')

    def test_every_leaf_has_a_flag(self):
        assert sorted(leaf_paths(DEFAULT_CONFIG)) == sorted(LEAF_FLAGS)

    @pytest.mark.parametrize("path", sorted(LEAF_FLAGS))
    def test_flag_round_trips(self, path):
        flag, text, value = LEAF_FLAGS[path]
        args = cli.build_parser().parse_args(["single", flag, text])
        cfg = cli.resolve_config(args)
        expected = copy.deepcopy(DEFAULT_CONFIG)
        set_leaf(expected, path, value)
        assert cfg == expected
        assert json.dumps(cfg) == json.dumps(expected)  # same types too

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

    def test_huge_integer_literal_is_a_config_error(self, tmp_path, capsys):
        # json.load raises a plain ValueError past 4300 digits
        huge = "1" * 5001
        path = tmp_path / "huge.json"
        path.write_text('{"lattice": {"ell": %s}}' % huge)
        with pytest.raises(ConfigError, match="parse error"):
            load_config(str(path))
        report = tmp_path / "report.json"
        report.write_text('{"config": {"lattice": {"ell": %s}}}' % huge)
        code = main(["single", "--replay", str(report), "-o", str(tmp_path)])
        assert code == 2
        assert "parse error" in capsys.readouterr().err


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

    def check_accepts(self, path, value):
        cfg = copy.deepcopy(DEFAULT_CONFIG)
        set_leaf(cfg, path, value)
        validate_config(cfg)

    @pytest.mark.parametrize("path", sorted(RANGES))
    def test_every_range_end(self, path):
        lo, lo_in, hi, hi_in = RANGES[path]
        ends = [(lo, lo_in, -math.inf)]
        if hi is not None:
            ends.append((hi, hi_in, math.inf))
        for end, included, outward in ends:
            if isinstance(end, int):
                outside, inside = end + int(math.copysign(1, outward)), end
            else:
                outside = end if not included else math.nextafter(end, outward)
                inside = end if included else math.nextafter(end, -outward)
            self.check_rejects(lambda c: set_leaf(c, path, outside), path)
            self.check_accepts(path, inside)

    @pytest.mark.parametrize("path", ["lattice.ell", "lattice.theta_deg",
                                      "state.bloch_phi"])
    def test_unranged_numbers_take_any_finite_value(self, path):
        for value in (-1e300, 1e300):
            self.check_accepts(path, value)
        self.check_rejects(lambda c: set_leaf(c, path, math.inf), path)

    def test_integer_leaves_reject_floats(self):
        for path, (lo, *_) in RANGES.items():
            if isinstance(lo, int):
                self.check_rejects(lambda c: set_leaf(c, path, float(lo)),
                                   path)

    def test_bool_is_not_a_number(self):
        self.check_rejects(lambda c: c["noise"].update(eta=True),
                           "must be a number")

    def test_bool_is_not_an_integer(self, tmp_path):
        for path, (lo, *_) in RANGES.items():
            if isinstance(lo, int):
                for value in (True, False):
                    self.check_rejects(lambda c: set_leaf(c, path, value),
                                       f"{path} must be an integer")
        config = write_config(tmp_path, {"train": {"steps": True,
                                                   "seed": False}})
        assert main(["single", "--config", config, "-o", str(tmp_path)]) == 2
        assert not (tmp_path / "report.json").exists()

    def test_nonfinite_rejected(self):
        self.check_rejects(lambda c: c["noise"].update(gamma=math.nan),
                           "finite")
        # an integer past the float range is no number the library can use
        self.check_rejects(lambda c: c["lattice"].update(ell=10**400),
                           "lattice.ell must be finite")

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

    def test_library_defaults_are_the_cli_defaults(self):
        # the benchmark's Wigner check builds its spec from the library's
        # defaults, as here, and trusts them to be the CLI's
        state = DEFAULT_CONFIG["state"]
        bloch = dict(bloch_theta=state["bloch_theta"],
                     bloch_phi=state["bloch_phi"])
        spec = SensorSpec(theta=0.0, r=1.092, **bloch)
        assert spec == build_params(DEFAULT_CONFIG).sensor_spec(
            DEFAULT_CONFIG["cutoff"])
        assert build_params(DEFAULT_CONFIG) == TrainableParams(**bloch)
        noise = cli.build_noise(DEFAULT_CONFIG)
        assert cli.build_train_config(DEFAULT_CONFIG) == TrainConfig(noise)


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

    @pytest.mark.parametrize("command", SUBCOMMANDS)
    def test_help_lists_every_flag_with_its_domain(self, command, capsys):
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"])
        assert exc.value.code == 0
        tokens = capsys.readouterr().out.split()
        assert {path for path, (flag, _, _) in LEAF_FLAGS.items()
                if flag in tokens} == READS[command]
        text = " ".join(tokens)
        for path in READS[command]:
            assert cli._domain_text(cli._LEAF[path].domain) in text


class TestFlagSets:
    """Each subcommand has a flag for each leaf it reads, and each of those
    leaves can move an output; every other leaf cannot, and has no flag."""

    @staticmethod
    def outputs(tmp_path, argv) -> dict:
        """The bytes of each file a run of `argv` writes, without the config
        echo in single's report.json."""
        out = tmp_path / str(len(list(tmp_path.iterdir())))
        with warnings.catch_warnings():
            # e.g. pareto's note that lambda cannot move its rows
            warnings.simplefilter("ignore", UserWarning)
            assert main([*argv, "-o", str(out)]) == 0
        files = {path.name: path.read_bytes() for path in out.iterdir()}
        if "report.json" in files:
            report = json.loads(files["report.json"])
            del report["config"]
            files["report.json"] = json.dumps(report).encode()
        return files

    @pytest.mark.parametrize("command,path", DROPPED_PAIRS)
    def test_dropped_leaf_is_inert(self, command, path, tmp_path):
        config = copy.deepcopy(DEFAULT_CONFIG)
        set_leaf(config, path, LEAF_FLAGS[path][2])
        (tmp_path / "config").mkdir()
        config_path = write_config(tmp_path / "config", config)
        base = [command, *SMALL[command]]
        assert (self.outputs(tmp_path, base)
                == self.outputs(tmp_path, [*base, "--config", config_path]))

    @pytest.mark.parametrize("command,path", DROPPED_PAIRS)
    def test_dropped_flag_exits_2(self, command, path, capsys):
        flag, text, _ = LEAF_FLAGS[path]
        with pytest.raises(SystemExit) as exc:
            main([command, flag, text])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize("command,path", READ_PAIRS)
    def test_read_leaf_moves_an_output(self, command, path, tmp_path):
        flag, text, _ = LEAF_FLAGS[path]
        extra, value = MOVERS.get((command, path), ([], None))
        base = [command, *SMALL[command], *extra]
        assert (self.outputs(tmp_path, base)
                != self.outputs(tmp_path, [*base, flag, value or text]))


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

    @pytest.mark.parametrize("noise", [["--eta", "1", "--gamma", "0"],
                                       ["--eta", "0.9999", "--gamma", "0.0001"]])
    def test_zero_error_rate_reports_an_undefined_capacity(self, tmp_path,
                                                           noise):
        # P_err underflows to 0 here, and −ln P_err has no finite value
        code = main(["single", "-o", str(tmp_path), *FAST, *noise])
        assert code == 0
        metrics = json.loads((tmp_path / "report.json").read_text())["metrics"]
        assert metrics["p_err_analytic"] == 0.0
        assert math.isnan(metrics["capacity"])
        assert '"capacity": NaN' in (tmp_path / "report.json").read_text()

    def test_names_a_coordinate_its_gradient_cannot_move(self, tmp_path,
                                                         capsys):
        # r frozen and ℓ = 0: ∂P_err/∂θ ∝ sin 2θ is exactly 0, so the
        # active hinge cannot turn the lattice and ℓ never moves
        run = ["single", *FAST, "--p-th", "1e-5"]
        assert main([*run, "--freeze", "r,epsilon",
                     "-o", str(tmp_path / "free")]) == 0
        assert capsys.readouterr().err == (
            "warning: training cannot move ell: the gradient was exactly 0 "
            "at all 2 steps\n")
        # the run is the one with ℓ frozen, and says so nowhere else
        assert main([*run, "--freeze", "ell,r,epsilon",
                     "-o", str(tmp_path / "frozen")]) == 0
        assert capsys.readouterr().err == ""
        free, frozen = (json.loads((tmp_path / name / "report.json")
                                   .read_text()) for name in ("free", "frozen"))
        assert free["metrics"] == frozen["metrics"]
        assert free["lattice"] == frozen["lattice"]
        assert ((tmp_path / "free" / "trace.csv").read_bytes()
                == (tmp_path / "frozen" / "trace.csv").read_bytes())

    def test_default_run_does_not_warn(self, tmp_path, capsys):
        assert main(["single", *FAST, "-o", str(tmp_path)]) == 0
        assert capsys.readouterr().err == ""

    def test_replay_rejects_foreign_json(self, tmp_path):
        bad = tmp_path / "not_a_report.json"
        bad.write_text('{"metrics": {}}')
        code = main(["single", "-o", str(tmp_path), "--replay", str(bad)])
        assert code == 2

    @pytest.mark.parametrize("text", ['{"config": [1]}', '{"config": 3}',
                                      '{"config": "x"}', '[1]', '5'])
    def test_replay_rejects_a_config_that_is_not_an_object(self, tmp_path,
                                                           text, capsys):
        bad = tmp_path / "report.json"
        bad.write_text(text)
        out = tmp_path / "out"
        code = main(["single", "-o", str(out), "--replay", str(bad)])
        assert code == 2
        assert "config error" in capsys.readouterr().err
        assert not out.exists()


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
        code = main(["theta_star", "--eta", eta, "--gamma", "0.05",
                     "-o", str(tmp_path)])
        assert code == 0
        payload = json.loads((tmp_path / "theta_star.json").read_text())
        assert math.isfinite(payload["dtheta_deta_deg"])
        assert math.isfinite(payload["dtheta_dgamma_deg"])

    def test_dephasing_cap(self, tmp_path):
        # γ at its cap: the closed-form slope against a backward difference
        code = main(["theta_star", "--gamma", "0.5", "-o", str(tmp_path)])
        assert code == 0
        payload = json.loads((tmp_path / "theta_star.json").read_text())
        noise = cli.build_noise(load_config(None))

        def solve(gamma):
            return cli.theta_star(DEFAULT_CONFIG["lattice"]["r"],
                                  cli.NoiseParams(noise.eta, gamma)).theta_star

        diff = math.degrees((solve(0.5) - solve(0.5 - 1e-6)) / 1e-6)
        assert (abs(payload["dtheta_dgamma_deg"] - diff)
                <= 1e-3 * abs(diff) + 0.01)

    def test_one_theta_star_solve_per_run(self, tmp_path, monkeypatch):
        # the slope is taken at the root the payload reports, not re-solved
        from gridsense import model

        results = []
        real = model.theta_star

        def spy(r, noise):
            results.append(real(r, noise))
            return results[-1]

        monkeypatch.setattr(cli, "theta_star", spy)
        monkeypatch.setattr(model, "theta_star", spy)
        code = main(["theta_star", "-o", str(tmp_path)])
        assert code == 0
        payload = json.loads((tmp_path / "theta_star.json").read_text())
        assert len(results) == 1
        res = results[0]
        assert payload["theta_star_deg"] == math.degrees(res.theta_star)
        assert payload["dtheta_deta_deg"] == res.dtheta_deta_deg
        assert payload["dtheta_dgamma_deg"] == res.dtheta_dgamma_deg

    def test_constant_balance_has_no_root(self, tmp_path):
        # r = 1, γ = 0: L is constant in θ, so there is no root and no
        # several-roots warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["theta_star", "--r", "1", "--gamma", "0",
                         "-o", str(tmp_path)])
        assert code == 4
        payload = json.loads((tmp_path / "theta_star.json").read_text())
        assert payload["status"] == "no_root"

    def test_underflowed_balance_has_nan_slopes(self, tmp_path):
        # η = 1, faint γ: both terms of B underflow at θ*, so ∂B/∂θ = 0
        # there and θ* has no closed-form slope
        code = main(["theta_star", "--eta", "1", "--gamma", "1e-4",
                     "-o", str(tmp_path)])
        assert code == 0
        payload = json.loads((tmp_path / "theta_star.json").read_text())
        assert payload["status"] == "ok"
        assert payload["p_err_at_star"] == 0.0
        assert math.isnan(payload["dtheta_deta_deg"])
        assert math.isnan(payload["dtheta_dgamma_deg"])

    def test_neighbour_without_a_root(self, tmp_path):
        # gamma - 1e-4 has no root here, so θ* sits next to the root
        # region's edge
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

    def test_constant_balance_has_no_root_and_no_warning(self, tmp_path):
        # r = 1 and gamma = 0: L is constant in θ in every cell
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["phase_diagram", "--r", "1", "--gamma-range", "0",
                         "0", "--n", "2", "-o", str(tmp_path)])
        assert code == 0
        lines = (tmp_path / "phase_diagram.csv").read_text().splitlines()
        assert len(lines) == 5  # header + 2x2 cells
        assert all(",,," in line for line in lines[1:])

    def test_bad_range_rejected(self, tmp_path):
        # inverted, or an end outside the noise.eta / noise.gamma domain
        for flag, lo, hi in (("--eta-range", "0.9", "0.8"),
                             ("--eta-range", "0", "0.9"),
                             ("--eta-range", "0.9", "1.01"),
                             ("--gamma-range", "-0.01", "0.1"),
                             ("--gamma-range", "0", "0.51"),
                             ("--gamma-range", "0", "nan")):
            code = main(["phase_diagram", flag, lo, hi, "--n", "2",
                         "-o", str(tmp_path)])
            assert code == 2

    def test_lossless_edge_of_the_window(self, tmp_path):
        code = main(["phase_diagram", "--eta-range", "0.9", "1",
                     "--gamma-range", "0", "0.1", "--n", "3",
                     "-o", str(tmp_path)])
        assert code == 0
        lines = (tmp_path / "phase_diagram.csv").read_text().splitlines()
        assert len(lines) == 10


class TestSweepCommands:
    def test_fractional(self, tmp_path, capsys):
        code = main(["fractional", "--ells", "0,2", "-o", str(tmp_path),
                     "--steps", "2"])
        assert code == 0
        lines = (tmp_path / "fractional.csv").read_text().splitlines()
        assert lines[0] == "ell,theta_deg,qfi,p_err,improvement,capacity"
        assert len(lines) == 3
        row0 = lines[1].split(",")
        row2 = lines[2].split(",")
        assert float(row2[3]) < float(row0[3])  # twisting helps
        assert "argmin" in capsys.readouterr().out

    def test_fractional_writes_non_finite_values(self, tmp_path, capsys):
        # η = 1, γ = 0.001: P_err underflows to 0 at 45° and 90° only, so
        # the improvement is infinite there and the capacity undefined
        code = main(["fractional", "--eta", "1", "--gamma", "0.001",
                     "--ells", "0,1,2", "--steps", "1", "-o", str(tmp_path)])
        assert code == 0
        lines = (tmp_path / "fractional.csv").read_text().splitlines()
        assert [line.split(",")[3:] for line in lines[2:]] == [
            ["0", "Infinity", "NaN"]] * 2
        assert lines[1].split(",")[4] == "1"
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("command,flag,values,empty_row", [
        ("fractional", "--ells", ["0", "2"], "{},,,,,"),
        ("pareto", "--lambdas", ["1", "100"], "{},,")])
    def test_failed_rows_are_empty_and_say_why(self, command, flag, values,
                                               empty_row, tmp_path, capsys,
                                               monkeypatch):
        from gridsense import NumericError, optimize

        def failing(params, cfg):
            raise NumericError("no F_Q here")

        monkeypatch.setattr(optimize, "combined_loss", failing)
        code = main([command, flag, ",".join(values), "--steps", "1",
                     "-o", str(tmp_path)])
        assert code == 0
        lines = (tmp_path / f"{command}.csv").read_text().splitlines()
        assert lines[1:] == [empty_row.format(value) for value in values]
        first = lines[0].split(",")[0]
        assert capsys.readouterr().err.splitlines() == [
            f"{command}: {first}={value} failed: no F_Q here"
            for value in values]

    def test_pareto(self, tmp_path):
        # the default freeze set holds ell and r, so lambda is inert
        with pytest.warns(UserWarning, match="lambda cannot move"):
            code = main(["pareto", "--lambdas", "1,100", "-o", str(tmp_path),
                         "--steps", "2"])
        assert code == 0
        lines = (tmp_path / "pareto.csv").read_text().splitlines()
        assert lines[0] == "lambda,qfi,p_err"
        assert len(lines) == 3

    def test_sweeps_report_the_point_single_reports(self, tmp_path):
        # the same training in all three: the rows hold F_Q and P_err at
        # the parameters it returns, to the last of the 17 digits
        assert main(["single", "--steps", "2", "-o", str(tmp_path)]) == 0
        assert main(["fractional", "--ells", "0", "--steps", "2",
                     "-o", str(tmp_path)]) == 0
        with pytest.warns(UserWarning, match="lambda cannot move"):
            assert main(["pareto", "--lambdas", "100", "--steps", "2",
                         "-o", str(tmp_path)]) == 0
        metrics = json.loads((tmp_path / "report.json").read_text(),
                             parse_float=str)["metrics"]
        single = [metrics["qfi"], metrics["p_err_analytic"]]

        def row(name):
            return (tmp_path / name).read_text().splitlines()[1].split(",")

        assert row("fractional.csv")[2:4] == single
        assert row("pareto.csv")[1:] == single

    def test_pareto_rejects_negative_lambda(self, tmp_path):
        for lambdas in ("-1", "1,-1e-300"):
            code = main(["pareto", "--lambdas", lambdas, "-o", str(tmp_path)])
            assert code == 2

    @pytest.mark.parametrize("command,flag", [
        ("fractional", "--ells"), ("pareto", "--lambdas"),
        ("tolerance", "--deltas-deg")])
    @pytest.mark.parametrize("text", [",", "", " , ", "nan", "1,inf",
                                      "0,-inf", "1e999", "1,x"])
    def test_list_flag_rejects_empty_or_nonfinite(self, command, flag, text,
                                                  tmp_path, capsys):
        code = main([command, flag, text, "-o", str(tmp_path)])
        assert code == 2
        assert f"{flag} expects comma-separated finite numbers" in (
            capsys.readouterr().err)
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("command,flag,dest", [
        ("fractional", "--ells", "ells"), ("pareto", "--lambdas", "lambdas"),
        ("tolerance", "--deltas-deg", "deltas_deg")])
    @pytest.mark.parametrize("text", ["-3,3", "-0.5", "-.5,1", "-1e-3,2"])
    def test_list_flag_takes_a_leading_minus(self, command, flag, dest,
                                             text):
        # argparse alone reads "-3,3" as an unknown option and exits 2
        parser = cli.build_parser()
        spaced = parser.parse_args([command, flag, text])
        joined = parser.parse_args([command, f"{flag}={text}"])
        assert getattr(spaced, dest) == getattr(joined, dest) == text

    def test_negative_offsets_run_like_the_joined_form(self, tmp_path):
        for form in (["--deltas-deg", "-3,3"], ["--deltas-deg=-3,3"]):
            out = tmp_path / str(len(form))
            assert main(["tolerance", *form, "-o", str(out)]) == 0
        assert ((tmp_path / "1" / "tolerance.csv").read_bytes()
                == (tmp_path / "2" / "tolerance.csv").read_bytes())
        rows = (tmp_path / "2" / "tolerance.csv").read_text().splitlines()
        assert [row.split(",")[0] for row in rows[1:]] == ["-3", "3"]

    def test_negative_lambda_list_is_a_domain_error(self, tmp_path, capsys):
        assert main(["pareto", "--lambdas", "-1,2", "-o", str(tmp_path)]) == 2
        assert "--lambdas entry must be >= 0" in capsys.readouterr().err

    def test_list_flag_does_not_take_the_next_option(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.build_parser().parse_args(
                ["tolerance", "--deltas-deg", "--eta", "0.8"])
        assert exc.value.code == 2
        assert "expected one argument" in capsys.readouterr().err

    def test_pareto_rejects_nonfinite_lambda(self, tmp_path):
        # the train.lambda domain: --lambda inf is a config error too
        for lambdas in ("inf", "nan"):
            code = main(["pareto", "--lambdas", lambdas, "-o", str(tmp_path)])
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

    def test_noiseless_rows_have_no_improvement(self, tmp_path):
        # neither lattice errs at η = 1, γ = 0: the ratio 0/0 is NaN
        code = main(["tolerance", "--eta", "1", "--gamma", "0",
                     "--theta-deg", "30", "--deltas-deg", "0", "-o",
                     str(tmp_path)])
        assert code == 0
        lines = (tmp_path / "tolerance.csv").read_text().splitlines()
        assert lines[1] == "0,29.999999999999996,0,NaN,NaN"


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
