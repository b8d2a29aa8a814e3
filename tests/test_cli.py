import dataclasses
import json
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ldpfair import ConfigError, cli, full_report, load_model, random_source
from ldpfair.cli import KEYS, check_config, config_hash, main, parse_config
from ldpfair.datasets import load_checkpoint, save_checkpoint
from ldpfair.discrete_source import save_source


class TestParseConfig:
    def test_scalars_and_types(self):
        cfg = parse_config("dataset=adult\nepochs=10\nlr=0.001\n")
        assert cfg == {"dataset": "adult", "epochs": 10, "lr": 0.001}

    def test_comments_and_blank_lines(self):
        cfg = parse_config("# header\n\nbeta=2  # inline\n")
        assert cfg == {"beta": 2}

    def test_comma_list(self):
        assert parse_config("epsilon=0.5,5,1000\n")["epsilon"] == [0.5, 5, 1000]

    def test_logspace_grid(self):
        betas = parse_config("beta=logspace(-3,3,7)\n")["beta"]
        np.testing.assert_allclose(betas, np.logspace(-3, 3, 7))

    def test_missing_equals_rejected(self):
        with pytest.raises(ConfigError):
            parse_config("just a line\n")

    def test_empty_key_rejected(self):
        with pytest.raises(ConfigError):
            parse_config("=3\n")

    @pytest.mark.parametrize("points", [cli.MAX_GRID_POINTS + 1, 10**12])
    def test_logspace_point_cap(self, points):
        # rejected before the grid is made
        with pytest.raises(ConfigError, match="at most"):
            parse_config(f"beta=logspace(0,1,{points})\n")
        assert len(parse_config(f"beta=logspace(0,1,{cli.MAX_GRID_POINTS})\n")["beta"]) == cli.MAX_GRID_POINTS

    def test_hash_stable_and_order_insensitive(self):
        a = config_hash({"a": 1, "b": [2, 3]})
        b = config_hash({"b": [2, 3], "a": 1})
        assert a == b and len(a) == 16

    def test_check_config_casts_values(self):
        cfg = check_config(parse_config(
            "epochs=10\nlr=1\nbeta=2\nepsilon=0.5,5\nseeds=3\nmechanism=rr\n"
            "dataset=synthetic\ncheck_budget_equals_floor=1\nbatch=256.0\n"
        ))
        assert cfg == {
            "epochs": 10, "lr": 1.0, "beta": [2.0], "epsilon": [0.5, 5.0], "seeds": [3],
            "mechanism": ["rr"], "dataset": "synthetic", "check_budget_equals_floor": True,
            "batch": 256,
        }
        assert type(cfg["lr"]) is float and type(cfg["batch"]) is int


KEY_NAMES = st.sampled_from(sorted(KEYS) + ["epoch", "x y", ""])
VALUES = st.one_of(
    st.sampled_from([
        "1", "-3", "2.5", "1e400", "nan", "inf", "true", "FALSE", "maybe", "", ",", "1,2",
        "a,b", "1,,2", "logspace(-1,1,3)", "logspace(.,1,2)", "logspace(0,1,0)", "1_0",
        "logspace(0,1,10001)", "logspace(-3,3,999999999999)",
    ]),
    st.integers().map(str),
    st.floats().map(str),
    st.text(max_size=12),
)
CONFIG_TEXT = st.one_of(
    st.text(max_size=200),
    st.lists(
        st.one_of(st.builds("{}={}".format, KEY_NAMES, VALUES), st.text(max_size=20)), max_size=8
    ).map("\n".join),
)


@settings(max_examples=400, deadline=None)
@given(CONFIG_TEXT)
def test_config_text_gives_typed_config_or_config_error(text):
    # no command runs: this is the check main makes before any work
    try:
        cfg = check_config(parse_config(text))
    except ConfigError:
        return
    for key, value in cfg.items():
        cast, grid = KEYS[key]
        values = value if grid else [value]
        assert values and all(type(v) is cast for v in values), (key, value)


DIRECTORY = object()  # test_malformed_input_file_exits_4: make a directory at the path

SYNTH_CFG = """
dataset=synthetic
card_x=4
n_train=1200
n_test=1200
mechanism=laplace
epsilon=5
beta=1
epochs=2
batch=256
"""


def write_cfg(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return path


class TestCommands:
    def test_missing_required_key_exits_2(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "dataset=synthetic\n")
        rc = main(["train", "--config", str(cfg), "--out", str(tmp_path)])
        assert rc == 2
        assert "epsilon" in capsys.readouterr().err

    def test_unknown_dataset_exits_2(self, tmp_path):
        cfg = write_cfg(tmp_path, "dataset=nope\nepsilon=1\n")
        assert main(["train", "--config", str(cfg), "--out", str(tmp_path)]) == 2

    @pytest.mark.parametrize("sub", ["", "sub"], ids=["file", "below-a-file"])
    def test_out_that_is_not_a_directory_exits_2(self, tmp_path, capsys, sub):
        # --out naming an existing file, or a path below one, cannot be made
        # a directory: a config error, not a traceback
        cfg = write_cfg(tmp_path, "card_x=3\nepsilon=1\nbeta=1\n")
        (tmp_path / "afile").write_text("x")
        out = tmp_path / "afile" / sub
        assert main(["solve", "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "Traceback" not in err
        assert (tmp_path / "afile").read_text() == "x"

    def test_evaluate_without_checkpoint_exits_4(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, SYNTH_CFG)
        rc = main(["evaluate", "--config", str(cfg), "--out", str(tmp_path)])
        assert rc == 4
        assert "checkpoint" in capsys.readouterr().err

    def test_train_then_evaluate(self, tmp_path):
        cfg = write_cfg(tmp_path, SYNTH_CFG)
        assert main(["train", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        assert (tmp_path / "model.npz").exists()
        history = (tmp_path / "history.csv").read_text().splitlines()
        assert history[0].startswith("# config_hash=")
        assert history[1].split(",")[0] == "epoch"

        assert main(["evaluate", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert "config_hash" in report
        assert 0.0 <= report["accuracy_mean"] <= 1.0

    def test_huge_code_alphabet_evaluates(self, tmp_path, capsys):
        # k^d = 10^10 joint codes: leakage and the attacker count only the
        # codes that occur, so evaluate neither allocates a table over the
        # alphabet nor leaves as a traceback
        cfg = write_cfg(
            tmp_path,
            "dataset=synthetic\ncard_x=4\nn_train=100\nn_test=100\nmechanism=rr\nk=100000\nd=2\n"
            "epsilon=5\nbeta=1\nepochs=1\nbatch=50\n",
        )
        assert main(["train", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        assert main(["evaluate", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        assert "Traceback" not in capsys.readouterr().err
        report = json.loads((tmp_path / "report.json").read_text())
        assert 0.0 <= report["leakage_mean"] <= np.log(2)

    def test_joint_codes_past_int64_evaluate(self, tmp_path, capsys):
        # k^d = 2^64 joint codes do not fit an int64 index: the joint code
        # folds one coordinate at a time instead of forming k^d
        cfg = write_cfg(
            tmp_path,
            "dataset=synthetic\ncard_x=4\nn_train=40\nn_test=40\nmechanism=rr\nk=65536\nd=4\n"
            "epsilon=5\nbeta=1\nepochs=1\nbatch=20\n",
        )
        assert main(["train", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        assert main(["evaluate", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        assert "Traceback" not in capsys.readouterr().err
        report = json.loads((tmp_path / "report.json").read_text())
        assert 0.0 <= report["leakage_mean"] <= np.log(2)

    def test_evaluate_report_json_round_trip(self, tmp_path):
        # report.json holds the report's fields and the config hash
        text = SYNTH_CFG.replace("mechanism=laplace", "mechanism=rr\nk=4\nd=2")
        cfg = write_cfg(tmp_path, text)
        assert main(["train", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        assert main(["evaluate", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        loaded = json.loads((tmp_path / "report.json").read_text())
        _, test_ds = cli._load_dataset_pair(check_config(parse_config(text)), tmp_path)
        rep = full_report(load_model(tmp_path / "model.npz"), test_ds, [0])
        assert set(loaded) == {f.name for f in dataclasses.fields(rep)} | {"config_hash"}
        assert loaded["config_hash"] == config_hash(parse_config(text))
        assert loaded["accuracy_mean"] == rep.accuracy_mean

    def test_frontier_artifact(self, tmp_path):
        cfg = write_cfg(
            tmp_path,
            "card_x=3\nepsilon=1.0\nbeta=0.1,1,10\nrestarts=2\niterations=400\n",
        )
        assert main(["frontier", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        lines = (tmp_path / "frontier.csv").read_text().splitlines()
        assert lines[0].startswith("# config_hash=")
        assert lines[1] == "beta,epsilon,gamma,Gamma,Omega,nu,ixz,converged"
        assert len(lines) == 5

    def test_verify_passes_on_defaults(self, tmp_path):
        cfg = write_cfg(tmp_path, "card_x=3\nrestarts=2\niterations=600\n")
        assert main(["verify", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        payload = json.loads((tmp_path / "verify.json").read_text())
        assert payload["pass"] is True
        for check in payload["checks"].values():
            assert check["pass"] is True

    def test_verify_budget_equals_floor_passes(self, tmp_path):
        cfg = write_cfg(
            tmp_path,
            "card_x=3\nsource_seed=12\ngamma=0.1\nrestarts=2\niterations=400\n"
            "check_budget_equals_floor=true\n",
        )
        assert main(["verify", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        check = json.loads((tmp_path / "verify.json").read_text())["checks"]["budget_equals_floor"]
        assert check["pass"] is True
        assert check["capacity_nats"] < 0.1 and check["floor_epsilon"] is not None

    def test_verify_boolean_flag_values(self, tmp_path):
        cfg = write_cfg(
            tmp_path, "card_x=3\nrestarts=2\niterations=200\ncheck_budget_equals_floor=false\n"
        )
        assert main(["verify", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        assert "budget_equals_floor" not in json.loads((tmp_path / "verify.json").read_text())["checks"]
        cfg.write_text(cfg.read_text().replace("=false", "=maybe"))
        assert main(["verify", "--config", str(cfg), "--out", str(tmp_path / "bad")]) == 2

    def test_verify_with_no_sources_exits_2(self, tmp_path, capsys):
        # zero sources would report the lemma checks as passed having checked nothing
        cfg = write_cfg(tmp_path, "card_x=3\nrestarts=2\niterations=50\nverify_sources=0\n")
        assert main(["verify", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
        assert "config key 'verify_sources' must be >= 1" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()  # rejected before any work

    @pytest.mark.parametrize("budget", ["0", "-5"])
    def test_oracle_budget_below_one_exits_2(self, tmp_path, capsys, budget):
        # a budget below the deterministic channels' count searched those alone
        # and reported their leakage as a failed theory check
        cfg = write_cfg(
            tmp_path, f"card_x=3\nrestarts=2\niterations=50\ncheck_budget_equals_floor=true\n"
            f"gamma=0.05\noracle_budget={budget}\n",
        )
        assert main(["verify", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert f"config key 'oracle_budget' must be >= 1, got {budget}" in err and "Traceback" not in err
        assert not (tmp_path / "out").exists()  # rejected before any work

    @pytest.mark.parametrize("gamma", ["nan", "inf", "0", "-1"])
    def test_bad_gamma_exits_2(self, tmp_path, capsys, gamma):
        # a floor that is not finite and > 0 is a config error: it must stop the
        # command before any work, not fail one check after all the others ran
        cfg = write_cfg(
            tmp_path, f"card_x=3\nrestarts=2\niterations=50\ncheck_budget_equals_floor=true\ngamma={gamma}\n",
        )
        assert main(["verify", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert f"config key 'gamma' must be finite and > 0, got {gamma}" in err and "Traceback" not in err
        assert not (tmp_path / "out").exists()  # rejected before any work

    def test_floor_check_outside_the_oracle_regime_exits_2(self, tmp_path, capsys, monkeypatch):
        # the oracle takes |X| <= 4: with |X| = 5 the floor check cannot run, which is
        # a config error found before any check runs, not a failed check after the rest
        def no_check_runs(*args):
            raise AssertionError("a check ran")

        monkeypatch.setattr(cli, "check_lemma1", no_check_runs)
        monkeypatch.setattr(cli, "trace_frontier", no_check_runs)
        cfg = write_cfg(tmp_path, "card_x=5\nrestarts=2\niterations=50\ncheck_budget_equals_floor=1\n")
        assert main(["verify", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert "oracle regime is |X| <= 4, got 5" in err and "Traceback" not in err
        assert not (tmp_path / "out" / "verify.json").exists()

    @pytest.mark.parametrize(
        "command, mechanism, epsilon",
        [
            ("train", "rr", "nan"), ("train", "rr", "1e400"), ("train", "rr", "2000"),
            ("train", "laplace", "nan"), ("train", "laplace", "1e400"),
            ("solve", None, "nan"), ("solve", None, "1e400"), ("solve", None, "2000"),
        ],
    )
    def test_non_finite_epsilon_exits_2(self, tmp_path, capsys, command, mechanism, epsilon):
        # rr with d = 2 overflows e^(epsilon/d) at epsilon = 2000; the solver's rr has d = 1
        if command == "train":
            text = SYNTH_CFG.replace("mechanism=laplace", f"mechanism={mechanism}\nk=4\nd=2")
        else:
            text = "card_x=3\nbeta=1\nrestarts=1\niterations=50\n"
        text = "\n".join(ln for ln in text.splitlines() if not ln.startswith("epsilon="))
        cfg = write_cfg(tmp_path, f"{text}\nepsilon={epsilon}\n")
        assert main([command, "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and "epsilon" in err and "Traceback" not in err
        assert list((tmp_path / "out").iterdir()) == []  # no model, no solution

    @pytest.mark.parametrize(
        "command, line",
        [(c, ln) for c in ("frontier", "solve", "verify")
         for ln in ("beta=nan", "beta=inf", "solver_lr=nan", "solver_lr=inf")]
        + [("frontier", "beta=1,nan"), ("frontier", "beta=0.5,inf")],  # the frontier solves every beta
    )
    def test_non_finite_beta_or_solver_lr_exits_2(self, tmp_path, capsys, command, line):
        # solver_lr set the step of an ascent the solver no longer runs
        key = line.split("=")[0]
        text = "card_x=3\nepsilon=1\nrestarts=1\niterations=50\n" + ("" if key == "beta" else "beta=1\n")
        cfg = write_cfg(tmp_path, f"{text}{line}\n")
        assert main([command, "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        name = "beta" if key == "beta" else "unknown config key 'solver_lr'"
        assert "config error" in err and name in err and "Traceback" not in err
        if key == "beta":
            assert list((tmp_path / "out").iterdir()) == []  # no frontier, solution or report
        else:
            assert not (tmp_path / "out").exists()  # rejected before any work

    @pytest.mark.parametrize("grid", ["1,nan", "0.5,inf"])
    def test_verify_rejects_a_non_finite_beta_in_a_grid(self, tmp_path, capsys, grid):
        cfg = write_cfg(tmp_path, f"card_x=3\nrestarts=1\niterations=50\nbeta={grid}\n")
        assert main(["verify", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and "beta" in err and "Traceback" not in err
        assert list((tmp_path / "out").iterdir()) == []  # no report

    def test_verify_checks_every_beta(self, tmp_path, monkeypatch):
        # one beta's point that breaks the bound chain fails the check, wherever it is in the grid
        betas, broken = [], 2.0
        solve = cli.trace_frontier

        def spying(src, mech, grid, cfg):
            betas.append(list(grid))
            points = solve(src, mech, grid, cfg)
            if mech.epsilon > 0:
                points = [dataclasses.replace(p, ixz=p.epsilon + 1.0) if p.beta == broken else p for p in points]
            return points

        monkeypatch.setattr(cli, "trace_frontier", spying)
        cfg = write_cfg(tmp_path, "card_x=3\nrestarts=1\niterations=50\nbeta=1,2,3\n")
        assert main(["verify", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 3
        checks = json.loads((tmp_path / "out" / "verify.json").read_text())["checks"]
        assert checks["theorem1_bounds"]["pass"] is False
        assert checks["theorem1_bounds"]["Omega_le_ixz_le_eps"] is False
        assert checks["theorem1_bounds"]["gamma_le_Gamma_le_eps"] is True
        assert checks["zero_budget_collapse"]["pass"] is True
        assert betas == [[1.0, 2.0, 3.0], [1.0, 2.0, 3.0]]  # the bound chain, then the collapse

    @pytest.mark.parametrize(
        "line, key",
        [("lr=nan", "learning_rate"), ("lr=inf", "learning_rate"), ("beta=nan", "beta"),
         ("sigma=nan", "sigma"), ("sigma=inf", "sigma"), ("card_x=0", "card_x")],
    )
    def test_non_finite_training_setting_exits_2(self, tmp_path, capsys, line, key):
        # 400 rows and one epoch: without the checks, lr=nan trains a model of
        # NaN weights and exits 0, and the others fail later with exit 4
        name = line.split("=")[0]
        kept = [ln for ln in SYNTH_CFG.splitlines() if ln and not ln.startswith((f"{name}=", "epochs=", "n_"))]
        cfg = write_cfg(tmp_path, "\n".join([*kept, "n_train=400", "n_test=400", "epochs=1", line]) + "\n")
        assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and key in err and "Traceback" not in err
        if name == "card_x":
            assert not (tmp_path / "out").exists()  # rejected before any work
        else:
            assert list((tmp_path / "out").iterdir()) == []  # no model, no history

    @pytest.mark.parametrize(
        "command, text, seed",
        [
            ("train", SYNTH_CFG, "-1"),
            ("solve", "card_x=3\nbeta=1\nepsilon=1\n", "-3"),
            ("verify", "", "-3"),
            ("evaluate", SYNTH_CFG + "seeds=0,-1\n", "0"),
            ("train", SYNTH_CFG.replace("card_x=4", "card_x=4\nsource_seed=-5"), "0"),
            ("train", SYNTH_CFG + "data_seed=-2\n", "0"),
        ],
        ids=["train-seed", "solve-seed", "verify-seed", "evaluate-seeds", "train-source_seed", "train-data_seed"],
    )
    def test_negative_seed_exits_2(self, tmp_path, capsys, command, text, seed):
        cfg = write_cfg(tmp_path, text)
        rc = main([command, "--config", str(cfg), "--out", str(tmp_path / "out"), "--seed", seed])
        assert rc == 2
        err = capsys.readouterr().err
        assert "config error" in err and "must be >= 0" in err and "Traceback" not in err
        assert not (tmp_path / "out").exists()  # rejected before any work, so no artifact

    @pytest.mark.parametrize(
        "line, message",
        [
            ("epochs=one", "must be a number"),
            ("beta=logspace(-1,1,3)", "takes one value"),
            ("batch=2.5", "must be an integer"),
            ("epsilon=5,abc", "must be a number"),
        ],
    )
    def test_train_bad_number_exits_2(self, tmp_path, capsys, line, message):
        key = line.split("=")[0]
        text = "\n".join(line if ln.startswith(key + "=") else ln for ln in SYNTH_CFG.splitlines())
        cfg = write_cfg(tmp_path, text)
        assert main(["train", "--config", str(cfg), "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert f"config key {key!r} {message}" in err and "Traceback" not in err
        assert not (tmp_path / "model.npz").exists()

    def test_misspelled_key_exits_2(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, SYNTH_CFG.replace("epochs=2", "epoch=1"))
        assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert "unknown config key 'epoch'; did you mean 'epochs'?" in err and "Traceback" not in err
        assert not (tmp_path / "out").exists()  # rejected before any work

    def test_known_keys_are_the_keys_read(self):
        # every key a command reads is in KEYS, and every key in KEYS is read
        source = Path(cli.__file__).read_text()
        read = set(re.findall(r'(?:cfg\.get|_one|_required)\(\s*(?:cfg,\s*)?"(\w+)"', source))
        assert read == set(KEYS)

    def test_verify_on_exact_frontier_config(self, tmp_path):
        # an epsilon grid for the lemma checks, a beta grid (verify solves at
        # every beta) and solve_epsilon, as the exact-frontier benchmark runs it
        src = tmp_path / "source.txt"
        save_source(random_source(2, 2, 3, seed=5), src)
        cfg = write_cfg(
            tmp_path,
            f"source={src}\nepsilon=1.0,3.0\nsolve_epsilon=3.0\n"
            "beta=0.1,1.0,10.0,100.0\nrestarts=2\niterations=400\n",
        )
        assert main(["verify", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
        assert json.loads((tmp_path / "out" / "verify.json").read_text())["pass"] is True

    def test_train_then_evaluate_on_one_config(self, tmp_path):
        # the neural benchmarks' shape: one config with seeds, epochs and mechanism keys
        cfg = write_cfg(
            tmp_path,
            SYNTH_CFG.replace("mechanism=laplace", "mechanism=rr\nk=4\nd=2") + "seeds=3,4\n",
        )
        assert main(["train", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        assert main(["evaluate", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert len(report["per_seed"]["accuracy"]) == 2

    @pytest.mark.parametrize(
        "command, text, grid",
        [
            ("train", SYNTH_CFG, "epsilon=1,5"),
            ("solve", "card_x=3\nbeta=1\n", "epsilon=1,5"),
            ("frontier", "card_x=3\nbeta=0.5,2\n", "epsilon=1,5"),
            ("solve", "card_x=3\nepsilon=1\n", "beta=0.5,2"),
        ],
    )
    def test_grid_where_one_value_is_used_exits_2(self, tmp_path, capsys, command, text, grid):
        key = grid.split("=")[0]
        lines = [ln for ln in text.splitlines() if not ln.startswith(key + "=")]
        cfg = write_cfg(tmp_path, "\n".join(lines + ["restarts=1", "iterations=50", grid]))
        assert main([command, "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
        assert f"config key {key!r} takes one value" in capsys.readouterr().err
        assert list((tmp_path / "out").iterdir()) == []  # no artifact

    @pytest.mark.parametrize("command", sorted(cli.COMMANDS))
    def test_grid_on_one_value_key_exits_2_in_every_command(self, tmp_path, capsys, command):
        cfg = write_cfg(tmp_path, SYNTH_CFG + "restarts=1,2\n")
        assert main([command, "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
        assert "config key 'restarts' takes one value" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()  # rejected before any work

    @pytest.mark.parametrize(
        "command, name, content, key",
        [
            ("solve", "missing.txt", None, "source"),
            ("solve", "source.txt", "2 2 three\n" + "0.0833333333333333\n" * 12, "source"),
            ("evaluate", "model.npz", "not a checkpoint\n", "model"),
            ("report", "sweep.csv", "beta,epsilon,accuracy\n1.0,1.0,0.5\n", "sweep"),
            ("report", "sweep.csv", ",".join(cli.SWEEP_COLUMNS) + "\n1.0,1.0,rr,high\n", "sweep"),
            ("report", "sweep.csv", DIRECTORY, "sweep"),
        ],
        ids=[
            "missing-source", "non-integer-header", "not-a-checkpoint", "sweep-without-mode",
            "sweep-non-numeric-row", "sweep-is-a-directory",
        ],
    )
    def test_malformed_input_file_exits_4(self, tmp_path, capsys, command, name, content, key):
        path = tmp_path / name
        if content is DIRECTORY:
            path.mkdir()
        elif content is not None:
            path.write_text(content)
        cfg = write_cfg(tmp_path, SYNTH_CFG + f"{key}={path}\n")
        assert main([command, "--config", str(cfg), "--out", str(tmp_path / "out")]) == 4
        err = capsys.readouterr().err
        assert str(path) in err and "Traceback" not in err

    @pytest.mark.parametrize(
        "damage",
        ["version", "shape", "no-mechanism", "no-schema", "epsilon-text", "epsilon-negative", "unknown-kind",
         "mechanism-text", "no-t"],
    )
    def test_foreign_checkpoint_exits_4(self, tmp_path, capsys, damage):
        cfg = write_cfg(tmp_path, SYNTH_CFG)
        assert main(["train", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        path = tmp_path / "model.npz"
        meta, arrays = load_checkpoint(path)
        if damage == "version":
            meta["checkpoint_version"] = 2
            np.savez(path, __meta__=np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8), **arrays)
        else:
            if damage == "shape":
                arrays["p2"] = arrays["p2"][:, :-1]
            elif damage == "no-mechanism":
                del meta["mechanism"]
            elif damage == "no-schema":
                del meta["schema"]
            elif damage == "epsilon-text":
                meta["mechanism"]["epsilon"] = "x"
            elif damage == "epsilon-negative":
                meta["mechanism"]["epsilon"] = -1
            elif damage == "unknown-kind":
                meta["mechanism"]["kind"] = "gauss"
            elif damage == "mechanism-text":
                meta["mechanism"] = "rr"
            else:  # a default t must not stand in for the trained one
                del meta["mechanism"]["t"]
            save_checkpoint(path, meta, arrays)
        capsys.readouterr()
        assert main(["evaluate", "--config", str(cfg), "--out", str(tmp_path)]) == 4
        err = capsys.readouterr().err
        assert str(path) in err and "Traceback" not in err

    def test_non_finite_checkpoint_exits_4(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, SYNTH_CFG)
        assert main(["train", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        path = tmp_path / "model.npz"
        meta, arrays = load_checkpoint(path)
        arrays["p0"][0, 0] = np.nan
        save_checkpoint(path, meta, arrays)
        capsys.readouterr()
        assert main(["evaluate", "--config", str(cfg), "--out", str(tmp_path)]) == 4
        err = capsys.readouterr().err
        assert str(path) in err and "'p0'" in err and "Traceback" not in err
        assert not (tmp_path / "report.json").exists()

    @pytest.mark.parametrize("mechanism", ["mechanism=laplace", "mechanism=rr\nk=4\nd=2"])
    def test_checkpoint_of_another_schema_exits_4(self, tmp_path, capsys, mechanism):
        # a model trained at card_x=4 sees 4 feature columns; the card_x=5
        # dataset has 5, which the encoder's first layer cannot take
        text = SYNTH_CFG.replace("mechanism=laplace", mechanism)
        assert main(["train", "--config", str(write_cfg(tmp_path, text)), "--out", str(tmp_path)]) == 0
        wider = write_cfg(tmp_path, text.replace("card_x=4", "card_x=5"), name="wider.cfg")
        capsys.readouterr()
        assert main(["evaluate", "--config", str(wider), "--out", str(tmp_path)]) == 4
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert "f0[1], f1[1], f2[1], f3[1]," in err and "f4[1]" in err
        assert not (tmp_path / "report.json").exists()

    @pytest.mark.filterwarnings("ignore:compas")  # the fixture's row count and P(U=1) differ
    def test_compas_non_integer_label_exits_4(self, tmp_path, capsys):
        lines = (Path(__file__).parent / "data" / "compas.csv").read_text().splitlines()
        assert lines[2].startswith("2,") and lines[2].endswith(",1")
        lines[2] = lines[2][:-1] + "yes"
        csv_path = tmp_path / "compas.csv"
        csv_path.write_text("\n".join(lines) + "\n")
        cfg = write_cfg(tmp_path, f"dataset=compas\ncompas_csv={csv_path}\nmechanism=laplace\nepsilon=5\nepochs=1\n")
        assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 4
        err = capsys.readouterr().err
        assert str(csv_path) in err and "two_year_recid" in err and "'yes'" in err and "Traceback" not in err

    @pytest.mark.parametrize("mechanism", ["mechanism=rr\nk=4\nd=2", "mechanism=laplace\nt=0.5\nd=2"])
    def test_repeated_train_and_evaluate_reproduce_artifacts(self, tmp_path, mechanism):
        # no buffer or gradient state survives a call: the second train and
        # evaluate in one process write the same bytes as the first.  1000
        # rows at batch 256 end on a partial batch, so two batch sizes share
        # each training run, and the downstream classifiers fit 700 rows
        cfg = write_cfg(
            tmp_path,
            f"dataset=synthetic\ncard_x=4\nn_train=1000\nn_test=1000\n{mechanism}\n"
            "epsilon=5\nbeta=1\nepochs=3\nbatch=256\nseeds=1,2\n",
        )
        runs = []
        for run in range(2):
            out = tmp_path / f"run{run}"
            assert main(["train", "--config", str(cfg), "--out", str(out)]) == 0
            assert main(["evaluate", "--config", str(cfg), "--out", str(out)]) == 0
            runs.append([(out / f).read_bytes() for f in ("model.npz", "history.csv", "report.json")])
        assert runs[0] == runs[1]

    def test_fetch_data_synthetic_round_trip(self, tmp_path):
        cfg = write_cfg(tmp_path, SYNTH_CFG)
        assert main(["fetch-data", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        from ldpfair import load_dataset

        train = load_dataset(tmp_path / "train.npz")
        meta = json.loads((tmp_path / "fetch.json").read_text())
        assert meta["train_hash"] == train.content_hash()

    def test_sweep_and_report(self, tmp_path):
        cfg = write_cfg(
            tmp_path,
            "dataset=synthetic\ncard_x=4\nn_train=1200\nn_test=1200\n"
            "mechanism=laplace\nepsilon=1,5\nbeta=0.5\nepochs=1\nbatch=256\n",
        )
        assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        lines = (tmp_path / "sweep.csv").read_text().splitlines()
        assert lines[1].split(",")[:3] == ["beta", "epsilon", "mode"]
        assert len(lines) == 4  # hash + header + 2 cells

        assert main(["report", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        payload = json.loads((tmp_path / "report.json").read_text())
        assert len(payload["cells"]) == 2
        assert {"beta", "epsilon", "mode", "accuracy_median"} <= set(payload["cells"][0])

    def test_sweep_with_failed_cells_exits_4(self, tmp_path, capsys):
        # every cell fails on a missing data file: both files are still
        # written, sweep.csv with its header and no rows
        cfg = write_cfg(
            tmp_path, f"dataset=compas\ncompas_csv={tmp_path / 'missing.csv'}\nmechanism=laplace\n"
            "epsilon=1,5\nbeta=0.5\nepochs=1\n",
        )
        assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "all")]) == 4
        assert "Traceback" not in capsys.readouterr().err
        assert len((tmp_path / "all" / "sweep.csv").read_text().splitlines()) == 2  # hash + header
        assert len((tmp_path / "all" / "sweep_failures.txt").read_text().splitlines()) == 2

        # one cell of two fails (rr needs k >= 2): the other's row is written
        cfg = write_cfg(
            tmp_path, "dataset=synthetic\ncard_x=4\nn_train=400\nn_test=400\nmechanism=laplace,rr\n"
            "k=1\nepsilon=5\nbeta=0.5\nepochs=1\nbatch=256\n",
        )
        assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "one")]) == 4
        rows = (tmp_path / "one" / "sweep.csv").read_text().splitlines()[2:]
        assert [r.split(",")[2] for r in rows] == ["laplace"]
        failures = (tmp_path / "one" / "sweep_failures.txt").read_text().splitlines()
        assert len(failures) == 1 and "mode=rr" in failures[0]

    @pytest.mark.parametrize("jobs, workers", [(500, 2), (2, 2), (1, None)])
    def test_sweep_starts_at_most_one_worker_per_cell(self, tmp_path, monkeypatch, jobs, workers):
        # a fork-started pool forks every worker at the first submit, so the
        # pool is a fake that records its size and maps in-process
        sizes = []

        class FakeExecutor:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(cli, "ProcessPoolExecutor", FakeExecutor)
        cfg = write_cfg(
            tmp_path,
            "dataset=synthetic\ncard_x=4\nn_train=400\nn_test=400\n"
            "mechanism=laplace\nepsilon=1,5\nbeta=0.5\nepochs=1\nbatch=256\n",
        )
        assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path), "--jobs", str(jobs)]) == 0
        assert sizes == ([] if workers is None else [workers])
        assert len((tmp_path / "sweep.csv").read_text().splitlines()) == 4  # hash + header + 2 cells

    def test_rerun_reproduces_artifacts(self, tmp_path):
        cfg = write_cfg(
            tmp_path, "card_x=3\nepsilon=1.0\nbeta=0.5,2\nrestarts=2\niterations=300\n"
        )
        main(["frontier", "--config", str(cfg), "--out", str(tmp_path)])
        first = (tmp_path / "frontier.csv").read_text()
        main(["frontier", "--config", str(cfg), "--out", str(tmp_path)])
        assert (tmp_path / "frontier.csv").read_text() == first
