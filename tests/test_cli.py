import json

import numpy as np
import pytest

from ldpfair import ConfigError
from ldpfair.cli import config_hash, main, parse_config


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

    def test_hash_stable_and_order_insensitive(self):
        a = config_hash({"a": 1, "b": [2, 3]})
        b = config_hash({"b": [2, 3], "a": 1})
        assert a == b and len(a) == 16


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
        # every key a command reads is known, and every known key is read
        import re
        from pathlib import Path

        from ldpfair import cli

        source = Path(cli.__file__).read_text()
        read = set(re.findall(r'_get\w*\(\s*\w+,\s*"(\w+)"', source))
        assert read == cli.KNOWN_KEYS

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

    def test_rerun_reproduces_artifacts(self, tmp_path):
        cfg = write_cfg(
            tmp_path, "card_x=3\nepsilon=1.0\nbeta=0.5,2\nrestarts=2\niterations=300\n"
        )
        main(["frontier", "--config", str(cfg), "--out", str(tmp_path)])
        first = (tmp_path / "frontier.csv").read_text()
        main(["frontier", "--config", str(cfg), "--out", str(tmp_path)])
        assert (tmp_path / "frontier.csv").read_text() == first
