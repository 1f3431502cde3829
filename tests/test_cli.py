"""End-to-end command-line behavior: artifacts, exit codes, idempotence."""
import json
import os

import numpy as np
import pytest

from sbaformer.cli import main
from sbaformer.config import (
    DATASET_P_DEFAULTS,
    SCHEMA,
    default_config,
    load_config,
    validate_config,
)
from sbaformer.data import load_series, make_grid_graph, save_series
from sbaformer.errors import ConfigError
from sbaformer.graph import save_graph
from sbaformer.partition import PartitionPlan


def read_plans(path):
    """The plans of a plan file, each rebuilt from its stored assignment."""
    return [
        PartitionPlan(d["assign"], d["p"], d["edge_cut"], d["balance_factor"], d["seed"])
        for d in json.loads(path.read_text())["plans"]
    ]


@pytest.fixture(scope="module")
def synth_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("synth")
    rc = main(["synth", "--out", str(out), "--nodes", "16", "--steps", "160", "--seed", "3"])
    assert rc == 0
    return out


@pytest.fixture(scope="module")
def run_config(synth_dir, tmp_path_factory):
    work = tmp_path_factory.mktemp("run")
    cfg = {
        "data": {
            "series": str(synth_dir / "series.bin"),
            "graph": str(synth_dir / "graph.csv"),
            "coords": str(synth_dir / "coords.csv"),
            "name": "synthetic",
        },
        "partition": {"p0": 4},
        "model": {"d_model": 8, "l": 2, "heads": 2, "t": 6, "f": 3},
        "train": {"max_epochs": 2, "batch_size": 16, "patience": 5, "seed": 0},
        "pe": {"k": 2},
        "paths": {"out_dir": str(work / "out")},
    }
    path = work / "config.json"
    path.write_text(json.dumps(cfg))
    return path, work / "out"


@pytest.fixture(scope="module")
def trained(run_config, tmp_path_factory):
    """run_config's (config path, out_dir) for a copy of its config that
    has been trained once per module, so the tests that read a checkpoint
    do not depend on which test trained first."""
    config_path, _ = run_config
    cfg = json.loads(config_path.read_text())
    work = tmp_path_factory.mktemp("trained")
    cfg["paths"]["out_dir"] = str(work / "out")
    path = work / "config.json"
    path.write_text(json.dumps(cfg))
    assert main(["train", "--config", str(path)]) == 0
    return path, work / "out"


def _forbidden(*args, **kwargs):
    raise AssertionError("set-up work ran before the cheap checks failed")


@pytest.fixture
def no_setup_work(monkeypatch):
    """Fail the test if the run set-up reaches the partitioner or the PE."""
    monkeypatch.setattr("sbaformer.cli.build_scale_series", _forbidden)
    monkeypatch.setattr("sbaformer.cli.laplacian_pe", _forbidden)


@pytest.fixture
def no_file_read(monkeypatch, no_setup_work):
    """Fail the test if the run reads its series, or does any later set-up work."""
    monkeypatch.setattr("sbaformer.cli.load_series", _forbidden)


def _with_d_model(config_path, tmp_path, d_model):
    """A copy of the run config with another model width."""
    cfg = json.loads(config_path.read_text())
    cfg["model"]["d_model"] = d_model
    path = tmp_path / f"d{d_model}.json"
    path.write_text(json.dumps(cfg))
    return path


def _edited(config_path, tmp_path, edit):
    """A copy of the run config after `edit(cfg)`, writing to tmp_path/out."""
    cfg = json.loads(config_path.read_text())
    cfg["paths"]["out_dir"] = str(tmp_path / "out")
    edit(cfg)
    path = tmp_path / "edited.json"
    path.write_text(json.dumps(cfg))
    return path


class TestSchema:
    def test_defaults_echo_headline_values(self):
        cfg = default_config()
        assert cfg["model"]["d_model"] == 512
        assert cfg["model"]["l"] == 3
        assert cfg["model"]["f"] == 12
        assert cfg["model"]["t"] == 96

    def test_per_dataset_subgraph_defaults_documented(self):
        assert DATASET_P_DEFAULTS == {
            "SD": 8, "GBA": 8, "GLA": 64, "CA": 128,
            "WEST": 16, "EAST": 8, "ALL": 64,
        }

    def test_unknown_key_rejected_with_path(self):
        doc = {"train": {"batch_sz": 4}, "data": {"series": "x"}, "paths": {"out_dir": "y"}}
        with pytest.raises(ConfigError, match="train.batch_sz"):
            validate_config(doc)

    def test_model_k_pe_rejected(self):
        # the encoding width is pe.k; model.k_pe was accepted and ignored
        doc = {"data": {"series": "x"}, "model": {"k_pe": 5}, "pe": {"k": 2},
               "paths": {"out_dir": "y"}}
        with pytest.raises(ConfigError, match="unknown config key: model.k_pe"):
            validate_config(doc)

    def test_unknown_section_rejected(self):
        with pytest.raises(ConfigError, match="unknown config section"):
            validate_config({"trian": {}})

    def test_missing_required_key(self):
        with pytest.raises(ConfigError, match="paths.out_dir"):
            validate_config({"data": {"series": "x"}})

    def test_p0_resolves_from_dataset_name(self):
        doc = {
            "data": {"series": "x", "graph": "g", "name": "GLA"},
            "paths": {"out_dir": "y"},
        }
        assert validate_config(doc)["partition"]["p0"] == 64

    def test_p0_unknown_name_requires_explicit(self):
        doc = {"data": {"series": "x", "name": "mystery"}, "paths": {"out_dir": "y"}}
        with pytest.raises(ConfigError, match="p0"):
            validate_config(doc)


class TestPartitionCommand:
    def test_writes_series_and_prints_levels(self, synth_dir, tmp_path, capsys):
        out = tmp_path / "plan.json"
        rc = main([
            "partition", "--graph", str(synth_dir / "graph.csv"),
            "--parts", "4", "--levels", "2", "--seed", "1", "--out", str(out),
        ])
        assert rc == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 2 and lines[0].startswith("level 0: p=4")
        plans = read_plans(out)
        assert [p.p for p in plans] == [4, 2]
        for line, plan in zip(lines, plans):
            fields = dict(f.split("=") for f in line.split()[2:] if "=" in f)
            assert int(fields["m"]) == plan.m
            assert int(fields["min"]) == plan.sizes.min()

    @pytest.mark.parametrize("side, parts, split", [(8, 8, [0, 1, 1]), (24, 16, [0, 2, 1])])
    def test_prints_the_parts_split_in_pieces(self, side, parts, split, tmp_path, capsys):
        graph = tmp_path / "graph.csv"
        save_graph(graph, make_grid_graph(side, side))
        rc = main(["partition", "--graph", str(graph), "--parts", str(parts),
                   "--levels", "3", "--out", str(tmp_path / "plan.json")])
        assert rc == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert [int(line.split("split=")[1].split()[0]) for line in lines] == split

    def test_single_part(self, synth_dir, tmp_path):
        out = tmp_path / "p1.json"
        rc = main(["partition", "--graph", str(synth_dir / "graph.csv"),
                   "--parts", "1", "--out", str(out)])
        assert rc == 0
        plans = read_plans(out)
        assert plans[0].p == 1 and plans[0].edge_cut == 0.0

    def test_infeasible_levels_exit_2(self, synth_dir, tmp_path, capsys):
        rc = main(["partition", "--graph", str(synth_dir / "graph.csv"),
                   "--parts", "4", "--levels", "5", "--out", str(tmp_path / "x.json")])
        assert rc == 2
        assert "maximum feasible levels" in capsys.readouterr().err

    @pytest.mark.parametrize("parts", [1, 4, 16])
    def test_negative_seed_exit_2(self, synth_dir, tmp_path, capsys, parts):
        # p = 1 and p = n return before the partitioner seeds its generator
        rc = main(["partition", "--graph", str(synth_dir / "graph.csv"), "--parts", str(parts),
                   "--seed", "-1", "--out", str(tmp_path / "x.json")])
        assert rc == 2
        assert "seed must be >= 0, got -1" in capsys.readouterr().err
        assert not (tmp_path / "x.json").exists()

    @pytest.mark.parametrize("balance", ["nan", "inf"])
    def test_non_finite_balance_exit_2(self, synth_dir, tmp_path, capsys, balance):
        # Python's json would write the plan's factor as NaN or Infinity
        rc = main(["partition", "--graph", str(synth_dir / "graph.csv"), "--parts", "4",
                   "--balance", balance, "--out", str(tmp_path / "x.json")])
        assert rc == 2
        assert f"balance_factor must be a finite number >= 1, got {float(balance)}" in (
            capsys.readouterr().err)
        assert not (tmp_path / "x.json").exists()

    def test_bad_edge_line_exit_2(self, tmp_path, capsys):
        graph = tmp_path / "graph.csv"
        graph.write_text("0,1,1.0\n1,1,1.0\n")
        rc = main(["partition", "--graph", str(graph), "--parts", "1",
                   "--out", str(tmp_path / "x.json")])
        assert rc == 2
        assert f"{graph}:2: self-loop" in capsys.readouterr().err

    def test_directory_as_graph_exit_2(self, tmp_path, capsys):
        rc = main(["partition", "--graph", str(tmp_path), "--parts", "1",
                   "--out", str(tmp_path / "x.json")])
        assert rc == 2
        assert str(tmp_path) in capsys.readouterr().err

    def test_rerun_byte_identical(self, synth_dir, tmp_path):
        out = tmp_path / "plan.json"
        args = ["partition", "--graph", str(synth_dir / "graph.csv"),
                "--parts", "4", "--levels", "2", "--seed", "2", "--out", str(out)]
        assert main(args) == 0
        first = out.read_bytes()
        assert main(args) == 0
        assert out.read_bytes() == first


class TestTrainEvalCommands:
    def test_train_writes_artifacts(self, run_config):
        config_path, out_dir = run_config
        rc = main(["train", "--config", str(config_path)])
        assert rc == 0
        for artifact in (
            "checkpoint.bin", "checkpoint.json", "history.jsonl",
            "timing.jsonl", "environment.json", "effective_config.json",
            "scale_series.json", "pe.bin", "pe.json",
        ):
            assert (out_dir / artifact).exists(), artifact
        history = [json.loads(l) for l in (out_dir / "history.jsonl").read_text().splitlines()]
        assert len(history) == 2
        assert {"epoch", "train_loss", "val_mae", "flops"} <= set(history[0])
        # the environment sits beside the timings, out of the deterministic records
        env = json.loads((out_dir / "environment.json").read_text())
        assert env["numpy"] == np.__version__
        assert set(env["blas"]) == {"name", "version"}
        assert env["cpu_count"] == os.cpu_count()
        assert env["predict_workers"] >= 1
        for name in ("history.jsonl", "checkpoint.json"):
            assert "numpy" not in (out_dir / name).read_text()

    def test_effective_config_roundtrips(self, run_config):
        config_path, out_dir = run_config
        echoed = load_config(out_dir / "effective_config.json")
        assert echoed == load_config(config_path)

    def test_train_rerun_history_byte_identical(self, trained):
        config_path, out_dir = trained
        first = (out_dir / "history.jsonl").read_bytes()
        ck_first = (out_dir / "checkpoint.bin").read_bytes()
        assert main(["train", "--config", str(config_path)]) == 0
        assert (out_dir / "history.jsonl").read_bytes() == first
        assert (out_dir / "checkpoint.bin").read_bytes() == ck_first

    def test_eval_prints_horizon_table(self, trained, capsys):
        config_path, out_dir = trained
        rc = main(["eval", "--config", str(config_path),
                   "--checkpoint", str(out_dir / "checkpoint"), "--split", "test"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "Horizon 3" in out and "Average" in out and "persistence" in out
        report = json.loads((out_dir / "metrics_test.json").read_text())
        assert report["model"]["rmse"] >= report["model"]["mae"]

    def test_eval_on_lr_zero_training_equals_init(self, run_config, tmp_path, capsys):
        config_path, _ = run_config
        cfg = json.loads(config_path.read_text())
        cfg["train"]["lr"] = 0.0
        cfg["train"]["max_epochs"] = 1
        cfg["paths"]["out_dir"] = str(tmp_path / "zero")
        zero_cfg = tmp_path / "zero.json"
        zero_cfg.write_text(json.dumps(cfg))
        assert main(["train", "--config", str(zero_cfg)]) == 0
        assert main(["eval", "--config", str(zero_cfg),
                     "--checkpoint", str(tmp_path / "zero" / "checkpoint")]) == 0
        # the trained checkpoint equals the seeded initialization bit for bit
        from sbaformer.model import init_params, load_checkpoint

        params, config, seed = load_checkpoint(tmp_path / "zero" / "checkpoint")
        fresh = init_params(config, seed)
        for (_, a), (_, b) in zip(params.named(), fresh.named()):
            assert np.array_equal(a.data, b.data)

    @pytest.mark.parametrize("rows, message", [
        (["0,0.0,x"], ":1: could not convert string to float"),
        ([f"{i},{i}.0,0.0" for i in range(10)], ": coords file has 10 nodes, series has 16"),
    ], ids=["bad-field", "ten-rows"])
    def test_bad_coords_exit_2(self, run_config, tmp_path, capsys, rows, message):
        config_path, _ = run_config
        coords = tmp_path / "coords.csv"
        coords.write_text("\n".join(rows) + "\n")
        cfg = json.loads(config_path.read_text())
        cfg["data"]["coords"] = str(coords)
        cfg["pe"]["block_limit"] = 8
        cfg["paths"]["out_dir"] = str(tmp_path / "out")
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(cfg))
        assert main(["train", "--config", str(bad)]) == 2
        assert f"{coords}{message}" in capsys.readouterr().err

    def test_truncated_checkpoint_exit_2(self, trained, tmp_path, capsys):
        config_path, out_dir = trained
        for ext in (".bin", ".json"):
            blob = (out_dir / f"checkpoint{ext}").read_bytes()
            (tmp_path / f"ck{ext}").write_bytes(blob[:-8] if ext == ".bin" else blob)
        rc = main(["eval", "--config", str(config_path), "--checkpoint", str(tmp_path / "ck")])
        assert rc == 2
        assert "ck.bin: payload holds" in capsys.readouterr().err

    def test_truncated_checkpoint_sidecar_exit_2(self, trained, tmp_path, capsys):
        config_path, out_dir = trained
        (tmp_path / "ck.bin").write_bytes((out_dir / "checkpoint.bin").read_bytes())
        (tmp_path / "ck.json").write_bytes((out_dir / "checkpoint.json").read_bytes()[:100])
        rc = main(["eval", "--config", str(config_path), "--checkpoint", str(tmp_path / "ck")])
        assert rc == 2
        assert f"{tmp_path / 'ck.json'}: not valid JSON" in capsys.readouterr().err

    @pytest.mark.parametrize("edit, message", [
        (lambda doc: doc.pop("config"), "missing key 'config'"),
        (lambda doc: doc["config"].update(bogus=1), "malformed value"),
        (lambda doc: doc["config"].update(d_model=8.0),
         "malformed value (model sizes must be integers: d_model)"),
        (lambda doc: doc["config"].update(heads=True),
         "malformed value (model sizes must be integers: heads)"),
    ], ids=["no-config", "unknown-config-key", "float-d-model", "bool-heads"])
    def test_bad_checkpoint_config_exit_2(self, trained, tmp_path, capsys, edit, message):
        config_path, out_dir = trained
        (tmp_path / "ck.bin").write_bytes((out_dir / "checkpoint.bin").read_bytes())
        doc = json.loads((out_dir / "checkpoint.json").read_text())
        edit(doc)
        (tmp_path / "ck.json").write_text(json.dumps(doc))
        rc = main(["eval", "--config", str(config_path), "--checkpoint", str(tmp_path / "ck")])
        assert rc == 2
        assert f"{tmp_path / 'ck.json'}: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value", [("grad_clip", -1.0), ("eps", 0.0)])
    def test_training_breaking_value_exit_2(self, run_config, tmp_path, capsys, key, value):
        config_path, _ = run_config
        cfg = json.loads(config_path.read_text())
        cfg["train"][key] = value
        cfg["paths"]["out_dir"] = str(tmp_path / "out")
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(cfg))
        assert main(["train", "--config", str(bad)]) == 2
        assert f"train.{key} must be a finite number > 0, got {value}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("key, value, flags", [
        ("max_epochs", 0, []), ("patience", 0, []), ("max_epochs", 2, ["--max-epochs", "0"]),
    ])
    def test_epoch_counts_below_one_exit_2(self, run_config, tmp_path, capsys, key, value, flags):
        config_path, _ = run_config
        cfg = json.loads(config_path.read_text())
        cfg["train"][key] = value
        cfg["paths"]["out_dir"] = str(tmp_path / "out")
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(cfg))
        assert main(["train", "--config", str(bad)] + flags) == 2
        assert f"{key} must be >= 1" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("section, flags, message", [
        ("partition", [], "partition.seed must be >= 0, got -1"),
        ("train", [], "train.seed must be >= 0, got -1"),
        (None, ["--seed", "-1"], "seed must be >= 0, got -1"),
    ], ids=["partition-seed", "train-seed", "seed-flag"])
    def test_negative_seed_exit_2(self, run_config, tmp_path, capsys, no_setup_work,
                                  section, flags, message):
        def negative(cfg):
            if section:
                cfg[section]["seed"] = -1

        bad = _edited(run_config[0], tmp_path, negative)
        assert main(["train", "--config", str(bad)] + flags) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("edit, message", [
        (lambda doc: doc["tensors"][1].update(name="embed", shape=doc["tensors"][0]["shape"]),
         "unexpected checkpoint tensor embed: expected pe_proj at offset"),
        (lambda doc: doc["tensors"][2].update(offset=doc["tensors"][1]["offset"]),
         "unexpected checkpoint tensor block0.intra.wq: expected block0.intra.wq at offset"),
        (lambda doc: doc.update(seed=-1), "seed must be >= 0, got -1"),
    ], ids=["name-twice", "overlapping-offsets", "negative-seed"])
    def test_checkpoint_manifest_save_would_not_write_exit_2(self, trained, tmp_path, capsys,
                                                             edit, message):
        config_path, out_dir = trained
        (tmp_path / "ck.bin").write_bytes((out_dir / "checkpoint.bin").read_bytes())
        doc = json.loads((out_dir / "checkpoint.json").read_text())
        edit(doc)
        (tmp_path / "ck.json").write_text(json.dumps(doc))
        rc = main(["eval", "--config", str(config_path), "--checkpoint", str(tmp_path / "ck")])
        assert rc == 2
        assert message in capsys.readouterr().err

    def test_zero_heads_exit_2(self, run_config, tmp_path, capsys, no_setup_work):
        config_path, _ = run_config
        cfg = json.loads(config_path.read_text())
        cfg["model"]["heads"] = 0
        cfg["paths"]["out_dir"] = str(tmp_path / "out")
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(cfg))
        assert main(["train", "--config", str(bad)]) == 2
        assert "model.heads must be >= 1, got 0" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_eval_mismatched_checkpoint_exit_2(self, trained, tmp_path, capsys,
                                               no_setup_work):
        config_path, out_dir = trained
        wide = _with_d_model(config_path, tmp_path, 16)
        rc = main(["eval", "--config", str(wide), "--checkpoint", str(out_dir / "checkpoint")])
        assert rc == 2
        assert "does not match the run config: d_model (checkpoint 8, run 16)" in (
            capsys.readouterr().err
        )

    @pytest.mark.parametrize("betas", [[0.9], ["a", "b"]], ids=["one", "strings"])
    def test_malformed_betas_exit_2(self, run_config, tmp_path, capsys, betas):
        bad = _edited(run_config[0], tmp_path, lambda cfg: cfg["train"].update(betas=betas))
        assert main(["train", "--config", str(bad)]) == 2
        assert "betas must be two numbers" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("edit, message", [
        (lambda cfg: cfg["model"].update(t=60), "val split has 32 steps, need at least 63"),
        (lambda cfg: cfg["pe"].update(block_limit=2), "block_limit must be at least k+1"),
    ], ids=["t-plus-f-over-split", "block-limit-below-k"])
    def test_bad_sizes_exit_2_before_setup(self, run_config, tmp_path, capsys, no_setup_work,
                                           edit, message):
        bad = _edited(run_config[0], tmp_path, edit)
        assert main(["train", "--config", str(bad)]) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("rows", [["0,x,2.0"], ["0,1,abc"]], ids=["step", "value"])
    def test_bad_series_csv_field_exit_2(self, run_config, tmp_path, capsys, rows):
        series = tmp_path / "series.csv"
        series.write_text("node,step,c0\n0,0,1.0\n" + "\n".join(rows) + "\n")
        bad = _edited(run_config[0], tmp_path,
                      lambda cfg: cfg["data"].update(series=str(series), format="csv"))
        assert main(["train", "--config", str(bad)]) == 2
        assert f"{series}:3: " in capsys.readouterr().err

    @pytest.mark.parametrize("fmt", ["bin", "csv"])
    @pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan], ids=["inf", "-inf", "nan"])
    def test_non_finite_series_exit_2(self, synth_dir, run_config, tmp_path, capsys, fmt, value):
        series, _ = load_series(synth_dir / "series.bin")
        series[3, 40, 0] = value
        path = tmp_path / f"series.{fmt}"
        save_series(path, series, fmt)
        bad = _edited(run_config[0], tmp_path,
                      lambda cfg: cfg["data"].update(series=str(path), format=fmt))
        assert main(["train", "--config", str(bad)]) == 2
        assert f"{path}: payload contains non-finite values" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("section, key, token, message", [
        ("train", "lr", "NaN", "malformed value (NaN is not a JSON number)"),
        ("partition", "balance_factor", "Infinity",
         "malformed value (Infinity is not a JSON number)"),
        ("train", "lr", "1e999", "lr must be a finite number >= 0, got inf"),
        ("partition", "balance_factor", "1e999",
         "balance_factor must be a finite number >= 1, got inf"),
    ])
    def test_non_finite_config_number_exit_2(self, run_config, tmp_path, capsys,
                                             section, key, token, message):
        # 1e999 is valid JSON that Python reads as inf
        bad = _edited(run_config[0], tmp_path, lambda cfg: cfg[section].update({key: "@"}))
        bad.write_text(bad.read_text().replace('"@"', token))
        assert main(["train", "--config", str(bad)]) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_malformed_config_json_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"data": ')
        assert main(["train", "--config", str(bad)]) == 2
        assert f"{bad}: not valid JSON" in capsys.readouterr().err

    def test_strict_schema_violation_exit_2(self, run_config, tmp_path, capsys):
        config_path, _ = run_config
        cfg = json.loads(config_path.read_text())
        cfg["train"]["batchsize"] = 4
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(cfg))
        assert main(["train", "--config", str(bad)]) == 2
        assert "train.batchsize" in capsys.readouterr().err


# One value just outside each rule of RULES that SCHEMA uses.
_OUTSIDE = {">= 0": -1, "> 0": 0, ">= 1": 0, "in [0, 1)": 1,
            "two numbers in (0, 1)": [0.9, 1.0]}


def _rule_breaking_values():
    """(section, key, JSON token) for every SCHEMA row with a rule: a name
    not in its tuple, or one value just outside its rule and, on rows that
    take floats, 1e999 (which Python's json reads as inf)."""
    for section, rows in SCHEMA.items():
        for key, (_, types, rule) in rows.items():
            if isinstance(rule, tuple):
                yield section, key, '"bogus"'
            elif rule is not None:
                takes_floats = isinstance(1.5, types)
                outside = _OUTSIDE[rule]
                yield section, key, json.dumps(float(outside) if takes_floats else outside)
                if takes_floats:
                    yield section, key, "1e999"


@pytest.mark.parametrize("section, key, token", list(_rule_breaking_values()),
                         ids=lambda v: str(v).replace('"', "").replace(" ", ""))
def test_every_rule_exits_2_before_reading_a_file(run_config, tmp_path, capsys,
                                                 no_file_read, section, key, token):
    bad = _edited(run_config[0], tmp_path,
                  lambda cfg: cfg.setdefault(section, {}).update({key: "@"}))
    bad.write_text(bad.read_text().replace('"@"', token))
    assert main(["train", "--config", str(bad)]) == 2
    assert f"{section}.{key} must be " in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def _graph_edit(builder, drop=None, **keys):
    """A config edit that picks a graph builder with `keys` and drops the
    data key `drop`."""
    def edit(cfg):
        cfg["graph"] = {"builder": builder, **keys}
        cfg["data"].pop(drop, None)
    return edit


@pytest.mark.parametrize("edit, message", [
    (lambda cfg: cfg["data"].update(freq_minutes=-5), "data.freq_minutes must be "),
    (lambda cfg: cfg["pe"].update(block_limit=2), "pe.block_limit must be "),
    (lambda cfg: cfg["model"].update(d_model=8, heads=3),
     "d_model=8 must be divisible by heads=3"),
    (_graph_edit("file", "graph"), "graph.builder=file requires data.graph"),
    (_graph_edit("epsilon", "coords", epsilon=1.0), "graph.builder=epsilon requires data.coords"),
    (_graph_edit("epsilon"), "graph.builder=epsilon requires graph.epsilon"),
    (_graph_edit("gaussian", "coords", sigma=1.0), "graph.builder=gaussian requires data.coords"),
    (_graph_edit("gaussian"), "graph.builder=gaussian requires graph.sigma"),
], ids=["negative-freq-minutes", "block-limit-below-k", "heads-split-d-model",
        "file-without-graph", "epsilon-without-coords", "epsilon-without-epsilon",
        "gaussian-without-coords", "gaussian-without-sigma"])
def test_config_faults_exit_2_before_reading_a_file(run_config, tmp_path, capsys,
                                                    no_file_read, edit, message):
    bad = _edited(run_config[0], tmp_path, edit)
    assert main(["train", "--config", str(bad)]) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("flag, value, key", [
    ("--seed", "-1", "train.seed"), ("--max-epochs", "0", "train.max_epochs"),
])
def test_train_flags_meet_their_keys_rule(run_config, tmp_path, capsys, no_file_read,
                                          flag, value, key):
    # the message names the flag's key, not the config file: the flags are
    # checked before the file is read, so a missing file gives the same one
    good = _edited(run_config[0], tmp_path, lambda cfg: None)
    for path in (good, tmp_path / "absent.json"):
        assert main(["train", "--config", str(path), flag, value]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {key} must be >= ") and str(path) not in err
    assert not (tmp_path / "out").exists()


def test_train_flags_land_in_the_effective_config(run_config, tmp_path):
    config_path = _edited(run_config[0], tmp_path, lambda cfg: None)
    assert main(["train", "--config", str(config_path), "--seed", "3", "--max-epochs", "1"]) == 0
    out = tmp_path / "out"
    effective = json.loads((out / "effective_config.json").read_text())
    assert (effective["train"]["seed"], effective["train"]["max_epochs"]) == (3, 1)
    assert len((out / "history.jsonl").read_text().splitlines()) == 1
    flags = {"train": {"seed": 3, "max_epochs": 1}}
    assert load_config(out / "effective_config.json") == load_config(config_path, flags)


def test_bench_is_not_a_command(capsys):
    # the attention-cost table is demo 05's, through flops_estimate
    with pytest.raises(SystemExit) as exit_info:
        main(["bench", "--out", "bench.csv"])
    assert exit_info.value.code == 2
    assert "invalid choice: 'bench'" in capsys.readouterr().err


class TestDumpAttention:
    def test_dump_rows_stochastic_and_valid_sizes(self, trained, tmp_path):
        config_path, out_dir = trained
        dump_dir = tmp_path / "attn"
        rc = main(["dump-attention", "--config", str(config_path),
                   "--checkpoint", str(out_dir / "checkpoint"),
                   "--window", "0", "--out-dir", str(dump_dir)])
        assert rc == 0
        sidecar = json.loads((dump_dir / "block0_intra.json").read_text())
        mats = np.fromfile(dump_dir / "block0_intra.bin", dtype="<f8")
        total = sum(a * b for a, b in sidecar["sizes"])
        assert mats.size == total
        offset = 0
        for rows, cols in sidecar["sizes"]:
            block = mats[offset : offset + rows * cols].reshape(rows, cols)
            np.testing.assert_allclose(block.sum(axis=1), 1.0, atol=1e-9)
            offset += rows * cols
        inter = json.loads((dump_dir / "block0_inter.json").read_text())
        p = inter["sizes"][0][0]
        mat = np.fromfile(dump_dir / "block0_inter.bin", dtype="<f8").reshape(p, p)
        np.testing.assert_allclose(mat.sum(axis=1), 1.0, atol=1e-9)

    def test_mismatched_checkpoint_exit_2(self, trained, tmp_path, capsys, no_setup_work):
        config_path, out_dir = trained
        wide = _with_d_model(config_path, tmp_path, 16)
        rc = main(["dump-attention", "--config", str(wide),
                   "--checkpoint", str(out_dir / "checkpoint"),
                   "--window", "0", "--out-dir", str(tmp_path / "attn")])
        assert rc == 2
        assert "d_model (checkpoint 8, run 16)" in capsys.readouterr().err
        assert not (tmp_path / "attn").exists()

    def test_window_out_of_range_exit_2(self, trained, tmp_path, capsys, no_setup_work):
        config_path, out_dir = trained
        rc = main(["dump-attention", "--config", str(config_path),
                   "--checkpoint", str(out_dir / "checkpoint"),
                   "--window", "999999", "--out-dir", str(tmp_path / "y")])
        assert rc == 2
        assert "window 999999 out of range; test has" in capsys.readouterr().err
        assert not (tmp_path / "y").exists()


@pytest.mark.parametrize("flag, value, message", [
    ("--nodes", "0", "n and steps must be >= 1, got n=0"),
    ("--nodes", "-4", "n and steps must be >= 1, got n=-4"),
    ("--steps", "0", "n and steps must be >= 1, got n=64, steps=0"),
    ("--period", "0", "period must be > 0, got 0.0"),
    ("--noise-std", "-1", "noise_std must be >= 0, got -1.0"),
    ("--seed", "-1", "seed must be >= 0, got -1"),
    ("--noise-std", "nan", "noise_std must be finite, got nan"),
    ("--noise-std", "inf", "noise_std must be finite, got inf"),
    ("--season-amp", "nan", "season_amp must be finite, got nan"),
    ("--season-amp", "inf", "season_amp must be finite, got inf"),
    ("--period", "inf", "period must be finite, got inf"),
    ("--gamma", "nan", "gamma must be finite, got nan"),
])
def test_synth_rejects_sizes_it_cannot_build(tmp_path, capsys, flag, value, message):
    rc = main(["synth", "--out", str(tmp_path / "d"), flag, value])
    assert rc == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "d").exists()


def test_synth_formats_equivalent(tmp_path):
    bin_dir, csv_dir = tmp_path / "b", tmp_path / "c"
    for path, fmt in ((bin_dir, "bin"), (csv_dir, "csv")):
        rc = main(["synth", "--out", str(path), "--nodes", "9", "--steps", "24",
                   "--seed", "5", "--format", fmt])
        assert rc == 0
    from sbaformer.data import load_series

    a, _ = load_series(bin_dir / "series.bin", "bin")
    b, _ = load_series(csv_dir / "series.csv", "csv")
    assert np.array_equal(a, b)
    assert (bin_dir / "graph.csv").read_bytes() == (csv_dir / "graph.csv").read_bytes()
