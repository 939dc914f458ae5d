"""End-to-end tests of the command-line interface.

Every test drives `main(argv)` in process and inspects exit codes, stdout,
and the files written. Reproducibility is asserted the way the tool
promises it: identical (config, seed) gives byte-identical CSVs once the
leading `#` timestamp comment is dropped.
"""

import json
import os
from types import SimpleNamespace

import numpy as np
import pytest

from heterognn import autodiff, cli, training
from heterognn.cli import main
from heterognn.graphs import load_dataset
from heterognn.model import forward, load_checkpoint
from heterognn.signed import expected_gap

SUBCOMMANDS = [
    "gen-csbm", "simulate", "concentration", "desirability", "theory-check",
    "train", "sweep-depth", "analyze-attention", "ablate", "dataset-info",
]


def data_lines(path):
    with open(path, encoding="utf-8") as fh:
        return [line for line in fh if not line.startswith("#")]


def make_toy(tmp_path, name="toy", classes=2, p=0.25, q=0.08, nodes=90,
             seed=3):
    out = str(tmp_path / name)
    means = ",".join(str(v) for v in np.linspace(-1, 1, classes))
    code = main(["gen-csbm", "--nodes", str(nodes), "--classes", str(classes),
                 "--p", str(p), "--q", str(q), f"--means={means}",
                 "--seed", str(seed), "--out", out])
    assert code == 0
    return out


def test_help_lists_every_subcommand(capsys):
    assert main(["--help"]) == 0
    out = capsys.readouterr().out
    for name in SUBCOMMANDS:
        assert name in out


def test_usage_errors_exit_2(capsys):
    assert main(["definitely-not-a-command"]) == 2
    assert main([]) == 2
    assert main(["train"]) == 2  # --data is required
    capsys.readouterr()


def test_seed_is_offered_only_where_it_is_read(tmp_path, capsys):
    toy = make_toy(tmp_path)
    assert main(["dataset-info", toy, "--seed", "1"]) == 2
    assert main(["desirability", "--demo", "--seed", "1"]) == 2
    assert main(["theory-check", "--seed", "1"]) == 0
    capsys.readouterr()


def test_missing_dataset_exits_1(capsys):
    assert main(["dataset-info", "no_such_directory_anywhere"]) == 1
    assert "error:" in capsys.readouterr().err


def test_fractional_n_classes_exits_1(tmp_path, capsys):
    toy = make_toy(tmp_path)
    with open(os.path.join(toy, "meta.json"), "w") as fh:
        json.dump({"n_classes": 2.5}, fh)
    capsys.readouterr()
    assert main(["dataset-info", toy]) == 1
    assert "meta.json: field 'n_classes'" in capsys.readouterr().err


def test_non_finite_feature_exits_1_before_training(tmp_path, capsys):
    toy = make_toy(tmp_path)
    path = os.path.join(toy, "features.tsv")
    with open(path) as fh:
        lines = fh.read().splitlines()
    lines[-1] = "nan"
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    capsys.readouterr()
    assert main(train_args(toy, str(tmp_path / "acc.csv"))) == 1
    err = capsys.readouterr().err
    assert f"features.tsv:{len(lines)}: feature 0 is nan" in err


def test_gen_csbm_writes_a_loadable_dataset(tmp_path, capsys):
    out = make_toy(tmp_path)
    capsys.readouterr()
    g = load_dataset(out)
    assert g.n_nodes == 90
    assert g.n_classes == 2
    assert os.path.isfile(os.path.join(out, "signs.tsv"))
    with open(os.path.join(out, "config.json"), encoding="utf-8") as fh:
        sidecar = json.load(fh)
    assert sidecar["command"] == "gen-csbm"
    assert sidecar["options"]["seed"] == 3

    assert main(["dataset-info", out]) == 0
    info = capsys.readouterr().out
    assert "N=90" in info
    assert "C=2" in info
    assert "homophily=" in info


def test_dataset_name_resolves_under_env_root(tmp_path, monkeypatch, capsys):
    make_toy(tmp_path, name="nested")
    monkeypatch.setenv("HETEROGNN_DATA", str(tmp_path))
    assert main(["dataset-info", "nested"]) == 0
    assert "N=90" in capsys.readouterr().out


def simulate_args(out, seed=0):
    return ["simulate", "--nodes", "120", "--classes", "2", "--p", "0.05",
            "--q", "0.15", "--layers", "3", "--trials", "2",
            "--seed", str(seed), "--out", out]


def test_simulate_is_reproducible_modulo_timestamp(tmp_path):
    a, b, c = (str(tmp_path / n) for n in ("a.csv", "b.csv", "c.csv"))
    assert main(simulate_args(a, seed=0)) == 0
    assert main(simulate_args(b, seed=0)) == 0
    assert main(simulate_args(c, seed=9)) == 0
    assert data_lines(a) == data_lines(b)
    assert data_lines(a) != data_lines(c)
    assert os.path.isfile(str(tmp_path / "a.config.json"))


def test_simulate_parallel_matches_serial(tmp_path):
    serial, parallel = str(tmp_path / "s.csv"), str(tmp_path / "p.csv")
    assert main(simulate_args(serial)) == 0
    assert main(simulate_args(parallel) + ["--jobs", "2"]) == 0
    assert data_lines(serial) == data_lines(parallel)


def test_simulate_columns_carry_the_closed_form(tmp_path):
    out = str(tmp_path / "traj.csv")
    assert main(simulate_args(out)) == 0
    rows = [line.strip().split(",") for line in data_lines(out)[1:]]
    assert len(rows) == 4  # one class pair, layers 0..3
    for row in rows:
        layer = int(row[0])
        assert (row[1], row[2]) == ("0", "1")
        want = expected_gap(0.05, 0.15, 2, layer, [-0.5], [0.5])
        assert float(row[4]) == pytest.approx(want, rel=1e-12)
        assert np.isfinite(float(row[5]))


def test_concentration_reports_per_trial_rows(tmp_path, capsys):
    out = str(tmp_path / "conc.csv")
    code = main(["concentration", "--nodes", "300", "--classes", "3",
                 "--p", "0.01", "--q", "0.03", "--layers", "3",
                 "--trials", "4", "--out", out])
    assert code == 0
    printed = capsys.readouterr().out
    assert "fraction_within=" in printed
    assert "kappa=" in printed
    lines = data_lines(out)
    assert lines[0].strip() == "trial,deviation,bound,within"
    assert len(lines) == 5


def test_desirability_demo_prints_the_violation(capsys):
    assert main(["desirability", "--demo"]) == 0
    out = capsys.readouterr().out
    assert "NOT desirable" in out
    assert "(0, 2)" in out and "(2, 0)" in out
    assert "desirable" in out.splitlines()[1]


def test_desirability_audit_finds_sign_flips_on_three_classes(tmp_path, capsys):
    toy = make_toy(tmp_path, name="tri", classes=3, p=0.1, q=0.3, nodes=60)
    capsys.readouterr()
    assert main(["desirability", toy, "--layers", "2", "--show", "2"]) == 0
    out = capsys.readouterr().out
    assert "single-layer signs from labels: desirable" in out
    assert "NOT desirable" in out


def test_theory_check_passes(capsys):
    assert main(["theory-check", "--seed", "0"]) == 0
    out = capsys.readouterr().out
    assert out.count("ok:") == 5
    assert "FAIL" not in out


def train_args(data, out, extra=()):
    return ["train", "--data", data, "--hidden", "8", "--chunks", "2",
            "--layers", "2", "--max-epochs", "8", "--patience", "8",
            "--splits", "2", "--out", out, *extra]


def test_train_writes_accuracy_rows_and_checkpoint(tmp_path, capsys):
    toy = make_toy(tmp_path)
    out = str(tmp_path / "acc.csv")
    ckpt = str(tmp_path / "ckpt")
    assert main(train_args(toy, out, ["--save-checkpoint", ckpt])) == 0
    assert "mean=" in capsys.readouterr().out
    lines = data_lines(out)
    assert lines[0].strip() == "dataset,seed,split,K,acc"
    assert len(lines) == 3
    for line in lines[1:]:
        dataset, seed, split, k, acc = line.strip().split(",")
        assert dataset == "toy"
        assert k == "2"
        assert 0.0 <= float(acc) <= 1.0
    config, params, n_feat, n_cls = load_checkpoint(ckpt)
    assert (n_feat, n_cls) == (1, 2)
    assert config.hidden == 8
    sidecar = json.loads((tmp_path / "acc.config.json").read_text())
    assert sidecar["command"] == "train"
    assert sidecar["options"]["splits"] == 2


def test_train_is_reproducible_modulo_timestamp(tmp_path):
    toy = make_toy(tmp_path)
    a, b = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
    assert main(train_args(toy, a)) == 0
    assert main(train_args(toy, b)) == 0
    assert data_lines(a) == data_lines(b)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # overflow is the point
def test_train_divergence_exits_1(tmp_path, capsys):
    toy = make_toy(tmp_path)
    out = str(tmp_path / "acc.csv")
    code = main(train_args(toy, out, ["--lr", "100000", "--weight-decay",
                                      "100000", "--max-epochs", "100"]))
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_train_exits_1_when_a_gradient_is_not_finite(tmp_path, monkeypatch, capsys):
    # the forward pass and the loss stay finite; every gradient the
    # backward pass accumulates is NaN
    toy = make_toy(tmp_path)
    accumulate = autodiff._accum
    monkeypatch.setattr(autodiff, "_accum", lambda t, g: accumulate(t, g * np.nan))
    code = main(train_args(toy, str(tmp_path / "acc.csv"), ["--max-epochs", "1"]))
    assert code == 1
    err = capsys.readouterr().err
    assert "gradient of" in err and "epoch 0" in err


def test_sweep_depth_writes_one_row_per_split_and_depth(tmp_path):
    toy = make_toy(tmp_path)
    out = str(tmp_path / "sweep.csv")
    code = main(["sweep-depth", "--data", toy, "--hidden", "8", "--chunks",
                 "2", "--k-list", "1,2", "--splits", "1", "--max-epochs",
                 "4", "--patience", "4", "--out", out])
    assert code == 0
    lines = data_lines(out)
    assert lines[0].strip() == "dataset,seed,split,K,acc"
    depths = [line.strip().split(",")[3] for line in lines[1:]]
    assert depths == ["1", "2"]


def test_analyze_attention_writes_class_matrix(tmp_path, capsys):
    toy = make_toy(tmp_path)
    out = str(tmp_path / "att.csv")
    code = main(["analyze-attention", "--data", toy, "--hidden", "8",
                 "--chunks", "2", "--layers", "2", "--max-epochs", "6",
                 "--patience", "6", "--out", out])
    assert code == 0
    printed = capsys.readouterr().out
    assert "diagonal-dominant columns:" in printed
    assert "mixing score:" in printed
    lines = data_lines(out)
    assert lines[0].strip() == "class_row,class_col,value"
    assert len(lines) == 5  # header + 2x2 matrix
    values = np.array([float(l.strip().split(",")[2]) for l in lines[1:]])
    np.testing.assert_allclose(values.reshape(2, 2).sum(axis=1), 1.0,
                               atol=1e-9)


def test_analyze_attention_runs_one_eval_forward_after_training(
        tmp_path, capsys, monkeypatch):
    # train's 2 forwards per epoch, then one eval forward whose scores feed
    # both the alignment and the mixing score
    calls = []

    def counting_forward(tape, *args, **kwargs):
        calls.append(tape.recording)
        return forward(tape, *args, **kwargs)

    monkeypatch.setattr(training, "forward", counting_forward)
    toy = make_toy(tmp_path)
    code = main(["analyze-attention", "--data", toy, "--hidden", "8",
                 "--chunks", "2", "--layers", "2", "--max-epochs", "5",
                 "--patience", "5", "--out", str(tmp_path / "att.csv")])
    assert code == 0
    assert "mixing score:" in capsys.readouterr().out
    assert calls == [True, False] * 5 + [False]


def test_analyze_attention_rejects_chunk_mismatch(tmp_path, capsys):
    toy = make_toy(tmp_path)  # 2 classes
    out = str(tmp_path / "att.csv")
    code = main(["analyze-attention", "--data", toy, "--hidden", "9",
                 "--chunks", "3", "--max-epochs", "4", "--patience", "4",
                 "--out", out])
    assert code == 1
    assert "chunks == classes" in capsys.readouterr().err


def test_analyze_attention_rejects_truncated_checkpoint(tmp_path, capsys):
    toy = make_toy(tmp_path)
    ckpt = str(tmp_path / "ckpt")
    assert main(train_args(toy, str(tmp_path / "acc.csv"),
                           ["--save-checkpoint", ckpt])) == 0
    with open(ckpt + ".bin", "r+b") as fh:
        fh.truncate(os.path.getsize(ckpt + ".bin") - 8)
    capsys.readouterr()
    code = main(["analyze-attention", "--data", toy, "--checkpoint", ckpt,
                 "--out", str(tmp_path / "att.csv")])
    assert code == 1
    assert "ckpt.bin" in capsys.readouterr().err


def test_analyze_attention_rejects_unknown_checkpoint_config_field(tmp_path, capsys):
    toy = make_toy(tmp_path)
    ckpt = str(tmp_path / "ckpt")
    assert main(train_args(toy, str(tmp_path / "acc.csv"),
                           ["--save-checkpoint", ckpt])) == 0
    with open(ckpt + ".json") as fh:
        manifest = json.load(fh)
    manifest["config"]["hiddn"] = manifest["config"].pop("hidden")
    with open(ckpt + ".json", "w") as fh:
        json.dump(manifest, fh)
    capsys.readouterr()
    code = main(["analyze-attention", "--data", toy, "--checkpoint", ckpt,
                 "--out", str(tmp_path / "att.csv")])
    assert code == 1
    assert "ckpt.json: field 'config'" in capsys.readouterr().err


def test_parallel_train_saves_the_same_checkpoint_bytes(tmp_path):
    toy = make_toy(tmp_path)
    blobs = []
    for jobs in ("1", "2"):
        ckpt = str(tmp_path / f"ckpt{jobs}")
        assert main(train_args(toy, str(tmp_path / f"acc{jobs}.csv"),
                               ["--jobs", jobs, "--save-checkpoint", ckpt])) == 0
        blobs.append([open(ckpt + ext, "rb").read() for ext in (".json", ".bin")])
    assert blobs[0] == blobs[1]


def test_process_pool_is_sized_to_the_items(tmp_path, monkeypatch):
    sizes = []

    class RecordingPool:
        """Stands in for ProcessPoolExecutor: records its size, starts no process."""

        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(cli, "futures",
                        SimpleNamespace(ProcessPoolExecutor=RecordingPool))
    assert cli._pmap(abs, [-1, -2, -3], 8) == [1, 2, 3]
    assert cli._pmap(abs, [-4], 8) == [4]
    assert cli._pmap(abs, [], 8) == []
    assert cli._pmap(abs, [-5, -6], 1) == [5, 6]
    assert sizes == [3]
    toy = make_toy(tmp_path)
    assert main(train_args(toy, str(tmp_path / "acc.csv"), ["--jobs", "8"])) == 0
    assert sizes == [3, 2]  # two splits, two workers


def test_ablate_writes_grid_rows(tmp_path, capsys):
    toy = make_toy(tmp_path)
    out = str(tmp_path / "abl.csv")
    code = main(["ablate", "--data", toy, "--hidden", "8", "--chunks-list",
                 "1,2", "--lambda-list", "0.5", "--k-list", "1,2",
                 "--max-epochs", "4", "--patience", "4", "--out", out])
    assert code == 0
    capsys.readouterr()
    lines = data_lines(out)
    assert lines[0].strip() == "chunks,lambda,mixing,best_acc,acc_k32"
    cells = [line.strip().split(",")[:2] for line in lines[1:]]
    assert cells == [["1", "0.5"], ["2", "0.5"]]


def test_shipped_configs_load_and_validate(tmp_path, capsys):
    toy = make_toy(tmp_path, name="five", classes=5, p=0.3, q=0.1, nodes=100)
    out = str(tmp_path / "acc.csv")
    # texas ships chunks=5/hidden=80; shrink the rest to keep the test quick
    code = main(["train", "--data", toy, "--config", "texas", "--hidden",
                 "10", "--max-epochs", "4", "--patience", "4", "--splits",
                 "1", "--out", out])
    assert code == 0
    capsys.readouterr()
    sidecar = json.loads((tmp_path / "acc.config.json").read_text())
    assert sidecar["options"]["config"] == "texas"


def test_unknown_config_key_exits_1(tmp_path, capsys):
    toy = make_toy(tmp_path)
    bad = tmp_path / "bad.json"
    bad.write_text('{"hidden": 8, "chunks": 2, "layers": 1, "typo_key": 3}')
    out = str(tmp_path / "acc.csv")
    code = main(["train", "--data", toy, "--config", str(bad), "--out", out])
    assert code == 1
    assert "typo_key" in capsys.readouterr().err


SEEDED_COMMANDS = {
    "train": ["--splits", "1"],
    "sweep-depth": ["--k-list", "1", "--splits", "1"],
    "ablate": ["--chunks-list", "2", "--lambda-list", "0", "--k-list", "1"],
    "analyze-attention": [],
}


@pytest.mark.parametrize("command", sorted(SEEDED_COMMANDS))
def test_config_file_seed_applies_unless_flag_given(tmp_path, capsys, command):
    toy = make_toy(tmp_path)
    cfg = tmp_path / "seeded.json"
    cfg.write_text('{"hidden": 8, "chunks": 2, "layers": 1, "seed": 7, '
                   '"max_epochs": 3, "patience": 3}')
    runs = {"file": [], "flag": ["--seed", "7"], "other": ["--seed", "3"]}
    for name, extra in runs.items():
        argv = [command, "--data", toy, "--config", str(cfg),
                "--out", str(tmp_path / f"{name}.csv"),
                *SEEDED_COMMANDS[command], *extra]
        assert main(argv) == 0
    capsys.readouterr()
    recorded = {
        name: json.loads((tmp_path / f"{name}.config.json").read_text())
        ["options"]["seed"]
        for name in runs
    }
    assert recorded == {"file": 7, "flag": 7, "other": 3}
    assert (data_lines(str(tmp_path / "file.csv"))
            == data_lines(str(tmp_path / "flag.csv")))
