"""End-to-end tests of the command-line interface.

Every test drives `main(argv)` in process and inspects exit codes, stdout,
and the files written. Reproducibility is asserted the way the tool
promises it: identical (config, seed) gives byte-identical CSVs once the
leading `#` timestamp comment is dropped.
"""

import argparse
import json
import os
import tracemalloc
import warnings
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse as sp

from heterognn import autodiff, cli, training
from heterognn.cli import main
from heterognn.graphs import build_graph, load_dataset, save_dataset
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


@pytest.mark.parametrize("name, data", [("meta.json", b"{bad"),
                                        ("meta.json", b"[3]"),
                                        ("edges.tsv", b"0\t1\n1\t\xff2\n")])
def test_unreadable_dataset_file_exits_1_naming_it(tmp_path, capsys, name, data):
    toy = make_toy(tmp_path)
    with open(os.path.join(toy, name), "wb") as fh:
        fh.write(data)
    capsys.readouterr()
    assert main(["dataset-info", toy]) == 1
    assert f"error: {os.path.join(toy, name)}: " in capsys.readouterr().err


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


def test_neighbouring_seeds_share_no_simulate_trial(tmp_path, monkeypatch):
    drawn = []
    trajectory = cli.csbm_trajectory

    def recording(params, K):
        drawn.append(params.seed)
        return trajectory(params, K)

    monkeypatch.setattr(cli, "csbm_trajectory", recording)
    for seed in (0, 1):
        out = str(tmp_path / f"s{seed}.csv")
        assert main(simulate_args(out, seed=seed) + ["--trials", "4"]) == 0
    first, second = set(drawn[:4]), set(drawn[4:])
    assert len(first) == len(second) == 4
    assert not first & second


def test_neighbouring_seeds_share_no_split_or_initialisation(tmp_path):
    toy = make_toy(tmp_path)
    runs = {}
    for seed in ("0", "1"):
        args = cli.build_parser().parse_args(
            ["train", "--data", toy, "--seed", seed, "--split-seed", seed])
        _, _, runs[seed] = cli._run_splits(
            args, lambda g, config, split, **kw: (config.seed, split.seed), 3)
    for which in (0, 1):  # the initialisation seeds, then the split seeds
        first = {run[which] for run in runs["0"]}
        second = {run[which] for run in runs["1"]}
        assert len(first) == len(second) == 3
        assert not first & second


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


@pytest.mark.filterwarnings("ignore:dropping:UserWarning")  # d-bar about 5
def test_simulate_memory_does_not_grow_with_trials(tmp_path, capsys):
    # trials are pooled into per-class statistics, so eight trials peak
    # where one does; a kept N x f embedding per trial adds 0.23 MiB each
    def peak_mib(trials):
        tracemalloc.start()
        try:
            assert main(["simulate", "-N", "30000", "--p", "0.0003",
                         "--q", "0.0001", "-K", "2", "--trials", str(trials),
                         "--out", str(tmp_path / f"t{trials}.csv")]) == 0
            return tracemalloc.get_traced_memory()[1] / 2**20
        finally:
            tracemalloc.stop()

    one, eight = peak_mib(1), peak_mib(8)
    capsys.readouterr()
    assert eight - one < 0.25, f"8 trials peak {eight - one:+.2f} MiB over 1"


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


def test_desirability_negative_show_exits_1_naming_it(tmp_path, capsys):
    toy = make_toy(tmp_path)
    capsys.readouterr()
    assert main(["desirability", toy, "--show", "-1"]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and "--show" in captured.err
    assert captured.out == ""
    assert main(["desirability", toy, "--show", "0"]) == 0
    assert "... and" not in capsys.readouterr().out


def test_desirability_of_an_edgeless_dataset_exits_1(tmp_path, capsys):
    bare = tmp_path / "bare"
    save_dataset(bare, build_graph(4, [], np.zeros((4, 1)), [0, 1, 0, 1], 2))
    assert main(["desirability", str(bare)]) == 1
    assert "no edges to audit" in capsys.readouterr().err


@pytest.mark.parametrize("flag, value", [("--layers", "0"), ("--layers", "-2"),
                                         ("--atol", "-1"), ("--atol", "nan"),
                                         ("--atol", "inf")])
def test_desirability_bad_layers_or_atol_exits_1_naming_it(tmp_path, capsys,
                                                            flag, value):
    toy = make_toy(tmp_path)
    capsys.readouterr()
    assert main(["desirability", toy, flag, value]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and flag in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("command", ["gen-csbm", "simulate", "concentration"])
@pytest.mark.parametrize("flag", ["--nodes", "--classes"])
def test_csbm_count_below_one_exits_1_naming_it(tmp_path, capsys, command, flag):
    out = tmp_path / "out"
    assert main([command, flag, "0", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and flag in err, err
    assert not out.exists()


def test_concentration_negative_r_exits_1_naming_it(tmp_path, capsys):
    out = tmp_path / "out.csv"
    assert main(["concentration", "--r", "-1", "--nodes", "60", "--trials", "2",
                 "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: --r: r must be at least 0"), captured.err
    assert captured.out == ""
    assert not out.exists()


def test_every_flag_has_a_rule_or_is_unchecked():
    # a new flag must name its rule in FLAG_RULES, or be a path or a switch
    commands = next(a for a in cli.build_parser()._actions
                    if isinstance(a, argparse._SubParsersAction))
    for name, sub in commands.choices.items():
        for action in sub._actions:
            if not isinstance(action, argparse._HelpAction):
                assert (action.dest in cli.FLAG_RULES
                        or action.dest in cli.UNCHECKED), (name, action.dest)


BAD_FLAG_VALUES = [
    (["concentration", "--layers", "-1", "-N", "60", "--trials", "1"], "--layers"),
    (["desirability", "--demo", "--layers", "0"], "--layers"),
    (["simulate", "--seed", "-1"], "--seed"),
    (["gen-csbm", "--seed", "-1", "--out", "ds"], "--seed"),
    (["theory-check", "--seed", "-1"], "--seed"),
    (["train", "--data", "ds", "--split-seed", "-1"], "--split-seed"),
    (["simulate", "--p", "1.5"], "--p"),
    (["concentration", "--sigma", "0"], "--sigma"),
    (["gen-csbm", "--noise-var", "-1", "--out", "ds"], "--noise-var"),
    (["ablate", "--data", "ds", "--chunks-list", "2,0"], "--chunks-list"),
]


@pytest.mark.parametrize("argv, flag", BAD_FLAG_VALUES,
                         ids=[" ".join(argv) for argv, _ in BAD_FLAG_VALUES])
def test_out_of_range_flag_exits_1_naming_it_before_any_output(tmp_path, monkeypatch,
                                                               capsys, argv, flag):
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: {flag}: "), captured.err
    assert captured.out == ""
    assert os.listdir(tmp_path) == []


EDGE_FLAG_VALUES = [
    ["concentration", "--r", "0", "-K", "1", "--p", "0.2", "--q", "0.2"],
    ["simulate", "--p", "0", "--q", "0.2", "-K", "1"],
    ["simulate", "--p", "1", "-K", "1"],
    ["simulate", "--layers", "0", "--p", "0.2", "--q", "0.2"],
]


@pytest.mark.parametrize("argv", EDGE_FLAG_VALUES, ids=" ".join)
def test_edge_flag_values_pass(tmp_path, capsys, argv):
    out = tmp_path / "out.csv"
    assert main([*argv, "-N", "60", "--trials", "1", "--out", str(out)]) == 0
    capsys.readouterr()
    assert out.exists()


@pytest.mark.parametrize("argv, flag, good", [
    (["sweep-depth", "--k-list"], "2,0", "1"),
    (["ablate", "--chunks-list", "2", "--k-list", "1", "--lambda-list"], "0,-1", "0"),
], ids=["sweep-depth", "ablate"])
def test_a_bad_list_value_exits_1_before_any_training(tmp_path, monkeypatch, capsys,
                                                      argv, flag, good):
    calls = []
    real_train = training.train
    monkeypatch.setattr(training, "train",
                        lambda *a, **kw: calls.append(1) or real_train(*a, **kw))
    toy = make_toy(tmp_path)
    out = tmp_path / "out.csv"
    common = ["--data", toy, "--hidden", "8", "--chunks", "2", "--max-epochs", "2",
              "--out", str(out)]
    capsys.readouterr()
    assert main([*argv, flag, *common]) == 1
    assert capsys.readouterr().err.startswith(f"error: {argv[-1]}: ")
    assert calls == [] and not out.exists()
    assert main([*argv, good, *common]) == 0
    capsys.readouterr()
    assert calls  # the count sees a good run train


NON_FINITE_FLAGS = [
    (["concentration", "--sigma", "nan"], "--sigma"),
    (["concentration", "--sigma", "inf"], "--sigma"),
    (["concentration", "--r", "inf"], "--r"),
    (["simulate", "--means=0,nan,1"], "--means"),
    (["simulate", "--p", "nan"], "--p"),
    (["simulate", "--noise-var", "inf"], "--noise-var"),
    (["gen-csbm", "--means=0,inf,1"], "--means"),
    (["gen-csbm", "--q=-inf"], "--q"),
    (["gen-csbm", "--means=a,b,c"], "--means"),
]


@pytest.mark.parametrize("argv, flag", NON_FINITE_FLAGS,
                         ids=[" ".join(argv) for argv, _ in NON_FINITE_FLAGS])
def test_non_finite_analysis_flag_exits_1_naming_it(tmp_path, capsys, argv, flag):
    out = tmp_path / "out"
    assert main([*argv, "--nodes", "60", "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and flag in captured.err, captured.err
    assert captured.out == ""
    assert not out.exists()


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


def test_train_on_an_edgeless_dataset_needs_reg_strength_0(tmp_path, capsys):
    # the default config's chunk-balance penalty averages over arcs
    rng = np.random.default_rng(0)
    bare = tmp_path / "bare"
    save_dataset(bare, build_graph(30, [], rng.normal(size=(30, 4)),
                                   np.arange(30) % 3, 3))
    argv = ["train", "--data", str(bare), "--chunks", "3", "--hidden", "12",
            "--max-epochs", "3", "--splits", "1", "--out", str(tmp_path / "acc.csv")]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "reg_strength" in err, err
        assert main([*argv, "--reg-strength", "0"]) == 0


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


@pytest.mark.parametrize("edit, field", [
    (lambda m: m["arrays"][0].update(offset=3), "'arrays[0].offset'"),
    (lambda m: m.update(n_features="abc"), "'n_features'"),
    (lambda m: m.update(arrays=5), "'arrays'"),
    (lambda m: m["arrays"][0].pop("offset"), "'arrays[0]' has no 'offset'"),
], ids=["misaligned-offset", "string-n_features", "arrays-not-a-list",
        "missing-offset"])
def test_analyze_attention_rejects_a_malformed_checkpoint_manifest(tmp_path, capsys,
                                                                   edit, field):
    toy = make_toy(tmp_path)
    ckpt = str(tmp_path / "ckpt")
    assert main(train_args(toy, str(tmp_path / "acc.csv"),
                           ["--save-checkpoint", ckpt])) == 0
    with open(ckpt + ".json") as fh:
        manifest = json.load(fh)
    edit(manifest)
    with open(ckpt + ".json", "w") as fh:
        json.dump(manifest, fh)
    capsys.readouterr()
    code = main(["analyze-attention", "--data", toy, "--checkpoint", ckpt,
                 "--out", str(tmp_path / "att.csv")])
    assert code == 1
    assert f"ckpt.json: field {field}" in capsys.readouterr().err


def test_train_saves_the_split_that_validates_best(tmp_path, monkeypatch):
    # split 0 tests best, splits 1 and 2 tie on validation: split 1 is saved
    scripted = iter([(0.5, 0.9), (0.8, 0.6), (0.8, 0.7)])  # (val, test)
    trained = []

    def scripted_train(g, config, split, **kw):
        record, params = training.train(g, config, split, **kw)
        val, test = next(scripted)
        record = replace(record, val_accuracies=[val] * record.n_epochs,
                         test_accuracy=test)
        trained.append(params)
        return record, params

    monkeypatch.setattr(cli, "train", scripted_train)
    toy = make_toy(tmp_path)
    ckpt = str(tmp_path / "ckpt")
    assert main(train_args(toy, str(tmp_path / "acc.csv"),
                           ["--splits", "3", "--save-checkpoint", ckpt])) == 0
    _, params, _, _ = load_checkpoint(ckpt)
    for saved, split_1 in zip(params.tensors(), trained[1].tensors()):
        assert np.array_equal(saved.data, split_1.data)
    manifest = json.loads(open(ckpt + ".json", encoding="utf-8").read())
    assert manifest["extra"]["test_accuracy"] == 0.6


def test_parallel_train_saves_the_same_checkpoint_bytes(tmp_path):
    toy = make_toy(tmp_path)
    blobs = []
    for jobs in ("1", "2"):
        ckpt = str(tmp_path / f"ckpt{jobs}")
        assert main(train_args(toy, str(tmp_path / f"acc{jobs}.csv"),
                               ["--jobs", jobs, "--save-checkpoint", ckpt])) == 0
        blobs.append([open(ckpt + ext, "rb").read() for ext in (".json", ".bin")])
    assert blobs[0] == blobs[1]


def test_parallel_train_on_bag_of_words_saves_the_same_checkpoint_bytes(tmp_path):
    # the workers get the Graph pickled; the encoder multiplies its sparse
    # features as a CSR matrix in each of them
    rng = np.random.default_rng(8)
    words = (rng.random((40, 300)) < 0.02).astype(float)
    words[np.arange(40), rng.integers(0, 300, 40)] = 1.0
    edges = [(i, j) for i in range(40) for j in range(i + 1, 40)
             if rng.random() < 0.1]
    bag = str(tmp_path / "bag")
    save_dataset(bag, build_graph(40, edges, words, np.arange(40) % 3, 3))
    assert sp.issparse(load_dataset(bag, row_normalize=True).encoder_operand)
    blobs = []
    for jobs in ("1", "2"):
        ckpt = str(tmp_path / f"ckpt{jobs}")
        assert main(train_args(bag, str(tmp_path / f"acc{jobs}.csv"),
                               ["--jobs", jobs, "--row-normalize",
                                "--save-checkpoint", ckpt])) == 0
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


@pytest.mark.parametrize("fields, extra, message", [
    ({"max_epochs": "5"}, [],
     "config '{cfg}', field 'max_epochs': max_epochs must be an integer"),
    ({"hidden": "64"}, [],
     "config '{cfg}', field 'hidden': hidden must be an integer, got '64'"),
    ({"patience": 0}, [],
     "config '{cfg}', field 'patience': patience must be at least 1"),
    ({}, ["--lr", "-1"], "--lr: lr must be positive, got -1.0"),
    ({}, ["--weight-decay", "nan"],
     "--weight-decay: weight_decay must be a finite number, got nan"),
    ({}, ["--keep-prob", "0"], "--keep-prob: keep_prob must lie in (0, 1]"),
])
def test_bad_run_setting_names_the_file_field_or_flag(tmp_path, capsys, fields,
                                                      extra, message):
    toy = make_toy(tmp_path)
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"hidden": 8, "chunks": 2, "layers": 1,
                               "max_epochs": 2, "patience": 2, **fields}))
    code = main(["train", "--data", toy, "--config", str(cfg), "--splits", "1",
                 "--out", str(tmp_path / "acc.csv"), *extra])
    err = capsys.readouterr().err
    assert code == 1
    assert message.format(cfg=cfg) in err
    assert "Traceback" not in err


def test_a_good_flag_overrides_a_bad_config_value(tmp_path, capsys):
    toy = make_toy(tmp_path)
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"hidden": "64", "chunks": 2, "layers": 1, "max_epochs": 2}')
    assert main(["train", "--data", toy, "--config", str(cfg), "--hidden", "8",
                 "--splits", "1", "--out", str(tmp_path / "acc.csv")]) == 0
    capsys.readouterr()


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


BAD_COUNTS_AND_LISTS = [
    (["train", "--splits", "0"], "--splits"),
    (["train", "--jobs", "0"], "--jobs"),
    (["train", "--jobs", "-3"], "--jobs"),
    (["sweep-depth", "--k-list", ""], "--k-list"),
    (["sweep-depth", "--k-list", "2,x"], "--k-list"),
    (["ablate", "--chunks-list", ""], "--chunks-list"),
    (["ablate", "--lambda-list", ","], "--lambda-list"),
    (["simulate", "--trials", "0"], "--trials"),
    (["concentration", "--trials", "0"], "--trials"),
]


@pytest.mark.parametrize("argv, flag", BAD_COUNTS_AND_LISTS,
                         ids=[" ".join(argv) for argv, _ in BAD_COUNTS_AND_LISTS])
def test_empty_count_or_list_flag_exits_1_naming_it(tmp_path, capsys, argv, flag):
    toy = make_toy(tmp_path)
    capsys.readouterr()
    out = tmp_path / "out.csv"
    data = ["--data", toy, "--hidden", "8", "--chunks", "2", "--max-epochs", "2"]
    if argv[0] in ("simulate", "concentration"):
        data = ["--nodes", "60"]
    assert main([*argv, *data, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and flag in err, err
    assert not out.exists()
