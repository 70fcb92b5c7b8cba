import csv
import os
import shutil
import subprocess
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

from invkge import cli, evaluation, models
from invkge.cli import main
from invkge.core import Vocabulary
from invkge.datasets import (generate_planted_splits, generate_trainable_splits, load_split_dir,
                             write_splits)
from invkge.evaluation import embed_ookg, filtered_rank
from invkge.models import (MODELS, TRANSE, EmbeddingTables, init_tables, load_checkpoint,
                           save_checkpoint)
from invkge.training import TrainConfig


@pytest.fixture(scope="module")
def lp_dataset(tmp_path_factory):
    root = tmp_path_factory.mktemp("lp_data")
    splits, tables = generate_planted_splits(61, 150, 6, 420, 0.1, task="lp")
    write_splits(splits, root)
    save_checkpoint(tables, root / "gt.bin", seed=61)
    return root, splits, tables


@pytest.fixture(scope="module")
def tc_dataset(tmp_path_factory):
    root = tmp_path_factory.mktemp("tc_data")
    splits, tables = generate_planted_splits(67, 150, 6, 420, 0.1, task="classification")
    write_splits(splits, root)
    save_checkpoint(tables, root / "gt.bin", seed=67)
    return root, splits, tables


def _split_flags(root):
    return ["--train", str(root / "train.txt"), "--valid", str(root / "valid.txt"),
            "--aux", str(root / "aux.txt"), "--test", str(root / "test.txt")]


def test_pretrain_zero_steps_equals_initialization(lp_dataset, tmp_path):
    root, splits, _ = lp_dataset
    out = tmp_path / "run"
    rc = main(["pretrain", *_split_flags(root), "--model", "transe", "--dim", "8",
               "--gamma", "2.0", "--neg", "4", "--steps", "0", "--seed", "11",
               "--batch-size", "32", "--out", str(out)])
    assert rc == 0
    tables, seed = load_checkpoint(out / "checkpoint.bin")
    assert seed == 11
    init = init_tables(11, TRANSE, 8, splits.vocab.num_entities,
                       splits.vocab.num_relations, margin=2.0)
    assert np.array_equal(tables.entity, init.entity.astype("<f4").astype(np.float64))
    assert (out / "loss.csv").read_text().splitlines()[0] == "step,loss"
    assert (out / "vocab.json").exists()
    assert (out / "config.txt").exists()


def test_pretrain_deterministic_and_config_echo_reproduces(lp_dataset, tmp_path):
    root, _, _ = lp_dataset
    args = ["pretrain", *_split_flags(root), "--dim", "8", "--gamma", "2.0",
            "--neg", "4", "--steps", "30", "--batch-size", "32", "--seed", "3"]
    out1, out2, out3 = tmp_path / "a", tmp_path / "b", tmp_path / "c"
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    bytes1 = (out1 / "checkpoint.bin").read_bytes()
    assert bytes1 == (out2 / "checkpoint.bin").read_bytes()
    # re-run purely from the echoed config
    assert main(["pretrain", "--config", str(out1 / "config.txt"), "--out", str(out3)]) == 0
    assert bytes1 == (out3 / "checkpoint.bin").read_bytes()


def test_failed_loss_write_keeps_the_old_file(lp_dataset, tmp_path, monkeypatch):
    root, _, _ = lp_dataset
    out = tmp_path / "run"
    args = ["pretrain", *_split_flags(root), "--dim", "4", "--gamma", "2.0", "--neg", "2",
            "--batch-size", "16", "--log-every", "1", "--out", str(out)]
    assert main(args + ["--steps", "3"]) == 0
    before = (out / "loss.csv").read_bytes()
    replace = os.replace

    def fail_on_loss(src, dst):   # the temporary loss.csv is written in full first
        if Path(dst).name == "loss.csv":
            raise OSError("disk went away")
        replace(src, dst)

    monkeypatch.setattr(os, "replace", fail_on_loss)
    assert main(args + ["--steps", "5"]) == 1
    assert (out / "loss.csv").read_bytes() == before
    assert sorted(p.name for p in out.iterdir()) == ["checkpoint.bin", "config.txt",
                                                     "loss.csv", "vocab.json"]


@pytest.mark.parametrize("argv", [
    ["pretrain", "--gamma", "nan"], ["pretrain", "--gamma", "inf"],
    ["pretrain", "--lr", "nan"], ["pretrain", "--lr", "inf"],
    ["pretrain", "--l2", "nan"], ["pretrain", "--l2", "inf"],
    ["pretrain", "--alpha", "nan"], ["pretrain", "--alpha", "inf"],
    ["eval", "--task", "tc", "--delta", "nan"], ["eval", "--task", "tc", "--delta", "inf"],
    ["estimate", "--task", "tc", "--delta", "nan"],
    # smoothing is checked whether or not the scheme reads it
    ["eval", "--task", "lp", "--delta", "nan"], ["eval", "--task", "lp", "--delta", "-5"],
    ["eval", "--task", "tc", "--scheme", "uniform", "--delta", "0"],
    ["estimate", "--task", "tc", "--scheme", "uniform", "--delta", "nan"],
    ["ablate", "--task", "tc", "--variants", "uniform", "--delta", "nan"]], ids=" ".join)
def test_non_finite_hyper_parameters_exit_1_and_write_nothing(lp_dataset, tc_dataset, tmp_path,
                                                              capsys, argv):
    root, _, _ = lp_dataset if "lp" in argv else tc_dataset
    out = tmp_path / "run"
    rest = (["--task", "tc", "--dim", "4", "--neg", "2", "--batch-size", "16", "--steps", "1"]
            if argv[0] == "pretrain" else ["--checkpoint", str(root / "gt.bin")])
    assert main([*argv, *_split_flags(root), *rest, "--out", str(out)]) == 1
    assert "must be finite" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["estimate", "eval"])
@pytest.mark.parametrize("cap", ["0", "-2"])
def test_cap_below_one_exits_1_naming_it_and_writes_nothing(tc_dataset, tmp_path, capsys,
                                                            command, cap):
    root, _, _ = tc_dataset
    out = tmp_path / "run"
    assert main([command, *_split_flags(root), "--task", "tc", "--checkpoint",
                 str(root / "gt.bin"), "--cap", cap, "--out", str(out)]) == 1
    assert f"neighbor cap must be >= 1, got {cap}" in capsys.readouterr().err
    assert not out.exists()


def _half_writing_open(name):
    """``open`` whose temporary file for ``name`` fails halfway through its first write."""
    def opener(path, mode="r", *args, **kwargs):
        f = open(path, mode, *args, **kwargs)
        if not Path(path).name.startswith(f".{name}."):
            return f

        class HalfWriter:
            def __enter__(self):
                return self

            def __exit__(self, *exc):
                f.close()

            def write(self, chunk):
                data = bytes(chunk)
                f.write(data[:len(data) // 2])
                f.flush()
                raise OSError("no space left on device")

        return HalfWriter()
    return opener


@pytest.mark.parametrize("command, artifact", [
    ("estimate", "ookg_embeddings.f32"), ("estimate", "ookg_manifest.tsv"),
    ("estimate", "dangling.txt"), ("estimate", "config.txt"),
    ("eval", "thresholds.csv"), ("eval", "correlation.csv"), ("eval", "report.csv"),
    ("eval", "report.txt"), ("ablate", "report_cap1.csv"), ("ablate", "report_cap1.txt"),
    ("ablate", "summary.csv")])
def test_failed_artifact_write_keeps_the_earlier_file(tc_dataset, tmp_path, monkeypatch,
                                                      command, artifact):
    root, _, _ = tc_dataset
    out = tmp_path / "run"
    out.mkdir()
    (out / artifact).write_bytes(b"earlier\n")
    extra = {"estimate": [], "eval": ["--dump-correlation"], "ablate": ["--variants", "cap1"]}
    monkeypatch.setattr(models, "open", _half_writing_open(artifact), raising=False)
    assert main([command, *_split_flags(root), "--task", "tc", "--checkpoint",
                 str(root / "gt.bin"), *extra[command], "--out", str(out)]) == 1
    assert (out / artifact).read_bytes() == b"earlier\n"
    assert not [p.name for p in out.iterdir() if p.name.endswith(".tmp")]


@pytest.mark.parametrize("split", ["train", "valid", "aux", "test"])
def test_failed_split_write_keeps_the_earlier_file(tc_dataset, tmp_path, monkeypatch, split):
    _, splits, _ = tc_dataset
    (tmp_path / f"{split}.txt").write_bytes(b"earlier\n")
    monkeypatch.setattr(models, "open", _half_writing_open(f"{split}.txt"), raising=False)
    with pytest.raises(OSError, match="no space left on device"):
        write_splits(splits, tmp_path)
    assert (tmp_path / f"{split}.txt").read_bytes() == b"earlier\n"
    assert not [p.name for p in tmp_path.iterdir() if p.name.endswith(".tmp")]


def test_pretrain_on_one_entity_exits_1_and_writes_nothing(tmp_path, capsys):
    root = tmp_path / "data"
    root.mkdir()
    (root / "train.txt").write_text("a\tr\ta\n")
    for name in ("valid", "aux", "test"):
        (root / f"{name}.txt").write_text("")
    out = tmp_path / "run"
    assert main(["pretrain", *_split_flags(root), "--dim", "4", "--steps", "2",
                 "--out", str(out)]) == 1
    assert "error: corruption needs at least two entities" in capsys.readouterr().err
    assert not out.exists()


def test_pretrain_seed_beyond_the_checkpoint_field_exits_1_and_writes_nothing(lp_dataset, tmp_path,
                                                                              capsys):
    root, _, _ = lp_dataset
    args = ["pretrain", *_split_flags(root), "--dim", "4", "--steps", "0"]
    out = tmp_path / "run"
    assert main(args + ["--seed", str(2 ** 64), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "seed must be in [0, 2**64)" in err and "Traceback" not in err
    assert not out.exists()
    assert main(args + ["--seed", str(2 ** 64 - 1), "--out", str(out)]) == 0
    assert load_checkpoint(out / "checkpoint.bin")[1] == 2 ** 64 - 1


def test_every_train_config_field_but_the_seed_has_one_pretrain_flag_with_its_default():
    flags = cli._TRAIN_FIELDS
    assert sorted(flags.values()) == sorted(f.name for f in fields(TrainConfig) if f.name != "seed")
    spec = cli._SPECS["pretrain"]
    for f in fields(TrainConfig):
        if f.name != "seed":
            flag = next(flag for flag, name in flags.items() if name == f.name)
            cast, default = spec[flag]
            assert default == f.default and type(default) is type(f.default)
            assert cast is (cli._parse_bool if isinstance(f.default, bool) else type(f.default))


def test_pretrain_flags_reach_their_train_config_fields(lp_dataset, tmp_path, monkeypatch):
    root, _, _ = lp_dataset
    configs = []

    def no_training(splits, config):
        configs.append(config)
        raise ValueError("stop")

    monkeypatch.setattr(cli, "train", no_training)
    assert main(["pretrain", *_split_flags(root), "--out", str(tmp_path / "a")]) == 1
    assert configs.pop() == TrainConfig()
    assert main(["pretrain", *_split_flags(root), "--model", "rotate", "--dim", "7",
                 "--gamma", "3.5", "--alpha", "0.25", "--neg", "5", "--l2", "0.5",
                 "--batch-size", "9", "--lr", "0.125", "--steps", "11", "--norm", "2",
                 "--log-every", "3", "--filter-false-negatives", "--seed", "13",
                 "--out", str(tmp_path / "b")]) == 1
    assert configs.pop() == TrainConfig(model="rotate", dim=7, margin=3.5, temperature=0.25,
                                        num_negatives=5, l2=0.5, batch_size=9,
                                        learning_rate=0.125, steps=11, seed=13, norm_order=2,
                                        filter_false_negatives=True, log_every=3)


@pytest.mark.parametrize("command", ["estimate", "eval", "ablate"])
@pytest.mark.parametrize("seed", ["-1", str(2 ** 64)])
def test_seed_outside_the_checkpoint_field_exits_1_for_every_command(lp_dataset, tmp_path, capsys,
                                                                   command, seed):
    root, _, _ = lp_dataset
    out = tmp_path / "run"
    extra = ["--variants", "uniform"] if command == "ablate" else []
    assert main([command, *_split_flags(root), "--checkpoint", str(root / "gt.bin"), *extra,
                 "--seed", seed, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert f"error: seed must be in [0, 2**64), got {seed}" in err and "Traceback" not in err
    assert not out.exists()


def test_pretrain_rotate_checkpoint_round_trip(lp_dataset, tmp_path):
    root, splits, _ = lp_dataset
    out = tmp_path / "rot"
    rc = main(["pretrain", *_split_flags(root), "--model", "rotate", "--dim", "6",
               "--gamma", "2.0", "--neg", "4", "--batch-size", "32", "--steps", "20",
               "--seed", "9", "--out", str(out)])
    assert rc == 0
    tables, _ = load_checkpoint(out / "checkpoint.bin")
    assert tables.model == "rotate"
    assert tables.entity.shape == (splits.vocab.num_entities, 12)  # interleaved re/im


def test_pretrain_rejects_threads(lp_dataset, tmp_path):
    root, _, _ = lp_dataset
    rc = main(["pretrain", *_split_flags(root), "--steps", "1", "--threads", "2",
               "--out", str(tmp_path / "x")])
    assert rc == 2


@pytest.mark.parametrize("log_every", ["0", "-1"])
def test_pretrain_rejects_log_every_below_one(lp_dataset, tmp_path, capsys, log_every):
    root, _, _ = lp_dataset
    out = tmp_path / "x"
    rc = main(["pretrain", *_split_flags(root), "--dim", "4", "--steps", "2",
               "--log-every", log_every, "--out", str(out)])
    assert rc == 1
    assert "log_every must be at least 1" in capsys.readouterr().err
    assert not out.exists()


def test_pretrain_missing_required_flag(tmp_path):
    rc = main(["pretrain", "--out", str(tmp_path / "x")])
    assert rc == 2


def test_env_override(lp_dataset, tmp_path, monkeypatch):
    root, _, _ = lp_dataset
    out = tmp_path / "env"
    monkeypatch.setenv("INVKGE_SEED", "123")
    monkeypatch.setenv("INVKGE_STEPS", "0")
    rc = main(["pretrain", *_split_flags(root), "--dim", "4", "--out", str(out)])
    assert rc == 0
    _, seed = load_checkpoint(out / "checkpoint.bin")
    assert seed == 123
    assert "seed=123" in (out / "config.txt").read_text()


def test_estimate_dumps_every_ookg_entity(lp_dataset, tmp_path):
    root, splits, _ = lp_dataset
    out = tmp_path / "est"
    rc = main(["estimate", *_split_flags(root), "--checkpoint", str(root / "gt.bin"),
               "--scheme", "degree", "--out", str(out)])
    assert rc == 0
    manifest = (out / "ookg_manifest.tsv").read_text().splitlines()
    assert len(manifest) == len(splits.ookg_entities)  # nothing dangling here
    ids = [int(line.split("\t")[1]) for line in manifest]
    assert sorted(ids) == splits.ookg_entities.tolist()
    raw = (out / "ookg_embeddings.f32").read_bytes()
    assert len(raw) == len(manifest) * 2 * 4  # dim-2 float32 rows
    assert (out / "dangling.txt").read_text() == ""


@pytest.mark.parametrize("model", MODELS)
def test_zero_width_checkpoint_exits_1(lp_dataset, tc_dataset, tmp_path, capsys, model):
    # a header-only checkpoint of width 0 passes the size check: header + 0 table bytes
    for (root, splits, _), argv in ((lp_dataset, ["eval", "--task", "lp"]),
                                    (tc_dataset, ["eval", "--task", "tc"]),
                                    (lp_dataset, ["estimate"])):
        n_ent, n_rel = splits.vocab.num_entities, splits.vocab.num_relations
        path = tmp_path / "zero.bin"
        save_checkpoint(EmbeddingTables(model, 0, 1, np.zeros((n_ent, 0)), np.zeros((n_rel, 0))),
                        path)
        rc = main([*argv, *_split_flags(root), "--checkpoint", str(path),
                   "--out", str(tmp_path / "out")])
        assert rc == 1
        assert "embedding width 0" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("checkpoint", ["empty", "shorter than the header", "directory"])
def test_unreadable_checkpoint_exits_1_naming_it(lp_dataset, tmp_path, capsys, checkpoint):
    root, _, _ = lp_dataset
    path = tmp_path / "ck.bin"
    if checkpoint == "directory":
        path.mkdir()
    else:
        size = 0 if checkpoint == "empty" else models._HEADER.size - 1
        path.write_bytes((root / "gt.bin").read_bytes()[:size])
    rc = main(["eval", *_split_flags(root), "--task", "lp", "--checkpoint", str(path),
               "--out", str(tmp_path / "out")])
    assert rc == 1
    err = capsys.readouterr().err
    assert str(path) in err and "Traceback" not in err
    if checkpoint != "directory":   # mmap's own error on an empty file names no path
        assert "not an embedding checkpoint" in err
    assert not (tmp_path / "out").exists()


def test_estimate_refuses_correlation_scheme(lp_dataset, tmp_path):
    root, _, _ = lp_dataset
    rc = main(["estimate", *_split_flags(root), "--checkpoint", str(root / "gt.bin"),
               "--scheme", "correlation", "--out", str(tmp_path / "y")])
    assert rc == 2


def test_eval_lp_report(lp_dataset, tmp_path):
    root, _, _ = lp_dataset
    out = tmp_path / "eval"
    rc = main(["eval", *_split_flags(root), "--checkpoint", str(root / "gt.bin"),
               "--task", "lp", "--scheme", "correlation", "--dump-correlation",
               "--out", str(out)])
    assert rc == 0
    csv = (out / "report.csv").read_text().splitlines()
    row = csv[1].split(",")
    assert row[0] == "lp-correlation"
    assert float(row[3]) == 1.0  # planted MRR
    assert (out / "report.txt").exists()
    assert (out / "correlation.csv").exists()


def test_eval_tc_report_and_thresholds(tc_dataset, tmp_path):
    root, _, _ = tc_dataset
    out = tmp_path / "evaltc"
    rc = main(["eval", *_split_flags(root), "--checkpoint", str(root / "gt.bin"),
               "--task", "tc", "--scheme", "degree", "--delta", "0.1", "--out", str(out)])
    assert rc == 0
    row = (out / "report.csv").read_text().splitlines()[1].split(",")
    assert row[1] == "classification"
    assert float(row[6]) == 1.0  # planted accuracy
    assert (out / "thresholds.csv").exists()


def test_csv_artifacts_quote_relation_names(tc_dataset, tmp_path):
    root, splits, _ = tc_dataset
    names = ["r1,part", 'r2 "x"', *splits.vocab.relation_names[2:]]
    vocab = Vocabulary()
    vocab.add_entities(splits.vocab.entity_names)
    vocab.add_relations(names)
    data = tmp_path / "data"
    write_splits(replace(splits, vocab=vocab), data)
    out = tmp_path / "evaltc"
    assert main(["eval", *_split_flags(data), "--checkpoint", str(root / "gt.bin"), "--task", "tc",
                 "--dump-correlation", "--out", str(out)]) == 0
    with open(out / "thresholds.csv", newline="", encoding="utf-8") as f:
        thresholds = list(csv.reader(f))
    assert {len(row) for row in thresholds} == {2}
    assert [row[0] for row in thresholds] == ["relation", *names, "__default__"]
    with open(out / "correlation.csv", newline="", encoding="utf-8") as f:
        correlation = list(csv.reader(f))
    assert correlation[0] == ["relation", *names]
    assert [row[0] for row in correlation[1:]] == names
    assert {len(row) for row in correlation} == {len(names) + 1}


def test_eval_lp_rejects_labeled_files(tc_dataset, tmp_path):
    root, _, _ = tc_dataset
    rc = main(["eval", *_split_flags(root), "--checkpoint", str(root / "gt.bin"),
               "--task", "lp", "--out", str(tmp_path / "z")])
    assert rc == 1  # label column unexpected


def test_eval_checkpoint_vocab_mismatch(lp_dataset, tmp_path):
    root, _, _ = lp_dataset
    bad = init_tables(0, TRANSE, 4, 3, 2)
    save_checkpoint(bad, tmp_path / "bad.bin")
    rc = main(["eval", *_split_flags(root), "--checkpoint", str(tmp_path / "bad.bin"),
               "--task", "lp", "--out", str(tmp_path / "w")])
    assert rc == 2


@pytest.mark.parametrize("offset, value, message", [(6, 7, "unknown model code 7"),
                                                     (7, 9, "unsupported norm order 9")])
def test_eval_rejects_corrupt_checkpoint_header(lp_dataset, tmp_path, capsys, offset, value,
                                                message):
    root, _, _ = lp_dataset
    raw = bytearray((root / "gt.bin").read_bytes())
    raw[offset] = value  # byte 6 is the model code, byte 7 the norm order
    (tmp_path / "bad.bin").write_bytes(bytes(raw))
    rc = main(["eval", *_split_flags(root), "--checkpoint", str(tmp_path / "bad.bin"),
               "--task", "lp", "--out", str(tmp_path / "w")])
    err = capsys.readouterr().err
    assert rc == 1
    assert message in err and "Traceback" not in err


def test_ablate_variants(lp_dataset, tmp_path):
    root, _, _ = lp_dataset
    out = tmp_path / "abl"
    rc = main(["ablate", *_split_flags(root), "--checkpoint", str(root / "gt.bin"),
               "--task", "lp", "--variants", "cap1,cap8,cap32,uniform", "--out", str(out)])
    assert rc == 0
    summary = list(csv.reader((out / "summary.csv").read_text().splitlines()))
    assert summary[0][:2] == ["label", "task"]
    assert [row[:2] for row in summary[1:]] == [["cap1", "lp"], ["cap8", "lp"], ["cap32", "lp"],
                                                ["uniform", "lp"]]  # in --variants order
    for variant in ("cap1", "cap8", "cap32", "uniform"):
        assert (out / f"report_{variant}.csv").exists()


def test_ablate_empty_variants(lp_dataset, tmp_path):
    root, _, _ = lp_dataset
    rc = main(["ablate", *_split_flags(root), "--checkpoint", str(root / "gt.bin"),
               "--variants", "", "--out", str(tmp_path / "e")])
    assert rc == 2


def _spy_on_evaluations(monkeypatch):
    """Record every link-prediction or classification run the CLI starts."""
    calls = []
    for name in ("link_prediction", "triplet_classification"):
        real = getattr(cli, name)
        monkeypatch.setattr(cli, name, lambda *args, real=real, **kwargs:
                            calls.append(args) or real(*args, **kwargs))
    return calls


# cap01 and cap\u0661 (an Arabic-Indic one) would run cap 1 under a second label
@pytest.mark.parametrize("variants", ["cap1,bogus", "cap1,cap0", "cap1,capx", "cap1,cap01",
                                      "cap1,cap\u0661", "cap1,cap+1", "cap1, cap2"])
def test_ablate_checks_every_variant_before_evaluating(lp_dataset, tmp_path, monkeypatch,
                                                       capsys, variants):
    root, _, _ = lp_dataset
    calls = _spy_on_evaluations(monkeypatch)
    rc = main(["ablate", *_split_flags(root), "--checkpoint", str(root / "gt.bin"),
               "--task", "lp", "--variants", variants, "--out", str(tmp_path / "a")])
    assert rc == 1 and calls == [] and not (tmp_path / "a").exists()
    assert f"unknown ablation variant {variants.split(',')[1]!r}" in capsys.readouterr().err


@pytest.mark.parametrize("variants", ["cap1,cap1", "uniform,cap1,uniform", "ratio,ratio"])
def test_ablate_rejects_repeated_variants_before_reading_files(tmp_path, capsys, variants):
    missing = tmp_path / "missing"  # no file is read: every path is missing
    rc = main(["ablate", *_split_flags(missing), "--checkpoint", str(missing / "gt.bin"),
               "--datasets", str(missing), "--checkpoints", str(missing / "gt.bin"),
               "--variants", variants, "--out", str(tmp_path / "a")])
    err = capsys.readouterr().err
    assert rc == 2 and not (tmp_path / "a").exists()
    assert "twice" in err and "Traceback" not in err


@pytest.mark.parametrize("task", ["lp", "tc"])
def test_ablate_reports_equal_the_matching_eval_reports(lp_dataset, tc_dataset, tmp_path, task):
    root, _, tables = lp_dataset if task == "lp" else tc_dataset
    noise = np.random.default_rng(3).normal(0.0, 1.0, tables.entity.shape)
    ckpt = tmp_path / "noisy.bin"  # exact planted tables would score every variant alike
    save_checkpoint(replace(tables, entity=tables.entity + noise), ckpt)
    common = [*_split_flags(root), "--task", task, "--checkpoint", str(ckpt), "--seed", "4"]
    assert main(["ablate", *common, "--variants", "cap1,uniform,ratio,cap3",
                 "--datasets", str(root), "--checkpoints", str(ckpt),
                 "--out", str(tmp_path / "abl")]) == 0
    metrics = {}
    for label, flags in [("cap1", ["--cap", "1"]), ("uniform", ["--scheme", "uniform"]),
                         (f"ratio_{root.name}", []), ("cap3", ["--cap", "3"])]:
        assert main(["eval", *common, *flags, "--out", str(tmp_path / label)]) == 0
        ablated = (tmp_path / "abl" / f"report_{label}.csv").read_text().splitlines()
        alone = (tmp_path / label / "report.csv").read_text().splitlines()
        metrics[label] = alone[1].split(",", 1)[1]  # all but the label
        assert len(ablated) == len(alone) == 2 and ablated[0] == alone[0]
        assert ablated[1].split(",", 1)[1] == metrics[label]
        ablated = (tmp_path / "abl" / f"report_{label}.txt").read_text().splitlines()
        alone = (tmp_path / label / "report.txt").read_text().splitlines()
        assert ablated[1:] == alone[1:]  # all but the "== label (task) ==" line
    assert len(set(metrics.values())) > 1  # the variants are told apart


def test_ablate_tc_tunes_thresholds_once_per_tables(tc_dataset, tmp_path, monkeypatch):
    # the cap and uniform runs share the base tables' thresholds; each ratio member tunes its own
    root, splits, _ = tc_dataset
    member = tmp_path / "member"
    shutil.copytree(root, member)
    calls = []
    real = evaluation.tune_thresholds
    spy = lambda tables, valid, labels: calls.append(len(valid)) or real(tables, valid, labels)
    monkeypatch.setattr(cli, "tune_thresholds", spy)
    monkeypatch.setattr(evaluation, "tune_thresholds", spy)
    assert main(["ablate", *_split_flags(root), "--task", "tc", "--checkpoint",
                 str(root / "gt.bin"), "--variants", "cap1,ratio,cap8,uniform",
                 "--datasets", f"{root},{member}",
                 "--checkpoints", f"{root / 'gt.bin'},{member / 'gt.bin'}",
                 "--out", str(tmp_path / "abl")]) == 0
    assert calls == [len(splits.valid)] * 3


def test_ablate_ratio_over_dataset_family(tmp_path):
    runs = []
    for name, seed, frac in [("both-small", 71, 0.08), ("both-large", 73, 0.16)]:
        d = tmp_path / name
        splits, tables = generate_planted_splits(seed, 150, 6, 420, frac, task="classification")
        write_splits(splits, d)
        save_checkpoint(tables, d / "ckpt.bin")
        runs.append(d)
    out = tmp_path / "ratio_out"
    rc = main(["ablate", "--task", "tc", "--variants", "ratio",
               "--datasets", f"{runs[0]},{runs[1]}",
               "--checkpoints", f"{runs[0] / 'ckpt.bin'},{runs[1] / 'ckpt.bin'}",
               "--out", str(out)])
    assert rc == 0
    summary = (out / "summary.csv").read_text().splitlines()
    assert len(summary) == 3
    assert summary[1].startswith("ratio:both-small,")
    assert summary[2].startswith("ratio:both-large,")


def test_ablate_ratio_rejects_repeated_dataset_names(lp_dataset, tmp_path, capsys, monkeypatch):
    root, _, _ = lp_dataset
    dirs = [tmp_path / parent / "d" for parent in ("a", "b")]
    for d in dirs:
        shutil.copytree(root, d)
    calls = _spy_on_evaluations(monkeypatch)
    out = tmp_path / "out"
    rc = main(["ablate", "--task", "lp", "--variants", "ratio",
               "--datasets", ",".join(map(str, dirs)),
               "--checkpoints", ",".join(str(d / "gt.bin") for d in dirs), "--out", str(out)])
    assert rc == 2 and calls == [] and not out.exists()
    assert "'d'" in capsys.readouterr().err


def test_ablate_ratio_requires_datasets(lp_dataset, tmp_path):
    root, _, _ = lp_dataset
    rc = main(["ablate", *_split_flags(root), "--checkpoint", str(root / "gt.bin"),
               "--variants", "ratio", "--out", str(tmp_path / "r")])
    assert rc == 2


def test_trained_checkpoint_evaluates_end_to_end(tmp_path):
    # pretrain -> eval with a genuinely trained (not ground-truth) model
    splits, _ = generate_trainable_splits(5, 100, 5, 700, 0.12)
    root = tmp_path / "data"
    write_splits(splits, root)
    out = tmp_path / "run"
    rc = main(["pretrain", *_split_flags(root), "--dim", "16", "--gamma", "2.0",
               "--neg", "8", "--batch-size", "128", "--steps", "800", "--seed", "2",
               "--out", str(out)])
    assert rc == 0
    ev = tmp_path / "ev"
    rc = main(["eval", *_split_flags(root), "--checkpoint", str(out / "checkpoint.bin"),
               "--vocab", str(out / "vocab.json"), "--task", "lp", "--scheme", "degree",
               "--out", str(ev)])
    assert rc == 0
    mrr = float((ev / "report.csv").read_text().splitlines()[1].split(",")[3])
    assert mrr > 0.05  # way above the ~0.006 random baseline for 88 candidates


def test_estimate_single_neighbor_dumps_the_lone_candidate(tmp_path):
    # one OOKG entity with one aux edge: the dump must equal t - r exactly
    from invkge.core import Vocabulary
    from invkge.datasets import BenchmarkSplits, write_splits
    from invkge.models import EmbeddingTables
    vocab = Vocabulary()
    vocab.add_entities(["a", "b", "x"])
    vocab.add_relations(["r"])
    a, b, x = (vocab.entity_id(n) for n in "abx")
    splits = BenchmarkSplits(vocab=vocab,
                             train=[(a, 0, b)], valid=[(a, 0, b)],
                             aux=[(x, 0, b)], test=[(x, 0, a)],
                             valid_labels=None, test_labels=None,
                             ikg_entities=[a, b], ookg_entities=[x], dangling_ookg=[])
    root = tmp_path / "tiny"
    write_splits(splits, root)
    entity = np.array([[1.0, 2.0], [5.0, -3.0], [0.0, 0.0]])
    relation = np.array([[0.5, 0.25]])
    save_checkpoint(EmbeddingTables(TRANSE, 2, 1, entity, relation), root / "ck.bin")
    out = tmp_path / "est1"
    rc = main(["estimate", *_split_flags(root), "--checkpoint", str(root / "ck.bin"),
               "--scheme", "uniform", "--out", str(out)])
    assert rc == 0
    dumped = np.frombuffer((out / "ookg_embeddings.f32").read_bytes(), dtype="<f4")
    expected = (entity[b] - relation[0]).astype("<f4")  # x is the head of (x, r, b)
    assert np.array_equal(dumped, expected)


def test_estimate_rotate_dump_is_interleaved(tmp_path):
    from invkge.datasets import write_splits as _ws
    from invkge.models import ROTATE, init_tables as _init
    splits, _ = generate_planted_splits(77, 120, 6, 330, 0.1, task="lp")
    root = tmp_path / "rot"
    _ws(splits, root)
    tables = _init(0, ROTATE, 4, splits.vocab.num_entities, splits.vocab.num_relations)
    save_checkpoint(tables, root / "rot.bin")
    out = tmp_path / "rotest"
    rc = main(["estimate", *_split_flags(root), "--checkpoint", str(root / "rot.bin"),
               "--scheme", "uniform", "--out", str(out)])
    assert rc == 0
    n_rows = len((out / "ookg_manifest.tsv").read_text().splitlines())
    raw = (out / "ookg_embeddings.f32").read_bytes()
    assert len(raw) == n_rows * 2 * 4 * 4  # dim 4 complex -> 8 float32 per row


def test_eval_rerun_from_echoed_config(lp_dataset, tmp_path):
    root, _, _ = lp_dataset
    out1, out2 = tmp_path / "e1", tmp_path / "e2"
    rc = main(["eval", *_split_flags(root), "--checkpoint", str(root / "gt.bin"),
               "--task", "lp", "--scheme", "degree", "--out", str(out1)])
    assert rc == 0
    rc = main(["eval", "--config", str(out1 / "config.txt"), "--out", str(out2)])
    assert rc == 0
    assert (out1 / "report.csv").read_bytes() == (out2 / "report.csv").read_bytes()


def test_validate_warns_but_passes_on_dangling(tmp_path):
    # dangling OOKG test entity: flagged, exit code stays 0
    root = tmp_path / "dangling"
    root.mkdir()
    (root / "train.txt").write_text("a\tr\tb\n")
    (root / "valid.txt").write_text("a\tr\tb\n")
    (root / "aux.txt").write_text("x\tr\ta\n")
    (root / "test.txt").write_text("x\tr\tb\ny\tr\ta\n")
    assert main(["validate", *_split_flags(root)]) == 0


def test_validate_ok_and_failing(lp_dataset, tmp_path):
    root, _, _ = lp_dataset
    assert main(["validate", *_split_flags(root)]) == 0
    # break the benchmark: empty aux with a nonempty test split
    broken = tmp_path / "broken"
    broken.mkdir()
    for name in ("train.txt", "valid.txt", "test.txt"):
        (broken / name).write_bytes((root / name).read_bytes())
    (broken / "aux.txt").write_text("")
    assert main(["validate", *_split_flags(broken)]) == 1


def test_module_invocation_help():
    proc = subprocess.run([sys.executable, "-m", "invkge", "--help"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    for sub in ("pretrain", "estimate", "eval", "ablate", "validate"):
        assert sub in proc.stdout


def test_ablate_ratio_rejects_checkpoint_with_fewer_relations(tmp_path, capsys):
    splits, _ = generate_planted_splits(71, 150, 6, 420, 0.08, task="classification")
    write_splits(splits, tmp_path / "member")
    save_checkpoint(init_tables(0, TRANSE, 2, splits.vocab.num_entities, 2),
                    tmp_path / "ckpt.bin")
    rc = main(["ablate", "--task", "tc", "--variants", "ratio",
               "--datasets", str(tmp_path / "member"),
               "--checkpoints", str(tmp_path / "ckpt.bin"), "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert rc == 2
    assert "ckpt.bin" in err and "vocabulary sizes" in err and "Traceback" not in err


@pytest.mark.parametrize("payload", ['{"entities": []}', '{"entities": [], "relations": [7]}'])
def test_eval_rejects_malformed_vocabulary_sidecar(lp_dataset, tmp_path, capsys, payload):
    root, _, _ = lp_dataset
    (tmp_path / "vocab.json").write_text(payload, encoding="utf-8")
    rc = main(["eval", *_split_flags(root), "--checkpoint", str(root / "gt.bin"),
               "--vocab", str(tmp_path / "vocab.json"), "--task", "lp",
               "--out", str(tmp_path / "w")])
    err = capsys.readouterr().err
    assert rc == 1
    assert "vocab.json" in err and "list of strings" in err


@pytest.mark.parametrize("payload, detail", [(b"not json", "Expecting value"),
                                             (b'\xff{"entities": []}', "can't decode byte 0xff")],
                         ids=["not-json", "not-utf8"])
def test_undecodable_vocabulary_sidecar_exits_1_naming_it(lp_dataset, tmp_path, capsys, payload,
                                                          detail):
    root, _, _ = lp_dataset
    (tmp_path / "vocab.json").write_bytes(payload)
    rc = main(["eval", *_split_flags(root), "--checkpoint", str(root / "gt.bin"),
               "--vocab", str(tmp_path / "vocab.json"), "--out", str(tmp_path / "w")])
    err = capsys.readouterr().err
    assert rc == 1 and "Traceback" not in err
    assert f"error: {tmp_path / 'vocab.json'}: not a JSON vocabulary: " in err and detail in err
    assert not (tmp_path / "w").exists()


def test_undecodable_config_file_exits_1_naming_its_line(lp_dataset, tmp_path, capsys):
    root, _, _ = lp_dataset
    config = tmp_path / "config.txt"
    config.write_bytes(b"command=validate\r\n# note\rtask=lp\ntask=\xfflp\n")
    assert main(["validate", "--config", str(config), *_split_flags(root)]) == 1
    err = capsys.readouterr().err
    assert f"error: {config}:4: byte 0xff is not UTF-8" in err and "Traceback" not in err


def test_config_file_rejects_unknown_keys(lp_dataset, tmp_path, capsys):
    root, _, _ = lp_dataset
    config = tmp_path / "config.txt"
    lines = ["command=validate"] + [f"{k}={root / (k + '.txt')}"
                                    for k in ("train", "valid", "aux", "test")]
    config.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert main(["validate", "--config", str(config)]) == 0
    config.write_text("\n".join(lines + ["stpes=5"]) + "\n", encoding="utf-8")
    assert main(["validate", "--config", str(config)]) == 2
    assert f"{config}:6: stpes=5 is not an option of validate" in capsys.readouterr().err
    config.write_text("\n".join(["command=eval"] + lines[1:]) + "\n", encoding="utf-8")
    assert main(["validate", "--config", str(config)]) == 2
    assert f"{config}:1:" in capsys.readouterr().err


def test_module_invocation_exit_codes(lp_dataset, tmp_path):
    root, _, _ = lp_dataset
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))

    def run(*args):
        return subprocess.run([sys.executable, "-m", "invkge", "validate", *args], env=env,
                              capture_output=True, text=True, timeout=60).returncode

    assert run(*_split_flags(root)) == 0
    broken = tmp_path / "broken"
    broken.mkdir()
    for name in ("valid.txt", "aux.txt", "test.txt"):
        (broken / name).write_bytes((root / name).read_bytes())
    (broken / "train.txt").write_text("a\tr\n", encoding="utf-8")
    assert run(*_split_flags(broken)) == 1
    assert run("--train", str(root / "train.txt")) == 2


def test_eval_threads_must_be_one(lp_dataset, tmp_path, capsys):
    root, _, _ = lp_dataset
    args = ["eval", *_split_flags(root), "--checkpoint", str(root / "gt.bin"), "--task", "lp"]
    for threads in ("2", "0", "-3"):
        assert main(args + ["--threads", threads, "--out", str(tmp_path / "t")]) == 2
        assert "--threads must be 1" in capsys.readouterr().err
    assert not (tmp_path / "t").exists()
    out1, out2 = tmp_path / "e1", tmp_path / "e2"
    assert main(args + ["--threads", "1", "--out", str(out1)]) == 0
    assert "threads=1" in (out1 / "config.txt").read_text().splitlines()
    assert main(["eval", "--config", str(out1 / "config.txt"), "--out", str(out2)]) == 0
    for name in ("report.csv", "report.txt"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_eval_lp_ignores_out_of_graph_table_rows(tmp_path):
    # One test triplet per OOKG entity, whose own table row is then moved to beat its
    # query's answer: only a ranking that read out-of-graph rows would see the change.
    splits, tables = generate_planted_splits(61, 150, 6, 420, 0.1, task="lp")
    ookg, seen, test = set(splits.ookg_entities.tolist()), set(), []
    for h, r, t in splits.test.tolist():
        side = h if h in ookg else t
        if side not in seen and side not in splits.dangling_ookg.tolist() \
                and not (h in ookg and t in ookg):
            seen.add(side)
            test.append((h, r, t))
    root = tmp_path / "data"
    write_splits(replace(splits, test=test), root)
    loaded = load_split_dir(root)
    assert loaded.vocab == splits.vocab and np.array_equal(loaded.test, test)
    rng = np.random.default_rng(5)
    noisy = replace(tables, entity=tables.entity + rng.normal(scale=0.1, size=tables.entity.shape))
    save_checkpoint(noisy, root / "clean.bin")
    clean, _ = load_checkpoint(root / "clean.bin")

    known = [h if h in ookg else t for h, _, t in test]
    vectors, found = embed_ookg(clean, loaded, "degree", known, None)
    assert found.all()
    poisoned = clean.copy()
    queries = []
    for (h, r, t), entity, vec in zip(test, known, vectors):
        rel = clean.relation[r]
        if entity == h:  # tail candidates e score |vec + r - e|
            poisoned.entity[entity] = vec + rel
            queries.append((vec, r, True, t))
        else:  # head candidates e score |e + r - vec|
            poisoned.entity[entity] = vec - rel
            queries.append((vec, r, False, h))
    save_checkpoint(poisoned, root / "poisoned.bin")
    poisoned, _ = load_checkpoint(root / "poisoned.bin")
    in_graph = np.zeros(loaded.vocab.num_entities, dtype=bool)
    in_graph[loaded.ikg_entities] = True
    everyone = np.ones_like(in_graph)
    for query in queries:  # every answer is beaten once out-of-graph rows compete
        assert filtered_rank(poisoned, *query, everyone) > filtered_rank(poisoned, *query, in_graph)

    outs = []
    for name in ("clean.bin", "poisoned.bin"):
        out = tmp_path / name
        assert main(["eval", *_split_flags(root), "--checkpoint", str(root / name),
                     "--task", "lp", "--scheme", "degree", "--out", str(out)]) == 0
        outs.append(out)
    for name in ("report.csv", "report.txt"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


def test_validate_rejects_empty_fields(lp_dataset, tmp_path, capsys):
    root, _, _ = lp_dataset
    broken = tmp_path / "broken"
    broken.mkdir()
    for name in ("train.txt", "valid.txt", "aux.txt", "test.txt"):
        (broken / name).write_bytes((root / name).read_bytes())
    lines = (root / "train.txt").read_text(encoding="utf-8").splitlines()
    head, relation, _ = lines[0].split("\t")
    (broken / "train.txt").write_text("\n".join(lines + [f"{head}\t{relation}\t"]) + "\n",
                                      encoding="utf-8")
    assert main(["validate", *_split_flags(broken)]) == 1
    err = capsys.readouterr().err
    assert f"{broken / 'train.txt'}:{len(lines) + 1}: empty entity or relation field" in err


def test_ablate_rejects_unknown_scheme_before_loading(lp_dataset, tmp_path, capsys):
    root, _, _ = lp_dataset
    rc = main(["ablate", *_split_flags(root), "--checkpoint", str(tmp_path / "missing.bin"),
               "--variants", "uniform", "--scheme", "bogus", "--out", str(tmp_path / "a")])
    assert rc == 2
    assert "unknown scheme 'bogus'" in capsys.readouterr().err


def test_bad_values_name_the_option_and_source(lp_dataset, tmp_path, capsys, monkeypatch):
    root, _, _ = lp_dataset
    args = ["pretrain", *_split_flags(root), "--dim", "4"]
    monkeypatch.setenv("INVKGE_SEED", "abc")
    assert main(args + ["--steps", "0", "--out", str(tmp_path / "env")]) == 1
    err = capsys.readouterr().err
    assert "INVKGE_SEED: bad value 'abc' for --seed" in err and "Traceback" not in err
    monkeypatch.delenv("INVKGE_SEED")
    config = tmp_path / "config.txt"
    config.write_text("command=pretrain\nlog_every=5\nsteps=abc\n", encoding="utf-8")
    assert main(args + ["--config", str(config), "--out", str(tmp_path / "file")]) == 1
    err = capsys.readouterr().err
    assert f"{config}:3: bad value 'abc' for --steps" in err and "Traceback" not in err


def test_validate_ignores_a_byte_order_mark(lp_dataset, tmp_path, capsys):
    root, splits, _ = lp_dataset
    marked = tmp_path / "marked"
    marked.mkdir()
    for name in ("train.txt", "valid.txt", "aux.txt", "test.txt"):
        (marked / name).write_bytes(b"\xef\xbb\xbf" + (root / name).read_bytes())
    assert main(["validate", *_split_flags(marked)]) == 0
    assert f"entities={splits.vocab.num_entities} " in capsys.readouterr().out
    assert load_split_dir(marked) == splits


@pytest.mark.parametrize("prefix, head, lineno", [(b"", b"", 1), (b"a\tr\tb\n", b"x", 2),
                                                  (b"a\tr\tb\r\n\r", b"", 3)])
def test_validate_names_the_line_of_an_undecodable_byte(lp_dataset, tmp_path, capsys, prefix,
                                                        head, lineno):
    root, _, _ = lp_dataset
    broken = tmp_path / "broken"
    broken.mkdir()
    for name in ("train.txt", "valid.txt", "aux.txt", "test.txt"):
        (broken / name).write_bytes((root / name).read_bytes())
    bad_line = head + b"\xffy\tr\tz\n"
    (broken / "aux.txt").write_bytes(prefix + bad_line + (root / "aux.txt").read_bytes())
    assert main(["validate", *_split_flags(broken)]) == 1
    err = capsys.readouterr().err
    assert f"error: {broken / 'aux.txt'}:{lineno}: byte 0xff is not UTF-8" in err
