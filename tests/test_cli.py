"""End-to-end CLI behavior: artifacts, exit codes, bitwise reruns."""

import dataclasses
import hashlib
import json
import math
import os
import shutil
from pathlib import Path

import numpy as np
import pytest

import crossmodal
from crossmodal import cli
from crossmodal import evaluation as ev
from crossmodal import networks as nets
from crossmodal import training
from crossmodal.cli import main
from crossmodal.data import SyntheticWorld, load_dataset
from crossmodal.losses import LossConfig
from crossmodal.training import TrainConfig

WORLD = {
    "seed": 7,
    "concepts": 3,
    "triples": 30,
    "test_size": 6,
    "output_dim": 64,  # must match the desk spec's softmax width
    "image_noise": 0.05,
    "sound_noise": 0.05,
}

TRAIN = {
    "seed": 3,
    "scale": 1 / 16,
    "learning_rate": 0.001,
    "batch_size": 2,
    "iterations": 4,
    "loss": {"margin": 0.5, "kl_weight": 1.0, "ranking_weight": 1.0},
}

EVAL = {
    "seed": 5,
    "layer": "shared2",
    "n_splits": 1,
    "split_size": 6,
    "probe_k": 2,
    "probe_units": 4,
    "svm_iterations": 50,
}


def _write(path: Path, doc) -> str:
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def _tree_bytes(root: Path, skip=("run_manifest.json",)):
    return {
        str(p.relative_to(root)): p.read_bytes()
        for p in sorted(root.rglob("*"))
        if p.is_file() and p.name not in skip
    }


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """One gen-data + train run shared by the read-only CLI tests."""
    root = tmp_path_factory.mktemp("cli")
    world_cfg = _write(root / "world.json", WORLD)
    data_dir = root / "data"
    assert main(["gen-data", "--config", world_cfg, "--out", str(data_dir)]) == 0

    train_cfg = _write(root / "train.json", TRAIN)
    run_dir = root / "run"
    assert main(["train", "--config", train_cfg, "--data",
                 str(data_dir / "manifest.csv"), "--out", str(run_dir)]) == 0
    return root, data_dir, run_dir


def test_gen_data_counts(pipeline):
    _, data_dir, _ = pipeline
    sample_files = list((data_dir / "samples").iterdir())
    assert len(sample_files) == 90  # 30 triples x 3 modalities
    manifest_rows = (data_dir / "manifest.csv").read_text().strip().splitlines()
    assert len(manifest_rows) == 1 + 90
    for name in ("labels.csv", "teacher.csv", "embeddings.embt", "stopwords.txt",
                 "run_manifest.json"):
        assert (data_dir / name).exists()
    # balanced concept labels: 30 triples over 3 concepts, 10 images each
    from crossmodal.formats import load_labels_csv
    labels = load_labels_csv(data_dir / "labels.csv")
    counts = {}
    for sid, label in labels.items():
        if sid.startswith("img-"):
            counts[label] = counts.get(label, 0) + 1
    assert counts == {0: 10, 1: 10, 2: 10}


def test_gen_data_rerun_byte_identical(pipeline, tmp_path):
    root, data_dir, _ = pipeline
    again = tmp_path / "data2"
    assert main(["gen-data", "--config", str(root / "world.json"),
                 "--out", str(again)]) == 0
    a = _tree_bytes(data_dir)
    b = _tree_bytes(again)
    assert a.keys() == b.keys()
    for k in a:
        assert a[k] == b[k], k


def test_run_manifest_lists_artifacts(pipeline):
    _, data_dir, run_dir = pipeline
    doc = json.loads((data_dir / "run_manifest.json").read_text())
    assert doc["command"] == "gen-data"
    assert "manifest.csv" in doc["artifacts"]
    assert doc["seed"] == WORLD["seed"]
    run_doc = json.loads((run_dir / "run_manifest.json").read_text())
    assert "train_loss.csv" in run_doc["artifacts"]
    assert any(a.startswith("checkpoint/final") for a in run_doc["artifacts"])
    # the BLAS library and thread count fix the bits of every artifact
    for env in (doc["environment"], run_doc["environment"]):
        assert set(env) == {"numpy", "blas", "blas_threads", "conv_workers",
                            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"}
        assert env["blas_threads"] == 1
        assert env["conv_workers"] == crossmodal.CONV_WORKERS
        assert set(env["blas"]) == {"name", "version"}
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            assert env[var] == os.environ.get(var)


def test_train_loss_csv_row_count(pipeline):
    _, _, run_dir = pipeline
    lines = (run_dir / "train_loss.csv").read_text().strip().splitlines()
    assert len(lines) == 1 + TRAIN["iterations"]


def test_train_rerun_reproduces_checkpoint_bitwise(pipeline, tmp_path):
    root, data_dir, run_dir = pipeline
    again = tmp_path / "run2"
    assert main(["train", "--config", str(root / "train.json"), "--data",
                 str(data_dir / "manifest.csv"), "--out", str(again)]) == 0
    a = _tree_bytes(run_dir)
    b = _tree_bytes(again)
    assert a.keys() == b.keys()
    for k in a:
        assert a[k] == b[k], k


def test_eval_all_tasks_write_reports(pipeline, tmp_path):
    root, data_dir, run_dir = pipeline
    eval_cfg = _write(root / "eval.json", EVAL)
    out = tmp_path / "eval"
    code = main(["eval", "--config", eval_cfg, "--data", str(data_dir / "manifest.csv"),
                 "--checkpoint", str(run_dir / "checkpoint" / "final"),
                 "--out", str(out)])
    assert code == 0
    for name in ("retrieval_ranks.csv", "bridge_ranks.csv", "accuracies.csv",
                 "baseline_ranks.csv", "probe.csv", "summary.json"):
        assert (out / name).exists(), name
    summary = json.loads((out / "summary.json").read_text())
    assert set(summary["retrieval"]) == {"image->sound", "sound->image",
                                         "image->text", "text->image"}
    assert set(summary["zero_shot"]) == {f"{a}->{b}" for a in ("image", "sound", "text")
                                         for b in ("image", "sound", "text")}
    probe_lines = (out / "probe.csv").read_text().strip().splitlines()
    # header + units x modalities x k rows
    assert len(probe_lines) == 1 + EVAL["probe_units"] * 3 * EVAL["probe_k"]


def test_eval_rerun_byte_identical(pipeline, tmp_path):
    root, data_dir, run_dir = pipeline
    eval_cfg = _write(root / "eval2.json", EVAL)
    outs = []
    for name in ("e1", "e2"):
        out = tmp_path / name
        assert main(["eval", "--config", eval_cfg, "--data",
                     str(data_dir / "manifest.csv"),
                     "--checkpoint", str(run_dir / "checkpoint" / "final"),
                     "--out", str(out)]) == 0
        outs.append(_tree_bytes(out))
    assert outs[0].keys() == outs[1].keys()
    for k in outs[0]:
        assert outs[0][k] == outs[1][k], k


# sha256 of the reports of an all-task eval of the pipeline below. probe.csv
# lists a trained model's activations: the last bits of training follow the
# BLAS thread count, which the package pins to one.
EVAL_REPORT_SHA256 = {
    "accuracies.csv": "d8698fa0f0ebee4da6f537d02a9339475be94d3321132267d7ba70f451c8dc62",
    "baseline_ranks.csv": "5263e9ef77a718192600ccddfe45afc01e28c6ac7506cdd4cb8c9f4c364e43e2",
    "bridge_ranks.csv": "e2b1a6943fc9fbf21b9f6d26116b27eac9413607170227afddd6ca3598359b4c",
    "probe.csv": "c12c792348c605ba176984941a68811639bb49fb0cf9c8966efa738ddab42769",
    "retrieval_ranks.csv": "2ecb0185d1bacbb5d815f72043da4a05193b195a2c8079adfd869c17a0c4ce9b",
    "summary.json": "06e349ed9ab4137162ef46a667aab20f2e6ff60b86f3bcf8b3ee0feccb577c7b",
}


def test_eval_embeds_each_batch_once_and_fits_once_per_training_modality(
        pipeline, tmp_path, monkeypatch):
    root, data_dir, run_dir = pipeline
    forwards, fits = [], []
    forward, fit = ev.forward_batch, ev._hinge_ova_fit

    def counted_forward(params, batch, modality):
        forwards.append((modality, hashlib.sha256(batch).hexdigest()))
        return forward(params, batch, modality)

    def counted_fit(*args):
        fits.append(args)
        return fit(*args)

    monkeypatch.setattr(ev, "forward_batch", counted_forward)
    monkeypatch.setattr(ev, "_hinge_ova_fit", counted_fit)
    out = tmp_path / "eval"
    assert main(["eval", "--config", _write(root / "eval4.json", EVAL),
                 "--data", str(data_dir / "manifest.csv"),
                 "--checkpoint", str(run_dir / "checkpoint" / "final"),
                 "--out", str(out)]) == 0

    test_size = WORLD["test_size"]
    batches = math.ceil((WORLD["triples"] - test_size) / ev.EMBED_BATCH) \
        + math.ceil(test_size / ev.EMBED_BATCH)
    assert len(forwards) == 3 * batches
    assert len(set(forwards)) == len(forwards)
    # per training modality: each fold once for the whole C grid, then the chosen C
    assert len(fits) == 3 * (2 + 1)
    got = {name: hashlib.sha256(data).hexdigest() for name, data in _tree_bytes(out).items()}
    assert got.keys() == EVAL_REPORT_SHA256.keys()
    for name, want in EVAL_REPORT_SHA256.items():
        assert got[name] == want, name


def test_eval_subset_embeds_only_the_batches_it_reads(pipeline, tmp_path, monkeypatch):
    root, data_dir, run_dir = pipeline
    forwards = []
    forward = ev.forward_batch

    def counted_forward(params, batch, modality):
        forwards.append((modality, len(batch)))
        return forward(params, batch, modality)

    monkeypatch.setattr(ev, "forward_batch", counted_forward)
    assert main(["eval", "--config", _write(tmp_path / "cfg.json", EVAL),
                 "--data", str(data_dir / "manifest.csv"),
                 "--checkpoint", str(run_dir / "checkpoint" / "final"),
                 "--out", str(tmp_path / "out"), "--tasks", "bridge"]) == 0
    # The 6 held-out samples of a modality fill one batch; the 24 training
    # samples and the images are never embedded.
    assert sorted(forwards) == [("sound", WORLD["test_size"]), ("text", WORLD["test_size"])]


def test_unknown_tap_exits_2(pipeline, tmp_path):
    root, data_dir, run_dir = pipeline
    eval_cfg = _write(root / "eval5.json", {**EVAL, "layer": "conv1"})
    code = main(["eval", "--config", eval_cfg, "--data", str(data_dir / "manifest.csv"),
                 "--checkpoint", str(run_dir / "checkpoint" / "final"),
                 "--out", str(tmp_path / "x"), "--tasks", "baseline"])
    assert code == 2


def test_unknown_task_exits_2_listing_tasks(pipeline, tmp_path, capsys):
    root, data_dir, run_dir = pipeline
    eval_cfg = _write(root / "eval3.json", EVAL)
    code = main(["eval", "--config", eval_cfg, "--data", str(data_dir / "manifest.csv"),
                 "--checkpoint", str(run_dir / "checkpoint" / "final"),
                 "--out", str(tmp_path / "x"), "--tasks", "retrieval,nonsense"])
    assert code == 2
    err = capsys.readouterr().err
    assert "nonsense" in err and "retrieval, bridge, zero-shot, baseline, probe" in err


def test_config_without_seed_exits_2(tmp_path):
    cfg = tmp_path / "world.json"
    cfg.write_text(json.dumps({"concepts": 2, "triples": 4}))
    assert main(["gen-data", "--config", str(cfg), "--out", str(tmp_path / "d")]) == 2


def test_corrupt_data_exits_3(pipeline, tmp_path):
    root, data_dir, _ = pipeline
    # copy the dataset and corrupt one spectrogram's magic
    broken = tmp_path / "broken"
    shutil.copytree(data_dir, broken)
    spec_file = next((broken / "samples").glob("*.spec"))
    spec_file.write_bytes(b"XXXX" + spec_file.read_bytes()[4:])
    code = main(["train", "--config", str(root / "train.json"), "--data",
                 str(broken / "manifest.csv"), "--out", str(tmp_path / "r")])
    assert code == 3


def test_numeric_abort_exits_4(pipeline, tmp_path):
    root, data_dir, _ = pipeline
    cfg = dict(TRAIN)
    cfg["learning_rate"] = 1e80
    cfg["iterations"] = 5
    train_cfg = _write(tmp_path / "explode.json", cfg)
    code = main(["train", "--config", train_cfg, "--data",
                 str(data_dir / "manifest.csv"), "--out", str(tmp_path / "r")])
    assert code == 4


def test_degenerate_training_rows_exit_4(pipeline, tmp_path, monkeypatch, capsys):
    root, data_dir, _ = pipeline

    def zero_params(spec, seed, sigma):
        params = nets.init_params(spec, seed, sigma)
        for _, t in params.items():
            t.data[...] = 0.0
        return params

    monkeypatch.setattr(training, "init_params", zero_params)
    code = main(["train", "--config", str(root / "train.json"), "--data",
                 str(data_dir / "manifest.csv"), "--out", str(tmp_path / "r")])
    assert code == 4
    assert "iteration 0" in capsys.readouterr().err


def test_underflowed_student_softmax_exits_4_naming_the_iteration(pipeline, tmp_path,
                                                                  capsys):
    # At learning rate 1 a student softmax underflows to exact zeros on the
    # second step: the run diverged, the config is well formed.
    _, data_dir, _ = pipeline
    train_cfg = _write(tmp_path / "diverge.json", {**TRAIN, "learning_rate": 1.0})
    code = main(["train", "--config", train_cfg, "--data",
                 str(data_dir / "manifest.csv"), "--out", str(tmp_path / "r")])
    assert code == 4
    err = capsys.readouterr().err
    assert "iteration 1: kl term" in err and "strictly positive" in err


def test_unknown_config_field_exits_2(pipeline, tmp_path):
    root, data_dir, _ = pipeline
    cfg = dict(TRAIN)
    cfg["learnig_rate"] = 1.0  # typo should be caught, not ignored
    train_cfg = _write(tmp_path / "typo.json", cfg)
    code = main(["train", "--config", train_cfg, "--data",
                 str(data_dir / "manifest.csv"), "--out", str(tmp_path / "r")])
    assert code == 2


@pytest.mark.parametrize("command,field,value", [
    ("train", "scale", "half"),
    ("train", "learning_rate", "0.01"),
    ("train", "iterations", 1.5),
    ("train", "seed", "a"),
    ("train", "loss", {"margin": "x"}),
    ("train", "batch_size", True),
    ("gen-data", "concepts", "3"),
    ("eval", "n_splits", "1"),
    ("eval", "probe_k", 2.5),
    ("eval", "ridge_lambda", "x"),
    ("eval", "svm_c_grid", 3),
    ("eval", "svm_c_grid", []),
    ("eval", "svm_c_grid", [1.0, 0]),
    ("eval", "n_split", 2),  # unknown field
    # counts out of range
    ("eval", "svm_iterations", 0),
    ("eval", "svm_iterations", -2),
    ("eval", "probe_units", 0),
    ("eval", "probe_units", -3),
    ("eval", "probe_units", 1000),  # the shared2 tap has 256 units
    ("eval", "probe_k", 0),
    ("eval", "n_splits", 0),
    ("eval", "split_size", 1),
    ("eval", "ridge_lambda", 0),
    ("eval", "ridge_lambda", -1e-3),
    # world values out of range
    ("gen-data", "words_per_concept", 0),
    ("gen-data", "teacher_smoothing", 2),
    ("gen-data", "teacher_smoothing", -0.5),
    ("gen-data", "test_size", -2),
    ("gen-data", "triples", 0),
    # negative seeds, in every config; the loss has no seed of its own (an
    # unknown field), since it draws no negatives at random
    ("gen-data", "seed", -1),
    ("train", "seed", -1),
    ("train", "loss", {"seed": -1}),
    ("eval", "seed", -1),
    # train and loss values out of range
    ("train", "learning_rate", 0),
    ("train", "batch_size", 1),
    ("train", "beta1", 1.0),
    ("train", "loss", {"margin": 0}),
    ("train", "loss", {"negatives_per_positive": 0}),  # unknown field: every negative counts
])
def test_malformed_config_field_exits_2_naming_it(pipeline, tmp_path, capsys,
                                                  command, field, value):
    _, data_dir, run_dir = pipeline
    base = {"gen-data": WORLD, "train": TRAIN, "eval": EVAL}[command]
    cfg = _write(tmp_path / "cfg.json", {**base, field: value})
    args = {"gen-data": [],
            "train": ["--data", str(data_dir / "manifest.csv")],
            "eval": ["--data", str(data_dir / "manifest.csv"),
                     "--checkpoint", str(run_dir / "checkpoint" / "final")]}[command]
    code = main([command, "--config", cfg, *args, "--out", str(tmp_path / "out")])
    assert code == 2
    assert not (tmp_path / "out").exists()  # rejected before anything is written
    named = next(iter(value)) if field == "loss" else field
    assert f"{named!r}" in capsys.readouterr().err


@pytest.mark.parametrize("command,fields,doc", [
    ("gen-data", ("val_size", "test_size"), {**WORLD, "val_size": 20, "test_size": 11}),
    ("eval", ("n_splits", "split_size"), {**EVAL, "n_splits": 2, "split_size": 4}),
    ("eval", ("n_splits", "split_size"), {**EVAL, "n_splits": 2, "split_size": None}),
])
def test_counts_above_the_data_exit_2_before_writing(pipeline, tmp_path, capsys,
                                                     command, fields, doc):
    # The world has 30 triples, 6 of them held out.
    _, data_dir, run_dir = pipeline
    args = {"gen-data": [],
            "eval": ["--data", str(data_dir / "manifest.csv"),
                     "--checkpoint", str(run_dir / "checkpoint" / "final")]}[command]
    code = main([command, "--config", _write(tmp_path / "cfg.json", doc), *args,
                 "--out", str(tmp_path / "out")])
    assert code == 2
    assert not (tmp_path / "out").exists()  # rejected before anything is written
    err = capsys.readouterr().err
    assert all(f"{field!r}" in err for field in fields)


def test_dead_embedding_row_exits_3_naming_it_before_writing(pipeline, tmp_path,
                                                             monkeypatch, capsys):
    root, data_dir, run_dir = pipeline
    dead = load_dataset(data_dir / "manifest.csv").triple_samples("test")[2]["sound"].id
    embed_taps = ev.embed_taps

    def with_dead_row(params, samples):
        taps = embed_taps(params, samples)
        if dead in taps["shared2"]:
            taps["shared2"][dead] = np.zeros_like(taps["shared2"][dead])
        return taps

    monkeypatch.setattr(ev, "embed_taps", with_dead_row)
    code = main(["eval", "--config", _write(tmp_path / "cfg.json", EVAL),
                 "--data", str(data_dir / "manifest.csv"),
                 "--checkpoint", str(run_dir / "checkpoint" / "final"),
                 "--out", str(tmp_path / "out")])
    assert code == 3
    assert not (tmp_path / "out").exists()  # rejected before anything is written
    err = capsys.readouterr().err
    assert f"{dead!r}" in err and "'shared2'" in err and "'test'" in err


def test_failing_task_writes_nothing(pipeline, tmp_path, capsys):
    # Zero-shot runs after retrieval and bridge, whose reports must not stay behind.
    _, data_dir, run_dir = pipeline
    data = tmp_path / "data"
    shutil.copytree(data_dir, data)
    (data / "labels.csv").unlink()
    code = main(["eval", "--config", _write(tmp_path / "cfg.json", EVAL),
                 "--data", str(data / "manifest.csv"),
                 "--checkpoint", str(run_dir / "checkpoint" / "final"),
                 "--out", str(tmp_path / "out")])
    assert code == 2
    assert "labels.csv" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_ragged_teacher_csv_exits_3_before_training(pipeline, tmp_path, capsys):
    # The short row still sums to 1; only its length gives it away.
    _, data_dir, _ = pipeline
    data = tmp_path / "data"
    shutil.copytree(data_dir, data)
    lines = (data / "teacher.csv").read_text().splitlines()
    cells = lines[-1].split(",")
    lines[-1] = ",".join(cells[:-2] + [repr(float(cells[-2]) + float(cells[-1]))])
    (data / "teacher.csv").write_text("\n".join(lines) + "\n")
    code = main(["train", "--config", _write(tmp_path / "cfg.json", TRAIN),
                 "--data", str(data / "manifest.csv"), "--out", str(tmp_path / "out")])
    assert code == 3
    assert f"teacher.csv:{len(lines)}:" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_teacher_width_mismatch_exits_2_before_the_run_directory(pipeline, tmp_path, capsys):
    # The world's 64 teacher classes against the 128-way softmax of scale 1/8.
    _, data_dir, _ = pipeline
    code = main(["train", "--config", _write(tmp_path / "cfg.json", {**TRAIN, "scale": 0.125}),
                 "--data", str(data_dir / "manifest.csv"), "--out", str(tmp_path / "out")])
    assert code == 2
    assert "teacher rows have 64 classes but the network outputs 128" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("seed", [0, 11])
def test_seed_only_configs_build_the_library_defaults(seed):
    doc = {"seed": seed}
    assert cli._world_from_config(doc) == (SyntheticWorld(concepts=5, seed=seed), 30, 0, 0)
    assert cli._train_config(doc) == TrainConfig(seed=seed)
    assert cli._spec_from_config(doc) == nets.desk_spec(1 / 16)
    assert ev.EvalConfig(**cli._fields(ev.EvalConfig, doc, "eval")) == ev.EvalConfig(seed=seed)
    # every config field's annotation has a JSON type to check values against
    for cls in (SyntheticWorld, TrainConfig, LossConfig, ev.EvalConfig):
        assert all(f.type in cli._JSON_TYPES for f in dataclasses.fields(cls)), cls
