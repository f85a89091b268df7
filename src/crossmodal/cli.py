"""Command-line entry point: data generation, training, evaluation.

    crossmodal gen-data --config world.json --out DIR
    crossmodal train    --config train.json --data manifest.csv --out DIR
    crossmodal eval     --config eval.json  --data manifest.csv \
                        --checkpoint CKPT --out DIR [--tasks retrieval,bridge,...]

Configs are JSON and must carry an explicit seed; nothing is ever sampled
from the clock. Every command writes a run manifest listing its artifacts,
and rerunning a command reproduces those artifacts bitwise (the manifest's
timestamp aside). Exit codes: 0 ok, 2 config error, 3 data error, 4 numeric
abort.
"""

from __future__ import annotations

import argparse
import json
import sys
from datetime import datetime, timezone
from pathlib import Path

from . import evaluation as ev
from .data import SyntheticWorld, load_dataset, write_dataset
from .errors import (
    ConfigError,
    ContractError,
    DataFormatError,
    DegenerateInputError,
    NumericError,
    ShapeError,
)
from .losses import LossConfig
from .networks import MODALITIES, default_paper_spec, desk_spec
from .training import TrainConfig, load_checkpoint, train, write_trajectory_csv

EVAL_TASKS = ("retrieval", "bridge", "zero-shot", "baseline", "probe")

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4


def _load_config(path) -> dict:
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError(f"config {path} must be a JSON object")
    if "seed" not in doc:
        raise ConfigError(f"config {path} must declare an explicit seed")
    return doc


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


_INT = ("an integer", _is_int)
_NUMBER = ("a number", _is_number)
_INT_OR_NULL = ("an integer or null", lambda v: v is None or _is_int(v))
_STRING = ("a string", lambda v: isinstance(v, str))
_C_GRID = ("a non-empty list of positive numbers",
           lambda v: isinstance(v, list) and v and all(_is_number(c) and c > 0 for c in v))
_STRINGS = ("a list of strings",
            lambda v: isinstance(v, list) and all(isinstance(x, str) for x in v))

# Every field each config may carry, with the JSON type its value must have.
_WORLD_FIELDS = {"seed": _INT, "concepts": _INT, "triples": _INT, "image_noise": _NUMBER,
                 "sound_noise": _NUMBER, "text_noise": _NUMBER, "words_per_concept": _INT,
                 "teacher_smoothing": _NUMBER, "output_dim": _INT, "val_size": _INT,
                 "test_size": _INT}
_TRAIN_FIELDS = {"seed": _INT,
                 "scale": ('a number or "paper"', lambda v: v == "paper" or _is_number(v)),
                 "learning_rate": _NUMBER, "batch_size": _INT, "iterations": _INT,
                 "beta1": _NUMBER, "beta2": _NUMBER, "epsilon": _NUMBER, "sigma": _NUMBER,
                 "checkpoint_every": _INT, "loss": ("an object", lambda v: isinstance(v, dict))}
_LOSS_FIELDS = {"margin": _NUMBER, "ranking_layers": _STRINGS, "kl_weight": _NUMBER,
                "ranking_weight": _NUMBER, "negatives_per_positive": _INT_OR_NULL,
                "seed": _INT}
_EVAL_FIELDS = {"seed": _INT, "layer": _STRING, "n_splits": _INT, "split_size": _INT,
                "probe_k": _INT, "probe_units": _INT_OR_NULL, "svm_iterations": _INT,
                "svm_c_grid": _C_GRID, "ridge_lambda": _NUMBER}


def _check_fields(doc: dict, fields: dict, where: str) -> None:
    """Raise a ConfigError for an unknown field or a value of the wrong JSON type.

    Values are checked, never coerced: summaries echo the config as given.
    """
    unknown = set(doc) - set(fields)
    if unknown:
        raise ConfigError(f"unknown {where} config fields: {sorted(unknown)}")
    for name, (kind, ok) in fields.items():
        if name in doc and not ok(doc[name]):
            raise ConfigError(f"{where} config field {name!r} must be {kind}, "
                              f"got {doc[name]!r}")


def _write_run_manifest(out_dir: Path, command: str, args, seed: int,
                        artifacts: list[str]) -> None:
    doc = {
        "command": command,
        "config": str(args.config),
        "data": str(args.data) if getattr(args, "data", None) else None,
        "checkpoint": str(args.checkpoint) if getattr(args, "checkpoint", None) else None,
        "out": str(out_dir),
        "seed": seed,
        "timestamp": datetime.now(timezone.utc).isoformat(),
        "artifacts": sorted(artifacts),
    }
    (out_dir / "run_manifest.json").write_text(
        json.dumps(doc, sort_keys=True, indent=2) + "\n", encoding="utf-8")


def _world_from_config(doc: dict) -> tuple[SyntheticWorld, int, int, int]:
    _check_fields(doc, _WORLD_FIELDS, "world")
    world = SyntheticWorld(
        concepts=doc.get("concepts", 5),
        seed=doc["seed"],
        image_noise=doc.get("image_noise", 0.05),
        sound_noise=doc.get("sound_noise", 0.05),
        text_noise=doc.get("text_noise", 0.5),
        words_per_concept=doc.get("words_per_concept", 50),
        teacher_smoothing=doc.get("teacher_smoothing", 0.01),
        output_dim=doc.get("output_dim", 64),
    )
    n = doc.get("triples", 30)
    return world, n, doc.get("val_size", 0), doc.get("test_size", 0)


def cmd_gen_data(args) -> int:
    doc = _load_config(args.config)
    world, n, val_size, test_size = _world_from_config(doc)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_dataset(world, n, out, val_size=val_size, test_size=test_size)
    artifacts = [str(p.relative_to(out)) for p in sorted(out.rglob("*"))
                 if p.is_file() and p.name != "run_manifest.json"]
    _write_run_manifest(out, "gen-data", args, world.seed, artifacts)
    print(f"gen-data: wrote {n} triples ({3 * n} samples) under {out}")
    return EXIT_OK


def _spec_from_config(doc: dict):
    scale = doc.get("scale", 1 / 16)
    if scale == "paper":
        return default_paper_spec()
    return desk_spec(float(scale))


def _train_config(doc: dict) -> TrainConfig:
    _check_fields(doc, _TRAIN_FIELDS, "train")
    loss_doc = dict(doc.get("loss", {}))
    _check_fields(loss_doc, _LOSS_FIELDS, "loss")
    if "ranking_layers" in loss_doc:
        loss_doc["ranking_layers"] = tuple(loss_doc["ranking_layers"])
    loss_doc.setdefault("seed", doc["seed"])
    return TrainConfig(
        seed=doc["seed"],
        learning_rate=doc.get("learning_rate", 1e-4),
        batch_size=doc.get("batch_size", 200),
        iterations=doc.get("iterations", 50_000),
        beta1=doc.get("beta1", 0.9),
        beta2=doc.get("beta2", 0.999),
        epsilon=doc.get("epsilon", 1e-8),
        sigma=doc.get("sigma", 0.01),
        checkpoint_every=doc.get("checkpoint_every", 0),
        loss=LossConfig(**loss_doc),
    )


def cmd_train(args) -> int:
    doc = _load_config(args.config)
    cfg = _train_config(doc)
    spec = _spec_from_config(doc)
    dataset = load_dataset(args.data)
    handles = dataset.handles("train")
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    result = train(spec, handles, cfg, checkpoint_dir=out / "checkpoint")
    write_trajectory_csv(out / "train_loss.csv", result.trajectory, cfg.loss)
    artifacts = [str(p.relative_to(out)) for p in sorted(out.rglob("*"))
                 if p.is_file() and p.name != "run_manifest.json"]
    _write_run_manifest(out, "train", args, cfg.seed, artifacts)
    final = result.trajectory[-1].terms.get("total", float("nan"))
    print(f"train: {cfg.iterations} iterations, final loss {final:.6f}, "
          f"checkpoint under {out / 'checkpoint' / 'final'}")
    return EXIT_OK


def _eval_retrieval(emb, dataset, cfg_doc, out, summary) -> list[str]:
    trips = dataset.triple_samples("test")
    layer = cfg_doc.get("layer", ev.DEFAULT_LAYER)
    results = []
    for src, dst in (("image", "sound"), ("sound", "image"),
                     ("image", "text"), ("text", "image")):
        pairs = [(t[src].id, t[dst].id) for t in trips]
        res = ev.median_rank_retrieval(
            emb["test", src][layer], emb["test", dst][layer], pairs,
            cfg_doc.get("n_splits", 1), cfg_doc.get("split_size", len(trips)),
            cfg_doc["seed"], direction=f"{src}->{dst}")
        results.append(res)
        summary.setdefault("retrieval", {})[res.direction] = res.average_median_rank
    ev.write_ranks_csv(out / "retrieval_ranks.csv", results)
    return ["retrieval_ranks.csv"]


def _eval_bridge(emb, dataset, cfg_doc, out, summary) -> list[str]:
    trips = dataset.triple_samples("test")
    layer = cfg_doc.get("layer", ev.DEFAULT_LAYER)
    pairs = [(t["sound"].id, t["text"].id) for t in trips]
    res = ev.bridge_transfer_eval(
        emb["test", "sound"][layer], emb["test", "text"][layer], pairs,
        cfg_doc.get("n_splits", 1), cfg_doc.get("split_size", len(trips)), cfg_doc["seed"])
    for direction, r in res.items():
        summary.setdefault("bridge", {})[direction] = r.average_median_rank
    ev.write_ranks_csv(out / "bridge_ranks.csv", list(res.values()))
    return ["bridge_ranks.csv"]


def _eval_zero_shot(emb, dataset, cfg_doc, out, summary) -> list[str]:
    if dataset.labels is None:
        raise ConfigError("task zero-shot needs labels.csv next to the manifest")
    layer = cfg_doc.get("layer", ev.DEFAULT_LAYER)
    tests = {m: emb["test", m][layer] for m in MODALITIES}
    results = []
    for train_mod in MODALITIES:
        results.extend(ev.zero_shot_transfer(
            train_mod, emb["train", train_mod][layer], tests, dataset.labels,
            max(dataset.labels.values()) + 1,
            c_grid=tuple(cfg_doc.get("svm_c_grid", ev.DEFAULT_C_GRID)),
            seed=cfg_doc["seed"], iterations=cfg_doc.get("svm_iterations", 300)))
    for res in results:
        summary.setdefault("zero_shot", {})[f"{res.train_modality}->{res.test_modality}"] = \
            res.accuracy
    ev.write_accuracies_csv(out / "accuracies.csv", results)
    return ["accuracies.csv"]


def _eval_baseline(emb, dataset, cfg_doc, out, summary) -> list[str]:
    layer = "bottleneck"  # modality-specific features, mapped into vision space
    train_trips = dataset.triple_samples("train")
    test_trips = dataset.triple_samples("test")
    results = []
    for src in ("sound", "text"):
        train_pairs = [(t[src].id, t["image"].id) for t in train_trips]
        test_pairs = [(t[src].id, t["image"].id) for t in test_trips]
        res = ev.baseline_retrieval(
            emb["train", src][layer], emb["train", "image"][layer], train_pairs,
            emb["test", src][layer], emb["test", "image"][layer], test_pairs,
            cfg_doc.get("n_splits", 1), cfg_doc.get("split_size", len(test_trips)),
            cfg_doc["seed"], cfg_doc.get("ridge_lambda", 1e-3),
            direction=f"{src}->image (ridge)")
        results.append(res)
        summary.setdefault("baseline", {})[res.direction] = res.average_median_rank
    ev.write_ranks_csv(out / "baseline_ranks.csv", results)
    return ["baseline_ranks.csv"]


def _eval_probe(emb, dataset, cfg_doc, out, summary) -> list[str]:
    layer = cfg_doc.get("layer", ev.DEFAULT_LAYER)
    k = cfg_doc.get("probe_k", 5)
    unit_limit = cfg_doc.get("probe_units")
    listings = ev.probe_units({m: emb["test", m][layer] for m in MODALITIES}, k=k,
                              units=range(unit_limit) if unit_limit else None)
    ev.write_probe_csv(out / "probe.csv", listings)
    summary["probe"] = {"units": len(listings), "k": k}
    return ["probe.csv"]


# Each task's runner and the (splits, modalities) of the embeddings it reads.
_TEST, _BOTH = ("test",), ("train", "test")
_TASK_RUNNERS = {
    "retrieval": (_eval_retrieval, _TEST, MODALITIES),
    "bridge": (_eval_bridge, _TEST, ("sound", "text")),
    "zero-shot": (_eval_zero_shot, _BOTH, MODALITIES),
    "baseline": (_eval_baseline, _BOTH, MODALITIES),
    "probe": (_eval_probe, _TEST, MODALITIES),
}


def cmd_eval(args) -> int:
    doc = _load_config(args.config)
    tasks = [t.strip() for t in (args.tasks or ",".join(EVAL_TASKS)).split(",") if t.strip()]
    unknown = [t for t in tasks if t not in EVAL_TASKS]
    if unknown:
        raise ConfigError(
            f"unknown eval tasks {unknown}; valid tasks are: {', '.join(EVAL_TASKS)}"
        )
    _check_fields(doc, _EVAL_FIELDS, "eval")
    ev.check_tap(doc.get("layer", ev.DEFAULT_LAYER))
    _, params, _ = load_checkpoint(args.checkpoint)
    dataset = load_dataset(args.data)
    if not dataset.pair_ids("test"):
        raise ConfigError("dataset has no test split; regenerate with test_size > 0")
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    # One forward per (split, modality) batch gives every tap for every task.
    needed = sorted({(split, m) for t in tasks for split in _TASK_RUNNERS[t][1]
                     for m in _TASK_RUNNERS[t][2]})
    emb = {(split, m): ev.embed_taps(params, [t[m] for t in dataset.triple_samples(split)])
           for split, m in needed}

    summary: dict = {"config": doc, "tasks": tasks,
                     "full_scale_reference": ev.FULL_SCALE_REFERENCE}
    artifacts: list[str] = []
    for task in tasks:
        artifacts.extend(_TASK_RUNNERS[task][0](emb, dataset, doc, out, summary))
    ev.write_summary_json(out / "summary.json", summary)
    artifacts.append("summary.json")
    _write_run_manifest(out, "eval", args, doc["seed"], artifacts)
    for task in tasks:
        key = task.replace("-", "_")
        if key in summary and isinstance(summary[key], dict):
            for name, value in summary[key].items():
                print(f"{task}: {name} = {value}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="crossmodal",
        description="Aligned image/sound/text representation pipeline",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen-data", help="generate a synthetic dataset")
    gen.add_argument("--config", required=True, help="world config JSON")
    gen.add_argument("--out", required=True, help="output directory")
    gen.set_defaults(fn=cmd_gen_data)

    tr = sub.add_parser("train", help="train a model on a dataset manifest")
    tr.add_argument("--config", required=True, help="train config JSON")
    tr.add_argument("--data", required=True, help="dataset manifest CSV")
    tr.add_argument("--out", required=True, help="output directory")
    tr.set_defaults(fn=cmd_train)

    evp = sub.add_parser("eval", help="evaluate a checkpoint")
    evp.add_argument("--config", required=True, help="eval config JSON")
    evp.add_argument("--data", required=True, help="dataset manifest CSV")
    evp.add_argument("--checkpoint", required=True, help="checkpoint directory")
    evp.add_argument("--out", required=True, help="output directory")
    evp.add_argument("--tasks", default=None,
                     help=f"comma-separated subset of: {', '.join(EVAL_TASKS)}")
    evp.set_defaults(fn=cmd_eval)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ConfigError, ShapeError, ContractError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (DataFormatError, DegenerateInputError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except NumericError as exc:
        print(f"numeric abort: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
