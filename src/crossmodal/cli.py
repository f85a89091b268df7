"""Command-line entry point: data generation, training, evaluation.

    crossmodal gen-data --config world.json --out DIR
    crossmodal train    --config train.json --data manifest.csv --out DIR
    crossmodal eval     --config eval.json  --data manifest.csv \
                        --checkpoint CKPT --out DIR [--tasks retrieval,bridge,...]

Configs are JSON and must carry an explicit seed; nothing is ever sampled
from the clock. A config holds the fields of one dataclass, which states
their defaults and ranges (SyntheticWorld, TrainConfig with its LossConfig,
EvalConfig), plus a few CLI-only fields. Every command writes a run manifest listing its artifacts,
and rerunning a command reproduces those artifacts bitwise (the manifest's
timestamp and environment aside): the package pins numpy's bundled OpenBLAS
to one thread, and under another BLAS the thread count must be fixed. Eval
runs every requested task before it writes any report, so a failing task
leaves no output directory. Exit codes: 0 ok, 2 config error, 3 data error,
4 numeric abort.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from datetime import datetime, timezone
from functools import cache, partial
from pathlib import Path

import numpy as np

from . import BLAS_THREADS, CONV_WORKERS
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
from .training import (TrainConfig, check_training_data, load_checkpoint, train,
                       write_trajectory_csv)

EVAL_TASKS = ("retrieval", "bridge", "zero-shot", "baseline", "probe")

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4

# The thread count of a multithreaded BLAS changes the bits of its sums; they
# matter only where the package could not pin BLAS to one thread.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


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


# The JSON value a config field takes, by its dataclass field's annotation.
_JSON_TYPES = {
    "int": ("an integer", _is_int),
    "int | None": ("an integer or null", lambda v: v is None or _is_int(v)),
    "float": ("a number", _is_number),
    "str": ("a string", lambda v: isinstance(v, str)),
    "tuple[str, ...]": ("a list of strings",
                        lambda v: isinstance(v, list) and all(isinstance(x, str) for x in v)),
    "tuple[float, ...]": ("a list of numbers",
                          lambda v: isinstance(v, list) and all(map(_is_number, v))),
    "LossConfig": ("an object", lambda v: isinstance(v, dict)),
}


def _fields(cls, doc: dict, where: str, extras=()) -> dict:
    """The values ``doc`` gives the fields of config dataclass ``cls``, lists
    as tuples, ready for ``cls(**...)``, which checks their ranges.

    A field that neither ``cls`` nor the CLI-only ``extras`` defines, or a
    value whose JSON type does not fit its field's annotation, is a
    ConfigError naming it. Values are checked, never coerced (a bool is no
    integer): summaries echo the config as written.
    """
    types = {f.name: f.type for f in dataclasses.fields(cls)}
    unknown = set(doc) - set(types) - set(extras)
    if unknown:
        raise ConfigError(f"unknown {where} config fields: {sorted(unknown)}")
    values = {}
    for name, value in doc.items():
        if name in types:
            kind, ok = _JSON_TYPES[types[name]]
            if not ok(value):
                raise ConfigError(f"{where} config field {name!r} must be {kind}, "
                                  f"got {value!r}")
            values[name] = tuple(value) if isinstance(value, list) else value
    return values


def _write_run_manifest(out_dir: Path, command: str, args, seed: int,
                        artifacts: list[str]) -> None:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    doc = {
        "command": command,
        "config": str(args.config),
        "data": str(args.data) if getattr(args, "data", None) else None,
        "checkpoint": str(args.checkpoint) if getattr(args, "checkpoint", None) else None,
        "out": str(out_dir),
        "seed": seed,
        "timestamp": datetime.now(timezone.utc).isoformat(),
        "artifacts": sorted(artifacts),
        "environment": {"numpy": np.__version__,
                        "blas": {k: blas.get(k) for k in ("name", "version")},
                        "blas_threads": BLAS_THREADS,
                        "conv_workers": CONV_WORKERS,
                        **{var: os.environ.get(var) for var in BLAS_THREAD_VARS}},
    }
    (out_dir / "run_manifest.json").write_text(
        json.dumps(doc, sort_keys=True, indent=2) + "\n", encoding="utf-8")


# The world config's CLI-only fields, each with its default and least value.
_WORLD_COUNTS = {"triples": (30, 1), "val_size": (0, 0), "test_size": (0, 0)}


def _world_from_config(doc: dict) -> tuple[SyntheticWorld, int, int, int]:
    world = SyntheticWorld(**{"concepts": 5,
                              **_fields(SyntheticWorld, doc, "world", _WORLD_COUNTS)})
    counts = []
    for name, (default, least) in _WORLD_COUNTS.items():
        value = doc.get(name, default)
        if not (_is_int(value) and value >= least):
            raise ConfigError(f"world config field {name!r} must be an integer >= {least}, "
                              f"got {value!r}")
        counts.append(value)
    n, val_size, test_size = counts
    if val_size + test_size > n:
        raise ConfigError(f"world config fields 'val_size' + 'test_size' ({val_size} + "
                          f"{test_size}) must be at most 'triples' ({n})")
    return (world, *counts)


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
    if not _is_number(scale):
        raise ConfigError(f'train config field \'scale\' must be a number or "paper", '
                          f"got {scale!r}")
    return desk_spec(float(scale))


def _train_config(doc: dict) -> TrainConfig:
    """The train fields, then the nested loss."""
    values = _fields(TrainConfig, doc, "train", extras=("scale",))
    loss = _fields(LossConfig, values.pop("loss", {}), "loss")
    return TrainConfig(**values, loss=LossConfig(**loss))


def cmd_train(args) -> int:
    doc = _load_config(args.config)
    cfg = _train_config(doc)
    spec = _spec_from_config(doc)
    dataset = load_dataset(args.data)
    handles = dataset.handles("train")
    check_training_data(spec, handles, cfg)  # before the run directory exists
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


# The (query, target) modality pairs each cosine-ranking task ranks at the
# eval tap. Training never pairs sound with text: the bridge is pure transfer.
_RANKED_PAIRS = {
    "retrieval": (("image", "sound"), ("sound", "image"), ("image", "text"), ("text", "image")),
    "bridge": (("sound", "text"), ("text", "sound")),
}


def _eval_ranks(task, emb, dataset, cfg, summary) -> dict:
    trips = dataset.triple_samples("test")
    results = []
    for src, dst in _RANKED_PAIRS[task]:
        targets = emb("test", dst)[cfg.layer]
        # The cosine would stop at a dead target row without naming it; queries
        # are standardized first, so a zero query row still ranks.
        ev.require_nonzero_rows(targets, cfg.layer, "test")
        res = ev.median_rank_retrieval(
            emb("test", src)[cfg.layer], targets, [(t[src].id, t[dst].id) for t in trips],
            cfg.n_splits, cfg.split_size or len(trips), cfg.seed, direction=f"{src}->{dst}")
        results.append(res)
        summary.setdefault(task, {})[res.direction] = res.average_median_rank
    return {f"{task}_ranks.csv": partial(ev.write_ranks_csv, results=results)}


def _eval_zero_shot(emb, dataset, cfg, summary) -> dict:
    if dataset.labels is None:
        raise ConfigError("task zero-shot needs labels.csv next to the manifest")
    tests = {m: emb("test", m)[cfg.layer] for m in MODALITIES}
    results = []
    for train_mod in MODALITIES:
        results.extend(ev.zero_shot_transfer(
            train_mod, emb("train", train_mod)[cfg.layer], tests, dataset.labels,
            max(dataset.labels.values()) + 1, c_grid=cfg.svm_c_grid, seed=cfg.seed,
            iterations=cfg.svm_iterations))
    for res in results:
        summary.setdefault("zero_shot", {})[f"{res.train_modality}->{res.test_modality}"] = \
            res.accuracy
    return {"accuracies.csv": partial(ev.write_accuracies_csv, results=results)}


def _eval_baseline(emb, dataset, cfg, summary) -> dict:
    layer = "bottleneck"  # modality-specific features, mapped into vision space
    train_trips = dataset.triple_samples("train")
    test_trips = dataset.triple_samples("test")
    ev.require_nonzero_rows(emb("test", "image")[layer], layer, "test")
    results = []
    for src in ("sound", "text"):
        train_pairs = [(t[src].id, t["image"].id) for t in train_trips]
        test_pairs = [(t[src].id, t["image"].id) for t in test_trips]
        res = ev.baseline_retrieval(
            emb("train", src)[layer], emb("train", "image")[layer], train_pairs,
            emb("test", src)[layer], emb("test", "image")[layer], test_pairs,
            cfg.n_splits, cfg.split_size or len(test_trips), cfg.seed, cfg.ridge_lambda,
            direction=f"{src}->image (ridge)")
        results.append(res)
        summary.setdefault("baseline", {})[res.direction] = res.average_median_rank
    return {"baseline_ranks.csv": partial(ev.write_ranks_csv, results=results)}


def _eval_probe(emb, dataset, cfg, summary) -> dict:
    units = range(cfg.probe_units) if cfg.probe_units else None
    listings = ev.probe_units({m: emb("test", m)[cfg.layer] for m in MODALITIES},
                              k=cfg.probe_k, units=units)
    summary["probe"] = {"units": len(listings), "k": cfg.probe_k}
    return {"probe.csv": partial(ev.write_probe_csv, listings=listings)}


# Each task's runner: it reads embeddings through ``emb(split, modality)``,
# fills its summary entries and returns {report file name: writer(path)}.
_TASK_RUNNERS = {
    "retrieval": partial(_eval_ranks, "retrieval"),
    "bridge": partial(_eval_ranks, "bridge"),
    "zero-shot": _eval_zero_shot,
    "baseline": _eval_baseline,
    "probe": _eval_probe,
}


def cmd_eval(args) -> int:
    doc = _load_config(args.config)
    tasks = [t.strip() for t in (args.tasks or ",".join(EVAL_TASKS)).split(",") if t.strip()]
    unknown = [t for t in tasks if t not in EVAL_TASKS]
    if unknown:
        raise ConfigError(
            f"unknown eval tasks {unknown}; valid tasks are: {', '.join(EVAL_TASKS)}"
        )
    cfg = ev.EvalConfig(**_fields(ev.EvalConfig, doc, "eval"))
    spec, params, _ = load_checkpoint(args.checkpoint)
    width = {"bottleneck": spec.bottleneck_dim, "shared1": spec.shared_widths[0],
             "shared2": spec.shared_widths[-1], "softmax": spec.output_dim}[cfg.layer]
    if cfg.probe_units is not None and cfg.probe_units > width:
        raise ConfigError(f"eval config field 'probe_units' must be at most the width "
                          f"of tap {cfg.layer!r} ({width}), got {cfg.probe_units}")
    dataset = load_dataset(args.data)
    held_out = len(dataset.pair_ids("test"))
    if not held_out:
        raise ConfigError("dataset has no test split; regenerate with test_size > 0")
    if cfg.n_splits * (cfg.split_size or held_out) > held_out:
        raise ConfigError(f"eval config fields 'n_splits' x 'split_size' ({cfg.n_splits} x "
                          f"{cfg.split_size or held_out}) must be at most the {held_out} "
                          f"held-out pairs")

    # One forward per batch of a (split, modality), on first use, gives every tap.
    @cache
    def emb(split, modality):
        return ev.embed_taps(params, [t[modality] for t in dataset.triple_samples(split)])

    summary: dict = {"config": doc, "tasks": tasks,
                     "full_scale_reference": ev.FULL_SCALE_REFERENCE}
    reports = {}
    for task in tasks:
        reports.update(_TASK_RUNNERS[task](emb, dataset, cfg, summary))
    reports["summary.json"] = partial(ev.write_summary_json, summary=summary)
    # Every task has run, so a failing one has left no output directory.
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for name, write in reports.items():
        write(out / name)
    _write_run_manifest(out, "eval", args, cfg.seed, list(reports))
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
