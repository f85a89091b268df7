"""The three benchmark workloads, driven only through crossmodal's public API.

A workload is a set-up function plus an endless stream of operations.
``Op.fn()`` is the one call that is timed, and it returns a JSON-able record
of the program's output, which is compared with
``reference.json[workload][op.key]``. Any preparation that is not the
operation itself (fresh parameters, generated inputs) happens in the
generator before it yields, so it is never timed.

Operations come in rounds: a round is the fixed sequence ``kinds``, and a
kind may appear in it more than once.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import shutil
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from crossmodal import cli
from crossmodal import data
from crossmodal import evaluation as ev
from crossmodal import networks as nets
from crossmodal import training
from crossmodal.losses import LossConfig

# Seeds map onto this many input variants, so that reference outputs can be
# stored for every variant a run may meet.
VARIANTS = 8

# train-desk: criterion 5's world and optimiser settings.
TRAIN_WORLD = dict(concepts=50, seed=42, output_dim=64)
TRAIN_TRIPLES = 50
TRAIN_BATCH = 8
TRAIN_LR = 3e-3
# A trajectory restarts from fresh parameters after this many iterations. It
# is longer than a run at the seed commit, so no run repeats a step.
TRAIN_CYCLE = 160

# eval-desk: the README's example world, at 90 triples with 30 held out, so
# that one eval (about 6 s) runs several times in a run and its mean rests
# on more than two samples.
EVAL_WORLD = dict(concepts=10, seed=7, output_dim=64)
EVAL_TRIPLES = 90
EVAL_TEST = 30
EVAL_CONFIG = {"seed": 5, "layer": "shared2", "n_splits": 1, "split_size": EVAL_TEST,
               "probe_k": 5, "probe_units": 16, "ridge_lambda": 0.001}
# Every eval round loads another checkpoint and every embedding round gets
# another init seed, drawn in turn from these pools, so nothing memoised
# across calls can be reused within a run.
EVAL_POOL = 12
CHECKPOINT_SEED0 = 1000
EMBED_ROUNDS = 4  # embedding rounds before each eval
EMBED_POOL = EMBED_ROUNDS * EVAL_POOL
EMBED_SEED0 = 2000

# paper-forward: distinct input sets per variant before inputs repeat, and
# forwards per modality in a round. The cheap sound and text forwards run
# four times a round, so their means rest on as many samples as a run
# allows.
PAPER_INPUT_SETS = 16
PAPER_FORWARDS = {"image": 1, "sound": 4, "text": 4}

MODALITIES = ("image", "sound", "text")


class Op(NamedTuple):
    kind: str
    key: str  # where reference.json holds the expected output
    samples: int  # samples processed, for throughput
    fn: Callable[[], dict]


def digest(*arrays) -> dict:
    """Sum, sum of squares and a byte hash over arrays, for output checks."""
    h = hashlib.sha256()
    total = 0.0
    squares = 0.0
    for a in arrays:
        a = np.ascontiguousarray(a, dtype=np.float64)
        h.update(a.tobytes())
        total += float(a.sum())
        squares += float((a * a).sum())
    return {"sum": total, "sumsq": squares, "sha256": h.hexdigest()}


class Workload:
    """Base class. ``kinds`` is one round's operations in order; the
    end-to-end metrics read ``round_kinds`` (summed per round) and the
    operations that carry the sound and the text path. ``aliases`` names
    those metrics as the workload's own description does; ``p90_name``, if
    set, names the p90 over every operation, for workloads whose minimum
    rounds leave ten operations beyond it."""

    name = ""
    kinds: tuple[str, ...] = ()
    round_kinds: tuple[str, ...] = ()
    sound_kind = ""
    text_kind = ""
    min_rounds = 1
    aliases: dict[str, str] = {}
    p90_name = ""

    def __init__(self, variant: int, work_dir: Path):
        self.variant = variant
        self.work_dir = work_dir

    def setup(self, index: int) -> None:
        """Build inputs and parameters; called several times, all timed."""
        raise NotImplementedError

    def discard(self) -> None:
        """Release the previous set-up before the next one, untimed."""

    def operations(self):
        raise NotImplementedError

    def close(self) -> None:
        self.discard()


class TrainDesk(Workload):
    name = "train-desk"
    kinds = round_kinds = ("sound_step", "text_step")
    sound_kind, text_kind = kinds
    min_rounds = 50  # 100 iterations: ten of them lie beyond the p90
    aliases = {"train_pairs_per_s": "samples_per_s", "sound_step_ms_mean": "sound_ms_mean",
               "text_step_ms_mean": "text_ms_mean"}
    p90_name = "step_ms_p90"

    def setup(self, index):
        world = data.SyntheticWorld(**TRAIN_WORLD)
        self.handles = data.handles_from_triples(data.generate_synthetic(world, TRAIN_TRIPLES))
        self.spec = nets.desk_spec(1 / 16)
        self.cfg = training.TrainConfig(seed=self.variant, learning_rate=TRAIN_LR,
                                        batch_size=TRAIN_BATCH, iterations=TRAIN_CYCLE,
                                        loss=LossConfig())
        self.params = nets.init_params(self.spec, self.cfg.seed, self.cfg.sigma)
        self.state = training.OptimizerState.for_params(self.params)

    def operations(self):
        cfgs = [dataclasses.replace(self.cfg, iterations=i + 1) for i in range(TRAIN_CYCLE)]
        pairs = [len(data.schedule_batch(self.handles, TRAIN_BATCH, self.cfg.seed, i).anchors)
                 for i in range(TRAIN_CYCLE)]
        while True:
            for i, cfg in enumerate(cfgs):
                kind = "sound_step" if i % 2 == 0 else "text_step"
                yield Op(kind, f"{self.variant}/{i}", pairs[i], self._step(cfg, i))
            self.params = nets.init_params(self.spec, self.cfg.seed, self.cfg.sigma)
            self.state = training.OptimizerState.for_params(self.params)

    def _step(self, cfg, iteration):
        def fn():
            result = training.train(self.spec, self.handles, cfg, params=self.params,
                                    state=self.state, start_iteration=iteration)
            row = result.trajectory[-1]
            return {"pair_type": row.pair_type, "terms": row.terms}
        return fn


class EvalDesk(Workload):
    name = "eval-desk"
    kinds = ("embed_image", "embed_sound", "embed_text") * EMBED_ROUNDS + ("eval",)
    round_kinds = ("eval",)
    sound_kind, text_kind = "embed_sound", "embed_text"
    min_rounds = 3
    aliases = {"eval_s_mean": "round_s_mean", "embed_samples_per_s": "samples_per_s"}

    def setup(self, index):
        root = self.work_dir / f"setup{index}"
        root.mkdir(parents=True)
        world = data.SyntheticWorld(**EVAL_WORLD)
        self.manifest = data.write_dataset(world, EVAL_TRIPLES, root / "data",
                                           test_size=EVAL_TEST)
        spec = nets.desk_spec(1 / 16)
        self.checkpoints = []
        for k in range(EVAL_POOL):
            seed = CHECKPOINT_SEED0 + k
            params = nets.init_params(spec, seed)
            path = root / "checkpoints" / str(seed)
            training.save_checkpoint(path, params, training.OptimizerState.for_params(params))
            self.checkpoints.append((seed, path))
        self.config_path = root / "eval.json"
        self.config_path.write_text(json.dumps(EVAL_CONFIG), encoding="utf-8")
        self.reports = root / "reports"
        self.spec = spec
        trips = data.load_dataset(self.manifest).triple_samples("test")
        self.held_out = {m: [t[m] for t in trips] for m in MODALITIES}

    def discard(self):
        shutil.rmtree(self.work_dir, ignore_errors=True)

    def operations(self):
        r = 0
        while True:
            for j in range(EMBED_ROUNDS):
                seed = EMBED_SEED0 + (EMBED_ROUNDS * (self.variant + r) + j) % EMBED_POOL
                params = nets.init_params(self.spec, seed)
                for m in MODALITIES:
                    yield Op(f"embed_{m}", f"embed{seed}/{m}", len(self.held_out[m]),
                             self._embed(params, m))
            seed, path = self.checkpoints[(self.variant + r) % EVAL_POOL]
            out = self.reports / str(r)
            yield Op("eval", f"checkpoint{seed}", 0, self._eval(path, out))
            shutil.rmtree(out, ignore_errors=True)
            r += 1

    def _embed(self, params, modality):
        samples = self.held_out[modality]

        def fn():
            vectors = ev.embed_all(params, samples, "shared2")
            return {"n": len(vectors), **digest(*(vectors[s.id] for s in samples))}
        return fn

    def _eval(self, checkpoint, out):
        argv = ["eval", "--config", str(self.config_path), "--data", str(self.manifest),
                "--checkpoint", str(checkpoint), "--out", str(out)]

        def fn():
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(argv)
            if code != 0:
                raise RuntimeError(f"crossmodal eval exited with {code}")
            summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
            return flatten(summary)
        return fn


class PaperForward(Workload):
    name = "paper-forward"
    kinds = tuple(m for m in MODALITIES for _ in range(PAPER_FORWARDS[m]))
    round_kinds = MODALITIES
    sound_kind, text_kind = "sound", "text"
    min_rounds = 5
    aliases = {"paper_forward_s_mean": "round_s_mean"}

    def setup(self, index):
        self.params = nets.init_params(nets.default_paper_spec(), self.variant)

    def discard(self):
        self.params = None

    def operations(self):
        spec = self.params.spec
        r = 0
        while True:
            inputs = r % PAPER_INPUT_SETS
            rng = np.random.default_rng((self.variant, inputs))
            for j, m in enumerate(self.kinds):
                batch = rng.standard_normal((1, *spec.input_shape(m)))
                yield Op(m, f"{self.variant}/{inputs}/{j}/{m}", 1, self._forward(batch, m))
            r += 1

    def _forward(self, batch, modality):
        def fn():
            acts = nets.forward_batch(self.params, batch, modality)
            probs = acts["softmax"].data
            bottleneck = acts["bottleneck"].data
            return {"softmax_shape": list(probs.shape),
                    "bottleneck_shape": list(bottleneck.shape),
                    "row_sum_error": float(np.abs(probs.sum(axis=1) - 1.0).max()),
                    "bottleneck": digest(bottleneck),
                    "softmax": digest(probs)}
        return fn


WORKLOADS = {w.name: w for w in (TrainDesk, EvalDesk, PaperForward)}


def flatten(doc, prefix="") -> dict:
    """Nested JSON object -> {"a/b/c": leaf}."""
    if not isinstance(doc, dict):
        return {prefix: doc}
    flat = {}
    for key, value in doc.items():
        flat.update(flatten(value, f"{prefix}/{key}" if prefix else str(key)))
    return flat
