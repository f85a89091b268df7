"""Adam optimizer, deterministic training loop, and checkpointing.

The loop alternates image+sound and image+text batches (so both pair types
contribute gradient to the shared trunk with equal frequency) and is a pure
function of (spec, data, config): at a fixed BLAS thread count, two runs
produce bitwise-identical checkpoints, and a run resumed from a checkpoint
continues the exact trajectory of an unbroken one.
"""

from __future__ import annotations

import csv
import json
import os
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .autodiff import backward
from .data import DatasetHandles, schedule_batch
from .errors import (ConfigError, ContractError, DataFormatError, DegenerateInputError,
                     NumericError, require)
from .formats import load_tensor, save_tensor
from .losses import LossConfig, combined_loss
from .networks import (
    ModelParams,
    NetworkSpec,
    Tensor,
    init_params,
    parameter_shapes,
    spec_from_json,
    spec_to_json,
)

CHECKPOINT_FILE = "checkpoint.json"
CHECKPOINT_FORMAT = "crossmodal-checkpoint-v1"


@dataclass(frozen=True)
class TrainConfig:
    seed: int
    learning_rate: float = 1e-4
    batch_size: int = 200
    iterations: int = 50_000
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8
    sigma: float = 0.01
    checkpoint_every: int = 0  # 0: only the final checkpoint
    loss: LossConfig = field(default_factory=LossConfig)

    def __post_init__(self):
        require(self, self.seed >= 0, "seed", ">= 0")
        require(self, self.learning_rate > 0, "learning_rate", "> 0")
        require(self, self.batch_size >= 2, "batch_size", ">= 2")
        require(self, self.iterations >= 1, "iterations", ">= 1")
        for name in ("beta1", "beta2"):
            require(self, 0 <= getattr(self, name) < 1, name, "in [0, 1)")
        require(self, self.epsilon > 0, "epsilon", "> 0")
        require(self, self.sigma > 0, "sigma", "> 0")
        require(self, self.checkpoint_every >= 0, "checkpoint_every", ">= 0")


@dataclass
class OptimizerState:
    """Per-parameter first/second moments and the shared step counter."""

    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]
    step: int = 0

    @classmethod
    def for_params(cls, params: ModelParams) -> "OptimizerState":
        return cls(
            m={name: np.zeros_like(t.data) for name, t in params.items()},
            v={name: np.zeros_like(t.data) for name, t in params.items()},
            step=0,
        )


def adam_step(params: ModelParams, grads: dict[str, np.ndarray],
              state: OptimizerState, cfg: TrainConfig) -> None:
    """One bias-corrected Adam update, in place."""
    names = set(n for n, _ in params.items())
    if set(grads) != names:
        missing = sorted(names - set(grads))
        extra = sorted(set(grads) - names)
        raise ContractError(f"gradient map mismatch: missing {missing}, extra {extra}")
    state.step += 1
    bc1 = 1.0 - cfg.beta1 ** state.step
    bc2 = 1.0 - cfg.beta2 ** state.step
    for name, tensor in params.items():
        g = grads[name]
        if g.shape != tensor.data.shape:
            raise ContractError(
                f"gradient for {name} has shape {g.shape}, parameter is {tensor.data.shape}"
            )
        m = state.m[name]
        v = state.v[name]
        m *= cfg.beta1
        m += (1.0 - cfg.beta1) * g
        v *= cfg.beta2
        v += (1.0 - cfg.beta2) * (g * g)
        tensor.data -= cfg.learning_rate * (m / bc1) / (np.sqrt(v / bc2) + cfg.epsilon)


@dataclass
class TrajectoryRow:
    iteration: int
    pair_type: str
    terms: dict[str, float]


@dataclass
class TrainResult:
    params: ModelParams
    state: OptimizerState
    trajectory: list[TrajectoryRow]


def check_training_data(spec: NetworkSpec, data: DatasetHandles, cfg: TrainConfig) -> None:
    """Raise ConfigError where the data cannot train this spec under cfg."""
    if not data.image_sound or not data.image_text:
        raise ConfigError("training data must provide image+sound and image+text pairs")
    if cfg.loss.kl_weight > 0 and data.teacher is None:
        raise ConfigError("model-transfer loss enabled but dataset has no teacher targets")
    if data.teacher is not None:
        width = len(next(iter(data.teacher.probs.values())))
        if width != spec.output_dim:
            raise ConfigError(
                f"teacher rows have {width} classes but the network outputs "
                f"{spec.output_dim}; align the dataset's output_dim with the spec"
            )


def train(spec: NetworkSpec, data: DatasetHandles, cfg: TrainConfig,
          params: ModelParams | None = None, state: OptimizerState | None = None,
          start_iteration: int = 0, checkpoint_dir=None) -> TrainResult:
    """Run the loop from start_iteration to cfg.iterations.

    Pass params/state/start_iteration from a loaded checkpoint to resume; the
    batch schedule is a pure function of (seed, iteration), so the spliced run
    matches an unbroken one exactly. Aborts with a NumericError naming the
    offending term if any loss term goes non-finite, or the degenerate
    input (a zero-norm row in a ranking cosine) the iteration met.
    """
    check_training_data(spec, data, cfg)
    if params is None:
        params = init_params(spec, cfg.seed, cfg.sigma)
    if state is None:
        state = OptimizerState.for_params(params)

    trajectory: list[TrajectoryRow] = []
    for iteration in range(start_iteration, cfg.iterations):
        batch = schedule_batch(data, cfg.batch_size, cfg.seed, iteration)
        try:
            loss, terms = combined_loss(batch, params, cfg.loss)
        except (NumericError, DegenerateInputError) as exc:
            raise NumericError(f"iteration {iteration}: {exc}") from exc
        for term, value in terms.items():
            if not np.isfinite(value):
                raise NumericError(
                    f"iteration {iteration}: loss term {term!r} is non-finite ({value})"
                )
        backward(loss)
        grads = {name: (t.grad if t.grad is not None else np.zeros_like(t.data))
                 for name, t in params.items()}
        adam_step(params, grads, state, cfg)
        params.zero_grad()
        trajectory.append(TrajectoryRow(iteration, batch.pair_type, terms))
        if checkpoint_dir is not None and cfg.checkpoint_every > 0 \
                and (iteration + 1) % cfg.checkpoint_every == 0:
            save_checkpoint(Path(checkpoint_dir) / f"step-{iteration + 1:06d}", params, state)

    if checkpoint_dir is not None:
        save_checkpoint(Path(checkpoint_dir) / "final", params, state)
    return TrainResult(params, state, trajectory)


def trajectory_columns(loss_cfg: LossConfig) -> list[str]:
    cols = ["iteration", "total", "kl_term"]
    cols.extend(f"ranking_{layer}" for layer in loss_cfg.ranking_layers)
    return cols


def write_trajectory_csv(path, trajectory, loss_cfg: LossConfig) -> None:
    cols = trajectory_columns(loss_cfg)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(cols)
        for row in trajectory:
            record = [row.iteration,
                      repr(row.terms.get("total", 0.0)), repr(row.terms.get("kl", 0.0))]
            record.extend(repr(row.terms.get(f"ranking_{layer}", 0.0))
                          for layer in loss_cfg.ranking_layers)
            writer.writerow(record)


# -- checkpointing -------------------------------------------------------------


def _blob_name(name: str, kind: str) -> str:
    return f"{name}.{kind}.tnsr" if kind else f"{name}.tnsr"


def save_checkpoint(directory, params: ModelParams, state: OptimizerState) -> Path:
    """Manifest JSON plus one tensor blob per parameter and Adam moment.

    An older manifest is removed before any blob is written, and the new one
    is renamed into place after every blob, so a save that dies midway leaves
    no loadable checkpoint.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    manifest = directory / CHECKPOINT_FILE
    manifest.unlink(missing_ok=True)
    for name, tensor in params.items():
        save_tensor(directory / _blob_name(name, ""), tensor.data)
        save_tensor(directory / _blob_name(name, "m"), state.m[name])
        save_tensor(directory / _blob_name(name, "v"), state.v[name])
    doc = {
        "format": CHECKPOINT_FORMAT,
        "step": state.step,
        "spec": json.loads(spec_to_json(params.spec)),
        "tensors": [name for name, _ in params.items()],
    }
    partial = manifest.with_name(CHECKPOINT_FILE + ".partial")
    partial.write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n", encoding="utf-8")
    os.replace(partial, manifest)
    return directory


def _load_blob(directory: Path, name: str, kind: str, shape: tuple[int, ...]) -> np.ndarray:
    blob = directory / _blob_name(name, kind)
    if not blob.exists():
        raise DataFormatError(f"checkpoint blob missing: {blob.name}")
    data = load_tensor(blob)
    if data.shape != shape:
        raise ContractError(f"tensor {blob.name} has shape {data.shape}, spec expects {shape}")
    return data


def load_checkpoint(directory, expected_spec: NetworkSpec | None = None
                    ) -> tuple[NetworkSpec, ModelParams, OptimizerState]:
    directory = Path(directory)
    manifest_path = directory / CHECKPOINT_FILE
    if not manifest_path.exists():
        raise DataFormatError(f"no checkpoint manifest at {manifest_path}")
    try:
        doc = json.loads(manifest_path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise DataFormatError(f"corrupt checkpoint manifest {manifest_path}: {exc}") from exc
    if doc.get("format") != CHECKPOINT_FORMAT:
        raise DataFormatError(f"{manifest_path}: unknown checkpoint format {doc.get('format')!r}")
    absent = [key for key in ("step", "spec", "tensors") if key not in doc]
    if absent:
        raise DataFormatError(f"{manifest_path}: checkpoint manifest has no {', '.join(absent)}")
    spec = spec_from_json(json.dumps(doc["spec"]))
    expected_shapes = parameter_shapes(expected_spec or spec)

    names = doc["tensors"]
    if set(names) != set(expected_shapes):
        missing = sorted(set(expected_shapes) - set(names))
        extra = sorted(set(names) - set(expected_shapes))
        raise ContractError(
            f"checkpoint does not match spec: missing tensors {missing}, extra tensors {extra}")
    tensors: dict[str, Tensor] = {}
    m: dict[str, np.ndarray] = {}
    v: dict[str, np.ndarray] = {}
    for name, shape in expected_shapes.items():
        tensors[name] = Tensor(_load_blob(directory, name, "", shape), requires_grad=True)
        m[name] = _load_blob(directory, name, "m", shape)
        v[name] = _load_blob(directory, name, "v", shape)
    params = ModelParams(spec=expected_spec or spec, tensors=tensors)
    state = OptimizerState(m=m, v=v, step=int(doc["step"]))
    return params.spec, params, state
