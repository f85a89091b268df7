"""Adam correctness, loop determinism, checkpoint round trips, resume splice."""

import json

import numpy as np
import pytest

from crossmodal import networks as nets
from crossmodal.autodiff import Tensor
from crossmodal.errors import (ConfigError, ContractError, DataFormatError,
                               DegenerateInputError, NumericError)
from crossmodal.formats import save_tensor
from crossmodal.losses import LossConfig
from crossmodal import training
from crossmodal.training import (
    OptimizerState,
    TrainConfig,
    adam_step,
    load_checkpoint,
    save_checkpoint,
    train,
    trajectory_columns,
    write_trajectory_csv,
)

from conftest import make_tiny_handles, make_tiny_spec


def adam_oracle(grads, lr=0.001, beta1=0.9, beta2=0.999, eps=1e-8, x0=0.0):
    """Scalar closed-form Adam: replays the update sequence independently."""
    x, m, v = x0, 0.0, 0.0
    for t, g in enumerate(grads, start=1):
        m = beta1 * m + (1 - beta1) * g
        v = beta2 * v + (1 - beta2) * g * g
        x -= lr * (m / (1 - beta1 ** t)) / (np.sqrt(v / (1 - beta2 ** t)) + eps)
    return x


def _scalar_params(value=0.0):
    spec = make_tiny_spec()
    params = nets.ModelParams(spec=spec, tensors={"w": Tensor(np.array(value),
                                                              requires_grad=True)})
    return params


def _cfg(**kw):
    kw.setdefault("seed", 0)
    kw.setdefault("learning_rate", 1e-3)
    kw.setdefault("batch_size", 3)
    kw.setdefault("iterations", 4)
    return TrainConfig(**kw)


def test_adam_zero_gradient_leaves_params_but_increments_step():
    params = _scalar_params(1.5)
    state = OptimizerState.for_params(params)
    adam_step(params, {"w": np.array(0.0)}, state, _cfg())
    assert params["w"].data == 1.5
    assert state.step == 1


def test_adam_first_step_moves_by_lr_sign():
    for g in (3.7, -0.002):
        params = _scalar_params(0.0)
        state = OptimizerState.for_params(params)
        adam_step(params, {"w": np.array(g)}, state, _cfg(learning_rate=1e-3))
        # first step is -lr * |g| / (|g| + eps), i.e. -lr*sign(g) up to O(eps/|g|)
        assert abs(float(params["w"].data) + 1e-3 * np.sign(g)) < 1e-3 * 1e-4


def test_adam_matches_scalar_oracle_for_10_steps():
    rng = np.random.default_rng(0)
    grads = rng.normal(size=10)
    params = _scalar_params(0.25)
    state = OptimizerState.for_params(params)
    cfg = _cfg(learning_rate=0.01)
    for g in grads:
        adam_step(params, {"w": np.array(g)}, state, cfg)
    expected = adam_oracle(grads, lr=0.01, x0=0.25)
    assert abs(float(params["w"].data) - expected) < 1e-12


def test_adam_rejects_mismatched_gradient_map():
    params = _scalar_params()
    state = OptimizerState.for_params(params)
    with pytest.raises(ContractError):
        adam_step(params, {}, state, _cfg())
    with pytest.raises(ContractError):
        adam_step(params, {"w": np.zeros(3)}, state, _cfg())


def test_train_deterministic_bitwise():
    spec = make_tiny_spec()
    cfg = _cfg(iterations=12, batch_size=3)
    results = []
    for _ in range(2):
        handles = make_tiny_handles(spec, 6, seed=1)
        results.append(train(spec, handles, cfg))
    a, b = results
    for name, t in a.params.items():
        assert np.array_equal(t.data, b.params[name].data)
    for ra, rb in zip(a.trajectory, b.trajectory):
        assert ra.terms == rb.terms


def test_train_empty_dataset_rejected():
    spec = make_tiny_spec()
    from crossmodal.data import DatasetHandles
    with pytest.raises(ConfigError):
        train(spec, DatasetHandles([], []), _cfg())


def test_train_requires_teacher_when_kl_enabled():
    spec = make_tiny_spec()
    handles = make_tiny_handles(spec, 6, seed=0)
    handles.teacher = None
    with pytest.raises(ConfigError):
        train(spec, handles, _cfg())


def test_train_numeric_abort_names_iteration():
    spec = make_tiny_spec()
    handles = make_tiny_handles(spec, 6, seed=0)
    with pytest.raises(NumericError, match="iteration"):
        train(spec, handles, _cfg(learning_rate=1e80, iterations=5))


def test_train_degenerate_row_is_numeric_abort_naming_iteration():
    # all-zero parameters give all-zero ReLU rows, which the ranking cosine rejects
    spec = make_tiny_spec()
    zeros = nets.ModelParams(spec, {n: Tensor(np.zeros_like(t.data), requires_grad=True)
                                    for n, t in nets.init_params(spec, seed=0).items()})
    with pytest.raises(NumericError, match="iteration 0: .*zero-norm row") as info:
        train(spec, make_tiny_handles(spec, 6, seed=0), _cfg(), params=zeros)
    assert isinstance(info.value.__cause__, DegenerateInputError)


def test_shared_trunk_receives_gradient_from_both_pair_types():
    spec = make_tiny_spec()
    handles = make_tiny_handles(spec, 6, seed=2)
    init = nets.init_params(spec, seed=0, sigma=0.01)
    baseline = {n: t.data.copy() for n, t in init.items()}
    result = train(spec, handles, _cfg(iterations=2, learning_rate=1e-2))
    for name in ("shared.fc1.weight", "shared.fc2.weight", "shared.out.weight"):
        assert not np.array_equal(result.params[name].data, baseline[name])


def test_checkpoint_roundtrip_bitwise(tmp_path):
    spec = make_tiny_spec()
    handles = make_tiny_handles(spec, 6, seed=3)
    result = train(spec, handles, _cfg(iterations=3))
    save_checkpoint(tmp_path / "ck", result.params, result.state)
    _, params, state = load_checkpoint(tmp_path / "ck")
    assert state.step == result.state.step
    for name, t in result.params.items():
        assert np.array_equal(t.data, params[name].data)
        assert np.array_equal(result.state.m[name], state.m[name])
        assert np.array_equal(result.state.v[name], state.v[name])


def test_checkpoint_mismatched_spec_names_tensor(tmp_path):
    spec = make_tiny_spec()
    params = nets.init_params(spec, seed=0)
    save_checkpoint(tmp_path / "ck", params, OptimizerState.for_params(params))
    other = nets.desk_spec(1 / 16)
    with pytest.raises(ContractError, match=r"sound\.conv1\.kernels|missing tensors"):
        load_checkpoint(tmp_path / "ck", expected_spec=other)


def test_checkpoint_missing_blob_named(tmp_path):
    spec = make_tiny_spec()
    params = nets.init_params(spec, seed=0)
    save_checkpoint(tmp_path / "ck", params, OptimizerState.for_params(params))
    (tmp_path / "ck" / "image.conv1.kernels.tnsr").unlink()
    with pytest.raises(DataFormatError, match="image.conv1.kernels"):
        load_checkpoint(tmp_path / "ck")


def _tiny_checkpoint(path):
    params = nets.init_params(make_tiny_spec(), seed=0)
    return save_checkpoint(path, params, OptimizerState.for_params(params))


def _edit_manifest(ck, edit):
    doc = json.loads((ck / "checkpoint.json").read_text())
    edit(doc)
    (ck / "checkpoint.json").write_text(json.dumps(doc))


@pytest.mark.parametrize("kind", ["m", "v"])
def test_checkpoint_missing_moment_blob_named(tmp_path, kind):
    ck = _tiny_checkpoint(tmp_path / "ck")
    (ck / f"sound.fc1.weight.{kind}.tnsr").unlink()
    with pytest.raises(DataFormatError, match=rf"blob missing: sound\.fc1\.weight\.{kind}\.tnsr"):
        load_checkpoint(ck)


@pytest.mark.parametrize("kind", ["m", "v"])
def test_checkpoint_moment_shape_checked(tmp_path, kind):
    ck = _tiny_checkpoint(tmp_path / "ck")
    save_tensor(ck / f"image.conv1.kernels.{kind}.tnsr", np.zeros((4, 2, 3)))
    with pytest.raises(ContractError, match=rf"image\.conv1\.kernels\.{kind}\.tnsr has shape"):
        load_checkpoint(ck)


def test_checkpoint_extra_tensor_names_listed(tmp_path):
    ck = _tiny_checkpoint(tmp_path / "ck")
    _edit_manifest(ck, lambda doc: doc["tensors"].append("sound.fc9.weight"))
    with pytest.raises(ContractError,
                       match=r"missing tensors \[\], extra tensors \['sound\.fc9\.weight'\]"):
        load_checkpoint(ck)


@pytest.mark.parametrize("key", ["step", "spec", "tensors"])
def test_checkpoint_manifest_key_missing(tmp_path, key):
    ck = _tiny_checkpoint(tmp_path / "ck")
    _edit_manifest(ck, lambda doc: doc.pop(key))
    with pytest.raises(DataFormatError, match=rf"checkpoint\.json: .*{key}"):
        load_checkpoint(ck)


@pytest.mark.parametrize("older", [False, True])
def test_checkpoint_save_crash_leaves_nothing_loadable(tmp_path, monkeypatch, older):
    ck = tmp_path / "ck"
    if older:
        _tiny_checkpoint(ck)
    calls = []

    def failing(path, array):
        calls.append(path)
        if len(calls) == 3:
            raise OSError("disk full")
        save_tensor(path, array)

    monkeypatch.setattr(training, "save_tensor", failing)
    params = nets.init_params(make_tiny_spec(), seed=1)
    with pytest.raises(OSError, match="disk full"):
        save_checkpoint(ck, params, OptimizerState.for_params(params))
    with pytest.raises(DataFormatError, match="no checkpoint manifest"):
        load_checkpoint(ck)
    assert sorted(p.name for p in ck.iterdir() if p.suffix != ".tnsr") == []


def test_checkpoint_corrupt_manifest(tmp_path):
    (tmp_path / "ck").mkdir()
    (tmp_path / "ck" / "checkpoint.json").write_text("{not json")
    with pytest.raises(DataFormatError):
        load_checkpoint(tmp_path / "ck")


def test_resume_splices_exactly(tmp_path):
    spec = make_tiny_spec()
    cfg = _cfg(iterations=10, batch_size=3)

    unbroken = train(spec, make_tiny_handles(spec, 6, seed=4), cfg)

    first = train(spec, make_tiny_handles(spec, 6, seed=4),
                  _cfg(iterations=5, batch_size=3))
    save_checkpoint(tmp_path / "mid", first.params, first.state)
    _, params, state = load_checkpoint(tmp_path / "mid")
    resumed = train(spec, make_tiny_handles(spec, 6, seed=4), cfg,
                    params=params, state=state, start_iteration=5)

    for name, t in unbroken.params.items():
        assert np.array_equal(t.data, resumed.params[name].data), name
    spliced = first.trajectory + resumed.trajectory
    assert [r.iteration for r in spliced] == list(range(10))
    for ra, rb in zip(unbroken.trajectory, spliced):
        for key in ra.terms:
            assert abs(ra.terms[key] - rb.terms[key]) < 1e-12


def test_trajectory_csv_row_count_and_columns(tmp_path):
    spec = make_tiny_spec()
    cfg = _cfg(iterations=6)
    result = train(spec, make_tiny_handles(spec, 6, seed=5), cfg)
    path = tmp_path / "loss.csv"
    write_trajectory_csv(path, result.trajectory, cfg.loss)
    lines = path.read_text().strip().splitlines()
    assert lines[0].split(",") == trajectory_columns(cfg.loss)
    assert len(lines) == 1 + 6


def test_config_validation():
    with pytest.raises(ConfigError):
        TrainConfig(seed=0, learning_rate=0.0)
    with pytest.raises(ConfigError):
        TrainConfig(seed=0, batch_size=1)
    with pytest.raises(ConfigError):
        TrainConfig(seed=0, iterations=0)
    cfg = TrainConfig(seed=0)
    assert cfg.learning_rate == 1e-4 and cfg.batch_size == 200 \
        and cfg.iterations == 50_000
    assert (cfg.beta1, cfg.beta2, cfg.epsilon) == (0.9, 0.999, 1e-8)
    assert LossConfig().margin == 0.5
