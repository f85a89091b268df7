"""Architecture conformance, parameter init, forward taps, trunk sharing."""

import hashlib
import json

import numpy as np
import pytest

from crossmodal import networks as nets
from crossmodal.autodiff import backward
from crossmodal.errors import ConfigError, ShapeError

from conftest import make_tiny_spec


def test_paper_sound_pathway_shapes():
    spec = nets.default_paper_spec()
    shapes = nets.trace_pathway(spec.sound_input, spec.sound_layers)
    # pre-fc feature map is 256 filters x 4 time steps
    assert shapes[-3] == (256, 4)
    assert shapes[-2] == (1024,)
    assert shapes[-1] == (9216,)


def test_paper_text_pathway_shapes():
    spec = nets.default_paper_spec()
    shapes = nets.trace_pathway(spec.text_input, spec.text_layers)
    assert shapes[0] == (300, 16)
    assert shapes[-3] == (300, 4)  # temporal extent 16 -> 4
    assert shapes[-1] == (9216,)


def test_paper_vision_flattens_to_9216():
    spec = nets.default_paper_spec()
    shapes = nets.trace_pathway(spec.vision_input, spec.vision_layers)
    assert shapes[-2] == (256, 6, 6)
    assert shapes[-1] == (9216,)


def test_paper_shared_widths():
    spec = nets.default_paper_spec()
    assert spec.bottleneck_dim == 9216
    assert spec.shared_widths == (4096, 4096)
    assert spec.output_dim == 1000


def test_desk_scale_one_equals_paper():
    assert nets.desk_spec(1) == nets.default_paper_spec()


def test_desk_scale_sixteenth_dimensions():
    spec = nets.desk_spec(1 / 16)
    assert spec.bottleneck_dim == 576
    assert spec.shared_widths == (256, 256)
    assert spec.output_dim == 64
    sound_filters = [l.filters for l in spec.sound_layers
                     if isinstance(l, nets.Conv1dSpec)]
    assert sound_filters == [8, 16, 16]


@pytest.mark.parametrize("scale", [1 / 4, 1 / 8, 1 / 16, 0.3])
def test_desk_pathway_outputs_agree_for_any_scale(scale):
    spec = nets.desk_spec(scale)
    for modality in nets.MODALITIES:
        out = nets.trace_pathway(spec.input_shape(modality), spec.pathway(modality))[-1]
        assert out == (spec.bottleneck_dim,)


def test_desk_scale_collapsing_width_rejected():
    with pytest.raises(ConfigError):
        nets.desk_spec(1 / 1000)
    with pytest.raises(ConfigError):
        nets.desk_spec(0)
    with pytest.raises(ConfigError):
        nets.desk_spec(1.5)


def test_init_params_reproducible_and_seed_sensitive():
    spec = nets.desk_spec(1 / 16)
    a = nets.init_params(spec, seed=5)
    b = nets.init_params(spec, seed=5)
    c = nets.init_params(spec, seed=6)
    for name, t in a.items():
        assert np.array_equal(t.data, b[name].data)
    assert any(not np.array_equal(t.data, c[name].data) for name, t in a.items())


def test_init_params_moments():
    spec = nets.desk_spec(1 / 16)
    params = nets.init_params(spec, seed=0, sigma=0.01)
    big = params["shared.fc1.weight"].data  # 576 x 256 = 147k draws
    assert big.size >= 10_000
    assert abs(big.mean()) < 0.01 * 0.05
    assert abs(big.std() - 0.01) / 0.01 < 0.05


def test_init_params_zero_biases():
    params = nets.init_params(nets.desk_spec(1 / 16), seed=0)
    for name, t in params.items():
        if name.endswith(".bias"):
            assert not t.data.any()


def test_forward_taps_and_softmax_rows(tiny_spec_params):
    spec, params = tiny_spec_params
    rng = np.random.default_rng(0)
    acts = nets.forward_batch(params, rng.normal(size=(3, *spec.sound_input)), "sound")
    assert set(acts) == {"bottleneck", "shared1", "shared2", "softmax"}
    assert acts["bottleneck"].shape == (3, spec.bottleneck_dim)
    assert acts["shared2"].shape == (3, spec.shared_widths[-1])
    assert np.abs(acts["softmax"].data.sum(axis=1) - 1.0).max() < 1e-12


def test_forward_rejects_malformed_sample(tiny_spec_params):
    spec, params = tiny_spec_params
    with pytest.raises(ShapeError):
        nets.forward_batch(params, np.zeros((2, 3, 4)), "sound")


def test_identical_samples_identical_embeddings(tiny_spec_params):
    spec, params = tiny_spec_params
    x = np.random.default_rng(1).normal(size=(1, *spec.text_input))
    batch = np.concatenate([x, x], axis=0)
    acts = nets.forward_batch(params, batch, "text")["shared2"].data
    assert np.array_equal(acts[0], acts[1])


def test_shared_trunk_is_literally_shared(tiny_spec_params):
    spec, params = tiny_spec_params
    rng = np.random.default_rng(2)
    text_batch = rng.normal(size=(2, *spec.text_input))
    before = nets.forward_batch(params, text_batch, "text")["softmax"].data.copy()

    # push gradient through a sound batch into the shared trunk only
    sound_batch = rng.normal(size=(2, *spec.sound_input))
    acts = nets.forward_batch(params, sound_batch, "sound")
    loss = acts["softmax"].sum() + (acts["shared2"] * acts["shared2"]).sum()
    backward(loss)
    assert params["shared.fc1.weight"].grad is not None
    params["shared.fc1.weight"].data += 0.5  # large deliberate shared update

    after = nets.forward_batch(params, text_batch, "text")["softmax"].data
    assert not np.array_equal(before, after)


def test_spec_json_roundtrip():
    for spec in (nets.default_paper_spec(), nets.desk_spec(1 / 16)):
        assert nets.spec_from_json(nets.spec_to_json(spec)) == spec
    # Checkpoints store this JSON and name their blobs after these parameters,
    # so both are pinned: a checkpoint written by an older build must load.
    pinned = {
        nets.desk_spec(1 / 16): "2b92751e702c99b82a0a8088bc64e76c4c67eaca9623d6163f3552060ece6886",
        nets.default_paper_spec(): "5029b2d218d011c1aef6d4dba4e748c694f3dfe62d6436ad696b0cc20d98bbbd",
    }
    for spec, digest in pinned.items():
        assert hashlib.sha256(nets.spec_to_json(spec).encode()).hexdigest() == digest
    assert list(nets.parameter_shapes(make_tiny_spec()).items()) == [
        ("image.conv1.kernels", (4, 2, 3, 3)), ("image.conv1.bias", (4,)),
        ("image.fc1.weight", (64, 24)), ("image.fc1.bias", (24,)),
        ("sound.conv1.kernels", (4, 5, 3)), ("sound.conv1.bias", (4,)),
        ("sound.fc1.weight", (16, 24)), ("sound.fc1.bias", (24,)),
        ("text.conv1.kernels", (4, 6, 3)), ("text.conv1.bias", (4,)),
        ("text.fc1.weight", (32, 24)), ("text.fc1.bias", (24,)),
        ("shared.fc1.weight", (24, 12)), ("shared.fc1.bias", (12,)),
        ("shared.fc2.weight", (12, 10)), ("shared.fc2.bias", (10,)),
        ("shared.out.weight", (10, 6)), ("shared.out.bias", (6,)),
    ]


# Where each layer type sits in the tiny spec: (pathway field, index).
_TINY_SLOT = {"conv2d": ("vision_layers", 0), "pool2d": ("vision_layers", 1),
              "conv1d": ("sound_layers", 0), "pool1d": ("sound_layers", 1),
              "dense": ("sound_layers", 3)}


@pytest.mark.parametrize("record, bad_field", [
    ({"type": "pool1d", "factor": 0}, "factor"),
    ({"type": "conv1d", "kernel": 0, "filters": 4}, "kernel"),
    ({"type": "conv1d", "kernel": -3, "filters": 4}, "kernel"),
    ({"type": "conv1d", "kernel": 3, "filters": 0}, "filters"),
    ({"type": "conv2d", "kernel": 3, "filters": 4, "stride": 0}, "stride"),
    ({"type": "pool2d", "window": 0, "stride": 2}, "window"),
    ({"type": "pool2d", "window": 2, "stride": -1}, "stride"),
    ({"type": "dense", "width": 0}, "width"),
    ({"type": "conv1d", "kernel": 3}, "filters"),
    ({"type": "conv2d", "kernel": 3, "filters": 4}, None),
])
def test_layer_record_fields_validated(record, bad_field):
    doc = json.loads(nets.spec_to_json(make_tiny_spec()))
    pathway, index = _TINY_SLOT[record["type"]]
    doc[pathway][index] = record
    if bad_field is None:  # conv2d records written without a stride load with stride 1
        assert nets.spec_from_json(json.dumps(doc)) == make_tiny_spec()
        return
    with pytest.raises(ConfigError, match=f"{record['type']} layer.*{bad_field}"):
        nets.spec_from_json(json.dumps(doc))


def test_bad_pathway_bottleneck_rejected():
    spec = nets.desk_spec(1 / 16)
    with pytest.raises(ConfigError):
        nets.NetworkSpec(
            vision_input=spec.vision_input,
            sound_input=spec.sound_input,
            text_input=spec.text_input,
            vision_layers=spec.vision_layers,
            sound_layers=spec.sound_layers,
            text_layers=spec.text_layers,
            shared_widths=spec.shared_widths,
            output_dim=spec.output_dim,
            bottleneck_dim=spec.bottleneck_dim + 8,
        )
