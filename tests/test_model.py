import base64
import gc
import json
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from radarpose import model as model_module
from radarpose.autodiff import Tensor, concat, conv2d, maxpool2d, mse
from radarpose.gradcheck import toy_config, variant_inputs
from radarpose.model import (
    ADAM_BLOCK,
    ExampleSet,
    _adam_step,
    _kept_rows,
    Hyper,
    ModelConfig,
    ModelParams,
    VARIANTS,
    backward,
    examples_from_frames,
    forward,
    init_params,
    load_checkpoint,
    mse_loss,
    param_count,
    param_layout,
    predict_batch,
    save_checkpoint,
    tnet_forward,
    train,
)
from radarpose.pointcloud import FusedFrame
from radarpose.scene import JOINT_NAMES, SkeletonFrame
from test_autodiff import reference_conv2d, reference_maxpool2d


def toy_examples(rng, cfg, n_frames=10):
    gt = rng.uniform([-1.0, 1.9, 0.0], [1.0, 3.5, 1.8], size=(n_frames, 32, 3))
    return ExampleSet(
        view_xy=rng.normal(size=(n_frames, cfg.n_max, 4)),
        view_yz=rng.normal(size=(n_frames, cfg.n_max, 4)),
        cloud=rng.normal(size=(n_frames, cfg.n_max, 3)),
        gt=gt,
        frame_ids=list(range(n_frames)),
    )


def one_frame(ex, i):
    """Frame ``i`` of ``ex`` as a one-frame ExampleSet."""
    sel = slice(i, i + 1)
    return ExampleSet(ex.view_xy[sel], ex.view_yz[sel], ex.cloud[sel], ex.gt[sel], ex.frame_ids[sel])


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

def test_default_config_targets_22_joints():
    cfg = ModelConfig()
    assert cfg.n_joints_out == 22
    assert cfg.output_width == 66
    assert len(cfg.included_joints) == 22
    for j in ("wrist_left", "hand_right", "eye_left", "thumb_right"):
        assert j not in cfg.included_joints


def test_config_output_cap_and_validation():
    assert ModelConfig(excluded_joints=()).output_width == 96
    with pytest.raises(ValueError):
        ModelConfig(variant="transformer")
    with pytest.raises(ValueError):
        ModelConfig(excluded_joints=("no_such_joint",))
    with pytest.raises(ValueError):
        ModelConfig(excluded_joints=tuple(JOINT_NAMES))
    with pytest.raises(ValueError):
        ModelConfig(conv_spec=((8, 4, 2),))  # even kernel
    with pytest.raises(ValueError):
        ModelConfig(conv_spec=((8, 3, 2), (8, 3, 2), (8, 3, 2)))  # view shrinks to 0


@pytest.mark.parametrize("edit, message", [
    ({"conv_spec": ((16, 3, 0),)}, r"conv_spec\[0\] pool must be an integer >= 1, got 0"),
    ({"conv_spec": ((16, 3, 2), (0, 3, 2))}, r"conv_spec\[1\] channels must be an integer >= 1, got 0"),
    ({"conv_spec": ((16, -1, 2),)}, r"conv_spec\[0\] kernel must be an integer >= 1, got -1"),
    ({"conv_spec": ((16, 4, 2),)}, r"conv_spec\[0\] kernel must be odd, got 4"),
    ({"conv_spec": ((16, 3),)}, r"conv_spec\[0\] must be \(channels, kernel, pool\)"),
    ({"row_mlp_spec": (64, 0)}, r"row_mlp_spec\[1\] must be an integer >= 1, got 0"),
    ({"row_mlp_spec": ()}, r"row_mlp_spec needs at least one layer"),
    ({"tnet_head_spec": (2.5,)}, r"tnet_head_spec\[0\] must be an integer >= 1, got 2\.5"),
    ({"mlp_head_spec": (True,)}, r"mlp_head_spec\[0\] must be an integer >= 1, got True"),
    ({"n_max": 64.5}, r"n_max must be an integer >= 1, got 64\.5"),
])
def test_config_rejects_a_layer_size_below_one_naming_the_field(edit, message):
    with pytest.raises(ValueError, match=message):
        ModelConfig(**edit)


@pytest.mark.parametrize("variant", VARIANTS)
def test_param_layout_is_what_init_params_fills_in_order(variant):
    cfg = ModelConfig(variant=variant)
    layout = param_layout(cfg)
    params = init_params(cfg).params
    assert [(k, shape) for k, (shape, _init) in layout.items()] == [(k, v.shape) for k, v in params.items()]
    for k, (_shape, init) in layout.items():
        if init == "zeros":
            assert not params[k].any(), k


def test_params_are_views_of_the_one_flat_vector():
    mp = init_params(toy_config("dual_mlp", seed=25))
    assert np.concatenate([v.ravel() for v in mp.params.values()]).tobytes() == mp.flat.tobytes()
    assert all(np.shares_memory(v, mp.flat) for v in mp.params.values())
    mp.params["head.out.b"][...] = 7.0  # writing through a view writes the vector
    assert (mp.flat[-mp.params["head.out.b"].size :] == 7.0).all()
    mp.flat[:] = 0.5
    assert all((v == 0.5).all() for v in mp.params.values())


def test_params_refuse_a_rebound_name():
    mp = init_params(toy_config("dual_cnn", seed=26))
    with pytest.raises(TypeError):
        mp.params["head.out.b"] = np.zeros_like(mp.params["head.out.b"])
    with pytest.raises(TypeError):
        del mp.params["head.out.b"]
    assert np.shares_memory(mp.params["head.out.b"], mp.flat)


@pytest.mark.parametrize("form", ["long", "short", "float32", "2-D", "list"])
def test_model_params_reject_a_flat_of_the_wrong_form(form):
    cfg = toy_config("single_pointnet", seed=27)
    n = param_count(cfg)
    flat, got = {
        "long": (np.zeros(n + 1), rf"float64 array of shape \({n + 1},\)"),
        "short": (np.zeros(n - 1), rf"float64 array of shape \({n - 1},\)"),
        "float32": (np.zeros(n, dtype=np.float32), rf"float32 array of shape \({n},\)"),
        "2-D": (np.zeros((1, n)), rf"float64 array of shape \(1, {n}\)"),
        "list": ([0.0] * n, "list"),
    }[form]
    with pytest.raises(ValueError, match=rf"flat must be a 1-D float64 vector of {n} values for this config, got a {got}"):
        ModelParams(config=cfg, flat=flat)
    assert ModelParams(config=cfg, flat=np.zeros(n)).flat.size == n


def test_tnet_dim_follows_variant():
    assert ModelConfig(variant="dual_cnn").tnet_dim == 4
    assert ModelConfig(variant="single_pointnet").tnet_dim == 3


# ---------------------------------------------------------------------------
# tnet
# ---------------------------------------------------------------------------

def test_tnet_is_identity_at_init():
    cfg = toy_config("dual_cnn", seed=3)
    mp = init_params(cfg)
    view = np.random.default_rng(0).normal(size=(2, cfg.n_max, 4))
    out, transform = tnet_forward(view, mp)
    np.testing.assert_array_equal(transform, np.broadcast_to(np.eye(4), (2, 4, 4)))
    np.testing.assert_array_equal(out, view)


def test_tnet_transform_permutation_invariant():
    cfg = toy_config("dual_cnn", seed=4)
    mp = init_params(cfg)
    rng = np.random.default_rng(1)
    # jitter so the transform is not the trivial identity
    mp.flat += 0.1 * rng.normal(size=mp.flat.size)
    view = rng.normal(size=(1, cfg.n_max, 4))
    _, t_ref = tnet_forward(view, mp)
    for _ in range(5):
        perm = rng.permutation(cfg.n_max)
        _, t_perm = tnet_forward(view[:, perm], mp)
        np.testing.assert_allclose(t_perm, t_ref, atol=1e-12)


def test_tnet_rejects_wrong_width():
    mp = init_params(toy_config("dual_cnn", seed=0))
    with pytest.raises(ValueError, match=r"tnet_forward takes \(B, N, 4\) views, got \(1, 8, 3\)"):
        tnet_forward(np.zeros((1, 8, 3)), mp)
    with pytest.raises(ValueError, match=r"got \(8, 4\)"):  # one unbatched view
        tnet_forward(np.zeros((8, 4)), mp)


# ---------------------------------------------------------------------------
# forward
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("variant", ["dual_cnn", "dual_mlp", "single_pointnet"])
def test_zero_input_outputs_head_bias(variant):
    cfg = toy_config(variant, seed=5)
    mp = init_params(cfg)
    bias = np.arange(cfg.output_width, dtype=float) * 0.1 - 0.2
    mp.params["head.out.b"][...] = bias
    inputs = (
        np.zeros((2, cfg.n_max, 3))
        if variant == "single_pointnet"
        else (np.zeros((2, cfg.n_max, 4)), np.zeros((2, cfg.n_max, 4)))
    )
    np.testing.assert_array_equal(forward(cfg, mp, inputs), [bias, bias])


def test_forward_output_width_is_66_by_default():
    cfg = ModelConfig(n_max=8)
    mp = init_params(cfg)
    out = forward(cfg, mp, (np.zeros((1, 8, 4)), np.zeros((1, 8, 4))))
    assert out.shape == (1, 66)


@pytest.mark.parametrize("variant", ["dual_mlp", "single_pointnet"])
def test_pooled_variants_are_order_invariant(variant):
    cfg = toy_config(variant, seed=6)
    mp = init_params(cfg)
    rng = np.random.default_rng(2)
    mp.flat += 0.1 * rng.normal(size=mp.flat.size)
    inputs = variant_inputs(cfg, rng, batch=1)
    ref = forward(cfg, mp, inputs)
    for _ in range(10):
        perm = rng.permutation(cfg.n_max)
        if variant == "single_pointnet":
            shuffled = inputs[:, perm, :]
        else:
            shuffled = (inputs[0][:, perm, :], inputs[1][:, perm, :])
        np.testing.assert_allclose(forward(cfg, mp, shuffled), ref, atol=1e-6)


def test_forward_rejects_wrong_shapes():
    cfg = toy_config("dual_cnn", seed=0)
    mp = init_params(cfg)
    with pytest.raises(ValueError, match=r"view_xy must be \(B, 8, 4\), got \(1, 4, 4\)"):
        forward(cfg, mp, (np.zeros((1, 4, 4)), np.zeros((1, 4, 4))))  # wrong N
    with pytest.raises(ValueError, match=r"got \(8, 4\)"):  # one unbatched example
        forward(cfg, mp, (np.zeros((8, 4)), np.zeros((8, 4))))
    cfg3 = toy_config("single_pointnet", seed=0)
    with pytest.raises(ValueError, match=r"got \(1, 8, 4\)"):
        forward(cfg3, init_params(cfg3), np.zeros((1, 8, 4)))  # 4 features, not 3
    with pytest.raises(ValueError, match=r"got \(8, 3\)"):
        forward(cfg3, init_params(cfg3), np.zeros((8, 3)))


# ---------------------------------------------------------------------------
# loss / backward
# ---------------------------------------------------------------------------

def test_mse_loss_examples():
    gt = np.array([0.1, 0.4, -0.2])
    assert mse_loss(gt, gt) == 0.0
    assert mse_loss(gt + 1.0, gt) == pytest.approx(1.0, rel=1e-12)
    rng = np.random.default_rng(3)
    a, b = rng.normal(size=12), rng.normal(size=12)
    oracle = sum((x - y) ** 2 for x, y in zip(a, b)) / 12
    assert mse_loss(a, b) == pytest.approx(oracle, rel=1e-12)
    with pytest.raises(ValueError):
        mse_loss(np.zeros(3), np.zeros(4))


def test_backward_zero_at_perfect_prediction():
    cfg = toy_config("dual_mlp", seed=7)
    mp = init_params(cfg)
    rng = np.random.default_rng(4)
    inputs = variant_inputs(cfg, rng)
    gt = forward(cfg, mp, inputs)  # exact target -> stationary point
    loss, grads = backward(cfg, mp, inputs, gt)
    assert loss == 0.0
    assert all(not g.any() for g in grads.values())


@pytest.mark.parametrize("variant", VARIANTS)
def test_a_training_step_leaves_no_reference_cycle(variant):
    # a tape op whose closure holds its own output node would keep every
    # step's tape alive until the cycle collector runs, inflating peak memory
    cfg = toy_config(variant, seed=38)
    mp = init_params(cfg)
    rng = np.random.default_rng(39)
    inputs = variant_inputs(cfg, rng)
    gt = rng.uniform(size=(3, cfg.output_width))
    gc.collect()
    gc.disable()
    try:
        backward(cfg, mp, inputs, gt)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_backward_frozen_branch_conv_weights_get_no_gradient():
    cfg = toy_config("dual_cnn", seed=8)
    mp = init_params(cfg)
    rng = np.random.default_rng(5)
    view_xy = rng.normal(size=(2, cfg.n_max, 4))
    view_yz = np.zeros((2, cfg.n_max, 4))
    gt = rng.uniform(size=(2, cfg.output_width))
    _, grads = backward(cfg, mp, (view_xy, view_yz), gt)
    for i in range(len(cfg.conv_spec)):
        assert not grads[f"yz.conv{i}.w"].any()  # zero input, zero activations
        assert grads[f"xy.conv{i}.w"].any()


# ---------------------------------------------------------------------------
# padding compaction
# ---------------------------------------------------------------------------

def _axis_max(t: Tensor) -> Tensor:
    """Max over the rows of a padded (B, N, C) batch, gradient to the first argmax."""
    idx = np.argmax(t.data, axis=1)[:, None]
    out = Tensor(np.take_along_axis(t.data, idx, axis=1)[:, 0], _parents=(t,))

    def grad(g):
        full = np.zeros_like(t.data)
        np.put_along_axis(full, idx, g[:, None], axis=1)
        return (full,)

    out._backward = grad
    return out


def _padded_tnet(view, pt, cfg, prefix):
    h = view
    for i in range(len(cfg.tnet_row_spec)):
        h = (h @ pt[f"{prefix}.row{i}.w"] + pt[f"{prefix}.row{i}.b"]).relu()
    pooled = _axis_max(h)
    for i in range(len(cfg.tnet_head_spec)):
        pooled = (pooled @ pt[f"{prefix}.head{i}.w"] + pt[f"{prefix}.head{i}.b"]).relu()
    transform = (pooled @ pt[f"{prefix}.out.w"] + pt[f"{prefix}.out.b"]).reshape((-1, cfg.tnet_dim, cfg.tnet_dim))
    return view @ transform, transform


def _padded_graph(cfg, pt, inputs):
    """The three networks on every padded row: the oracle compaction must match."""
    def rows_then_max(h, names):
        for name in names:
            h = (h @ pt[f"{name}.w"] + pt[f"{name}.b"]).relu()
        return _axis_max(h)

    if cfg.variant == "single_pointnet":
        h, _ = _padded_tnet(inputs["cloud"], pt, cfg, "cloud.tnet")
        h = rows_then_max(h, [f"cloud.mlp{i}" for i in range(len(cfg.pointnet_mlp_spec))])
        head_spec = cfg.pointnet_head_spec
    else:
        feats = []
        for br in cfg.branches:
            batch = inputs[br].shape[0]
            h, _ = _padded_tnet(inputs[br], pt, cfg, f"{br}.tnet")
            if cfg.variant == "dual_mlp":
                feats.append(rows_then_max(h, [f"{br}.row{i}" for i in range(len(cfg.row_mlp_spec))]))
                continue
            img = h.reshape((batch, 1, cfg.n_max, 4))
            for i, (_channels, _kernel, pool) in enumerate(cfg.conv_spec):
                img = maxpool2d(conv2d(img, pt[f"{br}.conv{i}.w"], pt[f"{br}.conv{i}.b"]).relu(), pool)
            feats.append(img.reshape((batch, -1)))
        h = concat(feats, axis=1)
        head_spec = cfg.mlp_head_spec
    for i in range(len(head_spec)):
        h = (h @ pt[f"head.fc{i}.w"] + pt[f"head.fc{i}.b"]).relu()
    return h @ pt["head.out.w"] + pt["head.out.b"]


def _packed_examples(n_max, seed):
    """examples_from_frames output with 0, 1, a partial count and n_max + 3 (truncated) points."""
    rng = np.random.default_rng(seed)
    frames = []
    for i, n in enumerate((0, 1, n_max // 2 - 1, n_max + 3, 5)):
        points = np.column_stack([
            rng.uniform(-1.0, 1.0, n), rng.uniform(1.5, 4.0, n), rng.uniform(0.0, 1.8, n),
            rng.normal(0.0, 0.5, n), rng.uniform(0.0, 1.0, n),
        ])
        gt = SkeletonFrame(rng.uniform([-1.0, 1.9, 0.0], [1.0, 3.5, 1.8], size=(32, 3)), timestamp_ms=50 * i)
        frames.append(FusedFrame(points=points, gt=gt, frame_id=i))
    return examples_from_frames(frames, n_max)


def _trained_like(cfg, seed):
    mp = init_params(cfg)
    rng = np.random.default_rng(seed)
    mp.flat += 0.05 * rng.normal(size=mp.flat.size)
    mp.gt_min, mp.gt_max = np.array([-1.0, 1.9, 0.0]), np.array([1.0, 3.5, 1.8])
    return mp


def test_kept_rows_are_the_points_and_the_first_zero_row():
    view = np.zeros((3, 5, 2))
    view[0, [0, 2]] = 1.0  # a zero row between points is the kept padding row
    view[1] = 2.0  # no padding at all
    view[2, 0] = -0.0  # -0.0 counts as zero: this is the kept padding row
    view[2, 1] = 3.0
    rows, starts = _kept_rows(view)
    assert rows.tolist() == [0, 1, 2, 5, 6, 7, 8, 9, 10, 11]
    assert starts.tolist() == [0, 3, 8]


@pytest.mark.parametrize("small", [True, False], ids=["toy", "default-size"])
@pytest.mark.parametrize("variant", VARIANTS)
def test_compacted_forward_is_bitwise_the_padded_graph(variant, small):
    cfg = toy_config(variant, seed=31) if small else ModelConfig(variant=variant, seed=31)
    ex = _packed_examples(cfg.n_max, seed=32)
    valid = (ex.cloud != 0).any(axis=-1).sum(axis=1)
    assert valid.min() == 0 and valid.max() == cfg.n_max and ((valid > 0) & (valid < cfg.n_max)).any()
    mp = _trained_like(cfg, seed=33)
    inputs = model_module._prepare_inputs(cfg, ex.inputs_for(cfg))
    oracle = _padded_graph(cfg, model_module._wrap_params(mp.params), inputs).data
    assert forward(cfg, mp, ex.inputs_for(cfg)).tobytes() == oracle.tobytes()
    expected = model_module._denormalize(cfg, oracle, mp.gt_min, mp.gt_max)
    assert predict_batch(mp, ex).tobytes() == expected.tobytes()
    for br in cfg.branches:
        view = inputs[br]
        out, transform = tnet_forward(view.data, mp, br)
        ref_out, ref_transform = _padded_tnet(view, model_module._wrap_params(mp.params), cfg, f"{br}.tnet")
        assert out.tobytes() == ref_out.data.tobytes()
        assert transform.tobytes() == ref_transform.data.tobytes()


@pytest.mark.parametrize("variant", VARIANTS)
def test_compacted_gradients_match_the_padded_graph(variant):
    # the dropped rows carry exact zero gradient; the kept ones sum in another order
    cfg = toy_config(variant, seed=34)
    ex = _packed_examples(cfg.n_max, seed=35)
    mp = _trained_like(cfg, seed=36)
    gt = np.random.default_rng(37).uniform(size=(len(ex), cfg.output_width))
    loss, grads = backward(cfg, mp, ex.inputs_for(cfg), gt)
    pt = model_module._wrap_params(mp.params)
    inputs = model_module._prepare_inputs(cfg, ex.inputs_for(cfg))
    ref = mse(_padded_graph(cfg, pt, inputs), gt)
    ref.backward()
    assert loss == float(ref.data)
    for k, t in pt.items():
        scale = np.abs(t.grad).max()
        np.testing.assert_allclose(grads[k], t.grad, rtol=0, atol=1e-12 * scale, err_msg=k)


# ---------------------------------------------------------------------------
# training
# ---------------------------------------------------------------------------

def test_train_is_deterministic():
    cfg = toy_config("dual_mlp", seed=9)
    ex = toy_examples(np.random.default_rng(6), cfg, n_frames=12)
    h = Hyper(lr=1e-3, batch=4, epochs=3, seed=11)
    _, hist_a = train(cfg, ex, h)
    _, hist_b = train(cfg, ex, h)
    assert hist_a == hist_b


def test_train_zero_lr_keeps_params():
    cfg = toy_config("dual_mlp", seed=10)
    ex = toy_examples(np.random.default_rng(7), cfg, n_frames=8)
    mp, hist = train(cfg, ex, Hyper(lr=0.0, batch=4, epochs=3, seed=0))
    fresh = init_params(cfg)
    for k in fresh.params:
        np.testing.assert_array_equal(mp.params[k], fresh.params[k])
    losses = [h["train_loss"] for h in hist]
    assert losses[0] == pytest.approx(losses[-1], rel=1e-9)


def test_train_small_overfit_and_history_shape():
    cfg = toy_config("dual_cnn", seed=12)
    ex = toy_examples(np.random.default_rng(8), cfg, n_frames=6)
    mp, hist = train(cfg, ex, Hyper(lr=3e-3, batch=6, epochs=120, seed=1, val_fraction=0.0))
    assert len(hist) == 120
    assert hist[-1]["train_loss"] < hist[0]["train_loss"] * 0.1
    assert np.isnan(hist[-1]["val_loss"])


def test_train_validation_split_reported():
    cfg = toy_config("dual_mlp", seed=13)
    ex = toy_examples(np.random.default_rng(9), cfg, n_frames=10)
    _, hist = train(cfg, ex, Hyper(lr=1e-3, batch=4, epochs=2, seed=2, val_fraction=0.2))
    assert np.isfinite(hist[-1]["val_loss"])


@pytest.mark.parametrize("value", [0.0, -1.0, np.inf, np.nan])
def test_hyper_rejects_a_bad_lr_decay(value):
    with pytest.raises(ValueError, match="lr_decay must be finite and > 0"):
        Hyper(lr_decay=value)


def test_train_rejects_empty_dataset():
    cfg = toy_config("dual_mlp", seed=0)
    ex = toy_examples(np.random.default_rng(0), cfg, n_frames=0)
    with pytest.raises(ValueError):
        train(cfg, ex, Hyper())


@pytest.mark.parametrize("field", ["view_xy", "gt"])
def test_train_rejects_nonfinite_step(field):
    # a NaN view row leaves the loss finite (ReLU zeroes it) but not the
    # gradient; a NaN target makes the loss itself NaN
    cfg = toy_config("dual_mlp", seed=20)
    ex = toy_examples(np.random.default_rng(14), cfg, n_frames=8)
    getattr(ex, field)[5, 0] = np.nan
    with pytest.raises(ValueError, match=r"non-finite training step at epoch 0, step [12]:"):
        train(cfg, ex, Hyper(lr=1e-3, batch=4, epochs=2, seed=0, val_fraction=0.0))


def test_forward_rejects_a_nonfinite_input_row():
    # the ReLUs map NaN to 0, so without the check this predicts finite numbers
    cfg = toy_config("dual_mlp", seed=21)
    mp = init_params(cfg)
    mp.gt_min, mp.gt_max = np.zeros(3), np.ones(3)
    ex = toy_examples(np.random.default_rng(15), cfg, n_frames=4)
    ex.view_yz[2, 5, 1] = np.nan
    with pytest.raises(ValueError, match="non-finite input: example 2, view_yz row 5"):
        forward(cfg, mp, ex.inputs_for(cfg))
    with pytest.raises(ValueError, match="non-finite input: example 2, view_yz row 5"):
        predict_batch(mp, ex)
    with pytest.raises(ValueError, match="non-finite input: example 0, view_yz row 5"):
        predict_batch(mp, one_frame(ex, 2))
    ex.view_yz[2, 5, 1] = 0.0
    assert np.isfinite(predict_batch(mp, ex)).any()


def _per_array_adam(params, grads, state, lr, t, beta1=0.9, beta2=0.999, eps=1e-8):
    """Adam as one set of temporaries per array: the reference for the flat step."""
    for k, p in params.items():
        g = grads[k]
        m, v = state[k]
        m = beta1 * m + (1 - beta1) * g
        v = beta2 * v + (1 - beta2) * g * g
        state[k] = (m, v)
        mhat = m / (1 - beta1**t)
        vhat = v / (1 - beta2**t)
        p[...] = p - lr * mhat / (np.sqrt(vhat) + eps)


def _unblocked_adam_step(p, g, state, lr, t, beta1=0.9, beta2=0.999, eps=1e-8):
    """The flat Adam step as 14 passes over whole vectors: the reference for the blocked one."""
    m, v = state
    work, work2 = np.empty_like(p), np.empty_like(p)
    m *= beta1
    np.multiply(g, 1 - beta1, out=work)
    m += work
    v *= beta2
    np.multiply(g, 1 - beta2, out=work)
    work *= g
    v += work
    np.divide(m, 1 - beta1**t, out=work)
    np.divide(v, 1 - beta2**t, out=work2)
    np.sqrt(work2, out=work2)
    work2 += eps
    work *= lr
    work /= work2
    p -= work


def test_flat_adam_step_is_bitwise_the_per_array_update():
    # the toy model fits in one block; the default dual_cnn spans several and ends in a partial one
    for cfg in (toy_config("dual_cnn", seed=19), ModelConfig(variant="dual_cnn", seed=19)):
        rng = np.random.default_rng(13)
        inputs = variant_inputs(cfg, rng, batch=4)
        gt = rng.uniform(size=(4, cfg.output_width))
        ref = init_params(cfg)
        ref_state = {k: (np.zeros_like(v), np.zeros_like(v)) for k, v in ref.params.items()}
        mp = init_params(cfg)
        state = (np.zeros_like(mp.flat), np.zeros_like(mp.flat))
        for t in (1, 2, 3):
            _, ref_grads = backward(cfg, ref, inputs, gt)
            _per_array_adam(ref.params, ref_grads, ref_state, 3e-3, t)
            _, grads = backward(cfg, mp, inputs, gt)
            _adam_step(mp.flat, np.concatenate([grads[k].ravel() for k in mp.params]), state, 3e-3, t)
            assert mp.params.keys() == ref.params.keys()
            for k, p in ref.params.items():
                assert mp.params[k].tobytes() == p.tobytes(), k
            for i in (0, 1):
                ref_moment = np.concatenate([ref_state[k][i].ravel() for k in ref.params])
                assert state[i].tobytes() == ref_moment.tobytes()
    assert mp.flat.size > 2 * ADAM_BLOCK and mp.flat.size % ADAM_BLOCK


def test_dual_cnn_training_is_bitwise_the_reference_kernels(monkeypatch):
    """Default-size dual_cnn at batch 10, as in the overfit gate: two runs and
    a run on the reference conv2d, maxpool2d and Adam give the same bits."""
    cfg = ModelConfig(variant="dual_cnn", seed=1)
    ex = toy_examples(np.random.default_rng(41), cfg, n_frames=10)
    for i in range(10):  # zero-padded like packed frames, so pools see all-zero windows
        ex.view_xy[i, 6 * (i + 1) :] = 0.0
        ex.view_yz[i, 5 * (i + 1) :] = 0.0
    hyper = Hyper(lr=3e-3, batch=10, epochs=30, seed=1, val_fraction=0.0, lr_decay=0.9996)

    def run():
        mp, hist = train(cfg, ex, hyper)
        return np.array([h["train_loss"] for h in hist]), mp.params

    losses, params = run()
    assert losses[-1] < losses[0]
    second = run()
    monkeypatch.setattr(model_module, "conv2d", reference_conv2d)
    monkeypatch.setattr(model_module, "maxpool2d", reference_maxpool2d)
    monkeypatch.setattr(model_module, "_adam_step", _unblocked_adam_step)
    for other_losses, other_params in (second, run()):
        assert other_losses.tobytes() == losses.tobytes()
        for k, p in params.items():
            assert other_params[k].tobytes() == p.tobytes(), k


def test_train_stop_loss_cuts_history():
    cfg = toy_config("dual_mlp", seed=14)
    ex = toy_examples(np.random.default_rng(10), cfg, n_frames=6)
    _, hist = train(cfg, ex, Hyper(lr=3e-3, batch=6, epochs=500, seed=3, val_fraction=0.0, stop_loss=0.5))
    assert len(hist) < 500
    assert hist[-1]["train_loss"] < 0.5


# ---------------------------------------------------------------------------
# prediction
# ---------------------------------------------------------------------------

def test_predict_midpoint_denormalization():
    cfg = toy_config("dual_cnn", seed=15)
    mp = init_params(cfg)
    # zero out the head so the output is exactly 0.5 everywhere
    mp.params["head.out.w"][:] = 0.0
    mp.params["head.out.b"][:] = 0.5
    mp.gt_min = np.array([-1.0, 1.9, 0.0])
    mp.gt_max = np.array([1.0, 3.5, 1.8])
    ex = toy_examples(np.random.default_rng(16), cfg, n_frames=1)
    (joints,) = predict_batch(mp, ex)
    mid = (mp.gt_min + mp.gt_max) / 2
    for name in cfg.included_joints:
        np.testing.assert_allclose(joints[JOINT_NAMES.index(name)], mid, atol=1e-12)


def test_predict_reports_absent_joints():
    cfg = toy_config("dual_cnn", seed=16)
    mp = init_params(cfg)
    mp.gt_min, mp.gt_max = np.zeros(3), np.ones(3)
    frame = FusedFrame(points=np.array([[0.0, 2.0, 1.0, 0.0, 0.5]]), gt=SkeletonFrame(np.ones((32, 3))), frame_id=0)
    (joints,) = predict_batch(mp, examples_from_frames([frame], cfg.n_max))
    for i, name in enumerate(JOINT_NAMES):
        assert np.isnan(joints[i]).all() == (name in cfg.excluded_joints), name
        assert np.isfinite(joints[i]).all() == (name in cfg.included_joints), name


def test_predict_requires_norm_constants():
    cfg = toy_config("dual_cnn", seed=0)
    with pytest.raises(ValueError, match="no normalization constants"):
        predict_batch(init_params(cfg), toy_examples(np.random.default_rng(0), cfg, n_frames=1))


def test_predict_batch_of_one_frame_matches_its_batch_row():
    cfg = toy_config("dual_mlp", seed=17)
    ex = toy_examples(np.random.default_rng(11), cfg, n_frames=4)
    mp, _ = train(cfg, ex, Hyper(lr=1e-3, batch=4, epochs=2, seed=4, val_fraction=0.0))
    batch = predict_batch(mp, ex)
    (one,) = predict_batch(mp, one_frame(ex, 2))
    np.testing.assert_allclose(batch[2], one, equal_nan=True)


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------

def _save_version_1(mp, path):
    """What the version-1 saver wrote: each parameter as a JSON list of numbers."""
    doc = {
        "format": "radarpose-checkpoint",
        "version": 1,
        "config": asdict(mp.config),
        "norm": {
            "gt_min": None if mp.gt_min is None else mp.gt_min.tolist(),
            "gt_max": None if mp.gt_max is None else mp.gt_max.tolist(),
            "snr_bounds": None if mp.snr_bounds is None else list(mp.snr_bounds),
        },
        "params": {k: {"shape": list(v.shape), "data": v.reshape(-1).tolist()} for k, v in mp.params.items()},
    }
    path.write_text(json.dumps(doc), encoding="utf-8")


def test_checkpoint_roundtrip(tmp_path):
    cfg = toy_config("dual_cnn", seed=18)
    ex = toy_examples(np.random.default_rng(12), cfg, n_frames=5)
    mp, _ = train(cfg, ex, Hyper(lr=1e-3, batch=5, epochs=2, seed=5, val_fraction=0.0))
    mp.snr_bounds = (3.0, 41.5)
    path = tmp_path / "ckpt.json"
    save_checkpoint(mp, path)
    loaded = load_checkpoint(path)
    assert loaded.config == cfg
    assert loaded.params.keys() == mp.params.keys()
    for k in mp.params:
        np.testing.assert_array_equal(loaded.params[k], mp.params[k])
    assert loaded.flat.tobytes() == mp.flat.tobytes()
    np.testing.assert_array_equal(loaded.gt_min, mp.gt_min)
    np.testing.assert_array_equal(loaded.gt_max, mp.gt_max)
    assert loaded.snr_bounds == mp.snr_bounds
    # prediction equivalence after reload
    np.testing.assert_array_equal(predict_batch(loaded, ex), predict_batch(mp, ex))
    # the same parameters always give the same file bytes
    again = tmp_path / "again.json"
    save_checkpoint(mp, again)
    assert again.read_bytes() == path.read_bytes()


def test_checkpoint_reads_version_1(tmp_path):
    cfg = toy_config("dual_mlp", seed=19)
    ex = toy_examples(np.random.default_rng(13), cfg, n_frames=5)
    mp, _ = train(cfg, ex, Hyper(lr=1e-3, batch=5, epochs=1, seed=6, val_fraction=0.0))
    mp.snr_bounds = (2.5, 40.0)
    path = tmp_path / "v1.json"
    _save_version_1(mp, path)
    loaded = load_checkpoint(path)
    assert loaded.config == cfg
    assert loaded.params.keys() == mp.params.keys()
    for k in mp.params:
        assert loaded.params[k].tobytes() == mp.params[k].tobytes()
    assert loaded.gt_min.tobytes() == mp.gt_min.tobytes()
    assert loaded.gt_max.tobytes() == mp.gt_max.tobytes()
    assert loaded.snr_bounds == mp.snr_bounds
    assert predict_batch(loaded, ex).tobytes() == predict_batch(mp, ex).tobytes()


_EDGE_FLOATS = [-0.0, 0.0, 5e-324, -5e-324, 2.2e-308, -1e-310, 1.7e308, -1.7e308]
_ROUNDTRIP_CFG = toy_config("dual_mlp", seed=23)
_ROUNDTRIP_SHAPE = init_params(_ROUNDTRIP_CFG).params["head.out.w"].shape


@settings(max_examples=60, deadline=None)
@example(np.resize(np.array(_EDGE_FLOATS), _ROUNDTRIP_SHAPE))
@given(
    hnp.arrays(
        np.float64,
        _ROUNDTRIP_SHAPE,
        elements=st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(_EDGE_FLOATS),
    )
)
def test_checkpoint_roundtrips_any_finite_value_bitwise(tmp_path_factory, values):
    mp = init_params(_ROUNDTRIP_CFG)
    mp.params["head.out.w"][...] = values
    path = tmp_path_factory.mktemp("roundtrip") / "ckpt.json"
    save_checkpoint(mp, path)
    loaded = load_checkpoint(path)
    for k in mp.params:
        assert loaded.params[k].tobytes() == mp.params[k].tobytes(), k


def test_load_checkpoint_draws_no_random_numbers(tmp_path, monkeypatch):
    mp = init_params(toy_config("single_pointnet", seed=24))
    path = tmp_path / "ckpt.json"
    save_checkpoint(mp, path)

    def no_draws(*args, **kwargs):
        raise AssertionError("load_checkpoint drew random numbers")

    monkeypatch.setattr(model_module.np.random, "default_rng", no_draws)
    loaded = load_checkpoint(path)
    for k in mp.params:
        assert loaded.params[k].tobytes() == mp.params[k].tobytes(), k


def test_checkpoint_rejects_foreign_files(tmp_path):
    path = tmp_path / "other.json"
    path.write_text('{"format": "something-else"}')
    with pytest.raises(ValueError):
        load_checkpoint(path)
    save_checkpoint(init_params(toy_config("dual_mlp", seed=22)), path)
    doc = json.loads(path.read_text())
    doc["version"] = 3
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match="unsupported checkpoint version 3"):
        load_checkpoint(path)


def test_checkpoint_rejects_a_layout_its_config_does_not_define(tmp_path):
    mp = init_params(toy_config("dual_cnn", seed=21))
    path = tmp_path / "ckpt.json"
    save_checkpoint(mp, path)
    doc = json.loads(path.read_text())
    _save_version_1(mp, path)
    doc_v1 = json.loads(path.read_text())

    def load_edited(edit, base=doc):
        bad = json.loads(json.dumps(base))
        edit(bad)
        path.write_text(json.dumps(bad))
        return load_checkpoint(path)

    def reshape(doc):
        doc["params"]["xy.conv1.w"]["shape"] = [2, 2, 1, 9]

    def set_data(name, data):
        return lambda doc: doc["params"][name].update({"data": data})

    def set_norm(field, value):
        return lambda doc: doc["norm"].update({field: value})

    def encode(values):
        return base64.b64encode(np.asarray(values, dtype="<f8").tobytes()).decode("ascii")

    def set_config(edit):
        return lambda doc: edit(doc["config"])

    n_out = mp.params["head.out.b"].size
    # layer sizes in the config: named, not a ZeroDivisionError or a shape the config "needs"
    with pytest.raises(ValueError, match=r"conv_spec\[0\] pool must be an integer >= 1, got 0"):
        load_edited(set_config(lambda c: c["conv_spec"][0].__setitem__(2, 0)))
    with pytest.raises(ValueError, match=r"conv_spec\[0\] channels must be an integer >= 1, got 0"):
        load_edited(set_config(lambda c: c["conv_spec"][0].__setitem__(0, 0)))
    with pytest.raises(ValueError, match=r"conv_spec\[1\] kernel must be an integer >= 1, got -1"):
        load_edited(set_config(lambda c: c["conv_spec"][1].__setitem__(1, -1)))
    with pytest.raises(ValueError, match=r"row_mlp_spec\[0\] must be an integer >= 1, got 0"):
        load_edited(set_config(lambda c: c["row_mlp_spec"].__setitem__(0, 0)))
    with pytest.raises(ValueError, match=r"tnet_row_spec\[1\] must be an integer >= 1, got -3"):
        load_edited(set_config(lambda c: c["tnet_row_spec"].__setitem__(1, -3)))
    with pytest.raises(ValueError, match=r"'xy\.conv1\.w' has shape \(2, 2, 1, 9\)"):
        load_edited(reshape)
    with pytest.raises(ValueError, match=r"lacks parameter 'head\.out\.b'"):
        load_edited(lambda doc: doc["params"].pop("head.out.b"))
    with pytest.raises(ValueError, match=r"has parameter 'extra\.w' that its config does not define"):
        load_edited(lambda doc: doc["params"].update({"extra.w": {"shape": [1], "data": [0.0]}}))
    # values: base64 text, byte count and finiteness, in both versions
    with pytest.raises(ValueError, match=r"'head\.out\.b' data is not valid base64"):
        load_edited(set_data("head.out.b", "AAAA*AAAAAAAAAA="))
    with pytest.raises(ValueError, match=r"'head\.out\.b' data is not valid base64"):
        load_edited(set_data("head.out.b", [0.0] * n_out))
    with pytest.raises(ValueError, match=rf"'head\.out\.b' decodes to {8 * (n_out - 1)} bytes"):
        load_edited(set_data("head.out.b", encode(np.zeros(n_out - 1))))
    with pytest.raises(ValueError, match=r"'head\.out\.b' holds nan at flat index 1"):
        load_edited(set_data("head.out.b", encode([0.0, np.nan] + [0.0] * (n_out - 2))))
    with pytest.raises(ValueError, match=r"'head\.out\.w' holds inf at flat index 0"):
        load_edited(set_data("head.out.w", [np.inf] + doc_v1["params"]["head.out.w"]["data"][1:]), base=doc_v1)
    with pytest.raises(ValueError, match=r"'head\.out\.b' has 5 values"):
        load_edited(set_data("head.out.b", [0.0] * 5), base=doc_v1)
    # version 1 data is JSON numbers, not strings that happen to parse as floats
    with pytest.raises(ValueError, match=r"'head\.out\.b' holds '0\.5' at flat index 1, not a JSON number"):
        load_edited(set_data("head.out.b", [0.0, "0.5"] + [0.0] * (n_out - 2)), base=doc_v1)
    with pytest.raises(ValueError, match=r"'head\.out\.b' holds True at flat index 0, not a JSON number"):
        load_edited(set_data("head.out.b", [True] + [0.0] * (n_out - 1)), base=doc_v1)
    with pytest.raises(ValueError, match=r"'head\.out\.b' data is not a JSON list of numbers"):
        load_edited(set_data("head.out.b", encode(np.zeros(n_out))), base=doc_v1)
    for base in (doc, doc_v1):
        with pytest.raises(ValueError, match=r"norm field 'gt_min'"):
            load_edited(set_norm("gt_min", [0.0, np.nan, 1.0]), base=base)
        with pytest.raises(ValueError, match=r"norm field 'gt_max'"):
            load_edited(set_norm("gt_max", [0.0, 1.0, -np.inf]), base=base)
        with pytest.raises(ValueError, match=r"norm field 'snr_bounds'"):
            load_edited(set_norm("snr_bounds", [np.inf, 40.0]), base=base)
