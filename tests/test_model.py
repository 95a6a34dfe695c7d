import base64
import gc
import json
import math
import tracemalloc
from dataclasses import asdict, replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from radarpose import model as model_module
from radarpose.autodiff import Tensor, concat, conv2d, maxpool2d, mse, no_tape
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
    param_count,
    param_layout,
    predict_batch,
    save_checkpoint,
    train,
)
from radarpose.physics import ChirpConfig
from radarpose.pointcloud import FusedFrame
from radarpose.scene import JOINT_NAMES, MotionConfig, SkeletonFrame
from test_autodiff import reference_conv2d, reference_maxpool2d


def toy_examples(rng, cfg, n_frames=10):
    gt = rng.uniform([-1.0, 1.9, 0.0], [1.0, 3.5, 1.8], size=(n_frames, 32, 3))
    return ExampleSet(
        view_xy=rng.normal(size=(n_frames, cfg.n_max, 4)),
        view_yz=rng.normal(size=(n_frames, cfg.n_max, 4)),
        gt=gt,
        frame_ids=list(range(n_frames)),
    )


def one_frame(ex, i):
    """Frame ``i`` of ``ex`` as a one-frame ExampleSet."""
    sel = slice(i, i + 1)
    return ExampleSet(ex.view_xy[sel], ex.view_yz[sel], ex.gt[sel], ex.frame_ids[sel])


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
    with pytest.raises(ValueError, match="^conv/pool stack shrinks the view below 1x1$"):
        ModelConfig(conv_spec=((8, 3, 2), (8, 3, 2), (8, 3, 2)))  # view shrinks to 0


@pytest.mark.parametrize("conv_spec, n_max, shrinks", [
    (((8, 3, 8),), 64, True),  # the 4-wide view reaches 0 at once
    (((8, 3, 4),), 64, False),  # 16 x 1
    (((8, 3, 2), (8, 3, 32)), 64, True),  # 32 x 2, then 1 x 0
    (((8, 3, 3),), 2, True),  # the height reaches 0 first
])
def test_config_refuses_a_conv_stack_that_shrinks_the_view_to_nothing(conv_spec, n_max, shrinks):
    if shrinks:
        with pytest.raises(ValueError, match="^conv/pool stack shrinks the view below 1x1$"):
            ModelConfig(conv_spec=conv_spec, n_max=n_max)
        ModelConfig(variant="dual_mlp", conv_spec=conv_spec, n_max=n_max)  # only dual_cnn runs the stack
    else:
        assert model_module._conv_flat_size(ModelConfig(conv_spec=conv_spec, n_max=n_max)) == 8 * 16


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

def untaped_tnet(view, mp, branch=None):
    """One branch's TNet on (B, N, D) views, built without a tape:
    ``(view @ transform, transform)``."""
    cfg = mp.config
    view = Tensor(np.asarray(view, dtype=float))
    with no_tape():
        transform = model_module._tnet_graph(view, *_kept_rows(view.data), model_module._wrap_params(mp.params),
                                             cfg, f"{branch or cfg.branches[0]}.tnet")
        return (view @ transform).data, transform.data


def test_tnet_is_identity_at_init():
    cfg = toy_config("dual_cnn", seed=3)
    mp = init_params(cfg)
    view = np.random.default_rng(0).normal(size=(2, cfg.n_max, 4))
    out, transform = untaped_tnet(view, mp)
    np.testing.assert_array_equal(transform, np.broadcast_to(np.eye(4), (2, 4, 4)))
    np.testing.assert_array_equal(out, view)


def test_tnet_transform_permutation_invariant():
    cfg = toy_config("dual_cnn", seed=4)
    mp = init_params(cfg)
    rng = np.random.default_rng(1)
    # jitter so the transform is not the trivial identity
    mp.flat += 0.1 * rng.normal(size=mp.flat.size)
    view = rng.normal(size=(1, cfg.n_max, 4))
    _, t_ref = untaped_tnet(view, mp)
    for _ in range(5):
        perm = rng.permutation(cfg.n_max)
        _, t_perm = untaped_tnet(view[:, perm], mp)
        np.testing.assert_allclose(t_perm, t_ref, atol=1e-12)


# ---------------------------------------------------------------------------
# forward
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("variant", ["dual_cnn", "dual_mlp", "single_pointnet"])
def test_zero_input_outputs_head_bias(variant):
    cfg = toy_config(variant, seed=5)
    mp = init_params(cfg)
    bias = np.arange(cfg.output_width, dtype=float) * 0.1 - 0.2
    mp.params["head.out.b"][...] = bias
    inputs = {br: np.zeros((2, cfg.n_max, cfg.tnet_dim)) for br in cfg.branches}
    np.testing.assert_array_equal(forward(mp, inputs), [bias, bias])


def test_forward_output_width_is_66_by_default():
    cfg = ModelConfig(n_max=8)
    mp = init_params(cfg)
    out = forward(mp, {"xy": np.zeros((1, 8, 4)), "yz": np.zeros((1, 8, 4))})
    assert out.shape == (1, 66)


@pytest.mark.parametrize("variant", ["dual_mlp", "single_pointnet"])
def test_pooled_variants_are_order_invariant(variant):
    cfg = toy_config(variant, seed=6)
    mp = init_params(cfg)
    rng = np.random.default_rng(2)
    mp.flat += 0.1 * rng.normal(size=mp.flat.size)
    inputs = variant_inputs(cfg, rng, batch=1)
    ref = forward(mp, inputs)
    for _ in range(10):
        perm = rng.permutation(cfg.n_max)
        shuffled = {br: rows[:, perm, :] for br, rows in inputs.items()}
        np.testing.assert_allclose(forward(mp, shuffled), ref, atol=1e-6)


def test_forward_rejects_wrong_shapes():
    cfg = toy_config("dual_cnn", seed=0)
    mp = init_params(cfg)
    with pytest.raises(ValueError, match=r"xy must be \(B, 8, 4\), got \(1, 4, 4\)"):
        forward(mp, {"xy": np.zeros((1, 4, 4)), "yz": np.zeros((1, 4, 4))})  # wrong N
    with pytest.raises(ValueError, match=r"got \(8, 4\)"):  # one unbatched example
        forward(mp, {"xy": np.zeros((8, 4)), "yz": np.zeros((8, 4))})
    with pytest.raises(ValueError, match=r"branches \('xy', 'yz'\) to rows, got a tuple$"):
        forward(mp, (np.zeros((1, 8, 4)), np.zeros((1, 8, 4))))  # the pair is not the input form
    cfg3 = toy_config("single_pointnet", seed=0)
    with pytest.raises(ValueError, match=r"got \(1, 8, 4\)"):
        forward(init_params(cfg3), {"cloud": np.zeros((1, 8, 4))})  # 4 features, not 3
    with pytest.raises(ValueError, match=r"got \(8, 3\)"):
        forward(init_params(cfg3), {"cloud": np.zeros((8, 3))})


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("edit", ["missing", "extra"])
def test_forward_and_backward_reject_a_missing_or_extra_branch(variant, edit):
    cfg = toy_config(variant, seed=0)
    mp = init_params(cfg)
    inputs = variant_inputs(cfg, np.random.default_rng(0))
    if edit == "missing":
        inputs.pop(cfg.branches[-1])
    else:
        inputs["zx"] = inputs[cfg.branches[0]]
    message = rf"^{variant} takes a mapping of the branches \({', '.join(map(repr, cfg.branches))},?\) to rows, got \(.*\)$"
    for call in (lambda: forward(mp, inputs), lambda: backward(mp, inputs, np.zeros((3, cfg.output_width)))):
        with pytest.raises(ValueError, match=message) as err:
            call()
        assert ("'zx'" in str(err.value)) == (edit == "extra")


# ---------------------------------------------------------------------------
# loss / backward
# ---------------------------------------------------------------------------

def test_backward_zero_at_perfect_prediction():
    cfg = toy_config("dual_mlp", seed=7)
    mp = init_params(cfg)
    rng = np.random.default_rng(4)
    inputs = variant_inputs(cfg, rng)
    gt = forward(mp, inputs)  # exact target -> stationary point
    loss, grads = backward(mp, inputs, gt)
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
        backward(mp, inputs, gt)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_backward_frozen_branch_conv_weights_get_no_gradient():
    cfg = toy_config("dual_cnn", seed=8)
    mp = init_params(cfg)
    rng = np.random.default_rng(5)
    inputs = {"xy": rng.normal(size=(2, cfg.n_max, 4)), "yz": np.zeros((2, cfg.n_max, 4))}
    gt = rng.uniform(size=(2, cfg.output_width))
    _, grads = backward(mp, inputs, gt)
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
    valid = (ex.view_xy != 0).any(axis=-1).sum(axis=1)
    assert valid.min() == 0 and valid.max() == cfg.n_max and ((valid > 0) & (valid < cfg.n_max)).any()
    mp = _trained_like(cfg, seed=33)
    inputs = model_module._prepare_inputs(cfg, ex.inputs_for(cfg))
    oracle = _padded_graph(cfg, model_module._wrap_params(mp.params), inputs).data
    assert forward(mp, ex.inputs_for(cfg)).tobytes() == oracle.tobytes()
    expected = model_module._denormalize(cfg, oracle, mp.gt_min, mp.gt_max)
    assert predict_batch(mp, ex).tobytes() == expected.tobytes()
    for br in cfg.branches:
        view = inputs[br]
        out, transform = untaped_tnet(view.data, mp, br)
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
    loss, grads = backward(mp, ex.inputs_for(cfg), gt)
    pt = model_module._wrap_params(mp.params)
    inputs = model_module._prepare_inputs(cfg, ex.inputs_for(cfg))
    ref = mse(_padded_graph(cfg, pt, inputs), gt)
    ref.backward()
    assert loss == float(ref.data)
    for k, t in pt.items():
        scale = np.abs(t.grad).max()
        np.testing.assert_allclose(grads[k], t.grad, rtol=0, atol=1e-12 * scale, err_msg=k)


def _interior_rows(cfg, m):
    """The conv stack's output rows whose reach, traced back stage by stage, lies
    on the image rows m to n_max - 1 and meets no padding: the rows it may cut."""
    heights = [cfg.n_max]
    for _channels, _kernel, pool in cfg.conv_spec:
        heights.append(heights[-1] // pool)
    interior = []
    for j in range(heights[-1]):
        lo, hi, inside = j, j, True
        for (_channels, kernel, pool), height in zip(reversed(cfg.conv_spec), reversed(heights[:-1])):
            lo, hi = lo * pool - kernel // 2, (hi + 1) * pool - 1 + kernel // 2
            inside = inside and lo >= 0 and hi < height
        if inside and lo >= m:
            interior.append(j)
    return interior


_TOY_CNN = toy_config("dual_cnn", seed=61)
CUT_STACKS = {
    "default": ModelConfig(variant="dual_cnn", seed=61),
    "pools-3-1": replace(_TOY_CNN, n_max=47, conv_spec=((3, 3, 3), (4, 3, 1))),  # stage 2 drops 2 rows
    "kernel-5": replace(_TOY_CNN, n_max=40, conv_spec=((3, 5, 2), (4, 3, 2))),
    "three-stages": replace(_TOY_CNN, n_max=48, conv_spec=((2, 3, 2), (3, 3, 1), (4, 5, 2))),
    "n_max-50": replace(_TOY_CNN, n_max=50),
}


@pytest.mark.parametrize("rows", ["none", "below-limit", "at-limit", "zero-row-between", "one-frame"])
@pytest.mark.parametrize("stack", CUT_STACKS)
def test_cut_image_is_bitwise_the_padded_graph(stack, rows, monkeypatch):
    # the conv stack runs on fewer rows when two or more of its output rows read
    # only trailing zero rows, unless the batch then holds fewer rows than one
    # view; the forward stays bitwise, the gradients sum the cut run's rows in
    # another order
    cfg = CUT_STACKS[stack]
    pool = math.prod(p for _channels, _kernel, p in cfg.conv_spec)
    limit = min(m for m in range(cfg.n_max + 1) if len(_interior_rows(cfg, m)) < 2)  # from here on nothing is cut
    m = {"none": 0, "below-limit": limit - 1, "at-limit": limit, "zero-row-between": limit - 1, "one-frame": 0}[rows]
    batch = 1 if rows == "one-frame" else 6
    rng = np.random.default_rng(62)
    inputs = {}
    for br in cfg.branches:
        view = rng.normal(size=(batch, cfg.n_max, 4))
        view[np.arange(cfg.n_max) >= np.array([[m], [m // 2], [0]] * 2)[:batch]] = 0.0
        if rows == "zero-row-between":
            view[:, m - 1 - pool : m - 1] = 0.0  # the last point still sits in row m - 1
        inputs[br] = view
    height = cfg.n_max - max(len(_interior_rows(cfg, m)) - 1, 0) * pool
    if batch * height < cfg.n_max:
        height = cfg.n_max
    assert (height < cfg.n_max) == (rows not in ("at-limit", "one-frame"))
    seen = []
    monkeypatch.setattr(model_module, "conv2d", lambda x, w, b: seen.append(x.shape[2]) or conv2d(x, w, b))

    mp = _trained_like(cfg, seed=63)
    pt = model_module._wrap_params(mp.params)
    oracle = _padded_graph(cfg, pt, model_module._prepare_inputs(cfg, inputs))
    assert forward(mp, inputs).tobytes() == oracle.data.tobytes()
    assert seen[:: len(cfg.conv_spec)] == [height, height]  # each branch's image
    gt = rng.uniform(size=(batch, cfg.output_width))
    loss, grads = backward(mp, inputs, gt)
    ref = mse(oracle, gt)
    ref.backward()
    assert loss == float(ref.data)
    for k, t in pt.items():
        np.testing.assert_allclose(grads[k], t.grad, rtol=0, atol=1e-12 * np.abs(t.grad).max(), err_msg=k)


def test_the_gradcheck_cut_case_runs_on_a_cut_image():
    cfg = replace(toy_config("dual_cnn", seed=0), n_max=32)
    inputs = variant_inputs(cfg, np.random.default_rng(1), rows=8)
    height, counts = model_module._image_cut(cfg, inputs["xy"])
    assert height == 20 and counts.tolist() == [1, 1, 1, 4, 1]


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


@pytest.mark.parametrize("edit, message", [
    ({"batch": 2.5}, r"batch must be an integer >= 1, got 2\.5"),
    ({"epochs": 1.5}, r"epochs must be an integer >= 1, got 1\.5"),
    ({"batch": True}, r"batch must be an integer >= 1, got True"),
])
def test_hyper_rejects_a_batch_or_epoch_count_that_is_no_integer(edit, message):
    with pytest.raises(ValueError, match=message):
        Hyper(**edit)


#: each config class's integer fields: (build the config around a value, read the field back, its name)
INTEGER_FIELDS = {
    "ChirpConfig.n_samples": (lambda v: ChirpConfig(n_samples=v(64)), lambda c: c.n_samples, "n_samples"),
    "ChirpConfig.n_chirps": (lambda v: ChirpConfig(n_chirps=v(3)), lambda c: c.n_chirps, "n_chirps"),
    "MotionConfig.seed": (lambda v: MotionConfig(seed=v(3)), lambda c: c.seed, "seed"),
    "ModelConfig.n_max": (lambda v: ModelConfig(n_max=v(16)), lambda c: c.n_max, "n_max"),
    "ModelConfig.seed": (lambda v: ModelConfig(seed=v(2)), lambda c: c.seed, "seed"),
    "ModelConfig.row_mlp_spec": (
        lambda v: ModelConfig(row_mlp_spec=(32, v(8))), lambda c: c.row_mlp_spec[1], r"row_mlp_spec\[1\]"),
    "ModelConfig.conv_spec": (
        lambda v: ModelConfig(conv_spec=((v(4), 3, 2),)), lambda c: c.conv_spec[0][0], r"conv_spec\[0\] channels"),
    "Hyper.batch": (lambda v: Hyper(batch=v(8)), lambda c: c.batch, "batch"),
    "Hyper.epochs": (lambda v: Hyper(epochs=v(2)), lambda c: c.epochs, "epochs"),
    "Hyper.seed": (lambda v: Hyper(seed=v(1)), lambda c: c.seed, "seed"),
}


@pytest.mark.parametrize("make, read, name", INTEGER_FIELDS.values(), ids=INTEGER_FIELDS)
def test_integer_fields_store_a_numpy_integer_as_int_and_refuse_a_bool(make, read, name):
    cfg = make(np.int64)
    assert type(read(cfg)) is int
    json.dumps(asdict(cfg))  # what save_checkpoint does with a ModelConfig
    with pytest.raises(ValueError, match=rf"^{name} must be an integer >= \d, got True$"):
        make(lambda value: True)


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
    with pytest.raises(ValueError, match="non-finite input: example 2, yz row 5"):
        forward(mp, ex.inputs_for(cfg))
    with pytest.raises(ValueError, match="non-finite input: example 2, yz row 5"):
        predict_batch(mp, ex)
    with pytest.raises(ValueError, match="non-finite input: example 0, yz row 5"):
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


def _unblocked_adam_step(p, grads, state, lr, t, beta1=0.9, beta2=0.999, eps=1e-8):
    """The flat Adam step as 12 passes over whole vectors: the reference for the blocked one."""
    g = np.concatenate([g.ravel() for g in grads])
    m, v = state
    root = np.sqrt(1 - beta2**t)
    work, work2 = np.empty_like(p), np.empty_like(p)
    m *= beta1
    np.multiply(g, 1 - beta1, out=work)
    m += work
    v *= beta2
    np.multiply(g, 1 - beta2, out=work)
    work *= g
    v += work
    np.sqrt(v, out=work2)
    work2 += eps * root
    np.multiply(m, lr * root / (1 - beta1**t), out=work)
    work /= work2
    p -= work


def test_flat_adam_step_matches_the_per_array_update():
    # the toy model fits in one block; the default dual_cnn spans several and ends in a partial one.
    # Both updates take the same gradients: the moments stay bitwise, the folded bias corrections
    # round the parameters differently
    lr = 3e-3
    for cfg in (toy_config("dual_cnn", seed=19), ModelConfig(variant="dual_cnn", seed=19)):
        rng = np.random.default_rng(13)
        inputs = variant_inputs(cfg, rng, batch=4)
        gt = rng.uniform(size=(4, cfg.output_width))
        ref = init_params(cfg)
        ref_state = {k: (np.zeros_like(v), np.zeros_like(v)) for k, v in ref.params.items()}
        mp = init_params(cfg)
        state = (np.zeros_like(mp.flat), np.zeros_like(mp.flat))
        for t in (1, 2, 3):
            _, grads = backward(ref, inputs, gt)
            _adam_step(mp.flat, [grads[k] for k in mp.params], state, lr, t)
            _per_array_adam(ref.params, grads, ref_state, lr, t)
            assert mp.params.keys() == ref.params.keys()
            for k, p in ref.params.items():
                np.testing.assert_allclose(mp.params[k], p, rtol=0, atol=1e-12 * lr, err_msg=k)
            for i in (0, 1):
                ref_moment = np.concatenate([ref_state[k][i].ravel() for k in ref.params])
                assert state[i].tobytes() == ref_moment.tobytes()
    assert mp.flat.size > 2 * ADAM_BLOCK and mp.flat.size % ADAM_BLOCK


def test_adam_step_refuses_gradients_that_do_not_cover_the_parameters():
    p = np.zeros(5)
    state = (np.zeros(5), np.zeros(5))
    with pytest.raises(ValueError, match="the gradients hold 4 values, the parameters 5"):
        _adam_step(p, [np.ones((2, 1)), np.ones(2)], state, 1e-3, 1)
    assert not p.any() and not state[0].any()


def test_dual_cnn_training_is_bitwise_the_reference_kernels(monkeypatch):
    """Default-size dual_cnn at batch 10, as in the overfit gate: two runs and
    a run on the reference conv2d, maxpool2d and Adam give the same bits.
    The frames hold at most 20 and 30 rows, as packed frames do, so the conv
    stack runs on cut images (32 and 44 of the 64 rows) and its pools see
    all-zero windows."""
    cfg = ModelConfig(variant="dual_cnn", seed=1)
    ex = toy_examples(np.random.default_rng(41), cfg, n_frames=10)
    for i in range(10):
        ex.view_xy[i, 2 * (i + 1) :] = 0.0
        ex.view_yz[i, 3 * (i + 1) :] = 0.0
    ex.view_xy[4, 3] = 0.0  # a zero row between points
    hyper = Hyper(lr=3e-3, batch=10, epochs=30, seed=1, val_fraction=0.0, lr_decay=0.9996)
    heights = set()

    def reference_conv2d_seen(x, w, b):
        heights.add(x.shape[2])
        return reference_conv2d(x, w, b)

    def run():
        mp, hist = train(cfg, ex, hyper)
        return np.array([h["train_loss"] for h in hist]), mp.params

    losses, params = run()
    assert losses[-1] < losses[0]
    second = run()
    monkeypatch.setattr(model_module, "conv2d", reference_conv2d_seen)
    monkeypatch.setattr(model_module, "maxpool2d", reference_maxpool2d)
    monkeypatch.setattr(model_module, "_adam_step", _unblocked_adam_step)
    for other_losses, other_params in (second, run()):
        assert other_losses.tobytes() == losses.tobytes()
        for k, p in params.items():
            assert other_params[k].tobytes() == p.tobytes(), k
    assert heights == {32, 44, 22, 16}  # each branch's two stages


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


@pytest.mark.parametrize("variant", VARIANTS)
def test_inference_returns_the_taped_graphs_bytes(variant):
    # forward, predict_batch and the untaped TNet build no tape; the same graph built with one gives the same bits
    cfg = ModelConfig(variant=variant, seed=53)
    ex = _packed_examples(cfg.n_max, seed=54)
    mp = _trained_like(cfg, seed=55)
    pt = model_module._wrap_params(mp.params)
    inputs = model_module._prepare_inputs(cfg, ex.inputs_for(cfg))
    taped = model_module._forward_graph(cfg, pt, inputs)
    assert taped._backward is not None
    assert forward(mp, ex.inputs_for(cfg)).tobytes() == taped.data.tobytes()
    expected = model_module._denormalize(cfg, taped.data, mp.gt_min, mp.gt_max)
    assert predict_batch(mp, ex).tobytes() == expected.tobytes()
    for br in cfg.branches:
        view = inputs[br]
        out, transform = untaped_tnet(view.data, mp, br)
        ref_transform = model_module._tnet_graph(view, *_kept_rows(view.data), pt, cfg, f"{br}.tnet")
        ref_out = view @ ref_transform
        assert ref_out._backward is not None
        assert out.tobytes() == ref_out.data.tobytes()
        assert transform.tobytes() == ref_transform.data.tobytes()


@pytest.mark.parametrize("variant", VARIANTS)
def test_predict_batch_peak_memory_stays_below_100_mb(variant):
    # 480 frames at the default size; a taped forward keeps every layer's
    # intermediates alive until it returns and peaks at 106-263 MB on them
    cfg = ModelConfig(variant=variant, seed=56)
    ex = _packed_examples(cfg.n_max, seed=57)
    tiled = ExampleSet(*(np.tile(a, (96, 1, 1)) for a in (ex.view_xy, ex.view_yz, ex.gt)),
                       frame_ids=list(range(480)))
    mp = _trained_like(cfg, seed=58)
    tracemalloc.start()
    try:
        preds = predict_batch(mp, tiled)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert preds.shape == (480, 32, 3)
    assert peak < 100e6, f"{peak / 1e6:.1f} MB"


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
