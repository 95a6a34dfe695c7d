"""Dual-view skeleton regression networks with hand-rolled gradients.

Three variants share one output contract (normalized coordinates of the
included joints):

  * ``dual_cnn``       - per view: TNet, then the N x 4 matrix as a
                         1-channel image through a conv/pool stack;
                         branches concatenated into an MLP head
  * ``dual_mlp``       - conv stack replaced by a shared per-row MLP with
                         a global max pool per view
  * ``single_pointnet``- one xyz cloud: TNet(3), shared row MLP, global
                         max pool, MLP head

Every learnable value lives in one float64 vector, ``ModelParams.flat``,
laid out in :func:`param_layout` order; ``ModelParams.params`` names reshaped
views of it. Initialization and checkpoint loading fill the vector through
the views, and Adam updates it in place together with flat gradient and
moment vectors.
"""

from __future__ import annotations

import base64
import json
import math
from collections.abc import Mapping
from dataclasses import asdict, dataclass, field
from pathlib import Path
from types import MappingProxyType

import numpy as np

from .autodiff import Tensor, amax, concat, conv2d, gather_rows, maxpool2d, mse
from .pointcloud import FusedFrame, build_cloud, build_views
from .scene import DEFAULT_EXCLUDED_JOINTS, JOINT_INDEX, JOINT_NAMES, N_JOINTS

VARIANTS = ("dual_cnn", "dual_mlp", "single_pointnet")

MAX_OUTPUT_LABELS = 96  # 32 joints x 3 coordinates


def _require_size(name: str, value) -> None:
    """Reject a layer size that is not an integer >= 1, naming its field."""
    if not isinstance(value, int) or isinstance(value, bool) or value < 1:
        raise ValueError(f"{name} must be an integer >= 1, got {value!r}")


@dataclass(frozen=True)
class ModelConfig:
    variant: str = "dual_cnn"
    n_max: int = 64
    excluded_joints: tuple = DEFAULT_EXCLUDED_JOINTS
    conv_spec: tuple = ((16, 3, 2), (32, 3, 2))  # (channels, kernel, pool) per stage
    row_mlp_spec: tuple = (64, 128)
    pointnet_mlp_spec: tuple = (64, 64, 128, 1024)
    pointnet_head_spec: tuple = (512, 256)
    mlp_head_spec: tuple = (512, 128)
    tnet_row_spec: tuple = (32, 64)
    tnet_head_spec: tuple = (32,)
    seed: int = 0

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError(f"variant must be one of {VARIANTS}, got {self.variant!r}")
        unknown = [j for j in self.excluded_joints if j not in JOINT_INDEX]
        if unknown:
            raise ValueError(f"unknown excluded joints: {unknown}")
        if not 1 <= self.n_joints_out <= N_JOINTS:
            raise ValueError("need between 1 and 32 included joints")
        if self.output_width > MAX_OUTPUT_LABELS:
            raise ValueError(f"output width {self.output_width} exceeds {MAX_OUTPUT_LABELS}")
        _require_size("n_max", self.n_max)
        if self.n_max < 2:
            raise ValueError("n_max must be >= 2")
        for field in ("row_mlp_spec", "pointnet_mlp_spec"):
            if not getattr(self, field):
                raise ValueError(f"{field} needs at least one layer")
        widths = ("row_mlp_spec", "pointnet_mlp_spec", "pointnet_head_spec", "mlp_head_spec", "tnet_row_spec",
                  "tnet_head_spec")
        for field in widths:
            for i, width in enumerate(getattr(self, field)):
                _require_size(f"{field}[{i}]", width)
        for i, stage in enumerate(self.conv_spec):
            if not isinstance(stage, tuple) or len(stage) != 3:
                raise ValueError(f"conv_spec[{i}] must be (channels, kernel, pool), got {stage!r}")
            for part, value in zip(("channels", "kernel", "pool"), stage):
                _require_size(f"conv_spec[{i}] {part}", value)
            if stage[1] % 2 == 0:
                raise ValueError(f"conv_spec[{i}] kernel must be odd, got {stage[1]}")
        if self.variant == "dual_cnn":
            h, w = self.n_max, 4
            for channels, kernel, pool in self.conv_spec:
                h, w = h // pool, w // pool
                if h < 1 or w < 1:
                    raise ValueError("conv/pool stack shrinks the view below 1x1")

    @property
    def included_joints(self) -> tuple:
        return tuple(n for n in JOINT_NAMES if n not in self.excluded_joints)

    @property
    def n_joints_out(self) -> int:
        return N_JOINTS - len(set(self.excluded_joints))

    @property
    def output_width(self) -> int:
        return 3 * self.n_joints_out

    @property
    def tnet_dim(self) -> int:
        return 3 if self.variant == "single_pointnet" else 4

    @property
    def branches(self) -> tuple:
        return ("cloud",) if self.variant == "single_pointnet" else ("xy", "yz")


@dataclass
class ModelParams:
    """Every learnable value, as the one float64 vector ``flat`` in
    :func:`param_layout` order, plus the normalization constants baked in at
    training time (per-axis ground-truth min/max and the SNR affine).

    ``params`` maps each name to a reshaped view of ``flat``: writing through
    a view (``params[k][...] = x``) changes ``flat``; rebinding a name raises
    ``TypeError``."""

    config: ModelConfig
    flat: np.ndarray
    gt_min: np.ndarray | None = None
    gt_max: np.ndarray | None = None
    snr_bounds: tuple | None = None
    params: Mapping = field(init=False, repr=False)

    def __post_init__(self):
        size, flat = param_count(self.config), self.flat
        if not (isinstance(flat, np.ndarray) and flat.dtype == np.float64 and flat.shape == (size,)):
            got = f"{flat.dtype} array of shape {flat.shape}" if isinstance(flat, np.ndarray) else type(flat).__name__
            raise ValueError(f"flat must be a 1-D float64 vector of {size} values for this config, got a {got}")
        views, start = {}, 0
        for name, (shape, _init) in param_layout(self.config).items():
            end = start + math.prod(shape)
            views[name] = flat[start:end].reshape(shape)
            start = end
        self.params = MappingProxyType(views)


# ---------------------------------------------------------------------------
# initialization
# ---------------------------------------------------------------------------

def _dense_layout(layout: dict, name: str, fan_in: int, fan_out: int):
    layout[f"{name}.w"] = ((fan_in, fan_out), fan_in)
    layout[f"{name}.b"] = ((fan_out,), "zeros")


def _tnet_layout(cfg: ModelConfig, layout: dict, prefix: str):
    dim = cfg.tnet_dim
    width = dim
    for i, w in enumerate(cfg.tnet_row_spec):
        _dense_layout(layout, f"{prefix}.row{i}", width, w)
        width = w
    for i, w in enumerate(cfg.tnet_head_spec):
        _dense_layout(layout, f"{prefix}.head{i}", width, w)
        width = w
    # final layer starts as the exact identity transform
    layout[f"{prefix}.out.w"] = ((width, dim * dim), "zeros")
    layout[f"{prefix}.out.b"] = ((dim * dim,), "identity")


def param_layout(cfg: ModelConfig) -> dict:
    """Name -> (shape, init) of every parameter, in the order they are drawn.

    ``init`` is a fan-in (a He-normal draw with std sqrt(2 / fan_in)),
    ``"zeros"`` or ``"identity"`` (a flattened identity matrix).
    """
    layout: dict = {}
    if cfg.variant == "dual_cnn":
        for br in cfg.branches:
            _tnet_layout(cfg, layout, f"{br}.tnet")
            c_in = 1
            for i, (channels, kernel, _pool) in enumerate(cfg.conv_spec):
                layout[f"{br}.conv{i}.w"] = ((channels, c_in, kernel, kernel), c_in * kernel * kernel)
                layout[f"{br}.conv{i}.b"] = ((channels,), "zeros")
                c_in = channels
        feat = 2 * _conv_flat_size(cfg)
    elif cfg.variant == "dual_mlp":
        for br in cfg.branches:
            _tnet_layout(cfg, layout, f"{br}.tnet")
            width = 4
            for i, w in enumerate(cfg.row_mlp_spec):
                _dense_layout(layout, f"{br}.row{i}", width, w)
                width = w
        feat = 2 * cfg.row_mlp_spec[-1]
    else:
        _tnet_layout(cfg, layout, "cloud.tnet")
        width = 3
        for i, w in enumerate(cfg.pointnet_mlp_spec):
            _dense_layout(layout, f"cloud.mlp{i}", width, w)
            width = w
        feat = cfg.pointnet_mlp_spec[-1]

    head_spec = cfg.pointnet_head_spec if cfg.variant == "single_pointnet" else cfg.mlp_head_spec
    width = feat
    for i, w in enumerate(head_spec):
        _dense_layout(layout, f"head.fc{i}", width, w)
        width = w
    _dense_layout(layout, "head.out", width, cfg.output_width)
    return layout


def init_params(cfg: ModelConfig) -> ModelParams:
    """Fresh parameters; deterministic in ``cfg.seed``."""
    rng = np.random.default_rng(cfg.seed)
    mp = ModelParams(config=cfg, flat=np.zeros(param_count(cfg)))
    for name, (shape, init) in param_layout(cfg).items():
        if init == "identity":
            mp.params[name][...] = np.eye(cfg.tnet_dim).reshape(-1)
        elif init != "zeros":
            mp.params[name][...] = rng.normal(0.0, math.sqrt(2.0 / init), size=shape)
    return mp


def param_count(cfg: ModelConfig) -> int:
    """The number of learnable values of ``cfg``: the length of ``ModelParams.flat``."""
    return sum(math.prod(shape) for shape, _init in param_layout(cfg).values())


def _conv_flat_size(cfg: ModelConfig) -> int:
    h, w = cfg.n_max, 4
    channels = 1
    for ch, _kernel, pool in cfg.conv_spec:
        channels = ch
        h, w = h // pool, w // pool
    return channels * h * w


# ---------------------------------------------------------------------------
# graph construction
# ---------------------------------------------------------------------------

def _kept_rows(view: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The rows of a zero-padded (B, N, D) batch that the row networks see.

    A row is kept if it is non-zero, or if it is the first all-zero row of
    its example. A row network maps every all-zero row of an example to the
    same vector, so the later ones cannot change that example's max, and the
    first one is where a tie would send the gradient anyway. Returns the kept
    rows' indices into the (B*N, D) flattening, in order, and the (B,) index
    of each example's first kept row among them.
    """
    zero = ~(view != 0).any(axis=-1)
    keep = ~zero | (np.cumsum(zero, axis=1) == 1)
    counts = keep.sum(axis=1)
    return np.flatnonzero(keep), np.cumsum(counts) - counts


def _tnet_graph(view: Tensor, rows: np.ndarray, starts: np.ndarray, pt: dict, cfg: ModelConfig, prefix: str):
    """(B, N, D) view and its kept rows -> (transformed (B, N, D), transform (B, D, D))."""
    dim = cfg.tnet_dim
    h = Tensor(view.data.reshape(-1, dim)[rows])
    for i in range(len(cfg.tnet_row_spec)):
        h = (h @ pt[f"{prefix}.row{i}.w"] + pt[f"{prefix}.row{i}.b"]).relu()
    pooled = amax(h, starts)
    for i in range(len(cfg.tnet_head_spec)):
        pooled = (pooled @ pt[f"{prefix}.head{i}.w"] + pt[f"{prefix}.head{i}.b"]).relu()
    tvals = pooled @ pt[f"{prefix}.out.w"] + pt[f"{prefix}.out.b"]
    transform = tvals.reshape((-1, dim, dim))
    return view @ transform, transform


def _pooled_rows(view: Tensor, pt: dict, cfg: ModelConfig, br: str, layers: list) -> Tensor:
    """TNet, the shared row MLP ``layers`` on the kept rows, then each example's max: (B, C)."""
    rows, starts = _kept_rows(view.data)
    h, _ = _tnet_graph(view, rows, starts, pt, cfg, f"{br}.tnet")
    h = gather_rows(h, rows)
    for name in layers:
        h = (h @ pt[f"{name}.w"] + pt[f"{name}.b"]).relu()
    return amax(h, starts)


def _branch_graph(view: Tensor, pt: dict, cfg: ModelConfig, br: str) -> Tensor:
    if cfg.variant == "dual_mlp":
        return _pooled_rows(view, pt, cfg, br, [f"{br}.row{i}" for i in range(len(cfg.row_mlp_spec))])
    batch = view.shape[0]
    h, _ = _tnet_graph(view, *_kept_rows(view.data), pt, cfg, f"{br}.tnet")
    img = h.reshape((batch, 1, cfg.n_max, 4))
    for i, (_channels, _kernel, pool) in enumerate(cfg.conv_spec):
        img = conv2d(img, pt[f"{br}.conv{i}.w"], pt[f"{br}.conv{i}.b"]).relu()
        img = maxpool2d(img, pool)
    return img.reshape((batch, _conv_flat_size(cfg)))


def _forward_graph(cfg: ModelConfig, pt: dict, inputs: dict) -> Tensor:
    if cfg.variant == "single_pointnet":
        layers = [f"cloud.mlp{i}" for i in range(len(cfg.pointnet_mlp_spec))]
        h = _pooled_rows(inputs["cloud"], pt, cfg, "cloud", layers)
        head_spec = cfg.pointnet_head_spec
    else:
        h = concat([_branch_graph(inputs[br], pt, cfg, br) for br in cfg.branches], axis=1)
        head_spec = cfg.mlp_head_spec
    for i in range(len(head_spec)):
        h = (h @ pt[f"head.fc{i}.w"] + pt[f"head.fc{i}.b"]).relu()
    return h @ pt["head.out.w"] + pt["head.out.b"]


def _wrap_params(params: dict) -> dict:
    return {k: Tensor(v) for k, v in params.items()}


def _prepare_inputs(cfg: ModelConfig, inputs) -> dict:
    """Check a packed batch (:meth:`ExampleSet.inputs_for`) and wrap it as the graph's inputs."""
    if cfg.variant == "single_pointnet":
        cloud = np.asarray(inputs, dtype=float)
        if cloud.shape[1:] != (cfg.n_max, 3):
            raise ValueError(f"single_pointnet expects (B, {cfg.n_max}, 3) clouds, got {cloud.shape}")
        return {"cloud": Tensor(cloud)}
    vxy, vyz = (np.asarray(v, dtype=float) for v in inputs)
    for name, v in (("view_xy", vxy), ("view_yz", vyz)):
        if v.shape[1:] != (cfg.n_max, 4):
            raise ValueError(f"{name} must be (B, {cfg.n_max}, 4), got {v.shape}")
    return {"xy": Tensor(vxy), "yz": Tensor(vyz)}


# ---------------------------------------------------------------------------
# public operations
# ---------------------------------------------------------------------------

def tnet_forward(view: np.ndarray, params: ModelParams, branch: str | None = None):
    """Apply one branch's learned affine transform to a (B, N, D) batch of views.

    Returns (transformed views (B, N, D), transforms (B, D, D)).
    """
    cfg = params.config
    if branch is None:
        branch = cfg.branches[0]
    view = np.asarray(view, dtype=float)
    if view.ndim != 3 or view.shape[2] != cfg.tnet_dim:
        raise ValueError(f"tnet_forward takes (B, N, {cfg.tnet_dim}) views, got {view.shape}")
    out, transform = _tnet_graph(Tensor(view), *_kept_rows(view), _wrap_params(params.params), cfg, f"{branch}.tnet")
    return out.data, transform.data


def forward(cfg: ModelConfig, params: ModelParams, inputs) -> np.ndarray:
    """Predict (B, 3J) normalized joint coordinates of a packed batch.

    ``inputs`` is :meth:`ExampleSet.inputs_for`'s form: a ``(view_xy,
    view_yz)`` pair of (B, n_max, 4) arrays, or a (B, n_max, 3) cloud for
    ``single_pointnet``; any other shape raises ``ValueError``. So does an
    input row that holds a NaN or inf, named by example and row: the ReLUs
    would otherwise map it to a finite prediction.
    """
    tensors = _prepare_inputs(cfg, inputs)
    for key, t in tensors.items():
        bad = np.argwhere(~np.isfinite(t.data).all(axis=-1))
        if len(bad):
            name = key if key == "cloud" else f"view_{key}"
            raise ValueError(f"non-finite input: example {bad[0][0]}, {name} row {bad[0][1]}")
    return _forward_graph(cfg, _wrap_params(params.params), tensors).data


def mse_loss(pred: np.ndarray, gt: np.ndarray) -> float:
    """Mean squared error over all outputs; 0 iff pred == gt."""
    pred = np.asarray(pred, dtype=float)
    gt = np.asarray(gt, dtype=float)
    if pred.shape != gt.shape:
        raise ValueError(f"shape mismatch: {pred.shape} vs {gt.shape}")
    return float(np.mean((pred - gt) ** 2))


def backward(cfg: ModelConfig, params: ModelParams, inputs, gt: np.ndarray):
    """Loss and exact gradients of the MSE w.r.t. every parameter.

    ``inputs`` is a packed batch as for :func:`forward`; ``gt`` lives in the
    normalized output space, shaped like the output.
    """
    tensors = _prepare_inputs(cfg, inputs)
    gt = np.asarray(gt, dtype=float)
    pt = _wrap_params(params.params)
    loss = mse(_forward_graph(cfg, pt, tensors), gt)
    loss.backward()
    grads = {k: t.grad for k, t in pt.items()}
    return float(loss.data), grads


# ---------------------------------------------------------------------------
# training
# ---------------------------------------------------------------------------

@dataclass
class Hyper:
    lr: float = 1e-3
    batch: int = 32
    epochs: int = 30
    seed: int = 0
    val_fraction: float = 0.2
    stop_loss: float | None = None  # stop early once train loss drops below
    lr_decay: float = 1.0  # per-epoch multiplicative decay

    def __post_init__(self):
        for field in ("batch", "epochs"):
            if getattr(self, field) < 1:
                raise ValueError(f"{field} must be >= 1, got {getattr(self, field)}")
        if not (math.isfinite(self.lr) and self.lr >= 0):
            raise ValueError(f"lr must be finite and >= 0, got {self.lr}")
        if not 0 <= self.val_fraction < 1:
            raise ValueError(f"val_fraction must be in [0, 1), got {self.val_fraction}")
        if not (math.isfinite(self.lr_decay) and self.lr_decay > 0):
            raise ValueError(f"lr_decay must be finite and > 0, got {self.lr_decay}")
        if self.stop_loss is not None and not math.isfinite(self.stop_loss):
            raise ValueError(f"stop_loss must be finite or None, got {self.stop_loss}")


@dataclass
class ExampleSet:
    """Model-ready arrays for a list of fused frames (SNR already scaled).

    Row ``i`` of every array is frame ``frame_ids[i]``, packed by
    :func:`build_views` and :func:`build_cloud`; the motion labels stay on
    the frames' ground truth.
    """

    view_xy: np.ndarray  # (F, n_max, 4)
    view_yz: np.ndarray  # (F, n_max, 4)
    cloud: np.ndarray  # (F, n_max, 3)
    gt: np.ndarray  # (F, 32, 3) world metres
    frame_ids: list

    def __len__(self):
        return len(self.gt)

    def inputs_for(self, cfg: ModelConfig, idx=None):
        """The model input of frames ``idx`` (all when None): the
        ``(view_xy, view_yz)`` pair, or the cloud for ``single_pointnet``."""
        sel = slice(None) if idx is None else idx
        if cfg.variant == "single_pointnet":
            return self.cloud[sel]
        return (self.view_xy[sel], self.view_yz[sel])


def examples_from_frames(frames: list[FusedFrame], n_max: int) -> ExampleSet:
    """Pack fused frames (normalized SNR) into stacked model inputs."""
    n = len(frames)
    ex = ExampleSet(
        view_xy=np.zeros((n, n_max, 4)),
        view_yz=np.zeros((n, n_max, 4)),
        cloud=np.zeros((n, n_max, 3)),
        gt=np.zeros((n, N_JOINTS, 3)),
        frame_ids=[fr.frame_id for fr in frames],
    )
    for i, fr in enumerate(frames):
        ex.view_xy[i], ex.view_yz[i] = build_views(fr.points, n_max)
        ex.cloud[i] = build_cloud(fr.points, n_max)
        ex.gt[i] = fr.gt.joints
    return ex


def _included_idx(cfg: ModelConfig) -> np.ndarray:
    return np.array([JOINT_INDEX[n] for n in cfg.included_joints])


def normalize_targets(cfg: ModelConfig, gt: np.ndarray, gt_min: np.ndarray, gt_max: np.ndarray) -> np.ndarray:
    """World-frame (F, 32, 3) joints -> flattened (F, 3J) training targets."""
    sel = gt[:, _included_idx(cfg), :]
    span = gt_max - gt_min
    return ((sel - gt_min) / span).reshape(len(gt), -1)


def target_bounds(cfg: ModelConfig, gt: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-axis min/max of the included training joints; span kept positive."""
    sel = gt[:, _included_idx(cfg), :]
    lo = sel.min(axis=(0, 1))
    hi = sel.max(axis=(0, 1))
    degenerate = hi - lo < 1e-9
    hi = np.where(degenerate, lo + 1.0, hi)
    return lo, hi


#: values per block of the Adam update: the six block-sized slices one block
#: touches (p, g, m, v and two scratch) take 1.5 MB, which stays in a 2 MB
#: per-core L2 cache across the update's 14 passes
ADAM_BLOCK = 32768


def _adam_step(p: np.ndarray, g: np.ndarray, state: tuple, lr: float, t: int,
               beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
    """One Adam update (Kingma & Ba, arXiv:1412.6980) of the flat vector ``p``, in place.

    ``state`` is (m, v), both moments shaped like ``p``. The ops run in the
    order of the per-array form

        m = b1*m + (1-b1)*g;  v = b2*v + (1-b2)*g*g
        p = p - lr * (m / (1-b1**t)) / (sqrt(v / (1-b2**t)) + eps)

    so every value is bitwise equal to it, without its temporaries. They run
    on one block of ``ADAM_BLOCK`` values at a time, with two block-sized
    scratch arrays.
    """
    m, v = state
    size = p.size
    scratch, scratch2 = np.empty(min(size, ADAM_BLOCK)), np.empty(min(size, ADAM_BLOCK))
    for start in range(0, size, ADAM_BLOCK):
        end = min(start + ADAM_BLOCK, size)
        pb, gb, mb, vb = p[start:end], g[start:end], m[start:end], v[start:end]
        work, work2 = scratch[: end - start], scratch2[: end - start]
        mb *= beta1
        np.multiply(gb, 1 - beta1, out=work)
        mb += work
        vb *= beta2
        np.multiply(gb, 1 - beta2, out=work)
        work *= gb
        vb += work
        np.divide(mb, 1 - beta1**t, out=work)
        np.divide(vb, 1 - beta2**t, out=work2)
        np.sqrt(work2, out=work2)
        work2 += eps
        work *= lr
        work /= work2
        pb -= work


def _split(rng: np.random.Generator, n: int, val_fraction: float):
    order = rng.permutation(n)
    n_val = int(round(n * val_fraction))
    return order[n_val:], order[:n_val]


def split_indices(n: int, seed: int, val_fraction: float):
    """(train_idx, val_idx): the exact split :func:`train` uses.

    The split is the first permutation drawn from ``default_rng(seed)``, so
    external code (e.g. split digests) can reproduce it without training.
    """
    return _split(np.random.default_rng(seed), n, val_fraction)


def train(cfg: ModelConfig, examples: ExampleSet, hyper: Hyper):
    """Adam training loop with a deterministic shuffle stream.

    Splits ``examples`` into train/validation (``hyper.val_fraction``),
    derives the ground-truth normalization from the training part only, and
    returns (params, history) where history holds one
    {epoch, train_loss, val_loss} entry per epoch. A non-finite batch loss
    or gradient raises ``ValueError`` before it reaches the optimizer state.
    """
    n = len(examples)
    if n == 0:
        raise ValueError("training dataset is empty")
    rng = np.random.default_rng(hyper.seed)
    # the epoch shuffles below continue the same stream after the split
    train_idx, val_idx = _split(rng, n, hyper.val_fraction)
    if len(train_idx) == 0:
        raise ValueError("val_fraction leaves no training frames")

    gt_min, gt_max = target_bounds(cfg, examples.gt[train_idx])
    targets = normalize_targets(cfg, examples.gt, gt_min, gt_max)

    mp = init_params(cfg)
    mp.gt_min, mp.gt_max = gt_min, gt_max
    grad = np.empty_like(mp.flat)
    state = (np.zeros_like(mp.flat), np.zeros_like(mp.flat))

    history = []
    step = 0
    for epoch in range(hyper.epochs):
        lr = hyper.lr * hyper.lr_decay**epoch
        shuffled = train_idx[rng.permutation(len(train_idx))]
        total, count = 0.0, 0
        for start in range(0, len(shuffled), hyper.batch):
            idx = shuffled[start : start + hyper.batch]
            loss, grads = backward(cfg, mp, examples.inputs_for(cfg, idx), targets[idx])
            step += 1
            np.concatenate([grads[k].ravel() for k in mp.params], out=grad)
            # a NaN input can leave the loss finite (ReLU zeroes it) yet reach
            # the gradient; either one would poison the Adam moments for good
            sq_norm = float(grad @ grad)
            if not (math.isfinite(loss) and math.isfinite(sq_norm)):
                raise ValueError(
                    f"non-finite training step at epoch {epoch}, step {step}: "
                    f"loss {loss}, squared gradient norm {sq_norm}"
                )
            _adam_step(mp.flat, grad, state, lr, step)
            total += loss * len(idx)
            count += len(idx)
        train_loss = total / count
        if len(val_idx):
            val_pred = forward(cfg, mp, examples.inputs_for(cfg, val_idx))
            val_loss = mse_loss(val_pred, targets[val_idx])
        else:
            val_loss = math.nan
        history.append({"epoch": epoch, "train_loss": train_loss, "val_loss": val_loss})
        if hyper.stop_loss is not None and train_loss < hyper.stop_loss:
            break
    return mp, history


# ---------------------------------------------------------------------------
# prediction
# ---------------------------------------------------------------------------

def _denormalize(cfg: ModelConfig, out: np.ndarray, gt_min: np.ndarray, gt_max: np.ndarray) -> np.ndarray:
    coords = out.reshape(len(out), cfg.n_joints_out, 3)
    world = coords * (gt_max - gt_min) + gt_min
    full = np.full((len(out), N_JOINTS, 3), np.nan)
    full[:, _included_idx(cfg), :] = world
    return full


def predict_batch(params: ModelParams, examples: ExampleSet) -> np.ndarray:
    """(F, 32, 3) world-frame predictions with NaN rows for the excluded joints.

    For one frame, pass a one-frame ``ExampleSet``.
    """
    cfg = params.config
    if params.gt_min is None or params.gt_max is None:
        raise ValueError("params carry no normalization constants; train first")
    if len(examples) == 0:
        raise ValueError("prediction dataset is empty")
    out = forward(cfg, params, examples.inputs_for(cfg))
    return _denormalize(cfg, out, params.gt_min, params.gt_max)


# ---------------------------------------------------------------------------
# checkpoint container (versioned JSON; layout documented in the README)
# ---------------------------------------------------------------------------

CHECKPOINT_FORMAT = "radarpose-checkpoint"
CHECKPOINT_VERSION = 2  # version 1 stored "data" as a JSON list of numbers; it is still read

def _config_from_dict(d: dict) -> ModelConfig:
    def tuples(v):
        return tuple(tuples(x) for x in v) if isinstance(v, list) else v

    return ModelConfig(**{k: tuples(v) for k, v in d.items()})


def save_checkpoint(params: ModelParams, path) -> None:
    doc = {
        "format": CHECKPOINT_FORMAT,
        "version": CHECKPOINT_VERSION,
        "config": asdict(params.config),
        "norm": {
            "gt_min": None if params.gt_min is None else params.gt_min.tolist(),
            "gt_max": None if params.gt_max is None else params.gt_max.tolist(),
            "snr_bounds": None if params.snr_bounds is None else list(params.snr_bounds),
        },
        "params": {
            k: {
                "shape": list(v.shape),
                "data": base64.b64encode(np.ascontiguousarray(v, dtype="<f8").tobytes()).decode("ascii"),
            }
            for k, v in params.params.items()
        },
    }
    Path(path).write_text(json.dumps(doc), encoding="utf-8")


def _read_stored_values(path, name: str, entry: dict, version: int, out: np.ndarray) -> None:
    """Decode one stored parameter into ``out``, its view of ``ModelParams.flat``."""
    shape, size = out.shape, out.size
    if tuple(entry["shape"]) != shape:
        raise ValueError(
            f"checkpoint {path}: parameter {name!r} has shape {tuple(entry['shape'])}; its config needs {shape}"
        )
    if version == 1:
        data = entry["data"]
        if not isinstance(data, list):
            raise ValueError(f"checkpoint {path}: parameter {name!r} data is not a JSON list of numbers")
        bad = next((i for i, x in enumerate(data) if type(x) not in (float, int)), None)
        if bad is not None:
            raise ValueError(
                f"checkpoint {path}: parameter {name!r} holds {data[bad]!r} at flat index {bad}, not a JSON number"
            )
        values = np.asarray(data, dtype=float)
        if values.size != size:
            raise ValueError(f"checkpoint {path}: parameter {name!r} has {values.size} values; {shape} needs {size}")
    else:
        try:
            raw = base64.b64decode(entry["data"], validate=True)
        except (TypeError, ValueError) as exc:  # binascii.Error is a ValueError
            raise ValueError(f"checkpoint {path}: parameter {name!r} data is not valid base64 ({exc})") from None
        if len(raw) != 8 * size:
            raise ValueError(
                f"checkpoint {path}: parameter {name!r} decodes to {len(raw)} bytes; {shape} needs {8 * size}"
            )
        values = np.frombuffer(raw, "<f8")
    bad = np.flatnonzero(~np.isfinite(values))
    if bad.size:
        raise ValueError(f"checkpoint {path}: parameter {name!r} holds {values[bad[0]]} at flat index {bad[0]}")
    out[...] = values.reshape(shape)


def load_checkpoint(path) -> ModelParams:
    """Read a version-2 (or version-1) checkpoint, checking every parameter's
    name, shape, byte count and finiteness against what its config defines."""
    doc = json.loads(Path(path).read_text(encoding="utf-8"))
    if doc.get("format") != CHECKPOINT_FORMAT:
        raise ValueError(f"not a {CHECKPOINT_FORMAT} file: {path}")
    version = doc.get("version")
    if version not in (1, CHECKPOINT_VERSION):
        raise ValueError(
            f"unsupported checkpoint version {version!r} in {path}; this reader takes 1 and {CHECKPOINT_VERSION}"
        )
    cfg = _config_from_dict(doc["config"])
    stored = doc["params"]
    mp = ModelParams(config=cfg, flat=np.zeros(param_count(cfg)))
    for k, view in mp.params.items():
        if k not in stored:
            raise ValueError(f"checkpoint {path} lacks parameter {k!r} that its config needs")
        _read_stored_values(path, k, stored[k], version, view)
    extra = [k for k in stored if k not in mp.params]
    if extra:
        raise ValueError(f"checkpoint {path} has parameter {extra[0]!r} that its config does not define")
    norm = doc["norm"]
    for name in ("gt_min", "gt_max", "snr_bounds"):
        if norm[name] is not None and not np.isfinite(np.asarray(norm[name], dtype=float)).all():
            raise ValueError(f"checkpoint {path}: norm field {name!r} holds a non-finite value {norm[name]}")
    mp.gt_min = None if norm["gt_min"] is None else np.asarray(norm["gt_min"], dtype=float)
    mp.gt_max = None if norm["gt_max"] is None else np.asarray(norm["gt_max"], dtype=float)
    mp.snr_bounds = None if norm["snr_bounds"] is None else tuple(norm["snr_bounds"])
    return mp
