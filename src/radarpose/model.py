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
the views, and Adam updates it in place together with two flat moment
vectors. There is no flat gradient vector: Adam reads each parameter's
gradient where :func:`backward` left it.

``dual_cnn`` runs each branch's conv/pool stack on a cropped image: past the
batch's last non-zero row the image rows are zero, so the stack's output rows
that read only those rows, and no padding, are equal bit for bit. The stack
keeps one of them and a repeat node copies it over the rest
(:func:`_image_cut`). The forward stays bitwise the padded image's; the
backward sums the cut rows' gradients into the kept one, which reorders the
conv weight and bias gradient sums (and the TNet product's, over fewer zero
rows) within 1e-15 of each parameter's largest gradient. Adam folds its two
bias corrections into one step size and one epsilon per step
(:func:`_adam_step`): the moments stay bitwise, the parameters move by
rounding only, within 7.4e-14*lr per step of the per-array form.

Inference (:func:`forward`, :func:`predict_batch`) runs the training graph
inside ``autodiff.no_tape``, so it builds no tape and frees each layer's
output once the next layer has read it; its outputs are bitwise the taped
graph's. In :func:`backward` the sweep releases each interior node's
gradient once its backward has run; only the parameters and inputs keep
theirs.
"""

from __future__ import annotations

import base64
import json
import math
from collections.abc import Mapping
from dataclasses import asdict, dataclass, field
from functools import partial
from pathlib import Path
from types import MappingProxyType

import numpy as np

from .autodiff import Tensor, amax, concat, conv2d, dense, gather_rows, maxpool2d, mse, no_tape, repeat_rows
from .physics import require_count
from .pointcloud import FusedFrame, build_cloud, build_views
from .scene import DEFAULT_EXCLUDED_JOINTS, JOINT_INDEX, JOINT_NAMES, N_JOINTS

VARIANTS = ("dual_cnn", "dual_mlp", "single_pointnet")


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
        if not self.included_joints:
            raise ValueError("need between 1 and 32 included joints")
        store = partial(object.__setattr__, self)
        store("n_max", require_count("n_max", self.n_max, 1))
        if self.n_max < 2:
            raise ValueError("n_max must be >= 2")
        store("seed", require_count("seed", self.seed, 0))
        for field in ("row_mlp_spec", "pointnet_mlp_spec"):
            if not getattr(self, field):
                raise ValueError(f"{field} needs at least one layer")
        widths = ("row_mlp_spec", "pointnet_mlp_spec", "pointnet_head_spec", "mlp_head_spec", "tnet_row_spec",
                  "tnet_head_spec")
        for field in widths:
            store(field, tuple(require_count(f"{field}[{i}]", w, 1) for i, w in enumerate(getattr(self, field))))
        stages = []
        for i, stage in enumerate(self.conv_spec):
            if not isinstance(stage, tuple) or len(stage) != 3:
                raise ValueError(f"conv_spec[{i}] must be (channels, kernel, pool), got {stage!r}")
            stages.append(tuple(require_count(f"conv_spec[{i}] {part}", value, 1)
                                for part, value in zip(("channels", "kernel", "pool"), stage)))
            if stage[1] % 2 == 0:
                raise ValueError(f"conv_spec[{i}] kernel must be odd, got {stage[1]}")
        store("conv_spec", tuple(stages))
        # floor division never brings a 0 back, so a stage that reaches 0 leaves a 0 product
        if self.variant == "dual_cnn" and _conv_flat_size(self) == 0:
            raise ValueError("conv/pool stack shrinks the view below 1x1")

    @property
    def included_joints(self) -> tuple:
        return tuple(n for n in JOINT_NAMES if n not in self.excluded_joints)

    @property
    def n_joints_out(self) -> int:
        return len(self.included_joints)

    @property
    def output_width(self) -> int:
        return 3 * self.n_joints_out

    @property
    def tnet_dim(self) -> int:
        return 3 if self.variant == "single_pointnet" else 4

    @property
    def branches(self) -> tuple:
        """The input branches, each a (B, n_max, tnet_dim) array of rows."""
        return ("cloud",) if self.variant == "single_pointnet" else ("xy", "yz")

    @property
    def head_spec(self) -> tuple:
        return self.pointnet_head_spec if self.variant == "single_pointnet" else self.mlp_head_spec


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


def _row_layers(cfg: ModelConfig, br: str) -> list:
    """(name, width) of each layer of branch ``br``'s shared row MLP; dual_cnn has a conv stack instead."""
    stem, spec = {"dual_cnn": ("", ()), "dual_mlp": ("row", cfg.row_mlp_spec),
                  "single_pointnet": ("mlp", cfg.pointnet_mlp_spec)}[cfg.variant]
    return [(f"{br}.{stem}{i}", w) for i, w in enumerate(spec)]


def param_layout(cfg: ModelConfig) -> dict:
    """Name -> (shape, init) of every parameter, in the order they are drawn.

    ``init`` is a fan-in (a He-normal draw with std sqrt(2 / fan_in)),
    ``"zeros"`` or ``"identity"`` (a flattened identity matrix).
    """
    layout: dict = {}
    feat = 0
    for br in cfg.branches:
        _tnet_layout(cfg, layout, f"{br}.tnet")
        if cfg.variant == "dual_cnn":
            c_in = 1
            for i, (channels, kernel, _pool) in enumerate(cfg.conv_spec):
                layout[f"{br}.conv{i}.w"] = ((channels, c_in, kernel, kernel), c_in * kernel * kernel)
                layout[f"{br}.conv{i}.b"] = ((channels,), "zeros")
                c_in = channels
            feat += _conv_flat_size(cfg)
        else:
            width = cfg.tnet_dim
            for name, w in _row_layers(cfg, br):
                _dense_layout(layout, name, width, w)
                width = w
            feat += width
    width = feat
    for i, w in enumerate(cfg.head_spec):
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


def _image_cut(cfg: ModelConfig, view: np.ndarray) -> tuple[int, np.ndarray]:
    """The rows of a (B, n_max, 4) batch of views that the conv stack runs on,
    and how often each row of its output stands in the full output.

    With P the product of the pools, output row j of the stack reads image
    rows j*P - r to (j+1)*P - 1 + r, r the stack's reach. Rows past the
    batch's last non-zero row are zero, so every output row whose reach lies
    there and meets neither edge's padding at any stage computes bitwise the
    same values. Of that run of rows the stack keeps the first: the image is
    cropped above the next block of P rows and joined to the bottom blocks from
    the run's last one on. Those blocks hold zero rows too, so the crop is the
    view's first ``height`` rows, and ``counts`` repeats the kept row's output
    over the cut run. It is 1 everywhere when nothing is cut.

    A batch whose crop holds fewer rows than one uncut view is not cut: its
    products could fall below the size at which the BLAS switches to another
    kernel (OpenBLAS's small-matrix kernel rounds differently), and its
    forward would no longer be bitwise the uncut one.
    """
    n = cfg.n_max
    scale, reach = 1, 0
    for _channels, kernel, pool in cfg.conv_spec:
        reach += kernel // 2 * scale
        scale *= pool
    used = np.flatnonzero(view.any(axis=(0, 2)))  # -0.0 counts as zero
    m = int(used[-1]) + 1 if used.size else 0
    first = -(-(m + reach) // scale)  # the first block that reads only zero rows
    # blocks from (n - reach) // scale on read the image's bottom padding. A
    # later stage's input drops the image's last n % s rows (s its row scale),
    # but every reach below it is a multiple of s: its padding comes no sooner
    cut = max((n - reach) // scale - 1 - first, 0)
    if len(view) * (n - cut * scale) < n:
        cut = 0
    counts = np.ones(n // scale - cut, dtype=np.intp)
    counts[first : first + 1] += cut
    return n - cut * scale, counts


def _tnet_graph(view: Tensor, rows: np.ndarray, starts: np.ndarray, pt: dict, cfg: ModelConfig, prefix: str):
    """(B, N, D) view and its kept rows -> the (B, D, D) transforms."""
    dim = cfg.tnet_dim
    h = Tensor(view.data.reshape(-1, dim)[rows])
    for i in range(len(cfg.tnet_row_spec)):
        h = dense(h, pt[f"{prefix}.row{i}.w"], pt[f"{prefix}.row{i}.b"], relu=True)
    pooled = amax(h, starts)
    for i in range(len(cfg.tnet_head_spec)):
        pooled = dense(pooled, pt[f"{prefix}.head{i}.w"], pt[f"{prefix}.head{i}.b"], relu=True)
    tvals = dense(pooled, pt[f"{prefix}.out.w"], pt[f"{prefix}.out.b"], relu=False)
    return tvals.reshape((-1, dim, dim))


def _branch_graph(view: Tensor, pt: dict, cfg: ModelConfig, br: str) -> Tensor:
    """One branch's features (B, C): the TNet, then the conv stack on the view as
    an image (dual_cnn), or the shared row MLP on the kept rows and each example's max."""
    rows, starts = _kept_rows(view.data)
    transform = _tnet_graph(view, rows, starts, pt, cfg, f"{br}.tnet")
    if cfg.variant == "dual_cnn":
        batch = view.shape[0]
        height, counts = _image_cut(cfg, view.data)
        img = (Tensor(view.data[:, :height]) @ transform).reshape((batch, 1, height, 4))
        for i, (_channels, _kernel, pool) in enumerate(cfg.conv_spec):
            img = conv2d(img, pt[f"{br}.conv{i}.w"], pt[f"{br}.conv{i}.b"]).relu()
            img = maxpool2d(img, pool)
        return repeat_rows(img, counts).reshape((batch, _conv_flat_size(cfg)))
    h = gather_rows(view @ transform, rows)
    for name, _width in _row_layers(cfg, br):
        h = dense(h, pt[f"{name}.w"], pt[f"{name}.b"], relu=True)
    return amax(h, starts)


def _forward_graph(cfg: ModelConfig, pt: dict, inputs: dict) -> Tensor:
    feats = [_branch_graph(inputs[br], pt, cfg, br) for br in cfg.branches]
    h = feats[0] if len(feats) == 1 else concat(feats, axis=1)
    for i in range(len(cfg.head_spec)):
        h = dense(h, pt[f"head.fc{i}.w"], pt[f"head.fc{i}.b"], relu=True)
    return dense(h, pt["head.out.w"], pt["head.out.b"], relu=False)


def _wrap_params(params: dict) -> dict:
    return {k: Tensor(v) for k, v in params.items()}


def _prepare_inputs(cfg: ModelConfig, inputs: Mapping) -> dict:
    """Check a packed batch (:meth:`ExampleSet.inputs_for`) and wrap it as the graph's inputs."""
    if not isinstance(inputs, Mapping) or set(inputs) != set(cfg.branches):
        got = tuple(inputs) if isinstance(inputs, Mapping) else f"a {type(inputs).__name__}"
        raise ValueError(f"{cfg.variant} takes a mapping of the branches {cfg.branches} to rows, got {got}")
    tensors = {}
    for br in cfg.branches:
        rows = np.asarray(inputs[br], dtype=float)
        if rows.shape[1:] != (cfg.n_max, cfg.tnet_dim):
            raise ValueError(f"{br} must be (B, {cfg.n_max}, {cfg.tnet_dim}), got {rows.shape}")
        tensors[br] = Tensor(rows)
    return tensors


# ---------------------------------------------------------------------------
# public operations
# ---------------------------------------------------------------------------

def forward(params: ModelParams, inputs: Mapping) -> np.ndarray:
    """Predict (B, 3J) normalized joint coordinates of a packed batch.

    The network is ``params.config``'s. ``inputs`` is
    :meth:`ExampleSet.inputs_for`'s form: a mapping of each of the config's
    ``branches`` to its (B, n_max, tnet_dim) rows; a missing or extra branch
    or any other shape raises ``ValueError``. So does an input row that holds
    a NaN or inf, named by example, branch and row: the ReLUs would otherwise
    map it to a finite prediction.
    """
    cfg = params.config
    tensors = _prepare_inputs(cfg, inputs)
    for br, t in tensors.items():
        bad = np.argwhere(~np.isfinite(t.data).all(axis=-1))
        if len(bad):
            raise ValueError(f"non-finite input: example {bad[0][0]}, {br} row {bad[0][1]}")
    with no_tape():
        return _forward_graph(cfg, _wrap_params(params.params), tensors).data


def backward(params: ModelParams, inputs: Mapping, gt: np.ndarray):
    """Loss and exact gradients of the MSE w.r.t. every parameter.

    ``inputs`` is a packed batch as for :func:`forward`; ``gt`` lives in the
    normalized output space, shaped like the output.
    """
    cfg = params.config
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
        self.batch = require_count("batch", self.batch, 1)
        self.epochs = require_count("epochs", self.epochs, 1)
        self.seed = require_count("seed", self.seed, 0)
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

    Row ``i`` of every array is frame ``frame_ids[i]``; the views are packed
    by :func:`build_views`, and the motion labels stay on the frames' ground
    truth.
    """

    view_xy: np.ndarray  # (F, n_max, 4)
    view_yz: np.ndarray  # (F, n_max, 4)
    gt: np.ndarray  # (F, 32, 3) world metres
    frame_ids: list

    def __len__(self):
        return len(self.gt)

    def inputs_for(self, cfg: ModelConfig, idx=None) -> dict:
        """The model input of frames ``idx`` (all when None): each of
        ``cfg.branches`` mapped to its rows, the views themselves or the xyz
        cloud :func:`build_cloud` reads from them."""
        sel = slice(None) if idx is None else idx
        xy, yz = self.view_xy[sel], self.view_yz[sel]
        rows = {"xy": lambda: xy, "yz": lambda: yz, "cloud": lambda: build_cloud(xy, yz)}
        return {br: rows[br]() for br in cfg.branches}


def examples_from_frames(frames: list[FusedFrame], n_max: int) -> ExampleSet:
    """Pack fused frames (normalized SNR) into stacked model inputs."""
    n = len(frames)
    ex = ExampleSet(
        view_xy=np.zeros((n, n_max, 4)),
        view_yz=np.zeros((n, n_max, 4)),
        gt=np.zeros((n, N_JOINTS, 3)),
        frame_ids=[fr.frame_id for fr in frames],
    )
    for i, fr in enumerate(frames):
        ex.view_xy[i], ex.view_yz[i] = build_views(fr.points, n_max)
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
#: per-core L2 cache across the update's 12 passes
ADAM_BLOCK = 32768


def _adam_step(p: np.ndarray, grads: list, state: tuple, lr: float, t: int):
    """One Adam update (Kingma & Ba, arXiv:1412.6980) of the flat vector ``p``, in place.

    ``grads`` holds each parameter's gradient as ``backward`` left it, in
    :func:`param_layout` order, so that together they cover ``p``. ``state``
    is (m, v), both moments shaped like ``p``. The bias corrections are folded
    into one step size and one epsilon per step (the paper's Sec. 2 order):

        m = b1*m + (1-b1)*g;  v = b2*v + (1-b2)*g*g
        a = lr * sqrt(1-b2**t) / (1-b1**t);  e = eps * sqrt(1-b2**t)
        p = p - a*m / (sqrt(v) + e)

    This is ``p - lr * (m/(1-b1**t)) / (sqrt(v/(1-b2**t)) + eps)`` rounded
    differently: 12 passes and one division where that form takes 14 and
    three. The moments are bitwise those of the per-array form. Given the
    same gradients, one step's parameters stay within 7.4e-14*lr of it; over
    30 overfit-shape training steps, where the gradients follow the
    parameters, within 3.2e-11*lr (all three variants). The ops run
    on one block of ``ADAM_BLOCK`` values at a time, with two block-sized
    scratch arrays. A block inside one gradient reads it in place; a block
    that spans several is first copied into a third scratch array.
    """
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    root = math.sqrt(1 - beta2**t)
    step_size, eps_t = lr * root / (1 - beta1**t), eps * root
    m, v = state
    size = p.size
    scratch, scratch2, gather = (np.empty(min(size, ADAM_BLOCK)) for _ in range(3))
    flat = [g.reshape(-1) for g in grads]
    bounds = np.cumsum([0] + [g.size for g in flat]).tolist()  # gradient i covers p[bounds[i]:bounds[i + 1]]
    if bounds[-1] != size:
        raise ValueError(f"the gradients hold {bounds[-1]} values, the parameters {size}")
    i = 0
    for start in range(0, size, ADAM_BLOCK):
        end = min(start + ADAM_BLOCK, size)
        while bounds[i + 1] <= start:
            i += 1
        if end <= bounds[i + 1]:
            gb = flat[i][start - bounds[i] : end - bounds[i]]
        else:
            gb = gather[: end - start]
            for j in range(i, len(flat)):
                lo, hi = max(start, bounds[j]), min(end, bounds[j + 1])
                if lo >= hi:
                    break
                gb[lo - start : hi - start] = flat[j][lo - bounds[j] : hi - bounds[j]]
        pb, mb, vb = p[start:end], m[start:end], v[start:end]
        work, work2 = scratch[: end - start], scratch2[: end - start]
        mb *= beta1
        np.multiply(gb, 1 - beta1, out=work)
        mb += work
        vb *= beta2
        np.multiply(gb, 1 - beta2, out=work)
        work *= gb
        vb += work
        np.sqrt(vb, out=work2)
        work2 += eps_t
        np.multiply(mb, step_size, out=work)
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
    state = (np.zeros_like(mp.flat), np.zeros_like(mp.flat))

    history = []
    step = 0
    for epoch in range(hyper.epochs):
        lr = hyper.lr * hyper.lr_decay**epoch
        shuffled = train_idx[rng.permutation(len(train_idx))]
        total, count = 0.0, 0
        for start in range(0, len(shuffled), hyper.batch):
            idx = shuffled[start : start + hyper.batch]
            loss, named = backward(mp, examples.inputs_for(cfg, idx), targets[idx])
            step += 1
            grads = [named[k] for k in mp.params]
            # a NaN input can leave the loss finite (ReLU zeroes it) yet reach
            # the gradient; either one would poison the Adam moments for good
            sq_norm = sum(float(np.vdot(g, g)) for g in grads)
            if not (math.isfinite(loss) and math.isfinite(sq_norm)):
                raise ValueError(
                    f"non-finite training step at epoch {epoch}, step {step}: "
                    f"loss {loss}, squared gradient norm {sq_norm}"
                )
            _adam_step(mp.flat, grads, state, lr, step)
            del named, grads  # else this step's gradients stay alive through the next backward
            total += loss * len(idx)
            count += len(idx)
        train_loss = total / count
        if len(val_idx):
            val_pred = forward(mp, examples.inputs_for(cfg, val_idx))
            with no_tape():
                val_loss = float(mse(val_pred, targets[val_idx]).data)
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
    out = forward(params, examples.inputs_for(cfg))
    return _denormalize(cfg, out, params.gt_min, params.gt_max)


# ---------------------------------------------------------------------------
# checkpoint container (versioned JSON; layout documented in the README)
# ---------------------------------------------------------------------------

CHECKPOINT_FORMAT = "radarpose-checkpoint"
CHECKPOINT_VERSION = 2  # the only version read; version 1 (parameters as JSON lists of numbers) is refused

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


def _read_stored_values(path, name: str, entry: dict, out: np.ndarray) -> None:
    """Decode one stored parameter into ``out``, its view of ``ModelParams.flat``."""
    shape, size = out.shape, out.size
    if tuple(entry["shape"]) != shape:
        raise ValueError(
            f"checkpoint {path}: parameter {name!r} has shape {tuple(entry['shape'])}; its config needs {shape}"
        )
    try:
        raw = base64.b64decode(entry["data"], validate=True)
    except (TypeError, ValueError) as exc:  # binascii.Error is a ValueError
        raise ValueError(f"checkpoint {path}: parameter {name!r} data is not valid base64 ({exc})") from None
    if len(raw) != 8 * size:
        raise ValueError(f"checkpoint {path}: parameter {name!r} decodes to {len(raw)} bytes; {shape} needs {8 * size}")
    values = np.frombuffer(raw, "<f8")
    bad = np.flatnonzero(~np.isfinite(values))
    if bad.size:
        raise ValueError(f"checkpoint {path}: parameter {name!r} holds {values[bad[0]]} at flat index {bad[0]}")
    out[...] = values.reshape(shape)


def load_checkpoint(path) -> ModelParams:
    """Read a version-2 checkpoint, checking every parameter's name, shape,
    byte count and finiteness against what its config defines, and the norm
    block the way :func:`target_bounds` and ``normalize_snr`` leave it. Any
    other version, version 1 included, is refused."""
    doc = json.loads(Path(path).read_text(encoding="utf-8"))
    if doc.get("format") != CHECKPOINT_FORMAT:
        raise ValueError(f"not a {CHECKPOINT_FORMAT} file: {path}")
    version = doc.get("version")
    if version != CHECKPOINT_VERSION:
        raise ValueError(
            f"unsupported checkpoint version {version!r} in {path}; this reader takes version {CHECKPOINT_VERSION} only"
        )
    cfg = _config_from_dict(doc["config"])
    stored = doc["params"]
    mp = ModelParams(config=cfg, flat=np.zeros(param_count(cfg)))
    for k, view in mp.params.items():
        if k not in stored:
            raise ValueError(f"checkpoint {path} lacks parameter {k!r} that its config needs")
        _read_stored_values(path, k, stored[k], view)
    extra = [k for k in stored if k not in mp.params]
    if extra:
        raise ValueError(f"checkpoint {path} has parameter {extra[0]!r} that its config does not define")
    norm = doc["norm"]
    for name, size in (("gt_min", 3), ("gt_max", 3), ("snr_bounds", 2)):
        v = norm[name]
        finite = isinstance(v, list) and all(type(x) in (int, float) and math.isfinite(x) for x in v)
        if v is not None and not (finite and len(v) == size):
            raise ValueError(f"checkpoint {path}: norm field {name!r} must be {size} finite numbers or null, got {v!r}")
    lo, hi, snr = norm["gt_min"], norm["gt_max"], norm["snr_bounds"]
    if lo is not None and hi is not None and not all(a < b for a, b in zip(lo, hi)):
        raise ValueError(f"checkpoint {path}: norm field 'gt_max' {hi} must exceed gt_min {lo} on every axis")
    if snr is not None and snr[0] > snr[1]:
        raise ValueError(f"checkpoint {path}: norm field 'snr_bounds' {snr} must have snr_min <= snr_max")
    mp.gt_min, mp.gt_max = (None if v is None else np.asarray(v, dtype=float) for v in (lo, hi))
    mp.snr_bounds = None if snr is None else tuple(snr)
    return mp
