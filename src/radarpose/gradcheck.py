"""Central finite-difference verification of the analytic gradients.

Every layer primitive and every full model variant (at toy size) is checked
by perturbing each parameter element by h and comparing the analytic
gradient against (f(p+h) - f(p-h)) / 2h. An element passes when

    |analytic - numeric| <= rtol * max(|analytic|, |numeric|) + atol
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import model
from .autodiff import Tensor, amax, concat, conv2d, dense, gather_rows, maxpool2d, mse
from .model import ModelConfig, init_params
from .scene import JOINT_NAMES

DEFAULT_H = 1e-4
DEFAULT_RTOL = 1e-4
DEFAULT_ATOL = 1e-6


@dataclass
class CheckResult:
    name: str
    n_elements: int
    max_abs_err: float
    max_ratio: float  # error / allowance; <= 1 passes
    passed: bool

    def __str__(self):
        status = "ok" if self.passed else "FAIL"
        return f"{status:4s} {self.name:32s} elements={self.n_elements:6d} max_err={self.max_abs_err:.3e} ratio={self.max_ratio:.3f}"


def _compare(name, analytic: dict, numeric: dict, rtol, atol) -> CheckResult:
    max_err = 0.0
    max_ratio = 0.0
    n = 0
    for key, a in analytic.items():
        b = numeric[key]
        err = np.abs(a - b)
        allow = rtol * np.maximum(np.abs(a), np.abs(b)) + atol
        max_err = max(max_err, float(err.max(initial=0.0)))
        with np.errstate(invalid="ignore"):
            ratio = err / allow
        max_ratio = max(max_ratio, float(ratio.max(initial=0.0)))
        n += a.size
    return CheckResult(name=name, n_elements=n, max_abs_err=max_err, max_ratio=max_ratio, passed=max_ratio <= 1.0)


def check_function(name, build, arrays: dict, rtol=DEFAULT_RTOL, atol=DEFAULT_ATOL, h=DEFAULT_H) -> CheckResult:
    """``build(tensors: dict) -> scalar Tensor``; checks grads w.r.t. every array."""
    tensors = {k: Tensor(v) for k, v in arrays.items()}
    loss = build(tensors)
    loss.backward()
    analytic = {k: t.grad.copy() for k, t in tensors.items()}

    def value() -> float:
        return float(build({k: Tensor(v) for k, v in arrays.items()}).data)

    numeric = {}
    for key, arr in arrays.items():
        g = np.zeros_like(arr)
        flat, gflat = arr.reshape(-1), g.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            fp = value()
            flat[i] = orig - h
            fm = value()
            flat[i] = orig
            gflat[i] = (fp - fm) / (2 * h)
        numeric[key] = g
    return _compare(name, analytic, numeric, rtol, atol)


def layer_checks(seed: int, rtol=DEFAULT_RTOL, atol=DEFAULT_ATOL) -> list[CheckResult]:
    """One finite-difference check per layer primitive."""
    rng = np.random.default_rng(seed)
    t_dense = rng.normal(size=(2, 5))
    t_conv = rng.normal(size=(2, 3, 6, 4))
    t_pool = rng.normal(size=(2, 2, 3, 2))
    t_rows = rng.normal(size=(3, 6))
    t_gather = rng.normal(size=(4, 3))
    t_bmm = rng.normal(size=(2, 5, 3))
    t_cat = rng.normal(size=(2, 10))

    cases = [
        (
            "dense_relu",
            lambda ts: mse((ts["x"] @ ts["w"] + ts["b"]).relu(), t_dense),
            {"x": rng.normal(size=(2, 4)), "w": rng.normal(size=(4, 5)), "b": rng.normal(size=(5,))},
        ),
        (
            "conv2d",
            lambda ts: mse(conv2d(ts["x"], ts["w"], ts["b"]).relu(), t_conv),
            {
                "x": rng.normal(size=(2, 2, 6, 4)),
                "w": rng.normal(size=(3, 2, 3, 3)),
                "b": rng.normal(size=(3,)),
            },
        ),
        (
            "maxpool2d",
            lambda ts: mse(maxpool2d(ts["x"], 2), t_pool),
            {"x": rng.normal(size=(2, 2, 6, 4))},
        ),
        (
            "relu",
            lambda ts: mse(ts["x"].relu(), t_dense),
            {"x": rng.normal(size=(2, 5))},
        ),
        (
            "row_max_pool",
            lambda ts: mse(amax(ts["x"], np.array([0, 1, 4])), t_rows),  # segments of 1, 3 and 3 rows
            {"x": rng.normal(size=(7, 6))},
        ),
        (
            "row_gather",
            lambda ts: mse(gather_rows(ts["x"], np.array([0, 3, 4, 8])), t_gather),
            {"x": rng.normal(size=(2, 5, 3))},
        ),
        (
            "batched_transform",
            lambda ts: mse(ts["x"] @ ts["m"], t_bmm),
            {"x": rng.normal(size=(2, 5, 3)), "m": rng.normal(size=(2, 3, 3))},
        ),
        (
            "concat_reshape",
            lambda ts: mse(concat([ts["x"].reshape((2, 6)), ts["y"]], axis=1), t_cat),
            {"x": rng.normal(size=(2, 2, 3)), "y": rng.normal(size=(2, 4))},
        ),
        (
            "mse",
            lambda ts: mse(ts["x"], ts["y"]),
            {"x": rng.normal(size=(3, 4)), "y": rng.normal(size=(3, 4))},
        ),
        (
            "dense_node_relu",
            lambda ts: mse(dense(ts["x"], ts["w"], ts["b"], relu=True), t_dense),
            {"x": rng.normal(size=(2, 4)), "w": rng.normal(size=(4, 5)), "b": rng.normal(size=(5,))},
        ),
        (
            "dense_node",
            lambda ts: mse(dense(ts["x"], ts["w"], ts["b"], relu=False), t_dense),
            {"x": rng.normal(size=(2, 4)), "w": rng.normal(size=(4, 5)), "b": rng.normal(size=(5,))},
        ),
    ]
    return [check_function(name, build, arrays, rtol, atol) for name, build, arrays in cases]


def toy_config(variant: str, seed: int) -> ModelConfig:
    """Smallest meaningful instance of a variant (n_max 8, 2-channel convs)."""
    return ModelConfig(
        variant=variant,
        n_max=8,
        excluded_joints=tuple(JOINT_NAMES[2:]),  # keep 2 joints -> 6 outputs
        conv_spec=((2, 3, 2), (2, 3, 2)),
        row_mlp_spec=(8, 16),
        pointnet_mlp_spec=(8, 8, 16),
        pointnet_head_spec=(8,),
        mlp_head_spec=(8,),
        tnet_row_spec=(4, 8),
        tnet_head_spec=(4,),
        seed=seed,
    )


def variant_inputs(cfg: ModelConfig, rng, batch: int = 3) -> dict:
    """Random inputs for each branch, zero-padded like packed frames: example i
    keeps ``(n_max, n_max // 2, 0)[i % 3]`` rows, so a batch of 3 holds a full,
    a partly padded and an all-padding example."""
    valid = np.array([(cfg.n_max, cfg.n_max // 2, 0)[i % 3] for i in range(batch)])
    padding = np.arange(cfg.n_max) >= valid[:, None]
    inputs = {}
    for br in cfg.branches:
        inputs[br] = rng.normal(size=(batch, cfg.n_max, cfg.tnet_dim))
        inputs[br][padding] = 0.0
    return inputs


def check_variant(variant: str, seed: int, rtol=DEFAULT_RTOL, atol=DEFAULT_ATOL, h=DEFAULT_H) -> CheckResult:
    """Finite-difference check of every parameter of one full variant."""
    cfg = toy_config(variant, seed)
    mp = init_params(cfg)
    # the TNet output weights start at zero; jitter them so the check
    # exercises a generic point of the loss surface
    rng = np.random.default_rng(seed + 1)
    mp.flat += 0.05 * rng.normal(size=mp.flat.size)
    inputs = model._prepare_inputs(cfg, variant_inputs(cfg, rng))
    gt = rng.uniform(0, 1, size=(3, cfg.output_width))
    return check_function(
        f"variant:{variant}",
        lambda ts: mse(model._forward_graph(cfg, ts, inputs), gt),
        mp.params,
        rtol,
        atol,
        h,
    )


def run_gradient_checks(seeds=(0, 1, 2), rtol=DEFAULT_RTOL, atol=DEFAULT_ATOL) -> list[CheckResult]:
    """The full battery: layer primitives and all variants over the seeds."""
    results = []
    for seed in seeds:
        for res in layer_checks(seed, rtol, atol):
            res.name = f"{res.name}[seed={seed}]"
            results.append(res)
        for variant in model.VARIANTS:
            res = check_variant(variant, seed, rtol, atol)
            res.name = f"{res.name}[seed={seed}]"
            results.append(res)
    return results
