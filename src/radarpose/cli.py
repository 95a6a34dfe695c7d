"""Command-line workbench.

Subcommands: simulate, preprocess, train, eval, ablate, gradcheck. Every
flag can also be supplied through a ``key = value`` config file passed with
--config; the key is the flag's destination (``noise_std`` or ``noise-std``
for --noise-std, ``input`` for --in). Each entry is parsed as that flag, with
the same type conversion and choices check; explicit flags win over the
file, the file wins over built-in defaults.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .gradcheck import DEFAULT_RTOL, run_gradient_checks
from .harness import (
    AblationConfig,
    JointSets,
    evaluate,
    frames_from_records,
    loss_curve_svg,
    per_joint_csv,
    report_to_csv,
    MetricsReport,
    run_ablation,
)
from .model import (
    VARIANTS,
    Hyper,
    ModelConfig,
    examples_from_frames,
    load_checkpoint,
    predict_batch,
    save_checkpoint,
    train as train_model,
)
from .physics import ChirpConfig
from .pointcloud import DEFAULT_POSES, fuse_records, normalize_snr
from .records import read_jsonl, write_jsonl
from .scene import MotionConfig, generate_dataset


def parse_config_file(path) -> dict:
    """Read a ``key = value`` text file; '#' starts a comment."""
    values = {}
    for lineno, raw in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, value = line.split("=", 1)
        values[key.strip().replace("-", "_")] = value.strip()
    return values


def _to_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


def _comma_list(text: str) -> tuple:
    return tuple(s.strip() for s in text.split(",") if s.strip())


def _comma_ints(text: str) -> tuple:
    return tuple(int(s) for s in text.split(",") if s.strip())


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

def cmd_simulate(args) -> int:
    motion = MotionConfig(fps=args.fps, duration_s=args.duration, walk_speed=args.walk_speed, seed=args.seed)
    records = generate_dataset(
        args.actions,
        motion,
        radar_poses=DEFAULT_POSES[: args.radars],
        chirp_cfg=ChirpConfig(noise_std=args.noise_std),
        out_path=args.out,
        n_frames=args.frames,
        subjects=args.subjects,
        density=args.density,
        threshold_db=args.threshold_db,
    )
    print(f"wrote {len(records)} records ({args.frames} frames x {args.radars} radars) to {args.out}")
    return 0


# ---------------------------------------------------------------------------
# preprocess
# ---------------------------------------------------------------------------

def cmd_preprocess(args) -> int:
    records = read_jsonl(args.input)
    bounds = None
    if args.snr_meta:
        meta = json.loads(Path(args.snr_meta).read_text(encoding="utf-8"))
        bounds = _snr_bounds(meta, args.snr_meta, required=True)
    fused = fuse_records(
        records,
        radar_ids=args.radars,
        window_ms=args.window_ms,
        eps=args.eps,
        min_pts=args.min_pts,
    )
    fused, (lo, hi) = normalize_snr(fused, bounds)
    write_jsonl(args.out, fused)
    meta = {
        "snr_min": lo,
        "snr_max": hi,
        "eps": args.eps,
        "min_pts": args.min_pts,
        "window_ms": args.window_ms,
        "n_max": args.n_max,
        "radar_ids": list(args.radars),
    }
    meta_path = _meta_path(args.out)
    meta_path.write_text(json.dumps(meta), encoding="utf-8")
    print(f"wrote {len(fused)} fused frames to {args.out} (snr affine [{lo:.3f}, {hi:.3f}], meta {meta_path})")
    return 0


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------

def _meta_path(path) -> Path:
    """Where ``preprocess`` writes the meta file of the data at ``path``."""
    return Path(str(path) + ".meta.json")


def _read_meta(path) -> dict:
    """The ``<path>.meta.json`` that ``preprocess`` wrote next to ``path``, or {}."""
    meta_path = _meta_path(path)
    return json.loads(meta_path.read_text(encoding="utf-8")) if meta_path.exists() else {}


def _snr_bounds(meta: dict, meta_path, required: bool = False):
    """``(snr_min, snr_max)`` from a preprocess meta file.

    None when the file holds neither field and ``required`` is false; a
    ``ValueError`` naming the file and the field when one is missing.
    """
    missing = [k for k in ("snr_min", "snr_max") if k not in meta]
    if len(missing) == 2 and not required:
        return None
    if missing:
        raise ValueError(f"{meta_path} has no {missing[0]!r} field; SNR bounds need both snr_min and snr_max")
    return (meta["snr_min"], meta["snr_max"])


def _load_examples(path, n_max):
    meta = _read_meta(path)
    bounds = _snr_bounds(meta, _meta_path(path))
    records = read_jsonl(path)
    if n_max is None:
        n_max = meta.get("n_max", ModelConfig.n_max)
    examples = examples_from_frames(frames_from_records(records), n_max)
    return examples, n_max, bounds


def cmd_train(args) -> int:
    examples, n_max, snr_bounds = _load_examples(args.data, args.n_max)
    cfg = ModelConfig(variant=args.variant, n_max=n_max, seed=args.seed)
    hyper = Hyper(
        lr=args.lr,
        batch=args.batch,
        epochs=args.epochs,
        seed=args.seed,
        val_fraction=args.val_fraction,
        stop_loss=args.stop_loss,
    )
    params, history = train_model(cfg, examples, hyper)
    params.snr_bounds = snr_bounds
    save_checkpoint(params, args.checkpoint)
    if args.loss_svg:
        loss_curve_svg(history, args.loss_svg)
    last = history[-1]
    print(
        f"trained {args.variant} on {len(examples)} frames for {len(history)} epochs: "
        f"train_loss={last['train_loss']:.6f} val_loss={last['val_loss']:.6f} -> {args.checkpoint}"
    )
    return 0


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------

def cmd_eval(args) -> int:
    params = load_checkpoint(args.checkpoint)
    test_bounds = _snr_bounds(_read_meta(args.test), _meta_path(args.test))
    if test_bounds is not None and params.snr_bounds is not None:
        if tuple(params.snr_bounds) != test_bounds:
            raise ValueError(
                f"{args.test} was SNR-normalized with (snr_min, snr_max) = {test_bounds}, but "
                f"{args.checkpoint} was trained with {tuple(params.snr_bounds)}; preprocess the test "
                "data with --snr-meta pointing at the training data's .meta.json"
            )
    records = read_jsonl(args.test)
    frames = frames_from_records(records)
    examples = examples_from_frames(frames, params.config.n_max)
    preds = predict_batch(params, examples)
    joint_sets = JointSets(included=params.config.included_joints)
    row = evaluate(preds, [f.gt for f in frames], joint_sets, name=params.config.variant)
    text = report_to_csv(MetricsReport(rows=[row]), args.report, joint_sets)
    print(text, end="")
    if args.report:
        joints_path = Path(args.report).with_suffix(".joints.csv")
        per_joint_csv([row], joints_path)
        print(f"wrote {args.report} and {joints_path}")
    return 0


# ---------------------------------------------------------------------------
# ablate
# ---------------------------------------------------------------------------

def cmd_ablate(args) -> int:
    cfg = AblationConfig(
        workdir=args.workdir,
        n_train=args.frames,
        n_test=args.test_frames,
        seed=args.seed,
        fps=args.fps,
        duration_s=args.duration,
        eps=args.eps,
        min_pts=args.min_pts,
        window_ms=args.window_ms,
        noise_std=args.noise_std,
        threshold_db=args.threshold_db,
        n_max=args.n_max,
        lr=args.lr,
        batch=args.batch,
        epochs=args.epochs,
        train_seed=args.train_seed,
        keep_files=args.keep_files,
    )
    report = run_ablation(cfg)
    text = report_to_csv(report, args.out_csv)
    per_joint_csv(report.rows, Path(args.out_csv).with_suffix(".joints.csv"))
    print(text, end="")
    if report.baseline is not None:
        print(f"mean-pose baseline MAE: {report.baseline.mae_all_cm:.4f} cm")
    for name, digest in report.split_digests.items():
        print(f"split digest {digest}  {name}")
    print(f"wrote {args.out_csv}")
    return 0


# ---------------------------------------------------------------------------
# gradcheck
# ---------------------------------------------------------------------------

def cmd_gradcheck(args) -> int:
    seeds = tuple(args.seed + i for i in range(3))
    results = run_gradient_checks(seeds=seeds, rtol=args.tolerance)
    for res in results:
        print(res)
    failed = [r for r in results if not r.passed]
    print(f"{len(results) - len(failed)}/{len(results)} gradient checks passed")
    return 1 if failed else 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="radarpose",
        description="Dual-radar point-cloud skeleton regression workbench",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="key = value config file; flags override it")
        p.set_defaults(func=func)
        return p

    p = add("simulate", cmd_simulate, "generate a synthetic radar dataset (JSONL)")
    p.add_argument("--actions", type=_comma_list, default=AblationConfig.actions)
    p.add_argument("--frames", type=int, default=200)
    p.add_argument("--fps", type=float, default=AblationConfig.fps)
    p.add_argument("--duration", type=float, default=AblationConfig.duration_s)
    p.add_argument("--walk-speed", type=float, default=AblationConfig.walk_speed)
    p.add_argument("--radars", type=int, choices=(1, 2), default=2)
    p.add_argument("--subjects", type=_comma_ints, default=AblationConfig.subjects)
    p.add_argument("--seed", type=int, default=AblationConfig.seed)
    p.add_argument("--noise-std", type=float, default=AblationConfig.noise_std)
    p.add_argument("--threshold-db", type=float, default=AblationConfig.threshold_db)
    p.add_argument("--density", type=int, default=AblationConfig.density)
    p.add_argument("--out", default="dataset.jsonl")

    p = add("preprocess", cmd_preprocess, "fuse, denoise, and SNR-normalize a raw dataset")
    p.add_argument("--in", dest="input", default="dataset.jsonl")
    p.add_argument("--out", default="fused.jsonl")
    p.add_argument("--eps", type=float, default=AblationConfig.eps)
    p.add_argument("--min-pts", type=int, default=AblationConfig.min_pts)
    p.add_argument("--window-ms", type=float, default=AblationConfig.window_ms)
    p.add_argument("--n-max", type=int, default=AblationConfig.n_max)
    p.add_argument("--radars", type=_comma_ints, default=(0, 1))
    p.add_argument("--snr-meta")

    p = add("train", cmd_train, "train one model variant on a fused dataset")
    p.add_argument("--data", default="fused.jsonl")
    p.add_argument("--variant", choices=VARIANTS, default=ModelConfig.variant)
    p.add_argument("--lr", type=float, default=Hyper.lr)
    p.add_argument("--batch", type=int, default=Hyper.batch)
    p.add_argument("--epochs", type=int, default=Hyper.epochs)
    p.add_argument("--seed", type=int, default=Hyper.seed)
    p.add_argument("--val-fraction", type=float, default=Hyper.val_fraction)
    p.add_argument("--stop-loss", type=float, default=Hyper.stop_loss)
    p.add_argument("--n-max", type=int, help=f"default: the n_max of the data's .meta.json, else {ModelConfig.n_max}")
    p.add_argument("--checkpoint", default="checkpoint.json")
    p.add_argument("--loss-svg")

    p = add("eval", cmd_eval, "evaluate a checkpoint on a fused test set")
    p.add_argument("--checkpoint", default="checkpoint.json")
    p.add_argument("--test", default="fused_test.jsonl")
    p.add_argument("--report")

    p = add("ablate", cmd_ablate, "run the four-configuration comparison")
    p.add_argument("--out-csv", default="ablation.csv")
    p.add_argument("--workdir", default=AblationConfig.workdir)
    p.add_argument("--frames", type=int, default=AblationConfig.n_train)
    p.add_argument("--test-frames", type=int, default=AblationConfig.n_test)
    p.add_argument("--seed", type=int, default=AblationConfig.seed)
    p.add_argument("--epochs", type=int, default=AblationConfig.epochs)
    p.add_argument("--lr", type=float, default=AblationConfig.lr)
    p.add_argument("--batch", type=int, default=AblationConfig.batch)
    p.add_argument("--train-seed", type=int, default=AblationConfig.train_seed)
    p.add_argument("--n-max", type=int, default=AblationConfig.n_max)
    p.add_argument("--eps", type=float, default=AblationConfig.eps)
    p.add_argument("--min-pts", type=int, default=AblationConfig.min_pts)
    p.add_argument("--window-ms", type=float, default=AblationConfig.window_ms)
    p.add_argument("--noise-std", type=float, default=AblationConfig.noise_std)
    p.add_argument("--threshold-db", type=float, default=AblationConfig.threshold_db)
    p.add_argument("--fps", type=float, default=AblationConfig.fps)
    p.add_argument("--duration", type=float, default=AblationConfig.duration_s)
    p.add_argument("--keep-files", type=_to_bool, default=AblationConfig.keep_files)

    p = add("gradcheck", cmd_gradcheck, "finite-difference check of all gradients")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tolerance", type=float, default=DEFAULT_RTOL)

    return parser


def _config_tokens(parser: argparse.ArgumentParser, command: str, path) -> list[str]:
    """The config file's entries as ``--flag=value`` tokens for ``command``."""
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    flags = {
        a.dest: a.option_strings[0]
        for a in sub.choices[command]._actions
        if a.option_strings and a.dest not in ("help", "config")
    }
    config = parse_config_file(path)
    unknown = set(config) - set(flags)
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    return [f"{flags[key]}={value}" for key, value in config.items()]


def main(argv=None) -> int:
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    args = parser.parse_args(argv)
    if args.config:
        # config entries go first, so an explicit flag (parsed later) wins
        args = parser.parse_args([args.command, *_config_tokens(parser, args.command, args.config), *argv[1:]])
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
