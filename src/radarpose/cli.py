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
import sys
from dataclasses import fields
from pathlib import Path

from .gradcheck import DEFAULT_RTOL, run_gradient_checks
from .harness import (
    AblationConfig,
    MetricsReport,
    fit,
    joints_path,
    load_file,
    meta_path,
    preprocess,
    read_meta,
    report_to_csv,
    run_ablation,
    score,
    simulate,
)
from .model import VARIANTS, Hyper, ModelConfig, load_checkpoint
from .pointcloud import DEFAULT_POSES
from .records import read_jsonl


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


#: the flags whose config field has another name; every other flag sets the field it names
FLAG_FIELDS = {"frames": "n_train", "test_frames": "n_test", "duration": "duration_s"}

#: the type of each field flag whose default's type cannot parse it
FLAG_TYPES = {"actions": _comma_list, "subjects": _comma_ints, "keep_files": _to_bool, "stop_loss": float}


# ---------------------------------------------------------------------------
# the pipeline subcommands: each runs one harness step on its parsed flags
# ---------------------------------------------------------------------------

def _config(cls, args):
    """A ``cls`` whose fields take the values of the flags that name them (through ``FLAG_FIELDS``)."""
    values = {FLAG_FIELDS.get(dest, dest): value for dest, value in vars(args).items()}
    return cls(**{f.name: values[f.name] for f in fields(cls) if f.name in values})


def cmd_simulate(args) -> int:
    cfg = _config(AblationConfig, args)
    records = simulate(cfg, cfg.seed, cfg.n_train, args.out, args.radars)
    print(f"wrote {len(records)} records ({args.frames} frames x {args.radars} radars) to {args.out}")
    return 0


def cmd_preprocess(args) -> int:
    records = read_jsonl(args.input)
    bounds = read_meta(args.snr_meta)[0] if args.snr_meta else None
    fused, (lo, hi) = preprocess(records, args.radars, _config(AblationConfig, args), bounds, args.out)
    print(f"wrote {len(fused)} fused frames to {args.out} (snr affine [{lo:.3f}, {hi:.3f}], meta {meta_path(args.out)})")
    return 0


def cmd_train(args) -> int:
    examples, _, n_max, snr_bounds = load_file(args.data, args.n_max)
    cfg = ModelConfig(variant=args.variant, n_max=n_max, seed=args.seed)
    _, history = fit(cfg, examples, _config(Hyper, args), snr_bounds, args.checkpoint, args.loss_svg)
    last = history[-1]
    print(
        f"trained {args.variant} on {len(examples)} frames for {len(history)} epochs: "
        f"train_loss={last['train_loss']:.6f} val_loss={last['val_loss']:.6f} -> {args.checkpoint}"
    )
    return 0


def cmd_eval(args) -> int:
    params = load_checkpoint(args.checkpoint)
    examples, gts, _, test_bounds = load_file(args.test, params.config.n_max)
    if test_bounds is not None and params.snr_bounds is not None:
        if tuple(params.snr_bounds) != test_bounds:
            raise ValueError(
                f"{args.test} was SNR-normalized with (snr_min, snr_max) = {test_bounds}, but "
                f"{args.checkpoint} was trained with {tuple(params.snr_bounds)}; preprocess the test "
                "data with --snr-meta pointing at the training data's .meta.json"
            )
    row = score(params, examples, gts, params.config.variant)
    included = params.config.included_joints
    text = report_to_csv(MetricsReport(rows=[row]), args.report, included)
    print(text, end="")
    if args.report:
        print(f"wrote {args.report} and {joints_path(args.report)}")
    return 0


def cmd_ablate(args) -> int:
    report = run_ablation(_config(AblationConfig, args))
    text = report_to_csv(report, args.out_csv)
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

    def fields_of(p, cls, *dests):
        """A flag per dest that sets the ``cls`` field it names (through ``FLAG_FIELDS``), with that field's default."""
        for dest in dests:
            default = getattr(cls, FLAG_FIELDS.get(dest, dest))
            p.add_argument(f"--{dest.replace('_', '-')}", type=FLAG_TYPES.get(dest, type(default)), default=default)

    def add(name, func, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="key = value config file; flags override it")
        p.set_defaults(func=func)
        return p

    p = add("simulate", cmd_simulate, "generate a synthetic radar dataset (JSONL)")
    fields_of(p, AblationConfig, "actions", "fps", "duration", "walk_speed", "subjects", "seed", "noise_std",
              "threshold_db", "density")
    p.add_argument("--frames", type=int, default=200)
    p.add_argument("--radars", type=int, choices=range(1, len(DEFAULT_POSES) + 1), default=len(DEFAULT_POSES))
    p.add_argument("--out", default="dataset.jsonl")

    p = add("preprocess", cmd_preprocess, "fuse, denoise, and SNR-normalize a raw dataset")
    p.add_argument("--in", dest="input", default="dataset.jsonl")
    p.add_argument("--out", default="fused.jsonl")
    fields_of(p, AblationConfig, "eps", "min_pts", "window_ms", "n_max")
    p.add_argument("--radars", type=_comma_ints, default=(0, 1))
    p.add_argument("--snr-meta")

    p = add("train", cmd_train, "train one model variant on a fused dataset")
    p.add_argument("--data", default="fused.jsonl")
    p.add_argument("--variant", choices=VARIANTS, default=ModelConfig.variant)
    fields_of(p, Hyper, "lr", "batch", "epochs", "seed", "val_fraction", "stop_loss")
    p.add_argument("--n-max", type=int, help=f"default: the n_max of the data's .meta.json, else {ModelConfig.n_max}")
    p.add_argument("--checkpoint", default="checkpoint.json")
    p.add_argument("--loss-svg")

    p = add("eval", cmd_eval, "evaluate a checkpoint on a fused test set")
    p.add_argument("--checkpoint", default="checkpoint.json")
    p.add_argument("--test", default="fused_test.jsonl")
    p.add_argument("--report")

    p = add("ablate", cmd_ablate, "run the four-configuration comparison")
    p.add_argument("--out-csv", default="ablation.csv")
    fields_of(p, AblationConfig, "workdir", "frames", "test_frames", "seed", "epochs", "lr", "batch", "train_seed",
              "n_max", "eps", "min_pts", "window_ms", "noise_std", "threshold_db", "fps", "duration", "keep_files")

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
