import argparse
import json
import re
from types import SimpleNamespace

import pytest

from radarpose import cli, harness
from radarpose.cli import main, parse_config_file
from radarpose.model import ModelConfig, load_checkpoint
from radarpose.records import read_jsonl
from radarpose.scene import ACTIONS


def test_parse_config_file(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        """
        # comment line
        frames = 12
        noise-std = 0.4   # inline comment
        out = data.jsonl
        """
    )
    values = parse_config_file(cfg)
    assert values == {"frames": "12", "noise_std": "0.4", "out": "data.jsonl"}


def test_parse_config_rejects_garbage(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("this is not a key value line\n")
    with pytest.raises(ValueError):
        parse_config_file(cfg)


def test_simulate_cli(tmp_path):
    out = tmp_path / "sim.jsonl"
    rc = main([
        "simulate", "--actions", "walk_toward", "--frames", "4", "--fps", "5",
        "--radars", "1", "--subjects", "0", "--seed", "3", "--out", str(out),
    ])
    assert rc == 0
    records = read_jsonl(out)
    assert len(records) == 4
    assert {r["radar_id"] for r in records} == {0}


def test_config_file_feeds_flags_and_cli_overrides(tmp_path):
    cfg = tmp_path / "sim.cfg"
    out = tmp_path / "out.jsonl"
    cfg.write_text(f"frames = 2\nfps = 5\nradars = 1\nsubjects = 0\nactions = walk_away\nout = {out}\n")
    rc = main(["simulate", "--config", str(cfg), "--frames", "3"])
    assert rc == 0
    assert len(read_jsonl(out)) == 3  # CLI --frames beat the config file


def test_simulate_rejects_empty_subjects(tmp_path):
    with pytest.raises(ValueError, match="subjects"):
        main(["simulate", "--frames", "2", "--subjects", "", "--out", str(tmp_path / "sim.jsonl")])


@pytest.mark.parametrize(
    "flag, value, field",
    [
        ("--noise-std", "nan", "noise_std"),
        ("--fps", "nan", "fps"),
        ("--duration", "-1", "duration_s"),
        ("--walk-speed", "inf", "walk_speed"),
    ],
)
def test_simulate_rejects_a_nonfinite_setting_by_name(tmp_path, flag, value, field):
    out = tmp_path / "sim.jsonl"
    with pytest.raises(ValueError, match=f"^{field} must be finite"):
        main(["simulate", "--frames", "4", f"{flag}={value}", "--out", str(out)])
    assert not out.exists()


def test_unknown_config_key_fails(tmp_path):
    cfg = tmp_path / "sim.cfg"
    cfg.write_text("no_such_flag = 1\n")
    with pytest.raises(ValueError):
        main(["simulate", "--config", str(cfg)])


@pytest.fixture(scope="module")
def small_pipeline(tmp_path_factory):
    """simulate -> preprocess -> train once for the downstream CLI tests."""
    root = tmp_path_factory.mktemp("cli_pipeline")
    raw = root / "raw.jsonl"
    fused = root / "fused.jsonl"
    ckpt = root / "ckpt.json"
    assert main([
        "simulate", "--frames", "16", "--fps", "10", "--duration", "0.8",
        "--seed", "5", "--out", str(raw),
    ]) == 0
    assert main([
        "preprocess", "--in", str(raw), "--out", str(fused), "--n-max", "16",
    ]) == 0
    assert main([
        "train", "--data", str(fused), "--variant", "dual_mlp", "--epochs", "2",
        "--batch", "8", "--seed", "1", "--checkpoint", str(ckpt),
        "--loss-svg", str(root / "loss.svg"),
    ]) == 0
    return root, raw, fused, ckpt


def test_preprocess_cli_outputs(small_pipeline):
    root, raw, fused, _ = small_pipeline
    records = read_jsonl(fused)
    assert records, "fusion produced no frames"
    assert all(r.get("fused") is True for r in records)
    assert all(0.0 <= p[4] <= 1.0 for r in records for p in r["points"])
    meta = json.loads((fused.parent / (fused.name + ".meta.json")).read_text())
    assert meta["n_max"] == 16
    assert meta["snr_min"] < meta["snr_max"]


def test_preprocess_single_radar(small_pipeline, tmp_path):
    root, raw, _, _ = small_pipeline
    out = tmp_path / "fused_a.jsonl"
    assert main(["preprocess", "--in", str(raw), "--out", str(out), "--radars", "0"]) == 0
    records = read_jsonl(out)
    assert all(r["radar_id"] == 0 for r in records)


def test_preprocess_snr_meta_reuse(small_pipeline, tmp_path):
    root, raw, fused, _ = small_pipeline
    out = tmp_path / "fused2.jsonl"
    meta_path = str(fused) + ".meta.json"
    assert main([
        "preprocess", "--in", str(raw), "--out", str(out), "--snr-meta", meta_path,
    ]) == 0
    meta = json.loads((tmp_path / "fused2.jsonl.meta.json").read_text())
    orig = json.loads((fused.parent / (fused.name + ".meta.json")).read_text())
    assert (meta["snr_min"], meta["snr_max"]) == (orig["snr_min"], orig["snr_max"])


@pytest.mark.parametrize("radar_flags", [["--radars", "0"], []], ids=["one-radar", "two-radar"])
def test_preprocess_rejects_a_negative_window(small_pipeline, tmp_path, radar_flags):
    _, raw, _, _ = small_pipeline
    out = tmp_path / "f.jsonl"
    with pytest.raises(ValueError, match="window_ms"):
        main(["preprocess", "--in", str(raw), "--out", str(out), "--window-ms", "-10", *radar_flags])
    assert list(tmp_path.iterdir()) == []


def test_preprocess_rejects_reversed_snr_meta(small_pipeline, tmp_path):
    _, raw, _, _ = small_pipeline
    meta = tmp_path / "reversed.meta.json"
    meta.write_text(json.dumps({"snr_min": 40, "snr_max": 10}))
    out = tmp_path / "f.jsonl"
    with pytest.raises(ValueError, match="snr_min=40, snr_max=10"):
        main(["preprocess", "--in", str(raw), "--out", str(out), "--snr-meta", str(meta)])
    assert not out.exists()


@pytest.mark.parametrize("command", ["preprocess", "train", "eval"])
def test_a_meta_file_with_one_snr_bound_names_the_missing_field(small_pipeline, tmp_path, command):
    _, raw, fused, ckpt = small_pipeline
    data = tmp_path / "data.jsonl"
    data.write_bytes(fused.read_bytes())
    meta = json.loads((fused.parent / (fused.name + ".meta.json")).read_text())
    del meta["snr_max"]
    meta_path = tmp_path / "data.jsonl.meta.json"
    meta_path.write_text(json.dumps(meta))
    out = tmp_path / "out.json"
    argv = {
        "preprocess": ["preprocess", "--in", str(raw), "--out", str(out), "--snr-meta", str(meta_path)],
        "train": ["train", "--data", str(data), "--epochs", "1", "--checkpoint", str(out)],
        "eval": ["eval", "--checkpoint", str(ckpt), "--test", str(data), "--report", str(out)],
    }[command]
    with pytest.raises(ValueError, match=re.escape(f"{meta_path} has no 'snr_max' field")):
        main(argv)
    assert not out.exists()


def test_preprocess_snr_meta_without_bounds_is_an_error(small_pipeline, tmp_path):
    _, raw, _, _ = small_pipeline
    meta = tmp_path / "empty.meta.json"
    meta.write_text(json.dumps({"n_max": 16}))
    out = tmp_path / "f.jsonl"
    with pytest.raises(ValueError, match=re.escape(f"{meta} has no 'snr_min' field")):
        main(["preprocess", "--in", str(raw), "--out", str(out), "--snr-meta", str(meta)])
    assert not out.exists()


@pytest.mark.parametrize("flag, value, field", [
    ("--batch", "0", "batch"),
    ("--batch", "-4", "batch"),
    ("--epochs", "0", "epochs"),
    ("--epochs", "-1", "epochs"),
    ("--lr", "-1", "lr"),
    ("--lr", "nan", "lr"),
    ("--lr", "inf", "lr"),
    ("--val-fraction", "-0.5", "val_fraction"),
    ("--val-fraction", "1", "val_fraction"),
    ("--stop-loss", "nan", "stop_loss"),
])
def test_train_rejects_a_bad_hyperparameter_naming_it(small_pipeline, tmp_path, flag, value, field):
    _, _, fused, _ = small_pipeline
    out = tmp_path / "ckpt.json"
    with pytest.raises(ValueError, match=rf"^{field} must be"):
        main(["train", "--data", str(fused), "--epochs", "1", "--checkpoint", str(out), f"{flag}={value}"])
    assert not out.exists()


def test_ablate_rejects_a_bad_hyperparameter_before_simulating(tmp_path):
    work = tmp_path / "work"
    with pytest.raises(ValueError, match=r"^batch must be >= 1, got 0"):
        main(["ablate", "--batch", "0", "--frames", "16", "--test-frames", "8", "--workdir", str(work),
              "--out-csv", str(tmp_path / "a.csv")])
    assert list(tmp_path.iterdir()) == []


def test_ablate_rejects_a_bad_n_max_before_simulating(tmp_path, monkeypatch):
    def simulate_split(*args, **kwargs):
        raise AssertionError("simulated before checking the model configs")

    monkeypatch.setattr(harness, "simulate_split", simulate_split)
    with pytest.raises(ValueError, match=r"^n_max must be >= 2$"):
        main(["ablate", "--n-max", "1", "--workdir", str(tmp_path / "work"), "--out-csv", str(tmp_path / "a.csv")])
    assert list(tmp_path.rglob("*.jsonl")) == []


def test_train_cli_checkpoint_and_svg(small_pipeline):
    root, _, _, ckpt = small_pipeline
    params = load_checkpoint(ckpt)
    assert params.config.variant == "dual_mlp"
    assert params.config.n_max == 16  # picked up from the preprocess meta
    assert params.snr_bounds is not None
    assert (root / "loss.svg").read_text().startswith("<svg")


def test_eval_cli(small_pipeline, tmp_path, capsys):
    root, _, fused, ckpt = small_pipeline
    report = tmp_path / "report.csv"
    rc = main(["eval", "--checkpoint", str(ckpt), "--test", str(fused), "--report", str(report)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "MAE across 22 key points" in out
    lines = report.read_text().strip().split("\n")
    assert len(lines) == 2
    assert lines[1].startswith("dual_mlp,")
    assert (tmp_path / "report.joints.csv").exists()


def test_eval_cli_rejects_a_test_file_with_no_frames(small_pipeline, tmp_path):
    _, _, _, ckpt = small_pipeline
    test = tmp_path / "empty.jsonl"
    test.write_text("")
    report = tmp_path / "report.csv"
    with pytest.raises(ValueError, match=r"^prediction dataset is empty$"):
        main(["eval", "--checkpoint", str(ckpt), "--test", str(test), "--report", str(report)])
    assert not report.exists()


def test_eval_cli_rejects_test_data_scaled_with_other_snr_bounds(small_pipeline, tmp_path):
    _, _, fused, ckpt = small_pipeline
    test = tmp_path / "test.jsonl"
    test.write_bytes(fused.read_bytes())
    meta = json.loads((fused.parent / (fused.name + ".meta.json")).read_text())
    trained = (meta["snr_min"], meta["snr_max"])
    meta["snr_max"] += 1.0
    (tmp_path / "test.jsonl.meta.json").write_text(json.dumps(meta))
    report = tmp_path / "report.csv"
    with pytest.raises(ValueError) as err:
        main(["eval", "--checkpoint", str(ckpt), "--test", str(test), "--report", str(report)])
    assert str((meta["snr_min"], meta["snr_max"])) in str(err.value)
    assert str(trained) in str(err.value)
    assert not report.exists()


def test_ablate_cli_smoke(tmp_path, capsys):
    out_csv = tmp_path / "ablation.csv"
    rc = main([
        "ablate", "--frames", "24", "--test-frames", "16", "--epochs", "1",
        "--duration", "0.75", "--seed", "2", "--workdir", str(tmp_path / "work"),
        "--keep-files", "false", "--out-csv", str(out_csv),
    ])
    assert rc == 0
    lines = out_csv.read_text().strip().split("\n")
    assert len(lines) == 5  # header + 4 model rows
    assert lines[0].startswith("Model,MAE across 22 key points")
    printed = capsys.readouterr().out
    assert "mean-pose baseline" in printed
    assert "split digest" in printed


# ---------------------------------------------------------------------------
# the CLI surface: flags, config keys and resolved defaults
# ---------------------------------------------------------------------------

# subcommand -> dest (= config key) -> (flag, default, config text, value it yields)
SURFACE = {
    "simulate": {
        "actions": ("--actions", ACTIONS, "walk_away,swing_left", ("walk_away", "swing_left")),
        "frames": ("--frames", 200, "7", 7),
        "fps": ("--fps", 20.0, "5", 5.0),
        "duration": ("--duration", 3.0, "1.5", 1.5),
        "walk_speed": ("--walk-speed", 0.5, "0.25", 0.25),
        "radars": ("--radars", 2, "1", 1),
        "subjects": ("--subjects", (0, 1), "1", (1,)),
        "seed": ("--seed", 42, "9", 9),
        "noise_std": ("--noise-std", 0.3, "0.1", 0.1),
        "threshold_db": ("--threshold-db", 8.0, "6.5", 6.5),
        "density": ("--density", 4, "2", 2),
        "out": ("--out", "dataset.jsonl", "x.jsonl", "x.jsonl"),
    },
    "preprocess": {
        "input": ("--in", "dataset.jsonl", "in.jsonl", "in.jsonl"),
        "out": ("--out", "fused.jsonl", "o.jsonl", "o.jsonl"),
        "eps": ("--eps", 0.4, "0.5", 0.5),
        "min_pts": ("--min-pts", 3, "2", 2),
        "window_ms": ("--window-ms", 50.0, "40", 40.0),
        "n_max": ("--n-max", 64, "16", 16),
        "radars": ("--radars", (0, 1), "0", (0,)),
        # observed as the SNR bounds the file holds
        "snr_meta": ("--snr-meta", None, "meta.json", (1.0, 2.0)),
    },
    "train": {
        "data": ("--data", "fused.jsonl", "d.jsonl", "d.jsonl"),
        "variant": ("--variant", "dual_cnn", "dual_mlp", "dual_mlp"),
        "lr": ("--lr", 1e-3, "0.01", 0.01),
        "batch": ("--batch", 32, "8", 8),
        "epochs": ("--epochs", 30, "2", 2),
        "seed": ("--seed", 0, "3", 3),
        "val_fraction": ("--val-fraction", 0.2, "0.5", 0.5),
        "stop_loss": ("--stop-loss", None, "0.01", 0.01),
        "n_max": ("--n-max", None, "16", 16),
        "checkpoint": ("--checkpoint", "checkpoint.json", "c.json", "c.json"),
        "loss_svg": ("--loss-svg", None, "l.svg", "l.svg"),
    },
    "eval": {
        "checkpoint": ("--checkpoint", "checkpoint.json", "c.json", "c.json"),
        "test": ("--test", "fused_test.jsonl", "t.jsonl", "t.jsonl"),
        "report": ("--report", None, "r.csv", "r.csv"),
    },
    "ablate": {
        "out_csv": ("--out-csv", "ablation.csv", "a.csv", "a.csv"),
        "workdir": ("--workdir", "ablation_work", "w", "w"),
        "frames": ("--frames", 2000, "24", 24),
        "test_frames": ("--test-frames", 500, "16", 16),
        "seed": ("--seed", 42, "2", 2),
        "epochs": ("--epochs", 12, "1", 1),
        "lr": ("--lr", 1e-3, "0.01", 0.01),
        "batch": ("--batch", 32, "8", 8),
        "train_seed": ("--train-seed", 0, "4", 4),
        "n_max": ("--n-max", 64, "16", 16),
        "eps": ("--eps", 0.4, "0.5", 0.5),
        "min_pts": ("--min-pts", 3, "2", 2),
        "window_ms": ("--window-ms", 50.0, "40", 40.0),
        "noise_std": ("--noise-std", 0.3, "0.1", 0.1),
        "threshold_db": ("--threshold-db", 8.0, "6.5", 6.5),
        "fps": ("--fps", 20.0, "5", 5.0),
        "duration": ("--duration", 3.0, "0.75", 0.75),
        "keep_files": ("--keep-files", True, "false", False),
    },
    "gradcheck": {
        "seed": ("--seed", 0, "5", 5),
        "tolerance": ("--tolerance", 1e-4, "0.001", 1e-3),
    },
}


def _subparsers():
    (action,) = [a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    return action.choices


def _spy(seen, returns=None, **names):
    """A stand-in that records its arguments under ``names`` (name -> getter)."""

    def fake(*args, **kwargs):
        for key, get in names.items():
            seen[key] = get(*args, **kwargs)
        return returns() if callable(returns) else returns

    return fake


def _observe(monkeypatch, command, argv):
    """Run one subcommand with its work stubbed out; the option values it used."""
    seen = {}
    patch = lambda name, fake: monkeypatch.setattr(cli, name, fake)  # noqa: E731
    if command == "simulate":
        def generate(actions, motion, radar_poses, chirp_cfg, out_path, n_frames, subjects, density, threshold_db):
            seen.update(
                actions=tuple(actions), fps=motion.fps, duration=motion.duration_s,
                walk_speed=motion.walk_speed, seed=motion.seed, radars=len(radar_poses),
                noise_std=chirp_cfg.noise_std, out=out_path, frames=n_frames,
                subjects=tuple(subjects), density=density, threshold_db=threshold_db,
            )
            return []
        patch("generate_dataset", generate)
    elif command == "preprocess":
        patch("read_jsonl", _spy(seen, [], input=lambda path: path))
        patch("fuse_records", _spy(
            seen, [], radars=lambda recs, radar_ids, window_ms, eps, min_pts: tuple(radar_ids),
            window_ms=lambda *a, window_ms, **k: window_ms,
            eps=lambda *a, eps, **k: eps, min_pts=lambda *a, min_pts, **k: min_pts,
        ))
        patch("normalize_snr", _spy(seen, ([], (0.0, 1.0)), snr_meta=lambda recs, bounds: bounds))
        patch("write_jsonl", _spy(seen, out=lambda path, recs: path))
    elif command == "train":
        history = [{"train_loss": 0.0, "val_loss": 0.0}]
        patch("_load_examples", _spy(seen, ([0], 64, None), data=lambda p, n: p, n_max=lambda p, n: n))
        patch("train_model", _spy(
            seen, lambda: (SimpleNamespace(), history),
            variant=lambda cfg, ex, h: cfg.variant, seed=lambda cfg, ex, h: (cfg.seed, h.seed),
            lr=lambda c, e, h: h.lr, batch=lambda c, e, h: h.batch, epochs=lambda c, e, h: h.epochs,
            val_fraction=lambda c, e, h: h.val_fraction, stop_loss=lambda c, e, h: h.stop_loss,
        ))
        patch("save_checkpoint", _spy(seen, checkpoint=lambda params, path: path))
        patch("loss_curve_svg", _spy(seen, loss_svg=lambda hist, path: path))
        seen["loss_svg"] = None
    elif command == "eval":
        patch("load_checkpoint", _spy(seen, SimpleNamespace(config=ModelConfig()), checkpoint=lambda p: p))
        patch("read_jsonl", _spy(seen, [], test=lambda p: p))
        patch("frames_from_records", _spy(seen, []))
        for name in ("examples_from_frames", "predict_batch", "evaluate", "per_joint_csv"):
            patch(name, _spy(seen))
        patch("report_to_csv", _spy(seen, "", report=lambda rep, path, js: path))
    elif command == "ablate":
        fields = {
            "workdir": "workdir", "frames": "n_train", "test_frames": "n_test", "seed": "seed",
            "epochs": "epochs", "lr": "lr", "batch": "batch", "train_seed": "train_seed",
            "n_max": "n_max", "eps": "eps", "min_pts": "min_pts", "window_ms": "window_ms",
            "noise_std": "noise_std", "threshold_db": "threshold_db", "fps": "fps",
            "duration": "duration_s", "keep_files": "keep_files",
        }
        report = SimpleNamespace(rows=[], baseline=None, split_digests={})
        patch("run_ablation", _spy(seen, report, **{
            key: (lambda field: lambda cfg: getattr(cfg, field))(field) for key, field in fields.items()
        }))
        patch("report_to_csv", _spy(seen, "", out_csv=lambda rep, path: path))
        patch("per_joint_csv", _spy(seen))
    elif command == "gradcheck":
        patch("run_gradient_checks", _spy(
            seen, [], seed=lambda seeds, rtol: seeds[0], tolerance=lambda seeds, rtol: rtol,
        ))
    assert cli.main([command, *argv]) == 0
    if command == "preprocess":
        seen["n_max"] = json.loads(open(str(seen["out"]) + ".meta.json").read())["n_max"]
    if command == "train":
        seeds = seen.pop("seed")
        assert seeds[0] == seeds[1]
        seen["seed"] = seeds[0]
    return seen


@pytest.mark.parametrize("command", sorted(SURFACE))
def test_cli_surface_flags(command):
    parser = _subparsers()[command]
    flags = {
        a.dest: a.option_strings[0]
        for a in parser._actions
        if a.option_strings and a.dest not in ("help", "config")
    }
    assert flags == {dest: entry[0] for dest, entry in SURFACE[command].items()}


@pytest.mark.parametrize("command", sorted(SURFACE))
def test_cli_surface_defaults(command, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    seen = _observe(monkeypatch, command, [])
    assert seen == {dest: entry[1] for dest, entry in SURFACE[command].items()}


@pytest.mark.parametrize("command", sorted(SURFACE))
def test_cli_surface_config_keys(command, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "meta.json").write_text(json.dumps({"snr_min": 1.0, "snr_max": 2.0}))
    cfg = tmp_path / "run.cfg"
    cfg.write_text("".join(f"{dest} = {entry[2]}\n" for dest, entry in SURFACE[command].items()))
    seen = _observe(monkeypatch, command, ["--config", str(cfg)])
    assert seen == {dest: entry[3] for dest, entry in SURFACE[command].items()}


def test_config_value_checked_like_its_flag(tmp_path, capsys):
    cfg = tmp_path / "sim.cfg"
    cfg.write_text(f"radars = 3\nframes = 2\nout = {tmp_path / 'out.jsonl'}\n")
    with pytest.raises(SystemExit):
        main(["simulate", "--config", str(cfg)])
    assert "--radars" in capsys.readouterr().err
    assert not (tmp_path / "out.jsonl").exists()
