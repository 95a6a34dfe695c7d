"""The three workloads: set-up, one round of fixed work, and its checks.

Each is a closed loop driven by one client in one process: a round starts
when the previous one has returned. The workload seed picks the inputs (the
motion seed of the rendered sequences); model seeds and hyperparameters are
fixed, so every round of a run does identical work and must give identical
outputs. ``run_round`` does the program work and is the only part timed;
``check_round`` then checks its outputs outside the timer.

* ``dataset``: render the four actions x two subjects through both radars
  with ``generate_dataset``, then preprocess as ``run_ablation`` does. The
  simulator (scene, fmcw, physics) does nearly all the work; no model
  computation runs, so a simulator change shows here and a model change must
  show nothing.
* ``train``: set-up renders and preprocesses a fixed train/test split; a round
  trains the three two-radar variants at the ablation's hyperparameters,
  saves and reloads each checkpoint, predicts the test split and scores it.
  Per-example kernel work (conv2d, the wide matmuls, amax over padded rows)
  dominates; scene and fmcw run only in set-up.
* ``overfit``: the shape of the Tier-1 overfit gate, dual_cnn on ten fused
  frames at batch 10. The fixed cost of a step (building the tape, the sweep,
  Adam over every parameter array) dominates.
"""

from __future__ import annotations

import hashlib
import json
import math
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from radarpose import harness, model, pointcloud, records, scene
from radarpose.harness import AblationConfig
from radarpose.physics import ChirpConfig

#: the ablation's motion, chirp, fusion and training settings
ABLATION = AblationConfig(keep_files=False)
N_RADARS = len(pointcloud.DEFAULT_POSES)
VARIANTS = model.VARIANTS


@dataclass
class RoundResult:
    ops: int  # radar frames, training steps and predicted frames attempted
    failed: int
    rates: dict  # named rate -> (amount, seconds)
    values: dict  # named deterministic output -> value
    digest: str  # the same in every round of a run
    problems: list = field(default_factory=list)
    keep: dict = field(default_factory=dict)  # what verify() needs
    wall: float = 0.0


def _digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else json.dumps(part).encode())
    return h.hexdigest()[:16]


def record_ok(rec: dict) -> bool:
    """A record passes ``validate_record`` and holds only finite numbers."""
    try:
        records.validate_record(rec)
    except ValueError:
        return False
    values = [v for p in rec["points"] for v in p] + [v for j in rec["gt"] for v in j]
    return all(math.isfinite(v) for v in values)


def shape_counters(raw: list, fused: list, n_max: int) -> dict:
    """Data-shape counters of a two-radar preprocessing pass, from its records.

    Detections per radar frame come from the traced run's ``detect_points``
    results instead, the same calls ``fmcw.detection_yield`` counts.
    """
    frame_ids = {r["frame_id"] for r in raw}
    raw_points: dict = {}
    for r in raw:
        raw_points[r["frame_id"]] = raw_points.get(r["frame_id"], 0) + len(r["points"])
    kept = [len(r["points"]) for r in fused]
    into_dbscan = sum(raw_points[r["frame_id"]] for r in fused)
    return {
        "pointcloud.align_dropped_frac": 1.0 - len(fused) / len(frame_ids),
        "pointcloud.dbscan_noise_frac": 1.0 - sum(kept) / into_dbscan if into_dbscan else 0.0,
        "pointcloud.valid_row_frac": sum(min(k, n_max) for k in kept) / (len(kept) * n_max),
        "pointcloud.truncated_frac": sum(max(k - n_max, 0) for k in kept) / sum(kept) if sum(kept) else 0.0,
    }


def _fuse(raw, radar_ids, cfg: AblationConfig, bounds=None):
    fused = pointcloud.fuse_records(
        raw, radar_ids=radar_ids, window_ms=cfg.window_ms, eps=cfg.eps, min_pts=cfg.min_pts
    )
    return pointcloud.normalize_snr(fused, bounds)


def _steps(history: list, per_epoch: int) -> tuple[int, int]:
    """(steps run, steps in epochs whose mean loss is not finite)."""
    bad = sum(1 for h in history if not math.isfinite(h["train_loss"]))
    return len(history) * per_epoch, bad * per_epoch


def _bad_frames(preds: np.ndarray, mcfg) -> int:
    """Predicted frames with a non-finite value in an included joint."""
    present = [scene.JOINT_INDEX[j] for j in mcfg.included_joints]
    return int(np.sum(~np.all(np.isfinite(preds[:, present, :]), axis=(1, 2))))


# ---------------------------------------------------------------------------

class Dataset:
    """Render then preprocess ``DURATION_S`` seconds of each of the 8 sequences."""

    name = "dataset"
    DURATION_S = 0.5

    def setup(self, seed: int, workdir: Path) -> dict:
        cfg = replace(ABLATION, duration_s=self.DURATION_S, seed=seed)
        state = {
            "cfg": cfg,
            "motion": scene.MotionConfig(
                fps=cfg.fps, duration_s=cfg.duration_s, walk_speed=cfg.walk_speed, seed=cfg.seed
            ),
            "chirp": ChirpConfig(noise_std=cfg.noise_std),
            "workdir": workdir,
        }
        # warm-up: one short sequence through every stage, so lazy
        # initialisation is paid here and not in the first round
        warm = scene.generate_dataset(
            cfg.actions[:1], replace(state["motion"], duration_s=2 / cfg.fps),
            chirp_cfg=state["chirp"], subjects=cfg.subjects[:1], density=cfg.density,
            threshold_db=cfg.threshold_db,
        )
        fused, _ = _fuse(warm, (0, 1), cfg)
        model.examples_from_frames(harness.frames_from_records(fused), cfg.n_max)
        return state

    def run_round(self, st: dict, rec) -> dict:
        cfg = st["cfg"]
        t0 = time.perf_counter()
        raw = scene.generate_dataset(
            cfg.actions, st["motion"], chirp_cfg=st["chirp"], subjects=cfg.subjects,
            density=cfg.density, threshold_db=cfg.threshold_db,
        )
        t1 = time.perf_counter()
        out = {}
        for key, radar_ids in (("both", (0, 1)), ("radar_a", (0,))):
            fused, _ = _fuse(raw, radar_ids, cfg)
            path = st["workdir"] / f"fused_{key}.jsonl"
            records.write_jsonl(path, fused)
            back = records.read_jsonl(path)
            examples = model.examples_from_frames(harness.frames_from_records(back), cfg.n_max)
            out[key] = (fused, back, examples)
        t2 = time.perf_counter()
        return {"raw": raw, "out": out, "sim_s": t1 - t0, "preprocess_s": t2 - t1}

    def check_round(self, st: dict, o: dict) -> RoundResult:
        cfg, raw, out = st["cfg"], o["raw"], o["out"]
        problems = []
        frames_per_seq = max(1, int(round(cfg.duration_s * cfg.fps)))
        expected = frames_per_seq * len(cfg.actions) * len(cfg.subjects) * N_RADARS
        if len(raw) != expected:
            problems.append(f"dataset: {len(raw)} raw records, expected {expected}")
        n_fused = 0
        for key, (fused, back, examples) in out.items():
            n_fused += len(fused)
            if back != fused:
                problems.append(f"dataset: {key} JSONL round trip changed the records")
            if len(examples) != len(fused) or not np.all(np.isfinite(examples.view_xy)):
                problems.append(f"dataset: {key} packing lost frames or made non-finite rows")
        return RoundResult(
            ops=len(raw),
            failed=sum(not record_ok(r) for r in raw),
            rates={
                "sim_frames_per_s": (len(raw), o["sim_s"]),
                "preprocess_frames_per_s": (n_fused, o["preprocess_s"]),
            },
            values={},
            digest=_digest(raw, out["both"][0], out["radar_a"][0]),
            problems=problems,
            keep={"shape": shape_counters(raw, out["both"][0], cfg.n_max)},
        )

    def verify(self, st: dict, last: RoundResult) -> list:
        return []

    def shape(self, st: dict, last: RoundResult) -> dict:
        return last.keep["shape"]


class Train:
    """Train, checkpoint, predict and score the three two-radar variants."""

    name = "train"
    FRAMES = 80  # per split; 10 frames of each of the 8 sequences
    EPOCHS = 4

    def config(self, seed: int) -> AblationConfig:
        per_seq = self.FRAMES / (len(ABLATION.actions) * len(ABLATION.subjects))
        return replace(
            ABLATION, n_train=self.FRAMES, n_test=self.FRAMES,
            duration_s=per_seq / ABLATION.fps, seed=seed,
        )

    def setup(self, seed: int, workdir: Path) -> dict:
        cfg = self.config(seed)
        train_raw, test_raw = harness.simulate_split(cfg)
        train_fused, bounds = _fuse(train_raw, (0, 1), cfg)
        test_fused, _ = _fuse(test_raw, (0, 1), cfg, bounds)
        test_frames = harness.frames_from_records(test_fused)
        state = {
            "cfg": cfg,
            "workdir": workdir,
            "bounds": bounds,
            "train": model.examples_from_frames(harness.frames_from_records(train_fused), cfg.n_max),
            "test": model.examples_from_frames(test_frames, cfg.n_max),
            "test_gts": [f.gt for f in test_frames],
            "shape": shape_counters(train_raw, train_fused, cfg.n_max),
        }
        # warm-up: one epoch and one prediction per variant, so the first
        # round is not slower than the rest
        hyper = replace(self.hyper(cfg), epochs=1)
        for variant in VARIANTS:
            mcfg = model.ModelConfig(variant=variant, n_max=cfg.n_max, seed=cfg.train_seed)
            params, _ = model.train(mcfg, state["train"], hyper)
            model.predict_batch(params, state["test"])
        return state

    def hyper(self, cfg: AblationConfig):
        return model.Hyper(lr=cfg.lr, batch=cfg.batch, epochs=self.EPOCHS, seed=cfg.train_seed)

    def run_round(self, st: dict, rec) -> dict:
        cfg = st["cfg"]
        hyper = self.hyper(cfg)
        out = {}
        for variant in VARIANTS:
            with rec.span(f"bench.variant.{variant}"):
                mcfg = model.ModelConfig(variant=variant, n_max=cfg.n_max, seed=cfg.train_seed)
                t0 = time.perf_counter()
                params, history = model.train(mcfg, st["train"], hyper)
                t1 = time.perf_counter()
                params.snr_bounds = st["bounds"]
                path = st["workdir"] / f"ckpt_{variant}.json"
                model.save_checkpoint(params, path)
                loaded = model.load_checkpoint(path)
                t2 = time.perf_counter()
                preds = model.predict_batch(loaded, st["test"])
                t3 = time.perf_counter()
                score = harness.evaluate(preds, st["test_gts"], name=variant)
            out[variant] = (mcfg, params, history, loaded, preds, score, t1 - t0, t3 - t2)
        return out

    def check_round(self, st: dict, out: dict) -> RoundResult:
        hyper = self.hyper(st["cfg"])
        n_fit = len(model.split_indices(len(st["train"]), hyper.seed, hyper.val_fraction)[0])
        per_epoch = math.ceil(n_fit / hyper.batch)
        rates, values, keep, hashes = {}, {}, {}, []
        ops = failed = 0
        predict_frames = predict_s = 0.0
        for variant, (mcfg, params, history, loaded, preds, score, train_s, pred_s) in out.items():
            rates[f"train_examples_per_s.{variant}"] = (len(history) * n_fit, train_s)
            predict_frames += len(preds)
            predict_s += pred_s
            values[f"mae_cm.{variant}"] = score.mae_all_cm
            steps, bad_steps = _steps(history, per_epoch)
            ops += steps + len(preds)
            failed += bad_steps + _bad_frames(preds, mcfg)
            hashes.append(preds.tobytes())
            keep[variant] = (params, loaded, preds)
        rates["predict_frames_per_s"] = (predict_frames, predict_s)
        return RoundResult(
            ops=ops, failed=failed, rates=rates, values=values,
            digest=_digest(*hashes, values), keep=keep,
        )

    def verify(self, st: dict, last: RoundResult) -> list:
        """Checkpoint round trips are exact and so are reloaded predictions."""
        problems = []
        for variant, (params, loaded, preds) in last.keep.items():
            same = (
                params.config == loaded.config
                and params.params.keys() == loaded.params.keys()
                and all(np.array_equal(params.params[k], loaded.params[k]) for k in params.params)
                and np.array_equal(params.gt_min, loaded.gt_min)
                and np.array_equal(params.gt_max, loaded.gt_max)
                and tuple(params.snr_bounds) == tuple(loaded.snr_bounds)
            )
            if not same:
                problems.append(f"train: {variant} checkpoint round trip is not exact")
            in_memory = model.predict_batch(params, st["test"])
            if in_memory.tobytes() != preds.tobytes():
                problems.append(f"train: {variant} reloaded predictions differ from in-memory ones")
        return problems

    def shape(self, st: dict, last: RoundResult) -> dict:
        return st["shape"]


#: the Tier-1 overfit gate's loss threshold
OVERFIT_LOSS = 1e-3


@dataclass
class Overfit:
    """dual_cnn on ten fused frames, full batch, no validation, no early stop.

    500 steps at the gate's learning rate and decay end below the gate's loss
    with margin on every seed tried; after 300 steps without the decay some
    seeds end within 15 % of it and spike above it.
    """

    name = "overfit"
    steps: int = 500

    def setup(self, seed: int, workdir: Path) -> dict:
        # frames 0.5 s apart so the ten point clouds are clearly distinct
        motion = scene.MotionConfig(fps=2.0, duration_s=2.5, seed=seed)
        raw = scene.generate_dataset(["walk_toward", "swing_right"], motion, n_frames=10, subjects=(0,))
        fused, _ = pointcloud.normalize_snr(pointcloud.fuse_records(raw))
        examples = model.examples_from_frames(harness.frames_from_records(fused), ABLATION.n_max)
        model.train(self.model_config(), examples, self.hyper(epochs=5))  # warm-up
        return {"examples": examples, "shape": shape_counters(raw, fused, ABLATION.n_max)}

    def model_config(self):
        return model.ModelConfig(variant="dual_cnn", n_max=ABLATION.n_max, seed=1)

    def hyper(self, epochs: int):
        return model.Hyper(lr=3e-3, batch=10, epochs=epochs, seed=1, val_fraction=0.0, lr_decay=0.9996)

    def run_round(self, st: dict, rec) -> dict:
        mcfg, hyper = self.model_config(), self.hyper(self.steps)
        with rec.span("bench.variant.dual_cnn"):
            t0 = time.perf_counter()
            _, history = model.train(mcfg, st["examples"], hyper)
            t1 = time.perf_counter()
        return {"history": history, "train_s": t1 - t0, "batch": hyper.batch}

    def check_round(self, st: dict, o: dict) -> RoundResult:
        ops, failed = _steps(o["history"], math.ceil(len(st["examples"]) / o["batch"]))
        losses = [h["train_loss"] for h in o["history"]]
        return RoundResult(
            ops=ops, failed=failed,
            rates={"overfit_steps_per_s": (ops, o["train_s"])},
            values={"overfit_final_loss": losses[-1]},
            digest=_digest(losses),
        )

    def verify(self, st: dict, last: RoundResult) -> list:
        loss = last.values["overfit_final_loss"]
        if not loss < OVERFIT_LOSS:
            return [f"overfit: final loss {loss:.3e} is not below {OVERFIT_LOSS:g}"]
        return []

    def shape(self, st: dict, last: RoundResult) -> dict:
        return st["shape"]


WORKLOADS = {w.name: w for w in (Dataset, Train, Overfit)}
