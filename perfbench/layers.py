"""What the traced run wraps, and the per-layer metrics derived from its spans.

Layers are the program's modules: physics, scene, fmcw, records, pointcloud,
harness, model and autodiff. The benchmark's own spans are named
``bench.setup``, ``bench.round`` and ``bench.variant.<variant>``.

Time and call metrics are per round: totals over the traced rounds divided by
their number, counting only spans inside a ``bench.round``. Ratios that
describe the data (calls and detections per frame, yield, nodes and flops per
step) use every traced span, set-up included, because on ``train`` and
``overfit`` the simulator runs only in set-up.
"""

from __future__ import annotations

import os
import statistics

from spans import NO_PARENT, Probe, Recorder, self_times
from workloads import VARIANTS

LAYERS = ("physics", "scene", "fmcw", "records", "pointcloud", "harness", "model", "autodiff")
OPS = ("conv2d", "matmul", "add", "relu", "amax", "maxpool2d", "concat", "reshape", "mse")


def _count(args, kwargs, result):
    return float(len(result))


def _file_bytes(index):
    def measure(args, kwargs, result):
        path = args[index] if len(args) > index else kwargs["path"]
        return float(os.path.getsize(path))

    return measure


def _tape_nodes(args, kwargs, result):
    """Nodes reachable from the loss: what one ``Tensor.backward`` sweeps."""
    seen, stack = set(), [args[0]]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            stack.extend(node._parents)
    return float(len(seen))


def _matmul_flops(args, kwargs, out):
    return 2.0 * out.data.size * args[0].data.shape[-1]


def _conv2d_flops(args, kwargs, out):
    _c_out, c_in, kh, kw = args[1].data.shape
    return 2.0 * out.data.size * c_in * kh * kw


def _probes():
    p = []
    scene, fmcw, pc, rec, harness, model = (
        "radarpose.scene", "radarpose.fmcw", "radarpose.pointcloud",
        "radarpose.records", "radarpose.harness", "radarpose.model",
    )
    # scene's own functions, reached through its globals
    p += [
        Probe(scene, "generate_dataset", "scene.generate_dataset", _count),
        Probe(scene, "pose_at", "scene.pose_at"),
        Probe(scene, "joint_velocities", "scene.joint_velocities"),
        Probe(scene, "reflectors_from_skeleton", "scene.reflectors_from_skeleton", _count),
    ]
    # what scene imports from fmcw, records and pointcloud
    p += [
        Probe(scene, "synthesize_frame", "fmcw.synthesize_frame"),
        Probe(scene, "detect_points", "fmcw.detect_points", _count),
        Probe(scene, "detections_to_points", "fmcw.detections_to_points"),
        Probe(scene, "make_record", "records.make_record"),
        Probe(scene, "transform_to_radar", "pointcloud.transform_to_radar"),
        Probe(scene, "rotate_to_radar", "pointcloud.rotate_to_radar"),
    ]
    # the scalar chirp relations fmcw calls
    for fn in ("beat_frequency", "phase_at_range", "doppler_phase", "azimuth_phase",
               "range_from_beat", "velocity_from_phase"):
        p.append(Probe(fmcw, fn, f"physics.{fn}"))
    p += [
        Probe(pc, "fuse_records", "pointcloud.fuse_records", _count),
        Probe(pc, "normalize_snr", "pointcloud.normalize_snr"),
        Probe(pc, "align_streams", "pointcloud.align_streams", _count),
        Probe(pc, "dbscan", "pointcloud.dbscan", _count),
        Probe(pc, "make_record", "records.make_record"),
        Probe(rec, "write_jsonl", "records.write_jsonl", _file_bytes(0)),
        Probe(rec, "read_jsonl", "records.read_jsonl", _count),
        Probe(harness, "simulate_split", "harness.simulate_split"),
        Probe(harness, "generate_dataset", "scene.generate_dataset", _count),
        Probe(harness, "frames_from_records", "harness.frames_from_records", _count),
        Probe(harness, "evaluate", "harness.evaluate"),
        Probe(model, "examples_from_frames", "model.examples_from_frames", _count),
        Probe(model, "build_views", "pointcloud.build_views"),
        Probe(model, "build_cloud", "pointcloud.build_cloud"),
        Probe(model, "train", "model.train"),
        Probe(model, "backward", "model.backward"),
        Probe(model, "forward", "model.forward"),
        Probe(model, "predict_batch", "model.predict_batch", _count),
        Probe(model, "save_checkpoint", "model.save_checkpoint", _file_bytes(1)),
        Probe(model, "load_checkpoint", "model.load_checkpoint"),
    ]
    # autodiff: the functions model imports, and the Tensor methods it calls
    for fn in ("amax", "concat", "maxpool2d", "mse"):
        p.append(Probe(model, fn, f"autodiff.{fn}", op=True))
    p.append(Probe(model, "conv2d", "autodiff.conv2d", _conv2d_flops, op=True))
    tensor = "radarpose.autodiff:Tensor"
    p.append(Probe(tensor, "__matmul__", "autodiff.matmul", _matmul_flops, op=True))
    for attr, op in (("__add__", "add"), ("__sub__", "sub"), ("__mul__", "mul"),
                     ("relu", "relu"), ("reshape", "reshape"), ("mean", "mean")):
        p.append(Probe(tensor, attr, f"autodiff.{op}", op=True))
    p.append(Probe(tensor, "backward", "autodiff.sweep", _tape_nodes))
    return tuple(p)


PROBES = _probes()


class SpanView:
    """Read-only index over a Recorder: names, self times, enclosing round and variant."""

    def __init__(self, rec: Recorder):
        n = len(rec)
        self.names = [rec.names[j] for j in rec.name_ids]
        self.start, self.end, self.parent, self.work = rec.starts, rec.ends, rec.parents, rec.work
        self.dur = [rec.ends[i] - rec.starts[i] for i in range(n)]
        self.self_s = self_times(rec.starts, rec.ends, rec.parents)
        # a parent is opened before its children, so one forward pass tags all
        self.round = [NO_PARENT] * n
        self.variant: list = [None] * n
        self.by_name: dict[str, list[int]] = {}
        for i, name in enumerate(self.names):
            p = self.parent[i]
            if name == "bench.round":
                self.round[i] = i
            elif p != NO_PARENT:
                self.round[i] = self.round[p]
            if name.startswith("bench.variant."):
                self.variant[i] = name[len("bench.variant."):]
            elif p != NO_PARENT:
                self.variant[i] = self.variant[p]
            self.by_name.setdefault(name, []).append(i)
        self.rounds = self.by_name.get("bench.round", [])

    def spans(self, names, in_round=True, variant=None) -> list[int]:
        out = []
        for name in names:
            for i in self.by_name.get(name, ()):
                if in_round and self.round[i] == NO_PARENT:
                    continue
                if variant is not None and self.variant[i] != variant:
                    continue
                out.append(i)
        return out

    def names_in(self, layer: str) -> list[str]:
        return [n for n in self.by_name if n.split(".", 1)[0] == layer]

    def busy(self, names, variant=None) -> float:
        """Seconds covered by spans of ``names``, counting nested ones once."""
        names = set(names)
        total = 0.0
        for i in self.spans(names, variant=variant):
            p = self.parent[i]
            while p != NO_PARENT and self.names[p] not in names:
                p = self.parent[p]
            if p == NO_PARENT:
                total += self.dur[i]
        return total

    def has_ancestor(self, i: int, name: str) -> bool:
        p = self.parent[i]
        while p != NO_PARENT:
            if self.names[p] == name:
                return True
            p = self.parent[p]
        return False


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def _percentile(values, q: float) -> float:
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[int(q) - 1]


def _step_samples(v: SpanView, variant: str) -> list[float]:
    """A step runs from a ``model.backward`` start to the next backward or
    forward start inside the same ``model.train``, or to its end: the
    backward pass plus Adam and batching."""
    marks: dict[int, list[int]] = {}
    for i in v.spans(("model.backward", "model.forward"), variant=variant):
        p = v.parent[i]
        if p != NO_PARENT and v.names[p] == "model.train":
            marks.setdefault(p, []).append(i)
    steps = []
    for train, kids in marks.items():
        kids.sort()
        for k, i in enumerate(kids):
            if v.names[i] != "model.backward":
                continue
            nxt = v.start[kids[k + 1]] if k + 1 < len(kids) else v.end[train]
            steps.append((nxt - v.start[i]) * 1e3)
    return steps


def _loop_self(v: SpanView, variant: str) -> float:
    """``train()`` minus its backward/forward spans: Adam plus batching."""
    total = 0.0
    trains = set(v.spans(("model.train",), variant=variant))
    for i in trains:
        total += v.dur[i]
    for i in v.spans(("model.backward", "model.forward"), variant=variant):
        if v.parent[i] in trains:
            total -= v.dur[i]
    return total


def layer_metrics(rec: Recorder, n_radars: int) -> dict[str, float]:
    """Every per-layer metric; a layer that made no calls reads 0."""
    v = SpanView(rec)
    r = max(len(v.rounds), 1)
    m: dict[str, float] = {}
    physics = v.names_in("physics")
    synth = v.spans(("fmcw.synthesize_frame",))
    all_synth = v.spans(("fmcw.synthesize_frame",), in_round=False)

    m["physics.calls_per_radar_frame"] = _ratio(len(v.spans(physics, in_round=False)), len(all_synth))
    m["physics.busy_s"] = v.busy(physics) / r

    pose_calls = len(v.spans(("scene.pose_at",), in_round=False))
    m["scene.pose_at.calls_per_frame"] = _ratio(pose_calls, len(all_synth) / n_radars)
    m["scene.pose_busy_s"] = v.busy(("scene.pose_at", "scene.joint_velocities")) / r
    m["scene.reflectors_busy_s"] = v.busy(("scene.reflectors_from_skeleton",)) / r
    refl = v.spans(("scene.reflectors_from_skeleton",), in_round=False)
    n_refl = sum(v.work[i] for i in refl)
    m["scene.reflectors_per_radar_frame"] = _ratio(n_refl, len(refl))

    m["fmcw.synthesize_busy_s"] = v.busy(("fmcw.synthesize_frame",)) / r
    m["fmcw.synthesize_ms.p50"] = statistics.median(v.dur[i] for i in synth) * 1e3 if synth else 0.0
    m["fmcw.detect_busy_s"] = v.busy(("fmcw.detect_points",)) / r
    det = v.spans(("fmcw.detect_points",), in_round=False)
    n_det = sum(v.work[i] for i in det)
    m["fmcw.detections_per_radar_frame"] = _ratio(n_det, len(det))
    m["fmcw.detection_yield"] = _ratio(n_det, n_refl)

    m["records.make_record_busy_s"] = v.busy(("records.make_record",)) / r
    m["records.write_jsonl_busy_s"] = v.busy(("records.write_jsonl",)) / r
    m["records.read_jsonl_busy_s"] = v.busy(("records.read_jsonl",)) / r
    m["records.jsonl_bytes"] = sum(v.work[i] for i in v.spans(("records.write_jsonl",))) / r

    m["pointcloud.fuse_busy_s"] = v.busy(("pointcloud.fuse_records",)) / r
    m["pointcloud.dbscan_busy_s"] = v.busy(("pointcloud.dbscan",)) / r
    m["pointcloud.dbscan_calls"] = len(v.spans(("pointcloud.dbscan",))) / r
    m["pointcloud.normalize_snr_busy_s"] = v.busy(("pointcloud.normalize_snr",)) / r
    m["pointcloud.pack_busy_s"] = v.busy(("model.examples_from_frames",)) / r

    m["harness.frames_from_records_busy_s"] = v.busy(("harness.frames_from_records",)) / r
    m["harness.evaluate_busy_s"] = v.busy(("harness.evaluate",)) / r

    sweep_self = {}
    for variant in VARIANTS:
        steps = sorted(_step_samples(v, variant))
        key = f"model.{variant}"
        m[f"{key}.step_ms.p50"] = statistics.median(steps) if steps else 0.0
        m[f"{key}.step_ms.p95"] = _percentile(steps, 95)
        m[f"{key}.step_ms.n"] = float(len(steps))
        m[f"{key}.backward_busy_s"] = v.busy(("model.backward",), variant=variant) / r
        m[f"{key}.forward_busy_s"] = v.busy(("model.forward",), variant=variant) / r
        m[f"{key}.loop_self_s"] = _loop_self(v, variant) / r
        sweep_self[variant] = sum(v.self_s[i] for i in v.spans(("autodiff.sweep",), variant=variant)) / r
    m["model.checkpoint_save_busy_s"] = v.busy(("model.save_checkpoint",)) / r
    m["model.checkpoint_load_busy_s"] = v.busy(("model.load_checkpoint",)) / r
    saves = v.spans(("model.save_checkpoint",))
    m["model.checkpoint_bytes"] = _ratio(sum(v.work[i] for i in saves), len(saves))

    for op in OPS:
        fwd = v.spans((f"autodiff.{op}.fwd",))
        m[f"autodiff.{op}.fwd_s"] = sum(v.dur[i] for i in fwd) / r
        m[f"autodiff.{op}.bwd_s"] = sum(v.dur[i] for i in v.spans((f"autodiff.{op}.bwd",))) / r
        m[f"autodiff.{op}.calls"] = len(fwd) / r
    m["autodiff.sweep_self_s"] = sum(v.self_s[i] for i in v.spans(("autodiff.sweep",))) / r
    sweeps = v.spans(("autodiff.sweep",), in_round=False)
    m["autodiff.nodes_per_step"] = _ratio(sum(v.work[i] for i in sweeps), len(sweeps))
    n_steps = len(v.spans(("model.backward",), in_round=False))
    for op in ("matmul", "conv2d"):
        flops = sum(
            v.work[i]
            for i in v.spans((f"autodiff.{op}.fwd", f"autodiff.{op}.bwd"), in_round=False)
            if v.has_ancestor(i, "model.backward")
        )
        m[f"autodiff.{op}_gflop_per_step"] = _ratio(flops, n_steps) / 1e9

    for layer in LAYERS:
        m[f"{layer}.self_s"] = sum(v.self_s[i] for i in v.spans(v.names_in(layer))) / r

    # the simulator's own code: self times, so records and pointcloud calls
    # made from inside generate_dataset do not count
    round_wall = sum(v.dur[i] for i in v.rounds) / r
    m["isolation.sim_wall_share"] = _ratio(m["scene.self_s"] + m["fmcw.self_s"] + m["physics.self_s"], round_wall)
    m["isolation.scene_fmcw_calls"] = len(v.spans(v.names_in("scene") + v.names_in("fmcw"))) / r
    compute = ["model.train", "model.backward", "model.forward", "model.predict_batch"] + v.names_in("autodiff")
    m["isolation.model_autodiff_calls"] = len(v.spans(compute)) / r
    cnn_train = v.busy(("model.train",), variant="dual_cnn") / r
    m["model.dual_cnn.fixed_share"] = _ratio(m["model.dual_cnn.loop_self_s"] + sweep_self["dual_cnn"], cnn_train)
    return m


#: counts that repeat exactly and later changes may cite; reported as "computed"
COMPUTED = (
    "autodiff.matmul_gflop_per_step",
    "autodiff.conv2d_gflop_per_step",
    "autodiff.nodes_per_step",
    "physics.calls_per_radar_frame",
    "scene.pose_at.calls_per_frame",
)
