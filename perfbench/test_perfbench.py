"""Tests of the benchmark's own machinery: span arithmetic, probe restore,
the reference check, and refusal to run without sources."""

import copy
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import radarpose.autodiff
import radarpose.fmcw
import radarpose.model
import radarpose.scene
from checks import compare, load_reference, reference_outputs
from layers import PROBES, SpanView
from run import measure
from spans import NO_PARENT, Recorder, Tracer, resolve, self_times
from workloads import Overfit

HERE = Path(__file__).resolve().parent


def _recorder(spans):
    """A Recorder holding the given (name, start, end, parent) spans."""
    rec = Recorder()
    for name, start, end, parent in spans:
        i = rec.open(name)
        rec._open.pop()
        rec.starts[i], rec.ends[i], rec.parents[i] = start, end, parent
    return rec


def test_self_time_subtracts_the_union_of_children_clipped_to_the_parent():
    starts = [0.0, 1.0, 2.0, 8.0, 2.5]
    ends = [10.0, 3.0, 4.0, 12.0, 3.5]
    parents = [NO_PARENT, 0, 0, 0, 2]
    # span 0: children cover [1, 4] and [8, 10]; a grandchild does not count
    assert self_times(starts, ends, parents) == pytest.approx([5.0, 2.0, 1.0, 4.0, 1.0])


def test_busy_counts_nested_spans_of_the_same_set_once():
    rec = _recorder([
        ("bench.round", 0.0, 10.0, NO_PARENT),
        ("scene.joint_velocities", 1.0, 3.0, 0),
        ("scene.pose_at", 1.5, 2.0, 1),
        ("scene.pose_at", 4.0, 5.0, 0),
        ("scene.pose_at", 20.0, 21.0, NO_PARENT),  # outside any round
    ])
    view = SpanView(rec)
    assert view.busy(("scene.pose_at", "scene.joint_velocities")) == pytest.approx(3.0)
    assert view.busy(("scene.pose_at",)) == pytest.approx(1.5)


def _wrapped_attributes():
    return {(p.owner, p.attr): vars(resolve(p.owner))[p.attr] for p in PROBES}


def test_traced_run_restores_every_wrapped_name(tmp_path):
    before = _wrapped_attributes()
    res = measure(Overfit(steps=2), seed=3, seconds=0.01, trace=True, out_dir=tmp_path)
    after = _wrapped_attributes()
    assert all(after[key] is fn for key, fn in before.items())
    assert radarpose.scene.synthesize_frame is radarpose.fmcw.synthesize_frame
    assert radarpose.model.conv2d is radarpose.autodiff.conv2d
    layers = res["layers"]
    assert layers["autodiff.conv2d.calls"] > 0 and layers["autodiff.nodes_per_step"] > 0
    # the simulator ran in set-up only
    assert layers["isolation.scene_fmcw_calls"] == 0 and layers["fmcw.synthesize_busy_s"] == 0
    # per-frame counts describe the data, wherever it was rendered
    assert layers["scene.pose_at.calls_per_frame"] == 3
    assert layers["scene.reflectors_per_radar_frame"] > 0


def test_tracer_restores_after_an_exception():
    before = _wrapped_attributes()
    with pytest.raises(RuntimeError):
        with Tracer(Recorder(), PROBES):
            assert radarpose.scene.synthesize_frame is not radarpose.fmcw.synthesize_frame
            raise RuntimeError("boom")
    assert all(_wrapped_attributes()[key] is fn for key, fn in before.items())


def test_corrupted_reference_fails_the_check():
    reference = load_reference()["dataset"]
    actual = reference_outputs("dataset")
    assert compare("dataset", reference, actual) == []

    moved = copy.deepcopy(reference)
    moved["raw_points"][5] += 1e-3
    assert compare("dataset", moved, actual)

    recounted = copy.deepcopy(reference)
    recounted["raw_point_counts"][0] += 1
    assert compare("dataset", recounted, actual)


def test_mae_tolerance_boundary():
    expected = {"mae_cm": {"dual_cnn": 10.0}}
    assert compare("train", expected, {"mae_cm": {"dual_cnn": 10.0005}}) == []
    assert compare("train", expected, {"mae_cm": {"dual_cnn": 10.002}})
    assert compare("train", expected, {"mae_cm": {"dual_cnn": float("nan")}})


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "dataset", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode not in (0, None)
    assert proc.stdout == ""
