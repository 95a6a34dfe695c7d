"""radarpose benchmark: run one workload, check its outputs, print its metrics.

    python3 perfbench/run.py --workload dataset|train|overfit|all \\
        --seed N --seconds S --trace 0|1

Run it from the root of a source checkout; it imports ``radarpose`` from
``src/`` there and nowhere else. Set-up runs three times (median reported),
then rounds of the workload's fixed work repeat until ``--seconds`` have
passed. ``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs half
the time untraced and half traced, and prints the per-layer metrics and the
tracing overhead. The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``. Spans and a full result
file go to ``.perfbench_out/`` in the checkout.

Exit status: 0 when every check passed, 1 when one failed, 2 when the
checkout or the arguments are unusable (nothing is printed on stdout then).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
OUT_DIR = ROOT / ".perfbench_out"
WORKLOAD_NAMES = ("dataset", "train", "overfit")
SETUP_REPEATS = 3
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def usable_cores() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def limit_blas_threads() -> None:
    """One BLAS thread, whatever the environment says; must run before numpy loads.

    On a shared 2-core host, runs with two threads spread about four times
    wider than runs with one, at the same median speed for these matrix sizes.
    """
    for var in BLAS_VARS:
        os.environ[var] = "1"


def _blas_threads():
    """Thread count reported by numpy's OpenBLAS, or None when not found."""
    import ctypes
    import glob

    import numpy as np

    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*"))
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def import_seconds(src: Path) -> list[float]:
    """Wall time of ``import radarpose`` in fresh interpreters, one per set-up repeat."""
    code = "import time, numpy; t = time.perf_counter(); import radarpose; print(time.perf_counter() - t)"
    env = {**os.environ, "PYTHONPATH": str(src)}
    times = []
    for _ in range(SETUP_REPEATS):
        child = subprocess.run(
            [sys.executable, "-c", code], cwd=ROOT, env=env, capture_output=True, text=True, check=True, timeout=120
        )
        times.append(float(child.stdout))
    return times


def environment(workload: str, seed: int, trace: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "cores": os.cpu_count(),
        "cores_usable": usable_cores(),
        "machine": platform.machine(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": _blas_threads(),
        "blas_threads_env": {var: os.environ.get(var) for var in BLAS_VARS},
    }


# ---------------------------------------------------------------------------
# measuring
# ---------------------------------------------------------------------------

def _loop(workload, state, seconds: float, rec, label: str, res: dict) -> list:
    """Closed loop: rounds back to back until ``seconds`` have passed (at least one).

    A round's wall time covers only ``run_round``, the program's work; its
    outputs are checked after the timer stops.
    """
    done = []
    t_start = time.perf_counter()
    while not done or time.perf_counter() - t_start < seconds:
        rec.begin_run(f"{label}{len(done)}")
        try:
            t0 = time.perf_counter()
            with rec.span("bench.round"):
                outputs = workload.run_round(state, rec)
            wall = time.perf_counter() - t0
            result = workload.check_round(state, outputs)  # outside the timer
        except Exception:  # a round that raises is a failed operation, reported below
            res["crashed"] += 1
            res["problems"].append(f"{workload.name}: a round raised\n{traceback.format_exc()}")
            break
        result.wall = wall
        done.append(result)
        if "peak_rss_mb" not in res:
            # set-up and one round; later rounds only add allocator fragmentation
            res["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return done


def measure(workload, seed: int, seconds: float, trace: bool, out_dir: Path = OUT_DIR) -> dict:
    """Set up, run rounds, check outputs; with ``trace`` also derive per-layer metrics."""
    import checks
    from layers import PROBES, layer_metrics
    from spans import NullRecorder, Recorder, Tracer
    from workloads import N_RADARS

    workdir = out_dir / f"work-{workload.name}-{seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    res = {"setup": [], "rounds": [], "traced": [], "problems": [], "crashed": 0, "layers": {}}
    label = f"{workload.name}/seed{seed}/"
    try:
        if trace:
            rec = Recorder()
            rec.begin_run(label + "setup")
            with Tracer(rec, PROBES), rec.span("bench.setup"):
                state = workload.setup(seed, workdir)
            res["rounds"] = _loop(workload, state, seconds / 2, NullRecorder(), label + "untraced", res)
            with Tracer(rec, PROBES):
                res["traced"] = _loop(workload, state, seconds / 2, rec, label + "round", res)
        else:
            for _ in range(SETUP_REPEATS):
                t0 = time.perf_counter()
                state = workload.setup(seed, workdir)
                res["setup"].append(time.perf_counter() - t0)
            res["rounds"] = _loop(workload, state, seconds, NullRecorder(), label + "round", res)

        every = res["rounds"] + res["traced"]
        for r in every:
            res["problems"] += r.problems
        if len({r.digest for r in every}) > 1:
            res["problems"].append(f"{workload.name}: rounds of identical work gave different outputs")
        if every:
            res["problems"] += workload.verify(state, every[-1])
            res["shape"] = workload.shape(state, every[-1])
        res["problems"] += checks.check_reference(workload.name)

        if trace:
            layer = layer_metrics(rec, N_RADARS)
            layer.update(res.get("shape", {}))
            untraced = statistics.median(r.wall for r in res["rounds"]) if res["rounds"] else 0.0
            traced = statistics.median(r.wall for r in res["traced"]) if res["traced"] else 0.0
            layer["trace.overhead_frac"] = traced / untraced - 1.0 if untraced and traced else 0.0
            res["layers"] = layer
            out_dir.mkdir(parents=True, exist_ok=True)
            rec.write(out_dir / f"spans-{workload.name}-seed{seed}.jsonl.gz")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return res


# ---------------------------------------------------------------------------
# reporting
# ---------------------------------------------------------------------------

def _median_rate(rounds, key):
    rates = [r.rates[key][0] / r.rates[key][1] for r in rounds if r.rates[key][1] > 0]
    return statistics.median(rates) if rates else 0.0


def tally(res: dict) -> tuple[int, int]:
    """(operations attempted, operations failed); a round that raised counts once."""
    every = res["rounds"] + res["traced"]
    return sum(r.ops for r in every) + res["crashed"], sum(r.failed for r in every) + res["crashed"]


def report_rows(res: dict, import_s: list[float]) -> list[tuple]:
    """(name, value, unit, samples) for every end-to-end metric of the run."""
    rounds = res["rounds"]
    attempted, failed = tally(res)
    rows = []
    if res["setup"]:
        # a fresh interpreter's import, plus the workload's own set-up
        rows.append(("import_s", statistics.median(import_s), "s", len(import_s)))
        rows.append(("setup_s", statistics.median(import_s) + statistics.median(res["setup"]), "s", len(res["setup"])))
    walls = [r.wall for r in rounds]
    rows.append(("wall_s", statistics.median(walls) if walls else 0.0, "s", len(walls)))
    rows.append(("peak_rss_mb", res.get("peak_rss_mb", 0.0), "MB", 1))
    rows.append(("ok_frac", (attempted - failed) / attempted if attempted else 0.0, "ratio", attempted))
    rows.append(("failed_frac", failed / attempted if attempted else 1.0, "ratio", attempted))
    if rounds:
        for key in rounds[0].rates:
            rows.append((key, _median_rate(rounds, key), "1/s", len(rounds)))
        for key in rounds[0].values:
            unit = "cm" if key.startswith("mae_cm") else "loss"
            rows.append((key, statistics.median(r.values[key] for r in rounds), unit, len(rounds)))
    for key, value in res.get("shape", {}).items():
        rows.append((key, value, "ratio" if key.endswith("_frac") else "count", 1))
    return rows


def run_one(args, import_s: list[float]) -> int:
    from layers import COMPUTED
    from workloads import WORKLOADS

    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    env = environment(args.workload, args.seed, args.trace)
    res = measure(WORKLOADS[args.workload](), args.seed, args.seconds, bool(args.trace))
    rows = report_rows(res, import_s)
    by_name = {name: value for name, value, _, _ in rows}
    attempted, failed = tally(res)

    print(f"# env {json.dumps(env)}")
    print(f"# {args.workload}: {len(res['rounds'])} untraced and {len(res['traced'])} traced rounds")
    for name, value, unit, n in rows:
        print(f"{name:<44} {value:>16.6g} {unit:<6} n={n}")
    if args.trace:
        for m in bench["per_layer"]:
            label = "  (computed)" if m["name"] in COMPUTED else ""
            print(f"{m['name']:<44} {res['layers'].get(m['name'], 0.0):>16.6g} {m['unit']:<6}{label}")
    for problem in res["problems"]:
        print(f"# FAIL {problem}")

    if args.trace:
        wanted = bench["per_layer"]
        metrics = {m["name"]: {"value": res["layers"].get(m["name"], 0.0), "unit": m["unit"]} for m in wanted}
    else:
        metrics = {m["name"]: {"value": by_name[m["name"]], "unit": m["unit"]} for m in bench["end_to_end"]}
    correct = not res["problems"] and failed == 0
    final = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}

    OUT_DIR.mkdir(parents=True, exist_ok=True)
    result_path = OUT_DIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    result_path.write_text(
        json.dumps(
            {
                "env": env,
                "rows": rows,
                "setup_s": res["setup"],
                "round_wall_s": [r.wall for r in res["rounds"]],
                "traced_round_wall_s": [r.wall for r in res["traced"]],
                "per_layer": res["layers"],
                "problems": res["problems"],
                "result": final,
            },
            indent=1,
        ),
        encoding="utf-8",
    )
    print(json.dumps(final))
    return 0 if correct else 1


def run_all(args) -> int:
    """Each workload in its own child process, one after the other."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        child = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=False)
        lines = child.stdout.rstrip("\n").split("\n")
        print("\n".join(lines[:-1]))
        status = max(status, child.returncode)
        try:
            last = json.loads(lines[-1])
        except json.JSONDecodeError:
            print(lines[-1])
            merged["correct"] = False
            continue
        merged["correct"] &= last["correct"]
        merged["attempted"] += last["attempted"]
        merged["failed"] += last["failed"]
        merged["metrics"].update({f"{name}.{k}": v for k, v in last["metrics"].items()})
    print(json.dumps(merged))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    src = ROOT / "src"
    if not (src / "radarpose" / "__init__.py").is_file() or not (ROOT / "BENCHMARK.json").is_file():
        print(f"perfbench: no radarpose sources under {src} (run from a full checkout)", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)

    limit_blas_threads()
    sys.path.insert(0, str(src))
    import radarpose

    if Path(radarpose.__file__).resolve().parent != (src / "radarpose").resolve():
        print(f"perfbench: imported radarpose from {radarpose.__file__}, not {src}", file=sys.stderr)
        return 2
    return run_one(args, [] if args.trace else import_seconds(src))


if __name__ == "__main__":
    sys.exit(main())
