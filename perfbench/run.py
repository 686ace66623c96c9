"""Seeded, self-checking benchmark of qadic.

    python3 perfbench/run.py --workload cli-queries --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10

Run from the repository root.  Each workload runs in this one process, as
a closed loop with a single client.  With --trace 0 it times the seed's
inputs (whole blocks, see workloads.py) in rounds for --seconds and reports
the end-to-end metrics from each input's mean timing, converted to a
reference machine's speed (calibration.py); with --trace 1 it runs a fixed
slice of the inputs twice, untraced and then with spans recorded around
every qadic layer, and reports the per-layer metrics.  Every answer is
checked against an independent recomputation.
The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics; the line before it is the result row with
its provenance.  Rows, build logs and spans go under .bench_build/.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from array import array
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_build"
sys.path.insert(0, str(HERE))

import calibration  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

# Fewest timings of each input in an untraced run, however short.
MIN_ROUNDS = 3
# Timings of the calibration loop per round, spread over its blocks.
CALIBRATIONS_PER_ROUND = 10
# Blocks run by the traced pass: a fixed slice, so its counts repeat exactly.
TRACE_BLOCKS = {"cli-queries": 2, "deep-search": 1, "verify-oracle": 1}
# Digits the cold exceptional_q probe asks for: the most a cli-queries query asks.
COLD_DIGITS = 24


def build_program() -> dict:
    """Build the package's optional extension in place, once per checkout.

    setup.py compiles the scan kernels when its toolchain is present and
    builds nothing otherwise; qadic then runs on its pure-Python kernels.
    """
    marker = OUT / "build.json"
    if marker.is_file():
        return json.loads(marker.read_text())
    OUT.mkdir(exist_ok=True)
    started = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "setup.py", "build_ext", "--inplace", "--build-temp", str(OUT / "temp")],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=800,
    )
    (OUT / "build.log").write_text(proc.stdout + proc.stderr)
    status = {"returncode": proc.returncode, "seconds": round(time.perf_counter() - started, 3)}
    marker.write_text(json.dumps(status))
    return status


def import_fresh():
    """Import qadic from this checkout's src/, dropping any earlier import of
    its Python modules so that import time and module state start cold."""
    for name in [m for m in sys.modules if m == "qadic" or m.startswith("qadic.")]:
        if str(getattr(sys.modules[name], "__file__", "")).endswith(".py"):
            del sys.modules[name]
    api = importlib.import_module("qadic")
    if Path(api.__file__).resolve().parent != ROOT / "src" / "qadic":
        raise ImportError(f"imported qadic from {api.__file__}, not from this checkout")
    importlib.import_module("qadic.cli")
    importlib.import_module("qadic.oracle")
    return api


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git; "unknown"
    when the checkout is not a git repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_pass(wl, tasks, api, tracer=None) -> tuple[list, list[float], float]:
    """Run tasks in order; returns (outputs, latencies, wall seconds)."""
    outputs, latencies = [], []
    clock = time.perf_counter
    t_start = clock()
    for i, task in enumerate(tasks):
        if tracer is not None:
            tracer.op_id = i
        t0 = clock()
        try:
            out = wl.run(task, api)
        except Exception as exc:  # a crash is a failed operation, not a benchmark error
            out = exc
        latencies.append(clock() - t0)
        outputs.append(out)
    return outputs, latencies, clock() - t_start


def check_one(wl, task, out, state: workloads.CheckState) -> tuple[bool, object]:
    """Whether one output is right; an unreadable answer is a wrong answer,
    returned in its place."""
    if isinstance(out, Exception):
        return False, out
    try:
        return bool(wl.check(task, out, state)), out
    except Exception as exc:
        return False, exc


def note_failure(failures: list[str], task, out) -> None:
    if len(failures) < 5:
        failures.append(f"{task!r:.300} -> {out!r:.300}")


def check_all(wl, tasks, outputs, state: workloads.CheckState) -> tuple[int, list[str]]:
    """Check every output; returns (failed count, the first few failures)."""
    failed, failures = 0, []
    for task, out in zip(tasks, outputs):
        ok, out = check_one(wl, task, out, state)
        if not ok:
            failed += 1
            note_failure(failures, task, out)
    return failed, failures


def fingerprint(out) -> bytes:
    """A digest of an output without its timing fields, so that repeats of
    one call compare equal and a run keeps 16 bytes per input."""
    if isinstance(out, tuple):  # (exit code, stdout) of a cli call
        code, text = out
        try:
            out = code, _drop_timing(json.loads(text))
        except ValueError:
            pass
    else:
        out = str(out)
    return hashlib.blake2b(repr(out).encode(), digest_size=16).digest()


def _drop_timing(value):
    if isinstance(value, dict):
        return {k: _drop_timing(v) for k, v in value.items() if k not in ("timing", "seconds")}
    if isinstance(value, list):
        return [_drop_timing(v) for v in value]
    return value


def set_up(wl, seed: int):
    """Import qadic afresh, make the inputs and warm up; returns (api, blocks, seconds)."""
    gc.collect()  # each set-up starts from the same heap, not the last one's garbage
    t0 = time.perf_counter()
    api = import_fresh()
    blocks = workloads.make_blocks(wl, seed)
    for task in workloads.make_warmup(wl, seed):
        wl.run(task, api)
    return api, blocks, time.perf_counter() - t0


def measure(wl, seed: int, seconds: float) -> dict:
    """The untraced run: rounds over one set of inputs, each input's mean
    timing converted to the reference machine's speed.

    The machine this runs on is shared, and its speed drifts over seconds
    and over minutes.  Each input is timed once per round; the rounds run
    back to back until `seconds` of timed calls (MIN_ROUNDS at least).
    Before each block the calibration loop is timed too; its mean timing
    measures the machine's speed over the same stretch, and scales every
    timing to the reference machine (see calibration.py).  The raw figures
    are kept in the row's detail.

    The inputs are the workload's blocks for the seed, the same in every
    round and on every machine.  Round 1's answers are checked against the
    reference, outside the timed calls; a later answer must equal round 1's.
    Set-up is repeated before each later round, so its median sees the same
    machine as the timed calls.
    """
    api, blocks, first = set_up(wl, seed)
    setups = [first]
    state = workloads.CheckState(api)
    per_block = max(1, CALIBRATIONS_PER_ROUND // len(blocks))
    calibrations = array("d")
    total = [array("d", bytes(8 * len(block))) for block in blocks]
    answers = [[None] * len(block) for block in blocks]
    failed, failures, units, timed, rounds = 0, [], 0, 0.0, 0
    while rounds < MIN_ROUNDS or timed < seconds:
        if rounds:
            api = None
            api, _, took = set_up(wl, seed)
            setups.append(took)
        for b, block in enumerate(blocks):
            calibrations.extend(calibration.measure() for _ in range(per_block))
            outputs, lat, wall = run_pass(wl, block, api)
            timed += wall
            for i, (task, out) in enumerate(zip(block, outputs)):
                total[b][i] += lat[i]
                if rounds == 0:
                    ok, out = check_one(wl, task, out, state)
                    if ok:
                        answers[b][i] = fingerprint(out)
                        units += wl.units(task, out)
                else:
                    ok = answers[b][i] is not None and not isinstance(out, Exception)
                    ok = ok and fingerprint(out) == answers[b][i]
                if not ok:
                    failed += 1
                    note_failure(failures, task, out)
        rounds += 1
    mean = [t / rounds for block in total for t in block]

    pct = statistics.quantiles(mean, n=100, method="inclusive")
    raw = {
        "setup_s": statistics.median(setups),
        "ops_per_s": units / sum(mean),
        "latency_p50_ms": pct[49] * 1e3,
        "latency_p90_ms": pct[89] * 1e3,
        "latency_p99_ms": pct[98] * 1e3,
    }
    scale = calibration.REFERENCE_S / statistics.fmean(calibrations)
    metrics = {
        "setup_s": (raw["setup_s"] * scale, "s"),
        "ops_per_s": (raw["ops_per_s"] / scale, "1/s"),
        "latency_p50_ms": (raw["latency_p50_ms"] * scale, "ms"),
        "latency_p90_ms": (raw["latency_p90_ms"] * scale, "ms"),
        "latency_p99_ms": (raw["latency_p99_ms"] * scale, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    return {
        "api": api,
        "attempted": rounds * len(mean),
        "failed": failed,
        "failures": failures,
        "state": state,
        "metrics": metrics,
        "detail": {
            "inputs": len(mean),
            "rounds": rounds,
            "units": units,
            "round_s": sum(mean),
            "timed_s": timed,
            "setup_runs_s": setups,
            "calibrations": len(calibrations),
            "calibration_mean_s": statistics.fmean(calibrations),
            "calibration_best_s": min(calibrations),
            "scale": scale,
            "raw": raw,
        },
    }


def measure_traced(wl, seed: int) -> dict:
    """The traced run: a fixed slice of the inputs, untraced then traced."""
    api = import_fresh()
    t0 = time.perf_counter()
    for branch in ("seven", "four"):
        api.exceptional_q(branch, COLD_DIGITS)
    cold_ms = (time.perf_counter() - t0) * 1e3

    tasks = [t for block in workloads.make_blocks(wl, seed, TRACE_BLOCKS[wl.name]) for t in block]
    for task in workloads.make_warmup(wl, seed):
        wl.run(task, api)
    _, _, wall_plain = run_pass(wl, tasks, api)
    tracer = spans.Tracer()
    tracer.install(api)
    try:
        outputs, _, wall_traced = run_pass(wl, tasks, api, tracer)
    finally:
        tracer.uninstall()

    state = workloads.CheckState(api)
    failed, failures = check_all(wl, tasks, outputs, state)
    stats = tracer.aggregate()
    OUT.mkdir(exist_ok=True)
    tracer.write(OUT / f"spans-{wl.name}.tsv.gz")  # the latest traced run only: the files are large
    metrics = layer_metrics(stats)
    metrics["correspondence.exceptional_q.cold_ms"] = (cold_ms, "ms")
    metrics["tasks.no_rooted_share"] = (state.no_rooted / len(tasks), "ratio")
    metrics["trace.overhead_frac"] = (wall_traced / wall_plain - 1, "ratio")
    metrics["trace.spans"] = (len(tracer), "count")
    return {
        "api": api,
        "attempted": len(tasks),
        "failed": failed,
        "failures": failures,
        "state": state,
        "metrics": metrics,
        "detail": {"wall_plain_s": wall_plain, "wall_traced_s": wall_traced},
    }


def layer_metrics(stats: dict) -> dict:
    def get(name, key):
        return stats.get(name, {}).get(key, 0)

    def total(prefix, key="self_s"):
        return sum(s[key] for name, s in stats.items() if name.startswith(prefix))

    searches = get("fixed_points.find_rooted", "calls") + get("correspondence.phi", "calls")
    hits = get("fixed_points.find_rooted", "work") + get("correspondence.phi", "work")
    candidates = get("fixed_points.is_fixed", "candidates")
    kernel_self = total("oracle.kernel.")
    steps = total("oracle.kernel.", "outer_work")
    metrics = {
        "cli.build_parser.self_s": (get("cli.build_parser", "self_s"), "s"),
        "cli.run.self_s": (get("cli.run", "self_s"), "s"),
        "cli.run.calls": (get("cli.run", "calls"), "count"),
        "padic_core.from_int.calls": (get("padic_core.PadicInt.from_int", "calls"), "count"),
        "padic_core.qparameter.calls": (get("padic_core.QParameter.__init__", "calls"), "count"),
        "cocycle.iota_eval.calls": (get("cocycle.iota_eval", "calls"), "count"),
        "cocycle.iota_eval.self_s": (get("cocycle.iota_eval", "self_s"), "s"),
        "cocycle.image_kernel.self_s": (
            get("cocycle.image_description", "self_s") + get("cocycle.kernel_order", "self_s"),
            "s",
        ),
        "fixed_points.is_fixed.calls": (get("fixed_points.is_fixed", "calls"), "count"),
        "fixed_points.is_fixed.self_s": (get("fixed_points.is_fixed", "self_s"), "s"),
        "fixed_points.find_rooted.self_s": (get("fixed_points.find_rooted", "self_s"), "s"),
        "fixed_points.candidates_per_search": (candidates / searches if searches else 0.0, "count"),
        "fixed_points.search_hit_ratio": (hits / candidates if candidates else 0.0, "ratio"),
        "correspondence.phi.self_s": (get("correspondence.phi", "self_s"), "s"),
        "correspondence.psi.self_s": (get("correspondence.psi", "self_s"), "s"),
        "correspondence.exceptional_q.self_s": (get("correspondence.exceptional_q", "self_s"), "s"),
        "oracle.kernel.calls": (total("oracle.kernel.", "outer_calls"), "count"),
        "oracle.kernel.self_s": (kernel_self, "s"),
        "oracle.scan_steps": (steps, "count"),
        "oracle.scan_steps_per_s": (steps / kernel_self if kernel_self else 0.0, "1/s"),
        "suites.run_suite.self_s": (get("suites.run_suite", "self_s"), "s"),
        "suites.cases": (get("suites.run_suite", "work"), "count"),
    }
    for layer in spans.LAYERS:
        metrics[f"{layer}.self_s"] = (total(layer + "."), "s")
    return metrics


def run_one(args) -> int:
    wl = workloads.WORKLOADS[args.workload]
    build = build_program()
    sys.path.insert(0, str(ROOT / "src"))
    result = measure_traced(wl, args.seed) if args.trace else measure(wl, args.seed, args.seconds)
    api, state = result["api"], result["state"]
    attempted, failed = result["attempted"], result["failed"]
    row = {
        "workload": wl.name,
        "trace": args.trace,
        "provenance": {
            "backend": api.oracle.backend(),
            "python": platform.python_version(),
            "commit": git_commit(),
            "nproc": len(os.sched_getaffinity(0)),
            "seed": args.seed,
            "seconds": args.seconds,
            "build": build,
        },
        "failed_frac": failed / attempted,
        "no_rooted_share": state.no_rooted / attempted,
        "verify_notes": sorted(state.notes),
        "failures": result["failures"],
        "detail": result["detail"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in result["metrics"].items()},
    }
    OUT.mkdir(exist_ok=True)
    (OUT / f"row-{wl.name}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(row, indent=1))
    print(json.dumps(row))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": row["metrics"]}))
    return 0


def run_all(args) -> int:
    """Every workload in its own process, untraced then traced, as a table."""
    rows, correct, attempted, failed = {}, True, 0, 0
    for name in workloads.WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr)
                return proc.returncode
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            correct &= result["correct"]
            attempted += result["attempted"]
            failed += result["failed"]
            print(f"{name}  trace={trace}  attempted={result['attempted']}  failed={result['failed']}")
            for metric, m in result["metrics"].items():
                print(f"  {metric:<40} {m['value']:>16.6g} {m['unit']}")
                rows[f"{name}/{metric}"] = m
    (OUT / f"summary-seed{args.seed}.json").write_text(json.dumps(rows, indent=1))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": rows}))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "qadic" / "__init__.py").is_file():
        print(f"error: no qadic package under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
