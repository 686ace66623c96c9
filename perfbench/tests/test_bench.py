"""Small-size tests of the benchmark itself: seeded inputs, the correctness
gate, and the traced run's counts.

    python3 -m pytest perfbench/tests -q
"""

import json

import pytest

import calibration
import reference
import run
import spans
import workloads


@pytest.fixture(scope="module")
def api():
    return run.import_fresh()


def light_deep_tasks(seed):
    """Deep-search tasks cheap enough for a test: levels below 10, all phi/psi."""
    block = workloads.make_blocks(workloads.WORKLOADS["deep-search"], seed, 1)[0]
    return [t for t in block if t[0] in ("phi", "psi") or t[2] < 10]


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_one_seed_always_generates_identical_inputs(name):
    wl = workloads.WORKLOADS[name]
    first = workloads.make_blocks(wl, 7, 2)
    assert workloads.make_blocks(wl, 7, 2) == first
    assert workloads.make_warmup(wl, 7) == workloads.make_warmup(wl, 7)
    assert workloads.make_blocks(wl, 8, 2) != first


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_block_composition_does_not_depend_on_seed(name):
    wl = workloads.WORKLOADS[name]

    def shape(seed):
        # kind and level/precision for deep-search, suite and depth for verify-oracle
        keys = {"cli-queries": lambda t: t[1][:2], "deep-search": lambda t: t[:1] + t[2:3], "verify-oracle": lambda t: t[1][:5]}
        return sorted(map(str, map(keys[name], workloads.make_blocks(wl, seed, 1)[0])))

    assert shape(1) == shape(2)


def test_cli_block_passes_the_gate(api):
    wl = workloads.WORKLOADS["cli-queries"]
    tasks = workloads.make_blocks(wl, 3, 1)[0]
    assert sum(t[0] == "malformed" for t in tasks) == 5
    outputs, _, _ = run.run_pass(wl, tasks, api)
    failed, failures = run.check_all(wl, tasks, outputs, workloads.CheckState(api))
    assert failed == 0, failures


def off_by_one(value):
    """The answer plus one, in the answer's own rendering."""
    if isinstance(value, int):
        return value + 1
    if ":" not in value:
        return str(int(value) + 1)
    p, n, v = reference.parse_digit_string(value)
    return reference.digit_string(v + 1, p, n)


def test_corrupted_cli_answer_is_counted(api):
    wl = workloads.WORKLOADS["cli-queries"]
    tasks = [t for t in workloads.make_blocks(wl, 3, 1)[0] if t[0] in ("iota", "count", "psi")][:12]
    outputs, _, _ = run.run_pass(wl, tasks, api)
    corrupted = []
    for code, out in outputs[:3]:
        record = json.loads(out)
        key = "count" if "count" in record["result"] else "value"
        record["result"][key] = off_by_one(record["result"][key])
        corrupted.append((code, json.dumps(record) + "\n"))
    failed, _ = run.check_all(wl, tasks, corrupted + outputs[3:], workloads.CheckState(api))
    assert failed == 3


def test_wrong_exit_code_is_counted(api):
    wl = workloads.WORKLOADS["cli-queries"]
    task = next(t for t in workloads.make_blocks(wl, 3, 1)[0] if t[0] == "malformed")
    code, out = wl.run(task, api)
    assert wl.check(task, (code, out), workloads.CheckState(api))
    failed, _ = run.check_all(wl, [task, task], [(code, out), (0, out)], workloads.CheckState(api))
    assert failed == 1


def test_corrupted_program_is_counted(api, monkeypatch):
    wl = workloads.WORKLOADS["deep-search"]
    tasks = light_deep_tasks(5)
    outputs, _, _ = run.run_pass(wl, tasks, api)
    assert run.check_all(wl, tasks, outputs, workloads.CheckState(api))[0] == 0

    count = api.count_fixed_points
    monkeypatch.setattr(api, "count_fixed_points", lambda q, n: count(q, n) + 1)
    outputs, _, _ = run.run_pass(wl, tasks, api)
    failed, _ = run.check_all(wl, tasks, outputs, workloads.CheckState(api))
    assert failed == sum(t[0] == "count" for t in tasks) > 0


def test_crash_is_a_failure_not_an_error(api, monkeypatch):
    wl = workloads.WORKLOADS["deep-search"]
    tasks = [t for t in light_deep_tasks(5) if t[0] == "psi"][:2]

    def broken(z, precision):
        raise ZeroDivisionError("injected")

    monkeypatch.setattr(api, "psi", broken)
    outputs, _, _ = run.run_pass(wl, tasks, api)
    assert run.check_all(wl, tasks, outputs, workloads.CheckState(api))[0] == 2


def traced_counts(wl, tasks, api):
    tracer = spans.Tracer()
    tracer.install(api)
    try:
        outputs, _, _ = run.run_pass(wl, tasks, api, tracer)
    finally:
        tracer.uninstall()
    assert run.check_all(wl, tasks, outputs, workloads.CheckState(api))[0] == 0
    stats = tracer.aggregate()
    counts = {name: (s["calls"], s["work"], s["outer_calls"], s["outer_work"], s["candidates"]) for name, s in stats.items()}
    metrics = run.layer_metrics(stats)
    return counts, {k: v for k, (v, unit) in metrics.items() if unit not in ("s", "1/s")}


def test_traced_counts_repeat_exactly(api):
    cases = [
        ("cli-queries", workloads.make_blocks(workloads.WORKLOADS["cli-queries"], 2, 1)[0][:40]),
        ("deep-search", light_deep_tasks(2)),
        ("verify-oracle", workloads.make_warmup(workloads.WORKLOADS["verify-oracle"], 2)),
    ]
    for name, tasks in cases:
        wl = workloads.WORKLOADS[name]
        first = traced_counts(wl, tasks, api)
        assert traced_counts(wl, tasks, api) == first
    counts, metrics = first
    assert metrics["oracle.kernel.calls"] > 0 and metrics["oracle.scan_steps"] > 0
    assert metrics["suites.cases"] > 0


def test_tracer_sees_every_layer_and_restores_it(api):
    before = (api.fixed_points.is_fixed, api.correspondence.is_fixed, api.PadicInt.__dict__["from_int"])
    wl = workloads.WORKLOADS["deep-search"]
    tasks = [t for t in light_deep_tasks(4) if t[0] == "phi"][:2] + [t for t in light_deep_tasks(4) if t[0] == "count"][:1]
    counts, metrics = traced_counts(wl, tasks, api)
    assert (api.fixed_points.is_fixed, api.correspondence.is_fixed, api.PadicInt.__dict__["from_int"]) == before
    assert metrics["fixed_points.is_fixed.calls"] > 0
    assert metrics["padic_core.from_int.calls"] > metrics["padic_core.qparameter.calls"] > 0
    assert metrics["fixed_points.candidates_per_search"] > 1
    assert 0 < metrics["fixed_points.search_hit_ratio"] < 1
    assert counts["correspondence.phi"][0] == 2


def test_self_time_excludes_children():
    tracer = spans.Tracer()
    inner = tracer._wrap("x.inner", lambda: sum(range(20000)))

    def outer_fn():
        inner()
        inner()

    outer = tracer._wrap("x.outer", outer_fn)
    outer()
    stats = tracer.aggregate()
    o, i = stats["x.outer"], stats["x.inner"]
    assert i["calls"] == 2 and o["calls"] == 1
    assert o["self_s"] == pytest.approx(o["total_s"] - i["total_s"])
    assert list(tracer.parent) == [-1, 0, 0]


def test_fingerprint_ignores_timing_only():
    record = {"command": ["x"], "result": {"suites": [{"cases": 3, "seconds": 0.5}]}, "timing": 0.7}
    first = run.fingerprint((0, json.dumps(record) + "\n"))
    record["timing"], record["result"]["suites"][0]["seconds"] = 0.1, 0.2
    assert run.fingerprint((0, json.dumps(record) + "\n")) == first
    record["result"]["suites"][0]["cases"] = 4
    assert run.fingerprint((0, json.dumps(record) + "\n")) != first
    assert run.fingerprint((1, json.dumps(record) + "\n")) != run.fingerprint((0, json.dumps(record) + "\n"))


# measure() imports qadic afresh for every round, so these run last.


def test_rounds_time_every_input_and_pass_the_gate(monkeypatch):
    wl = workloads.WORKLOADS["cli-queries"]
    monkeypatch.setattr(wl, "block_count", 1)
    result = run.measure(wl, 4, 0.05)
    detail = result["detail"]
    assert detail["inputs"] == 100 and detail["rounds"] == run.MIN_ROUNDS
    assert result["attempted"] == run.MIN_ROUNDS * 100
    assert result["failed"] == 0, result["failures"]
    assert len(detail["setup_runs_s"]) == run.MIN_ROUNDS
    assert detail["calibrations"] == run.MIN_ROUNDS * run.CALIBRATIONS_PER_ROUND
    m = {k: v for k, (v, unit) in result["metrics"].items()}
    assert 0 < m["latency_p50_ms"] <= m["latency_p90_ms"] <= m["latency_p99_ms"]
    assert m["ops_per_s"] > 0 and m["setup_s"] > 0
    # Timings are the raw ones at the reference machine's speed.
    scale = calibration.REFERENCE_S / detail["calibration_mean_s"]
    assert detail["scale"] == scale
    assert m["latency_p90_ms"] == pytest.approx(detail["raw"]["latency_p90_ms"] * scale)
    assert m["ops_per_s"] == pytest.approx(detail["raw"]["ops_per_s"] / scale)
    assert m["setup_s"] == pytest.approx(detail["raw"]["setup_s"] * scale)


def test_wrong_answer_in_a_later_round_is_counted(monkeypatch):
    wl = workloads.WORKLOADS["cli-queries"]
    monkeypatch.setattr(wl, "block_count", 1)
    set_up = run.set_up
    rounds = []

    def set_up_breaking_round_3(wl, seed):
        api, blocks, took = set_up(wl, seed)
        rounds.append(api)
        if len(rounds) == 3:
            real = api.cli.run
            monkeypatch.setattr(api.cli, "run", lambda argv: real(argv) + 8)
        return api, blocks, took

    monkeypatch.setattr(run, "set_up", set_up_breaking_round_3)
    result = run.measure(wl, 4, 0.05)
    assert result["detail"]["rounds"] == 3
    assert result["failed"] == result["detail"]["inputs"] == 100
