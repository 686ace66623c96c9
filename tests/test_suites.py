"""The verification-sweep registry itself: result bookkeeping, the runner
contract, and a smoke pass over the cheap suites."""

import re

import pytest

import qadic.suites
from qadic import _scan_py, cocycle, fixed_points, oracle
from qadic.errors import DomainError
from qadic.padic_core import INF, QParameter
from qadic.suites import DEFAULT_SUITES, SUITES, SuiteResult, run_suite, run_suites


def test_registry_shape():
    assert set(DEFAULT_SUITES) <= set(SUITES)
    assert len(SUITES) == 14
    assert "all" not in SUITES and "default" not in SUITES  # CLI-level aliases only


def test_default_suites_are_the_acceptance_set():
    assert DEFAULT_SUITES == (
        "cocycle-identity",
        "identities",
        "norm",
        "valuation",
        "criterion",
        "propagation",
        "roundtrip",
        "isometry",
    )


def test_result_bookkeeping():
    r = SuiteResult(name="demo")
    assert r.passed and r.cases == 0
    assert r.check(True, "never built")
    assert not r.check(False, lambda: "first failure")
    assert r.cases == 2 and r.failures == ["first failure"]
    assert not r.passed
    assert "FAIL" in r.summary() and "demo" in r.summary()


def test_failure_cap():
    r = SuiteResult(name="demo")
    for k in range(25):
        r.check(False, str(k))
    assert r.cases == 25
    assert len(r.failures) == 10
    assert r.saturated


def test_run_suite_unknown_name():
    with pytest.raises(KeyError):
        run_suite("no-such-suite")


def test_run_suite_records_timing_and_cases():
    r = run_suite("census", depth=4)
    assert r.passed and r.cases > 0 and r.seconds >= 0


def test_run_suites_preserves_order():
    names = ["census", "propagation", "roundtrip"]
    results = run_suites(names, depth=3)
    assert [r.name for r in results] == names
    assert all(r.passed for r in results)


def test_seed_reproducibility():
    a = run_suite("isometry", depth=4, seed=7)
    b = run_suite("isometry", depth=4, seed=7)
    assert (a.cases, a.failures) == (b.cases, b.failures)
    assert a.passed


@pytest.mark.parametrize(
    "name",
    ["cocycle-identity", "identities", "criterion", "propagation", "roundtrip", "isometry"],
)
def test_cheap_suites_pass_at_shallow_depth(name):
    r = run_suite(name, depth=3)
    assert r.passed, r.failures[:3]


# -- the oracle scans once per class q mod p^n ---------------------------------


@pytest.fixture
def pure_kernels(monkeypatch):
    """Run the suites on the pure kernels, whatever backend built here."""
    monkeypatch.setattr(oracle, "_impl", _scan_py)
    return _scan_py


def test_oracle_equivalence_scans_each_class_once(pure_kernels, monkeypatch):
    pair_calls, fixed_calls = [], []
    pair_sweep, fixed_residues = pure_kernels.pair_sweep, pure_kernels.fixed_residues

    def record_pairs(p, n, qs, a0s):
        pair_calls.append((p, n, list(qs)))
        return pair_sweep(p, n, qs, a0s)

    def record_fixed(q, p, n):
        fixed_calls.append((q, p, n))
        return fixed_residues(q, p, n)

    monkeypatch.setattr(pure_kernels, "pair_sweep", record_pairs)
    monkeypatch.setattr(pure_kernels, "fixed_residues", record_fixed)
    assert run_suite("oracle-equivalence", depth=3).passed

    assert pair_calls
    for p, n, qs in pair_calls:
        assert len(qs) == len(set(qs)) and all(0 <= q < p**n for q in qs)
    # fixed_residues serves the p = 2 sweep and the rich p = 3 stratum
    want = {(q % 2**n, 2, n) for n in range(1, 4) for q in range(1, 2 ** (n + 2), 2)}
    want |= {
        (q % 3**n, 3, n)
        for n in range(1, 4)
        for q in range(1, 3 ** (n + 2), 3)
        if q % 9 in (4, 7)
    }
    assert sorted(fixed_calls) == sorted(want)


def test_a_wrong_class_scan_fails_only_that_class(pure_kernels, monkeypatch):
    pair_sweep = pure_kernels.pair_sweep

    def corrupt(p, n, qs, a0s):
        mism, counts, sizes = pair_sweep(p, n, qs, a0s)
        counts = [c + (p == 3 and n == 3 and q == 10) for q, c in zip(qs, counts)]
        return mism, counts, sizes

    monkeypatch.setattr(pure_kernels, "pair_sweep", corrupt)
    r = run_suite("oracle-equivalence", depth=3)
    assert not r.passed
    named = [re.fullmatch(r"count p=3 n=3 q=(\d+): .*", f) for f in r.failures]
    assert all(named), r.failures
    assert {int(m.group(1)) % 27 for m in named} == {10}


def test_a_wrong_shared_fixed_set_fails_its_shape(pure_kernels, monkeypatch):
    real = fixed_points._pair_set

    def shifted(p, n, e):
        return real(p, n, e + 1) if (p, n) == (5, 3) else real(p, n, e)

    monkeypatch.setattr(fixed_points, "_pair_set", shifted)
    r = run_suite("oracle-equivalence", depth=3)
    assert not r.passed
    assert all(re.match(r"(descriptor|count) p=5 n=3 q=\d+: ", f) for f in r.failures), r.failures


def test_a_wrong_shared_image_fails_its_level(pure_kernels, monkeypatch):
    real = cocycle._pair_image

    def full_ring(p, n, e):
        return real(p, n, 0) if (p, n) == (2, 3) else real(p, n, e)

    monkeypatch.setattr(cocycle, "_pair_image", full_ring)
    r = run_suite("oracle-equivalence", depth=3)
    assert not r.passed
    named = [re.fullmatch(r"image p=2 n=3 q=(\d+): .*", f) for f in r.failures]
    assert all(named), r.failures
    assert {int(m.group(1)) % 4 for m in named} == {3}  # only the pair-shaped images


def test_a_wrong_m0_fails_only_its_prime(pure_kernels, monkeypatch):
    # the oracle route takes no metadata from QParameter, so it guards m0
    real = QParameter.__init__

    def m0_one_too_large(self, value):
        real(self, value)
        if self.prime == 5 and self.m0 is not INF:
            self.m0 += 1

    monkeypatch.setattr(QParameter, "__init__", m0_one_too_large)
    r = run_suite("oracle-equivalence", depth=3)
    assert not r.passed
    assert all(re.match(r"[a-z]+ p=5 ", f) for f in r.failures), r.failures


def test_a_suite_run_keeps_no_shapes_past_its_end(monkeypatch):
    # a fault patched into one test cannot hide behind a value built in another
    memos = (fixed_points._pair_set, cocycle._pair_image)
    assert run_suite("oracle-equivalence", depth=2).passed
    assert [m.cache_info().currsize for m in memos] == [0, 0]

    def fails_midway(res, top, rng):
        fixed_points._pair_set(5, 3, 1)
        cocycle._pair_image(2, 3, 2)
        assert [m.cache_info().currsize for m in memos] == [1, 1]
        raise RuntimeError("injected")

    monkeypatch.setitem(SUITES, "valuation", fails_midway)
    with pytest.raises(RuntimeError, match="injected"):
        run_suite("valuation", depth=2)
    assert [m.cache_info().currsize for m in memos] == [0, 0]


def test_oracle_equivalence_grid_on_the_pure_backend(pure_kernels):
    # the p in {5, 7} columns pass 600 parameters from n = 3 on
    for depth, cases in ((3, 9329), (4, 16510)):
        subsampled = [
            f"pure backend: p={p} n={n} column subsampled to 600 parameters"
            for p in (5, 7)
            for n in range(3, depth + 1)
        ]
        for seed in (0, 1):
            r = run_suite("oracle-equivalence", depth=depth, seed=seed)
            assert r.passed and r.cases == cases
            assert r.notes == subsampled


# -- the order suite ------------------------------------------------------------


def test_order_suite_on_the_pure_backend(pure_kernels):
    r = run_suite("order", depth=5)
    assert r.passed and r.cases == 3815
    assert r.notes == [f"pure backend: p={p} order grid capped at n<=4" for p in (5, 7)]


def test_a_wrong_mult_order_fails_the_order_suite(pure_kernels, monkeypatch):
    real = qadic.suites.mult_order

    def wrong(x, n):
        o = real(x, n)
        return 7 * o if (x.prime, n, x.lift()) == (7, 4, 3) else o

    monkeypatch.setattr(qadic.suites, "mult_order", wrong)
    r = run_suite("order", depth=3)
    assert not r.passed
    assert r.failures == ["order p=7 n=4 q=3: formula 14406, iteration 2058"]


# -- one table declares every suite's reach -------------------------------------

#: (cases, notes, top level) of every suite at depth 3, seed 0, pure kernels.
GRIDS_AT_DEPTH_THREE = {
    "cocycle-identity": (500, [], 3),
    "identities": (865, [], 3),
    "norm": (5445, [], 3),
    "valuation": (10970, [], 3),
    "sums": (131, [], 4),
    "oracle-equivalence": (
        9329,
        [f"pure backend: p={p} n=3 column subsampled to 600 parameters" for p in (5, 7)],
        3,
    ),
    "criterion": (15688, [], 3),
    "census": (13, [], 6),
    "propagation": (115, [], 6),
    "exceptional-minimality": (24, [], 7),
    "stability": (148, [], 12),
    "roundtrip": (859, [], 8),
    "isometry": (200, [], 10),
    "order": (3119, [f"pure backend: p={p} order grid capped at n<=4" for p in (5, 7)], 4),
}


def test_every_grid_at_depth_three(pure_kernels):
    results = run_suites(list(SUITES), depth=3, seed=0)
    assert all(r.passed for r in results)
    assert {r.name: (r.cases, r.notes, r.top_level) for r in results} == GRIDS_AT_DEPTH_THREE


@pytest.mark.parametrize("depth", [0, -3])
def test_every_suite_refuses_a_depth_below_one(depth, monkeypatch):
    def boom(*args):
        raise AssertionError("a suite ran")

    for name in SUITES:
        monkeypatch.setitem(SUITES, name, boom)
    message = f"^--depth must be at least 1, got {depth}$"
    for name in SUITES:
        with pytest.raises(DomainError, match=message):
            run_suite(name, depth=depth)
    with pytest.raises(DomainError, match=message):
        run_suites(list(SUITES), depth=depth)
