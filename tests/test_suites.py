"""The verification-sweep registry itself: result bookkeeping, the runner
contract, and a smoke pass over the cheap suites."""

import re

import pytest

import qadic.suites
from qadic import _scan_py, oracle
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
