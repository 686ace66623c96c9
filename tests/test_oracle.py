"""Brute-force reference route: scan kernels, backend selection, budgets.

The parity tests compare the compiled kernels against the pure-Python twin
directly, so they exercise both backends no matter which one the package
selected at import time.  They, and the default-backend check, are skipped
when the compiled extension is not built; everything else runs on either
backend.
"""

import inspect
import os
import random

import pytest

from qadic import _scan_py, oracle
from qadic.errors import DomainError, PrecisionError, ResourceError
from qadic.padic_core import PadicInt, QParameter


try:
    import qadic._fastscan as fastscan
except ImportError:
    fastscan = None

needs_compiled = pytest.mark.skipif(fastscan is None, reason="qadic._fastscan is not built")


def qp(value: int, p: int, precision: int) -> QParameter:
    return QParameter(PadicInt.from_int(value, p, precision))


# -- backend selection -------------------------------------------------------


@needs_compiled
@pytest.mark.skipif(
    os.environ.get("QADIC_BACKEND") == "pure",
    reason="pure backend forced via environment",
)
def test_compiled_backend_is_active_by_default():
    assert oracle.backend() == "compiled"
    assert oracle.kernels() is fastscan


def test_backend_reports_a_known_name():
    assert oracle.backend() in ("compiled", "pure")


# -- compiled vs pure parity -------------------------------------------------

PARITY_GRID = [(2, 6), (3, 4), (5, 3), (7, 2)]


def _unit_sample(p: int, n: int) -> list[int]:
    M = p**n
    step = max(1, M // 40)
    return [q for q in range(1, M, step) if q % p != 0]


@needs_compiled
@pytest.mark.parametrize("p,n", PARITY_GRID)
def test_fixed_residues_parity(p, n):
    for q in _unit_sample(p, n):
        assert fastscan.fixed_residues(q, p, n) == _scan_py.fixed_residues(q, p, n), q


@needs_compiled
@pytest.mark.parametrize("p,n", PARITY_GRID)
def test_order_sweep_parity(p, n):
    qs = list(range(p**n))
    assert list(fastscan.order_sweep(p, n, qs)) == _scan_py.order_sweep(p, n, qs)


@needs_compiled
@pytest.mark.parametrize("p,n", PARITY_GRID)
def test_pair_sweep_parity(p, n):
    qs = _unit_sample(p, n)
    # arbitrary but deterministic cutoffs: parity must hold whatever the rule
    a0s = [(q % 7) + 1 for q in qs]
    fast = fastscan.pair_sweep(p, n, qs, a0s)
    pure = _scan_py.pair_sweep(p, n, qs, a0s)
    assert [list(x) for x in fast] == [list(x) for x in pure]


@needs_compiled
def test_order_of_parity_includes_nonunits():
    for M in (16, 81, 125):
        for q in range(M):
            assert fastscan.order_of(q, M) == _scan_py.order_of(q, M), (q, M)


# -- brute fixed points ------------------------------------------------------


def test_brute_fixed_p2():
    assert oracle.brute_fixed_points(5, 2, 4) == [0, 1, 8, 9]


def test_brute_fixed_rich_spot():
    pts = oracle.brute_fixed_points(4, 3, 4)
    assert len(pts) == 21
    assert 0 in pts and 1 in pts and 40 in pts


def test_brute_fixed_accepts_all_parameter_forms():
    as_int = oracle.brute_fixed_points(7, 3, 3)
    as_padic = oracle.brute_fixed_points(PadicInt.from_int(7, 3, 5), n=3)
    as_param = oracle.brute_fixed_points(qp(7, 3, 5), n=3)
    assert as_int == as_padic == as_param


def test_brute_fixed_argument_errors():
    with pytest.raises(DomainError):
        oracle.brute_fixed_points(7, n=3)  # int q with no prime
    with pytest.raises(DomainError):
        oracle.brute_fixed_points(PadicInt.from_int(7, 3, 5), p=5, n=3)
    with pytest.raises(PrecisionError):
        oracle.brute_fixed_points(PadicInt.from_int(7, 3, 2), n=3)


# -- brute images ------------------------------------------------------------


def test_brute_image_covers_ring_for_odd_u1():
    assert oracle.brute_image(4, 3, 4) == list(range(81))


def test_brute_image_two_cosets_p2():
    assert oracle.brute_image(3, 2, 4) == [0, 1, 4, 5, 8, 9, 12, 13]


def test_brute_image_outside_u1():
    img = oracle.brute_image(2, 5, 2)
    assert img == [z for z in range(25) if z % 5 != 4]


def test_brute_image_rejects_nonunit():
    with pytest.raises(DomainError):
        oracle.brute_image(10, 5, 2)


# -- scan budget -------------------------------------------------------------


def test_scan_budget_enforced():
    with pytest.raises(ResourceError, match="QADIC_SCAN_BUDGET"):
        oracle.brute_fixed_points(4, 3, 10)


def test_scan_budget_env_override(monkeypatch):
    monkeypatch.setenv("QADIC_SCAN_BUDGET", "60000")
    pts = oracle.brute_fixed_points(4, 3, 10)
    # the count for a parameter rooted at depth 1 does not grow with the level
    assert pts[:2] == [0, 1] and len(pts) == 21


def test_scan_refuses_moduli_beyond_the_int64_kernels(monkeypatch):
    # s * q % M overflows 64 bits once M reaches 2**31, whatever the budget
    monkeypatch.setenv("QADIC_SCAN_BUDGET", "10000000000")
    with pytest.raises(ResourceError, match="2\\*\\*31"):
        oracle.brute_fixed_points(4, 3, 20)


# -- cross-route self-consistency -------------------------------------------


def test_pair_sweep_agrees_with_itemized_scans():
    p, n = 5, 3
    qs, a0s = [], []
    for q in (6, 11, 21, 26, 101):
        d = q - 1
        m0 = 0
        while d % p == 0:
            d //= p
            m0 += 1
        qs.append(q)
        a0s.append(p ** max(n - m0, 0))
    mism, fixed_counts, image_sizes = (list(x) for x in oracle.kernels().pair_sweep(p, n, qs, a0s))
    assert mism == [-1] * len(qs)
    for q, fc, isz in zip(qs, fixed_counts, image_sizes):
        assert fc == len(oracle.brute_fixed_points(q, p, n)), q
        assert isz == len(oracle.brute_image(q, p, n)), q


# -- the pure order sweep: one walk per cyclic subgroup -----------------------

UNIT_GRID_TOPS = {2: 9, 3: 6, 5: 5, 7: 4}


@pytest.mark.parametrize("p", sorted(UNIT_GRID_TOPS))
def test_pure_order_sweep_is_power_iteration_on_unit_grids(p):
    for n in range(1, UNIT_GRID_TOPS[p] + 1):
        M = p**n
        qs = [q for q in range(1, M) if q % p != 0]
        assert _scan_py.order_sweep(p, n, qs) == [_scan_py.order_of(q, M) for q in qs], n


def test_pure_order_sweep_on_mixed_lists():
    rng = random.Random(15)
    for _ in range(400):
        p = rng.choice((2, 3, 5, 7))
        n = rng.randint(1, 4)
        M = p**n
        qs = [rng.randint(-3 * M, 3 * M) for _ in range(rng.randint(2, 25))]
        # non-units, values >= M, repeats, q = 1 mod M
        qs += [0, p, M + 1, 1, 1 - M, 2 * M + 3, *rng.sample(qs, 2)]
        rng.shuffle(qs)
        assert _scan_py.order_sweep(p, n, qs) == [_scan_py.order_of(q, M) for q in qs], (p, n, qs)
    assert _scan_py.order_sweep(3, 2, []) == []
    assert _scan_py.order_sweep(5, 0, [0, 3, -1]) == [1, 1, 1]


def _pair_sweep_by_definition(p, n, qs, a0s):
    """pair_sweep's docstring transcribed one z at a time."""
    M = p**n
    mismatches, fixed_counts, image_sizes = [], [], []
    for q, a0 in zip(qs, a0s):
        walk, s = [], 0
        for _ in range(M):
            walk.append(s)
            s = (s * q + 1) % M
        fixed = [walk[z] == z for z in range(M)]
        rule = [z % a0 in (0, 1 % a0) for z in range(M)]
        mismatches.append(next((z for z in range(M) if fixed[z] != rule[z]), -1))
        fixed_counts.append(sum(fixed))
        image_sizes.append(len(set(walk)))
    return mismatches, fixed_counts, image_sizes


@pytest.mark.parametrize("p,n", [(2, 5), (3, 4), (5, 3), (7, 2)])
def test_pure_pair_sweep_matches_its_docstring(p, n):
    M = p**n
    qs = [*range(M), M + 1, 3 * M + p + 1, -1, -M - 2]  # every class, q >= p^n, negative q
    right = []
    for q in qs:
        d, m0 = (q - 1) % M, 0
        while d and d % p == 0:
            d //= p
            m0 += 1
        right.append(p ** (n - m0) if d else 1)
    # wrong cutoffs too, so that the mismatch index is exercised
    for a0s in (right, [a * p for a in right], [1] * len(qs), [M] * len(qs)):
        got = _scan_py.pair_sweep(p, n, qs, a0s)
        assert [list(x) for x in got] == list(_pair_sweep_by_definition(p, n, qs, a0s)), a0s[:3]
        assert any(m != -1 for m in got[0]) and -1 in got[0]
    assert [list(x) for x in _scan_py.pair_sweep(p, n, [], [])] == [[], [], []]
    with pytest.raises(ValueError, match="equal length"):
        _scan_py.pair_sweep(p, n, [1, 1 + p], [1])


def test_pure_kernels_export_only_the_four_kernels():
    # a span tracer wraps every public callable of the kernel module
    public = {
        name
        for name, obj in vars(_scan_py).items()
        if not name.startswith("_") and callable(obj) and not inspect.isclass(obj)
    }
    assert public == {"fixed_residues", "order_of", "order_sweep", "pair_sweep"}
