"""Parameter <-> fixed-point passage: the digit solver, its two packaged
directions, the exceptional parameters, and the affine chart isometries."""

import threading

import pytest
from hypothesis import given
from hypothesis import strategies as st

import qadic.correspondence
from qadic.correspondence import (
    BRANCHES,
    ExceptionalReport,
    F_map,
    G_map,
    exceptional_q,
    phi,
    psi,
    solve_q_for_z,
)
from qadic.errors import DomainError, InvariantError, PrecisionError, ResourceError
from qadic.fixed_points import is_fixed
from qadic.padic_core import PadicInt, QParameter, from_rational

# eight digits of the two parameters with no attracting fixed point, frozen
# after digit-by-digit certification (each stage verified by an evaluation
# witness, the search space exhausted)
Q0_DIGITS = (1, 2, 1, 2, 0, 0, 1, 2)
Q1_DIGITS = (1, 1, 2, 0, 2, 1, 0, 1)


def qp(value: int, precision: int) -> QParameter:
    return QParameter(PadicInt.from_int(value, 3, precision))


# -- digit solver ------------------------------------------------------------


def test_solver_three():
    q = solve_q_for_z(3, 3)
    assert (q.lift(), q.precision) == (7, 2)


def test_solver_minus_one_half_gives_four():
    z = from_rational(-1, 2, 3, 12)
    q = solve_q_for_z(z, 12)
    assert q.precision == 11
    assert q.lift() == 4


def test_solver_ten():
    q = solve_q_for_z(10, 5)
    assert (q.lift(), q.precision) == (22, 3)
    # uniqueness seen from the other side: 10 is fixed for this prefix
    assert is_fixed(qp(22, 6), 10, 5)


def test_solver_rejects_unit_zz1():
    with pytest.raises(DomainError):
        solve_q_for_z(5, 4)  # v(5*4) = 0


def test_solver_rejects_exceptional_input():
    with pytest.raises(DomainError):
        solve_q_for_z(0, 4)
    with pytest.raises(DomainError):
        solve_q_for_z(9, 3)  # v0 = 2 > n - 2: nothing to solve at this depth


def test_solver_output_fixes_input():
    for z, n in ((3, 5), (12, 6), (10, 6), (30, 7)):
        q = solve_q_for_z(z, n)
        assert is_fixed(QParameter(q.zero_extend(n + 1)), z, n), (z, n)


# -- psi ---------------------------------------------------------------------


def test_psi_zero_and_one_give_the_exceptional_parameters():
    assert psi(0, 8).digits == Q0_DIGITS
    assert psi(1, 8).digits == Q1_DIGITS


def test_psi_examples():
    assert psi(from_rational(-1, 2, 3, 9), 8).lift() == 4
    assert psi(3, 2).lift() == 7
    assert psi(3, 1).digits == (1,)


def test_psi_rejects_offset_two():
    with pytest.raises(DomainError):
        psi(5, 3)


def test_psi_needs_v0_spare_digits():
    z = PadicInt.from_int(3, 3, 4)
    with pytest.raises(PrecisionError):
        psi(z, 4)  # v0 = 1: needs 5 digits
    assert psi(PadicInt.from_int(3, 3, 5), 4).precision == 4


# -- exceptional parameters --------------------------------------------------


def test_exceptional_digit_streams():
    assert exceptional_q("seven", 8).digits == Q0_DIGITS
    assert exceptional_q("four", 8).digits == Q1_DIGITS


def test_exceptional_prefix_stability():
    long = exceptional_q("seven", 12).digits
    for k in range(2, 12):
        assert exceptional_q("seven", k).digits == long[:k]


def test_exceptional_has_no_rooted_point_at_certified_depth():
    from qadic.fixed_points import find_rooted

    for branch in BRANCHES:
        q = exceptional_q(branch, 10)
        for n in range(4, 10):
            assert find_rooted(QParameter(q.zero_extend(n + 1)), n) is None, (branch, n)


def test_exceptional_cap():
    with pytest.raises(ResourceError, match="QADIC_PRECISION_CAP"):
        exceptional_q("seven", 40)


def test_exceptional_rejects_bad_branch():
    with pytest.raises(DomainError):
        exceptional_q("five", 4)
    with pytest.raises(DomainError):
        exceptional_q("seven", 0)


OFFSET = {"seven": 0, "four": 1}
START = {"seven": 7, "four": 4}


def _witness_fixes(branch: str, q: int, k: int) -> bool:
    """Does q, read mod 3^(k+1), fix offset + 3^k mod 3^(2k+1)?"""
    return is_fixed(qp(q, 2 * k + 2), OFFSET[branch] + 3**k, 2 * k + 1)


def _lifted_exceptional(branch: str, count: int) -> tuple[int, ...]:
    """The exceptional digits grown one at a time: digit k is the one of
    three extensions whose truncation fixes the branch's witness."""
    q = START[branch]
    for k in range(2, count):
        (d,) = [d for d in range(3) if _witness_fixes(branch, q + d * 3**k, k)]
        q += d * 3**k
    return PadicInt.from_int(q, 3, count).digits


@pytest.fixture
def cold_exceptional(monkeypatch):
    """A fresh exceptional-digit cache holding only the branch start."""
    monkeypatch.delenv("QADIC_PRECISION_CAP", raising=False)
    cold = {b: PadicInt.from_int(START[b], 3, 2).digits for b in BRANCHES}
    monkeypatch.setattr(qadic.correspondence, "_EXC_DIGITS", cold)
    return cold


@pytest.mark.parametrize("branch", BRANCHES)
def test_exactly_one_branch_class_fixes_the_exceptional_witness(branch):
    # the one test that certifies a truncation pins it among all branch
    # classes mod 3^(k+1), so no other truncation could pass it
    for k in range(1, 9):
        passing = [q for q in range(START[branch], 3 ** (k + 1), 9) if _witness_fixes(branch, q, k)]
        assert passing == [exceptional_q(branch, k + 1).lift()], k


@pytest.mark.parametrize("order", ["ascending", "descending"])
@pytest.mark.parametrize("branch", BRANCHES)
def test_newton_digits_match_the_digit_lift(branch, order, cold_exceptional):
    reference = _lifted_exceptional(branch, 32)
    counts = range(1, 33) if order == "ascending" else range(32, 0, -1)
    for d in counts:
        assert exceptional_q(branch, d).digits == reference[:d], d
    assert cold_exceptional[branch] == reference


@pytest.mark.parametrize("branch", BRANCHES)
def test_a_wrong_newton_digit_raises_instead_of_answering(branch, cold_exceptional, monkeypatch):
    right = qadic.correspondence._multiplier_root

    def one_off(branch, d):  # the last digit moved by one, mod 3
        return (right(branch, d) + 3 ** (d - 1)) % 3**d

    monkeypatch.setattr(qadic.correspondence, "_multiplier_root", one_off)
    for d in range(3, 33):
        with pytest.raises(InvariantError, match=f"root .* mod 3\\^{d} does not fix"):
            exceptional_q(branch, d)
    assert len(cold_exceptional[branch]) == 2


def test_exceptional_concurrent_extension_is_consistent():
    results = []

    def worker():
        results.append(exceptional_q("four", 14).digits)

    threads = [threading.Thread(target=worker) for _ in range(6)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert len(set(results)) == 1
    assert results[0][:8] == Q1_DIGITS


# -- phi ---------------------------------------------------------------------


def test_phi_four_is_minus_one_half():
    out = phi(qp(4, 20), 20)
    assert out.digits == (1,) * 19


def test_phi_seven():
    out = phi(qp(7, 8), 8)
    assert out.precision == 7
    assert out.lift() == 2130
    assert out.lift() % 27 == 24
    # witness: the reported point is fixed at the certified level
    assert is_fixed(qp(7, 9), out, 7)


def test_phi_level_two_fast_path():
    assert phi(qp(4, 2), 2).digits == (1,)
    assert phi(qp(7, 2), 2).digits == (0,)


def test_phi_exceptional_report():
    q0 = exceptional_q("seven", 9)
    out = phi(QParameter(q0), 9)
    assert isinstance(out, ExceptionalReport)
    assert out.branch == "seven" and out.agreement_depth == 8
    assert "seven" in str(out) and "3^8" in str(out)
    q1 = exceptional_q("four", 9)
    out = phi(QParameter(q1), 9)
    assert out.branch == "four" and out.agreement_depth == 8


def test_phi_rejects_deep_branch():
    with pytest.raises(DomainError):
        phi(qp(10, 6), 5)
    with pytest.raises(DomainError):
        phi(qp(4, 6), 1)


def test_phi_checks_parameter_precision():
    with pytest.raises(PrecisionError):
        phi(qp(4, 4), 6)


def test_phi_works_above_the_cap_for_a_deep_root():
    # q leaves the seven-branch exceptional parameter at digit 28, so its
    # root has v0 = 28 and is lifted to level 40 + 28, above the cap of 64
    qv = exceptional_q("seven", 28).lift() + 3**28
    z = phi(qp(qv, 40), 40)
    assert z.precision == 39 and z.valuation() == 28
    assert psi(z, 11) == PadicInt.from_int(qv, 3, 11)


# -- round trips -------------------------------------------------------------


@pytest.mark.parametrize("z,v0", [(3, 1), (10, 2), (12, 1), (30, 1), (84, 1)])
def test_psi_then_phi_returns_z(z, v0):
    P = 8
    q = psi(z, P)
    back = phi(QParameter(q), P)
    assert back == PadicInt.from_int(z, 3, P - 1)


@pytest.mark.parametrize("qv", [4, 7, 22, 31, 49, 76])
def test_phi_then_psi_returns_q(qv):
    N = 10
    z = phi(qp(qv, N), N)
    v0 = (z * (z - PadicInt.from_int(1, 3, N - 1))).valuation()
    out_prec = N - 1 - v0
    q_back = psi(z, out_prec)
    assert q_back == PadicInt.from_int(qv, 3, out_prec)


# -- affine chart isometries -------------------------------------------------


def test_F_at_zero():
    assert F_map(0, 8) == from_rational(-1, 2, 3, 8)
    # F runs phi at precision P + 3: 65 here, and the cap is not its business
    assert F_map(0, 62) == from_rational(-1, 2, 3, 62)


def test_G_hits_zero_at_the_exceptional_preimage():
    q0 = exceptional_q("seven", 8)
    x0 = (q0.lift() - 7) // 9
    assert G_map(x0, 5).digits == (0,) * 5


@given(
    x=st.integers(0, 3**9 - 1),
    y=st.integers(0, 3**9 - 1),
)
def test_F_and_G_are_isometries(x, y):
    if x == y:
        return
    P = 8
    dv = 0
    d = x - y
    while d % 3 == 0:
        d //= 3
        dv += 1
    for chart in (F_map, G_map):
        a, b = chart(x, P), chart(y, P)
        assert (a - b).valuation() == dv, (chart.__name__, x, y)
