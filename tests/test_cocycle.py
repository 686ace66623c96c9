"""The interpolated power sum, its valuation, kernel, image, and full-period sum."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from qadic.cocycle import (
    INJECTIVE_ON_ALL,
    ImageDescription,
    cocycle_sum,
    image_description,
    iota_eval,
    iota_valuation,
    kernel_order,
)
from qadic.errors import DomainError, InvariantError, PrecisionError, ResourceError
from qadic.padic_core import INF, CosetDescriptor, PadicInt, QParameter, from_rational


def qp(value: int, p: int, precision: int) -> QParameter:
    return QParameter(PadicInt.from_int(value, p, precision))


# -- evaluation --------------------------------------------------------------


def test_geometric_sum_at_small_integers():
    q = qp(4, 3, 6)
    for z in range(8):
        expected = sum(4**j for j in range(z)) % 3**5
        assert iota_eval(q, z, 5).lift() == expected


def test_identity_parameter_is_identity():
    q = qp(1, 3, 3)
    assert iota_eval(q, 5, 3).lift() == 5
    z = PadicInt.from_int(14, 3, 5)
    assert iota_eval(q, z, 3) == z.truncate(3)


def test_value_at_minus_one_half():
    # the attracting point of the parameter 4: all-ones digit stream
    q = qp(4, 3, 8)
    z = from_rational(-1, 2, 3, 7)
    assert iota_eval(q, z, 7).digits == (1,) * 7


def test_value_of_seven_at_three():
    assert iota_eval(qp(7, 3, 5), 3, 3).lift() == 3


def test_negative_integer_exponent():
    q = qp(4, 3, 6)
    # iota(-1) = (q**-1 - 1)/(q - 1) = -q**-1
    inv = pow(4, -1, 3**5)
    assert iota_eval(q, -1, 5).lift() == (-inv) % 3**5


def test_rational_exponent_outside_u1_rejected():
    q = qp(2, 5, 4)
    with pytest.raises(DomainError):
        iota_eval(q, from_rational(1, 2, 5, 3), 3)


def test_integer_exponent_outside_u1():
    # q = 2, p = 5: plain geometric sums
    q = qp(2, 5, 4)
    assert iota_eval(q, 4, 2).lift() == 15
    assert iota_eval(q, 3, 2).lift() == 7


def test_eval_needs_m0_plus_n_digits():
    with pytest.raises(PrecisionError):
        iota_eval(qp(4, 3, 4), 1, 4)  # m0 = 1: needs 5 digits
    assert iota_eval(qp(4, 3, 5), 1, 4).lift() == 1


def test_eval_checks_z_precision():
    q = qp(4, 3, 8)
    with pytest.raises(PrecisionError):
        iota_eval(q, PadicInt.from_int(5, 3, 3), 4)


@given(
    p=st.sampled_from((2, 3, 5)),
    k=st.integers(1, 30),
    a=st.integers(-30, 30),
    b=st.integers(-30, 30),
    n=st.integers(1, 6),
)
def test_cocycle_identity(p, k, a, b, n):
    qv = 1 + p * k
    m0 = 0
    t = qv - 1
    while t % p == 0:
        t //= p
        m0 += 1
    q = qp(qv, p, m0 + n)
    lhs = iota_eval(q, a + b, n)
    rhs = PadicInt.from_int(pow(qv, a, p**n), p, n) * iota_eval(q, b, n) + iota_eval(q, a, n)
    assert lhs == rhs


@given(
    k=st.integers(1, 40),
    z=st.integers(-60, 60),
    n=st.integers(1, 6),
)
def test_telescoping_identity(k, z, n):
    # (q - 1) * iota(z) = q**z - 1
    qv = 1 + 3 * k
    m0 = 0
    t = qv - 1
    while t % 3 == 0:
        t //= 3
        m0 += 1
    q = qp(qv, 3, m0 + n + m0)
    lhs = PadicInt.from_int(qv - 1, 3, n + m0) * iota_eval(q, z, n).zero_extend(n + m0)
    rhs = PadicInt.from_int(pow(qv, z, 3 ** (n + m0)) - 1, 3, n + m0)
    assert lhs == rhs


# -- closed-form valuation ---------------------------------------------------


def test_valuation_examples():
    assert iota_valuation(qp(4, 3, 6), 9) == 2
    assert iota_valuation(qp(4, 3, 6), 2) == 0
    assert iota_valuation(qp(3, 2, 6), 4) == 3  # v2(z) + l0 - 1 = 2 + 2 - 1


def test_valuation_zero_exponent_is_inf():
    assert iota_valuation(qp(4, 3, 6), 0) is INF


def test_valuation_agrees_with_eval_spot():
    for qv, p, span in ((4, 3, 4), (7, 3, 4), (3, 2, 4), (6, 5, 3)):
        q = qp(qv, p, 8)
        for z in range(1, p**span):
            closed = iota_valuation(q, z)
            direct = iota_eval(q, z, span).valuation()
            if direct is INF:
                assert closed is INF or closed >= span
            else:
                assert closed == direct, (qv, p, z)


# -- kernel ------------------------------------------------------------------


def test_kernel_order_examples():
    assert kernel_order(qp(4, 3, 4), 2) == 9
    assert kernel_order(qp(3, 2, 7), 4) == 8  # 2 * order(3 mod 16)
    assert kernel_order(qp(2, 5, 3), 2) == 20  # order of 2 mod 25


def test_kernel_order_sentinel_for_minus_one():
    ko = kernel_order(qp(-1, 2, 6), 3)
    assert ko is INJECTIVE_ON_ALL
    assert "INJECTIVE" in repr(ko)


def test_kernel_order_identity_parameter():
    assert kernel_order(qp(1, 3, 5), 3) == 27


def test_kernel_order_matches_brute_distinct_values():
    # distinct values of z -> iota(z) mod p^n over a full period
    for qv, p, n in ((4, 3, 3), (7, 3, 2), (3, 2, 4), (5, 2, 3), (2, 5, 2)):
        q = qp(qv, p, n + 3)
        ko = kernel_order(q, n)
        lim = p ** (n + 2) if qv % p == 1 else kernel_order(q, n) * 4
        seen = {iota_eval(q, z, n).lift() for z in range(lim)}
        assert ko == len(seen), (qv, p, n)


# -- image -------------------------------------------------------------------


def test_image_full_ring_for_odd_u1():
    img = image_description(qp(4, 3, 6), 4)
    assert img.covers_all
    assert img.count() == 81


def test_image_two_cosets_p2():
    img = image_description(qp(3, 2, 7), 4)
    assert not img.covers_all
    assert img.residues() == [0, 1, 4, 5, 8, 9, 12, 13]


def test_image_cosets_outside_u1():
    # geometric sums 0, 1, 1+2, 1+2+4 give bases {0,1,3,7}; the descriptor
    # stores them reduced mod 5 (coset exponent 1), where 7 becomes 2
    img = image_description(qp(2, 5, 4), 2)
    bases = sorted(c.base.lift() % 5 for c in img.cosets)
    assert bases == [0, 1, 2, 3]
    assert set(img.residues()) == {z for z in range(25) if z % 5 != 4}
    assert img.count() == 20


def test_image_matches_brute_spot():
    for qv, p, n in ((3, 2, 3), (7, 2, 3), (4, 3, 3), (2, 5, 2)):
        q = qp(qv, p, n + 3)
        img = image_description(q, n)
        seen = {iota_eval(q, z, n).lift() for z in range(p ** (n + 3))}
        assert set(img.residues()) == seen, (qv, p, n)


def test_image_rejects_overlapping_cosets():
    # 4 + 9Z lies inside 1 + 3Z
    wide = CosetDescriptor(PadicInt.from_int(1, 3, 1), 1)
    narrow = CosetDescriptor(PadicInt.from_int(4, 3, 2), 2)
    with pytest.raises(InvariantError, match="overlap"):
        ImageDescription(3, 3, False, (wide, narrow))
    apart = CosetDescriptor(PadicInt.from_int(0, 3, 1), 1)
    assert ImageDescription(3, 3, False, (wide, apart)).count() == 18


# -- full-period sums --------------------------------------------------------


def test_sum_examples():
    assert cocycle_sum(qp(4, 3, 5), 3).is_zero()
    assert cocycle_sum(qp(5, 2, 7), 4).lift() == 8
    assert cocycle_sum(qp(3, 2, 6), 3).lift() == 4


def test_image_listing_and_sum_respect_the_scan_budget(monkeypatch):
    monkeypatch.setenv("QADIC_SCAN_BUDGET", "26")
    img = image_description(qp(4, 3, 5), 3)
    assert img.covers_all and img.count() == 27
    with pytest.raises(ResourceError, match=r"listing 27 residues mod 3\^3 exceeds budget 26"):
        img.residues()
    with pytest.raises(ResourceError, match="scan of size 27 exceeds budget 26"):
        cocycle_sum(qp(4, 3, 5), 3)
    assert cocycle_sum(qp(4, 3, 5), 2).is_zero()


def test_sum_odd_prime_vanishes():
    for qv in (4, 7, 10, 13, 22):
        assert cocycle_sum(qp(qv, 3, 7), 4).is_zero(), qv
    for qv in (6, 11, 21):
        assert cocycle_sum(qp(qv, 5, 6), 3).is_zero(), qv
