"""Digit-vector arithmetic, valuations, orders, and the q-parameter wrapper."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from qadic.config import check_precision_request
from qadic.errors import DomainError, PrecisionError, ResourceError
from qadic.padic_core import (
    INF,
    CosetDescriptor,
    PadicInt,
    QParameter,
    as_qparameter,
    exact_div,
    from_rational,
    int_valuation,
    kummer_valuation,
    legendre_valuation,
    mult_order,
    parse_value,
    residue_of,
    unit_inverse,
    valuation,
)

PRIMES = (2, 3, 5, 7)

primes = st.sampled_from(PRIMES)


# -- construction and rendering --------------------------------------------


def test_from_int_digits_little_endian():
    x = PadicInt.from_int(11, 3, 4)
    assert x.digits == (2, 0, 1, 0)
    assert x.lift() == 11
    assert x.precision == 4


def test_negative_values_are_complemented():
    x = PadicInt.from_int(-1, 3, 4)
    assert x.digits == (2, 2, 2, 2)
    assert x.lift() == 80


def test_str_parse_roundtrip_example():
    x = PadicInt.from_int(22, 3, 5)
    assert str(x) == "3^5:1,1,2,0,0"
    assert PadicInt.parse(str(x)) == x


@given(
    p=primes,
    digits=st.lists(st.integers(0, 6), min_size=1, max_size=12),
)
def test_str_parse_roundtrip(p, digits):
    digits = tuple(d % p for d in digits)
    x = PadicInt(p, digits)
    assert PadicInt.parse(str(x)) == x


def test_parse_rejects_bad_digit():
    with pytest.raises(DomainError):
        PadicInt.parse("3^2:1,5")


def test_residue_needs_enough_digits():
    x = PadicInt.from_int(5, 3, 2)
    assert x.residue(2) == 5
    with pytest.raises(PrecisionError):
        x.residue(3)


def test_truncate_and_zero_extend():
    x = PadicInt.from_int(22, 3, 5)
    assert x.truncate(2).lift() == 4
    y = x.truncate(2).zero_extend(5)
    assert y.precision == 5
    assert y.lift() == 4


# -- arithmetic and precision propagation ----------------------------------


def test_min_precision_propagation():
    a = PadicInt.from_int(10, 3, 5)
    b = PadicInt.from_int(4, 3, 3)
    assert (a + b).precision == 3
    assert (a * b).precision == 3
    assert (a - b).precision == 3


@given(
    p=primes,
    a=st.integers(-500, 500),
    b=st.integers(-500, 500),
    n=st.integers(1, 12),
)
def test_ring_ops_match_integers(p, a, b, n):
    mod = p**n
    xa = PadicInt.from_int(a, p, n)
    xb = PadicInt.from_int(b, p, n)
    assert (xa + xb).lift() == (a + b) % mod
    assert (xa - xb).lift() == (a - b) % mod
    assert (xa * xb).lift() == (a * b) % mod


def test_valuation_and_inf_sentinel():
    assert PadicInt.from_int(18, 3, 4).valuation() == 2
    z = PadicInt.from_int(0, 3, 4)
    assert z.valuation() is INF
    assert z.valuation() == INF
    assert not (z.valuation() == 4)
    assert int_valuation(0, 3) is INF
    assert INF == math.inf


@pytest.mark.parametrize("p", [1, 0, -1, -3])
def test_int_valuation_refuses_a_base_below_two(p):
    # with p = 1 or -1 the division loop would never end
    with pytest.raises(DomainError, match=f"got {p}"):
        int_valuation(9, p)


@given(p=primes, x=st.integers(-(10**6), 10**6), y=st.integers(-(10**6), 10**6))
def test_int_valuation_additive(p, x, y):
    if x == 0 or y == 0:
        assert int_valuation(x * y, p) is INF or int_valuation(0, p) is INF
    else:
        assert int_valuation(x * y, p) == int_valuation(x, p) + int_valuation(y, p)


def test_padic_valuation_additive_below_precision():
    # v(x*y) = v(x)+v(y) whenever the sum stays below the shared precision
    x = PadicInt.from_int(6, 3, 6)
    y = PadicInt.from_int(9, 3, 6)
    assert (x * y).valuation() == x.valuation() + y.valuation()


# -- rational lifts ---------------------------------------------------------


@given(
    p=primes,
    a=st.integers(-1000, 1000),
    b=st.integers(-1000, 1000).filter(lambda b: b != 0),
    n=st.integers(1, 16),
)
def test_from_rational_roundtrip(p, a, b, n):
    # a/b is a p-adic integer exactly when the *reduced* denominator is a unit
    if (b // math.gcd(a, b)) % p == 0:
        with pytest.raises(DomainError):
            from_rational(a, b, p, n)
        return
    x = from_rational(a, b, p, n)
    assert (x.lift() * b - a) % p**n == 0


def test_minus_one_half_is_all_ones_3adically():
    x = from_rational(-1, 2, 3, 6)
    assert x.digits == (1, 1, 1, 1, 1, 1)


def test_unit_inverse():
    x = PadicInt.from_int(2, 3, 5)
    inv = unit_inverse(x)
    assert (x * inv).lift() == 1
    with pytest.raises(DomainError):
        unit_inverse(PadicInt.from_int(3, 3, 5))


def test_exact_div_consumes_valuation_digits():
    num = PadicInt.from_int(18, 3, 6)  # v = 2
    den = PadicInt.from_int(9, 3, 6)
    out = exact_div(num, den)
    assert out.precision == 4
    assert out.lift() == 2
    with pytest.raises(DomainError):
        exact_div(PadicInt.from_int(1, 3, 6), den)


# -- pow --------------------------------------------------------------------


@given(
    p=primes,
    k=st.integers(1, 40),
    z1=st.integers(-40, 40),
    z2=st.integers(-40, 40),
    n=st.integers(1, 10),
)
def test_pow_additivity(p, k, z1, z2, n):
    q = PadicInt.from_int(1 + p * k, p, n)
    lhs = q ** (z1 + z2)
    rhs = (q**z1) * (q**z2)
    assert lhs == rhs


def test_pow_negative_exponent_needs_unit():
    q = PadicInt.from_int(4, 3, 5)
    assert (q**-1 * q).lift() == 1
    with pytest.raises(DomainError):
        PadicInt.from_int(3, 3, 5) ** -1


# -- multiplicative order ---------------------------------------------------


def _order_by_iteration(q: int, p: int, n: int) -> int:
    mod = p**n
    acc = q % mod
    e = 1
    while acc != 1:
        acc = acc * q % mod
        e += 1
    return e


@pytest.mark.parametrize("p,n", [(2, 4), (3, 3), (5, 2), (7, 2)])
def test_mult_order_matches_power_iteration(p, n):
    mod = p**n
    for q in range(1, mod):
        if q % p == 0:
            continue
        got = mult_order(PadicInt.from_int(q, p, n), n)
        assert got == _order_by_iteration(q, p, n), (p, n, q)


def test_mult_order_examples():
    assert mult_order(PadicInt.from_int(3, 2, 4), 4) == 4
    assert mult_order(PadicInt.from_int(2, 5, 2), 2) == 20
    assert mult_order(PadicInt.from_int(4, 3, 5), 5) == 81


def test_mult_order_needs_precision():
    with pytest.raises(PrecisionError):
        mult_order(PadicInt.from_int(3, 2, 2), 4)


# -- factorial / binomial valuations ----------------------------------------


def test_legendre_small_values():
    assert legendre_valuation(10, 3) == 4
    assert legendre_valuation(0, 5) == 0


def test_kummer_equals_legendre_difference_exhaustive():
    # exhaustive: all 0 <= b <= a <= 200, every test prime
    for p in PRIMES:
        for a in range(201):
            la = legendre_valuation(a, p)
            for b in range(a + 1):
                lhs = kummer_valuation(a, b, p)
                rhs = la - legendre_valuation(b, p) - legendre_valuation(a - b, p)
                assert lhs == rhs, (p, a, b)


# -- parse_value -------------------------------------------------------------


def test_parse_value_forms():
    assert parse_value("21") == 21
    assert parse_value("-5") == -5
    x = parse_value("-1/2", 3, 6)
    assert isinstance(x, PadicInt) and x.digits == (1, 1, 1, 1, 1, 1)
    y = parse_value("3^4:1,1,0,0")
    assert y == PadicInt.from_int(4, 3, 4)
    with pytest.raises(DomainError):
        parse_value("abc")
    with pytest.raises(DomainError):
        parse_value("1/2")  # rational needs p and n
    with pytest.raises(PrecisionError):
        parse_value("3^2:1,1", 3, 4)
    # a rational that reduces to an integer is that integer
    assert parse_value("6/3") == 2 and isinstance(parse_value("6/3"), int)
    with pytest.raises(DomainError):
        parse_value("1/0", 3, 4)


def test_residue_of():
    assert residue_of(-1, 3, 2) == 8
    assert residue_of(PadicInt.from_int(40, 3, 4), 3, 3) == 13
    with pytest.raises(DomainError, match="prime mismatch"):
        residue_of(PadicInt.from_int(4, 5, 4), 3, 2)
    with pytest.raises(PrecisionError):
        residue_of(PadicInt.from_int(4, 3, 2), 3, 4)
    with pytest.raises(DomainError):
        residue_of(0.5, 3, 2)


# -- q-parameter wrapper -----------------------------------------------------


def test_qparameter_branch_and_m0():
    q4 = QParameter(PadicInt.from_int(4, 3, 5))
    assert q4.m0 == 1
    assert q4.branch == "four"
    q7 = QParameter(PadicInt.from_int(7, 3, 5))
    assert q7.branch == "seven"
    q1 = QParameter(PadicInt.from_int(1, 3, 5))
    assert q1.m0 is INF
    assert q1.branch == "deep"
    assert QParameter(PadicInt.from_int(1, 3, 1)).branch is None  # one digit: undecidable
    q10 = QParameter(PadicInt.from_int(10, 3, 5))
    assert q10.in_u2 and q10.branch == "deep"
    assert QParameter(PadicInt.from_int(2, 5, 3)).branch is None  # p != 3: undefined


def test_qparameter_p2_l0():
    q = QParameter(PadicInt.from_int(3, 2, 5))
    assert q.m0 == 1 and q.l0 == 2
    qm1 = QParameter(PadicInt.from_int(-1, 2, 5))
    assert qm1.l0 is INF


def test_qparameter_non_unit_rejected():
    with pytest.raises(DomainError):
        QParameter(PadicInt.from_int(6, 3, 4))


def test_as_qparameter_rejects_raw_int():
    with pytest.raises(DomainError):
        as_qparameter(4)


def test_order_valuation_odd_prime_outside_u1():
    q = QParameter(PadicInt.from_int(2, 5, 4))
    assert q.o_p == 4
    assert q.order_valuation() == 1  # 2**4 = 16 = 1 + 3*5


# -- precision cap -----------------------------------------------------------


def test_precision_cap_default():
    assert check_precision_request(64) == 64
    with pytest.raises(ResourceError, match="QADIC_PRECISION_CAP"):
        check_precision_request(65)


def test_precision_cap_env_override(monkeypatch):
    monkeypatch.setenv("QADIC_PRECISION_CAP", "10")
    with pytest.raises(ResourceError):
        check_precision_request(11)
    assert check_precision_request(10) == 10


# -- coset descriptors -------------------------------------------------------


def test_coset_descriptor_membership():
    base = PadicInt.from_int(4, 3, 4)
    coset = CosetDescriptor(base, 2)  # 4 + 9Z
    assert coset.contains(PadicInt.from_int(13, 3, 4))
    assert not coset.contains(PadicInt.from_int(5, 3, 4))
    assert coset.residues(3) == [4, 13, 22]


def test_coset_listing_respects_the_scan_budget(monkeypatch):
    coset = CosetDescriptor(PadicInt.from_int(4, 3, 4), 2)
    monkeypatch.setenv("QADIC_SCAN_BUDGET", "9")
    assert len(coset.residues(4)) == 9
    with pytest.raises(ResourceError, match=r"listing 27 residues mod 3\^5 exceeds budget 9"):
        coset.residues(5)
