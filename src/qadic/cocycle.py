"""Finite-precision evaluation of iota_q(z) = (q**z - 1)/(q - 1) and its
kernel, image, and valuation structure.

For q = 1 + (q-1) with v_p(q-1) = m0 >= 1, the evaluator computes q**z - 1
at precision m0 + n and exact-divides by q - 1 (which costs exactly m0
digits), so results carry the full requested n digits.  For parameters
outside 1 + pZ_p (p odd), q - 1 is a unit and only integer exponents are
accepted.

q = 1 is handled totally as the identity map (the continuity limit), a
documented special case.
"""

from __future__ import annotations

from dataclasses import dataclass

from .config import check_listing_size, check_scan_size
from .errors import DomainError, PrecisionError
from .padic_core import (
    INF,
    CosetDescriptor,
    PadicInt,
    as_qparameter,
    check_disjoint,
    coset_pair,
    exact_div,
    int_valuation,
    mult_order,
    residue_of,
    shared_shape,
)


class _InjectiveOnAll:
    """Marker: the level-n map collapses nothing -- it is injective on the
    whole parameter orbit (q is a root of unity at available precision)."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "INJECTIVE_ON_ALL"


INJECTIVE_ON_ALL = _InjectiveOnAll()


@dataclass(frozen=True)
class ImageDescription:
    """The image of the level-n map, as a disjoint union of cosets.

    covers_all means every residue mod p**n is hit; the cosets then reduce
    to the single full coset base 0, exponent 0.
    """

    prime: int
    modulus_exponent: int
    covers_all: bool
    cosets: tuple[CosetDescriptor, ...]

    def __post_init__(self):
        for c in self.cosets:
            if c.prime != self.prime:
                raise DomainError("coset prime differs from image prime")
            if c.exponent > self.modulus_exponent:
                raise DomainError("coset finer than the stated modulus")
        check_disjoint(self.cosets)

    def count(self) -> int:
        """Number of residues mod p**modulus_exponent in the image."""
        n = self.modulus_exponent
        if self.covers_all:
            return self.prime**n
        return sum(self.prime ** (n - c.exponent) for c in self.cosets)

    def residues(self) -> list[int]:
        """Sorted image residues mod p**modulus_exponent, at most the scan budget."""
        n = self.modulus_exponent
        check_listing_size(self.count(), self.prime, n)
        if self.covers_all:
            return list(range(self.prime**n))
        out: set[int] = set()
        for c in self.cosets:
            out.update(c.residues(n))
        return sorted(out)

    def contains(self, value: int) -> bool:
        if self.covers_all:
            return True
        return any(c.contains(value) for c in self.cosets)


def iota_eval(q, z, n: int) -> PadicInt:
    """iota_q(z) mod p**n.

    q in 1 + pZ_p: needs q mod p^(m0+n) and z mod p^n (z may be an exact
    integer or a PadicInt; rationals enter via from_rational).  q outside
    1 + pZ_p (p odd): integer z only, q - 1 is already a unit.
    q = 1 at full precision: the identity map.
    """
    q = as_qparameter(q)
    p = q.prime
    if n < 1:
        raise DomainError("output precision must be at least 1")

    if q.m0 is INF:
        # q = 1 at every available digit: iota_1 = identity.  Sound at
        # precision n only if we have seen at least n digits of q.
        if q.precision < n:
            raise PrecisionError(f"q = 1 to only {q.precision} digits; need {n}")
        return PadicInt.from_int(residue_of(z, p, n), p, n)

    if q.in_u1:
        m0 = q.m0
        need = m0 + n
        if q.precision < need:
            raise PrecisionError(f"iota at precision {n} needs q mod {p}^{need}, have {q.precision} digits")
        e = residue_of(z, p, n)
        mod = p**need
        t = (pow(q.value.residue(need), e, mod) - 1) % mod
        num = PadicInt.from_int(t, p, need)
        den = q.value.truncate(need) - 1
        return exact_div(num, den)

    # p odd, q a unit outside 1 + pZ_p: q - 1 is a unit, exponents are integers.
    if not isinstance(z, int):
        raise DomainError("q is not in 1 + pZ_p: only integer exponents are defined here")
    if q.precision < n:
        raise PrecisionError(f"need q mod {p}^{n}, have {q.precision} digits")
    mod = p**n
    r = q.value.residue(n)
    t = (pow(r, z, mod) - 1) % mod
    return PadicInt.from_int(t * pow(r - 1, -1, mod), p, n)


def iota_valuation(q, z):
    """v_p(iota_q(z)) by the closed-form case split, without evaluating.

    Unit z with q in 1 + pZ_p, or z outside the o_p-divisible classes for
    other q, gives 0.  The remaining cases: v_p(z) (p odd, q in 1 + pZ_p,
    and p = 2 with q in 1 + 4Z_2); v_2(z) + l0 - 1 (p = 2, q in 3 + 4Z_2);
    v_p(z) + v_p(q**o_p - 1) (p odd, q outside 1 + pZ_p, o_p | z).
    INF means the value vanishes to every checkable digit.
    """
    q = as_qparameter(q)
    p = q.prime

    if q.in_u1:
        if isinstance(z, int):
            vz = int_valuation(z, p)
        elif isinstance(z, PadicInt):
            if z.prime != p:
                raise DomainError(f"prime mismatch: {p} vs {z.prime}")
            vz = z.valuation()
        else:
            raise DomainError("z must be an int or PadicInt")
        if p != 2 or q.in_u2:
            # covers units (vz = 0) and q = 1 at full precision alike
            return vz
        if q.m0 is INF:
            raise PrecisionError("cannot split 1 + 2Z_2 from 1 + 4Z_2 at one digit of q")
        # p = 2, q = 3 mod 4
        if vz == 0:
            return 0
        return vz + q.l0 - 1  # INF propagates through the addition

    # p odd, q outside 1 + pZ_p: integer z only (the o_p-coordinate of a
    # general p-adic exponent is not reified).
    if not isinstance(z, int):
        raise DomainError("q is not in 1 + pZ_p: only integer exponents are defined here")
    if z % q.o_p != 0:
        return 0
    m = q.order_valuation()
    v = int_valuation(z, p)
    return v + m  # either INF absorbs the sum


def kernel_order(q, n: int):
    """Number of distinct values of the level-n map (the size of the
    quotient on which it is injective), or INJECTIVE_ON_ALL when q is a
    root of unity at available precision (nothing ever collapses).

    For q in 1 + pZ_p with v_p(q-1) = m0 this is the multiplicative order
    of q mod p^(m0+n) -- hence the precision prerequisite q mod p^(m0+n);
    for other q it is the order of q mod p^n.
    """
    q = as_qparameter(q)
    p = q.prime
    if n < 1:
        raise DomainError("modulus exponent must be at least 1")

    if q.in_u1:
        m0 = q.m0
        if m0 is INF:
            # q = 1 at available precision: the identity map, p^n values.
            # For p = 2 one digit cannot exclude q = 3 mod 4, whose count
            # differs for n >= 2.
            if p == 2 and q.precision < 2 and n >= 2:
                raise PrecisionError("one digit of q cannot resolve the unit branch")
            return p**n
        if p == 2 and m0 == 1:
            if q.l0 is INF:
                # q = -1 at every available digit: injective on its orbit.
                return INJECTIVE_ON_ALL
            return mult_order(q.value, 1 + n)
        # p odd in 1+pZ_p, or p = 2 in 1+4Z_2: order mod p^(m0+n) is p^n.
        return p**n

    # p odd, q outside 1 + pZ_p
    if q.order_valuation() is INF:
        return INJECTIVE_ON_ALL
    return mult_order(q.value, n)


@shared_shape
def _pair_image(p: int, n: int, e: int) -> ImageDescription:
    """The image mod p**n as the coset pair at exponent e, or the full ring
    at e = 0: a function of (p, n, e) alone, so within a sweep it is built
    and validated once per shape."""
    return ImageDescription(p, n, e == 0, coset_pair(p, e))


def image_description(q, n: int) -> ImageDescription:
    """The image of the level-n map as cosets, per the three-case structure:
    full ring; the 2^min(l0,n)-coset pair for p = 2, q = 3 mod 4; or the
    o_p cosets iota_q(z0) + p^min(m,n)Z for q outside 1 + pZ_p (p odd),
    with m = v_p(q**o_p - 1)."""
    q = as_qparameter(q)
    p = q.prime
    if n < 1:
        raise DomainError("modulus exponent must be at least 1")

    if q.in_u1:
        if q.m0 is INF:
            if p == 2 and q.precision < 2 and n >= 2:
                raise PrecisionError("one digit of q cannot resolve the unit branch")
            return _pair_image(p, n, 0)
        if p != 2 or q.in_u2:
            return _pair_image(p, n, 0)
        # p = 2, q = 3 mod 4: image is 2^e Z union 1 + 2^e Z at e = min(l0, n)
        l0 = q.l0
        if l0 is INF:
            # q = -1 at every available digit; the true l0 is at least the
            # precision, so e = n is certain once we have n digits.
            if q.precision < n:
                raise PrecisionError(f"q = -1 to {q.precision} digits cannot fix the image mod 2^{n}")
            e = n
        else:
            e = min(l0, n)
        # at n = 1, e = 1 and the pair {0}, {1} is everything mod 2
        return _pair_image(p, n, 0 if n == 1 else e)

    # p odd, q outside 1 + pZ_p: o_p cosets with spacing p^min(m, n); m >= 1
    # always, so e >= 1.
    m = q.order_valuation()
    if m is INF:
        if q.precision < n:
            raise PrecisionError(
                f"q is a root of unity to {q.precision} digits; need {n} to fix the image mod {p}^{n}"
            )
        e = n
    else:
        e = min(m, n)
    bases = [PadicInt.from_int(iota_eval(q, z0, e).residue(e), p, e) for z0 in range(q.o_p)]
    cosets = tuple(CosetDescriptor(b, e) for b in bases)
    # Thm 3.4: base residues pairwise incongruent mod p -- ImageDescription's
    # disjointness check enforces it at construction.
    return ImageDescription(p, n, False, cosets)


def cocycle_sum(q, n: int) -> PadicInt:
    """Sum of iota_q(z) over all z mod p**n, by direct summation of
    evaluated values (the closed form 0 / 2^(n-1) is a test, not the
    implementation)."""
    q = as_qparameter(q)
    p = q.prime
    if not q.in_u1:
        raise DomainError("cocycle sums are defined for q in 1 + pZ_p")
    total = 0
    for z in range(check_scan_size(p**n)):
        total += iota_eval(q, z, n).lift()
    return PadicInt.from_int(total, p, n)
