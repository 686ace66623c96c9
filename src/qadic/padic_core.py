"""Fixed-precision p-adic integers and the valuation/order toolkit.

A PadicInt is a residue mod p**n carried as n base-p digits, little-endian
(digit i is the coefficient of p**i).  Precision is explicit everywhere:
ring operations return the minimum precision of their operands, and exact
division by a value of valuation v costs v digits of precision.

Valuations of values that vanish to full precision are reported as INF, a
distinguished non-integer sentinel meaning "at least the precision" -- it is
never a concrete digit count and never silently compares equal to one.
"""

from __future__ import annotations

import contextlib
import functools
import math
import re
from dataclasses import dataclass
from fractions import Fraction

from .config import check_listing_size
from .errors import DomainError, InvariantError, PrecisionError

INF = math.inf


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    if p < 4:
        return True
    if p % 2 == 0:
        return False
    d = 3
    while d * d <= p:
        if p % d == 0:
            return False
        d += 2
    return True


def _divisors(k: int) -> list[int]:
    out = []
    d = 1
    while d * d <= k:
        if k % d == 0:
            out.append(d)
            if d != k // d:
                out.append(k // d)
        d += 1
    return sorted(out)


def int_valuation(k: int, p: int):
    """p-adic valuation of an ordinary integer; INF for 0.  Needs p >= 2."""
    if p < 2:
        raise DomainError(f"valuations need a base of at least 2, got {p}")
    if k == 0:
        return INF
    k = abs(k)
    v = 0
    while k % p == 0:
        k //= p
        v += 1
    return v


def capped_valuation(k: int, p: int, n: int):
    """Valuation of an integer as seen mod p**n: INF when p**n divides it."""
    v = int_valuation(k % p**n, p)
    return INF if v >= n else v


@dataclass(frozen=True)
class PadicInt:
    """A p-adic integer known to finitely many digits.

    Equality compares prime, precision, and digits; the same residue at two
    different precisions is two different values.
    """

    prime: int
    digits: tuple[int, ...]

    def __post_init__(self):
        p = self.prime
        if not _is_prime(p):
            raise DomainError(f"{p} is not prime")
        if not self.digits:
            raise DomainError("a PadicInt needs at least one digit")
        for d in self.digits:
            if not (0 <= d < p):
                raise DomainError(f"digit {d} out of range for base {p}")

    # -- construction ------------------------------------------------------

    @classmethod
    def from_int(cls, value: int, prime: int, precision: int) -> "PadicInt":
        if precision < 1:
            raise DomainError("precision must be at least 1")
        value %= prime**precision
        digs = []
        for _ in range(precision):
            value, d = divmod(value, prime)
            digs.append(d)
        return cls(prime, tuple(digs))

    @classmethod
    def parse(cls, text: str) -> "PadicInt":
        """Inverse of str(): accepts the canonical form p^n:d0,d1,...,d(n-1)."""
        m = re.fullmatch(r"\s*(\d+)\^(\d+):(\d+(?:,\d+)*)\s*", text)
        if not m:
            raise DomainError(f"not a canonical p-adic digit string: {text!r}")
        p, n = int(m.group(1)), int(m.group(2))
        digs = tuple(int(d) for d in m.group(3).split(","))
        if len(digs) != n:
            raise DomainError(f"digit string {text!r} announces {n} digits but carries {len(digs)}")
        return cls(p, digs)

    # -- views -------------------------------------------------------------

    @property
    def precision(self) -> int:
        return len(self.digits)

    def lift(self) -> int:
        """Canonical integer representative in [0, p**precision)."""
        out = 0
        for d in reversed(self.digits):
            out = out * self.prime + d
        return out

    def residue(self, k: int) -> int:
        """Integer representative mod p**k, requiring k <= precision."""
        if k < 0:
            raise DomainError("negative residue length")
        if k > self.precision:
            raise PrecisionError(f"residue mod {self.prime}^{k} needs {k} digits, have {self.precision}")
        out = 0
        for d in reversed(self.digits[:k]):
            out = out * self.prime + d
        return out

    def truncate(self, k: int) -> "PadicInt":
        if k < 1:
            raise DomainError("cannot truncate below one digit")
        if k > self.precision:
            raise PrecisionError(f"cannot truncate {self.precision} digits to {k}")
        if k == self.precision:
            return self
        return PadicInt(self.prime, self.digits[:k])

    def zero_extend(self, k: int) -> "PadicInt":
        """Pad with zero digits up to precision k (no-op if already there).

        The padding is a *choice* of lift; callers are responsible for only
        using digits the mathematics actually determines.
        """
        if k <= self.precision:
            return self
        return PadicInt(self.prime, self.digits + (0,) * (k - self.precision))

    def valuation(self):
        """Index of the first nonzero digit; INF if zero to full precision."""
        for i, d in enumerate(self.digits):
            if d:
                return i
        return INF

    def is_zero(self) -> bool:
        return all(d == 0 for d in self.digits)

    def is_unit(self) -> bool:
        return self.digits[0] != 0

    # -- ring structure ----------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, PadicInt):
            if other.prime != self.prime:
                raise DomainError(f"prime mismatch: {self.prime} vs {other.prime}")
            return other
        if isinstance(other, int):
            # Ordinary integers are exact, so they never lower the precision.
            return PadicInt.from_int(other, self.prime, self.precision)
        return None

    def _binop(self, other, fn):
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        n = min(self.precision, rhs.precision)
        return PadicInt.from_int(fn(self.residue(n), rhs.residue(n)), self.prime, n)

    def __add__(self, other):
        return self._binop(other, lambda a, b: a + b)

    __radd__ = __add__

    def __sub__(self, other):
        return self._binop(other, lambda a, b: a - b)

    def __rsub__(self, other):
        return self._binop(other, lambda a, b: b - a)

    def __mul__(self, other):
        return self._binop(other, lambda a, b: a * b)

    __rmul__ = __mul__

    def __neg__(self):
        return PadicInt.from_int(-self.lift(), self.prime, self.precision)

    def __pow__(self, z):
        """q**z for an integer or p-adic exponent.

        Integer exponents work for any base (negative ones need a unit).
        A p-adic exponent z is only meaningful on the torsion-free part of
        the units, so it requires q = 1 mod p for odd p and q = 1 mod 4 for
        p = 2; there q**z depends on z only mod p**n and is computed at the
        common precision.
        """
        p = self.prime
        if isinstance(z, int):
            if z < 0 and not self.is_unit():
                raise DomainError("negative exponent needs a unit base")
            n = self.precision
            return PadicInt.from_int(pow(self.lift(), z, p**n), p, n)
        if isinstance(z, PadicInt):
            if z.prime != p:
                raise DomainError(f"prime mismatch: {p} vs {z.prime}")
            if p == 2:
                ok = self.precision >= 2 and self.residue(2) == 1
            else:
                ok = self.residue(1) == 1
            if not ok:
                raise DomainError(
                    "p-adic exponents need q = 1 mod p (mod 4 when p = 2); use an integer exponent"
                )
            n = min(self.precision, z.precision)
            return PadicInt.from_int(pow(self.residue(n), z.residue(n), p**n), p, n)
        return NotImplemented

    # -- rendering ---------------------------------------------------------

    def __str__(self) -> str:
        return f"{self.prime}^{self.precision}:" + ",".join(str(d) for d in self.digits)

    def __repr__(self) -> str:
        return f"PadicInt.parse({str(self)!r})"

    def __int__(self) -> int:
        return self.lift()

    def __bool__(self) -> bool:
        return not self.is_zero()


# -- free functions ---------------------------------------------------------


def from_rational(numerator: int, denominator: int, p: int, n: int) -> PadicInt:
    """The p-adic expansion of numerator/denominator to n digits.

    The fraction is reduced first, so e.g. 255/3 works 3-adically; after
    reduction the denominator must be a p-unit.  Any n >= 1 is computed:
    the precision cap is checked on the caller's own number only (the CLI
    checks --n or --precision), and exceptional_q alone bounds its working
    level; no other derived level is checked.
    """
    if denominator == 0:
        raise DomainError("zero denominator")
    if n < 1:
        raise DomainError("precision must be at least 1")
    g = math.gcd(numerator, denominator)
    if g:
        numerator //= g
        denominator //= g
    if denominator % p == 0:
        raise DomainError(f"{numerator}/{denominator} is not a {p}-adic integer")
    inv = pow(denominator, -1, p**n)
    return PadicInt.from_int(numerator * inv, p, n)


def unit_inverse(x: PadicInt) -> PadicInt:
    """Inverse of a unit, by Newton digit-lifting from the inverse mod p."""
    if not x.is_unit():
        raise DomainError("only units are invertible")
    p, n = x.prime, x.precision
    xl = x.lift()
    inv = pow(x.residue(1), -1, p)
    k = 1
    while k < n:
        k = min(2 * k, n)
        m = p**k
        inv = inv * (2 - xl * inv) % m
    return PadicInt.from_int(inv, p, n)


def log_unit(x: int, p: int, n: int) -> int:
    """The p-adic logarithm of x = 1 mod p, mod p^n, on plain ints.

    log x = (x^(p^n) - 1)/p^n + O(p^(n+1)): one pow mod p^(2n) and one exact
    division, since x^(p^n) = 1 mod p^(n+1).
    """
    if (x - 1) % p:
        raise DomainError(f"log needs x = 1 mod {p}, got {x}")
    m = p**n
    return (pow(x, m, m * m) - 1) // m % m


def exact_div(x: PadicInt, y: PadicInt) -> PadicInt:
    """x / y when y exactly divides x; costs valuation(y) digits of precision."""
    if x.prime != y.prime:
        raise DomainError(f"prime mismatch: {x.prime} vs {y.prime}")
    p = x.prime
    v = y.valuation()
    if v is INF:
        raise DomainError("division by a value that is zero at full precision")
    if x.valuation() < v:
        raise DomainError("quotient would not be a p-adic integer")
    n = min(x.precision, y.precision) - v
    if n < 1:
        raise PrecisionError("no digits left after dividing out the valuation")
    m = p**n
    xs = (x.residue(v + n) // p**v) % m
    ys = (y.residue(v + n) // p**v) % m
    return PadicInt.from_int(xs * pow(ys, -1, m), p, n)


def _order_mod_p(r: int, p: int) -> int:
    r %= p
    if r == 1:  # every unit at p = 2
        return 1
    for d in _divisors(p - 1):
        if pow(r, d, p) == 1:
            return d
    raise DomainError(f"{r} is not a unit mod {p}")  # pragma: no cover


def mult_order(q, n: int) -> int:
    """Order of [q] in (Z/p**n)* via the layered order formula.

    Requires q known to at least n digits.  The brute-force power-iteration
    oracle cross-checks this on full unit grids.
    """
    if isinstance(q, QParameter):
        q = q.value
    if not isinstance(q, PadicInt):
        raise DomainError("mult_order wants a PadicInt or QParameter")
    if n < 1:
        raise DomainError("modulus exponent must be at least 1")
    if q.precision < n:
        raise PrecisionError(f"mult_order mod {q.prime}^{n} needs {n} digits, have {q.precision}")
    if not q.is_unit():
        raise DomainError("mult_order is defined for units only")
    p = q.prime
    r = q.residue(n)
    M = p**n
    if r == 1:
        return 1
    if p == 2:
        if r == M - 1:
            return 2
        m = int_valuation(r - 1, p)
        if m >= 2:
            return 2 ** (n - m)
        # q = 3 mod 4: the even part is controlled by v_2(q + 1)
        l0 = int_valuation(r + 1, p)
        return 2 ** (n - l0)
    o = _order_mod_p(r, p)
    m = int_valuation(pow(r, o, M) - 1, p)
    if m is INF or m >= n:
        return o
    return o * p ** (n - m)


def read_literal(text: str, p: int | None = None):
    """The exact value of a literal: integer k, rational a/b, or canonical
    digit string.

    Integers and rationals come back as a Fraction; digit strings as the
    PadicInt they spell, whose prime must be p when p is given.
    """
    text = text.strip()
    if "^" in text:
        x = PadicInt.parse(text)
        if p is not None and x.prime != p:
            raise DomainError(f"digit string is {x.prime}-adic, expected {p}-adic")
        return x
    a_str, slash, b_str = text.partition("/")
    try:
        return Fraction(int(a_str), int(b_str) if slash else 1)
    except (ValueError, ZeroDivisionError):
        what = "not a rational literal" if slash else "unrecognized value literal"
        raise DomainError(f"{what}: {text!r}") from None


def parse_value(text: str, p: int | None = None, n: int | None = None):
    """Parse an input literal into an operand.

    Integers, and rationals a/b that reduce to one, come back as exact
    Python ints (the caller chooses a precision); other rationals need p and
    n and come back as PadicInt; digit strings carry their own prime and
    precision, checked against p/n when given.
    """
    x = read_literal(text, p)
    if isinstance(x, PadicInt):
        if n is not None and x.precision < n:
            raise PrecisionError(f"digit string has {x.precision} digits, need at least {n}")
        return x
    if x.denominator == 1:
        return x.numerator
    if p is None or n is None:
        raise DomainError("rational input needs a prime and a precision")
    return from_rational(x.numerator, x.denominator, p, n)


def residue_of(x, p: int, n: int) -> int:
    """x mod p**n, for an int or for a p-adic PadicInt known to n digits."""
    if isinstance(x, int):
        return x % p**n
    if isinstance(x, PadicInt):
        if x.prime != p:
            raise DomainError(f"prime mismatch: {p} vs {x.prime}")
        return x.residue(n)
    raise DomainError("expected an int or a PadicInt")


# -- coset bookkeeping ------------------------------------------------------


@dataclass(frozen=True)
class CosetDescriptor:
    """The arithmetic progression base + p**exponent * Z, tracked mod p**exponent.

    Normalized on construction (base reduced mod p**exponent) so equal cosets
    compare equal.
    """

    base: PadicInt
    exponent: int

    def __post_init__(self):
        if self.exponent < 0:
            raise DomainError("coset exponent must be nonnegative")
        if self.base.precision < self.exponent:
            raise PrecisionError(
                f"coset mod {self.base.prime}^{self.exponent} needs that many digits of base"
            )
        norm = self.base.truncate(max(self.exponent, 1))
        if self.exponent == 0 and not norm.is_zero():
            norm = PadicInt.from_int(0, self.base.prime, 1)
        if norm is not self.base:
            object.__setattr__(self, "base", norm)

    @property
    def prime(self) -> int:
        return self.base.prime

    @property
    def modulus(self) -> int:
        return self.prime**self.exponent

    def contains(self, z) -> bool:
        return (residue_of(z, self.prime, self.exponent) - self.base.lift()) % self.modulus == 0

    def residues(self, n: int) -> list[int]:
        """All members mod p**n, sorted; needs n >= exponent and p**(n - exponent) within the scan budget."""
        if n < self.exponent:
            raise DomainError(f"coset mod {self.prime}^{self.exponent} does not refine mod {self.prime}^{n}")
        count = check_listing_size(self.prime ** (n - self.exponent), self.prime, n)
        step = self.modulus
        return sorted((self.base.lift() + k * step) % self.prime**n for k in range(count))

    def __str__(self) -> str:
        return f"{self.base.lift()}+{self.prime}^{self.exponent}Z"


def check_disjoint(cosets) -> None:
    """Raise InvariantError if two of the cosets share a residue."""
    for i, a in enumerate(cosets):
        for b in cosets[i + 1 :]:
            if (a.base.lift() - b.base.lift()) % a.prime ** min(a.exponent, b.exponent) == 0:
                raise InvariantError(f"cosets {a} and {b} overlap")


def coset_pair(p: int, e: int) -> tuple[CosetDescriptor, ...]:
    """p**e·Z and 1 + p**e·Z, in that order; the single full-ring coset when e = 0."""
    if e == 0:
        return (CosetDescriptor(PadicInt.from_int(0, p, 1), 0),)
    return tuple(CosetDescriptor(PadicInt.from_int(b, p, e), e) for b in (0, 1))


# -- shapes shared within one sweep ------------------------------------------

_SHAPE_MEMOS = []  # the lru caches behind every shared_shape builder
_sharing = 0  # depth of open sharing_shapes() blocks


def shared_shape(build):
    """Decorate a builder of a frozen value that depends only on its
    arguments.  Inside a sharing_shapes() block each value is built, and
    validated, once and then shared (at most 256 of them); outside one,
    every call builds afresh."""
    memo = functools.lru_cache(maxsize=256)(build)
    _SHAPE_MEMOS.append(memo)

    @functools.wraps(build)
    def shaped(*key):
        return memo(*key) if _sharing else build(*key)

    shaped.cache_info = memo.cache_info
    return shaped


@contextlib.contextmanager
def sharing_shapes():
    """Share shared_shape values for the length of the block.  The memos
    are emptied when the outermost block closes, so no value outlives the
    sweep that built it and repeated sweeps do the same work."""
    global _sharing
    _sharing += 1
    try:
        yield
    finally:
        _sharing -= 1
        if not _sharing:
            for memo in _SHAPE_MEMOS:
                memo.cache_clear()


# -- the parameter wrapper ---------------------------------------------------


class QParameter:
    """A unit parameter q with its valuation/order metadata precomputed.

    m0 is v_p(q - 1) and l0 (p = 2 only) is v_2(q + 1), both INF when the
    relevant difference vanishes to full precision.  o_p is the order of q
    mod p (always 1 for p = 2).  order_valuation() is v_p(q**o_p - 1), the
    quantity that controls order growth and image spacing for parameters
    outside 1 + pZ_p; on 1 + pZ_p it equals m0.
    """

    __slots__ = ("value", "m0", "l0", "o_p", "_ordval")

    def __init__(self, value: PadicInt):
        if not isinstance(value, PadicInt):
            raise DomainError("QParameter wants a PadicInt")
        if not value.is_unit():
            raise DomainError("q must be a unit")
        self.value = value
        p, n = value.prime, value.precision
        q = value.lift()
        self.m0 = capped_valuation(q - 1, p, n)
        self.l0 = capped_valuation(q + 1, p, n) if p == 2 else None
        self.o_p = _order_mod_p(q, p)
        if self.o_p == 1:
            self._ordval = self.m0
        else:
            self._ordval = capped_valuation(pow(q, self.o_p, p**n) - 1, p, n)

    @property
    def prime(self) -> int:
        return self.value.prime

    @property
    def precision(self) -> int:
        return self.value.precision

    @property
    def in_u1(self) -> bool:
        """Whether q = 1 mod p (for p = 2: whether q is a unit, i.e. always)."""
        return self.m0 >= 1

    @property
    def in_u2(self) -> bool:
        return self.m0 >= 2

    def order_valuation(self):
        return self._ordval

    @property
    def branch(self):
        """For p = 3 parameters in 1 + 3Z_3: "seven" (q = 7 mod 9), "four"
        (q = 4 mod 9), or "deep" (q = 1 mod 9).  None when undefined or
        undecidable at this precision."""
        if self.prime != 3 or not self.in_u1:
            return None
        if self.m0 is INF and self.precision < 2:
            return None
        if self.m0 >= 2:
            return "deep"
        return "four" if self.value.residue(2) == 4 else "seven"

    def __repr__(self) -> str:
        return f"QParameter({self.value!r})"


def as_qparameter(q) -> QParameter:
    """Coerce a PadicInt (or pass through a QParameter)."""
    if isinstance(q, QParameter):
        return q
    if isinstance(q, PadicInt):
        return QParameter(q)
    raise DomainError("expected a QParameter or PadicInt")
