"""Modular fixed points of the level-n map: the two-coset criterion, the
p = 3 rooted/drifting structure, counts, and one-step propagation.

A residue z is fixed when iota_q(z) = z mod p**n.  Away from p = 3 with
q = 1 mod 3 but not mod 9, the fixed set is exactly the pair
a0·Z union 1 + a0·Z.  In the remaining (rich) regime the set is governed by
the smallest valuation v0 = v(z(z-1)) among fixed points: a "rooted" point
with v0 < (n-1)/2 persists and propagates upward one digit at a time, while
"drifting" structure reshuffles at every level.
"""

from __future__ import annotations

from dataclasses import dataclass

from .config import check_listing_size
from .errors import DomainError, InvariantError, PrecisionError
from .padic_core import (
    INF,
    CosetDescriptor,
    PadicInt,
    as_qparameter,
    capped_valuation,
    check_disjoint,
    coset_pair,
    int_valuation,
    residue_of,
    shared_shape,
)
from .cocycle import iota_eval

KIND_PAIRS = "pairs-only"
KIND_ROOTED = "rooted"
KIND_DRIFTING = "drifting"


@dataclass(frozen=True)
class FixedPointSet:
    """The complete fixed set mod p**modulus_exponent, as disjoint cosets.

    kind: "pairs-only" (the two-coset regime, including the degenerate
    full-ring case), "rooted", or "drifting".  v0 is the smallest nonzero
    v(z(z-1)) over fixed points (None in the pairs-only case);
    tau_exponent = n - v0 - 1 is the rooted repetition modulus exponent
    (None unless rooted).
    """

    prime: int
    modulus_exponent: int
    cosets: tuple[CosetDescriptor, ...]
    kind: str
    v0: int | None = None
    tau_exponent: int | None = None

    def __post_init__(self):
        n = self.modulus_exponent
        if self.kind not in (KIND_PAIRS, KIND_ROOTED, KIND_DRIFTING):
            raise DomainError(f"unknown kind {self.kind!r}")
        for c in self.cosets:
            if c.prime != self.prime or c.exponent > n:
                raise DomainError("coset incompatible with the stated modulus")
        check_disjoint(self.cosets)
        if self.kind == KIND_ROOTED:
            if self.v0 is None or not (1 <= self.v0 and 2 * self.v0 < n - 1):
                raise InvariantError(f"rooted set needs 1 <= v0 < (n-1)/2, got v0={self.v0}")
            if self.tau_exponent != n - self.v0 - 1:
                raise InvariantError("tau_exponent must be n - v0 - 1")
            if not any(
                c.exponent == self.tau_exponent and c.base.lift() % self.prime**self.tau_exponent not in (0, 1)
                for c in self.cosets
            ):
                raise InvariantError("rooted set lacks its non-trivial coset at the tau modulus")

    def contains(self, z) -> bool:
        return any(c.contains(z) for c in self.cosets)

    def residues(self) -> list[int]:
        """Sorted members mod p**modulus_exponent, at most the scan budget."""
        check_listing_size(self.count(), self.prime, self.modulus_exponent)
        out: set[int] = set()
        for c in self.cosets:
            out.update(c.residues(self.modulus_exponent))
        return sorted(out)

    def count(self) -> int:
        n = self.modulus_exponent
        # cosets are pairwise disjoint (construction sites guarantee it);
        # the degenerate full ring is the single exponent-0 coset.
        return sum(self.prime ** (n - c.exponent) for c in self.cosets)


def _sorted_cosets(cosets) -> tuple[CosetDescriptor, ...]:
    return tuple(sorted(cosets, key=lambda c: (c.exponent, c.base.lift())))


def is_fixed(q, z, n: int) -> bool:
    """Whether iota_q(z) = z mod p**n (q must lie in 1 + pZ_p)."""
    q = as_qparameter(q)
    if not q.in_u1:
        raise DomainError("fixed points are defined for q in 1 + pZ_p")
    r = residue_of(z, q.prime, n)
    return iota_eval(q, r, n).lift() == r


def _pair_threshold(q, n: int):
    """The criterion threshold n - m0 + v_p(2), resolving precision honestly."""
    p = q.prime
    extra = 1 if p == 2 else 0
    m0 = q.m0
    if m0 is INF:
        # true m0 is at least the precision; once that reaches n the
        # threshold is <= v_p(2) and the criterion is vacuously true.
        if q.precision < n:
            raise PrecisionError(f"q = 1 to {q.precision} digits; need {n} to place the threshold")
        return extra  # threshold has dropped to at most v_p(2)
    return n - m0 + extra


def _zz1_valuation(z, p: int, n: int):
    """v(z(z-1)) as seen mod p**n; INF = vanishes as far as seen."""
    r = residue_of(z, p, n)
    return capped_valuation(r * (r - 1), p, n)


def pair_criterion(q, z, n: int) -> bool:
    """The inequality v_p(z(z-1)) >= n - m0 + v_p(2).

    Always sufficient for fixedness; exact when p != 3, or q = 1 mod p^2,
    or n <= 2, or z = 2 mod 3.
    """
    q = as_qparameter(q)
    if not q.in_u1:
        raise DomainError("the pair criterion applies to q in 1 + pZ_p")
    p = q.prime
    v = _zz1_valuation(z, p, n)
    thresh = _pair_threshold(q, n)
    return v >= thresh


def _enumerate_rich(q, n: int) -> FixedPointSet:
    """p = 3, q = 4 or 7 mod 9, n >= 2: the rooted/drifting case split."""
    p = 3
    branch = q.branch  # "seven" or "four"
    hit = find_rooted(q, n)
    if hit is not None:
        z0, v0 = hit
        tau_e = n - v0 - 1
        if branch == "seven":
            others = [
                CosetDescriptor(PadicInt.from_int(0, p, tau_e), tau_e),
                CosetDescriptor(PadicInt.from_int(1, p, n - 1), n - 1),
            ]
        else:
            others = [
                CosetDescriptor(PadicInt.from_int(1, p, tau_e), tau_e),
                CosetDescriptor(PadicInt.from_int(0, p, n - 1), n - 1),
            ]
        cosets = _sorted_cosets([CosetDescriptor(z0.zero_extend(tau_e), tau_e)] + others)
        return FixedPointSet(p, n, cosets, KIND_ROOTED, v0, tau_e)
    # drifting: floor(n/2) spacing on the branch side, n-1 on the other
    e = n // 2
    if branch == "seven":
        cosets = [
            CosetDescriptor(PadicInt.from_int(0, p, e), e),
            CosetDescriptor(PadicInt.from_int(1, p, n - 1), n - 1),
        ]
    else:
        cosets = [
            CosetDescriptor(PadicInt.from_int(1, p, e), e),
            CosetDescriptor(PadicInt.from_int(0, p, n - 1), n - 1),
        ]
    return FixedPointSet(p, n, _sorted_cosets(cosets), KIND_DRIFTING, e, None)


@shared_shape
def _pair_set(p: int, n: int, e: int) -> FixedPointSet:
    """The pairs-only fixed set mod p**n at coset exponent e (0: the full
    ring).  It depends on q only through (p, n, e), so within a sweep each
    shape is built and validated once and shared by every parameter that
    has it."""
    return FixedPointSet(p, n, coset_pair(p, e), KIND_PAIRS)


def enumerate_fixed_points(q, n: int) -> FixedPointSet:
    """The complete fixed set mod p**n.

    q = 1 mod p**n gives the full ring (one exponent-0 coset).  The generic
    regimes give the two-coset pair with a0 = p^(n-m0) (p odd) or
    2^(n-m0+1) (p = 2).  For p = 3 with q = 4, 7 mod 9 the exact
    rooted/drifting union is located by search.
    """
    q = as_qparameter(q)
    if not q.in_u1:
        raise DomainError("fixed points are defined for q in 1 + pZ_p")
    if n < 1:
        raise DomainError("modulus exponent must be at least 1")
    p = q.prime
    m0 = q.m0

    if m0 is INF or m0 >= n:
        # q = 1 mod p^n: every residue is fixed
        if q.precision < n:
            raise PrecisionError(f"need q mod {p}^{n}, have {q.precision} digits")
        return _pair_set(p, n, 0)

    if p == 3 and m0 == 1 and n >= 2:
        if q.precision < 1 + n:
            raise PrecisionError(f"need q mod 3^{1 + n}, have {q.precision} digits")
        return _enumerate_rich(q, n)

    # two-coset regime
    return _pair_set(p, n, n - m0 + (1 if p == 2 else 0))


def count_fixed_points(q, n: int) -> int:
    """|fixed set mod p**n|; closed forms 2p^m0 / 2^m0 / 2·3^(v0+1)+3 /
    3^(n-floor(n/2))+3 / p^n are checked against this as test identities.

    q's own m0 and regime are computed on every call.  Within a sweep
    (a `verify` suite) a pair-shaped set is the one enumerate_fixed_points
    built once for its (p, n, e), so counting after enumerating rebuilds
    nothing; outside one, each call builds its own."""
    return enumerate_fixed_points(q, n).count()


def classify(q, z, n: int) -> str:
    """Classify z for the rich regime (p = 3, q = 4 or 7 mod 9):
    "not-fixed", "rooted" (1 <= v < (n-1)/2), "pair" (v >= n - m0), or
    "drifting" (in between).  A z(z-1) that vanishes to full known
    precision lands in "pair" -- at that point v is at least n - m0 for
    certain, never guessed."""
    q = as_qparameter(q)
    p = q.prime
    if p != 3 or not q.in_u1 or q.in_u2:
        raise DomainError("classification applies to p = 3 with q = 4 or 7 mod 9")
    if not is_fixed(q, z, n):
        return "not-fixed"
    v = _zz1_valuation(z, p, n)
    if v >= n - 1:  # m0 = 1 here, v_p(2) = 0; at n = 1 every residue is a pair
        return "pair"
    if v == 0:
        raise InvariantError(f"z = {z} is fixed with unit z(z-1); that contradicts the pair theorem")
    if 2 * v < n - 1:
        return "rooted"
    return "drifting"


def _unique_lift(fixes, base: int, step: int, what: str) -> int:
    """The unique digit c in {0,1,2} with fixes(base + c·step).

    Every lifting step of the p = 3 construction keeps exactly one of its
    three candidates; none or several signal an upstream bug.
    """
    good = [c for c in (0, 1, 2) if fixes(base + c * step)]
    if len(good) != 1:
        raise InvariantError(f"{what}: {len(good)} valid digits {good}; expected exactly one")
    return good[0]


def _rooted_search(q, top_v0: int, target) -> tuple[int, int] | None:
    """The rooted fixed point of least valuation v0 <= top_v0, as (z, v0)
    with z known mod 3^(target(v0) - v0 - 1); None when there is none.

    A point with v(z(z-1)) = v0 first becomes visible at level 2v0+2, where
    it is determined mod 3^(v0+1): only offset + 3^v0·{1, 2} need testing
    (offset 0 on the seven branch, 1 on the four branch).  Rooted points
    persist, so a hit is lifted one digit per level up to level target(v0).
    q must be known mod 3^(L+1) at every level L tested.  Two hits at one
    valuation contradict uniqueness and raise InvariantError.
    """
    offset = 0 if q.branch == "seven" else 1
    for v0 in range(1, top_v0 + 1):
        level = 2 * v0 + 2
        hits = [z for z in (offset + 3**v0, offset + 2 * 3**v0) if is_fixed(q, z, level)]
        if len(hits) > 1:
            raise InvariantError(
                f"two rooted candidates {hits} at valuation {v0} level {level} -- uniqueness violated"
            )
        if hits:
            z = hits[0]
            for lev in range(level + 1, target(v0) + 1):
                step = 3 ** (lev - v0 - 2)
                z += step * _unique_lift(
                    lambda c: is_fixed(q, c, lev), z, step, f"lifting the valuation-{v0} root to level {lev}"
                )
            return z, v0
    return None


def find_rooted(q, n: int):
    """The unique rooted fixed point at level n, as (z0 mod 3^(n-v0-1), v0),
    or None when there is none.

    Valuations v0 = 1, 2, ... with 2·v0 < n-1 are tried in turn, each with
    two candidates at its visibility level 2v0+2; the first hit is lifted one
    digit per level up to n.  The cost is a few evaluations per level.
    """
    q = as_qparameter(q)
    if q.prime != 3 or not q.in_u1 or q.in_u2 or q.m0 is INF:
        raise DomainError("rooted points live at p = 3 with q = 4 or 7 mod 9")
    if n < 2:
        raise DomainError("levels below 2 have no room for structure")
    if q.precision < 1 + n:
        raise PrecisionError(f"need q mod 3^{1 + n}, have {q.precision} digits")
    hit = _rooted_search(q, (n - 2) // 2, lambda v0: n)
    if hit is None:
        return None
    z, v0 = hit
    return PadicInt.from_int(z, 3, n - v0 - 1), v0


def propagate_rooted(q, z0, n: int) -> int:
    """The unique digit c in {0,1,2} with z0 + c·3^(n-v0-1) fixed mod 3^(n+1).

    Preconditions: z0 is fixed mod 3^n with v0 = v(z0(z0-1)) < (n-1)/2 and
    q is known mod 3^(n+2).  No valid digit, or more than one, signals an
    upstream bug and raises InvariantError.
    """
    q = as_qparameter(q)
    if q.prime != 3 or not q.in_u1 or q.in_u2:
        raise DomainError("propagation applies to p = 3 with q = 4 or 7 mod 9")
    if q.precision < n + 2:
        raise PrecisionError(f"need q mod 3^{n + 2}, have {q.precision} digits")
    if isinstance(z0, PadicInt):
        z0 = z0.residue(n) if z0.precision >= n else z0.lift()
    if not isinstance(z0, int):
        raise DomainError("z0 must be an int or PadicInt")
    v0 = int_valuation(z0 * (z0 - 1), 3)
    if v0 is INF or not (1 <= v0 and 2 * v0 < n - 1):
        raise DomainError(f"z0 = {z0} is not rooted at level {n} (v0 = {v0})")
    if not is_fixed(q, z0, n):
        raise DomainError(f"z0 = {z0} is not fixed mod 3^{n}")
    return _unique_lift(
        lambda z: is_fixed(q, z, n + 1), z0, 3 ** (n - v0 - 1), f"propagation of {z0} at level {n}"
    )
