"""The parameter <-> fixed-point correspondence at p = 3.

For q = 4 or 7 (mod 9) the interpolation iota_q has, besides the trivial
fixed points 0 and 1, a single distinguished 3-adic fixed point z_q, and the
assignment q -> z_q is a homeomorphism onto (3Z_3 u (1+3Z_3)) minus {0, 1}.
This module computes both directions at finite precision:

  * solve_q_for_z / psi: given z, recover the unique q with iota_q(z) = z,
    one digit of q per lifting stage (three candidates, one survivor);
  * phi: given q, locate its rooted fixed point with find_rooted's search
    (candidate valuations, then one digit per level), or report that q is
    indistinguishable from one of the two exceptional parameters at the
    available precision;
  * exceptional_q: the two parameters whose only fixed points are 0 and 1,
    the roots of the multiplier equation h(q) = 0, solved by Newton,
    certified by one fixedness test and cached across calls;
  * F_map / G_map: the affine-renormalized versions of phi that are isometries
    of Z_3 in both branches.

Precision bookkeeping follows one rule everywhere: fixedness of a point with
v(z(z-1)) = v0 at level L depends only on q mod 3^(L-v0).  That is what makes
zero-padding q beyond its stated digits legitimate in the scans below, and it
is why phi loses exactly one digit (output z mod 3^(N-1) from q mod 3^N) while
psi needs v0 spare digits of z (input z mod 3^(P+v0) for output q mod 3^P).
"""

from __future__ import annotations

from dataclasses import dataclass

from .config import precision_cap
from .errors import DomainError, InvariantError, PrecisionError, ResourceError
from .fixed_points import _rooted_search, _unique_lift, is_fixed
from .padic_core import (
    INF,
    PadicInt,
    QParameter,
    as_qparameter,
    capped_valuation,
    int_valuation,
    log_unit,
    residue_of,
)

BRANCHES = ("seven", "four")

# z = offset mod 3 on each branch; q = 1 + base*3 mod 9.
_BRANCH_OFFSET = {"seven": 0, "four": 1}
_BRANCH_BASE = {"seven": 2, "four": 1}


def _fixes(q_int: int, z, level: int) -> bool:
    """Does q_int, zero-padded to level+1 digits, fix z mod 3^level?

    The padding is sound exactly when the caller's test is insensitive to
    the padded digits (see module docstring).
    """
    return is_fixed(QParameter(PadicInt.from_int(q_int, 3, level + 1)), z, level)


def _append_q_digit(digits: list[int], z, level: int, what: str) -> None:
    """Append the unique next digit of q that keeps z fixed mod 3^level."""
    k = len(digits)
    base = sum(d * 3**i for i, d in enumerate(digits))
    digits.append(_unique_lift(lambda q_int: _fixes(q_int, z, level), base, 3**k, what))


def solve_q_for_z(z, n: int) -> PadicInt:
    """The unique q = 4 or 7 mod 9 with iota_q(z) = z mod 3^n, as q mod 3^(n-v0).

    z (int or 3-adic) must satisfy 1 <= v0 <= n-2 for v0 = v(z(z-1)) and be
    known mod 3^n.  The first digit of q is forced by the branch law (z in 3Z
    gives q = 7, z in 1+3Z gives q = 4 mod 9); each later digit is found by
    testing the three candidates with one evaluation each.
    """
    if n < 3:
        raise DomainError("solving needs n >= 3 (v0 >= 1 and v0 <= n-2)")
    z = residue_of(z, 3, n)
    v0 = capped_valuation(z * (z - 1), 3, n)
    if v0 is INF:
        raise DomainError(
            "z is 0 or 1 at every available digit; its parameter is exceptional_q's job"
        )
    if v0 == 0:
        raise DomainError("z = 2 mod 3 is never a fixed point of a branch parameter")
    if v0 > n - 2:
        raise DomainError(f"v(z(z-1)) = {v0} needs working precision n >= {v0 + 2}, got {n}")

    digits = [1, _BRANCH_BASE["seven" if z % 3 == 0 else "four"]]
    # Every branch parameter fixes every admissible z at level v0 + 2, so a
    # failure here is an internal inconsistency, not a bad input.
    if not _fixes(1 + 3 * digits[1], z, v0 + 2):
        raise InvariantError(f"branch start {digits} does not fix {z} mod 3^{v0 + 2}")
    # After appending digit k, iota_q(z) = z mod 3^(k + v0 + 1).
    while len(digits) < n - v0:
        k = len(digits)
        _append_q_digit(digits, z, k + v0 + 1, f"digit {k} of q for z = {z}")
    return PadicInt(3, tuple(digits))


def psi(z, out_precision: int) -> PadicInt:
    """The correspondence z -> q, as q mod 3^out_precision.

    z must lie in 3Z_3 u (1+3Z_3).  If z is 0 or 1 at every available digit
    the answer is the matching exceptional parameter; otherwise z must carry
    out_precision + v0 digits and the digit solver runs at level
    out_precision + v0.
    """
    P = out_precision
    if P < 1:
        raise DomainError("output precision must be at least 1")

    if isinstance(z, int):
        v0 = int_valuation(z * (z - 1), 3)
        offset = z % 3
    elif isinstance(z, PadicInt):
        if z.prime != 3:
            raise DomainError("the correspondence is specific to p = 3")
        v0 = (z * (z - 1)).valuation()
        offset = z.residue(1)
    else:
        raise DomainError("z must be an int or PadicInt")

    if offset == 2:
        raise DomainError("z = 2 mod 3 is outside the correspondence's domain")
    if v0 is INF:
        branch = "seven" if offset == 0 else "four"
        return exceptional_q(branch, P)
    if v0 == 0:
        # offset is 0 or 1, so v(z(z-1)) >= 1 always; belt and braces.
        raise InvariantError(f"v(z(z-1)) = 0 with z = {offset} mod 3")
    if P == 1:
        return PadicInt.from_int(1, 3, 1)

    n = P + v0
    if isinstance(z, PadicInt) and z.precision < n:
        raise PrecisionError(
            f"psi at precision {P} needs z mod 3^{n} (v0 = {v0}); z has {z.precision} digits"
        )
    return solve_q_for_z(z, n)


# ---------------------------------------------------------------------------
# The exceptional parameters.
# ---------------------------------------------------------------------------

# The longest certified truncation of each branch's exceptional parameter;
# a longer one replaces it by a single assignment, so readers never see a
# partly built tuple.
_EXC_DIGITS: dict[str, tuple[int, ...]] = {
    "seven": (1, _BRANCH_BASE["seven"]),
    "four": (1, _BRANCH_BASE["four"]),
}


def _multiplier_root(branch: str, digit_count: int) -> int:
    """The root of the branch's multiplier equation, mod 3^digit_count.

    iota_q has multiplier log q/(q - 1) at 0 and q log q/(q - 1) at 1; the
    exceptional parameter is where it is 1, the root of h(q) = log q - (q - 1)
    (seven) or h(q) = q log q - (q - 1) (four).  h' has valuation 1, so
    Newton from q = 7 or 4 (both roots mod 9) takes d known digits to 2d - 1,
    reading h one digit deeper than it returns.
    """
    m = 3 ** (digit_count + 1)
    q, known = 1 + 3 * _BRANCH_BASE[branch], 2
    while known < digit_count:
        log_q = log_unit(q, 3, digit_count + 1)
        if branch == "seven":  # h/h' = h q/(1 - q)
            num, den = (log_q - q + 1) * q, 1 - q
        else:  # h/h' = h/log q
            num, den = q * log_q - q + 1, log_q
        q = (q - num // 3 * pow(den // 3, -1, m)) % m
        known = 2 * known - 1
    return q % 3**digit_count


def exceptional_q(branch: str, digit_count: int) -> PadicInt:
    """The branch's exceptional parameter to digit_count digits.

    Exactly two branch parameters have no fixed points besides 0 and 1; they
    are the limits of psi at those two points.  The truncation with k+1 digits
    is characterised by fixing 0 + 3^k (branch seven) or 1 + 3^k (branch four)
    modulo 3^(2k+1): exactly one branch class mod 3^(k+1) passes that test.
    The digits come from _multiplier_root and are certified by that one test,
    so digit_count is limited by the precision cap at level 2*digit_count - 1.
    """
    if branch not in BRANCHES:
        raise DomainError(f"branch must be one of {BRANCHES}, got {branch!r}")
    if digit_count < 1:
        raise DomainError("digit_count must be at least 1")
    digits = _EXC_DIGITS[branch]
    if digit_count > len(digits):
        k = digit_count - 1
        top_level = 2 * k + 1
        cap = precision_cap()
        if top_level > cap:
            raise ResourceError(
                f"digit {digit_count} needs a fixedness test at level {top_level}, "
                f"beyond the precision cap {cap} (QADIC_PRECISION_CAP)"
            )
        root = _multiplier_root(branch, digit_count)
        witness = _BRANCH_OFFSET[branch] + 3**k
        if not _fixes(root, witness, top_level):
            raise InvariantError(
                f"the {branch}-branch multiplier root {root} mod 3^{digit_count} "
                f"does not fix {witness} mod 3^{top_level}"
            )
        digits = PadicInt.from_int(root, 3, digit_count).digits
        _EXC_DIGITS[branch] = digits
    return PadicInt(3, digits[:digit_count])


@dataclass(frozen=True)
class ExceptionalReport:
    """phi's honest answer when no rooted fixed point is within reach.

    Scanning valuations 1..agreement_depth-2 exhausts the input's precision
    without a hit, which happens if and only if q agrees with the branch's
    exceptional parameter mod 3^agreement_depth.  Whether q *is* that
    parameter is undecidable at finite precision, so no stronger claim is made.
    """

    branch: str
    agreement_depth: int

    def __str__(self):
        return (
            f"no rooted fixed point within precision; q agrees with the "
            f"{self.branch}-branch exceptional parameter mod 3^{self.agreement_depth}"
        )


def phi(q, in_precision: int):
    """The correspondence q -> z_q, as z mod 3^(in_precision - 1).

    q must be 4 or 7 mod 9 and known mod 3^in_precision.  The rooted fixed
    point is found by find_rooted's search over valuations v <= in_precision - 3:
    a point with v(z(z-1)) = v first becomes visible at level 2v+2, where
    only two candidates need testing, and a hit is lifted one digit per level
    up to level in_precision + v.  Every test depends only on q mod
    3^in_precision, so q is zero-padded once beyond that, by the v0-shift rule.

    If every usable valuation comes up empty, q is indistinguishable from an
    exceptional parameter and an ExceptionalReport with
    agreement_depth = in_precision - 1 is returned instead.

    Deep searches test fixedness at levels up to 2*in_precision - 3.
    """
    N = in_precision
    if N < 2:
        raise DomainError(f"phi needs q mod 9 at least; in_precision is {N}")
    q = as_qparameter(q)
    if q.prime != 3:
        raise DomainError("the correspondence is specific to p = 3")
    branch = q.branch
    if branch not in BRANCHES:
        raise DomainError("q must be 4 or 7 mod 9 (known at least mod 9)")
    if q.precision < N:
        raise PrecisionError(f"q has {q.precision} digits, stated precision is {N}")

    if N == 2:
        # One output digit, and the branch law already dictates it.
        return PadicInt.from_int(_BRANCH_OFFSET[branch], 3, 1)

    # The deepest test is at level N + v0 <= 2N - 3, which reads 2N - 2 digits.
    padded = QParameter(PadicInt.from_int(q.value.residue(N), 3, 2 * N - 2))
    hit = _rooted_search(padded, N - 3, lambda v0: N + v0)
    if hit is None:
        return ExceptionalReport(branch=branch, agreement_depth=N - 1)
    return PadicInt.from_int(hit[0], 3, N - 1)


# ---------------------------------------------------------------------------
# The renormalized isometries.
# ---------------------------------------------------------------------------


def _isometry(x, P: int, branch: str):
    """Common core of F_map and G_map: conjugate phi by the affine charts."""
    if P < 1:
        raise DomainError("output precision must be at least 1")
    offset = _BRANCH_OFFSET[branch]
    base = 4 if branch == "four" else 7
    x_int = residue_of(x, 3, P + 1)
    # q = base + 9x is exact: two digits in, two digits up.
    q = QParameter(PadicInt.from_int(base + 9 * x_int, 3, P + 3))
    out = phi(q, P + 3)
    if isinstance(out, ExceptionalReport):
        # Agreement with the exceptional parameter mod 3^(P+2) forces
        # v(z - offset) >= P + 1, so the chart image is 0 mod 3^P exactly.
        return PadicInt.from_int(0, 3, P)
    # out = z mod 3^(P+2) with z = offset mod 3; the chart is (z - offset)/3.
    shifted = (out.residue(P + 2) - offset) // 3
    return PadicInt.from_int(shifted, 3, P + 1).truncate(P)


def F_map(x, out_precision: int) -> PadicInt:
    """(phi(4 + 9x) - 1)/3 mod 3^out_precision; needs x mod 3^(out_precision+1).

    An isometry of Z_3: v(F(x) - F(x')) = v(x - x').  At the one point where
    phi reports exceptional agreement the value is 0 to full output precision
    (provably so, from the agreement depth), making the map total.
    """
    return _isometry(x, out_precision, "four")


def G_map(x, out_precision: int) -> PadicInt:
    """phi(7 + 9x)/3 mod 3^out_precision; needs x mod 3^(out_precision+1).

    The seven-branch companion of F_map, an isometry with the same contract.
    """
    return _isometry(x, out_precision, "seven")
