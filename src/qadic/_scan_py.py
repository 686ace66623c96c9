"""Pure-Python scan kernels: the fallback twin of the compiled _fastscan.

Same functions, same signatures, same semantics; used when the compiled
extension is unavailable or when QADIC_BACKEND=pure.  Everything here is a
plain modular loop on machine integers -- deliberately naive, shared with
nothing else in the package.  Two kernels take a shortcut.  order_sweep walks
q, q^2, ..., q^o = 1 around one cyclic subgroup and reads off the order of
every power on it, so each subgroup is walked once however many of its
members are asked about.  pair_sweep's walk only records which values it met
and which z it fixed; the comparison with the two-coset rule, the count and
the image size are read off those records after the walk.

Helpers are imported under private names, so that the public callables of
this module are exactly its four kernels: perfbench's tracer wraps every
public callable of the active kernel module.
"""

from __future__ import annotations

from math import gcd as _gcd


def fixed_residues(q: int, p: int, n: int) -> list[int]:
    """All z in [0, p**n) with s(z) == z, where s(0)=0, s(z+1) = q*s(z)+1 mod p**n."""
    M = p**n
    q %= M
    s = 0
    out = []
    for z in range(M):
        if s == z:
            out.append(z)
        s = (s * q + 1) % M
    return out


def order_of(q: int, M: int) -> int:
    """Multiplicative order of q mod M by plain power iteration; 0 if q is not a unit."""
    q %= M
    if M == 1:
        return 1
    t = q
    o = 1
    # Any unit's order is at most M-1; exceeding that means q is a zero divisor.
    while t != 1:
        if o >= M:
            return 0
        t = t * q % M
        o += 1
    return o


def order_sweep(p: int, n: int, qs) -> list[int]:
    """[order_of(q, p**n) for q in qs], walking each cyclic subgroup once.

    The walk of a unit q of order o passes q^k at step k, and q^k has order
    o / gcd(k, o); every residue of qs met on the walk is settled by it.
    Orders are stored only for the residues of qs.
    """
    M = p**n
    rs = [q % M for q in qs]
    if M == 1:
        return [1] * len(rs)
    orders = dict.fromkeys(rs)
    todo = set(orders)
    for r in orders:
        if r not in todo:
            continue
        if _gcd(r, M) != 1:  # never met on a walk: powers of units are units
            orders[r] = 0
            continue
        hits = []
        t, k = r, 1
        while True:
            if t in todo:
                todo.discard(t)
                hits.append((t, k))
            if t == 1:
                break
            t = t * r % M
            k += 1
        for s, j in hits:
            orders[s] = k // _gcd(j, k)
    return [orders[r] for r in rs]


def pair_sweep(p: int, n: int, qs, a0s):
    """One full recurrence scan per parameter q (reduced mod p**n).

    For each q, walks z = 0 .. p**n - 1 with the recurrence and records:
      * the first z where observed fixedness (s == z) disagrees with the
        two-coset rule "z mod a0 in {0, 1 mod a0}"  (or -1 if none),
      * the number of fixed z,
      * the number of distinct s values (the image size mod p**n).

    Returns three lists aligned with qs.
    """
    if len(qs) != len(a0s):
        raise ValueError("qs and a0s must have equal length")
    M = p**n
    mismatches = []
    fixed_counts = []
    image_sizes = []
    for q, a0 in zip(qs, a0s):
        q %= M
        seen = bytearray(M)
        fixed = []
        s = 0
        for z in range(M):
            seen[s] = 1
            if s == z:
                fixed.append(z)
            s = (s * q + 1) % M
        # fixed is ascending: it equals the sorted rule set exactly when the two agree
        rule = sorted({*range(0, M, a0), *range(1, M, a0)})
        mismatches.append(-1 if fixed == rule else min(set(fixed).symmetric_difference(rule)))
        fixed_counts.append(len(fixed))
        image_sizes.append(seen.count(1))
    return mismatches, fixed_counts, image_sizes
