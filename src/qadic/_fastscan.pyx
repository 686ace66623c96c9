# cython: boundscheck=False, wraparound=False, cdivision=True
"""Compiled scan kernels: the hot twin of _scan_py (same functions, same
semantics).  All arithmetic is int64, so moduli must stay below 2**31,
where s * q stays below 2**62; oracle.py refuses larger scans through
config.check_scan_size."""

from libc.stdlib cimport free, malloc


def fixed_residues(long long q, long long p, int n):
    """All z in [0, p**n) with s(z) == z, where s(0)=0, s(z+1) = q*s(z)+1 mod p**n."""
    cdef long long M = 1
    cdef int i
    for i in range(n):
        M *= p
    q %= M
    cdef long long s = 0, z
    out = []
    for z in range(M):
        if s == z:
            out.append(z)
        s = (s * q + 1) % M
    return out


def order_of(long long q, long long M):
    """Multiplicative order of q mod M by plain power iteration; 0 if q is not a unit."""
    q %= M
    if M == 1:
        return 1
    cdef long long t = q, o = 1
    while t != 1:
        if o >= M:
            return 0
        t = t * q % M
        o += 1
    return o


def order_sweep(long long p, int n, qs):
    cdef long long M = 1
    cdef int i
    for i in range(n):
        M *= p
    cdef long long q, t, o
    out = []
    for q in qs:
        q %= M
        if M == 1:
            out.append(1)
            continue
        t = q
        o = 1
        while t != 1:
            if o >= M:
                o = 0
                break
            t = t * q % M
            o += 1
        out.append(o)
    return out


def pair_sweep(long long p, int n, qs, a0s):
    """One full recurrence scan per parameter q (reduced mod p**n).

    Per q: first z where observed fixedness (s == z) disagrees with
    "z mod a0 in {0, 1 mod a0}" (or -1), the fixed-point count, and the
    distinct-value count.  Returns three lists aligned with qs.
    """
    cdef long long M = 1
    cdef int i
    for i in range(n):
        M *= p
    cdef Py_ssize_t nq = len(qs)
    if len(a0s) != nq:
        raise ValueError("qs and a0s must have equal length")
    cdef long long *stamp = <long long *> malloc(M * sizeof(long long))
    if stamp == NULL:
        raise MemoryError()
    cdef long long z, q, a0, s, one, r, fc, isz, mis
    cdef Py_ssize_t k
    cdef bint f
    mismatches = []
    fixed_counts = []
    image_sizes = []
    try:
        for z in range(M):
            stamp[z] = -1
        for k in range(nq):
            q = qs[k] % M
            a0 = a0s[k]
            s = 0
            fc = 0
            isz = 0
            mis = -1
            one = 1 % a0
            for z in range(M):
                f = s == z
                r = z % a0
                if f != (r == 0 or r == one) and mis < 0:
                    mis = z
                if f:
                    fc += 1
                if stamp[s] != k:
                    stamp[s] = k
                    isz += 1
                s = (s * q + 1) % M
            mismatches.append(mis)
            fixed_counts.append(fc)
            image_sizes.append(isz)
    finally:
        free(stamp)
    return mismatches, fixed_counts, image_sizes
