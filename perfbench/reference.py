"""Independent recomputation of qadic answers with plain Python integers.

Nothing here imports qadic: every expected value comes from modular `pow`,
the schoolbook recurrence s(z+1) = q*s(z) + 1, or integer valuations, so an
answer that agrees with this module has been computed twice by routes that
share no code.
"""

from __future__ import annotations


def vp(k: int, p: int) -> int | None:
    """p-adic valuation of an integer; None for 0 (infinite)."""
    if k == 0:
        return None
    k = abs(k)
    v = 0
    while k % p == 0:
        k //= p
        v += 1
    return v


def iota_mod(q: int, e: int, p: int, n: int) -> int:
    """(q**e - 1)/(q - 1) mod p**n for integers q >= 1 and e >= 0.

    For q = 1 mod p the value mod p**n depends on the exponent only mod
    p**n, so any nonnegative representative e of a p-adic exponent works.
    """
    m = p**n
    if q == 1:
        return e % m
    d = q - 1
    return ((pow(q, e, d * m) - 1) // d) % m


def exponent_residue(z, p: int, n: int) -> int:
    """A nonnegative representative mod p**n of an integer, a pair (a, b)
    standing for a/b with p not dividing b, or a digit list (little-endian)."""
    m = p**n
    if isinstance(z, int):
        return z % m
    if isinstance(z, tuple):
        a, b = z
        return a * pow(b, -1, m) % m
    return sum(d * p**i for i, d in enumerate(z)) % m


def brute_fixed(q: int, p: int, n: int) -> list[int]:
    """Every z in [0, p**n) with s(z) = z mod p**n, by walking the recurrence."""
    m = p**n
    q %= m
    s = 0
    out = []
    for z in range(m):
        if s == z:
            out.append(z)
        s = (s * q + 1) % m
    return out


def classify(q: int, z: int, n: int) -> str:
    """The rich-regime label of z at level n (p = 3, q = 4 or 7 mod 9)."""
    m = 3**n
    z %= m
    if iota_mod(q, z, 3, n) != z:
        return "not-fixed"
    v = vp(z * (z - 1), 3)
    if v is None or v >= n - 1:
        return "pair"
    return "rooted" if 2 * v < n - 1 else "drifting"


def digits(value: int, p: int, n: int) -> list[int]:
    """The n little-endian base-p digits of value mod p**n."""
    value %= p**n
    out = []
    for _ in range(n):
        value, d = divmod(value, p)
        out.append(d)
    return out


def digit_string(value: int, p: int, n: int) -> str:
    """The canonical rendering p^n:d0,d1,... of value mod p**n."""
    return f"{p}^{n}:" + ",".join(map(str, digits(value, p, n)))


def parse_digit_string(text: str) -> tuple[int, int, int]:
    """(p, n, value) from p^n:d0,d1,...; raises ValueError when malformed."""
    head, _, body = text.partition(":")
    p_text, _, n_text = head.partition("^")
    p, n = int(p_text), int(n_text)
    ds = [int(d) for d in body.split(",")]
    if len(ds) != n or any(not 0 <= d < p for d in ds):
        raise ValueError(f"malformed digit string {text!r}")
    return p, n, sum(d * p**i for i, d in enumerate(ds))


BRANCH_OFFSET = {"seven": 0, "four": 1}


def exceptional_digits(branch: str, count: int) -> list[int]:
    """The first `count` digits of the branch's exceptional parameter.

    Digit k is the unique a in {0, 1, 2} for which q = (known digits) + a*3**k
    fixes offset + 3**k modulo 3**(2k+1), tested with modular `pow`.
    """
    offset = BRANCH_OFFSET[branch]
    ds = [1, 2 if branch == "seven" else 1]
    while len(ds) < count:
        k = len(ds)
        level = 2 * k + 1
        target = offset + 3**k
        base = sum(d * 3**i for i, d in enumerate(ds))
        good = [a for a in range(3) if iota_mod(base + a * 3**k, target, 3, level) == target % 3**level]
        if len(good) != 1:
            raise ArithmeticError(f"digit {k} of the {branch} parameter: candidates {good}")
        ds.append(good[0])
    return ds[:count]


def exceptional_value(branch: str, count: int) -> int:
    return sum(d * 3**i for i, d in enumerate(exceptional_digits(branch, count)))


def branch_of(q: int) -> str:
    """"seven" for q = 7 mod 9, "four" for q = 4 mod 9."""
    return {7: "seven", 4: "four"}[q % 9]
