"""Runtime knobs, all overridable via environment variables.

QADIC_SCAN_BUDGET     largest modulus p**n the brute-force oracle will sweep
                      (default 3**9 = 19683).  Moduli of 2**31 and above are
                      refused whatever the budget: the compiled kernels
                      multiply two residues in a 64-bit integer.  The same
                      budget bounds every loop or listing of size p**n
                      outside the oracle: residue listings of fixed sets,
                      images and cosets, `iota --table` (LIMIT + 1 values),
                      `cocycle_sum`, and the largest ring each `verify`
                      suite scans at its top level, as the suites module's
                      table declares it, checked before any suite runs.
QADIC_PRECISION_CAP   largest output precision a caller may ask for, in
                      digits (default 64).  The CLI checks the caller's own
                      --n or --precision once, at entry, and `verify` checks
                      each suite's top level the same way before any suite
                      runs.  The cap bounds a suite's level, not its time:
                      on the pure backend `verify --suite propagation
                      --depth 61` (level 64) takes 11-16 s.  The library
                      computes at whatever precision it is given, including
                      the higher working levels it derives (phi and psi run
                      a few digits above their output).  exceptional_q alone
                      bounds its working level, since digit d needs a
                      fixedness test at level 2d - 1.
QADIC_BACKEND         set to "pure" to force the pure-Python scan kernels even
                      when the compiled extension is importable.

The two numeric settings are read when used.  One that is set to anything
but a positive integer raises QadicError, quoting it; the CLI checks both at
entry, so it exits 1 on every command.
"""

from __future__ import annotations

import os

from .errors import QadicError, ResourceError

DEFAULT_SCAN_BUDGET = 3**9
DEFAULT_PRECISION_CAP = 64
# s * q % M stays below 2**62 in the kernels' int64 arithmetic.
SCAN_CEILING_BITS = 31
SCAN_CEILING = 2**SCAN_CEILING_BITS


def _env_int(name: str, default: int) -> int:
    """The positive integer an environment variable is set to, or default
    when it is unset; any other setting is refused, quoting it."""
    raw = os.environ.get(name)
    if raw is None:
        return default
    try:
        value = int(raw)
    except ValueError:
        value = 0
    if value < 1:
        raise QadicError(f"{name}={raw!r} is not a positive integer")
    return value


def scan_budget() -> int:
    return _env_int("QADIC_SCAN_BUDGET", DEFAULT_SCAN_BUDGET)


def precision_cap() -> int:
    return _env_int("QADIC_PRECISION_CAP", DEFAULT_PRECISION_CAP)


def check_precision_request(n: int) -> int:
    """Validate a caller's requested output precision against the cap."""
    cap = precision_cap()
    if n > cap:
        raise ResourceError(f"requested precision {n} exceeds cap {cap} (QADIC_PRECISION_CAP)")
    return n


def check_scan_size(size: int) -> int:
    """Validate a brute-force sweep size against the configured budget."""
    if size >= SCAN_CEILING:
        raise ResourceError(f"scan of size {size} reaches the kernels' 64-bit ceiling 2**{SCAN_CEILING_BITS}")
    budget = scan_budget()
    if size > budget:
        raise ResourceError(f"scan of size {size} exceeds budget {budget} (QADIC_SCAN_BUDGET)")
    return size


def check_ring(p: int, e: int) -> int:
    """Validate a sweep of the ring mod p**e, as check_scan_size does; a
    ring at or past the ceiling by its exponent alone is refused by its
    power, without building it."""
    if e >= SCAN_CEILING_BITS:  # p**e >= 2**e >= SCAN_CEILING
        raise ResourceError(f"scan of {p}^{e} reaches the kernels' 64-bit ceiling 2**{SCAN_CEILING_BITS}")
    return check_scan_size(p**e)


def check_listing_size(count: int, p: int, n: int, noun: str = "residues") -> int:
    """Validate the length of a listing mod p**n against the scan budget."""
    budget = scan_budget()
    if count > budget:
        raise ResourceError(
            f"listing {count} {noun} mod {p}^{n} exceeds budget {budget} (QADIC_SCAN_BUDGET)"
        )
    return count
