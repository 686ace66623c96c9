"""Brute-force reference implementations.

Everything here recomputes from first principles: fixed points and images
come from the schoolbook recurrence s(z+1) = q*s(z) + 1 walked value by
value, and orders come from plain power iteration.  No code is shared with
the closed-form modules (in particular nothing here calls cocycle.iota_eval),
so agreement between the two routes is meaningful evidence.

The inner loops live in a compiled extension (qadic._fastscan) when it built,
with a pure-Python twin (qadic._scan_py) selected at import time otherwise;
QADIC_BACKEND=pure forces the fallback.
"""

from __future__ import annotations

import os

from . import _scan_py
from .config import check_scan_size
from .errors import DomainError, PrecisionError, ResourceError
from .padic_core import PadicInt, QParameter

if os.environ.get("QADIC_BACKEND") == "pure":
    _impl = _scan_py
else:
    try:
        from . import _fastscan as _impl  # type: ignore[no-redef]
    except ImportError:
        _impl = _scan_py


def backend() -> str:
    """Which scan kernels are active: "compiled" or "pure"."""
    return "pure" if _impl is _scan_py else "compiled"


def kernels():
    """The active kernel module (for benchmarks and parity tests)."""
    return _impl


def _as_residue(q, p: int | None, n: int) -> tuple[int, int]:
    """Coerce a parameter given as int / PadicInt / QParameter to (q mod p**n, p)."""
    if isinstance(q, QParameter):
        q = q.value
    if isinstance(q, PadicInt):
        if p is not None and p != q.prime:
            raise DomainError(f"prime mismatch: {p} vs {q.prime}")
        p = q.prime
        if q.precision < n:
            raise PrecisionError(f"need q mod {p}^{n}, have {q.precision} digits")
        return q.residue(n), p
    if isinstance(q, int):
        if p is None:
            raise DomainError("integer q needs an explicit prime")
        return q % p**n, p
    raise DomainError("q must be an int, PadicInt, or QParameter")


def brute_fixed_points(q, p: int | None = None, n: int = 1) -> list[int]:
    """All fixed residues of the level-n map, by scanning every z in [0, p**n).

    Accepts q as an int (with explicit p), PadicInt, or QParameter.  Refuses
    scans larger than the configured budget.
    """
    qr, p = _as_residue(q, p, n)
    check_scan_size(p**n)
    return _impl.fixed_residues(qr, p, n)


def brute_image(q, p: int | None = None, n: int = 1) -> list[int]:
    """Sorted distinct values of the recurrence over one full period mod p**n.

    The walk tracks the pair (s, q**z); one full period has elapsed exactly
    when the pair returns to (0, 1), which needs at most (p-1) * p**n steps.
    """
    qr, p = _as_residue(q, p, n)
    check_scan_size(p**n)
    M = p**n
    if qr % p == 0:
        raise DomainError(f"{qr} is not a unit mod {p}^{n}")
    seen = set()
    s, t = 0, 1
    limit = (p - 1) * M + 1
    for _ in range(limit):
        seen.add(s)
        s = (s * qr + 1) % M
        t = t * qr % M
        if s == 0 and t == 1:
            return sorted(seen)
    raise ResourceError(f"recurrence mod {p}^{n} did not close after {limit} steps")  # pragma: no cover
