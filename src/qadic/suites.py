"""Named verification sweeps behind the CLI's `verify` subcommand.

Each suite pits a structural computation against an independent route --
the brute-force oracle, a closed-form count, or a theorem-level identity --
over an exhaustive grid or a seeded random sample, and reports every
disagreement as a counterexample string.  Zero failures is the pass
condition; suites never assert, so a caller can collect results from all
of them before deciding how loudly to complain.

How far each suite reaches for a given `depth` is declared once, in the
table `_TABLE` at the end of this module: its top level as a function of
`depth`, and the largest ring p**e whose residues it scans, if any.  The
runner checks every named row before the first suite runs -- the ring
against QADIC_SCAN_BUDGET and the kernels' 2**31 ceiling, the top level
against QADIC_PRECISION_CAP -- and hands each body its top level, never
`depth` itself.  `seed` fixes the generator for the sampled suites, so any
reported counterexample is reproducible by rerunning with the same
arguments.  Suites that would be out of reach for the pure-Python backend
shrink their grid there and say so in `notes`.

The oracle's recurrence s(z+1) = q*s(z) + 1 mod p^n sees q only through
q mod p^n, so the oracle-backed sweeps scan each class q mod p^n once per
suite call and check every parameter of the class against that one scan.
On the closed-form side each parameter still gets its own QParameter, m0
(or l0) and regime; the pair-shaped fixed sets and images that regime lands
on depend only on (p, n, e), and each suite run builds and validates each
such shape once (padic_core.sharing_shapes), then drops them when it ends.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

from . import oracle
from .config import check_precision_request, check_ring
from .cocycle import (
    INJECTIVE_ON_ALL,
    cocycle_sum,
    image_description,
    iota_eval,
    iota_valuation,
    kernel_order,
)
from .correspondence import (
    BRANCHES,
    ExceptionalReport,
    F_map,
    G_map,
    exceptional_q,
    phi,
    psi,
)
from .errors import DomainError, PrecisionError, ResourceError
from .fixed_points import (
    count_fixed_points,
    enumerate_fixed_points,
    find_rooted,
    is_fixed,
    pair_criterion,
    propagate_rooted,
)
from .padic_core import INF, PadicInt, QParameter, capped_valuation, int_valuation, mult_order, sharing_shapes

_MAX_FAILURES = 10  # per suite; past this the grid is abandoned with a note


@dataclass
class SuiteResult:
    name: str
    cases: int = 0
    failures: list[str] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)
    seconds: float = 0.0
    top_level: int = 0  # the deepest level the suite's grid reached
    oracle: bool = False  # checked against the brute oracle

    @property
    def passed(self) -> bool:
        return not self.failures

    def check(self, ok: bool, describe) -> bool:
        """Count a case; on failure record the (lazily built) description."""
        self.cases += 1
        if not ok and len(self.failures) < _MAX_FAILURES:
            self.failures.append(describe() if callable(describe) else str(describe))
        return ok

    @property
    def saturated(self) -> bool:
        return len(self.failures) >= _MAX_FAILURES

    def summary(self) -> str:
        state = "pass" if self.passed else "FAIL"
        extra = "" if self.passed else f", {len(self.failures)} counterexamples"
        return f"{self.name}: {state} ({self.cases} cases{extra}, {self.seconds:.2f}s)"


def _qparam(value: int, p: int, precision: int) -> QParameter:
    return QParameter(PadicInt.from_int(value, p, precision))


def _u1_values(p: int, n: int):
    """All q in 1 + pZ mod p^(n+2), as plain integers."""
    return range(1, p ** (n + 2), p)


def _classes(qvals, ring: int) -> list[int]:
    """The distinct classes q mod ring of qvals, in first-seen order."""
    return list(dict.fromkeys(qv % ring for qv in qvals))


def _random_u1(rng: random.Random, p: int, span: int) -> int:
    """A uniformly random element of 1 + pZ mod p^span."""
    return 1 + p * rng.randrange(p ** (span - 1))


# ---------------------------------------------------------------------------
# cocycle suites
# ---------------------------------------------------------------------------


def _suite_cocycle_identity(res: SuiteResult, top: int, rng: random.Random) -> None:
    """iota_q(a+b) = q^a * iota_q(b) + iota_q(a), 500 random triples, p in {2,3,5}."""
    for _ in range(500):
        p = rng.choice((2, 3, 5))
        n = rng.randint(1, top)
        qv = _random_u1(rng, p, n + 3)
        m0 = int_valuation(qv - 1, p)
        prec = (m0 if m0 is not INF else n) + n + 1
        q = _qparam(qv, p, prec)
        a = rng.randint(-(p**n), p**n)
        b = rng.randint(-(p**n), p**n)
        mod = p**n
        lhs = iota_eval(q, a + b, n)
        rhs = PadicInt.from_int(pow(qv, a, mod), p, n) * iota_eval(q, b, n) + iota_eval(q, a, n)
        res.check(lhs == rhs, lambda: f"cocycle identity p={p} n={n} q={qv} a={a} b={b}: {lhs} != {rhs}")


def _suite_identities(res: SuiteResult, top: int, rng: random.Random) -> None:
    """The three elementary identities of the q-sum, random inputs.

    (i)  iota_q(-z) = -q^(-z) iota_q(z);
    (ii) iota_q(rz) = iota_{q^z}(r) * iota_q(z);
    (iii) (q-1) iota_q(z) = q^z - 1, all mod p^n.
    """
    for _ in range(300):
        p = rng.choice((2, 3, 5))
        n = rng.randint(1, top)
        qv = _random_u1(rng, p, n + 3)
        m0 = int_valuation(qv - 1, p)
        if m0 is INF:
            m0 = n + 2
        q = _qparam(qv, p, m0 + n + 1)
        z = rng.randint(-(p**n), p**n)
        r = rng.randint(-(p**n), p**n)
        mod = p**n

        lhs = iota_eval(q, -z, n)
        rhs = -PadicInt.from_int(pow(qv, -z, mod), p, n) * iota_eval(q, z, n)
        res.check(lhs == rhs, lambda: f"negation p={p} n={n} q={qv} z={z}: {lhs} != {rhs}")

        # iota_{q^z}(r) needs q^z at its own precision m0' + n.
        big = m0 + n + 6
        qz = pow(qv, z, p**big)
        m0p = int_valuation(qz - 1, p)
        if m0p is not INF and m0p + n <= big:
            qzq = _qparam(qz, p, m0p + n)
            lhs2 = iota_eval(q, r * z, n)
            rhs2 = iota_eval(qzq, r, n) * iota_eval(q, z, n)
            res.check(lhs2 == rhs2, lambda: f"multiplicativity p={p} n={n} q={qv} r={r} z={z}: {lhs2} != {rhs2}")

        lhs3 = (q.value.truncate(n) - 1) * iota_eval(q, z, n)
        rhs3 = PadicInt.from_int(pow(qv, z, mod) - 1, p, n)
        res.check(lhs3 == rhs3, lambda: f"telescoping p={p} n={n} q={qv} z={z}: {lhs3} != {rhs3}")


def _suite_norm(res: SuiteResult, top: int, rng: random.Random) -> None:
    """v(iota_q(z)) = v(z) for q in 1+pZ_p, p odd: exhaustive z, sampled q."""
    n = top
    for p in (3, 5, 7):
        qs = {_random_u1(rng, p, n + 2) for _ in range(8)}
        qs.update((1 + p, 1 + p**2, 1 + p * (p - 1)))
        for qv in sorted(qs):
            m0 = int_valuation(qv - 1, p)
            if m0 is INF:
                continue
            q = _qparam(qv, p, m0 + n)
            for z in range(p**n):
                got = iota_eval(q, z, n).valuation()
                want = capped_valuation(z, p, n)
                res.check(
                    got == want,
                    lambda: f"norm p={p} q={qv} z={z}: v(iota)={got}, v(z)={want}",
                )
            if res.saturated:
                return


def _suite_valuation(res: SuiteResult, top: int, rng: random.Random) -> None:
    """Closed-form iota_valuation vs valuation(iota_eval), p in {2,3,5}.

    Exhaustive in z and (for p = 2, 3) in q mod p^(n+2); sampled q for p = 5.
    The closed form reports the exact valuation, the evaluation only sees it
    up to the working precision, so agreement means equal below n and
    'at least n' on both sides otherwise.
    """
    for p in (2, 3, 5):
        for n in range(1, top + 1):
            if p == 5:
                qvals = sorted({_random_u1(rng, p, n + 2) for _ in range(60)})
            else:
                qvals = list(_u1_values(p, n))
            for qv in qvals:
                m0 = int_valuation(qv - 1, p)
                prec = (m0 if m0 is not INF else n) + n + 1
                q = _qparam(qv, p, prec)
                for z in range(p**n):
                    try:
                        closed = iota_valuation(q, z)
                    except PrecisionError:
                        continue  # p=2, q=-1-ish cases that need more digits than stated
                    got = iota_eval(q, z, n).valuation()
                    ok = (got is INF and (closed is INF or closed >= n)) or closed == got
                    res.check(
                        ok,
                        lambda: f"valuation p={p} n={n} q={qv} z={z}: closed {closed}, computed {got}",
                    )
                if res.saturated:
                    return


def _suite_sums(res: SuiteResult, top: int, rng: random.Random) -> None:
    """Full-period sums: 0 for p odd; 2^(n-1) mod 2^n for p = 2, both branches.

    p = 2 runs up to the top level, the odd primes stop one level below it.
    """
    for p in (3, 5):
        for n in range(1, top):
            qs = {_random_u1(rng, p, n + 2) for _ in range(12)}
            qs.update((1 + p, 1 + 2 * p, 1 + p**2))
            for qv in sorted(qs):
                m0 = int_valuation(qv - 1, p)
                prec = (m0 if m0 is not INF else n) + n + 1
                s = cocycle_sum(_qparam(qv, p, prec), n)
                res.check(s.is_zero(), lambda: f"sum p={p} n={n} q={qv}: {s} != 0")
    for n in range(1, top + 1):
        for qv in range(3, 2 ** (n + 2), 2):  # both odd branches, q != 1
            m0 = int_valuation(qv - 1, 2)
            s = cocycle_sum(_qparam(qv, 2, m0 + n + 1), n)
            want = PadicInt.from_int(1 << (n - 1), 2, n)
            res.check(s == want, lambda: f"sum p=2 n={n} q={qv}: {s} != {want}")


# ---------------------------------------------------------------------------
# the big oracle-equivalence sweep (acceptance-grade)
# ---------------------------------------------------------------------------


def _oracle_sweep_pairs(res: SuiteResult, p: int, n: int, qvals: list[int]) -> None:
    """Fast path for pair-shaped fixed sets (p odd, not the rich p=3 stratum).

    The kernel walks the recurrence once per class q mod p^n and checks
    membership against the two-coset rule for a0 = p^(n-m0) directly (m0 is
    capped at n, so a0 is a function of the class too).  Python then checks,
    parameter by parameter, the descriptors, counts and image/kernel sizes
    that the closed forms give from that parameter's own m0; within the
    suite run the descriptor objects are shared by every parameter of one
    shape (p, n, e).
    """
    ring = p**n
    classes = _classes(qvals, ring)
    exps = []
    for c in classes:
        m0 = capped_valuation(c - 1, p, n)
        exps.append(0 if m0 is INF else n - m0)
    scans = oracle.kernels().pair_sweep(p, n, classes, [p**e for e in exps])
    by_class = dict(zip(classes, zip(exps, *scans)))
    for qv in qvals:
        e, mis, fc, isz = by_class[qv % ring]
        q = _qparam(qv, p, n + 2)
        res.check(mis == -1, lambda: f"membership p={p} n={n} q={qv}: first bad residue {mis}")
        fps = enumerate_fixed_points(q, n)
        structural = sorted(c.exponent for c in fps.cosets)
        want_exp = [0] if e == 0 else [e, e]
        res.check(
            structural == want_exp,
            lambda: f"descriptor p={p} n={n} q={qv}: exponents {structural}, expected {want_exp}",
        )
        res.check(
            fps.count() == fc == count_fixed_points(q, n),
            lambda: f"count p={p} n={n} q={qv}: enumerate {fps.count()}, oracle {fc}",
        )
        img = image_description(q, n)
        res.check(
            img.covers_all and isz == ring,
            lambda: f"image p={p} n={n} q={qv}: oracle size {isz}, descriptor {img}",
        )
        ko = kernel_order(q, n)
        res.check(ko == isz, lambda: f"kernel p={p} n={n} q={qv}: {ko} != oracle {isz}")
        if res.saturated:
            return


def _oracle_sweep_lists(res: SuiteResult, p: int, n: int, qvals: list[int]) -> None:
    """Residue-list comparison per parameter: the rich p = 3 stratum
    (q = 4 or 7 mod 9), whose fixed sets are not pair-shaped, and the p = 2
    column, whose fixed sets are pair-shaped but whose image for q = 3 mod 4
    is a coset pair, not the whole ring the pair path checks."""
    ring = p**n
    brutes = {
        c: (oracle.brute_fixed_points(c, p, n), oracle.brute_image(c, p, n))
        for c in _classes(qvals, ring)
    }
    for qv in qvals:
        q = _qparam(qv, p, n + 2)
        brute, image = brutes[qv % ring]
        mine = enumerate_fixed_points(q, n).residues()
        res.check(
            mine == brute,
            lambda: f"membership p={p} n={n} q={qv}: enumerate {mine[:6]}..., oracle {brute[:6]}...",
        )
        count = count_fixed_points(q, n)
        res.check(count == len(brute), lambda: f"count p={p} n={n} q={qv}: {count} != {len(brute)}")
        img = image_description(q, n)
        res.check(
            img.count() == len(image) and all(map(img.contains, image)),
            lambda: f"image p={p} n={n} q={qv}: brute size {len(image)}, descriptor {img}",
        )
        ko = kernel_order(q, n)
        # q = -1 at every available digit (p = 2) is indistinguishable from
        # the two-element torsion case, where the map is injective on its
        # whole (two-element) domain: the numeric shadow of the sentinel is 2.
        want = 2 if ko is INJECTIVE_ON_ALL else ko
        res.check(want == len(image), lambda: f"kernel p={p} n={n} q={qv}: {ko} != {len(image)}")
        if res.saturated:
            return


def _suite_oracle_equivalence(res: SuiteResult, top: int, rng: random.Random) -> None:
    """enumerate/count/image/kernel vs the brute oracle, every U1 parameter.

    Grid: p in {2,3,5,7}, n <= top, all q in 1+pZ mod p^(n+2).  The
    oracle scans each class q mod p^n once; each parameter's m0, l0 and
    regime are computed on their own, and its pair-shaped set and image are
    the shared ones for its (p, n, e).  On the pure backend the p in {5,7}
    columns are subsampled to stay tractable, and the notes say so.
    """
    pure = oracle.backend() == "pure"
    for p in (2, 3, 5, 7):
        for n in range(1, top + 1):
            qvals = list(_u1_values(p, n))
            if p == 2:
                _oracle_sweep_lists(res, 2, n, qvals)
            elif p == 3:
                rich = [q for q in qvals if q % 9 in (4, 7)]
                rest = [q for q in qvals if q % 9 not in (4, 7)]
                _oracle_sweep_lists(res, 3, n, rich)
                _oracle_sweep_pairs(res, 3, n, rest)
            else:
                if pure and len(qvals) > 600:
                    qvals = sorted(rng.sample(qvals, 600))
                    res.notes.append(
                        f"pure backend: p={p} n={n} column subsampled to 600 parameters"
                    )
                _oracle_sweep_pairs(res, p, n, qvals)
            if res.saturated:
                return


# ---------------------------------------------------------------------------
# fixed-point suites
# ---------------------------------------------------------------------------


def _suite_criterion(res: SuiteResult, top: int, rng: random.Random) -> None:
    """Pair-criterion soundness everywhere, exactness outside the rich stratum.

    Sound: criterion true implies fixed (against the brute scan).  Exact: for
    p != 3, or q = 1 mod p^2, or n <= 2, or z = 2 mod 3, criterion equals
    fixedness.  Exhaustive for p in {2,3}; sampled q for p = 5.  The brute
    scan runs once per class q mod p^n, the criterion on every parameter.
    """
    for p in (2, 3, 5):
        for n in range(1, top + 1):
            ring = p**n
            if p == 5:
                qvals = sorted({_random_u1(rng, p, n + 2) for _ in range(40)})
            else:
                qvals = list(_u1_values(p, n))
            brutes = {c: set(oracle.brute_fixed_points(c, p, n)) for c in _classes(qvals, ring)}
            for qv in qvals:
                q = _qparam(qv, p, n + 2)
                brute = brutes[qv % ring]
                exact_regime = p != 3 or q.in_u2 or q.m0 is INF or n <= 2
                for z in range(ring):
                    crit = pair_criterion(q, z, n)
                    fx = z in brute
                    res.check(
                        not crit or fx,
                        lambda: f"criterion soundness p={p} n={n} q={qv} z={z}",
                    )
                    if exact_regime or z % 3 == 2:
                        res.check(
                            crit == fx,
                            lambda: f"criterion exactness p={p} n={n} q={qv} z={z}: criterion {crit}, fixed {fx}",
                        )
                if res.saturated:
                    return


def _suite_census(res: SuiteResult, top: int, rng: random.Random) -> None:
    """Rooted/no-rooted parameter counts at p = 3, levels 4 to the top level.

    Over all 2*3^(n-2) branch parameters mod 3^n: rooted count
    2(3^(n-2) - 3^floor((n-1)/2)), the rest no-rooted, split evenly between
    branches, and the per-valuation rooted counts are 4*3^(n-v0-2).
    """
    for n in range(4, top + 1):
        per_branch = {"seven": 0, "four": 0}
        per_v0: dict[int, int] = {}
        total = 0
        for qv in range(1, 3**n, 3):
            if qv % 9 not in (4, 7):
                continue
            total += 1
            q = _qparam(qv, 3, n + 1)
            hit = find_rooted(q, n)
            if hit is not None:
                per_branch[q.branch] += 1
                per_v0[hit[1]] = per_v0.get(hit[1], 0) + 1
        rooted = sum(per_branch.values())
        want_rooted = 2 * (3 ** (n - 2) - 3 ** ((n - 1) // 2))
        want_bare = 2 * 3 ** ((n - 1) // 2)
        res.check(
            rooted == want_rooted,
            lambda: f"census n={n}: rooted {rooted} != {want_rooted}",
        )
        res.check(
            total - rooted == want_bare,
            lambda: f"census n={n}: no-rooted {total - rooted} != {want_bare}",
        )
        res.check(
            per_branch["seven"] == per_branch["four"],
            lambda: f"census n={n}: uneven branches {per_branch}",
        )
        for v0, cnt in sorted(per_v0.items()):
            res.check(
                cnt == 4 * 3 ** (n - v0 - 2),
                lambda: f"census n={n} v0={v0}: {cnt} != {4 * 3 ** (n - v0 - 2)}",
            )


def _suite_propagation(res: SuiteResult, top: int, rng: random.Random) -> None:
    """Rooted points persist: the level-(n+1) root extends the level-n root
    by exactly the digit propagate_rooted names."""
    qvals = sorted({1 + 3 * rng.randrange(3 ** (top + 1)) for _ in range(80)})
    for qv in qvals:
        if qv % 9 not in (4, 7):
            continue
        q = _qparam(qv, 3, top + 3)
        prev = None
        for n in range(4, top + 1):
            hit = find_rooted(q, n)
            if hit is None:
                res.check(
                    prev is None,
                    lambda: f"propagation q={qv}: rooted at level {n - 1} but not {n}",
                )
                continue
            z, v0 = hit
            if prev is not None:
                pz, pv0 = prev
                c = propagate_rooted(q, pz, n - 1)
                want = pz.lift() + c * 3 ** (n - 1 - pv0 - 1)
                res.check(
                    v0 == pv0 and z.lift() == want,
                    lambda: f"propagation q={qv} level {n}: root {z.lift()} (v0={v0}), "
                    f"expected {want} (v0={pv0})",
                )
            prev = hit


def _suite_exceptional_minimality(res: SuiteResult, top: int, rng: random.Random) -> None:
    """Truncations of the exceptional parameters have no rooted points.

    For k-digit truncations, no level n <= 2k-1 admits a rooted fixed point;
    the first digit where a zero-padding diverges from the true parameter
    pushes any root beyond that window.  The top level 2k-1 sets k;
    find_rooted costs a few evaluations per level, so the table's cap on k
    bounds coverage, not cost.
    """
    top_k = (top + 1) // 2
    for branch in BRANCHES:
        for k in range(2, top_k + 1):
            qk = exceptional_q(branch, k)
            for n in range(2, 2 * k):
                q = QParameter(qk.zero_extend(n + 1))
                hit = find_rooted(q, n)
                res.check(
                    hit is None,
                    lambda: f"minimality {branch} k={k} n={n}: unexpected root {hit}",
                )


def _suite_stability(res: SuiteResult, top: int, rng: random.Random) -> None:
    """Fixed-point counts: eventually constant generically, growing at the
    exceptional truncations.

    For a non-exceptional branch parameter the census count settles at
    2*3^(v0+1) + 3 from level 2v0+2 on; for the exceptional truncations the
    count at level n is 3^(n - floor(n/2)) + 3, strictly increasing over
    n -> n+2.
    """
    probe = 8
    samples = 0
    exc = {b: exceptional_q(b, probe).lift() for b in BRANCHES}
    while samples < 20:
        qv = 1 + 3 * rng.randrange(3 ** (probe + 1))
        if qv % 9 not in (4, 7):
            continue
        if any((qv - e) % 3**probe == 0 for e in exc.values()):
            continue
        samples += 1
        q = _qparam(qv, 3, 2 * probe)
        hit = find_rooted(q, probe)
        if hit is None:
            continue  # agrees with an exceptional parameter deeper than the probe
        v0 = hit[1]
        want = 2 * 3 ** (v0 + 1) + 3
        for n in range(2 * v0 + 2, probe + 2):
            got = count_fixed_points(q, n)
            res.check(
                got == want,
                lambda: f"stability q={qv} n={n}: count {got} != constant {want}",
            )
    # The truncation window stops at the top level (12), inside the levels
    # n <= 2k - 1 = 15 at which an 8-digit truncation has no rooted point.
    for branch in BRANCHES:
        qk = exceptional_q(branch, probe)
        counts = {}
        for n in range(2, top + 1):
            q = QParameter(qk.zero_extend(max(n + 1, probe)))
            got = count_fixed_points(q, n)
            want = 3 ** (n - n // 2) + 3
            counts[n] = got
            res.check(
                got == want,
                lambda: f"stability {branch} truncation n={n}: count {got} != {want}",
            )
        for n in range(2, top - 1):
            res.check(
                counts[n] < counts[n + 2],
                lambda: f"stability {branch}: count not increasing {n}->{n + 2}",
            )


# ---------------------------------------------------------------------------
# correspondence suites
# ---------------------------------------------------------------------------


def _random_admissible_z(rng: random.Random, digits: int) -> PadicInt:
    """A random z in 3Z u (1+3Z), not 0 or 1, with a unit digit early on."""
    offset = rng.choice((0, 1))
    v0 = rng.choice((1, 1, 1, 2, 2, 3))
    u = rng.randrange(3 ** (digits - v0))
    u = 3 * u + rng.choice((1, 2))  # force the digit at position v0 to be a unit
    return PadicInt.from_int(offset + u * 3**v0, 3, digits)


def _suite_roundtrip(res: SuiteResult, top: int, rng: random.Random) -> None:
    """psi and phi invert one another, with the documented precision loss.

    z-side: q = psi(z, P) satisfies the fixedness witness at level P+v0 and
    phi(q, P) returns z mod 3^(P-1).  q-side: z = phi(q, N) satisfies the
    witness, psi(z, N-1-v0) recovers q mod 3^(N-1-v0), and the branch law
    holds in both directions.
    """
    for _ in range(200):
        P = rng.randint(6, top)
        z = _random_admissible_z(rng, P + 6)
        v0 = (z * (z - 1)).valuation()
        q = psi(z, P)
        branch_ok = (q.residue(2) == 7 % 9) == (z.residue(1) == 0)
        res.check(branch_ok, lambda: f"branch law: psi({z}) = {q}")
        qq = QParameter(q.zero_extend(P + v0 + 1))
        res.check(
            is_fixed(qq, z.truncate(P + v0), P + v0),
            lambda: f"witness: iota_{{{q}}} does not fix {z} at level {P + v0}",
        )
        back = phi(QParameter(q), P)
        res.check(
            not isinstance(back, ExceptionalReport) and back == z.truncate(P - 1),
            lambda: f"phi(psi({z}), {P}) = {back} != z mod 3^{P - 1}",
        )

        N = rng.randint(6, top)
        qv = 1 + 3 * rng.randrange(3 ** (N + 1))
        if qv % 9 not in (4, 7):
            continue
        qp = _qparam(qv, 3, N)
        out = phi(qp, N)
        if isinstance(out, ExceptionalReport):
            res.check(
                out.agreement_depth == N - 1,
                lambda: f"report depth {out.agreement_depth} != {N - 1} for q={qv}",
            )
            continue
        w0 = (out * (out - 1)).valuation()
        res.check(
            is_fixed(_qparam(qv, 3, N + 1), out.lift(), N - 1),
            lambda: f"witness: iota_{qv} does not fix phi output {out}",
        )
        if w0 is not INF and N - 1 - w0 >= 1:
            qback = psi(out, N - 1 - w0)
            res.check(
                qback.lift() == qv % 3 ** (N - 1 - w0),
                lambda: f"psi(phi({qv}, {N})) = {qback} != q mod 3^{N - 1 - w0}",
            )


def _suite_isometry(res: SuiteResult, top: int, rng: random.Random) -> None:
    """v(F(x) - F(x')) = v(x - x') (and likewise G), 100 pairs at the top
    level (precision 10)."""
    P = top
    for _ in range(100):
        x = rng.randrange(3 ** (P + 1))
        v = rng.randint(0, P - 1)
        dx = 3**v * (3 * rng.randrange(3 ** (P - v)) + rng.choice((1, 2)))
        xp = (x + dx) % 3 ** (P + 1)
        for name, fmap in (("F", F_map), ("G", G_map)):
            a = fmap(x, P)
            b = fmap(xp, P)
            got = (a - b).valuation()
            res.check(
                got == v,
                lambda: f"{name} isometry: x={x} x'={xp} v(dx)={v} but v(dF)={got}",
            )


# ---------------------------------------------------------------------------
# padic_core suite
# ---------------------------------------------------------------------------


def _suite_order(res: SuiteResult, top: int, rng: random.Random) -> None:
    """mult_order vs plain power iteration, all units, p in {2,3,5,7}, n <= top.

    On the pure backend the p in {5,7} columns stop at n <= 4, and the notes
    say so.  The pure order_sweep walks each cyclic subgroup once, so the cap
    no longer buys time; it keeps the pure grid as it was.
    """
    kern = oracle.kernels()
    pure = oracle.backend() == "pure"
    for p in (2, 3, 5, 7):
        cap = top
        if pure and p >= 5:
            cap = min(top, 4)
            res.notes.append(f"pure backend: p={p} order grid capped at n<={cap}")
        for n in range(1, cap + 1):
            M = p**n
            qs = [q for q in range(1, M) if q % p != 0]
            brute = kern.order_sweep(p, n, qs)
            for qv, got in zip(qs, brute):
                want = mult_order(PadicInt.from_int(qv, p, n), n)
                res.check(
                    want == got,
                    lambda: f"order p={p} n={n} q={qv}: formula {want}, iteration {got}",
                )
            if res.saturated:
                return


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

class _Row(NamedTuple):
    """One suite's declaration: the only place that reads `depth`."""

    body: Callable[[SuiteResult, int, random.Random], None]  # called with the top level
    default: bool  # in the acceptance set that `verify` runs by default
    oracle: bool  # checked against the brute oracle (the record's method)
    top: Callable[[int], int]  # top level reached at a given depth
    ring: tuple[int, int] | None = None  # (p, k): scans the residues mod p**(top - k)


_TABLE = {
    "cocycle-identity": _Row(_suite_cocycle_identity, True, False, lambda d: d),
    "identities": _Row(_suite_identities, True, False, lambda d: d),
    "norm": _Row(_suite_norm, True, False, lambda d: d, (7, 0)),
    "valuation": _Row(_suite_valuation, True, False, lambda d: d, (5, 0)),
    "sums": _Row(_suite_sums, False, False, lambda d: min(d + 1, 6), (5, 1)),
    "oracle-equivalence": _Row(_suite_oracle_equivalence, False, True, lambda d: d, (7, 0)),
    "criterion": _Row(_suite_criterion, True, True, lambda d: d, (5, 0)),
    "census": _Row(_suite_census, False, False, lambda d: max(6, min(d + 1, 8))),
    "propagation": _Row(_suite_propagation, True, False, lambda d: d + 3),
    "exceptional-minimality": _Row(
        _suite_exceptional_minimality, False, False, lambda d: 2 * min(d + 1, 8) - 1
    ),
    "stability": _Row(_suite_stability, False, False, lambda d: 12),
    "roundtrip": _Row(_suite_roundtrip, True, False, lambda d: max(8, d + 4)),
    "isometry": _Row(_suite_isometry, True, False, lambda d: 10),
    # left out of the ring check: its grid stops at n <= 6, though 7^6 is past the default budget
    "order": _Row(_suite_order, False, True, lambda d: min(6, d + 1)),
}

SUITES = {name: row.body for name, row in _TABLE.items()}

#: The suites acceptance-style verification runs by default (the rest are
#: heavyweight grids invoked by name).
DEFAULT_SUITES = tuple(name for name, row in _TABLE.items() if row.default)


def _within(where: str, check, *args) -> None:
    """Run a config check, naming the suite's reach in its ResourceError."""
    try:
        check(*args)
    except ResourceError as exc:
        raise ResourceError(f"{exc}; {where}") from None


def _top_levels(names, depth: int) -> list[int]:
    """The top level of each named suite at `depth`, once every one is in reach.

    Raises before any suite runs, so a refused call does no work: DomainError
    for a depth below 1, ResourceError for a ring beyond the scan budget or a
    top level beyond the precision cap.
    """
    if depth < 1:
        raise DomainError(f"--depth must be at least 1, got {depth}")
    tops = []
    for name in names:
        row = _TABLE[name]
        top = row.top(depth)
        if row.ring is not None:
            p, k = row.ring
            e = top - k
            _within(f"suite {name} walks {p}^{e}", check_ring, p, e)
        _within(f"suite {name} reaches level {top}", check_precision_request, top)
        tops.append(top)
    return tops


def run_suite(name: str, depth: int = 5, seed: int = 0) -> SuiteResult:
    """Run one named suite and return its result (no exceptions on failure).

    A depth out of reach raises before the suite runs (see _top_levels).
    """
    (top,) = _top_levels([name], depth)
    res = SuiteResult(name=name, top_level=top, oracle=_TABLE[name].oracle)
    rng = random.Random(seed)
    t0 = time.perf_counter()
    with sharing_shapes():
        SUITES[name](res, top, rng)
    res.seconds = time.perf_counter() - t0
    if res.saturated:
        res.notes.append(f"stopped after {_MAX_FAILURES} counterexamples")
    return res


def run_suites(names, depth: int = 5, seed: int = 0) -> list[SuiteResult]:
    """Run the named suites in order, once _top_levels has passed them all."""
    _top_levels(names, depth)
    return [run_suite(name, depth=depth, seed=seed) for name in names]
