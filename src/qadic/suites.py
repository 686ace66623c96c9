"""Named verification sweeps behind the CLI's `verify` subcommand.

Each suite pits a structural computation against an independent route --
the brute-force oracle, a closed-form count, or a theorem-level identity --
over an exhaustive grid or a seeded random sample, and reports every
disagreement as a counterexample string.  Zero failures is the pass
condition; suites never assert, so a caller can collect results from all
of them before deciding how loudly to complain.

The `depth` knob scales grid exponents (default 5 where a suite does not
pin its own range); `seed` fixes the generator for the sampled suites, so
any reported counterexample is reproducible by rerunning with the same
arguments.  Suites that would be out of reach for the pure-Python backend
shrink their grid there and say so in `notes`.

The oracle's recurrence s(z+1) = q*s(z) + 1 mod p^n sees q only through
q mod p^n, so the oracle-backed sweeps scan each class q mod p^n once per
suite call and check every parameter of the class against that one scan;
the closed-form side still runs on every parameter.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field

from . import oracle
from .config import SCAN_CEILING, check_scan_size
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
from .errors import PrecisionError, ResourceError
from .fixed_points import (
    count_fixed_points,
    enumerate_fixed_points,
    find_rooted,
    is_fixed,
    pair_criterion,
    propagate_rooted,
)
from .padic_core import INF, PadicInt, QParameter, capped_valuation, int_valuation, mult_order

_MAX_FAILURES = 10  # per suite; past this the grid is abandoned with a note


@dataclass
class SuiteResult:
    name: str
    cases: int = 0
    failures: list[str] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)
    seconds: float = 0.0

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
    """A random element of 1 + pZ mod p^span, slanted toward small m0."""
    return 1 + p * rng.randrange(p ** (span - 1))


# ---------------------------------------------------------------------------
# cocycle suites
# ---------------------------------------------------------------------------


def _suite_cocycle_identity(res: SuiteResult, depth: int, rng: random.Random) -> None:
    """iota_q(a+b) = q^a * iota_q(b) + iota_q(a), 500 random triples, p in {2,3,5}."""
    for _ in range(500):
        p = rng.choice((2, 3, 5))
        n = rng.randint(1, depth)
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


def _suite_identities(res: SuiteResult, depth: int, rng: random.Random) -> None:
    """The three elementary identities of the q-sum, random inputs.

    (i)  iota_q(-z) = -q^(-z) iota_q(z);
    (ii) iota_q(rz) = iota_{q^z}(r) * iota_q(z);
    (iii) (q-1) iota_q(z) = q^z - 1, all mod p^n.
    """
    for _ in range(300):
        p = rng.choice((2, 3, 5))
        n = rng.randint(1, depth)
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


def _suite_norm(res: SuiteResult, depth: int, rng: random.Random) -> None:
    """v(iota_q(z)) = v(z) for q in 1+pZ_p, p odd: exhaustive z, sampled q."""
    n = depth
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


def _suite_valuation(res: SuiteResult, depth: int, rng: random.Random) -> None:
    """Closed-form iota_valuation vs valuation(iota_eval), p in {2,3,5}.

    Exhaustive in z and (for p = 2, 3) in q mod p^(n+2); sampled q for p = 5.
    The closed form reports the exact valuation, the evaluation only sees it
    up to the working precision, so agreement means equal below n and
    'at least n' on both sides otherwise.
    """
    for p in (2, 3, 5):
        for n in range(1, depth + 1):
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


def _suite_sums(res: SuiteResult, depth: int, rng: random.Random) -> None:
    """Full-period sums: 0 for p odd; 2^(n-1) mod 2^n for p = 2, both branches."""
    for p in (3, 5):
        for n in range(1, min(depth, 5) + 1):
            qs = {_random_u1(rng, p, n + 2) for _ in range(12)}
            qs.update((1 + p, 1 + 2 * p, 1 + p**2))
            for qv in sorted(qs):
                m0 = int_valuation(qv - 1, p)
                prec = (m0 if m0 is not INF else n) + n + 1
                s = cocycle_sum(_qparam(qv, p, prec), n)
                res.check(s.is_zero(), lambda: f"sum p={p} n={n} q={qv}: {s} != 0")
    for n in range(1, min(depth + 1, 6) + 1):
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
    capped at n, so a0 is a function of the class too); Python only has to
    agree, parameter by parameter, on the descriptors, counts, and
    image/kernel sizes.
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


def _oracle_sweep_rich(res: SuiteResult, n: int, qvals: list[int]) -> None:
    """p = 3, q = 4 or 7 mod 9: full residue-list comparison per parameter."""
    kern = oracle.kernels()
    ring = 3**n
    brutes = {
        c: (kern.fixed_residues(c, 3, n), oracle.brute_image(c, 3, n))
        for c in _classes(qvals, ring)
    }
    for qv in qvals:
        q = _qparam(qv, 3, n + 2)
        brute, image = brutes[qv % ring]
        mine = enumerate_fixed_points(q, n).residues()
        res.check(
            mine == list(brute),
            lambda: f"membership p=3 n={n} q={qv}: enumerate {mine[:6]}..., oracle {list(brute)[:6]}...",
        )
        res.check(
            count_fixed_points(q, n) == len(brute),
            lambda: f"count p=3 n={n} q={qv}: {count_fixed_points(q, n)} != {len(brute)}",
        )
        img = image_description(q, n)
        res.check(
            img.covers_all and len(image) == ring,
            lambda: f"image p=3 n={n} q={qv}: brute size {len(image)}, descriptor {img}",
        )
        ko = kernel_order(q, n)
        res.check(ko == len(image), lambda: f"kernel p=3 n={n} q={qv}: {ko} != {len(image)}")
        if res.saturated:
            return


def _oracle_sweep_p2(res: SuiteResult, n: int, qvals: list[int]) -> None:
    """p = 2: small moduli, so everything is compared set-for-set in Python."""
    ring = 2**n
    brutes = {
        c: (oracle.brute_fixed_points(c, 2, n), oracle.brute_image(c, 2, n))
        for c in _classes(qvals, ring)
    }
    for qv in qvals:
        q = _qparam(qv, 2, n + 2)
        brute, image = brutes[qv % ring]
        fps = enumerate_fixed_points(q, n)
        res.check(
            fps.residues() == brute,
            lambda: f"membership p=2 n={n} q={qv}: enumerate {fps.residues()}, oracle {brute}",
        )
        res.check(
            count_fixed_points(q, n) == len(brute),
            lambda: f"count p=2 n={n} q={qv}: {count_fixed_points(q, n)} != {len(brute)}",
        )
        img = image_description(q, n)
        got = set(range(ring)) if img.covers_all else set(img.residues())
        res.check(
            got == set(image),
            lambda: f"image p=2 n={n} q={qv}: descriptor {sorted(got)[:8]}, brute {sorted(image)[:8]}",
        )
        ko = kernel_order(q, n)
        # q = -1 at every available digit is indistinguishable from the
        # two-element torsion case, where the map is injective on its whole
        # (two-element) domain: the numeric shadow of the sentinel is 2.
        want = 2 if ko is INJECTIVE_ON_ALL else ko
        res.check(want == len(image), lambda: f"kernel p=2 n={n} q={qv}: {ko} != {len(image)}")
        if res.saturated:
            return


def _suite_oracle_equivalence(res: SuiteResult, depth: int, rng: random.Random) -> None:
    """enumerate/count/image/kernel vs the brute oracle, every U1 parameter.

    Grid: p in {2,3,5,7}, n <= depth, all q in 1+pZ mod p^(n+2).  The
    oracle scans each class q mod p^n once; the closed forms run on every
    parameter.  On the pure backend the p in {5,7} columns are subsampled to
    stay tractable, and the notes say so.
    """
    pure = oracle.backend() == "pure"
    for p in (2, 3, 5, 7):
        for n in range(1, depth + 1):
            qvals = list(_u1_values(p, n))
            if p == 2:
                _oracle_sweep_p2(res, n, qvals)
            elif p == 3:
                rich = [q for q in qvals if q % 9 in (4, 7)]
                rest = [q for q in qvals if q % 9 not in (4, 7)]
                _oracle_sweep_rich(res, n, rich)
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


def _suite_criterion(res: SuiteResult, depth: int, rng: random.Random) -> None:
    """Pair-criterion soundness everywhere, exactness outside the rich stratum.

    Sound: criterion true implies fixed (against the brute scan).  Exact: for
    p != 3, or q = 1 mod p^2, or n <= 2, or z = 2 mod 3, criterion equals
    fixedness.  Exhaustive for p in {2,3}; sampled q for p = 5.  The brute
    scan runs once per class q mod p^n, the criterion on every parameter.
    """
    for p in (2, 3, 5):
        for n in range(1, depth + 1):
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


def _suite_census(res: SuiteResult, depth: int, rng: random.Random) -> None:
    """Rooted/no-rooted parameter counts at p = 3, levels 4, 5, 6.

    Over all 2*3^(n-2) branch parameters mod 3^n: rooted count
    2(3^(n-2) - 3^floor((n-1)/2)), the rest no-rooted, split evenly between
    branches, and the per-valuation rooted counts are 4*3^(n-v0-2).
    """
    top = max(6, min(depth + 1, 8))
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


def _suite_propagation(res: SuiteResult, depth: int, rng: random.Random) -> None:
    """Rooted points persist: the level-(n+1) root extends the level-n root
    by exactly the digit propagate_rooted names."""
    top = depth + 3
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


def _suite_exceptional_minimality(res: SuiteResult, depth: int, rng: random.Random) -> None:
    """Truncations of the exceptional parameters have no rooted points.

    For k-digit truncations, no level n <= 2k-1 admits a rooted fixed point;
    the first digit where a zero-padding diverges from the true parameter
    pushes any root beyond that window.  k is capped by depth; find_rooted
    costs a few evaluations per level, so the cap bounds coverage, not cost.
    """
    top_k = min(depth + 1, 8)
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


def _suite_stability(res: SuiteResult, depth: int, rng: random.Random) -> None:
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
    # The truncation window stops at level 12, inside the levels n <= 2k - 1
    # = 15 at which an 8-digit truncation has no rooted point.
    for branch in BRANCHES:
        qk = exceptional_q(branch, probe)
        counts = {}
        for n in range(2, 13):
            q = QParameter(qk.zero_extend(max(n + 1, probe)))
            got = count_fixed_points(q, n)
            want = 3 ** (n - n // 2) + 3
            counts[n] = got
            res.check(
                got == want,
                lambda: f"stability {branch} truncation n={n}: count {got} != {want}",
            )
        for n in range(2, 11):
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


def _suite_roundtrip(res: SuiteResult, depth: int, rng: random.Random) -> None:
    """psi and phi invert one another, with the documented precision loss.

    z-side: q = psi(z, P) satisfies the fixedness witness at level P+v0 and
    phi(q, P) returns z mod 3^(P-1).  q-side: z = phi(q, N) satisfies the
    witness, psi(z, N-1-v0) recovers q mod 3^(N-1-v0), and the branch law
    holds in both directions.
    """
    for _ in range(200):
        P = rng.randint(6, max(8, depth + 4))
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

        N = rng.randint(6, max(8, depth + 4))
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


def _suite_isometry(res: SuiteResult, depth: int, rng: random.Random) -> None:
    """v(F(x) - F(x')) = v(x - x') (and likewise G), 100 pairs at precision 10."""
    P = 10
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


def _suite_order(res: SuiteResult, depth: int, rng: random.Random) -> None:
    """mult_order vs plain power iteration, all units, p in {2,3,5,7}, n <= 6.

    On the pure backend the p in {5,7} columns stop at n <= 4, and the notes
    say so.  The pure order_sweep walks each cyclic subgroup once, so the cap
    no longer buys time; it keeps the pure grid as it was.
    """
    kern = oracle.kernels()
    pure = oracle.backend() == "pure"
    top = min(6, depth + 1)
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

SUITES = {
    "cocycle-identity": _suite_cocycle_identity,
    "identities": _suite_identities,
    "norm": _suite_norm,
    "valuation": _suite_valuation,
    "sums": _suite_sums,
    "oracle-equivalence": _suite_oracle_equivalence,
    "criterion": _suite_criterion,
    "census": _suite_census,
    "propagation": _suite_propagation,
    "exceptional-minimality": _suite_exceptional_minimality,
    "stability": _suite_stability,
    "roundtrip": _suite_roundtrip,
    "isometry": _suite_isometry,
    "order": _suite_order,
}

#: The suites acceptance-style verification runs by default (the rest are
#: heavyweight grids invoked by name).
DEFAULT_SUITES = (
    "cocycle-identity",
    "identities",
    "norm",
    "valuation",
    "criterion",
    "propagation",
    "roundtrip",
    "isometry",
)


#: The prime p of the top ring p**depth that each depth-scaled suite walks.
_TOP_RING_PRIME = {"oracle-equivalence": 7, "norm": 7, "valuation": 5, "criterion": 5}


def _check_depth(names, depth: int) -> None:
    """Refuse a depth whose top ring, in any named suite, exceeds the scan budget.

    Raises ResourceError before any suite runs, so a refused call does no work.
    """
    for name in names:
        p = _TOP_RING_PRIME.get(name)
        if p is None:
            continue
        # p**31 >= 2**31 is refused anyway; the bound spares a huge power
        size = p**depth if depth < 31 else SCAN_CEILING
        try:
            check_scan_size(size)
        except ResourceError as exc:
            raise ResourceError(f"{exc}; suite {name} walks {p}^{depth}") from None


def run_suite(name: str, depth: int = 5, seed: int = 0) -> SuiteResult:
    """Run one named suite and return its result (no exceptions on failure).

    A depth beyond the scan budget raises ResourceError (see _check_depth).
    """
    if name not in SUITES:
        raise KeyError(name)
    _check_depth([name], depth)
    res = SuiteResult(name=name)
    rng = random.Random(seed)
    t0 = time.perf_counter()
    SUITES[name](res, depth, rng)
    res.seconds = time.perf_counter() - t0
    if res.saturated:
        res.notes.append(f"stopped after {_MAX_FAILURES} counterexamples")
    return res


def run_suites(names, depth: int = 5, seed: int = 0) -> list[SuiteResult]:
    """Run the named suites in order, once _check_depth has passed them all."""
    _check_depth(names, depth)
    return [run_suite(name, depth=depth, seed=seed) for name in names]
