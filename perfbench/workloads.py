"""The three benchmark workloads: seeded inputs, the timed call, the check.

Each workload makes its inputs as a list of blocks.  A block has a fixed
composition (the same kinds of task at the same levels and precisions for
every seed); the seed only picks the parameters inside it.  The timed loop
always finishes the block it started, so every run measures whole blocks and
its latency quantiles do not depend on where the clock stopped.

A task is a tuple whose first item names its kind.  `run` performs the one
call into qadic that is timed; `check` recomputes the answer through
`reference` (plain integers, no qadic code) and returns whether it matched.
The one check that also calls qadic is the psi(phi(q)) round trip.
"""

from __future__ import annotations

import contextlib
import io
import json
import random

import reference as ref

PRIMES = (2, 3, 5, 7)
BRANCHES = ("seven", "four")
# Largest level per prime for `fixed` queries: p**n stays within 3**9, the
# size the reference's brute-force scan handles in a few milliseconds.
FIXED_LEVEL_CAP = {2: 7, 3: 7, 5: 6, 7: 5}


def _rich_q(rng: random.Random, digits: int) -> int:
    """A random p = 3 branch parameter (4 or 7 mod 9) below 3**digits."""
    return 1 + 3 * rng.choice((1, 2)) + 9 * rng.randrange(3 ** (digits - 2))


def _u1_q(rng: random.Random, p: int, digits: int) -> int:
    """A random q = 1 mod p with 1 < q < p**digits."""
    return 1 + p * rng.randrange(1, p ** (digits - 1))


def _admissible_z(rng: random.Random, v: int, digits: int) -> int:
    """A random z = offset + 3**v * u with u a unit, so v(z(z-1)) = v."""
    u = 3 * rng.randrange(3 ** max(digits - v - 1, 1)) + rng.choice((1, 2))
    return rng.choice((0, 1)) + u * 3**v


def run_cli(argv: list[str], api) -> tuple[int, str]:
    """qadic's CLI in process: (exit code, captured stdout); stderr is dropped."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = api.cli.run(argv)
    return code, out.getvalue()


class CliQueries:
    """`qadic.cli.run(argv)` in process with --json; stdout is captured."""

    name = "cli-queries"
    # Blocks per run: a round of about 3 s on the pure-Python backend, so a
    # 30 s run times each input about 10 times.
    block_count = 14

    def block(self, rng: random.Random, index: int) -> list[tuple]:
        tasks = []
        for i in range(42):
            p = PRIMES[i % 4]
            n = 1 + (i * 7) % 20
            kind = ("int", "rational", "digits")[i % 3]
            q = _u1_q(rng, p, 6)
            if kind == "int":
                z = rng.randrange(-10**6, 10**6)
                text = str(z)
            elif kind == "rational":
                b = rng.choice([b for b in range(2, 40) if b % p])
                z = (rng.randrange(-999, 1000), b)
                text = f"{z[0]}/{b}"
            else:
                z = [rng.randrange(p) for _ in range(n + rng.randrange(3))]
                text = f"{p}^{len(z)}:" + ",".join(map(str, z))
            argv = ["iota", "--p", str(p), "--q", str(q), "--z", text, "--n", str(n), "--json"]
            # a/b that reduces to an integer is an integer exponent: plain output
            plain = kind == "int" or (kind == "rational" and z[0] % z[1] == 0)
            tasks.append(("iota", argv, (p, q, z, n, plain)))
        for i in range(6):
            p = PRIMES[i % 4]
            q = _u1_q(rng, p, 6)
            argv = ["iota", "--p", str(p), "--q", str(q), "--n", "3", "--table", "60", "--mark-fixed", "--json"]
            tasks.append(("table", argv, (p, q, 3, 60)))
        for mode in ("count", "enumerate"):
            for i in range(8):
                p = PRIMES[i % 4]
                n = FIXED_LEVEL_CAP[p] - (i // 4)
                q = _u1_q(rng, p, n + 1)
                argv = ["fixed", mode, "--p", str(p), "--q", str(q), "--n", str(n), "--json"]
                tasks.append((mode, argv, (q, p, n)))
        for i in range(8):
            n = 4 + i % 4
            q = _rich_q(rng, n + 1)
            if i % 2 == 0:
                z = rng.choice(ref.brute_fixed(q, 3, n))
            else:
                z = rng.randrange(3**n)
            argv = ["fixed", "classify", "--p", "3", "--q", str(q), "--n", str(n), "--z", str(z), "--json"]
            tasks.append(("classify", argv, (q, z, n)))
        # Both branches' exceptional truncations at precision 14 are the
        # slowest 2% of the calls, so the 99th latency percentile falls
        # inside their group, not on the step below it.
        for i in range(10):
            if i < 8:
                N = 6 + i
                q = _rich_q(rng, N)
            else:
                N = 14
                q = ref.exceptional_value(BRANCHES[i - 8], N)
            tasks.append(("phi", ["phi", "--q", str(q), "--precision", str(N), "--json"], (q, N)))
        for i in range(8):
            P = 7 + i
            v = 1 + i % 3
            z = _admissible_z(rng, v, P + v)
            tasks.append(("psi", ["psi", "--z", str(z), "--precision", str(P), "--json"], (z, P, v)))
        for i, d in enumerate((4, 9, 14, 19, 24)):
            branch = BRANCHES[(i + index) % 2]
            argv = ["exceptional", "--branch", branch, "--digits", str(d), "--json"]
            tasks.append(("exceptional", argv, (branch, d)))
        for i in range(5):
            argv, code = MALFORMED[(5 * index + i) % len(MALFORMED)](rng)
            tasks.append(("malformed", argv, code))
        rng.shuffle(tasks)
        return tasks

    def warmup(self, rng: random.Random) -> list[tuple]:
        # The longest exceptional queries grow exceptional_q's process-wide
        # cache, which every timed query then finds warm.
        longest = [("exceptional", ["exceptional", "--branch", b, "--digits", "24", "--json"], (b, 24)) for b in BRANCHES]
        return self.block(rng, 0)[:20] + longest

    def run(self, task, api):
        return run_cli(task[1], api)

    def units(self, task, output) -> int:
        return 1

    def check(self, task, output, state) -> bool:
        kind, argv, info = task
        code, out = output
        if kind == "malformed":
            return code == info and out == ""
        if code != 0 or out.count("\n") != 1:
            return False
        record = json.loads(out)
        if record["command"] != argv:
            return False
        return CLI_CHECKS[kind](info, record["result"], state)


def _check_iota(info, result, state) -> bool:
    p, q, z, n, plain = info
    value = ref.iota_mod(q, ref.exponent_residue(z, p, n), p, n)
    want = str(value) if plain else ref.digit_string(value, p, n)
    return result["value"] == want


def _check_table(info, result, state) -> bool:
    p, q, n, limit = info
    m = p**n
    values = [ref.iota_mod(q, z, p, n) for z in range(limit + 1)]
    fixed = [z for z, v in enumerate(values) if v == z % m]
    return result["values"] == values and result["fixed_positions"] == fixed


def _check_count(info, result, state) -> bool:
    return result["count"] == len(state.brute_fixed(*info))


def _check_enumerate(info, result, state) -> bool:
    residues = state.brute_fixed(*info)
    return result["residues"] == residues and result["count"] == len(residues)


def _check_classify(info, result, state) -> bool:
    q, z, n = info
    return result["classification"] == ref.classify(q, z, n)


def _check_phi(info, result, state) -> bool:
    q, N = info
    if result["exceptional"]:
        return check_exceptional_report(q, N, result["branch"], result["agreement_depth"])
    return state.check_phi(q, N, result["value"])


def _check_psi(info, result, state) -> bool:
    z, P, v = info
    return check_psi_value(z, P, v, result["value"])


def _check_exceptional(info, result, state) -> bool:
    branch, d = info
    _, n, value = ref.parse_digit_string(result["value"])
    return n == d and value == ref.exceptional_value(branch, d) and state.consistent_prefix(branch, d, value)


CLI_CHECKS = {
    "iota": _check_iota,
    "table": _check_table,
    "count": _check_count,
    "enumerate": _check_enumerate,
    "classify": _check_classify,
    "phi": _check_phi,
    "psi": _check_psi,
    "exceptional": _check_exceptional,
}


def check_exceptional_report(q: int, N: int, branch: str, depth: int) -> bool:
    """phi found no rooted point: q must agree with its branch's exceptional
    parameter mod 3**(N-1), the depth reported."""
    want = ref.branch_of(q)
    return branch == want and depth == N - 1 and q % 3**depth == ref.exceptional_value(want, depth)


def check_psi_value(z: int, P: int, v: int, text: str) -> bool:
    """psi(z) mod 3**P: right branch, and it fixes z at level P + v."""
    p, n, q = ref.parse_digit_string(text)
    if p != 3 or n != P:
        return False
    if q % 9 != (7 if z % 3 == 0 else 4):
        return False
    level = P + v
    return ref.iota_mod(q, z % 3**level, 3, level) == z % 3**level


# Malformed or out-of-domain queries and the exit code the CLI documents for
# them: 1 domain/parse error, 2 precision error, 4 resource cap.
MALFORMED = (
    lambda rng: (["iota", "--p", str(rng.choice((4, 6, 8, 9, 10))), "--q", "5", "--z", "1", "--n", "3", "--json"], 1),
    lambda rng: (["phi", "--q", str(3 * rng.randrange(1, 999) + 2), "--precision", str(rng.randint(3, 14)), "--json"], 1),
    lambda rng: (["psi", "--z", str(3 * rng.randrange(999) + 2), "--precision", str(rng.randint(3, 14)), "--json"], 1),
    lambda rng: (["iota", "--p", "3", "--q", "4", "--z", f"3^2:{rng.randrange(3)},{rng.randrange(3)}", "--n", str(rng.randint(5, 9)), "--json"], 2),
    lambda rng: (["exceptional", "--branch", rng.choice(BRANCHES), "--digits", str(rng.randint(33, 40)), "--json"], 4),
    lambda rng: (["fixed", "count", "--p", "3", "--q", str(3 * rng.randrange(1, 99) + 2), "--n", "3", "--json"], 1),
    lambda rng: (["iota", "--p", "3", "--q", "4", "--z", f"{3 * rng.randrange(99) + 1}/3", "--n", "3", "--json"], 1),
    lambda rng: (["iota", "--p", "3", "--q", "4", "--z", "5", "--n", str(rng.randint(65, 70)), "--json"], 4),
    lambda rng: (["fixed", "count", "--p", rng.choice(("x", "3.5", "")), "--q", "4", "--n", "3", "--json"], 1),
)


class DeepSearch:
    """Library calls into the searches: phi, psi, counts and enumerations."""

    name = "deep-search"
    block_count = 2

    def block(self, rng: random.Random, index: int) -> list[tuple]:
        tasks = []
        for N in range(12, 31, 2):
            tasks.append(("phi", _rich_q(rng, N), N))
        for v in (1, 2, 3):
            for P in (12, 18, 24, 30):
                tasks.append(("psi", _admissible_z(rng, v, P + v + 2), P, v))
        # Level 11 appears twice so that it holds about a sixth of the block
        # and the 90th latency percentile falls inside it, not on the step
        # down to level 10.
        for i, n in enumerate((7, 8, 9, 10, 11, 11)):
            for mode in ("count", "enumerate"):
                tasks.append((mode, _rich_q(rng, n + 1), n, "random"))
                branch = BRANCHES[(i + index) % 2]
                tasks.append((mode, ref.exceptional_value(branch, n + 1), n, "exceptional"))
        rng.shuffle(tasks)
        return tasks

    def warmup(self, rng: random.Random) -> list[tuple]:
        return [
            ("phi", _rich_q(rng, 12), 12),
            ("psi", _admissible_z(rng, 1, 14), 12, 1),
            ("count", _rich_q(rng, 8), 7, "random"),
            ("enumerate", ref.exceptional_value("seven", 8), 7, "exceptional"),
        ]

    def run(self, task, api):
        kind = task[0]
        if kind == "phi":
            _, q, N = task
            return api.phi(api.QParameter(api.PadicInt.from_int(q, 3, N)), N)
        if kind == "psi":
            _, z, P, _ = task
            return api.psi(z, P)
        _, q, n, _ = task
        qp = api.QParameter(api.PadicInt.from_int(q, 3, n + 1))
        if kind == "count":
            return api.count_fixed_points(qp, n)
        return api.enumerate_fixed_points(qp, n).residues()

    def units(self, task, output) -> int:
        return 1

    def check(self, task, output, state) -> bool:
        kind = task[0]
        if kind == "phi":
            _, q, N = task
            if isinstance(output, state.api.ExceptionalReport):
                state.no_rooted += 1
                return check_exceptional_report(q, N, output.branch, output.agreement_depth)
            return state.check_phi(q, N, str(output))
        if kind == "psi":
            _, z, P, v = task
            return check_psi_value(z, P, v, str(output))
        _, q, n, _ = task
        residues = state.brute_fixed(q, 3, n)
        if not any(_is_rooted(z, n) for z in residues):
            state.no_rooted += 1
        if kind == "count":
            return output == len(residues)
        return output == residues


def _is_rooted(z: int, n: int) -> bool:
    v = ref.vp(z * (z - 1), 3)
    return v is not None and 2 * v < n - 1


class VerifyOracle:
    """`qadic verify --suite oracle-equivalence|order` through cli.run."""

    name = "verify-oracle"
    block_count = 1
    # (suite, depth) per block: oracle-equivalence and order at depths 2-4.
    # Four calls sit below the three depth-3 oracle-equivalence calls and
    # four above them, so the median latency falls in the middle of that
    # group; the two depth-4 oracle-equivalence calls are the top 18%, so
    # the 90th percentile falls in the middle of theirs.
    SHAPE = (
        ("order", 2),
        ("order", 2),
        ("oracle-equivalence", 2),
        ("oracle-equivalence", 2),
        ("oracle-equivalence", 3),
        ("oracle-equivalence", 3),
        ("oracle-equivalence", 3),
        ("order", 3),
        ("order", 4),
        ("oracle-equivalence", 4),
        ("oracle-equivalence", 4),
    )

    def block(self, rng: random.Random, index: int) -> list[tuple]:
        tasks = []
        for suite, depth in self.SHAPE:
            argv = ["verify", "--suite", suite, "--depth", str(depth), "--seed", str(rng.randrange(10**6)), "--json"]
            tasks.append(("verify", argv, suite))
        rng.shuffle(tasks)
        return tasks

    def warmup(self, rng: random.Random) -> list[tuple]:
        return [
            ("verify", ["verify", "--suite", suite, "--depth", "1", "--seed", "0", "--json"], suite)
            for suite in ("oracle-equivalence", "order")
        ]

    def run(self, task, api):
        return run_cli(task[1], api)

    def units(self, task, output) -> int:
        code, out = output
        try:
            return sum(s["cases"] for s in json.loads(out)["result"]["suites"])
        except (ValueError, KeyError, TypeError):
            return 0

    def check(self, task, output, state) -> bool:
        _, argv, suite = task
        code, out = output
        if code != 0 or out.count("\n") != 1:
            return False
        result = json.loads(out)["result"]
        entries = result["suites"]
        if not result["passed"] or [e["name"] for e in entries] != [suite]:
            return False
        entry = entries[0]
        for note in entry["notes"]:
            state.notes.add(f"{suite}: {note}")
        # The same arguments must sweep the same grid every time.
        key = tuple(argv)
        seen = state.cases.setdefault(key, entry["cases"])
        return entry["passed"] and not entry["failures"] and entry["cases"] > 0 and seen == entry["cases"]


WORKLOADS = {w.name: w for w in (CliQueries(), DeepSearch(), VerifyOracle())}


def make_blocks(workload, seed: int, count: int | None = None) -> list[list[tuple]]:
    """The seeded inputs: `count` blocks (default: the workload's block_count)."""
    rng = random.Random(f"{workload.name}:{seed}")
    return [workload.block(rng, i) for i in range(workload.block_count if count is None else count)]


def make_warmup(workload, seed: int) -> list[tuple]:
    return workload.warmup(random.Random(f"{workload.name}:warmup:{seed}"))


class CheckState:
    """What checking one run accumulates: reference scans, grid notes,
    exceptional digits seen, and the count of tasks with no rooted point."""

    def __init__(self, api):
        self.api = api
        self._fixed: dict[tuple[int, int, int], list[int]] = {}
        self.notes: set[str] = set()
        self.cases: dict[tuple, int] = {}
        self._longest: dict[str, tuple[int, int]] = {}
        self.no_rooted = 0

    def brute_fixed(self, q: int, p: int, n: int) -> list[int]:
        """The reference scan, remembered for the first keys seen (which
        include every exceptional truncation), so memory stays flat over a run."""
        key = (q % p**n, p, n)
        if key in self._fixed:
            return self._fixed[key]
        residues = ref.brute_fixed(q, p, n)
        if len(self._fixed) < 256:
            self._fixed[key] = residues
        return residues

    def check_phi(self, q: int, N: int, text: str) -> bool:
        """phi(q) mod 3**(N-1): fixed under q, not a trivial 0/1 point, and
        psi(phi(q)) returns q mod 3**(N-1-v0)."""
        p, n, z = ref.parse_digit_string(text)
        if p != 3 or n != N - 1:
            return False
        if ref.iota_mod(q, z, 3, n) != z:
            return False
        v0 = ref.vp(z * (z - 1) % 3**n, 3)
        if v0 is None or v0 > N - 3:
            return False
        back = self.api.psi(self.api.PadicInt.parse(text), n - v0)
        return back.lift() == q % 3 ** (n - v0)

    def consistent_prefix(self, branch: str, digits: int, value: int) -> bool:
        """Whether an exceptional answer agrees with the longest one seen for
        its branch on their common digits (so all answers are prefixes of
        one digit stream)."""
        d0, v0 = self._longest.setdefault(branch, (digits, value))
        if digits > d0:
            self._longest[branch] = (digits, value)
        return (value - v0) % 3 ** min(digits, d0) == 0
