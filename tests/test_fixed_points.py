"""Fixed residues of the level-n map: membership, enumeration, classification,
the rooted/drifting split, and the census of parameters."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from qadic import cocycle, fixed_points, oracle
from qadic.cocycle import image_description
from qadic.errors import DomainError, InvariantError, ResourceError
from qadic.fixed_points import (
    KIND_PAIRS,
    FixedPointSet,
    _unique_lift,
    classify,
    count_fixed_points,
    enumerate_fixed_points,
    find_rooted,
    is_fixed,
    pair_criterion,
    propagate_rooted,
)
from qadic.padic_core import CosetDescriptor, PadicInt, QParameter, from_rational, sharing_shapes

# the 21 fixed residues of the parameter 4 at level 4, long since cross-checked
# against the brute scan
FIXED_MOD_81 = [0, 1, 4, 10, 13, 19, 22, 27, 28, 31, 37, 40, 46, 49, 54, 55, 58, 64, 67, 73, 76]


def qp(value: int, p: int, precision: int) -> QParameter:
    return QParameter(PadicInt.from_int(value, p, precision))


# -- membership and enumeration ---------------------------------------------


def test_enumerate_rich_example():
    fps = enumerate_fixed_points(qp(4, 3, 6), 4)
    assert fps.residues() == FIXED_MOD_81
    assert fps.count() == 21


def test_enumerate_matches_brute_example():
    assert oracle.brute_fixed_points(4, 3, 4) == FIXED_MOD_81


def test_enumerate_drifting_only():
    fps = enumerate_fixed_points(qp(7, 3, 4), 2)
    assert fps.residues() == [0, 1, 3, 4, 6, 7]


def test_enumerate_pairs_p5():
    fps = enumerate_fixed_points(qp(26, 5, 5), 3)
    # m0 = 2: fixed exactly at 0 and 1 mod 5**(3-2)
    assert fps.residues() == [z for z in range(125) if z % 5 in (0, 1)]
    assert count_fixed_points(qp(26, 5, 5), 3) == 50


def test_counts():
    assert count_fixed_points(qp(4, 3, 6), 4) == 21
    assert count_fixed_points(qp(7, 3, 6), 2) == 6
    assert count_fixed_points(qp(4, 3, 6), 2) == 6
    assert count_fixed_points(qp(10, 3, 6), 4) == 2 * 3**2  # m0 = 2 pair count


def test_degenerate_identity_parameter():
    assert count_fixed_points(qp(1, 3, 5), 3) == 27
    assert enumerate_fixed_points(qp(1, 3, 5), 2).residues() == list(range(9))


def test_pair_shaped_sets_and_images_are_built_once_per_shape_within_a_sweep():
    with sharing_shapes():
        # 26, 51 and 76 all have m0 = 2 mod 5**5: one shape (p, n, e) = (5, 3, 1)
        shared = enumerate_fixed_points(qp(26, 5, 5), 3)
        assert enumerate_fixed_points(qp(51, 5, 5), 3) is shared
        assert count_fixed_points(qp(76, 5, 5), 3) == 50
        assert enumerate_fixed_points(qp(6, 5, 5), 3) is not shared  # m0 = 1: e = 2
        assert image_description(qp(26, 5, 5), 3) is image_description(qp(6, 5, 5), 3)
        # p = 2 with q = 3 mod 4: 3 and 11 both have l0 = 2
        assert image_description(qp(3, 2, 7), 4) is image_description(qp(11, 2, 7), 4)
        with sharing_shapes():  # nested blocks share the outer block's shapes
            assert enumerate_fixed_points(qp(51, 5, 5), 3) is shared
        assert enumerate_fixed_points(qp(76, 5, 5), 3) is shared
    for cached in (fixed_points._pair_set, cocycle._pair_image):
        info = cached.cache_info()
        assert 0 < info.maxsize <= 1024 and info.currsize == 0
    # outside a block nothing is kept: each call builds and validates its own
    assert enumerate_fixed_points(qp(26, 5, 5), 3) is not enumerate_fixed_points(qp(51, 5, 5), 3)
    assert enumerate_fixed_points(qp(26, 5, 5), 3) == shared
    assert fixed_points._pair_set.cache_info().currsize == 0


def test_fixed_listing_respects_the_scan_budget(monkeypatch):
    monkeypatch.setenv("QADIC_SCAN_BUDGET", "8")
    fps = enumerate_fixed_points(qp(1, 3, 5), 2)
    assert fps.count() == 9
    with pytest.raises(ResourceError, match=r"listing 9 residues mod 3\^2 exceeds budget 8"):
        fps.residues()


def test_fixed_point_set_rejects_overlapping_cosets():
    # 10 + 27Z lies inside 1 + 9Z
    wide = CosetDescriptor(PadicInt.from_int(1, 3, 2), 2)
    narrow = CosetDescriptor(PadicInt.from_int(10, 3, 3), 3)
    with pytest.raises(InvariantError, match="overlap"):
        FixedPointSet(3, 4, (wide, narrow), KIND_PAIRS)
    apart = CosetDescriptor(PadicInt.from_int(0, 3, 2), 2)
    assert FixedPointSet(3, 4, (apart, wide), KIND_PAIRS).count() == 18


def test_is_fixed_spot():
    q = qp(4, 3, 6)
    assert is_fixed(q, 13, 4)
    assert is_fixed(q, 4, 3)
    assert not is_fixed(q, 21, 3)
    assert not is_fixed(q, 21, 4)
    assert is_fixed(q, from_rational(-1, 2, 3, 6), 5)


# -- the pair criterion ------------------------------------------------------


def test_pair_criterion_examples():
    q = qp(26, 5, 5)  # m0 = 2: threshold valuation n - m0 = 1
    assert pair_criterion(q, 25, 3)
    assert pair_criterion(q, 126, 3)
    assert pair_criterion(q, 5, 3)  # v(5*4) = 1 reaches the threshold
    assert not pair_criterion(q, 2, 3)
    assert not pair_criterion(q, 7, 3)


@given(
    k=st.integers(1, 80),
    z=st.integers(0, 3**5 - 1),
    n=st.integers(2, 5),
)
def test_pair_criterion_sound_rich(k, z, n):
    m0 = 1
    kk = k
    while kk % 3 == 0:
        kk //= 3
        m0 += 1
    q = qp(1 + 3 * k, 3, m0 + n)
    if pair_criterion(q, z, n):
        assert is_fixed(q, z, n)


@given(
    k=st.integers(1, 60),
    z=st.integers(0, 5**4 - 1),
    n=st.integers(1, 4),
)
def test_pair_criterion_exact_p5(k, z, n):
    m0 = 1
    kk = k
    while kk % 5 == 0:
        kk //= 5
        m0 += 1
    q = qp(1 + 5 * k, 5, m0 + n)
    assert pair_criterion(q, z, n) == is_fixed(q, z, n)


# -- classification ----------------------------------------------------------


def test_classify_examples():
    q = qp(4, 3, 7)
    assert classify(q, 13, 4) == "rooted"
    assert classify(q, 27, 4) == "pair"
    assert classify(q, 5, 4) == "not-fixed"
    assert classify(q, 10, 4) == "drifting"


def test_classify_at_level_one_is_all_pairs():
    # at n = 1 the pair threshold n - m0 is 0, so every residue is fixed,
    # those with a unit z(z-1) included
    for qv in (4, 7):
        q = qp(qv, 3, 3)
        assert [classify(q, z, 1) for z in range(3)] == ["pair"] * 3
    assert classify(qp(4, 3, 4), 2, 2) == "not-fixed"


def test_classify_needs_rich_branch():
    with pytest.raises(DomainError):
        classify(qp(10, 3, 6), 13, 4)
    with pytest.raises(DomainError):
        classify(qp(6, 5, 6), 13, 4)


# -- deeper-coset fixedness on each branch ----------------------------------


@pytest.mark.parametrize("n", [3, 4, 5])
def test_offset_side_cosets_all_fixed(n):
    # seven-branch: every c*3**(n-2) is fixed at level n; four-branch: every
    # 1 + c*3**(n-2).  All parameters mod 3**(n+1) of each branch, all c mod 9.
    step = 3 ** (n - 2)
    for offset, residue in ((0, 7), (1, 4)):
        for k in range(3 ** (n - 1)):
            qv = residue + 9 * k
            q = qp(qv, 3, n + 1)
            for c in range(9):
                assert is_fixed(q, offset + c * step, n), (n, qv, c)


# -- no middle valuations for larger primes ---------------------------------


@pytest.mark.parametrize("p", [5, 7])
def test_fixed_sets_are_exactly_the_pair_cosets(p):
    # for q in U1 - {1}, the level-n fixed set is 0 and 1 mod p**(n-m0):
    # no residue with z(z-1) of valuation strictly between 0 and n-m0.
    # The scan depends only on q mod p**n and the expected set only on the
    # step, so each is computed once and every parameter is still asserted.
    for n in range(1, 6):
        seen_m0 = set()
        scans, expected = {}, {}
        for k in range(1, p**n):
            qv = 1 + p * k
            m0 = 1
            while k % p == 0:
                k //= p
                m0 += 1
            seen_m0.add(m0)
            step = p ** max(n - m0, 0)
            if step not in expected:
                expected[step] = [z for z in range(p**n) if z % step in (0, 1 % step)]
            r = qv % p**n
            if r not in scans:
                scans[r] = oracle.brute_fixed_points(r, p, n)
            assert scans[r] == expected[step], (p, n, qv)
        assert seen_m0 == set(range(1, n + 1))


# -- rooted points: search and propagation ----------------------------------


def test_find_rooted_examples():
    z0, v0 = find_rooted(qp(4, 3, 6), 4)
    assert (z0.lift(), v0) == (4, 1)
    assert z0.precision == 2
    assert find_rooted(qp(4, 3, 6), 3) is None
    z0, v0 = find_rooted(qp(7, 3, 7), 5)
    assert (z0.lift(), v0) == (24, 1)


def test_find_rooted_deeper_valuation():
    # q = 49 is one of the 36 level-6 parameters whose rooted point sits at
    # valuation 2: brute scan gives the 27 residues 10 + 27k mod 3**6
    z0, v0 = find_rooted(qp(49, 3, 9), 6)
    assert v0 == 2
    assert z0.lift() == 10
    assert z0.precision == 3  # n - v0 - 1 digits


def test_propagate_rooted_examples():
    # the rooted points of the parameter 4 climb toward -1/2 = ...111, so
    # every appended digit is 1: 4 -> 13 -> 40 -> 121
    q = qp(4, 3, 9)
    assert propagate_rooted(q, 4, 4) == 1
    assert propagate_rooted(q, 13, 5) == 1
    assert propagate_rooted(q, 40, 6) == 1
    assert from_rational(-1, 2, 3, 5).lift() == 121


def test_propagation_chain_stays_fixed():
    q = qp(7, 3, 12)
    z0, v0 = find_rooted(q, 5)
    z = z0.lift()
    for n in range(5, 9):
        c = propagate_rooted(q, z, n)
        z = z + c * 3 ** (n - v0 - 1)
        assert is_fixed(q, z, n + 1)


def test_unique_lift_demands_exactly_one_survivor():
    assert _unique_lift(lambda z: z % 9 == 5, 2, 3, "spot") == 1
    with pytest.raises(InvariantError, match="spot: 0 valid digits"):
        _unique_lift(lambda z: False, 2, 3, "spot")
    with pytest.raises(InvariantError, match="spot: 3 valid digits"):
        _unique_lift(lambda z: True, 2, 3, "spot")


def test_find_rooted_is_polynomial_on_exceptional_truncations():
    # no rooted point at any valuation: the search tests two candidates per
    # valuation instead of every unit below the level
    from qadic.correspondence import exceptional_q

    for branch in ("seven", "four"):
        q = QParameter(exceptional_q(branch, 31))
        assert find_rooted(q, 30) is None
        assert count_fixed_points(q, 30) == 3**15 + 3


def test_propagate_rejects_unrooted_level():
    q = qp(7, 3, 8)
    with pytest.raises(DomainError):
        propagate_rooted(q, 7, 3)  # no rooted stratum exists at level 3


# -- the census of parameters ------------------------------------------------


@pytest.mark.parametrize("n", [4, 5, 6])
def test_census_of_rooted_parameters(n):
    counts = {"four": [0, 0], "seven": [0, 0]}  # [rooted, no-rooted]
    per_v0 = {}
    for residue, branch in ((4, "four"), (7, "seven")):
        for k in range(3 ** (n - 2)):
            qv = residue + 9 * k
            hit = find_rooted(qp(qv, 3, n + 1), n)
            if hit is None:
                counts[branch][1] += 1
            else:
                counts[branch][0] += 1
                per_v0[hit[1]] = per_v0.get(hit[1], 0) + 1
    rooted_expected = 2 * (3 ** (n - 2) - 3 ** ((n - 1) // 2))
    bare_expected = 2 * 3 ** ((n - 1) // 2)
    assert counts["four"][0] + counts["seven"][0] == rooted_expected
    assert counts["four"][1] + counts["seven"][1] == bare_expected
    assert counts["four"] == counts["seven"]
    for v0, got in per_v0.items():
        assert got == 4 * 3 ** (n - v0 - 2), (n, v0)
