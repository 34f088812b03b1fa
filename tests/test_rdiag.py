"""Unit tests for determining sequences and the supporting-partition sets."""

import itertools
from fractions import Fraction
from functools import lru_cache
from random import Random

import pytest

from freeunitary import (
    Distribution,
    InsufficientDataError,
    NCPartition,
    Poly,
    SizeError,
    StructureError,
    Word,
    alpha_sequence,
    beta_enumeration,
    beta_mobius,
    catalan,
    enumerate_nc,
    haar_cumulant,
    haar_derivative,
    haar_limit,
    is_alternating,
    mixed_q_cumulant,
    nc_omega,
    nc_omega_structured,
    z_mobius,
    z_recursive,
)
from freeunitary import rdiag
from freeunitary.ncpart import MAX_GROUND_SIZE, _weight_table
from freeunitary.rdiag import MOBIUS_K_LIMIT, STRUCTURED_LIMIT, u_indices
from oracles import mixed_q_filter, nc_omega_filter, series_alpha_beta

EXAMPLE_BLOCKS = sorted(
    [
        [[1, 4, 5], [2, 3], [6]],
        [[1, 4, 5], [2], [3], [6]],
        [[1], [2, 3, 6], [4, 5]],
        [[1], [2, 3], [4, 5], [6]],
        [[1], [2, 6], [3], [4, 5]],
    ]
)

SAMPLE = Distribution(
    Fraction(s) for s in ("1/2", "1/3", "-1/4", "2/5", "1/6", "0", "1/7", "0", "0", "1")
)


def test_distribution_basics():
    assert SAMPLE.max_order == 10
    assert SAMPLE.kappa(1) == Fraction(1, 2)
    assert SAMPLE.kappa(4) == Fraction(2, 5)
    with pytest.raises(SizeError):
        SAMPLE.kappa(0)
    with pytest.raises(InsufficientDataError):
        SAMPLE.kappa(11)
    assert Distribution.point_mass_one(3).cumulants == (1, 0, 0)


def test_random_small_is_seed_deterministic():
    assert Distribution.random_small(Random(7), 5) == Distribution.random_small(Random(7), 5)


def test_is_alternating():
    assert is_alternating("1")
    assert is_alternating("1*")
    assert is_alternating("1*1")
    assert is_alternating("11*")  # rotation of 1*1
    assert is_alternating("1**")  # rotation of the star-heavy odd pattern
    assert is_alternating("1*1*1")
    assert is_alternating("11*1*")  # rotation of 1*1*1
    assert not is_alternating("11")
    assert not is_alternating("111")
    assert not is_alternating("11*11")
    assert not is_alternating("1*11*1")


@pytest.mark.parametrize("length", range(1, 11))
def test_cyclic_alternation_rule_matches_the_rotation_definition(length):
    def rotation_alternates(bits):
        rotations = (bits[r:] + bits[:r] for r in range(len(bits)))
        return any(all(a != b for a, b in zip(rot, rot[1:])) for rot in rotations)

    for bits in itertools.product((0, 1), repeat=length):
        bits = list(bits)
        assert rdiag._alternates_cyclically(bits) == rotation_alternates(bits), bits


def test_u_and_q_positions():
    assert u_indices("1*1") == frozenset({1, 4, 5})
    assert u_indices("11") == frozenset({1, 3})
    assert u_indices("**") == frozenset({2, 4})


def test_haar_limit_matches_closed_form():
    # the closed form against grade 0 of both cumulant routes
    for text in ("1*", "1*1*", "11**", "1*1", "111*", "1"):
        want = Poly((haar_cumulant(text),))
        assert Poly((haar_limit(text),)) == want
        assert z_mobius(text).grade(0) == want
        assert z_recursive(text).grade(0) == want


def test_haar_derivative_values():
    assert haar_derivative("1") == 1
    assert haar_derivative("1*1") == -1
    assert haar_derivative("11*") == -1  # same orbit as 1*1, traciality
    assert haar_derivative("1*1*1") == 2
    assert haar_derivative("1*") == 0
    assert haar_derivative("111") == 0
    assert haar_derivative("11*11") == 0


def test_mixed_q_cumulant_formulas():
    k = SAMPLE.kappa
    assert mixed_q_cumulant(SAMPLE, (1,)) == k(1)
    assert mixed_q_cumulant(SAMPLE, (2,)) == k(2) + k(1) ** 2
    assert mixed_q_cumulant(SAMPLE, (2, 1)) == k(3) + 2 * k(2) * k(1)
    assert mixed_q_cumulant(SAMPLE, (1, 2)) == k(3) + 2 * k(2) * k(1)
    assert mixed_q_cumulant(SAMPLE, (2, 2)) == (
        k(4) + 4 * k(3) * k(1) + k(2) ** 2 + 4 * k(2) * k(1) ** 2
    )


def test_mixed_q_cumulant_point_mass():
    # for a point mass every product of q's is a scalar, so only the
    # single-slot cumulant survives
    d = Distribution((Fraction(3), 0, 0, 0, 0, 0))
    assert mixed_q_cumulant(d, (2,)) == 9
    assert mixed_q_cumulant(d, (1,)) == 3
    assert mixed_q_cumulant(d, (2, 2)) == 0
    assert mixed_q_cumulant(d, (2, 1, 2)) == 0


def test_mixed_q_cumulant_guards():
    with pytest.raises(SizeError):
        mixed_q_cumulant(SAMPLE, ())
    with pytest.raises(StructureError):
        mixed_q_cumulant(SAMPLE, (3,))
    with pytest.raises(InsufficientDataError):
        mixed_q_cumulant(SAMPLE, (2,) * 6)


def test_alpha_beta_symbolic_low_orders():
    k = SAMPLE.kappa
    alpha = alpha_sequence(SAMPLE, 2)
    assert alpha[0] == k(2) + k(1) ** 2
    assert alpha[1] == (
        k(4) + 4 * k(3) * k(1) + k(2) ** 2 + 4 * k(2) * k(1) ** 2
    ) - (k(2) + k(1) ** 2) ** 2
    beta = beta_mobius(SAMPLE, 2)
    assert beta[0] == k(1)
    assert beta[1] == k(3) + k(2) * k(1) - k(1) ** 3


def test_alpha_beta_at_q_equal_one_are_signed_catalans():
    one = Distribution.point_mass_one(2 * MOBIUS_K_LIMIT)
    for k, value in enumerate(alpha_sequence(one, MOBIUS_K_LIMIT), start=1):
        assert value == (-1) ** (k - 1) * catalan(k - 1)
    for k, value in enumerate(beta_mobius(one, MOBIUS_K_LIMIT), start=1):
        assert value == (-1) ** (k - 1) * catalan(k - 1)


def test_series_oracle_at_known_values():
    k = SAMPLE.kappa
    alpha, beta = series_alpha_beta(SAMPLE.cumulants, 2)
    assert alpha == [k(2) + k(1) ** 2, (
        k(4) + 4 * k(3) * k(1) + k(2) ** 2 + 4 * k(2) * k(1) ** 2
    ) - (k(2) + k(1) ** 2) ** 2]
    assert beta == [k(1), k(3) + k(2) * k(1) - k(1) ** 3]
    signed_catalans = [(-1) ** (j - 1) * catalan(j - 1) for j in range(1, 9)]
    assert series_alpha_beta([1] + [0] * 15, 8) == (signed_catalans, signed_catalans)


@pytest.mark.parametrize("seed", range(6))
def test_alpha_and_beta_match_the_series_oracle_up_to_the_cap(seed):
    # unlike q = 1, where only kappa_1 is nonzero, random data gives every
    # block shape of NC(k) a factor of its own
    d = Distribution.random_small(Random(seed), 2 * MOBIUS_K_LIMIT)
    alpha, beta = series_alpha_beta(d.cumulants, MOBIUS_K_LIMIT)
    assert alpha_sequence(d, MOBIUS_K_LIMIT) == alpha
    assert beta_mobius(d, MOBIUS_K_LIMIT) == beta


# every pattern of 1s and 2s with at most 8 letters in all
PATTERNS_UP_TO_8 = [
    pattern
    for r in range(1, 9)
    for pattern in itertools.product((1, 2), repeat=r)
    if sum(pattern) <= 8
]


@pytest.mark.parametrize("seed", range(5))
def test_mixed_q_cumulant_matches_the_products_as_arguments_filter(seed):
    d = Distribution.random_small(Random(seed), 8)
    assert len(PATTERNS_UP_TO_8) == 87
    for pattern in PATTERNS_UP_TO_8:
        assert mixed_q_cumulant(d, pattern) == mixed_q_filter(pattern, d.cumulants), pattern


# ---------------------------------------------------------------------------
# an independent oracle for alpha: expand a = uq into letters and sum
# type-pure non-crossing partitions, Haar weights on u-blocks and plain
# cumulants on q-blocks


def _oracle_moment(a_word, d):
    letters = []
    for eps in a_word:
        letters.extend([("u", eps), ("q", 0)] if eps == 1 else [("q", 0), ("u", eps)])
    n = len(letters)
    total = Fraction(0)
    for p in enumerate_nc(n):
        term = Fraction(1)
        for block in p.blocks:
            kinds = {letters[i - 1][0] for i in block}
            if len(kinds) > 1:
                term = Fraction(0)
                break
            if kinds == {"q"}:
                term *= d.kappa(len(block))
            else:
                sub = "".join(
                    "1" if letters[i - 1][1] == 1 else "*" for i in block
                )
                term *= haar_cumulant(sub)
                if term == 0:
                    break
        total += term
    return total


def _oracle_alpha(k, d):
    word = (1, -1) * k
    total = Fraction(0)
    for blocks, moeb in _weight_table(2 * k):
        term = Fraction(moeb)
        for block in blocks:
            term *= _oracle_moment(tuple(word[i - 1] for i in block), d)
        total += term
    return total


@pytest.mark.parametrize("k", (1, 2))
def test_alpha_against_letter_expansion_oracle(k):
    for seed in (1, 2, 3):
        d = Distribution.random_small(Random(seed), 8)
        assert alpha_sequence(d, k)[k - 1] == _oracle_alpha(k, d)


# ---------------------------------------------------------------------------
# supporting partition sets


def test_example_partition_set():
    onc = nc_omega("1*1")
    assert len(onc) == 5
    assert sorted(p.to_lists() for p in onc.partitions) == EXAMPLE_BLOCKS


def test_shortest_words():
    assert len(nc_omega("1")) == 1
    assert nc_omega("1").partitions[0] == NCPartition(2, [[1], [2]])
    assert len(nc_omega("1*")) == 0  # even words carry no derivative term
    assert len(nc_omega("11")) == 0


def test_non_alternating_words_have_empty_support():
    for text in ("111", "11*11", "1*11*1", "11111"):
        assert len(nc_omega(text)) == 0


@pytest.mark.parametrize("n", range(1, 6))
def test_nc_omega_equals_filter_over_all_of_nc_2n(n):
    for bits in range(2 ** n):
        letters = tuple(1 if (bits >> i) & 1 else -1 for i in range(n))
        assert nc_omega(Word(letters)).partitions == tuple(
            sorted(nc_omega_filter(letters), key=lambda p: p.blocks)
        )


def test_nc_omega_validates_each_support_set_once(monkeypatch):
    # the cached set is the validated OmegaNC itself, so a second call on
    # the same word, spelled either way, checks no member again
    first = nc_omega("1*1*1")

    def refuse(*args):
        raise AssertionError("a cached support set must not be validated again")

    monkeypatch.setattr(rdiag, "_omega_failure", refuse)
    assert nc_omega("uu*uu*u") is first
    assert nc_omega(Word((1, -1, 1, -1, 1))) is first
    assert len(first) == 42


def test_cold_nc_omega_checks_each_candidate_once(monkeypatch):
    # the filter's survivors are not checked a second time by the constructor
    calls, candidates = [0], [0]
    check, parts = rdiag._omega_failure, rdiag._parts

    def counted_check(*args):
        calls[0] += 1
        return check(*args)

    def counted_parts(*args):
        for blocks in parts(*args):
            candidates[0] += 1
            yield blocks

    monkeypatch.setattr(rdiag, "_omega_failure", counted_check)
    monkeypatch.setattr(rdiag, "_parts", counted_parts)
    rdiag._nc_omega_cached.cache_clear()
    support = nc_omega("1*1*1*1")
    assert len(support) == catalan(7)
    assert calls[0] == candidates[0] > len(support)
    # the public constructor still checks every member
    assert rdiag.OmegaNC(support.word, support.partitions) == support
    bad = NCPartition(14, [[2 * i + 1, 2 * i + 2] for i in range(7)])
    with pytest.raises(StructureError, match="mixes unitary and q positions"):
        rdiag.OmegaNC(support.word, [bad])


def test_enumeration_matches_mobius_on_random_data():
    rng = Random(99)
    support = nc_omega_structured(STRUCTURED_LIMIT)
    for _ in range(5):
        d = Distribution.random_small(rng, 8)
        bm = beta_mobius(d, STRUCTURED_LIMIT)
        assert beta_enumeration(d, "1*1") == bm[1]
        assert beta_enumeration(d, "1*1*1") == bm[2]
        assert beta_enumeration(d, "1*1*1*1", partitions=support) == bm[3]


def test_structured_generator_equals_brute_force():
    for k in (1, 2, 3):
        word = "1" + "*1" * (k - 1)
        assert nc_omega_structured(k) == nc_omega(word)


def test_structured_limit_is_the_largest_k_whose_support_set_fits_the_ground_cap():
    # the support set of 1(*1)^(k-1) lies on 4k - 2 points
    assert STRUCTURED_LIMIT == 4
    assert 4 * STRUCTURED_LIMIT - 2 <= MAX_GROUND_SIZE < 4 * (STRUCTURED_LIMIT + 1) - 2


def test_structured_support_set_sizes_are_catalan():
    # 1, 5, 42, 429 partitions: C_{2k-1} for k = 1..4.
    for k in range(1, 5):
        assert len(nc_omega_structured(k)) == catalan(2 * k - 1)


def test_structured_generator_reuse_guard():
    d = Distribution.point_mass_one(6)
    parts = nc_omega_structured(2)
    assert beta_enumeration(d, "1*1", partitions=parts) == -1
    with pytest.raises(StructureError):
        beta_enumeration(d, "1*1*1", partitions=parts)


def test_omega_guards():
    with pytest.raises(SizeError, match=r"^word length 8 exceeds the limit BRUTE_LIMIT = 7$"):
        nc_omega("1*1*1*11")
    with pytest.raises(SizeError):
        nc_omega_structured(0)
    with pytest.raises(SizeError):
        nc_omega_structured(6)
    with pytest.raises(SizeError, match=r"^k 5 exceeds the limit STRUCTURED_LIMIT = 4$"):
        nc_omega_structured(5)


def test_sequence_guards():
    with pytest.raises(SizeError):
        alpha_sequence(SAMPLE, 0)
    with pytest.raises(SizeError):
        beta_mobius(SAMPLE, 0)
    with pytest.raises(InsufficientDataError):
        alpha_sequence(Distribution.point_mass_one(3), 2)


@pytest.mark.parametrize("sequence, needed", [(alpha_sequence, 14), (beta_mobius, 13)])
def test_sequence_refuses_short_data_before_any_sum(sequence, needed, monkeypatch):
    # alpha_7 reads kappa_1..kappa_14 and beta_7 kappa_1..kappa_13: data of
    # exactly that length reaches the sums, one entry less is refused first
    class Reached(Exception):
        pass

    def reached(*args):
        raise Reached

    monkeypatch.setattr(rdiag, "_weight_table", reached)
    monkeypatch.setattr(rdiag, "mixed_q_cumulant", reached)
    with pytest.raises(Reached):
        sequence(Distribution([1] * needed), 7)
    name = "alpha" if sequence is alpha_sequence else "beta"
    message = f"{name}_7 needs kappa_1..kappa_{needed}, but only {needed - 1} cumulants"
    with pytest.raises(InsufficientDataError, match=message):
        sequence(Distribution([1] * (needed - 1)), 7)


@pytest.mark.parametrize("sequence, needed", [(alpha_sequence, 6), (beta_mobius, 5)])
def test_sequence_runs_on_data_of_exactly_the_needed_length(sequence, needed):
    short = Distribution(SAMPLE.cumulants[:needed])
    assert sequence(short, 3) == sequence(SAMPLE, 3)
    with pytest.raises(InsufficientDataError):
        sequence(Distribution(SAMPLE.cumulants[:needed - 1]), 3)


@pytest.mark.parametrize("sequence", [alpha_sequence, beta_mobius])
def test_sequence_refuses_k_above_the_ground_cap_before_any_sum(sequence, monkeypatch):
    # k = MOBIUS_K_LIMIT still reaches the Moebius sum; one more is refused
    # before it starts, even with cumulants enough for 2 k_max entries
    class Reached(Exception):
        pass

    def table(n):
        raise Reached

    monkeypatch.setattr(rdiag, "_weight_table", table)
    d = Distribution([1] * 20)
    assert MOBIUS_K_LIMIT == MAX_GROUND_SIZE // 2 == 8
    with pytest.raises(Reached):
        sequence(d, MOBIUS_K_LIMIT)
    with pytest.raises(SizeError, match=r"^k_max 9 exceeds the limit MOBIUS_K_LIMIT = 8$"):
        sequence(d, MOBIUS_K_LIMIT + 1)
