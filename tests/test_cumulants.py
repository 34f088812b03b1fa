"""Unit tests for the word-cumulant quasi-polynomials."""

import itertools
import random
import re
from fractions import Fraction

import pytest

from freeunitary import (
    Poly,
    QuasiPoly,
    SizeError,
    StructureError,
    Word,
    ZPolynomial,
    canonical_word,
    catalan,
    enumerate_nc,
    haar_cumulant,
    m_poly,
    suffix_star_cumulant,
    switch_number,
    z_mobius,
    z_recursive,
)
from freeunitary.cumulants import Z_LIMIT, _canonical, _key, _mobius_value, _rotations, _slot_width
from freeunitary.moments import diag_cumulant
from freeunitary.qpoly import _slots
from oracles import (
    canonical_letters,
    first_boundary_value,
    least_cut_rotation,
    mobius_value,
    reverse,
    rotate,
    subword,
    swap,
)

# Frozen example table: the six low-order cumulants listed explicitly.
FROZEN_Z = {
    "1*": QuasiPoly({0: 1, -2: -1}),
    "11*": QuasiPoly({-1: -1, -3: Poly((1, 1))}),
    "111*": QuasiPoly({-2: Poly((1, 1)), -4: Poly((-1, -2, Fraction(-3, 2)))}),
    "11**": QuasiPoly({-2: 2, -4: Poly((-2, -2, -1))}),
    "1*1*": QuasiPoly({0: -1, -2: 4, -4: Poly((-3, -2))}),
    "1*1": QuasiPoly({-1: -1, -3: Poly((1, 1))}),
}


def _all_words(n):
    for bits in range(2 ** n):
        yield Word(tuple(1 if (bits >> i) & 1 else -1 for i in range(n)))


def _word_of(key):
    """The word of an integer memo key (cumulants._key)."""
    return Word(tuple(1 if c == "1" else -1 for c in bin(key)[3:]))


@pytest.mark.parametrize("text,want", sorted(FROZEN_Z.items()))
def test_frozen_example_table(text, want):
    assert z_mobius(text).value == want
    assert z_recursive(text).value == want


def test_single_letters():
    assert z_mobius("1").value == QuasiPoly({-1: 1})
    assert z_mobius("*").value == QuasiPoly({-1: 1})


@pytest.mark.parametrize("n", range(1, 7))
def test_two_paths_agree(n):
    for w in _all_words(n):
        assert z_mobius(w).value == z_recursive(w).value


@pytest.mark.parametrize("n", range(1, 8))
def test_mobius_value_is_rotation_invariant(n):
    for bits in range(0, 2 ** n, 3):
        w = Word(tuple(1 if (bits >> i) & 1 else -1 for i in range(n)))
        base = _mobius_value(w.letters)
        for r in range(1, n):
            assert _mobius_value(rotate(w, r).letters) == base
        assert _mobius_value(reverse(w).letters) == base
        assert _mobius_value(swap(w).letters) == base


@pytest.mark.parametrize("n", range(1, 10))
def test_grouped_mobius_sum_matches_per_partition_oracle(n):
    # every word up to length 7 as given; at lengths 8 and 9 one word per
    # orbit, its canonical word
    words = {w.letters for w in _all_words(n)}
    if n > 7:
        words = {canonical_word(Word(w)).letters for w in words}
    for letters in sorted(words):
        assert _mobius_value(letters) == mobius_value(letters)


def test_mobius_memo_keys_an_orbit_by_its_canonical_integer(monkeypatch):
    # every rotation, reversal and swap of a word makes one Moebius sum, on
    # the letters first given, under the orbit's canonical key
    from freeunitary import cumulants

    rng = random.Random(20142)
    w = Word(tuple(rng.choice((1, -1)) for _ in range(10)))
    variants = [rotate(v, r) for v in (w, reverse(w), swap(w), reverse(swap(w))) for r in range(10)]
    calls = []

    def counted(letters):
        calls.append(letters)
        return _mobius_value(letters)

    memo = {}
    monkeypatch.setattr(cumulants, "_MOBIUS_MEMO", memo)
    monkeypatch.setattr(cumulants, "_mobius_value", counted)
    want = z_recursive(w).value
    for v in variants:
        assert z_mobius(v).value == want
    assert calls == [w.letters]
    assert list(memo) == [_canonical(_key(w.letters))]


def test_mobius_value_forms_one_product_per_multiset_of_nonzero_excesses(monkeypatch):
    # Blocks of excess 0 contribute the factor 1, so on (1*)^6 the 102
    # multisets of block excesses collapse to 46 of nonzero excesses (one
    # of them empty) before any product is formed.
    from freeunitary import ncpart

    starts = []
    real = ncpart.prod

    def counting(factors, start):
        starts.append(start)
        return real(factors, start=start)

    monkeypatch.setattr(ncpart, "prod", counting)
    assert _mobius_value((1, -1) * 6) == z_recursive("1*" * 6).value
    assert len(starts) == 46


def test_canonical_word_stays_in_orbit():
    w = Word.parse("11*1*")
    canon = canonical_word(w)
    orbit = set()
    for variant in (w, reverse(w), swap(w), reverse(swap(w))):
        for r in range(w.n):
            orbit.add(rotate(variant, r))
    assert canon in orbit
    for other in orbit:
        assert canonical_word(other) == canon


def _canonical_word_by_key(letters):
    """The orbit representative as first defined: the least 0/1 key, 1 -> 0."""
    n = len(letters)

    def key(cand):
        return tuple(0 if l == 1 else 1 for l in cand)

    best = None
    for variant in (
        letters,
        letters[::-1],
        tuple(-l for l in letters),
        tuple(-l for l in letters[::-1]),
    ):
        for r in range(n):
            cand = variant[r:] + variant[:r]
            if best is None or key(cand) < key(best):
                best = cand
    return best


def test_canonical_word_matches_key_oracle_up_to_length_12():
    # the memo keys of z_mobius and z_recursive are these representatives
    for n in range(1, 13):
        for letters in itertools.product((1, -1), repeat=n):
            assert canonical_word(Word(letters)).letters == _canonical_word_by_key(letters)


def _check_integer_key(letters):
    n, key = len(letters), _key(letters)
    assert _word_of(key).letters == letters
    assert _canonical(key) == _key(canonical_letters(letters))
    if len(set(letters)) == 2:
        assert min(_rotations(key ^ 1 << n, n)) | 1 << n == _key(least_cut_rotation(letters))


def test_integer_key_matches_the_tuple_oracle():
    # every word of up to 12 letters, then seeded words of 13 to 130 letters
    # with the constant words and the lengths at a sentinel or row-base bit
    for n in range(1, 13):
        for letters in itertools.product((1, -1), repeat=n):
            _check_integer_key(letters)
    rng = random.Random(20142)
    for n in sorted({*range(13, 131, 7), 63, 64, 65, 127, 128, 129, 130}):
        _check_integer_key((1,) * n)
        _check_integer_key((-1,) * n)
        for _ in range(6):
            _check_integer_key(tuple(rng.choice((1, -1)) for _ in range(n)))


def test_switch_number_counts_cyclically():
    assert switch_number("11") == 0
    assert switch_number("1*") == 2
    assert switch_number("1*1") == 2
    assert switch_number("1*1*") == 4
    assert switch_number("11*1") == 2
    w = Word.parse("11*1*")
    for r in range(w.n):
        assert switch_number(rotate(w, r)) == switch_number(w)


def test_haar_cumulant_closed_form():
    for k in range(1, 6):
        word = "1*" * k
        assert haar_cumulant(word) == (-1) ** (k - 1) * catalan(k - 1)
        assert haar_cumulant(word[:-1]) == 0
    assert haar_cumulant("11**") == 0
    assert haar_cumulant("11") == 0


@pytest.mark.parametrize("n", range(1, 8))
def test_value_at_zero_is_kronecker(n):
    # at t = 0 the unitary is the identity, whose cumulants vanish past order 1
    want = Fraction(1 if n == 1 else 0)
    for w in _all_words(n):
        assert z_mobius(w).value.value_at_zero() == want


@pytest.mark.parametrize("n", range(1, 7))
def test_stationary_constant_matches_haar(n):
    for w in _all_words(n):
        p = z_mobius(w).grade(0)
        assert p.degree <= 0
        assert p.leading() == haar_cumulant(w)


@pytest.mark.parametrize("n", range(1, 7))
def test_switch_bound_all_small_words(n):
    for w in _all_words(n):
        assert z_mobius(w).switch_bound_holds()


def test_all_ones_word_is_the_diagonal_cumulant():
    for n in range(1, 9):
        assert z_mobius("1" * n).value == diag_cumulant(n)


@pytest.mark.parametrize("n", range(1, 6))
def test_moment_cumulant_formula(n):
    # resumming cumulants over the lattice must reproduce the moments
    for w in _all_words(n):
        total = QuasiPoly()
        for p in enumerate_nc(n):
            term = QuasiPoly.constant(1)
            for block in p.blocks:
                term = term * z_mobius(subword(w, block)).value
            total = total + term
        assert total == m_poly(w)


def test_size_guard():
    with pytest.raises(SizeError):
        z_mobius("1*" * 7)


def test_recursion_never_reaches_the_nc_lattice(monkeypatch):
    # the two routes that z-two-path compares must share no code; the
    # oracle reads the lattice from ncpart when it runs
    from freeunitary import cumulants, ncpart

    words = [w for n in range(1, 9) for w in _all_words(n)]
    want = {w: z_mobius(w).value for w in words}

    def lattice(*args):
        raise AssertionError("the recursion reached the NC lattice")

    monkeypatch.setattr(cumulants, "_RECURSIVE_MEMO", {})
    monkeypatch.setattr(cumulants, "_mobius_value", lattice)
    monkeypatch.setattr(ncpart, "_weight_table", lattice)
    for w in words:
        assert z_recursive(w).value == want[w]


# PACK_SWITCHES values that force each layout of the word recursion's
# rows on every word that is not constant
LAYOUTS = {"flat": 0, "packed": 1 << 30}


def _in_layout(monkeypatch, layout, words):
    """The values of z_recursive on the words with their rows in the given
    layout, from one fresh memo."""
    from freeunitary import cumulants

    monkeypatch.setattr(cumulants, "PACK_SWITCHES", LAYOUTS[layout])
    monkeypatch.setattr(cumulants, "_RECURSIVE_MEMO", {})
    return [z_recursive(w).value for w in words]


def test_recursive_memo_aliases_are_exact(monkeypatch):
    # the recursion probes its memo with the key of the letters as given and
    # stores each value under it as well as under the canonical key; words
    # of 9 to 14 letters all keep their rows in the dict of bucket 16, in
    # either layout
    from freeunitary import cumulants

    for layout in LAYOUTS:
        monkeypatch.setattr(cumulants, "PACK_SWITCHES", LAYOUTS[layout])
        rng = random.Random(20140)
        for n in range(9, 15):
            w = Word(tuple(rng.choice((1, -1)) for _ in range(n)))
            variants = [rotate(w, r) for r in range(1, n)] + [reverse(w), swap(w)]
            rng.shuffle(variants)
            memo = {}
            monkeypatch.setattr(cumulants, "_RECURSIVE_MEMO", memo)
            want = z_recursive(w).value
            for v in variants:
                assert z_recursive(v).value == want
                assert _key(v.letters) in memo[layout, 16]
            assert list(memo) == [(layout, 16)]
            for key, row in list(memo[layout, 16].items()):
                if layout == "packed" and _canonical(key) & 1:
                    continue  # a constant word alone has flat rows
                fresh = {}
                monkeypatch.setattr(cumulants, "_RECURSIVE_MEMO", fresh)
                z_recursive(_word_of(key))
                assert fresh[layout, 16][key] == row


def test_least_rotation_cut_matches_the_first_boundary_oracle(monkeypatch):
    # past Z_LIMIT the recursion, in either layout, is checked against
    # itself cut at the first wrap pair, every rotation giving the same value
    rng = random.Random(20141)
    words = [tuple(rng.choice((1, -1)) for _ in range(n)) for n in range(13, 19) for _ in range(4)]
    words += [Word.parse("1*" * 9).letters, Word.parse("1*" * 8 + "1").letters]
    memo = {}
    want = [first_boundary_value(w, memo) for w in words]
    for layout in LAYOUTS:
        assert _in_layout(monkeypatch, layout, map(Word, words)) == want


def test_long_suffix_star_words_match_the_laplace_closed_form(monkeypatch):
    # two-run words keep flat rows, in bases past the smallest, 16, up to 128
    from freeunitary import cumulants

    memo = {}
    monkeypatch.setattr(cumulants, "_RECURSIVE_MEMO", memo)
    for k in (15, 16, 40, 63, 64, 65, 100):
        assert z_recursive("1" * k + "*").value == suffix_star_cumulant(k)
    assert sorted(memo) == [("flat", 16), ("flat", 32), ("flat", 64), ("flat", 128)]
    assert _key(Word.parse("1" * 100 + "*").letters) in memo["flat", 128]


def test_each_word_lays_its_rows_out_in_its_own_base(monkeypatch):
    # after 1^100 *, whose rows are flat in base 128, a 16-letter word with
    # 12 switches has the same value and fills only the dict of its packed
    # bucket, 16, as it does alone, though some of its states are in the
    # dict of base 128
    from freeunitary import cumulants

    short = "11*1**1*1*11**1*"
    alone = {}
    monkeypatch.setattr(cumulants, "_RECURSIVE_MEMO", alone)
    want = z_recursive(short).value
    memo = {}
    monkeypatch.setattr(cumulants, "_RECURSIVE_MEMO", memo)
    z_recursive("1" * 100 + "*")
    long_rows = dict(memo["flat", 128])
    assert list(memo) == [("flat", 128)] and alone["packed", 16].keys() & long_rows.keys()
    assert z_recursive(short).value == want
    assert sorted(memo) == [("flat", 128), ("packed", 16)]
    assert memo["packed", 16] == alone["packed", 16] and memo["flat", 128] == long_rows


def test_readback_refuses_a_row_outside_the_word_layout(monkeypatch):
    # a t-power |w| does not fit the row of K(w), whose t-degree is below |w|:
    # 2 + t^3 at y^3, flat in base 16 or in one packed grade
    from freeunitary import cumulants

    monkeypatch.setattr(cumulants, "_scaled_row", lambda key, base, slot, memo:
                        ((0, 2 + (1 << 3 * slot)),) if slot else ((0, 2), (3, 1)))
    for layout in LAYOUTS:
        monkeypatch.setattr(cumulants, "PACK_SWITCHES", LAYOUTS[layout])
        monkeypatch.setattr(cumulants, "_RECURSIVE_MEMO", {})
        with pytest.raises(StructureError, match=re.escape("kappa(1*1) carries t-degree 3 at exp2=-3")):
            z_recursive("1*1")
        assert list(cumulants._RECURSIVE_MEMO) == [(layout, 16)]


@pytest.mark.parametrize("slot", [74, 126, 183, 242])
def test_signed_slots_round_trip(slot):
    # each slot holds a coefficient in [-2^(W-1), 2^(W-1)); a borrow from a
    # negative slot below must not leak into the one above
    top = (1 << slot - 1) - 1
    for coeffs in ([top], [-top], [0, top], [-top, 0, 0, top], [top, -top, -1, 1, 0, -top],
                   [-(1 << slot - 1), 1], [1, -1] * 20, [5, 0, -top, 0, 0, 7]):
        packed = sum(c << slot * i for i, c in enumerate(coeffs))
        assert _slots(packed, slot) == coeffs
    assert _slots(0, slot) == []


def test_the_slot_width_bounds_every_coefficient(monkeypatch):
    # W is pinned per bucket, so that it cannot grow unnoticed, and its
    # bound F(n) < 2^(W(n)-2) covers the coefficients of K(w) on every word
    # of up to 12 letters (read off the flat rows, one coefficient an entry)
    # and on 1^m, (-m)^(m-1) t^(m-1) y^m, at each bucket's largest m
    from freeunitary import cumulants

    assert [_slot_width(m) for m in (16, 24, 32, 40)] == [74, 126, 183, 242]
    for m in range(16, 129, 8):
        assert m ** (m - 1) < 1 << _slot_width(m) - 2
    monkeypatch.setattr(cumulants, "PACK_SWITCHES", LAYOUTS["flat"])
    memo = {}
    monkeypatch.setattr(cumulants, "_RECURSIVE_MEMO", memo)
    for n in range(1, 13):
        for w in _all_words(n):
            z_recursive(w)
    (rows,) = memo.values()
    assert len({key.bit_length() for key in rows}) == 12
    for key, row in rows.items():
        bound = 1 << _slot_width(key.bit_length() - 1) - 2
        assert all(abs(c) < bound for _, c in row)


def test_packed_and_flat_rows_give_the_same_values(monkeypatch):
    # every word of up to 12 letters, seeded words of 13 to 30 letters, and
    # words on both sides of the layout rule, 8 s > n
    from freeunitary import cumulants

    words = [w for n in range(1, 13) for w in _all_words(n)]
    rng = random.Random(20143)
    words += [Word(tuple(rng.choice((1, -1)) for _ in range(n))) for n in range(13, 31, 3)]
    words += [Word.parse(w) for w in ("1" * 12 + "*" * 12, "111111******111111******",
                                      "1" * 20 + "*1*1*" + "*" * 10, "1" * 60 + "*1*")]
    sides = {switch_number(w) * cumulants.PACK_SWITCHES > w.n for w in words[-4:]}
    assert sides == {False, True}
    flat = _in_layout(monkeypatch, "flat", words)
    assert _in_layout(monkeypatch, "packed", words) == flat
    monkeypatch.undo()
    assert [z_recursive(w).value for w in words[-4:]] == flat[-4:]


@pytest.mark.parametrize(
    "text, most, exact",
    # at the first-boundary cut these took 783, 633 and 58 states
    [("1*" * 15, 226, False), ("1*" * 12 + "1", 168, False), ("1" * 29 + "*", 58, True)],
)
def test_least_rotation_cut_bounds_the_states(text, most, exact, monkeypatch):
    # states and memo entries (up to three aliases a state) in the one dict
    # of the word's layout and bucket, 32: packed for the first two, flat
    # for the last
    from freeunitary import cumulants

    entries = {"1*" * 15: 760, "1*" * 12 + "1": 585, "1" * 29 + "*": 59}[text]
    memo = {}
    monkeypatch.setattr(cumulants, "_RECURSIVE_MEMO", memo)
    z_recursive(text)
    (rows,) = memo.values()
    states = len({_canonical(key) for key in rows})
    if exact:
        assert (states, len(rows)) == (most, entries)
    else:
        assert states <= most and len(rows) <= entries


def test_zpolynomial_rejects_bad_shapes():
    with pytest.raises(StructureError):
        ZPolynomial("1*", QuasiPoly({-1: 1}))
    with pytest.raises(StructureError):
        ZPolynomial("1*", QuasiPoly({2: 1}))
    with pytest.raises(StructureError):
        ZPolynomial("1*", QuasiPoly({-4: 1}))


def test_zpolynomial_str_and_grade():
    z = z_mobius("1*1*")
    assert str(z) == "-1 + 4y^2 - (2x+3)y^4"
    assert z.grade(4) == Poly((-3, -2))
