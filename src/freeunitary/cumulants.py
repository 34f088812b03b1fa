"""Joint free cumulants of a free unitary flow and its adjoint.

The cumulant attached to a word w over {1, *} is a quasi-polynomial Z_w
whose y-powers (y = exp(-t/2)) all share the parity of |w| and stay within
[0, |w|]. Two computation paths are provided, and they share no code.  The
working route, which the library and the CLI read, is a concatenation
recursion (products as arguments at a wrap pair * | 1) that splits the
word after rotating it to start with 1 and end with *.  Of those rotations
it takes the least, which starts at the shortest run of 1s: every rotation
gives the same value, and this one visits far fewer states than the first
(226 against 783 for (1*)^15).  The oracle is the defining Moebius sum
over non-crossing partitions weighted by word moments, capped at Z_LIMIT
letters.

The recursion runs on integers: on K(w) = |w|! kappa(w), which lies in
Z[t, y], each K one flat row of qpoly, so that the cuts of a word are
one call of qpoly._row_products, the kernel that the xi and lambda
recursions share.  No denominator or gcd enters until the top word's row
is read back (_recursive_value gives the proof and the base; the memo
keeps one dict of plain rows per base).  Its states are integer keys
(_key), one bit per letter under a sentinel bit, so the two pieces of a
cut are a shift and a mask, and the least rotation and the canonical key
under rotation, reversal and swap are bit operations over the run starts
(_rotations, _canonical); canonical_word and the Moebius memo read the
same key.

The Moebius sum makes one pass over NC(|w|) that only adds integer
weights, grouped by the multiset of block excesses (ncpart.block_sum);
polynomial products are formed once per multiset (102 of them for the
alternating word of length 12, against 208 012 partitions).  The
per-partition sum is kept as a test oracle.  Grades 0 and 1 of the
cumulant, the stationary limit and the first-order coefficient of the
approach to it, also have closed forms in O(|w|) (moments.haar_limit,
moments.haar_derivative); the verify suites check them against the
recursion's grades.
"""

from __future__ import annotations

from math import comb, factorial
from typing import Union

from .errors import SizeError, check_at_most
from .moments import Letters, Word, ZPolynomial, as_word, biane_Q
from .ncpart import _weight_table, block_sum
from .qpoly import QuasiPoly, Row, _readback, _row_products, _sparse

Z_LIMIT = 12


def canonical_word(w: Union[Word, str]) -> Word:
    """Least representative of the orbit under rotation, reversal and swap.

    Words are ordered letter by letter with 1 before *.  That is the
    reverse of the order of their integer keys (_key), so the least
    representative is the word of the largest key, _canonical.
    """
    return Word.parse(bin(_canonical(_key(as_word(w).letters)))[3:].replace("0", "*"))


def _key(letters: Letters) -> int:
    """The integer key of ±1 letters: a leading sentinel 1, then one bit per
    letter, 1 for the letter 1, the first letter highest.  The prefix of m
    letters of key k of n letters is k >> (n - m), and the suffix of s
    letters is k & (1 << s) - 1 | 1 << s."""
    key = 1
    for l in letters:
        key = 2 * key + (l == 1)
    return key


def _rotations(v: int, n: int) -> list[int]:
    """The rotations of the n letter bits v (no sentinel) that start a run of
    1s, one per run.  Letter i sits at bit n - 1 - i, so the letter before
    the one at bit b is at bit b + 1 (at bit 0 for bit n - 1), and the
    rotation that starts at bit b is the n bits above bit b of v << n | v."""
    starts = v & ~(v >> 1 | (v & 1) << (n - 1))
    vv, mask, out = v << n | v, (1 << n) - 1, []
    while starts:
        b = starts.bit_length() - 1
        out.append(vv >> (b + 1) & mask)
        starts ^= 1 << b
    return out


def _canonical(key: int) -> int:
    """The key of canonical_word: the largest key in the orbit of the word.

    The largest rotation of a variant starts a run of 1s: one that starts
    k letters into the run is smaller than the one at its start, which has
    1 where it has * after the shorter run.  So only the rotations at run
    starts (those of _rotations, in its loop inlined with a running max,
    since every memo miss runs it) of the word, its swap (the bits
    flipped), its reversal and the swap of that are compared.  The
    all-ones word has no run start; it is its own key and that of the
    all-stars word.
    """
    n = key.bit_length() - 1
    mask = (1 << n) - 1
    v, r = key & mask, int(bin(key)[:2:-1], 2)
    best = 0
    for x in (v, v ^ mask, r, r ^ mask):
        starts = x & ~(x >> 1 | (x & 1) << (n - 1))
        xx = x << n | x
        while starts:
            b = starts.bit_length() - 1
            c = xx >> (b + 1) & mask
            if c > best:
                best = c
            starts ^= 1 << b
    return (best or mask) | 1 << n


def _mobius_value(letters: Letters) -> QuasiPoly:
    """Raw Moebius-sum evaluation, no canonicalization or caching.

    A block contributes the moment Q_d y^d of its letter excess d, and a
    block of excess 0 the factor 1, which its falsy key 0 stands for.  So a
    partition's term depends only on the multiset of its nonzero block
    excesses, and ncpart.block_sum forms one product per multiset.
    """
    return block_sum(
        _weight_table(len(letters)),
        lambda blk: abs(sum(letters[i - 1] for i in blk)),
        lambda d: QuasiPoly({-d: biane_Q(d)}),
    )


_MOBIUS_MEMO: dict[int, QuasiPoly] = {}  # _canonical key -> value on the orbit
_RECURSIVE_MEMO: dict[int, dict[int, Row]] = {}  # base B -> {_key: row}


def z_mobius(w: Union[Word, str]) -> ZPolynomial:
    """Cumulant of the word via the Moebius sum over NC(|w|), on the letters
    as given: the value is invariant on the orbit that keys the memo."""
    word = as_word(w)
    check_at_most("Moebius word length", word.n, "Z_LIMIT", Z_LIMIT)
    key = _canonical(_key(word.letters))
    val = _MOBIUS_MEMO.get(key)
    if val is None:
        val = _MOBIUS_MEMO[key] = _mobius_value(word.letters)
    return ZPolynomial(word, val)


def z_recursive(w: Union[Word, str]) -> ZPolynomial:
    """Cumulant of the word via the concatenation recursion."""
    word = as_word(w)
    return ZPolynomial(word, _recursive_value(word.letters))


def _recursive_value(letters: Letters) -> QuasiPoly:
    """Cumulant of the letters by the concatenation recursion, memoised.

    The recursion (_scaled_row) runs on K(w) = |w|! kappa(w).  Multiplying
    kappa(w) = -sum_m kappa(w[:m]) kappa(w[m:]) by |w|! gives
    K(w) = -sum_m C(|w|, m) K(w[:m]) K(w[m:]), and the leaves are integral:
    n! diag_cumulant(n) = (-n)^(n-1) t^(n-1) y^n and 2! kappa(1*) =
    2 - 2y^2.  So by induction every K lies in Z[t, y].

    Its y-powers are |w| - 2j, 0 <= j <= |w|/2, and its t-degree is below
    |w|: grade j of its flat row is y^(|w|-2j).  Each call sets the base B
    to the least power of two at or above |w|, and at least 16; no piece of
    the word is longer, so the t-powers of a product stay below B.  Each
    base has its own dict of rows in _RECURSIVE_MEMO, probed here with the
    key as given.  The row is read back over |w|!.  A word whose recursion
    passes Python's depth limit is refused with SizeError.
    """
    n = len(letters)
    base = max(16, 1 << (n - 1).bit_length())
    memo, key = _RECURSIVE_MEMO.setdefault(base, {}), _key(letters)
    try:
        row = memo.get(key) or _scaled_row(key, base, memo)
    except RecursionError:
        raise SizeError(f"word length {n} needs a recursion deeper than Python's limit") from None
    return _readback(row, base, factorial(n), -n, 2, lambda j: n, f"kappa({Word(letters)})")


def _scaled_row(key: int, base: int, memo: dict[int, Row]) -> Row:
    """The row of K(w) = |w|! kappa(w) in base B, memoised in memo, the dict
    of that base (see _recursive_value); key is the word's _key, which the
    caller has probed.

    The word is cut at the least of its rotations that start with 1 and
    end with * (the least key, so at the shortest run of 1s).  Any such
    rotation gives the same value.  The least one depends only on the
    cyclic word, not on where the given letters start, and its prefixes
    and suffixes recur among the pieces: random 14-16-letter words with 8
    switches reach about 85 states instead of 137 at the first boundary,
    and random 30-letter words an eighth of the memo entries.  The largest
    such rotation gives fewer states on (1*)^k but more on random words
    (about 93 on that family).

    The memo is probed with the key of the least cut rotation, which a miss
    needs anyway to cut, and only then with the canonical key; a row found
    or computed is stored under both and under the key as given.  The
    rotation key catches most pieces whose orbit is stored under another
    key without a call of _canonical.  The cumulant is invariant under
    rotation, reversal and swap, so each alias is exact; the memo counts
    entries, not orbits.  The caller probes each piece of a cut with its
    key as given, inline, and calls this only on a miss (or on an empty
    row, a zero cumulant, which the rotation probe then finds).
    """
    n = key.bit_length() - 1
    # the least rotation that starts with 1 and ends with *; the all-ones
    # and all-stars words have none and are their own rotation key
    rots = _rotations(key ^ 1 << n, n)
    rot = min(rots) | 1 << n if rots else key
    row = memo.get(rot)
    if row is None:
        canon = _canonical(key)
        row = memo.get(canon)
    if row is None:
        if canon & 1:  # only the all-ones key ends with 1
            row = ((n - 1, (-n) ** (n - 1)),)
        elif n == 2:
            row = ((0, -2), (base, 2))  # 2! (1 - y^2)
        else:
            # the least cut rotation, cut into a prefix of n - s letters and
            # a suffix of s: two pieces in one orbit share one memo row, a
            # square of the kernel
            cuts = []
            for s in range(n - 1, 0, -1):
                head, tail = rot >> s, rot & (1 << s) - 1 | 1 << s
                cuts.append((memo.get(head) or _scaled_row(head, base, memo),
                             memo.get(tail) or _scaled_row(tail, base, memo), -comb(n, s)))
            row = _sparse(_row_products(cuts, (n // 2) * base + n))
        memo[canon] = row
    memo[rot] = memo[key] = row
    return row
