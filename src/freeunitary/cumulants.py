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
is read back (_recursive_value gives the proof and the base).

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
from operator import neg
from typing import Union

from .errors import Frozen, SizeError, StructureError
from .moments import Letters, Word, as_word, biane_Q, switch_number
from .qpoly import Poly, QuasiPoly, Row, _readback, _row_products, _sparse

Z_LIMIT = 12


class ZPolynomial(Frozen):
    """A word together with its cumulant quasi-polynomial.

    The constructor enforces the structural facts shared by both
    computation paths: only nonpositive half-exponents appear, y-powers
    lie in [0, |w|], and they all have the parity of |w|. Theorem-level
    statements (vanishing above the switch bound, constant low grades)
    are deliberately left to tests and verify suites.
    """

    __slots__ = ("word", "value")

    def __init__(self, word: Union[Word, str], value: QuasiPoly):
        w = as_word(word)
        n = w.n
        for e2 in value.exp2_values():
            m = -e2
            if e2 > 0 or m > n or (m - n) % 2 != 0:
                raise StructureError(
                    f"term y^{m} impossible for a word of length {n}"
                )
        object.__setattr__(self, "word", w)
        object.__setattr__(self, "value", value)

    def grade(self, m: int) -> Poly:
        return self.value.grade(m)

    def switch_bound_holds(self) -> bool:
        """Whether grade(n - 2j) vanishes whenever 2j exceeds the switch number."""
        n = self.word.n
        s = switch_number(self.word)
        for j in range(0, n + 1):
            if 2 * j > s and not self.value.grade(n - 2 * j).is_zero:
                return False
        return True

    def __repr__(self):
        return f"ZPolynomial({str(self.word)!r}, {self.value!r})"

    def __str__(self):
        return self.value.to_text()


def canonical_word(w: Union[Word, str]) -> Word:
    """Least representative of the orbit under rotation, reversal and swap.

    Words are ordered letter by letter with 1 before *.  On the stored
    letters (+1 before -1) that is the reverse of tuple order, so the least
    representative is the largest letter tuple among the rotations of the
    four variants.
    """
    return Word(_canonical(as_word(w).letters))


def _canonical(letters: Letters) -> Letters:
    """The letters of canonical_word, computed on the letter tuple.

    The largest rotation of a variant starts a run of 1s: one that starts
    k letters into the run is smaller than the one at its start, which has
    1 where it has -1 after the shorter run.  So only the run starts are
    compared, found in one pass over the given letters: a run of 1s is one
    of -1s in the swap, and a run that ends at r - 1 starts at n - r in
    the reversal.  The all-ones word is its own key and that of the
    all-stars word.
    """
    n = len(letters)
    d = letters + letters
    sw = tuple(map(neg, d))
    rd, rs = d[::-1], sw[::-1]
    best = ()
    prev = letters[-1]
    for r, l in enumerate(letters):
        if l == prev:
            continue
        prev = l
        # a run of 1s (of -1s) of the letters starts at r, and one of -1s
        # (of 1s) ends at r - 1
        if l == 1:
            a, b = d[r : r + n], rs[n - r : 2 * n - r]
        else:
            a, b = sw[r : r + n], rd[n - r : 2 * n - r]
        if a > best:
            best = a
        if b > best:
            best = b
    return best or (1,) * n


def _mobius_value(letters: Letters) -> QuasiPoly:
    """Raw Moebius-sum evaluation, no canonicalization or caching.

    A block contributes the moment Q_d y^d of its letter excess d, and a
    block of excess 0 the factor 1, which its falsy key 0 stands for.  So a
    partition's term depends only on the multiset of its nonzero block
    excesses, and ncpart.block_sum forms one product per multiset.
    """
    from .ncpart import _weight_table, block_sum

    return block_sum(
        _weight_table(len(letters)),
        lambda blk: abs(sum(letters[i - 1] for i in blk)),
        lambda d: QuasiPoly({-d: biane_Q(d)}),
    )


_MOBIUS_MEMO: dict[Letters, QuasiPoly] = {}
_RECURSIVE_MEMO: dict[Letters, tuple[int, Row]] = {}  # letters -> (base B, row)


def z_mobius(w: Union[Word, str]) -> ZPolynomial:
    """Cumulant of the word via the Moebius sum over NC(|w|)."""
    word = as_word(w)
    if word.n > Z_LIMIT:
        raise SizeError(f"word length {word.n} exceeds the Moebius limit Z_LIMIT = {Z_LIMIT}")
    key = canonical_word(word).letters
    val = _MOBIUS_MEMO.get(key)
    if val is None:
        val = _mobius_value(key)
        _MOBIUS_MEMO[key] = val
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
    the word is longer, so the t-powers of a product stay below B.  The row
    is read back over |w|!.  A word whose recursion passes Python's depth
    limit is refused with SizeError.
    """
    n = len(letters)
    base = max(16, 1 << (n - 1).bit_length())
    try:
        row = _scaled_row(letters, base)
    except RecursionError:
        raise SizeError(f"word length {n} needs a recursion deeper than Python's limit") from None
    return _readback(row, base, factorial(n), -n, 2, lambda j: n, f"kappa({Word(letters)})")


def _scaled_row(letters: Letters, base: int) -> Row:
    """The row of K(w) = |w|! kappa(w) in base B, memoised (see _recursive_value).

    The letters are cut at the least of their rotations that start with 1
    and end with * (+1 > -1, so at the shortest run of 1s).  Any such
    rotation gives the same value.  The least one depends only on the
    cyclic word, not on where the given letters start, and its prefixes
    and suffixes recur among the pieces: random 14-16-letter words with 8
    switches reach about 85 states instead of 137 at the first boundary,
    and random 30-letter words an eighth of the memo entries.  The largest
    such rotation gives fewer states on (1*)^k but more on random words
    (about 93 on that family).

    The memo is probed with the letters as given before they are
    canonicalised, and a row found or computed under the canonical key is
    stored under the given letters too.  The cumulant is invariant under
    rotation, reversal and swap, so the alias is exact; the memo counts
    entries, not orbits.  A row stored in another base b is re-based, not
    recomputed: its t-degree is below |w|, which is at most both bases, so
    index p moves to (p // b) B + p % b.  The re-based row is stored under
    both keys, so two pieces in one orbit still share one row.
    """
    hit = _RECURSIVE_MEMO.get(letters, (0, ()))
    if hit[0] == base:
        return hit[1]
    key = _canonical(letters)
    hit = _RECURSIVE_MEMO.get(key, hit)
    if hit[0] == base:
        _RECURSIVE_MEMO[letters] = hit
        return hit[1]
    n = len(letters)
    if hit[0]:  # stored in another base b, re-based as above
        b = hit[0]
        row = tuple([((p // b) * base + p % b, v) for p, v in hit[1]])
    elif key[-1] == 1:  # only the all-ones key ends with 1
        row = ((n - 1, (-n) ** (n - 1)),)
    elif n == 2:
        row = ((0, -2), (base, 2))  # 2! (1 - y^2)
    else:
        # the least rotation that starts with 1 and ends with *
        rot = min(
            letters[i + 1 :] + letters[: i + 1]
            for i in range(n)
            if letters[i] == -1 and letters[(i + 1) % n] == 1
        )
        # two pieces in one orbit share one memo row, a square of the kernel
        cuts = [
            (_scaled_row(rot[:m], base), _scaled_row(rot[m:], base), -comb(n, m))
            for m in range(1, n)
        ]
        row = _sparse(_row_products(cuts, (n // 2) * base + n))
    _RECURSIVE_MEMO[key] = _RECURSIVE_MEMO[letters] = (base, row)
    return row
