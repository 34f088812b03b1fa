"""Reference routines that only the tests use.

The order, join and restriction of NC(n) cross-check the Kreweras
complement and the Moebius values of freeunitary.ncpart; the subword at a
block's positions resums word cumulants into moments; rotation, reversal
and swap move a word within the orbit its cumulant is invariant on; the
character scanner is the reference for the token table of Word.parse; the
Kreweras complement by pair linkage is the reference for its permutation form; the
orbit representative and the least cut rotation on letter tuples are the
references for cumulants._canonical and cumulants._rotations on integer
keys; the Lambert W series is the reference for moments.diag_cumulant; the Moebius
sum with one polynomial product per partition is the reference for the
grouped sum of cumulants._mobius_value; the concatenation recursion cut
at the first wrap pair is the reference for the least-rotation cut of
cumulants._recursive_value on words past the Moebius cap; the
support-set filter over all of NC(2n) is the reference for
rdiag.nc_omega, which filters only block-pure partitions; the
products-as-arguments sum over NC(n), filtered by connectivity with the
interval grouping, is the reference for rdiag.mixed_q_cumulant, which
sums moments over NC(r); one-variable series, with no lattice, are the
reference for rdiag.alpha_sequence and rdiag.beta_mobius; the
non-crossing members of all set partitions, by a pairwise interleaving
test, are the reference for the lattice enumeration, and share no code
with its recursion or with the Kreweras count that validates NCPartition.  The
quadrature of the finite-interval integral checks the Laplace route
numerically, and the same Laplace rule on Fraction coefficients, through
the rational Poly constructor, is the reference for the integer closed
form of laplace; quasipoly_from_json reads back the JSON the CLI prints.
The triangular solve against the expansion of chi, through a table of
the powers of L, is the reference for "L inverts the chi expansion":
alternating.lambda_series reads L off the ODE recursion instead.  The
definition of chi as one triangular series division is the reference
for the closed sum of alternating.chi_expansion.  The package's series
type, alternating.TruncSeries1, has no arithmetic, so these form their
series products on coefficient lists with _series_mul, the same helper
as the moment series above, or by sum_of_products.  The text, LaTeX
and JSON renderers over the Fraction view Poly.coeffs are the references
for the renderers of qpoly, which read the integer numerators and
denominator; and Q_n and the diagonal cumulant by their Fraction formulas
are the references for moments.biane_Q and moments.diag_cumulant, built
on integers.
Nothing in the package needs them.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from collections.abc import Mapping
from fractions import Fraction
from typing import Iterable, Sequence

import mpmath

from freeunitary.alternating import TruncSeries1, chi_expansion
from freeunitary.errors import SizeError, StructureError
from freeunitary.moments import Word, biane_Q
from freeunitary.ncpart import (
    Blocks,
    NCPartition,
    _weight_table,
    enumerate_nc,
)
from freeunitary.laplace import _check_kl
from freeunitary.qpoly import POLY_ONE, Poly, QuasiPoly, _factor_text, _x_power, sum_of_products
from freeunitary.rdiag import _connects, _omega_failure, u_indices


def is_noncrossing(blocks: Iterable[Iterable[int]]) -> bool:
    """Whether the given partition of {1, ..., n} is non-crossing: no two
    of its blocks interleave.

    The blocks must form a partition of {1, ..., n} where n is the total
    number of elements; anything else raises StructureError.
    """
    norm = [tuple(sorted(b)) for b in blocks]
    n = sum(map(len, norm))
    if not all(norm) or sorted(e for b in norm for e in b) != list(range(1, n + 1)):
        raise StructureError(f"not a partition of 1..{n}: {norm}")
    return not any(_interleaved(a, b) for i, a in enumerate(norm) for b in norm[i + 1 :])


def _require_same_n(p: NCPartition, r: NCPartition) -> int:
    if p.n != r.n:
        raise StructureError(f"mismatched ground sizes {p.n} and {r.n}")
    return p.n


def leq(p: NCPartition, r: NCPartition) -> bool:
    """Reverse refinement order: p <= r iff every block of p sits inside a block of r."""
    n = _require_same_n(p, r)
    rid = [0] * (n + 1)
    for idx, blk in enumerate(r.blocks):
        for e in blk:
            rid[e] = idx
    for blk in p.blocks:
        target = rid[blk[0]]
        for e in blk[1:]:
            if rid[e] != target:
                return False
    return True


def _interleaved(a: tuple[int, ...], b: tuple[int, ...]) -> bool:
    # two disjoint sorted tuples cross iff their merge switches origin >= 3 times
    i = j = switches = 0
    last = -1
    while i < len(a) or j < len(b):
        if j >= len(b) or (i < len(a) and a[i] < b[j]):
            cur = 0
            i += 1
        else:
            cur = 1
            j += 1
        if cur != last:
            if last != -1:
                switches += 1
                if switches >= 3:
                    return True
            last = cur
    return False


def join(p: NCPartition, r: NCPartition) -> NCPartition:
    """Least upper bound of p and r in NC(n).

    Computed as the set-partition join (overlap closure) followed by
    repeated merging of interleaved blocks until none cross.
    """
    n = _require_same_n(p, r)
    parent = list(range(n + 1))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for source in (p.blocks, r.blocks):
        for blk in source:
            root = find(blk[0])
            for e in blk[1:]:
                parent[find(e)] = root

    groups: dict[int, list[int]] = {}
    for e in range(1, n + 1):
        groups.setdefault(find(e), []).append(e)
    blocks = sorted((tuple(g) for g in groups.values()), key=lambda b: b[0])

    while True:
        merged = False
        for i in range(len(blocks)):
            for j in range(i + 1, len(blocks)):
                if _interleaved(blocks[i], blocks[j]):
                    fused = tuple(sorted(blocks[i] + blocks[j]))
                    blocks = blocks[:i] + [fused] + blocks[i + 1 : j] + blocks[j + 1 :]
                    blocks.sort(key=lambda b: b[0])
                    merged = True
                    break
            if merged:
                break
        if not merged:
            break
    return NCPartition._trusted(n, tuple(blocks))


def restrict(p: NCPartition, subset: Iterable[int]) -> NCPartition:
    """Induced partition on a subset, relabeled to 1..|subset| by rank."""
    labs = tuple(sorted(set(subset)))
    if not labs:
        raise SizeError("cannot restrict to an empty subset")
    if labs[0] < 1 or labs[-1] > p.n:
        raise SizeError(f"subset {labs} not within 1..{p.n}")
    rank = {e: i for i, e in enumerate(labs, start=1)}
    blocks = []
    for blk in p.blocks:
        inter = tuple(rank[e] for e in blk if e in rank)
        if inter:
            blocks.append(inter)
    blocks.sort(key=lambda b: b[0])
    return NCPartition._trusted(len(labs), tuple(blocks))


def subword(w: Word, positions: Iterable[int]) -> Word:
    """Subword at the given 1-based positions, in increasing order."""
    pos = sorted(set(positions))
    if not pos:
        raise SizeError("empty position set")
    if pos[0] < 1 or pos[-1] > w.n:
        raise SizeError(f"positions {pos} outside 1..{w.n}")
    return Word(tuple(w.letters[i - 1] for i in pos))


def rotate(w: Word, r: int) -> Word:
    """The word read from position r + 1 (0-based r, taken mod |w|), cyclically."""
    r %= w.n
    return Word(w.letters[r:] + w.letters[:r])


def reverse(w: Word) -> Word:
    return Word(w.letters[::-1])


def swap(w: Word) -> Word:
    """Exchange the roles of 1 and *."""
    return Word(tuple(-l for l in w.letters))


def parse_letters(text: str) -> tuple:
    """The letters of Word.parse(text), by a character scanner with one
    character of lookahead for u*."""
    letters = []
    i = 0
    s = text.strip()
    while i < len(s):
        ch = s[i]
        if ch == "1":
            letters.append(1)
            i += 1
        elif ch in ("u", "U"):
            if i + 1 < len(s) and s[i + 1] == "*":
                letters.append(-1)
                i += 2
            else:
                letters.append(1)
                i += 1
        elif ch == "*":
            letters.append(-1)
            i += 1
        else:
            raise StructureError(f"cannot parse word {text!r} at {ch!r}")
    if not letters:
        raise SizeError(f"empty word {text!r}")
    return tuple(letters)


def canonical_letters(letters: tuple) -> tuple:
    """The letters of canonical_word, on the letter tuple: the largest tuple
    (+1 before -1) among the rotations of the word, its reversal, its swap
    and the swap of its reversal.

    The largest rotation of a variant starts a run of 1s, so only the run
    starts are compared, found in one pass over the given letters: a run of
    1s is one of -1s in the swap, and a run that ends at r - 1 starts at
    n - r in the reversal.  The all-ones word is its own key and that of
    the all-stars word.
    """
    n = len(letters)
    d = letters + letters
    sw = tuple(-l for l in d)
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
        best = max(best, a, b)
    return best or (1,) * n


def least_cut_rotation(letters: tuple) -> tuple:
    """The least rotation of the letters that starts with 1 and ends with -1,
    where the word recursion cuts a word with both letters."""
    n = len(letters)
    return min(
        letters[i + 1 :] + letters[: i + 1]
        for i in range(n)
        if letters[i] == -1 and letters[(i + 1) % n] == 1
    )


def set_partitions(m: int) -> list:
    """Blocks of every set partition of {1, ..., m}, one per restricted
    growth string."""
    out = []

    def grow(labels: list, top: int) -> None:
        if len(labels) == m:
            blocks = [[] for _ in range(top)]
            for e, b in enumerate(labels, start=1):
                blocks[b].append(e)
            out.append(tuple(tuple(b) for b in blocks))
            return
        for b in range(top + 1):
            grow(labels + [b], max(top, b + 1))

    grow([], 0)
    return out


def nc_brute(m: int) -> list:
    """Blocks of NC(m) by brute force: the non-crossing set partitions of
    {1, ..., m}."""
    return [blocks for blocks in set_partitions(m) if is_noncrossing(blocks)]


def _pair_linked(blocks: Blocks, i: int, j: int) -> bool:
    # i < j may share a Kreweras block iff no block of the partition meets
    # both {i+1, ..., j} and its complement in {1, ..., n}
    for blk in blocks:
        a = bisect_left(blk, i + 1)
        if a == len(blk) or blk[a] > j:
            continue
        if blk[0] <= i or blk[-1] > j:
            return False
    return True


def kreweras_blocks(blocks: Blocks, n: int) -> Blocks:
    """Kreweras complement by pair linkage, merged with a union-find."""
    parent = list(range(n + 1))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            if find(i) != find(j) and _pair_linked(blocks, i, j):
                parent[find(j)] = find(i)

    groups: dict[int, list[int]] = {}
    for e in range(1, n + 1):
        groups.setdefault(find(e), []).append(e)
    return tuple(sorted((tuple(g) for g in groups.values()), key=lambda b: b[0]))


def lambert_coeff(n: int) -> Fraction:
    """Taylor coefficient of the principal Lambert W branch at 0."""
    if n < 1:
        raise SizeError(f"index must be >= 1, got {n}")
    return Fraction((-n) ** (n - 1), math.factorial(n))


def biane_q_fractions(n: int) -> Poly:
    """Q_n from its Fraction coefficients, -base C(n, j+1) / j! with base
    -1/n at j = 0 and (-n)^(j-1) above it."""
    coeffs = []
    for j in range(n):
        base = Fraction(1, -n) if j == 0 else Fraction((-n) ** (j - 1))
        coeffs.append(-base * math.comb(n, j + 1) / math.factorial(j))
    return Poly(coeffs)


def diag_cumulant_fractions(n: int) -> QuasiPoly:
    """((-n)^(n-1)/n!) t^(n-1) y^n, its coefficient formed as a Fraction."""
    c = Fraction((-n) ** (n - 1), math.factorial(n))
    return QuasiPoly({-n: Poly((0,) * (n - 1) + (c,))})


def mobius_value(letters: tuple) -> QuasiPoly:
    """Moebius sum over NC(n) for a letter tuple, one product per partition."""
    n = len(letters)
    acc: dict[int, Poly] = {}
    for blocks, moeb in _weight_table(n):
        ypow = 0
        poly = POLY_ONE
        for blk in blocks:
            d = abs(sum(letters[i - 1] for i in blk))
            if d:
                ypow += d
                poly = poly * biane_Q(d)
        contrib = poly * moeb
        acc[-ypow] = acc[-ypow] + contrib if -ypow in acc else contrib
    return QuasiPoly(acc)


def _orbit_key(letters: tuple) -> tuple:
    """Largest rotation of the letters, their reversal, swap or both."""
    swapped = tuple(-l for l in letters)
    return max(
        v[r:] + v[:r]
        for v in (letters, letters[::-1], swapped, swapped[::-1])
        for r in range(len(letters))
    )


def first_boundary_value(letters: tuple, memo: dict | None = None) -> QuasiPoly:
    """Word cumulant by the concatenation recursion cut at the first wrap pair.

    The letters are rotated at their first * | 1 boundary, so that they
    start with 1 and end with *, and the cumulant is minus the sum of the
    products of the cumulants of each prefix and the matching suffix.
    Values are memoised under the orbit key in memo, which may be shared
    between calls; products are plain QuasiPoly products.
    """
    if memo is None:
        memo = {}
    key = _orbit_key(letters)
    if key in memo:
        return memo[key]
    n = len(letters)
    if all(l == letters[0] for l in letters):
        val = QuasiPoly({-n: Poly((0,) * (n - 1) + (lambert_coeff(n),))})
    elif n == 2:
        val = QuasiPoly({0: 1, -2: -1})
    else:
        i = next(i for i in range(n) if letters[i] == -1 and letters[(i + 1) % n] == 1)
        rot = letters[i + 1 :] + letters[: i + 1]
        val = QuasiPoly({})
        for m in range(1, n):
            val = val - first_boundary_value(rot[:m], memo) * first_boundary_value(rot[m:], memo)
    memo[key] = val
    return val


def nc_omega_filter(letters: tuple) -> tuple:
    """Supporting partitions of a word, filtered from all of NC(2n)."""
    n = len(letters)
    u_set = u_indices(Word(letters))
    return tuple(
        p for p in enumerate_nc(2 * n) if _omega_failure(n, p.blocks, u_set) is None
    )


def mixed_q_filter(widths: tuple, kappas: tuple) -> Fraction:
    """Cumulant with entries q^w for w in widths, by products as arguments.

    Flattening each q^w into w adjacent letters gives an interval grouping
    sigma of {1, ..., n}, n = sum(widths); the value sums, over the
    partitions of NC(n) whose join with sigma is the full set, the
    products of plain q-cumulants over blocks.
    """
    n = sum(widths)
    groups = []
    pos = 1
    for width in widths:
        groups.append(tuple(range(pos, pos + width)))
        pos += width
    total = Fraction(0)
    for p in enumerate_nc(n):
        if _connects(range(1, n + 1), list(p.blocks) + groups):
            term = Fraction(1)
            for block in p.blocks:
                term *= kappas[len(block) - 1]
            total += term
    return total


def _series_mul(a: Sequence, b: Sequence) -> list:
    """Product of two power series as coefficient lists, truncated to the
    length of a; b needs at least that length."""
    return [sum(a[j] * b[i - j] for j in range(i + 1)) for i in range(len(a))]


def moment_series(kappas: Iterable) -> list:
    """[1, m_1, ..., m_N] from kappa_1..kappa_N by M(z) = 1 + sum_s kappa_s z^s M(z)^s.

    M is iterated from 1; each pass fixes one more coefficient, so N
    passes reach the fixed point m_n = sum_s kappa_s [z^(n-s)] M(z)^s.
    """
    kappas = [Fraction(k) for k in kappas]
    m = [Fraction(1)] + [Fraction(0)] * len(kappas)
    for _ in kappas:
        new, power = [Fraction(1)] + [Fraction(0)] * len(kappas), m
        for s, kappa in enumerate(kappas, start=1):
            for n in range(s, len(m)):
                new[n] += kappa * power[n - s]
            power = _series_mul(power, m)
        m = new
    return m


def cumulant_series(targets: list, base: list) -> list:
    """[1, x_1, ..., x_N] solving targets[n] = sum_s x_s [z^(n-s)] B(z)^s
    for n = 1..N, where B(z) = sum_j base[j] z^j and base[0] = 1.

    With base = targets these are the cumulants of the moments targets;
    with base the moments of the other entries, they are the cumulants
    whose last entry is marked.
    """
    powers = [[Fraction(1)] + [Fraction(0)] * (len(targets) - 1)]
    for _ in targets[1:]:
        powers.append(_series_mul(powers[-1], base))
    x = [Fraction(1)]
    for n in range(1, len(targets)):
        x.append(targets[n] - sum(x[s] * powers[s][n - s] for s in range(1, n)))
    return x


def series_alpha_beta(kappas: Iterable, k_max: int) -> tuple[list, list]:
    """alpha_1..alpha_k_max and beta_1..beta_k_max from the q-cumulants
    kappa_1..kappa_(2 k_max), by one-variable series alone.

    The moments of q give those of q^2 (m_2n) and the cumulants
    kappa_n(q^2, ..., q^2); alpha is the cumulant sequence of those read as
    moments.  The odd moments m_(2n-1) give kappa_n(q^2, ..., q^2, q), and
    beta is the marked cumulant sequence of those against the same moments.
    """
    m = moment_series(list(kappas)[: 2 * k_max])
    squares = m[::2]
    c = cumulant_series(squares, squares)
    c_marked = cumulant_series([Fraction(1)] + m[1::2], squares)
    return cumulant_series(c, c)[1:], cumulant_series(c_marked, c)[1:]


def i_quadrature(k: int, l: int, t, prec_bits: int = 200) -> mpmath.mpf:
    """Numeric value of integral_0^1 exp(-ts) s^2 (s+k-1)^(k-2) (s+l-1)^(l-2) ds.

    Adaptive Gauss-Legendre; interior nodes keep the s = 0 factor harmless
    when k = 1 or l = 1.
    """
    _check_kl(k, l)
    with mpmath.workprec(prec_bits):
        if isinstance(t, Fraction):
            tv = mpmath.mpf(t.numerator) / t.denominator
        else:
            tv = mpmath.mpf(t)

        def f(s):
            if s == 0:
                return mpmath.mpf(0)
            return (
                mpmath.exp(-tv * s)
                * s**2
                * (s + k - 1) ** (k - 2)
                * (s + l - 1) ** (l - 2)
            )

        return +mpmath.quad(f, [0, 1], method="gauss-legendre")


def laplace_poly(k: int, l: int, shift: int, sign: int) -> Poly:
    """sign x^(k+l-1) integral_0^inf exp(-xs) g(s) ds on Fractions, term by term.

    g(s) = (s+c)^(2-[k=1]-[l=1]) (s+k-1+c)^(k-2) (s+l-1+c)^(l-2) with c the
    shift, and a factor (s+j-1+c)^(j-2) enters only for j >= 3.  U_{k,l} is
    shift 1, sign -1 and V_{k,l} shift 0, sign 1.
    """
    _check_kl(k, l)
    integrand = Poly((shift, 1)) ** (2 - (k == 1) - (l == 1))
    for j in (k, l):
        if j >= 3:
            integrand = integrand * Poly((j - 1 + shift, 1)) ** (j - 2)
    top = k + l - 2
    coeffs = [Fraction(0)] * (top + 1)
    for m, c in enumerate(integrand.coeffs):
        if c == 0:
            continue
        assert top - m >= 0, "integrand degree exceeds the Laplace budget"
        coeffs[top - m] = c * math.factorial(m) * sign
    return Poly(coeffs)


def laplace_cumulant(k: int, l: int) -> QuasiPoly:
    """The cumulant of 1^k *^l from laplace_poly, times the Fraction prefactor."""
    pref = Fraction((-1) ** (k + l), math.factorial(k - 1) * math.factorial(l - 1))
    return QuasiPoly({
        -(k + l): laplace_poly(k, l, 1, -1) * pref,
        -(k + l - 2): laplace_poly(k, l, 0, 1) * pref,
    })


def quasipoly_from_json(data: Mapping) -> QuasiPoly:
    """Inverse of QuasiPoly.to_json_dict; extra keys are ignored."""
    terms = {}
    for item in data["terms"]:
        e2 = int(item["exp2"])
        p = Poly(tuple(Fraction(s) for s in item["coeffs"]))
        if e2 in terms:
            raise ValueError(f"duplicate exp2 {e2}")
        terms[e2] = p
    return QuasiPoly(terms)


def _monomial_inverse(q: QuasiPoly) -> QuasiPoly:
    """Invert c * exp((e2/2) t); anything richer has no inverse in the ring."""
    terms = q.terms
    if len(terms) != 1:
        raise StructureError("not an invertible monomial")
    ((e2, p),) = terms.items()
    if p.degree != 0:
        raise StructureError("not an invertible monomial")
    return QuasiPoly({-e2: Poly((1 / p.leading(),))})


def chi_inverse(order: int) -> TruncSeries1:
    """The compositional inverse 1 + L of the expansion of chi, solved triangularly.

    The identity z = sum_m a_m L^m gives lambda_1 = 1/a_1, where a_1 =
    -(1/2) e^t is the only coefficient ever inverted, and for n >= 2
    lambda_n = -lambda_1 sum_{m=2}^n a_m [z^n] L^m.  A power table holds
    [z^k] L^m, and row m gains its entry at z^n from row m - 1 as
    sum_{j=1}^{n-m+1} lambda_j [z^{n-j}] L^{m-1}, all known by then, so
    order N takes about N^3/6 products on top of the expansion.  Each
    lambda_n is asserted to land back in Q[t, e^{-t}]: the positive
    exponents of the intermediate coefficients must all cancel.
    """
    if order < 1:
        raise SizeError(f"order must be >= 1, got {order}")
    a = chi_expansion(order)
    lam: list[QuasiPoly] = [QuasiPoly(), _monomial_inverse(a.coeff(1))]  # [z^k] L
    powers: list[list[QuasiPoly]] = [[], lam]  # powers[m][k] = [z^k] L^m
    for n in range(2, order + 1):
        powers.append([QuasiPoly()] * n)  # [z^k] L^n vanishes for k < n
        for m in range(2, n + 1):
            prev = powers[m - 1]
            powers[m].append(sum_of_products((lam[j], prev[n - j]) for j in range(1, n - m + 2)))
        b = sum_of_products((a.coeff(m), powers[m][n]) for m in range(2, n + 1))
        lam.append(-(lam[1] * b))
    for n, q in enumerate(lam[1:], start=1):
        bad = [e2 for e2 in q.exp2_values() if e2 > 0 or e2 % 2]
        if bad:
            raise StructureError(f"lambda_{n} escaped Q[t, e^-t]: found exp2={bad[0]}")
    return TruncSeries1(order, [QuasiPoly.constant(1)] + lam[1:])


def series_quotient(num: TruncSeries1, den: TruncSeries1) -> TruncSeries1:
    """The quotient q with q * den = num, solved one coefficient at a time.

    den needs a nonzero rational constant term c; then q_n =
    (num_n - sum_{k=1}^n den_k q_{n-k}) / c, so the inverse of den is
    never formed.
    """
    c0 = den.coeff(0)
    if c0.exp2_values() != (0,) or c0.grade(0).degree > 0:
        raise StructureError("the divisor needs a nonzero rational constant term")
    inv0 = 1 / c0.grade(0).leading()
    order = min(num.order, den.order)
    q: list[QuasiPoly] = []
    for n in range(order + 1):
        rest = sum_of_products((den.coeff(k), q[n - k]) for k in range(1, n + 1))
        q.append((num.coeff(n) - rest).scale(inv0))
    return TruncSeries1(order, q)


def chi_series(order: int) -> TruncSeries1:
    """chi(1 + w) through order w^order, straight from its definition.

    chi(c) = c^2 (1 - c^2) e^{ct} / ((1 + c) - (1 - c) e^{ct})^2.  At
    c = 1 + w the numerator is (-2w - 5w^2 - 4w^3 - w^4) e^t e^{wt} and
    the denominator ((2 + w) + w e^t e^{wt})^2, a series with constant
    term 4, so the expansion is two _series_mul products and one
    series_quotient.  Its w^0 coefficient must cancel to zero exactly.
    """
    if order < 1:
        raise SizeError(f"order must be >= 1, got {order}")
    taylor = [Poly((0,) * j + (Fraction(1, math.factorial(j)),)) for j in range(order + 1)]
    exp_wt = [QuasiPoly({2: p}) for p in taylor]  # [w^j] e^t e^{wt}
    num = _series_mul(TruncSeries1(order, [0, -2, -5, -4, -1]).coeffs, exp_wt)
    # [w^j] (2 + w) + w e^t e^{wt}
    den = [QuasiPoly.constant(2), QuasiPoly.constant(1) + exp_wt[0]] + exp_wt[1:order]
    chi = series_quotient(TruncSeries1(order, num), TruncSeries1(order, _series_mul(den, den)))
    if not chi.coeff(0).is_zero:
        raise StructureError("w^0 coefficient of the expansion must vanish")
    return chi


def _fraction_text(c: Fraction, latex: bool) -> str:
    if c.denominator == 1:
        return str(c.numerator)
    if latex:
        sign = "-" if c < 0 else ""
        return f"{sign}\\tfrac{{{abs(c.numerator)}}}{{{c.denominator}}}"
    return f"{c.numerator}/{c.denominator}"


def fraction_poly_text(p: Poly, latex: bool = False) -> str:
    """qpoly.poly_text over the Fraction view p.coeffs."""
    if p.is_zero:
        return "0"
    parts = []
    coeffs = p.coeffs
    for k in range(p.degree, -1, -1):
        c = coeffs[k]
        if c == 0:
            continue
        vp = _x_power(k, latex)
        if not vp:
            body = _fraction_text(c, latex)
        elif c == 1:
            body = vp
        elif c == -1:
            body = "-" + vp
        elif c.denominator == 1:
            body = f"{c.numerator}{vp}"
        else:
            body = (_fraction_text(c, latex) if latex else f"({_fraction_text(c, False)})") + vp
        if parts and not body.startswith("-"):
            parts.append("+" + body)
        else:
            parts.append(body)
    return "".join(parts)


def fraction_quasipoly_text(f: QuasiPoly, latex: bool = False) -> str:
    """QuasiPoly.to_text (to_latex when latex) over the Fraction views."""
    if f.is_zero:
        return "0"
    pieces = []
    for e2, p in sorted(f.terms.items(), reverse=True):  # y-powers ascending
        fac = _factor_text(e2, latex)
        if not (fac or pieces):
            pieces.append(fraction_poly_text(p, latex))
            continue
        neg = p.leading() < 0
        if neg:
            p = -p
        if not fac and p.degree == 0:
            body = fraction_poly_text(p, latex)
        elif p == POLY_ONE:
            body = fac
        elif p.degree == 0 and p.coeffs[0].denominator == 1:
            body = f"{p.coeffs[0].numerator}{fac}"
        else:
            body = f"({fraction_poly_text(p, latex)}){fac}"
        if not pieces:
            pieces.append(("-" if neg else "") + body)
        else:
            pieces.append((" - " if neg else " + ") + body)
    return "".join(pieces)


def fraction_json_dict(f: QuasiPoly) -> dict:
    """QuasiPoly.to_json_dict over the Fraction views."""
    return {
        "terms": [
            {"exp2": e2, "coeffs": [str(c) for c in p.coeffs]}
            for e2, p in sorted(f.terms.items(), reverse=True)
        ]
    }
