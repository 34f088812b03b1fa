"""Seeded workloads for the freeunitary benchmark.

Each workload is a generator of *cycles*, lists of tasks.  A task is one
checked call into the library, or one CLI request.  Its `run` does the
program's work and is the only part that is timed.  It returns either
`(got, want)` from two independent routes of the program, or a raw value
that `view` projects to `got` while `expect` supplies `want` from an
independent source: a series relation, a closed form or a frozen row.
A task fails on an exception, on `got != want`, or, for a CLI request, on
an unexpected exit code or stdout.

Every cycle holds each stratum of its workload (a word length, a task
kind, a size) a fixed number of times, so a run's cost mix does not hinge
on the luck of the draw; the seed chooses the inputs inside each stratum.
"""

from __future__ import annotations

import json
import math
import sys
from argparse import Namespace
from fractions import Fraction
from pathlib import Path

import freeunitary as fu
from freeunitary import cli
from freeunitary.qpoly import Poly, QuasiPoly


class Task:
    __slots__ = ("kind", "desc", "run", "expect", "view", "setup")

    def __init__(self, kind, desc, run, expect=None, view=None, setup=None):
        self.kind, self.desc, self.run = kind, desc, run
        self.expect, self.view, self.setup = expect, view, setup


def cold():
    """Empty every module-level cache of freeunitary: lru caches and *_MEMO dicts."""
    for name, mod in list(sys.modules.items()):
        if name != "freeunitary" and not name.startswith("freeunitary."):
            continue
        for attr, val in vars(mod).items():
            while not hasattr(val, "cache_clear") and hasattr(val, "__wrapped__"):
                val = val.__wrapped__  # under a tracer wrapper
            if hasattr(val, "cache_clear"):
                val.cache_clear()
            elif isinstance(val, dict) and attr.endswith("_MEMO"):
                val.clear()


def check(task, raw, corrupt=False):
    """None when the task's result is right, else a one-line failure."""
    if task.expect is None:
        got, want = raw
    else:
        got = task.view(raw) if task.view else raw
        want = task.expect()
    if corrupt:
        want = corrupted(want)
    if got == want:
        return None
    return f"{task.kind} {task.desc}: expected {_short(want)} got {_short(got)}"


def corrupted(value):
    """A value that must compare unequal to `value`; used to prove the gate bites."""
    if isinstance(value, bool):
        return not value
    if isinstance(value, (int, Fraction, Poly, QuasiPoly)):
        return value + 1
    if isinstance(value, str):
        return value + "#"
    if isinstance(value, (tuple, list)) and value:
        return type(value)([corrupted(value[0]), *value[1:]])
    return ("corrupted", value)


def _short(value, limit=160):
    text = repr(value)
    return text if len(text) <= limit else text[:limit] + "..."


class _Pool:
    """Draw without replacement from a seeded shuffle; reshuffle when empty."""

    def __init__(self, rng, values):
        self.rng, self.values, self.left = rng, list(values), []

    def next(self):
        if not self.left:
            self.left = list(self.values)
            self.rng.shuffle(self.left)
        return self.left.pop()


def _word(rng, n):
    return "".join(rng.choice("1*") for _ in range(n))


def _switches(word):
    n = len(word)
    return sum(word[i] != word[(i + 1) % n] for i in range(n))


def _signed_catalan(k):
    return (-1) ** (k - 1) * math.comb(2 * k - 2, k - 1) // k


def _haar_limit(word):
    """Stationary limit: signed Catalan on cyclically alternating even words."""
    n = len(word)
    return _signed_catalan(n // 2) if n % 2 == 0 and _switches(word) == n else 0


def _haar_derivative(word):
    """First-order coefficient: signed Catalan on alternating odd words."""
    n = len(word)
    return _signed_catalan((n + 1) // 2) if n % 2 and _switches(word) == n - 1 else 0


# ---------------------------------------------------------------------------
# series oracle for alpha_k and beta_k
#
# With M(z) = 1 + sum m_n z^n and a first-block decomposition, moments and
# free cumulants obey m_n = sum_s c_s [z^(n-s)] M(z)^s.  The same relation
# holds when the last slot is marked (the block holding it carries the
# marked cumulant, the gaps carry unmarked moments).  alpha is the
# cumulant sequence of kappa_n(q^2) read as moments, beta its marked
# analogue with kappa(q^2, ..., q^2, q) in the marked block.  This route
# enumerates no partition, so it is independent of the Moebius sums.


def _truncated_mul(a, b, degree):
    out = [Fraction(0)] * (degree + 1)
    for i, x in enumerate(a[: degree + 1]):
        if x:
            for j, y in enumerate(b[: degree + 1 - i]):
                out[i + j] += x * y
    return out


def _moments(kappa):
    m = [Fraction(1)] + [Fraction(0)] * len(kappa)
    for n in range(1, len(kappa) + 1):
        power = [Fraction(1)]
        for s in range(1, n + 1):
            power = _truncated_mul(power, m, n - s)
            m[n] += kappa[s - 1] * power[n - s]
    return m


def _cumulants(target, base):
    """c with target_n = sum_s c_s [z^(n-s)] B^s, where B = 1 + sum base_j z^j."""
    n_max = len(target)
    series = [Fraction(1)] + list(base[:n_max])
    powers = [None, series]
    for _ in range(2, n_max):
        powers.append(_truncated_mul(powers[-1], series, n_max))
    out = []
    for n in range(1, n_max + 1):
        val = target[n - 1]
        for s in range(1, n):
            val -= out[s - 1] * powers[s][n - s]
        out.append(val)
    return out


def rdiag_oracle(kappa, k):
    """(alpha_1..alpha_k, beta_1..beta_k) from kappa_1..kappa_2k of q."""
    mq = _moments(list(kappa[: 2 * k]))
    squares = [mq[2 * n] for n in range(1, k + 1)]
    marked = [mq[2 * n - 1] for n in range(1, k + 1)]
    c = _cumulants(squares, squares)
    c_marked = _cumulants(marked, squares)
    return _cumulants(c, c), _cumulants(c_marked, c)


def _random_kappas(rng, count):
    return tuple(Fraction(rng.randint(-6, 6), rng.randint(1, 6)) for _ in range(count))


# ---------------------------------------------------------------------------
# series_routes


def _xi(n):
    rows = tuple(cli._XI_ROWS[j] for j in range(1, min(n, 4) + 1))

    def run():
        rec = fu.xi_by_recursion(n).entries
        inv = fu.xi_by_inversion(n).entries
        return (inv, rec[: len(rows)]), (rec, rows)

    return Task("xi_rec_vs_inv", f"n={n}", run)


def _lambda(order):
    def run():
        return fu.lambda_series(order).coeffs, fu.lagrange_lambda(order).coeffs

    return Task("lambda_vs_lagrange", f"order={order}", run)


def _laplace(k, l):
    def run():
        return fu.z_from_laplace(k, l).value, fu.z_recursive("1" * k + "*" * l).value

    return Task("laplace_vs_recursive", f"k={k} l={l}", run)


def _long_word(word):
    n, s = len(word), _switches(word)
    beyond = [n - 2 * j for j in range(n // 2 + 1) if 2 * j > s]

    def view(value):
        return (value.value_at_zero(), tuple(value.grade(m) for m in beyond),
                value.grade(0), value.grade(1))

    def expect():
        return (Fraction(0), tuple(Poly(()) for _ in beyond),
                Poly((_haar_limit(word),)), Poly((_haar_derivative(word),)))

    return Task("z_recursive_long", word, lambda: fu.z_recursive(word).value, expect, view)


def _word_with_switches(rng, n, switches):
    """A uniform random word of length n among those with this many cyclic switches."""
    while True:
        word = _word(rng, n)
        if _switches(word) == switches:
            return word


LONG_WORDS = (14, 15, 16)  # lengths of the long words, each drawn with 8 switches


def series_routes(rng, ctx):
    """Per cycle: xi recursion against inversion at every size 6..13, lambda
    against Lagrange at every size 6..12, nine (k, l) pairs with k + l <= 12
    and three long words of lengths 14, 15 and 16.  Every task starts from
    empty caches, so no task reuses another's work and every cycle costs
    the same whatever ran before it; the xi and lambda sizes repeat from
    cycle to cycle, pairs and words do not.

    The shape is chosen so that the seed, which picks the pairs and words,
    moves neither the median nor the tail of a four-cycle run.  The pairs
    (under 30 ms) stay below the median, and with nine of them the median
    falls in the middle of the tasks of one size, xi at n=8.  A long word's
    cost depends on its switch count, so every word has eight.  The eight
    slowest tasks of a run are xi at n=13 and lambda at n=12; the eight xi
    at n=12 and lambda at n=11 tasks, of nearly equal cost, come next.  So
    the tail, the slowest task with ten beyond it, falls inside that second
    group of fixed inputs.  A word of length 16 costs up to about as much
    as that group, so where it lands moves the tail by a rank, not by a
    jump in cost; a longer word would land above the group or inside it at
    a cost set by the seed."""
    pairs = _Pool(rng, [(k, l) for k in range(1, 12) for l in range(1, 12) if k + l <= 12])
    while True:
        cycle = [_xi(n) for n in range(6, 14)] + [_lambda(n) for n in range(6, 13)]
        cycle += [_laplace(*pairs.next()) for _ in range(9)]
        cycle += [_long_word(_word_with_switches(rng, n, 8)) for n in LONG_WORDS]
        rng.shuffle(cycle)
        for task in cycle:
            task.setup = cold
        yield cycle


# ---------------------------------------------------------------------------
# cli_requests


def _alternating_odd(k):
    return "1" + "*1" * (k - 1)


def _non_alternating(rng, n, used):
    while True:
        word = _word(rng, n)
        if word not in used and _switches(word) != (n if n % 2 == 0 else n - 1):
            used.add(word)
            return word


# cheap verify suites of like cost (about 0.45 s in a fresh process), so the
# draw of a suite does not move a run's throughput
CHEAP_SUITES = ("thm3.7", "prop6.2", "remark4.5", "prop6.7-cross")

_suite_cases: dict = {}


def _suite_stdout(name):
    if name not in _suite_cases:
        args = Namespace(max_n=None, seed=cli.DEFAULT_SEED, prec=cli.DEFAULT_PREC)
        cases, failures = cli.SUITES[name](args)
        _suite_cases[name] = cases if not failures else -1
    note = f" [seed={cli.DEFAULT_SEED}]" if name == "prop6.7-cross" else ""
    return f"suite {name}: PASS ({_suite_cases[name]} cases){note}\n1/1 suites passed\n"


def _lines(*lines):
    return "".join(line + "\n" for line in lines)


def _eval_text(value, t, prec):
    import mpmath

    with mpmath.workprec(prec):
        return mpmath.nstr(value.eval(t, prec), max(8, int(prec * 0.301)))


def _request(ctx, kind, argv, expect, files=()):
    def run():
        for path, text in files:
            path.write_text(text, encoding="utf-8")
        return ctx.launch(argv)

    return Task(kind, " ".join(argv), run, lambda: (0, expect()))


def _z_text(word, fmt="text"):
    value = fu.z_recursive(word).value
    if fmt == "json":
        return json.dumps(value.to_json_dict(), sort_keys=True)
    return value.to_latex() if fmt == "latex" else value.to_text()


def _cli_kinds(rng, ctx, index, pools):
    """One request of every kind (two verify suites), with seeded arguments."""
    w = {kind: _word(rng, pools["word"].next())
         for kind in ("text", "json", "latex", "eval", "both", "haar")}
    kappas = _random_kappas(rng, 8)
    qfile = Path(ctx.tmpdir or ".") / f"q{index}.json"
    files = [(qfile, json.dumps([str(c) for c in kappas]))]
    k_alpha, k_beta = pools["alpha"].next(), pools["beta"].next()
    alpha, _ = rdiag_oracle(kappas, k_alpha)
    _, beta = rdiag_oracle(kappas, k_beta)
    t = Fraction(rng.randint(1, 20), rng.randint(1, 8))
    prec = rng.choice((64, 128))
    n_xi = pools["xi"].next()
    k, l = rng.randint(1, 6), rng.randint(1, 2)
    mword = _word(rng, rng.randint(2, 12))
    n_nc = pools["nc"].next()
    ncw = pools["ncw"].next()
    if ncw < 0:
        ncw_word, ncw_count = _alternating_odd(-ncw), lambda: len(fu.nc_omega_structured(-ncw))
    else:
        ncw_word, ncw_count = _non_alternating(rng, ncw, set()), lambda: 0
    suites = [pools["suite"].next() for _ in range(2)]
    row = lambda: cli._XI_ROWS[n_xi].to_text()
    return [
        _request(ctx, "zpoly_text", ["zpoly", w["text"]], lambda: _lines(_z_text(w["text"]))),
        _request(ctx, "zpoly_json", ["zpoly", w["json"], "--format", "json"],
                 lambda: _lines(_z_text(w["json"], "json"))),
        _request(ctx, "zpoly_latex", ["zpoly", w["latex"], "--format", "latex"],
                 lambda: _lines(_z_text(w["latex"], "latex"))),
        _request(ctx, "zpoly_eval", ["zpoly", w["eval"], "--eval", str(t), "--prec", str(prec)],
                 lambda: _lines(_eval_text(fu.z_recursive(w["eval"]).value, t, prec))),
        _request(ctx, "zpoly_both", ["zpoly", w["both"], "--method", "both"],
                 lambda: _lines(f"mobius:    {_z_text(w['both'])}",
                                f"recursive: {_z_text(w['both'])}", "CONSISTENT")),
        _request(ctx, "xi_all", ["xi", "--n", str(n_xi), "--method", "all"],
                 lambda: _lines(f"recursion: {row()}", f"mobius: {row()}",
                                f"inversion: {row()}", "CONSISTENT")),
        _request(ctx, "special", ["special", "--k", str(k), "--l", str(l)],
                 lambda: _lines(f"U = {fu.poly_text(fu.u_poly(k, l))}",
                                f"V = {fu.poly_text(fu.v_poly(k, l))}",
                                f"Z = {_z_text('1' * k + '*' * l)}")),
        _request(ctx, "haar", ["haar", "--word", w["haar"]],
                 lambda: _lines(f"limit = {_haar_limit(w['haar'])}",
                                f"derivative = {_haar_derivative(w['haar'])}")),
        _request(ctx, "moments", ["moments", "--word", mword],
                 lambda: _lines(fu.m_poly(mword).to_text())),
        _request(ctx, "nc", ["nc", "--n", str(n_nc)],
                 lambda: _lines(f"count = {math.comb(2 * n_nc, n_nc) // (n_nc + 1)}")),
        _request(ctx, "ncw", ["ncw", "--word", ncw_word, "--count-only"],
                 lambda: _lines(f"count = {ncw_count()}")),
        _request(ctx, "alpha", ["alpha", "--k", str(k_alpha), "--q-cumulants", str(qfile)],
                 lambda: _lines(*(f"alpha_{j} = {v}" for j, v in enumerate(alpha, 1))),
                 files),
        _request(ctx, "beta_both", ["beta", "--k", str(k_beta), "--method", "both",
                                    "--q-cumulants", str(qfile)],
                 lambda: _lines(*(f"beta_{j} (mobius) = {v}" for j, v in enumerate(beta, 1)),
                                *(f"beta_{j} (enumeration) = {v}" for j, v in enumerate(beta, 1)),
                                "CONSISTENT"),
                 files),
    ] + [_request(ctx, "verify_suite", ["verify", "--suite", name],
                  lambda name=name: _suite_stdout(name)) for name in suites]


def cli_requests(rng, ctx):
    """Arguments that move a request's cost come from pools, so a few cycles
    cover each value of each pool equally often; the six word requests of a
    cycle take the six lengths 3..8 between them.  A ncw value
    -k asks for the alternating word 1(*1)^(k-1), a value n for a word of
    length n that does not alternate."""
    pools = {"alpha": _Pool(rng, range(1, 5)), "beta": _Pool(rng, range(1, 5)),
             "xi": _Pool(rng, range(1, 5)), "nc": _Pool(rng, range(6, 10)),
             "ncw": _Pool(rng, (-2, -3, 4, 5)), "suite": _Pool(rng, CHEAP_SUITES),
             "word": _Pool(rng, range(3, 9))}
    index = 0
    while True:
        cycle = _cli_kinds(rng, ctx, index, pools)
        rng.shuffle(cycle)
        index += 1
        yield cycle


WORKLOADS = {
    "series_routes": series_routes,
    "cli_requests": cli_requests,
}


def canary(name, ctx):
    """A cheap task of the workload's kind, for the corrupted-expectation check."""
    if name == "series_routes":
        return _xi(3)
    return _request(ctx, "nc", ["nc", "--n", "4"], lambda: "count = 14\n")
