"""Output fingerprint: one short hash per input of each pinned family.

Each family yields (input, output) pairs from the working routes, in a
fixed order; the committed file fingerprint.json holds the first
HASH_LEN hex digits of the SHA-256 of each output.  test_fingerprint
recomputes every family and names the family and the first input whose
hash differs.  Every family keeps its independent oracle elsewhere in the
tests; this file only pins that the outputs do not move.

A change that moves an output on purpose rewrites the file with

    PYTHONPATH=src python tests/fingerprint.py

and lists the families that changed.
"""

from __future__ import annotations

import hashlib
import io
import json
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path
from random import Random
from typing import Callable, Iterator, Optional

from freeunitary import alternating, cumulants, laplace, moments, rdiag
from freeunitary.cli import run
from freeunitary.cli.commands import _show
from freeunitary.cumulants import _canonical

PATH = Path(__file__).with_name("fingerprint.json")
HASH_LEN = 8
FORMATS = ("text", "latex", "json")
Q_SEEDS = (1, 2, 3, 4)  # seeded q-cumulant data of alpha and beta
Q_ORDER = 18  # cumulants per seed: enough for k = 8 in both sequences
K_MAX = 8
EVAL_SEED = 1  # of the words, t and xi orders of the eval family
EVAL_CASES = 40


def _renderings(value) -> str:
    return "\n".join(_show(value, fmt) for fmt in FORMATS)


def orbits(max_n: int) -> Iterator[str]:
    """The least word of every orbit under rotation, reversal and swap, of
    length 1..max_n; within a length, by the integer key of the word."""
    for n in range(1, max_n + 1):
        for key in range(1 << n, 2 << n):
            if _canonical(key) == key:
                yield bin(key)[3:].replace("0", "*")


def _zpoly() -> Iterator[tuple[str, str]]:
    for word in orbits(14):
        yield word, _renderings(cumulants.z_recursive(word).value)


def _haar() -> Iterator[tuple[str, str]]:
    for word in orbits(12):
        yield word, f"{moments.haar_limit(word)} {moments.haar_derivative(word)}"


def _xi() -> Iterator[tuple[str, str]]:
    seq = alternating.xi_by_inversion(60)  # _xi_closed(n) for n = 1..60
    for n in range(1, 61):
        yield str(n), _renderings(seq.xi(n))


def _lambda() -> Iterator[tuple[str, str]]:
    series = alternating.lagrange_lambda(40)
    for n in range(1, 41):
        yield str(n), _renderings(series.coeff(n))


def _special() -> Iterator[tuple[str, str]]:
    for total in range(2, 17):
        for k in range(1, total):
            l = total - k
            values = (laplace.u_poly(k, l), laplace.v_poly(k, l), laplace.z_from_laplace(k, l).value)
            yield f"{k},{l}", "\n".join(_renderings(v) for v in values)


def _sequence(route: Callable) -> Iterator[tuple[str, str]]:
    for seed in Q_SEEDS:
        d = rdiag.Distribution.random_small(Random(seed), Q_ORDER)
        for k, value in enumerate(route(d, K_MAX), start=1):
            yield f"seed {seed}, k {k}", str(value)


def _stdout(argv: list[str]) -> str:
    """The stdout of the CLI run on argv; stderr is dropped."""
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        run(argv)
    return out.getvalue()


def _eval() -> Iterator[tuple[str, str]]:
    """The decimals that --eval T --prec P prints for zpoly and moments on
    seeded words of up to 10 letters, and for xi up to n = 5, at rational
    T and at 64 and 128 bits."""
    rng = Random(EVAL_SEED)
    for _ in range(EVAL_CASES):
        word = "".join(rng.choice("1*") for _ in range(rng.randint(1, 10)))
        t = Fraction(rng.randint(-20, 20), rng.randint(1, 8))
        n = rng.randint(1, 5)
        for prec in (64, 128):
            for request in (["zpoly", word], ["xi", "--n", str(n)], ["moments", "--word", word]):
                argv = [*request, f"--eval={t}", "--prec", str(prec)]
                yield " ".join(argv), _stdout(argv)


def _verify() -> Iterator[tuple[str, str]]:
    """The stdout of the full verify, one entry per suite and one for the
    closing tally; the timings on stderr are dropped."""
    suite, lines = None, []
    for line in _stdout(["verify"]).splitlines():
        if not line.startswith("  "):  # a suite's verdict or the tally
            if suite is not None:
                yield suite, "\n".join(lines)
            suite, lines = line.split(":")[0] if line.startswith("suite ") else "tally", []
        lines.append(line)
    yield suite, "\n".join(lines)


FAMILIES = {
    "zpoly": _zpoly,
    "haar": _haar,
    "xi": _xi,
    "lambda": _lambda,
    "special": _special,
    "alpha": lambda: _sequence(rdiag.alpha_sequence),
    "beta": lambda: _sequence(rdiag.beta_mobius),
    "verify": _verify,
    "eval": _eval,
}


def digest(output: str) -> str:
    return hashlib.sha256(output.encode()).hexdigest()[:HASH_LEN]


def compute(family: str) -> dict[str, str]:
    return {inp: digest(out) for inp, out in FAMILIES[family]()}


def load() -> dict[str, dict[str, str]]:
    return json.loads(PATH.read_text(encoding="utf-8"))


def first_difference(family: str, pinned: dict[str, str]) -> Optional[str]:
    """None when the family reproduces its pinned hashes in order, else a
    line that names the family and the first input that differs."""
    pinned = dict(pinned)
    for inp, out in FAMILIES[family]():
        if inp not in pinned:
            return f"{family}: unpinned input {inp!r}"
        if digest(out) != pinned[inp]:
            return f"{family}: output for input {inp!r} differs"
        del pinned[inp]
    if pinned:
        return f"{family}: pinned input {next(iter(pinned))!r} no longer produced"
    return None


def write() -> None:
    data = {family: compute(family) for family in FAMILIES}
    PATH.write_text(json.dumps(data, indent=0) + "\n", encoding="utf-8")


if __name__ == "__main__":
    write()
