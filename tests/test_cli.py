"""End-to-end tests for the command-line front end."""

import json
import os
import re
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path
from random import Random
from types import SimpleNamespace

import pytest

from freeunitary import Poly, QuasiPoly, z_mobius
from freeunitary.cli import DEFAULT_SEED, run
from freeunitary.verify import SUITES
from oracles import quasipoly_from_json


def _capture(capsys):
    out = capsys.readouterr()
    return out.out, out.err


def test_zpoly_text_example(capsys):
    assert run(["zpoly", "1*"]) == 0
    out, _ = _capture(capsys)
    assert out == "1 - y^2\n"


def test_zpoly_accepts_u_spelling(capsys):
    for u_word, word in (("uu*u", "1*1"), ("uuu*", "11*")):
        assert run(["zpoly", u_word]) == 0
        first, _ = _capture(capsys)
        assert run(["zpoly", word]) == 0
        second, _ = _capture(capsys)
        assert first == second


def test_zpoly_both_methods_consistent(capsys):
    assert run(["zpoly", "1*1*", "--method", "both"]) == 0
    out, _ = _capture(capsys)
    lines = out.splitlines()
    assert lines[-1] == "CONSISTENT"
    assert len(lines) == 3


def test_zpoly_json_roundtrip(capsys):
    assert run(["zpoly", "11**", "--format", "json"]) == 0
    out, _ = _capture(capsys)
    assert quasipoly_from_json(json.loads(out)) == z_mobius("11**").value


def test_zpoly_grade(capsys):
    assert run(["zpoly", "1*1*", "--grade", "4"]) == 0
    out, _ = _capture(capsys)
    assert out.strip() == "-2x-3"


def test_zpoly_eval(capsys):
    assert run(["zpoly", "1*", "--eval", "1"]) == 0
    out, _ = _capture(capsys)
    assert out.startswith("0.632120558")


def test_zpoly_grade_eval_conflict(capsys):
    assert run(["zpoly", "1*", "--grade", "0", "--eval", "1"]) == 2


EVAL_COMMANDS = [["zpoly", "11*"], ["xi", "--n", "3"], ["moments", "--word", "11*"]]


@pytest.mark.parametrize("argv", EVAL_COMMANDS, ids=" ".join)
@pytest.mark.parametrize("t", ["-1/2", "-1e-3", "-0.5", "-.25", "-2"])
def test_negative_eval_reads_as_a_value_in_every_form(argv, t, capsys):
    # argparse takes only plain negative decimals as option values; the
    # fraction and exponent forms must read as if written --eval=T
    assert run([*argv, "--eval=" + t]) == 0
    joined = _capture(capsys)[0]
    for flag in ("--eval", "--ev"):
        assert run([*argv, flag, t]) == 0
        out, err = _capture(capsys)
        assert out == joined and err == ""


@pytest.mark.parametrize(
    "tail",
    [["--eval"], ["--eval", "--prec", "64"], ["--eval", "-x"], ["--eval", "-1e301"]],
    ids=" ".join,
)
def test_eval_without_a_usable_value_exits_2(tail, capsys):
    assert run(["zpoly", "1*", *tail]) == 2
    out, err = _capture(capsys)
    assert out == "" and "Traceback" not in err
    if tail[-1] == "-1e301":
        assert "10^MAX_EVAL_EXPONENT = 10^300" in err
    else:
        assert "expected one argument" in err


@pytest.mark.parametrize("argv", EVAL_COMMANDS, ids=" ".join)
@pytest.mark.parametrize("fmt", ["json", "latex"])
def test_eval_refuses_a_format_other_than_text_before_any_sum(argv, fmt, monkeypatch, capsys):
    # --eval prints a bare decimal, which is not one JSON object nor LaTeX
    from freeunitary import alternating, cumulants, moments

    def never(*args):
        raise AssertionError("a sum ran before the refusal")

    monkeypatch.setattr(cumulants, "z_recursive", never)
    monkeypatch.setattr(alternating, "xi_by_recursion", never)
    monkeypatch.setattr(moments, "m_poly", never)
    assert run([*argv, "--eval", "1", "--format", fmt]) == 2
    out, err = _capture(capsys)
    assert out == ""
    assert f"--eval and --format {fmt} cannot be combined" in err


def test_zpoly_refuses_a_negative_grade(capsys):
    assert run(["zpoly", "1*", "--grade", "-1"]) == 2
    out, err = _capture(capsys)
    assert out == ""
    assert err == "error: --grade must be >= 0, got -1\n"


def test_xi_all_methods(capsys):
    assert run(["xi", "--n", "2", "--method", "all"]) == 0
    out, _ = _capture(capsys)
    lines = out.splitlines()
    assert lines[-1] == "CONSISTENT"
    values = {line.split(": ", 1)[1] for line in lines[:-1]}
    assert values == {"-1 + 4y^2 - (2x+3)y^4"}


def test_xi_latex(capsys):
    assert run(["xi", "--n", "1", "--format", "latex"]) == 0
    out, _ = _capture(capsys)
    assert out == "1 - y^{2}\n"


def test_special_json_schema(capsys):
    assert run(["special", "--k", "2", "--l", "1", "--format", "json"]) == 0
    out, _ = _capture(capsys)
    data = json.loads(out)
    assert set(data) == {"k", "l", "U", "V", "Z"}
    assert data["U"]["coeffs"] == ["-1", "-1"]
    assert quasipoly_from_json(data["Z"]) == z_mobius("11*").value


def test_fcheck(capsys):
    assert run(["fcheck", "--order", "3"]) == 0
    out, _ = _capture(capsys)
    assert out.startswith("OK")
    # F_ORDER_LIMIT is reachable, and the refusal beyond it names the constant
    assert run(["fcheck", "--order", "8"]) == 0
    out, _ = _capture(capsys)
    assert out == "OK: cleared-form identity holds through order 8\n"
    assert run(["fcheck", "--order", "9"]) == 2
    out, err = _capture(capsys)
    assert out == ""
    assert err == "error: order 9 exceeds the limit F_ORDER_LIMIT = 8\n"


def test_pde_check(capsys):
    assert run(["pde-check", "--n", "3"]) == 0
    out, _ = _capture(capsys)
    assert "coefficients z^1..z^3: all zero" in out
    assert "defect order: 4" in out


@pytest.mark.parametrize(
    "n, order, residual",
    [(1, 2, "1.973e-06"), (3, 4, "1.893e-11"), (6, 7, "8.137e-19"), (12, 13, "2.047e-33"),
     (18, 19, "5.889e-48")],
)
def test_pde_check_prints_the_pinned_residual(n, order, residual, capsys):
    # the whole stdout, so that a change of the residual's precision or
    # evaluator that moves a printed digit fails here
    assert run(["pde-check", "--n", str(n)]) == 0
    out, _ = _capture(capsys)
    assert out == (
        f"coefficients z^1..z^{n}: all zero\n"
        f"defect order: {order}\n"
        f"max residual on default grids: {residual}\n"
    )


@pytest.mark.parametrize(
    "argv", [["pde-check", "--n", "2"], ["verify", "--suite", "pde-coeff"]]
)
def test_pde_check_and_verify_take_no_prec(argv, capsys):
    # the PDE residual runs at one precision, so neither takes --prec
    assert run([*argv, "--prec", "128"]) == 2
    out, err = _capture(capsys)
    assert out == ""
    assert "unrecognized arguments: --prec 128" in err and "Traceback" not in err


def test_haar(capsys):
    assert run(["haar", "--word", "1*1*"]) == 0
    out, _ = _capture(capsys)
    assert out == "limit = -1\nderivative = 0\n"


@pytest.mark.parametrize("word", ["1*" * 7, "11*" + "1*" * 5 + "*"])
def test_word_cumulants_beyond_the_moebius_cap(word, capsys):
    from freeunitary import haar_cumulant, z_recursive

    # the default zpoly runs the recursion and haar the closed forms;
    # neither has a length cap
    assert len(word) == 14
    assert run(["zpoly", word]) == 0
    assert _capture(capsys)[0] == z_recursive(word).value.to_text() + "\n"
    assert run(["haar", "--word", word]) == 0
    # the signed-Catalan derivative rule vanishes on words of even length
    assert _capture(capsys)[0] == f"limit = {haar_cumulant(word)}\nderivative = 0\n"
    for method in ("mobius", "both"):
        assert run(["zpoly", word, "--method", method]) == 2
        out, err = _capture(capsys)
        assert out == ""
        assert "Z_LIMIT = 12" in err and "Traceback" not in err


def test_haar_reads_the_closed_forms_without_the_recursion(monkeypatch, capsys):
    from freeunitary import catalan, cumulants, switch_number

    def never(letters):
        raise AssertionError("the recursion ran")

    monkeypatch.setattr(cumulants, "_recursive_value", never)
    rng = Random(20141)
    word = "".join(rng.choice("1*") for _ in range(48))
    assert switch_number(word) < 47  # neither closed form applies
    cases = [
        (word, 0, 0),
        ("1*" * 20, -catalan(19), 0),
        ("1" + "*1" * 20, 0, catalan(20)),
    ]
    for w, limit, derivative in cases:
        assert run(["haar", "--word", w]) == 0
        assert _capture(capsys)[0] == f"limit = {limit}\nderivative = {derivative}\n"
        assert run(["haar", "--word", w, "--format", "json"]) == 0
        want = {"word": w, "limit": str(limit), "derivative": str(derivative)}
        assert json.loads(_capture(capsys)[0]) == want


@pytest.mark.parametrize(
    "suite, name", [("prop6.2", "haar_limit"), ("thm6.3", "haar_derivative")]
)
def test_haar_suites_catch_a_wrong_closed_form(suite, name, monkeypatch, capsys):
    from freeunitary import moments

    right = getattr(moments, name)
    monkeypatch.setattr(moments, name, lambda w: right(w) + (str(w) == "1*1"))
    assert run(["verify", "--suite", suite, "--max-n", "3"]) == 1
    out, _ = _capture(capsys)
    assert f"suite {suite}: FAIL (1 of 14 cases)" in out
    assert "input=1*1 " in out


def test_alpha_beta_from_file(tmp_path, capsys):
    path = tmp_path / "q.json"
    path.write_text(json.dumps(["1/2", "1/3", "-1/4", "2/5", "1/6"]))
    assert run(["alpha", "--k", "2", "--q-cumulants", str(path)]) == 0
    out, _ = _capture(capsys)
    assert out.splitlines()[0] == "alpha_1 = 7/12"
    assert run(["beta", "--k", "2", "--q-cumulants", str(path), "--method", "both"]) == 0
    out, _ = _capture(capsys)
    assert out.splitlines()[-1] == "CONSISTENT"


@pytest.mark.parametrize("command", ["alpha", "beta"])
def test_sequences_reach_the_ground_cap_at_q_equal_one(command, tmp_path, capsys):
    # q = 1: both sequences are the signed Catalan numbers
    path = tmp_path / "q.json"
    path.write_text(json.dumps(["1"] + ["0"] * 15))
    assert run([command, "--k", "8", "--q-cumulants", str(path)]) == 0
    out, _ = _capture(capsys)
    tag = " (mobius)" if command == "beta" else ""
    signed = [1, -1, 2, -5, 14, -42, 132, -429]
    assert out == "".join(f"{command}_{k}{tag} = {c}\n" for k, c in enumerate(signed, start=1))


def test_beta_json(tmp_path, capsys):
    path = tmp_path / "q.json"
    path.write_text(json.dumps(["1", "0", "0"]))
    assert run(["beta", "--k", "1", "--q-cumulants", str(path), "--format", "json"]) == 0
    out, _ = _capture(capsys)
    assert json.loads(out) == {"mobius": ["1"]}


def test_bad_q_cumulants_file(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"not": "a list"}')
    assert run(["alpha", "--k", "1", "--q-cumulants", str(path)]) == 2
    assert run(["alpha", "--k", "1", "--q-cumulants", str(tmp_path / "missing.json")]) == 2


def test_ncw(capsys):
    assert run(["ncw", "--word", "1*1"]) == 0
    out, _ = _capture(capsys)
    lines = out.splitlines()
    assert lines[0] == "count = 5"
    assert len(lines) == 6
    assert run(["ncw", "--word", "1*1", "--count-only", "--format", "json"]) == 0
    out, _ = _capture(capsys)
    assert json.loads(out) == {"count": 5, "word": "1*1"}


def test_nc(capsys):
    assert run(["nc", "--n", "4"]) == 0
    out, _ = _capture(capsys)
    assert out == "count = 14\n"
    assert run(["nc", "--n", "4", "--list"]) == 0
    out, _ = _capture(capsys)
    assert len(out.splitlines()) == 14
    assert run(["nc", "--n", "4", "--kreweras", "[[1,4],[2,3]]"]) == 0
    out, _ = _capture(capsys)
    assert out == "[[1,3],[2],[4]]\n"
    assert run(["nc", "--n", "4", "--moebius", "[[1],[2],[3],[4]]"]) == 0
    out, _ = _capture(capsys)
    assert out == "-5\n"


def test_nc_count_is_the_catalan_number(capsys):
    from freeunitary.ncpart import enumerate_nc

    for n in range(1, 11):
        assert run(["nc", "--n", str(n)]) == 0
        out, _ = _capture(capsys)
        assert out == f"count = {sum(1 for _ in enumerate_nc(n))}\n"
    for n in (0, 17):
        assert run(["nc", "--n", str(n)]) == 2
        out, err = _capture(capsys)
        assert out == ""
        assert err == f"error: ground size must be in 1..MAX_GROUND_SIZE = 16, got {n}\n"


def test_moments(capsys):
    assert run(["moments", "--word", "11"]) == 0
    out, _ = _capture(capsys)
    assert out == "-(x-1)y^2\n"


def test_verify_runs_every_suite_at_its_default_size(capsys):
    assert run(["verify"]) == 0
    lines = _capture(capsys)[0].splitlines()
    assert [line.split(":")[0] for line in lines[:-1]] == [f"suite {name}" for name in SUITES]
    assert all(": PASS (" in line for line in lines[:-1])
    assert lines[-1] == f"{len(SUITES)}/{len(SUITES)} suites passed" == "13/13 suites passed"


def test_verify_single_suite(capsys):
    assert run(["verify", "--suite", "example6.9"]) == 0
    out, _ = _capture(capsys)
    assert "suite example6.9: PASS" in out
    assert out.strip().endswith("1/1 suites passed")


@pytest.mark.parametrize(
    "suite, max_n, cases",
    [
        pytest.param("ncpart-lattice", 3, 3, id="ncpart-lattice"),
        pytest.param("z-two-path", 3, 14, id="z-two-path"),
        pytest.param("thm3.7", 3, 14, id="thm3.7"),
        pytest.param("thm3.7", 12, 8190, id="thm3.7-at-Z_LIMIT"),
        pytest.param("prop6.2", 3, 14, id="prop6.2"),
        pytest.param("thm6.3", 3, 14, id="thm6.3"),
        pytest.param("laplace-cross", 3, 8, id="laplace-cross"),
        pytest.param("remark4.5", 3, 7, id="remark4.5"),
        pytest.param("xi-three-path", 3, 11, id="xi-three-path"),
        pytest.param("pde-coeff", 3, 4, id="pde-coeff"),
        pytest.param("chi-roundtrip", 3, 9, id="chi-roundtrip"),
        pytest.param("prop6.7-cross", 3, 64, id="prop6.7-cross"),
        pytest.param("lemma6.11", 5, 13, id="lemma6.11"),
        pytest.param("example6.9", 3, 5, id="example6.9"),
    ],
)
def test_verify_respects_max_n(suite, max_n, cases, capsys):
    assert run(["verify", "--suite", suite, "--max-n", str(max_n)]) == 0
    out, err = _capture(capsys)
    note = f" [seed={DEFAULT_SEED}]" if suite == "prop6.7-cross" else ""
    assert out == f"suite {suite}: PASS ({cases} cases){note}\n1/1 suites passed\n"
    assert re.fullmatch(rf"suite {re.escape(suite)}: \d+\.\d\ds\n", err)


def test_verify_chi_roundtrip_passes_at_order_one(capsys):
    # the frozen chi_2 row lies beyond a truncation at order 1 and is skipped
    assert run(["verify", "--suite", "chi-roundtrip", "--max-n", "1"]) == 0
    out, _ = _capture(capsys)
    assert out == "suite chi-roundtrip: PASS (4 cases)\n1/1 suites passed\n"


def test_verify_reports_failing_checks_capped_at_twenty(monkeypatch, capsys):
    from freeunitary import cumulants

    def faulty(w):  # off by one on every word longer than one letter
        value = z_mobius(w).value
        return SimpleNamespace(value=value + 1 if len(w) > 1 else value)

    monkeypatch.setattr(cumulants, "z_recursive", faulty)
    assert run(["verify", "--suite", "z-two-path", "--max-n", "5"]) == 1
    out, err = _capture(capsys)
    lines = out.splitlines()
    assert lines[0] == "suite z-two-path: FAIL (60 of 62 cases)"
    want = z_mobius("**").value
    assert lines[1] == f"  input=** expected={want.to_text()} got={(want + 1).to_text()}"
    assert len(lines) == 1 + 20 + 2
    assert all(line.startswith("  input=") for line in lines[1:21])
    assert lines[21:] == ["  ... 40 more", "0/1 suites passed"]
    assert re.fullmatch(r"suite z-two-path: \d+\.\d\ds\n", err)


def test_verify_reports_an_exception_as_a_failed_suite(monkeypatch, capsys):
    from freeunitary import laplace

    def faulty(k):
        raise RuntimeError("injected")

    monkeypatch.setattr(laplace, "suffix_star_cumulant", faulty)
    assert run(["verify", "--suite", "remark4.5"]) == 1
    out, err = _capture(capsys)
    assert out == (
        "suite remark4.5: FAIL (1 of 0 cases)\n"
        "  input=<exception> expected=no exception got=RuntimeError('injected')\n"
        "0/1 suites passed\n"
    )
    assert "Traceback" not in err


def test_verify_failing_seeded_suite_echoes_the_seed(monkeypatch, capsys):
    from freeunitary import rdiag

    real = rdiag.beta_enumeration
    monkeypatch.setattr(rdiag, "beta_enumeration", lambda d, w, **kw: real(d, w, **kw) + 1)
    assert run(["verify", "--suite", "prop6.7-cross", "--seed", "123"]) == 1
    out, err = _capture(capsys)
    lines = out.splitlines()
    assert lines[0] == "suite prop6.7-cross: FAIL (40 of 64 cases) [seed=123]"
    first = re.fullmatch(
        r"  input=trial=0 k=2 d=Distribution\(\[.*\]\) expected=(\S+) got=(\S+)", lines[1]
    )
    assert Fraction(first[2]) == Fraction(first[1]) + 1
    assert lines[21:] == ["  ... 20 more", "0/1 suites passed"]
    assert re.fullmatch(r"suite prop6.7-cross: \d+\.\d\ds\n", err)


def test_verify_seed_is_echoed(capsys):
    assert run(["verify", "--suite", "prop6.7-cross", "--seed", "123"]) == 0
    out, _ = _capture(capsys)
    assert "[seed=123]" in out


def test_suite_names_are_stable():
    assert list(SUITES) == [
        "ncpart-lattice",
        "z-two-path",
        "thm3.7",
        "prop6.2",
        "thm6.3",
        "laplace-cross",
        "remark4.5",
        "xi-three-path",
        "pde-coeff",
        "chi-roundtrip",
        "prop6.7-cross",
        "lemma6.11",
        "example6.9",
    ]


def test_usage_errors(capsys):
    assert run([]) == 2
    assert run(["bogus"]) == 2
    assert run(["zpoly", "1x"]) == 2
    assert run(["verify", "--suite", "bogus"]) == 2
    assert run(["nc", "--n", "4", "--kreweras", "[[1,3],[2,4]]"]) == 2
    assert run(["xi", "--n", "0"]) == 2
    assert run(["--help"]) == 0


def test_byte_determinism(capsys):
    for args in (["zpoly", "1*1*"], ["verify", "--suite", "remark4.5"], ["special", "--k", "3", "--l", "2", "--format", "json"]):
        assert run(args) == 0
        first, _ = _capture(capsys)
        assert run(args) == 0
        second, _ = _capture(capsys)
        assert first == second


@pytest.mark.parametrize(
    "argv",
    [
        ["zpoly", "11*", "--eval", "1", "--prec", "0"],
        ["zpoly", "11*", "--eval", "1", "--prec", "-5"],
        ["xi", "--n", "3", "--eval", "1", "--prec", "1"],
        ["zpoly", "11*", "--eval", "1", "--prec", "10"],
    ],
)
def test_too_small_prec_is_refused(argv, capsys):
    assert run(argv) == 2
    out, err = _capture(capsys)
    assert out == ""
    assert "--prec" in err and "at least MIN_PREC = 53 bits" in err
    assert "Traceback" not in err


def test_smallest_prec_is_accepted(capsys):
    assert run(["zpoly", "11*", "--eval", "1", "--prec", "53"]) == 0
    out, _ = _capture(capsys)
    assert out.startswith("-0.16027033941577")


@pytest.mark.parametrize("command", ["alpha", "beta"])
def test_zero_denominator_in_q_cumulants_file(command, tmp_path, capsys):
    path = tmp_path / "q.json"
    path.write_text(json.dumps(["1/2", "1/0"]))
    assert run([command, "--k", "1", "--q-cumulants", str(path)]) == 2
    out, err = _capture(capsys)
    assert out == ""
    assert "'1/0'" in err and "Traceback" not in err


def test_kreweras_of_non_integer_block_is_refused(capsys):
    assert run(["nc", "--n", "3", "--kreweras", '[[1,"a"],[2]]']) == 2
    out, err = _capture(capsys)
    assert out == ""
    assert '[[1,"a"],[2]]' in err and "Traceback" not in err


def test_verify_refuses_max_n_zero(capsys):
    assert run(["verify", "--max-n", "0"]) == 2
    out, err = _capture(capsys)
    assert out == ""
    assert "--max-n" in err and "got 0" in err


@pytest.mark.parametrize(
    "suite,module,const",
    [("ncpart-lattice", "ncpart", "MAX_GROUND_SIZE")]
    + [(name, "cumulants", "Z_LIMIT")
       for name in ("z-two-path", "thm3.7", "prop6.2", "thm6.3")]
    + [("laplace-cross", "verify", "LAPLACE_LIMIT"),
       ("xi-three-path", "verify", "XI_THREE_PATH_LIMIT"),
       ("pde-coeff", "alternating", "PDE_LIMIT"),
       ("chi-roundtrip", "alternating", "CHI_ORDER_LIMIT")],
)
def test_verify_max_n_stops_at_the_suite_route_limit(suite, module, const, monkeypatch, capsys):
    # with the limit lowered to 3, --max-n 3 runs and --max-n 4 is refused
    # before the suite runs
    monkeypatch.setattr(f"freeunitary.{module}.{const}", 3)
    assert run(["verify", "--suite", suite, "--max-n", "3"]) == 0
    assert _capture(capsys)[0].startswith(f"suite {suite}: PASS")
    assert run(["verify", "--suite", suite, "--max-n", "4"]) == 2
    out, err = _capture(capsys)
    assert out == ""
    assert err == f"error: --max-n 4 exceeds the limit of suite {suite}: {const} = 3\n"


def test_verify_max_n_above_a_limit_runs_no_suite(monkeypatch, capsys):
    def never(args):
        raise AssertionError("a suite ran")

    for name in SUITES:
        monkeypatch.setitem(SUITES, name, never)
    assert run(["verify", "--max-n", "13"]) == 2
    out, err = _capture(capsys)
    assert out == ""
    assert "suite z-two-path: Z_LIMIT = 12" in err
    assert run(["verify", "--suite", "ncpart-lattice", "--max-n", "17"]) == 2
    assert "suite ncpart-lattice: MAX_GROUND_SIZE = 16" in _capture(capsys)[1]


def test_laplace_cross_cap_refuses_before_any_sum(monkeypatch, capsys):
    # the suite's own cap, not Z_LIMIT: 65 is refused before the recursion
    # or the closed form runs
    from freeunitary import cumulants, laplace, verify

    assert verify.LAPLACE_LIMIT == 64
    assert verify._max_n_limits()["laplace-cross"] == ("LAPLACE_LIMIT", 64)

    def never(*args):
        raise AssertionError("a sum ran before the refusal")

    for module, name in ((cumulants, "z_recursive"), (laplace, "z_from_laplace"),
                         (laplace, "u_poly"), (laplace, "v_poly"), (laplace, "v_k1_closed")):
        monkeypatch.setattr(module, name, never)
    assert run(["verify", "--suite", "laplace-cross", "--max-n", "65"]) == 2
    out, err = _capture(capsys)
    assert out == ""
    assert err == "error: --max-n 65 exceeds the limit of suite laplace-cross: LAPLACE_LIMIT = 64\n"


def test_xi_three_path_cap_refuses_before_any_sum(monkeypatch, capsys):
    # 53 is refused before any of the three xi routes runs
    from freeunitary import alternating, verify

    assert verify.XI_THREE_PATH_LIMIT == 52
    assert verify._max_n_limits()["xi-three-path"] == ("XI_THREE_PATH_LIMIT", 52)

    def never(*args):
        raise AssertionError("a sum ran before the refusal")

    for name in ("xi_by_recursion", "xi_by_inversion", "xi_by_mobius"):
        monkeypatch.setattr(alternating, name, never)
    assert run(["verify", "--suite", "xi-three-path", "--max-n", "53"]) == 2
    out, err = _capture(capsys)
    assert out == ""
    assert err == "error: --max-n 53 exceeds the limit of suite xi-three-path: XI_THREE_PATH_LIMIT = 52\n"


@pytest.mark.parametrize(
    "argv, named",
    [
        (["pde-check", "--n", "19"], "n_max 19 exceeds the limit PDE_LIMIT = 18"),
        (["pde-check", "--n", "1000000"], "PDE_LIMIT = 18"),
        (["verify", "--suite", "pde-coeff", "--max-n", "19"], "suite pde-coeff: PDE_LIMIT = 18"),
        (["verify", "--suite", "chi-roundtrip", "--max-n", "22"],
         "suite chi-roundtrip: CHI_ORDER_LIMIT = 21"),
    ],
)
def test_pde_and_round_trip_caps_refuse_before_any_sum(argv, named, monkeypatch, capsys):
    from freeunitary import alternating

    def never(n):
        raise AssertionError("a sum ran before the refusal")

    for name in ("xi_by_inversion", "chi_expansion", "lambda_series", "lagrange_lambda"):
        monkeypatch.setattr(alternating, name, never)
    assert run(argv) == 2
    out, err = _capture(capsys)
    assert out == ""
    assert named in err and "Traceback" not in err


@pytest.mark.parametrize(
    "argv",
    [
        ["zpoly", "1*1", "--method", "both", "--grade", "1"],
        ["zpoly", "1*1", "--method", "both", "--eval", "1"],
        ["xi", "--n", "2", "--method", "all", "--eval", "1"],
    ],
)
def test_cross_check_modes_refuse_flags_they_would_ignore(argv, capsys):
    assert run(argv) == 2
    out, err = _capture(capsys)
    assert out == ""
    assert "--method" in err and "Traceback" not in err


@pytest.mark.parametrize(
    "k, method, message",
    [
        ("0", "enumeration", "--k must be >= 1, got 0"),
        ("6", "both", "STRUCTURED_LIMIT = 4"),
    ],
)
def test_beta_refuses_k_before_any_sum(k, method, message, monkeypatch, tmp_path, capsys):
    from freeunitary import rdiag

    def never(d, k_max):
        raise AssertionError("a Moebius sum ran")

    monkeypatch.setattr(rdiag, "beta_mobius", never)
    path = tmp_path / "q.json"
    path.write_text(json.dumps(["1/2"] * 20))
    assert run(["beta", "--k", k, "--q-cumulants", str(path), "--method", method]) == 2
    out, err = _capture(capsys)
    assert out == ""
    assert message in err and "Traceback" not in err


def test_beta_enumeration_refuses_k_beyond_structured_limit(tmp_path, capsys):
    path = tmp_path / "q.json"
    path.write_text(json.dumps([f"1/{i}" for i in range(1, 11)]))
    assert run(["beta", "--k", "5", "--q-cumulants", str(path), "--method", "enumeration"]) == 2
    out, err = _capture(capsys)
    assert out == ""
    assert "k <= 4" in err and "STRUCTURED_LIMIT = 4" in err and "Traceback" not in err


@pytest.mark.parametrize("command", ["alpha", "beta"])
def test_sequences_refuse_k_above_the_ground_cap(command, tmp_path, capsys):
    # the refusal comes before any sum, with cumulants enough for k = 10
    path = tmp_path / "q.json"
    path.write_text(json.dumps(["1/2"] * 20))
    assert run([command, "--k", "9", "--q-cumulants", str(path)]) == 2
    out, err = _capture(capsys)
    assert out == ""
    assert "k_max must be <= 8" in err and "MAX_GROUND_SIZE = 16" in err
    assert "MOBIUS_K_LIMIT = MAX_GROUND_SIZE // 2" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "modes",
    [
        ["--list", "--kreweras", "[[1,2],[3]]"],
        ["--list", "--moebius", "[[1,2],[3]]"],
        ["--kreweras", "[[1,2],[3]]", "--moebius", "[[1],[2],[3]]"],
    ],
)
def test_nc_modes_are_exclusive(modes, capsys):
    assert run(["nc", "--n", "3", *modes]) == 2
    out, err = _capture(capsys)
    assert out == ""
    assert "not allowed with argument" in err and "Traceback" not in err


_IMPORT_FOOTPRINT = """
import sys
before = set(sys.modules)
import freeunitary.cli as cli
watched = ("freeunitary", "json", "fractions", "mpmath")
print("imported", sorted(m for m in set(sys.modules) - before if m.split(".")[0] in watched))
cli.run(sys.argv[1:])
sys.stdout.flush()
print("loaded", sorted(m for m in sys.modules if m.startswith("freeunitary.") or m == "mpmath"))
"""
_BASE = ["freeunitary.cli", "freeunitary.errors"]
_RDIAG = [*_BASE, "freeunitary.moments", "freeunitary.ncpart", "freeunitary.rdiag"]
_WORDS = [*_BASE, "freeunitary.cumulants", "freeunitary.moments", "freeunitary.qpoly"]
_XI = [*_WORDS, "freeunitary.alternating"]
# one request per subcommand, and the freeunitary modules its process loads
_FOOTPRINTS = {
    "zpoly": (["zpoly", "1*1"], _WORDS),
    "xi": (["xi", "--n", "3"], _XI),
    "special": (["special", "--k", "2", "--l", "1"], [*_WORDS, "freeunitary.laplace"]),
    "fcheck": (["fcheck", "--order", "2"], [*_WORDS, "freeunitary.laplace"]),
    "pde-check": (["pde-check", "--n", "2"], [*_XI, "mpmath"]),
    "haar": (["haar", "--word", "1*1*1"], [*_BASE, "freeunitary.moments"]),
    "alpha": (["alpha", "--k", "2", "--q-cumulants", "q.json"], _RDIAG),
    "beta": (["beta", "--k", "2", "--q-cumulants", "q.json", "--format", "json"], _RDIAG),
    "ncw": (["ncw", "--word", "1*1", "--format", "json"], _RDIAG),
    "nc": (["nc", "--n", "4"], [*_BASE, "freeunitary.ncpart"]),
    "moments": (["moments", "--word", "11"], [*_BASE, "freeunitary.moments", "freeunitary.qpoly"]),
    "verify": (["verify", "--suite", "thm3.7"], [*_WORDS, "freeunitary.verify"]),
}


def test_cli_imports_only_the_layers_a_request_runs(in_q_dir):
    # a fresh process per request: haar reads its closed forms off the
    # letters, and alpha, beta and ncw print no quasi-polynomial
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    loaded = {}
    for command, (argv, _) in _FOOTPRINTS.items():
        proc = subprocess.run([sys.executable, "-c", _IMPORT_FOOTPRINT, *argv], env=env,
                              capture_output=True, text=True, check=True)
        lines = proc.stdout.splitlines()
        loaded[command] = (lines[0], lines[-1])
    # importing the CLI loads no layer, and no json or fractions
    imported = f"imported {['freeunitary', *_BASE]}"
    assert loaded == {command: (imported, f"loaded {sorted(modules)}")
                      for command, (_, modules) in _FOOTPRINTS.items()}


def test_the_suite_names_live_in_verify(capsys):
    # the forward perfbench reads, and the --suite choices, are verify's
    from freeunitary import cli, verify

    assert cli.SUITES is verify.SUITES
    assert cli._XI_ROWS is verify._XI_ROWS
    choices = re.search(r"--suite \{(.*?)\}", _help(["verify"], capsys))[1].split(",")
    assert choices == sorted(verify.SUITES)


_COMMANDS = list(_FOOTPRINTS)


def test_a_request_builds_only_its_own_subparser():
    from freeunitary.cli import build_parser

    def subparsers(parser):
        return next(a for a in parser._actions if a.dest == "command").choices

    full = subparsers(build_parser())
    assert list(full) == _COMMANDS
    for command in _COMMANDS:
        alone = subparsers(build_parser(command))
        assert list(alone) == [command]
        # the subparser's help reads the same alone as among the others
        assert alone[command].format_help() == full[command].format_help()
    for unknown in ("bogus", "-h", "zpo"):
        assert list(subparsers(build_parser(unknown))) == _COMMANDS


@pytest.mark.parametrize("argv", [["bogus"], [], ["zpoly", "1*", "--bogus"]], ids=repr)
def test_top_level_errors_list_every_subcommand(argv, capsys):
    assert run(argv) == 2
    out, err = _capture(capsys)
    assert out == ""
    assert "{" + ",".join(_COMMANDS) + "}" in err


@pytest.mark.parametrize(
    "argv, named",
    [
        (["xi", "--n", "7", "--method", "mobius"], "Moebius limit Z_LIMIT = 12"),
        (["ncw", "--word", "1*1*1*1*", "--count-only"], "BRUTE_LIMIT // 2 = 7"),
        # Fraction("1e9999999") alone takes seconds, and --eval costs grow with the digits of T
        (["zpoly", "1*", "--eval", "1e9999999"], "MAX_EXPONENT = 4300"),
        (["zpoly", "1*", "--eval", str(10**300 + 1)], "10^MAX_EVAL_EXPONENT = 10^300"),
        (["zpoly", "1*", "--eval=-1e301"], "10^MAX_EVAL_EXPONENT = 10^300"),
        (["alpha", "--k", "1", "--q-cumulants", "q_big.json"], "MAX_EXPONENT = 4300"),
        (["beta", "--k", "1", "--q-cumulants", "q_big.json"], "MAX_EXPONENT = 4300"),
        # alpha_1 of 10^4300 has 8601 digits, more than Python turns into text
        (["alpha", "--k", "1", "--q-cumulants", "q_wide.json"], "MAX_DIGITS = 4300"),
        (["beta", "--k", "1", "--q-cumulants", "q_long.json"], "MAX_DIGITS = 4300"),
    ],
)
def test_refusals_name_their_constant(argv, named, tmp_path, monkeypatch, capsys):
    from freeunitary import cumulants

    def never(word):
        raise AssertionError("a sum ran before the refusal")

    monkeypatch.setattr(cumulants, "z_recursive", never)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "q_big.json").write_text(json.dumps(["1e9999999"]))
    (tmp_path / "q_wide.json").write_text(json.dumps(["1e4300", "1"]))
    (tmp_path / "q_long.json").write_text(json.dumps(["1" * 4301]))
    start = time.monotonic()
    assert run(argv) == 2
    assert time.monotonic() - start < 1
    out, err = _capture(capsys)
    assert out == ""
    assert named in err and "Traceback" not in err and "Exceeds the limit" not in err


def test_xi_all_refuses_beyond_the_moebius_cap_before_any_route(monkeypatch, capsys):
    from freeunitary import alternating

    def refuse(n_max):
        raise AssertionError("a route ran before the refusal")

    for name in ("xi_by_recursion", "xi_by_inversion", "_xi_closed"):
        monkeypatch.setattr(alternating, name, refuse)
    assert run(["xi", "--n", "50", "--method", "all"]) == 2
    out, err = _capture(capsys)
    assert out == ""
    assert "Moebius limit Z_LIMIT = 12" in err and "Traceback" not in err


def _xi_stdout(capsys, *argv):
    assert run(["xi", *argv]) == 0
    out, err = _capture(capsys)
    assert err == ""
    return out


def test_xi_default_route_prints_what_the_recursion_prints(monkeypatch, capsys):
    from freeunitary import alternating

    # the default is the closed inversion sum for xi_n alone, checked as
    # XiSequence checks its entries
    calls, checked = [], []
    closed, check = alternating._xi_closed, alternating.check_xi
    monkeypatch.setattr(alternating, "_xi_closed", lambda n: calls.append(n) or closed(n))
    monkeypatch.setattr(alternating, "check_xi", lambda n, q: checked.append(n) or check(n, q))
    for k in range(1, 13):
        calls.clear(), checked.clear()
        default = _xi_stdout(capsys, "--n", str(k))
        assert calls == checked == [k]
        assert default == _xi_stdout(capsys, "--n", str(k), "--method", "recursion")
    rec = _xi_stdout(capsys, "--n", "30", "--method", "recursion")
    assert _xi_stdout(capsys, "--n", "30", "--method", "inversion") == rec


def test_eval_at_the_bound_prints_a_value(capsys):
    assert run(["zpoly", "1*", "--eval", "1e300"]) == 0
    assert _capture(capsys)[0] == "1.0\n"


@pytest.mark.parametrize(
    "argv", [["pde-check", "--n", "6"], ["verify", "--suite", "pde-coeff"]]
)
def test_pde_checks_build_xi_once_by_inversion(argv, monkeypatch, capsys):
    # the defect is checked on the closed xi_n, not on the recursion that
    # solves the very z-coefficient equations under test
    from freeunitary import alternating

    calls = []
    build = alternating.xi_by_inversion

    def counted(n_max):
        calls.append(n_max)
        return build(n_max)

    def refuse(n_max):
        raise AssertionError("the PDE check must not run the recursion it tests")

    monkeypatch.setattr(alternating, "xi_by_inversion", counted)
    monkeypatch.setattr(alternating, "xi_by_recursion", refuse)
    assert run(argv) == 0
    assert calls == [6]


def test_closed_stdout_exits_141_quietly():
    # The listing (about 570 KB) overflows the pipe, so the CLI is still
    # writing when the reader goes away.
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    argv = [sys.executable, "-m", "freeunitary.cli", "nc", "--n", "10", "--list"]
    with subprocess.Popen(argv, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        assert proc.stdout.read(16).startswith(b"[[1")
        proc.stdout.close()
        err = proc.stderr.read()
        code = proc.wait(timeout=60)
    assert code == 141
    assert err == b""


def test_a_word_past_the_recursion_depth_exits_2_without_a_traceback():
    # 2000 letters pass Python's default depth on 3.10 to 3.12 alike; 3.12
    # inlines comprehensions, so it reaches about twice as deep as 3.11
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    argv = [sys.executable, "-m", "freeunitary.cli", "zpoly", "1" * 2000 + "*"]
    proc = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert re.fullmatch(r"error: word length 2001 [^\n]*\n", proc.stderr)


# One sample input for every subcommand that takes --format, and the choices
# it offers; latex only where a LaTeX form exists.
_SAMPLE_Q = ["1/2", "1/3", "-1/4", "2/5", "1/6", "0"]
_FORMATS = {
    "zpoly": (["zpoly", "11*"], ("text", "latex", "json")),
    "xi": (["xi", "--n", "2"], ("text", "latex", "json")),
    "special": (["special", "--k", "2", "--l", "1"], ("text", "latex", "json")),
    "moments": (["moments", "--word", "11"], ("text", "latex", "json")),
    "haar": (["haar", "--word", "1*1*1"], ("text", "json")),
    "alpha": (["alpha", "--k", "2", "--q-cumulants", "q.json"], ("text", "json")),
    "beta": (["beta", "--k", "2", "--q-cumulants", "q.json"], ("text", "json")),
    "ncw": (["ncw", "--word", "1*1"], ("text", "json")),
}
# the cross-checks print one object too: a key per route and "consistent"
_JSON_RUNS = [argv for argv, _ in _FORMATS.values()] + [
    ["zpoly", "1*1*", "--method", "both"],
    ["xi", "--n", "2", "--method", "all"],
    ["beta", "--k", "2", "--q-cumulants", "q.json", "--method", "both"],
    ["ncw", "--word", "1*1", "--count-only"],
    ["zpoly", "1*1*", "--grade", "4"],
]


@pytest.fixture
def in_q_dir(tmp_path, monkeypatch):
    """Run in a fresh directory that holds the sample q.json."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "q.json").write_text(json.dumps(_SAMPLE_Q))


def _help(argv, capsys):
    assert run([*argv, "--help"]) == 0
    return _capture(capsys)[0]


def test_format_choices_are_the_listed_ones(capsys):
    commands = re.search(r"\{(.*?)\}", _help([], capsys))[1].split(",")
    offered = {}
    for command in commands:
        found = re.search(r"--format \{(.*?)\}", _help([command], capsys))
        if found:
            offered[command] = tuple(found[1].split(","))
    assert offered == {command: choices for command, (_, choices) in _FORMATS.items()}


def test_every_cross_checking_method_option_labels_its_routes(capsys):
    # each subcommand with a cross-checking --method says what the check does
    commands = re.search(r"\{(.*?)\}", _help([], capsys))[1].split(",")
    crossing = []
    for command in commands:
        text = " ".join(_help([command], capsys).split())
        found = re.search(r"--method \{(.*?)\}", text)
        if found and {"both", "all"} & set(found[1].split(",")):
            crossing.append(command)
            assert "cross-checks and exits 1 on mismatch" in text, command
    assert crossing == ["zpoly", "xi", "beta"]
    beta = " ".join(_help(["beta"], capsys).split())
    assert "mobius, the default, sums over NC(k)" in beta
    assert "enumeration sums over the support sets, for k up to STRUCTURED_LIMIT" in beta


@pytest.mark.parametrize("command", list(_FORMATS))
def test_each_format_choice_prints_its_own_output(command, in_q_dir, capsys):
    argv, choices = _FORMATS[command]
    outputs = set()
    for fmt in choices:
        assert run([*argv, "--format", fmt]) == 0
        outputs.add(_capture(capsys)[0])
    assert len(outputs) == len(choices)


@pytest.mark.parametrize("argv", _JSON_RUNS, ids=" ".join)
def test_json_output_is_exactly_one_object(argv, in_q_dir, capsys):
    assert run([*argv, "--format", "json"]) == 0
    out, _ = _capture(capsys)
    assert out.count("\n") == 1 and out.endswith("}\n")
    data = json.loads(out)
    assert isinstance(data, dict)
    if "--method" in argv:
        assert data.pop("consistent") is True
        assert len(set(map(json.dumps, data.values()))) == 1


def test_cross_check_json_holds_every_route(capsys):
    assert run(["xi", "--n", "2", "--method", "all", "--format", "json"]) == 0
    data = json.loads(_capture(capsys)[0])
    assert set(data) == {"recursion", "mobius", "inversion", "consistent"}
    assert quasipoly_from_json(data["inversion"]) == z_mobius("1*1*").value


def _wrong_zpoly(monkeypatch):
    from freeunitary import cumulants

    real = cumulants.z_mobius
    monkeypatch.setattr(cumulants, "z_mobius", lambda w: SimpleNamespace(value=real(w).value + 1))
    return ["zpoly", "1*1*", "--method", "both"]


def _wrong_xi(monkeypatch):
    from freeunitary import alternating

    # t e^{-t} keeps every structural fact that check_xi asks of xi_2
    real = alternating._xi_closed
    monkeypatch.setattr(alternating, "_xi_closed", lambda n: real(n) + QuasiPoly({-2: Poly((0, 1))}))
    return ["xi", "--n", "2", "--method", "all"]


def _wrong_beta(monkeypatch):
    from freeunitary import rdiag

    real = rdiag.beta_enumeration
    monkeypatch.setattr(rdiag, "beta_enumeration", lambda d, w, **kw: real(d, w, **kw) + 1)
    return ["beta", "--k", "2", "--q-cumulants", "q.json", "--method", "both"]


@pytest.mark.parametrize("wrong", [_wrong_zpoly, _wrong_xi, _wrong_beta])
def test_a_wrong_route_is_inconsistent(wrong, in_q_dir, monkeypatch, capsys):
    argv = wrong(monkeypatch)
    assert run(argv) == 1
    out, err = _capture(capsys)
    assert out.splitlines()[-1] == "INCONSISTENT" and err == ""
    assert run([*argv, "--format", "json"]) == 1
    out, err = _capture(capsys)
    assert json.loads(out)["consistent"] is False and err == ""


@pytest.mark.parametrize("command", ["haar", "alpha", "beta", "ncw"])
def test_latex_is_refused_where_no_latex_form_exists(command, in_q_dir, capsys):
    argv, _ = _FORMATS[command]
    assert run([*argv, "--format", "latex"]) == 2
    out, err = _capture(capsys)
    assert out == ""
    assert "invalid choice: 'latex'" in err and "Traceback" not in err


@pytest.mark.parametrize(
    "argv",
    [
        ["zpoly", "11*", "--eval", "1"],
        ["xi", "--n", "3", "--eval", "1"],
        ["moments", "--word", "11*", "--eval", "1"],
    ],
)
def test_prec_above_max_prec_is_refused(argv, capsys):
    from freeunitary.cli import MAX_PREC

    assert MAX_PREC == 16384
    assert run([*argv, "--prec", str(MAX_PREC + 1)]) == 2
    out, err = _capture(capsys)
    assert out == ""
    assert f"--prec: must be at most MAX_PREC = {MAX_PREC} bits, got {MAX_PREC + 1}" in err
    assert "Traceback" not in err


def test_max_prec_is_accepted(capsys):
    from freeunitary.cli import MAX_PREC

    assert run(["zpoly", "11*", "--eval", "1", "--prec", str(MAX_PREC)]) == 0
    out, _ = _capture(capsys)
    assert out.startswith("-0.16027033941577376573")
    assert len(out) > 4900  # about 0.301 digits per bit


@pytest.mark.parametrize(
    "command, k, supplied, message",
    [
        ("alpha", 7, 13, "alpha_7 needs kappa_1..kappa_14, but only 13"),
        ("beta", 7, 11, "beta_7 needs kappa_1..kappa_13, but only 11"),
        ("beta --method enumeration", 3, 4, "beta_3 needs kappa_1..kappa_5, but only 4"),
        ("beta --method both", 3, 4, "beta_3 needs kappa_1..kappa_5, but only 4"),
    ],
)
def test_sequences_refuse_short_data_before_any_sum(
    command, k, supplied, message, tmp_path, monkeypatch, capsys
):
    from freeunitary import rdiag

    def never(*args, **kwargs):
        raise AssertionError("a sum ran")

    for name in ("_weight_table", "mixed_q_cumulant", "beta_enumeration"):
        monkeypatch.setattr(rdiag, name, never)
    path = tmp_path / "q.json"
    path.write_text(json.dumps(["1/2"] * supplied))
    assert run([*command.split(), "--k", str(k), "--q-cumulants", str(path)]) == 2
    out, err = _capture(capsys)
    assert out == ""
    assert message in err and "Traceback" not in err
