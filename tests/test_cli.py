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
from freeunitary.errors import SizeError, quote
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


@pytest.mark.parametrize("fmt,shown", [("text", "0"), ("json", '{"coeffs": []}')])
def test_zpoly_prints_an_absent_grade_as_zero(fmt, shown, capsys):
    assert run(["zpoly", "1*", "--grade", "5", "--format", fmt]) == 0
    assert _capture(capsys) == (shown + "\n", "")


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
    # F_ORDER_LIMIT is reachable; CAPS refuses one past it
    assert run(["fcheck", "--order", "8"]) == 0
    out, _ = _capture(capsys)
    assert out == "OK: cleared-form identity holds through order 8\n"


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
    # neither has a length cap (CAPS refuses --method mobius and both)
    assert len(word) == 14
    assert run(["zpoly", word]) == 0
    assert _capture(capsys)[0] == z_recursive(word).value.to_text() + "\n"
    assert run(["haar", "--word", word]) == 0
    # the signed-Catalan derivative rule vanishes on words of even length
    assert _capture(capsys)[0] == f"limit = {haar_cumulant(word)}\nderivative = 0\n"


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
        ("1*" * 7000, -catalan(6999), 0),  # about 4200 digits, under MAX_DIGITS
    ]
    for w, limit, derivative in cases:
        assert run(["haar", "--word", w]) == 0
        assert _capture(capsys)[0] == f"limit = {limit}\nderivative = {derivative}\n"
        assert run(["haar", "--word", w, "--format", "json"]) == 0
        want = {"word": w, "limit": str(limit), "derivative": str(derivative)}
        assert json.loads(_capture(capsys)[0]) == want


@pytest.mark.parametrize(
    "suite, name", [("prop6.2", "haar_cumulant"), ("thm6.3", "haar_first_order")]
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
    # a closed form, so past MAX_LIST_SIZE; CAPS refuses 17
    assert run(["nc", "--n", "13"]) == 0
    assert _capture(capsys) == ("count = 742900\n", "")
    assert run(["nc", "--n", "0"]) == 2
    assert _capture(capsys) == ("", "error: ground size must be >= 1, got 0\n")


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
        pytest.param("remark4.5", 64, 68, id="remark4.5-at-LAPLACE_LIMIT"),
        pytest.param("xi-three-path", 3, 11, id="xi-three-path"),
        pytest.param("pde-coeff", 3, 4, id="pde-coeff"),
        pytest.param("chi-roundtrip", 3, 9, id="chi-roundtrip"),
        pytest.param("lemma6.11", 5, 13, id="lemma6.11"),
        pytest.param("example6.9", 3, 5, id="example6.9"),
        pytest.param("example6.9", 4, 6, id="example6.9-at-STRUCTURED_LIMIT"),
    ],
)
def test_verify_respects_max_n(suite, max_n, cases, capsys):
    assert run(["verify", "--suite", suite, "--max-n", str(max_n)]) == 0
    out, err = _capture(capsys)
    note = f" [seed={DEFAULT_SEED}]" if suite == "prop6.7-cross" else ""
    assert out == f"suite {suite}: PASS ({cases} cases){note}\n1/1 suites passed\n"
    assert re.fullmatch(rf"suite {re.escape(suite)}: \d+\.\d\ds\n", err)


def test_every_suite_passes_at_max_n_one(capsys):
    assert run(["verify", "--max-n", "1"]) == 0
    assert _capture(capsys)[0].endswith("\n13/13 suites passed\n")


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


DEEP_JSON = "[" * 100_000  # past the decoder's recursion limit


@pytest.mark.parametrize(
    "argv",
    [
        ["nc", "--n", "4", "--kreweras", DEEP_JSON],
        ["nc", "--n", "4", "--moebius", DEEP_JSON],
        ["alpha", "--k", "1", "--q-cumulants", "deep.json"],
        ["beta", "--k", "1", "--q-cumulants", "deep.json"],
    ],
    ids=["kreweras", "moebius", "alpha", "beta"],
)
def test_deeply_nested_json_is_refused(argv, tmp_path, monkeypatch, capsys):
    (tmp_path / "deep.json").write_text(DEEP_JSON)
    monkeypatch.chdir(tmp_path)
    assert run(argv) == 2
    out, err = _capture(capsys)
    assert out == ""
    assert err.startswith("error: cannot parse ") and err.count("\n") == 1


def test_malformed_json_is_refused_naming_what_was_read(tmp_path, capsys):
    assert run(["nc", "--n", "4", "--moebius", "nope"]) == 2
    assert _capture(capsys) == (
        "", "error: cannot parse partition 'nope': Expecting value: line 1 column 1 (char 0)\n"
    )
    path = tmp_path / "q.json"
    path.write_text('["1/2",')
    assert run(["alpha", "--k", "1", "--q-cumulants", str(path)]) == 2
    out, err = _capture(capsys)
    assert out == ""
    assert err.startswith(f"error: cannot parse q-cumulants file {str(path)!r}: ")


def test_recursion_error_inside_a_route_is_not_refused(monkeypatch):
    # only the JSON decode turns a RecursionError into bad input
    from freeunitary import ncpart

    def deep(p):
        raise RecursionError("deep route")

    monkeypatch.setattr(ncpart, "kreweras", deep)
    with pytest.raises(RecursionError, match="deep route"):
        run(["nc", "--n", "4", "--kreweras", "[[1,4],[2,3]]"])


def test_verify_refuses_max_n_zero(capsys):
    assert run(["verify", "--max-n", "0"]) == 2
    assert _capture(capsys) == ("", "error: --max-n must be >= 1, got 0\n")


def test_a_suite_with_no_size_refuses_max_n_alone(capsys):
    # prop6.7-cross runs 20 seeded trials, which --max-n does not size
    assert run(["verify", "--suite", "prop6.7-cross", "--max-n", "3"]) == 2
    assert _capture(capsys) == ("", "error: suite prop6.7-cross has no size for --max-n to set\n")
    # among all the suites it still runs its fixed cases
    assert run(["verify", "--suite", "prop6.7-cross"]) == 0
    alone = _capture(capsys)[0].splitlines()[0]
    assert run(["verify", "--max-n", "3"]) == 0
    assert alone in _capture(capsys)[0].splitlines()


@pytest.mark.parametrize(
    "suite,module,const",
    [("ncpart-lattice", "ncpart", "MAX_GROUND_SIZE")]
    + [(name, "cumulants", "Z_LIMIT")
       for name in ("z-two-path", "thm3.7", "prop6.2", "thm6.3")]
    + [("laplace-cross", "verify", "LAPLACE_LIMIT"),
       ("remark4.5", "verify", "LAPLACE_LIMIT"),
       ("xi-three-path", "verify", "XI_THREE_PATH_LIMIT"),
       ("pde-coeff", "alternating", "PDE_LIMIT"),
       ("chi-roundtrip", "alternating", "CHI_ORDER_LIMIT"),
       ("lemma6.11", "rdiag", "BRUTE_LIMIT"),
       ("example6.9", "rdiag", "STRUCTURED_LIMIT")],
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
    assert err == f"error: suite {suite} --max-n 4 exceeds the limit {const} = 3\n"


def _never(*args, **kwargs):
    raise AssertionError("a sum ran before the refusal")


# Every size cap, just past it: argv, the one stderr line, and the routes
# that must not run (module.name under freeunitary; every verify suite is
# patched as well).  q.json holds 20 cumulants, enough for k = 10, so that
# alpha and beta meet the cap and not short data.
_XI_ROUTES = ("alternating.xi_by_recursion", "alternating.xi_by_inversion",
              "alternating.xi_by_mobius", "alternating._xi_closed", "alternating.check_xi")
_PDE_ROUTES = ("alternating.xi_by_inversion", "alternating.chi_expansion",
               "alternating.lambda_series", "alternating.lagrange_lambda")
_KL_ROUTES = ("laplace._row_products", "laplace.from_rows")
_Q = ["--q-cumulants", "q.json"]
CAPS = {
    "zpoly (1*)^7 --method mobius": (
        ["zpoly", "1*" * 7, "--method", "mobius"],
        "Moebius word length 14 exceeds the limit Z_LIMIT = 12",
        ("cumulants._mobius_value", "cumulants.z_recursive")),
    "zpoly (1*)^7 --method both": (
        ["zpoly", "1*" * 7, "--method", "both"],
        "Moebius word length 14 exceeds the limit Z_LIMIT = 12",
        ("cumulants._mobius_value", "cumulants.z_recursive")),
    "xi --n 7 --method mobius": (
        ["xi", "--n", "7", "--method", "mobius"],
        "Moebius word length 14 exceeds the limit Z_LIMIT = 12",
        ("alternating.z_mobius", "alternating.xi_by_recursion")),
    "xi --n 50 --method all": (
        ["xi", "--n", "50", "--method", "all"],
        "Moebius word length 100 exceeds the limit Z_LIMIT = 12", _XI_ROUTES),
    "verify --max-n 13": (
        ["verify", "--max-n", "13"],
        "suite z-two-path --max-n 13 exceeds the limit Z_LIMIT = 12", ()),
    "nc --n 17": (
        ["nc", "--n", "17"],
        "ground size 17 exceeds the limit MAX_GROUND_SIZE = 16", ("ncpart.catalan",)),
    "verify --suite ncpart-lattice --max-n 17": (
        ["verify", "--suite", "ncpart-lattice", "--max-n", "17"],
        "suite ncpart-lattice --max-n 17 exceeds the limit MAX_GROUND_SIZE = 16", ()),
    "nc --n 13 --list": (
        ["nc", "--n", "13", "--list"],
        "--list --n 13 exceeds the limit MAX_LIST_SIZE = 12", ("ncpart.enumerate_nc", "ncpart._parts")),
    "ncw --word 1*1*1*1*": (
        ["ncw", "--word", "1*1*1*1*", "--count-only"],
        "word length 8 exceeds the limit BRUTE_LIMIT = 7", ("rdiag._parts",)),
    **{f"{command} --k 9": (
        [command, "--k", "9", *_Q],
        "k_max 9 exceeds the limit MOBIUS_K_LIMIT = 8", ("rdiag._weight_table",))
       for command in ("alpha", "beta")},
    **{f"beta --k {k} --method {method}": (
        ["beta", "--k", str(k), *_Q, "--method", method],
        f"k {k} exceeds the limit STRUCTURED_LIMIT = 4",
        ("rdiag._weight_table", "rdiag.nc_omega_structured"))
       for k, method in ((5, "enumeration"), (6, "both"))},
    "fcheck --order 9": (
        ["fcheck", "--order", "9"],
        "order 9 exceeds the limit F_ORDER_LIMIT = 8", ("laplace.z_from_laplace",)),
    **{f"special --k {k} --l {l}": (
        ["special", "--k", str(k), "--l", str(l)],
        "k + l = 513 exceeds the limit KL_LIMIT = 512", _KL_ROUTES)
       for k, l in ((1, 512), (512, 1), (300, 213))},
    **{f"xi --n 351 --method {method}": (
        ["xi", "--n", "351", "--method", method],
        "--n 351 exceeds the limit MAX_XI_N = 350", _XI_ROUTES)
       for method in ("inversion", "recursion", "mobius", "all")},
    "xi --n 61 --method recursion": (
        ["xi", "--n", "61", "--method", "recursion"],
        "--n 61 exceeds the limit MAX_XI_RECURSION_N = 60", _XI_ROUTES),
    **{f"pde-check --n {n}": (
        ["pde-check", "--n", str(n)],
        f"n_max {n} exceeds the limit PDE_LIMIT = 18", _PDE_ROUTES)
       for n in (19, 1000000)},
    **{f"verify --suite {suite} --max-n {n}": (
        ["verify", "--suite", suite, "--max-n", str(n)],
        f"suite {suite} --max-n {n} exceeds the limit {const} = {n - 1}", routes)
       for suite, n, const, routes in (
           ("pde-coeff", 19, "PDE_LIMIT", _PDE_ROUTES),
           ("chi-roundtrip", 22, "CHI_ORDER_LIMIT", _PDE_ROUTES),
           ("laplace-cross", 65, "LAPLACE_LIMIT",
            ("cumulants.z_recursive", "laplace.z_from_laplace", "laplace.u_poly", "laplace.v_poly",
             "laplace.v_k1_closed")),
           ("remark4.5", 65, "LAPLACE_LIMIT", ("cumulants.z_recursive", "laplace.suffix_star_cumulant")),
           ("xi-three-path", 53, "XI_THREE_PATH_LIMIT", _XI_ROUTES),
           ("lemma6.11", 8, "BRUTE_LIMIT", ("rdiag._nc_omega_cached",)),
           ("example6.9", 5, "STRUCTURED_LIMIT", ("rdiag._nc_omega_cached", "rdiag.nc_omega_structured")))},
    "moments --word 1^1717": (
        ["moments", "--word", "1" * 1717],
        "letter excess 1717 exceeds the limit EXCESS_LIMIT = 1716", ("moments.biane_Q",)),
}
_SHAPE = re.compile(r".+ (\d+) exceeds the limit [A-Z_]+ = (\d+)")


@pytest.mark.parametrize("row", CAPS)
def test_every_cap_refuses_in_one_shape(row, tmp_path, monkeypatch, capsys):
    argv, line, routes = CAPS[row]
    shape = _SHAPE.fullmatch(line)
    assert shape and int(shape[1]) > int(shape[2])
    monkeypatch.chdir(tmp_path)
    (tmp_path / "q.json").write_text(json.dumps(["1/2"] * 20))
    for name in SUITES:
        monkeypatch.setitem(SUITES, name, _never)
    for route in routes:
        monkeypatch.setattr(f"freeunitary.{route}", _never)
    assert run(argv) == 2
    assert _capture(capsys) == ("", f"error: {line}\n")


def test_the_closed_forms_keep_the_special_cap_in_the_library():
    from freeunitary import laplace

    for route in (laplace.u_poly, laplace.v_poly, laplace.z_from_laplace):
        with pytest.raises(SizeError, match="k \\+ l = 513 exceeds the limit KL_LIMIT = 512"):
            route(2, 511)


_LONG = 100_000


@pytest.mark.parametrize(
    "argv",
    [
        ["nc", "--n", "4", "--moebius", DEEP_JSON],
        ["zpoly", "1*" * (_LONG // 4) + "x" + "*1" * (_LONG // 4 - 1) + "*"],
        ["zpoly", "1*", "--eval", "x" * _LONG],
        ["alpha", "--k", "1", "--q-cumulants", "q_long_entry.json"],
    ],
    ids=["deep-partition", "long-word", "long-eval", "long-q-entry"],
)
def test_a_long_bad_input_gives_one_short_error_line(argv, tmp_path, monkeypatch, capsys):
    # the message quotes a prefix of the input and its length, not all of it
    monkeypatch.chdir(tmp_path)
    (tmp_path / "q_long_entry.json").write_text(json.dumps(["1/2", "y" * _LONG]))
    assert run(argv) == 2
    out, err = _capture(capsys)
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1 and len(err.encode()) < 300
    assert f"... ({_LONG} characters)" in err


def test_a_long_bad_word_is_quoted_by_its_prefix(capsys):
    word = "1" * 59 + "x" + "1" * 40
    assert run(["zpoly", word]) == 2
    assert _capture(capsys)[1] == f"error: cannot parse word {word[:60]!r}... (100 characters) at 'x'\n"
    assert run(["zpoly", word[:60]]) == 2  # 60 characters are quoted whole, as before
    assert _capture(capsys)[1] == f"error: cannot parse word {word[:60]!r} at 'x'\n"


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
print("imported", *sorted(m for m in set(sys.modules) - before if m.split(".")[0] in watched))
cli.run(sys.argv[1:])
sys.stdout.flush()
watched = ("mpmath", "fractions", "decimal")
print("loaded", *sorted(m for m in sys.modules if m.startswith("freeunitary.") or m in watched))
"""
_BASE = ["freeunitary.cli", "freeunitary.errors"]
_COMMANDS_MODULE = "freeunitary.cli.commands"  # the subcommands, which every request loads
_FRACTIONS = ["decimal", "fractions"]  # fractions imports decimal
_RDIAG = ["freeunitary.moments", "freeunitary.ncpart", "freeunitary.qpoly", "freeunitary.rdiag"]
_WORDS = ["freeunitary.cumulants", "freeunitary.moments", "freeunitary.ncpart", "freeunitary.qpoly"]
_XI = [*_WORDS, "freeunitary.alternating"]
_CLOSED = ["freeunitary.laplace", "freeunitary.moments", "freeunitary.qpoly"]
# one request per subcommand, and the freeunitary modules its process loads
# besides _BASE and _COMMANDS_MODULE
_FOOTPRINTS = {
    "zpoly": (["zpoly", "1*1"], _WORDS),
    "xi": (["xi", "--n", "3"], _XI),
    "special": (["special", "--k", "2", "--l", "1"], _CLOSED),
    "fcheck": (["fcheck", "--order", "2"], _CLOSED),
    "pde-check": (["pde-check", "--n", "2"], [*_XI, "mpmath"]),
    "haar": (["haar", "--word", "1*1*1"], ["freeunitary.moments", "freeunitary.qpoly"]),
    "alpha": (["alpha", "--k", "2", "--q-cumulants", "q.json"], [*_RDIAG, *_FRACTIONS]),
    "beta": (["beta", "--k", "2", "--q-cumulants", "q.json", "--format", "json"],
             [*_RDIAG, *_FRACTIONS]),
    "ncw": (["ncw", "--word", "1*1", "--format", "json"], _RDIAG),
    "nc": (["nc", "--n", "4"], ["freeunitary.ncpart"]),
    "moments": (["moments", "--word", "11"], ["freeunitary.moments", "freeunitary.qpoly"]),
    "verify": (["verify", "--suite", "thm3.7"], [*_WORDS, "freeunitary.verify"]),
}
# more requests, in the same form: the other output formats and cross-checks
# of the value requests, --grade, --eval, nc reading a partition, the verify
# suite of the R-diagonal layer and the two suites of the Haar closed forms
_MORE_FOOTPRINTS = [
    (["zpoly", "1*1", "--format", "json"], _WORDS),
    (["zpoly", "1*1", "--format", "latex"], _WORDS),
    (["zpoly", "1*1", "--grade", "1"], _WORDS),
    (["zpoly", "1*1", "--method", "both"], _WORDS),
    (["zpoly", "1*1", "--eval", "1/2"], [*_WORDS, "mpmath", *_FRACTIONS]),
    (["xi", "--n", "3", "--method", "all"], _XI),
    (["special", "--k", "2", "--l", "1", "--format", "json"], _CLOSED),
    (["beta", "--k", "2", "--method", "both", "--q-cumulants", "q.json"],
     [*_RDIAG, *_FRACTIONS]),
    (["nc", "--n", "4", "--kreweras", "[[1,4],[2,3]]"], ["freeunitary.ncpart"]),
    (["verify", "--suite", "prop6.7-cross"],
     ["freeunitary.verify", *_RDIAG, *_FRACTIONS]),
    (["verify", "--suite", "prop6.2"], [*_WORDS, "freeunitary.verify"]),
    (["verify", "--suite", "thm6.3"], [*_WORDS, "freeunitary.verify"]),
]


def test_cli_imports_only_the_layers_a_request_runs(in_q_dir):
    # a fresh process per request: haar reads its closed forms off the
    # letters, and alpha, beta and ncw print no quasi-polynomial
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    requests = {" ".join(argv): (argv, modules)
                for argv, modules in [*_FOOTPRINTS.values(), *_MORE_FOOTPRINTS]}
    imported, loaded = {}, {}
    for request, (argv, _) in requests.items():
        proc = subprocess.run([sys.executable, "-c", _IMPORT_FOOTPRINT, *argv], env=env,
                              capture_output=True, text=True, check=True)
        lines = proc.stdout.splitlines()
        imported[request], loaded[request] = lines[0].split()[1:], lines[-1].split()[1:]
    # importing the CLI loads no layer and not the commands, and no json or fractions
    assert imported == {request: ["freeunitary", *_BASE] for request in requests}
    # every request loads the commands and the layers it runs
    assert loaded == {request: sorted([*_BASE, _COMMANDS_MODULE, *modules])
                      for request, (_, modules) in requests.items()}
    # a value prints from integers: zpoly, xi, special and moments in every
    # format and cross-check, pde-check, haar, ncw, nc and the verify suites
    # of the recursion and the Haar closed forms load neither fractions nor
    # decimal; a request that reads or prints a Fraction does
    fractions = {request for request, modules in loaded.items() if "fractions" in modules}
    assert {request for request, modules in loaded.items() if "decimal" in modules} == fractions
    assert not {request for request in loaded
                if request.split()[0] in ("zpoly", "xi", "special", "moments", "pde-check", "nc",
                                          "haar", "ncw")
                and "--eval" not in request} & fractions
    assert not {"verify --suite thm3.7", "verify --suite prop6.2", "verify --suite thm6.3"} & fractions
    assert {"zpoly 1*1 --eval 1/2", "alpha --k 2 --q-cumulants q.json",
            "beta --k 2 --q-cumulants q.json --format json"} <= fractions
    # special builds its cumulant without the recursion
    assert "freeunitary.cumulants" not in loaded["special --k 2 --l 1"]
    # python -m runs cli/__main__.py as __main__: a commands module that
    # imported freeunitary.cli.__main__ would run the dispatcher again
    argv, modules = _FOOTPRINTS["zpoly"]
    proc = subprocess.run([sys.executable, "-v", "-m", "freeunitary.cli", *argv],
                          env=env, capture_output=True, text=True, check=True)
    names = re.findall(r"^import '((?:freeunitary|mpmath)\b[^']*)'", proc.stderr, re.M)
    assert sorted(names) == sorted(["freeunitary", *_BASE, _COMMANDS_MODULE, *modules])


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
        (["zpoly", "1*", "--eval", "1" * 4301], "MAX_DIGITS = 4300"),
        (["ncw", "--word", "1*1*1*1*", "--count-only"], "BRUTE_LIMIT = 7"),
        # Fraction("1e9999999") alone takes seconds, and --eval costs grow with the digits of T
        (["zpoly", "1*", "--eval", "1e9999999"], "MAX_EXPONENT = 4300"),
        (["zpoly", "1*", "--eval", str(10**300 + 1)], "10^MAX_EVAL_EXPONENT = 10^300"),
        (["zpoly", "1*", "--eval=-1e301"], "10^MAX_EVAL_EXPONENT = 10^300"),
        (["alpha", "--k", "1", "--q-cumulants", "q_big.json"], "MAX_EXPONENT = 4300"),
        (["beta", "--k", "1", "--q-cumulants", "q_big.json"], "MAX_EXPONENT = 4300"),
        # alpha_1 of 10^4300 has 8601 digits, more than Python turns into text
        (["alpha", "--k", "1", "--q-cumulants", "q_wide.json"], "MAX_DIGITS = 4300"),
        (["beta", "--k", "1", "--q-cumulants", "q_long.json"], "MAX_DIGITS = 4300"),
        # the signed Catalan number of the stationary limit of (1*)^8000 has about 4800 digits
        (["haar", "--word", "1*" * 8000], "MAX_DIGITS = 4300"),
        (["haar", "--word", "1*" * 8000, "--format", "json"], "MAX_DIGITS = 4300"),
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
    assert err.startswith("error: ") and err.count("\n") == 1
    assert named in err and "Traceback" not in err and "Exceeds the limit" not in err


@pytest.mark.parametrize(
    "exponent", ["9" * 50, "9" * 4301, "-" + "9" * 4301], ids=["50 nines", "4301 nines", "-4301 nines"]
)
def test_long_exponents_are_refused_by_their_digits(exponent, capsys):
    # more than 4300 digits are past what int() reads, so the length of the
    # digit string alone must refuse them
    text = "1e" + exponent
    assert run(["zpoly", "1*", "--eval", text]) == 2
    message = f"error: rational {quote(text)} has an exponent beyond MAX_EXPONENT = 4300\n"
    assert _capture(capsys) == ("", message)


@pytest.mark.parametrize("sign", ["", "+", "-"])
def test_leading_zeros_of_an_exponent_are_not_digits(sign, capsys):
    # Fraction runs int() on the whole exponent, which refuses more than 4300 digits
    assert run(["zpoly", "1*", "--eval", f"1e{sign}5"]) == 0
    want = _capture(capsys)
    assert run(["zpoly", "1*", "--eval", f"1e{sign}{'0' * 4300}5"]) == 0
    assert _capture(capsys) == want


@pytest.mark.parametrize("sign", ["", "+", "-"])
def test_underscores_between_leading_zeros_of_an_exponent(sign, capsys):
    # the long literal parses where its short form 1e0_1 does: not on
    # Python 3.10, whose Fraction takes no underscores
    code = 0 if sys.version_info >= (3, 11) else 2
    assert run(["zpoly", "1*", "--eval", f"1e{sign}0_1"]) == code
    want = _capture(capsys)[0]
    if code == 0:
        assert run(["zpoly", "1*", "--eval", f"1e{sign}1"]) == 0
        assert _capture(capsys)[0] == want
    assert run(["zpoly", "1*", "--eval", f"1e{sign}0_{'0' * 4400}1"]) == code
    assert _capture(capsys)[0] == want
    # misplaced underscores stay misplaced as the zeros shrink
    for bad in (f"_0{'0' * 4400}1", f"0__{'0' * 4400}1", f"0_{'0' * 4400}_"):
        assert run(["zpoly", "1*", "--eval", f"1e{sign}{bad}"]) == 2
        assert _capture(capsys)[1].startswith("error: cannot parse rational ")


@pytest.mark.parametrize("tail", [[], ["--format", "json"], ["--format", "latex"], ["--grade", "1999"]])
def test_a_result_too_long_to_print_is_refused_by_name(tail, capsys):
    # one coefficient of about 6600 digits over 1999!, past what Python turns into text
    assert run(["zpoly", "1" * 1999, *tail]) == 2
    assert _capture(capsys) == ("", "error: a result has more than MAX_DIGITS = 4300 digits\n")


@pytest.mark.parametrize(
    "argv",
    [["zpoly", "1*1*1*", "--method", "both"], ["xi", "--n", "4", "--method", "all"],
     ["special", "--k", "3", "--l", "2"], ["special", "--k", "3", "--l", "2", "--format", "json"],
     ["moments", "--word", "1111"]],
    ids=" ".join,
)
def test_every_value_output_is_checked_before_it_prints(argv, monkeypatch, capsys):
    from freeunitary import cli

    monkeypatch.setattr(cli, "MAX_DIGITS", 0)
    assert run(argv) == 2
    assert _capture(capsys) == ("", "error: a result has more than MAX_DIGITS = 0 digits\n")


def test_lowest_terms_decide_whether_a_result_prints(monkeypatch, capsys):
    # Q_4 over its common denominator 3 has the numerators 3, -18, 24, -8,
    # but prints 1, -6, 8 and -8/3, as Q_1283 passes 4300 digits over one
    # denominator and prints
    from freeunitary import cli

    assert run(["moments", "--word", "1111"]) == 0
    want = _capture(capsys)
    monkeypatch.setattr(cli, "MAX_DIGITS", 1)
    assert run(["moments", "--word", "1111"]) == 0
    assert _capture(capsys) == want


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
    _xi_stdout(capsys, "--n", "61")  # past MAX_XI_RECURSION_N, which holds only the recursion


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


# main() ends the process once its output is flushed, with no teardown, so
# each test of it runs a fresh child: main() must not run in the test process.
def _child(*args: str, stdin: str = "", stdout=subprocess.PIPE) -> subprocess.CompletedProcess:
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    env.pop("PYTHONUNBUFFERED", None)  # stdout to a pipe is block-buffered, so a lost flush shows
    return subprocess.run([sys.executable, *args], env=env, input=stdin, stdout=stdout,
                          stderr=subprocess.PIPE, text=True, timeout=60)


def test_main_runs_the_atexit_callbacks():
    code = ("import atexit; atexit.register(print, 'atexit ran'); "
            "from freeunitary.cli import main; main()")
    proc = _child("-c", code, "zpoly", "1*")
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "1 - y^2\natexit ran\n", "")


@pytest.mark.parametrize("watcher,stdin,report", [
    (["-m", "cProfile"], "", "function calls"),
    (["-m", "pdb"], "continue\n", "The program exited via sys.exit()"),
    (["-i"], "", ">>> "),  # the prompt, on stderr
], ids=["cProfile", "pdb", "python -i"])
def test_main_exits_normally_when_watched(watcher, stdin, report):
    # each reports after main() returns, so main() must return
    proc = _child(*watcher, "-m", "freeunitary.cli", "zpoly", "1*1*", stdin=stdin)
    assert proc.returncode == 0
    _, value, after = proc.stdout.partition("-1 + 4y^2 - (2x+3)y^4\n")
    assert value
    assert report in after + proc.stderr


def test_main_delivers_every_line_to_a_reader_that_reads_to_eof(capsys):
    # about 570 KB, many times a pipe's buffer
    proc = _child("-m", "freeunitary.cli", "nc", "--n", "10", "--list")
    assert run(["nc", "--n", "10", "--list"]) == 0
    want, _ = _capture(capsys)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout.count("\n") == 16796
    assert proc.stdout == want


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("argv", [["zpoly", "1*"], ["--help"]])
def test_main_reports_a_full_disk_once(argv):
    # run() reports the failed flush of a value, main() that of the help,
    # which run() leaves unflushed
    with open("/dev/full", "w") as full:
        proc = _child("-m", "freeunitary.cli", *argv, stdout=full)
    assert (proc.returncode, proc.stderr) == (2, "error: [Errno 28] No space left on device\n")


def test_main_writes_the_suite_timing_to_stderr():
    proc = _child("-m", "freeunitary.cli", "verify", "--suite", "thm3.7")
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[-1] == "1/1 suites passed"
    assert re.fullmatch(r"suite thm3\.7: \d+\.\d\ds\n", proc.stderr)


def test_main_exits_1_on_an_inconsistent_cross_check():
    code = ("from types import SimpleNamespace; from freeunitary import cumulants; "
            "real = cumulants.z_mobius; "
            "cumulants.z_mobius = lambda w: SimpleNamespace(value=real(w).value + 1); "
            "from freeunitary.cli import main; main()")
    proc = _child("-c", code, "zpoly", "1*1*", "--method", "both")
    assert (proc.returncode, proc.stderr) == (1, "")
    assert proc.stdout.splitlines()[-1] == "INCONSISTENT"


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
