"""End-to-end tests for the command-line front end."""

import json
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest

from freeunitary import quasipoly_from_json, z_mobius
from freeunitary.cli import DEFAULT_SEED, SUITES, run


def _capture(capsys):
    out = capsys.readouterr()
    return out.out, out.err


def test_zpoly_text_example(capsys):
    assert run(["zpoly", "1*"]) == 0
    out, _ = _capture(capsys)
    assert out == "1 - y^2\n"


def test_zpoly_accepts_u_spelling(capsys):
    assert run(["zpoly", "uu*u"]) == 0
    first, _ = _capture(capsys)
    assert run(["zpoly", "11*"]) == 0
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


def test_pde_check(capsys):
    assert run(["pde-check", "--n", "3"]) == 0
    out, _ = _capture(capsys)
    assert "coefficients z^1..z^3: all zero" in out
    assert "defect order: 4" in out


def test_haar(capsys):
    assert run(["haar", "--word", "1*1*"]) == 0
    out, _ = _capture(capsys)
    assert out == "limit = -1\nderivative = 0\n"


@pytest.mark.parametrize("word", ["1*" * 7, "11*" + "1*" * 5 + "*"])
def test_word_cumulants_beyond_the_moebius_cap(word, capsys):
    from freeunitary import haar_cumulant, z_recursive

    # haar and the default zpoly run the recursion, which has no length cap
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


def test_alpha_beta_from_file(tmp_path, capsys):
    path = tmp_path / "q.json"
    path.write_text(json.dumps(["1/2", "1/3", "-1/4", "2/5", "1/6"]))
    assert run(["alpha", "--k", "2", "--q-cumulants", str(path)]) == 0
    out, _ = _capture(capsys)
    assert out.splitlines()[0] == "alpha_1 = 7/12"
    assert run(["beta", "--k", "2", "--q-cumulants", str(path), "--method", "both"]) == 0
    out, _ = _capture(capsys)
    assert out.splitlines()[-1] == "CONSISTENT"


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


def test_moments(capsys):
    assert run(["moments", "--word", "11"]) == 0
    out, _ = _capture(capsys)
    assert out == "-(x-1)y^2\n"


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
    ],
)
def test_too_small_prec_is_refused(argv, capsys):
    assert run(argv) == 2
    out, err = _capture(capsys)
    assert out == ""
    assert "--prec" in err and "at least 53 bits" in err
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
       for name in ("z-two-path", "thm3.7", "prop6.2", "thm6.3", "laplace-cross")],
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


def test_beta_enumeration_refuses_k_beyond_structured_limit(tmp_path, capsys):
    path = tmp_path / "q.json"
    path.write_text(json.dumps([f"1/{i}" for i in range(1, 11)]))
    assert run(["beta", "--k", "5", "--q-cumulants", str(path), "--method", "enumeration"]) == 2
    out, err = _capture(capsys)
    assert out == ""
    assert "k <= 4" in err and "Traceback" not in err


@pytest.mark.parametrize("command", ["alpha", "beta"])
def test_sequences_refuse_k_above_the_ground_cap(command, tmp_path, capsys):
    # k = 8 would first sum NC(16) for minutes; the refusal comes at once
    path = tmp_path / "q.json"
    path.write_text(json.dumps(["1/2"] * 20))
    assert run([command, "--k", "9", "--q-cumulants", str(path)]) == 2
    out, err = _capture(capsys)
    assert out == ""
    assert "k_max must be <= 8" in err and "MAX_GROUND_SIZE = 16" in err
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
import freeunitary.cli as cli
heavy = ("mpmath", "freeunitary.alternating", "freeunitary.laplace", "freeunitary.rdiag")
print(sorted(m for m in heavy if m in sys.modules))
cli.run(["zpoly", "1*1"])
print(sorted(m for m in ("mpmath", "freeunitary.rdiag") if m in sys.modules))
cli.run(["haar", "--word", "1*1*1"])
print(sorted(m for m in ("mpmath", "freeunitary.rdiag") if m in sys.modules))
"""


def test_cli_imports_only_the_layers_a_request_runs():
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.run([sys.executable, "-c", _IMPORT_FOOTPRINT], env=env,
                          capture_output=True, text=True, check=True)
    assert proc.stdout.splitlines() == [
        "[]", "-y + (x+1)y^3", "[]", "limit = 0", "derivative = 2", "[]"
    ]


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
