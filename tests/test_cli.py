"""End-to-end tests for the command-line front end."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from freeunitary import quasipoly_from_json, z_mobius
from freeunitary.cli import SUITES, run


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


def test_verify_respects_max_n(capsys):
    assert run(["verify", "--suite", "ncpart-lattice", "--max-n", "4"]) == 0
    out, _ = _capture(capsys)
    assert "PASS (4 cases)" in out


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


def test_beta_enumeration_refuses_k_beyond_structured_limit(tmp_path, capsys):
    path = tmp_path / "q.json"
    path.write_text(json.dumps([f"1/{i}" for i in range(1, 11)]))
    assert run(["beta", "--k", "5", "--q-cumulants", str(path), "--method", "enumeration"]) == 2
    out, err = _capture(capsys)
    assert out == ""
    assert "k <= 4" in err and "Traceback" not in err


_IMPORT_FOOTPRINT = """
import sys
import freeunitary.cli as cli
heavy = ("mpmath", "freeunitary.alternating", "freeunitary.laplace", "freeunitary.rdiag")
print(sorted(m for m in heavy if m in sys.modules))
cli.run(["zpoly", "1*1"])
print(sorted(m for m in ("mpmath", "freeunitary.rdiag") if m in sys.modules))
"""


def test_cli_imports_only_the_layers_a_request_runs():
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.run([sys.executable, "-c", _IMPORT_FOOTPRINT], env=env,
                          capture_output=True, text=True, check=True)
    assert proc.stdout.splitlines() == ["[]", "-y + (x+1)y^3", "[]"]
