"""The package namespace: public names and layers bound on first use."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import freeunitary

SRC = Path(__file__).resolve().parent.parent / "src"
LAYERS = ("alternating", "cumulants", "errors", "laplace", "moments", "ncpart", "qpoly", "rdiag")

# __all__ as it stood when every layer was imported eagerly by __init__.py
PUBLIC = [
    "Distribution",
    "InsufficientDataError",
    "NCPartition",
    "OmegaNC",
    "Poly",
    "QuasiPoly",
    "SizeError",
    "StructureError",
    "TruncSeries1",
    "Word",
    "XiSequence",
    "ZPolynomial",
    "alpha_sequence",
    "as_word",
    "beta_enumeration",
    "beta_mobius",
    "biane_Q",
    "canonical_word",
    "catalan",
    "check_f_identity",
    "chi_expansion",
    "chi_roundtrip_defect",
    "diag_cumulant",
    "enumerate_nc",
    "f_bivariate",
    "haar_cumulant",
    "haar_derivative",
    "haar_limit",
    "is_alternating",
    "kreweras",
    "lagrange_lambda",
    "lambda_series",
    "m_poly",
    "mixed_q_cumulant",
    "moebius_from_zero",
    "moebius_to_one",
    "nc_omega",
    "nc_omega_structured",
    "pde_residual",
    "pde_z_coefficient",
    "poly_text",
    "suffix_star_cumulant",
    "switch_number",
    "u_poly",
    "v_k1_closed",
    "v_poly",
    "xi_by_inversion",
    "xi_by_mobius",
    "xi_by_recursion",
    "z_from_laplace",
    "z_mobius",
    "z_recursive",

]


def _fresh(code):
    """Stdout of a new interpreter that imports freeunitary from src/."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, check=True)
    return json.loads(proc.stdout)


def test_all_is_unchanged():
    assert freeunitary.__all__ == PUBLIC


def test_every_public_name_resolves_on_a_fresh_import():
    code = (
        "import json, sys, freeunitary as fu\n"
        "assert set(fu.__all__) <= set(dir(fu))\n"
        "found = {n: getattr(fu, n) for n in fu.__all__}\n"
        "layers = [m for k, m in sys.modules.items() if k.startswith('freeunitary.')]\n"
        "print(json.dumps([n for n, obj in found.items()\n"
        "                  if not any(vars(m).get(n) is obj for m in layers)]))\n"
    )
    assert _fresh(code) == []


def test_layer_attributes_resolve_without_a_submodule_import():
    code = (
        "import json, sys, freeunitary as fu\n"
        f"print(json.dumps([getattr(fu, name).__name__ for name in {LAYERS!r}]))\n"
    )
    assert _fresh(code) == [f"freeunitary.{name}" for name in LAYERS]


def test_first_access_loads_every_layer():
    code = (
        "import json, sys, freeunitary as fu\n"
        "before = sorted(k for k in sys.modules if k.startswith('freeunitary.'))\n"
        "fu.catalan\n"
        "after = sorted(k for k in sys.modules if k.startswith('freeunitary.'))\n"
        "print(json.dumps([before, after]))\n"
    )
    assert _fresh(code) == [[], [f"freeunitary.{name}" for name in LAYERS]]


def test_star_import_binds_every_name():
    code = (
        "import json\n"
        "from freeunitary import *\n"
        "import freeunitary\n"
        "print(json.dumps([n for n in freeunitary.__all__ if n not in globals()]))\n"
    )
    assert _fresh(code) == []


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        freeunitary.no_such_name


def test_submodule_outside_the_table_still_imports():
    code = "import json\nfrom freeunitary import cli\nprint(json.dumps(cli.__name__))\n"
    assert _fresh(code) == "freeunitary.cli"


# Two different values of each immutable value class, built by a thunk so
# that each call gives a fresh instance.
VALUES = {
    "Word": (lambda: freeunitary.Word.parse("1*1"), lambda: freeunitary.Word.parse("1**")),
    "NCPartition": (
        lambda: freeunitary.NCPartition(3, [[1, 3], [2]]),
        lambda: freeunitary.NCPartition(3, [[1], [2, 3]]),
    ),
    "ZPolynomial": (lambda: freeunitary.z_recursive("11*"), lambda: freeunitary.z_recursive("1*")),
    "XiSequence": (
        lambda: freeunitary.xi_by_recursion(3),
        lambda: freeunitary.xi_by_inversion(3),  # same entries, another route
    ),
    "TruncSeries1": (
        lambda: freeunitary.TruncSeries1(2, [1, 2]),
        lambda: freeunitary.TruncSeries1(3, [1, 2]),  # same coefficients, another order
    ),
    "Distribution": (
        lambda: freeunitary.Distribution(["1/2", 1]),
        lambda: freeunitary.Distribution([1, "1/2"]),
    ),
    "OmegaNC": (lambda: freeunitary.nc_omega("1*1"), lambda: freeunitary.nc_omega("1")),
}


@pytest.mark.parametrize("name", sorted(VALUES))
def test_value_classes_share_one_equality_hash_and_immutability(name):
    from freeunitary.errors import Frozen

    cls = getattr(freeunitary, name)
    assert issubclass(cls, Frozen)
    assert not {"__eq__", "__hash__", "__setattr__", "__delattr__"} & set(vars(cls))
    make_a, make_b = VALUES[name]
    a, b = make_a(), make_b()
    assert a == make_a() and hash(a) == hash(make_a())
    assert a != b and not a == b
    slots = tuple(getattr(a, slot) for slot in cls.__slots__)
    for bare in (slots, *slots, str(a), repr(a)):
        assert a != bare and bare != a
    for slot in cls.__slots__:
        with pytest.raises(AttributeError, match=f"^{name} is immutable$"):
            setattr(a, slot, getattr(b, slot))
    with pytest.raises(AttributeError, match=f"^{name} is immutable$"):
        a.extra = 1
    for slot in cls.__slots__:
        with pytest.raises(AttributeError, match=f"^{name} is immutable$"):
            delattr(a, slot)
    with pytest.raises(AttributeError, match=f"^{name} is immutable$"):
        del a.extra
    assert a == make_a()
