"""The package namespace: public names and layers bound on first use."""

import ast
import importlib
import inspect
import json
import os
import random
import subprocess
import sys
import typing
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


# every module of the package but __init__ (its namespace) and cli/__main__
# (which runs a request when it is imported), by its dotted name
MODULES = sorted(
    ".".join(("freeunitary", *path.relative_to(SRC / "freeunitary").with_suffix("").parts))
    .removesuffix(".__init__")
    for path in (SRC / "freeunitary").rglob("*.py")
    if path.name != "__main__.py" and path != SRC / "freeunitary" / "__init__.py"
)


def _module_path(name):
    path = SRC.joinpath(*name.split("."))
    return path / "__init__.py" if path.is_dir() else path.with_suffix(".py")


def _executed(node):
    """The nodes of a module that run when it is imported: all but the
    bodies of its functions."""
    for child in ast.iter_child_nodes(node):
        if not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            yield child
            yield from _executed(child)


def _load_closure(name, seen):
    """Add to seen the freeunitary module name, its packages, and what each
    of them imports when it is imported, read off its relative imports."""
    if name in seen:
        return
    seen.add(name)
    path = _module_path(name)
    package = name if path.name == "__init__.py" else name.rpartition(".")[0]
    if package != name:
        _load_closure(package, seen)
    for node in _executed(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom) and node.level:
            base = package.rsplit(".", node.level - 1)[0]
            target = f"{base}.{node.module}" if node.module else base
            _load_closure(target, seen)
            for alias in node.names:
                if _module_path(f"{target}.{alias.name}").exists():
                    _load_closure(f"{target}.{alias.name}", seen)


@pytest.mark.parametrize("name", MODULES)
def test_importing_a_module_loads_only_what_it_imports(name):
    # `from . import layer` before that layer is bound on the package falls
    # into freeunitary.__getattr__, which imports every layer: a fresh import
    # of each module loads only the package modules its top level imports
    code = (
        "import importlib, json, sys\n"
        f"importlib.import_module({name!r})\n"
        "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'freeunitary')))\n"
    )
    want = set()
    _load_closure(name, want)
    assert _fresh(code) == sorted(want)


def _defined_callables(module):
    """The functions a module defines, and the methods and properties of the
    classes it defines, private ones included, each by its qualified name."""
    for name, obj in vars(module).items():
        if getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            yield name, obj
        elif inspect.isclass(obj):
            for attr, member in vars(obj).items():
                member = getattr(member, "__func__", getattr(member, "fget", member))
                if inspect.isfunction(member) and member.__module__ == module.__name__:
                    yield f"{name}.{attr}", member


@pytest.mark.parametrize("name", MODULES)
def test_every_public_annotation_resolves(name):
    # annotations are strings (from __future__ import annotations), so a
    # name that is imported only where it is used fails here, not at
    # import.  Fraction and mpmath are deferred on purpose, so that integer
    # values load neither, and so are the layer types that the CLI handlers
    # and the verify suites import per request.
    from fractions import Fraction

    import mpmath

    from freeunitary.moments import Word
    from freeunitary.ncpart import NCPartition
    from freeunitary.rdiag import Distribution

    deferred = {"Fraction": Fraction, "mpmath": mpmath, "Word": Word,
                "NCPartition": NCPartition, "Distribution": Distribution}
    module = importlib.import_module(name)
    for qualname, func in _defined_callables(module):
        try:
            typing.get_type_hints(func, localns=deferred)
        except NameError as e:
            pytest.fail(f"{name}.{qualname}: {e}")


# the layer modules; __init__ binds the layers on first use, and the verify
# suites, like the CLI's handlers, import the layers each one runs
LAYER_FILES = sorted(path.name for path in (SRC / "freeunitary").glob("*.py")
                     if path.name not in ("__init__.py", "verify.py"))


@pytest.mark.parametrize("filename", LAYER_FILES)
def test_a_layer_imports_the_layers_it_uses_at_its_top(filename):
    tree = ast.parse((SRC / "freeunitary" / filename).read_text())
    deferred = sorted({
        (node.lineno, f"from {'.' * node.level}{node.module or ''} import")
        for scope in ast.walk(tree)
        if isinstance(scope, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        for node in ast.walk(scope)
        if isinstance(node, ast.ImportFrom) and node.level
    })
    assert deferred == []


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


# Each refusal of a value below its lower bound, at one below the bound:
# errors.check_at_least words every one of them alike.
_fu = freeunitary
LOWER_BOUNDS = {
    "TruncSeries1": (lambda: _fu.TruncSeries1(-1), "order must be >= 0, got -1"),
    "xi_by_recursion": (lambda: _fu.xi_by_recursion(0), "n_max must be >= 1, got 0"),
    "xi_by_mobius": (lambda: _fu.xi_by_mobius(0), "n_max must be >= 1, got 0"),
    "xi_by_inversion": (lambda: _fu.xi_by_inversion(0), "n_max must be >= 1, got 0"),
    "chi_expansion": (lambda: _fu.chi_expansion(0), "order must be >= 1, got 0"),
    "lambda_series": (lambda: _fu.lambda_series(0), "order must be >= 1, got 0"),
    "lagrange_lambda": (lambda: _fu.lagrange_lambda(0), "order must be >= 1, got 0"),
    "Distribution.point_mass_one": (
        lambda: _fu.Distribution.point_mass_one(0),
        "max_order must be >= 1, got 0",
    ),
    "Distribution.random_small": (
        lambda: _fu.Distribution.random_small(random.Random(0), 0),
        "max_order must be >= 1, got 0",
    ),
    "alpha_sequence": (lambda: _fu.alpha_sequence(_fu.Distribution([1]), 0), "k_max must be >= 1, got 0"),
    "nc_omega_structured": (lambda: _fu.nc_omega_structured(0), "k must be >= 1, got 0"),
    "v_k1_closed": (lambda: _fu.v_k1_closed(0), "k must be >= 1, got 0"),
    "suffix_star_cumulant": (lambda: _fu.suffix_star_cumulant(0), "k must be >= 1, got 0"),
    "check_f_identity": (lambda: _fu.check_f_identity(1), "order must be >= 2, got 1"),
    "biane_Q": (lambda: _fu.biane_Q(0), "Q index must be >= 1, got 0"),
    "diag_cumulant": (lambda: _fu.diag_cumulant(0), "order must be >= 1, got 0"),
    "catalan": (lambda: _fu.catalan(-1), "catalan index must be >= 0, got -1"),
    "NCPartition.zero": (lambda: _fu.NCPartition.zero(0), "ground size must be >= 1, got 0"),
    "xi --n 0": (["xi", "--n", "0"], "--n must be >= 1, got 0"),
    "pde-check --n 0": (["pde-check", "--n", "0"], "--n must be >= 1, got 0"),
    # the q-cumulants file is never opened: the refusal comes first
    "alpha --k 0": (["alpha", "--k", "0", "--q-cumulants", "absent.json"], "--k must be >= 1, got 0"),
    "beta --k 0": (["beta", "--k", "0", "--q-cumulants", "absent.json"], "--k must be >= 1, got 0"),
    "beta --k 0 --method enumeration": (
        ["beta", "--k", "0", "--q-cumulants", "absent.json", "--method", "enumeration"],
        "--k must be >= 1, got 0",
    ),
}


@pytest.mark.parametrize("name", list(LOWER_BOUNDS))
def test_lower_bound_refusals_share_one_wording(name, capsys):
    from freeunitary.cli import run

    call, message = LOWER_BOUNDS[name]
    if isinstance(call, list):
        assert run(call) == 2
        out = capsys.readouterr()
        assert (out.out, out.err) == ("", f"error: {message}\n")
    else:
        with pytest.raises(freeunitary.SizeError) as caught:
            call()
        assert str(caught.value) == message
