"""Exact joint cumulants of a free unitary flow and its adjoint.

Everything is computed in exact rational arithmetic over the
quasi-polynomial ring Q[t, e^{-t/2}]; floats appear only when a caller
asks for a numeric evaluation at a specific time, and mpmath is imported
only then (QuasiPoly.eval, pde_residual).

The layers are bound on first use: importing the package, or one of its
submodules such as freeunitary.cli, loads no layer it does not need.  The
first access to a public name or to a layer attribute (freeunitary.rdiag)
imports every layer and binds all of them, with their public names, here.
"""

from importlib import import_module

__version__ = "0.1.0"

# public name -> the layer module that defines it
_EXPORTS = {
    "InsufficientDataError": "errors",
    "SizeError": "errors",
    "StructureError": "errors",
    "Poly": "qpoly",
    "QuasiPoly": "qpoly",
    "poly_text": "qpoly",
    "NCPartition": "ncpart",
    "catalan": "ncpart",
    "enumerate_nc": "ncpart",
    "kreweras": "ncpart",
    "moebius_from_zero": "ncpart",
    "moebius_to_one": "ncpart",
    "Word": "moments",
    "as_word": "moments",
    "biane_Q": "moments",
    "diag_cumulant": "moments",
    "m_poly": "moments",
    "haar_cumulant": "moments",
    "haar_derivative": "moments",
    "haar_limit": "moments",
    "is_alternating": "moments",
    "switch_number": "moments",
    "ZPolynomial": "cumulants",
    "canonical_word": "cumulants",
    "z_mobius": "cumulants",
    "z_recursive": "cumulants",
    "TruncSeries1": "alternating",
    "XiSequence": "alternating",
    "chi_expansion": "alternating",
    "chi_roundtrip_defect": "alternating",
    "lagrange_lambda": "alternating",
    "lambda_series": "alternating",
    "pde_residual": "alternating",
    "pde_z_coefficient": "alternating",
    "xi_by_inversion": "alternating",
    "xi_by_mobius": "alternating",
    "xi_by_recursion": "alternating",
    "check_f_identity": "laplace",
    "f_bivariate": "laplace",
    "suffix_star_cumulant": "laplace",
    "u_poly": "laplace",
    "v_k1_closed": "laplace",
    "v_poly": "laplace",
    "z_from_laplace": "laplace",
    "Distribution": "rdiag",
    "OmegaNC": "rdiag",
    "alpha_sequence": "rdiag",
    "beta_enumeration": "rdiag",
    "beta_mobius": "rdiag",
    "mixed_q_cumulant": "rdiag",
    "nc_omega": "rdiag",
    "nc_omega_structured": "rdiag",
}
_LAYERS = tuple(dict.fromkeys(_EXPORTS.values()))

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    # All layers at once: a tool that wraps the package's functions where it
    # finds them in sys.modules (perfbench/tracer.py) must see every layer.
    # Layers import each other as `from .layer import name`; a layer doing
    # `from . import layer` would re-enter this hook while it is loading.
    if name not in _EXPORTS and name not in _LAYERS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    namespace = globals()
    for layer in _LAYERS:
        namespace[layer] = import_module(f".{layer}", __name__)
    for public, layer in _EXPORTS.items():
        namespace[public] = getattr(namespace[layer], public)
    return namespace[name]


def __dir__():
    # dir() lists the public names before they are bound, as it did when
    # __init__ imported every layer
    return sorted(set(globals()) | set(_EXPORTS) | set(_LAYERS))
