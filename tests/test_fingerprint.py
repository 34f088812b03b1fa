"""The committed output fingerprint: every pinned family reproduces its
hashes, and a changed value is named by family and input."""

import pytest

from freeunitary import QuasiPoly, cumulants
from freeunitary.cumulants import ZPolynomial
from fingerprint import FAMILIES, first_difference, load, orbits


@pytest.fixture(scope="module")
def pinned():
    return load()


def test_fingerprint_pins_every_family(pinned):
    assert list(pinned) == list(FAMILIES)


@pytest.mark.parametrize("family", list(FAMILIES))
def test_outputs_match_fingerprint(pinned, family):
    assert first_difference(family, pinned[family]) is None


def test_fingerprint_names_a_changed_13_letter_word(pinned, monkeypatch):
    words = [w for w in orbits(13) if len(w) == 13]
    target = words[len(words) // 2]
    real = cumulants.z_recursive

    def one_coefficient_off(w):
        z = real(w)
        if str(z.word) != target:
            return z
        return ZPolynomial(z.word, z.value + QuasiPoly({-13: 1}))  # t^0 y^13 gains 1

    monkeypatch.setattr(cumulants, "z_recursive", one_coefficient_off)
    assert first_difference("zpoly", pinned["zpoly"]) == f"zpoly: output for input {target!r} differs"
