import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from edwards_isogeny import AffinePoint, EdwardsCurve, PrimeField
from oracles import naive_translate_isogeny


@pytest.fixture
def f23():
    return PrimeField(23)


@pytest.fixture
def f19():
    return PrimeField(19)


@pytest.fixture
def e23(f23):
    """The worked complete supersingular curve at p = 23, d = -1."""
    return EdwardsCurve(f23, f23.one, f23(-1))


@pytest.fixture
def e19(f19):
    """The worked complete supersingular curve at p = 19, d = -1."""
    return EdwardsCurve(f19, f19.one, f19(-1))


def pt(curve, x, y) -> AffinePoint:
    return AffinePoint(curve.field(x), curve.field(y))


def translate_image(phi, P) -> AffinePoint:
    """phi(P) by the raw-integer translate-product oracle."""
    field = phi.domain.field
    kernel = [(Q.x.value, Q.y.value) for Q in phi.kernel.points]
    x, y = naive_translate_isogeny((P.x.value, P.y.value), kernel,
                                   field.p, phi.domain.d.value)
    return AffinePoint(field(x), field(y))
