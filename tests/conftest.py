import sys
from pathlib import Path

import pytest
from hypothesis import assume, settings
from hypothesis import strategies as st

sys.path.insert(0, str(Path(__file__).parent))

from edwards_isogeny import (COMPLETE, QUADRATIC, TWISTED, AffinePoint,
                             EdwardsCurve, PrimeField, is_probable_prime)
from oracles import euler_chi, naive_translate_isogeny

DESK_PRIMES = [p for p in range(11, 104) if is_probable_prime(p)]

# A failing example also prints the `@reproduce_failure` blob that replays
# it, which this hypothesis version leaves off by default.
settings.register_profile("replayable", print_blob=True)
settings.load_profile("replayable")


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


@st.composite
def desk_curves(draw, classes=(COMPLETE, TWISTED, QUADRATIC)):
    """E_{a,d} over a random desk prime, of a class drawn from `classes`:
    a and d are drawn as squares or non-squares to fit it."""
    p = draw(st.sampled_from(DESK_PRIMES))
    cls = draw(st.sampled_from(classes))
    n = next(c for c in range(2, p) if euler_chi(c, p) == -1)
    if cls == COMPLETE:
        ka, kd = draw(st.sampled_from([(1, n), (n, 1)]))
    else:
        ka = kd = n if cls == TWISTED else 1
    square = st.integers(1, p - 1).map(lambda r: r * r % p)
    a, d = ka * draw(square) % p, kd * draw(square) % p
    assume(a != d)
    field = PrimeField(p)
    return EdwardsCurve(field, field(a), field(d))


def ladder_offsets(k: int) -> list[int]:
    """The a of each difference P + a*Q that `ladder3pt(k, ...)` meets,
    in order: its R0, R1, R2 tracked as multiples of Q over P."""
    r0, r1, r2, out = 1, 0, -1, []
    while k:
        if k & 1:
            out.append(r2)
            r1 += r0
        else:
            out.append(r1)
            r2 -= r0
        k >>= 1
        r0 *= 2
    return out
