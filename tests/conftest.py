import sys
from functools import reduce
from math import prod
from pathlib import Path

import pytest
from hypothesis import assume, settings
from hypothesis import strategies as st

sys.path.insert(0, str(Path(__file__).parent))

from edwards_isogeny import (COMPLETE, QUADRATIC, TWISTED, AffinePoint,
                             EdwardsCurve, ExceptionalInput, IsogenyChain,
                             OddIsogeny, OddKernel, PrimeField,
                             is_probable_prime)
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


def assert_cofactor_walk(curve, G, degrees):
    """The chain's kernels are those of the O(e^2) definition: step i's
    kernel is generated by K = prod(degrees[i+1:]) * G_i on its domain
    E_i, with G_i the image of G under the steps before it.  A chain
    kernel has no y sign, so its representatives' x are compared with
    x(K), ..., x(sK) from `scalar_mul`, and its codomain with that of
    the full-point kernel of K."""
    chain = IsogenyChain(curve, G, degrees)
    assert [step.degree for step in chain.steps] == degrees
    for i, step in enumerate(chain.steps):
        E, l = step.domain, step.degree
        K = E.scalar_mul(prod(degrees[i + 1:]), G)
        assert step.kernel.xs == [E.scalar_mul(j, K).x
                                  for j in range(1, l // 2 + 1)]
        full = OddIsogeny(OddKernel.from_generator(K, l, E))
        assert step.codomain_d == full.codomain_d
        G = step(G)
    assert G.is_identity()


def assert_images_match_the_full_map(curve, G, degrees, points):
    """Points carried as `images` and points given to chain(P), pushed
    by `odd_image` and the y-map, come out as the steps' full maps
    (`OddIsogeny.push`) composed one by one give them, and raise
    ExceptionalInput exactly where those do."""
    chain = IsogenyChain(curve, G, degrees)
    want = []
    for P in points:
        try:
            want.append(reduce(lambda Q, step: step(Q), chain.steps, P))
        except ExceptionalInput:
            want.append(None)
            with pytest.raises(ExceptionalInput):
                chain(P)
        else:
            assert chain(P) == want[-1]
    if None in want:
        with pytest.raises(ExceptionalInput):
            IsogenyChain(curve, G, degrees, images=points)
    else:
        carried = IsogenyChain(curve, G, degrees, images=points)
        assert carried.images == want
        assert carried.codomain.d == chain.codomain.d
