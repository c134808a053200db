import sys
from math import prod
from pathlib import Path

import pytest
from hypothesis import assume, settings
from hypothesis import strategies as st

sys.path.insert(0, str(Path(__file__).parent))

from edwards_isogeny import (COMPLETE, QUADRATIC, TWISTED, AffinePoint,
                             EdwardsCurve, ExceptionalInput, FieldElement,
                             IsogenyChain, PrimeField, QuadExtField,
                             is_probable_prime)
from edwards_isogeny.isogeny import _carry
from oracles import (euler_chi, naive_codomain_d, naive_full_map,
                     naive_scalar_mul, naive_translate_isogeny)

DESK_PRIMES = [p for p in range(11, 104) if is_probable_prime(p)]

# A failing example also prints the `@reproduce_failure` blob that replays
# it, which this hypothesis version leaves off by default.  No example has
# a deadline: desk-scale scans and order walks vary too much in time.
settings.register_profile("replayable", print_blob=True, deadline=None)
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


def raw(v):
    """The ints of a field element: its value in F_p, (c0, c1) in F_{p^2}."""
    return v.value if isinstance(v, FieldElement) else (v._c0, v._c1)


def raw_point(P) -> tuple:
    return raw(P.x), raw(P.y)


def beta_of(field):
    """The oracles' beta: i^2 of F_{p^2}, None for F_p."""
    return field.beta if isinstance(field, QuadExtField) else None


def element_point(field, P) -> AffinePoint:
    """An oracle's raw (x, y) as a point of `field`."""
    return AffinePoint(*(field(*v) if isinstance(v, tuple) else field(v)
                         for v in P))


def oracle_kernel(Q, l: int, p: int, d: int, beta=None, a=1) -> list:
    """Q, 2Q, ..., sQ, l = 2s + 1, by repeated addition on raw ints."""
    return [naive_scalar_mul(j, Q, p, a, d, beta)
            for j in range(1, l // 2 + 1)]


def translate_image(phi, P) -> AffinePoint:
    """phi(P) by the raw-integer translate-product oracle, over the
    kernel that repeated addition makes from the generator of phi."""
    field, a, d = phi.domain.field, phi.domain.a.value, phi.domain.d.value
    kernel = oracle_kernel(raw_point(phi.kernel.generator), phi.degree,
                           field.p, d, a=a)
    return element_point(field, naive_translate_isogeny(
        raw_point(P), kernel, field.p, d, a=a))


@st.composite
def desk_curves(draw, classes=(COMPLETE, TWISTED, QUADRATIC),
                primes=DESK_PRIMES, a_one=False):
    """E_{a,d} over a random one of `primes`, of a class drawn from
    `classes`: a and d are drawn as squares or non-squares to fit it.
    With `a_one`, a = 1, so the class is complete or quadratic."""
    p = draw(st.sampled_from(primes))
    cls = draw(st.sampled_from(classes))
    n = next(c for c in range(2, p) if euler_chi(c, p) == -1)
    if cls == COMPLETE:
        ka, kd = draw(st.sampled_from([(1, n)] if a_one else [(1, n), (n, 1)]))
    else:
        ka = kd = n if cls == TWISTED else 1
    square = st.integers(1, p - 1).map(lambda r: r * r % p)
    a, d = (1 if a_one else ka * draw(square) % p), kd * draw(square) % p
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
    """The chain's kernels are those of the O(e^2) definition, on raw
    ints: step i's kernel is generated by K = prod(degrees[i+1:]) * G_i
    on its domain E_i, with G_i the image of G under the steps before it.
    A chain kernel has no y sign, so its representatives' x are compared
    with x(K), ..., x(sK) by repeated addition, its d' with a A^8 (d/a)^l,
    and G_i is carried by the full map of those x on the oracle's d; every
    E_i keeps the a of the domain."""
    chain = IsogenyChain(curve, G, degrees)
    assert [step.degree for step in chain.steps] == degrees
    p, beta = curve.field.p, beta_of(curve.field)
    G, a, d = raw_point(G), raw(curve.a), raw(curve.d)
    for i, step in enumerate(chain.steps):
        l = step.degree
        K = naive_scalar_mul(prod(degrees[i + 1:]), G, p, a, d, beta)
        xs = [Q[0] for Q in oracle_kernel(K, l, p, d, beta, a)]
        assert [raw(x) for x in step.kernel.xs] == xs
        G, d = (naive_full_map(G, xs, p, d, beta, a),
                naive_codomain_d(xs, p, d, l, beta, a))
        assert raw(step.codomain_d) == d
    assert G == raw_point(chain.codomain.identity)
    assert chain.codomain.a == curve.a


def assert_images_match_the_full_map(curve, G, degrees, points):
    """Points pushed together by `_carry` and points given to chain(P),
    on the x-line alone at a = 1 and by the y-map off it, come out as the
    raw full maps of the steps' kernels (`oracles.naive_full_map`)
    composed one by one give them, and raise ExceptionalInput exactly
    where one has a pole; the last (D' : C') carried with them gives the
    codomain's d."""
    chain = IsogenyChain(curve, G, degrees)
    field = curve.field
    p, beta, a = field.p, beta_of(field), raw(curve.a)
    maps = [([raw(x) for x in step.kernel.xs], raw(step.domain.d))
            for step in chain.steps]
    want = []
    for P in points:
        Q = raw_point(P)
        for xs, d in maps:
            Q = Q and naive_full_map(Q, xs, p, d, beta, a)
        if Q is None:
            want.append(None)
            with pytest.raises(ExceptionalInput):
                chain(P)
        else:
            want.append(element_point(field, Q))
            assert chain(P) == want[-1]
    if None in want:
        with pytest.raises(ExceptionalInput):
            _carry(chain.steps, points, chain.codomain.pair)
    else:
        carried, (d,) = _carry(chain.steps, points, chain.codomain.pair)
        assert carried == want
        assert d == chain.codomain.d
