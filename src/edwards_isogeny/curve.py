"""Generalized Edwards curves  x^2 + a*y^2 = 1 + d*x^2*y^2.

Covers parameter validation, the three-class split by quadratic
characters of (a, d), the modified group law whose neutral element is
(1, 0), scalar multiplication, desk-scale point enumeration and order
counting, the j-invariant, special and singular points, and quadratic
twisting.  Coordinates are written and read through the field's
`to_str` / `parse` codec.

The group law runs on affine points, rotated to the neutral element
(1, 0) from the formulas of Bernstein and Lange (ASIACRYPT 2007).  With
C = x1*x2, D = y1*y2, E = d*C*D and H = x1*y2 + x2*y1,

    (x1, y1) + (x2, y2) = ((C - a*D)/(1 - E), H/(1 + E)),

made affine by `field._divide`, which skips a unit denominator: 10M
and one inversion at a = 1, the product by d included; 5M for P + O.
For a point on the curve, d*x^2*y^2 = x^2 + a*y^2 - 1 turns the
doubling denominators into 2 - x^2 - a*y^2 and x^2 + a*y^2, so with
B = x^2, C = a*y^2, D = B + C and H = 2xy,

    2(x, y) = ((B - C)/(2 - D), H/D)

(5M + 3S and one inversion when a = 1; 3S for 2*O).  A denominator is
zero exactly when the result is a singular point at infinity, and
`ExceptionalPair` is raised there.  `scalar_mul` and `point_order`
multiply on the x-line, by `xonly.xladder`, which passes the points at
infinity; `scalar_mul` lifts k*P by `recover_xy` and `_divide`.

`points`, `order`, `singular_count` and `special_points` are desk-scale
diagnostics, `check_point` an input check, and `class_tag`, `to_json`,
`==`, `hash` and `repr` identity reads: `_uncounted`, they add nothing
to the tallies and leave no lazy value made, such as a step codomain's
d or a curve's `xline`, for a later counted read to skip.
"""

from __future__ import annotations

from contextlib import contextmanager
from functools import cached_property
from typing import NamedTuple

from .errors import (DeskScaleOnly, ExceptionalPair, InvalidCurve,
                     InvalidParameter, InvalidTwist, NotOnCurve, ProtocolError,
                     check_int)
from .field import Element, OpCounter, PrimeField, _divide
from .field_ext import QuadExtField
from .xonly import ProjParams, recover_xy, xladder

COMPLETE = "complete"
TWISTED = "twisted"
QUADRATIC = "quadratic"

# Enumeration is an O(field size) scan; refuse anything bigger than this.
DESK_SCALE_LIMIT = 1_000_000


def check_parameters(a, d):
    """InvalidCurve unless a, d are nonzero and distinct.  chi(a) = 0
    exactly when a = 0, so no character is needed."""
    if a.is_zero() or d.is_zero() or a == d:
        raise InvalidCurve(f"degenerate parameters a={a!r}, d={d!r}")


def check_pair(P, name: str):
    """InvalidParameter naming `name` unless P is a pair of elements."""
    if not (isinstance(P, tuple) and len(P) == 2
            and all(isinstance(v, Element) for v in P)):
        raise InvalidParameter(f"{name} {P!r} is not a pair of elements")


def classify(a, d) -> str:
    """Class of E_{a,d}: complete (chi(ad) = -1), twisted (chi(a) =
    chi(d) = -1) or quadratic (chi(a) = chi(d) = +1)."""
    check_parameters(a, d)
    field = a.field
    ca, cd = field.chi(a), field.chi(d)
    if ca * cd == -1:
        return COMPLETE
    return TWISTED if ca == -1 else QUADRATIC


@contextmanager
def _document(kind: str):
    """ProtocolError for a `kind` JSON document not in its wire form."""
    try:
        yield
    except (LookupError, TypeError, ValueError) as exc:
        raise ProtocolError(f"malformed {kind} document: {exc!r}") from None


class AffinePoint(NamedTuple):
    """A coordinate pair (x, y); the neutral element is (1, 0).  It is a
    tuple, so it unpacks as (x, y) and equals the plain tuple (x, y)."""

    x: object
    y: object

    def neg(self) -> "AffinePoint":
        return AffinePoint(self.x, -self.y)

    def is_identity(self) -> bool:
        return self.x == 1 and self.y.is_zero()

    def to_json(self) -> dict:
        return {"x": self.x.to_str(), "y": self.y.to_str()}

    @classmethod
    def from_json(cls, doc: dict, field) -> "AffinePoint":
        with _document("point"):
            return cls(field.parse(doc["x"]), field.parse(doc["y"]))

    def __repr__(self):
        return f"({self.x!r}, {self.y!r})"


class SingularPoint(NamedTuple):
    """Symbolic point at infinity of a non-complete curve.

    `axis` names the infinite coordinate; `finite` is the finite one.
    Order-2 descriptors are the pair (±sqrt(a/d), inf); order-4
    descriptors the pair (inf, ±1/sqrt(d)).  They are never valid inputs
    to the group law."""

    axis: str
    finite: object
    order: int


class SpecialPointSet(NamedTuple):
    """The always-present O and D0, the affine order-4 pair ±F0 when
    chi(a) = +1, and the singular descriptors when they exist."""

    neutral: AffinePoint
    d0: AffinePoint
    f0_pair: list                       # two AffinePoints, or []
    singular: list                      # SingularPoints


class EdwardsCurve:
    """E_{a,d} over F_p or F_{p^2}; immutable, safe to share."""

    def __init__(self, field, a, d):
        self.field = field
        self.a = field(a)
        self.d = field(d)
        check_parameters(self.a, self.d)
        self._order = None

    @cached_property
    def class_tag(self) -> str:
        with self._uncounted():
            return classify(self.a, self.d)

    @cached_property
    def pair(self) -> ProjParams:
        """(D : C) = (d : a): y -> y sqrt(a) takes E_{a,d} to E_{1,D/C}
        and keeps x.  A step's codomain stores its own (D' : C')."""
        return ProjParams(self.d, self.a)

    @cached_property
    def xline(self) -> tuple:
        """The x-line constant c = (C - D, C) of `pair`, made once."""
        D, C = self.pair
        return (C - D, C)

    # ------------------------------------------------------------------
    # group law
    # ------------------------------------------------------------------

    @property
    def identity(self) -> AffinePoint:
        return AffinePoint(self.field.one, self.field.zero)

    def contains(self, P: AffinePoint) -> bool:
        x, y = P
        x2 = x.square()
        y2 = y.square()
        return x2 + self._times_a(y2) == self.field.one + self.d * x2 * y2

    def add(self, P: AffinePoint, Q: AffinePoint) -> AffinePoint:
        """(x1,y1) + (x2,y2) with x-numerator x1*x2 - a*y1*y2, over
        F and G = 1 -+ d*x1*x2*y1*y2, by one `_divide`.  Raises
        ExceptionalPair when the sum is a singular point at infinity."""
        check_pair(P, "P")
        check_pair(Q, "Q")
        (x1, y1), (x2, y2) = P, Q
        C = x1 * x2
        D = y1 * y2
        E = self.d * C * D
        F, G = 1 - E, 1 + E
        if F.is_zero() or G.is_zero():
            raise ExceptionalPair("sum lies at infinity")
        H = (x1 + y1) * (x2 + y2) - C - D
        return AffinePoint(*_divide([(C - self._times_a(D), F), (H, G)]))

    def double(self, P: AffinePoint) -> AffinePoint:
        """2P over F = 2 - D and D = x^2 + a*y^2, by one `_divide`.
        P must lie on the curve: the formula uses its equation."""
        check_pair(P, "point")
        x, y = P
        B = x.square()
        Y2 = y.square()
        C = self._times_a(Y2)
        D = B + C
        F = 2 - D
        if F.is_zero() or D.is_zero():
            raise ExceptionalPair("double lies at infinity")
        H = (x + y).square() - B - Y2
        return AffinePoint(*_divide([(B - C, F), (H, D)]))

    def scalar_mul(self, k: int, P: AffinePoint) -> AffinePoint:
        """k*P by `xladder` on `xline`, y by `recover_xy` and one
        `_divide`; 0*P = O and k*P = |k|*(-P).  The ladder passes the
        points at infinity, so ExceptionalPair comes exactly when k*P is
        one (Z = 0, or y's denominator is).  P must lie on the curve."""
        check_int(k, "k")
        check_pair(P, "point")
        x, y = P
        if k < 0:
            k, y = -k, -y
        if y.is_zero() or k == 0:        # O, or (-1, 0) of order 2
            return self.identity if k % 2 == 0 else AffinePoint(x, y)
        Q, S = xladder(k, (x, self.field.one), self.xline)
        (X, Z), (num, den) = recover_xy((x, y), Q, S, self.a, self.d)
        if Z.is_zero() or den.is_zero():
            raise ExceptionalPair(f"{k}*P lies at infinity")
        return AffinePoint(*_divide([(X, Z), (num, den)]))

    def _times_a(self, v):
        return v if self.a == 1 else self.a * v

    @contextmanager
    def _uncounted(self):
        """A diagnostic's scope: a throwaway counter, and each lazy value
        made on the curve in it (a codomain's d, an `xline`) dropped after,
        so the tallies and later counted reads are as if it never ran."""
        made = set(vars(self))
        with self.field.counting(OpCounter()):
            try:
                yield
            finally:
                for name in set(vars(self)) - made:
                    del vars(self)[name]

    def check_point(self, P: AffinePoint) -> AffinePoint:
        """P itself, or NotOnCurve.  An input check, so it runs
        `_uncounted` and adds nothing to the tallies; InvalidParameter
        unless P is a pair of elements."""
        check_pair(P, "point")
        with self._uncounted():
            if not self.contains(P):
                raise NotOnCurve(f"{P!r} is not on {self!r}")
        return P

    def point_order(self, P: AffinePoint) -> int:
        """Least n > 0 with n*P = O, found by stripping prime factors
        from the curve order.  k*P = O is tested by `xonly.xladder`
        on `xline` = (a - d, a), as X = Z; for P of order above 2 it
        passes the points at infinity of E_{a,d}."""
        self.check_point(P)
        if P.y.is_zero():                  # (1, 0) = O or (-1, 0)
            return 1 if P.x == 1 else 2
        x = (P.x, self.field.one)

        def annihilates(k: int) -> bool:
            X, Z = xladder(k, x, self.xline)[0]
            return X == Z

        n = self.order()
        if not annihilates(n):
            raise NotOnCurve(f"group order {n} does not annihilate {P!r}")
        for q in _prime_factors(n):
            while n % q == 0 and annihilates(n // q):
                n //= q
        return n

    # ------------------------------------------------------------------
    # desk-scale enumeration
    # ------------------------------------------------------------------

    def points(self) -> list[AffinePoint]:
        """All affine points, by scanning x and solving for y."""
        self._check_desk_scale()
        with self._uncounted():
            pts, one, d = [], self.field.one, self.d
            for x in self.field.elements():
                x2 = x.square()
                den = self.a - d * x2
                if den.is_zero():
                    continue
                v = (one - x2) / den
                c = self.field.chi(v)
                if c == 0:
                    pts.append(AffinePoint(x, self.field.zero))
                elif c == 1:
                    y = self.field.sqrt(v)
                    pts += [AffinePoint(x, y), AffinePoint(x, -y)]
            return pts

    def order(self) -> int:
        """Curve order: affine points plus singular points at infinity."""
        if self._order is None:
            with self._uncounted():
                self._order = self._affine_count() + self.singular_count()
        return self._order

    def singular_count(self) -> int:
        """The number of singular points at infinity: 0, 2 or 4."""
        return len(self.special_points().singular)

    def _affine_count(self) -> int:
        if not isinstance(self.field, PrimeField):
            return len(self.points())
        self._check_desk_scale()
        # Raw-integer fast path: chi(num/den) = chi(num*den).
        p = self.field.p
        squares = {y * y % p for y in range(p)}
        a, d = self.a.value, self.d.value
        count = 0
        for x in range(p):
            x2 = x * x % p
            den = (a - d * x2) % p
            if den == 0:
                continue
            num = (1 - x2) % p
            if num == 0:
                count += 1
            elif num * den % p in squares:
                count += 2
        return count

    def _check_desk_scale(self):
        if self.field.size > DESK_SCALE_LIMIT:
            raise DeskScaleOnly(
                f"field size {self.field.size} exceeds the enumeration limit")

    # ------------------------------------------------------------------
    # invariants and distinguished points
    # ------------------------------------------------------------------

    def j_invariant(self):
        return j_invariant(self.pair.C, self.pair.D)

    def special_points(self) -> SpecialPointSet:
        """O, D0, the pair ±F0 when chi(a) = 1, and the singular points."""
        field, a, zero = self.field, self.a, self.field.zero
        f0, singular = [], []
        with self._uncounted():
            if field.chi(a) == 1:
                r = field.sqrt(a.inverse())
                f0 = [AffinePoint(zero, r), AffinePoint(zero, -r)]
            d = self.d
            for axis, order, r2 in (("y", 2, a / d), ("x", 4, d.inverse())):
                if field.chi(r2) == 1:            # chi(a d), chi(d)
                    r = field.sqrt(r2)
                    singular += [SingularPoint(axis, r, order),
                                 SingularPoint(axis, -r, order)]
            d0 = AffinePoint(-field.one, zero)
        return SpecialPointSet(self.identity, d0, f0, singular)

    def quadratic_twist(self, c) -> "EdwardsCurve":
        """E_{ca,cd} for a non-residue c; swaps twisted and quadratic,
        fixes complete."""
        c = self.field(c)
        if self.field.chi(c) != -1:
            raise InvalidTwist(f"twist factor {c!r} is a square")
        return EdwardsCurve(self.field, c * self.a, c * self.d)

    def to_json(self) -> dict:
        tag = self.class_tag         # read first: `_uncounted` drops it
        with self._uncounted():
            return {"p": format(self.field.p, "x"),
                    "a": self.a.to_str(),
                    "d": self.d.to_str(),
                    "class": tag}

    @classmethod
    def from_json(cls, doc: dict) -> "EdwardsCurve":
        with _document("curve"):
            base = PrimeField(int(doc["p"], 16))
            field = QuadExtField(base) if "i" in doc["a"] + doc["d"] else base
            a, d = field.parse(doc["a"]), field.parse(doc["d"])
        curve = cls(field, a, d)
        if doc.get("class") not in (None, curve.class_tag):
            raise InvalidCurve(
                f"declared class {doc['class']!r} is {curve.class_tag!r}")
        return curve

    def __eq__(self, other):
        if not isinstance(other, EdwardsCurve):
            return NotImplemented
        with self._uncounted(), other._uncounted():
            return (self.field.p == other.field.p
                    and self.field.degree == other.field.degree
                    and self.a == other.a and self.d == other.d)

    def __hash__(self):
        with self._uncounted():
            return hash((self.field.p, self.field.degree, self.a, self.d))

    def __repr__(self):
        tag = self.class_tag
        with self._uncounted():
            return (f"EdwardsCurve(a={self.a!r}, d={self.d!r}, "
                    f"{tag}/F_{self.field.p}" +
                    ("^2" if self.field.degree == 2 else "") + ")")


def j_invariant(a, d):
    """j = 16*(a^2 + d^2 + 14ad)^3 / (a*d*(a-d)^4)."""
    num, den = j_fraction(a, d)
    return num / den


def j_fraction(a, d) -> tuple:
    """`j_invariant`'s numerator and denominator, undivided."""
    a, d = a.field(a), a.field(d)
    check_parameters(a, d)
    ad = a * d
    num = (a.square() + d.square() + 14 * ad) ** 3
    return 16 * num, ad * (a - d) ** 4


def _prime_factors(n: int) -> list[int]:
    out = []
    q = 2
    while q * q <= n:
        if n % q == 0:
            out.append(q)
            while n % q == 0:
                n //= q
        q += 1
    if n > 1:
        out.append(n)
    return out
