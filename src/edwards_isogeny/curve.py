"""Generalized Edwards curves  x^2 + a*y^2 = 1 + d*x^2*y^2.

Covers parameter validation, the three-class split by quadratic
characters of (a, d), the modified addition/doubling laws whose neutral
element is (1, 0), scalar multiplication, desk-scale point enumeration
and order counting, the j-invariant, special and singular points, and
quadratic twisting.  Coordinates are written and read through the field's
`to_str` / `parse` codec.
"""

from __future__ import annotations

from .errors import (DeskScaleOnly, ExceptionalPair, InvalidCurve,
                     InvalidTwist, NotOnCurve)
from .field import OpCounter, PrimeField
from .field_ext import QuadExtField

COMPLETE = "complete"
TWISTED = "twisted"
QUADRATIC = "quadratic"

# Enumeration is an O(field size) scan; refuse anything bigger than this.
DESK_SCALE_LIMIT = 1_000_000


def classify(a, d) -> str:
    """Class of E_{a,d}: complete (chi(ad) = -1), twisted (chi(a) =
    chi(d) = -1) or quadratic (chi(a) = chi(d) = +1)."""
    field = a.field
    ca, cd = field.chi(a), field.chi(d)
    if ca == 0 or cd == 0 or a == d:
        raise InvalidCurve(f"degenerate parameters a={a!r}, d={d!r}")
    if ca * cd == -1:
        return COMPLETE
    return TWISTED if ca == -1 else QUADRATIC


class AffinePoint:
    """A coordinate pair (x, y); the neutral element is (1, 0)."""

    __slots__ = ("x", "y")

    def __init__(self, x, y):
        self.x = x
        self.y = y

    def neg(self) -> "AffinePoint":
        return AffinePoint(self.x, -self.y)

    def is_identity(self) -> bool:
        return self.x == 1 and self.y.is_zero()

    def to_json(self) -> dict:
        return {"x": self.x.to_str(), "y": self.y.to_str()}

    @classmethod
    def from_json(cls, doc: dict, field) -> "AffinePoint":
        return cls(field.parse(doc["x"]), field.parse(doc["y"]))

    def __iter__(self):
        return iter((self.x, self.y))

    def __eq__(self, other):
        if not isinstance(other, AffinePoint):
            return NotImplemented
        return self.x == other.x and self.y == other.y

    def __hash__(self):
        return hash((self.x, self.y))

    def __repr__(self):
        return f"({self.x!r}, {self.y!r})"


class SingularPoint:
    """Symbolic point at infinity of a non-complete curve.

    `axis` names the infinite coordinate; `finite` is the finite one.
    Order-2 descriptors are the pair (±sqrt(a/d), inf); order-4
    descriptors the pair (inf, ±1/sqrt(d)).  They are never valid inputs
    to the group law."""

    __slots__ = ("axis", "finite", "order")

    def __init__(self, axis: str, finite, order: int):
        self.axis = axis
        self.finite = finite
        self.order = order

    def __repr__(self):
        if self.axis == "y":
            return f"({self.finite!r}, inf)[order {self.order}]"
        return f"(inf, {self.finite!r})[order {self.order}]"


class SpecialPointSet:
    """The always-present O and D0, the affine order-4 pair ±F0 when
    chi(a) = +1, and the singular descriptors when they exist."""

    def __init__(self, neutral, d0, f0_pair, singular):
        self.neutral = neutral
        self.d0 = d0
        self.f0_pair = f0_pair          # list of two AffinePoints, or []
        self.singular = singular        # list of SingularPoint

    @property
    def order2_count(self) -> int:
        return 1 + sum(1 for s in self.singular if s.order == 2)


class EdwardsCurve:
    """E_{a,d} over F_p or F_{p^2}; immutable, safe to share."""

    def __init__(self, field, a, d):
        self.field = field
        self.a = field(a)
        self.d = field(d)
        self.class_tag = classify(self.a, self.d)
        self._order = None

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
        return x2 + self.a * y2 == self.field.one + self.d * x2 * y2

    def add(self, P: AffinePoint, Q: AffinePoint) -> AffinePoint:
        """(x1,y1) + (x2,y2) with x-numerator x1*x2 - a*y1*y2.  Raises
        ExceptionalPair when the sum is a singular point at infinity."""
        x1, y1 = P
        x2, y2 = Q
        xx = x1 * x2
        yy = y1 * y2
        t = self.d * xx * yy
        den_x = self.field.one - t
        den_y = self.field.one + t
        if den_x.is_zero() or den_y.is_zero():
            raise ExceptionalPair("sum lies at infinity")
        x3 = (xx - self.a * yy) / den_x
        y3 = (x1 * y2 + x2 * y1) / den_y
        return AffinePoint(x3, y3)

    def double(self, P: AffinePoint) -> AffinePoint:
        x1, y1 = P
        x2 = x1.square()
        y2 = y1.square()
        t = self.d * x2 * y2
        den_x = self.field.one - t
        den_y = self.field.one + t
        if den_x.is_zero() or den_y.is_zero():
            raise ExceptionalPair("double lies at infinity")
        xy = x1 * y1
        return AffinePoint((x2 - self.a * y2) / den_x, (xy + xy) / den_y)

    def scalar_mul(self, k: int, P: AffinePoint) -> AffinePoint:
        """k*P by left-to-right double-and-add; 0*P = (1, 0)."""
        if k < 0:
            return self.scalar_mul(-k, P.neg())
        if k == 0:
            return self.identity
        acc = P
        for bit in bin(k)[3:]:
            acc = self.double(acc)
            if bit == "1":
                acc = self.add(acc, P)
        return acc

    def check_point(self, P: AffinePoint) -> AffinePoint:
        """P itself, or NotOnCurve.  An input check, so it runs under a
        throwaway counter and adds nothing to the tallies."""
        with self.field.counting(OpCounter()):
            on_curve = self.contains(P)
        if not on_curve:
            raise NotOnCurve(f"{P!r} is not on {self!r}")
        return P

    def point_order(self, P: AffinePoint) -> int:
        """Least n > 0 with n*P = O, found by stripping prime factors
        from the curve order."""
        self.check_point(P)
        n = self.order()
        if not self.scalar_mul(n, P).is_identity():
            raise NotOnCurve(f"group order {n} does not annihilate {P!r}")
        for q in _prime_factors(n):
            while n % q == 0 and self.scalar_mul(n // q, P).is_identity():
                n //= q
        return n

    # ------------------------------------------------------------------
    # desk-scale enumeration
    # ------------------------------------------------------------------

    def points(self) -> list[AffinePoint]:
        """All affine points, by scanning x and solving for y.
        Diagnostic: runs under a throwaway counter."""
        self._check_desk_scale()
        with self.field.counting(OpCounter()):
            pts = []
            one = self.field.one
            for x in self.field.elements():
                x2 = x.square()
                den = self.a - self.d * x2
                if den.is_zero():
                    continue
                v = (one - x2) / den
                c = self.field.chi(v)
                if c == 0:
                    pts.append(AffinePoint(x, self.field.zero))
                elif c == 1:
                    y = self.field.sqrt(v)
                    pts.append(AffinePoint(x, y))
                    pts.append(AffinePoint(x, -y))
            return pts

    def order(self) -> int:
        """Curve order: affine points plus singular points at infinity."""
        if self._order is None:
            self._order = self._affine_count() + self.singular_count()
        return self._order

    def singular_count(self) -> int:
        n = 0
        if self.field.chi(self.a * self.d) == 1:
            n += 2
        if self.field.chi(self.d) == 1:
            n += 2
        return n

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
        return j_invariant(self.a, self.d)

    def special_points(self) -> SpecialPointSet:
        field = self.field
        neutral = self.identity
        d0 = AffinePoint(-field.one, field.zero)
        f0 = []
        if field.chi(self.a) == 1:
            inv_sqrt_a = field.sqrt(self.a.inverse())
            f0 = [AffinePoint(field.zero, inv_sqrt_a),
                  AffinePoint(field.zero, -inv_sqrt_a)]
        singular = []
        if field.chi(self.a * self.d) == 1:
            r = field.sqrt(self.a / self.d)
            singular += [SingularPoint("y", r, 2), SingularPoint("y", -r, 2)]
        if field.chi(self.d) == 1:
            r = field.sqrt(self.d.inverse())
            singular += [SingularPoint("x", r, 4), SingularPoint("x", -r, 4)]
        return SpecialPointSet(neutral, d0, f0, singular)

    def quadratic_twist(self, c) -> "EdwardsCurve":
        """E_{ca,cd} for a non-residue c; swaps twisted and quadratic,
        fixes complete."""
        c = self.field(c)
        if self.field.chi(c) != -1:
            raise InvalidTwist(f"twist factor {c!r} is a square")
        return EdwardsCurve(self.field, c * self.a, c * self.d)

    def to_json(self) -> dict:
        return {"p": format(self.field.p, "x"),
                "a": self.a.to_str(),
                "d": self.d.to_str(),
                "class": self.class_tag}

    @classmethod
    def from_json(cls, doc: dict) -> "EdwardsCurve":
        base = PrimeField(int(doc["p"], 16))
        if "i" in doc["a"] or "i" in doc["d"]:
            field = QuadExtField(base)
        else:
            field = base
        curve = cls(field, field.parse(doc["a"]), field.parse(doc["d"]))
        if doc.get("class") not in (None, curve.class_tag):
            raise InvalidCurve(
                f"declared class {doc['class']!r} is {curve.class_tag!r}")
        return curve

    def __eq__(self, other):
        if not isinstance(other, EdwardsCurve):
            return NotImplemented
        return (self.field.p == other.field.p
                and self.field.degree == other.field.degree
                and self.a == other.a and self.d == other.d)

    def __hash__(self):
        return hash((self.field.p, self.field.degree, self.a, self.d))

    def __repr__(self):
        return (f"EdwardsCurve(a={self.a!r}, d={self.d!r}, "
                f"{self.class_tag}/F_{self.field.p}" +
                ("^2" if self.field.degree == 2 else "") + ")")


def j_invariant(a, d):
    """j = 16*(a^2 + d^2 + 14ad)^3 / (a*d*(a-d)^4)."""
    field = a.field
    a = field(a)
    d = field(d)
    classify(a, d)          # rejects degenerate parameters
    ad = a * d
    num = (a.square() + d.square() + 14 * ad) ** 3
    den = ad * (a - d) ** 4
    return 16 * num / den


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
