"""Quadratic extension F_{p^2} = F_p(i) with i^2 = -1, for p ≡ 3 (mod 4).

Every prime of the paper is 3 (mod 4), and p ≡ 1 (mod 4) has no
supersingular Edwards curve over F_p (`supersingular_excluded`), so -1 is
always a non-residue and the field is fixed by p alone; other p are
refused.  An element c0 + c1*i is held as two ints in [0, p), and every
operation computes on them and reduces mod p inline.  Extension
operations tally on the base field's OpCounter twice over: once on the
`ext_*` fields (one extension op) and once on the plain M/S/I/A fields,
where each operation tallies the base-field work of the `FieldElement`
formulation (for example 3M + 5A per Karatsuba multiplication, and 2M
for a product with an `int` or F_p scalar, which scales both parts).
"""

from __future__ import annotations

import random

from .errors import (DivisionByZero, FieldMismatch, InvalidParameter,
                     NotASquare, check_type)
from .field import Element, FieldElement, PrimeField

# `_new` and three slot stores build a result without the `__init__`
# call, 50-130 ns less an element (by `timeit`): 1.5-4% of a 3.2 ms
# `isogeny-batch` operation, whose element formulas make about 960.
_new = object.__new__


class QuadExtField:

    beta = -1                            # i^2

    def __init__(self, base: PrimeField):
        check_type(base, PrimeField, "base field")
        if base.p % 4 != 3:
            raise InvalidParameter(f"F_p^2 = F_p(i) with i^2 = -1 needs "
                                   f"p = 3 (mod 4), got p = {base.p}")
        self.base, self.p = base, base.p

    @property
    def size(self) -> int:
        return self.p ** 2

    @property
    def degree(self) -> int:
        return 2

    @property
    def counter(self):
        return self.base.counter

    def counting(self, ctx):
        return self.base.counting(ctx)

    def __call__(self, c0, c1=0) -> QuadExtElement:
        if isinstance(c0, QuadExtElement):
            if c0.field.p != self.p:
                raise FieldMismatch(f"element of F_{c0.field.p}^2 used in F_{self.p}^2")
            return c0 if c0.field is self else QuadExtElement(c0._c0, c0._c1, self)
        return QuadExtElement(self.base(c0).value, self.base(c1).value, self)

    @property
    def zero(self) -> QuadExtElement:
        return self(0)

    @property
    def one(self) -> QuadExtElement:
        return self(1)

    def elements(self):
        for c0 in range(self.p):
            for c1 in range(self.p):
                yield QuadExtElement(c0, c1, self)

    def random_element(self, rng: random.Random) -> QuadExtElement:
        return self(rng.randrange(self.p), rng.randrange(self.p))

    def chi(self, x) -> int:
        """Quadratic character of F_{p^2}, computed through the norm:
        x^((p^2-1)/2) = N(x)^((p-1)/2)."""
        x = self(x)
        c0, c1 = x._c0, x._c1
        return self.base.chi(c0 * c0 + c1 * c1)

    def sqrt(self, x) -> QuadExtElement:
        """Canonical square root via the norm method: the root r0 + r1*i
        has r0^2 = t = (c0 ± sqrt(N(x)))/2 and r1 = c1/(2*r0).  x is a
        square exactly when N(x) is; then, for c1 != 0, t+ * t- =
        (c0^2 - N(x))/4 = -c1^2/4 is a non-residue, as -1 is for
        p = 3 (mod 4), so exactly one of t+, t- is a square.  An F_p root
        is one exponentiation, r = v^((p+1)/4) with r^2 = +-v, and if
        r^2 = -t+, t- = (c1/2r)^2: two in all, one if c1 = 0 or x is none."""
        x = self(x)
        if x.is_zero():
            return self.zero
        p, e = self.p, (self.p + 1) // 4
        c0, c1 = x._c0, x._c1
        if c1 == 0:
            r = pow(c0, e, p)            # r^2 = c0, or -c0 = -(r i)^2
            return _canonical(self(r, 0) if r * r % p == c0 else self(0, r))
        n = (c0 * c0 + c1 * c1) % p
        s = pow(n, e, p)
        if s * s % p != n:
            raise NotASquare(f"{x} is not a square in F_{p}^2")
        t = (c0 + s) * ((p + 1) // 2) % p                    # t+
        r0 = pow(t, e, p)
        if r0 * r0 % p != t:             # r0^2 = -t+, so t- = (c1/2r0)^2
            r0 = c1 * pow(2 * r0, -1, p) % p
        r1 = c1 * pow(2 * r0, -1, p) % p
        cand = self(r0, r1)
        if (r0 * r0 - r1 * r1) % p != c0 or 2 * r0 * r1 % p != c1:
            raise NotASquare(f"{x} is not a square in F_{p}^2")
        return _canonical(cand)

    def parse(self, text: str) -> QuadExtElement:
        """Parse the "c0+c1*i" wire form (hex parts)."""
        text = text.strip().replace(" ", "")
        if "i" not in text:
            return self(int(text, 16))
        head, _, _ = text.partition("*i")
        c0, _, c1 = head.rpartition("+")
        return self(int(c0, 16) if c0 else 0, int(c1, 16))

    def __eq__(self, other):
        return isinstance(other, QuadExtField) and other.p == self.p

    def __hash__(self):
        return hash(("QuadExtField", self.p))

    def __repr__(self):
        return f"QuadExtField(p={self.p}, i^2={self.beta})"


def _canonical(x: QuadExtElement) -> QuadExtElement:
    """Pick the lexicographically smaller of x and -x."""
    p = x.field.p
    y = QuadExtElement(-x._c0 % p, -x._c1 % p, x.field)
    return min(x, y, key=lambda e: (e._c0, e._c1))


class QuadExtElement(Element):
    """c0 + c1*i with c0, c1 ints in [0, p).  Multiplication is Karatsuba
    (3 base multiplications), or 2 for a base-field scalar;
    squaring uses the complex trick (2).  `c0` and `c1` read the parts
    as uncounted F_p views."""

    __slots__ = ("_c0", "_c1", "field")

    def __init__(self, c0: int, c1: int, field: QuadExtField):
        self._c0 = c0
        self._c1 = c1
        self.field = field

    @property
    def c0(self) -> FieldElement:
        return FieldElement(self._c0, self.field.base)

    @property
    def c1(self) -> FieldElement:
        return FieldElement(self._c1, self.field.base)

    def _coerce(self, other) -> "QuadExtElement":
        if type(other) is QuadExtElement:
            if other.field is not self.field and other.field.p != self.field.p:
                raise FieldMismatch(
                    f"mixed moduli {self.field.p} and {other.field.p}")
            return other
        if isinstance(other, (int, FieldElement)):
            return self.field(other)
        return NotImplemented

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        f = self.field
        c = f.base.counter
        c.ext_a += 1
        c.a += 2
        p = f.p
        r = _new(QuadExtElement)
        r._c0 = (self._c0 + o._c0) % p
        r._c1 = (self._c1 + o._c1) % p
        r.field = f
        return r

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        f = self.field
        c = f.base.counter
        c.ext_a += 1
        c.a += 2
        p = f.p
        r = _new(QuadExtElement)
        r._c0 = (self._c0 - o._c0) % p
        r._c1 = (self._c1 - o._c1) % p
        r.field = f
        return r

    def __neg__(self):
        f = self.field
        c = f.base.counter
        c.ext_a += 1
        c.a += 2
        p = f.p
        r = _new(QuadExtElement)
        r._c0 = -self._c0 % p
        r._c1 = -self._c1 % p
        r.field = f
        return r

    def __mul__(self, other):
        f = self.field
        if type(other) is not QuadExtElement:
            if not isinstance(other, (int, FieldElement)):
                return NotImplemented
            # A base-field scalar multiplies each part: 2M, no A.
            k, p = f.base(other).value, f.p
            c = f.base.counter
            c.ext_m += 1
            c.m += 2
            r = _new(QuadExtElement)
            r._c0 = self._c0 * k % p
            r._c1 = self._c1 * k % p
            r.field = f
            return r
        if other.field is not f and other.field.p != f.p:
            raise FieldMismatch(f"mixed moduli {f.p} and {other.field.p}")
        c = f.base.counter
        c.ext_m += 1
        c.m += 3
        c.a += 5
        a0, a1, b0, b1 = self._c0, self._c1, other._c0, other._c1
        v0 = a0 * b0
        v1 = a1 * b1
        p = f.p
        r = _new(QuadExtElement)
        r._c0 = (v0 - v1) % p
        r._c1 = ((a0 + a1) * (b0 + b1) - v0 - v1) % p
        r.field = f
        return r

    __rmul__ = __mul__

    def square(self) -> "QuadExtElement":
        f = self.field
        c = f.base.counter
        c.ext_s += 1
        c.m += 2
        c.a += 3
        a0, a1, p = self._c0, self._c1, f.p
        u = a0 * a1
        r = _new(QuadExtElement)
        r._c0 = (a0 + a1) * (a0 - a1) % p
        r._c1 = (u + u) % p
        r.field = f
        return r

    def norm(self) -> FieldElement:
        """N(x) = x * conj(x) = c0^2 + c1^2 (i^2 = -1), an element of
        F_p: 2S + 1A."""
        return self.c0.square() + self.c1.square()

    def inverse(self) -> "QuadExtElement":
        """conj(x)/N(x) on the ints, tallied as `norm` and 1I + 2M + 1A:
        2M + 2S + 1I + 2A."""
        f, a0, a1 = self.field, self._c0, self._c1
        if a0 == 0 and a1 == 0:
            raise DivisionByZero(f"inverse of 0 in F_{f.p}^2")
        c, p = f.base.counter, f.p
        c.ext_i, c.i = c.ext_i + 1, c.i + 1
        c.m, c.s, c.a = c.m + 2, c.s + 2, c.a + 2
        n_inv = pow((a0 * a0 + a1 * a1) % p, -1, p)
        return QuadExtElement(a0 * n_inv % p, -a1 * n_inv % p, f)

    def is_zero(self) -> bool:
        return self._c0 == 0 and self._c1 == 0

    def to_str(self) -> str:
        return f"{self._c0:x}+{self._c1:x}*i"

    def __eq__(self, other):
        if type(other) is QuadExtElement:
            return (self._c0 == other._c0 and self._c1 == other._c1
                    and self.field.p == other.field.p)
        if isinstance(other, int):
            return self._c1 == 0 and self._c0 == other % self.field.p
        if isinstance(other, FieldElement):
            return (self._c1 == 0 and self._c0 == other.value
                    and self.field.p == other.field.p)
        return NotImplemented

    def __hash__(self):
        return hash((self._c0, self._c1, self.field.p))

    def __repr__(self):
        if self._c1 == 0:
            return f"{self.c0.signed()}"
        return f"({self.c0.signed()}{self.c1.signed():+d}*i)"
