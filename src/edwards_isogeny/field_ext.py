"""Quadratic extension F_{p^2} = F_p(i) with i^2 = beta, beta a non-residue.

Elements are c0 + c1*i.  Extension operations tally on the base field's
OpCounter twice over: once on the `ext_*` fields (one extension op) and,
through the base-field arithmetic they perform, on the plain M/S/I/A
fields.  beta is -1 for p ≡ 3 (mod 4), otherwise the smallest
non-residue, so the field is fixed by p alone.
"""

from __future__ import annotations

import random

from .errors import DivisionByZero, FieldMismatch, NotASquare
from .field import Element, FieldElement, PrimeField


class QuadExtField:

    def __init__(self, base: PrimeField):
        self.base = base
        self.beta = base(-1 if base.p % 4 == 3 else _smallest_non_residue(base))

    @property
    def p(self) -> int:
        return self.base.p

    @property
    def size(self) -> int:
        return self.base.p ** 2

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
            return c0
        return QuadExtElement(self.base(c0), self.base(c1), self)

    @property
    def zero(self) -> QuadExtElement:
        return self(0)

    @property
    def one(self) -> QuadExtElement:
        return self(1)

    def elements(self):
        for c0 in range(self.p):
            for c1 in range(self.p):
                yield self(c0, c1)

    def random_element(self, rng: random.Random) -> QuadExtElement:
        return self(rng.randrange(self.p), rng.randrange(self.p))

    def chi(self, x) -> int:
        """Quadratic character of F_{p^2}, computed through the norm:
        x^((p^2-1)/2) = N(x)^((p-1)/2)."""
        x = self(x)
        c0, c1 = x.c0.value, x.c1.value
        return self.base.chi(c0 * c0 - self.beta.value * c1 * c1)

    def sqrt(self, x) -> QuadExtElement:
        """Canonical square root via the norm method: the root r0 + r1*i
        has r0^2 = (c0 ± sqrt(N(x)))/2 and r1 = c1/(2*r0)."""
        x = self(x)
        if x.is_zero():
            return self.zero
        p = self.p
        beta = self.beta.value
        c0, c1 = x.c0.value, x.c1.value
        if c1 == 0:
            if self.base.chi(c0) == 1:
                r = self.base.sqrt(c0)
                cand = self(r, 0)
            else:
                r = self.base.sqrt(c0 * pow(beta, -1, p) % p)
                cand = self(0, r)
            return _canonical(cand)
        n = (c0 * c0 - beta * c1 * c1) % p
        if self.base.chi(n) != 1:
            raise NotASquare(f"{x} is not a square in F_{p}^2")
        s = self.base.sqrt(n).value
        inv2 = pow(2, -1, p)
        t = (c0 + s) * inv2 % p
        if self.base.chi(t) != 1:
            t = (c0 - s) * inv2 % p
        if self.base.chi(t) != 1:
            raise NotASquare(f"{x} is not a square in F_{p}^2")
        r0 = self.base.sqrt(t).value
        r1 = c1 * pow(2 * r0, -1, p) % p
        cand = self(r0, r1)
        if (r0 * r0 + beta * r1 * r1) % p != c0 or 2 * r0 * r1 % p != c1:
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
        return f"QuadExtField(p={self.p}, i^2={self.beta.signed()})"


def _smallest_non_residue(base: PrimeField) -> int:
    return next(c for c in range(2, base.p) if base.chi(c) == -1)


def _canonical(x: QuadExtElement) -> QuadExtElement:
    """Pick the lexicographically smaller of x and -x."""
    y = QuadExtElement(x.field.base(-x.c0.value), x.field.base(-x.c1.value), x.field)
    return min(x, y, key=lambda e: (e.c0.value, e.c1.value))


class QuadExtElement(Element):
    """c0 + c1*i with c0, c1 in F_p.  Multiplication is Karatsuba (3 base
    multiplications for i^2 = -1); squaring uses the complex trick (2)."""

    __slots__ = ("c0", "c1", "field")

    def __init__(self, c0: FieldElement, c1: FieldElement, field: QuadExtField):
        self.c0 = c0
        self.c1 = c1
        self.field = field

    def _coerce(self, other) -> "QuadExtElement":
        if isinstance(other, QuadExtElement):
            if other.field.p != self.field.p:
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
        self.field.counter.ext_a += 1
        return QuadExtElement(self.c0 + o.c0, self.c1 + o.c1, self.field)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        self.field.counter.ext_a += 1
        return QuadExtElement(self.c0 - o.c0, self.c1 - o.c1, self.field)

    def __neg__(self):
        self.field.counter.ext_a += 1
        return QuadExtElement(-self.c0, -self.c1, self.field)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        self.field.counter.ext_m += 1
        v0 = self.c0 * o.c0
        v1 = self.c1 * o.c1
        cross = (self.c0 + self.c1) * (o.c0 + o.c1)
        if self.field.beta.value == self.field.p - 1:
            re = v0 - v1
        else:
            re = v0 + self.field.beta * v1
        return QuadExtElement(re, cross - v0 - v1, self.field)

    __rmul__ = __mul__

    def square(self) -> "QuadExtElement":
        self.field.counter.ext_s += 1
        if self.field.beta.value == self.field.p - 1:
            re = (self.c0 + self.c1) * (self.c0 - self.c1)
            u = self.c0 * self.c1
            return QuadExtElement(re, u + u, self.field)
        s0 = self.c0.square()
        s1 = self.c1.square()
        cross = (self.c0 + self.c1).square() - s0 - s1
        return QuadExtElement(s0 + self.field.beta * s1, cross, self.field)

    def norm(self) -> FieldElement:
        """N(x) = x * conj(x) = c0^2 - beta*c1^2, an element of F_p."""
        return self.c0.square() - self.field.beta * self.c1.square()

    def inverse(self) -> "QuadExtElement":
        if self.is_zero():
            raise DivisionByZero(f"inverse of 0 in F_{self.field.p}^2")
        self.field.counter.ext_i += 1
        n_inv = self.norm().inverse()
        return QuadExtElement(self.c0 * n_inv, -self.c1 * n_inv, self.field)

    def is_zero(self) -> bool:
        return self.c0.value == 0 and self.c1.value == 0

    def to_str(self) -> str:
        return f"{self.c0.to_str()}+{self.c1.to_str()}*i"

    def __eq__(self, other):
        if isinstance(other, QuadExtElement):
            return (self.field.p == other.field.p
                    and self.c0.value == other.c0.value
                    and self.c1.value == other.c1.value)
        if isinstance(other, (int, FieldElement)):
            return self.c1.value == 0 and self.c0 == other
        return NotImplemented

    def __hash__(self):
        return hash((self.c0.value, self.c1.value, self.field.p))

    def __repr__(self):
        if self.c1.value == 0:
            return f"{self.c0.signed()}"
        return f"({self.c0.signed()}{self.c1.signed():+d}*i)"
