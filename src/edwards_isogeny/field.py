"""Prime-field arithmetic with per-context operation counting.

Every multiplication (M), squaring (S), inversion (I) and addition/
subtraction (A) performed through :class:`FieldElement` operators is
tallied on the owning field's active :class:`OpCounter`, so the exact
cost of a formula can be asserted rather than estimated.  Character and
square-root queries (`chi`, `sqrt`) are classification utilities and are
deliberately uncounted.

`is_probable_prime` proves its answer below the Miller-Rabin
deterministic bound (about 3.3e24), and above it for every n whose n + 1
factors over the primes up to 47, which covers all p = cof*3^m*5^n - 1:
those it proves prime or composite with the N+1 test of Brillhart,
Lehmer and Selfridge.  Any other n gets `_MR_ROUNDS` Miller-Rabin
rounds, which for the smooth ones are only the fallback taken if the
proof's Lucas chains give out.  `PrimeField` refuses a modulus above
`MAX_MODULUS_BITS` before any round.
"""

from __future__ import annotations

import math
import operator
import random
from contextlib import contextmanager

from .errors import DivisionByZero, FieldMismatch, NotASquare

# Below this bound the fixed witness set is a proven deterministic test.
_MR_DETERMINISTIC_BOUND = 3_317_044_064_679_887_385_961_981
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)
# Lucas chains the N+1 proof may run before Miller-Rabin decides instead.
_LUCAS_CHAINS = 16
# Miller-Rabin rounds for an n that no proof decides.
_MR_ROUNDS = 64
# The longest prime a search may return (supersingular.MAX_TARGET_BITS +
# MAX_TOLERANCE); one round at 16,384 bits takes seconds.
MAX_MODULUS_BITS = 2080


def _primes_below(bound: int) -> list[int]:
    sieve = bytearray([1]) * bound
    sieve[:2] = b"\0\0"
    for i in range(2, math.isqrt(bound - 1) + 1):
        if sieve[i]:
            sieve[i * i::i] = bytes(len(range(i * i, bound, i)))
    return [i for i, flag in enumerate(sieve) if flag]


# The primes below 10,000 multiplied out once: a gcd with it is the trial
# division of a large n.
_TRIAL_PRODUCT = math.prod(_primes_below(10_000))


def is_probable_prime(n: int) -> bool:
    """Primality of n: proven for n below the deterministic bound, and
    for larger n whose n + 1 factors over `_SMALL_PRIMES`; otherwise a
    Miller-Rabin test of `_MR_ROUNDS` rounds.

    Below its proven bound the Miller-Rabin test with the fixed witness
    set decides.  Above it, n must first share no factor with the primes
    below 10,000 and pass one round on a base drawn from an RNG seeded by
    n itself (so results are reproducible without sacrificing
    independence across candidates).  Then, if n + 1 factors over
    `_SMALL_PRIMES`, as it does for every p = cof*3^m*5^n - 1, the N+1
    test proves n prime or composite (`_lucas_proof`), and the remaining
    `_MR_ROUNDS - 1` bases of the same seeded sequence run only if its
    chains give out.
    """
    if n < 2:
        return False
    for q in _SMALL_PRIMES:
        if n % q == 0:
            return n == q
    if n < _MR_DETERMINISTIC_BOUND:
        return not any(_proves_composite(a, n) for a in _MR_WITNESSES)
    if math.gcd(n, _TRIAL_PRODUCT) != 1:
        return False
    rng = random.Random(n)
    if _proves_composite(rng.randrange(2, n - 1), n):
        return False
    proven = _lucas_proof(n)
    if proven is not None:
        return proven
    return _miller_rabin(n, rng, _MR_ROUNDS - 1)


def _proves_composite(a: int, n: int) -> bool:
    """True if base a proves the odd n composite (one Miller-Rabin round)."""
    r = ((n - 1) & (1 - n)).bit_length() - 1
    x = pow(a, (n - 1) >> r, n)
    if x == 1 or x == n - 1:
        return False
    for _ in range(r - 1):
        x = x * x % n
        if x == n - 1:
            return False
    return True


def _miller_rabin(n: int, rng: random.Random, rounds: int) -> bool:
    """True if none of `rounds` bases drawn from `rng`, one at a time,
    proves n composite."""
    return not any(_proves_composite(rng.randrange(2, n - 1), n)
                   for _ in range(rounds))


def _lucas_proof(n: int) -> bool | None:
    """The N+1 test (Brillhart, Lehmer and Selfridge, Math. Comp. 29,
    1975, Thm 15) for odd n > 5: True if n is proven prime, False if it
    is proven composite, None if n + 1 does not factor over
    `_SMALL_PRIMES` or `_LUCAS_CHAINS` chains decide nothing.

    Fix D with Jacobi(D/n) = -1 (Selfridge's 5, -7, 9, ...).  Each odd P,
    drawn at random as small P are related ((5 + sqrt(-7))/2 is
    -((1 + sqrt(-7))/2)^3), gives Q = (P^2 - D)/4 and the Lucas sequence U
    of x^2 - Px + Q.  If n | U_{n+1} for every P tried, and each prime
    q | n + 1 has some P with gcd(U_{(n+1)/q}, n) = 1, then every prime
    p | n satisfies p = +-1 (mod n + 1), so p = n.  For prime n the q = 2
    condition holds exactly when Jacobi(Q/n) = -1, so other P are skipped,
    and a P whose U_{(n+1)/2} shares a factor with n shows n composite.

    With r the product of the distinct q and k = (n + 1)/r, one chain
    gives U_k, V_k and Q^k, and U_{jk}(P, Q) = U_k * U_j(V_k, Q^k) gives
    U_{n+1} and each U_{(n+1)/q} from chains of a few bits.
    """
    qs = []
    rest = n + 1
    for q in _SMALL_PRIMES:
        if rest % q == 0:
            qs.append(q)
            while rest % q == 0:
                rest //= q
    if rest != 1:
        return None
    if math.isqrt(n) ** 2 == n:
        return False                 # a square has no D
    D = 5
    while (j := _jacobi(D, n)) != -1:
        if j == 0 and D % n:
            return False             # gcd(D, n) is a proper factor
        D = -D - 2 if D > 0 else 2 - D
    r = math.prod(qs)
    k = (n + 1) // r
    todo = set(qs)
    chains = 0
    rng = random.Random(f"lucas:{n}")    # apart from the bases' Random(n)
    # About half the P pass the Jacobi filter.
    for _ in range(4 * _LUCAS_CHAINS):
        P = rng.randrange(1 << 63, 1 << 64) | 1
        Q = (P * P - D) // 4
        if _jacobi(Q, n) != -1:
            continue
        U, V, Qk = _lucas_chain(P, Q, k, n)
        if U * _lucas_chain(V, Qk, r, n)[0] % n:
            return False             # n does not divide U_{n+1}
        for q in qs:
            g = math.gcd(U * _lucas_chain(V, Qk, r // q, n)[0], n)
            if g == 1:
                todo.discard(q)
            elif g != n or q == 2:
                return False
        if not todo:
            return True
        chains += 1
        if chains == _LUCAS_CHAINS:
            break
    return None


def _lucas_chain(P: int, Q: int, k: int, n: int) -> tuple[int, int, int]:
    """(U_k, V_k, Q^k) mod the odd n for x^2 - Px + Q and k >= 1, left to
    right: U_2j = U_j V_j, V_2j = V_j^2 - 2Q^j, then for a 1 bit
    U_{j+1} = (P U_j + V_j)/2 and V_{j+1} = (D U_j + P V_j)/2."""
    D = P * P - 4 * Q
    U, V, Qk = 1, P % n, Q % n
    for bit in bin(k)[3:]:
        U, V, Qk = U * V % n, (V * V - 2 * Qk) % n, Qk * Qk % n
        if bit == "1":
            U, V = (P * U + V) % n, (D * U + P * V) % n
            U = U >> 1 if U % 2 == 0 else (U + n) >> 1
            V = V >> 1 if V % 2 == 0 else (V + n) >> 1
            Qk = Qk * Q % n
    return U, V, Qk


def _jacobi(a: int, n: int) -> int:
    """Jacobi symbol (a/n) for odd n > 0."""
    a %= n
    t = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                t = -t
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            t = -t
        a %= n
    return t if n == 1 else 0


class OpCounter:
    """Monotone tallies of field operations.

    `m`, `s`, `i`, `a` count base-field multiplications, squarings,
    inversions and additions/subtractions.  The `ext_*` fields count the
    same kinds at the quadratic-extension level; extension operations
    additionally contribute their base-field work to `m`/`s`/`i`/`a`.
    """

    __slots__ = ("m", "s", "i", "a", "ext_m", "ext_s", "ext_i", "ext_a")

    def __init__(self):
        self.m = self.s = self.i = self.a = 0
        self.ext_m = self.ext_s = self.ext_i = self.ext_a = 0

    def as_dict(self) -> dict:
        return {"M": self.m, "S": self.s, "I": self.i, "A": self.a}

    def ext_as_dict(self) -> dict:
        return {"M": self.ext_m, "S": self.ext_s, "I": self.ext_i, "A": self.ext_a}

    def snapshot(self) -> tuple:
        return (self.m, self.s, self.i, self.a,
                self.ext_m, self.ext_s, self.ext_i, self.ext_a)

    def delta(self, since: tuple) -> dict:
        now = self.snapshot()
        d = [x - y for x, y in zip(now, since)]
        return {"M": d[0], "S": d[1], "I": d[2], "A": d[3],
                "ext_M": d[4], "ext_S": d[5], "ext_I": d[6], "ext_A": d[7]}

    def __repr__(self):
        return (f"OpCounter(M={self.m}, S={self.s}, I={self.i}, A={self.a}, "
                f"ext={self.ext_m}M+{self.ext_s}S+{self.ext_i}I+{self.ext_a}A)")


class PrimeField:
    """The field F_p for a prime p > 3 of at most `MAX_MODULUS_BITS` bits.

    Calling the field coerces integers (of either sign) or elements to
    canonical residues in [0, p); anything else is a TypeError.  The
    field owns the active OpCounter; swap it per task with `counting()`
    when isolated tallies are needed.
    """

    def __init__(self, p: int):
        if p <= 3:
            raise ValueError(f"modulus must exceed 3, got {p}")
        if p.bit_length() > MAX_MODULUS_BITS:
            raise ValueError(f"modulus of {p.bit_length()} bits exceeds "
                             f"{MAX_MODULUS_BITS}")
        if not is_probable_prime(p):
            raise ValueError(f"modulus {p} is not prime")
        self.p = p
        self.counter = OpCounter()

    def __call__(self, value) -> FieldElement:
        if isinstance(value, FieldElement):
            if value.field is not self and value.field.p != self.p:
                raise FieldMismatch(f"element of F_{value.field.p} used in F_{self.p}")
            return value
        return FieldElement(operator.index(value) % self.p, self)

    @property
    def zero(self) -> FieldElement:
        return FieldElement(0, self)

    @property
    def one(self) -> FieldElement:
        return FieldElement(1, self)

    @property
    def size(self) -> int:
        return self.p

    @property
    def degree(self) -> int:
        return 1

    @contextmanager
    def counting(self, ctx: OpCounter):
        """Temporarily route all arithmetic in this field through `ctx`."""
        saved = self.counter
        self.counter = ctx
        try:
            yield ctx
        finally:
            self.counter = saved

    def elements(self):
        for v in range(self.p):
            yield FieldElement(v, self)

    def random_element(self, rng: random.Random) -> FieldElement:
        return FieldElement(rng.randrange(self.p), self)

    def chi(self, x) -> int:
        """Quadratic character: 0 for zero, +1 for squares, -1 otherwise."""
        v = x.value if isinstance(x, FieldElement) else int(x) % self.p
        if v == 0:
            return 0
        return 1 if pow(v, (self.p - 1) // 2, self.p) == 1 else -1

    def sqrt(self, x) -> FieldElement:
        """Canonical square root (the smaller of the two), or NotASquare."""
        v = x.value if isinstance(x, FieldElement) else int(x) % self.p
        if v == 0:
            return self.zero
        if self.chi(v) != 1:
            raise NotASquare(f"{v} is not a square mod {self.p}")
        p = self.p
        if p % 4 == 3:
            r = pow(v, (p + 1) // 4, p)
        else:
            r = _tonelli_shanks(v, p)
        return FieldElement(min(r, p - r), self)

    def parse(self, text: str) -> FieldElement:
        """Parse the bare lowercase-hex wire form written by `to_str`."""
        return self(int(text, 16))

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("PrimeField", self.p))

    def __repr__(self):
        return f"PrimeField({self.p})"


def _tonelli_shanks(v: int, p: int) -> int:
    """Square root mod p for p ≡ 1 (mod 4); v must be a nonzero square."""
    q = p - 1
    s = 0
    while q % 2 == 0:
        q //= 2
        s += 1
    z = 2
    while pow(z, (p - 1) // 2, p) != p - 1:
        z += 1
    c = pow(z, q, p)
    x = pow(v, (q + 1) // 2, p)
    t = pow(v, q, p)
    m = s
    while t != 1:
        i, tt = 0, t
        while tt != 1:
            tt = tt * tt % p
            i += 1
        b = pow(c, 1 << (m - i - 1), p)
        x = x * b % p
        c = b * b % p
        t = t * c % p
        m = i
    return x


class Element:
    """Operators that both field element types (F_p and F_{p^2}) derive
    from their own `_coerce`, `-`, `*`, `square()` and `inverse()`, so
    each rule, and the count it tallies, is written once."""

    __slots__ = ()

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return o - self

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return o * self.inverse()

    def __pow__(self, k: int):
        """self ** k by left-to-right square-and-multiply, so the power
        tallies exactly its squarings (S) and multiplications (M); k < 0
        inverts first."""
        if not isinstance(k, int):
            return NotImplemented
        if k < 0:
            return self.inverse() ** (-k)
        if k == 0:
            return self.field.one
        acc = self
        for bit in bin(k)[3:]:
            acc = acc.square()
            if bit == "1":
                acc = acc * self
        return acc

    def chi(self) -> int:
        return self.field.chi(self)

    def sqrt(self):
        return self.field.sqrt(self)


class FieldElement(Element):
    """An immutable residue in [0, p).  Arithmetic counts on the field's
    active OpCounter: * -> M, square() -> S, inverse() -> I, +/- -> A;
    ** decomposes into its square-and-multiply M/S uses."""

    __slots__ = ("value", "field")
    # c0 + 0*i: the parts the x-line formulas read (xonly).
    _c0, _c1 = property(lambda self: self.value), 0

    def __init__(self, value: int, field: PrimeField):
        self.value = value
        self.field = field

    def _coerce(self, other) -> "FieldElement":
        if isinstance(other, FieldElement):
            if other.field.p != self.field.p:
                raise FieldMismatch(
                    f"mixed moduli {self.field.p} and {other.field.p}")
            return other
        if isinstance(other, int):
            return FieldElement(other % self.field.p, self.field)
        return NotImplemented

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        self.field.counter.a += 1
        return FieldElement((self.value + o.value) % self.field.p, self.field)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        self.field.counter.a += 1
        return FieldElement((self.value - o.value) % self.field.p, self.field)

    def __neg__(self):
        self.field.counter.a += 1
        return FieldElement(-self.value % self.field.p, self.field)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        self.field.counter.m += 1
        return FieldElement(self.value * o.value % self.field.p, self.field)

    __rmul__ = __mul__

    def square(self) -> "FieldElement":
        self.field.counter.s += 1
        return FieldElement(self.value * self.value % self.field.p, self.field)

    def inverse(self) -> "FieldElement":
        if self.value == 0:
            raise DivisionByZero(f"inverse of 0 mod {self.field.p}")
        self.field.counter.i += 1
        return FieldElement(pow(self.value, -1, self.field.p), self.field)

    def is_zero(self) -> bool:
        return self.value == 0

    def signed(self) -> int:
        """Representative of least magnitude (negative when > p/2)."""
        return self.value if self.value <= self.field.p // 2 else self.value - self.field.p

    def to_str(self) -> str:
        return format(self.value, "x")

    def __eq__(self, other):
        if isinstance(other, FieldElement):
            return self.field.p == other.field.p and self.value == other.value
        if isinstance(other, int):
            return self.value == other % self.field.p
        return NotImplemented

    def __hash__(self):
        return hash((self.value, self.field.p))

    def __repr__(self):
        return f"{self.signed()}"
