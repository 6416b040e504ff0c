"""Exact scalar arithmetic over the rationals and over prime fields.

Rational elements are ``fractions.Fraction`` (always reduced, positive
denominator); prime-field elements are plain ints kept in ``[0, p)``.
A ``Field`` bundles the arithmetic so matrix code can stay generic.
"""

from __future__ import annotations

import operator
from fractions import Fraction

from .errors import InputError

RATIONALS = "rationals"
PRIME = "prime"

# inverse tables are only precomputed below this modulus
_INVERSE_TABLE_LIMIT = 1 << 16


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def next_prime(n: int) -> int:
    """Smallest prime strictly greater than n."""
    m = n + 1
    while not is_prime(m):
        m += 1
    return m


class Field:
    """Arithmetic context: the rationals, or the field with p elements."""

    __slots__ = ("kind", "p", "_inv")

    def __init__(self, kind: str, p: int | None = None):
        if kind == PRIME:
            # operator.index, never int(): 2.0 or True is refused, not truncated
            try:
                if isinstance(p, bool):
                    raise TypeError
                p = operator.index(p)
            except TypeError:
                raise InputError(f"modulus {p!r} is not an integer") from None
            if not is_prime(p):
                raise InputError(f"modulus {p!r} is not prime")
        elif kind == RATIONALS:
            if p is not None:
                raise InputError("rationals take no modulus")
        else:
            raise InputError(f"unknown field kind {kind!r}")
        self.kind = kind
        self.p = p
        self._inv = None

    @classmethod
    def prime(cls, p: int) -> "Field":
        return cls(PRIME, p)

    @property
    def is_rationals(self) -> bool:
        return self.kind == RATIONALS

    @property
    def zero(self):
        return 0 if self.p is not None else Fraction(0)

    @property
    def one(self):
        return 1 if self.p is not None else Fraction(1)

    def neg(self, a):
        return (-a) % self.p if self.p is not None else -a

    def inv(self, a):
        if self.p is None:
            if a == 0:
                raise ZeroDivisionError("inverse of zero")
            return 1 / Fraction(a)
        a %= self.p
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        if self.p < _INVERSE_TABLE_LIMIT:
            if self._inv is None:
                self._inv = _inverse_table(self.p)
            return self._inv[a]
        return pow(a, -1, self.p)

    def parse(self, text):
        """Parse an exact scalar: an int, or a string 'n' or 'n/m'.

        A string with an exponent is refused: Fraction would expand the
        eleven characters '1e999999999' into a billion-digit integer.
        """
        if isinstance(text, bool) or not isinstance(text, (str, int)) or (
            isinstance(text, str) and "e" in text.lower()
        ):
            raise InputError(f"not an exact rational: {text!r}")
        try:
            value = Fraction(text)
        except (ValueError, ZeroDivisionError) as exc:
            raise InputError(f"not an exact rational: {text!r}") from exc
        if self.p is None:
            return value
        if value.denominator % self.p == 0:
            raise InputError(f"denominator of {text!r} vanishes mod {self.p}")
        return (value.numerator * pow(value.denominator, -1, self.p)) % self.p

    def __eq__(self, other):
        return isinstance(other, Field) and self.kind == other.kind and self.p == other.p

    def __hash__(self):
        return hash((self.kind, self.p))

    def __repr__(self):
        return "Field(Q)" if self.p is None else f"Field(F_{self.p})"


def distinct_primes(q_list) -> list[int]:
    """The primes of q_list, each checked by Field.prime (so never truncated);
    the list must be nonempty and repeat none."""
    qs = [Field.prime(q).p for q in q_list]
    if not qs or len(set(qs)) != len(qs):
        raise InputError("need a nonempty list of distinct primes")
    return qs


def _inverse_table(p: int) -> list:
    # inv[a] = -(p // a) * inv[p % a] mod p, the standard linear-time recurrence
    inv = [0] * p
    if p > 1:
        inv[1] = 1
    for a in range(2, p):
        inv[a] = (p - (p // a) * inv[p % a]) % p
    return inv


QQ = Field(RATIONALS)
