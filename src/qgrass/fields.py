"""Exact scalar arithmetic over the rationals and over prime fields.

Rational elements are ``fractions.Fraction`` (always reduced, positive
denominator); prime-field elements are plain ints kept in ``[0, p)``.
A ``Field`` is its modulus p, None for the rationals: ``QQ`` or
``Field.prime(p)``.  It bundles the arithmetic so matrix code can stay
generic.
"""

from __future__ import annotations

import operator
from fractions import Fraction

from .errors import InputError


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
    """Arithmetic context: the rationals (p is None), or the field with p elements."""

    __slots__ = ("p",)

    def __init__(self, p: int | None = None):
        if p is not None:
            # operator.index, never int(): 2.0 or True is refused, not truncated
            try:
                if isinstance(p, bool):
                    raise TypeError
                p = operator.index(p)
            except TypeError:
                raise InputError(f"modulus {p!r} is not an integer") from None
            if not is_prime(p):
                raise InputError(f"modulus {p!r} is not prime")
        self.p = p

    @classmethod
    def prime(cls, p: int) -> "Field":
        if p is None:
            raise InputError("modulus None is not an integer")
        return cls(p)

    @property
    def is_rationals(self) -> bool:
        return self.p is None

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
            return 1 / Fraction(a)  # ZeroDivisionError at a = 0
        if a % self.p == 0:
            raise ZeroDivisionError("inverse of zero")
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
        return isinstance(other, Field) and self.p == other.p

    def __hash__(self):
        return hash(self.p)

    def __repr__(self):
        return "Field(Q)" if self.p is None else f"Field(F_{self.p})"


def distinct_primes(q_list) -> list[int]:
    """The primes of q_list, each checked by Field.prime (so never truncated);
    the list must be nonempty and repeat none."""
    qs = [Field.prime(q).p for q in q_list]
    if not qs or len(set(qs)) != len(qs):
        raise InputError("need a nonempty list of distinct primes")
    return qs


QQ = Field()
