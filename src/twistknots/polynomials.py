"""Exact one-variable Laurent polynomials with integer coefficients.

The library returns Jones polynomials in the variable ``t`` as these;
exponents may be half-integers for links with an even number of
components, so they are stored *doubled*: ``t**(1/2)`` has stored
exponent 1 and ``t**3`` has stored exponent 6.  The frontier scan keeps
its bracket state sums in a packed form of its own (see ``invariants``);
only the brute-force oracles of the tests sum brackets in the variable
``A`` (plain integer exponents) with this class.

No floating point is ever involved; coefficients are Python ints.
"""

from __future__ import annotations

from typing import Iterable, Mapping


class LaurentPolynomial:
    """Immutable sparse Laurent polynomial ``sum c_e * X**e`` over Z.

    ``coeffs`` maps integer exponents to nonzero integer coefficients, both
    plain ints.  Zero coefficients are never stored, which makes ``==``
    structural; an int equals and hashes like its constant polynomial.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Mapping[int, int] | Iterable[tuple[int, int]] = ()):
        items = coeffs.items() if isinstance(coeffs, Mapping) else coeffs
        clean: dict[int, int] = {}
        for e, c in items:
            if not isinstance(e, int) or not isinstance(c, int):
                raise TypeError("exponents and coefficients must be ints")
            if c:
                clean[e] = clean.get(e, 0) + c  # an int, even for a bool c
                if not clean[e]:
                    del clean[e]
        self.coeffs = {int(e): c for e, c in sorted(clean.items())}

    # -- constructors -------------------------------------------------

    @classmethod
    def _of_terms(cls, coeffs: dict[int, int]) -> "LaurentPolynomial":
        """The polynomial that stores ``coeffs`` as it is: for a caller
        whose exponents are ints in increasing order and whose
        coefficients are nonzero ints, so nothing is left to check, sum
        or sort."""
        p = cls.__new__(cls)
        p.coeffs = coeffs
        return p

    @classmethod
    def one(cls) -> "LaurentPolynomial":
        return cls({0: 1})

    @classmethod
    def monomial(cls, exponent: int, coeff: int = 1) -> "LaurentPolynomial":
        return cls({exponent: coeff})

    # -- ring operations ----------------------------------------------

    def __add__(self, other: "LaurentPolynomial") -> "LaurentPolynomial":
        if not isinstance(other, LaurentPolynomial):
            return NotImplemented
        out = dict(self.coeffs)
        for e, c in other.coeffs.items():
            out[e] = out.get(e, 0) + c
        return LaurentPolynomial(out)

    def __mul__(self, other):
        if isinstance(other, int):
            return LaurentPolynomial({e: c * other for e, c in self.coeffs.items()})
        if not isinstance(other, LaurentPolynomial):
            return NotImplemented
        out: dict[int, int] = {}
        for e1, c1 in self.coeffs.items():
            for e2, c2 in other.coeffs.items():
                e = e1 + e2
                out[e] = out.get(e, 0) + c1 * c2
        return LaurentPolynomial(out)

    def __pow__(self, n: int) -> "LaurentPolynomial":
        if n < 0:
            raise ValueError(f"negative power {n} of a Laurent polynomial")
        out = LaurentPolynomial.one()
        for _ in range(n):
            out = out * self
        return out

    def shift(self, k: int) -> "LaurentPolynomial":
        """Multiply by X**k."""
        return LaurentPolynomial({e + k: c for e, c in self.coeffs.items()})

    # -- queries --------------------------------------------------------

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            return self.coeffs == ({0: other} if other else {})
        if not isinstance(other, LaurentPolynomial):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        if self.coeffs.keys() <= {0}:  # a constant hashes like its int
            return hash(self.coeffs.get(0, 0))
        return hash(tuple(self.coeffs.items()))

    # -- serialization ---------------------------------------------------

    def pairs(self) -> list[tuple[int, int]]:
        """Sorted (exponent, coefficient) pairs; the wire format."""
        return list(self.coeffs.items())

    def __repr__(self):
        return f"LaurentPolynomial({self.coeffs})"
