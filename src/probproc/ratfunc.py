"""Exact arithmetic for rational functions whose variables are action names.

A polynomial is a dict mapping monomials to positive int coefficients; a
monomial is a tuple of (name, exponent) pairs, sorted by name, with strictly
positive exponents.  The empty tuple is the constant monomial.  Nothing here
subtracts, so sums never cancel and no zero coefficient is ever stored: plain
dict equality is polynomial identity.

A RationalFn is a numerator/denominator pair of such polynomials.  Every
function built by this package takes only positive variable values, which
makes cross-multiplication a sound and complete equality test:

    f == g   iff   f.num * g.den  and  g.num * f.den  are identical dicts.

No polynomial GCD is computed.  Results stay unreduced except for cheap
normalizations (zero numerator, shared monomial factor, proportional
numerator/denominator, dividing out the gcd of all coefficients) that keep
printed output close to the hand-reduced form without affecting correctness.
After normalization the coefficients of numerator and denominator together
have gcd 1.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Callable, Iterable, Mapping

Monomial = tuple[tuple[str, int], ...]
Poly = dict[Monomial, int]

_ONE_MONO: Monomial = ()


def _pconst(value: int) -> Poly:
    if value == 0:
        return {}
    return {_ONE_MONO: value}


def _pvar(name: str) -> Poly:
    return {((name, 1),): 1}


def _padd(a: Poly, b: Poly) -> Poly:
    out = dict(a)
    for mono, coeff in b.items():
        out[mono] = out.get(mono, 0) + coeff
    return out


def _mono_mul(m1: Monomial, m2: Monomial) -> Monomial:
    exps = dict(m1)
    for name, exp in m2:
        exps[name] = exps.get(name, 0) + exp
    return tuple(sorted(exps.items()))


def _pmul(a: Poly, b: Poly) -> Poly:
    out: Poly = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            mono = _mono_mul(m1, m2)
            out[mono] = out.get(mono, 0) + c1 * c2
    return out


def _pvars(a: Poly) -> set[str]:
    return {name for mono in a for name, _ in mono}


def _common_monomial(polys: Iterable[Poly]) -> Monomial:
    """Largest monomial dividing every term of every given polynomial."""
    shared: dict[str, int] | None = None
    for poly in polys:
        for mono in poly:
            exps = dict(mono)
            if shared is None:
                shared = exps
            else:
                shared = {
                    name: min(exp, exps[name])
                    for name, exp in shared.items()
                    if name in exps
                }
            if not shared:
                return _ONE_MONO
    if not shared:
        return _ONE_MONO
    return tuple(sorted(shared.items()))


def _mono_divide(mono: Monomial, divisor: Monomial) -> Monomial:
    exps = dict(mono)
    for name, exp in divisor:
        rest = exps[name] - exp
        if rest:
            exps[name] = rest
        else:
            del exps[name]
    return tuple(sorted(exps.items()))


class RationalFn:
    """A quotient of two exactly represented multivariate polynomials.

    Values are immutable; all operators return normalized instances, an
    operand itself when the other is zero in a sum or one in a product.
    Equality (==) is semantic equality as functions on positive arguments.
    """

    __slots__ = ("num", "den")
    __hash__ = None  # semantic == is coarser than any cheap structural hash

    def __init__(self, num: Poly, den: Poly):
        if not den:
            raise ZeroDivisionError("denominator is the zero polynomial")
        num, den = _normalize(num, den)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def __setattr__(self, name, value):
        raise AttributeError("RationalFn is immutable")

    @staticmethod
    def var(name: str) -> RationalFn:
        """The function of a single action-name variable."""
        return RationalFn(_pvar(name), _pconst(1))

    @staticmethod
    def scalar(value) -> RationalFn:
        """A constant function; the value must be a non-negative rational."""
        value = Fraction(value)
        if value < 0:
            raise ValueError(f"scalar must be non-negative, got {value}")
        return RationalFn(_pconst(value.numerator), _pconst(value.denominator))

    @staticmethod
    def zero() -> RationalFn:
        return RationalFn({}, _pconst(1))

    @staticmethod
    def one() -> RationalFn:
        return RationalFn(_pconst(1), _pconst(1))

    def __add__(self, other: RationalFn) -> RationalFn:
        if not self.num:
            return other
        if not other.num:
            return self
        num = _padd(_pmul(self.num, other.den), _pmul(other.num, self.den))
        return RationalFn(num, _pmul(self.den, other.den))

    def __mul__(self, other: RationalFn) -> RationalFn:
        if not self.num or not other.num:
            return RationalFn.zero()
        # A normalized function equal to one has num == den == 1.
        if other.num == other.den:
            return self
        if self.num == self.den:
            return other
        return RationalFn(_pmul(self.num, other.num), _pmul(self.den, other.den))

    def __truediv__(self, other: RationalFn) -> RationalFn:
        if not other.num:
            raise ZeroDivisionError("division by the zero function")
        return RationalFn(_pmul(self.num, other.den), _pmul(self.den, other.num))

    def __eq__(self, other) -> bool:
        if not isinstance(other, RationalFn):
            return NotImplemented
        return _pmul(self.num, other.den) == _pmul(other.num, self.den)

    def is_zero(self) -> bool:
        return not self.num

    def is_constant(self) -> bool:
        return all(m == _ONE_MONO for m in self.num) and all(
            m == _ONE_MONO for m in self.den
        )

    def constant_value(self) -> Fraction:
        if not self.is_constant():
            raise ValueError(f"{self} is not a constant function")
        return Fraction(self.num.get(_ONE_MONO, 0), self.den[_ONE_MONO])

    def variables(self) -> set[str]:
        return _pvars(self.num) | _pvars(self.den)

    def evaluator(self) -> Callable[[Mapping[str, tuple[int, int]]], tuple[int, int]]:
        """The function's exact evaluator on integer coordinates.

        It maps {x: (n, d)}, with positive ints n and d for each variable x,
        to ints (N, D) with D > 0 and N / D the value at x = n / d.  Other
        names are ignored.  The pair need not be in lowest terms.
        """
        # With x = n/d raised at most to E_x over num and den together,
        # multiplying both by the product of d^E_x turns each term
        # c * x^e into the integer c * n^e * d^(E_x - e).
        top: dict[str, int] = {}
        for poly in (self.num, self.den):
            for mono in poly:
                for name, exp in mono:
                    if exp > top.get(name, 0):
                        top[name] = exp
        names = sorted(top)
        num, den = (
            [(c, [dict(mono).get(name, 0) for name in names]) for mono, c in poly.items()]
            for poly in (self.num, self.den)
        )

        def scaled(terms, powers: list[list[int]]) -> int:
            total = 0
            for coeff, exps in terms:
                for table, exp in zip(powers, exps):
                    coeff *= table[exp]
                total += coeff
            return total

        def evaluate(point: Mapping[str, tuple[int, int]]) -> tuple[int, int]:
            powers = []
            for name in names:
                n, d = point[name]
                most = top[name]
                powers.append([n**e * d ** (most - e) for e in range(most + 1)])
            return scaled(num, powers), scaled(den, powers)

        return evaluate

    def evaluate(self, assignment: Mapping[str, object]) -> Fraction:
        """Exact value at a point with positive rational coordinates."""
        point: dict[str, tuple[int, int]] = {}
        for name, raw in assignment.items():
            value = Fraction(raw)
            if value <= 0:
                raise ValueError(f"variable {name!r} must be positive, got {value}")
            point[name] = value.numerator, value.denominator
        missing = self.variables() - point.keys()
        if missing:
            raise ValueError(f"no value given for variable(s) {sorted(missing)}")
        num, den = self.evaluator()(point)
        return Fraction(num, den)

    def __str__(self) -> str:
        return format_ratfunc(self)

    def __repr__(self) -> str:
        return f"RationalFn({format_ratfunc(self)!r})"


def _normalize(num: Poly, den: Poly) -> tuple[Poly, Poly]:
    if not num:
        return {}, _pconst(1)
    shared = _common_monomial((num, den))
    if shared != _ONE_MONO:
        num = {_mono_divide(m, shared): c for m, c in num.items()}
        den = {_mono_divide(m, shared): c for m, c in den.items()}
    # Proportional pair: collapse (n*q) / (d*q) to the constant n / d.
    if num.keys() == den.keys():
        first = next(iter(num))
        n, d = num[first], den[first]
        if all(num[m] * d == den[m] * n for m in num):
            num, den = _pconst(n), _pconst(d)
    # Divide out the gcd of all coefficients.
    divisor = gcd(*num.values(), *den.values())
    if divisor != 1:
        num = {m: c // divisor for m, c in num.items()}
        den = {m: c // divisor for m, c in den.items()}
    return num, den


def _mono_sort_key(mono: Monomial, var_order: list[str]):
    exps = dict(mono)
    return (-sum(exps.values()), tuple(-exps.get(v, 0) for v in var_order))


def _format_poly(poly: Poly) -> str:
    if not poly:
        return "0"
    var_order = sorted(_pvars(poly))
    parts = []
    for mono in sorted(poly, key=lambda m: _mono_sort_key(m, var_order)):
        coeff = poly[mono]
        body = "*".join(f"{n}^{e}" if e > 1 else n for n, e in mono)
        if not body:
            parts.append(str(coeff))
        elif coeff == 1:
            parts.append(body)
        else:
            parts.append(f"{coeff}*{body}")
    return " + ".join(parts)


def format_ratfunc(f: RationalFn) -> str:
    """Render as `num / den` with expanded polynomials in graded-lex order."""
    if f.is_constant():
        return str(f.constant_value())
    if f.den == _pconst(1):
        return _format_poly(f.num)

    def wrap(poly: Poly) -> str:
        text = _format_poly(poly)
        return f"({text})" if len(poly) > 1 else text

    return f"{wrap(f.num)} / {wrap(f.den)}"
