"""Exact rational-function arithmetic: pinned identities and algebraic laws."""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from probproc.ratfunc import RationalFn, _pmul, format_ratfunc

var = RationalFn.var
scalar = RationalFn.scalar


def structurally_equal(f: RationalFn, g: RationalFn) -> bool:
    return f.num == g.num and f.den == g.den


def parse_ratfunc(text: str) -> RationalFn:
    """Read back what `format_ratfunc` prints: a constant fraction, or
    `num / den` of expanded polynomials, a polynomial of several terms in
    brackets."""
    num, _, den = text.partition(" / ")
    if not den and "/" in num:
        num, den = num.split("/")
    return RationalFn(_parse_poly(num), _parse_poly(den or "1"))


def _parse_poly(text: str) -> dict:
    poly: dict = {}
    for term in text.strip("()").split(" + "):
        coeff, exps = 1, {}
        for factor in term.split("*"):
            if factor.isdigit():
                coeff *= int(factor)
            else:
                name, _, exp = factor.partition("^")
                exps[name] = exps.get(name, 0) + int(exp or 1)
        mono = tuple(sorted(exps.items()))
        poly[mono] = poly.get(mono, 0) + coeff
    return {mono: coeff for mono, coeff in poly.items() if coeff}


def test_variable_constructor():
    h = var("h")
    assert str(h) == "h"
    assert h.evaluate({"h": 3}) == 3
    assert h / h == scalar(1)


def test_scalar_constructor():
    assert scalar(Fraction(1, 2)).constant_value() == Fraction(1, 2)
    assert scalar(0) + var("a") == var("a")
    assert scalar(1) * var("a") == var("a")
    with pytest.raises(ValueError):
        scalar(Fraction(-1, 2))


def test_halved_symmetric_mixture_collapses():
    # (1/2)(a/(a+b)) + (1/2)(b/(a+b)) is the constant one half.
    a, b = var("a"), var("b")
    mixture = scalar(Fraction(1, 2)) * (a / (a + b)) + scalar(Fraction(1, 2)) * (
        b / (a + b)
    )
    assert mixture == scalar(Fraction(1, 2))


def test_additive_and_multiplicative_identities():
    f = var("a") / (var("a") + var("b"))
    assert structurally_equal(f + scalar(0), f)
    assert f * scalar(1) == f
    assert (var("a") / (var("a") + var("b"))) * ((var("a") + var("b")) / var("a")) == scalar(1)


def test_equality_ignores_distributed_constants():
    h, t = var("h"), var("t")
    two = scalar(2)
    lhs = (h + two * t) / (two * (h + t))
    rhs = (h + two * t) / (two * h + two * t)
    assert lhs == rhs


def test_equality_distinguishes_different_numerators():
    a, b = var("a"), var("b")
    assert (a / (a + b)) != (b / (a + b))


def test_division_by_zero_function_rejected():
    with pytest.raises(ZeroDivisionError):
        var("a") / RationalFn.zero()


def test_evaluate():
    a, b = var("a"), var("b")
    assert (a / (a + b)).evaluate({"a": 1, "b": 1}) == Fraction(1, 2)
    assert scalar(Fraction(3, 4)).evaluate({}) == Fraction(3, 4)
    h, t = var("h"), var("t")
    f = (h + scalar(2) * t) / (scalar(2) * (h + t))
    # hand arithmetic at h = t = 1: (1 + 2) / (2 * 2)
    assert f.evaluate({"h": 1, "t": 1}) == Fraction(3, 4)


def test_evaluate_rejects_missing_and_nonpositive():
    f = var("a") / (var("a") + var("b"))
    with pytest.raises(ValueError):
        f.evaluate({"a": 1})
    with pytest.raises(ValueError):
        f.evaluate({"a": 1, "b": 0})


def _peval(poly, values):
    """Reference evaluation of a polynomial term by term in Fractions."""
    total = Fraction(0)
    for mono, coeff in poly.items():
        term = coeff
        for name, exp in mono:
            term *= values[name] ** exp
        total += term
    return total


def test_integer_evaluation_matches_the_fraction_reference():
    import random

    from probproc.harness import GenConfig, random_ratfunc

    rng = random.Random(2024)
    cfg = GenConfig(alphabet_size=4, seed=2024)
    checked = 0
    for _ in range(300):
        f = random_ratfunc(cfg, rng, depth=rng.randint(1, 4))
        for _ in range(10):
            point = {
                name: Fraction(rng.randint(1, 60), rng.randint(1, 60)) for name in cfg.labels
            }
            expected = _peval(f.num, point) / _peval(f.den, point)
            assert f.evaluate(point) == expected
            checked += 1
    assert checked == 3000
    # Unused coordinates are checked but ignored; raw ints and strings convert.
    assert (var("a") / (var("a") + var("b"))).evaluate({"a": 2, "b": "1/3", "c": 5}) == Fraction(6, 7)
    with pytest.raises(ValueError, match="must be positive"):
        var("a").evaluate({"a": 1, "c": -1})
    with pytest.raises(ValueError, match=r"no value given for variable\(s\) \['b'\]"):
        (var("a") * var("b")).evaluate({"a": 1})


def test_pinned_rendering():
    h, t = var("h"), var("t")
    f = (h + scalar(2) * t) / (scalar(2) * (h + t))
    assert str(f) == "(h + 2*t) / (2*h + 2*t)"
    assert str(scalar(Fraction(1, 2))) == "1/2"
    assert str(RationalFn.zero()) == "0"


def test_parse_round_trip_pinned():
    for text in ("(h + 2*t) / (2*h + 2*t)", "1/2", "h", "a / (a + b)", "3*a + 1"):
        f = parse_ratfunc(text)
        assert format_ratfunc(f) == text


# --- random structural laws --------------------------------------------------

_names = st.sampled_from(("a", "b", "c"))


@st.composite
def ratfuncs(draw, max_depth=3):
    depth = draw(st.integers(0, max_depth))
    if depth == 0:
        if draw(st.booleans()):
            return RationalFn.var(draw(_names))
        return RationalFn.scalar(
            Fraction(draw(st.integers(0, 5)), draw(st.integers(1, 5)))
        )
    op = draw(st.sampled_from(("add", "mul", "div")))
    left = draw(ratfuncs(max_depth=depth - 1))
    right = draw(ratfuncs(max_depth=depth - 1))
    if op == "add":
        return left + right
    if op == "mul":
        return left * right
    if right.is_zero():
        right = RationalFn.one()
    return left / right


@given(ratfuncs(), ratfuncs())
@settings(max_examples=120, deadline=None)
def test_add_and_mul_commute_structurally(f, g):
    assert structurally_equal(f + g, g + f)
    assert structurally_equal(f * g, g * f)


@given(ratfuncs(), ratfuncs(), ratfuncs())
@example(var("a"), var("b") + var("c"), scalar(1) / (var("b") + var("c")))
@settings(max_examples=120, deadline=None)
def test_add_and_mul_associate_structurally(f, g, h):
    assert structurally_equal((f + g) + h, f + (g + h))
    # Products associate only semantically: they cancel proportional pairs
    # but no other common factor, so on the example (f*g)*h keeps the
    # factor b + c in (a*b + a*c) / (b + c), which f*(g*h) cancels to a.
    assert (f * g) * h == f * (g * h)


@given(ratfuncs(), ratfuncs(), ratfuncs())
@settings(max_examples=120, deadline=None)
def test_mul_distributes_over_add(f, g, h):
    # Unreduced fractions differ structurally by a denominator factor here,
    # so distributivity is asserted with the module's semantic equality.
    assert f * (g + h) == f * g + f * h


@given(ratfuncs(), ratfuncs())
@settings(max_examples=100, deadline=None)
def test_product_with_one_returns_the_other_factor(f, g):
    # The shortcut gives what the full product normalizes to.
    one = g / g if not g.is_zero() else RationalFn.one()
    if not f.is_zero():
        assert f * one is f
    full = RationalFn(_pmul(f.num, one.num), _pmul(f.den, one.den))
    assert structurally_equal(f * one, full)
    assert structurally_equal(one * f, full)


@given(ratfuncs())
@settings(max_examples=100, deadline=None)
def test_product_with_zero_returns_the_zero_factor(f):
    # The zero operand is what the full product normalizes to.
    zero = scalar(0)
    assert zero * f is zero
    assert f * zero is (f if f.is_zero() else zero)
    assert structurally_equal(zero, RationalFn(_pmul(f.num, zero.num), _pmul(f.den, zero.den)))


@given(ratfuncs())
@settings(max_examples=150, deadline=None)
def test_normalization_is_idempotent(f):
    again = RationalFn(f.num, f.den)
    assert structurally_equal(f, again)


@given(ratfuncs(), ratfuncs(), ratfuncs())
@settings(max_examples=100, deadline=None)
def test_semantic_equality_is_an_equivalence(f, g, h):
    assert f == f
    assert (f == g) == (g == f)
    if f == g and g == h:
        assert f == h


@given(ratfuncs(), ratfuncs(), st.integers(0, 2**32))
@settings(max_examples=100, deadline=None)
def test_equality_agrees_with_exact_evaluation(f, g, seed):
    import random

    rng = random.Random(seed)
    names = sorted(f.variables() | g.variables())
    equal = f == g
    disagreed = False
    for _ in range(100):
        point = {n: Fraction(rng.randint(1, 50), rng.randint(1, 50)) for n in names}
        fv, gv = f.evaluate(point), g.evaluate(point)
        if equal:
            assert fv == gv
        elif fv != gv:
            disagreed = True
            break
    if not equal:
        assert disagreed, f"no separating point found for {f} vs {g}"


_coordinates = st.fixed_dictionaries(
    {name: st.tuples(st.integers(1, 12), st.integers(1, 12)) for name in ("a", "b", "c")}
)


@given(ratfuncs(), _coordinates)
@example(var("a") / (var("a") + var("b")), {"a": (2, 4), "b": (3, 9), "c": (6, 6)})
@settings(max_examples=150, deadline=None)
def test_evaluator_matches_the_fraction_reference(f, point):
    values = {name: Fraction(n, d) for name, (n, d) in point.items()}
    ref_num, ref_den = _peval(f.num, values), _peval(f.den, values)
    num, den = f.evaluator()(point)
    assert den > 0
    assert num * ref_den == den * ref_num
    assert f.evaluate(values) == ref_num / ref_den


@given(ratfuncs())
@settings(max_examples=60, deadline=None)
def test_round_trip_random(f):
    text = format_ratfunc(f)
    assert structurally_equal(parse_ratfunc(text), f)


# --- independent oracle -------------------------------------------------------


def test_equality_and_normal_form_agree_with_sympy():
    import random
    from math import gcd

    sympy = pytest.importorskip("sympy")
    from probproc.harness import GenConfig, random_ratfunc

    cfg = GenConfig(alphabet_size=4)
    symbols = {name: sympy.Symbol(name, positive=True) for name in cfg.labels}

    def to_sympy(f: RationalFn):
        # A one-term denominator prints bare ("x / 2*a"), so bracket each side.
        sides = str(f).replace("^", "**").split(" / ")
        text = "/".join(f"({side})" for side in sides)
        return sympy.parse_expr(text, local_dict=symbols)

    rng = random.Random(2009)
    for index in range(300):
        f = random_ratfunc(cfg, rng)
        if index % 2 == 0:
            g = random_ratfunc(cfg, rng)
        else:
            q = random_ratfunc(cfg, rng, depth=2)
            g = (f * q) / q if not q.is_zero() else f
        F, G = to_sympy(f), to_sympy(g)
        assert (f == g) == (sympy.cancel(F - G) == 0), (f, g)
        assert sympy.cancel(to_sympy(f + g) - (F + G)) == 0, (f, g)
        assert sympy.cancel(to_sympy(f * g) - F * G) == 0, (f, g)
        for h in (f, g, f + g, f * g):
            coeffs = list(h.num.values()) + list(h.den.values())
            assert all(type(c) is int for c in coeffs), h
            assert gcd(*coeffs) == 1, h
