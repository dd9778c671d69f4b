from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from cyclotome.fields import (
    Cyclotomic, FieldError, PrimeField, Rationals, _poly_divmod, _poly_mul, _poly_trim,
    cyclotomic_polynomial,
)

Q = Rationals()


def test_rational_addition():
    a = Q.from_fraction(Fraction(2, 3))
    b = Q.from_fraction(Fraction(1, 6))
    assert a + b == Q.from_fraction(Fraction(5, 6))


def test_prime_field_inverse():
    F7 = PrimeField(7)
    assert F7.from_int(3).inverse() == F7.from_int(5)


def test_cyclotomic8_powers():
    # Phi_8 = x^4 + 1, so z^4 = -1
    K = Cyclotomic(8)
    z = K.generator()
    assert z * z ** 3 == K.from_int(-1)
    assert cyclotomic_polynomial(8) == (1, 0, 0, 0, 1)


def test_cyclotomic4_is_gaussian():
    K = Cyclotomic(4)
    i = K.generator()
    assert i * i == K.from_int(-1)
    assert (i ** 2 + 1).is_zero()
    assert i.inverse() == -i


def test_field_mismatch_raises():
    with pytest.raises(FieldError):
        Q.one() + PrimeField(5).one()


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        Q.one() / Q.zero()
    with pytest.raises(ZeroDivisionError):
        Cyclotomic(4).zero().inverse()


def test_nonprime_modulus_rejected():
    with pytest.raises(FieldError):
        PrimeField(6)


def test_render_parse_roundtrip():
    K = Cyclotomic(4)
    for s in [K.zero(), K.one(), K.generator(), K.from_int(3) * K.generator() + 2,
              K.from_fraction(Fraction(-1, 2)) * K.generator() - Fraction(7, 3)]:
        assert K.parse(repr(s)) == s
    assert Q.parse("3/4") == Q.from_fraction(Fraction(3, 4))
    assert PrimeField(7).parse("12") == PrimeField(7).from_int(5)


fractions_st = st.fractions(min_value=-40, max_value=40, max_denominator=12)


@given(fractions_st, fractions_st, fractions_st)
def test_rational_field_axioms(a, b, c):
    x, y, z = (Q.from_fraction(v) for v in (a, b, c))
    assert (x + y) + z == x + (y + z)
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    if not y.is_zero():
        assert (x / y) * y == x


@given(st.integers(-30, 30), st.integers(-30, 30), st.integers(-30, 30),
       st.integers(-30, 30))
def test_cyclotomic_field_axioms(a0, a1, b0, b1):
    K = Cyclotomic(4)
    i = K.generator()
    x = K.from_int(a0) + K.from_int(a1) * i
    y = K.from_int(b0) + K.from_int(b1) * i
    assert x * y == y * x
    assert (x + y) * (x - y) == x * x - y * y
    if not x.is_zero():
        assert x * x.inverse() == K.one()


@given(st.integers(0, 12), st.integers(0, 12))
def test_prime_field_fermat(a, b):
    F = PrimeField(13)
    x = F.from_int(a)
    assert x ** 13 == x
    assert F.from_int(a) * F.from_int(b) == F.from_int((a * b) % 13)


# -- the fast paths of _mul and _add against the reference arithmetic -------------------

CYCLOTOMIC_ORDERS = (1, 3, 4, 5, 8, 12)


@st.composite
def cyclotomic_elements(draw, K):
    """Payloads of K: zero, +-1, other constants, and reduced polynomials."""
    constant = st.one_of(st.sampled_from([1, -1]), fractions_st).map(lambda c: [c])
    coeffs = draw(st.one_of(st.just([]), constant,
                            st.lists(fractions_st, max_size=K.degree)))
    return K._from_poly(coeffs).payload


@st.composite
def cyclotomic_pairs(draw):
    K = Cyclotomic(draw(st.sampled_from(CYCLOTOMIC_ORDERS)))
    return K, draw(cyclotomic_elements(K)), draw(cyclotomic_elements(K))


def _canonical(payload):
    """No trailing zero, so that == and hash on payloads stay syntactic."""
    return isinstance(payload, tuple) and (not payload or payload[-1] != 0)


@given(cyclotomic_pairs())
def test_cyclotomic_mul_and_add_match_the_reference(case):
    K, a, b = case
    product = tuple(_poly_divmod(_poly_mul(list(a), list(b)), K._modulus)[1])
    total = [Fraction(0)] * max(len(a), len(b))
    for part in (a, b):
        for i, x in enumerate(part):
            total[i] += x
    for out, ref in ((K._mul(a, b), product), (K._mul(b, a), product),
                     (K._add(a, b), tuple(_poly_trim(total))),
                     (K._add(b, a), tuple(_poly_trim(total)))):
        assert out == ref and _canonical(out)


@given(st.one_of(st.sampled_from([Fraction(0), Fraction(1), Fraction(-1)]), fractions_st),
       st.one_of(st.sampled_from([Fraction(0), Fraction(1), Fraction(-1)]), fractions_st))
def test_rational_mul_and_add_match_the_reference(a, b):
    assert Q._mul(a, b) == a * b and Q._mul(b, a) == a * b
    assert Q._add(a, b) == a + b
