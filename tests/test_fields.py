from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from cyclotome.fields import (
    Cyclotomic, FieldError, PrimeField, Rationals,
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
