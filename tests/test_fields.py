from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from cyclotome.fields import (
    Cyclotomic, FieldError, FieldSpec, PrimeField, Rationals, Scalar, _decode, _euclid_inverse,
    _poly_divmod, _poly_mul, _poly_trim, cyclotomic_polynomial,
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


# -- the payload arithmetic against the Fraction reference ------------------------------

CYCLOTOMIC_ORDERS = (1, 3, 4, 5, 8, 12)
EDGES = st.sampled_from([Fraction(0), Fraction(1), Fraction(-1)])
rationals_st = st.one_of(EDGES, st.integers(-50, 50).map(Fraction), fractions_st)


def _rational(payload):
    """The Fraction value of a Q payload: an int or a reduced pair (num, den)."""
    return Fraction(payload) if isinstance(payload, int) else Fraction(*payload)


def _coefficients(payload):
    """The Fraction coefficients of a Q(zeta_n) payload (den, n_0, ..., n_k)."""
    return [Fraction(x, payload[0]) for x in payload[1:]]


def _canonical_rational(payload):
    """An int exactly when the value is integral, otherwise a reduced pair."""
    if type(payload) is int:
        return True
    return (type(payload) is tuple and len(payload) == 2
            and all(type(x) is int for x in payload)
            and payload[1] > 1 and gcd(*payload) == 1)


def _canonical_cyclotomic(K, payload):
    """() for zero, otherwise (den, n_0, ..., n_k): ints, den > 0, n_k != 0,
    k below the degree and gcd(den, n_0, ..., n_k) = 1."""
    return type(payload) is tuple and (not payload or (
        all(type(x) is int for x in payload) and 2 <= len(payload) <= K.degree + 1
        and payload[0] > 0 and payload[-1] != 0 and gcd(*payload) == 1))


def _reference_render(coeffs):
    """The rendering of Fraction coefficients, low degree first."""
    parts = []
    for i, c in enumerate(coeffs):
        if c == 0:
            continue
        if i == 0:
            parts.append(str(c))
        elif abs(c) == 1:
            parts.append(("z" if c > 0 else "-z") + (f"^{i}" if i > 1 else ""))
        else:
            parts.append(f"{c}*z" + (f"^{i}" if i > 1 else ""))
    if not parts:
        return "0"
    return parts[0] + "".join(p if p.startswith("-") else "+" + p for p in parts[1:])


@st.composite
def cyclotomic_coefficients(draw, K):
    """Coefficients of zero, +-1, other constants, and polynomials of degree
    up to twice K's, so that the reduction modulo Phi_n is exercised too."""
    constant = st.one_of(st.sampled_from([1, -1]), fractions_st).map(lambda c: [c])
    return [Fraction(c) for c in draw(st.one_of(
        st.just([]), constant, st.lists(fractions_st, max_size=2 * K.degree)))]


@st.composite
def cyclotomic_elements(draw, K):
    """Payloads of K: zero, +-1, other constants, and reduced polynomials."""
    return K._from_poly(draw(cyclotomic_coefficients(K))).payload


@st.composite
def cyclotomic_pairs(draw):
    K = Cyclotomic(draw(st.sampled_from(CYCLOTOMIC_ORDERS)))
    return K, draw(cyclotomic_elements(K)), draw(cyclotomic_elements(K))


@given(cyclotomic_pairs())
def test_cyclotomic_mul_and_add_match_the_reference(case):
    K, a, b = case
    fa, fb = _coefficients(a), _coefficients(b)
    product = _poly_divmod(_poly_mul(fa, fb), K._modulus)[1]
    total = [Fraction(0)] * max(len(fa), len(fb))
    for part in (fa, fb):
        for i, x in enumerate(part):
            total[i] += x
    for out, ref in ((K._mul(a, b), product), (K._mul(b, a), product),
                     (K._add(a, b), _poly_trim(total)),
                     (K._add(b, a), _poly_trim(total))):
        assert _coefficients(out) == ref and _canonical_cyclotomic(K, out)


FAST_PATH_ORDERS = (3, 4, 5, 6, 8, 12)
small_fractions = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 6))


@st.composite
def fast_path_cases(draw):
    """A field Q(zeta_n) and two payloads of it, weighted towards the fast
    paths: zero, +-1, rational constants (den, n_0), and polynomials reduced
    modulo Phi_n (of degree <= 1 when the field has degree 2), with small
    coefficients so that sums cancel and results share factors, and large
    ones; the second operand is sometimes the first or its negative."""
    K = Cyclotomic(draw(st.sampled_from(FAST_PATH_ORDERS)))
    big = st.builds(Fraction, st.integers(-10 ** 6, 10 ** 6), st.integers(1, 10 ** 6))
    coefficient = st.one_of(small_fractions, big)

    def element():
        coeffs = draw(st.one_of(
            st.just([]), st.sampled_from([[Fraction(1)], [Fraction(-1)]]),
            coefficient.map(lambda c: [c]),
            st.lists(coefficient, min_size=1, max_size=2 * K.degree)))
        return K._from_poly(coeffs).payload

    a = element()
    b = draw(st.sampled_from(["fresh", "same", "negated"]))
    b = element() if b == "fresh" else a if b == "same" else K._neg(a)
    return K, a, b


@settings(max_examples=400, deadline=None)
@given(fast_path_cases())
def test_cyclotomic_fast_paths_match_the_fraction_polynomials(case):
    """_add and _mul, constants and degree 2 included, against _decode, the
    Fraction polynomial sum or product, and _from_poly; every result is
    canonical: den > 0, gcd 1, no trailing zero coefficient, () for zero."""
    K, a, b = case
    fa = _decode(a) if a else []
    fb = _decode(b) if b else []
    total = [Fraction(0)] * max(len(fa), len(fb))
    for part in (fa, fb):
        for i, x in enumerate(part):
            total[i] += x
    product = K._from_poly(_poly_mul(fa, fb)).payload
    total = K._from_poly(total).payload
    for out, ref in ((K._mul(a, b), product), (K._mul(b, a), product),
                     (K._add(a, b), total), (K._add(b, a), total)):
        assert out == ref and _canonical_cyclotomic(K, out)


@settings(max_examples=400, deadline=None)
@given(fast_path_cases().filter(lambda case: case[0].degree == 2 and case[1]))
def test_degree_two_closed_form_inverse_matches_the_euclid(case):
    """_inv, closed form in Q(i), Q(zeta_3) and Q(zeta_6), equals the extended
    Euclid against Phi_n on every nonzero payload, is canonical, and is an
    inverse."""
    K, a, _ = case
    inv = K._inv(a)
    assert inv == _euclid_inverse(K._modulus, a)
    assert _canonical_cyclotomic(K, inv)
    assert K._mul(a, inv) == K.one().payload


@given(rationals_st, rationals_st)
def test_rational_mul_and_add_match_the_reference(a, b):
    pa, pb = Q.from_fraction(a).payload, Q.from_fraction(b).payload
    for out, ref in ((Q._mul(pa, pb), a * b), (Q._mul(pb, pa), a * b),
                     (Q._add(pa, pb), a + b), (Q._add(pb, pa), a + b)):
        assert _rational(out) == ref and _canonical_rational(out)


# -- the canonical form, rendering and equality ---------------------------------------------


@given(rationals_st, rationals_st)
def test_rational_results_are_canonical(a, b):
    x, y = Q.from_fraction(a), Q.from_fraction(b)
    results = [x + y, x - y, x * y, -x, Q.parse(str(a)), Q.from_int(a.numerator)]
    if b:
        results.append(x / y)
    for r in results:
        assert _canonical_rational(r.payload)
        assert isinstance(r.payload, int) == (_rational(r.payload).denominator == 1)
    assert not Q.zero().payload and Q.zero().payload == 0


@given(cyclotomic_pairs())
def test_cyclotomic_results_are_canonical(case):
    K, a, b = case
    x, y = Scalar(K, a), Scalar(K, b)
    results = [x + y, x - y, x * y, -x, K.parse(repr(x))]
    if b:
        results.append(x / y)
    for r in results:
        assert _canonical_cyclotomic(K, r.payload)
    assert K.zero().payload == ()


@given(rationals_st)
def test_rational_render_parse_roundtrip(a):
    x = Q.from_fraction(a)
    assert repr(x) == str(a)
    assert Q.parse(repr(x)) == x


@given(st.sampled_from(CYCLOTOMIC_ORDERS).flatmap(
    lambda n: st.tuples(st.just(Cyclotomic(n)), cyclotomic_coefficients(Cyclotomic(n)))))
def test_cyclotomic_render_parse_roundtrip(case):
    K, coeffs = case
    x = K._from_poly(coeffs)
    reduced = _poly_divmod(coeffs, K._modulus)[1]
    assert repr(x) == _reference_render(reduced)
    assert K.parse(repr(x)) == x


@given(rationals_st)
def test_rational_inverse(a):
    if a:
        x = Q.from_fraction(a)
        assert x * x.inverse() == Q.one() and x.inverse() * x == Q.one()
        assert _rational(x.inverse().payload) == 1 / a


@given(cyclotomic_pairs())
def test_cyclotomic_inverse(case):
    K, a, _ = case
    if a:
        x = Scalar(K, a)
        assert x * x.inverse() == K.one()
        assert _canonical_cyclotomic(K, x.inverse().payload)


@given(rationals_st, rationals_st)
def test_rational_value_has_one_form(a, b):
    """from_fraction, parse and arithmetic give one value == and hash alike."""
    built = [Q.from_fraction(a), Q.parse(str(a)),
             Q.from_int(a.numerator) / Q.from_int(a.denominator),
             (Q.from_fraction(a) + Q.from_fraction(b)) - Q.from_fraction(b)]
    if b:
        built.append(Q.from_fraction(a * b) / Q.from_fraction(b))
    assert all(x == built[0] and hash(x) == hash(built[0]) for x in built)


@given(st.sampled_from(CYCLOTOMIC_ORDERS).flatmap(
    lambda n: st.tuples(st.just(Cyclotomic(n)), cyclotomic_coefficients(Cyclotomic(n)),
                        cyclotomic_elements(Cyclotomic(n)))))
def test_cyclotomic_value_has_one_form(case):
    """The same element by parse, by _from_poly, by from_fraction and
    arithmetic in z, and by a detour through a product: one == and hash."""
    K, coeffs, b = case
    z, y = K.generator(), Scalar(K, b)
    by_arithmetic = K.zero()
    for i, c in enumerate(coeffs):
        by_arithmetic = by_arithmetic + K.from_fraction(c) * z ** i
    x = K._from_poly(coeffs)
    built = [x, by_arithmetic, K.parse(_reference_render(coeffs)),
             (x + y) - y]
    if b:
        built.append((x * y) / y)
    assert all(v == x and hash(v) == hash(x) for v in built)


@pytest.mark.parametrize("n", CYCLOTOMIC_ORDERS)
def test_cyclotomic_literal_powers_are_read_modulo_n(n):
    """z^k in a literal is z^(k mod n) for negative and large k, as z^n = 1."""
    K = Cyclotomic(n)
    for k in [*range(-2 * n, 3 * n), 10 ** 12 + 1]:
        assert K.parse(f"z^{k}") == K.root_of_unity(k), k
        assert K.parse(f"1-3/2*z^{k}") == K.one() - K.parse("3/2") * K.root_of_unity(k), k


def test_fields_are_built_only_on_a_miss(monkeypatch):
    fields = (Rationals(), PrimeField(7), Cyclotomic(5))

    def refuse(self, *args):
        raise AssertionError("FieldSpec built for an interned key")

    monkeypatch.setattr(FieldSpec, "__init__", refuse)
    assert (Rationals(), PrimeField(7), Cyclotomic(5)) == fields
    assert all(a is b for a, b in zip((Rationals(), PrimeField(7), Cyclotomic(5)), fields))
    with pytest.raises(AssertionError):
        Cyclotomic(9973)
