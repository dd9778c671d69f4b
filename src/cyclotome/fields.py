"""Exact scalar arithmetic over Q, prime fields F_p, and cyclotomic extensions Q(zeta_n).

Every scalar is kept in a canonical reduced form, so equality and hashing are
syntactic.  The payloads under the Scalars are ints and tuples of ints:

- Q: an int when the value is integral, otherwise the reduced pair
  (num, den) with den > 1.  Zero is 0.
- F_p: the least nonnegative residue.
- Q(zeta_n): zero is ().  Any other value is (den, n_0, ..., n_k), the
  polynomial (n_0 + n_1 z + ... + n_k z^k) / den in the generator z reduced
  modulo the n-th cyclotomic polynomial Phi_n, with den > 0, n_k != 0 and
  gcd(den, n_0, ..., n_k) = 1.  A product multiplies the integer numerators
  and folds the high powers back with a table of z^j mod Phi_n, which holds
  only integers since Phi_n is monic over Z.  Two fast paths give the same
  canonical payloads: two rational constants (den, n_0) are added and
  multiplied by the rational formulas, and in a field of degree 2 (Q(i),
  Q(zeta_3), Q(zeta_6)) sums and products are written out in closed form
  with z^2 = f_0 + f_1 z.

Zero is the only falsy payload.  Fraction is used only where scalars enter
or leave (parse, from_fraction, _from_poly, render) and in the extended
Euclid of a cyclotomic inverse; in a field of degree 2 the inverse is the
closed form (n_0 + n_1 z)^-1 = (n_0 + f_1 n_1 - n_1 z) / N with the norm
N = n_0^2 + f_1 n_0 n_1 - f_0 n_1^2.  No floating point is used anywhere.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm


class FieldError(ValueError):
    """Raised on malformed field specs or cross-field arithmetic."""


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    if p % 2 == 0:
        return p == 2
    d = 3
    while d * d <= p:
        if p % d == 0:
            return False
        d += 2
    return True


def _poly_trim(coeffs):
    coeffs = list(coeffs)
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs


def _poly_mul(a, b):
    if not a or not b:
        return []
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x == 0:
            continue
        for j, y in enumerate(b):
            out[i + j] += x * y
    return _poly_trim(out)


def _poly_divmod(a, b):
    """Euclidean division of rational polynomials (coefficient lists, low degree first)."""
    a = list(a)
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    q = [Fraction(0)] * max(len(a) - len(b) + 1, 0)
    inv_lead = Fraction(1) / b[-1]
    while len(a) >= len(b) and _poly_trim(a):
        a = _poly_trim(a)
        if len(a) < len(b):
            break
        shift = len(a) - len(b)
        c = a[-1] * inv_lead
        q[shift] = c
        for i, y in enumerate(b):
            a[shift + i] -= c * y
        a = a[:-1]
    return _poly_trim(q), _poly_trim(a)


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int):
    """Coefficients of the n-th cyclotomic polynomial, low degree first."""
    if n < 1:
        raise FieldError(f"cyclotomic index must be >= 1, got {n}")
    # x^n - 1 divided by the product of Phi_d for proper divisors d of n.
    num = [Fraction(-1)] + [Fraction(0)] * (n - 1) + [Fraction(1)]
    for d in range(1, n):
        if n % d == 0:
            q, r = _poly_divmod(num, cyclotomic_polynomial(d))
            assert not r
            num = q
    return tuple(num)


class FieldSpec:
    """An exact ground field: Q, F_p (p prime), or the cyclotomic field Q(zeta_n).

    Instances are interned by kind, so identity comparison is safe for
    same-process use; equality is structural anyway.
    """

    RATIONALS = "rationals"
    PRIME = "prime"
    CYCLOTOMIC = "cyclotomic"

    def __init__(self, kind: str, param: int | None = None):
        if kind == self.RATIONALS:
            if param is not None:
                raise FieldError("rationals take no parameter")
        elif kind == self.PRIME:
            if param is None or not _is_prime(param):
                raise FieldError(f"prime field needs a prime modulus, got {param}")
        elif kind == self.CYCLOTOMIC:
            if param is None or param < 1:
                raise FieldError(f"cyclotomic field needs n >= 1, got {param}")
        else:
            raise FieldError(f"unknown field kind {kind!r}")
        self.kind = kind
        self.param = param
        if kind == self.CYCLOTOMIC:
            self._modulus = list(cyclotomic_polynomial(param))
            self.degree = len(self._modulus) - 1
            self._fold = _fold_table([int(c) for c in self._modulus])
            # z^2 = f0 + f1 z in a field of degree 2, for the closed forms
            if self.degree == 2:
                self._square = (-int(self._modulus[0]), -int(self._modulus[1]))
        else:
            self._modulus = None
            self.degree = 1
        self._zero = self.from_fraction(Fraction(0))
        self._one = self.from_fraction(Fraction(1))

    # -- construction of scalars -------------------------------------------------

    def zero(self) -> "Scalar":
        return self._zero

    def one(self) -> "Scalar":
        return self._one

    def from_int(self, k: int) -> "Scalar":
        return self.from_fraction(Fraction(k))

    def from_fraction(self, q: Fraction) -> "Scalar":
        num, den = q.numerator, q.denominator
        if self.kind == self.PRIME:
            return Scalar(self, (num * pow(den % self.param, -1, self.param)) % self.param)
        if self.kind == self.CYCLOTOMIC:
            return Scalar(self, (den, num) if num else ())
        return Scalar(self, num if den == 1 else (num, den))

    def generator(self) -> "Scalar":
        """The distinguished root of unity z of Q(zeta_n)."""
        if self.kind != self.CYCLOTOMIC:
            raise FieldError("only cyclotomic fields have a generator")
        return self._from_poly([Fraction(0), Fraction(1)])

    def root_of_unity(self, power: int) -> "Scalar":
        """z**power, reduced; power may be any integer."""
        if self.kind == self.RATIONALS:
            raise FieldError("rationals contain no nontrivial roots of unity")
        if self.kind == self.PRIME:
            raise FieldError("use explicit residues over prime fields")
        return self.generator() ** (power % self.param)

    def _from_poly(self, coeffs) -> "Scalar":
        _, r = _poly_divmod([Fraction(c) for c in coeffs], self._modulus)
        return Scalar(self, _encode(r))

    # -- arithmetic on payloads ---------------------------------------------------

    def _add(self, a, b):
        kind = self.kind
        if kind == self.RATIONALS:
            if a.__class__ is int:
                if b.__class__ is int:
                    return a + b
                return (a * b[1] + b[0], b[1])
            if b.__class__ is int:
                return (a[0] + b * a[1], a[1])
            # Fraction's addition on reduced pairs: only the last case can
            # reach an integer, and a zero sum comes out as 0 // 1
            n1, d1 = a
            n2, d2 = b
            g = gcd(d1, d2)
            if g == 1:
                return (n1 * d2 + n2 * d1, d1 * d2)
            s = d1 // g
            t = n1 * (d2 // g) + n2 * s
            g2 = gcd(t, g)
            if g2 == 1:
                return (t, s * d2)
            d = s * (d2 // g2)
            return t // g2 if d == 1 else (t // g2, d)
        if kind == self.PRIME:
            return (a + b) % self.param
        if not a:
            return b
        if not b:
            return a
        la, lb = len(a), len(b)
        if la == 2 and lb == 2:
            # two rational constants: Fraction's addition on (den, num)
            d1, n1 = a
            d2, n2 = b
            if d1 == d2:
                n = n1 + n2
                if not n:
                    return ()
                g = gcd(n, d1)
                return (d1, n) if g == 1 else (d1 // g, n // g)
            g = gcd(d1, d2)
            if g == 1:
                # d1 != d2 are coprime, so the sum is reduced and not zero
                return (d1 * d2, n1 * d2 + n2 * d1)
            s = d1 // g
            t = n1 * (d2 // g) + n2 * s
            if not t:
                return ()
            g2 = gcd(t, g)
            return (s * d2, t) if g2 == 1 else (s * (d2 // g2), t // g2)
        if self.degree == 2:
            da, a0 = a[0], a[1]
            db, b0 = b[0], b[1]
            a1 = a[2] if la == 3 else 0
            b1 = b[2] if lb == 3 else 0
            if da == db:
                return _canonical2(da, a0 + b0, a1 + b1)
            g = gcd(da, db)
            sa, sb = db // g, da // g
            return _canonical2(da * sa, a0 * sa + b0 * sb, a1 * sa + b1 * sb)
        da, db = a[0], b[0]
        if da == db:
            if len(a) < len(b):
                a, b = b, a
            out = list(a)
            for i in range(1, len(b)):
                out[i] += b[i]
        else:
            g = gcd(da, db)
            sa, sb = db // g, da // g
            out = [x * sa for x in a]
            for i in range(1, len(b)):
                if i < len(out):
                    out[i] += b[i] * sb
                else:
                    out.append(b[i] * sb)
        return _reduced(out)

    def _neg(self, a):
        kind = self.kind
        if kind == self.RATIONALS:
            return -a if a.__class__ is int else (-a[0], a[1])
        if kind == self.PRIME:
            return (-a) % self.param
        if not a:
            return a
        return (a[0], *[-x for x in a[1:]])

    def _mul(self, a, b):
        kind = self.kind
        if kind == self.RATIONALS:
            if a.__class__ is int:
                if b.__class__ is int:
                    return a * b
                a, b = b, a
            elif b.__class__ is not int:
                n1, d1 = a
                n2, d2 = b
                g1, g2 = gcd(n1, d2), gcd(n2, d1)
                n, d = (n1 // g1) * (n2 // g2), (d1 // g2) * (d2 // g1)
                return n if d == 1 else (n, d)
            # a pair times the integer b, zero included: gcd(0, d) = d
            n, d = a
            g = gcd(b, d)
            if g == 1:
                return (n * b, d)
            return n * (b // g) if d == g else (n * (b // g), d // g)
        if kind == self.PRIME:
            return (a * b) % self.param
        if not a or not b:
            return ()
        if len(a) == 2:
            if len(b) == 2:
                # two rational constants: Fraction's product on (den, num)
                d1, n1 = a
                d2, n2 = b
                g1, g2 = gcd(n1, d2), gcd(n2, d1)
                return ((d1 // g2) * (d2 // g1), (n1 // g1) * (n2 // g2))
            a, b = b, a
        # a constant operand (the unit above all) scales the other one
        if len(b) == 2:
            if b == (1, 1):
                return a
            out = [x * b[1] for x in a]
            out[0] = a[0] * b[0]
            return _reduced(out)
        if self.degree == 2:
            da, a0, a1 = a
            db, b0, b1 = b
            f0, f1 = self._square
            top = a1 * b1
            return _canonical2(da * db, a0 * b0 + f0 * top, a0 * b1 + a1 * b0 + f1 * top)
        # schoolbook on the integer numerators, then z^j for j >= degree
        # folded back through the table of z^j mod Phi_n
        deg = self.degree
        out = [0] * (len(a) + len(b) - 3)
        for i in range(1, len(a)):
            x = a[i]
            if x:
                for j in range(1, len(b)):
                    out[i + j - 2] += x * b[j]
        if len(out) > deg:
            for row, c in zip(self._fold, out[deg:]):
                if c:
                    for j, t in row:
                        out[j] += c * t
            del out[deg:]
        out.insert(0, a[0] * b[0])
        return _reduced(out)

    def _inv(self, a):
        kind = self.kind
        if kind == self.RATIONALS:
            if a.__class__ is int:
                if not a:
                    raise ZeroDivisionError("inverse of zero")
                if a == 1 or a == -1:
                    return a
                return (1, a) if a > 0 else (-1, -a)
            n, d = a
            if n == 1 or n == -1:
                return n * d
            return (d, n) if n > 0 else (-d, -n)
        if kind == self.PRIME:
            if a == 0:
                raise ZeroDivisionError("inverse of zero")
            return pow(a, -1, self.param)
        if not a:
            raise ZeroDivisionError("inverse of zero")
        if len(a) == 2:
            return (a[1], a[0]) if a[1] > 0 else (-a[1], -a[0])
        if self.degree == 2:
            # (n0 + n1 z)(n0 + n1 z') = N with z' = f1 - z the other root of
            # z^2 = f0 + f1 z, and N != 0 since n1 != 0 and z is not rational
            den, n0, n1 = a
            f0, f1 = self._square
            norm = n0 * n0 + f1 * n0 * n1 - f0 * n1 * n1
            if norm < 0:
                den, norm = -den, -norm
            return _canonical2(norm, den * (n0 + f1 * n1), -den * n1)
        return _euclid_inverse(self._modulus, a)

    def _is_zero(self, a):
        # zero is the only falsy payload: 0, the residue 0, the empty tuple
        return not a

    # -- rendering / parsing -------------------------------------------------------

    def render(self, a) -> str:
        if self.kind == self.PRIME:
            return str(a)
        if self.kind == self.CYCLOTOMIC:
            if not a:
                return "0"
            parts = []
            for i, c in enumerate(_decode(a)):
                if c == 0:
                    continue
                if i == 0:
                    parts.append(str(c))
                elif i == 1:
                    parts.append(f"{c}*z" if abs(c) != 1 else ("z" if c > 0 else "-z"))
                else:
                    parts.append(f"{c}*z^{i}" if abs(c) != 1 else (f"z^{i}" if c > 0 else f"-z^{i}"))
            out = parts[0]
            for p in parts[1:]:
                out += "+" + p if not p.startswith("-") else p
            return out
        return str(a) if a.__class__ is int else f"{a[0]}/{a[1]}"

    def parse(self, text: str) -> "Scalar":
        """Inverse of render, also accepting plain integer/fraction literals."""
        if not isinstance(text, str):
            raise FieldError(f"scalar literal {text!r} is not a string")
        text = text.strip().replace(" ", "")
        try:
            if self.kind == self.CYCLOTOMIC:
                return self._parse_cyclotomic(text)
            if self.kind == self.PRIME:
                return self.from_int(int(text))
            return self.from_fraction(Fraction(text))
        except ZeroDivisionError as exc:
            raise FieldError(f"scalar literal {text!r} divides by zero") from exc

    def _parse_cyclotomic(self, text: str) -> "Scalar":
        if not text:
            raise FieldError("empty scalar literal")
        terms = []
        buf = ""
        for ch in text:
            if ch in "+-" and buf and buf[-1] not in "+-*^/":
                terms.append(buf)
                buf = ch
            else:
                buf += ch
        terms.append(buf)
        coeffs = [Fraction(0)] * max(self.degree, 2)
        for term in terms:
            sign = 1
            while term and term[0] in "+-":
                if term[0] == "-":
                    sign = -sign
                term = term[1:]
            if "z" in term:
                coef_part, _, pow_part = term.partition("z")
                coef_part = coef_part.rstrip("*")
                coef = Fraction(coef_part) if coef_part else Fraction(1)
                # z^n = 1: a negative or large power is read modulo n
                power = (int(pow_part.lstrip("^")) if pow_part else 1) % self.param
            else:
                coef = Fraction(term)
                power = 0
            while power >= len(coeffs):
                coeffs.append(Fraction(0))
            coeffs[power] += sign * coef
        if any(coeffs[self.degree:]):
            return self._from_poly(coeffs)
        # no power reaches the degree, as in every rendered literal: nothing to reduce
        return Scalar(self, _encode(_poly_trim(coeffs)))

    # -- plumbing -------------------------------------------------------------------

    def to_json(self):
        if self.kind == self.RATIONALS:
            return {"kind": "Q"}
        if self.kind == self.PRIME:
            return {"kind": "Fp", "p": self.param}
        return {"kind": "cyclotomic", "n": self.param}

    @staticmethod
    def from_json(obj) -> "FieldSpec":
        kind = obj["kind"]
        if kind == "Q":
            return Rationals()
        if kind == "Fp":
            return PrimeField(obj["p"])
        if kind == "cyclotomic":
            return Cyclotomic(obj["n"])
        raise FieldError(f"unknown field kind in JSON: {kind!r}")

    def __eq__(self, other):
        return isinstance(other, FieldSpec) and (self.kind, self.param) == (other.kind, other.param)

    def __hash__(self):
        return hash((self.kind, self.param))

    def __repr__(self):
        if self.kind == self.RATIONALS:
            return "Q"
        if self.kind == self.PRIME:
            return f"F_{self.param}"
        return f"Q(zeta_{self.param})"


def _poly_sub(a, b):
    n = max(len(a), len(b))
    out = [Fraction(0)] * n
    for i, x in enumerate(a):
        out[i] += x
    for i, x in enumerate(b):
        out[i] -= x
    return _poly_trim(out)


def _euclid_inverse(modulus, a):
    """The inverse of the nonzero Q(zeta_n) payload a by the extended Euclid in
    Q[x] against the cyclotomic modulus."""
    r0, r1 = modulus, _decode(a)
    s0, s1 = [], [Fraction(1)]
    while _poly_trim(r1):
        q, r = _poly_divmod(r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, _poly_sub(s0, _poly_mul(q, s1))
    # r0 is the gcd, a nonzero constant since the modulus is irreducible
    assert len(r0) == 1
    c = Fraction(1) / r0[0]
    _, out = _poly_divmod([x * c for x in s0], modulus)
    return _encode(out)


def _fold_table(phi):
    """For j = deg, ..., 2 deg - 2, the nonzero (i, t) of z^j mod phi, a monic
    integer polynomial of degree deg: the powers a product of two reduced
    polynomials can reach."""
    deg = len(phi) - 1
    power = [-c for c in phi[:deg]]
    rows = []
    for _ in range(deg - 1):
        rows.append(tuple((i, t) for i, t in enumerate(power) if t))
        top = power[-1]
        power = [0] + power[:-1]
        for i in range(deg):
            power[i] -= top * phi[i]
    return rows


def _reduced(out):
    """The canonical Q(zeta_n) payload of the list [den, n_0, ..., n_k], den > 0."""
    while len(out) > 1 and not out[-1]:
        out.pop()
    if len(out) == 1:
        return ()
    if out[0] != 1:
        g = gcd(*out)
        if g != 1:
            return tuple([x // g for x in out])
    return tuple(out)


def _canonical2(den, n0, n1):
    """The canonical payload of (n0 + n1 z) / den, den > 0, in a field of degree 2."""
    if n1:
        g = gcd(den, n0, n1)
        return (den, n0, n1) if g == 1 else (den // g, n0 // g, n1 // g)
    if n0:
        g = gcd(den, n0)
        return (den, n0) if g == 1 else (den // g, n0 // g)
    return ()


def _encode(coeffs):
    """The Q(zeta_n) payload of trimmed Fraction coefficients, low degree first."""
    if not coeffs:
        return ()
    den = lcm(*[c.denominator for c in coeffs])
    return (den, *[c.numerator * (den // c.denominator) for c in coeffs])


def _decode(a):
    """The Fraction coefficients of a Q(zeta_n) payload, low degree first."""
    return [Fraction(x, a[0]) for x in a[1:]]


_INTERN: dict[tuple, FieldSpec] = {}


def _interned(kind: str, param: int | None = None) -> FieldSpec:
    spec = _INTERN.get((kind, param))
    if spec is None:
        spec = _INTERN[(kind, param)] = FieldSpec(kind, param)
    return spec


def Rationals() -> FieldSpec:
    return _interned(FieldSpec.RATIONALS)


def PrimeField(p: int) -> FieldSpec:
    return _interned(FieldSpec.PRIME, p)


def Cyclotomic(n: int) -> FieldSpec:
    return _interned(FieldSpec.CYCLOTOMIC, n)


class Scalar:
    """An exact field element; immutable, with syntactic equality on canonical forms."""

    __slots__ = ("field", "payload")

    def __init__(self, field: FieldSpec, payload):
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "payload", payload)

    def __setattr__(self, *args):
        raise AttributeError("Scalar is immutable")

    def _coerce(self, other) -> "Scalar":
        if isinstance(other, Scalar):
            if other.field != self.field:
                raise FieldError(f"field mismatch: {self.field} vs {other.field}")
            return other
        if isinstance(other, int):
            return self.field.from_int(other)
        if isinstance(other, Fraction):
            return self.field.from_fraction(other)
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return Scalar(self.field, self.field._add(self.payload, other.payload))

    __radd__ = __add__

    def __neg__(self):
        return Scalar(self.field, self.field._neg(self.payload))

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return Scalar(self.field, self.field._mul(self.payload, other.payload))

    __rmul__ = __mul__

    def inverse(self) -> "Scalar":
        return Scalar(self.field, self.field._inv(self.payload))

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        return self.inverse() * other

    def __pow__(self, k: int):
        if k < 0:
            return self.inverse() ** (-k)
        out = self.field.one()
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def is_zero(self) -> bool:
        return self.field._is_zero(self.payload)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self._coerce(other)
        if not isinstance(other, Scalar):
            return NotImplemented
        return self.field == other.field and self.payload == other.payload

    def __hash__(self):
        return hash((self.field, self.payload))

    def __repr__(self):
        return self.field.render(self.payload)
