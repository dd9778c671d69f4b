"""Exact scalar arithmetic over Q, prime fields F_p, and cyclotomic extensions Q(zeta_n).

Every scalar is kept in a canonical reduced form, so equality is syntactic:
reduced fractions for Q, least nonnegative residues for F_p, and polynomials
in the generator z reduced modulo the n-th cyclotomic polynomial for Q(zeta_n).
No floating point is used anywhere.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache


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
        else:
            self._modulus = None
            self.degree = 1

    # -- construction of scalars -------------------------------------------------

    def zero(self) -> "Scalar":
        return self.from_fraction(Fraction(0))

    def one(self) -> "Scalar":
        return self.from_fraction(Fraction(1))

    def from_int(self, k: int) -> "Scalar":
        return self.from_fraction(Fraction(k))

    def from_fraction(self, q: Fraction) -> "Scalar":
        if self.kind == self.PRIME:
            num = q.numerator % self.param
            den = q.denominator % self.param
            return Scalar(self, (num * pow(den, -1, self.param)) % self.param)
        if self.kind == self.CYCLOTOMIC:
            return Scalar(self, (q,) if q != 0 else ())
        return Scalar(self, q)

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
        return Scalar(self, tuple(r))

    # -- arithmetic on payloads ---------------------------------------------------

    def _add(self, a, b):
        if self.kind == self.PRIME:
            return (a + b) % self.param
        if self.kind == self.CYCLOTOMIC:
            n = max(len(a), len(b))
            out = [Fraction(0)] * n
            for i, x in enumerate(a):
                out[i] += x
            for i, x in enumerate(b):
                out[i] += x
            return tuple(_poly_trim(out))
        return a + b

    def _neg(self, a):
        if self.kind == self.PRIME:
            return (-a) % self.param
        if self.kind == self.CYCLOTOMIC:
            return tuple(-x for x in a)
        return -a

    def _mul(self, a, b):
        if self.kind == self.PRIME:
            return (a * b) % self.param
        if self.kind == self.CYCLOTOMIC:
            _, r = _poly_divmod(_poly_mul(list(a), list(b)), self._modulus)
            return tuple(r)
        return a * b

    def _inv(self, a):
        if self.kind == self.PRIME:
            if a == 0:
                raise ZeroDivisionError("inverse of zero")
            return pow(a, -1, self.param)
        if self.kind == self.CYCLOTOMIC:
            if not a:
                raise ZeroDivisionError("inverse of zero")
            # extended Euclid in Q[x] against the cyclotomic modulus
            r0, r1 = self._modulus, list(a)
            s0, s1 = [], [Fraction(1)]
            while _poly_trim(r1):
                q, r = _poly_divmod(r0, r1)
                r0, r1 = r1, r
                s0, s1 = s1, _poly_sub(s0, _poly_mul(q, s1))
            # r0 is the gcd, a nonzero constant since the modulus is irreducible
            assert len(r0) == 1
            c = Fraction(1) / r0[0]
            _, out = _poly_divmod([x * c for x in s0], self._modulus)
            return tuple(out)
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return Fraction(1) / a

    def _is_zero(self, a):
        if self.kind == self.CYCLOTOMIC:
            return not a
        return a == 0

    # -- rendering / parsing -------------------------------------------------------

    def render(self, a) -> str:
        if self.kind == self.PRIME:
            return str(a)
        if self.kind == self.CYCLOTOMIC:
            if not a:
                return "0"
            parts = []
            for i, c in enumerate(a):
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
        return str(a)

    def parse(self, text: str) -> "Scalar":
        """Inverse of render, also accepting plain integer/fraction literals."""
        text = text.strip().replace(" ", "")
        if self.kind == self.CYCLOTOMIC:
            return self._parse_cyclotomic(text)
        if self.kind == self.PRIME:
            return self.from_int(int(text))
        return self.from_fraction(Fraction(text))

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
                power = int(pow_part.lstrip("^")) if pow_part else 1
            else:
                coef = Fraction(term)
                power = 0
            while power >= len(coeffs):
                coeffs.append(Fraction(0))
            coeffs[power] += sign * coef
        return self._from_poly(coeffs)

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


_INTERN: dict[tuple, FieldSpec] = {}


def Rationals() -> FieldSpec:
    return _INTERN.setdefault(("rationals", None), FieldSpec(FieldSpec.RATIONALS))


def PrimeField(p: int) -> FieldSpec:
    return _INTERN.setdefault(("prime", p), FieldSpec(FieldSpec.PRIME, p))


def Cyclotomic(n: int) -> FieldSpec:
    return _INTERN.setdefault(("cyclotomic", n), FieldSpec(FieldSpec.CYCLOTOMIC, n))


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
