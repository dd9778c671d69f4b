"""Concrete model of the simplicial, cyclic, r-cyclic, and paracyclic categories.

Morphisms n -> m are nondecreasing maps f of the integers with
f(x + n + 1) = f(x) + m + 1, stored by their window of values
(f(0), ..., f(n)).  The cyclic quotient identifies f with its translates by
m + 1 (by r(m+1) in the r-cyclic case); the paracyclic category takes no
quotient, and the simplicial category keeps only the maps with values in
[0, m].  The cyclic rotation tau_n is modeled as x |-> x - 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations_with_replacement
from math import comb
from typing import Iterator, Sequence


class CyclicCatError(ValueError):
    """Raised on malformed morphisms, tokens, or non-composable data."""


@dataclass(frozen=True)
class CategoryVariant:
    """Which flavour of category: simplicial, cyclic, r-cyclic, or paracyclic."""

    kind: str          # one of "simplicial", "cyclic", "rcyclic", "paracyclic"
    r: int = 1

    def __post_init__(self):
        if self.kind not in ("simplicial", "cyclic", "rcyclic", "paracyclic"):
            raise CyclicCatError(f"unknown variant kind {self.kind!r}")
        if self.kind == "rcyclic" and self.r < 1:
            raise CyclicCatError(f"r-cyclic order must be >= 1, got {self.r}")

    @property
    def has_rotations(self) -> bool:
        return self.kind != "simplicial"

    def rotation_modulus(self, m: int) -> int | None:
        """Size of the translation quotient on maps into level m (None = no quotient)."""
        if self.kind == "cyclic":
            return m + 1
        if self.kind == "rcyclic":
            return self.r * (m + 1)
        return None

    def __repr__(self):
        if self.kind == "rcyclic":
            return f"rcyclic({self.r})"
        return self.kind


SIMPLICIAL = CategoryVariant("simplicial")
CYCLIC = CategoryVariant("cyclic")
PARACYCLIC = CategoryVariant("paracyclic")


def RCyclic(r: int) -> CategoryVariant:
    return CategoryVariant("rcyclic", r)


class CyclicMap:
    """A morphism source_n -> target_m in the chosen category variant."""

    __slots__ = ("source_n", "target_m", "values", "variant")

    def __init__(self, source_n: int, target_m: int, values: Sequence[int],
                 variant: CategoryVariant):
        values = tuple(int(v) for v in values)
        if source_n < 0 or target_m < 0:
            raise CyclicCatError("levels must be nonnegative")
        if len(values) != source_n + 1:
            raise CyclicCatError(f"need {source_n + 1} values, got {len(values)}")
        for a, b in zip(values, values[1:]):
            if a > b:
                raise CyclicCatError(f"values not nondecreasing: {values}")
        if values[-1] > values[0] + target_m + 1:
            raise CyclicCatError(
                f"period monotonicity violated: {values} into level {target_m}")
        if variant.kind == "simplicial":
            if values[0] < 0 or values[-1] > target_m:
                raise CyclicCatError(f"simplicial values out of range: {values}")
        else:
            mod = variant.rotation_modulus(target_m)
            if mod is not None:
                shift = (values[0] % mod) - values[0]
                values = tuple(v + shift for v in values)
        object.__setattr__(self, "source_n", source_n)
        object.__setattr__(self, "target_m", target_m)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "variant", variant)

    def __setattr__(self, *args):
        raise AttributeError("CyclicMap is immutable")

    def __eq__(self, other):
        if not isinstance(other, CyclicMap):
            return NotImplemented
        return (self.variant == other.variant and self.source_n == other.source_n
                and self.target_m == other.target_m and self.values == other.values)

    def __hash__(self):
        return hash((self.variant, self.source_n, self.target_m, self.values))

    def extended(self, x: int) -> int:
        """Value of the equivariant extension at any integer x."""
        n1, m1 = self.source_n + 1, self.target_m + 1
        q, s = divmod(x, n1)
        return self.values[s] + q * m1

    def is_identity(self) -> bool:
        if self.source_n != self.target_m:
            return False
        return self == identity(self.source_n, self.variant)

    def __repr__(self):
        vals = ",".join(map(str, self.values))
        return f"({vals}) : {self.source_n}->{self.target_m} [{self.variant}]"


def identity(n: int, variant: CategoryVariant) -> CyclicMap:
    return CyclicMap(n, n, tuple(range(n + 1)), variant)


def coface(n: int, i: int, variant: CategoryVariant) -> CyclicMap:
    """delta_i^n : n-1 -> n, the increasing injection missing i."""
    if n < 1 or not 0 <= i <= n:
        raise CyclicCatError(f"coface index out of range: delta_{i}^{n}")
    return CyclicMap(n - 1, n, [v for v in range(n + 1) if v != i], variant)


def codegeneracy(n: int, j: int, variant: CategoryVariant) -> CyclicMap:
    """sigma_j^n : n+1 -> n, the increasing surjection hitting j twice."""
    if n < 0 or not 0 <= j <= n:
        raise CyclicCatError(f"codegeneracy index out of range: sigma_{j}^{n}")
    vals = list(range(j + 1)) + [j] + list(range(j + 1, n + 1))
    return CyclicMap(n + 1, n, vals, variant)


def rotation(n: int, variant: CategoryVariant, exponent: int = 1) -> CyclicMap:
    """tau_n**exponent, where tau_n is the translation x |-> x - 1."""
    if not variant.has_rotations:
        raise CyclicCatError("the simplicial category has no rotations")
    return CyclicMap(n, n, [v - exponent for v in range(n + 1)], variant)


def compose(g: CyclicMap, f: CyclicMap) -> CyclicMap:
    """g after f, via the equivariant extensions."""
    if g.variant != f.variant:
        raise CyclicCatError(f"variant mismatch: {g.variant} vs {f.variant}")
    if f.target_m != g.source_n:
        raise CyclicCatError(
            f"levels do not match: {f.source_n}->{f.target_m} then {g.source_n}->{g.target_m}")
    return CyclicMap(f.source_n, g.target_m,
                     [g.extended(v) for v in f.values], g.variant)


def normal_form(f: CyclicMap) -> tuple[CyclicMap, int]:
    """Unique factorization f = mono o tau**rotation with mono simplicial.

    The rotation lies in [0, n] for the cyclic category, [0, r(n+1)) for the
    r-cyclic one, and is an arbitrary integer for the paracyclic category.
    """
    if f.variant.kind == "simplicial":
        raise CyclicCatError("simplicial maps are their own normal form")
    n, m = f.source_n, f.target_m
    n1, m1 = n + 1, m + 1
    # the window starts at the first y with f(y) >= 0: on the class of s mod
    # n + 1 that is s - (n + 1) (f(s) // (m + 1)), and f(y) <= m there, since
    # f(y - 1) < 0 and f rises by at most m + 1 per step
    y0 = min(s - n1 * (v // m1) for s, v in enumerate(f.values))
    window = [f.extended(y0 + k) for k in range(n1)]
    if not (0 <= window[0] <= window[-1] <= m):
        raise CyclicCatError(f"window extraction failed for {f}")
    mono = CyclicMap(n, m, window, SIMPLICIAL)
    rot = y0
    mod = f.variant.rotation_modulus(n)
    if mod is not None:
        rot %= mod
    # check the factorization in the ambient variant
    mono_v = CyclicMap(n, m, window, f.variant)
    assert compose(mono_v, rotation(n, f.variant, rot)) == f, (f, mono, rot)
    return mono, rot


def simplicial_word(mono: CyclicMap) -> "GeneratorWord":
    """Epi-mono factorization of a simplicial map as cofaces after codegeneracies.

    Coface indices come out strictly decreasing, codegeneracy indices strictly
    increasing, matching the standard normal ordering.
    """
    if mono.variant.kind != "simplicial":
        raise CyclicCatError("epi-mono decomposition applies to simplicial maps")
    n, m = mono.source_n, mono.target_m
    image = set(mono.values)
    missed = [i for i in range(m + 1) if i not in image]
    doubled = [j for j in range(n) if mono.values[j] == mono.values[j + 1]]
    tokens: list[Token] = []
    level = m
    for i in sorted(missed, reverse=True):
        tokens.append(Token("coface", level, i))
        level -= 1
    # now level == number of distinct values minus 1
    assert level == len(image) - 1
    for j in sorted(doubled):
        tokens.append(Token("codegeneracy", level, j))
        level += 1
    assert level == n
    word = GeneratorWord(tokens, "covariant")
    assert interpret(word, SIMPLICIAL) == mono if tokens else mono.is_identity()
    return word


def morphism_word(f: CyclicMap) -> "GeneratorWord":
    """The covariant word of f: the simplicial word of its normal form's
    monomorphism (of f itself when f is simplicial), then its rotation."""
    mono, rot = (f, 0) if f.variant.kind == "simplicial" else normal_form(f)
    tokens = list(simplicial_word(mono).tokens)
    if rot:
        tokens.append(Token("tau", f.source_n, rot))
    return GeneratorWord(tokens)


@dataclass(frozen=True)
class Token:
    """One generator: a coface delta_i^n, codegeneracy sigma_j^n, or rotation tau_n^e.

    In contravariant words the same shapes read as faces d_i^n, degeneracies
    s_j^n, and cyclic operators t_n^e.
    """

    kind: str   # "coface" | "codegeneracy" | "tau"
    level: int  # the n in delta_i^n / sigma_j^n / tau_n
    index: int  # i, j, or the exponent for tau

    def __post_init__(self):
        if self.kind not in ("coface", "codegeneracy", "tau"):
            raise CyclicCatError(f"unknown token kind {self.kind!r}")
        if self.kind == "coface" and not (self.level >= 1 and 0 <= self.index <= self.level):
            raise CyclicCatError(f"bad coface token delta_{self.index}^{self.level}")
        if self.kind == "codegeneracy" and not (self.level >= 0 and 0 <= self.index <= self.level):
            raise CyclicCatError(f"bad codegeneracy token sigma_{self.index}^{self.level}")
        if self.kind == "tau" and self.level < 0:
            raise CyclicCatError(f"bad rotation token tau_{self.level}")

    @property
    def source_level(self) -> int:
        """Source level of the covariant reading."""
        if self.kind == "coface":
            return self.level - 1
        if self.kind == "codegeneracy":
            return self.level + 1
        return self.level

    @property
    def target_level(self) -> int:
        return self.level

    def render(self) -> str:
        if self.kind == "coface":
            return f"d{self.index}^{self.level}"
        if self.kind == "codegeneracy":
            return f"s{self.index}^{self.level}"
        if self.index == 1:
            return f"t_{self.level}"
        return f"t_{self.level}^{self.index}"


class GeneratorWord:
    """A composable word of generator tokens, leftmost applied last.

    Covariant words denote composites in the category itself; contravariant
    words denote composites of faces/degeneracies/cyclic operators in the
    opposite category (tokens keep the same shapes, composition reverses).
    """

    __slots__ = ("tokens", "direction")

    def __init__(self, tokens: Sequence[Token], direction: str = "covariant"):
        if direction not in ("covariant", "contravariant"):
            raise CyclicCatError(f"unknown direction {direction!r}")
        tokens = tuple(tokens)
        # adjacent tokens must be composable; composition order depends on direction
        seq = tokens if direction == "covariant" else tuple(reversed(tokens))
        for left, right in zip(seq, seq[1:]):
            if right.target_level != left.source_level:
                raise CyclicCatError(
                    f"non-composable word at {left.render()} . {right.render()}")
        object.__setattr__(self, "tokens", tokens)
        object.__setattr__(self, "direction", direction)

    def __setattr__(self, *args):
        raise AttributeError("GeneratorWord is immutable")

    def __eq__(self, other):
        if not isinstance(other, GeneratorWord):
            return NotImplemented
        return self.tokens == other.tokens and self.direction == other.direction

    def __hash__(self):
        return hash((self.tokens, self.direction))

    def target_level(self) -> int | None:
        if not self.tokens:
            return None
        if self.direction == "covariant":
            return self.tokens[0].target_level
        return self.tokens[0].source_level

    def __repr__(self):
        arrow = "" if self.direction == "covariant" else " (op)"
        return ".".join(t.render() for t in self.tokens) + arrow


def token_map(tok: Token, variant: CategoryVariant) -> CyclicMap:
    if tok.kind == "coface":
        return coface(tok.level, tok.index, variant)
    if tok.kind == "codegeneracy":
        return codegeneracy(tok.level, tok.index, variant)
    return rotation(tok.level, variant, tok.index)


def interpret(word: GeneratorWord, variant: CategoryVariant) -> CyclicMap:
    """Fold a word through the model; contravariant words interpret in reverse."""
    if not word.tokens:
        raise CyclicCatError("cannot interpret the empty word without a level")
    seq = word.tokens if word.direction == "covariant" else tuple(reversed(word.tokens))
    out = token_map(seq[-1], variant)
    for tok in reversed(seq[:-1]):
        out = compose(token_map(tok, variant), out)
    return out


def interpret_at(word: GeneratorWord, variant: CategoryVariant, level: int) -> CyclicMap:
    """Like interpret, but an empty word means the identity at the given level."""
    if not word.tokens:
        return identity(level, variant)
    return interpret(word, variant)


# -- duality and reindexing ------------------------------------------------------


def dualize_L(word: GeneratorWord) -> GeneratorWord:
    """Cyclic duality on a contravariant word of faces/degeneracies/cyclic operators.

    L sends d_i^n to sigma_i^{n-1} (to sigma_0^{n-1} tau_n^{-1} when i = n),
    s_j^n to delta_{j+1}^{n+1}, and t_n to tau_n^{-1}; the output is covariant.
    """
    if word.direction != "contravariant":
        raise CyclicCatError("cyclic duality consumes contravariant words")
    out: list[Token] = []
    for tok in word.tokens:
        n = tok.level
        if tok.kind == "coface":       # a face d_i^n
            if tok.index < n:
                out.append(Token("codegeneracy", n - 1, tok.index))
            else:
                out.append(Token("codegeneracy", n - 1, 0))
                out.append(Token("tau", n, -1))
        elif tok.kind == "codegeneracy":  # a degeneracy s_j^n
            out.append(Token("coface", n + 1, tok.index + 1))
        else:                          # a cyclic operator t_n^e
            out.append(Token("tau", n, -tok.index))
    return GeneratorWord(out, "covariant")


def reindex_Phi(word: GeneratorWord) -> GeneratorWord:
    """The involutive reindexing: delta_i -> delta_{n-i}, sigma_j -> sigma_{n-j}, tau -> tau^{-1}."""
    out = []
    for tok in word.tokens:
        if tok.kind == "coface":
            out.append(Token("coface", tok.level, tok.level - tok.index))
        elif tok.kind == "codegeneracy":
            out.append(Token("codegeneracy", tok.level, tok.level - tok.index))
        else:
            out.append(Token("tau", tok.level, -tok.index))
    return GeneratorWord(out, word.direction)


# -- enumeration and relation suites ------------------------------------------------


# the largest hom-set enumerate_hom enumerates, in about 0.5 s on a 2-CPU x86_64
# host (Hom_Lambda(7, 7) has 51,480 morphisms)
MAX_HOM_COUNT = 100_000


def enumerate_hom(n: int, m: int, variant: CategoryVariant) -> Iterator[CyclicMap]:
    """All canonical morphisms n -> m (not available for the paracyclic
    category), refused when their number, the closed form simplicial_hom_count
    times the rotation factor, exceeds MAX_HOM_COUNT."""
    if variant.kind == "paracyclic":
        raise CyclicCatError("paracyclic hom-sets are infinite")
    if n < 0 or m < 0:
        raise CyclicCatError("levels must be nonnegative")
    size = simplicial_hom_count(n, m) * (variant.rotation_modulus(n) or 1)
    if size > MAX_HOM_COUNT:
        raise CyclicCatError(f"Hom({n}, {m}) has {size} morphisms, over {MAX_HOM_COUNT}")
    if variant.kind == "simplicial":
        windows = combinations_with_replacement(range(m + 1), n + 1)
    else:
        windows = ((v0, *rest) for v0 in range(variant.rotation_modulus(m))
                   for rest in combinations_with_replacement(range(v0, v0 + m + 2), n))
    for vals in windows:
        yield CyclicMap(n, m, vals, variant)


def hom_count(n: int, m: int, variant: CategoryVariant) -> int:
    return sum(1 for _ in enumerate_hom(n, m, variant))


def simplicial_hom_count(n: int, m: int) -> int:
    """Closed form |Hom_Delta(n,m)| = C(n+m+1, n+1)."""
    return comb(n + m + 1, n + 1)


@dataclass(frozen=True)
class RelationInstance:
    name: str
    level: int
    lhs: GeneratorWord
    rhs: GeneratorWord
    identity_level: int | None = None  # set when the RHS is an identity


def _w(*tokens: Token) -> GeneratorWord:
    return GeneratorWord(tokens, "covariant")


def relation_instances(N: int, variant: CategoryVariant) -> Iterator[RelationInstance]:
    """Every instance of the defining relations with all appearing levels <= N."""
    T = Token
    # (1) delta_j^{n+1} delta_i^n = delta_i^{n+1} delta_{j-1}^n, 0 <= i < j <= n+1
    for n in range(1, N):
        for j in range(0, n + 2):
            for i in range(0, j):
                yield RelationInstance(
                    "cofaces", n + 1,
                    _w(T("coface", n + 1, j), T("coface", n, i)),
                    _w(T("coface", n + 1, i), T("coface", n, j - 1)))
    # (2) sigma_j^n sigma_i^{n+1} = sigma_i^n sigma_{j+1}^{n+1}, 0 <= i <= j <= n
    for n in range(0, N - 1):
        for j in range(0, n + 1):
            for i in range(0, j + 1):
                yield RelationInstance(
                    "codegeneracies", n + 2,
                    _w(T("codegeneracy", n, j), T("codegeneracy", n + 1, i)),
                    _w(T("codegeneracy", n, i), T("codegeneracy", n + 1, j + 1)))
    # (3) mixed relations
    for n in range(1, N):
        for j in range(0, n + 1):
            for i in range(0, n + 2):
                if i < j:
                    yield RelationInstance(
                        "mixed", n + 1,
                        _w(T("codegeneracy", n, j), T("coface", n + 1, i)),
                        _w(T("coface", n, i), T("codegeneracy", n - 1, j - 1)))
                elif i == j or i == j + 1:
                    yield RelationInstance(
                        "mixed-identity", n + 1,
                        _w(T("codegeneracy", n, j), T("coface", n + 1, i)),
                        GeneratorWord((), "covariant"), identity_level=n)
                else:
                    yield RelationInstance(
                        "mixed", n + 1,
                        _w(T("codegeneracy", n, j), T("coface", n + 1, i)),
                        _w(T("coface", n, i - 1), T("codegeneracy", n - 1, j)))
    # identity case at n = 0: sigma_0^0 delta_i^1 = id_0
    if N >= 1:
        for i in (0, 1):
            yield RelationInstance(
                "mixed-identity", 1,
                _w(T("codegeneracy", 0, 0), T("coface", 1, i)),
                GeneratorWord((), "covariant"), identity_level=0)
    if not variant.has_rotations:
        return
    # (4) tau_n delta_i^n = delta_{i-1}^n tau_{n-1}, 1 <= i <= n
    for n in range(1, N + 1):
        for i in range(1, n + 1):
            yield RelationInstance(
                "rotation-coface", n,
                _w(T("tau", n, 1), T("coface", n, i)),
                _w(T("coface", n, i - 1), T("tau", n - 1, 1)))
    # (5) tau_n delta_0^n = delta_n^n
    for n in range(1, N + 1):
        yield RelationInstance(
            "rotation-coface-wrap", n,
            _w(T("tau", n, 1), T("coface", n, 0)),
            _w(T("coface", n, n)))
    # (6) tau_n sigma_i^n = sigma_{i-1}^n tau_{n+1}, 1 <= i <= n
    for n in range(1, N):
        for i in range(1, n + 1):
            yield RelationInstance(
                "rotation-codegeneracy", n + 1,
                _w(T("tau", n, 1), T("codegeneracy", n, i)),
                _w(T("codegeneracy", n, i - 1), T("tau", n + 1, 1)))
    # (7) tau_n sigma_0^n = sigma_n^n tau_{n+1}^2
    for n in range(0, N):
        yield RelationInstance(
            "rotation-codegeneracy-wrap", n + 1,
            _w(T("tau", n, 1), T("codegeneracy", n, 0)),
            _w(T("codegeneracy", n, n), T("tau", n + 1, 2)))
    # (8) the power relation (absent in the paracyclic category)
    if variant.kind == "cyclic":
        for n in range(0, N + 1):
            yield RelationInstance(
                "cocyclicity", n, _w(T("tau", n, n + 1)),
                GeneratorWord((), "covariant"), identity_level=n)
    elif variant.kind == "rcyclic":
        for n in range(0, N + 1):
            yield RelationInstance(
                "r-cocyclicity", n, _w(T("tau", n, variant.r * (n + 1))),
                GeneratorWord((), "covariant"), identity_level=n)


@dataclass
class RelationReport:
    variant: CategoryVariant
    checked: int = 0
    failures: list[str] = None
    notes: list[str] = None

    def __post_init__(self):
        if self.failures is None:
            self.failures = []
        if self.notes is None:
            self.notes = []

    @property
    def ok(self) -> bool:
        return not self.failures


def relation_suite(N: int, variant: CategoryVariant) -> RelationReport:
    """Check every defining relation instance with levels <= N in the model."""
    report = RelationReport(variant)
    for inst in relation_instances(N, variant):
        lhs = interpret(inst.lhs, variant)
        rhs = (identity(inst.identity_level, variant) if inst.identity_level is not None
               else interpret(inst.rhs, variant))
        report.checked += 1
        if lhs != rhs:
            report.failures.append(f"{inst.name} at level {inst.level}: {lhs} != {rhs}")
    if variant.kind == "paracyclic":
        # strictness: tau_n^{n+1} is the translation by n+1, not the identity
        for n in range(0, N + 1):
            power = rotation(n, variant, n + 1)
            expected = CyclicMap(n, n, [v - (n + 1) for v in range(n + 1)], variant)
            report.checked += 1
            if power != expected or power.is_identity():
                report.failures.append(f"paracyclic strictness failed at level {n}")
            else:
                report.notes.append(f"tau_{n}^{n + 1} = translation by {n + 1} (not id)")
    return report


# -- text rendering / parsing --------------------------------------------------------


def render_map(f: CyclicMap) -> str:
    vals = ",".join(map(str, f.values))
    return f"({vals}) mod {f.target_m + 1} : {f.source_n}->{f.target_m}"


def render_word(f: CyclicMap) -> str:
    """Render as generators, e.g. 'd2^3.s0^2.t_1^2 : 1->3'."""
    body = ".".join(t.render() for t in morphism_word(f).tokens) or "id"
    return f"{body} : {f.source_n}->{f.target_m}"


def parse_int(text: str) -> int:
    """The integer written in text; CyclicCatError when it is not one."""
    try:
        return int(text)
    except ValueError:
        raise CyclicCatError(f"expected an integer, got {text.strip()!r}") from None


# the largest level a parsed expression may name: normal forms take time
# quadratic in the level (0.1 s at 2000, 10 s at 20000 on a 2-CPU x86_64 host)
MAX_LEVEL = 1000


def parse_level(text: str) -> int:
    """The level written in text; CyclicCatError when it is not in 0..MAX_LEVEL."""
    n = parse_int(text)
    if not 0 <= n <= MAX_LEVEL:
        raise CyclicCatError(f"level {n} is outside 0..{MAX_LEVEL}")
    return n


def parse_word(text: str, variant: CategoryVariant,
               direction: str = "covariant") -> GeneratorWord:
    """Parse 'd2.s0.t^3 : 3->4' style expressions; the rightmost token acts first.

    Token levels are inferred by walking the word right-to-left from the
    declared source level.
    """
    text = text.strip()
    if ":" not in text:
        raise CyclicCatError("expected 'word : n->m'")
    body, _, typing = text.rpartition(":")
    src_txt, arrow, tgt_txt = typing.replace("→", "->").partition("->")
    if not arrow:
        raise CyclicCatError("expected 'n->m' after ':'")
    source = parse_level(src_txt)
    target = parse_level(tgt_txt)
    raw = [p for p in body.strip().split(".") if p]
    tokens: list[Token] = []
    level = source
    for piece in reversed(raw):
        piece = piece.strip()
        if piece in ("", "id"):
            continue
        head = piece[0]
        rest = piece[1:]
        exponent = 1
        if "^" in rest:
            idx_txt, _, exp_txt = rest.partition("^")
            exponent = parse_int(exp_txt)
        else:
            idx_txt = rest
        idx_txt = idx_txt.lstrip("_")
        if head in ("d", "δ"):
            i = parse_int(idx_txt)
            if direction == "covariant":
                tokens.append(Token("coface", level + 1, i))
                level += 1
            else:
                tokens.append(Token("coface", level, i))
                level -= 1
        elif head in ("s", "σ"):
            j = parse_int(idx_txt)
            if direction == "covariant":
                tokens.append(Token("codegeneracy", level - 1, j))
                level -= 1
            else:
                tokens.append(Token("codegeneracy", level, j))
                level += 1
        elif head in ("t", "τ"):
            tokens.append(Token("tau", level, exponent))
        else:
            raise CyclicCatError(f"unknown token {piece!r}")
    if any(tok.level > MAX_LEVEL for tok in tokens):
        raise CyclicCatError(f"the word passes a level above {MAX_LEVEL}")
    tokens.reverse()
    word = GeneratorWord(tokens, direction)
    lvl = word.target_level()
    if tokens and lvl != target:
        raise CyclicCatError(f"word has target {lvl}, declared {target}")
    if not tokens and source != target:
        raise CyclicCatError("empty word must have equal source and target")
    return word
