"""Exact linear algebra: sparse matrices between tensor products of based spaces.

A LinearMap carries the dimensions of its domain and codomain as ints; a
tensor product X1 (x) ... (x) Xk is indexed row-major, the leftmost factor
most significant, and the maps that act on factors (whisker, kron_sum,
permute_factors) are given the factor dimensions.  Composition, tensor
product, factor permutation, transpose and exact kernel/rank/solve are
provided.  A LinearMap is immutable after construction; all arithmetic is
exact.

A map's entries are the nonzero payloads of its field's elements (ints and
tuples of ints, laid out by fields and opaque here), not Scalars.  Payloads
are canonical, so two maps are equal exactly when their entry dicts are.
The inner loops bind the field's _mul, _add, _neg, _inv and _is_zero once
per call, accumulate payloads and drop the sums that cancel, so a map never
holds a zero; LinearMap._from_clean, which checks nothing, is used only where
that invariant already holds.  Scalars appear only at the boundary: the
public constructor takes Scalar entries and checks them, entry() and apply()
return Scalars, and vectors go in and out as dense lists of Scalars.  A
SubspaceBasis keeps its vectors as nonzero payloads by column and builds the
dense vectors only when asked for them.
"""

from __future__ import annotations

from itertools import accumulate, product
from typing import Callable, Iterable, Sequence

from .fields import FieldError, FieldSpec, Scalar


class ShapeError(ValueError):
    """Raised on incompatible shapes or fields."""


class Cancelled(RuntimeError):
    """Raised when a caller-supplied cancellation hook fires mid-reduction."""


class _Dim(int):
    """A dimension that also answers .dim with itself.  Every map stores its
    domain and codomain as these only because the benchmark's tracer
    (perfbench/tracer.py) reads m.domain.dim and m.codomain.dim; delete this
    class once the tracer reads the ints."""

    __slots__ = ()

    @property
    def dim(self) -> int:
        return int(self)


def _dims(*dims) -> Iterable[_Dim]:
    """The dimensions, each checked to be a nonnegative int (not a bool)."""
    if any(not isinstance(d, int) or isinstance(d, bool) or d < 0 for d in dims):
        raise ShapeError(f"dimensions must be nonnegative integers, got {dims}")
    return map(_Dim, dims)


UNIT = 1   # the dimension of the unit object, the ground field


class LinearMap:
    """A sparse exact matrix between tensor products of based spaces.

    Entries map (row, col) to the nonzero payloads of field's elements; row
    indexes the codomain, col the domain (column-vector convention, w = M v).
    The constructor takes Scalars and stores their payloads; entry() reads
    one back as a Scalar.

    A map made by whisker keeps the record (op, left dim, right dim) of
    id_left (x) op (x) id_right and leaves its entries unset until something
    reads them; compose reads the record instead and never writes them out.
    """

    __slots__ = ("field", "domain", "codomain", "entries", "_whisker")

    def __init__(self, field: FieldSpec, domain: int, codomain: int,
                 entries: dict[tuple[int, int], Scalar]):
        domain, codomain = _dims(domain, codomain)
        clean = {}
        is_zero = field._is_zero
        for (r, c), v in entries.items():
            if not isinstance(v, Scalar):
                raise ShapeError("entries must be Scalars")
            if v.field is not field and v.field != field:
                raise ShapeError("entry field differs from map field")
            if not (0 <= r < codomain and 0 <= c < domain):
                raise ShapeError(f"entry ({r},{c}) out of bounds {codomain}x{domain}")
            p = v.payload
            if not is_zero(p):
                clean[(r, c)] = p
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "domain", domain)
        object.__setattr__(self, "codomain", codomain)
        object.__setattr__(self, "entries", clean)
        object.__setattr__(self, "_whisker", None)

    @classmethod
    def _from_clean(cls, field: FieldSpec, domain: int, codomain: int,
                    entries: dict[tuple[int, int], object] | None,
                    whiskered: tuple | None = None) -> "LinearMap":
        """The map with these entries, which the caller knows to be nonzero
        payloads of field at positions inside the dimensions; nothing is
        checked.  A whisker passes its record and no entries."""
        m = object.__new__(cls)
        object.__setattr__(m, "field", field)
        object.__setattr__(m, "domain", _Dim(domain))
        object.__setattr__(m, "codomain", _Dim(codomain))
        if entries is not None:
            object.__setattr__(m, "entries", entries)
        object.__setattr__(m, "_whisker", whiskered)
        return m

    def __getattr__(self, name):
        # reached only for an unset slot: the entries of a whisker, written
        # out on their first read and kept
        if name != "entries" or self._whisker is None:
            raise AttributeError(name)
        entries = _whisker_entries(*self._whisker)
        object.__setattr__(self, "entries", entries)
        return entries

    def __setattr__(self, *args):
        raise AttributeError("LinearMap is immutable")

    # -- constructors ---------------------------------------------------------

    @classmethod
    def from_payloads(cls, field: FieldSpec, domain: int, codomain: int,
                      entries: dict[tuple[int, int], object]) -> "LinearMap":
        """The map with these payloads of field's elements at (row, col), such
        as sums accumulated with the field's _mul and _add: the dimensions and
        positions are checked and the zeros dropped, as the constructor does;
        the payloads themselves are taken to be field's."""
        domain, codomain = _dims(domain, codomain)
        for r, c in entries:
            if not (0 <= r < codomain and 0 <= c < domain):
                raise ShapeError(f"entry ({r},{c}) out of bounds {codomain}x{domain}")
        return cls._from_clean(field, domain, codomain, _nonzero(field, entries))

    @staticmethod
    def zero(field, domain: int, codomain: int) -> "LinearMap":
        return LinearMap._from_clean(field, domain, codomain, {})

    @staticmethod
    def identity(field, dim: int) -> "LinearMap":
        one = field.one().payload
        return LinearMap._from_clean(field, dim, dim, {(i, i): one for i in range(dim)})

    @staticmethod
    def from_rows(field, domain: int, codomain: int,
                  rows: Sequence[Sequence[Scalar]]) -> "LinearMap":
        entries = {}
        for r, row in enumerate(rows):
            for c, v in enumerate(row):
                if not v.is_zero():
                    entries[(r, c)] = v
        return LinearMap(field, domain, codomain, entries)

    @staticmethod
    def from_function(field, domain: int, codomain: int,
                      fn: Callable[[int], Iterable[tuple[int, Scalar]]]) -> "LinearMap":
        """Build column by column: fn(col) yields (row, scalar) pairs."""
        entries: dict[tuple[int, int], Scalar] = {}
        for c in range(domain):
            for r, v in fn(c):
                if v.is_zero():
                    continue
                key = (r, c)
                entries[key] = entries[key] + v if key in entries else v
        return LinearMap(field, domain, codomain, entries)

    # -- basic algebra ----------------------------------------------------------

    def __add__(self, other: "LinearMap") -> "LinearMap":
        self._check_same_shape(other)
        F = self.field
        add, is_zero = F._add, F._is_zero
        entries = dict(self.entries)
        for k, v in other.entries.items():
            cur = entries.get(k)
            if cur is None:
                entries[k] = v
                continue
            s = add(cur, v)
            if is_zero(s):
                del entries[k]
            else:
                entries[k] = s
        return LinearMap._from_clean(F, self.domain, self.codomain, entries)

    def __neg__(self) -> "LinearMap":
        F = self.field
        neg = F._neg
        return LinearMap._from_clean(F, self.domain, self.codomain,
                                     {k: neg(v) for k, v in self.entries.items()})

    def __sub__(self, other: "LinearMap") -> "LinearMap":
        return self + (-other)

    def scaled(self, s: Scalar) -> "LinearMap":
        F = self.field
        if s.field != F:
            raise FieldError(f"field mismatch: {F} vs {s.field}")
        if F._is_zero(s.payload):
            return LinearMap._from_clean(F, self.domain, self.codomain, {})
        mul, x = F._mul, s.payload
        return LinearMap._from_clean(F, self.domain, self.codomain,
                                     {k: mul(v, x) for k, v in self.entries.items()})

    def _check_same_shape(self, other):
        if self.field != other.field:
            raise ShapeError("field mismatch")
        if self.domain != other.domain or self.codomain != other.codomain:
            raise ShapeError(f"dimension mismatch: {self.domain}->{self.codomain} vs "
                             f"{other.domain}->{other.codomain}")

    def compose(self, first: "LinearMap") -> "LinearMap":
        """self after first (matrix product self @ first).

        A whisker operand id_a (x) op (x) id_b is read through its record,
        slot by slot: each index of the other operand X at the shared space is
        split into digits (a, m, b), and column m of op (row m, when the
        whisker comes first) is walked.  That costs nnz(X) times the nonzeros
        per column (row) of op, and forms the same products as the written-out
        matrix would.  When both operands are whiskers, first is read by its
        entries.
        """
        if self.field != first.field:
            raise ShapeError("field mismatch")
        if first.codomain != self.domain:
            raise ShapeError(f"cannot compose {self.domain}->{self.codomain} "
                             f"after {first.domain}->{first.codomain}")
        F = self.field
        if self._whisker is not None:
            return LinearMap._from_clean(F, first.domain, self.codomain,
                                         _whisker_after(self._whisker, first))
        if first._whisker is not None:
            return LinearMap._from_clean(F, first.domain, self.codomain,
                                         _after_whisker(self, first._whisker))
        mul, add, is_zero = F._mul, F._add, F._is_zero
        by_col: dict[int, list[tuple[int, object]]] = {}
        for (r, c), v in first.entries.items():
            by_col.setdefault(c, []).append((r, v))
        by_mid: dict[int, list[tuple[int, object]]] = {}
        for (r, c), v in self.entries.items():
            by_mid.setdefault(c, []).append((r, v))
        entries: dict[tuple[int, int], object] = {}
        for c, mids in by_col.items():
            col: dict[int, object] = {}
            for m, x in mids:
                for r, y in by_mid.get(m, ()):
                    p = mul(y, x)
                    col[r] = add(col[r], p) if r in col else p
            for r, p in col.items():
                if not is_zero(p):
                    entries[(r, c)] = p
        return LinearMap._from_clean(F, first.domain, self.codomain, entries)

    def tensor(self, other: "LinearMap") -> "LinearMap":
        """Kronecker product: the one-term kron_sum."""
        if self.field != other.field:
            raise ShapeError("field mismatch")
        return kron_sum(self.field, (self.domain, self.codomain),
                        (other.domain, other.codomain), [(None, self, other)])

    def transpose(self) -> "LinearMap":
        """Plain transpose; the matrix of the dual map in dual bases."""
        return LinearMap._from_clean(self.field, self.codomain, self.domain,
                                     {(c, r): v for (r, c), v in self.entries.items()})

    def apply(self, vec: Sequence[Scalar]) -> list[Scalar]:
        if len(vec) != self.domain:
            raise ShapeError(f"vector length {len(vec)} != domain dim {self.domain}")
        F = self.field
        mul, add = F._mul, F._add
        xs = _payloads(F, vec)
        acc: dict[int, object] = {}
        for (r, c), v in self.entries.items():
            x = xs.get(c)
            if x is not None:
                p = mul(v, x)
                acc[r] = add(acc[r], p) if r in acc else p
        return _dense(F, self.codomain, _nonzero(F, acc))

    def entry(self, r: int, c: int) -> Scalar:
        p = self.entries.get((r, c))
        return self.field.zero() if p is None else Scalar(self.field, p)

    def is_zero(self) -> bool:
        return not self.entries

    def __eq__(self, other):
        if not isinstance(other, LinearMap):
            return NotImplemented
        return (self.field == other.field and self.domain == other.domain
                and self.codomain == other.codomain and self.entries == other.entries)

    def __hash__(self):
        return hash((self.field, self.domain, self.codomain,
                     frozenset(self.entries.items())))

    def __repr__(self):
        return (f"LinearMap({self.domain}->{self.codomain}, "
                f"{len(self.entries)} nonzero)")


def _payloads(F: FieldSpec, vec: Sequence[Scalar]) -> dict[int, object]:
    """The nonzero payloads of a dense vector of Scalars of F, by position."""
    is_zero = F._is_zero
    out = {}
    for i, x in enumerate(vec):
        p = x.payload
        if not is_zero(p):
            if x.field is not F and x.field != F:
                raise ShapeError(f"vector entry over {x.field}, expected {F}")
            out[i] = p
    return out


def _dense(F: FieldSpec, n: int, vec: dict[int, object]) -> list[Scalar]:
    """The dense vector of length n with the given nonzero payloads by position."""
    out = [F.zero()] * n
    for i, p in vec.items():
        out[i] = Scalar(F, p)
    return out


def _nonzero(F: FieldSpec, acc: dict) -> dict:
    """Accumulated payloads of F without the ones that cancelled."""
    is_zero = F._is_zero
    return {k: p for k, p in acc.items() if not is_zero(p)}


def _whisker_after(record: tuple, first: LinearMap) -> dict:
    """The entries of (id_a (x) op (x) id_b) o first: row (i, j, k) of first,
    in digits of a x op.domain x b, meets column j of op."""
    op, _, rd = record
    F = op.field
    mul, add = F._mul, F._add
    cols: dict[int, list[tuple[int, object]]] = {}
    for (r, c), v in op.entries.items():
        cols.setdefault(c, []).append((r * rd, v))
    block_in, block_out = op.domain * rd, op.codomain * rd
    acc: dict[tuple[int, int], object] = {}
    for (m, c), x in first.entries.items():
        i, rest = divmod(m, block_in)
        j, k = divmod(rest, rd)
        base = i * block_out + k
        for rb, y in cols.get(j, ()):
            key = (base + rb, c)
            p = mul(y, x)
            acc[key] = add(acc[key], p) if key in acc else p
    return _nonzero(F, acc)


def _after_whisker(second: LinearMap, record: tuple) -> dict:
    """The entries of second o (id_a (x) op (x) id_b): column (i, j, k) of
    second, in digits of a x op.codomain x b, meets row j of op."""
    op, _, rd = record
    F = op.field
    mul, add = F._mul, F._add
    rows: dict[int, list[tuple[int, object]]] = {}
    for (r, c), v in op.entries.items():
        rows.setdefault(r, []).append((c * rd, v))
    block_in, block_out = op.domain * rd, op.codomain * rd
    acc: dict[tuple[int, int], object] = {}
    for (r, m), y in second.entries.items():
        i, rest = divmod(m, block_out)
        j, k = divmod(rest, rd)
        base = i * block_in + k
        for cb, x in rows.get(j, ()):
            key = (r, base + cb)
            p = mul(y, x)
            acc[key] = add(acc[key], p) if key in acc else p
    return _nonzero(F, acc)


def whisker(op: LinearMap, left: int, right: int) -> LinearMap:
    """id_left (x) op (x) id_right, left and right the dimensions of the
    identity factors: no identity factor is built and no entry is multiplied.
    The map keeps the record (op, left, right); compose works from it, and its
    left x nnz(op) x right entries are placed by index arithmetic only when
    something else reads them (restrict, +, ==, apply, tensor)."""
    return LinearMap._from_clean(op.field, left * op.domain * right,
                                 left * op.codomain * right, None, (op, left, right))


def _whisker_entries(op: LinearMap, ld: int, rd: int) -> dict:
    """The entries of id_ld (x) op (x) id_rd, each a placed entry of op."""
    od, ocd = op.domain, op.codomain
    entries = {}
    for (r, c), v in op.entries.items():
        for a in range(ld):
            row, col = (a * ocd + r) * rd, (a * od + c) * rd
            for b in range(rd):
                entries[(row + b, col + b)] = v
    return entries


def kron_sum(field, first: tuple[int, int], second: tuple[int, int],
             terms: Iterable[tuple[object, LinearMap, LinearMap]],
             exchange: str | None = None) -> LinearMap:
    """sum c A (x) B over the terms (c, A, B), with A a map between the
    dimensions first = (domain, codomain), B one between second, and c a
    payload of field or None for 1; no terms give the zero map.

    exchange "rows" numbers the rows in B's codomain (x) A's codomain,
    "columns" the columns in B's domain (x) A's domain, and None neither: the
    sum composed after (or before) the flip of the two factors, with no flip
    formed.  Entry (r1, c1) of A and (r2, c2) of B land at
    (r1 ra + r2 rb, c1 ca + c2 cb) with the strides fixed before the loop,
    and sums that cancel are dropped."""
    (a_dom, a_cod), (b_dom, b_cod) = first, second
    if exchange not in (None, "rows", "columns"):
        raise ShapeError(f"exchange must be None, 'rows' or 'columns', got {exchange!r}")
    ra, rb = (1, a_cod) if exchange == "rows" else (b_cod, 1)
    ca, cb = (1, a_dom) if exchange == "columns" else (b_dom, 1)
    mul, add = field._mul, field._add
    acc: dict[tuple[int, int], object] = {}
    for c, A, B in terms:
        if (A.domain, A.codomain, B.domain, B.codomain) != (a_dom, a_cod, b_dom, b_cod):
            raise ShapeError(f"terms {A.domain}->{A.codomain} (x) {B.domain}->{B.codomain} "
                             f"do not fit {a_dom}->{a_cod} (x) {b_dom}->{b_cod}")
        right = [(r2 * rb, c2 * cb, v2) for (r2, c2), v2 in B.entries.items()]
        if not right:
            continue
        for (r1, c1), v1 in A.entries.items():
            r0, c0 = r1 * ra, c1 * ca
            x = v1 if c is None else mul(c, v1)
            for r2, c2, v2 in right:
                key, prod = (r0 + r2, c0 + c2), mul(x, v2)
                acc[key] = add(acc[key], prod) if key in acc else prod
    return LinearMap._from_clean(field, a_dom * b_dom, a_cod * b_cod, _nonzero(field, acc))


def permute_factors(field, factors: Sequence[int], perm: Sequence[int]) -> LinearMap:
    """The map sending x_0 (x) ... (x) x_{k-1} to x_{perm[0]} (x) ... (x) x_{perm[k-1]},
    x_i in a space of dimension factors[i].

    perm lists source factor positions in target order: source factor
    perm[i] moves to slot i, whose stride is the product of the target
    dimensions after it.
    """
    k = len(factors)
    if sorted(perm) != list(range(k)):
        raise ShapeError(f"not a permutation of {k} factors: {perm}")
    stride, s = [0] * k, 1
    for i in reversed(range(k)):
        stride[perm[i]] = s
        s *= factors[perm[i]]
    one = field.one()
    entries = {(sum(x * t for x, t in zip(multi, stride)), idx): one
               for idx, multi in enumerate(product(*map(range, factors)))}
    return LinearMap(field, s, s, entries)


def block_flip(field, left: int, right: int) -> LinearMap:
    """Flip of the two blocks: left (x) right -> right (x) left."""
    return permute_factors(field, [left, right], [1, 0])


# -- the sparse JSON form ------------------------------------------------------------------


def map_to_json(m: LinearMap) -> dict:
    """The total dimensions and the sorted [row, col, scalar] triples of a map,
    each scalar rendered as its Scalar's repr is."""
    render = m.field.render
    return {"src": m.domain, "tgt": m.codomain,
            "entries": sorted([[r, c, render(v)] for (r, c), v in m.entries.items()])}


def literal_parser(field) -> Callable[[object], Scalar]:
    """field.parse that parses each distinct literal once: a reader of one JSON
    file makes one and passes it to every map_from_json and vector_from_json
    call on that file, and drops it when the file is read."""
    seen: dict[str, Scalar] = {}

    def parse(text):
        if text.__class__ is not str:
            return field.parse(text)   # raises on a literal that is not a string
        x = seen.get(text)
        if x is None:
            x = seen[text] = field.parse(text)
        return x
    return parse


def map_from_json(field, entries, domain: int, codomain: int,
                  parse: Callable[[object], Scalar]) -> LinearMap:
    """The map with these [row, col, scalar] triples, each scalar read by parse,
    a literal_parser of field.  They come from outside the program, so their
    indices must be integers and they go through the checking constructor."""
    out = {}
    for r, c, s in entries:
        if type(r) is not int or type(c) is not int:
            raise ShapeError(f"entry index ({r!r}, {c!r}) is not a pair of integers")
        out[(r, c)] = parse(s)
    return LinearMap(field, domain, codomain, out)


def vector_to_json(vec: Sequence[Scalar] | None) -> list | None:
    """The [index, scalar] pairs of the nonzero entries; None stays None."""
    return None if vec is None else [[i, repr(x)] for i, x in enumerate(vec)
                                     if not x.is_zero()]


def vector_from_json(field, pairs, size: int,
                     parse: Callable[[object], Scalar]) -> list[Scalar] | None:
    """The dense vector of length size with these [index, scalar] pairs, each
    scalar read by parse, a literal_parser of field; None stays None."""
    if pairs is None:
        return None
    out = [field.zero()] * size
    for i, s in pairs:
        if type(i) is not int or not 0 <= i < size:
            raise ShapeError(f"vector index {i!r} out of range {size}")
        out[i] = parse(s)
    return out


# -- direct sums -------------------------------------------------------------------


def block_map(field, rows: Sequence[int], cols: Sequence[int],
              placed: dict[tuple[int, int], LinearMap]) -> LinearMap:
    """The map from the direct sum of spaces of dimensions cols to that of
    spaces of dimensions rows whose block (i, j) is placed[(i, j)], a map from
    the j-th summand to the i-th, and zero where nothing is placed."""
    row_at, col_at = list(accumulate(rows, initial=0)), list(accumulate(cols, initial=0))
    nrows, ncols = len(rows), len(cols)
    entries = {}
    for (i, j), block in placed.items():
        if not (0 <= i < nrows and 0 <= j < ncols
                and block.codomain == rows[i] and block.domain == cols[j]):
            raise ShapeError(f"a map {block.domain}->{block.codomain} does not fit block "
                             f"({i}, {j}) of a map from {list(cols)} to {list(rows)}")
        if block.field != field:
            raise ShapeError("field mismatch")
        r0, c0 = row_at[i], col_at[j]
        for (r, c), v in block.entries.items():
            entries[r0 + r, c0 + c] = v
    return LinearMap._from_clean(field, col_at[-1], row_at[-1], entries)


def stack(blocks: Sequence[LinearMap]) -> LinearMap:
    """The maps out of one space stacked into a single map to the direct sum of
    their codomains; its kernel is the intersection of their kernels."""
    return block_map(blocks[0].field, [b.codomain for b in blocks],
                     [blocks[0].domain], {(i, 0): b for i, b in enumerate(blocks)})


# -- exact elimination -------------------------------------------------------------


def _subtract(row: dict[int, object], factor, pivot: dict[int, object], mul, add, is_zero):
    """row += factor * pivot on payloads, dropping the entries that cancel;
    the caller passes the negated multiplier."""
    for c, v in pivot.items():
        p = mul(factor, v)
        cur = row.get(c)
        if cur is None:
            row[c] = p
            continue
        s = add(cur, p)
        if is_zero(s):
            del row[c]
        else:
            row[c] = s


def _reduce(m: LinearMap, extra: LinearMap | None = None, back: bool = True,
            should_cancel: Callable[[], bool] | None = None):
    """Sparse Gaussian elimination of the rows of m, each extended on the right
    by the same row of extra when given, on the entries' payloads.

    Pivots are taken among the columns of m only and scaled to 1.  Returns
    (rows, pivots): rows as {column: nonzero payload}, and pivots mapping each
    pivot column, in increasing order, to the index of its row in rows.  With
    back=True every pivot column is also cleared above its pivot, which gives
    the reduced echelon form: it depends only on the row space and the column
    order, not on the order or the multiplicity of the rows, nor on the pivot
    choices made on the way.
    """
    F = m.field
    mul, add, neg, inv, is_zero = F._mul, F._add, F._neg, F._inv, F._is_zero
    ncols = m.domain
    rows: list[dict[int, object]] = [dict() for _ in range(m.codomain)]
    for (r, c), v in m.entries.items():
        rows[r][c] = v
    if extra is not None:
        if extra.field != F:
            raise ShapeError("field mismatch")
        for (r, c), v in extra.entries.items():
            rows[r][ncols + c] = v
    pivots: dict[int, int] = {}
    work = [i for i, row in enumerate(rows) if row]
    for col in range(ncols):
        if should_cancel is not None and should_cancel():
            raise Cancelled("elimination cancelled")
        best = None
        for i in work:
            if col in rows[i]:
                if best is None or len(rows[i]) < len(rows[best]):
                    best = i
        if best is None:
            continue
        piv = rows[best]
        scale = inv(piv[col])
        for c in list(piv):
            piv[c] = mul(piv[c], scale)
        pivots[col] = best
        work.remove(best)
        for i in list(work):
            factor = rows[i].get(col)
            if factor is not None:
                _subtract(rows[i], neg(factor), piv, mul, add, is_zero)
                if not rows[i]:
                    work.remove(i)
    if back:
        piv_cols = list(pivots)
        for idx in range(len(piv_cols) - 1, 0, -1):
            col = piv_cols[idx]
            piv = rows[pivots[col]]
            for earlier in piv_cols[:idx]:
                factor = rows[pivots[earlier]].get(col)
                if factor is not None:
                    _subtract(rows[pivots[earlier]], neg(factor), piv, mul, add, is_zero)
    return rows, pivots


def kernel_with_free_columns(m: LinearMap,
                             should_cancel: Callable[[], bool] | None = None
                             ) -> tuple[list[list[Scalar]], list[int], int]:
    """Kernel basis, the free columns indexing it, and the rank.

    The k-th basis vector has coordinate 1 at the k-th free column and 0 at
    every other free column, so coordinates in this basis can be read off.
    """
    basis, free_cols, rank = _kernel(m, should_cancel)
    return [_dense(m.field, m.domain, vec) for vec in basis], free_cols, rank


def kernel_and_rank(m: LinearMap,
                    should_cancel: Callable[[], bool] | None = None
                    ) -> tuple[list[list[Scalar]], int]:
    """Exact kernel basis and rank; rank + kernel dim = domain dim."""
    basis, _, rank = _kernel(m, should_cancel)
    return [_dense(m.field, m.domain, vec) for vec in basis], rank


def _kernel(m: LinearMap, should_cancel=None):
    """The kernel basis as nonzero payloads by column, the free columns and the rank."""
    rows, pivots = _reduce(m, should_cancel=should_cancel)
    neg, one = m.field._neg, m.field.one().payload
    free_cols = [c for c in range(m.domain) if c not in pivots]
    basis = []
    for fc in free_cols:
        # a row of the reduced form has no entry left of its pivot, so the
        # pivot columns met here precede fc and the keys come out in order
        vec = {col: neg(rows[i][fc]) for col, i in pivots.items() if fc in rows[i]}
        vec[fc] = one
        basis.append(vec)
    return basis, free_cols, len(pivots)


def rank(m: LinearMap) -> int:
    """Rank by forward elimination alone: no back substitution, no kernel basis."""
    return len(_reduce(m, back=False)[1])


def _solve_columns(m: LinearMap, rhs: LinearMap) -> LinearMap | None:
    """X with m X = rhs, read off the reduced echelon form of [m | rhs] with
    every free coordinate 0, or None when there is none.  The identity
    m X = rhs is checked exactly, so an inconsistent system cannot pass."""
    rows, pivots = _reduce(m, rhs)
    F, n = m.field, m.domain
    entries = {}
    for col, i in pivots.items():
        for c, v in rows[i].items():
            if c >= n:
                entries[(col, c - n)] = v
    x = LinearMap._from_clean(F, rhs.domain, m.domain, entries)
    return x if m.compose(x) == rhs else None


def solve(m: LinearMap, b: Sequence[Scalar]) -> list[Scalar] | None:
    """A particular solution of m x = b, or None if inconsistent."""
    if len(b) != m.codomain:
        raise ShapeError("right-hand side length mismatch")
    rhs = LinearMap(m.field, UNIT, m.codomain, {(r, 0): v for r, v in enumerate(b)})
    x = _solve_columns(m, rhs)
    return None if x is None else [x.entry(c, 0) for c in range(m.domain)]


def invert(m: LinearMap) -> LinearMap | None:
    """Exact two-sided inverse, or None if singular (requires a square map).

    One reduction of [m | I]; the result is certified by m X = I."""
    if m.domain != m.codomain:
        raise ShapeError("only square maps can be inverted")
    return _solve_columns(m, LinearMap.identity(m.field, m.codomain))


class SubspaceBasis:
    """A basis of a subspace of a based space, with exact membership tests.

    The k-th vector is 1 at the k-th indicator column and 0 at the others, as
    a kernel basis is (from_kernel), so the coordinates of a vector are its
    entries at those columns; they are accepted only when they reconstruct
    the vector exactly.
    """

    def __init__(self, field, ambient_dim: int, vectors: list[list[Scalar]],
                 indicator_cols: list[int]):
        if len(indicator_cols) != len(vectors):
            raise ShapeError(f"{len(indicator_cols)} indicator columns for "
                             f"{len(vectors)} basis vectors")
        for vec in vectors:
            if len(vec) != ambient_dim:
                raise ShapeError(f"basis vector of length {len(vec)} in a space of "
                                 f"dimension {ambient_dim}")
        self._setup(field, ambient_dim, [_payloads(field, vec) for vec in vectors],
                    indicator_cols)
        self._vectors = vectors

    @classmethod
    def _from_sparse(cls, field, ambient_dim: int, sparse: list[dict[int, object]],
                     indicator_cols: list[int]) -> "SubspaceBasis":
        """The basis whose vectors have these nonzero payloads by column."""
        basis = object.__new__(cls)
        basis._setup(field, ambient_dim, sparse, indicator_cols)
        return basis

    def _setup(self, field, ambient_dim, sparse, indicator_cols):
        self.field = field
        self.ambient_dim = ambient_dim
        self.indicator_cols = indicator_cols
        # the nonzero payloads of each basis vector, and each indicator
        # column's slot in the basis; the dense vectors are built on first use
        self._sparse = sparse
        self._slot = {c: k for k, c in enumerate(indicator_cols)}
        self._vectors = None

    @staticmethod
    def standard(field, ambient_dim: int) -> "SubspaceBasis":
        one = field.one().payload
        return SubspaceBasis._from_sparse(field, ambient_dim,
                                          [{c: one} for c in range(ambient_dim)],
                                          list(range(ambient_dim)))

    @staticmethod
    def from_kernel(field, m: LinearMap) -> "SubspaceBasis":
        basis, free_cols, _ = _kernel(m)
        return SubspaceBasis._from_sparse(field, m.domain, basis, free_cols)

    @property
    def vectors(self) -> list[list[Scalar]]:
        """The basis vectors as dense lists of Scalars."""
        if self._vectors is None:
            self._vectors = [_dense(self.field, self.ambient_dim, vec) for vec in self._sparse]
        return self._vectors

    @property
    def dim(self) -> int:
        return len(self._sparse)

    def coordinates(self, vec: Sequence[Scalar]) -> list[Scalar] | None:
        """Coordinates of vec in this basis, or None if vec lies outside the span."""
        if len(vec) != self.ambient_dim:
            raise ShapeError(f"vector length {len(vec)} != ambient dim {self.ambient_dim}")
        F = self.field
        coords = self._sparse_coordinates(_payloads(F, vec))
        return None if coords is None else _dense(F, self.dim, coords)

    def _sparse_coordinates(self, vec: dict[int, object]) -> dict[int, object] | None:
        """The nonzero coordinates {slot: payload} of the vector with the given
        nonzero payloads, or None if it lies outside the span.  They are read
        at the indicator columns present in vec, and accepted only when they
        reconstruct every nonzero of vec and no other."""
        F = self.field
        mul, add, is_zero = F._mul, F._add, F._is_zero
        slot = self._slot
        coords = {}
        for r, p in vec.items():
            k = slot.get(r)
            if k is not None:
                coords[k] = p
        recon: dict[int, object] = {}
        for k, x in coords.items():
            for r, v in self._sparse[k].items():
                p = mul(x, v)
                recon[r] = add(recon[r], p) if r in recon else p
        count = 0
        for r, p in recon.items():
            if not is_zero(p):
                if vec.get(r) != p:
                    return None
                count += 1
        return coords if count == len(vec) else None

    def restrict(self, ambient: LinearMap, target: "SubspaceBasis") -> LinearMap | None:
        """The matrix of an ambient-space map from this basis to the target
        basis, or None if the image of some basis vector leaves the target span.
        Each image is formed from the columns of ambient at the basis vector's
        nonzero entries."""
        if ambient.domain != self.ambient_dim or ambient.codomain != target.ambient_dim:
            raise ShapeError(f"cannot restrict a map {ambient.domain}->{ambient.codomain} "
                             f"to subspaces of {self.ambient_dim} and {target.ambient_dim}")
        F = ambient.field
        if F != self.field or F != target.field:
            raise ShapeError("field mismatch")
        mul, add = F._mul, F._add
        columns: dict[int, list[tuple[int, object]]] = {}
        for (r, c), v in ambient.entries.items():
            columns.setdefault(c, []).append((r, v))
        images = []
        for vec in self._sparse:
            image: dict[int, object] = {}
            for j, x in vec.items():
                for r, v in columns.get(j, ()):
                    p = mul(v, x)
                    image[r] = add(image[r], p) if r in image else p
            images.append(_nonzero(F, image))
        return target._coordinate_columns(images, self.dim)

    def coordinates_of(self, m: LinearMap, renumber: Sequence[int]) -> LinearMap | None:
        """The matrix whose column c holds the coordinates in this basis of
        column c of m, row r of m read as ambient row renumber[r], or None if
        a column leaves the span."""
        if m.codomain != self.ambient_dim or m.field != self.field:
            raise ShapeError(f"cannot read a map into {m.codomain} in this subspace")
        columns: list[dict[int, object]] = [{} for _ in range(m.domain)]
        for (r, c), v in m.entries.items():
            columns[c][renumber[r]] = v
        return self._coordinate_columns(columns, m.domain)

    def _coordinate_columns(self, columns: Iterable[dict[int, object]],
                            domain: int) -> LinearMap | None:
        """The map out of domain whose column c holds the coordinates of the
        c-th vector of columns, given by its nonzero payloads, or None if one
        leaves the span."""
        F = self.field
        entries = {}
        for c, vec in enumerate(columns):
            coords = self._sparse_coordinates(vec)
            if coords is None:
                return None
            for k, p in coords.items():
                entries[(k, c)] = p
        return LinearMap._from_clean(F, domain, self.dim, entries)

    def matrix(self) -> LinearMap:
        """Inclusion of the subspace into the ambient space (columns = basis vectors)."""
        F = self.field
        return LinearMap._from_clean(
            F, self.dim, self.ambient_dim,
            {(r, c): p for c, vec in enumerate(self._sparse) for r, p in vec.items()})
