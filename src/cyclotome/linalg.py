"""Shape-aware exact linear algebra: sparse matrices between tensor products of based spaces.

A LinearMap carries its domain and codomain as TensorShapes (ordered factor
dimensions); composition, tensor product, factor permutation, transpose and
exact kernel/rank/solve are provided.  TensorShape and LinearMap are
immutable after construction; all arithmetic is exact.

A map's entries are nonzero Scalars of its field, and the API takes and
returns vectors as dense lists of Scalars.  The inner loops run on the
payloads under the Scalars, which are opaque here (ints and tuples of ints,
laid out by fields): the field's _mul, _add, _neg, _inv and _is_zero are
bound once per call, sums are accumulated as payloads, and only the entries
that do not cancel are wrapped again.  So a map never holds a zero, and
LinearMap._from_clean, which checks nothing, is used only where that
invariant already holds.  A SubspaceBasis keeps its vectors as nonzero
payloads by column and builds the dense vectors only when asked for them.
"""

from __future__ import annotations

from typing import Callable, Iterable, Sequence

from .fields import FieldError, FieldSpec, Scalar


class ShapeError(ValueError):
    """Raised on incompatible shapes or fields."""


class Cancelled(RuntimeError):
    """Raised when a caller-supplied cancellation hook fires mid-reduction."""


class TensorShape:
    """Ordered factor dimensions of a tensor product; total dim is their product.

    Index convention is row-major with the leftmost factor most significant,
    matching the left-associated product X1 (x) X2 (x) ... (x) Xk.
    """

    __slots__ = ("factors", "dim")

    def __init__(self, factors: Sequence[int]):
        factors = tuple(int(f) for f in factors)
        if any(f < 0 for f in factors):
            raise ShapeError(f"factor dimensions must be nonnegative, got {factors}")
        object.__setattr__(self, "factors", factors)
        d = 1
        for f in factors:
            d *= f
        object.__setattr__(self, "dim", d)

    def __setattr__(self, *args):
        raise AttributeError("TensorShape is immutable")

    def __eq__(self, other):
        return isinstance(other, TensorShape) and self.factors == other.factors

    def __hash__(self):
        return hash(self.factors)

    def __repr__(self):
        return "x".join(map(str, self.factors)) if self.factors else "1"

    def __mul__(self, other: "TensorShape") -> "TensorShape":
        return TensorShape(self.factors + other.factors)

    def index_of(self, multi: Sequence[int]) -> int:
        assert len(multi) == len(self.factors)
        idx = 0
        for i, f in zip(multi, self.factors):
            idx = idx * f + i
        return idx

    def multi_index(self, idx: int) -> tuple[int, ...]:
        out = []
        for f in reversed(self.factors):
            out.append(idx % f)
            idx //= f
        return tuple(reversed(out))


UNIT = TensorShape(())


class LinearMap:
    """A sparse exact matrix between tensor products of based spaces.

    Entries map (row, col) to nonzero Scalars; row indexes the codomain,
    col the domain (column-vector convention, w = M v).
    """

    __slots__ = ("field", "domain", "codomain", "entries")

    def __init__(self, field: FieldSpec, domain: TensorShape, codomain: TensorShape,
                 entries: dict[tuple[int, int], Scalar]):
        clean = {}
        for (r, c), v in entries.items():
            if not isinstance(v, Scalar):
                raise ShapeError("entries must be Scalars")
            if v.field != field:
                raise ShapeError("entry field differs from map field")
            if not (0 <= r < codomain.dim and 0 <= c < domain.dim):
                raise ShapeError(f"entry ({r},{c}) out of bounds {codomain.dim}x{domain.dim}")
            if not v.is_zero():
                clean[(r, c)] = v
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "domain", domain)
        object.__setattr__(self, "codomain", codomain)
        object.__setattr__(self, "entries", clean)

    @classmethod
    def _from_clean(cls, field: FieldSpec, domain: TensorShape, codomain: TensorShape,
                    entries: dict[tuple[int, int], Scalar]) -> "LinearMap":
        """The map with these entries, which the caller knows to be nonzero
        Scalars of field at positions inside the shapes; nothing is checked."""
        m = object.__new__(cls)
        object.__setattr__(m, "field", field)
        object.__setattr__(m, "domain", domain)
        object.__setattr__(m, "codomain", codomain)
        object.__setattr__(m, "entries", entries)
        return m

    def __setattr__(self, *args):
        raise AttributeError("LinearMap is immutable")

    # -- constructors ---------------------------------------------------------

    @staticmethod
    def zero(field, domain: TensorShape, codomain: TensorShape) -> "LinearMap":
        return LinearMap._from_clean(field, domain, codomain, {})

    @staticmethod
    def identity(field, shape: TensorShape) -> "LinearMap":
        one = field.one()
        return LinearMap._from_clean(field, shape, shape,
                                     {(i, i): one for i in range(shape.dim)})

    @staticmethod
    def from_rows(field, domain: TensorShape, codomain: TensorShape,
                  rows: Sequence[Sequence[Scalar]]) -> "LinearMap":
        entries = {}
        for r, row in enumerate(rows):
            for c, v in enumerate(row):
                if not v.is_zero():
                    entries[(r, c)] = v
        return LinearMap(field, domain, codomain, entries)

    @staticmethod
    def from_function(field, domain: TensorShape, codomain: TensorShape,
                      fn: Callable[[int], Iterable[tuple[int, Scalar]]]) -> "LinearMap":
        """Build column by column: fn(col) yields (row, scalar) pairs."""
        entries: dict[tuple[int, int], Scalar] = {}
        for c in range(domain.dim):
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
            s = add(cur.payload, v.payload)
            if is_zero(s):
                del entries[k]
            else:
                entries[k] = Scalar(F, s)
        return LinearMap._from_clean(F, self.domain, self.codomain, entries)

    def __neg__(self) -> "LinearMap":
        F = self.field
        neg = F._neg
        return LinearMap._from_clean(F, self.domain, self.codomain,
                                     {k: Scalar(F, neg(v.payload))
                                      for k, v in self.entries.items()})

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
                                     {k: Scalar(F, mul(v.payload, x))
                                      for k, v in self.entries.items()})

    def _check_same_shape(self, other):
        if self.field != other.field:
            raise ShapeError("field mismatch")
        if self.domain != other.domain or self.codomain != other.codomain:
            raise ShapeError(f"shape mismatch: {self.domain}->{self.codomain} vs "
                             f"{other.domain}->{other.codomain}")

    def compose(self, first: "LinearMap") -> "LinearMap":
        """self after first (matrix product self @ first)."""
        if self.field != first.field:
            raise ShapeError("field mismatch")
        if first.codomain.dim != self.domain.dim:
            raise ShapeError(f"cannot compose {self.domain}->{self.codomain} "
                             f"after {first.domain}->{first.codomain}")
        F = self.field
        mul, add, is_zero = F._mul, F._add, F._is_zero
        by_col: dict[int, list[tuple[int, object]]] = {}
        for (r, c), v in first.entries.items():
            by_col.setdefault(c, []).append((r, v.payload))
        by_mid: dict[int, list[tuple[int, object]]] = {}
        for (r, c), v in self.entries.items():
            by_mid.setdefault(c, []).append((r, v.payload))
        entries: dict[tuple[int, int], Scalar] = {}
        for c, mids in by_col.items():
            col: dict[int, object] = {}
            for m, x in mids:
                for r, y in by_mid.get(m, ()):
                    p = mul(y, x)
                    col[r] = add(col[r], p) if r in col else p
            for r, p in col.items():
                if not is_zero(p):
                    entries[(r, c)] = Scalar(F, p)
        return LinearMap._from_clean(F, first.domain, self.codomain, entries)

    def tensor(self, other: "LinearMap") -> "LinearMap":
        """Kronecker product; a product of two nonzeros is nonzero, so every
        product is an entry."""
        if self.field != other.field:
            raise ShapeError("field mismatch")
        F = self.field
        mul = F._mul
        od, ocd = other.domain.dim, other.codomain.dim
        right = [(r2, c2, v2.payload) for (r2, c2), v2 in other.entries.items()]
        entries = {}
        for (r1, c1), v1 in self.entries.items():
            x, r0, c0 = v1.payload, r1 * ocd, c1 * od
            for r2, c2, y in right:
                entries[(r0 + r2, c0 + c2)] = Scalar(F, mul(x, y))
        return LinearMap._from_clean(F, self.domain * other.domain,
                                     self.codomain * other.codomain, entries)

    def transpose(self) -> "LinearMap":
        """Plain transpose; the matrix of the dual map in dual bases."""
        return LinearMap._from_clean(self.field, self.codomain, self.domain,
                                     {(c, r): v for (r, c), v in self.entries.items()})

    def reshaped(self, domain: TensorShape, codomain: TensorShape) -> "LinearMap":
        """Reinterpret factor structure without touching coordinates."""
        if domain.dim != self.domain.dim or codomain.dim != self.codomain.dim:
            raise ShapeError("reshape must preserve total dimensions")
        return LinearMap._from_clean(self.field, domain, codomain, self.entries)

    def apply(self, vec: Sequence[Scalar]) -> list[Scalar]:
        if len(vec) != self.domain.dim:
            raise ShapeError(f"vector length {len(vec)} != domain dim {self.domain.dim}")
        F = self.field
        mul, add, is_zero = F._mul, F._add, F._is_zero
        xs = _payloads(F, vec)
        acc: dict[int, object] = {}
        for (r, c), v in self.entries.items():
            x = xs.get(c)
            if x is not None:
                p = mul(v.payload, x)
                acc[r] = add(acc[r], p) if r in acc else p
        out = [F.zero()] * self.codomain.dim
        for r, p in acc.items():
            if not is_zero(p):
                out[r] = Scalar(F, p)
        return out

    def entry(self, r: int, c: int) -> Scalar:
        return self.entries.get((r, c), self.field.zero())

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


def _wrapped(F: FieldSpec, acc: dict) -> dict:
    """Accumulated payloads as Scalars of F, without the ones that cancelled."""
    is_zero = F._is_zero
    return {k: Scalar(F, p) for k, p in acc.items() if not is_zero(p)}


def whisker(op: LinearMap, left: TensorShape, right: TensorShape) -> LinearMap:
    """id_left (x) op (x) id_right, placed by index arithmetic: no identity
    factor is built and no entry is multiplied."""
    od, ocd, rd = op.domain.dim, op.codomain.dim, right.dim
    entries = {}
    for (r, c), v in op.entries.items():
        for a in range(left.dim):
            row, col = (a * ocd + r) * rd, (a * od + c) * rd
            for b in range(rd):
                entries[(row + b, col + b)] = v
    return LinearMap._from_clean(op.field, left * op.domain * right,
                                 left * op.codomain * right, entries)


def permute_factors(field, shape: TensorShape, perm: Sequence[int]) -> LinearMap:
    """The map sending x_0 (x) ... (x) x_{k-1} to x_{perm[0]} (x) ... (x) x_{perm[k-1]}.

    perm lists source factor positions in target order; the target shape
    permutes the factor dimensions accordingly.
    """
    k = len(shape.factors)
    if sorted(perm) != list(range(k)):
        raise ShapeError(f"not a permutation of {k} factors: {perm}")
    target = TensorShape([shape.factors[p] for p in perm])
    one = field.one()
    entries = {}
    for idx in range(shape.dim):
        multi = shape.multi_index(idx)
        entries[(target.index_of([multi[p] for p in perm]), idx)] = one
    return LinearMap(field, shape, target, entries)


def block_flip(field, left: TensorShape, right: TensorShape) -> LinearMap:
    """Flip of the two blocks: left (x) right -> right (x) left."""
    shape = left * right
    n_left = len(left.factors)
    perm = list(range(n_left, len(shape.factors))) + list(range(n_left))
    return permute_factors(field, shape, perm)


# -- the sparse JSON form ------------------------------------------------------------------


def map_to_json(m: LinearMap) -> dict:
    """The total dimensions and the sorted [row, col, scalar] triples of a map."""
    return {"src": m.domain.dim, "tgt": m.codomain.dim,
            "entries": sorted([[r, c, repr(v)] for (r, c), v in m.entries.items()])}


def map_from_json(field, entries, domain: TensorShape, codomain: TensorShape) -> LinearMap:
    """The map with these [row, col, scalar] triples.  They come from outside
    the program, so they go through the checking constructor."""
    return LinearMap(field, domain, codomain,
                     {(r, c): field.parse(s) for r, c, s in entries})


def vector_to_json(vec: Sequence[Scalar] | None) -> list | None:
    """The [index, scalar] pairs of the nonzero entries; None stays None."""
    return None if vec is None else [[i, repr(x)] for i, x in enumerate(vec)
                                     if not x.is_zero()]


def vector_from_json(field, pairs, size: int) -> list[Scalar] | None:
    """The dense vector of length size with these [index, scalar] pairs;
    None stays None."""
    if pairs is None:
        return None
    out = [field.zero()] * size
    for i, s in pairs:
        if not 0 <= i < size:
            raise ShapeError(f"vector index {i} out of range {size}")
        out[i] = field.parse(s)
    return out


# -- exact elimination -------------------------------------------------------------


def stack(blocks: Sequence[LinearMap]) -> LinearMap:
    """The maps out of one space stacked into a single map to the direct sum of
    their codomains; its kernel is the intersection of their kernels."""
    domain = blocks[0].domain
    field = blocks[0].field
    entries = {}
    offset = 0
    for block in blocks:
        if block.domain.dim != domain.dim:
            raise ShapeError(f"cannot stack a map out of {block.domain} under maps "
                             f"out of {domain}")
        if block.field != field:
            raise ShapeError("field mismatch")
        for (r, c), v in block.entries.items():
            entries[(offset + r, c)] = v
        offset += block.codomain.dim
    return LinearMap._from_clean(field, domain, TensorShape([offset]), entries)


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
    ncols = m.domain.dim
    rows: list[dict[int, object]] = [dict() for _ in range(m.codomain.dim)]
    for (r, c), v in m.entries.items():
        rows[r][c] = v.payload
    if extra is not None:
        if extra.field != F:
            raise ShapeError("field mismatch")
        for (r, c), v in extra.entries.items():
            rows[r][ncols + c] = v.payload
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
    return [_dense(m.field, m.domain.dim, vec) for vec in basis], free_cols, rank


def kernel_and_rank(m: LinearMap,
                    should_cancel: Callable[[], bool] | None = None
                    ) -> tuple[list[list[Scalar]], int]:
    """Exact kernel basis and rank; rank + kernel dim = domain dim."""
    basis, _, rank = _kernel(m, should_cancel)
    return [_dense(m.field, m.domain.dim, vec) for vec in basis], rank


def _kernel(m: LinearMap, should_cancel=None):
    """The kernel basis as nonzero payloads by column, the free columns and the rank."""
    rows, pivots = _reduce(m, should_cancel=should_cancel)
    neg, one = m.field._neg, m.field.one().payload
    free_cols = [c for c in range(m.domain.dim) if c not in pivots]
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
    F, n = m.field, m.domain.dim
    entries = {}
    for col, i in pivots.items():
        for c, v in rows[i].items():
            if c >= n:
                entries[(col, c - n)] = Scalar(F, v)
    x = LinearMap._from_clean(F, rhs.domain, m.domain, entries)
    return x if m.compose(x) == rhs else None


def solve(m: LinearMap, b: Sequence[Scalar]) -> list[Scalar] | None:
    """A particular solution of m x = b, or None if inconsistent."""
    if len(b) != m.codomain.dim:
        raise ShapeError("right-hand side length mismatch")
    rhs = LinearMap(m.field, UNIT, m.codomain, {(r, 0): v for r, v in enumerate(b)})
    x = _solve_columns(m, rhs)
    return None if x is None else [x.entry(c, 0) for c in range(m.domain.dim)]


def invert(m: LinearMap) -> LinearMap | None:
    """Exact two-sided inverse, or None if singular (requires square shape dims).

    One reduction of [m | I]; the result is certified by m X = I."""
    if m.domain.dim != m.codomain.dim:
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
        return SubspaceBasis._from_sparse(field, m.domain.dim, basis, free_cols)

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
        if ambient.domain.dim != self.ambient_dim or ambient.codomain.dim != target.ambient_dim:
            raise ShapeError(f"cannot restrict a map {ambient.domain}->{ambient.codomain} "
                             f"to subspaces of {self.ambient_dim} and {target.ambient_dim}")
        F = ambient.field
        if F != self.field or F != target.field:
            raise ShapeError("field mismatch")
        mul, add, is_zero = F._mul, F._add, F._is_zero
        columns: dict[int, list[tuple[int, object]]] = {}
        for (r, c), v in ambient.entries.items():
            columns.setdefault(c, []).append((r, v.payload))
        entries = {}
        for c, vec in enumerate(self._sparse):
            image: dict[int, object] = {}
            for j, x in vec.items():
                for r, v in columns.get(j, ()):
                    p = mul(v, x)
                    image[r] = add(image[r], p) if r in image else p
            coords = target._sparse_coordinates(
                {r: p for r, p in image.items() if not is_zero(p)})
            if coords is None:
                return None
            for k, p in coords.items():
                entries[(k, c)] = Scalar(F, p)
        return LinearMap._from_clean(F, TensorShape([self.dim]),
                                     TensorShape([target.dim]), entries)

    def matrix(self) -> LinearMap:
        """Inclusion of the subspace into the ambient space (columns = basis vectors)."""
        F = self.field
        return LinearMap._from_clean(
            F, TensorShape([self.dim]), TensorShape([self.ambient_dim]),
            {(r, c): Scalar(F, p) for c, vec in enumerate(self._sparse)
             for r, p in vec.items()})
