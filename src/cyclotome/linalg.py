"""Shape-aware exact linear algebra: sparse matrices between tensor products of based spaces.

A LinearMap carries its domain and codomain as TensorShapes (ordered factor
dimensions); composition, tensor product, factor permutation, transpose and
exact kernel/rank/solve are provided.  Vectors are plain dense lists of
Scalars.  TensorShape and LinearMap are immutable after construction; all
arithmetic is exact.
"""

from __future__ import annotations

from typing import Callable, Iterable, Sequence

from .fields import FieldSpec, Scalar


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

    def __setattr__(self, *args):
        raise AttributeError("LinearMap is immutable")

    # -- constructors ---------------------------------------------------------

    @staticmethod
    def zero(field, domain: TensorShape, codomain: TensorShape) -> "LinearMap":
        return LinearMap(field, domain, codomain, {})

    @staticmethod
    def identity(field, shape: TensorShape) -> "LinearMap":
        one = field.one()
        return LinearMap(field, shape, shape, {(i, i): one for i in range(shape.dim)})

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
        entries = dict(self.entries)
        for k, v in other.entries.items():
            entries[k] = entries[k] + v if k in entries else v
        return LinearMap(self.field, self.domain, self.codomain, entries)

    def __sub__(self, other: "LinearMap") -> "LinearMap":
        return self + other.scaled(self.field.from_int(-1))

    def scaled(self, s: Scalar) -> "LinearMap":
        return LinearMap(self.field, self.domain, self.codomain,
                         {k: v * s for k, v in self.entries.items()})

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
        by_col: dict[int, list[tuple[int, Scalar]]] = {}
        for (r, c), v in first.entries.items():
            by_col.setdefault(c, []).append((r, v))
        by_mid: dict[int, list[tuple[int, Scalar]]] = {}
        for (r, c), v in self.entries.items():
            by_mid.setdefault(c, []).append((r, v))
        entries: dict[tuple[int, int], Scalar] = {}
        for c, mids in by_col.items():
            for m, v1 in mids:
                outs = by_mid.get(m)
                if not outs:
                    continue
                for r, v2 in outs:
                    key = (r, c)
                    prod = v2 * v1
                    entries[key] = entries[key] + prod if key in entries else prod
        return LinearMap(self.field, first.domain, self.codomain, entries)

    def tensor(self, other: "LinearMap") -> "LinearMap":
        if self.field != other.field:
            raise ShapeError("field mismatch")
        dom = self.domain * other.domain
        cod = self.codomain * other.codomain
        od, ocd = other.domain.dim, other.codomain.dim
        entries = {}
        for (r1, c1), v1 in self.entries.items():
            for (r2, c2), v2 in other.entries.items():
                entries[(r1 * ocd + r2, c1 * od + c2)] = v1 * v2
        return LinearMap(self.field, dom, cod, entries)

    def transpose(self) -> "LinearMap":
        """Plain transpose; the matrix of the dual map in dual bases."""
        return LinearMap(self.field, self.codomain, self.domain,
                         {(c, r): v for (r, c), v in self.entries.items()})

    def reshaped(self, domain: TensorShape, codomain: TensorShape) -> "LinearMap":
        """Reinterpret factor structure without touching coordinates."""
        if domain.dim != self.domain.dim or codomain.dim != self.codomain.dim:
            raise ShapeError("reshape must preserve total dimensions")
        return LinearMap(self.field, domain, codomain, self.entries)

    def apply(self, vec: Sequence[Scalar]) -> list[Scalar]:
        if len(vec) != self.domain.dim:
            raise ShapeError(f"vector length {len(vec)} != domain dim {self.domain.dim}")
        zero = self.field.zero()
        out = [zero] * self.codomain.dim
        for (r, c), v in self.entries.items():
            x = vec[c]
            if not x.is_zero():
                out[r] = out[r] + v * x
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
    return LinearMap(op.field, left * op.domain * right, left * op.codomain * right,
                     entries)


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


def swap_factors(field, shape: TensorShape, i: int, j: int) -> LinearMap:
    perm = list(range(len(shape.factors)))
    perm[i], perm[j] = perm[j], perm[i]
    return permute_factors(field, shape, perm)


def block_flip(field, left: TensorShape, right: TensorShape) -> LinearMap:
    """Flip of the two blocks: left (x) right -> right (x) left."""
    shape = left * right
    n_left = len(left.factors)
    perm = list(range(n_left, len(shape.factors))) + list(range(n_left))
    return permute_factors(field, shape, perm)


# -- exact elimination -------------------------------------------------------------


def stack(blocks: Sequence[LinearMap]) -> LinearMap:
    """The maps out of one space stacked into a single map to the direct sum of
    their codomains; its kernel is the intersection of their kernels."""
    domain = blocks[0].domain
    entries = {}
    offset = 0
    for block in blocks:
        if block.domain.dim != domain.dim:
            raise ShapeError(f"cannot stack a map out of {block.domain} under maps "
                             f"out of {domain}")
        for (r, c), v in block.entries.items():
            entries[(offset + r, c)] = v
        offset += block.codomain.dim
    return LinearMap(blocks[0].field, domain, TensorShape([offset]), entries)


def _subtract(row: dict[int, Scalar], factor: Scalar, pivot: dict[int, Scalar]):
    """row -= factor * pivot, dropping the entries that cancel."""
    for c, v in pivot.items():
        cur = row.get(c)
        nv = -(factor * v) if cur is None else cur - factor * v
        if nv.is_zero():
            row.pop(c)
        else:
            row[c] = nv


def _reduce(m: LinearMap, extra: LinearMap | None = None, back: bool = True,
            should_cancel: Callable[[], bool] | None = None):
    """Sparse Gaussian elimination of the rows of m, each extended on the right
    by the same row of extra when given.

    Pivots are taken among the columns of m only and scaled to 1.  Returns
    (rows, pivots), pivots mapping each pivot column, in increasing order, to
    the index of its row in rows.  With back=True every pivot column is also
    cleared above its pivot, which gives the reduced echelon form: it depends
    only on the row space and the column order, not on the order or the
    multiplicity of the rows, nor on the pivot choices made on the way.
    """
    ncols = m.domain.dim
    rows: list[dict[int, Scalar]] = [dict() for _ in range(m.codomain.dim)]
    for (r, c), v in m.entries.items():
        rows[r][c] = v
    if extra is not None:
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
        inv = piv[col].inverse()
        for c in list(piv):
            piv[c] = piv[c] * inv
        pivots[col] = best
        work.remove(best)
        for i in list(work):
            factor = rows[i].get(col)
            if factor is not None:
                _subtract(rows[i], factor, piv)
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
                    _subtract(rows[pivots[earlier]], factor, piv)
    return rows, pivots


def kernel_with_free_columns(m: LinearMap,
                             should_cancel: Callable[[], bool] | None = None
                             ) -> tuple[list[list[Scalar]], list[int], int]:
    """Kernel basis, the free columns indexing it, and the rank.

    The k-th basis vector has coordinate 1 at the k-th free column and 0 at
    every other free column, so coordinates in this basis can be read off.
    """
    return _kernel(m, should_cancel)


def kernel_and_rank(m: LinearMap,
                    should_cancel: Callable[[], bool] | None = None
                    ) -> tuple[list[list[Scalar]], int]:
    """Exact kernel basis and rank; rank + kernel dim = domain dim."""
    basis, _, rank = _kernel(m, should_cancel)
    return basis, rank


def _kernel(m: LinearMap, should_cancel=None):
    rows, pivots = _reduce(m, should_cancel=should_cancel)
    ncols = m.domain.dim
    zero, one = m.field.zero(), m.field.one()
    free_cols = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free_cols:
        vec = [zero] * ncols
        vec[fc] = one
        for col, i in pivots.items():
            v = rows[i].get(fc)
            if v is not None:
                vec[col] = -v
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
    n = m.domain.dim
    entries = {}
    for col, i in pivots.items():
        for c, v in rows[i].items():
            if c >= n:
                entries[(col, c - n)] = v
    x = LinearMap(m.field, rhs.domain, m.domain, entries)
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

    When the basis comes from kernel_with_free_columns, coordinates are read
    off at the indicator columns and verified by reconstruction on the
    nonzero entries; otherwise a linear solve is used.
    """

    def __init__(self, field, ambient_dim: int, vectors: list[list[Scalar]],
                 indicator_cols: list[int] | None = None):
        self.field = field
        self.ambient_dim = ambient_dim
        self.vectors = vectors
        self.indicator_cols = indicator_cols
        self._sparse = [{r: v for r, v in enumerate(vec) if not v.is_zero()}
                        for vec in vectors]
        entries = {(r, c): v for c, vec in enumerate(self._sparse) for r, v in vec.items()}
        self._matrix = LinearMap(field, TensorShape([len(vectors)]),
                                 TensorShape([ambient_dim]), entries)

    @staticmethod
    def standard(field, ambient_dim: int) -> "SubspaceBasis":
        one = field.one()
        zero = field.zero()
        vectors = [[one if r == c else zero for r in range(ambient_dim)]
                   for c in range(ambient_dim)]
        return SubspaceBasis(field, ambient_dim, vectors,
                             indicator_cols=list(range(ambient_dim)))

    @staticmethod
    def from_kernel(field, m: LinearMap) -> "SubspaceBasis":
        basis, free_cols, _ = kernel_with_free_columns(m)
        return SubspaceBasis(field, m.domain.dim, basis, indicator_cols=free_cols)

    @property
    def dim(self) -> int:
        return len(self.vectors)

    def coordinates(self, vec: Sequence[Scalar]) -> list[Scalar] | None:
        """Coordinates of vec in this basis, or None if vec lies outside the span."""
        if len(vec) != self.ambient_dim:
            raise ShapeError(f"vector length {len(vec)} != ambient dim {self.ambient_dim}")
        return self._sparse_coordinates({r: v for r, v in enumerate(vec) if not v.is_zero()})

    def _sparse_coordinates(self, vec: dict[int, Scalar]) -> list[Scalar] | None:
        """coordinates() of the vector with the given nonzero entries; read at
        the indicator columns, they must reconstruct it exactly."""
        zero = self.field.zero()
        if self.indicator_cols is None and self.vectors:
            return solve(self._matrix, [vec.get(r, zero) for r in range(self.ambient_dim)])
        coords = [vec.get(c, zero) for c in self.indicator_cols or ()]
        recon: dict[int, Scalar] = {}
        for k, c in enumerate(coords):
            if c.is_zero():
                continue
            for r, v in self._sparse[k].items():
                prod = c * v
                recon[r] = recon[r] + prod if r in recon else prod
        recon = {r: v for r, v in recon.items() if not v.is_zero()}
        return coords if recon == vec else None

    def restrict(self, ambient: LinearMap, target: "SubspaceBasis") -> LinearMap | None:
        """The matrix of an ambient-space map from this basis to the target
        basis, or None if the image of some basis vector leaves the target span.
        Each image is formed from the columns of ambient at the basis vector's
        nonzero entries."""
        if ambient.domain.dim != self.ambient_dim or ambient.codomain.dim != target.ambient_dim:
            raise ShapeError(f"cannot restrict a map {ambient.domain}->{ambient.codomain} "
                             f"to subspaces of {self.ambient_dim} and {target.ambient_dim}")
        columns: dict[int, list[tuple[int, Scalar]]] = {}
        for (r, c), v in ambient.entries.items():
            columns.setdefault(c, []).append((r, v))
        entries = {}
        for c, vec in enumerate(self._sparse):
            image: dict[int, Scalar] = {}
            for j, x in vec.items():
                for r, v in columns.get(j, ()):
                    prod = v * x
                    image[r] = image[r] + prod if r in image else prod
            coords = target._sparse_coordinates(
                {r: v for r, v in image.items() if not v.is_zero()})
            if coords is None:
                return None
            for r, v in enumerate(coords):
                if not v.is_zero():
                    entries[(r, c)] = v
        return LinearMap(ambient.field, TensorShape([self.dim]),
                         TensorShape([target.dim]), entries)

    def matrix(self) -> LinearMap:
        """Inclusion of the subspace into the ambient space (columns = basis vectors)."""
        return self._matrix
