import random
from fractions import Fraction
from math import prod

import pytest
from hypothesis import given, settings, strategies as st

from cyclotome.fields import Cyclotomic, FieldError, PrimeField, Rationals, Scalar
from cyclotome.linalg import (
    UNIT, LinearMap, ShapeError, _reduce, block_flip, block_map, invert, kernel_and_rank,
    kernel_with_free_columns, kron_sum, permute_factors, rank, solve, stack, SubspaceBasis,
    whisker,
)

Q = Rationals()
rng = random.Random(20240811)


def rand_map(dom, cod, density=0.6, field=Q):
    entries = {}
    for r in range(cod):
        for c in range(dom):
            if rng.random() < density:
                entries[(r, c)] = field.from_fraction(
                    Fraction(rng.randint(-4, 4), rng.randint(1, 3)))
    return LinearMap(field, dom, cod, entries)


def test_identity_kernel_rank():
    eye = LinearMap.identity(Q, 2)
    basis, rk = kernel_and_rank(eye)
    assert basis == [] and rk == 2


def test_sum_map_kernel():
    # (x, y) |-> x + y over Q has kernel spanned by (1, -1)
    m = LinearMap.from_rows(Q, 2, 1,
                            [[Q.one(), Q.one()]])
    basis, rk = kernel_and_rank(m)
    assert rk == 1
    assert len(basis) == 1
    v = basis[0]
    assert v[0] * Q.from_int(-1) == v[1] or v[1] * Q.from_int(-1) == v[0]


def test_level_exchange():
    # (f (x) id) o (id (x) g) = f (x) g
    for _ in range(6):
        f = rand_map(2, 3)
        g = rand_map(4, 2)
        id_gcod = LinearMap.identity(Q, g.codomain)
        id_fdom = LinearMap.identity(Q, f.domain)
        lhs = f.tensor(id_gcod).compose(id_fdom.tensor(g))
        assert lhs.entries == f.tensor(g).entries


def test_tensor_associative_unital():
    a = rand_map(2, 2)
    b = rand_map(3, 1)
    c = rand_map(2, 3)
    lhs = a.tensor(b).tensor(c)
    rhs = a.tensor(b.tensor(c))
    assert lhs.entries == rhs.entries and lhs.domain == rhs.domain


def test_permutation_involution():
    p = permute_factors(Q, [2, 3, 4], [0, 2, 1])
    q = permute_factors(Q, [2, 4, 3], [0, 2, 1])
    assert q.compose(p) == LinearMap.identity(Q, 24)


def test_block_flip_square():
    left, right = 2, 3
    f = block_flip(Q, left, right)
    g = block_flip(Q, right, left)
    assert g.compose(f) == LinearMap.identity(Q, left * right)
    # x (x) y goes to y (x) x: index 3 x + y to 2 y + x
    assert f.entries == {(2 * y + x, 3 * x + y): Q.one().payload
                         for x in range(2) for y in range(3)}


def test_double_dual():
    m = rand_map(2, 3)
    assert m.transpose().transpose() == m


def test_solve_and_invert():
    m = LinearMap.from_rows(Q, 2, 2, [
        [Q.from_int(2), Q.from_int(1)],
        [Q.from_int(1), Q.from_int(1)],
    ])
    b = [Q.from_int(3), Q.from_int(2)]
    x = solve(m, b)
    assert x is not None and m.apply(x) == b
    inv = invert(m)
    assert inv.compose(m) == LinearMap.identity(Q, 2)


def test_solve_inconsistent():
    m = LinearMap.from_rows(Q, 1, 2,
                            [[Q.one()], [Q.one()]])
    assert solve(m, [Q.one(), Q.from_int(2)]) is None


def test_shape_mismatch():
    a = rand_map(2, 2)
    b = rand_map(3, 3)
    with pytest.raises(ShapeError):
        a.compose(b)


def test_prime_field_rank():
    F = PrimeField(5)
    m = LinearMap.from_rows(F, 2, 2, [
        [F.from_int(2), F.from_int(4)],
        [F.from_int(1), F.from_int(2)],
    ])  # second row is 3 * first over F5? 2*3=6=1, 4*3=12=2 -> yes
    assert kernel_and_rank(m)[1] == 1


def test_cooperative_cancellation():
    from cyclotome.linalg import Cancelled
    m = rand_map(6, 6, density=1.0)
    calls = []

    def cancel():
        calls.append(None)
        return len(calls) > 2

    with pytest.raises(Cancelled):
        kernel_and_rank(m, should_cancel=cancel)


def test_subspace_coordinates():
    vs = [[Q.one(), Q.zero(), Q.one()], [Q.zero(), Q.one(), Q.one()]]
    basis = SubspaceBasis(Q, 3, vs, [0, 1])
    coords = basis.coordinates([Q.from_int(2), Q.from_int(3), Q.from_int(5)])
    assert coords == [Q.from_int(2), Q.from_int(3)]
    assert basis.coordinates([Q.one(), Q.zero(), Q.zero()]) is None


def test_subspace_restrict():
    vs = [[Q.one(), Q.zero(), Q.one()], [Q.zero(), Q.one(), Q.one()]]
    basis = SubspaceBasis(Q, 3, vs, [0, 1])
    swap01 = LinearMap(Q, 3, 3,
                       {(1, 0): Q.one(), (0, 1): Q.one(), (2, 2): Q.one()})
    s2 = 2
    assert basis.restrict(swap01, basis) == LinearMap(Q, s2, s2,
                                                      {(1, 0): Q.one(), (0, 1): Q.one()})
    # e0 + e2 |-> e0 leaves the span: the restriction does not exist
    first = LinearMap(Q, 3, 3, {(0, 0): Q.one()})
    assert basis.restrict(first, basis) is None


def test_coordinates_of_reads_renumbered_columns():
    vs = [[Q.one(), Q.zero(), Q.one()], [Q.zero(), Q.one(), Q.one()]]
    basis = SubspaceBasis(Q, 3, vs, [0, 1])
    two, three = Q.from_int(2), Q.from_int(3)
    # column 0 is 2 e1 + 2 e2, column 1 is 3 e0 + 3 e2, each read with e0 and e1
    # exchanged, so in the span; column 2 is 0
    m = LinearMap(Q, 3, 3,
                  {(1, 0): two, (2, 0): two, (0, 1): three, (2, 1): three})
    assert basis.coordinates_of(m, [1, 0, 2]) == LinearMap(Q, m.domain, 2,
                                                           {(0, 0): two, (1, 1): three})
    # with the rows rotated instead, column 1 is 3 e1 + 3 e0, outside the span
    assert basis.coordinates_of(m, [1, 2, 0]) is None
    with pytest.raises(ShapeError):
        basis.coordinates_of(LinearMap.identity(Q, 2), [0, 1])


def test_restrict_checks_every_nonzero_of_the_image():
    # kernel of x0 = x2, x1 = 0: the basis vector (1, 0, 1), indicator column 2
    m = LinearMap.from_rows(Q, 3, 2,
                            [[Q.one(), Q.zero(), -Q.one()], [Q.zero(), Q.one(), Q.zero()]])
    basis = SubspaceBasis.from_kernel(Q, m)
    assert basis.indicator_cols == [2]
    three = Q.from_int(3)
    scale = LinearMap.identity(Q, 3).scaled(three)
    s1 = 1
    assert basis.restrict(scale, basis) == LinearMap(Q, s1, s1, {(0, 0): three})
    # images that agree with 3 (1, 0, 1) at the indicator column but not elsewhere
    for image in ({(2, 0): three, (2, 2): three},
                  {(0, 0): three, (1, 0): Q.one(), (2, 2): three},
                  {(0, 0): Q.one(), (2, 2): three}):
        ambient = LinearMap(Q, 3, 3, image)
        assert basis.restrict(ambient, basis) is None, image
        vec = ambient.apply([Q.one(), Q.zero(), Q.one()])
        assert basis.coordinates(vec) is None, image
    with pytest.raises(ShapeError):
        basis.restrict(LinearMap.identity(Q, 2), basis)


def test_subspace_basis_rejects_vectors_off_their_indicator_columns():
    """The constructor, which a cached module is read back through, holds a
    basis to the indicator property that coordinates and restrict rely on."""
    o, z, two = Q.one(), Q.zero(), Q.from_int(2)
    vs = [[o, z, o], [z, o, o]]
    assert SubspaceBasis(Q, 3, vs, [0, 1]).indicator_cols == [0, 1]
    for vectors, cols in ((vs, [0, 0]),                          # a repeated column
                          (vs, [0, 3]),                          # one out of range
                          ([[two, z, o], [z, o, o]], [0, 1]),    # 2 at its own column
                          ([[o, o, o], [z, o, o]], [0, 1])):     # 1 at another's
        with pytest.raises(ShapeError):
            SubspaceBasis(Q, 3, vectors, cols)


def test_whole_bases_are_the_standard_bases_in_order():
    eye = [[Q.one() if i == j else Q.zero() for j in range(3)] for i in range(3)]
    assert SubspaceBasis.standard(Q, 3).whole
    assert SubspaceBasis.from_kernel(Q, LinearMap.zero(Q, 3, 2)).whole
    assert SubspaceBasis(Q, 3, eye, [0, 1, 2]).whole
    assert not SubspaceBasis(Q, 3, eye[:2], [0, 1]).whole
    assert not SubspaceBasis(Q, 3, [eye[1], eye[0], eye[2]], [1, 0, 2]).whole
    assert not SubspaceBasis.from_kernel(Q, LinearMap.identity(Q, 3)).whole


def test_whole_bases_restrict_and_read_coordinates_without_products(monkeypatch):
    """Between whole bases restrict is the ambient map, and coordinates in a
    whole basis are the renumbered entries: no product is formed."""
    from cyclotome.fields import FieldSpec
    s3, s2 = 3, 2
    ambient, m = rand_map(s3, s2, density=0.8), rand_map(s2, s3, density=0.8)
    source, target = SubspaceBasis.standard(Q, 3), SubspaceBasis.standard(Q, 2)
    renumber = [2, 0, 1]
    calls = []
    mul = FieldSpec._mul

    def counted(self, a, b):
        calls.append(1)
        return mul(self, a, b)

    monkeypatch.setattr(FieldSpec, "_mul", counted)
    restricted = source.restrict(ambient, target)
    coords = source.coordinates_of(m, renumber)
    assert not calls
    monkeypatch.undo()
    assert restricted == ambient and restricted._whisker is None
    assert coords == LinearMap(Q, s2, s3, {(renumber[r], c): m.entry(r, c)
                                           for r, c in m.entries})


WHISKER_FIELDS = (Q, PrimeField(7), Cyclotomic(4))
factor_lists = st.lists(st.integers(1, 3), max_size=2)


def _drawn_map(F, dom, cod, data, max_size):
    """A map with up to max_size entries a + b zeta (zeta = 2 outside Q(zeta_n))."""
    zeta = F.generator() if F.kind == F.CYCLOTOMIC else F.from_int(2)
    cells = st.tuples(st.integers(0, cod - 1), st.integers(0, dom - 1))
    raw = data.draw(st.dictionaries(cells, st.tuples(st.integers(-3, 3), st.integers(-3, 3)),
                                    max_size=max_size))
    return LinearMap(F, dom, cod, {k: F.from_int(a) + F.from_int(b) * zeta
                                   for k, (a, b) in raw.items()})


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(WHISKER_FIELDS), factor_lists, factor_lists, factor_lists,
       factor_lists, st.data())
def test_whisker_matches_kronecker_with_identities(F, left, right, dom, cod, data):
    left, right, dom, cod = map(prod, (left, right, dom, cod))
    op = _drawn_map(F, dom, cod, data, dom * cod)
    reference = LinearMap.identity(F, left).tensor(op).tensor(LinearMap.identity(F, right))
    assert whisker(op, left, right) == reference


small_factors = st.lists(st.integers(1, 2), max_size=2)


def _dense_kron_sum(F, shapes, terms, exchange):
    """sum c A (x) B as nested lists of Scalars, from the entry formula
    K[r1 n + r2][c1 m + c2] = c A[r1][c1] B[r2][c2], then the exchange applied
    as an explicit permutation of the row or column indices."""
    (a_dom, a_cod), (b_dom, b_cod) = shapes
    rows, cols = a_cod * b_cod, a_dom * b_dom
    K = [[F.zero()] * cols for _ in range(rows)]
    for c, A, B in terms:
        coeff = F.one() if c is None else Scalar(F, c)
        for r1 in range(a_cod):
            for c1 in range(a_dom):
                for r2 in range(b_cod):
                    for c2 in range(b_dom):
                        K[r1 * b_cod + r2][c1 * b_dom + c2] += (
                            coeff * A.entry(r1, c1) * B.entry(r2, c2))
    # the index of (x1, x2) in X1 (x) X2 and in the exchanged X2 (x) X1
    row_to = [(i % b_cod) * a_cod + i // b_cod if exchange == "rows" else i
              for i in range(rows)]
    col_to = [(j % b_dom) * a_dom + j // b_dom if exchange == "columns" else j
              for j in range(cols)]
    out = [[F.zero()] * cols for _ in range(rows)]
    for i in range(rows):
        for j in range(cols):
            out[row_to[i]][col_to[j]] = K[i][j]
    return out


@settings(max_examples=150, deadline=None)
@given(st.sampled_from([Q, Cyclotomic(3)]), small_factors, small_factors, small_factors,
       small_factors, st.sampled_from([None, "rows", "columns"]), st.data())
def test_kron_sum_matches_the_dense_kronecker_formula(F, a_dom, a_cod, b_dom, b_cod,
                                                      exchange, data):
    shapes = (prod(a_dom), prod(a_cod)), (prod(b_dom), prod(b_cod))
    zeta = F.generator() if F.kind == F.CYCLOTOMIC else F.from_int(2)
    coefficients = st.sampled_from([None, F.one().payload, F.from_int(-1).payload,
                                    (F.from_int(3) - zeta).payload])
    terms = [(data.draw(coefficients), _drawn_map(F, *shapes[0], data, 6),
              _drawn_map(F, *shapes[1], data, 6)) for _ in range(data.draw(st.integers(0, 3)))]
    m = kron_sum(F, *shapes, terms, exchange)
    (A_dom, A_cod), (B_dom, B_cod) = shapes
    assert m.domain == (B_dom * A_dom if exchange == "columns" else A_dom * B_dom)
    assert m.codomain == (B_cod * A_cod if exchange == "rows" else A_cod * B_cod)
    dense = _dense_kron_sum(F, shapes, terms, exchange)
    assert m == LinearMap.from_rows(F, m.domain, m.codomain, dense)
    if not terms:
        assert m.is_zero()


def test_kron_sum_drops_cancelled_sums_and_rejects_misfit_terms():
    s1, s2 = 1, 2
    A = rand_map(s2, s2, density=1.0)
    minus_one = Q.from_int(-1).payload
    m = kron_sum(Q, (s2, s2), (s2, s2), [(None, A, A), (minus_one, A, A)])
    assert m.is_zero() and not m.entries and m.domain == s2 * s2
    with pytest.raises(ShapeError):
        kron_sum(Q, (s2, s2), (s1, s1), [(None, A, A)])
    with pytest.raises(ShapeError):
        kron_sum(Q, (s2, s2), (s2, s2), [], "both")


def _written_out(m: LinearMap) -> bool:
    """Whether m's entries are set, read from the slot itself so that a
    whisker is not written out by asking."""
    try:
        vars(LinearMap)["entries"].__get__(m, LinearMap)
    except AttributeError:
        return False
    return True


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(WHISKER_FIELDS), factor_lists, factor_lists, factor_lists,
       factor_lists, st.integers(1, 3), st.data())
def test_compose_through_a_whisker_matches_the_written_out_whisker(
        F, left, right, dom, cod, n, data):
    left, right, dom, cod = map(prod, (left, right, dom, cod))
    op = _drawn_map(F, dom, cod, data, dom * cod)
    w = whisker(op, left, right)
    written = LinearMap.identity(F, left).tensor(op).tensor(LinearMap.identity(F, right))
    outer = n
    x = _drawn_map(F, outer, w.domain, data, 24)
    y = _drawn_map(F, w.codomain, outer, data, 24)
    after, before = w.compose(x), y.compose(w)
    assert not _written_out(w)
    assert after == written.compose(x)
    assert before == y.compose(written)
    assert (after.domain, after.codomain) == (outer, w.codomain)
    assert (before.domain, before.codomain) == (w.domain, outer)


# -- the elimination engine, over Q, F_7 and Q(zeta_4) ----------------------------------

ELIM_FIELDS = (Q, PrimeField(7), Cyclotomic(4))


def _scalar(F, a, b):
    zeta = F.generator() if F.kind == F.CYCLOTOMIC else F.from_int(3)
    return F.from_int(a) + F.from_int(b) * zeta


@st.composite
def matrices(draw, rows=None, cols=None):
    """A sparse matrix with small entries; sometimes a product through a
    narrower space, so that rank-deficient squares are common."""
    F = draw(st.sampled_from(ELIM_FIELDS))
    rows = rows or draw(st.integers(1, 5))
    cols = cols or draw(st.integers(1, 5))
    entry = st.tuples(st.integers(-2, 2), st.integers(-2, 2))

    def raw(r, c):
        cells = st.tuples(st.integers(0, r - 1), st.integers(0, c - 1))
        found = draw(st.dictionaries(cells, entry, max_size=r * c))
        return LinearMap(F, c, r,
                         {k: _scalar(F, a, b) for k, (a, b) in found.items()})

    if draw(st.booleans()):
        mid = draw(st.integers(1, max(1, min(rows, cols) - 1)))
        return raw(rows, mid).compose(raw(mid, cols))
    return raw(rows, cols)


@st.composite
def square_matrices(draw):
    n = draw(st.integers(1, 5))
    return draw(matrices(rows=n, cols=n))


@settings(max_examples=120, deadline=None)
@given(square_matrices())
def test_invert_exactly_when_full_rank(A):
    n = A.domain
    inv = invert(A)
    assert (inv is None) == (rank(A) < n)
    if inv is not None:
        eye = LinearMap.identity(A.field, A.domain)
        assert A.compose(inv) == eye and inv.compose(A) == eye


@settings(max_examples=120, deadline=None)
@given(matrices())
def test_kernel_vectors_annihilate(A):
    basis, free_cols, rk = kernel_with_free_columns(A)
    assert kernel_and_rank(A) == (basis, rk)
    assert rk == rank(A)
    assert rk + len(basis) == A.domain
    for k, v in enumerate(basis):
        assert all(x.is_zero() for x in A.apply(v))
        # 1 at its own free column and 0 at the others: with the span, this
        # pins the basis uniquely
        assert [v[c] for c in free_cols] == [A.field.one() if j == k else A.field.zero()
                                            for j in range(len(free_cols))]


@settings(max_examples=120, deadline=None)
@given(matrices())
def test_from_kernel_keeps_the_sparse_kernel_rows(A):
    """The basis takes the kernel's payload rows as they are; its dense
    vectors and inclusion matrix, built on first use, are the kernel's."""
    basis = SubspaceBasis.from_kernel(A.field, A)
    assert basis._vectors is None
    vecs, free_cols, _ = kernel_with_free_columns(A)
    assert free_cols == basis.indicator_cols and basis.dim == len(vecs)
    assert basis._sparse == [{i: x.payload for i, x in enumerate(v) if not x.is_zero()}
                             for v in vecs]
    assert all(list(row) == sorted(row) for row in basis._sparse)
    assert basis.vectors == vecs
    plain = SubspaceBasis(A.field, A.domain, vecs, indicator_cols=free_cols)
    assert basis.matrix() == plain.matrix()


@settings(max_examples=120, deadline=None)
@given(matrices())
def test_rank_equals_dual_rank(A):
    assert rank(A) == rank(A.transpose())


@settings(max_examples=120, deadline=None)
@given(matrices(), st.data())
def test_solve_consistent_and_inconsistent(A, data):
    F = A.field
    coeffs = data.draw(st.lists(st.tuples(st.integers(-2, 2), st.integers(-2, 2)),
                                min_size=A.domain, max_size=A.domain))
    b = A.apply([_scalar(F, a, c) for a, c in coeffs])
    y = solve(A, b)
    assert y is not None and A.apply(y) == b
    # a left null vector z gives z . (A x) = 0 for every x, so a right-hand
    # side with z . b != 0 lies outside the column space
    left_null = kernel_and_rank(A.transpose())[0]
    if left_null:
        z = left_null[0]
        i = next(i for i, v in enumerate(z) if not v.is_zero())
        e = [F.one() if r == i else F.zero() for r in range(A.codomain)]
        assert solve(A, e) is None


@settings(max_examples=200, deadline=None)
@given(matrices(), st.data())
def test_kernel_basis_independent_of_row_order(A, data):
    """The basis is read off the reduced echelon form, which depends only on the
    row space and the column order: shuffled, duplicated and re-stacked rows
    give the identical basis and free columns."""
    rows = [LinearMap(A.field, A.domain, 1,
                      {(0, c): A.entry(r, c) for r, c in A.entries if r == i})
            for i in range(A.codomain)]
    order = data.draw(st.permutations(range(len(rows))))
    dups = data.draw(st.lists(st.integers(0, len(rows) - 1), max_size=4))
    cut = data.draw(st.integers(1, len(rows)))
    shuffled = [rows[i] for i in order] + [rows[i] for i in dups]
    restacked = stack([stack(shuffled[:cut])] + shuffled[cut:])
    assert kernel_with_free_columns(restacked) == kernel_with_free_columns(A)


# -- the pivot rule, pinned against the scanning elimination it replaced --------------

REDUCE_FIELDS = (Q, PrimeField(5), Cyclotomic(3))


def _scanning_reduce(m, extra=None, back=True):
    """The row reduction before the column index: every live row is probed for
    each column's pivot and again to clear it.  Kept as the reference for the
    pivot rule (shortest live row, lowest index among equals) and the order of
    the back substitution."""
    F = m.field
    mul, add, neg, inv, is_zero = F._mul, F._add, F._neg, F._inv, F._is_zero

    def subtract(row, factor, pivot):
        for c, v in pivot.items():
            p = mul(factor, v)
            if c not in row:
                row[c] = p
            elif is_zero(s := add(row[c], p)):
                del row[c]
            else:
                row[c] = s

    ncols = m.domain
    rows = [dict() for _ in range(m.codomain)]
    for (r, c), v in m.entries.items():
        rows[r][c] = v
    if extra is not None:
        for (r, c), v in extra.entries.items():
            rows[r][ncols + c] = v
    pivots = {}
    work = [i for i, row in enumerate(rows) if row]
    for col in range(ncols):
        best = None
        for i in work:
            if col in rows[i] and (best is None or len(rows[i]) < len(rows[best])):
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
            if col in rows[i]:
                subtract(rows[i], neg(rows[i][col]), piv)
                if not rows[i]:
                    work.remove(i)
    if back:
        piv_cols = list(pivots)
        for idx in range(len(piv_cols) - 1, 0, -1):
            piv = rows[pivots[piv_cols[idx]]]
            for earlier in piv_cols[:idx]:
                row = rows[pivots[earlier]]
                if piv_cols[idx] in row:
                    subtract(row, neg(row[piv_cols[idx]]), piv)
    return rows, pivots


@st.composite
def tall_stacks(draw):
    """A sparse system of at most 12 rows over at most 5 columns, with repeated
    rows (some scaled), and an extra block beside it as solve and invert pass
    one, or none.  The entries are stored in a drawn order, as a stacked or
    Kronecker-built map stores them, so that the rows are not met in index
    order."""
    F = draw(st.sampled_from(REDUCE_FIELDS))
    cols = draw(st.integers(1, 5))
    entry = st.tuples(st.integers(-2, 2), st.integers(-2, 2))
    base = draw(st.lists(st.dictionaries(st.integers(0, cols - 1), entry, max_size=cols),
                         min_size=1, max_size=8))
    repeats = draw(st.lists(st.tuples(st.integers(0, len(base) - 1), st.integers(1, 2)),
                            max_size=12 - len(base)))
    order = draw(st.permutations(base + [{c: (a * k, b * k) for c, (a, b) in base[i].items()}
                                         for i, k in repeats]))
    cells = draw(st.permutations([(r, c, a, b) for r, row in enumerate(order)
                                  for c, (a, b) in row.items()]))
    m = LinearMap(F, cols, len(order), {(r, c): _scalar(F, a, b) for r, c, a, b in cells})
    width = draw(st.integers(0, 3))
    if not width:
        return m, None
    spots = st.tuples(st.integers(0, len(order) - 1), st.integers(0, width - 1))
    raw = draw(st.dictionaries(spots, entry, max_size=len(order) * width))
    return m, LinearMap(F, width, len(order),
                        {k: _scalar(F, a, b) for k, (a, b) in raw.items()})


@settings(max_examples=300, deadline=None)
@given(tall_stacks(), st.booleans())
def test_reduce_keeps_the_scanning_pivot_rule(system, back):
    """The column index finds the same pivots as a scan of every live row, so
    the rows come out identical, down to the order of each row's entries."""
    m, extra = system
    rows, pivots = _reduce(m, extra, back)
    ref_rows, ref_pivots = _scanning_reduce(m, extra, back)
    assert list(pivots.items()) == list(ref_pivots.items())
    assert [list(row.items()) for row in rows] == [list(row.items()) for row in ref_rows]


def test_stack_rejects_mismatched_domains():
    with pytest.raises(ShapeError):
        stack([LinearMap.identity(Q, 2),
               LinearMap.identity(Q, 3)])


def test_block_map_matches_the_dense_block_matrix():
    """Each row of a block map is the concatenation of the rows of the blocks
    placed in its block row, with zeros where no block is placed."""
    for rows, cols in (([2, 0, 3], [1, 2]), ([1], [2, 2, 2]), ([3, 1], [0, 4, 1])):
        placed = {(i, j): rand_map(c, r)
                  for i, r in enumerate(rows) for j, c in enumerate(cols)
                  if rng.random() < 0.7}
        dense = []
        for i, r in enumerate(rows):
            for k in range(r):
                row = []
                for j, c in enumerate(cols):
                    block = placed.get((i, j))
                    row += [block.entry(k, x) if block else Q.zero() for x in range(c)]
                dense.append(row)
        expected = LinearMap.from_rows(Q, sum(cols),
                                       sum(rows), dense)
        assert block_map(Q, rows, cols, placed) == expected


def test_block_map_rejects_misplaced_blocks_and_foreign_fields():
    m = rand_map(2, 3)
    assert block_map(Q, [3], [2], {(0, 0): m}).entries == m.entries
    for rows, cols, key in (([2], [3], (0, 0)), ([3, 3], [2], (1, 1)),
                            ([3], [2, 2], (1, 0)), ([3], [2], (-1, 0))):
        with pytest.raises(ShapeError):
            block_map(Q, rows, cols, {key: m})
    with pytest.raises(ShapeError):
        block_map(Q, [3], [2], {(0, 0): rand_map(2, 3,
                                                 field=PrimeField(7))})


def test_public_constructor_checks_every_entry_and_drops_zeros():
    s2 = 2
    with pytest.raises(ShapeError):
        LinearMap(Q, s2, s2, {(0, 0): 1})
    with pytest.raises(ShapeError):
        LinearMap(Q, s2, s2, {(0, 0): PrimeField(7).one()})
    for key in ((2, 0), (0, 2), (-1, 0)):
        with pytest.raises(ShapeError):
            LinearMap(Q, s2, s2, {key: Q.one()})
    m = LinearMap(Q, s2, s2, {(0, 0): Q.zero(), (1, 0): Q.one()})
    assert list(m.entries) == [(1, 0)] and m.entry(1, 0) == Q.one()
    # a dimension is a nonnegative int, not a bool; one read off a map is accepted
    for bad in (True, False, 1.5, 2.0, -1, "2", None):
        with pytest.raises(ShapeError):
            LinearMap(Q, bad, s2, {})
        with pytest.raises(ShapeError):
            LinearMap.from_payloads(Q, s2, bad, {})
    assert LinearMap(Q, m.domain, m.codomain, dict(zip(m.entries, [Q.one()]))) == m


def test_scaled_rejects_a_scalar_of_another_field_and_empties_on_zero():
    m = LinearMap.identity(Q, 2)
    for other in (PrimeField(7).from_int(2), Cyclotomic(4).one()):
        with pytest.raises(FieldError):
            m.scaled(other)
        with pytest.raises(FieldError):
            LinearMap.zero(Q, m.domain, m.codomain).scaled(other)
    assert m.scaled(Q.zero()).entries == {}


def test_from_payloads_checks_positions_and_drops_zeros():
    s2 = 2
    for key in ((2, 0), (0, 2), (-1, 0)):
        with pytest.raises(ShapeError):
            LinearMap.from_payloads(Q, s2, s2, {key: Q.one().payload})
    m = LinearMap.from_payloads(Q, s2, s2, {(0, 0): Q.zero().payload,
                                            (1, 0): Q.from_int(3).payload})
    assert m == LinearMap(Q, s2, s2, {(1, 0): Q.from_int(3)}) and list(m.entries) == [(1, 0)]


REPRESENTATION_FIELDS = (Q, Cyclotomic(4), PrimeField(7))


@pytest.mark.parametrize("F", REPRESENTATION_FIELDS, ids=repr)
def test_map_arithmetic_builds_no_scalar(F, monkeypatch):
    """A map holds its entries' payloads, so compose, tensor, a compose with a
    whisker on either side, +, -, == and restrict never build a Scalar; entry
    and apply, the boundary, still return Scalars of the map's field."""
    s2, s3, s23 = 2, 3, 6
    a, b = rand_map(s3, s2, field=F), rand_map(s2, s3, field=F)
    a2 = rand_map(s3, s2, field=F)
    wide, tall = rand_map(s23, s2, field=F), rand_map(s2, s23, field=F)
    ambient = rand_map(s3, s3, density=0.8, field=F)
    source = SubspaceBasis.from_kernel(F, rand_map(s3, 1, density=1.0, field=F))
    target = SubspaceBasis.standard(F, 3)
    copy = LinearMap.from_payloads(F, s3, s2, dict(a.entries))
    built = []
    init = Scalar.__init__

    def counted(self, field, payload):
        built.append(payload)
        init(self, field, payload)

    monkeypatch.setattr(Scalar, "__init__", counted)
    results = [a.compose(b), b.compose(a), a.tensor(b), a + a2, a - a2, -a,
               whisker(a, s2, UNIT).compose(tall), wide.compose(whisker(b, s2, UNIT)),
               source.restrict(ambient, target)]
    compared = [a == copy, hash(a) == hash(copy), a == a2]
    assert not built
    assert compared[:2] == [True, True]
    assert all(isinstance(m, LinearMap) and m.field == F for m in results)
    monkeypatch.undo()
    for m in results:
        for r, c in m.entries:
            x = m.entry(r, c)
            assert isinstance(x, Scalar) and x.field == F and not x.is_zero()
    assert all(isinstance(x, Scalar) and x.field == F
               for x in a.apply([F.one(), F.from_int(2), F.zero()]))
    assert LinearMap.zero(F, s2, s2).entry(0, 1) == F.zero()


@pytest.mark.parametrize("F", REPRESENTATION_FIELDS, ids=repr)
def test_equality_tells_apart_maps_that_differ_in_one_entry(F):
    s3 = 3
    m = rand_map(s3, s3, density=1.0, field=F)
    scalars = {key: m.entry(*key) for key in m.entries}
    copy = LinearMap(F, s3, s3, scalars)
    assert m == copy and hash(m) == hash(copy)
    for key, x in scalars.items():
        for y in (x + F.one(), F.zero()):
            other = LinearMap(F, s3, s3, {**scalars, key: y})
            assert m != other and other != m, (key, y)
    # a missing entry that another map holds, and the same entries over another field
    hole = (0, 0) if (0, 0) not in m.entries else None
    if hole is not None:
        assert m != LinearMap(F, s3, s3, {**scalars, hole: F.one()})
    other_field = Q if F != Q else PrimeField(7)
    assert LinearMap.identity(F, s3) != LinearMap.identity(other_field, s3)
