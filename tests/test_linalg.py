import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from cyclotome.fields import Cyclotomic, FieldError, PrimeField, Rationals
from cyclotome.linalg import (
    LinearMap, ShapeError, TensorShape, block_flip, invert, kernel_and_rank,
    kernel_with_free_columns, permute_factors, rank, solve, stack, SubspaceBasis, whisker,
)

Q = Rationals()
rng = random.Random(20240811)


def rand_map(dom, cod, density=0.6, field=Q):
    entries = {}
    for r in range(cod.dim):
        for c in range(dom.dim):
            if rng.random() < density:
                entries[(r, c)] = field.from_fraction(
                    Fraction(rng.randint(-4, 4), rng.randint(1, 3)))
    return LinearMap(field, dom, cod, entries)


def test_identity_kernel_rank():
    eye = LinearMap.identity(Q, TensorShape([2]))
    basis, rk = kernel_and_rank(eye)
    assert basis == [] and rk == 2


def test_sum_map_kernel():
    # (x, y) |-> x + y over Q has kernel spanned by (1, -1)
    m = LinearMap.from_rows(Q, TensorShape([2]), TensorShape([1]),
                            [[Q.one(), Q.one()]])
    basis, rk = kernel_and_rank(m)
    assert rk == 1
    assert len(basis) == 1
    v = basis[0]
    assert v[0] * Q.from_int(-1) == v[1] or v[1] * Q.from_int(-1) == v[0]


def test_level_exchange():
    # (f (x) id) o (id (x) g) = f (x) g
    for _ in range(6):
        f = rand_map(TensorShape([2]), TensorShape([3]))
        g = rand_map(TensorShape([4]), TensorShape([2]))
        id_gcod = LinearMap.identity(Q, g.codomain)
        id_fdom = LinearMap.identity(Q, f.domain)
        lhs = f.tensor(id_gcod).compose(id_fdom.tensor(g))
        assert lhs.entries == f.tensor(g).entries


def test_tensor_associative_unital():
    a = rand_map(TensorShape([2]), TensorShape([2]))
    b = rand_map(TensorShape([3]), TensorShape([1]))
    c = rand_map(TensorShape([2]), TensorShape([3]))
    lhs = a.tensor(b).tensor(c)
    rhs = a.tensor(b.tensor(c))
    assert lhs.entries == rhs.entries and lhs.domain.dim == rhs.domain.dim


def test_permutation_involution():
    shape = TensorShape([2, 3, 4])
    p = permute_factors(Q, shape, [0, 2, 1])
    q = permute_factors(Q, p.codomain, [0, 2, 1])
    assert q.compose(p) == LinearMap.identity(Q, shape)


def test_block_flip_square():
    left, right = TensorShape([2]), TensorShape([3])
    f = block_flip(Q, left, right)
    g = block_flip(Q, right, left)
    assert g.compose(f) == LinearMap.identity(Q, left * right)


def test_double_dual():
    m = rand_map(TensorShape([2]), TensorShape([3]))
    assert m.transpose().transpose() == m


def test_solve_and_invert():
    m = LinearMap.from_rows(Q, TensorShape([2]), TensorShape([2]), [
        [Q.from_int(2), Q.from_int(1)],
        [Q.from_int(1), Q.from_int(1)],
    ])
    b = [Q.from_int(3), Q.from_int(2)]
    x = solve(m, b)
    assert x is not None and m.apply(x) == b
    inv = invert(m)
    assert inv.compose(m) == LinearMap.identity(Q, TensorShape([2]))


def test_solve_inconsistent():
    m = LinearMap.from_rows(Q, TensorShape([1]), TensorShape([2]),
                            [[Q.one()], [Q.one()]])
    assert solve(m, [Q.one(), Q.from_int(2)]) is None


def test_shape_mismatch():
    a = rand_map(TensorShape([2]), TensorShape([2]))
    b = rand_map(TensorShape([3]), TensorShape([3]))
    with pytest.raises(ShapeError):
        a.compose(b)


def test_prime_field_rank():
    F = PrimeField(5)
    m = LinearMap.from_rows(F, TensorShape([2]), TensorShape([2]), [
        [F.from_int(2), F.from_int(4)],
        [F.from_int(1), F.from_int(2)],
    ])  # second row is 3 * first over F5? 2*3=6=1, 4*3=12=2 -> yes
    assert kernel_and_rank(m)[1] == 1


def test_cooperative_cancellation():
    from cyclotome.linalg import Cancelled
    m = rand_map(TensorShape([6]), TensorShape([6]), density=1.0)
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
    swap01 = LinearMap(Q, TensorShape([3]), TensorShape([3]),
                       {(1, 0): Q.one(), (0, 1): Q.one(), (2, 2): Q.one()})
    assert basis.restrict(swap01, basis).entries == {(1, 0): Q.one(), (0, 1): Q.one()}
    # e0 + e2 |-> e0 leaves the span: the restriction does not exist
    first = LinearMap(Q, TensorShape([3]), TensorShape([3]), {(0, 0): Q.one()})
    assert basis.restrict(first, basis) is None


def test_restrict_checks_every_nonzero_of_the_image():
    # kernel of x0 = x2, x1 = 0: the basis vector (1, 0, 1), indicator column 2
    m = LinearMap.from_rows(Q, TensorShape([3]), TensorShape([2]),
                            [[Q.one(), Q.zero(), -Q.one()], [Q.zero(), Q.one(), Q.zero()]])
    basis = SubspaceBasis.from_kernel(Q, m)
    assert basis.indicator_cols == [2]
    three = Q.from_int(3)
    scale = LinearMap.identity(Q, TensorShape([3])).scaled(three)
    assert basis.restrict(scale, basis).entries == {(0, 0): three}
    # images that agree with 3 (1, 0, 1) at the indicator column but not elsewhere
    for image in ({(2, 0): three, (2, 2): three},
                  {(0, 0): three, (1, 0): Q.one(), (2, 2): three},
                  {(0, 0): Q.one(), (2, 2): three}):
        ambient = LinearMap(Q, TensorShape([3]), TensorShape([3]), image)
        assert basis.restrict(ambient, basis) is None, image
        vec = ambient.apply([Q.one(), Q.zero(), Q.one()])
        assert basis.coordinates(vec) is None, image
    with pytest.raises(ShapeError):
        basis.restrict(LinearMap.identity(Q, TensorShape([2])), basis)


WHISKER_FIELDS = (Q, PrimeField(7), Cyclotomic(4))
factor_lists = st.lists(st.integers(1, 3), max_size=2)


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(WHISKER_FIELDS), factor_lists, factor_lists, factor_lists,
       factor_lists, st.data())
def test_whisker_matches_kronecker_with_identities(F, left, right, dom, cod, data):
    left, right, dom, cod = map(TensorShape, (left, right, dom, cod))
    zeta = F.generator() if F.kind == F.CYCLOTOMIC else F.from_int(2)
    cells = st.tuples(st.integers(0, cod.dim - 1), st.integers(0, dom.dim - 1))
    raw = data.draw(st.dictionaries(cells, st.tuples(st.integers(-3, 3), st.integers(-3, 3)),
                                    max_size=dom.dim * cod.dim))
    op = LinearMap(F, dom, cod, {k: F.from_int(a) + F.from_int(b) * zeta
                                 for k, (a, b) in raw.items()})
    reference = LinearMap.identity(F, left).tensor(op).tensor(LinearMap.identity(F, right))
    assert whisker(op, left, right) == reference


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
        return LinearMap(F, TensorShape([c]), TensorShape([r]),
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
    n = A.domain.dim
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
    assert rk + len(basis) == A.domain.dim
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
    plain = SubspaceBasis(A.field, A.domain.dim, vecs, indicator_cols=free_cols)
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
                                min_size=A.domain.dim, max_size=A.domain.dim))
    b = A.apply([_scalar(F, a, c) for a, c in coeffs])
    y = solve(A, b)
    assert y is not None and A.apply(y) == b
    # a left null vector z gives z . (A x) = 0 for every x, so a right-hand
    # side with z . b != 0 lies outside the column space
    left_null = kernel_and_rank(A.transpose())[0]
    if left_null:
        z = left_null[0]
        i = next(i for i, v in enumerate(z) if not v.is_zero())
        e = [F.one() if r == i else F.zero() for r in range(A.codomain.dim)]
        assert solve(A, e) is None


@settings(max_examples=200, deadline=None)
@given(matrices(), st.data())
def test_kernel_basis_independent_of_row_order(A, data):
    """The basis is read off the reduced echelon form, which depends only on the
    row space and the column order: shuffled, duplicated and re-stacked rows
    give the identical basis and free columns."""
    rows = [LinearMap(A.field, A.domain, TensorShape([1]),
                      {(0, c): v for (r, c), v in A.entries.items() if r == i})
            for i in range(A.codomain.dim)]
    order = data.draw(st.permutations(range(len(rows))))
    dups = data.draw(st.lists(st.integers(0, len(rows) - 1), max_size=4))
    cut = data.draw(st.integers(1, len(rows)))
    shuffled = [rows[i] for i in order] + [rows[i] for i in dups]
    restacked = stack([stack(shuffled[:cut])] + shuffled[cut:])
    assert kernel_with_free_columns(restacked) == kernel_with_free_columns(A)


def test_stack_rejects_mismatched_domains():
    with pytest.raises(ShapeError):
        stack([LinearMap.identity(Q, TensorShape([2])),
               LinearMap.identity(Q, TensorShape([3]))])


def test_public_constructor_checks_every_entry_and_drops_zeros():
    s2 = TensorShape([2])
    with pytest.raises(ShapeError):
        LinearMap(Q, s2, s2, {(0, 0): 1})
    with pytest.raises(ShapeError):
        LinearMap(Q, s2, s2, {(0, 0): PrimeField(7).one()})
    for key in ((2, 0), (0, 2), (-1, 0)):
        with pytest.raises(ShapeError):
            LinearMap(Q, s2, s2, {key: Q.one()})
    m = LinearMap(Q, s2, s2, {(0, 0): Q.zero(), (1, 0): Q.one()})
    assert m.entries == {(1, 0): Q.one()}


def test_scaled_rejects_a_scalar_of_another_field_and_empties_on_zero():
    m = LinearMap.identity(Q, TensorShape([2]))
    for other in (PrimeField(7).from_int(2), Cyclotomic(4).one()):
        with pytest.raises(FieldError):
            m.scaled(other)
        with pytest.raises(FieldError):
            LinearMap.zero(Q, m.domain, m.codomain).scaled(other)
    assert m.scaled(Q.zero()).entries == {}
