import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from cyclotome.fields import Cyclotomic, PrimeField, Rationals
from cyclotome.linalg import (
    LinearMap, ShapeError, TensorShape, block_flip, invert, kernel_and_rank,
    solve, swap_factors, SubspaceBasis, whisker,
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


def test_rank_equals_dual_rank():
    for _ in range(12):
        dom = TensorShape([rng.randint(1, 4)])
        cod = TensorShape([rng.randint(1, 4)])
        m = rand_map(dom, cod)
        assert kernel_and_rank(m)[1] == kernel_and_rank(m.transpose())[1]


def test_kernel_vectors_annihilate():
    for _ in range(8):
        m = rand_map(TensorShape([5]), TensorShape([3]))
        basis, rk = kernel_and_rank(m)
        assert rk + len(basis) == 5
        for v in basis:
            assert all(x.is_zero() for x in m.apply(v))


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
    p = swap_factors(Q, shape, 1, 2)
    q = swap_factors(Q, p.codomain, 1, 2)
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
    basis = SubspaceBasis(Q, 3, vs)
    coords = basis.coordinates([Q.from_int(2), Q.from_int(3), Q.from_int(5)])
    assert coords == [Q.from_int(2), Q.from_int(3)]
    assert basis.coordinates([Q.one(), Q.zero(), Q.zero()]) is None


def test_subspace_restrict():
    vs = [[Q.one(), Q.zero(), Q.one()], [Q.zero(), Q.one(), Q.one()]]
    basis = SubspaceBasis(Q, 3, vs)
    swap01 = LinearMap(Q, TensorShape([3]), TensorShape([3]),
                       {(1, 0): Q.one(), (0, 1): Q.one(), (2, 2): Q.one()})
    assert basis.restrict(swap01, basis).entries == {(1, 0): Q.one(), (0, 1): Q.one()}
    # e0 + e2 |-> e0 leaves the span: the restriction does not exist
    first = LinearMap(Q, TensorShape([3]), TensorShape([3]), {(0, 0): Q.one()})
    assert basis.restrict(first, basis) is None


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
