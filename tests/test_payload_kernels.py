"""The payload loops of linalg against a naive dense reference.

Every kernel of linalg runs on the payloads under the Scalars and wraps only
the entries that survive.  Here random sparse matrices over Q, F_7 and
Q(zeta_4), with small entries so that sums cancel often, are pushed through
each kernel and compared entry for entry with dense lists of Scalars
computed by schoolbook formulas.  No map a kernel returns may hold an
explicit zero.
"""

from hypothesis import given, settings, strategies as st

from cyclotome.fields import Cyclotomic, PrimeField, Rationals
from cyclotome.linalg import (
    LinearMap, SubspaceBasis, invert, kernel_and_rank, solve, whisker,
)

FIELDS = (Rationals(), PrimeField(7), Cyclotomic(4))


def _scalar(F, a, b):
    zeta = F.generator() if F.kind == F.CYCLOTOMIC else F.from_int(3)
    return F.from_int(a) + F.from_int(b) * zeta


@st.composite
def maps(draw, F, rows, cols, min_size=0):
    """A sparse map with entries a + b zeta, a and b in [-2, 2]; drawn zeros
    are handed to the public constructor, which drops them."""
    cells = st.tuples(st.integers(0, rows - 1), st.integers(0, cols - 1))
    raw = draw(st.dictionaries(cells, st.tuples(st.integers(-2, 2), st.integers(-2, 2)),
                               min_size=min(min_size, rows * cols), max_size=rows * cols))
    return LinearMap(F, cols, rows,
                     {k: _scalar(F, a, b) for k, (a, b) in raw.items()})


@st.composite
def vectors(draw, F, n):
    pairs = draw(st.lists(st.tuples(st.integers(-2, 2), st.integers(-2, 2)),
                          min_size=n, max_size=n))
    return [_scalar(F, a, b) for a, b in pairs]


fields_ = st.sampled_from(FIELDS)
sizes = st.integers(1, 4)


# -- the dense reference ----------------------------------------------------------------


def dense(m: LinearMap):
    rows = [[m.field.zero()] * m.domain for _ in range(m.codomain)]
    for r, c in m.entries:
        rows[r][c] = m.entry(r, c)
    return rows


def assert_clean_and_equal(m: LinearMap, rows):
    assert all(not m.entry(r, c).is_zero() for r, c in m.entries)
    assert dense(m) == rows


def ref_mul(a, b, F):
    inner = len(b)
    cols = len(b[0]) if b else 0
    out = []
    for row in a:
        new = []
        for c in range(cols):
            s = F.zero()
            for k in range(inner):
                s = s + row[k] * b[k][c]
            new.append(s)
        out.append(new)
    return out


def ref_rank(rows, F):
    """Rank by schoolbook elimination on a dense copy."""
    rows = [list(r) for r in rows]
    rank, ncols = 0, len(rows[0]) if rows else 0
    for col in range(ncols):
        piv = next((i for i in range(rank, len(rows)) if not rows[i][col].is_zero()), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = rows[rank][col].inverse()
        for i in range(len(rows)):
            if i != rank and not rows[i][col].is_zero():
                f = rows[i][col] * inv
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def columns_of(vecs):
    """The matrix with the given vectors as columns."""
    return [list(r) for r in zip(*vecs)]


# -- products and sums ---------------------------------------------------------------------


@settings(max_examples=80, deadline=None)
@given(fields_, sizes, sizes, sizes, st.data())
def test_compose_matches_dense_product(F, r, m, c, data):
    a, b = data.draw(maps(F, r, m)), data.draw(maps(F, m, c))
    assert_clean_and_equal(a.compose(b), ref_mul(dense(a), dense(b), F))
    # [a | a] after [b ; -b] is a b - a b: every product cancels
    twice = LinearMap(F, 2 * m, a.codomain,
                      {(i, k + j): a.entry(i, j) for i, j in a.entries for k in (0, m)})
    minus = -b
    signed = LinearMap(F, b.domain, 2 * m,
                       {**{key: b.entry(*key) for key in b.entries},
                        **{(m + i, j): minus.entry(i, j) for i, j in minus.entries}})
    assert_clean_and_equal(twice.compose(signed), [[F.zero()] * c for _ in range(r)])


@settings(max_examples=80, deadline=None)
@given(fields_, sizes, sizes, st.data())
def test_compose_after_one_entry_columns_matches_dense_product(F, r, m, data):
    """A column of first with one nonzero writes its products straight into
    the result, with no sum and no zero filter: a permutation times nonzero
    scalars, and such columns beside a two-entry column whose products cancel."""
    nonzero = st.tuples(st.integers(-2, 2), st.integers(-2, 2)).filter(
        lambda ab: not _scalar(F, *ab).is_zero())
    a = data.draw(maps(F, r, m))
    perm = data.draw(st.permutations(range(m)))
    scales = data.draw(st.lists(nonzero, min_size=m, max_size=m))
    mono = LinearMap(F, m, m, {(perm[j], j): _scalar(F, *scales[j]) for j in range(m)})
    assert_clean_and_equal(a.compose(mono), ref_mul(dense(a), dense(mono), F))
    # [a | a] after a map whose last column is x at j and -x at m + j: that
    # column's two products cancel, the one-entry columns' products do not
    twice = LinearMap(F, 2 * m, r,
                      {(i, k + j): a.entry(i, j) for i, j in a.entries for k in (0, m)})
    hits = data.draw(st.lists(st.integers(0, 2 * m - 1), min_size=m, max_size=m))
    j, x = data.draw(st.integers(0, m - 1)), _scalar(F, *data.draw(nonzero))
    mixed = LinearMap(F, m + 1, 2 * m,
                      {**{(hits[c], c): _scalar(F, *scales[c]) for c in range(m)},
                       (j, m): x, (m + j, m): -x})
    product = twice.compose(mixed)
    assert_clean_and_equal(product, ref_mul(dense(twice), dense(mixed), F))
    assert not any(c == m for _, c in product.entries)


@settings(max_examples=60, deadline=None)
@given(fields_, sizes, sizes, sizes, sizes, st.data())
def test_tensor_matches_dense_kronecker(F, r1, c1, r2, c2, data):
    a, b = data.draw(maps(F, r1, c1)), data.draw(maps(F, r2, c2))
    da, db = dense(a), dense(b)
    expected = [[da[i // r2][j // c2] * db[i % r2][j % c2] for j in range(c1 * c2)]
                for i in range(r1 * r2)]
    assert_clean_and_equal(a.tensor(b), expected)


@settings(max_examples=80, deadline=None)
@given(fields_, sizes, sizes, st.data())
def test_apply_matches_dense_product(F, r, c, data):
    a, v = data.draw(maps(F, r, c)), data.draw(vectors(F, c))
    assert a.apply(v) == [row[0] for row in ref_mul(dense(a), [[x] for x in v], F)]


@settings(max_examples=80, deadline=None)
@given(fields_, sizes, sizes, st.data())
def test_sum_difference_and_scaling_match_dense(F, r, c, data):
    a, b = data.draw(maps(F, r, c)), data.draw(maps(F, r, c))
    s = data.draw(vectors(F, 1))[0]
    da, db = dense(a), dense(b)
    assert_clean_and_equal(a + b, [[x + y for x, y in zip(p, q)] for p, q in zip(da, db)])
    assert_clean_and_equal(a - b, [[x - y for x, y in zip(p, q)] for p, q in zip(da, db)])
    assert_clean_and_equal(a.scaled(s), [[x * s for x in p] for p in da])
    # sums that cancel entirely leave no entry behind
    assert (a - a).entries == {} and (a + a.scaled(F.from_int(-1))).entries == {}
    assert a.scaled(F.zero()).entries == {}


# -- elimination ---------------------------------------------------------------------------


@settings(max_examples=80, deadline=None)
@given(fields_, sizes, st.data())
def test_invert_matches_dense_rank_and_product(F, n, data):
    a = data.draw(maps(F, n, n))
    inv = invert(a)
    assert (inv is None) == (ref_rank(dense(a), F) < n)
    if inv is not None:
        eye = [[F.one() if i == j else F.zero() for j in range(n)] for i in range(n)]
        assert all(not inv.entry(r, c).is_zero() for r, c in inv.entries)
        assert ref_mul(dense(a), dense(inv), F) == eye == ref_mul(dense(inv), dense(a), F)


@settings(max_examples=80, deadline=None)
@given(fields_, sizes, sizes, st.data())
def test_solve_matches_dense_consistency(F, r, c, data):
    a, b = data.draw(maps(F, r, c)), data.draw(vectors(F, r))
    x = solve(a, b)
    consistent = ref_rank(dense(a), F) == ref_rank([row + [y] for row, y in zip(dense(a), b)], F)
    assert (x is not None) == consistent
    if x is not None:
        assert [row[0] for row in ref_mul(dense(a), [[y] for y in x], F)] == b


@settings(max_examples=80, deadline=None)
@given(fields_, sizes, sizes, st.data())
def test_kernel_and_rank_match_dense(F, r, c, data):
    a = data.draw(maps(F, r, c))
    basis, rk = kernel_and_rank(a)
    assert rk == ref_rank(dense(a), F)
    assert len(basis) == c - rk
    zero_col = [[F.zero()] for _ in range(r)]
    for v in basis:
        assert ref_mul(dense(a), [[x] for x in v], F) == zero_col
    if basis:
        assert ref_rank(basis, F) == len(basis)


# -- restriction to subspaces ---------------------------------------------------------------


def check_restrict(source: SubspaceBasis, ambient: LinearMap, target: SubspaceBasis):
    """restrict against the dense reference: None exactly when some image of
    a source basis vector leaves the target span, else the matrix X with
    ambient v_c = sum_k X_kc w_k for every c."""
    F = ambient.field
    got = source.restrict(ambient, target)
    images = [[row[0] for row in ref_mul(dense(ambient), [[x] for x in v], F)]
              for v in source.vectors]
    t_rank = ref_rank(columns_of(target.vectors), F) if target.vectors else 0
    inside = all(
        ref_rank(columns_of(target.vectors + [img]), F) == t_rank if target.vectors
        else all(x.is_zero() for x in img)
        for img in images)
    assert (got is not None) == inside
    if got is not None:
        assert all(not got.entry(r, c).is_zero() for r, c in got.entries)
        x = dense(got)
        for c, img in enumerate(images):
            recon = [F.zero()] * target.ambient_dim
            for k, w in enumerate(target.vectors):
                recon = [s + x[k][c] * y for s, y in zip(recon, w)]
            assert recon == img


@st.composite
def subspaces(draw, F, n, min_size=0):
    """The kernel of a random map, or a whole basis of the n-dimensional
    space: the standard one or the kernel of a zero map."""
    kind = draw(st.sampled_from(("kernel", "standard", "zero kernel")))
    if kind == "standard":
        return SubspaceBasis.standard(F, n)
    rows = draw(sizes)
    m = LinearMap.zero(F, n, rows) if kind == "zero kernel" else draw(maps(F, rows, n, min_size))
    return SubspaceBasis.from_kernel(F, m)


@st.composite
def whiskers(draw, F, n):
    """id_left (x) op (x) id_right on the n-dimensional space, its entries unset."""
    left = draw(st.sampled_from([a for a in range(1, n + 1) if n % a == 0]))
    right = draw(st.sampled_from([b for b in range(1, n // left + 1) if n // left % b == 0]))
    k = n // left // right
    return whisker(draw(maps(F, k, k)), left, right)


@settings(max_examples=120, deadline=None)
@given(fields_, st.integers(1, 5), st.data())
def test_restrict_matches_dense_span_test(F, n, data):
    """Subspaces are kernels of random maps, or whole bases.  The ambient map
    is one that preserves them (inclusion after a random X after the
    indicator coordinates), sometimes plus a random perturbation that may
    push an image out of the target span, or a whisker."""
    source = data.draw(subspaces(F, n))
    target = data.draw(subspaces(F, n, min_size=2))
    coords = LinearMap(F, n, source.dim,
                       {(k, c): F.one() for k, c in enumerate(source.indicator_cols)})
    ambient = LinearMap.zero(F, n, n)
    if source.dim and target.dim:
        x = data.draw(maps(F, target.dim, source.dim))
        ambient = target.matrix().compose(x).compose(coords)
    change = data.draw(st.sampled_from(("none", "perturb", "whisker")))
    if change == "perturb":
        ambient = ambient + data.draw(maps(F, n, n, min_size=1))
    elif change == "whisker":
        ambient = data.draw(whiskers(F, n))
    check_restrict(source, ambient, target)


@settings(max_examples=80, deadline=None)
@given(fields_, st.integers(1, 5), sizes, st.data())
def test_coordinates_of_in_a_whole_basis_matches_the_general_path(F, n, cols, data):
    """Coordinates in a whole basis, under a drawn renumbering of the rows,
    are the renumbered entries: they reconstruct each renumbered column
    against the dense reference and agree with the membership test that
    every other basis takes."""
    basis = data.draw(subspaces(F, n).filter(lambda b: b.whole))
    m = data.draw(maps(F, n, cols))
    renumber = data.draw(st.permutations(range(n)))
    got = basis.coordinates_of(m, renumber)
    columns = [{} for _ in range(cols)]
    for (r, c), v in m.entries.items():
        columns[c][renumber[r]] = v
    assert got == basis._coordinate_columns(columns, cols)
    assert all(not got.entry(r, c).is_zero() for r, c in got.entries)
    renumbered = [[F.zero()] * cols for _ in range(n)]
    for r, row in enumerate(dense(m)):
        renumbered[renumber[r]] = row
    assert ref_mul(columns_of(basis.vectors), dense(got), F) == renumbered


def test_restrict_rejects_images_that_agree_only_at_the_indicator_columns():
    F = Rationals()
    m = LinearMap.from_rows(F, 3, 2,
                            [[F.one(), F.zero(), -F.one()], [F.zero(), F.one(), F.zero()]])
    basis = SubspaceBasis.from_kernel(F, m)
    three = F.from_int(3)
    for image in ({(2, 0): three, (2, 2): three},
                  {(0, 0): three, (1, 0): F.one(), (2, 2): three},
                  {(0, 0): F.one(), (2, 2): three},
                  {(0, 0): three, (2, 2): three}):
        check_restrict(basis, LinearMap(F, 3, 3, image), basis)
