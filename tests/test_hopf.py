import functools
import random
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from cyclotome.fields import Cyclotomic, FieldSpec, Rationals
from cyclotome.hopf import (
    HopfError, LinearMap, braiding, braiding_inverse, coadjoint_action, coadjoint_blocks,
    coadjoint_module, drinfeld_double_of_cyclic, drinfeld_element, dual_module, group_algebra,
    group_algebra_simples, hom_basis, hom_space, invariance_blocks, load_algebra,
    modular_data,
    module_power, pivot_element, qdim, quantum_trace, regular_module, right_coadjoint_power,
    sweedler_h4, tensor_module, trivial_module, twist, twist_inverse, verify_axioms,
    verify_quasitriangular_ribbon,
)
from cyclotome.linalg import (
    UNIT, ShapeError, TensorShape, block_flip, invert, kernel_and_rank, permute_factors,
    stack, whisker,
)

Q = Rationals()
K4 = Cyclotomic(4)
DATA = Path(__file__).resolve().parents[1] / "src" / "cyclotome" / "data"

rng = random.Random(7)


@pytest.fixture(scope="module")
def bundled():
    out = {}
    for name in ("z2_trivial", "z2_semion", "sweedler_h4", "double_z2"):
        out[name] = load_algebra(DATA / f"{name}.json")
    return out


def test_bundled_pass_all_axioms(bundled):
    for name, (H, _) in bundled.items():
        assert verify_axioms(H).ok, name
        assert verify_quasitriangular_ribbon(H).ok, name


def test_corrupted_antipode_fails():
    H = sweedler_h4(Q)
    H.S = LinearMap.identity(Q, H.shape)
    rep = verify_axioms(H)
    assert not rep.ok
    assert any("antipode" in f for f in rep.failures)


def test_corrupted_ribbon_fails():
    H = drinfeld_double_of_cyclic(Q, 2)
    # replace theta by a non-central, non-grouplike combination
    H.theta = [Q.one(), Q.one()] + [Q.zero()] * (H.dim - 2)
    rep = verify_quasitriangular_ribbon(H)
    assert not rep.ok


def test_sweedler_iterate():
    H = sweedler_h4(Q)
    x = H.basis_vector(2)          # the skew-primitive x
    dx = H.sweedler_iterate(x, 2)  # x(x)1 + g(x)x
    expected = [Q.zero()] * 16
    expected[2 * 4 + 0] = Q.one()
    expected[1 * 4 + 2] = Q.one()
    assert dx == expected
    g = H.basis_vector(1)
    ggg = H.sweedler_iterate(g, 3)
    idx = (1 * 4 + 1) * 4 + 1
    assert all((v == Q.one()) == (i == idx) for i, v in enumerate(ggg))
    assert H.sweedler_iterate(x, 1) == x


def test_sweedler_placement_irrelevant():
    # coassociativity: expanding the last slot equals expanding the first
    H = sweedler_h4(Q)
    eye = LinearMap.identity(Q, H.shape)
    for k in range(H.dim):
        x = H.basis_vector(k)
        last_first = H.sweedler_iterate(x, 3)
        other = H.Delta.tensor(eye).apply(H.Delta.apply(x))
        assert last_first == other


def test_coadjoint_action_values():
    H = sweedler_h4(Q)
    C = coadjoint_module(H)
    # g acts on the dual basis element x* by -x*
    rho_g = C.rho(1)
    col = [rho_g.entry(r, 2) for r in range(4)]
    assert col == [Q.zero(), Q.zero(), Q.from_int(-1), Q.zero()]
    # the unit acts as the identity
    assert C.rho_of(H.u) == LinearMap.identity(Q, C.shape)


def test_coadjoint_trivial_for_commutative(bundled):
    H, _ = bundled["z2_trivial"]
    C = coadjoint_module(H)
    for k in range(H.dim):
        eps = H.epsilon.entry(0, k)
        assert C.rho(k) == LinearMap.identity(Q, C.shape).scaled(eps)


def test_right_coadjoint_power_is_right_action():
    H = sweedler_h4(Q)
    act = right_coadjoint_power(H, 2)
    d = H.dim
    for _ in range(6):
        h1 = [Q.from_int(rng.randint(-2, 2)) for _ in range(d)]
        h2 = [Q.from_int(rng.randint(-2, 2)) for _ in range(d)]
        x = [Q.from_int(rng.randint(-2, 2)) for _ in range(d * d)]
        one_then_other = act.apply(H.tensor_vectors(act.apply(H.tensor_vectors(x, h1)), h2))
        product = act.apply(H.tensor_vectors(x, H.multiply(h1, h2)))
        assert one_then_other == product
    # X <| 1 = X
    x = [Q.from_int(rng.randint(-2, 2)) for _ in range(d * d)]
    assert act.apply(H.tensor_vectors(x, H.u)) == x


def test_right_action_collapses_for_commutative(bundled):
    H, _ = bundled["double_z2"]
    for k in range(H.dim):
        op = coadjoint_action(H, H.basis_vector(k), 1)
        eps = H.epsilon.entry(0, k)
        assert op == LinearMap.identity(H.field, H.shape).scaled(eps)


def test_hom_space_examples(bundled):
    H, simples = bundled["z2_trivial"]
    triv = trivial_module(H)
    assert len(hom_space(triv, triv)) == 1
    assert len(hom_space(simples[0], simples[1])) == 0
    # invariants of the regular module of H4 = span of its left integral (dim 1)
    HS = sweedler_h4(Q)
    inv = hom_basis(trivial_module(HS), regular_module(HS)).vectors
    assert len(inv) == 1
    # the left integral satisfies h L = eps(h) L; cross-check the equation directly
    L = inv[0]
    for k in range(4):
        assert HS.multiply(HS.basis_vector(k), L) == \
            [HS.epsilon.entry(0, k) * v for v in L]


def _is_kernel_basis(basis):
    """Vector k is 1 at indicator column k and 0 at the other indicator columns."""
    F = basis.field
    return len(basis.indicator_cols) == basis.dim and all(
        [vec[c] for c in basis.indicator_cols] == [F.one() if j == k else F.zero()
                                                   for j in range(basis.dim)]
        for k, vec in enumerate(basis.vectors))


def test_hom_basis_is_the_kernel_each_hom_space_had(bundled):
    """Hom(1, V), Hom(V, 1) and Hom(V, W) from hom_basis carry the vectors of
    the kernels they were read from before: rho(k) - eps(e_k) id, its
    transpose, and the stacked intertwiner system.  Hom(1, V) stacks the
    negated blocks, which have the same reduced echelon form."""
    for name, (H, simples) in bundled.items():
        C = coadjoint_module(H)
        one = trivial_module(H)
        modules = simples + [C, module_power(C, 2)]
        for V in modules:
            invs = hom_basis(one, V)
            assert invs.vectors == kernel_and_rank(
                stack(invariance_blocks(V.rho, H.epsilon)))[0], (name, V.name)
            funcs = hom_basis(V, one)
            assert funcs.vectors == kernel_and_rank(stack(invariance_blocks(
                lambda k: V.rho(k).transpose(), H.epsilon)))[0], (name, V.name)
            assert _is_kernel_basis(invs) and _is_kernel_basis(funcs), (name, V.name)
        for V in modules:
            for W in simples:
                blocks = [whisker(V.rho(k).transpose(), W.shape, UNIT)
                          - whisker(W.rho(k), UNIT, V.shape) for k in range(H.dim)]
                basis = hom_basis(V, W)
                assert basis.vectors == kernel_and_rank(stack(blocks))[0], (name, V.name)
                assert _is_kernel_basis(basis), (name, V.name, W.name)
                maps = hom_space(V, W)
                assert [[T.entry(*divmod(i, V.dim)) for i in range(V.dim * W.dim)]
                        for T in maps] == basis.vectors


def test_hom_space_of_regular_module(bundled):
    """End_H(H) is the right multiplications, one per basis element; every basis
    map is an intertwiner, also on the non-semisimple sweedler_h4."""
    from cyclotome.coend import _is_intertwiner
    for name, (H, _) in bundled.items():
        Hreg = regular_module(H)
        maps = hom_space(Hreg, Hreg)
        assert len(maps) == H.dim, name
        assert all(_is_intertwiner(T, Hreg, Hreg) for T in maps), name


def test_braiding_naturality():
    HS = sweedler_h4(Q)
    V = regular_module(HS)
    W = coadjoint_module(HS)
    c = braiding(V, W)
    for f in hom_space(V, V)[:2]:
        for g in hom_space(W, W)[:2]:
            lhs = c.compose(f.tensor(g))
            rhs = g.tensor(f).compose(c)
            assert lhs == rhs


def test_braiding_hexagons_on_modules():
    H = drinfeld_double_of_cyclic(Q, 2)
    simples = group_algebra_simples(H, [2, 2])
    U, V, W = simples[1], simples[2], simples[3]
    VW = tensor_module(V, W)
    lhs = braiding(U, VW)
    eyeV = LinearMap.identity(Q, V.shape)
    eyeW = LinearMap.identity(Q, W.shape)
    rhs = eyeV.tensor(braiding(U, W)).compose(braiding(U, V).tensor(eyeW))
    assert lhs.entries == rhs.entries


def test_twist_condition(bundled):
    for name in ("sweedler_h4", "double_z2", "z2_semion"):
        H, simples = bundled[name]
        mods = simples[:2] if simples else [regular_module(H), coadjoint_module(H)]
        V, W = mods[0], mods[-1]
        VW = tensor_module(V, W)
        lhs = twist(VW)
        rhs = braiding(W, V).compose(braiding(V, W)).compose(twist(V).tensor(twist(W)))
        assert lhs.entries == rhs.entries, name


def test_twist_of_trivial_module(bundled):
    for name, (H, _) in bundled.items():
        assert twist(trivial_module(H)) == LinearMap.identity(H.field, TensorShape([1]))


# -- the one-pass braiding against the composite it replaced --------------------------

BUNDLES = ("z2_trivial", "z2_semion", "sweedler_h4", "double_z2")


@functools.cache
def _bundle_modules(name):
    """Regular, coadjoint, dual, C (x) C and simple modules of a bundle, built once."""
    H, simples = load_algebra(DATA / f"{name}.json")
    C = coadjoint_module(H)
    return [regular_module(H), C, dual_module(C), tensor_module(C, C), *simples]


def _composite_braiding(V, W, inverse):
    """flip o sum coeff rho(a) (x) rho(b), or the sum after the flip for the inverse."""
    H, F = V.algebra, V.algebra.field
    r_act = LinearMap.zero(F, V.shape * W.shape, V.shape * W.shape)
    for a, b, coeff in (H.r_inv_pairs() if inverse else H.r_pairs()):
        r_act = r_act + V.rho_of(a).tensor(W.rho_of(b)).scaled(coeff)
    if inverse:
        return r_act.compose(block_flip(F, W.shape, V.shape))
    return block_flip(F, V.shape, W.shape).compose(r_act)


@settings(max_examples=40, deadline=None)
@given(name=st.sampled_from(BUNDLES), i=st.integers(0, 7), j=st.integers(0, 7))
def test_braiding_equals_the_composite(name, i, j):
    mods = _bundle_modules(name)
    V, W = mods[i % len(mods)], mods[j % len(mods)]
    c, c_inv = braiding(V, W), braiding_inverse(V, W)
    assert c == _composite_braiding(V, W, inverse=False)
    assert c_inv == _composite_braiding(V, W, inverse=True)
    assert c_inv.compose(c) == LinearMap.identity(V.algebra.field, V.shape * W.shape)


@pytest.mark.parametrize("inverse", [False, True])
def test_braiding_multiplies_only_nonzero_pairs(monkeypatch, inverse):
    """At most two products per pair of nonzero entries of rho_V(i) and rho_W(j)
    over the nonzero R_ij; the composite also multiplied by every 1 of the flip."""
    H, _ = load_algebra(DATA / "z2_semion.json")
    C = coadjoint_module(H)
    V, W = tensor_module(C, C), C
    R = H.R_inv if inverse else H.R
    pairs = sum(len(V.rho(idx // H.dim).entries) * len(W.rho(idx % H.dim).entries)
                for idx, x in enumerate(R) if not x.is_zero())
    calls = []
    mul = FieldSpec._mul

    def counted(self, a, b):
        calls.append(1)
        return mul(self, a, b)

    monkeypatch.setattr(FieldSpec, "_mul", counted)
    (braiding_inverse if inverse else braiding)(V, W)
    assert 0 < len(calls) <= 2 * pairs


def test_s_squared_is_pivot_conjugation(bundled):
    for name, (H, _) in bundled.items():
        g = pivot_element(H)
        lhs = H.S.compose(H.S)
        rhs_cols = {}
        for c in range(H.dim):
            gc = H.multiply(g, H.basis_vector(c))
            # solve g^-1 via right multiplication: S^2(h) = g h g^-1
            rhs_cols[c] = gc
        ginv = None
        from cyclotome.linalg import solve
        ginv = solve(H.left_multiplication(g), H.u)
        conj = H.left_multiplication(g).compose(H.right_multiplication(ginv))
        assert lhs == conj, name


def test_quantum_dims(bundled):
    H, simples = bundled["double_z2"]
    for V in simples:
        assert qdim(V) == Q.one()
    assert qdim(trivial_module(H)) == Q.one()
    # qdim is multiplicative on tensor products
    V, W = simples[1], simples[2]
    assert qdim(tensor_module(V, W)) == qdim(V) * qdim(W)


def test_spherical_traces(bundled):
    # left and right quantum traces agree (pivot equals its inverse here)
    from cyclotome.hopf import pivot_inverse
    for name in ("double_z2", "z2_semion", "sweedler_h4"):
        H, simples = bundled[name]
        V = simples[1] if simples else regular_module(H)
        f = V.rho(1)
        gi = V.rho_of(pivot_inverse(H))
        g = V.rho_of(pivot_element(H))
        tr_r = sum((g.compose(f).entry(i, i) for i in range(V.dim)), H.field.zero())
        tr_l = sum((gi.compose(f).entry(i, i) for i in range(V.dim)), H.field.zero())
        assert tr_l == tr_r, name


def test_modular_data_double(bundled):
    H, simples = bundled["double_z2"]
    md = modular_data(H, simples)
    assert md.modular and md.anomaly_free and md.dim_invertible
    assert md.dim_B == Q.from_int(4)
    assert md.delta_plus == md.delta_minus == Q.from_int(2)
    assert md.dim_B == md.delta_plus * md.delta_minus
    # sum of squared quantum dims equals dim H here
    assert sum((qdim(V) * qdim(V) for V in simples), Q.zero()) == Q.from_int(H.dim)


def test_modular_data_trivial_not_modular(bundled):
    H, simples = bundled["z2_trivial"]
    md = modular_data(H, simples)
    assert not md.modular
    _, rk = kernel_and_rank(md.s_matrix)
    assert rk == 1


def test_modular_data_semion(bundled):
    H, simples = bundled["z2_semion"]
    md = modular_data(H, simples)
    assert not md.modular            # rank-2 S-matrix: the braiding has a radical
    assert not md.anomaly_free
    assert md.dim_B == K4.from_int(4)
    # one simple carries a twist of multiplicative order four
    scalars = [twist(V).entry(0, 0) for V in simples]
    z = K4.generator()
    assert z in scalars or -z in scalars


def test_modular_data_rejects_bad_simples():
    H = drinfeld_double_of_cyclic(Q, 2)
    simples = group_algebra_simples(H, [2, 2])
    with pytest.raises(HopfError):
        modular_data(H, simples[:3])  # dimension certificate fails


def test_drinfeld_element_conjugates_s_squared(bundled):
    for name, (H, _) in bundled.items():
        u = drinfeld_element(H)
        for k in range(H.dim):
            lhs = H.multiply(H.S.apply(H.S.apply(H.basis_vector(k))), u)
            rhs = H.multiply(u, H.basis_vector(k))
            assert lhs == rhs, name  # S^2(h) u = u h


def test_inadmissible_field_rejected():
    from cyclotome.fields import PrimeField
    with pytest.raises(HopfError):
        sweedler_h4(PrimeField(2))
    with pytest.raises(HopfError):
        group_algebra(Q, [4], bichar=[[1]], quad=[[-1]])  # no 4th root of unity in Q


def test_dual_module_axioms():
    HS = sweedler_h4(Q)
    V = regular_module(HS)
    Vd = dual_module(V)
    assert Vd.verify().ok


def test_module_power_dims():
    H = drinfeld_double_of_cyclic(Q, 2)
    C = coadjoint_module(H)
    assert module_power(C, 3).dim == 64
    assert module_power(C, 0).dim == 1


# -- the sparse module action against dense references ---------------------------------


@pytest.fixture(scope="module")
def acting_modules(bundled):
    """(algebra, module) for the regular, coadjoint, dual and C (x) C modules of
    every bundle."""
    out = []
    for H, _ in bundled.values():
        C = coadjoint_module(H)
        for V in (regular_module(H), C, dual_module(C), module_power(C, 2)):
            out.append((H, V))
    return out


def _scalars(F: FieldSpec, data, n: int) -> list:
    """n small scalars, many of them zero; a + b i over Q(i)."""
    gen = F.generator() if F.kind == F.CYCLOTOMIC else F.from_int(3)
    pairs = st.one_of(st.just((0, 0)), st.tuples(st.integers(-2, 2), st.integers(-2, 2)))
    return [F.from_int(a) + F.from_int(b) * gen
            for a, b in data.draw(st.lists(pairs, min_size=n, max_size=n))]


def _dense_rho(V, h) -> LinearMap:
    """The dense reference: the whole action applied to h (x) e_c, column by column."""
    F = V.algebra.field
    entries = {}
    for c in range(V.dim):
        e_c = [F.one() if i == c else F.zero() for i in range(V.dim)]
        w = V.action.apply([x * y for x in h for y in e_c])
        for r, v in enumerate(w):
            if not v.is_zero():
                entries[(r, c)] = v
    return LinearMap(F, V.shape, V.shape, entries)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_rho_of_matches_dense_action(acting_modules, data):
    H, V = data.draw(st.sampled_from(acting_modules))
    h = _scalars(H.field, data, H.dim)
    assert V.rho_of(h) == _dense_rho(V, h)


def test_rho_is_rho_of_basis_vector(acting_modules):
    for H, V in acting_modules:
        for k in range(H.dim):
            assert V.rho(k) == V.rho_of(H.basis_vector(k)) == _dense_rho(
                V, H.basis_vector(k)), (H.name, V.name, k)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_tensor_vectors_matches_kronecker(bundled, data):
    H, _ = bundled[data.draw(st.sampled_from(sorted(bundled)))]
    lengths = data.draw(st.lists(st.integers(1, 4), min_size=1, max_size=3))
    vecs = [_scalars(H.field, data, n) for n in lengths]
    expected = vecs[0]
    for v in vecs[1:]:
        expected = [x * y for x in expected for y in v]
    assert H.tensor_vectors(*vecs) == expected


def test_rho_of_rejects_wrong_length(acting_modules):
    for H, V in acting_modules:
        for n in (H.dim - 1, H.dim + 1):
            with pytest.raises(ShapeError):
                V.rho_of([H.field.one()] * n)


def test_rho_of_multiplies_only_nonzero_entries(monkeypatch):
    """One rho_of(h) costs at most one product per nonzero entry of the rho(k)
    with h_k != 0; forming h (x) e_c for every column costs dim H * dim V^2."""
    H = sweedler_h4(Q)
    V = module_power(coadjoint_module(H), 3)
    assert V.dim == 64
    h = [Q.zero(), Q.from_int(2), Q.zero(), Q.from_int(-3)]
    calls = []
    mul = FieldSpec._mul

    def counted(self, a, b):
        calls.append(1)
        return mul(self, a, b)

    monkeypatch.setattr(FieldSpec, "_mul", counted)
    V.rho_of(h)
    count = len(calls)
    bound = sum(len(V.rho(k).entries) for k, x in enumerate(h) if not x.is_zero())
    assert 0 < count <= bound


# -- actions on tensor powers against the composite references ----------------------


def _kron(a, b):
    return [x * y for x in a for y in b]


def _iterated_coproduct(H, x, n):
    """The reference iterate: id^(k-1) (x) Delta applied as whole maps."""
    out = list(x)
    for k in range(1, n):
        step = LinearMap.identity(H.field, H.power_shape(k - 1)).tensor(H.Delta)
        out = step.apply(out)
    return out


def _three_map_action(V, W):
    """The action of V (x) W as (act_V (x) act_W) o (id (x) flip_{H,V} (x) id_W)
    o (Delta (x) id_V (x) id_W)."""
    H, F = V.algebra, V.algebra.field
    eye = LinearMap.identity
    step1 = H.Delta.tensor(eye(F, V.shape)).tensor(eye(F, W.shape))
    step2 = eye(F, H.shape).tensor(block_flip(F, H.shape, V.shape)).tensor(eye(F, W.shape))
    vw = TensorShape([V.dim * W.dim])
    return V.action.tensor(W.action).compose(step2).compose(step1).reshaped(H.shape * vw, vw)


def _digit_coadjoint(H, k, n):
    """ad_n(e_k) from the (2n-1)-fold coproduct: slot s is acted by
    x |-> S(e_p) x e_q for the digits (p, q) at positions 2s, 2s + 1, and the
    slots' operators are Kronecker multiplied."""
    F, d = H.field, H.dim
    sw = _iterated_coproduct(H, H.basis_vector(k), 2 * n)
    out = LinearMap.zero(F, H.power_shape(n), H.power_shape(n))
    for idx, coeff in enumerate(sw):
        if coeff.is_zero():
            continue
        digits = [idx // d ** (2 * n - 1 - i) % d for i in range(2 * n)]
        term = None
        for s in range(n):
            sp = H.S.apply(H.basis_vector(digits[2 * s]))
            cols = {}
            for c in range(d):
                w = H.m.apply(_kron(H.m.apply(_kron(sp, H.basis_vector(c))),
                                    H.basis_vector(digits[2 * s + 1])))
                cols.update({(r, c): v for r, v in enumerate(w) if not v.is_zero()})
            op = LinearMap(F, H.shape, H.shape, cols)
            term = op if term is None else term.tensor(op)
        out = out + term.scaled(coeff)
    return out


def test_tensor_module_matches_three_map_composite(bundled):
    for name, (H, simples) in bundled.items():
        mods = [regular_module(H), coadjoint_module(H)] + list(simples)
        for V in mods:
            for W in mods:
                VW = tensor_module(V, W)
                assert VW.action == _three_map_action(V, W), (name, V.name, W.name)
                for k in range(H.dim):
                    assert VW.rho(k) == _dense_rho(VW, H.basis_vector(k)), (name, k)


def test_coadjoint_blocks_match_digit_reference(bundled):
    for name, (H, _) in bundled.items():
        for n in (1, 2, 3):
            blocks = coadjoint_blocks(H, n)
            for k in range(H.dim):
                assert blocks[k] == _digit_coadjoint(H, k, n), (name, n, k)
        act = right_coadjoint_power(H, 2)
        for k in range(H.dim):
            for c in range(H.dim ** 2):
                x = [H.field.one() if i == c else H.field.zero() for i in range(H.dim ** 2)]
                assert act.apply(_kron(x, H.basis_vector(k))) == \
                    coadjoint_blocks(H, 2)[k].apply(x), (name, k, c)


def test_coadjoint_action_is_sum_of_blocks(bundled):
    H, _ = bundled["sweedler_h4"]
    y = [Q.from_int(2), Q.zero(), Q.from_int(-1), Q.from_int(3)]
    for n in (0, 1, 2):
        expected = LinearMap.zero(Q, H.power_shape(n), H.power_shape(n))
        for k, a in enumerate(coadjoint_blocks(H, n)):
            expected = expected + a.scaled(y[k])
        assert coadjoint_action(H, y, n) == expected
    # level 0 is the counit on the unit
    assert coadjoint_action(H, y, 0).entry(0, 0) == H.counit_value(y)


@pytest.fixture(scope="module")
def power_multiplications(bundled):
    """m^(x)n composed with the permutation interleaving (a_1..a_n, b_1..b_n)."""
    out = {}
    for name, (H, _) in bundled.items():
        for n in (1, 2, 3):
            perm = [i for s in range(n) for i in (s, n + s)]
            mm = H.m
            for _ in range(n - 1):
                mm = mm.tensor(H.m)
            inter = permute_factors(H.field, H.power_shape(2 * n), perm)
            out[name, n] = mm.compose(inter)
    return out


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_multiply_matches_interleaved_power_of_m(bundled, power_multiplications, data):
    name = data.draw(st.sampled_from(sorted(bundled)))
    n = data.draw(st.integers(1, 3))
    H, _ = bundled[name]
    a = _scalars(H.field, data, H.dim ** n)
    b = _scalars(H.field, data, H.dim ** n)
    assert H.multiply(a, b, n) == power_multiplications[name, n].apply(_kron(a, b))


def test_multiply_rejects_wrong_length(bundled):
    H, _ = bundled["sweedler_h4"]
    with pytest.raises(ShapeError):
        H.multiply(H.u, H.unit_power(2), 2)
    with pytest.raises(ShapeError):
        H.multiply(H.u + [Q.zero()], H.u)


def test_sweedler_iterate_matches_whole_map_iterate(bundled):
    for name, (H, _) in bundled.items():
        rand = [H.field.from_int(rng.randint(-2, 2)) for _ in range(H.dim)]
        for x in [H.basis_vector(k) for k in range(H.dim)] + [rand]:
            for n in range(1, 5):
                assert H.sweedler_iterate(x, n) == _iterated_coproduct(H, x, n), (name, n)


# -- ribbon data of the doubles and the pivot cache -----------------------------------------


def test_double_of_z3_passes_ribbon_axioms():
    K3 = Cyclotomic(3)
    H = drinfeld_double_of_cyclic(K3, 3)
    rep = verify_quasitriangular_ribbon(H)
    assert rep.ok, rep.failures
    md = modular_data(H, group_algebra_simples(H, [3, 3]))
    assert md.modular and md.anomaly_free
    assert md.delta_plus == md.delta_minus == K3.from_int(3)
    assert md.dim_B == md.delta_plus * md.delta_minus == K3.from_int(9)


def test_incompatible_quadratic_form_rejected():
    # the quadratic form the double of Z/3 used to be built with
    with pytest.raises(HopfError, match="ribbon axiom"):
        group_algebra(Cyclotomic(3), [3, 3], bichar=[[0, 1], [0, 0]],
                      quad=[[0, 1], [0, 0]])
    with pytest.raises(HopfError, match="ribbon axiom"):
        group_algebra(K4, [4], bichar=[[1]], quad=[[0]])


def test_order_two_ribbon_data_unchanged():
    # at n = 2 the sign of the quadratic form cannot be seen
    H = drinfeld_double_of_cyclic(Q, 2)
    old = group_algebra(Q, [2, 2], bichar=[[0, 1], [0, 0]], quad=[[0, 1], [0, 0]])
    assert (H.R, H.R_inv, H.theta, H.theta_inv) == (old.R, old.R_inv, old.theta,
                                                    old.theta_inv)
    semion = group_algebra(K4, [4], bichar=[[1]], quad=[[-1]], name="z2_semion")
    assert verify_quasitriangular_ribbon(semion).ok


@pytest.mark.parametrize("n", [4, 6])
def test_old_double_data_rejected_at_higher_order(n):
    # bichar = quad = [[0, 1], [0, 0]] broke the ribbon axiom for n > 2; the
    # check runs before R is built
    with pytest.raises(HopfError, match="ribbon axiom"):
        group_algebra(Cyclotomic(n), [n, n], bichar=[[0, 1], [0, 0]],
                      quad=[[0, 1], [0, 0]])


@pytest.mark.parametrize("n", [4, 6])
def test_cyclic_group_ribbon_data_at_higher_order(n):
    H = group_algebra(Cyclotomic(n), [n], [[1]], [[-1]])
    rep = verify_quasitriangular_ribbon(H)
    assert rep.ok, rep.failures


def _dense_embed(H, slots, n):
    """sum R_pq e_p (slot s0) (x) e_q (slot s1) (x) u elsewhere, as dense
    Kronecker products of whole vectors."""
    out = [H.field.zero()] * H.dim ** n
    for a, b, coeff in H.r_pairs():
        parts = [a if s == slots[0] else b if s == slots[1] else H.u for s in range(n)]
        out = [x + coeff * y for x, y in zip(out, H.tensor_vectors(*parts))]
    return out


def test_embed_matches_dense_kronecker(bundled):
    from cyclotome.hopf import _embed
    algebras = [H for H, _ in bundled.values()]
    algebras.append(drinfeld_double_of_cyclic(Cyclotomic(3), 3))
    for H in algebras:
        for slots in ((0, 1), (0, 2), (1, 2), (2, 0)):
            assert _embed(H, H.R, slots, 3) == _dense_embed(H, slots, 3), (H.name, slots)
        assert _embed(H, H.R, (0, 1), 2) == H.R, H.name


def test_pivot_cached_until_ribbon_data_change(bundled, monkeypatch):
    import cyclotome.hopf as hopf
    H = drinfeld_double_of_cyclic(K4, 2)
    calls = []
    real = hopf.drinfeld_element

    def counted(H_):
        calls.append(1)
        return real(H_)

    monkeypatch.setattr(hopf, "drinfeld_element", counted)
    g = pivot_element(H)
    for _ in range(3):
        assert pivot_element(H) == g
    assert len(calls) == 1
    # a new theta_inv, then an in-place edit of it, each give a fresh pivot
    H.theta_inv = list(H.u)
    assert pivot_element(H) == H.multiply(real(H), H.u)
    H.theta_inv[0] = K4.from_int(2)
    assert pivot_element(H) == H.multiply(real(H), H.theta_inv)
    H.R = list(H.unit_power(2))
    assert pivot_element(H) == H.multiply(real(H), H.theta_inv)
    assert len(calls) == 4


def test_each_distinct_literal_of_a_file_is_parsed_once(monkeypatch):
    """z2_semion.json holds 85 scalar literals, 10 of them distinct: loading it
    parses each distinct one once, and gives the same maps, vectors and
    simples as parsing every literal on its own."""
    import cyclotome.hopf as hopf

    parsed = []
    parse = FieldSpec.parse

    def counted(field, text):
        parsed.append(text)
        return parse(field, text)

    monkeypatch.setattr(FieldSpec, "parse", counted)
    H, simples = load_algebra(DATA / "z2_semion.json")
    assert len(parsed) == len(set(parsed)) <= 10
    parsed.clear()
    monkeypatch.setattr(hopf, "literal_parser", lambda field: field.parse)
    H1, simples1 = load_algebra(DATA / "z2_semion.json")
    assert len(parsed) == 85
    for key in ("m", "Delta", "S", "S_inv", "epsilon", "u", "R", "R_inv", "theta",
                "theta_inv"):
        assert getattr(H, key) == getattr(H1, key), key
    assert [(V.name, V.dim, V.action) for V in simples] == \
        [(V.name, V.dim, V.action) for V in simples1]


# -- modular data from characters -------------------------------------------------------------


def _modular_algebras():
    """The three bundles with simples, and the doubles of Z/3 over Q(zeta_3)
    and of Z/4 over Q(i) with their characters as simples."""
    out = {name: load_algebra(DATA / f"{name}.json")
           for name in ("z2_trivial", "z2_semion", "double_z2")}
    for n in (3, 4):
        H = drinfeld_double_of_cyclic(Cyclotomic(n), n)
        out[f"double_z{n}"] = H, group_algebra_simples(H, [n, n])
    return out


MODULAR = _modular_algebras()


def _braiding_route(H, simples):
    """The modular data read off quantum traces: of the double braiding on each
    tensor product of simples, and of the twists on each simple."""
    F, n = H.field, len(simples)
    entries = {}
    for i, V in enumerate(simples):
        for j, W in enumerate(simples):
            s = quantum_trace(tensor_module(V, W), braiding(W, V).compose(braiding(V, W)))
            if not s.is_zero():
                entries[(i, j)] = s
    s_matrix = LinearMap(F, TensorShape([n]), TensorShape([n]), entries)
    q = [qdim(V) for V in simples]
    dim_B = sum((x * x for x in q), F.zero())
    dplus = sum((x * quantum_trace(V, twist(V)) for x, V in zip(q, simples)), F.zero())
    dminus = sum((x * quantum_trace(V, twist_inverse(V)) for x, V in zip(q, simples)),
                 F.zero())
    modular = invert(s_matrix) is not None
    return (s_matrix, dplus, dminus, dim_B, modular, dplus == dminus,
            not dim_B.is_zero())


def _fields_of(md):
    return (md.s_matrix, md.delta_plus, md.delta_minus, md.dim_B, md.modular,
            md.anomaly_free, md.dim_invertible)


@pytest.mark.parametrize("name", sorted(MODULAR))
def test_character_route_matches_the_braiding_route(name):
    """S, Delta+-, dim(B) and every flag from the characters equal the quantum
    traces of the double braidings and twists, entry for entry."""
    H, simples = MODULAR[name]
    md = modular_data(H, simples)
    assert _fields_of(md) == _braiding_route(H, simples)
    assert md.report.ok


@pytest.mark.parametrize("name", sorted(set(MODULAR) - {"z2_trivial"}))
def test_swapped_characters_break_the_match(name, monkeypatch):
    """The comparison above sees a planted error: the characters of the first
    two simples swapped give a different S-matrix (on z2_trivial the two rows
    of S are equal, so the swap cannot be seen there)."""
    import cyclotome.hopf as hopf
    H, simples = MODULAR[name]
    real = hopf._character
    swap = {id(simples[0]): simples[1], id(simples[1]): simples[0]}
    monkeypatch.setattr(hopf, "_character", lambda V: real(swap.get(id(V), V)))
    planted = _fields_of(modular_data(H, simples))
    reference = _braiding_route(H, simples)
    assert planted[0] != reference[0]
    assert planted[1:] == reference[1:]


@pytest.mark.parametrize("dropped, message", [
    (("R", "theta_inv", "theta"), "braiding needs an R-matrix"),
    (("R",), "braiding needs an R-matrix"),
    (("theta_inv", "theta"), "pivot needs a ribbon element"),
    (("theta_inv",), "pivot needs a ribbon element"),
    (("theta",), "twist needs a ribbon element"),
])
def test_missing_ribbon_data_is_named(dropped, message):
    """double_z2 without R, theta^-1 or theta: modular_data raises the HopfError
    the braiding, the pivot or the twist raised before, in that order."""
    H, simples = load_algebra(DATA / "double_z2.json")
    for key in dropped:
        setattr(H, key, None)
    with pytest.raises(HopfError) as info:
        modular_data(H, simples)
    assert str(info.value) == message
