from pathlib import Path

import pytest

from cyclotome.coend import (
    CoendError, braided_coproduct, build_coend_hopf, coend_from_json, coend_to_json,
)
from cyclotome.cyclic_cat import CYCLIC, RCyclic, dualize_L, reindex_Phi
from cyclotome.cyclic_modules import (
    CyclicModuleError, apply_cyclic_duality, apply_dual_reindexing,
    apply_reindexing, build_paracyclic,
    check_relations, contracting_homotopy, cocyclic_module_from_coalgebra,
    cyclic_module_from_algebra, explicit_coend_cocyclic, explicit_coend_cyclic,
    explicit_cocyclic_rotation, generator_keys, generator_levels,
    invariant_tensor_basis, r_cyclic_from_simple, transport, twisted_cyclicity_check,
)
from cyclotome.fields import Cyclotomic, Rationals
from cyclotome.hopf import (
    coadjoint_blocks, drinfeld_double_of_cyclic, invariance_blocks, load_algebra,
)
from cyclotome.linalg import LinearMap, SubspaceBasis, permute_factors, stack

Q = Rationals()
K4 = Cyclotomic(4)
DATA = Path(__file__).resolve().parents[1] / "src" / "cyclotome" / "data"


@pytest.fixture(scope="module")
def algebras():
    return {name: load_algebra(DATA / f"{name}.json")
            for name in ("z2_trivial", "z2_semion", "sweedler_h4", "double_z2")}


@pytest.fixture(scope="module")
def coends(algebras):
    out = {}
    for name, (H, simples) in algebras.items():
        out[name] = build_coend_hopf(H, simples or None)
    return out


# -- invariant tensors ---------------------------------------------------------------


def _dense_invariant_dim_oracle(H, n):
    """Independent brute-force oracle: assemble the constraint system densely
    from the Sweedler iterates and row-reduce with textbook elimination."""
    d = H.dim
    dim = d ** n
    rows = []
    for k in range(d):
        sw = H.sweedler_iterate(H.basis_vector(k), 2 * n)
        eps_k = H.epsilon.entry(0, k)
        # matrix of X |-> X <| e_k, built entry by entry on basis tensors
        mat = [[Q_zero(H) for _ in range(dim)] for _ in range(dim)]
        for col in range(dim):
            digits = []
            rest = col
            for _ in range(n):
                digits.append(rest % d)
                rest //= d
            digits.reverse()
            out = [H.field.zero()] * dim
            for idx, coeff in enumerate(sw):
                if coeff.is_zero():
                    continue
                sdig = []
                rest2 = idx
                for _ in range(2 * n):
                    sdig.append(rest2 % d)
                    rest2 //= d
                sdig.reverse()
                term = [H.field.one()]
                for slot in range(n):
                    p, q = sdig[2 * slot], sdig[2 * slot + 1]
                    factor = H.multiply(
                        H.antipode_vec(H.basis_vector(p)),
                        H.multiply(H.basis_vector(digits[slot]), H.basis_vector(q)))
                    new = []
                    for acc in term:
                        for v in factor:
                            new.append(acc * v)
                    term = new
                out = [a + coeff * b for a, b in zip(out, term)]
            for r in range(dim):
                mat[r][col] = mat[r][col] + out[r]
        for rr in range(dim):
            mat[rr][rr] = mat[rr][rr] - eps_k
        rows.extend(mat)
    # dense Gaussian elimination
    ncols = dim
    rank = 0
    pivot_col = 0
    r0 = 0
    for pivot_col in range(ncols):
        sel = None
        for r in range(r0, len(rows)):
            if not rows[r][pivot_col].is_zero():
                sel = r
                break
        if sel is None:
            continue
        rows[r0], rows[sel] = rows[sel], rows[r0]
        inv = rows[r0][pivot_col].inverse()
        rows[r0] = [v * inv for v in rows[r0]]
        for r in range(len(rows)):
            if r != r0 and not rows[r][pivot_col].is_zero():
                f = rows[r][pivot_col]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[r0])]
        r0 += 1
        rank += 1
    return ncols - rank


def Q_zero(H):
    return H.field.zero()


def test_invariant_dims_commutative(algebras):
    H, _ = algebras["z2_trivial"]
    for n in range(1, 5):
        assert invariant_tensor_basis(H, n).dim == 2 ** n


def test_invariant_dims_h4_against_dense_oracle(algebras):
    H, _ = algebras["sweedler_h4"]
    # frozen values, recomputed here by the independent dense oracle
    expected = {1: 1, 2: 5}
    for n, dim in expected.items():
        assert invariant_tensor_basis(H, n).dim == dim
        assert _dense_invariant_dim_oracle(H, n) == dim


def test_invariant_dims_h4_through_level_5(algebras):
    """Frozen values up to level 5, whose system stacks four 1024 x 1024
    blocks: the W/Wco models at N = 4 rest on them."""
    H, _ = algebras["sweedler_h4"]
    assert [invariant_tensor_basis(H, n).dim for n in range(1, 6)] == [1, 5, 18, 68, 264]


def test_commutative_invariants_are_whole_tensor_powers(algebras, coends):
    """For a commutative H the coadjoint action is eps(h) x, so the invariants
    of H^(x)n are the whole tensor power in its standard basis, and so are
    the states Hom(1, C^(x)n) of double_z2; sweedler_h4's are proper."""
    for name in ("z2_trivial", "z2_semion", "double_z2"):
        H, _ = algebras[name]
        for n in range(1, 5):
            assert invariant_tensor_basis(H, n).whole, (name, n)
    H, _ = algebras["sweedler_h4"]
    for n in range(1, 4):
        assert not invariant_tensor_basis(H, n).whole, n
    for n in (1, 2):
        assert coends["double_z2"].invariant_basis(n).whole, n


def _kernel_route(H, n):
    return SubspaceBasis.from_kernel(
        H.field, stack(invariance_blocks(coadjoint_blocks(H, n).__getitem__, H.epsilon)))


def test_invariant_levels_match_the_kernel_route(algebras):
    """The whole levels of the commutative bundles, and sweedler_h4's proper
    ones, are the kernels of the stacked blocks ad_n(e_k) - eps(e_k) id."""
    for name, (H, _) in algebras.items():
        for n in range(1, 5):
            basis, kernel = invariant_tensor_basis(H, n), _kernel_route(H, n)
            assert basis.vectors == kernel.vectors, (name, n)
            assert basis.indicator_cols == kernel.indicator_cols, (name, n)


def test_commutative_levels_build_no_coadjoint_level_above_one():
    for name in ("z2_trivial", "z2_semion", "double_z2"):
        H, _ = load_algebra(DATA / f"{name}.json")
        for n in range(1, 5):
            assert invariant_tensor_basis(H, n).whole, (name, n)
        assert len(H._coadjoint[1]) == 2, name    # ad_0 and ad_1 only


def test_doubled_counit_takes_the_kernel_route():
    """With eps doubled on z2_trivial, ad_1(e_k) = id is no longer eps(e_k) id:
    the levels are the kernel of -id stacked, which is zero."""
    H, _ = load_algebra(DATA / "z2_trivial.json")
    H.epsilon = H.epsilon.scaled(H.field.from_int(2))
    for n in range(1, 4):
        basis, kernel = invariant_tensor_basis(H, n), _kernel_route(H, n)
        assert basis.dim == 0 and basis.vectors == kernel.vectors, n
    assert len(H._coadjoint[1]) == 4


def test_invariant_tensors_multiply_only_nonzero_blocks(monkeypatch):
    """On a fresh sweedler_h4, the invariants of H^(x)3 cost about 90 products
    for ad_1, one product per pair of nonzero entries that the tensor rule
    combines (48 at level 2, 224 at level 3), and 256 in the elimination: 620.
    Composing the whole d^4 x d^3 action with a selector per e_k cost 9,984."""
    from cyclotome.fields import FieldSpec
    from cyclotome.hopf import sweedler_h4
    H = sweedler_h4(Q)
    calls = []
    mul = FieldSpec._mul

    def counted(self, a, b):
        calls.append(1)
        return mul(self, a, b)

    monkeypatch.setattr(FieldSpec, "_mul", counted)
    assert invariant_tensor_basis(H, 3).dim == 18
    assert len(calls) <= 1000
    calls.clear()
    assert invariant_tensor_basis(H, 3).dim == 18   # the levels are cached on H
    assert len(calls) <= 300


def test_unit_is_invariant(algebras):
    for name, (H, _) in algebras.items():
        basis = invariant_tensor_basis(H, 1)
        assert basis.coordinates(H.u) is not None, name


# -- the explicit model -----------------------------------------------------------------


@pytest.mark.parametrize("name", ["z2_trivial", "sweedler_h4", "double_z2", "z2_semion"])
def test_explicit_cyclic_relations(name, algebras):
    H, _ = algebras[name]
    N = 3 if name != "z2_semion" else 2
    W = explicit_coend_cyclic(H, N)
    rep = check_relations(W)
    assert rep.ok, rep.failures[:4]


@pytest.mark.parametrize("name", ["z2_trivial", "sweedler_h4", "double_z2"])
def test_explicit_cocyclic_relations(name, algebras):
    H, _ = algebras[name]
    W = explicit_coend_cocyclic(H, 3)
    rep = check_relations(W)
    assert rep.ok, rep.failures[:4]


def test_explicit_models_hold_where_the_coend_gates_fail(monkeypatch):
    """The explicit models read only H's structure constants: on D(Z3) they
    pass their relation suites with the coend's carrier stage made to fail."""
    import cyclotome.coend as coend

    def failing_carrier(H):
        raise CoendError("the carrier stage is disabled")

    monkeypatch.setattr(coend, "coend_carrier", failing_carrier)
    H = drinfeld_double_of_cyclic(Cyclotomic(3), 3)
    for build in (explicit_coend_cyclic, explicit_coend_cocyclic):
        rep = check_relations(build(H, 2))
        assert rep.ok, rep.failures[:4]
    with pytest.raises(CoendError, match="the carrier stage is disabled"):
        build_coend_hopf(H)


def test_tau_power_starts_from_t(algebras, monkeypatch):
    """t^e is |e| - 1 products starting from t (no product by one), with t
    inverted once for e < 0, and equals the naive power."""
    import cyclotome.cyclic_modules as cm
    H, _ = algebras["sweedler_h4"]
    W = explicit_coend_cyclic(H, 2)
    plain_invert, plain_compose = cm.invert, LinearMap.compose
    inverted, composed = [], []
    monkeypatch.setattr(cm, "invert", lambda m: inverted.append(m) or plain_invert(m))
    monkeypatch.setattr(LinearMap, "compose",
                        lambda a, b: composed.append(1) or plain_compose(a, b))
    for n in range(3):
        t = W.tau(n)
        t_inv = plain_invert(t)
        for e in range(-(n + 2), n + 3):
            expected = LinearMap.identity(Q, t.domain)
            for _ in range(abs(e)):
                expected = plain_compose(t if e > 0 else t_inv, expected)
            composed.clear()
            inverted.clear()
            power = W.tau_power(n, e)
            # the count includes invert's certificate product
            assert len(composed) == max(abs(e) - 1, 0) + (e < 0), (n, e)
            assert len(inverted) == (e < 0), (n, e)
            assert power == expected, (n, e)
        assert W.tau_power(n, 1) is t
    assert check_relations(W).ok


def test_rotation_is_plain_for_trivial_R(algebras):
    H, _ = algebras["z2_trivial"]
    W = explicit_coend_cyclic(H, 2)
    for n in range(3):
        # the invariant basis is the full tensor power here, in standard order,
        # so t_n must be the plain rotation permutation
        perm = permute_factors(Q, [2] * (n + 1), [n] + list(range(n)))
        assert W.tau(n).entries == perm.entries


def test_level_zero_rotation_is_identity(algebras):
    for name, (H, _) in algebras.items():
        W = explicit_coend_cyclic(H, 1)
        assert W.tau(0) == LinearMap.identity(H.field, W.tau(0).domain), name


def test_face_degeneracy_point_values(algebras):
    H, _ = algebras["z2_trivial"]
    W = explicit_coend_cyclic(H, 2)
    # t_1 swaps the two slots: g (x) 1 -> 1 (x) g in the standard invariant basis
    g_idx, one_idx = 1, 0
    col = g_idx * 2 + one_idx
    out = W.tau(1).apply([Q.one() if i == col else Q.zero() for i in range(4)])
    expect_idx = one_idx * 2 + g_idx
    assert [i for i, v in enumerate(out) if not v.is_zero()] == [expect_idx]
    # d_0 multiplies the two slots: g (x) g -> 1
    col = 1 * 2 + 1
    out = W.coface(1, 0).apply([Q.one() if i == col else Q.zero() for i in range(4)])
    assert [i for i, v in enumerate(out) if not v.is_zero()] == [0]
    # s_0 inserts the unit after the first slot: g -> g (x) 1
    out = W.codegeneracy(0, 0).apply(
        [Q.one() if i == 1 else Q.zero() for i in range(2)])
    assert [i for i, v in enumerate(out) if not v.is_zero()] == [2]


def test_evaluate_morphism_consistency(algebras):
    H, _ = algebras["sweedler_h4"]
    W = explicit_coend_cyclic(H, 2)
    from cyclotome.cyclic_cat import compose, coface, rotation
    # two presentations of the same morphism evaluate equally
    f = compose(rotation(2, CYCLIC), coface(2, 1, CYCLIC))
    g = compose(coface(2, 0, CYCLIC), rotation(1, CYCLIC))
    assert f == g
    assert W.evaluate_morphism(f).entries == W.evaluate_morphism(g).entries
    # the rotation power collapses to the identity
    t2 = W.evaluate_morphism(rotation(1, CYCLIC, 2))
    assert t2 == LinearMap.identity(Q, t2.domain)


# -- generic vs explicit: the convention-pinning oracle -----------------------------------


@pytest.mark.parametrize("name,N", [("z2_trivial", 3), ("sweedler_h4", 2),
                                    ("double_z2", 2)])
def test_generic_coalgebra_route_matches_explicit(name, N, coends):
    cd = coends[name]
    M = cocyclic_module_from_coalgebra(cd, N)
    assert check_relations(M).ok
    dual = apply_cyclic_duality(M)
    W = explicit_coend_cyclic(cd.algebra, N)
    for n in range(N + 1):
        assert dual.spaces[n].vectors == W.spaces[n].vectors, (name, n)
    for key in W.gen:
        assert dual.gen[key].entries == W.gen[key].entries, (name, key)


@pytest.mark.parametrize("name,N", [("z2_trivial", 3), ("sweedler_h4", 2),
                                    ("double_z2", 2)])
def test_generic_algebra_route_matches_explicit(name, N, coends):
    cd = coends[name]
    M = cyclic_module_from_algebra(cd, N)
    assert check_relations(M).ok
    dual = apply_cyclic_duality(M)
    W = explicit_coend_cocyclic(cd.algebra, N)
    for key in W.gen:
        assert dual.gen[key].entries == W.gen[key].entries, (name, key)


def test_dual_formulas_independent_implementation(coends):
    # the transported faces equal the direct comultiplication-insertion
    # formulas computed from scratch on the Hom spaces
    cd = coends["sweedler_h4"]
    N = 2
    M = cocyclic_module_from_coalgebra(cd, N)
    dual = apply_cyclic_duality(M)
    V = cd.carrier
    F = cd.field
    co = cd.Delta
    d = V.dim
    for n in range(1, N + 1):
        for i in range(n):
            parts = []
            if i > 0:
                parts.append(LinearMap.identity(F, d ** i))
            parts.append(co)
            if n - 1 - i > 0:
                parts.append(LinearMap.identity(F, d ** (n - 1 - i)))
            ins = parts[0]
            for p in parts[1:]:
                ins = p if ins is None else ins.tensor(p)
            direct = M.spaces[n].restrict(ins.transpose(), M.spaces[n - 1])
            assert direct.entries == dual.coface(n, i).entries, (n, i)


def test_duality_twice_is_the_index_shift(coends):
    """L o L is the index shift of the cyclic category: on L(L(M)) the
    (co)face and the (co)degeneracy i at level n are those of M at i + 1 for
    i < n, and the rotations are those of M."""
    cd = coends["sweedler_h4"]
    for M in (cyclic_module_from_algebra(cd, 2), cocyclic_module_from_coalgebra(cd, 2)):
        LL = apply_cyclic_duality(apply_cyclic_duality(M))
        assert LL.chirality == M.chirality
        for key in generator_keys(2):
            kind, n = key[0], key[1]
            if kind == "tau":
                assert LL.gen[key].entries == M.gen[key].entries, key
            elif key[2] < n:
                assert LL.gen[key].entries == M.gen[(kind, n, key[2] + 1)].entries, key
        assert check_relations(LL).ok


@pytest.mark.parametrize("name", ["z2_trivial", "z2_semion", "sweedler_h4", "double_z2"])
def test_dual_reindexing_is_the_composite_transport(name, coends):
    """One transport along Phi o L gives the cyclic dual of the reindexing,
    on every generator of the cocyclic and the cyclic module of each bundle;
    L o Phi, the other order, does not."""
    cd = coends[name]
    for M in (cocyclic_module_from_coalgebra(cd, 2), cyclic_module_from_algebra(cd, 2)):
        one, two = apply_dual_reindexing(M), apply_cyclic_duality(apply_reindexing(M))
        assert (one.chirality, one.provenance) == (two.chirality, two.provenance)
        assert one.gen.keys() == two.gen.keys()
        for key in two.gen:
            assert one.gen[key].entries == two.gen[key].entries, (name, M.chirality, key)
        swapped = transport(M, lambda word: dualize_L(reindex_Phi(word)), one.chirality,
                            "reindexing of cyclic dual")
        assert any(swapped.gen[key].entries != g.entries for key, g in two.gen.items())


def test_reindexing(coends):
    cd = coends["double_z2"]
    M = cocyclic_module_from_coalgebra(cd, 3)
    R = apply_reindexing(M)
    RR = apply_reindexing(R)
    for key in M.gen:
        assert RR.gen[key].entries == M.gen[key].entries, key
    for n in range(4):
        assert R.tau(n).entries == M.tau_power(n, -1).entries
    for n in range(1, 4):
        assert R.coface(n, 0).entries == M.coface(n, n).entries
    assert check_relations(R).ok


def test_contracting_homotopy(coends):
    for name, N in (("z2_trivial", 3), ("sweedler_h4", 2)):
        cd = coends[name]
        M = cocyclic_module_from_coalgebra(cd, N)
        rep = contracting_homotopy(cd, M, cd.unit)
        assert rep.ok, (name, rep.failures)


def test_contracting_homotopy_rejects_bad_section(coends):
    cd = coends["z2_trivial"]
    M = cocyclic_module_from_coalgebra(cd, 2)
    bad = [cd.field.zero()] * cd.dim
    with pytest.raises(CyclicModuleError):
        contracting_homotopy(cd, M, bad)


# -- paracyclic / r-cyclic ------------------------------------------------------------------


def test_paracyclic_twisted_cyclicity(coends):
    cd = coends["double_z2"]
    P = build_paracyclic(cd, 2, "cyclic")
    assert check_relations(P).ok
    assert twisted_cyclicity_check(P).ok
    Pc = build_paracyclic(cd, 2, "cocyclic")
    assert check_relations(Pc).ok
    assert twisted_cyclicity_check(Pc).ok


def test_paracyclic_rejects_an_unknown_chirality(coends):
    with pytest.raises(CyclicModuleError, match="unknown chirality"):
        build_paracyclic(coends["z2_trivial"], 1, "para")


def test_paracyclic_symmetric_case(coends):
    cd = coends["z2_trivial"]
    P = build_paracyclic(cd, 2, "cyclic")
    for n in range(3):
        assert P.tau_power(n, n + 1) == LinearMap.identity(Q, P.tau(n).domain)


def test_paracyclic_rotation_relation_instance(coends):
    # tau_n sigma_0 = sigma_n tau_{n+1}^2 at n = 1
    cd = coends["double_z2"]
    P = build_paracyclic(cd, 2, "cocyclic")
    lhs = P.tau(1).compose(P.codegeneracy(1, 0))
    rhs = P.codegeneracy(1, 1).compose(P.tau_power(2, 2))
    assert lhs.entries == rhs.entries


def test_r_cyclic_from_semion_simple(coends, algebras):
    cd = coends["z2_semion"]
    _, simples = algebras["z2_semion"]
    P = build_paracyclic(cd, 2, "cyclic")
    M, scalar, r = r_cyclic_from_simple(P, simples[1])
    assert r == 4
    z = K4.generator()
    assert scalar in (z, -z)
    for rp in range(1, 4):
        assert scalar ** rp != K4.one()
    assert M.variant == RCyclic(4)
    assert check_relations(M).ok
    # the hom spaces vanish off the trivial isotypic component here
    assert [M.dim(n) for n in range(3)] == [0, 0, 0]


def test_r_cyclic_trivial_simple(coends, algebras):
    cd = coends["z2_semion"]
    _, simples = algebras["z2_semion"]
    P = build_paracyclic(cd, 2, "cyclic")
    M, scalar, r = r_cyclic_from_simple(P, simples[0])
    assert r == 1 and scalar == K4.one()
    assert [M.dim(n) for n in range(3)] == [4, 16, 64]
    assert check_relations(M).ok
    # nonvacuous negative control: tau_0^... on nonzero spaces
    t1 = M.tau(1)
    assert t1.compose(t1).entries != t1.entries or t1 == LinearMap.identity(K4, t1.domain)


def test_r_cyclic_levels_are_kernel_bases_and_restrict_without_solve(coends, algebras,
                                                                     monkeypatch):
    """Hom(V^(x)(n+1), simple) is the kernel basis of the intertwiner system,
    with indicator columns, so the restriction onto it makes no linear solve
    (288 on this simple when the levels were bare vectors)."""
    from cyclotome import hopf, linalg
    calls = []
    solve = linalg.solve

    def counted(*args):
        calls.append(1)
        return solve(*args)

    monkeypatch.setattr(linalg, "solve", counted)
    monkeypatch.setattr(hopf, "solve", counted)
    P = build_paracyclic(coends["double_z2"], 2, "cyclic")
    calls.clear()
    M, _, _ = r_cyclic_from_simple(P, algebras["double_z2"][1][0])
    assert calls == []
    for n, basis in M.spaces.items():
        cols = basis.indicator_cols
        assert basis.dim and len(cols) == basis.dim
        assert [[v[c] for c in cols] for v in basis.vectors] == \
            [[Q.one() if j == k else Q.zero() for j in range(basis.dim)]
             for k in range(basis.dim)], n


@pytest.fixture
def tensor_products(monkeypatch):
    """The list that gets one entry per tensor_module call, wherever the
    package calls it from."""
    from cyclotome import coend, cyclic_modules, hopf
    calls = []
    tensor_module = hopf.tensor_module

    def counted(*args, **kwargs):
        calls.append(1)
        return tensor_module(*args, **kwargs)

    for mod in (hopf, coend, cyclic_modules):
        monkeypatch.setattr(mod, "tensor_module", counted, raising=False)
    return calls


@pytest.mark.parametrize("build", [cocyclic_module_from_coalgebra, build_paracyclic,
                                   cyclic_module_from_algebra])
def test_object_level_builders_make_each_tensor_power_once(coends, tensor_products, build):
    """C^(x)(n+1) is built once per level, each from the one below, and the
    axiom check reuses C (x) C: N tensor products to level N on a record that
    holds no power yet (10 when every rotation and every level built its
    power from scratch and the axiom check built its own square)."""
    cd = coends["sweedler_h4"]
    fresh = coend_from_json(cd.algebra, coend_to_json(cd))
    tensor_products.clear()
    M = build(fresh, 3, "cyclic") if build is build_paracyclic else build(fresh, 3)
    assert len(tensor_products) == 3
    assert check_relations(M).ok


def test_state_module_makes_one_tensor_product(algebras, tensor_products):
    """The state module at N = 2 reads C, C (x) C and C^(x)3 from the coend
    record, whose build already made C (x) C: one tensor product (six when
    the coalgebra object and the state spaces each built their own powers)."""
    from cyclotome.tqft import build_rt_cocyclic
    H, simples = algebras["double_z2"]
    cd = build_coend_hopf(H, simples)
    tensor_products.clear()
    build_rt_cocyclic(cd, 2)
    assert len(tensor_products) <= 1


def test_cached_coend_feeds_the_object_level_builders(coends):
    """A coend read back from its cache entry has no regular module, i_H or
    section; the object-level builders never read them and give the built
    record's generators."""
    cd = coends["double_z2"]
    cached = coend_from_json(cd.algebra, coend_to_json(cd))
    assert cached.regular is None and cached.i_H is None and cached.section is None
    for build in (cocyclic_module_from_coalgebra, cyclic_module_from_algebra):
        M, built = build(cached, 2), build(cd, 2)
        assert M.gen.keys() == built.gen.keys()
        for key in built.gen:
            assert M.gen[key].entries == built.gen[key].entries, (build.__name__, key)


def test_r_cyclic_rejects_nonsimple(coends):
    cd = coends["double_z2"]
    P = build_paracyclic(cd, 1, "cyclic")
    from cyclotome.hopf import regular_module
    with pytest.raises(CyclicModuleError):
        r_cyclic_from_simple(P, regular_module(cd.algebra))


def test_braided_ordering_degenerate_on_bundled(algebras):
    # the wrapping coface that keeps the first braided-coproduct leg in front
    # ("one-two") equals the built one ("two-one") on every bundled algebra
    # because their braided coproducts are cocommutative; the relation suite
    # therefore cannot distinguish them here (recorded as a known degeneracy)
    H, _ = algebras["sweedler_h4"]
    from cyclotome.linalg import UNIT, block_flip, whisker
    db = braided_coproduct(H)
    assert block_flip(Q, H.dim, H.dim).compose(db) == db
    Wco = explicit_coend_cocyclic(H, 2)
    for n in (1, 2):
        swap = permute_factors(Q, [H.dim] * (n + 1), [1, 0] + list(range(2, n + 1)))
        one_two = explicit_cocyclic_rotation(H, n).compose(swap).compose(
            whisker(db, UNIT, H.dim ** (n - 1)))
        restricted = Wco.spaces[n - 1].restrict(one_two, Wco.spaces[n])
        assert restricted == Wco.coface(n, n), n


# -- the generator table ------------------------------------------------------------------


def test_every_builder_has_the_generator_table(algebras, coends):
    N = 2
    keys = set(generator_keys(N))
    for name, (H, simples) in algebras.items():
        cd = coends[name]
        P = build_paracyclic(cd, N, "cyclic")
        built = {"W": explicit_coend_cyclic(H, N), "Wco": explicit_coend_cocyclic(H, N),
                 "generic": cyclic_module_from_algebra(cd, N),
                 "genericco": cocyclic_module_from_coalgebra(cd, N),
                 "para": P, "paraco": build_paracyclic(cd, N, "cocyclic")}
        for i, simple in enumerate(simples):
            built[f"rcyclic{i}"] = r_cyclic_from_simple(P, simple)[0]
        for which, M in built.items():
            assert set(M.gen) == keys, (name, which)
    from cyclotome.tqft import build_rt_cocyclic, build_rt_cyclic
    for build in (build_rt_cocyclic, build_rt_cyclic):
        assert set(build(coends["double_z2"], 1).module.gen) == set(generator_keys(1))


def test_generator_levels_agree_with_tokens():
    from cyclotome.cyclic_cat import Token
    kinds = {"delta": "coface", "sigma": "codegeneracy", "tau": "tau"}
    for N in range(5):
        for key in generator_keys(N):
            tok = Token(kinds[key[0]], key[1], key[2] if len(key) > 2 else 1)
            covariant = (tok.source_level, tok.target_level)
            assert generator_levels("cocyclic", key) == covariant, key
            assert generator_levels("cyclic", key) == covariant[::-1], key


def test_r_cyclic_image_outside_hom_space_is_rejected(coends):
    # replace t_0 by the object map e_b |-> e_a, with T(e_a) != 0 for some
    # invariant functional T and e_b^* not invariant: T o t_0 = T(e_a) e_b^*
    # leaves Hom(V, 1), which the module's gate must reject
    from cyclotome.hopf import trivial_module
    cd = coends["sweedler_h4"]
    P = build_paracyclic(cd, 0, "cyclic")
    unit = trivial_module(cd.algebra)
    M, _, _ = r_cyclic_from_simple(P, unit)
    hom = M.spaces[0]
    d = cd.dim
    a = next(k for k in range(d) if any(not T[k].is_zero() for T in hom.vectors))
    b = next(k for k in range(d)
             if hom.coordinates([Q.one() if j == k else Q.zero() for j in range(d)]) is None)
    P.gen = {("tau", 0): LinearMap(Q, P.tau(0).domain, P.tau(0).codomain, {(a, b): Q.one()})}
    with pytest.raises(CyclicModuleError, match=r"\('tau', 0\): image leaves"):
        r_cyclic_from_simple(P, unit)
