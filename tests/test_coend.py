from pathlib import Path

import pytest

from cyclotome import coend, hopf, linalg
from cyclotome.coend import (
    CoendError, build_coend_algebra, build_coend_coalgebra, build_coend_hopf,
    character_checks, character_functional, characters_span_check, coend_carrier,
    coev_right, dinatural_component, end_and_drinfeld, ev_left, factor_through_coend,
    integrals, internal_character, pairing_value,
)
from cyclotome.fields import Cyclotomic, FieldSpec, Rationals
from cyclotome.hopf import (
    coadjoint_module, drinfeld_double_of_cyclic, group_algebra,
    group_algebra_simples, hom_space, pivot_inverse, regular_module, sweedler_h4,
    tensor_module, trivial_module,
)
from cyclotome.linalg import UNIT, LinearMap, kernel_and_rank, whisker

Q = Rationals()
K4 = Cyclotomic(4)


@pytest.fixture(scope="module")
def coends():
    out = {}
    Hz = group_algebra(Q, [2], name="z2_trivial")
    out["z2_trivial"] = build_coend_hopf(Hz, group_algebra_simples(Hz, [2]))
    HD = drinfeld_double_of_cyclic(Q, 2)
    out["double_z2"] = build_coend_hopf(HD, group_algebra_simples(HD, [2, 2]))
    Hs = group_algebra(K4, [4], bichar=[[1]], quad=[[-1]], name="z2_semion")
    out["z2_semion"] = build_coend_hopf(Hs, group_algebra_simples(Hs, [4]))
    out["sweedler_h4"] = build_coend_hopf(sweedler_h4(Q))
    return out


def test_gates_all_pass(coends):
    for name, cd in coends.items():
        assert cd.report.ok, (name, cd.report.failures)


def test_dinatural_component_values(coends):
    cd = coends["sweedler_h4"]
    H = cd.algebra
    # on the trivial module, i maps phi (x) x to phi(x) eps
    triv = trivial_module(H)
    i_triv = dinatural_component(H, triv, cd.carrier)
    out = i_triv.apply([Q.one()])
    assert out == cd.unit
    # on the regular module, i is surjective onto the dual space
    i_H = dinatural_component(H, regular_module(H), cd.carrier)
    assert kernel_and_rank(i_H)[1] == H.dim


def test_dinaturality_against_intertwiner(coends):
    cd = coends["sweedler_h4"]
    H = cd.algebra
    V = regular_module(H)
    W = coadjoint_module(H)
    i_V = dinatural_component(H, V, cd.carrier)
    i_W = dinatural_component(H, W, cd.carrier)
    eyeV = LinearMap.identity(Q, V.dim)
    eyeW = LinearMap.identity(Q, W.dim)
    for f in hom_space(V, W):
        lhs = i_V.compose(f.transpose().tensor(eyeV))
        rhs = i_W.compose(eyeW.tensor(f))
        assert lhs.entries == rhs.entries


def test_factor_through_identity(coends):
    cd = coends["double_z2"]
    H = cd.algebra
    stage = coend_carrier(H)
    phi = factor_through_coend(stage, stage.i_H, 1)
    assert phi == LinearMap.identity(Q, cd.dim)


def test_factor_through_counit(coends):
    cd = coends["z2_trivial"]
    H = cd.algebra
    eps = factor_through_coend(coend_carrier(H), ev_left(regular_module(H)), 1)
    assert eps == cd.counit
    # the counit evaluates functionals at the unit of the algebra
    assert [cd.counit.entry(0, k) for k in range(cd.dim)] == H.u


def test_coend_product_symmetric_case(coends):
    cd = coends["z2_trivial"]
    d = cd.dim
    for k in range(d):
        for a in range(d):
            for b in range(d):
                assert cd.m.entry(k, a * d + b) == cd.m.entry(k, b * d + a)


def test_integrals_double(coends):
    cd = coends["double_z2"]
    Lam, lam = integrals(cd)
    F = cd.field
    lam_L = sum((a * b for a, b in zip(lam, Lam)), F.zero())
    assert lam_L == F.one()
    eps_L = sum((cd.counit.entry(0, k) * Lam[k] for k in range(cd.dim)), F.zero())
    assert eps_L == F.from_int(4)
    assert cd.dim_B == F.from_int(4)
    assert pairing_value(cd, Lam, Lam) == F.from_int(4)


def test_integrals_trivial(coends):
    cd = coends["z2_trivial"]
    Lam, lam = integrals(cd)
    eps_L = sum((cd.counit.entry(0, k) * Lam[k] for k in range(cd.dim)), Q.zero())
    assert eps_L == Q.from_int(2)
    # Lambda is twice the indicator functional of the unit basis element
    assert Lam == [Q.from_int(2), Q.zero()]


def test_integrals_absent_for_sweedler(coends):
    with pytest.raises(CoendError):
        integrals(coends["sweedler_h4"])


def test_factorizability_triad(coends):
    for name, expected in (("double_z2", True), ("z2_semion", False),
                           ("z2_trivial", False), ("sweedler_h4", False)):
        end, D, flags = end_and_drinfeld(coends[name])
        assert end.report.ok, (name, end.report.failures)
        assert len(set(flags.values())) == 1, name
        assert flags["pairing_nondegenerate"] is expected, name


def test_characters(coends):
    cd = coends["double_z2"]
    simples = cd.caches["simples"]
    # chi of the trivial module is the unit of the coend
    chi0 = internal_character(cd, trivial_module(cd.algebra))
    assert chi0 == cd.unit
    span = characters_span_check(cd)
    assert span.ok, span.failures
    assert cd.invariant_basis(1).dim == 4
    for V in simples:
        assert character_checks(cd, V).ok


def test_character_tracelike_on_sweedler(coends):
    cd = coends["sweedler_h4"]
    V = regular_module(cd.algebra)
    rep = character_checks(cd, V)
    assert rep.ok, rep.failures


def test_antipode_properties(coends):
    for name, cd in coends.items():
        assert cd.antipode.compose(cd.antipode) == cd.twist_map, name
        eye = LinearMap.identity(cd.field, cd.dim)
        assert cd.pairing.compose(cd.antipode.tensor(eye)) == \
            cd.pairing.compose(eye.tensor(cd.antipode)), name


def test_inconsistent_diagram_rejected(coends):
    cd = coends["double_z2"]
    H = cd.algebra
    # a random non-dinatural right-hand side must be rejected
    bad = ev_left(regular_module(H))
    shuffled = LinearMap(Q, bad.domain, bad.codomain,
                         {(0, 3): Q.one(), (0, 5): Q.one()})
    with pytest.raises(CoendError):
        factor_through_coend(coend_carrier(H), shuffled, 1)


def test_compose_reads_few_entries_per_product_on_the_d_z3_coend(monkeypatch):
    """compose reads a whisker operand through its record, at the cost of
    op's entries; a whisker written out inside compose counts in full."""
    counts = {"read": 0, "products": 0}
    inside = [False]
    compose, mul, written_out = LinearMap.compose, FieldSpec._mul, linalg._whisker_entries

    def counted_mul(field, a, b):
        counts["products"] += inside[0]
        return mul(field, a, b)

    def counted_written_out(op, left, right):
        entries = written_out(op, left, right)
        counts["read"] += inside[0] * len(entries)
        return entries

    def counted_compose(second, first):
        for m in (second, first):
            counts["read"] += len(m._whisker[0].entries if m._whisker else m.entries)
        inside[0] = True
        try:
            return compose(second, first)
        finally:
            inside[0] = False

    monkeypatch.setattr(FieldSpec, "_mul", counted_mul)
    monkeypatch.setattr(linalg, "_whisker_entries", counted_written_out)
    monkeypatch.setattr(LinearMap, "compose", counted_compose)
    build_coend_hopf(drinfeld_double_of_cyclic(Cyclotomic(3), 3))
    assert counts["products"] > 0
    assert counts["read"] <= 2 * counts["products"], counts


# -- dense references: the coend's maps read entry by entry ----------------------------


def dense_dinatural(H, V, carrier):
    """i_V entry by entry: (k, a v + b) is entry (a, b) of rho(k)."""
    entries = {}
    for a in range(V.dim):
        for b in range(V.dim):
            for k in range(H.dim):
                val = V.rho(k).entry(a, b)
                if not val.is_zero():
                    entries[(k, a * V.dim + b)] = val
    return LinearMap(H.field, V.dim * V.dim, carrier.dim, entries)


def dense_coev_right(V):
    gi = V.rho_of(pivot_inverse(V.algebra))
    d = V.dim
    entries = {}
    for j in range(d):
        for r in range(d):
            v = gi.entry(r, j)
            if not v.is_zero():
                entries[(j * d + r, 0)] = v
    return LinearMap(V.algebra.field, UNIT, d * d, entries)


def dense_pairing_value(cd, x, y):
    out = cd.field.zero()
    for _, ab in cd.pairing.entries:
        a, b = divmod(ab, cd.dim)
        out = out + cd.pairing.entry(0, ab) * x[a] * y[b]
    return out


def dense_character_functional(cd, V):
    chi = internal_character(cd, V)
    out = [cd.field.zero()] * cd.dim
    for _, ab in cd.pairing.entries:
        a, b = divmod(ab, cd.dim)
        out[b] = out[b] + cd.pairing.entry(0, ab) * chi[a]
    return out


def dense_contractions(cd, Om):
    """(w (x) id)(id (x) Om) and (id (x) w)(Om (x) id) as maps C -> C."""
    F, d = cd.field, cd.dim
    left, right = {}, {}
    for ab, v in enumerate(Om):
        a, b = divmod(ab, d)
        for c in range(d):
            w = cd.pairing.entry(0, c * d + a)
            left[(b, c)] = left.get((b, c), F.zero()) + w * v
            w = cd.pairing.entry(0, b * d + c)
            right[(a, c)] = right.get((a, c), F.zero()) + v * w
    return LinearMap(F, d, d, left), LinearMap(F, d, d, right)


def modules_of(cd):
    """The regular and coadjoint modules, each simple, and C (x) C."""
    H, C = cd.algebra, cd.carrier
    return [regular_module(H), C, *cd.caches.get("simples", []), tensor_module(C, C)]


def sample_vectors(cd):
    F, d = cd.field, cd.dim
    basis = [[F.one() if i == k else F.zero() for i in range(d)] for k in range(d)]
    return basis + [cd.unit, [F.from_int(k + 1) for k in range(d)],
                    [F.from_int(k * k - 2) for k in range(d)]]


def test_dinatural_component_matches_the_dense_reference(coends):
    for name, cd in coends.items():
        for V in modules_of(cd):
            assert dinatural_component(cd.algebra, V, cd.carrier) == \
                dense_dinatural(cd.algebra, V, cd.carrier), (name, V.name)


def test_coev_right_matches_the_dense_reference(coends):
    for name, cd in coends.items():
        for V in modules_of(cd):
            assert coev_right(V) == dense_coev_right(V), (name, V.name)


def test_pairing_value_matches_the_dense_reference(coends):
    for name, cd in coends.items():
        vecs = sample_vectors(cd)
        for x in vecs:
            for y in vecs:
                assert pairing_value(cd, x, y) == dense_pairing_value(cd, x, y), name


def test_character_functional_matches_the_dense_reference(coends):
    for name, cd in coends.items():
        for V in modules_of(cd):
            assert character_functional(cd, V) == dense_character_functional(cd, V), \
                (name, V.name)


def test_copairing_contractions_match_the_dense_reference(coends):
    """The two side conditions of the copairing are whiskers of the pairing."""
    for name, cd in coends.items():
        F, c = cd.field, cd.dim
        Om = [F.from_int((k * 7) % 5 - 2) for k in range(cd.dim ** 2)]
        om_map = LinearMap.from_function(F, UNIT, c * c, lambda _: enumerate(Om))
        left, right = dense_contractions(cd, Om)
        assert whisker(cd.pairing, UNIT, c).compose(whisker(om_map, c, UNIT)) == left, name
        assert whisker(cd.pairing, c, UNIT).compose(whisker(om_map, UNIT, c)) == right, name
    cd = coends["double_z2"]
    eye = LinearMap.identity(cd.field, cd.dim)
    assert dense_contractions(cd, cd.Omega) == (eye, eye)


def test_integral_formula_matches_the_dense_reference(coends):
    """(S (x) w (x) id)(DL (x) DL) is whisker(w, C, C) after whisker(S, 1, C^3)
    on DL (x) DL, and the copairing is the inverse pairing matrix read as an
    element of C (x) C."""
    cd = coends["double_z2"]
    F, d = cd.field, cd.dim
    dL = cd.Delta.apply(cd.integral)
    om_raw = [F.zero()] * (d * d)
    for ab, v1 in enumerate(dL):
        a, b = divmod(ab, d)
        for ef, v2 in enumerate(dL):
            e, f = divmod(ef, d)
            for s in range(d):
                om_raw[s * d + f] += (cd.antipode.entry(s, a) * v1 * v2
                                      * cd.pairing.entry(0, b * d + e))
    assert any(not v.is_zero() for v in om_raw)
    dL_map = cd.Delta.compose(cd.vector_map(cd.integral))
    composite = whisker(cd.pairing, d, d).compose(whisker(cd.antipode, UNIT, d ** 3))
    assert composite.compose(dL_map.tensor(dL_map)).apply([F.one()]) == om_raw
    scale = pairing_value(cd, cd.integral, cd.integral).inverse()
    assert [scale * v for v in om_raw] == cd.Omega
    Winv = linalg.invert(coend._pairing_matrix(cd))
    assert cd.Omega == [Winv.entry(a, b) for a in range(d) for b in range(d)]


def test_integral_formula_needs_the_antipode_on_d_z3():
    """The antipode of D(Z3)'s coend is not the identity: the integral formula
    gives the inverse copairing with S on leg 0 and not without it, and the
    build passes every gate."""
    H = drinfeld_double_of_cyclic(Cyclotomic(3), 3)
    cd = build_coend_hopf(H, group_algebra_simples(H, [3, 3]))
    assert cd.report.ok and cd.report.entries
    F, d = cd.field, cd.dim
    assert cd.antipode != LinearMap.identity(F, d)
    dL = cd.Delta.compose(cd.vector_map(cd.integral))
    scale = pairing_value(cd, cd.integral, cd.integral).inverse()
    middle = whisker(cd.pairing, d, d)
    with_s = middle.compose(whisker(cd.antipode, UNIT, d ** 3)).compose(dL.tensor(dL))
    without_s = middle.compose(dL.tensor(dL))
    assert with_s.scaled(scale).apply([F.one()]) == cd.Omega
    assert without_s.scaled(scale).apply([F.one()]) != cd.Omega


def test_coend_build_inverts_the_pairing_matrix_once(coends, monkeypatch):
    """On double_z2 the build inverts three maps: the antipode, the pairing
    matrix and the S-matrix of the modular data."""
    calls = []
    invert = linalg.invert

    def counted(m):
        calls.append(m.domain)
        return invert(m)

    monkeypatch.setattr(coend, "invert", counted)
    monkeypatch.setattr(hopf, "invert", counted)
    cd = coends["double_z2"]
    build_coend_hopf(cd.algebra, cd.caches["simples"])
    assert len(calls) == 3, calls


def test_coend_build_makes_the_regular_module_and_its_component_once(coends, monkeypatch):
    """The carrier stage holds H_reg and i_H for every solve of the build (5
    regular modules and 5 of their components when each solve made its own)."""
    calls = {"regular": 0, "i_H": 0}
    regular, dinatural = coend.regular_module, coend.dinatural_component

    def counted_regular(H):
        calls["regular"] += 1
        return regular(H)

    def counted_dinatural(H, V, carrier):
        calls["i_H"] += V.name == f"{H.name}_reg"
        return dinatural(H, V, carrier)

    monkeypatch.setattr(coend, "regular_module", counted_regular)
    monkeypatch.setattr(coend, "dinatural_component", counted_dinatural)
    cd = coends["z2_semion"]
    build_coend_hopf(cd.algebra, cd.caches["simples"])
    assert calls == {"regular": 1, "i_H": 1}


@pytest.mark.parametrize("name", ["z2_trivial", "z2_semion", "sweedler_h4", "double_z2"])
def test_stages_solve_the_maps_of_the_full_build(coends, name):
    """Delta and eps from the coalgebra stage, m and the unit from the algebra
    stage, are the full build's maps (same shapes, same entries), and each
    stage's gates are among the full build's."""
    cd = coends[name]
    co = build_coend_coalgebra(cd.algebra)
    al = build_coend_algebra(cd.algebra)
    assert (co.Delta, co.counit) == (cd.Delta, cd.counit)
    assert (al.m, al.unit) == (cd.m, cd.unit)
    for stage in (co, al):
        assert stage.report.ok
        assert set(stage.report.entries) < set(cd.report.entries)


# -- the antipode solve ------------------------------------------------------------------

BUNDLED = ("z2_trivial", "z2_semion", "sweedler_h4", "double_z2")


@pytest.mark.parametrize("name", BUNDLED)
def test_antipode_solve_recovers_the_antipode_of_each_bundle(name):
    """The convolution-inverse system solved on an algebra's own m, u, Delta
    and eps gives back the file's S.  On sweedler_h4 S is not its transpose,
    so a solution read with its indices exchanged fails."""
    H, _ = hopf.load_algebra(Path(hopf.__file__).parent / "data" / f"{name}.json")
    S = coend._solve_antipode(H.field, H.dim, H.m, H.u, H.Delta, H.epsilon)
    assert S == H.S
    if name == "sweedler_h4":
        assert H.S != H.S.transpose()


def test_antipode_solve_without_a_coproduct_names_the_solution_space():
    """With a zero coproduct both convolutions vanish, S is unconstrained and
    u eps is never reached: the error names the d^2-dimensional solution space."""
    H = sweedler_h4(Q)
    zero = LinearMap.zero(Q, H.dim, H.dim * H.dim)
    with pytest.raises(CoendError, match=f"antipode solution space has dimension {H.dim ** 2}$"):
        coend._solve_antipode(Q, H.dim, H.m, H.u, zero, H.epsilon)
