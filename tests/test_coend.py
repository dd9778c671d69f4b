import pytest

from cyclotome.coend import (
    CoendError, build_coend_hopf, character_checks, characters_span_check,
    dinatural_component, end_and_drinfeld, ev_left, factor_through_coend,
    integrals, internal_character, pairing_value,
)
from cyclotome.fields import Cyclotomic, FieldSpec, Rationals
from cyclotome.hopf import (
    coadjoint_module, drinfeld_double_of_cyclic, group_algebra,
    group_algebra_simples, hom_space, regular_module, sweedler_h4,
    trivial_module,
)
from cyclotome import linalg
from cyclotome.linalg import LinearMap, kernel_and_rank

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
    eyeV = LinearMap.identity(Q, V.shape)
    eyeW = LinearMap.identity(Q, W.shape)
    for f in hom_space(V, W):
        lhs = i_V.compose(f.transpose().tensor(eyeV))
        rhs = i_W.compose(eyeW.tensor(f))
        assert lhs.entries == rhs.entries


def test_factor_through_identity(coends):
    cd = coends["double_z2"]
    H = cd.algebra
    i_H = dinatural_component(H, regular_module(H), cd.carrier)
    phi = factor_through_coend(H, i_H, 1, cd.carrier)
    assert phi == LinearMap.identity(Q, cd.carrier.shape)


def test_factor_through_counit(coends):
    cd = coends["z2_trivial"]
    H = cd.algebra
    eps = factor_through_coend(H, ev_left(regular_module(H)), 1, cd.carrier)
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


def test_pairing_inverse_surface(coends):
    from cyclotome.coend import pairing_inverse
    cd = coends["double_z2"]
    Om = pairing_inverse(cd)
    assert len(Om) == cd.dim ** 2
    with pytest.raises(CoendError):
        pairing_inverse(coends["z2_trivial"])


def test_antipode_properties(coends):
    for name, cd in coends.items():
        assert cd.antipode.compose(cd.antipode) == cd.twist_map, name
        eye = LinearMap.identity(cd.field, cd.carrier.shape)
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
        factor_through_coend(H, shuffled, 1, cd.carrier)


# the two gates of the integral formula that D(Z3) fails today; the build
# must raise on these alone, or pass once the formula is fixed
D_Z3_KNOWN_FAILURES = ("coend integral/pairing gates failed: ['integral formula "
                       "reproduces the inverse copairing', 'integral composite equals "
                       "omega(Lambda,Lambda) id']")


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
    H = drinfeld_double_of_cyclic(Cyclotomic(3), 3)
    try:
        build_coend_hopf(H)
    except CoendError as exc:
        assert str(exc) == D_Z3_KNOWN_FAILURES
    assert counts["products"] > 0
    assert counts["read"] <= 2 * counts["products"], counts
