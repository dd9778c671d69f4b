import itertools

import pytest
from hypothesis import given, settings, strategies as st

from cyclotome.cyclic_cat import (
    CYCLIC, PARACYCLIC, SIMPLICIAL, CyclicCatError, CyclicMap, GeneratorWord,
    RCyclic, Token, coface, codegeneracy, compose, dualize_L, enumerate_hom,
    hom_count, identity, interpret, interpret_at, normal_form, parse_word,
    reindex_Phi, relation_instances, relation_suite, render_word, rotation,
    simplicial_hom_count, simplicial_word,
)


def test_generator_values():
    # delta_0^1 misses 0; sigma_0^0 collapses {0,1}; tau_0 is the identity
    assert coface(1, 0, SIMPLICIAL).values == (1,)
    assert codegeneracy(0, 0, SIMPLICIAL).values == (0, 0)
    assert rotation(0, CYCLIC).is_identity()


def test_generator_index_errors():
    with pytest.raises(CyclicCatError):
        coface(1, 2, SIMPLICIAL)
    with pytest.raises(CyclicCatError):
        codegeneracy(2, 3, CYCLIC)
    with pytest.raises(CyclicCatError):
        rotation(2, SIMPLICIAL)


def test_rotation_coface_relation():
    # tau_n delta_i^n = delta_{i-1}^n tau_{n-1}
    lhs = compose(rotation(2, CYCLIC), coface(2, 1, CYCLIC))
    rhs = compose(coface(2, 0, CYCLIC), rotation(1, CYCLIC))
    assert lhs == rhs


def test_rotation_wrap_relation():
    # tau_n delta_0^n = delta_n^n pins the direction x |-> x - 1
    for n in range(1, 5):
        assert compose(rotation(n, CYCLIC), coface(n, 0, CYCLIC)) == coface(n, n, CYCLIC)
    # the opposite convention x |-> x + 1 fails the same relation
    bad = CyclicMap(2, 2, [1, 2, 3], CYCLIC)
    assert compose(bad, coface(2, 0, CYCLIC)) != coface(2, 2, CYCLIC)


def test_mixed_identity():
    assert compose(codegeneracy(0, 0, CYCLIC), coface(1, 0, CYCLIC)).is_identity()
    assert compose(rotation(1, CYCLIC), rotation(1, CYCLIC)).is_identity()


def test_associativity_exhaustive_small():
    maps1 = list(enumerate_hom(1, 1, CYCLIC))
    maps2 = list(enumerate_hom(1, 2, CYCLIC))
    maps3 = list(enumerate_hom(2, 1, CYCLIC))
    for f, g, h in itertools.product(maps1[:4], maps2[:4], maps3[:4]):
        # h: 2->1 after g: 1->2 after f: 1->1
        assert compose(h, compose(g, f)) == compose(compose(h, g), f)


def test_normal_form_examples():
    mono, rot = normal_form(rotation(1, CYCLIC))
    assert mono.is_identity() and rot == 1
    mono, rot = normal_form(coface(1, 0, CYCLIC))
    assert mono == coface(1, 0, SIMPLICIAL) and rot == 0
    # tau_2 delta_0^2 = delta_2^2, already simplicial
    mono, rot = normal_form(compose(rotation(2, CYCLIC), coface(2, 0, CYCLIC)))
    assert mono == coface(2, 2, SIMPLICIAL) and rot == 0


def test_normal_form_bijection_exhaustive():
    for n in range(0, 4):
        for m in range(0, 4):
            seen = set()
            for f in enumerate_hom(n, m, CYCLIC):
                mono, rot = normal_form(f)
                assert 0 <= rot <= n
                key = (mono.values, rot)
                assert key not in seen
                seen.add(key)
            assert len(seen) == simplicial_hom_count(n, m) * (n + 1)


def test_normal_form_unique_against_exhaustive_oracle():
    # oracle: try every (simplicial mono, rotation) pair and demand exactly one hit
    for n in range(0, 3):
        for m in range(0, 3):
            monos = list(enumerate_hom(n, m, SIMPLICIAL))
            for f in enumerate_hom(n, m, CYCLIC):
                hits = []
                for mono in monos:
                    lifted = CyclicMap(n, m, mono.values, CYCLIC)
                    for rot in range(n + 1):
                        if compose(lifted, rotation(n, CYCLIC, rot)) == f:
                            hits.append((mono.values, rot))
                assert len(hits) == 1
                nf = normal_form(f)
                assert hits[0] == (nf[0].values, nf[1])


def test_hom_counts():
    assert hom_count(1, 1, SIMPLICIAL) == 3
    assert hom_count(1, 1, CYCLIC) == 6
    assert hom_count(0, 0, CYCLIC) == 1
    for n in range(0, 4):
        for m in range(0, 4):
            assert hom_count(n, m, SIMPLICIAL) == simplicial_hom_count(n, m)
            assert hom_count(n, m, CYCLIC) == (n + 1) * simplicial_hom_count(n, m)
            assert hom_count(n, m, RCyclic(2)) == 2 * (n + 1) * simplicial_hom_count(n, m)
    with pytest.raises(CyclicCatError):
        hom_count(1, 1, PARACYCLIC)


@pytest.mark.parametrize("variant", [SIMPLICIAL, CYCLIC, RCyclic(2), RCyclic(3), PARACYCLIC])
def test_relation_suite(variant):
    report = relation_suite(3, variant)
    assert report.ok, report.failures
    assert report.checked > 0


def test_paracyclic_rotation_power_not_identity():
    assert not rotation(1, PARACYCLIC, 2).is_identity()
    # its image in the cyclic quotient is the identity
    assert CyclicMap(1, 1, rotation(1, PARACYCLIC, 2).values, CYCLIC).is_identity()


def test_interpret_respects_relations():
    for variant in (CYCLIC, RCyclic(2)):
        for inst in relation_instances(4, variant):
            lhs = interpret(inst.lhs, variant)
            rhs = (identity(inst.identity_level, variant)
                   if inst.identity_level is not None else interpret(inst.rhs, variant))
            assert lhs == rhs, inst


def test_interpret_word_examples():
    # sigma_j delta_i with i < j equals delta_i sigma_{j-1}
    w1 = GeneratorWord([Token("codegeneracy", 1, 1), Token("coface", 2, 0)])
    w2 = GeneratorWord([Token("coface", 1, 0), Token("codegeneracy", 0, 0)])
    assert interpret(w1, SIMPLICIAL) == interpret(w2, SIMPLICIAL)
    # tau_n^(n+1) = id, and tau_n^(r(n+1)) = id in the r-cyclic case
    assert interpret(GeneratorWord([Token("tau", 2, 3)]), CYCLIC).is_identity()
    assert interpret(GeneratorWord([Token("tau", 2, 6)]), RCyclic(2)).is_identity()
    assert not interpret(GeneratorWord([Token("tau", 2, 3)]), RCyclic(2)).is_identity()


def test_dualize_L_tokens():
    # L(t_n) = tau_n^{-1}
    w = dualize_L(GeneratorWord([Token("tau", 2, 1)], "contravariant"))
    assert w.tokens == (Token("tau", 2, -1),)
    # L(s_0^0) = delta_1^1
    w = dualize_L(GeneratorWord([Token("codegeneracy", 0, 0)], "contravariant"))
    assert w.tokens == (Token("coface", 1, 1),)
    # L(d_2^2) = sigma_0^1 tau_2^{-1}
    w = dualize_L(GeneratorWord([Token("coface", 2, 2)], "contravariant"))
    assert w.tokens == (Token("codegeneracy", 1, 0), Token("tau", 2, -1))


def test_dualize_L_well_defined():
    # every defining relation of the opposite category maps to equal morphisms
    for inst in relation_instances(4, CYCLIC):
        lhs_op = GeneratorWord(tuple(reversed(inst.lhs.tokens)), "contravariant")
        rhs_op = GeneratorWord(tuple(reversed(inst.rhs.tokens)), "contravariant")
        lhs = interpret_at(dualize_L(lhs_op), CYCLIC, inst.identity_level
                           if inst.identity_level is not None else -1)
        if inst.identity_level is not None:
            rhs = identity(inst.identity_level, CYCLIC)
        else:
            rhs = interpret(dualize_L(rhs_op), CYCLIC)
        assert lhs == rhs, inst


def test_reindex_Phi_involution():
    for inst in relation_instances(5, CYCLIC):
        for word in (inst.lhs, inst.rhs):
            if not word.tokens:
                continue
            twice = reindex_Phi(reindex_Phi(word))
            assert interpret(twice, CYCLIC) == interpret(word, CYCLIC)


def test_reindex_Phi_tokens():
    assert reindex_Phi(GeneratorWord([Token("tau", 3, 1)])).tokens == (Token("tau", 3, -1),)
    assert reindex_Phi(GeneratorWord([Token("codegeneracy", 2, 0)])).tokens == \
        (Token("codegeneracy", 2, 2),)
    w = GeneratorWord([Token("coface", 3, 1)])
    assert reindex_Phi(reindex_Phi(w)) == w


def test_phi_respects_relations():
    for inst in relation_instances(4, CYCLIC):
        lhs = interpret_at(reindex_Phi(inst.lhs), CYCLIC,
                           inst.identity_level if inst.identity_level is not None else -1)
        rhs = (identity(inst.identity_level, CYCLIC) if inst.identity_level is not None
               else interpret(reindex_Phi(inst.rhs), CYCLIC))
        assert lhs == rhs, inst


def test_render_parse_roundtrip():
    w = parse_word("d2.t^2 : 2->3", CYCLIC)
    m = interpret(w, CYCLIC)
    again = parse_word(render_word(m).replace(" ", ""), CYCLIC)
    assert interpret(again, CYCLIC) == m


def test_parse_normal_form_of_rotation_power():
    w = parse_word("t^2 : 1->1", CYCLIC)
    assert interpret(w, CYCLIC).is_identity()


def test_simplicial_word_roundtrip_exhaustive():
    for n in range(0, 3):
        for m in range(0, 3):
            for f in enumerate_hom(n, m, SIMPLICIAL):
                w = simplicial_word(f)
                assert interpret_at(w, SIMPLICIAL, n) == f


@settings(max_examples=60)
@given(st.integers(0, 3), st.integers(0, 3), st.data())
def test_normal_form_roundtrip_random(n, m, data):
    maps = list(enumerate_hom(n, m, CYCLIC))
    f = data.draw(st.sampled_from(maps))
    mono, rot = normal_form(f)
    lifted = CyclicMap(n, m, mono.values, CYCLIC)
    assert compose(lifted, rotation(n, CYCLIC, rot)) == f


def _scanned_window_start(f):
    """The first y with f(y) in [0, m], found by scanning the integers one by
    one from far enough below (the search normal_form made before)."""
    n1, m1 = f.source_n + 1, f.target_m + 1
    lo = -n1 * (abs(f.values[0]) // m1 + 2)
    return next(y for y in range(lo, -lo + n1) if 0 <= f.extended(y) <= f.target_m)


@settings(max_examples=300)
@given(st.integers(0, 4), st.integers(0, 4), st.integers(-60, 60),
       st.sampled_from([PARACYCLIC, CYCLIC, RCyclic(3)]), st.data())
def test_normal_form_window_matches_the_scan(n, m, e, variant, data):
    """The window start read off the values by floor division is the first
    y with f(y) in [0, m], as a scan finds it, on maps mono o t^e."""
    mono = data.draw(st.sampled_from(list(enumerate_hom(n, m, SIMPLICIAL))))
    f = compose(CyclicMap(n, m, mono.values, variant), rotation(n, variant, e))
    y0 = _scanned_window_start(f)
    window, rot = normal_form(f)
    assert window.values == tuple(f.extended(y0 + k) for k in range(n + 1))
    mod = variant.rotation_modulus(n)
    assert rot == (y0 if mod is None else y0 % mod)
