from pathlib import Path

import pytest

from cyclotome.coend import build_coend_hopf
from cyclotome.cyclic_modules import check_relations, invariant_tensor_basis
from cyclotome.fields import Rationals
from cyclotome.hopf import load_algebra
from cyclotome.cyclic_modules import generator_levels
from cyclotome.linalg import LinearMap, invert, kernel_and_rank, permute_factors
from cyclotome.tqft import (
    TqftError, build_rt_cocyclic, build_rt_cyclic, rt_state_space, shape_checks,
    verify_main_theorem,
)

Q = Rationals()
DATA = Path(__file__).resolve().parents[1] / "src" / "cyclotome" / "data"


@pytest.fixture(scope="module")
def double():
    H, simples = load_algebra(DATA / "double_z2.json")
    return build_coend_hopf(H, simples)


@pytest.fixture(scope="module")
def rt_co(double):
    return build_rt_cocyclic(double, 2)


@pytest.fixture(scope="module")
def rt_cy(double):
    return build_rt_cyclic(double, 2)


def _theorem(rt):
    """The theorem check with the relation and shape reports it reads."""
    return verify_main_theorem(rt, check_relations(rt.module), shape_checks(rt))


def _pairing(double):
    """The pairing matrix W[a][b] = omega(e_a (x) e_b), read off the pairing."""
    d = double.dim
    return LinearMap(Q, d, d, {divmod(ab, d): double.pairing.entry(0, ab)
                               for _, ab in double.pairing.entries})


def _onion_matrix(M, n):
    """The dense onion matrix N_M[y][x] = prod_k M[y_k][x_(n-k)] on C^(x)(n+1):
    the Kronecker power of M after the slot reversal."""
    power = M
    for _ in range(n):
        power = power.tensor(M)
    return power.compose(permute_factors(Q, [M.domain] * (n + 1), list(range(n, -1, -1))))


def test_state_space_dims(double):
    # genus-one states biject with the simples; higher genus with invariants
    assert rt_state_space(double, 0).dim == 4
    assert rt_state_space(double, 1).dim == 16
    for n in range(3):
        assert rt_state_space(double, n).dim == \
            invariant_tensor_basis(double.algebra, n + 1).dim


def test_state_spaces_are_kernel_bases_and_restrict_without_solve(double, monkeypatch):
    """The states are the kernel basis of Hom(1, C^(x)(n+1)), with indicator
    columns, so restricting onto them reads coordinates off those columns:
    the module and the theorem check at N = 1 make no linear solve."""
    F = double.field
    for n in range(3):
        basis = rt_state_space(double, n)
        cols = basis.indicator_cols
        assert len(cols) == basis.dim
        assert [[v[c] for c in cols] for v in basis.vectors] == \
            [[F.one() if j == k else F.zero() for j in range(basis.dim)]
             for k in range(basis.dim)]
    from cyclotome import hopf, linalg
    calls = []
    solve = linalg.solve

    def counted(*args):
        calls.append(1)
        return solve(*args)

    monkeypatch.setattr(linalg, "solve", counted)
    monkeypatch.setattr(hopf, "solve", counted)
    assert _theorem(build_rt_cocyclic(double, 1)).ok
    assert calls == []


def test_tqft_verify_builds_the_coend_module_once(monkeypatch, capsys):
    """The theorem check reuses the cocyclic coend module that the state
    module was conjugated from instead of building it again."""
    from cyclotome import cli, cyclic_modules, tqft
    calls = []
    build = cyclic_modules.cocyclic_module_from_coalgebra

    def counted(*args):
        calls.append(1)
        return build(*args)

    for mod in (cli, cyclic_modules, tqft):
        monkeypatch.setattr(mod, "cocyclic_module_from_coalgebra", counted)
    assert cli.main(["tqft", "verify", "-N", "1", "--algebra", str(DATA / "double_z2.json")]) == 0
    capsys.readouterr()
    assert len(calls) == 1


@pytest.mark.parametrize("argv", [("tqft", "verify"), ("module", "build", "--which", "rt")],
                         ids=" ".join)
def test_theorem_gates_run_once(monkeypatch, capsys, argv):
    """The relation suite of the state module, its shape checks and its
    closed-form generators run once per command, and the theorem check
    reads their reports (2, 2 and 3 runs when it made its own)."""
    from cyclotome import cli, cyclic_modules, tqft
    calls = {"relations": 0, "shape": 0, "closed": 0}
    relations, shape, closed = (cyclic_modules.check_relations, tqft.shape_checks,
                                tqft._closed_form_generators)

    def counted_relations(M, *args):
        calls["relations"] += M.provenance.startswith("state")
        return relations(M, *args)

    def counted_shape(*args):
        calls["shape"] += 1
        return shape(*args)

    def counted_closed(*args):
        calls["closed"] += 1
        return closed(*args)

    for mod in (cli, cyclic_modules):
        monkeypatch.setattr(mod, "check_relations", counted_relations)
    for mod in (cli, tqft):
        monkeypatch.setattr(mod, "shape_checks", counted_shape)
    monkeypatch.setattr(tqft, "_closed_form_generators", counted_closed)
    assert cli.main([*argv, "-N", "1", "--algebra", str(DATA / "double_z2.json")]) == 0
    capsys.readouterr()
    assert calls == {"relations": 1, "shape": 1, "closed": 1}


def test_state_space_dim_z2():
    H, simples = load_algebra(DATA / "z2_trivial.json")
    cd = build_coend_hopf(H, simples)
    assert rt_state_space(cd, 1).dim == 4  # dim of the level-two invariants


def test_nested_pairing_invertible(double):
    W = _pairing(double)
    d = W.domain
    for n in range(3):
        N_W = _onion_matrix(W, n)
        assert kernel_and_rank(N_W)[1] == N_W.domain
        if n <= 1:   # the test's dense reference entry by entry
            def digits(i):
                return [i // d ** (n - k) % d for k in range(n + 1)]
            for y in range(d ** (n + 1)):
                for x in range(d ** (n + 1)):
                    ys, xs, value = digits(y), digits(x), Q.one()
                    for k in range(n + 1):
                        value = value * W.entry(ys[k], xs[n - k])
                    assert N_W.entry(y, x) == value


def test_omega_level_zero_is_single_pairing(double, rt_co):
    # omega^0 pairs the single slot, i.e. the plain pairing matrix, restricted
    # to the states
    from cyclotome.coend import _pairing_matrix
    assert _onion_matrix(_pairing(double), 0) == _pairing_matrix(double)
    assert rt_co.omega_maps[0] == rt_co.module.spaces[0].restrict(
        _pairing_matrix(double).transpose(), rt_co.reindexed_coend.spaces[0])


def test_omega_maps_are_the_dense_onion_pairing_and_its_inverse(double, rt_co, rt_cy):
    """omega^n is the restriction of the dense N_W^T from the states to the
    functionals, and omega^-n, built from W^-1 one slot at a time, is the
    inverse that elimination finds, at every level up to 2 of both state
    modules."""
    W = _pairing(double)
    for rt in (rt_co, rt_cy):
        for n in range(3):
            dense = rt.module.spaces[n].restrict(_onion_matrix(W, n).transpose(),
                                                 rt.reindexed_coend.spaces[n])
            assert rt.omega_maps[n] == dense, (rt.chirality, n)
            assert rt.omega_inverse[n] == invert(dense), (rt.chirality, n)


def test_generators_are_the_dense_conjugates(rt_co, rt_cy):
    """Every generator of both state modules up to level 2 is the dense
    product omega^-1[target] o g o omega[source] of the reindexed coend
    generator g, with omega^-1 found by elimination."""
    for rt in (rt_co, rt_cy):
        inverse = {n: invert(om) for n, om in rt.omega_maps.items()}
        for key, g in rt.reindexed_coend.gen.items():
            src, tgt = generator_levels(rt.chirality, key)
            assert rt.module.gen[key] == inverse[tgt].compose(g).compose(rt.omega_maps[src]), \
                (rt.chirality, key)


def test_state_module_solves_nothing_and_makes_few_products(double, monkeypatch):
    """omega^-n is the onion nesting of the certified W^-1 and every product
    with it goes one slot at a time: in build_rt_cocyclic(double_z2, 2) tqft
    itself calls neither invert nor solve (three inversions, one per level,
    when omega^n was inverted), and the build makes at most 120,000 field
    products (about 805,000 with those inverses and dense conjugation).  The
    reindexing still inverts the rotation of the coend module."""
    import sys
    from cyclotome import linalg
    from cyclotome.fields import FieldSpec
    solves, products = [], []
    solve_columns, mul = linalg._solve_columns, FieldSpec._mul

    def counted_solve(*args):
        # the module that called invert or solve, which call this
        solves.append(sys._getframe(2).f_globals["__name__"])
        return solve_columns(*args)

    def counted_mul(self, a, b):
        products.append(1)
        return mul(self, a, b)

    monkeypatch.setattr(linalg, "_solve_columns", counted_solve)
    monkeypatch.setattr(FieldSpec, "_mul", counted_mul)
    build_rt_cocyclic(double, 2)
    assert "cyclotome.tqft" not in solves
    assert len(products) <= 120_000


def test_wrong_inverse_copairing_fails_the_level_zero_check(double):
    """W^-1 is read from the coend's inverse copairing; one that is off by a
    factor fails the exact check omega^-0 o omega^0 = id."""
    from copy import copy
    two = Q.one() + Q.one()
    wrong = copy(double)
    wrong.Omega = [two * v for v in double.Omega]
    with pytest.raises(TqftError, match="omega\\^-0"):
        build_rt_cocyclic(wrong, 1)


def test_omega_inverse_two_sided(rt_co):
    for n in range(3):
        om, inv = rt_co.omega_maps[n], rt_co.omega_inverse[n]
        assert om.compose(inv) == LinearMap.identity(Q, om.codomain)
        assert inv.compose(om) == LinearMap.identity(Q, om.domain)


def test_rt_relations(rt_co):
    assert check_relations(rt_co.module).ok


def test_rt_tau0_is_identity(rt_co):
    t0 = rt_co.module.tau(0)
    assert t0 == LinearMap.identity(Q, t0.domain)


def test_rt_rotation_power(rt_co):
    for n in range(3):
        power = rt_co.module.tau_power(n, n + 1)
        assert power == LinearMap.identity(Q, power.domain)


def test_shape_checks(rt_co):
    rep = shape_checks(rt_co)
    assert rep.ok, rep.failures


def test_rt_cyclic_side(double):
    rtc = build_rt_cyclic(double, 2)
    assert check_relations(rtc.module).ok
    rep = shape_checks(rtc)
    assert rep.ok, rep.failures


def test_main_theorem(rt_co):
    rep = _theorem(rt_co)
    assert rep.ok, rep.failures


def test_theorem_check_inverts_no_rotation(double, rt_co, monkeypatch):
    """At N = 2 the theorem check solves no linear system: the coend module was
    reindexed when the state module was built, the dual comparison transports
    along Phi o L, which sends t_n to tau_n, and the negative control reads
    the inverse coend rotations from the reindexed coend module."""
    from cyclotome import linalg
    solves = []
    solve_columns = linalg._solve_columns

    def counted_solve(*args):
        solves.append(1)
        return solve_columns(*args)

    monkeypatch.setattr(linalg, "_solve_columns", counted_solve)
    assert _theorem(rt_co).ok
    assert not solves


@pytest.mark.parametrize("N", [1, 2, 3])
def test_tqft_verify_inverts_each_rotation_once(monkeypatch, capsys, N):
    """tqft verify -N N inverts the N + 1 rotations of the coend module once,
    in its reindexing; the dual comparison transports along Phi o L, which
    sends t_n to tau_n, and inverts none."""
    from cyclotome import cli, cyclic_modules
    calls = []
    invert_map = cyclic_modules.invert

    def counted(*args):
        calls.append(1)
        return invert_map(*args)

    monkeypatch.setattr(cyclic_modules, "invert", counted)
    assert cli.main(["tqft", "verify", "-N", str(N),
                     "--algebra", str(DATA / "double_z2.json")]) == 0
    capsys.readouterr()
    assert len(calls) == N + 1


def test_generators_preserve_invariance(rt_co, double):
    # every generator matrix maps state-space coordinates to state-space
    # coordinates by construction; check an image vector is invariant
    M = rt_co.module
    amb = M.spaces[2].matrix()
    img = amb.apply(M.coface(2, 1).apply(
        [Q.one() if i == 0 else Q.zero() for i in range(M.dim(1))]))
    from cyclotome.hopf import module_power
    C3 = module_power(double.carrier, 3)
    for k in range(double.algebra.dim):
        eps_k = double.algebra.epsilon.entry(0, k)
        acted = C3.rho(k).apply(img)
        assert acted == [eps_k * v for v in img]


def test_not_factorizable_rejected():
    H, simples = load_algebra(DATA / "z2_trivial.json")
    cd = build_coend_hopf(H, simples)
    with pytest.raises(TqftError):
        build_rt_cocyclic(cd, 1)


def test_not_anomaly_free_rejected():
    H, simples = load_algebra(DATA / "z2_semion.json")
    cd = build_coend_hopf(H, simples)
    with pytest.raises(TqftError):
        build_rt_cocyclic(cd, 1)
