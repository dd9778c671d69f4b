from pathlib import Path

import pytest

from cyclotome.coend import build_coend_hopf
from cyclotome.cyclic_modules import check_relations, invariant_tensor_basis
from cyclotome.fields import Rationals
from cyclotome.hopf import load_algebra
from cyclotome.linalg import LinearMap, kernel_and_rank
from cyclotome.tqft import (
    TqftError, build_rt_cocyclic, build_rt_cyclic, nested_pairing_matrix,
    rt_state_space, shape_checks, verify_main_theorem,
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
    assert verify_main_theorem(double, 1, build_rt_cocyclic(double, 1)).ok
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


def test_state_space_dim_z2():
    H, simples = load_algebra(DATA / "z2_trivial.json")
    cd = build_coend_hopf(H, simples)
    assert rt_state_space(cd, 1).dim == 4  # dim of the level-two invariants


def test_nested_pairing_invertible(double):
    for n in range(3):
        W = nested_pairing_matrix(double, n)
        assert kernel_and_rank(W)[1] == W.domain.dim


def test_omega_level_zero_is_single_pairing(double, rt_co):
    # omega^0 pairs the single slot, i.e. the plain pairing matrix
    W = nested_pairing_matrix(double, 0)
    from cyclotome.coend import _pairing_matrix
    assert W.entries == _pairing_matrix(double).entries


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


def test_main_theorem(double, rt_co):
    rep = verify_main_theorem(double, 2, rt_co)
    assert rep.ok, rep.failures


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
        acted = C3.rho(k).reshaped(amb.codomain, amb.codomain).apply(img)
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
