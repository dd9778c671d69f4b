from dataclasses import replace
from pathlib import Path

import pytest

from cyclotome.coend import build_coend_hopf
from cyclotome.cyclic_modules import (
    build_paracyclic, cocyclic_module_from_coalgebra, coend_coalgebra_object,
    contracting_homotopy, explicit_coend_cocyclic, explicit_coend_cyclic,
)
from cyclotome import homology
from cyclotome.fields import Rationals
from cyclotome.homology import (
    HomologyError, connes_B, cyclic_ranks, hochschild_differential,
    hochschild_ranks, mixed_complex, mixed_identities, sbi_consistency,
)
from cyclotome.hopf import load_algebra
from cyclotome.linalg import LinearMap, TensorShape, kernel_and_rank

Q = Rationals()
DATA = Path(__file__).resolve().parents[1] / "src" / "cyclotome" / "data"


@pytest.fixture(scope="module")
def z2_cocyclic():
    H, simples = load_algebra(DATA / "z2_trivial.json")
    cd = build_coend_hopf(H, simples)
    return cd, cocyclic_module_from_coalgebra(coend_coalgebra_object(cd), 4)


@pytest.fixture(scope="module")
def h4_cocyclic():
    H, _ = load_algebra(DATA / "sweedler_h4.json")
    cd = build_coend_hopf(H)
    return cd, cocyclic_module_from_coalgebra(coend_coalgebra_object(cd), 3)


def test_beta_squares_to_zero(z2_cocyclic, h4_cocyclic):
    for _, M in (z2_cocyclic, h4_cocyclic):
        for n in range(2, M.max_level + 1):
            prod = hochschild_differential(M, n).compose(
                hochschild_differential(M, n - 1))
            assert prod.is_zero()


def test_beta_at_level_one_is_coface_difference(z2_cocyclic):
    _, M = z2_cocyclic
    beta1 = hochschild_differential(M, 1)
    assert beta1.entries == (M.coface(1, 0) - M.coface(1, 1)).entries


def test_mixed_identities(z2_cocyclic, h4_cocyclic):
    for _, M in (z2_cocyclic, h4_cocyclic):
        b = {n: hochschild_differential(M, n) for n in range(1, M.max_level + 1)}
        B = {n: connes_B(M, n) for n in range(M.max_level)}
        rep = mixed_identities(M, b, B)
        assert rep.ok, rep.failures
        assert mixed_complex(M).report.entries == rep.entries


def test_hochschild_collapse(z2_cocyclic, h4_cocyclic):
    _, Mz = z2_cocyclic
    hh = hochschild_ranks(mixed_complex(Mz), 3)
    assert hh[0] >= 1 and hh[1:] == [0, 0, 0]
    _, Mh = h4_cocyclic
    hh4 = hochschild_ranks(mixed_complex(Mh), 2)
    assert hh4[1:] == [0, 0]


def test_hh0_equals_kernel_of_beta1(z2_cocyclic):
    _, M = z2_cocyclic
    basis, rank = kernel_and_rank(hochschild_differential(M, 1))
    assert hochschild_ranks(mixed_complex(M), 0)[0] == M.dim(0) - rank == len(basis)


def test_cyclic_alternation(z2_cocyclic, h4_cocyclic):
    mz = mixed_complex(z2_cocyclic[1])
    k = hochschild_ranks(mz, 0)[0]
    assert cyclic_ranks(mz, 3) == [k, 0, k, 0]
    mh = mixed_complex(h4_cocyclic[1])
    k4 = hochschild_ranks(mh, 0)[0]
    assert cyclic_ranks(mh, 2) == [k4, 0, k4]


def test_hc0_equals_hh0(z2_cocyclic, h4_cocyclic):
    for _, M in (z2_cocyclic, h4_cocyclic):
        mc = mixed_complex(M)
        assert cyclic_ranks(mc, 0)[0] == hochschild_ranks(mc, 0)[0]


def test_normalized_matches_unnormalized(z2_cocyclic):
    _, M = z2_cocyclic
    assert cyclic_ranks(mixed_complex(M), 3) == \
        cyclic_ranks(mixed_complex(M, normalized=False), 3)


def test_homotopy_consequence_matches_hh0(z2_cocyclic):
    cd, M = z2_cocyclic
    obj = coend_coalgebra_object(cd)
    rep = contracting_homotopy(obj, M, cd.unit)
    assert rep.ok
    assert hochschild_ranks(mixed_complex(M), 0)[0] == \
        M.dim(0) - kernel_and_rank(hochschild_differential(M, 1))[1]


def test_chain_side_regression():
    H, _ = load_algebra(DATA / "sweedler_h4.json")
    mc = mixed_complex(explicit_coend_cyclic(H, 3))
    assert mc.report.ok
    # frozen regression values for the invariant-tensor cyclic module
    assert hochschild_ranks(mc, 2) == [1, 3, 2]
    assert cyclic_ranks(mc, 2) == [1, 3, 1]
    assert cyclic_ranks(mc, 0)[0] == hochschild_ranks(mc, 0)[0]


def test_paracyclic_rejected():
    H, simples = load_algebra(DATA / "z2_trivial.json")
    cd = build_coend_hopf(H, simples)
    P = build_paracyclic(coend_coalgebra_object(cd), 2)
    with pytest.raises(HomologyError):
        connes_B(P, 0)
    with pytest.raises(HomologyError):
        mixed_complex(P)


def test_sbi_consistency(z2_cocyclic, h4_cocyclic):
    _, Mz = z2_cocyclic
    assert sbi_consistency(Mz, 3).ok
    _, Mh = h4_cocyclic
    assert sbi_consistency(Mh, 2).ok


@pytest.fixture(scope="module")
def h4_explicit():
    H, _ = load_algebra(DATA / "sweedler_h4.json")
    return explicit_coend_cocyclic(H, 3)


def test_sbi_consistency_where_B_is_visible(h4_explicit):
    """On the explicit Sweedler module HH = [1, 2, 1], HC = [1, 2, 1] and the
    connecting map B : HH^2 -> HC^1 has rank 1, so the check sees B."""
    mc = mixed_complex(h4_explicit)
    assert hochschild_ranks(mc, 2) == [1, 2, 1]
    assert cyclic_ranks(mc, 2) == [1, 2, 1]
    assert sbi_consistency(h4_explicit, 2).ok


def test_total_complex_without_B_fails_the_sbi_check(h4_explicit, monkeypatch):
    """A total complex with its B blocks zeroed is the direct sum of copies of
    (D, b); its periodicity sequence no longer matches the connecting maps
    read from B.  On the generic coend modules above B is invisible there
    and the check passes either way."""
    total_complex = homology._total_complex

    def without_B(mc, maxN):
        zero = {n: LinearMap.zero(B.field, B.domain, B.codomain) for n, B in mc.B.items()}
        return total_complex(replace(mc, B=zero), maxN)

    monkeypatch.setattr(homology, "_total_complex", without_B)
    assert not sbi_consistency(h4_explicit, 2).ok


def test_sbi_consistency_ranks_each_matrix_once(h4_explicit, monkeypatch):
    """The total cohomology, the induced maps and HH share boundary maps; on
    the explicit Sweedler module at maxN = 2 there are 11 distinct matrices to
    rank (19 rank calls when each was ranked where it was read)."""
    ranked = []
    rank = homology.rank
    monkeypatch.setattr(homology, "rank", lambda m: ranked.append(m) or rank(m))
    assert sbi_consistency(h4_explicit, 2).ok
    assert len(ranked) == len(set(ranked)) == 11


def _dense_bicomplex_hc_oracle(M, maxN):
    """Independent dense computation of HC from Connes' (b, b')-style cyclic
    bicomplex for a cocyclic module with plain-rotation cyclic operator.

    Columns alternate b and -b' with horizontal differentials 1 - lambda and
    the norm N; HC^m is computed from a dense total complex."""
    F = M.tau(0).field

    def lam(n):
        t = M.tau(n)
        return t.scaled(F.from_int(-1)) if n % 2 else t

    def norm(n):
        l = lam(n)
        out = LinearMap.identity(F, l.domain)
        acc = out
        for _ in range(n):
            acc = l.compose(acc)
            out = out + acc
        return out

    def b(n):
        out = None
        for i in range(n + 1):
            term = M.coface(n, i)
            if i % 2:
                term = term.scaled(F.from_int(-1))
            out = term if out is None else out + term
        return out

    def b_prime(n):
        out = None
        for i in range(n):  # omit the last coface
            term = M.coface(n, i)
            if i % 2:
                term = term.scaled(F.from_int(-1))
            out = term if out is None else out + term
        return out

    # first-quadrant bicomplex: C^{p,q} = C^q for p >= 0; vertical (up) is b on
    # even columns and -b' on odd ones; horizontal is 1 - lambda (even -> odd
    # source) and N (odd -> even).
    top = maxN + 1

    def comp_dims(m):
        return [(p, m - p) for p in range(0, m + 1)]

    def vert(p, q):
        return b(q + 1) if p % 2 == 0 else b_prime(q + 1).scaled(F.from_int(-1))

    def horiz(p, q):
        eye = LinearMap.identity(F, M.tau(q).domain)
        return (eye - lam(q)) if p % 2 == 0 else norm(q)

    dims = {}
    mats = {}
    for m in range(top + 1):
        dims[m] = sum(M.dim(q) for _, q in comp_dims(m))
    from cyclotome.linalg import TensorShape
    for m in range(top):
        entries = {}
        src_off = {}
        off = 0
        for p, q in comp_dims(m):
            src_off[p] = off
            off += M.dim(q)
        tgt_off = {}
        off = 0
        for p, q in comp_dims(m + 1):
            tgt_off[p] = off
            off += M.dim(q)
        for p, q in comp_dims(m):
            v = vert(p, q)
            for r, c in v.entries:
                entries[(tgt_off[p] + r, src_off[p] + c)] = \
                    entries.get((tgt_off[p] + r, src_off[p] + c), F.zero()) + v.entry(r, c)
            h = horiz(p, q)
            sign = F.one() if True else F.one()
            for r, c in h.entries:
                key = (tgt_off[p + 1] + r, src_off[p] + c)
                entries[key] = entries.get(key, F.zero()) + h.entry(r, c)
        mats[m] = LinearMap(F, TensorShape([dims[m]]), TensorShape([dims[m + 1]]),
                            entries)
    for m in range(top - 1):
        assert mats[m + 1].compose(mats[m]).is_zero(), f"oracle d^2 != 0 at {m}"
    out = []
    for m in range(maxN + 1):
        ker = dims[m] - kernel_and_rank(mats[m])[1]
        im = kernel_and_rank(mats[m - 1])[1] if m >= 1 else 0
        out.append(ker - im)
    return out


def _connes_quotient_hc_oracle(M, maxN):
    """HC_0..HC_maxN of a cyclic (chain) module from Connes' complex
    C^lambda_n = M_n / (1 - lambda) M_n with the induced b, lambda = (-1)^n t_n,
    which computes HC in characteristic 0 (Connes, C. R. Acad. Sci. 1983;
    Loday, Cyclic Homology, 2.1).

    With I_n the image of 1 - lambda on M_n: dim C^lambda_n = dim M_n - rank I_n,
    and b induces a map of rank rank[b_n | I_(n-1)] - rank I_(n-1)."""
    F = M.tau(0).field

    def rank(m):
        return kernel_and_rank(m)[1]

    def one_minus_lam(n):
        t = M.tau(n)
        return LinearMap.identity(F, t.domain) - (t.scaled(F.from_int(-1)) if n % 2 else t)

    def quotient_b_rank(n):
        if n == 0:
            return 0
        entries = {}
        for i in range(n + 1):
            sign = F.from_int(-1 if i % 2 else 1)
            coface = M.coface(n, i)
            for key in coface.entries:
                entries[key] = entries.get(key, F.zero()) + sign * coface.entry(*key)
        I = one_minus_lam(n - 1)
        for r, c in I.entries:
            entries[(r, M.dim(n) + c)] = I.entry(r, c)
        side = LinearMap(F, TensorShape([M.dim(n) + M.dim(n - 1)]),
                         TensorShape([M.dim(n - 1)]), entries)
        return rank(side) - rank(I)

    return [M.dim(n) - rank(one_minus_lam(n)) - quotient_b_rank(n) - quotient_b_rank(n + 1)
            for n in range(maxN + 1)]


@pytest.mark.parametrize("name", ["z2_trivial", "z2_semion", "sweedler_h4", "double_z2"])
def test_chain_cyclic_ranks_match_connes_quotient_complex(name):
    H, _ = load_algebra(DATA / f"{name}.json")
    W = explicit_coend_cyclic(H, 3)
    assert cyclic_ranks(mixed_complex(W), 2) == _connes_quotient_hc_oracle(W, 2)


def test_degeneration_against_dense_cyclic_bicomplex(z2_cocyclic):
    # plain-rotation module: the classical cyclic bicomplex gives the same HC
    _, M = z2_cocyclic
    assert _dense_bicomplex_hc_oracle(M, 2) == cyclic_ranks(mixed_complex(M), 2)


def test_homology_command_builds_and_checks_the_mixed_complex_once(monkeypatch, capsys):
    """`homology -N 2` builds b and B once at each of the levels 1..3 of the
    cocyclic module, checks their identities once and ranks each b and each
    differential of the total complex once (11, 6, 2 and 9 when each rank
    function rebuilt the complex)."""
    from cyclotome import cli, reports
    calls = {"b": 0, "B": 0, "check": 0, "rank": 0}

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    check = reports.CheckReport.check

    def counted_check(self, name, ok):
        calls["check"] += name == "b b = 0 at level 2"
        return check(self, name, ok)

    monkeypatch.setattr(homology, "hochschild_differential",
                        counted("b", homology.hochschild_differential))
    monkeypatch.setattr(homology, "connes_B", counted("B", homology.connes_B))
    monkeypatch.setattr(homology, "rank", counted("rank", homology.rank))
    monkeypatch.setattr(reports.CheckReport, "check", counted_check)
    argv = ["homology", "-N", "2", "--algebra", str(DATA / "sweedler_h4.json")]
    assert cli.main(argv) == 0
    capsys.readouterr()
    assert (calls["b"], calls["B"], calls["check"]) == (3, 3, 1)
    assert calls["rank"] <= 7
