"""Hochschild and cyclic (co)homology of (co)cyclic modules at bounded degree.

The engine works with the mixed complex (b, B): the alternating sum of the
(co)faces and a degree-lowering operator built from the extra (co)degeneracy
and the norm of the signed rotation.  Both defining identities b b = 0,
B B = 0, b B + B b = 0 are exact matrix checks.  Cyclic ranks come from the
total complex of the (b, B)-bicomplex, on the normalized subcomplex for
cochain modules; the long-exact-sequence bookkeeping is verified from the
actual induced maps.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field, replace
from functools import cache, partial

from .cyclic_modules import CyclicModuleData
from .linalg import LinearMap, SubspaceBasis, TensorShape, block_map, rank, stack
from .reports import CheckReport


class HomologyError(ValueError):
    """Raised on unsupported inputs (e.g. paracyclic modules)."""


def hochschild_differential(M: CyclicModuleData, n: int) -> LinearMap:
    """The alternating sum of the (co)faces at level n.

    For a cocyclic module this is beta_n : C^{n-1} -> C^n; for a cyclic module
    it is b_n : M_n -> M_{n-1}.
    """
    if n < 1 or n > M.max_level:
        raise HomologyError(f"level {n} not built (max {M.max_level})")
    F = M.coface(n, 0).field
    out = None
    for i in range(n + 1):
        term = M.coface(n, i)
        if i % 2:
            term = term.scaled(F.from_int(-1))
        out = term if out is None else out + term
    return out


def _signed_rotation(M: CyclicModuleData, n: int) -> LinearMap:
    t = M.tau(n)
    return t.scaled(t.field.from_int(-1)) if n % 2 else t


def _norm_operator(M: CyclicModuleData, n: int) -> LinearMap:
    lam = _signed_rotation(M, n)
    out = LinearMap.identity(lam.field, lam.domain)
    acc = out
    for _ in range(n):
        acc = lam.compose(acc)
        out = out + acc
    return out


def connes_B(M: CyclicModuleData, n: int) -> LinearMap:
    """The degree-lowering Connes operator at level n + 1 -> n, built as
    norm o extra-(co)degeneracy o (1 - signed rotation); B B = 0 and
    b B + B b = 0 hold exactly and are asserted by the test suite.
    """
    if M.variant.kind == "paracyclic":
        raise HomologyError("paracyclic modules admit no Connes operator here")
    if n + 1 > M.max_level:
        raise HomologyError(f"level {n + 1} not built")
    F = M.tau(n).field
    lam_top = _signed_rotation(M, n + 1)
    one_top = LinearMap.identity(F, lam_top.domain)
    norm = _norm_operator(M, n)
    if M.chirality == "cocyclic":
        # C^{n+1} -> C^n: norm o extra codegeneracy o (1 - signed rotation)
        extra = M.codegeneracy(n, n).compose(M.tau_power(n + 1, 1))
        return norm.compose(extra).compose(one_top - lam_top)
    # M_n -> M_{n+1}: (1 - signed rotation) o extra degeneracy o norm
    extra = M.tau_power(n + 1, 1).compose(M.codegeneracy(n, n))
    return (one_top - lam_top).compose(extra).compose(norm)


def _check_mixed(rep: CheckReport, chirality: str, b, B, N: int):
    """Check b b = 0, B B = 0 and b B + B b = 0 up to level N on b(n) and B(n)."""
    def composite(f, g):
        """f o g on the cochain side, g o f on the chain side."""
        return f.compose(g) if chirality == "cocyclic" else g.compose(f)

    for n in range(2, N + 1):
        rep.check(f"b b = 0 at level {n}", composite(b(n), b(n - 1)).is_zero())
    for n in range(0, N - 1):
        rep.check(f"B B = 0 at level {n}", composite(B(n), B(n + 1)).is_zero())
    for n in range(1, N):
        anti = composite(b(n), B(n - 1)) + composite(B(n), b(n + 1))
        rep.check(f"b B + B b = 0 at level {n}", anti.is_zero())


def mixed_identities(M: CyclicModuleData, N: int | None = None) -> CheckReport:
    """b b = 0, B B = 0 and b B + B b = 0 at every built level."""
    N = M.max_level if N is None else min(N, M.max_level)
    rep = CheckReport(f"mixed complex identities for {M.provenance}")
    _check_mixed(rep, M.chirality, cache(partial(hochschild_differential, M)),
                 cache(partial(connes_B, M)), N)
    return rep


def hochschild_ranks(M: CyclicModuleData, maxN: int) -> list[int]:
    """Dimensions of HH^0..HH^maxN (cochain) or HH_0..HH_maxN (chain)."""
    if maxN + 1 > M.max_level:
        raise HomologyError(f"need levels <= {maxN + 1} built")
    dims = []
    for n in range(maxN + 1):
        # levels of the differentials leaving and entering degree n
        out_n, in_n = (n + 1, n) if M.chirality == "cocyclic" else (n, n + 1)
        ker_dim = M.dim(n) - (rank(hochschild_differential(M, out_n)) if out_n else 0)
        im_rank = rank(hochschild_differential(M, in_n)) if in_n else 0
        dims.append(ker_dim - im_rank)
    return dims


# -- the (b, B)-bicomplex --------------------------------------------------------------------


@dataclass
class MixedComplexData:
    source: CyclicModuleData
    normalized: bool
    spaces: dict[int, SubspaceBasis]
    b: dict[int, LinearMap]
    B: dict[int, LinearMap]
    report: CheckReport = dc_field(default_factory=lambda: CheckReport("mixed complex"))

    def dim(self, n: int) -> int:
        return self.spaces[n].dim if n in self.spaces else 0


def _normalized_spaces(M: CyclicModuleData) -> dict[int, SubspaceBasis]:
    """For cochain modules: the intersection of the codegeneracy kernels."""
    F = M.tau(0).field
    out = {0: SubspaceBasis.standard(F, M.dim(0))}
    for n in range(1, M.max_level + 1):
        out[n] = SubspaceBasis.from_kernel(
            F, stack([M.codegeneracy(n - 1, j) for j in range(n)]))
    return out


def mixed_complex(M: CyclicModuleData, normalized: bool | None = None) -> MixedComplexData:
    """Assemble b and B, on the normalized subcomplex for cochain modules."""
    if M.variant.kind == "paracyclic":
        raise HomologyError("paracyclic modules admit no mixed complex here")
    if normalized is None:
        normalized = M.chirality == "cocyclic"
    if normalized and M.chirality != "cocyclic":
        raise HomologyError("normalization is implemented on the cochain side")
    rep = CheckReport(f"mixed complex for {M.provenance}")
    N = M.max_level
    if normalized:
        spaces = _normalized_spaces(M)
    else:
        F = M.tau(0).field
        spaces = {n: SubspaceBasis.standard(F, M.dim(n)) for n in range(N + 1)}
    b = {}
    B = {}
    for n in range(1, N + 1):
        amb = hochschild_differential(M, n)
        b[n] = spaces[n - 1].restrict(amb, spaces[n]) if normalized else amb
        if b[n] is None:
            raise HomologyError(f"b_{n} does not preserve the normalized subcomplex")
    for n in range(0, N):
        amb = connes_B(M, n)
        B[n] = spaces[n + 1].restrict(amb, spaces[n]) if normalized else amb
        if B[n] is None:
            raise HomologyError(f"B_{n} does not preserve the normalized subcomplex")
    data = MixedComplexData(M, normalized, spaces, b, B, rep)
    _check_mixed(rep, M.chirality, b.__getitem__, B.__getitem__, N)
    if not rep.ok:
        raise HomologyError(f"mixed complex identities fail: {rep.failures}")
    return data


def _total_complex(mc: MixedComplexData, maxN: int):
    """Block dimensions of Tot^m = (+)_(j>=0) D^(m-2j) for -1 <= m <= maxN + 1,
    with Tot^-1 = 0, and the differentials d^m : Tot^m -> Tot^(m+1) for m <= maxN.

    Cochain convention: d^m sends block j by b to block j and by B to block
    j + 1 of Tot^(m+1).
    """
    F = mc.source.tau(0).field
    blocks = {m: [mc.dim(m - 2 * j) for j in range(m // 2 + 1)] for m in range(-1, maxN + 2)}
    diffs = {}
    for m in range(-1, maxN + 1):
        placed = {}
        for j in range(len(blocks[m])):
            placed[(j, j)] = mc.b[m - 2 * j + 1]
            if m - 2 * j >= 1:
                placed[(j + 1, j)] = mc.B[m - 2 * j - 1]
        diffs[m] = block_map(F, blocks[m + 1], blocks[m], placed)
    return blocks, diffs


def _total_cohomology(blocks, diffs, maxN: int) -> list[int]:
    """dim H^m of the total complex for m <= maxN: dim Tot^m less the ranks of
    the differentials leaving and entering it."""
    ranks = {m: rank(d) for m, d in diffs.items()}
    return [sum(blocks[m]) - ranks[m] - ranks[m - 1] for m in range(maxN + 1)]


def cyclic_ranks(M: CyclicModuleData, maxN: int,
                 normalized: bool | None = None) -> list[int]:
    """Dimensions of HC^0..HC^maxN (cochain) or HC_0..HC_maxN (chain) from the
    total complex of the bicomplex.

    A chain module runs through the cochain total complex of its transposed
    mixed complex (b^T, B^T): over a field dim H_m(C) = dim H^m(C*).
    Truncation is safe because columns beyond the requested degree only
    contribute in higher total degrees.
    """
    if maxN + 1 > M.max_level:
        raise HomologyError(f"need levels <= {maxN + 1} built for HC up to {maxN}")
    mc = mixed_complex(M, normalized)
    if M.chirality == "cyclic":
        mc = replace(mc, b={n: m.transpose() for n, m in mc.b.items()},
                     B={n: m.transpose() for n, m in mc.B.items()})
    return _total_cohomology(*_total_complex(mc, maxN), maxN)


# -- the long exact sequence -------------------------------------------------------------------


def _induced_rank(images: LinearMap, boundaries: LinearMap) -> int:
    """Rank of a map induced on cohomology: the rank that the images of the
    cocycles add to the coboundaries of the target."""
    both = block_map(images.field, [images.codomain.dim],
                     [boundaries.domain.dim, images.domain.dim],
                     {(0, 0): boundaries, (0, 1): images})
    return rank(both) - rank(boundaries)


def sbi_consistency(M: CyclicModuleData, maxN: int) -> CheckReport:
    """Exactness bookkeeping of the periodicity sequence
    ... -> HC^(m-2) -S-> HC^m -I-> HH^m -B-> HC^(m-1) -> ... from the actual
    induced maps of the column filtration of the total complex."""
    if M.chirality != "cocyclic":
        raise HomologyError("the LES bookkeeping is implemented on the cochain side")
    if maxN + 1 > M.max_level:
        raise HomologyError(f"need levels <= {maxN + 1} built for HC up to {maxN}")
    mc = mixed_complex(M)
    F = M.tau(0).field
    blocks, diffs = _total_complex(mc, maxN)
    hc = _total_cohomology(blocks, diffs, maxN)

    def identity(d):
        return LinearMap.identity(F, TensorShape([d]))

    @cache
    def cocycles(m):
        return SubspaceBasis.from_kernel(F, diffs[m]).matrix()

    rep = CheckReport(f"periodicity sequence bookkeeping for {M.provenance}")
    for m in range(maxN + 1):
        # S: Tot^(m-2) -> Tot^m, block j onto block j + 1
        s_rank = 0
        if m >= 2:
            S = block_map(F, blocks[m], blocks[m - 2],
                          {(j + 1, j): identity(d) for j, d in enumerate(blocks[m - 2])})
            s_rank = _induced_rank(S.compose(cocycles(m - 2)), diffs[m - 1])
        # I: Tot^m -> D^m, the quotient onto block 0 and its complex (D, b)
        proj = block_map(F, [mc.dim(m)], blocks[m], {(0, 0): identity(mc.dim(m))})
        hh_boundaries = proj.compose(diffs[m - 1])
        i_rank = _induced_rank(proj.compose(cocycles(m)), hh_boundaries)
        # connecting map HH^m -> HC^(m-1): a b-cocycle z of D^m, lifted to
        # block 0 of Tot^m, has coboundary S(B z) with B z in block 0 of Tot^(m-1)
        hh_cocycles = SubspaceBasis.from_kernel(F, mc.b[m + 1])
        conn_rank = 0
        if m >= 1:
            conn = block_map(F, blocks[m - 1], [mc.dim(m)], {(0, 0): mc.B[m - 1]})
            conn_rank = _induced_rank(conn.compose(hh_cocycles.matrix()), diffs[m - 2])
        hh = hh_cocycles.dim - rank(hh_boundaries)
        rep.check(f"exactness at HC^{m}: rank S + rank I = dim HC^{m}",
                  s_rank + i_rank == hc[m])
        rep.check(f"exactness at HH^{m}: rank I + rank B = dim HH^{m}",
                  i_rank + conn_rank == hh)
    return rep
