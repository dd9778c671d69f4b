"""Hochschild and cyclic (co)homology of (co)cyclic modules at bounded degree.

The engine works with the mixed complex (b, B): the alternating sum of the
(co)faces and a degree-lowering operator built from the extra (co)degeneracy
and the norm of the signed rotation.  `mixed_complex` builds each b_n and
B_n once and checks the identities b b = 0, B B = 0, b B + B b = 0 once, as
exact matrix identities on the ambient maps, before restricting them to the
normalized subcomplex for cochain modules.  Hochschild ranks read one rank
per b of that complex and cyclic ranks the total complex of the same
(b, B)-bicomplex; the long-exact-sequence bookkeeping is verified from the
actual induced maps.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cache

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
    b B + B b = 0 hold exactly and are checked by mixed_identities.
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
        extra = M.codegeneracy(n, n).compose(M.tau(n + 1))
        return norm.compose(extra).compose(one_top - lam_top)
    # M_n -> M_{n+1}: (1 - signed rotation) o extra degeneracy o norm
    extra = M.tau(n + 1).compose(M.codegeneracy(n, n))
    return (one_top - lam_top).compose(extra).compose(norm)


def mixed_identities(M: CyclicModuleData, b: dict[int, LinearMap],
                     B: dict[int, LinearMap]) -> CheckReport:
    """b b = 0, B B = 0 and b B + B b = 0 at every built level of M, on its
    maps b[n] = hochschild_differential(M, n) and B[n] = connes_B(M, n)."""
    def composite(f, g):
        """f o g on the cochain side, g o f on the chain side."""
        return f.compose(g) if M.chirality == "cocyclic" else g.compose(f)

    N = M.max_level
    rep = CheckReport(f"mixed complex identities for {M.provenance}")
    for n in range(2, N + 1):
        rep.check(f"b b = 0 at level {n}", composite(b[n], b[n - 1]).is_zero())
    for n in range(0, N - 1):
        rep.check(f"B B = 0 at level {n}", composite(B[n], B[n + 1]).is_zero())
    for n in range(1, N):
        anti = composite(b[n], B[n - 1]) + composite(B[n], b[n + 1])
        rep.check(f"b B + B b = 0 at level {n}", anti.is_zero())
    return rep


# -- the (b, B)-bicomplex --------------------------------------------------------------------


@dataclass
class MixedComplexData:
    source: CyclicModuleData
    spaces: dict[int, SubspaceBasis]
    b: dict[int, LinearMap]
    B: dict[int, LinearMap]
    report: CheckReport      # mixed_identities on the ambient maps

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
    """b and B at every built level of M, each built once on the ambient
    spaces and checked once by mixed_identities, then restricted to the
    normalized subcomplex (by default for cochain modules).  Failing
    identities raise HomologyError."""
    if M.variant.kind == "paracyclic":
        raise HomologyError("paracyclic modules admit no mixed complex here")
    if normalized is None:
        normalized = M.chirality == "cocyclic"
    if normalized and M.chirality != "cocyclic":
        raise HomologyError("normalization is implemented on the cochain side")
    N = M.max_level
    b = {n: hochschild_differential(M, n) for n in range(1, N + 1)}
    B = {n: connes_B(M, n) for n in range(N)}
    rep = mixed_identities(M, b, B)
    if not rep.ok:
        raise HomologyError(f"mixed complex identities fail: {rep.failures}")
    if not normalized:
        F = M.tau(0).field
        spaces = {n: SubspaceBasis.standard(F, M.dim(n)) for n in range(N + 1)}
        return MixedComplexData(M, spaces, b, B, rep)
    spaces = _normalized_spaces(M)
    # b_n leaves level n - 1 and B_n level n + 1 on the cochain side
    for name, maps, shift in (("b", b, -1), ("B", B, 1)):
        for n, amb in maps.items():
            maps[n] = spaces[n + shift].restrict(amb, spaces[n])
            if maps[n] is None:
                raise HomologyError(f"{name}_{n} does not preserve the normalized subcomplex")
    return MixedComplexData(M, spaces, b, B, rep)


def hochschild_ranks(mc: MixedComplexData, maxN: int) -> list[int]:
    """Dimensions of HH^0..HH^maxN (cochain) or HH_0..HH_maxN (chain) of the
    mixed complex: degree n lies between b_n and b_(n+1), one rank each."""
    if maxN + 1 > mc.source.max_level:
        raise HomologyError(f"need levels <= {maxN + 1} built")
    ranks = {0: 0, **{n: rank(mc.b[n]) for n in range(1, maxN + 2)}}
    return [mc.dim(n) - ranks[n] - ranks[n + 1] for n in range(maxN + 1)]


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


def _total_cohomology(blocks, diffs, maxN: int, rank_of) -> list[int]:
    """dim H^m of the total complex for m <= maxN: dim Tot^m less the ranks of
    the differentials leaving and entering it."""
    ranks = {m: rank_of(d) for m, d in diffs.items()}
    return [sum(blocks[m]) - ranks[m] - ranks[m - 1] for m in range(maxN + 1)]


def cyclic_ranks(mc: MixedComplexData, maxN: int) -> list[int]:
    """Dimensions of HC^0..HC^maxN (cochain) or HC_0..HC_maxN (chain) from the
    total complex of the bicomplex.

    A chain module runs through the cochain total complex of its transposed
    mixed complex (b^T, B^T): over a field dim H_m(C) = dim H^m(C*).
    Truncation is safe because columns beyond the requested degree only
    contribute in higher total degrees.
    """
    if maxN + 1 > mc.source.max_level:
        raise HomologyError(f"need levels <= {maxN + 1} built for HC up to {maxN}")
    if mc.source.chirality == "cyclic":
        mc = replace(mc, b={n: m.transpose() for n, m in mc.b.items()},
                     B={n: m.transpose() for n, m in mc.B.items()})
    return _total_cohomology(*_total_complex(mc, maxN), maxN, rank)


# -- the long exact sequence -------------------------------------------------------------------


def _induced_rank(images: LinearMap, boundaries: LinearMap, rank_of) -> int:
    """Rank of a map induced on cohomology: the rank that the images of the
    cocycles add to the coboundaries of the target."""
    both = block_map(images.field, [images.codomain.dim],
                     [boundaries.domain.dim, images.domain.dim],
                     {(0, 0): boundaries, (0, 1): images})
    return rank_of(both) - rank_of(boundaries)


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
    # the total cohomology, the induced maps and HH share boundary maps, and
    # at low degree the HH boundaries are total differentials: rank each once
    ranked = cache(rank)
    blocks, diffs = _total_complex(mc, maxN)
    hc = _total_cohomology(blocks, diffs, maxN, ranked)

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
            s_rank = _induced_rank(S.compose(cocycles(m - 2)), diffs[m - 1], ranked)
        # I: Tot^m -> D^m, the quotient onto block 0 and its complex (D, b)
        proj = block_map(F, [mc.dim(m)], blocks[m], {(0, 0): identity(mc.dim(m))})
        hh_boundaries = proj.compose(diffs[m - 1])
        i_rank = _induced_rank(proj.compose(cocycles(m)), hh_boundaries, ranked)
        # connecting map HH^m -> HC^(m-1): a b-cocycle z of D^m, lifted to
        # block 0 of Tot^m, has coboundary S(B z) with B z in block 0 of Tot^(m-1)
        hh_cocycles = SubspaceBasis.from_kernel(F, mc.b[m + 1])
        conn_rank = 0
        if m >= 1:
            conn = block_map(F, blocks[m - 1], [mc.dim(m)], {(0, 0): mc.B[m - 1]})
            conn_rank = _induced_rank(conn.compose(hh_cocycles.matrix()), diffs[m - 2],
                                       ranked)
        hh = hh_cocycles.dim - ranked(hh_boundaries)
        rep.check(f"exactness at HC^{m}: rank S + rank I = dim HC^{m}",
                  s_rank + i_rank == hc[m])
        rep.check(f"exactness at HH^{m}: rank I + rank B = dim HH^{m}",
                  i_rank + conn_rank == hh)
    return rep
