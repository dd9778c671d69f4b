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

from .cyclic_modules import CyclicModuleData
from .linalg import LinearMap, SubspaceBasis, TensorShape, kernel_and_rank, rank
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


def mixed_identities(M: CyclicModuleData, N: int | None = None) -> CheckReport:
    """b b = 0, B B = 0 and b B + B b = 0 at every built level."""
    N = M.max_level if N is None else min(N, M.max_level)
    rep = CheckReport(f"mixed complex identities for {M.provenance}")
    for n in range(2, N + 1):
        b2 = (hochschild_differential(M, n).compose(hochschild_differential(M, n - 1))
              if M.chirality == "cocyclic"
              else hochschild_differential(M, n - 1).compose(hochschild_differential(M, n)))
        rep.check(f"b b = 0 at level {n}", b2.is_zero())
    for n in range(0, N - 1):
        if M.chirality == "cocyclic":
            BB = connes_B(M, n).compose(connes_B(M, n + 1))
        else:
            BB = connes_B(M, n + 1).compose(connes_B(M, n))
        rep.check(f"B B = 0 at level {n}", BB.is_zero())
    for n in range(1, N):
        if M.chirality == "cocyclic":
            anti = hochschild_differential(M, n).compose(connes_B(M, n - 1)) + \
                connes_B(M, n).compose(hochschild_differential(M, n + 1))
        else:
            anti = connes_B(M, n - 1).compose(hochschild_differential(M, n)) + \
                hochschild_differential(M, n + 1).compose(connes_B(M, n))
        rep.check(f"b B + B b = 0 at level {n}", anti.is_zero())
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
        rows = {}
        row = 0
        for j in range(n):
            sigma = M.codegeneracy(n - 1, j)
            for (r, c), v in sigma.entries.items():
                rows[(row + r, c)] = v
            row += sigma.codomain.dim
        system = LinearMap(F, TensorShape([M.dim(n)]), TensorShape([max(row, 1)]),
                           rows)
        out[n] = SubspaceBasis.from_kernel(F, system)
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
    # the defining identities, on the stored complex
    for n in range(2, N + 1):
        if M.chirality == "cocyclic":
            rep.check(f"b b = 0 at {n}", b[n].compose(b[n - 1]).is_zero())
        else:
            rep.check(f"b b = 0 at {n}", b[n - 1].compose(b[n]).is_zero())
    for n in range(0, N - 1):
        BB = B[n].compose(B[n + 1]) if M.chirality == "cocyclic" \
            else B[n + 1].compose(B[n])
        rep.check(f"B B = 0 at {n}", BB.is_zero())
    for n in range(1, N):
        if M.chirality == "cocyclic":
            anti = b[n].compose(B[n - 1]) + B[n].compose(b[n + 1])
        else:
            anti = B[n - 1].compose(b[n]) + b[n + 1].compose(B[n])
        rep.check(f"b B + B b = 0 at {n}", anti.is_zero())
    if not rep.ok:
        raise HomologyError(f"mixed complex identities fail: {rep.failures}")
    return data


def _total_complex(mc: MixedComplexData, top: int):
    """Degrees, spaces, and differentials of Tot^m = (+)_(j>=0) D^(m-2j), m <= top.

    Cochain convention: the differential sends the j-component by b to the
    j-component and by B to the (j+1)-component of the next degree.
    """
    M = mc.source
    F = M.tau(0).field
    comps = {m: [m - 2 * j for j in range(m // 2 + 1) if m - 2 * j >= 0]
             for m in range(top + 1)}

    def tot_dim(m):
        return sum(mc.dim(k) for k in comps[m])

    diffs = {}
    for m in range(top):
        entries = {}
        src_offsets = []
        off = 0
        for k in comps[m]:
            src_offsets.append(off)
            off += mc.dim(k)
        tgt_offsets = []
        off = 0
        for k in comps[m + 1]:
            tgt_offsets.append(off)
            off += mc.dim(k)
        for j, k in enumerate(comps[m]):
            # b: D^k -> D^(k+1), stays at component j of degree m+1
            if k + 1 <= M.max_level and j < len(comps[m + 1]):
                bmat = mc.b.get(k + 1)
                if bmat is not None and comps[m + 1][j] == k + 1:
                    for (r, c), v in bmat.entries.items():
                        entries[(tgt_offsets[j] + r, src_offsets[j] + c)] = v
            # B: D^k -> D^(k-1), moves to component j+1
            if k - 1 >= 0 and j + 1 < len(comps[m + 1]):
                Bmat = mc.B.get(k - 1)
                if Bmat is not None and comps[m + 1][j + 1] == k - 1:
                    for (r, c), v in Bmat.entries.items():
                        key = (tgt_offsets[j + 1] + r, src_offsets[j] + c)
                        entries[key] = entries.get(key, F.zero()) + v
        diffs[m] = LinearMap(F, TensorShape([max(tot_dim(m), 0)]),
                             TensorShape([max(tot_dim(m + 1), 0)]), entries)
    return comps, tot_dim, diffs


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
    top = maxN + 1
    comps, tot_dim, diffs = _total_complex(mc, top)
    out = []
    for m in range(maxN + 1):
        ker_dim = tot_dim(m) - kernel_and_rank(diffs[m])[1] if m in diffs \
            else tot_dim(m)
        im_rank = kernel_and_rank(diffs[m - 1])[1] if m >= 1 else 0
        out.append(ker_dim - im_rank)
    return out


# -- the long exact sequence -------------------------------------------------------------------


def _induced_rank(cols: list[list], target_im: LinearMap, field, tgt_dim: int) -> int:
    """Rank of a chain map induced on cohomology: the images cols of the
    cocycles modulo the coboundaries of the target."""
    base_rank = kernel_and_rank(target_im)[1]
    entries = dict(target_im.entries)
    ncols = target_im.domain.dim
    for add_c, vec in enumerate(cols):
        for r, v in enumerate(vec):
            if not v.is_zero():
                entries[(r, ncols + add_c)] = v
    big = LinearMap(field, TensorShape([ncols + len(cols)]),
                    TensorShape([tgt_dim]), entries)
    return kernel_and_rank(big)[1] - base_rank


def sbi_consistency(M: CyclicModuleData, maxN: int) -> CheckReport:
    """Exactness bookkeeping of the periodicity sequence
    ... -> HC^(m-2) -S-> HC^m -I-> HH^m -B-> HC^(m-1) -> ... from the actual
    induced maps of the column filtration of the total complex."""
    if M.chirality != "cocyclic":
        raise HomologyError("the LES bookkeeping is implemented on the cochain side")
    mc = mixed_complex(M)
    F = M.tau(0).field
    top = maxN + 2
    comps, tot_dim, diffs = _total_complex(mc, top)

    def cocycles(m):
        return kernel_and_rank(diffs[m])[0]

    def boundaries_map(m):
        return diffs[m - 1] if m >= 1 else LinearMap.zero(
            F, TensorShape([0]), TensorShape([tot_dim(m)]))

    def hc_dim(m):
        if m < 0:
            return 0
        k = tot_dim(m) - (kernel_and_rank(diffs[m])[1] if m in diffs else 0)
        return k - (kernel_and_rank(diffs[m - 1])[1] if m >= 1 else 0)

    # HH from the quotient complex (the j = 0 column with differential b)
    def hh_dim(m):
        bm1 = mc.b.get(m + 1)
        ker = mc.dim(m) - (kernel_and_rank(bm1)[1] if bm1 is not None else 0)
        im = kernel_and_rank(mc.b[m])[1] if m >= 1 else 0
        return ker - im

    rep = CheckReport(f"periodicity sequence bookkeeping for {M.provenance}")

    def inclusion(m):
        """Tot^(m-2) -> Tot^m as the j >= 1 components (the S-side chain map)."""
        entries = {}
        src = comps[m - 2] if m - 2 >= 0 else []
        off_src = 0
        offs_t = {}
        off = 0
        for j, k in enumerate(comps[m]):
            offs_t[j] = off
            off += mc.dim(k)
        for j, k in enumerate(src):
            tgt_j = j + 1
            for r in range(mc.dim(k)):
                entries[(offs_t[tgt_j] + r, off_src + r)] = F.one()
            off_src += mc.dim(k)
        return LinearMap(F, TensorShape([tot_dim(m - 2) if m >= 2 else 0]),
                         TensorShape([tot_dim(m)]), entries)

    def projection(m):
        """Tot^m -> D^m, the quotient onto the j = 0 column."""
        entries = {}
        for r in range(mc.dim(m)):
            entries[(r, r)] = F.one()
        return LinearMap(F, TensorShape([tot_dim(m)]),
                         TensorShape([mc.dim(m)]), entries)

    for m in range(maxN + 1):
        # induced S: HC^(m-2) -> HC^m
        if m >= 2:
            inc = inclusion(m)
            zs = cocycles(m - 2)
            s_rank = _induced_rank([inc.apply(z) for z in zs],
                                   boundaries_map(m), F, tot_dim(m))
        else:
            s_rank = 0
        # induced I: HC^m -> HH^m
        proj = projection(m)
        zs_tot = cocycles(m)
        bmap = mc.b[m] if m >= 1 else LinearMap.zero(F, TensorShape([0]),
                                                     TensorShape([mc.dim(0)]))
        i_rank = _induced_rank([proj.apply(z) for z in zs_tot], bmap, F, mc.dim(m))
        # induced connecting B: HH^m -> HC^(m-1): lift to column, apply B
        bm1 = mc.b.get(m + 1)
        if bm1 is not None:
            basis, _ = kernel_and_rank(bm1)
        else:
            basis = [[F.one() if i == j else F.zero() for i in range(mc.dim(m))]
                     for j in range(mc.dim(m))]
        conn_rank = 0
        if m >= 1:
            images = []
            Bm = mc.B.get(m - 1)
            for z in basis:
                w = Bm.apply(z)
                tot_vec = list(w) + [F.zero()] * (tot_dim(m - 1) - len(w))
                images.append(tot_vec)
            conn_rank = _induced_rank(images, boundaries_map(m - 1), F, tot_dim(m - 1))
        rep.check(f"exactness at HC^{m}: rank S + rank I = dim HC^{m}",
                  s_rank + i_rank == hc_dim(m))
        rep.check(f"exactness at HH^{m}: rank I + rank B = dim HH^{m}",
                  i_rank + conn_rank == hh_dim(m))
    return rep
