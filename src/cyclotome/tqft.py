"""The surface-state (co)cyclic modules of the quantum invariant attached to an
anomaly-free factorizable base, and the machine verification of their
isomorphism with the reindexed coend modules.

State spaces are the invariant vectors Hom(1, C^(x)(n+1)); the generator maps
are defined by conjugating the reindexed coend modules through the nested
pairing isomorphism.  The textually known generator values (unit insertions,
product contractions, counit contractions, coproduct insertions) are then
verified against this definition, which makes the comparison a genuine theorem
check on those generators rather than a tautology.
"""

from __future__ import annotations

from dataclasses import dataclass

from .coend import CoendData, _pairing_matrix
from .cyclic_cat import CYCLIC
from .cyclic_modules import (
    CyclicModuleData, apply_dual_reindexing, apply_reindexing,
    cocyclic_module_from_coalgebra, cyclic_module_from_algebra, generator_levels,
    invariant_tensor_basis, object_faces, restrict_generators,
)
from .linalg import LinearMap, SubspaceBasis, whisker
from .reports import CheckReport


class TqftError(ValueError):
    """Raised when the base fails the modularity/anomaly gates."""


def rt_state_space(data: CoendData, n: int) -> SubspaceBasis:
    """Basis of the genus-(n+1) state space Hom(1, C^(x)(n+1))."""
    basis = data.invariant_basis(n + 1)
    # identification check: the state space has the dimension of the
    # invariant-tensor model
    expected = invariant_tensor_basis(data.algebra, n + 1).dim
    if basis.dim != expected:
        raise TqftError(f"state space dim {basis.dim} != invariant tensor dim "
                        f"{expected} at level {n}")
    return basis


def _onion(M: LinearMap, n: int, vectors: LinearMap, target: SubspaceBasis,
           reversal: list[int]) -> LinearMap | None:
    """The coordinates in target of N_M^T o vectors, or None if an image leaves
    the target span.  N_M[y][x] = prod_k M[y_k][x_(n-k)] is the onion matrix
    on C^(x)(n+1) of a d x d matrix M, and N_M^T = P_rev o (M^T)^(x)(n+1) is
    applied one slot at a time, as n + 1 whiskers of M^T at (n+1)d products
    per nonzero instead of d^(n+1), with the slot reversal P_rev as a
    renumbering of the rows."""
    Mt, d = M.transpose(), M.domain
    for k in range(n + 1):
        vectors = whisker(Mt, d ** k, d ** (n - k)).compose(vectors)
    return target.coordinates_of(vectors, reversal)


@dataclass
class RTModuleData:
    base: CoendData
    chirality: str
    module: CyclicModuleData
    omega_maps: dict[int, LinearMap]       # state basis -> functional basis
    omega_inverse: dict[int, LinearMap]
    reindexed_coend: CyclicModuleData
    coend_module: CyclicModuleData         # the coend module before reindexing
    known: dict[tuple, LinearMap]          # the generators known in closed form


def _conjugation(data: CoendData, M: CyclicModuleData, states: dict[int, SubspaceBasis]):
    """omega^n : Hom(1, C^(x)(n+1)) -> Hom(C^(x)(n+1), 1) via the onion pairing,
    the restriction of N_W^T for the pairing matrix W, its inverse, and every
    generator g of M carried through them as omega^-1[target] o (g o omega[source]).

    In N_A o N_B = (AB)^(x)(n+1) the two slot reversals cancel, so N_W^-1 =
    N_(W^-1), and omega^-n restricts N_(W^-1)^T; W^-1 is the inverse
    copairing Omega[a d + b] = W^-1[a][b] that build_coend_hopf certifies.
    omega^-0 o omega^0 = id is checked exactly."""
    F, d, N = data.field, data.dim, M.max_level
    W = _pairing_matrix(data)
    Winv = LinearMap(F, d, d, {divmod(i, d): v for i, v in enumerate(data.Omega)})
    rev, lifts, omega, omega_inv = {-1: [0]}, {}, {}, {}
    for n in range(N + 1):
        # index a d^n + x reversed is (x reversed) d + a
        rev[n] = [x * d + a for a in range(d) for x in rev[n - 1]]
        lifts[n] = M.spaces[n].matrix()
        omega[n] = _onion(W, n, states[n].matrix(), M.spaces[n], rev[n])
        omega_inv[n] = _onion(Winv, n, lifts[n], states[n], rev[n])
        if omega[n] is None or omega_inv[n] is None:
            raise TqftError(f"omega^{n} does not map the states onto the functionals")
    if omega_inv[0].compose(omega[0]) != LinearMap.identity(F, omega[0].domain):
        raise TqftError("omega^-0 o omega^0 is not the identity: Omega does not invert W")
    # a standard functional basis lifts by the identity: skip those products
    standard = {n for n, lift in lifts.items() if lift == LinearMap.identity(F, lift.codomain)}
    gen = {}
    for key, g in M.gen.items():
        src, tgt = generator_levels(M.chirality, key)
        moved = g.compose(omega[src])
        if tgt not in standard:
            moved = lifts[tgt].compose(moved)
        gen[key] = _onion(Winv, tgt, moved, states[tgt], rev[tgt])
    return omega, omega_inv, gen


def _gate(data: CoendData):
    if not data.pairing_nondegenerate or data.Omega is None:
        raise TqftError("the base pairing is degenerate (not factorizable)")
    if data.anomaly_free is None:
        raise TqftError("anomaly-freeness unknown: supply simples for the base")
    if not data.anomaly_free:
        raise TqftError("the base is not anomaly free")
    if data.modular is False:
        raise TqftError("the base is not modular")


def _build_rt(data: CoendData, N: int, chirality: str) -> RTModuleData:
    """The state module: generator maps conjugate the reindexed coend module of
    the given chirality through omega."""
    _gate(data)
    base = (cocyclic_module_from_coalgebra if chirality == "cocyclic"
            else cyclic_module_from_algebra)(data, N)
    reindexed = apply_reindexing(base)
    states = {n: rt_state_space(data, n) for n in range(N + 1)}
    omega, omega_inv, gen = _conjugation(data, reindexed, states)
    module = CyclicModuleData(CYCLIC, chirality, N, states, gen,
                              provenance=f"state {chirality} module of {data.algebra.name}")
    return RTModuleData(data, chirality, module, omega, omega_inv, reindexed, base,
                        _closed_form_generators(data, module))


def build_rt_cocyclic(data: CoendData, N: int) -> RTModuleData:
    """The cocyclic state module; verify_main_theorem checks it."""
    return _build_rt(data, N, "cocyclic")


def build_rt_cyclic(data: CoendData, N: int) -> RTModuleData:
    return _build_rt(data, N, "cyclic")


# -- independent generator values ------------------------------------------------------------


def _closed_form_generators(data: CoendData, M: CyclicModuleData) -> dict[tuple, LinearMap]:
    """The (co)faces and (co)degeneracies of the state module M whose diagram
    values are known in closed form, as postcomposition maps on the states:
    the object-level faces of the coend's algebra object (unit insertions and
    products, cocyclic) or coalgebra object (counit contractions and coproduct
    insertions, cyclic), restricted to the state spaces."""
    out = restrict_generators(M.chirality, M.spaces,
                              object_faces(data, M.chirality, M.max_level))
    if any(g is None for g in out.values()):
        raise TqftError("postcomposition leaves the invariant subspace")
    return out


# chirality -> (face word, its closed form, the wrapping face's plain form,
#               degeneracy word, its closed form)
_SHAPE_NAMES = {
    "cocyclic": ("coface", "the unit insertion", "plain insertion",
                 "codegeneracy", "the product"),
    "cyclic": ("face", "the counit contraction", "plain counit",
               "degeneracy", "the coproduct insertion"),
}


def shape_checks(rt: RTModuleData) -> CheckReport:
    """Verify the generators whose diagram values are known in closed form:
    unit-insertion cofaces and product codegeneracies on the cocyclic side,
    counit faces and coproduct degeneracies on the cyclic side.

    The inner cofaces/faces are required to match; the wrapping ones are
    reported informationally (their diagrams have no closed textual form).
    """
    M = rt.module
    rep = CheckReport(f"shape checks for {M.provenance}")
    face, face_value, plain, degen, degen_value = _SHAPE_NAMES[rt.chirality]
    for (kind, n, i), expected in rt.known.items():
        ok = expected.entries == M.gen[(kind, n, i)].entries
        if kind == "sigma":
            rep.check(f"{degen} {i} at level {n} is {degen_value}", ok)
        elif 1 <= i <= n - 1:
            rep.check(f"{face} {i} at level {n} is {face_value}", ok)
        else:
            rep.check(f"[info] wrapping {face} {i} at level {n} "
                      f"{'matches' if ok else 'differs from'} {plain}", True)
    return rep


def verify_main_theorem(rt: RTModuleData, rel: CheckReport, sc: CheckReport) -> CheckReport:
    """The comparison theorem for the cocyclic state module rt at every built
    level, given its relation report rel (check_relations) and its shape
    report sc (shape_checks):

    (i) the relation suite holds for the conjugated state modules;
    (ii) the pairing maps intertwine the independently known generators with
        the reindexed coend module (genuine naturality squares);
    (iii) the cyclic-dual comparison transported through the duality;
    (iv) a negative control: dropping the reindexing breaks the rotation
        square whenever the rotation differs from its inverse.
    """
    M = rt.module
    N = M.max_level
    reT = rt.reindexed_coend
    rep = CheckReport(f"main theorem for {rt.base.algebra.name} at levels <= {N}")
    rep.check("state module satisfies every cocyclic relation", rel.ok)
    rep.check("independent generator values match", sc.ok)

    # (ii) independent naturality squares: omega o (known generator) =
    # (reindexed coend generator) o omega, for the non-wrapping generators
    face, _, _, degen, _ = _SHAPE_NAMES[rt.chirality]
    for key, known in rt.known.items():
        kind, n, i = key
        if kind == "delta" and not 1 <= i <= n - 1:
            continue
        src, tgt = generator_levels(M.chirality, key)
        lhs = rt.omega_maps[tgt].compose(known)
        rhs = reT.gen[key].compose(rt.omega_maps[src])
        rep.check(f"naturality square for {face if kind == 'delta' else degen} {i} "
                  f"at level {n}", lhs.entries == rhs.entries)
    rotated = {n: rt.omega_maps[n].compose(M.tau(n)).entries for n in range(N + 1)}
    for n in range(N + 1):
        rep.check(f"rotation square at level {n}",
                  rotated[n] == reT.tau(n).compose(rt.omega_maps[n]).entries)

    # rotation power collapses (cocyclicity survives the conjugation)
    for n in range(N + 1):
        power = M.tau_power(n, n + 1)
        rep.check(f"rotation power (n+1) is the identity at level {n}",
                  power == LinearMap.identity(power.field, power.domain))

    # (iii) the dual comparison: the reindexed state module and the plain coend
    # module, both transported through the duality, are intertwined by omega.
    # Transporting M o Phi along L is transporting M along Phi o L, and
    # base = reT o Phi as Phi o Phi = id on words; Phi o L sends t_n to tau_n,
    # so neither side inverts a rotation
    lhs_dual, rhs_dual = apply_dual_reindexing(M), apply_dual_reindexing(reT)
    base = rt.coend_module
    ok = True
    for key, g in rhs_dual.gen.items():
        src, tgt = generator_levels(rhs_dual.chirality, key)
        lhs = rt.omega_maps[tgt].compose(lhs_dual.gen[key])
        rhs = g.compose(rt.omega_maps[src])
        if lhs.entries != rhs.entries:
            ok = False
            rep.check(f"dual comparison fails at {key}", False)
    rep.check("dual comparison holds for every generator", ok)

    # (iv) negative control: without the reindexing the rotation square must
    # fail wherever the rotation is not an involution; the reindexed coend
    # module already holds each inverse rotation
    relevant = [n for n in range(N + 1) if base.tau(n).entries != reT.tau(n).entries]
    if relevant:
        rep.check("negative control: dropping the reindexing breaks a rotation square",
                  any(rotated[n] != base.tau(n).compose(rt.omega_maps[n]).entries
                      for n in relevant))
    return rep
