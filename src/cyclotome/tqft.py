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

from dataclasses import dataclass, field as dc_field

from .coend import CoendData, _pairing_matrix
from .cyclic_cat import CYCLIC
from .cyclic_modules import (
    CyclicModuleData, apply_cyclic_duality, apply_reindexing,
    cocyclic_module_from_coalgebra, cyclic_module_from_algebra, coend_algebra_object,
    coend_coalgebra_object, generator_levels, invariant_tensor_basis, restrict_generators,
)
from .linalg import LinearMap, SubspaceBasis, TensorShape, UNIT, invert, whisker
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


def nested_pairing_matrix(data: CoendData, n: int) -> LinearMap:
    """The (n+1)-fold onion pairing C^(x)(n+1) (x) C^(x)(n+1) -> 1 as a square
    matrix W with W[y][x] = pairing of slot k of y against slot n-k of x."""
    F = data.field
    d = data.dim
    W1 = _pairing_matrix(data).entries
    total = d ** (n + 1)
    entries = {}

    def rec(k):
        if k == 0:
            return {(0, 0): F.one()}
        prev = rec(k - 1)
        out = {}
        for (y, x), v in prev.items():
            for (a, b), w in W1.items():
                # the innermost remaining slot of y pairs with the outermost of x
                out[(y * d + a, b * (d ** (k - 1)) + x)] = v * w
        return out

    pairs = rec(n + 1)
    for (y, x), v in pairs.items():
        if not v.is_zero():
            entries[(y, x)] = v
    return LinearMap(F, TensorShape([total]), TensorShape([total]), entries)


@dataclass
class RTModuleData:
    base: CoendData
    chirality: str
    module: CyclicModuleData
    omega_maps: dict[int, LinearMap]       # state basis -> functional basis
    omega_inverse: dict[int, LinearMap]
    reindexed_coend: CyclicModuleData
    coend_module: CyclicModuleData         # the coend module before reindexing
    report: CheckReport = dc_field(default_factory=lambda: CheckReport("rt"))


def _omega_level_maps(data: CoendData, states: dict[int, SubspaceBasis],
                      functionals: dict[int, SubspaceBasis], N: int):
    """omega^n : Hom(1, C^(x)(n+1)) -> Hom(C^(x)(n+1), 1) via the onion pairing."""
    omega = {}
    omega_inv = {}
    for n in range(N + 1):
        om = states[n].restrict(nested_pairing_matrix(data, n).transpose(), functionals[n])
        if om is None:
            raise TqftError(f"omega^{n} image leaves the functional space")
        inv = invert(om)
        if inv is None:
            raise TqftError(f"omega^{n} is singular; the base is not factorizable")
        omega[n] = om
        omega_inv[n] = inv
    return omega, omega_inv


def _gate(data: CoendData):
    if not data.pairing_nondegenerate or data.Omega is None:
        raise TqftError("the base pairing is degenerate (not factorizable)")
    if data.anomaly_free is None:
        raise TqftError("anomaly-freeness unknown: supply simples for the base")
    if not data.anomaly_free:
        raise TqftError("the base is not anomaly free")
    if data.modular is False:
        raise TqftError("the base is not modular")


def _conjugated(M: CyclicModuleData, omega: dict[int, LinearMap],
                omega_inv: dict[int, LinearMap]) -> dict[tuple, LinearMap]:
    """Every generator g of M carried through the pairing isomorphisms:
    omega_inv[target] o g o omega[source]."""
    out = {}
    for key, g in M.gen.items():
        src, tgt = generator_levels(M.chirality, key)
        out[key] = omega_inv[tgt].compose(g).compose(omega[src])
    return out


def _build_rt(data: CoendData, N: int, chirality: str) -> RTModuleData:
    """The state module: generator maps conjugate the reindexed coend module of
    the given chirality through omega."""
    _gate(data)
    if chirality == "cocyclic":
        base = cocyclic_module_from_coalgebra(coend_coalgebra_object(data), N)
    else:
        base = cyclic_module_from_algebra(coend_algebra_object(data), N)
    reindexed = apply_reindexing(base)
    states = {n: rt_state_space(data, n) for n in range(N + 1)}
    omega, omega_inv = _omega_level_maps(data, states, reindexed.spaces, N)
    module = CyclicModuleData(CYCLIC, chirality, N, states,
                              _conjugated(reindexed, omega, omega_inv),
                              provenance=f"state {chirality} module of {data.algebra.name}")
    rep = CheckReport(f"rt {chirality} module of {data.algebra.name}")
    return RTModuleData(data, chirality, module, omega, omega_inv, reindexed, base, rep)


def build_rt_cocyclic(data: CoendData, N: int) -> RTModuleData:
    """The cocyclic state module; the relation suite runs as a sanity gate."""
    return _build_rt(data, N, "cocyclic")


def build_rt_cyclic(data: CoendData, N: int) -> RTModuleData:
    return _build_rt(data, N, "cyclic")


# -- independent generator values ------------------------------------------------------------


def _closed_form_generators(rt: RTModuleData) -> dict[tuple, LinearMap]:
    """The (co)faces and (co)degeneracies of the state module whose diagram
    values are known in closed form, as postcomposition maps on the states:
    unit insertions and products (cocyclic), counit contractions and coproduct
    insertions (cyclic)."""
    data = rt.base
    M = rt.module
    d = TensorShape([data.dim])
    if rt.chirality == "cocyclic":
        ops = {"delta": LinearMap.from_function(data.field, UNIT, d,
                                                lambda c: enumerate(data.unit)),
               "sigma": data.m.reshaped(d * d, d)}
    else:
        ops = {"delta": data.counit.reshaped(d, UNIT),
               "sigma": data.Delta.reshaped(d, d * d)}
    ambient = {}
    for key in M.gen:
        if key[0] == "tau":
            continue
        op, pos = ops[key[0]], key[2]
        rest = generator_levels(M.chirality, key)[0] + 1 - pos - len(op.domain.factors)
        ambient[key] = whisker(op, TensorShape([data.dim] * pos),
                               TensorShape([data.dim] * rest))
    out = restrict_generators(M.chirality, M.spaces, ambient)
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
    for (kind, n, i), expected in _closed_form_generators(rt).items():
        ok = expected.entries == M.gen[(kind, n, i)].entries
        if kind == "sigma":
            rep.check(f"{degen} {i} at level {n} is {degen_value}", ok)
        elif 1 <= i <= n - 1:
            rep.check(f"{face} {i} at level {n} is {face_value}", ok)
        else:
            rep.check(f"[info] wrapping {face} {i} at level {n} "
                      f"{'matches' if ok else 'differs from'} {plain}", True)
    return rep


def verify_main_theorem(data: CoendData, N: int,
                        rt: RTModuleData | None = None) -> CheckReport:
    """The comparison theorem at levels <= N:

    (i) the relation suite holds for the conjugated state modules;
    (ii) the pairing maps intertwine the independently known generators with
        the reindexed coend module (genuine naturality squares);
    (iii) the cyclic-dual comparison transported through the duality;
    (iv) a negative control: dropping the reindexing breaks the rotation
        square whenever the rotation differs from its inverse.
    """
    from .cyclic_modules import check_relations

    rep = CheckReport(f"main theorem for {data.algebra.name} at levels <= {N}")
    rt = rt or build_rt_cocyclic(data, N)
    M = rt.module
    reT = rt.reindexed_coend

    rel = check_relations(M)
    rep.check("state module satisfies every cocyclic relation", rel.ok)
    sc = shape_checks(rt)
    rep.check("independent generator values match", sc.ok)

    # (ii) independent naturality squares: omega o (known generator) =
    # (reindexed coend generator) o omega, for the non-wrapping generators
    face, _, _, degen, _ = _SHAPE_NAMES[rt.chirality]
    for key, known in _closed_form_generators(rt).items():
        kind, n, i = key
        if kind == "delta" and not 1 <= i <= n - 1:
            continue
        src, tgt = generator_levels(M.chirality, key)
        lhs = rt.omega_maps[tgt].compose(known)
        rhs = reT.gen[key].compose(rt.omega_maps[src])
        rep.check(f"naturality square for {face if kind == 'delta' else degen} {i} "
                  f"at level {n}", lhs.entries == rhs.entries)
    for n in range(N + 1):
        lhs = rt.omega_maps[n].compose(M.tau(n))
        rhs = reT.tau(n).compose(rt.omega_maps[n])
        rep.check(f"rotation square at level {n}", lhs.entries == rhs.entries)

    # rotation power collapses (cocyclicity survives the conjugation)
    for n in range(N + 1):
        power = M.tau_power(n, n + 1)
        rep.check(f"rotation power (n+1) is the identity at level {n}",
                  power == LinearMap.identity(power.field, power.domain))

    # (iii) the dual comparison: the reindexed state module and the plain coend
    # module, both transported through the duality, are intertwined by omega
    lhs_dual = apply_cyclic_duality(apply_reindexing(M))
    base = rt.coend_module
    rhs_dual = apply_cyclic_duality(base)
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
    # fail wherever the rotation is not an involution
    plain = base
    control_relevant = False
    control_broken = False
    for n in range(N + 1):
        t = plain.tau(n)
        if t.entries != plain.tau_power(n, -1).entries:
            control_relevant = True
            lhs = rt.omega_maps[n].compose(M.tau(n))
            rhs = plain.tau(n).compose(rt.omega_maps[n])
            if lhs.entries != rhs.entries:
                control_broken = True
    if control_relevant:
        rep.check("negative control: dropping the reindexing breaks a rotation square",
                  control_broken)
    return rep
