"""(Co)cyclic, paracyclic, and r-cyclic modules from (co)algebras in braided
module categories, the explicit model on invariant tensors for the coend of a
ribbon Hopf algebra, cyclic duals, reindexing, and the contracting homotopy.

Two independent routes are implemented and compared exactly: the explicit
structure-constant formulas on the invariant tensor subspaces, and the generic
construction from a (co)algebra object via braided rotations on Hom-spaces.
Their agreement pins every braiding and twist convention.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from typing import Callable

from .cyclic_cat import (
    CYCLIC, PARACYCLIC, CategoryVariant, CyclicMap, GeneratorWord, RCyclic,
    Token, dualize_L, morphism_word, reindex_Phi, relation_instances,
)
from .coend import CoendData, _is_intertwiner
from .fields import Scalar
from .hopf import (
    HopfAlgebraData, ModuleData, Vector, braided_rotation, coadjoint_action,
    coadjoint_blocks, hom_basis, invariance_blocks, trivial_module, twist, verify_axioms,
)
from .linalg import (
    LinearMap, SubspaceBasis, UNIT, invert, kron_sum, literal_parser,
    map_from_json, map_to_json, stack, vector_from_json, vector_to_json, whisker,
)
from .reports import CheckReport


class CyclicModuleError(ValueError):
    """Raised on malformed module data or failed construction gates."""


# -- invariant tensors -------------------------------------------------------------


def invariant_tensor_basis(H: HopfAlgebraData, n: int) -> SubspaceBasis:
    """Basis of the twisted-conjugation invariants
    {X in H^(x)n : X <| h = eps(h) X for all h}: the kernel of the stacked
    blocks ad_n(e_k) - eps(e_k) id."""
    if n < 1:
        raise CyclicModuleError("invariant tensors need n >= 1")
    blocks = invariance_blocks(coadjoint_blocks(H, n).__getitem__, H.epsilon)
    return SubspaceBasis.from_kernel(H.field, stack(blocks))


def invariant_functional_basis(V: ModuleData) -> SubspaceBasis:
    """Basis of Hom(V, 1) as functional coordinate vectors."""
    return hom_basis(V, trivial_module(V.algebra))


# -- the carrier type ------------------------------------------------------------------


@dataclass
class CyclicModuleData:
    """A (co)cyclic / paracyclic / r-cyclic module, stored as level bases plus
    generator-indexed matrices in those bases."""

    variant: CategoryVariant
    chirality: str                      # "cyclic" | "cocyclic"
    max_level: int
    spaces: dict[int, SubspaceBasis]
    gen: dict[tuple, LinearMap]         # ("delta"|"sigma"|"tau", n, i) -> matrix
    provenance: str = ""
    level_modules: dict[int, ModuleData] = dc_field(default_factory=dict)

    def __post_init__(self):
        if self.chirality not in ("cyclic", "cocyclic"):
            raise CyclicModuleError(f"unknown chirality {self.chirality!r}")
        # the well-definedness gate: a generator whose ambient map does not
        # restrict to the level spaces arrives as None (SubspaceBasis.restrict)
        for key, g in self.gen.items():
            if g is None:
                raise CyclicModuleError(f"{key}: image leaves the invariant subspace")

    def dim(self, n: int) -> int:
        return self.spaces[n].dim

    def coface(self, n: int, i: int) -> LinearMap:
        """The matrix of delta_i^n (cocyclic) or d_i^n (cyclic)."""
        return self.gen[("delta", n, i)]

    def codegeneracy(self, n: int, j: int) -> LinearMap:
        return self.gen[("sigma", n, j)]

    def tau(self, n: int) -> LinearMap:
        return self.gen[("tau", n)]

    def tau_power(self, n: int, e: int) -> LinearMap:
        """t_n^e: t_n, or its inverse for e < 0, composed |e| - 1 times."""
        t = self.tau(n)
        if e == 0:
            return LinearMap.identity(t.field, t.domain)
        if e < 0:
            t = invert(t)
            if t is None:
                raise CyclicModuleError(f"cyclic operator at level {n} is singular")
        out = t
        for _ in range(abs(e) - 1):
            out = t.compose(out)
        return out

    def token_matrix(self, tok: Token) -> LinearMap:
        if tok.kind == "tau":
            return self.tau_power(tok.level, tok.index)
        return self.gen[(_KEY_KIND[tok.kind], tok.level, tok.index)]

    def evaluate_word(self, word: GeneratorWord, level: int | None = None,
                      memo: dict | None = None) -> LinearMap:
        """The image of a covariant generator word under the module; memo, if
        given, holds the matrix of each token already evaluated."""
        if not word.tokens:
            if level is None:
                raise CyclicModuleError("empty word needs a level")
            return LinearMap.identity(self._field(), self.dim(level))
        if memo is None:
            memo = {}
        for t in word.tokens:
            if t not in memo:
                memo[t] = self.token_matrix(t)
        mats = [memo[t] for t in word.tokens]
        if self.chirality == "cocyclic":
            out = mats[-1]
            for m in reversed(mats[:-1]):
                out = m.compose(out)
        else:
            out = mats[0]
            for m in mats[1:]:
                out = m.compose(out)
        return out

    def evaluate_morphism(self, f: CyclicMap) -> LinearMap:
        """Evaluate an arbitrary morphism via its normal form."""
        return self.evaluate_word(morphism_word(f), level=f.source_n)

    def _field(self):
        for b in self.spaces.values():
            return b.field
        raise CyclicModuleError("module has no levels")


def check_relations(M: CyclicModuleData, N: int | None = None) -> CheckReport:
    """Every defining relation instance at levels <= N as an exact matrix identity."""
    N = M.max_level if N is None else min(N, M.max_level)
    rep = CheckReport(f"relations for {M.provenance or 'module'} "
                      f"({M.variant}, {M.chirality}, N={N})")
    for inst in relation_instances(N, M.variant):
        lhs = M.evaluate_word(inst.lhs, level=inst.identity_level)
        if inst.identity_level is not None:
            rhs = LinearMap.identity(lhs.field, M.dim(inst.identity_level))
        else:
            rhs = M.evaluate_word(inst.rhs)
        rep.check(f"{inst.name}@{inst.level}"
                  f"[{inst.lhs!r} = {inst.rhs!r}]",
                  lhs.entries == rhs.entries)
    return rep


# -- the generator table ----------------------------------------------------------------


# generator key kind -> the kind of its Token in cyclic_cat's words
_TOKEN_KIND = {"delta": "coface", "sigma": "codegeneracy", "tau": "tau"}
_KEY_KIND = {tok: key for key, tok in _TOKEN_KIND.items()}


def generator_keys(N: int) -> list[tuple]:
    """The generator keys of a module built to level N, level by level: the
    rotation ("tau", n), the (co)faces ("delta", n, i) for n >= 1 and the
    (co)degeneracies ("sigma", n, j) for n < N."""
    keys = []
    for n in range(N + 1):
        keys.append(("tau", n))
        if n:
            keys += [("delta", n, i) for i in range(n + 1)]
        if n < N:
            keys += [("sigma", n, j) for j in range(n + 1)]
    return keys


def generator_levels(chirality: str, key: tuple) -> tuple[int, int]:
    """(source, target) level of a generator: on the cyclic side faces lower
    the level and degeneracies raise it, on the cocyclic side the reverse."""
    kind, n = key[0], key[1]
    src, tgt = {"tau": (n, n), "delta": (n, n - 1), "sigma": (n, n + 1)}[kind]
    return (src, tgt) if chirality == "cyclic" else (tgt, src)


def _flip(chirality: str) -> str:
    return "cocyclic" if chirality == "cyclic" else "cyclic"


def restrict_generators(chirality: str, spaces: dict[int, SubspaceBasis],
                        ambient: dict[tuple, LinearMap]) -> dict[tuple, LinearMap | None]:
    """Each ambient generator restricted from its source level space to its
    target level space, or None where an image leaves the target space."""
    gen = {}
    for key, amb in ambient.items():
        src, tgt = generator_levels(chirality, key)
        gen[key] = spaces[src].restrict(amb, spaces[tgt])
    return gen


def _restricted(variant: CategoryVariant, chirality: str, N: int,
                spaces: dict[int, SubspaceBasis], ambient: dict[tuple, LinearMap],
                provenance: str, level_modules: dict | None = None) -> CyclicModuleData:
    """The module whose generators are the ambient maps restricted to the level
    spaces; an image leaving its level space is rejected by CyclicModuleData."""
    return CyclicModuleData(variant, chirality, N, spaces,
                            restrict_generators(chirality, spaces, ambient),
                            provenance=provenance, level_modules=level_modules or {})


def _hom_module(variant: CategoryVariant, chirality: str, gen: dict[tuple, LinearMap],
                N: int, spaces: dict[int, SubspaceBasis], target: int,
                provenance: str, level_modules: dict | None = None) -> CyclicModuleData:
    """Hom(-, X) of an object-level module with generators gen: on T flattened
    as a vector of X (x) W, T o f is (id_X (x) f^T) T.  Hom is contravariant,
    so the chirality flips."""
    ambient = {key: whisker(f.transpose(), target, UNIT) for key, f in gen.items()}
    return _restricted(variant, _flip(chirality), N, spaces, ambient, provenance,
                       level_modules)


# -- the explicit model on invariant tensors ------------------------------------------------


def _rotation(H: HopfAlgebraData, n: int, R: Vector, ribbon: Vector,
              to_front: bool) -> LinearMap:
    """sum over the summands R_ij e_i (x) e_j of R_ij rot(ad_n(e_j) (x) ad_1(e_i ribbon))
    on H^(x)(n+1), grouped by j: ad_n(e_j) (x) ad_1(x_j ribbon) with
    x_j = sum_i R_ij e_i, one kron_sum.  The rotation is its exchange: with
    to_front the rows are numbered with the last slot moved to the front,
    otherwise the columns with the first slot moved to the back, which
    precomposes the rotation of the first slot to the back."""
    d = H.dim
    terms = []
    for j, bulk in enumerate(coadjoint_blocks(H, n)):
        x = [R[i * d + j] for i in range(d)]
        if not all(c.is_zero() for c in x):
            terms.append((None, bulk, coadjoint_action(H, H.multiply(x, ribbon), 1)))
    return kron_sum(H.field, (d ** n, d ** n), (d, d), terms,
                    "rows" if to_front else "columns")


def explicit_cyclic_rotation(H: HopfAlgebraData, n: int) -> LinearMap:
    """t_n on H^(x)(n+1): the last slot moves to the front acted by a_i theta,
    the remaining slots are acted by the Sweedler components of b_i."""
    if H.R is None:
        raise CyclicModuleError("the cyclic rotation needs an R-matrix")
    return _rotation(H, n, H.R, H.theta, to_front=True)


def explicit_cocyclic_rotation(H: HopfAlgebraData, n: int) -> LinearMap:
    """tau_n on H^(x)(n+1): the first slot moves to the back acted by
    alpha_i theta^{-1}, the rest are acted by the components of beta_i."""
    if H.R_inv is None:
        raise CyclicModuleError("the cocyclic rotation needs an inverse R-matrix")
    return _rotation(H, n, H.R_inv, H.theta_inv, to_front=False)


def _explicit(H: HopfAlgebraData, N: int, chirality: str, face: LinearMap,
              degen: LinearMap, rotation) -> CyclicModuleData:
    """The explicit model on the invariant tensors V_(n+1), after H passes its
    Hopf axioms: (co)face i applies face at slot i, (co)degeneracy j applies
    degen after slot j, and the wrapping (co)face n is (co)face 0 through the
    rotation."""
    axioms = verify_axioms(H)
    if not axioms.ok:
        raise CyclicModuleError(f"Hopf axioms fail: {axioms.failures}")
    ambient: dict[tuple, LinearMap] = {}
    for key in generator_keys(N):
        kind, n, i = key[0], key[1], key[-1]
        if kind == "tau":
            ambient[key] = rotation(H, n)
        elif kind == "sigma":
            ambient[key] = whisker(degen, H.dim ** (i + 1), H.dim ** (n - i))
        elif i < n:
            ambient[key] = whisker(face, H.dim ** i, H.dim ** (n - 1 - i))
        else:
            first, tau = ambient[("delta", n, 0)], ambient[("tau", n)]
            ambient[key] = (first.compose(tau) if chirality == "cyclic"
                            else tau.compose(first))
    spaces = {n: invariant_tensor_basis(H, n + 1) for n in range(N + 1)}
    return _restricted(CYCLIC, chirality, N, spaces, ambient,
                       f"explicit coend {chirality} of {H.name}")


def explicit_coend_cyclic(H: HopfAlgebraData, N: int) -> CyclicModuleData:
    """The cyclic module on the invariant tensors V_(n+1): faces multiply adjacent
    slots (the last one wraps through the R-matrix and the ribbon element),
    degeneracies insert the unit, the cyclic operator is the braided rotation."""
    if H.R is None or H.theta is None:
        raise CyclicModuleError("the explicit cyclic model needs ribbon data")
    u_map = LinearMap.from_function(H.field, UNIT, H.dim, lambda c: enumerate(H.u))
    return _explicit(H, N, "cyclic", H.m, u_map, explicit_cyclic_rotation)


def explicit_coend_cocyclic(H: HopfAlgebraData, N: int) -> CyclicModuleData:
    """The cocyclic counterpart: cofaces apply the braided coproduct, the last
    coface and the cocyclic operator wrap through the inverse R-matrix; in the
    wrapping coface the second leg of the braided coproduct stays in front."""
    if H.R is None or H.theta is None:
        raise CyclicModuleError("the explicit cocyclic model needs ribbon data")
    from .coend import braided_coproduct
    return _explicit(H, N, "cocyclic", braided_coproduct(H), H.epsilon,
                     explicit_cocyclic_rotation)


# -- generic constructions from (co)algebra objects -----------------------------------------


def _object_axioms(data: CoendData, chirality: str):
    """Raise unless the coend's coalgebra object (C, Delta, eps), which gives
    the paracyclic module ("cyclic"), or its algebra object (C, m, u), which
    gives the paracocyclic one ("cocyclic"), passes its axioms:
    (co)associativity, (co)unit and equivariance."""
    what = {"cyclic": "coalgebra", "cocyclic": "algebra"}.get(chirality)
    if what is None:
        raise CyclicModuleError(f"unknown chirality {chirality!r}")
    rep = CheckReport(f"{what} axioms for {data.name}")
    V, c = data.carrier, data.dim
    eye = LinearMap.identity(data.field, c)
    one = trivial_module(data.algebra)
    if chirality == "cyclic":
        co, eps = data.Delta, data.counit
        rep.check("coassociativity",
                  whisker(co, UNIT, c).compose(co) == whisker(co, c, UNIT).compose(co))
        rep.check("counit", whisker(eps, UNIT, c).compose(co) == eye
                  and whisker(eps, c, UNIT).compose(co) == eye)
        rep.check("comultiplication is equivariant", _is_intertwiner(co, V, data.power(2)))
        rep.check("counit is equivariant", _is_intertwiner(eps, V, one))
    else:
        m, u = data.m, data.unit_map()
        rep.check("associativity",
                  m.compose(whisker(m, UNIT, c)) == m.compose(whisker(m, c, UNIT)))
        rep.check("unit", m.compose(whisker(u, UNIT, c)) == eye
                  and m.compose(whisker(u, c, UNIT)) == eye)
        rep.check("multiplication is equivariant", _is_intertwiner(m, data.power(2), V))
        rep.check("unit is invariant", _is_intertwiner(u, one, V))
    if not rep.ok:
        raise CyclicModuleError(f"{what} axioms fail: {rep.failures}")


def object_faces(data: CoendData, chirality: str, N: int) -> dict[tuple, LinearMap]:
    """The (co)faces and (co)degeneracies of the object-level module of the
    coend's coalgebra object (chirality "cyclic") or algebra object
    ("cocyclic"), in generator_keys order: for the coalgebra face i contracts
    slot i by the counit and degeneracy j comultiplies slot j; for the algebra
    coface i inserts the unit at slot i and codegeneracy j multiplies slots j
    and j + 1."""
    d = data.dim
    if chirality == "cyclic":
        face, degen = data.counit, data.Delta
    else:
        face, degen = data.unit_map(), data.m
    return {key: whisker(face if key[0] == "delta" else degen, d ** key[2],
                         d ** (key[1] - key[2]))
            for key in generator_keys(N) if key[0] != "tau"}


def _object_generators(data: CoendData, chirality: str, N: int) -> dict[tuple, LinearMap]:
    """The generators of the object-level module of the coend's coalgebra
    object (chirality "cyclic") or algebra object ("cocyclic"), after its
    axioms pass; the level modules are data.power(n + 1).  The coalgebra
    gives a paracyclic module whose t_n brings the last factor to the front
    through the inverse braiding; the algebra gives a paracocyclic one whose
    tau_n moves the first factor to the back.  The rest are object_faces."""
    _object_axioms(data, chirality)
    faces = object_faces(data, chirality, N)
    return {key: braided_rotation(data.carrier, data.power(key[1]) if key[1] else None,
                                  chirality == "cyclic") if key[0] == "tau" else faces[key]
            for key in generator_keys(N)}


def _hom_of_object(data: CoendData, chirality: str, N: int) -> CyclicModuleData:
    """Hom(-, 1) of the object-level module, on the invariant functionals
    Hom(C^(x)(n+1), 1); the level-zero rotation must be the identity."""
    gen = _object_generators(data, chirality, N)
    powers = {n: data.power(n + 1) for n in range(N + 1)}
    spaces = {n: invariant_functional_basis(powers[n]) for n in range(N + 1)}
    M = _hom_module(CYCLIC, chirality, gen, N, spaces, UNIT,
                    f"{_flip(chirality)} module of {data.name}", powers)
    t0 = M.tau(0)
    if t0 != LinearMap.identity(t0.field, t0.domain):
        raise CyclicModuleError("the level-zero cyclic operator is not the identity")
    return M


def cocyclic_module_from_coalgebra(data: CoendData, N: int) -> CyclicModuleData:
    """The cocyclic module Hom(-, 1) of the paracyclic module of the coend's
    coalgebra object: generators act on Hom(C^(x)(n+1), 1) by precomposition
    with the object maps.  Reads the carrier, Delta and the counit."""
    return _hom_of_object(data, "cyclic", N)


def cyclic_module_from_algebra(data: CoendData, N: int) -> CyclicModuleData:
    """The cyclic module Hom(-, 1) of the paracocyclic module of the coend's
    algebra object: faces insert the unit, degeneracies multiply adjacent
    slots, the cyclic operator is the inverse braided rotation.  Reads the
    carrier, m and the unit."""
    return _hom_of_object(data, "cocyclic", N)


# -- duality and reindexing -------------------------------------------------------------


def transport(M: CyclicModuleData, functor: Callable[[GeneratorWord], GeneratorWord],
              chirality: str, what: str) -> CyclicModuleData:
    """M composed with a word functor of the cyclic category, as a module of
    the given chirality: each generator is M evaluated on the functor's image
    of the generator's one-token word.  Each rotation power is evaluated once."""
    if not M.variant.has_rotations:
        raise CyclicModuleError(f"the {what} needs rotations")
    memo: dict[Token, LinearMap] = {}
    gen = {}
    for key in generator_keys(M.max_level):
        tok = Token(_TOKEN_KIND[key[0]], key[1], key[2] if len(key) > 2 else 1)
        gen[key] = M.evaluate_word(functor(GeneratorWord([tok], "contravariant")), memo=memo)
    return CyclicModuleData(M.variant, chirality, M.max_level, dict(M.spaces), gen,
                            provenance=f"{what} of {M.provenance}",
                            level_modules=dict(M.level_modules))


def apply_cyclic_duality(M: CyclicModuleData) -> CyclicModuleData:
    """Transport along the cyclic duality L (cyclic_cat.dualize_L): a cocyclic
    module becomes cyclic and conversely."""
    return transport(M, dualize_L, _flip(M.chirality), "cyclic dual")


def apply_reindexing(M: CyclicModuleData) -> CyclicModuleData:
    """Transport along the involutive reindexing Phi (cyclic_cat.reindex_Phi):
    indices reflect, rotations invert."""
    return transport(M, reindex_Phi, M.chirality, "reindexing")


def apply_dual_reindexing(M: CyclicModuleData) -> CyclicModuleData:
    """apply_cyclic_duality(apply_reindexing(M)) in one transport, along
    Phi o L, which sends t_n to tau_n: no rotation is inverted."""
    return transport(M, lambda word: reindex_Phi(dualize_L(word)), _flip(M.chirality),
                     "cyclic dual of reindexing")


# -- contracting homotopy -----------------------------------------------------------------


def contracting_homotopy(data: CoendData, M: CyclicModuleData,
                         alpha: Vector, N: int | None = None) -> CheckReport:
    """The degree-lowering homotopy h_n(F) = F o (alpha (x) id^n) on the
    cocyclic module M of the coend's coalgebra object, against the alternating
    coface differential; both defining identities are asserted."""
    from .homology import hochschild_differential as beta
    V = data.carrier
    F = data.field
    N = M.max_level if N is None else min(N, M.max_level)
    eps = data.counit
    rep = CheckReport(f"contracting homotopy for {data.name}")
    rep.check("section property: counit of alpha is 1", eps.apply(alpha)[0] == F.one())
    if not rep.ok:
        raise CyclicModuleError("the supplied section does not split the counit")

    alpha_map = LinearMap.from_function(F, UNIT, V.dim, lambda c: enumerate(alpha))

    def h(n: int) -> LinearMap:
        ins = whisker(alpha_map, UNIT, V.dim ** n)
        out = M.spaces[n].restrict(ins.transpose(), M.spaces[n - 1])
        if out is None:
            raise CyclicModuleError(f"h_{n}: image leaves the invariant subspace")
        return out

    for n in range(1, N):
        lhs = beta(M, n).compose(h(n)) + h(n + 1).compose(beta(M, n + 1))
        rep.check(f"homotopy identity at level {n}",
                  lhs == LinearMap.identity(F, M.dim(n)))
    # level zero: h_1 beta_1 + (alpha eps)^* = id
    ae = alpha_map.compose(eps)
    ae_star = M.spaces[0].restrict(ae.transpose(), M.spaces[0])
    if ae_star is None:
        raise CyclicModuleError("alpha-eps: image leaves the invariant subspace")
    lhs = h(1).compose(beta(M, 1)) + ae_star
    rep.check("homotopy identity at level 0",
              lhs == LinearMap.identity(F, M.dim(0)))
    return rep


# -- object-level paracyclic modules ----------------------------------------------------------


def build_paracyclic(data: CoendData, N: int, chirality: str) -> CyclicModuleData:
    """The object-level module of the paracyclic category on the whole of
    C^(x)(n+1): paracyclic ("cyclic") from the coend's coalgebra object,
    paracocyclic ("cocyclic") from its algebra object.  No Hom is taken, so
    the rotations satisfy only the twisted cyclicity, not cyclicity itself."""
    gen = _object_generators(data, chirality, N)
    spaces = {n: SubspaceBasis.standard(data.field, data.dim ** (n + 1))
              for n in range(N + 1)}
    return CyclicModuleData(PARACYCLIC, chirality, N, spaces, gen,
                            provenance=f"para{chirality} module of {data.name}",
                            level_modules={n: data.power(n + 1) for n in range(N + 1)})


def twisted_cyclicity_check(M: CyclicModuleData) -> CheckReport:
    """t_n^{n+1} composed with the twist of the tensor power is the identity."""
    rep = CheckReport(f"twisted cyclicity for {M.provenance}")
    for n in range(M.max_level + 1):
        W = M.level_modules.get(n)
        if W is None:
            raise CyclicModuleError("twisted cyclicity needs object-level modules")
        tw = twist(W)
        power = M.tau_power(n, n + 1)
        if M.chirality == "cyclic":
            # t_n^{n+1} = theta^{-1}: composing with theta gives the identity
            rep.check(f"t_{n}^{n + 1} theta = id",
                      power.compose(tw) == LinearMap.identity(tw.field, tw.domain))
        else:
            rep.check(f"tau_{n}^{n + 1} theta^{-1} = id",
                      power.compose(invert(tw)) ==
                      LinearMap.identity(tw.field, tw.domain))
    return rep


# -- r-cyclic modules from simple objects ------------------------------------------------------


MAX_TWIST_ORDER = 64   # r_cyclic_from_simple looks for the twist's order up to this


def r_cyclic_from_simple(M: CyclicModuleData, simple: ModuleData
                         ) -> tuple[CyclicModuleData, Scalar, int]:
    """Compose an object-level para(co)cyclic module with Hom(-, simple).

    The twist acts on the simple by a scalar whose multiplicative order r makes
    the result an r-cocyclic (resp. r-cyclic) module.  Returns the module, the
    twist scalar, and r.
    """
    ends = hom_basis(simple, simple).dim
    if ends != 1:
        raise CyclicModuleError(f"{simple.name} is not simple: End has dim {ends}")
    F = simple.algebra.field
    tw = twist(simple)
    scalar = tw.entry(0, 0)
    if tw != LinearMap.identity(F, simple.dim).scaled(scalar):
        raise CyclicModuleError("twist does not act by a scalar on the simple")
    power = F.one()
    r = None
    for k in range(1, MAX_TWIST_ORDER + 1):
        power = power * scalar
        if power == F.one():
            r = k
            break
    if r is None:
        raise CyclicModuleError(
            f"twist scalar has order > {MAX_TWIST_ORDER}; no finite r found")

    N = M.max_level
    spaces = {}
    for n in range(N + 1):
        W = M.level_modules.get(n)
        if W is None:
            raise CyclicModuleError("r-cyclic restriction needs object-level modules")
        spaces[n] = hom_basis(W, simple)
    out = _hom_module(RCyclic(r), M.chirality, M.gen, N, spaces, simple.dim,
                      f"{r}-cyclic restriction of {M.provenance} along {simple.name}")
    return out, scalar, r


def module_to_json(M: CyclicModuleData) -> dict:
    """Serialize level bases and generator matrices for caching."""
    field = M._field()
    variant = {"kind": M.variant.kind, "r": M.variant.r}
    spaces = {}
    for n, basis in M.spaces.items():
        spaces[str(n)] = {
            "ambient_dim": basis.ambient_dim,
            "vectors": [vector_to_json(vec) for vec in basis.vectors],
            "indicator_cols": basis.indicator_cols,
        }
    gen = {}
    for key, mat in M.gen.items():
        name = ":".join(str(k) for k in key)
        gen[name] = map_to_json(mat)
    return {"schema": 1, "field": field.to_json(), "variant": variant,
            "chirality": M.chirality, "max_level": M.max_level,
            "provenance": M.provenance, "spaces": spaces, "gen": gen}


def module_from_json(obj: dict) -> CyclicModuleData:
    from .fields import FieldSpec
    field = FieldSpec.from_json(obj["field"])
    parse = literal_parser(field)
    vk = obj["variant"]
    variant = CategoryVariant(vk["kind"], vk.get("r", 1))
    spaces = {}
    for n_str, sdata in obj["spaces"].items():
        amb = sdata["ambient_dim"]
        vectors = [vector_from_json(field, pairs, amb, parse) for pairs in sdata["vectors"]]
        spaces[int(n_str)] = SubspaceBasis(field, amb, vectors, sdata["indicator_cols"])
    names = {}
    for name in obj["gen"]:
        parts = name.split(":")
        names[(parts[0], *map(int, parts[1:]))] = name
    N, chirality = obj["max_level"], obj["chirality"]
    if set(spaces) != set(range(N + 1)) or set(names) != set(generator_keys(N)):
        raise CyclicModuleError(f"the module entry does not hold the level spaces and "
                                f"generators of a module built to level {N}")
    gen = {}
    for key, name in names.items():
        mdata = obj["gen"][name]
        src, tgt = (spaces[n].dim for n in generator_levels(chirality, key))
        gen[key] = g = map_from_json(field, mdata["entries"], mdata["src"], mdata["tgt"], parse)
        if (g.domain, g.codomain) != (src, tgt):
            raise CyclicModuleError(f"generator {name} of the module entry does not map "
                                    f"its level spaces")
    return CyclicModuleData(variant, chirality, N,
                            spaces, gen, provenance=obj.get("provenance", ""))
