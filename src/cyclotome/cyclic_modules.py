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
    Token, normal_form, relation_instances, simplicial_word,
)
from .coend import CoendData, _is_intertwiner
from .fields import Scalar
from .hopf import (
    HopfAlgebraData, ModuleData, Vector, hom_space, module_power,
    right_coadjoint_power, rotate_front_to_last, rotate_last_to_front,
    single_slot_right_action, trivial_module, twist,
)
from .linalg import (
    LinearMap, SubspaceBasis, TensorShape, UNIT, invert, permute_factors, whisker,
)
from .reports import CheckReport


class CyclicModuleError(ValueError):
    """Raised on malformed module data or failed construction gates."""


# -- invariant tensors -------------------------------------------------------------


def invariant_tensor_basis(H: HopfAlgebraData, n: int) -> SubspaceBasis:
    """Basis of the twisted-conjugation invariants
    {X in H^(x)n : X <| h = eps(h) X for all h}."""
    if n < 1:
        raise CyclicModuleError("invariant tensors need n >= 1")
    F = H.field
    act = right_coadjoint_power(H, n)
    dim = H.dim ** n
    rows = {}
    row = 0
    for k in range(H.dim):
        eps_k = H.epsilon.entry(0, k)
        # constraint (X <| e_k) - eps(e_k) X = 0
        for (r, c), v in act.entries.items():
            cc, kk = divmod(c, H.dim)
            if kk == k:
                rows[(row + r, cc)] = rows.get((row + r, cc), F.zero()) + v
        for i in range(dim):
            key = (row + i, i)
            rows[key] = rows.get(key, F.zero()) - eps_k
        row += dim
    system = LinearMap(F, TensorShape([dim]), TensorShape([max(row, 1)]),
                       {k: v for k, v in rows.items() if not v.is_zero()})
    return SubspaceBasis.from_kernel(F, system)


def invariant_functional_basis(V: ModuleData) -> SubspaceBasis:
    """Basis of Hom(V, 1) as functional coordinate vectors."""
    H = V.algebra
    F = H.field
    rows = {}
    row = 0
    for k in range(H.dim):
        rho_t = V.rho(k).transpose()
        eps_k = H.epsilon.entry(0, k)
        for (r, c), v in rho_t.entries.items():
            rows[(row + r, c)] = rows.get((row + r, c), F.zero()) + v
        for i in range(V.dim):
            key = (row + i, i)
            rows[key] = rows.get(key, F.zero()) - eps_k
        row += V.dim
    system = LinearMap(F, V.shape, TensorShape([max(row, 1)]),
                       {k: v for k, v in rows.items() if not v.is_zero()})
    return SubspaceBasis.from_kernel(F, system)


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
    caches: dict = dc_field(default_factory=dict)

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
        t = self.tau(n)
        if e < 0:
            ti = invert(t)
            if ti is None:
                raise CyclicModuleError(f"cyclic operator at level {n} is singular")
            t, e = ti, -e
        out = LinearMap.identity(t.field, t.domain)
        for _ in range(e):
            out = t.compose(out)
        return out

    def token_matrix(self, tok: Token) -> LinearMap:
        if tok.kind == "coface":
            return self.coface(tok.level, tok.index)
        if tok.kind == "codegeneracy":
            return self.codegeneracy(tok.level, tok.index)
        return self.tau_power(tok.level, tok.index)

    def evaluate_word(self, word: GeneratorWord, level: int | None = None) -> LinearMap:
        """The image of a covariant generator word under the module."""
        if not word.tokens:
            if level is None:
                raise CyclicModuleError("empty word needs a level")
            return LinearMap.identity(self._field(), TensorShape([self.dim(level)]))
        mats = [self.token_matrix(t) for t in word.tokens]
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
        if f.variant.kind == "simplicial":
            word = simplicial_word(f)
            return self.evaluate_word(word, level=f.source_n)
        mono, rot = normal_form(f)
        word = simplicial_word(mono)
        tokens = list(word.tokens)
        if rot:
            tokens.append(Token("tau", f.source_n, rot))
        return self.evaluate_word(GeneratorWord(tokens), level=f.source_n)

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
            rhs = LinearMap.identity(lhs.field,
                                     TensorShape([M.dim(inst.identity_level)]))
        else:
            rhs = M.evaluate_word(inst.rhs)
        rep.check(f"{inst.name}@{inst.level}"
                  f"[{inst.lhs!r} = {inst.rhs!r}]",
                  lhs.entries == rhs.entries)
    return rep


# -- the explicit model on invariant tensors ------------------------------------------------


def _slotwise_action(H: HopfAlgebraData, y: Vector, n: int) -> LinearMap:
    """X |-> X <| spread(y): act with the n Sweedler components of y slotwise."""
    F = H.field
    d = H.dim
    if n == 0:
        return LinearMap.identity(F, UNIT).scaled(H.counit_value(y))
    sw = H.sweedler_iterate(y, n)
    out = LinearMap.zero(F, H.power_shape(n), H.power_shape(n))
    cache: dict[int, LinearMap] = {}
    for idx, coeff in enumerate(sw):
        if coeff.is_zero():
            continue
        digits = []
        rest = idx
        for _ in range(n):
            digits.append(rest % d)
            rest //= d
        digits.reverse()
        term = None
        for k in digits:
            if k not in cache:
                cache[k] = single_slot_right_action(H, H.basis_vector(k))
            term = cache[k] if term is None else term.tensor(cache[k])
        out = out + term.scaled(coeff)
    return out


def _rotate_last_front(H: HopfAlgebraData, total: int) -> LinearMap:
    perm = [total - 1] + list(range(total - 1))
    return permute_factors(H.field, H.power_shape(total), perm) \
        .reshaped(H.power_shape(total), H.power_shape(total))


def _rotate_front_last(H: HopfAlgebraData, total: int) -> LinearMap:
    perm = list(range(1, total)) + [0]
    return permute_factors(H.field, H.power_shape(total), perm) \
        .reshaped(H.power_shape(total), H.power_shape(total))


def explicit_cyclic_rotation(H: HopfAlgebraData, n: int) -> LinearMap:
    """t_n on H^(x)(n+1): the last slot moves to the front acted by a_i theta,
    the remaining slots are acted by the Sweedler components of b_i."""
    F = H.field
    total = n + 1
    out = LinearMap.zero(F, H.power_shape(total), H.power_shape(total))
    rot = _rotate_last_front(H, total)
    for a, b, coeff in H.r_pairs():
        moved = single_slot_right_action(H, H.multiply(a, H.theta))
        bulk = _slotwise_action(H, b, n)
        term = rot.compose(bulk.tensor(moved).reshaped(
            H.power_shape(total), H.power_shape(total)))
        out = out + term.scaled(coeff)
    return out


def explicit_cocyclic_rotation(H: HopfAlgebraData, n: int) -> LinearMap:
    """tau_n on H^(x)(n+1): the first slot moves to the back acted by
    alpha_i theta^{-1}, the rest are acted by the components of beta_i."""
    F = H.field
    total = n + 1
    out = LinearMap.zero(F, H.power_shape(total), H.power_shape(total))
    rot = _rotate_front_last(H, total)
    for alpha, beta, coeff in H.r_inv_pairs():
        moved = single_slot_right_action(H, H.multiply(alpha, H.theta_inv))
        bulk = _slotwise_action(H, beta, n)
        term = bulk.tensor(moved).reshaped(
            H.power_shape(total), H.power_shape(total)).compose(rot)
        out = out + term.scaled(coeff)
    return out


def explicit_coend_cyclic(H: HopfAlgebraData, N: int) -> CyclicModuleData:
    """The cyclic module on the invariant tensors V_(n+1): faces multiply adjacent
    slots (the last one wraps through the R-matrix and the ribbon element),
    degeneracies insert the unit, the cyclic operator is the braided rotation."""
    if H.R is None or H.theta is None:
        raise CyclicModuleError("the explicit cyclic model needs ribbon data")
    u_map = LinearMap.from_function(H.field, UNIT, H.shape, lambda c: enumerate(H.u))
    spaces = {n: invariant_tensor_basis(H, n + 1) for n in range(N + 1)}
    gen: dict[tuple, LinearMap] = {}
    for n in range(N + 1):
        t_amb = explicit_cyclic_rotation(H, n)
        gen[("tau", n)] = spaces[n].restrict(t_amb, spaces[n])
        if n >= 1:
            for i in range(n):
                amb = whisker(H.m, H.power_shape(i), H.power_shape(n - 1 - i))
                gen[("delta", n, i)] = spaces[n].restrict(amb, spaces[n - 1])
            amb_last = whisker(H.m, UNIT, H.power_shape(n - 1)).compose(t_amb)
            gen[("delta", n, n)] = spaces[n].restrict(amb_last, spaces[n - 1])
        if n + 1 <= N:
            for j in range(n + 1):
                amb = whisker(u_map, H.power_shape(j + 1), H.power_shape(n - j))
                gen[("sigma", n, j)] = spaces[n].restrict(amb, spaces[n + 1])
    return CyclicModuleData(CYCLIC, "cyclic", N, spaces, gen,
                            provenance=f"explicit coend cyclic of {H.name}")


def explicit_coend_cocyclic(H: HopfAlgebraData, N: int,
                            braided_order: str = "two-one") -> CyclicModuleData:
    """The cocyclic counterpart: cofaces apply the braided coproduct, the last
    coface and the cocyclic operator wrap through the inverse R-matrix.

    braided_order fixes which braided-coproduct leg stays in front in the
    wrapping coface ("two-one" keeps the second leg in front).  The relation
    suite arbitrates the choice; on algebras whose braided coproduct is
    cocommutative the two orderings coincide.
    """
    if H.R is None or H.theta is None:
        raise CyclicModuleError("the explicit cocyclic model needs ribbon data")
    from .coend import braided_coproduct
    F = H.field
    db = braided_coproduct(H)
    spaces = {n: invariant_tensor_basis(H, n + 1) for n in range(N + 1)}
    gen: dict[tuple, LinearMap] = {}
    for n in range(N + 1):
        tau_amb = explicit_cocyclic_rotation(H, n)
        gen[("tau", n)] = spaces[n].restrict(tau_amb, spaces[n])
        if n >= 1:
            for i in range(n):
                amb = whisker(db, H.power_shape(i), H.power_shape(n - 1 - i))
                gen[("delta", n, i)] = spaces[n - 1].restrict(amb, spaces[n])
            # wrapping coface: braided coproduct at slot 0, then one leg moves
            # to the back through the inverse braiding
            total = n + 1
            rot = _rotate_front_last(H, total)
            amb_last = LinearMap.zero(F, H.power_shape(n), H.power_shape(total))
            first = whisker(db, UNIT, H.power_shape(n - 1))
            if braided_order == "one-two":
                flip01 = permute_factors(F, H.power_shape(total),
                                         [1, 0] + list(range(2, total)))
                first = flip01.reshaped(H.power_shape(total),
                                        H.power_shape(total)).compose(first)
            for alpha, beta, coeff in H.r_inv_pairs():
                moved = single_slot_right_action(H, H.multiply(alpha, H.theta_inv))
                bulk = _slotwise_action(H, beta, n)
                term = bulk.tensor(moved).reshaped(
                    H.power_shape(total), H.power_shape(total)).compose(rot)
                amb_last = amb_last + term.compose(first).scaled(coeff)
            gen[("delta", n, n)] = spaces[n - 1].restrict(amb_last, spaces[n])
        if n + 1 <= N:
            for j in range(n + 1):
                amb = whisker(H.epsilon, H.power_shape(j + 1), H.power_shape(n - j))
                gen[("sigma", n, j)] = spaces[n + 1].restrict(amb, spaces[n])
    return CyclicModuleData(CYCLIC, "cocyclic", N, spaces, gen,
                            provenance=f"explicit coend cocyclic of {H.name}")


# -- generic constructions from (co)algebra objects -----------------------------------------


@dataclass
class CoalgebraObject:
    """A coalgebra in the module category: an object with equivariant
    comultiplication and counit."""

    module: ModuleData
    comultiplication: LinearMap   # V -> V (x) V
    counit: LinearMap             # V -> 1
    name: str = "C"

    def verify(self) -> CheckReport:
        rep = CheckReport(f"coalgebra axioms for {self.name}")
        V = self.module
        F = V.algebra.field
        eye = LinearMap.identity(F, V.shape)
        co = self.comultiplication.reshaped(V.shape, V.shape * V.shape)
        eps = self.counit.reshaped(V.shape, UNIT)
        rep.check("coassociativity",
                  whisker(co, UNIT, V.shape).compose(co)
                  == whisker(co, V.shape, UNIT).compose(co))
        rep.check("counit", whisker(eps, UNIT, V.shape).compose(co) == eye
                  and whisker(eps, V.shape, UNIT).compose(co) == eye)
        rep.check("comultiplication is equivariant",
                  _is_intertwiner(co, V, module_power(V, 2)))
        rep.check("counit is equivariant",
                  _is_intertwiner(eps, V, trivial_module(V.algebra)))
        return rep


@dataclass
class AlgebraObject:
    """An algebra in the module category: an object with equivariant
    multiplication and unit."""

    module: ModuleData
    multiplication: LinearMap     # V (x) V -> V
    unit: Vector                  # element of V
    name: str = "A"

    def unit_map(self) -> LinearMap:
        F = self.module.algebra.field
        return LinearMap.from_function(F, UNIT, self.module.shape,
                                       lambda c: enumerate(self.unit))

    def verify(self) -> CheckReport:
        rep = CheckReport(f"algebra axioms for {self.name}")
        V = self.module
        F = V.algebra.field
        eye = LinearMap.identity(F, V.shape)
        m = self.multiplication.reshaped(V.shape * V.shape, V.shape)
        u = self.unit_map()
        rep.check("associativity",
                  m.compose(whisker(m, UNIT, V.shape))
                  == m.compose(whisker(m, V.shape, UNIT)))
        rep.check("unit", m.compose(whisker(u, UNIT, V.shape)) == eye
                  and m.compose(whisker(u, V.shape, UNIT)) == eye)
        rep.check("multiplication is equivariant",
                  _is_intertwiner(m, module_power(V, 2), V))
        rep.check("unit is invariant",
                  _is_intertwiner(u, trivial_module(V.algebra), V))
        return rep


def coend_coalgebra_object(data: CoendData) -> CoalgebraObject:
    return CoalgebraObject(data.carrier, data.Delta, data.counit,
                           name=f"coend({data.algebra.name})")


def coend_algebra_object(data: CoendData) -> AlgebraObject:
    return AlgebraObject(data.carrier, data.m, data.unit,
                         name=f"coend({data.algebra.name})")


def _object_paracyclic_maps(obj: CoalgebraObject, N: int):
    """Object-level faces (counit contractions), degeneracies (comultiplication
    insertions), and the pinned braided rotations, on V^(x)(n+1)."""
    V = obj.module
    eps = obj.counit.reshaped(V.shape, UNIT)
    co = obj.comultiplication.reshaped(V.shape, V.shape * V.shape)

    def vshape(k):
        return TensorShape([V.dim] * k)

    faces = {}
    degens = {}
    rotations = {}
    for n in range(N + 1):
        total = n + 1
        rot = rotate_last_to_front(V, n)
        rotations[n] = rot.reshaped(vshape(total), vshape(total))
        if n >= 1:
            for i in range(total):
                faces[(n, i)] = whisker(eps, vshape(i), vshape(n - i))
        for j in range(total):
            degens[(n, j)] = whisker(co, vshape(j), vshape(n - j))
    return faces, degens, rotations


def cocyclic_module_from_coalgebra(obj: CoalgebraObject, N: int) -> CyclicModuleData:
    """The cocyclic module on the invariant functionals Hom(V^(x)(n+1), 1):
    generators act by precomposition with the object-level paracyclic maps."""
    rep = obj.verify()
    if not rep.ok:
        raise CyclicModuleError(f"coalgebra axioms fail: {rep.failures}")
    V = obj.module
    faces, degens, rotations = _object_paracyclic_maps(obj, N)
    powers = {n: module_power(V, n + 1) for n in range(N + 1)}
    spaces = {n: invariant_functional_basis(powers[n]) for n in range(N + 1)}
    gen: dict[tuple, LinearMap] = {}
    for n in range(N + 1):
        gen[("tau", n)] = spaces[n].restrict(rotations[n].transpose(), spaces[n])
        if n >= 1:
            for i in range(n + 1):
                gen[("delta", n, i)] = spaces[n - 1].restrict(
                    faces[(n, i)].transpose(), spaces[n])
        if n + 1 <= N:
            for j in range(n + 1):
                gen[("sigma", n, j)] = spaces[n + 1].restrict(
                    degens[(n, j)].transpose(), spaces[n])
    M = CyclicModuleData(CYCLIC, "cocyclic", N, spaces, gen,
                         provenance=f"cocyclic module of {obj.name}",
                         level_modules=powers)
    _assert_level_zero_identity(M)
    return M


def _object_paracocyclic_maps(obj: AlgebraObject, N: int):
    V = obj.module
    m = obj.multiplication.reshaped(V.shape * V.shape, V.shape)
    u = obj.unit_map()

    def vshape(k):
        return TensorShape([V.dim] * k)

    cofaces = {}
    codegens = {}
    rotations = {}
    for n in range(N + 1):
        total = n + 1
        rot = rotate_front_to_last(V, n)
        rotations[n] = rot.reshaped(vshape(total), vshape(total))
        if n >= 1:
            for i in range(total):
                cofaces[(n, i)] = whisker(u, vshape(i), vshape(n - i))
        for j in range(total):
            codegens[(n, j)] = whisker(m, vshape(j), vshape(n - j))
    return cofaces, codegens, rotations


def cyclic_module_from_algebra(obj: AlgebraObject, N: int) -> CyclicModuleData:
    """The cyclic module on Hom(V^(x)(n+1), 1): faces insert the unit, degeneracies
    multiply adjacent slots, the cyclic operator is the inverse braided rotation."""
    rep = obj.verify()
    if not rep.ok:
        raise CyclicModuleError(f"algebra axioms fail: {rep.failures}")
    V = obj.module
    cofaces, codegens, rotations = _object_paracocyclic_maps(obj, N)
    powers = {n: module_power(V, n + 1) for n in range(N + 1)}
    spaces = {n: invariant_functional_basis(powers[n]) for n in range(N + 1)}
    gen: dict[tuple, LinearMap] = {}
    for n in range(N + 1):
        gen[("tau", n)] = spaces[n].restrict(rotations[n].transpose(), spaces[n])
        if n >= 1:
            for i in range(n + 1):
                gen[("delta", n, i)] = spaces[n].restrict(
                    cofaces[(n, i)].transpose(), spaces[n - 1])
        if n + 1 <= N:
            for j in range(n + 1):
                gen[("sigma", n, j)] = spaces[n].restrict(
                    codegens[(n, j)].transpose(), spaces[n + 1])
    M = CyclicModuleData(CYCLIC, "cyclic", N, spaces, gen,
                         provenance=f"cyclic module of {obj.name}",
                         level_modules=powers)
    _assert_level_zero_identity(M)
    return M


def _assert_level_zero_identity(M: CyclicModuleData):
    t0 = M.tau(0)
    if t0 != LinearMap.identity(t0.field, t0.domain):
        raise CyclicModuleError("the level-zero cyclic operator is not the identity")


# -- duality and reindexing -------------------------------------------------------------


def apply_cyclic_duality(M: CyclicModuleData) -> CyclicModuleData:
    """Transport along the cyclic duality: a cocyclic module becomes cyclic and
    conversely; generator matrices are rewritten through the duality."""
    if M.variant.kind not in ("cyclic", "paracyclic", "rcyclic"):
        raise CyclicModuleError("cyclic duality needs rotations")
    gen: dict[tuple, LinearMap] = {}
    out_chirality = "cyclic" if M.chirality == "cocyclic" else "cocyclic"
    N = M.max_level
    for n in range(N + 1):
        t_inv = M.tau_power(n, -1)
        gen[("tau", n)] = t_inv
        if n >= 1:
            for i in range(n + 1):
                if M.chirality == "cocyclic":
                    # face d_i -> sigma_i^{n-1}, with d_n wrapping through tau^{-1}
                    if i < n:
                        gen[("delta", n, i)] = M.codegeneracy(n - 1, i)
                    else:
                        gen[("delta", n, n)] = M.codegeneracy(n - 1, 0).compose(t_inv)
                else:
                    # coface delta_i -> s_i^{n-1}, the last one through t^{-1}
                    if i < n:
                        gen[("delta", n, i)] = M.codegeneracy(n - 1, i)
                    else:
                        gen[("delta", n, n)] = t_inv.compose(M.codegeneracy(n - 1, 0))
        if n + 1 <= N:
            for j in range(n + 1):
                gen[("sigma", n, j)] = M.coface(n + 1, j + 1)
    return CyclicModuleData(M.variant, out_chirality, N, dict(M.spaces), gen,
                            provenance=f"cyclic dual of {M.provenance}",
                            level_modules=dict(M.level_modules))


def apply_cyclic_duality_inverse(M: CyclicModuleData) -> CyclicModuleData:
    """The exact inverse of apply_cyclic_duality, recovering the original module.

    Note that applying the duality transport twice is not the identity: the
    composite is the index-shift automorphism of the cyclic category, so
    invertibility is what can be verified on the nose.
    """
    gen: dict[tuple, LinearMap] = {}
    out_chirality = "cyclic" if M.chirality == "cocyclic" else "cocyclic"
    N = M.max_level
    for n in range(N + 1):
        gen[("tau", n)] = M.tau_power(n, -1)
    for m in range(N):
        for i in range(m + 1):
            gen[("sigma", m, i)] = M.coface(m + 1, i)
    for m in range(1, N + 1):
        for i in range(1, m + 1):
            if m - 1 <= N - 1:
                gen[("delta", m, i)] = M.codegeneracy(m - 1, i - 1)
        if M.chirality == "cyclic":
            # recovering a cocyclic module: delta_0 = tau^{-1} delta_m
            gen[("delta", m, 0)] = M.tau(m).compose(M.codegeneracy(m - 1, m - 1))
        else:
            # recovering a cyclic module: d_0 = d_m t^{-1}
            gen[("delta", m, 0)] = M.codegeneracy(m - 1, m - 1).compose(M.tau(m))
    return CyclicModuleData(M.variant, out_chirality, N, dict(M.spaces), gen,
                            provenance=f"inverse cyclic dual of {M.provenance}",
                            level_modules=dict(M.level_modules))


def apply_reindexing(M: CyclicModuleData) -> CyclicModuleData:
    """The involutive reindexing transport: indices reflect, rotations invert."""
    gen: dict[tuple, LinearMap] = {}
    N = M.max_level
    for n in range(N + 1):
        gen[("tau", n)] = M.tau_power(n, -1)
        if n >= 1:
            for i in range(n + 1):
                gen[("delta", n, i)] = M.coface(n, n - i)
        if n + 1 <= N:
            for j in range(n + 1):
                gen[("sigma", n, j)] = M.codegeneracy(n, n - j)
    return CyclicModuleData(M.variant, M.chirality, N, dict(M.spaces), gen,
                            provenance=f"reindexing of {M.provenance}",
                            level_modules=dict(M.level_modules))


# -- contracting homotopy -----------------------------------------------------------------


def contracting_homotopy(obj: CoalgebraObject, M: CyclicModuleData,
                         alpha: Vector, N: int | None = None) -> CheckReport:
    """The degree-lowering homotopy h_n(F) = F o (alpha (x) id^n) against the
    alternating coface differential; both defining identities are asserted."""
    V = obj.module
    H = V.algebra
    F = H.field
    N = M.max_level if N is None else min(N, M.max_level)
    eps_alpha = obj.counit.reshaped(V.shape, UNIT).apply(alpha)[0]
    rep = CheckReport(f"contracting homotopy for {obj.name}")
    rep.check("section property: counit of alpha is 1", eps_alpha == F.one())
    if not rep.ok:
        raise CyclicModuleError("the supplied section does not split the counit")

    alpha_map = LinearMap.from_function(F, UNIT, V.shape, lambda c: enumerate(alpha))

    def vshape(k):
        return TensorShape([V.dim] * k)

    def h(n: int) -> LinearMap:
        ins = whisker(alpha_map, UNIT, vshape(n))
        out = M.spaces[n].restrict(ins.transpose(), M.spaces[n - 1])
        if out is None:
            raise CyclicModuleError(f"h_{n}: image leaves the invariant subspace")
        return out

    def beta(n: int) -> LinearMap:
        out = None
        for i in range(n + 1):
            term = M.coface(n, i)
            if i % 2:
                term = term.scaled(F.from_int(-1))
            out = term if out is None else out + term
        return out

    for n in range(1, N):
        lhs = beta(n).compose(h(n)) + h(n + 1).compose(beta(n + 1))
        rep.check(f"homotopy identity at level {n}",
                  lhs == LinearMap.identity(F, TensorShape([M.dim(n)])))
    # level zero: h_1 beta_1 + (alpha eps)^* = id
    ae = alpha_map.compose(obj.counit.reshaped(V.shape, UNIT))
    ae_star = M.spaces[0].restrict(ae.transpose(), M.spaces[0])
    if ae_star is None:
        raise CyclicModuleError("alpha-eps: image leaves the invariant subspace")
    lhs = h(1).compose(beta(1)) + ae_star
    rep.check("homotopy identity at level 0",
              lhs == LinearMap.identity(F, TensorShape([M.dim(0)])))
    return rep


# -- object-level paracyclic modules ----------------------------------------------------------


def build_paracyclic(obj: CoalgebraObject, N: int) -> CyclicModuleData:
    """The object-level paracyclic module on V^(x)(n+1); no Hom is taken, so the
    rotations satisfy only the twisted cyclicity, not cyclicity itself."""
    rep = obj.verify()
    if not rep.ok:
        raise CyclicModuleError(f"coalgebra axioms fail: {rep.failures}")
    V = obj.module
    F = V.algebra.field
    faces, degens, rotations = _object_paracyclic_maps(obj, N)
    spaces = {n: SubspaceBasis.standard(F, V.dim ** (n + 1)) for n in range(N + 1)}
    powers = {n: module_power(V, n + 1) for n in range(N + 1)}
    gen: dict[tuple, LinearMap] = {}
    for n in range(N + 1):
        gen[("tau", n)] = rotations[n].reshaped(TensorShape([V.dim ** (n + 1)]),
                                                TensorShape([V.dim ** (n + 1)]))
        if n >= 1:
            for i in range(n + 1):
                gen[("delta", n, i)] = faces[(n, i)].reshaped(
                    TensorShape([V.dim ** (n + 1)]), TensorShape([V.dim ** n]))
        if n + 1 <= N:
            for j in range(n + 1):
                gen[("sigma", n, j)] = degens[(n, j)].reshaped(
                    TensorShape([V.dim ** (n + 1)]), TensorShape([V.dim ** (n + 2)]))
    return CyclicModuleData(PARACYCLIC, "cyclic", N, spaces, gen,
                            provenance=f"paracyclic module of {obj.name}",
                            level_modules=powers)


def build_paracocyclic(obj: AlgebraObject, N: int) -> CyclicModuleData:
    rep = obj.verify()
    if not rep.ok:
        raise CyclicModuleError(f"algebra axioms fail: {rep.failures}")
    V = obj.module
    F = V.algebra.field
    cofaces, codegens, rotations = _object_paracocyclic_maps(obj, N)
    spaces = {n: SubspaceBasis.standard(F, V.dim ** (n + 1)) for n in range(N + 1)}
    powers = {n: module_power(V, n + 1) for n in range(N + 1)}
    gen: dict[tuple, LinearMap] = {}
    for n in range(N + 1):
        gen[("tau", n)] = rotations[n].reshaped(TensorShape([V.dim ** (n + 1)]),
                                                TensorShape([V.dim ** (n + 1)]))
        if n >= 1:
            for i in range(n + 1):
                gen[("delta", n, i)] = cofaces[(n, i)].reshaped(
                    TensorShape([V.dim ** n]), TensorShape([V.dim ** (n + 1)]))
        if n + 1 <= N:
            for j in range(n + 1):
                gen[("sigma", n, j)] = codegens[(n, j)].reshaped(
                    TensorShape([V.dim ** (n + 2)]), TensorShape([V.dim ** (n + 1)]))
    return CyclicModuleData(PARACYCLIC, "cocyclic", N, spaces, gen,
                            provenance=f"paracocyclic module of {obj.name}",
                            level_modules=powers)


def twisted_cyclicity_check(M: CyclicModuleData) -> CheckReport:
    """t_n^{n+1} composed with the twist of the tensor power is the identity."""
    rep = CheckReport(f"twisted cyclicity for {M.provenance}")
    for n in range(M.max_level + 1):
        W = M.level_modules.get(n)
        if W is None:
            raise CyclicModuleError("twisted cyclicity needs object-level modules")
        tw = twist(W).reshaped(TensorShape([W.dim]), TensorShape([W.dim]))
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


def r_cyclic_from_simple(M: CyclicModuleData, simple: ModuleData,
                         max_order: int = 64) -> tuple[CyclicModuleData, Scalar, int]:
    """Compose an object-level para(co)cyclic module with Hom(-, simple).

    The twist acts on the simple by a scalar whose multiplicative order r makes
    the result an r-cocyclic (resp. r-cyclic) module.  Returns the module, the
    twist scalar, and r.
    """
    ends = hom_space(simple, simple)
    if len(ends) != 1:
        raise CyclicModuleError(f"{simple.name} is not simple: End has dim {len(ends)}")
    F = simple.algebra.field
    tw = twist(simple)
    scalar = tw.entry(0, 0)
    if tw != LinearMap.identity(F, simple.shape).scaled(scalar):
        raise CyclicModuleError("twist does not act by a scalar on the simple")
    power = F.one()
    r = None
    for k in range(1, max_order + 1):
        power = power * scalar
        if power == F.one():
            r = k
            break
    if r is None:
        raise CyclicModuleError(
            f"twist scalar has order > {max_order}; no finite r found")

    N = M.max_level
    spaces = {}
    homs = {}
    for n in range(N + 1):
        W = M.level_modules.get(n)
        if W is None:
            raise CyclicModuleError("r-cyclic restriction needs object-level modules")
        basis = hom_space(W, simple)
        homs[n] = basis
        vecs = []
        for T in basis:
            vec = [F.zero()] * (simple.dim * W.dim)
            for (rr, cc), v in T.entries.items():
                vec[rr * W.dim + cc] = v
            vecs.append(vec)
        spaces[n] = SubspaceBasis(F, simple.dim * W.dim, vecs)

    def postcompose(a: int, b: int) -> Callable[[LinearMap], LinearMap]:
        """Hom(W_b, i) -> Hom(W_a, i) induced by an object map W_a -> W_b."""
        def build(obj_map: LinearMap) -> LinearMap:
            entries = {}
            amb = obj_map.reshaped(TensorShape([obj_map.domain.dim]),
                                   TensorShape([obj_map.codomain.dim]))
            for c, T in enumerate(homs[b]):
                comp = T.reshaped(amb.codomain, T.codomain).compose(amb)
                coords = _hom_coordinates(comp, homs[a], F)
                if coords is None:
                    raise CyclicModuleError("postcomposition leaves the hom space")
                for rr, v in enumerate(coords):
                    if not v.is_zero():
                        entries[(rr, c)] = v
            return LinearMap(F, TensorShape([len(homs[b])]),
                             TensorShape([len(homs[a])]), entries)
        return build

    # Hom(-, i) is contravariant: the same generator keys carry over, with the
    # underlying object map postcomposed, and the chirality flips.
    gen: dict[tuple, LinearMap] = {}
    out_chirality = "cocyclic" if M.chirality == "cyclic" else "cyclic"
    for n in range(N + 1):
        gen[("tau", n)] = postcompose(n, n)(M.tau(n))
        if n >= 1:
            for i in range(n + 1):
                if M.chirality == "cyclic":
                    gen[("delta", n, i)] = postcompose(n, n - 1)(M.coface(n, i))
                else:
                    gen[("delta", n, i)] = postcompose(n - 1, n)(M.coface(n, i))
        if n + 1 <= N:
            for j in range(n + 1):
                if M.chirality == "cyclic":
                    gen[("sigma", n, j)] = postcompose(n, n + 1)(M.codegeneracy(n, j))
                else:
                    gen[("sigma", n, j)] = postcompose(n + 1, n)(M.codegeneracy(n, j))
    out = CyclicModuleData(RCyclic(r), out_chirality, N, spaces, gen,
                           provenance=f"{r}-cyclic restriction of {M.provenance} "
                                      f"along {simple.name}")
    return out, scalar, r


def pretty_generator(M: CyclicModuleData, kind: str, n: int, i: int | None = None,
                     labels: Sequence[str] | None = None) -> str:
    """Render a generator matrix in labeled-basis notation, one line per basis
    vector of the source: 'v -> combination of target basis vectors'.

    labels name the tensor factors of the ambient space (defaults to e0, e1,
    ...); basis vectors of the level spaces are shown as combinations of
    labeled elementary tensors.
    """
    key = ("tau", n) if kind == "tau" else (
        {"delta": "delta", "face": "delta", "coface": "delta",
         "sigma": "sigma", "degeneracy": "sigma", "codegeneracy": "sigma"}[kind], n, i)
    mat = M.gen[key]
    src = M.spaces[_source_level(M, key)]
    tgt = M.spaces[_target_level(M, key)]

    def vec_name(basis: SubspaceBasis, idx: int) -> str:
        return _label_vector(basis.vectors[idx], basis.ambient_dim, labels)

    lines = [f"{key}: {src.dim} -> {tgt.dim}"]
    for c in range(src.dim):
        terms = []
        for r in range(tgt.dim):
            v = mat.entry(r, c)
            if v.is_zero():
                continue
            coeff = "" if v == mat.field.one() else f"({v!r})*"
            terms.append(f"{coeff}[{vec_name(tgt, r)}]")
        rhs = " + ".join(terms) if terms else "0"
        lines.append(f"  [{vec_name(src, c)}] -> {rhs}")
    return "\n".join(lines)


def _source_level(M: CyclicModuleData, key) -> int:
    kind, n = key[0], key[1]
    if kind == "tau":
        return n
    if kind == "delta":
        return n if M.chirality == "cyclic" else n - 1
    return n + 1 if M.chirality == "cocyclic" else n


def _target_level(M: CyclicModuleData, key) -> int:
    kind, n = key[0], key[1]
    if kind == "tau":
        return n
    if kind == "delta":
        return n - 1 if M.chirality == "cyclic" else n
    return n if M.chirality == "cocyclic" else n + 1


def _label_vector(vec, ambient_dim: int, labels=None) -> str:
    import math
    d = len(labels) if labels else 0
    terms = []
    for idx, v in enumerate(vec):
        if v.is_zero():
            continue
        if labels and d > 1:
            k = round(math.log(ambient_dim, d))
            digits = []
            rest = idx
            for _ in range(k):
                digits.append(rest % d)
                rest //= d
            digits.reverse()
            name = "(x)".join(labels[t] for t in digits)
        else:
            name = f"e{idx}"
        coeff = "" if repr(v) == "1" else f"{v!r}*"
        terms.append(f"{coeff}{name}")
    return " + ".join(terms) if terms else "0"


def module_to_json(M: CyclicModuleData) -> dict:
    """Serialize level bases and generator matrices for caching."""
    field = M._field()
    variant = {"kind": M.variant.kind, "r": M.variant.r}
    spaces = {}
    for n, basis in M.spaces.items():
        spaces[str(n)] = {
            "ambient_dim": basis.ambient_dim,
            "vectors": [[[i, repr(v)] for i, v in enumerate(vec) if not v.is_zero()]
                        for vec in basis.vectors],
            "indicator_cols": basis.indicator_cols,
        }
    gen = {}
    for key, mat in M.gen.items():
        name = ":".join(str(k) for k in key)
        gen[name] = {
            "src": mat.domain.dim, "tgt": mat.codomain.dim,
            "entries": sorted([[r, c, repr(v)] for (r, c), v in mat.entries.items()]),
        }
    return {"schema": 1, "field": field.to_json(), "variant": variant,
            "chirality": M.chirality, "max_level": M.max_level,
            "provenance": M.provenance, "spaces": spaces, "gen": gen}


def module_from_json(obj: dict) -> CyclicModuleData:
    from .fields import FieldSpec
    field = FieldSpec.from_json(obj["field"])
    vk = obj["variant"]
    variant = CategoryVariant(vk["kind"], vk.get("r", 1))
    spaces = {}
    for n_str, sdata in obj["spaces"].items():
        amb = sdata["ambient_dim"]
        vectors = []
        for sparse in sdata["vectors"]:
            vec = [field.zero()] * amb
            for i, s in sparse:
                vec[i] = field.parse(s)
            vectors.append(vec)
        spaces[int(n_str)] = SubspaceBasis(field, amb, vectors,
                                           indicator_cols=sdata.get("indicator_cols"))
    gen = {}
    for name, mdata in obj["gen"].items():
        parts = name.split(":")
        key = (parts[0], *map(int, parts[1:]))
        entries = {(r, c): field.parse(s) for r, c, s in mdata["entries"]}
        gen[key] = LinearMap(field, TensorShape([mdata["src"]]),
                             TensorShape([mdata["tgt"]]), entries)
    return CyclicModuleData(variant, obj["chirality"], obj["max_level"],
                            spaces, gen, provenance=obj.get("provenance", ""))


def _hom_coordinates(T: LinearMap, basis: list[LinearMap], F):
    """Coordinates of an intertwiner in a hom-space basis, by solving on entries."""
    if not basis:
        return [] if not T.entries else None
    keys = sorted({k for B in basis for k in B.entries} | set(T.entries))
    from .linalg import solve as lin_solve
    mat = LinearMap(F, TensorShape([len(basis)]), TensorShape([max(len(keys), 1)]),
                    {(r, c): B.entries[k]
                     for r, k in enumerate(keys)
                     for c, B in enumerate(basis) if k in B.entries})
    rhs = [T.entries.get(k, F.zero()) for k in keys]
    return lin_solve(mat, rhs)
