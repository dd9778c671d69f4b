"""Finite-dimensional ribbon Hopf algebras by structure constants, their modules,
braidings, quantum traces, and modular data.

Conventions, all verified by the axiom suites rather than assumed:
  * the braiding on modules is flip after the R-action, c(v (x) w) = sum b_i w (x) a_i v;
  * with the ribbon axiom Delta(theta) = (R21 R)^{-1} (theta (x) theta), the categorical
    twist on a module is then the action of theta^{-1} (the twist condition pins this);
  * the pivot is g = u theta^{-1} with u = sum S(b_i) a_i, and quantum traces are
    tr_q(f) = tr(rho(g) f).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

from .fields import FieldSpec, Scalar
from .linalg import (
    LinearMap, ShapeError, SubspaceBasis, UNIT, _dense, _nonzero, _payloads,
    block_flip, block_map, invert, kron_sum, literal_parser, map_from_json, solve,
    vector_from_json, whisker,
)
from .reports import CheckReport


class HopfError(ValueError):
    """Raised on malformed Hopf data or inadmissible parameters."""


Vector = list  # dense list of Scalars


class HopfAlgebraData:
    """Structure constants of a finite-dimensional (optionally ribbon) Hopf algebra.

    All structure morphisms are LinearMaps between tensor powers of the
    underlying d-dimensional space; R, R_inv, theta, theta_inv are element
    vectors (in H (x) H resp. H) when present.
    """

    def __init__(self, field: FieldSpec, dim: int, basis_labels: Sequence[str],
                 m: LinearMap, u: Vector, Delta: LinearMap, epsilon: LinearMap,
                 S: LinearMap, S_inv: LinearMap,
                 R: Vector | None = None, R_inv: Vector | None = None,
                 theta: Vector | None = None, theta_inv: Vector | None = None,
                 name: str = "H"):
        if len(basis_labels) != dim:
            raise HopfError("need one basis label per dimension")
        if dim < 1:
            raise HopfError("a Hopf algebra has dimension at least 1 (its unit)")
        self.field = field
        self.dim = dim
        self.basis_labels = list(basis_labels)
        self.name = name
        if m.domain != dim * dim or m.codomain != dim:
            raise HopfError("m must map H(x)H -> H")
        if Delta.domain != dim or Delta.codomain != dim * dim:
            raise HopfError("Delta must map H -> H(x)H")
        if epsilon.domain != dim or epsilon.codomain != 1:
            raise HopfError("epsilon must map H -> k")
        for f_, nm in ((S, "S"), (S_inv, "S_inv")):
            if f_.domain != dim or f_.codomain != dim:
                raise HopfError(f"{nm} must map H -> H")
        self.m, self.u, self.Delta, self.epsilon = m, list(u), Delta, epsilon
        self.S, self.S_inv = S, S_inv
        self.R = list(R) if R is not None else None
        self.R_inv = list(R_inv) if R_inv is not None else None
        self.theta = list(theta) if theta is not None else None
        self.theta_inv = list(theta_inv) if theta_inv is not None else None
        # caches, each kept with the data it was computed from
        self._prods = self._coadjoint = self._pivot = None

    # -- element helpers -------------------------------------------------------------

    def basis_vector(self, k: int) -> Vector:
        zero = self.field.zero()
        v = [zero] * self.dim
        v[k] = self.field.one()
        return v

    def tensor_vectors(self, *vecs: Vector) -> Vector:
        """The Kronecker product; a product with a zero factor is not formed."""
        zero = self.field.zero()
        out = vecs[0]
        for v in vecs[1:]:
            support = [(j, y) for j, y in enumerate(v) if not y.is_zero()]
            nxt = [zero] * (len(out) * len(v))
            for i, x in enumerate(out):
                if x.is_zero():
                    continue
                base = i * len(v)
                for j, y in support:
                    nxt[base + j] = x * y
            out = nxt
        return out

    def _coproduct_terms(self) -> list[list[tuple[int, int, object]]]:
        """For every k, the nonzero entries of Delta(e_k) as (p, q, coefficient),
        the coefficient a payload of the field."""
        terms = [[] for _ in range(self.dim)]
        for (row, k), c in self.Delta.entries.items():
            terms[k].append((*divmod(row, self.dim), c))
        return terms

    def _products(self) -> list[list[tuple[int, object]]]:
        """For every i * d + j, the nonzero entries of m(e_i (x) e_j) as (r, c),
        c a payload of the field, or None where it is 1."""
        if self._prods is None or self._prods[0] is not self.m:
            one = self.field.one().payload
            prods = [[] for _ in range(self.dim * self.dim)]
            for (r, col), c in self.m.entries.items():
                prods[col].append((r, None if c == one else c))
            self._prods = (self.m, prods)
        return self._prods[1]

    def multiply(self, a: Vector, b: Vector, n: int = 1) -> Vector:
        """Product of two elements of H^(x)n, slot by slot: nonzero entries a_I
        and b_J contribute a_I b_J m(e_I1 e_J1) (x) ... (x) m(e_In e_Jn), which
        takes n structure-constant lookups."""
        d, size = self.dim, self.dim ** n
        if len(a) != size or len(b) != size:
            raise ShapeError(f"factor lengths {len(a)}, {len(b)} != dim H^(x){n} = {size}")
        prods = self._products()
        F = self.field
        mul, add = F._mul, F._add

        def support(v):
            return [([i // d ** (n - 1 - s) % d for s in range(n)], x)
                    for i, x in _payloads(F, v).items()]

        out: dict[int, object] = {}
        sb = support(b)
        for ia, x in support(a):
            for jb, y in sb:
                terms = [(0, mul(x, y))]
                for i, j in zip(ia, jb):
                    col = prods[i * d + j]
                    terms = [(idx * d + r, v if c is None else mul(v, c))
                             for idx, v in terms for r, c in col]
                for idx, v in terms:
                    out[idx] = add(out[idx], v) if idx in out else v
        return _dense(F, size, _nonzero(F, out))

    def unit_power(self, n: int) -> Vector:
        out = self.u
        for _ in range(n - 1):
            out = self.tensor_vectors(out, self.u)
        return out

    def counit_value(self, a: Vector) -> Scalar:
        return self.epsilon.apply(a)[0]

    def sweedler_iterate(self, x: Vector, n: int) -> Vector:
        """The (n-1)-fold coproduct of x as an element of H^(x)n; n = 1 returns x.
        Each step expands the last slot of every nonzero entry: index i * d + k
        becomes (i * d + p) * d + q with coefficient Delta(e_k)_pq."""
        if n < 1:
            raise HopfError("sweedler_iterate needs n >= 1")
        if len(x) != self.dim:
            raise ShapeError(f"element length {len(x)} != algebra dim {self.dim}")
        d, F = self.dim, self.field
        mul, add = F._mul, F._add
        terms = self._coproduct_terms()
        support = _payloads(F, x)
        for _ in range(n - 1):
            nxt: dict[int, object] = {}
            for i, v in support.items():
                head, k = divmod(i, d)
                for p, q, c in terms[k]:
                    key, prod = (head * d + p) * d + q, mul(v, c)
                    nxt[key] = add(nxt[key], prod) if key in nxt else prod
            support = nxt
        return _dense(F, d ** n, _nonzero(F, support))

    def left_multiplication(self, a: Vector) -> LinearMap:
        """x |-> a x as a matrix."""
        return LinearMap.from_function(self.field, self.dim, self.dim, lambda c: enumerate(
            self.multiply(a, self.basis_vector(c))))

    def right_multiplication(self, a: Vector) -> LinearMap:
        """x |-> x a as a matrix."""
        return LinearMap.from_function(self.field, self.dim, self.dim, lambda c: enumerate(
            self.multiply(self.basis_vector(c), a)))

    def antipode_vec(self, a: Vector) -> Vector:
        return self.S.apply(a)

    def r_pairs(self) -> list[tuple[Vector, Vector, Scalar]]:
        """R written as a list of (basis a, basis b, coefficient) summands."""
        return self._pairs(self.R, "no R-matrix present")

    def r_inv_pairs(self) -> list[tuple[Vector, Vector, Scalar]]:
        return self._pairs(self.R_inv, "no inverse R-matrix present")

    def _pairs(self, vec: Vector | None, missing: str) -> list[tuple[Vector, Vector, Scalar]]:
        if vec is None:
            raise HopfError(missing)
        return [(self.basis_vector(idx // self.dim), self.basis_vector(idx % self.dim), c)
                for idx, c in enumerate(vec) if not c.is_zero()]

    def __repr__(self):
        return f"HopfAlgebraData({self.name}, dim={self.dim}, field={self.field})"


# -- axiom verification -----------------------------------------------------------


def verify_axioms(H: HopfAlgebraData) -> CheckReport:
    """Associativity through the antipode axiom, each as an exact matrix identity."""
    rep = CheckReport(f"hopf axioms for {H.name}")
    F, d = H.field, H.dim
    eye = LinearMap.identity(F, d)
    m, Delta, eps, S = H.m, H.Delta, H.epsilon, H.S

    rep.check("associativity",
              m.compose(whisker(m, UNIT, d)) == m.compose(whisker(m, d, UNIT)))
    u_map = LinearMap.from_function(F, UNIT, d, lambda c: enumerate(H.u))
    rep.check("left unit", m.compose(whisker(u_map, UNIT, d)) == eye)
    rep.check("right unit", m.compose(whisker(u_map, d, UNIT)) == eye)
    rep.check("coassociativity", whisker(Delta, UNIT, d).compose(Delta) ==
              whisker(Delta, d, UNIT).compose(Delta))
    rep.check("left counit", whisker(eps, UNIT, d).compose(Delta) == eye)
    rep.check("right counit", whisker(eps, d, UNIT).compose(Delta) == eye)
    mid = whisker(block_flip(F, d, d), d, d)
    rep.check("bialgebra compatibility",
              Delta.compose(m) ==
              m.tensor(m).compose(mid).compose(Delta.tensor(Delta)))
    rep.check("counit is algebra map", eps.compose(m) == eps.tensor(eps))
    rep.check("unit is coalgebra map", Delta.compose(u_map) == u_map.tensor(u_map))
    rep.check("counit of unit", H.counit_value(H.u) == F.one())
    ue = u_map.compose(eps)
    rep.check("antipode left", m.compose(whisker(S, UNIT, d)).compose(Delta) == ue)
    rep.check("antipode right", m.compose(whisker(S, d, UNIT)).compose(Delta) == ue)
    rep.check("antipode invertible", H.S_inv.compose(S) == eye and S.compose(H.S_inv) == eye)
    return rep


def _embed(H: HopfAlgebraData, R: Vector, slots: tuple[int, int], n: int) -> Vector:
    """R_pq e_p in slot s0, e_q in slot s1 and u in every other slot, summed
    inside H^(x)n by index arithmetic over the nonzero entries of R and u."""
    d = H.dim
    unit = [(k, x) for k, x in enumerate(H.u) if not x.is_zero()]
    out: dict[int, Scalar] = {}
    for idx, c in enumerate(R):
        if c.is_zero():
            continue
        p, q = divmod(idx, d)
        terms = [(0, c)]
        for s in range(n):
            if s in slots:
                k = p if s == slots[0] else q
                terms = [(i * d + k, v) for i, v in terms]
            else:
                terms = [(i * d + k, v * x) for i, v in terms for k, x in unit]
        for i, v in terms:
            out[i] = out[i] + v if i in out else v
    zero = H.field.zero()
    return [out.get(i, zero) for i in range(d ** n)]


def verify_quasitriangular_ribbon(H: HopfAlgebraData) -> CheckReport:
    """R-matrix and ribbon axioms: intertwining, both hexagons, centrality of theta,
    Delta(theta) = (R21 R)^{-1}(theta (x) theta), S(theta) = theta, eps(theta) = 1."""
    rep = CheckReport(f"quasitriangular/ribbon axioms for {H.name}")
    if H.R is None or H.R_inv is None or H.theta is None or H.theta_inv is None:
        raise HopfError("R, R_inv, theta, theta_inv must all be present")
    F = H.field
    one2 = H.unit_power(2)
    rep.check("R invertible (left)", H.multiply(H.R_inv, H.R, 2) == one2)
    rep.check("R invertible (right)", H.multiply(H.R, H.R_inv, 2) == one2)

    flip = block_flip(F, H.dim, H.dim)
    for k in range(H.dim):
        h = H.basis_vector(k)
        dh = H.Delta.apply(h)
        dop = flip.apply(dh)
        lhs = H.multiply(H.R, dh, 2)
        rhs = H.multiply(dop, H.R, 2)
        if not rep.check(f"R intertwines coproduct at basis {H.basis_labels[k]}", lhs == rhs):
            break

    # hexagons: (Delta (x) id)(R) = R13 R23 and (id (x) Delta)(R) = R13 R12
    dR = whisker(H.Delta, UNIT, H.dim).apply(H.R)
    r13 = _embed(H, H.R, (0, 2), 3)
    r23 = _embed(H, H.R, (1, 2), 3)
    r12 = _embed(H, H.R, (0, 1), 3)
    rep.check("hexagon (Delta x id)R = R13 R23", dR == H.multiply(r13, r23, 3))
    idR = whisker(H.Delta, H.dim, UNIT).apply(H.R)
    rep.check("hexagon (id x Delta)R = R13 R12", idR == H.multiply(r13, r12, 3))

    # ribbon element
    rep.check("theta invertible", H.multiply(H.theta, H.theta_inv) ==
              H.u and H.multiply(H.theta_inv, H.theta) == H.u)
    central = all(H.multiply(H.theta, H.basis_vector(k)) ==
                  H.multiply(H.basis_vector(k), H.theta) for k in range(H.dim))
    rep.check("theta central", central)
    r21 = flip.apply(H.R)
    r21r = H.multiply(r21, H.R, 2)
    r_inv21 = flip.apply(H.R_inv)
    monodromy_inv = H.multiply(H.R_inv, r_inv21, 2)
    rep.check("monodromy inverse consistent", H.multiply(monodromy_inv, r21r, 2) == one2)
    d_theta = H.Delta.apply(H.theta)
    tt = H.tensor_vectors(H.theta, H.theta)
    rep.check("Delta(theta) = (R21 R)^{-1} (theta x theta)",
              d_theta == H.multiply(monodromy_inv, tt, 2))
    rep.check("S(theta) = theta", H.antipode_vec(H.theta) == H.theta)
    rep.check("eps(theta) = 1", H.counit_value(H.theta) == F.one())
    return rep


# -- modules ------------------------------------------------------------------------


class ModuleData:
    """A finite-dimensional left module: action as a LinearMap H (x) V -> V."""

    def __init__(self, algebra: HopfAlgebraData, dim: int, action: LinearMap,
                 name: str = "V", check: bool = True):
        self.algebra = algebra
        self.dim = dim
        self.action = action
        self.name = name
        if action.domain != algebra.dim * dim or action.codomain != dim:
            raise HopfError(f"action of {name} has wrong shape")
        if check:
            rep = self.verify()
            if not rep.ok:
                raise HopfError(f"module axioms fail for {name}: {rep.failures}")
        self._rho: list[LinearMap] | None = None

    def verify(self) -> CheckReport:
        rep = CheckReport(f"module axioms for {self.name}")
        H, F = self.algebra, self.algebra.field
        eye_v = LinearMap.identity(F, self.dim)
        u_map = LinearMap.from_function(F, UNIT, H.dim, lambda c: enumerate(H.u))
        rep.check("unit acts as identity",
                  self.action.compose(whisker(u_map, UNIT, self.dim)) == eye_v)
        rep.check("action associativity",
                  self.action.compose(whisker(H.m, UNIT, self.dim)) ==
                  self.action.compose(whisker(self.action, H.dim, UNIT)))
        return rep

    def rho(self, k: int) -> LinearMap:
        """Matrix of the k-th basis element acting on V.  The first call slices
        all dim H matrices out of the action: the entry at column k * dim V + c
        is entry (r, c) of rho(k)."""
        if self._rho is None:
            parts = [{} for _ in range(self.algebra.dim)]
            for (r, col), v in self.action.entries.items():
                j, c = divmod(col, self.dim)
                parts[j][(r, c)] = v
            self._rho = [LinearMap._from_clean(self.algebra.field, self.dim, self.dim, e)
                         for e in parts]
        return self._rho[k]

    def rho_of(self, h: Sequence[Scalar]) -> LinearMap:
        """Matrix of the element h acting on V: sum_k h_k rho(k) over the nonzero h_k."""
        if len(h) != self.algebra.dim:
            raise ShapeError(f"element length {len(h)} != algebra dim {self.algebra.dim}")
        F = self.algebra.field
        mul, add = F._mul, F._add
        acc = {}
        for k, x in _payloads(F, h).items():
            for key, v in self.rho(k).entries.items():
                prod = mul(v, x)
                acc[key] = add(acc[key], prod) if key in acc else prod
        return LinearMap._from_clean(F, self.dim, self.dim, _nonzero(F, acc))

    @classmethod
    def from_blocks(cls, algebra: HopfAlgebraData, blocks: Sequence[LinearMap],
                    name: str, check: bool = False) -> "ModuleData":
        """The module on which e_k acts by blocks[k]; entry (r, c) of blocks[k]
        is the action's entry at column k * dim V + c."""
        dim = blocks[0].domain
        row = block_map(algebra.field, [dim], [dim] * len(blocks),
                        {(0, k): block for k, block in enumerate(blocks)})
        V = cls(algebra, dim, row, name=name, check=check)
        V._rho = list(blocks)
        return V

    def __repr__(self):
        return f"ModuleData({self.name}, dim={self.dim} over {self.algebra.name})"


def trivial_module(H: HopfAlgebraData) -> ModuleData:
    action = LinearMap.from_function(H.field, H.dim, 1, lambda c: [(0, H.epsilon.entry(0, c))])
    return ModuleData(H, 1, action, name="1")


def regular_module(H: HopfAlgebraData) -> ModuleData:
    return ModuleData(H, H.dim, H.m, name=f"{H.name}_reg")


def coproduct_action(H: HopfAlgebraData, left: Sequence[LinearMap],
                     right: Sequence[LinearMap]) -> list[LinearMap]:
    """The action of every e_k on X (x) Y from the actions on X and Y:
    rho(k) = sum over the nonzero Delta(e_k)_pq of Delta(e_k)_pq left[p] (x) right[q],
    one kron_sum."""
    F = H.field
    one = F.one().payload
    factors = (left[0].domain, left[0].codomain), (right[0].domain, right[0].codomain)
    return [kron_sum(F, *factors, [(None if c == one else c, left[p], right[q])
                                   for p, q, c in terms])
            for terms in H._coproduct_terms()]


def tensor_module(V: ModuleData, W: ModuleData, name: str | None = None) -> ModuleData:
    """V (x) W with the coproduct action."""
    H = V.algebra
    blocks = coproduct_action(H, [V.rho(k) for k in range(H.dim)],
                              [W.rho(k) for k in range(H.dim)])
    return ModuleData.from_blocks(H, blocks, name or f"({V.name}(x){W.name})")


def module_power(V: ModuleData, n: int) -> ModuleData:
    if n == 0:
        return trivial_module(V.algebra)
    out = V
    for _ in range(n - 1):
        out = tensor_module(out, V)
    return out


def dual_module(V: ModuleData, name: str | None = None) -> ModuleData:
    """V* with (h . f)(x) = f(S(h) x)."""
    H = V.algebra
    blocks = [V.rho_of(H.antipode_vec(H.basis_vector(k))).transpose() for k in range(H.dim)]
    return ModuleData.from_blocks(H, blocks, name or f"{V.name}*")


def coadjoint_module(H: HopfAlgebraData) -> ModuleData:
    """H* with the coadjoint action (h . f)(x) = f(S(h_(1)) x h_(2)): e_k acts by
    the transpose of ad_1(e_k)."""
    blocks = [a.transpose() for a in coadjoint_blocks(H, 1)]
    return ModuleData.from_blocks(H, blocks, f"{H.name}^*coad", check=True)


def coadjoint_blocks(H: HopfAlgebraData, n: int) -> list[LinearMap]:
    """ad_n(e_k) for every k: the right coadjoint action
    X <| h = S(h_(1)) x_1 h_(2) (x) ... (x) S(h_(2n-1)) x_n h_(2n) on H^(x)n.
    ad_0(e_k) = eps(e_k) on the unit, ad_1(e_k) = sum Delta(e_k)_pq R(e_q) L(S e_p)
    with R and L right and left multiplication, and
    ad_n = coproduct_action(ad_(n-1), ad_1).  The levels are cached on H while
    m, Delta and S stay the same maps."""
    if n < 0:
        raise HopfError("the coadjoint action needs n >= 0")
    maps = (H.m, H.Delta, H.S)
    cached = H._coadjoint
    if cached is None or any(a is not b for a, b in zip(cached[0], maps)):
        F = H.field
        ad0 = [LinearMap(F, UNIT, UNIT, {(0, 0): H.epsilon.entry(0, k)})
               for k in range(H.dim)]
        ad1 = []
        for terms in H._coproduct_terms():
            op = LinearMap.zero(F, H.dim, H.dim)
            for p, q, c in terms:
                op = op + H.right_multiplication(H.basis_vector(q)).compose(
                    H.left_multiplication(H.antipode_vec(H.basis_vector(p)))
                ).scaled(Scalar(F, c))
            ad1.append(op)
        cached = H._coadjoint = (maps, [ad0, ad1])
    levels = cached[1]
    while len(levels) <= n:
        levels.append(coproduct_action(H, levels[-1], levels[1]))
    return levels[n]


def coadjoint_action(H: HopfAlgebraData, y: Vector, n: int) -> LinearMap:
    """X |-> X <| y on H^(x)n: sum_k y_k ad_n(e_k) over the nonzero y_k."""
    if len(y) != H.dim:
        raise ShapeError(f"element length {len(y)} != algebra dim {H.dim}")
    one = H.field.one()
    out = LinearMap.zero(H.field, H.dim ** n, H.dim ** n)
    for a, x in zip(coadjoint_blocks(H, n), y):
        if not x.is_zero():
            out = out + (a if x == one else a.scaled(x))
    return out


def right_coadjoint_power(H: HopfAlgebraData, n: int) -> LinearMap:
    """The right coadjoint action on H^(x)n as one LinearMap H^(x)n (x) H -> H^(x)n:
    the blocks ad_n(e_k), entry (r, c) at column c * dim H + k."""
    if n < 1:
        raise HopfError("right_coadjoint_power needs n >= 1")
    d = H.dim
    entries = {}
    for k, a in enumerate(coadjoint_blocks(H, n)):
        for (r, c), v in a.entries.items():
            entries[(r, c * d + k)] = v
    return LinearMap._from_clean(H.field, d ** (n + 1), d ** n, entries)


# -- hom spaces ----------------------------------------------------------------------


def invariance_blocks(rho: Callable[[int], LinearMap], eps: LinearMap) -> list[LinearMap]:
    """The blocks rho(k) - eps(e_k) id, one per basis element e_k of the source
    of the functional eps: the kernel of their stack is
    {x : rho(k) x = eps(e_k) x for every k}.  Transposed blocks cut out the
    functionals f with f o rho(k) = eps(e_k) f."""
    blocks = []
    for k in range(eps.domain):
        r, e = rho(k), eps.entry(0, k)
        blocks.append(r if e.is_zero() else r + LinearMap.identity(r.field, r.domain).scaled(-e))
    return blocks


def hom_basis(V: ModuleData, W: ModuleData) -> SubspaceBasis:
    """Basis of the intertwiners {T : V -> W with T rho_V(h) = rho_W(h) T}, each
    T flattened as a vector of W (x) V with entry T[r][c] at r * dim V + c.
    Hom(1, W) is the invariant vectors of W, Hom(V, 1) the invariant
    functionals on V.

    T rho_V(k) is (id_W (x) rho_V(k)^T) T and rho_W(k) T is (rho_W(k) (x) id_V) T,
    so the basis is the kernel of their differences stacked over k.  Block k
    starts at row k dim W dim V and is written in one pass over the entries of
    the two actions, with (x, y) the index x dim V + y: rho_V(k)[a][b] at
    ((r, b), (r, a)) for every r, and -rho_W(k)[a][b] at ((a, c), (b, c)) for
    every c.  The two meet only on the diagonal, and sums that cancel are dropped."""
    if V.algebra is not W.algebra and V.algebra != W.algebra:
        raise HopfError("modules over different algebras")
    F = V.algebra.field
    add, neg = F._add, F._neg
    dv, size = V.dim, V.dim * W.dim
    entries = {}
    for k in range(V.algebra.dim):
        base = k * size
        for (a, b), v in V.rho(k).entries.items():
            for r in range(0, size, dv):
                entries[(base + r + b, r + a)] = v
        for (a, b), v in W.rho(k).entries.items():
            v = neg(v)
            for c in range(dv):
                key = (base + a * dv + c, b * dv + c)
                entries[key] = add(entries[key], v) if key in entries else v
    system = LinearMap.from_payloads(F, size, V.algebra.dim * size, entries)
    return SubspaceBasis.from_kernel(F, system)


def hom_space(V: ModuleData, W: ModuleData) -> list[LinearMap]:
    """The basis of hom_basis(V, W) as maps V -> W."""
    F = V.algebra.field
    return [LinearMap(F, V.dim, W.dim,
                      {divmod(idx, V.dim): val for idx, val in enumerate(vec)
                       if not val.is_zero()})
            for vec in hom_basis(V, W).vectors]


# -- braiding, twist, traces ----------------------------------------------------------


def braiding(V: ModuleData, W: ModuleData) -> LinearMap:
    """c_{V,W} = flip o (action of R): V (x) W -> W (x) V."""
    if V.algebra.R is None:
        raise HopfError("braiding needs an R-matrix")
    return _flipped_r_action(V, W, V.algebra.R, "rows")


def braiding_inverse(V: ModuleData, W: ModuleData) -> LinearMap:
    """c_{V,W}^{-1}: W (x) V -> V (x) W, from the inverse R-matrix."""
    if V.algebra.R_inv is None:
        raise HopfError("inverse braiding needs R_inv")
    return _flipped_r_action(V, W, V.algebra.R_inv, "columns")


def _flipped_r_action(V: ModuleData, W: ModuleData, R: Vector, exchange: str) -> LinearMap:
    """sum_ij R_ij rho_V(i) (x) rho_W(j) over the nonzero R_ij, flipped by the
    kron_sum exchange: the rows (braiding) or the columns (inverse) are
    numbered in W (x) V instead of V (x) W."""
    F, d = V.algebra.field, V.algebra.dim
    terms = [(c, V.rho(idx // d), W.rho(idx % d)) for idx, c in _payloads(F, R).items()]
    return kron_sum(F, (V.dim, V.dim), (W.dim, W.dim), terms, exchange)


def twist(V: ModuleData) -> LinearMap:
    """The categorical twist on V: the action of theta^{-1}."""
    H = V.algebra
    if H.theta_inv is None:
        raise HopfError("twist needs a ribbon element")
    return V.rho_of(H.theta_inv)


def twist_inverse(V: ModuleData) -> LinearMap:
    H = V.algebra
    if H.theta is None:
        raise HopfError("twist needs a ribbon element")
    return V.rho_of(H.theta)


def braided_rotation(V: ModuleData, Vpow: ModuleData | None, to_front: bool) -> LinearMap:
    """The braided rotation by one factor of V (x) V^(x)n, given Vpow = V^(x)n
    (None for n = 0).  With to_front, V^(x)n (x) V -> V (x) V^(x)n: the last
    factor moves to the front through an inverse braiding and picks up one
    twist.  Otherwise V (x) V^(x)n -> V^(x)n (x) V: the first factor moves to
    the back through the braiding and loses one twist, inverse to the former."""
    tw = twist(V) if to_front else twist_inverse(V)
    if Vpow is None:
        return tw
    if to_front:
        return whisker(tw, UNIT, Vpow.dim).compose(braiding_inverse(V, Vpow))
    return whisker(tw, Vpow.dim, UNIT).compose(braiding(V, Vpow))


def drinfeld_element(H: HopfAlgebraData) -> Vector:
    """u = sum S(b_i) a_i, satisfying S^2(h) = u h u^{-1}."""
    out = [H.field.zero()] * H.dim
    for a, b, coeff in H.r_pairs():
        v = H.multiply(H.antipode_vec(b), a)
        out = [x + coeff * y for x, y in zip(out, v)]
    return out


def pivot_element(H: HopfAlgebraData) -> Vector:
    """g = u theta^{-1}; group-like for ribbon H, with S^2 = g (.) g^{-1}.  Cached
    on H while m, S, R, theta and theta_inv are unchanged (the element vectors
    are compared by value, since they are lists that can be edited in place)."""
    if H.theta_inv is None:
        raise HopfError("pivot needs a ribbon element")
    key = (H.m, H.S, tuple(H.R or ()), tuple(H.theta or ()), tuple(H.theta_inv))
    if H._pivot is None or H._pivot[0] != key:
        H._pivot = (key, H.multiply(drinfeld_element(H), H.theta_inv))
    return list(H._pivot[1])


def pivot_inverse(H: HopfAlgebraData) -> Vector:
    g = pivot_element(H)
    inv = solve(H.left_multiplication(g), H.u)
    if inv is None:
        raise HopfError("pivot is not invertible")
    return inv


def quantum_trace(V: ModuleData, f: LinearMap) -> Scalar:
    """tr_q(f) = ordinary trace of (pivot action) o f."""
    H = V.algebra
    g = V.rho_of(pivot_element(H))
    comp = g.compose(f)
    out = H.field.zero()
    for i in range(V.dim):
        out = out + comp.entry(i, i)
    return out


def qdim(V: ModuleData) -> Scalar:
    return quantum_trace(V, LinearMap.identity(V.algebra.field, V.dim))


def _character(V: ModuleData) -> dict[int, object]:
    """The character k |-> tr rho(k) of V, as its nonzero payloads by basis index."""
    F = V.algebra.field
    out = {}
    for k in range(V.algebra.dim):
        e, acc = V.rho(k).entries, F.zero().payload
        for r in range(V.dim):
            if (r, r) in e:
                acc = F._add(acc, e[(r, r)])
        out[k] = acc
    return _nonzero(F, out)


# -- modular data -----------------------------------------------------------------------


@dataclass
class ModularData:
    s_matrix: LinearMap
    delta_plus: Scalar
    delta_minus: Scalar
    dim_B: Scalar
    modular: bool
    anomaly_free: bool
    dim_invertible: bool
    report: CheckReport


def modular_data(H: HopfAlgebraData, simples: list[ModuleData]) -> ModularData:
    """S-matrix, Gauss sums, and category dimension from a supplied set of simples.

    The supplied modules are certified: End(i) = k id, Hom(i, j) = 0 for i != j,
    and sum dim(i)^2 = dim H (the semisimplicity certificate).

    The rest is read off the characters chi_i(e_k) = tr rho_i(e_k).  With g the
    pivot and X = Delta(g) (R21 R) in H (x) H,
      s_ij = sum_ab X_ab chi_i(e_a) chi_j(e_b),  qdim(i) = chi_i(g),
      Delta+ = sum_i qdim(i) chi_i(g theta^-1),  Delta- = sum_i qdim(i) chi_i(g theta).
    These are exactly the quantum traces of the double braiding on i (x) j and of
    the twists on i: the module axioms of every simple are checked when it is
    built, so rho_i (x) rho_j is an algebra map on H (x) H, the double braiding
    is the action of R21 R and the pivot acts on i (x) j as Delta(g).
    """
    rep = CheckReport(f"modular data for {H.name}")
    F = H.field
    for V in simples:
        rep.check(f"End({V.name}) is one-dimensional", hom_basis(V, V).dim == 1)
    for i, V in enumerate(simples):
        for j, W in enumerate(simples):
            if i < j:
                rep.check(f"Hom({V.name},{W.name}) = 0", hom_basis(V, W).dim == 0)
    total = sum(V.dim ** 2 for V in simples)
    rep.check("sum of squared dims equals dim H", total == H.dim)
    if not rep.ok:
        raise HopfError(f"simples fail certification: {rep.failures}")

    # the messages braiding, pivot_element and twist_inverse raise, in their order
    if H.R is None:
        raise HopfError("braiding needs an R-matrix")
    if H.theta_inv is None:
        raise HopfError("pivot needs a ribbon element")
    if H.theta is None:
        raise HopfError("twist needs a ribbon element")
    d, n = H.dim, len(simples)
    mul, add, zero = F._mul, F._add, F.zero().payload
    g = pivot_element(H)
    r21 = [H.R[i % d * d + i // d] for i in range(d * d)]
    X = _payloads(F, H.multiply(H.Delta.apply(g), H.multiply(r21, H.R, 2), 2))
    chars = [_character(V) for V in simples]

    def value(chi, x):
        """chi(x) for x a dict of nonzero payloads by basis index."""
        acc = zero
        for k, c in x.items():
            if k in chi:
                acc = add(acc, mul(c, chi[k]))
        return acc

    rows = {}
    for ab, c in X.items():
        a, b = divmod(ab, d)
        rows.setdefault(a, {})[b] = c
    entries = {}
    for j, chi_j in enumerate(chars):
        # s_ij = chi_i(Y) with Y_a = sum_b X_ab chi_j(e_b)
        Y = {a: value(chi_j, row) for a, row in rows.items()}
        for i, chi_i in enumerate(chars):
            entries[(i, j)] = value(chi_i, Y)
    s_matrix = LinearMap.from_payloads(F, n, n, entries)

    dplus = F.zero()
    dminus = F.zero()
    dim_B = F.zero()
    pivot = _payloads(F, g)
    g_twist = _payloads(F, H.multiply(g, H.theta_inv))
    g_twist_inv = _payloads(F, H.multiply(g, H.theta))
    for chi in chars:
        q = Scalar(F, value(chi, pivot))
        dim_B = dim_B + q * q
        dplus = dplus + q * Scalar(F, value(chi, g_twist))
        dminus = dminus + q * Scalar(F, value(chi, g_twist_inv))
    modular = invert(s_matrix) is not None
    anomaly_free = (dplus == dminus)
    dim_invertible = not dim_B.is_zero()
    rep.check("S-matrix computed", True)
    if modular:
        rep.check("dim(B) = Delta+ Delta-", dim_B == dplus * dminus)
    return ModularData(s_matrix, dplus, dminus, dim_B, modular, anomaly_free,
                       dim_invertible, rep)


# -- builders -----------------------------------------------------------------------------


def _group_elements(orders: Sequence[int]) -> list[tuple[int, ...]]:
    elems = [()]
    for n in orders:
        elems = [e + (k,) for e in elems for k in range(n)]
    return elems


def _root_of_unity(field: FieldSpec, orders: Sequence[int]
                   ) -> tuple[int, Scalar, list[int]]:
    """L = lcm of the orders, a primitive L-th root of unity zeta_L in the field
    (a power of the cyclotomic generator, or -1, or 1), and the index scalings
    L / n_i that carry characters of the factors Z/n_i to powers of zeta_L."""
    L = math.lcm(*orders)
    if field.kind == FieldSpec.CYCLOTOMIC and field.param % L == 0:
        zeta = field.root_of_unity(field.param // L)
    elif L == 2:
        zeta = field.from_int(-1)
    elif L == 1:
        zeta = field.one()
    else:
        raise HopfError(f"field {field} lacks a primitive {L}-th root of unity")
    return L, zeta, [L // n for n in orders]


def group_algebra(field: FieldSpec, orders: Sequence[int],
                  bichar: Sequence[Sequence[int]] | None = None,
                  quad: Sequence[Sequence[int]] | None = None,
                  name: str | None = None) -> HopfAlgebraData:
    """The group algebra of a finite abelian group Z/n_1 x ... x Z/n_k.

    With no bicharacter the R-matrix is 1 (x) 1 and theta = 1.  Otherwise R is
    the element realizing the bicharacter r(s, t) = zeta_L^(s.M.t) on characters
    (L = lcm of the orders, entries of M integers mod L, with index scalings
    L/n_i), and theta realizes the quadratic form zeta_L^(s.Q.s); the field must
    contain a primitive L-th root of unity as its cyclotomic generator.
    """
    orders = list(orders)
    elems = _group_elements(orders)
    d = len(elems)
    index = {e: i for i, e in enumerate(elems)}
    k = len(orders)
    labels = ["1" if all(x == 0 for x in e) else
              "*".join(f"g{i + 1}^{e[i]}" if e[i] > 1 else f"g{i + 1}"
                       for i in range(k) if e[i]) for e in elems]

    def add(e, f):
        return tuple((a + b) % n for a, b, n in zip(e, f, orders))

    def neg(e):
        return tuple((-a) % n for a, n in zip(e, orders))

    one = field.one()
    m_entries = {}
    for i, e in enumerate(elems):
        for j, f in enumerate(elems):
            m_entries[(index[add(e, f)], i * d + j)] = one
    m = LinearMap(field, d * d, d, m_entries)
    u = [one if all(x == 0 for x in e) else field.zero() for e in elems]
    Delta = LinearMap(field, d, d * d, {(i * d + i, i): one for i in range(d)})
    epsilon = LinearMap(field, d, UNIT, {(0, i): one for i in range(d)})
    S = LinearMap(field, d, d,
                  {(index[neg(e)], i): one for i, e in enumerate(elems)})
    S_inv = S

    if bichar is None:
        R = [field.zero()] * (d * d)
        R[0] = one  # 1 (x) 1 at index (0,0); elems[0] is the identity
        R_inv = list(R)
        theta = list(u)
        theta_inv = list(u)
    else:
        L, zeta, scale = _root_of_unity(field, orders)
        if quad is None:
            raise HopfError("a bicharacter needs a compatible quadratic form for theta")
        # Delta(theta) = (R21 R)^{-1} (theta (x) theta) on characters s, t reads
        # s.(Q + Q^T).t = -s.(M + M^T).t (mod L); check it on generators
        for i in range(k):
            for j in range(k):
                if scale[i] * scale[j] * (quad[i][j] + quad[j][i] + bichar[i][j]
                                          + bichar[j][i]) % L:
                    raise HopfError(f"quadratic form and bicharacter violate the ribbon "
                                    f"axiom at generators ({i}, {j})")

        def chi(s, a):
            """Value of the character s on the group element a."""
            e = sum(s[i] * a[i] * scale[i] for i in range(k)) % L
            return zeta ** e

        inv_d = field.from_int(d).inverse()
        idem = []
        for s in elems:  # characters indexed the same way
            vec = [chi(s, neg(a)) * inv_d for a in elems]
            idem.append(vec)

        def element_from_char_coeffs(coeff_fn):
            out = [field.zero()] * d
            for si, s in enumerate(elems):
                c = coeff_fn(s)
                if c.is_zero():
                    continue
                out = [x + c * y for x, y in zip(out, idem[si])]
            return out

        def pair_element(sign: int):
            out = [field.zero()] * (d * d)
            for si, s in enumerate(elems):
                for ti, t in enumerate(elems):
                    e = sum(s[i] * scale[i] * bichar[i][j] * t[j] * scale[j]
                            for i in range(k) for j in range(k)) % L
                    c = zeta ** ((sign * e) % L)
                    v = [a * b for a in idem[si] for b in idem[ti]]
                    out = [x + c * y for x, y in zip(out, v)]
            return out

        R = pair_element(+1)
        R_inv = pair_element(-1)

        def qform(s, sign=1):
            e = sum(s[i] * scale[i] * quad[i][j] * s[j] * scale[j]
                    for i in range(k) for j in range(k)) % L
            return zeta ** ((sign * e) % L)

        theta = element_from_char_coeffs(lambda s: qform(s, +1))
        theta_inv = element_from_char_coeffs(lambda s: qform(s, -1))

    gname = name or ("k[" + "x".join(f"Z/{n}" for n in orders) + "]")
    return HopfAlgebraData(field, d, labels, m, u, Delta, epsilon, S, S_inv,
                           R, R_inv, theta, theta_inv, name=gname)


def group_algebra_simples(H: HopfAlgebraData, orders: Sequence[int]) -> list[ModuleData]:
    """The characters of an abelian group algebra as one-dimensional modules."""
    field = H.field
    elems = _group_elements(orders)
    k = len(orders)

    L, zeta, scale = _root_of_unity(field, orders)
    out = []
    for s in elems:
        entries = {}
        for i, a in enumerate(elems):
            e = sum(s[j] * a[j] * scale[j] for j in range(k)) % L
            entries[(0, i)] = zeta ** e
        action = LinearMap(field, H.dim, 1, entries)
        out.append(ModuleData(H, 1, action, name=f"chi{''.join(map(str, s))}"))
    return out


def sweedler_h4(field: FieldSpec) -> HopfAlgebraData:
    """The four-dimensional Hopf algebra <g, x | g^2 = 1, x^2 = 0, xg = -gx>
    with its triangular R-matrix (free parameter set to zero) and trivial ribbon."""
    if field.kind == FieldSpec.PRIME and field.param == 2:
        raise HopfError("characteristic 2 is inadmissible for this algebra")
    one = field.one()
    half = field.from_fraction(Fraction(1, 2))
    zero = field.zero()
    labels = ["1", "g", "x", "gx"]
    d = 4
    # multiplication table: label indices 0..3 for 1, g, x, gx
    table = {
        (0, 0): (0, 1), (0, 1): (1, 1), (0, 2): (2, 1), (0, 3): (3, 1),
        (1, 0): (1, 1), (1, 1): (0, 1), (1, 2): (3, 1), (1, 3): (2, 1),
        (2, 0): (2, 1), (2, 1): (3, -1), (2, 2): None, (2, 3): None,
        (3, 0): (3, 1), (3, 1): (2, -1), (3, 2): None, (3, 3): None,
    }
    m_entries = {}
    for (i, j), val in table.items():
        if val is None:
            continue
        tgt, sgn = val
        m_entries[(tgt, i * d + j)] = one if sgn > 0 else -one
    m = LinearMap(field, d * d, d, m_entries)
    u = [one, zero, zero, zero]

    def pair(i, j):
        return i * d + j

    delta_entries = {
        (pair(0, 0), 0): one,
        (pair(1, 1), 1): one,
        (pair(2, 0), 2): one, (pair(1, 2), 2): one,
        (pair(3, 1), 3): one, (pair(0, 3), 3): one,
    }
    Delta = LinearMap(field, d, d * d, delta_entries)
    epsilon = LinearMap(field, d, UNIT, {(0, 0): one, (0, 1): one})
    # S: 1 -> 1, g -> g, x -> -gx, gx -> x
    S = LinearMap(field, d, d, {(0, 0): one, (1, 1): one, (3, 2): -one, (2, 3): one})
    # S_inv: 1 -> 1, g -> g, x -> gx?  S(gx) = x so S_inv(x) = gx; S(x) = -gx so S_inv(gx) = -x
    S_inv = LinearMap(field, d, d, {(0, 0): one, (1, 1): one, (3, 2): one, (2, 3): -one})
    R = [zero] * 16
    R[pair(0, 0)] = half
    R[pair(0, 1)] = half
    R[pair(1, 0)] = half
    R[pair(1, 1)] = -half
    R_inv = list(R)
    theta = list(u)
    theta_inv = list(u)
    return HopfAlgebraData(field, d, labels, m, u, Delta, epsilon, S, S_inv,
                           R, R_inv, theta, theta_inv, name="sweedler_h4")


def drinfeld_double_of_cyclic(field: FieldSpec, n: int) -> HopfAlgebraData:
    """The Drinfeld double of Z/n as the group algebra of Z/n x Z/n with the
    canonical pairing bicharacter and toric-code ribbon form."""
    bichar = [[0, 1], [0, 0]]
    quad = [[0, -1], [0, 0]]
    return group_algebra(field, [n, n], bichar=bichar, quad=quad,
                         name=f"double_z{n}")


# -- JSON schema --------------------------------------------------------------------------


def algebra_from_json(obj: dict) -> tuple[HopfAlgebraData, list[ModuleData]]:
    field = FieldSpec.from_json(obj["field"])
    parse = literal_parser(field)
    d = obj["dim"]

    def vec(key, size):
        return vector_from_json(field, obj.get(key), size, parse)

    # S first: its reader rejects a dim that is not an int before d * d is formed
    S = map_from_json(field, obj["S"], d, d, parse)
    m = map_from_json(field, obj["m"], d * d, d, parse)
    Delta = map_from_json(field, obj["Delta"], d, d * d, parse)
    S_inv = map_from_json(field, obj["S_inv"], d, d, parse)
    # the unit and the counit are required; the ribbon data is optional
    u = vector_from_json(field, obj["u"], d, parse)
    eps_vec = vector_from_json(field, obj["epsilon"], d, parse)
    epsilon = LinearMap(field, d, UNIT,
                        {(0, i): v for i, v in enumerate(eps_vec) if not v.is_zero()})
    H = HopfAlgebraData(field, d, obj["basis"], m, u, Delta, epsilon,
                        S, S_inv, vec("R", d * d), vec("R_inv", d * d),
                        vec("theta", d), vec("theta_inv", d),
                        name=obj.get("name", "H"))
    simples = []
    for i, sdata in enumerate(obj.get("simples", [])):
        v = sdata["dim"]
        action = map_from_json(field, sdata["action"], d * v, v, parse)
        simples.append(ModuleData(H, v, action, name=sdata.get("name", f"simple{i}")))
    return H, simples


def load_algebra(path) -> tuple[HopfAlgebraData, list[ModuleData]]:
    with open(path, "r", encoding="utf-8") as fh:
        return algebra_from_json(json.load(fh))
