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
from typing import Sequence

from .fields import FieldSpec, Scalar
from .linalg import (
    LinearMap, TensorShape, UNIT, block_flip, invert, kernel_and_rank,
    permute_factors, solve,
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
        self.field = field
        self.dim = dim
        self.basis_labels = list(basis_labels)
        self.name = name
        d = TensorShape([dim])
        if m.domain != d * d or m.codomain != d:
            raise HopfError("m must map H(x)H -> H")
        if Delta.domain != d or Delta.codomain != d * d:
            raise HopfError("Delta must map H -> H(x)H")
        if epsilon.domain != d or epsilon.codomain.dim != 1:
            raise HopfError("epsilon must map H -> k")
        for f_, nm in ((S, "S"), (S_inv, "S_inv")):
            if f_.domain != d or f_.codomain != d:
                raise HopfError(f"{nm} must map H -> H")
        self.m, self.u, self.Delta, self.epsilon = m, list(u), Delta, epsilon
        self.S, self.S_inv = S, S_inv
        self.R = list(R) if R is not None else None
        self.R_inv = list(R_inv) if R_inv is not None else None
        self.theta = list(theta) if theta is not None else None
        self.theta_inv = list(theta_inv) if theta_inv is not None else None
        self._shape = d
        self._mul_cache: dict[int, LinearMap] = {}

    # -- shapes and element helpers ------------------------------------------------

    @property
    def shape(self) -> TensorShape:
        return self._shape

    def power_shape(self, n: int) -> TensorShape:
        return TensorShape([self.dim] * n)

    def basis_vector(self, k: int) -> Vector:
        zero = self.field.zero()
        v = [zero] * self.dim
        v[k] = self.field.one()
        return v

    def tensor_vectors(self, *vecs: Vector) -> Vector:
        out = vecs[0]
        for v in vecs[1:]:
            nxt = []
            for x in out:
                for y in v:
                    nxt.append(x * y)
            out = nxt
        return out

    def power_multiplication(self, n: int) -> LinearMap:
        """Multiplication of the algebra H^(x)n as a map H^(x)2n -> H^(x)n."""
        if n in self._mul_cache:
            return self._mul_cache[n]
        if n == 1:
            out = self.m
        else:
            # interleave (a_1..a_n, b_1..b_n) -> (a_1, b_1, ..., a_n, b_n), then m each pair
            shape = self.power_shape(2 * n)
            perm = []
            for i in range(n):
                perm.extend([i, n + i])
            inter = permute_factors(self.field, shape, perm)
            mm = self.m
            for _ in range(n - 1):
                mm = mm.tensor(self.m)
            out = mm.compose(inter)
        self._mul_cache[n] = out
        return out

    def multiply(self, a: Vector, b: Vector, n: int = 1) -> Vector:
        """Product of two elements of H^(x)n."""
        return self.power_multiplication(n).apply(self.tensor_vectors(a, b))

    def unit_power(self, n: int) -> Vector:
        out = self.u
        for _ in range(n - 1):
            out = self.tensor_vectors(out, self.u)
        return out

    def counit_value(self, a: Vector) -> Scalar:
        return self.epsilon.apply(a)[0]

    def sweedler_iterate(self, x: Vector, n: int) -> Vector:
        """The (n-1)-fold coproduct of x as an element of H^(x)n; n = 1 returns x."""
        if n < 1:
            raise HopfError("sweedler_iterate needs n >= 1")
        out = list(x)
        for k in range(1, n):
            # apply Delta to the last tensor slot
            step = LinearMap.identity(self.field, self.power_shape(k - 1)).tensor(self.Delta) \
                if k > 1 else self.Delta
            out = step.apply(out)
        return out

    def left_multiplication(self, a: Vector) -> LinearMap:
        """x |-> a x as a matrix."""
        cols = {}
        for c in range(self.dim):
            w = self.multiply(a, self.basis_vector(c))
            for r, v in enumerate(w):
                if not v.is_zero():
                    cols[(r, c)] = v
        return LinearMap(self.field, self._shape, self._shape, cols)

    def right_multiplication(self, a: Vector) -> LinearMap:
        cols = {}
        for c in range(self.dim):
            w = self.multiply(self.basis_vector(c), a)
            for r, v in enumerate(w):
                if not v.is_zero():
                    cols[(r, c)] = v
        return LinearMap(self.field, self._shape, self._shape, cols)

    def antipode_vec(self, a: Vector) -> Vector:
        return self.S.apply(a)

    def r_pairs(self) -> list[tuple[Vector, Vector, Scalar]]:
        """R written as a list of (basis a, basis b, coefficient) summands."""
        if self.R is None:
            raise HopfError("no R-matrix present")
        out = []
        for idx, coeff in enumerate(self.R):
            if coeff.is_zero():
                continue
            p, q = divmod(idx, self.dim)
            out.append((self.basis_vector(p), self.basis_vector(q), coeff))
        return out

    def r_inv_pairs(self) -> list[tuple[Vector, Vector, Scalar]]:
        if self.R_inv is None:
            raise HopfError("no inverse R-matrix present")
        out = []
        for idx, coeff in enumerate(self.R_inv):
            if coeff.is_zero():
                continue
            p, q = divmod(idx, self.dim)
            out.append((self.basis_vector(p), self.basis_vector(q), coeff))
        return out

    def __repr__(self):
        return f"HopfAlgebraData({self.name}, dim={self.dim}, field={self.field})"


# -- axiom verification -----------------------------------------------------------


def verify_axioms(H: HopfAlgebraData) -> CheckReport:
    """Associativity through the antipode axiom, each as an exact matrix identity."""
    rep = CheckReport(f"hopf axioms for {H.name}")
    F, d = H.field, H.shape
    eye = LinearMap.identity(F, d)
    m, Delta, eps, S = H.m, H.Delta, H.epsilon, H.S
    flip = block_flip(F, d, d)

    rep.check("associativity", m.compose(m.tensor(eye)) == m.compose(eye.tensor(m)))
    u_map = LinearMap.from_function(F, UNIT, d, lambda c: enumerate(H.u))
    rep.check("left unit", m.compose(u_map.tensor(eye)) == eye)
    rep.check("right unit", m.compose(eye.tensor(u_map)) == eye)
    rep.check("coassociativity",
              Delta.tensor(eye).compose(Delta) == eye.tensor(Delta).compose(Delta))
    rep.check("left counit", eps.tensor(eye).compose(Delta) == eye)
    rep.check("right counit", eye.tensor(eps).compose(Delta) == eye)
    mid = eye.tensor(flip).tensor(eye)
    rep.check("bialgebra compatibility",
              Delta.compose(m) ==
              m.tensor(m).compose(mid).compose(Delta.tensor(Delta)))
    rep.check("counit is algebra map", eps.compose(m) == eps.tensor(eps))
    rep.check("unit is coalgebra map", Delta.compose(u_map) == u_map.tensor(u_map))
    rep.check("counit of unit", H.counit_value(H.u) == F.one())
    ue = u_map.compose(eps)
    rep.check("antipode left", m.compose(S.tensor(eye)).compose(Delta) == ue)
    rep.check("antipode right", m.compose(eye.tensor(S)).compose(Delta) == ue)
    rep.check("antipode invertible", H.S_inv.compose(S) == eye and S.compose(H.S_inv) == eye)
    return rep


def _embed(H: HopfAlgebraData, pairs, slots: tuple[int, int], n: int) -> Vector:
    """sum (a in slot s0) (x) (b in slot s1) (x) units elsewhere, inside H^(x)n."""
    out = [H.field.zero()] * H.dim ** n
    for a, b, coeff in pairs:
        parts = []
        for s in range(n):
            if s == slots[0]:
                parts.append(a)
            elif s == slots[1]:
                parts.append(b)
            else:
                parts.append(H.u)
        v = H.tensor_vectors(*parts)
        out = [x + coeff * y for x, y in zip(out, v)]
    return out


def verify_quasitriangular_ribbon(H: HopfAlgebraData) -> CheckReport:
    """R-matrix and ribbon axioms: intertwining, both hexagons, centrality of theta,
    Delta(theta) = (R21 R)^{-1}(theta (x) theta), S(theta) = theta, eps(theta) = 1."""
    rep = CheckReport(f"quasitriangular/ribbon axioms for {H.name}")
    if H.R is None or H.R_inv is None or H.theta is None or H.theta_inv is None:
        raise HopfError("R, R_inv, theta, theta_inv must all be present")
    F = H.field
    pairs = H.r_pairs()
    inv_pairs = H.r_inv_pairs()

    one2 = H.unit_power(2)
    rep.check("R invertible (left)", H.multiply(H.R_inv, H.R, 2) == one2)
    rep.check("R invertible (right)", H.multiply(H.R, H.R_inv, 2) == one2)

    flip = block_flip(F, H.shape, H.shape)
    for k in range(H.dim):
        h = H.basis_vector(k)
        dh = H.Delta.apply(h)
        dop = flip.apply(dh)
        lhs = H.multiply(H.R, dh, 2)
        rhs = H.multiply(dop, H.R, 2)
        if not rep.check(f"R intertwines coproduct at basis {H.basis_labels[k]}", lhs == rhs):
            break

    # hexagons: (Delta (x) id)(R) = R13 R23 and (id (x) Delta)(R) = R13 R12
    eye = LinearMap.identity(F, H.shape)
    dR = H.Delta.tensor(eye).apply(H.R)
    r13 = _embed(H, pairs, (0, 2), 3)
    r23 = _embed(H, pairs, (1, 2), 3)
    r12 = _embed(H, pairs, (0, 1), 3)
    rep.check("hexagon (Delta x id)R = R13 R23", dR == H.multiply(r13, r23, 3))
    idR = eye.tensor(H.Delta).apply(H.R)
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
        self.shape = TensorShape([dim])
        if action.domain != algebra.shape * self.shape or action.codomain != self.shape:
            raise HopfError(f"action of {name} has wrong shape")
        if check:
            rep = self.verify()
            if not rep.ok:
                raise HopfError(f"module axioms fail for {name}: {rep.failures}")
        self._rho_cache: dict[int, LinearMap] = {}

    def verify(self) -> CheckReport:
        rep = CheckReport(f"module axioms for {self.name}")
        H, F = self.algebra, self.algebra.field
        eye_v = LinearMap.identity(F, self.shape)
        u_map = LinearMap.from_function(F, UNIT, H.shape, lambda c: enumerate(H.u))
        rep.check("unit acts as identity",
                  self.action.compose(u_map.tensor(eye_v)) == eye_v)
        eye_h = LinearMap.identity(F, H.shape)
        rep.check("action associativity",
                  self.action.compose(H.m.tensor(eye_v)) ==
                  self.action.compose(eye_h.tensor(self.action)))
        return rep

    def rho(self, k: int) -> LinearMap:
        """Matrix of the k-th basis element acting on V."""
        if k not in self._rho_cache:
            self._rho_cache[k] = self.rho_of(self.algebra.basis_vector(k))
        return self._rho_cache[k]

    def rho_of(self, h: Sequence[Scalar]) -> LinearMap:
        entries = {}
        for c in range(self.dim):
            x = [self.algebra.field.zero()] * self.dim
            x[c] = self.algebra.field.one()
            w = self.action.apply(self.algebra.tensor_vectors(list(h), x))
            for r, v in enumerate(w):
                if not v.is_zero():
                    entries[(r, c)] = v
        return LinearMap(self.algebra.field, self.shape, self.shape, entries)

    def __repr__(self):
        return f"ModuleData({self.name}, dim={self.dim} over {self.algebra.name})"


def trivial_module(H: HopfAlgebraData) -> ModuleData:
    action = LinearMap.from_function(
        H.field, H.shape * TensorShape([1]), TensorShape([1]),
        lambda c: [(0, H.epsilon.entry(0, c))])
    return ModuleData(H, 1, action, name="1")


def regular_module(H: HopfAlgebraData) -> ModuleData:
    return ModuleData(H, H.dim, H.m, name=f"{H.name}_reg")


def tensor_module(V: ModuleData, W: ModuleData, name: str | None = None) -> ModuleData:
    """V (x) W with the coproduct action."""
    H = V.algebra
    F = H.field
    eye = LinearMap.identity
    # action = (act_V (x) act_W) o (id_H (x) flip_{H,V} (x) id_W) o (Delta (x) id_V (x) id_W)
    step1 = H.Delta.tensor(eye(F, V.shape)).tensor(eye(F, W.shape))
    sh = H.shape
    flip_hv = block_flip(F, sh, V.shape)
    step2 = eye(F, sh).tensor(flip_hv).tensor(eye(F, W.shape))
    step3 = V.action.tensor(W.action)
    action = step3.compose(step2).compose(step1)
    vw = TensorShape([V.dim * W.dim])
    action = action.reshaped(H.shape * vw, vw)
    return ModuleData(H, V.dim * W.dim, action,
                      name=name or f"({V.name}(x){W.name})", check=False)


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
    entries = {}
    for k in range(H.dim):
        rho_star = V.rho_of(H.antipode_vec(H.basis_vector(k))).transpose()
        for (r, c), val in rho_star.entries.items():
            entries[(r, k * V.dim + c)] = val
    action = LinearMap(H.field, H.shape * V.shape, V.shape, entries)
    return ModuleData(H, V.dim, action, name=name or f"{V.name}*", check=False)


def coadjoint_module(H: HopfAlgebraData) -> ModuleData:
    """H* with the coadjoint action (h . f)(x) = f(S(h_(1)) x h_(2))."""
    d = H.dim
    entries = {}
    for k in range(d):
        dh = H.sweedler_iterate(H.basis_vector(k), 2)
        # conj(x) = S(h1) x h2, then rho = conj^T on the dual space
        conj = LinearMap.zero(H.field, H.shape, H.shape)
        for idx, coeff in enumerate(dh):
            if coeff.is_zero():
                continue
            p, q = divmod(idx, d)
            term = H.right_multiplication(H.basis_vector(q)).compose(
                H.left_multiplication(H.antipode_vec(H.basis_vector(p))))
            conj = conj + term.scaled(coeff)
        rho = conj.transpose()
        for (r, c), val in rho.entries.items():
            entries[(r, k * d + c)] = val
    action = LinearMap(H.field, H.shape * H.shape, H.shape, entries)
    return ModuleData(H, d, action, name=f"{H.name}^*coad")


def right_coadjoint_power(H: HopfAlgebraData, n: int) -> LinearMap:
    """The right action X <| h = S(h_(1)) x_1 h_(2) (x) ... (x) S(h_(2n-1)) x_n h_(2n)
    as a LinearMap H^(x)n (x) H -> H^(x)n."""
    if n < 1:
        raise HopfError("right_coadjoint_power needs n >= 1")
    d = H.dim
    dom = H.power_shape(n) * H.shape
    entries = {}
    ops_cache = {}
    for k in range(d):
        sw = H.sweedler_iterate(H.basis_vector(k), 2 * n)
        op = LinearMap.zero(H.field, H.power_shape(n), H.power_shape(n))
        for idx, coeff in enumerate(sw):
            if coeff.is_zero():
                continue
            digits = []
            rest = idx
            for _ in range(2 * n):
                digits.append(rest % d)
                rest //= d
            digits.reverse()
            term = None
            for slot in range(n):
                p, q = digits[2 * slot], digits[2 * slot + 1]
                key = (p, q)
                if key not in ops_cache:
                    ops_cache[key] = H.right_multiplication(H.basis_vector(q)).compose(
                        H.left_multiplication(H.antipode_vec(H.basis_vector(p))))
                slot_op = ops_cache[key]
                term = slot_op if term is None else term.tensor(slot_op)
            op = op + term.scaled(coeff)
        for (r, c), val in op.entries.items():
            entries[(r, c * d + k)] = val
    return LinearMap(H.field, dom, H.power_shape(n), entries)


def single_slot_right_action(H: HopfAlgebraData, h: Vector) -> LinearMap:
    """x |-> S(h_(1)) x h_(2) for a fixed element h."""
    d = H.dim
    dh = H.sweedler_iterate(h, 2)
    out = LinearMap.zero(H.field, H.shape, H.shape)
    for idx, coeff in enumerate(dh):
        if coeff.is_zero():
            continue
        p, q = divmod(idx, d)
        term = H.right_multiplication(H.basis_vector(q)).compose(
            H.left_multiplication(H.antipode_vec(H.basis_vector(p))))
        out = out + term.scaled(coeff)
    return out


# -- hom spaces ----------------------------------------------------------------------


def hom_space(V: ModuleData, W: ModuleData) -> list[LinearMap]:
    """Basis of the intertwiners {T : V -> W with T rho_V(h) = rho_W(h) T}."""
    if V.algebra is not W.algebra and V.algebra != W.algebra:
        raise HopfError("modules over different algebras")
    H = V.algebra
    F = H.field
    n_unknowns = W.dim * V.dim  # T[r][c], row-major index r * V.dim + c
    rows: dict[tuple[int, int], Scalar] = {}
    row_no = 0
    for k in range(H.dim):
        rv = V.rho(k)
        rw = W.rho(k)
        # constraint: sum_c T[r][c] rv[c][j] - sum_i rw[r][i] T[i][j] = 0 for all r, j
        for r in range(W.dim):
            for j in range(V.dim):
                for (c, jj), val in ((kk, vv) for kk, vv in rv.entries.items()):
                    if jj == j:
                        key = (row_no, r * V.dim + c)
                        rows[key] = rows.get(key, F.zero()) + val
                for (rr, i), val in ((kk, vv) for kk, vv in rw.entries.items()):
                    if rr == r:
                        key = (row_no, i * V.dim + j)
                        rows[key] = rows.get(key, F.zero()) - val
                row_no += 1
    system = LinearMap(F, TensorShape([n_unknowns]), TensorShape([max(row_no, 1)]), rows)
    basis, _ = kernel_and_rank(system)
    out = []
    for vec in basis:
        entries = {}
        for idx, val in enumerate(vec):
            if not val.is_zero():
                entries[divmod(idx, V.dim)] = val
        out.append(LinearMap(F, V.shape, W.shape, entries))
    return out


def invariants(V: ModuleData) -> list[Vector]:
    """Basis of {x in V : h x = eps(h) x}, i.e. Hom(1, V) as vectors."""
    H = V.algebra
    F = H.field
    rows = {}
    row = 0
    for k in range(H.dim):
        rho = V.rho(k)
        eps_k = H.epsilon.entry(0, k)
        for r in range(V.dim):
            for c in range(V.dim):
                val = rho.entry(r, c) - (eps_k if r == c else F.zero())
                if not val.is_zero():
                    rows[(row, c)] = val
            row += 1
    system = LinearMap(F, V.shape, TensorShape([max(row, 1)]), rows)
    basis, _ = kernel_and_rank(system)
    return basis


# -- braiding, twist, traces ----------------------------------------------------------


def braiding(V: ModuleData, W: ModuleData) -> LinearMap:
    """c_{V,W} = flip o (action of R): V (x) W -> W (x) V."""
    H = V.algebra
    if H.R is None:
        raise HopfError("braiding needs an R-matrix")
    F = H.field
    r_act = LinearMap.zero(F, V.shape * W.shape, V.shape * W.shape)
    for a, b, coeff in H.r_pairs():
        r_act = r_act + V.rho_of(a).tensor(W.rho_of(b)).scaled(coeff)
    return block_flip(F, V.shape, W.shape).compose(r_act)


def braiding_inverse(V: ModuleData, W: ModuleData) -> LinearMap:
    """c_{V,W}^{-1}: W (x) V -> V (x) W, from the inverse R-matrix."""
    H = V.algebra
    if H.R_inv is None:
        raise HopfError("inverse braiding needs R_inv")
    F = H.field
    out = LinearMap.zero(F, W.shape * V.shape, V.shape * W.shape)
    flip = block_flip(F, W.shape, V.shape)
    r_act = LinearMap.zero(F, V.shape * W.shape, V.shape * W.shape)
    for a, b, coeff in H.r_inv_pairs():
        r_act = r_act + V.rho_of(a).tensor(W.rho_of(b)).scaled(coeff)
    return r_act.compose(flip)


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


def rotate_last_to_front(V: ModuleData, n: int) -> LinearMap:
    """The braided rotation V^(x)n (x) V -> V (x) V^(x)n: the last factor moves to
    the front through an inverse braiding and picks up one twist."""
    H = V.algebra
    if n == 0:
        return twist(V)
    Vpow = module_power(V, n)
    move = braiding_inverse(V, Vpow)
    eye = LinearMap.identity(H.field, Vpow.shape)
    return twist(V).tensor(eye).compose(move)


def rotate_front_to_last(V: ModuleData, n: int) -> LinearMap:
    """The braided rotation V (x) V^(x)n -> V^(x)n (x) V: the first factor moves to
    the back through the braiding and loses one twist; inverse to the above."""
    H = V.algebra
    if n == 0:
        return twist_inverse(V)
    Vpow = module_power(V, n)
    move = braiding(V, Vpow)
    eye = LinearMap.identity(H.field, Vpow.shape)
    return eye.tensor(twist_inverse(V)).compose(move)


def drinfeld_element(H: HopfAlgebraData) -> Vector:
    """u = sum S(b_i) a_i, satisfying S^2(h) = u h u^{-1}."""
    out = [H.field.zero()] * H.dim
    for a, b, coeff in H.r_pairs():
        v = H.multiply(H.antipode_vec(b), a)
        out = [x + coeff * y for x, y in zip(out, v)]
    return out


def pivot_element(H: HopfAlgebraData) -> Vector:
    """g = u theta^{-1}; group-like for ribbon H, with S^2 = g (.) g^{-1}."""
    if H.theta_inv is None:
        raise HopfError("pivot needs a ribbon element")
    return H.multiply(drinfeld_element(H), H.theta_inv)


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
    return quantum_trace(V, LinearMap.identity(V.algebra.field, V.shape))


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
    """
    rep = CheckReport(f"modular data for {H.name}")
    F = H.field
    for V in simples:
        rep.check(f"End({V.name}) is one-dimensional", len(hom_space(V, V)) == 1)
    for i, V in enumerate(simples):
        for j, W in enumerate(simples):
            if i < j:
                rep.check(f"Hom({V.name},{W.name}) = 0", len(hom_space(V, W)) == 0)
    total = sum(V.dim ** 2 for V in simples)
    rep.check("sum of squared dims equals dim H", total == H.dim)
    if not rep.ok:
        raise HopfError(f"simples fail certification: {rep.failures}")

    n = len(simples)
    entries = {}
    for i, V in enumerate(simples):
        for j, W in enumerate(simples):
            double = braiding(W, V).compose(braiding(V, W))
            s = quantum_trace(tensor_module(V, W), double)
            if not s.is_zero():
                entries[(i, j)] = s
    s_matrix = LinearMap(F, TensorShape([n]), TensorShape([n]), entries)

    dplus = F.zero()
    dminus = F.zero()
    dim_B = F.zero()
    for V in simples:
        q = qdim(V)
        dim_B = dim_B + q * q
        dplus = dplus + q * quantum_trace(V, twist(V))
        dminus = dminus + q * quantum_trace(V, twist_inverse(V))
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
    shape = TensorShape([d])
    m = LinearMap(field, shape * shape, shape, m_entries)
    u = [one if all(x == 0 for x in e) else field.zero() for e in elems]
    Delta = LinearMap(field, shape, shape * shape,
                      {(i * d + i, i): one for i in range(d)})
    epsilon = LinearMap(field, shape, UNIT,
                        {(0, i): one for i in range(d)})
    S = LinearMap(field, shape, shape,
                  {(index[neg(e)], i): one for i, e in enumerate(elems)})
    S_inv = S

    if bichar is None:
        R = [field.zero()] * (d * d)
        R[0] = one  # 1 (x) 1 at index (0,0); elems[0] is the identity
        R_inv = list(R)
        theta = list(u)
        theta_inv = list(u)
    else:

        L = math.lcm(*orders)
        if field.kind == FieldSpec.CYCLOTOMIC and field.param % L == 0:
            zeta = field.root_of_unity(field.param // L)
        elif L == 2:
            zeta = field.from_int(-1)
        elif L == 1:
            zeta = field.one()
        else:
            raise HopfError(f"field {field} lacks a primitive {L}-th root of unity")
        scale = [L // n for n in orders]

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
        if quad is None:
            raise HopfError("a bicharacter needs a compatible quadratic form for theta")

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

    L = math.lcm(*orders)
    if field.kind == FieldSpec.CYCLOTOMIC and field.param % L == 0:
        zeta = field.root_of_unity(field.param // L)
    elif L == 2:
        zeta = field.from_int(-1)
    elif L == 1:
        zeta = field.one()
    else:
        raise HopfError(f"field {field} lacks a primitive {L}-th root of unity")
    scale = [L // n for n in orders]
    out = []
    for s in elems:
        entries = {}
        for i, a in enumerate(elems):
            e = sum(s[j] * a[j] * scale[j] for j in range(k)) % L
            entries[(0, i)] = zeta ** e
        action = LinearMap(field, H.shape * TensorShape([1]), TensorShape([1]), entries)
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
    shape = TensorShape([4])
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
    m = LinearMap(field, shape * shape, shape, m_entries)
    u = [one, zero, zero, zero]

    def pair(i, j):
        return i * d + j

    delta_entries = {
        (pair(0, 0), 0): one,
        (pair(1, 1), 1): one,
        (pair(2, 0), 2): one, (pair(1, 2), 2): one,
        (pair(3, 1), 3): one, (pair(0, 3), 3): one,
    }
    Delta = LinearMap(field, shape, shape * shape, delta_entries)
    epsilon = LinearMap(field, shape, UNIT, {(0, 0): one, (0, 1): one})
    # S: 1 -> 1, g -> g, x -> -gx, gx -> x
    S = LinearMap(field, shape, shape,
                  {(0, 0): one, (1, 1): one, (3, 2): -one, (2, 3): one})
    # S_inv: 1 -> 1, g -> g, x -> gx?  S(gx) = x so S_inv(x) = gx; S(x) = -gx so S_inv(gx) = -x
    S_inv = LinearMap(field, shape, shape,
                      {(0, 0): one, (1, 1): one, (3, 2): one, (2, 3): -one})
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
    quad = [[0, 1], [0, 0]]
    return group_algebra(field, [n, n], bichar=bichar, quad=quad,
                         name=f"double_z{n}")


# -- JSON schema --------------------------------------------------------------------------


def _triplets(m: LinearMap) -> list:
    items = sorted(m.entries.items())
    return [[r, c, repr(v)] for (r, c), v in items]


def _sparse_vec(v: Vector) -> list:
    return [[i, repr(x)] for i, x in enumerate(v) if not x.is_zero()]


def algebra_to_json(H: HopfAlgebraData, simples: list[ModuleData] | None = None) -> dict:
    out = {
        "field": H.field.to_json(),
        "dim": H.dim,
        "basis": H.basis_labels,
        "name": H.name,
        "m": _triplets(H.m),
        "Delta": _triplets(H.Delta),
        "S": _triplets(H.S),
        "S_inv": _triplets(H.S_inv),
        "u": _sparse_vec(H.u),
        "epsilon": _sparse_vec([H.epsilon.entry(0, c) for c in range(H.dim)]),
    }
    if H.R is not None:
        out["R"] = _sparse_vec(H.R)
        out["R_inv"] = _sparse_vec(H.R_inv)
    if H.theta is not None:
        out["theta"] = _sparse_vec(H.theta)
        out["theta_inv"] = _sparse_vec(H.theta_inv)
    if simples:
        out["simples"] = [{"dim": V.dim, "name": V.name, "action": _triplets(V.action)}
                          for V in simples]
    return out


def algebra_from_json(obj: dict) -> tuple[HopfAlgebraData, list[ModuleData]]:
    field = FieldSpec.from_json(obj["field"])
    d = obj["dim"]
    shape = TensorShape([d])

    def lin(key, dom, cod):
        entries = {}
        for r, c, s in obj[key]:
            entries[(r, c)] = field.parse(s)
        return LinearMap(field, dom, cod, entries)

    def vec(key, size):
        out = [field.zero()] * size
        if key in obj:
            for i, s in obj[key]:
                out[i] = field.parse(s)
            return out
        return None

    m = lin("m", shape * shape, shape)
    Delta = lin("Delta", shape, shape * shape)
    S = lin("S", shape, shape)
    S_inv = lin("S_inv", shape, shape)
    eps_vec = vec("epsilon", d)
    epsilon = LinearMap(field, shape, UNIT,
                        {(0, i): v for i, v in enumerate(eps_vec) if not v.is_zero()})
    H = HopfAlgebraData(field, d, obj["basis"], m, vec("u", d), Delta, epsilon,
                        S, S_inv, vec("R", d * d), vec("R_inv", d * d),
                        vec("theta", d), vec("theta_inv", d),
                        name=obj.get("name", "H"))
    simples = []
    for i, sdata in enumerate(obj.get("simples", [])):
        v = sdata["dim"]
        entries = {}
        for r, c, s in sdata["action"]:
            entries[(r, c)] = field.parse(s)
        action = LinearMap(field, shape * TensorShape([v]), TensorShape([v]), entries)
        simples.append(ModuleData(H, v, action, name=sdata.get("name", f"simple{i}")))
    return H, simples


def load_algebra(path) -> tuple[HopfAlgebraData, list[ModuleData]]:
    with open(path, "r", encoding="utf-8") as fh:
        return algebra_from_json(json.load(fh))
