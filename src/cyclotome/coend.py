"""The coend of the module category of a finite-dimensional ribbon Hopf algebra,
built from its defining universal property by an explicit section algorithm.

The carrier is the dual space with the coadjoint action.  Each structure map is
the unique solution of its defining diagram, computed by factoring through the
surjective dinatural component of the regular module; two exact duality
oracles (the product against the braided coproduct, the coproduct against the
multiplication of the algebra) plus the full braided Hopf axiom suite certify
every convention choice.
"""

from __future__ import annotations

from .fields import Scalar
from .hopf import (
    HopfAlgebraData, ModuleData, Vector, braided_rotation, braiding, coadjoint_blocks,
    coadjoint_module, dual_module, hom_basis, invariance_blocks, modular_data,
    module_power, pivot_inverse, qdim, regular_module, tensor_module, twist,
    trivial_module,
)
from .linalg import (
    LinearMap, SubspaceBasis, TensorShape, UNIT, block_flip, block_map, invert,
    kernel_and_rank, kron_sum, literal_parser, map_from_json, map_to_json, rank, stack,
    vector_from_json, vector_to_json, whisker,
)
from .reports import CheckReport


class CoendError(ValueError):
    """Raised when a defining diagram is inconsistent or a gate check fails."""


# -- evaluation / coevaluation for modules -------------------------------------------


def ev_left(V: ModuleData) -> LinearMap:
    """V* (x) V -> 1, (phi, v) |-> phi(v)."""
    F = V.algebra.field
    one = F.one()
    d = V.dim
    return LinearMap(F, V.shape * V.shape, UNIT,
                     {(0, a * d + a): one for a in range(d)})


def coev_left(V: ModuleData) -> LinearMap:
    """1 -> V (x) V*, the identity element sum e_j (x) e^j."""
    F = V.algebra.field
    one = F.one()
    d = V.dim
    return LinearMap(F, UNIT, V.shape * V.shape,
                     {(a * d + a, 0): one for a in range(d)})


def coev_right(V: ModuleData) -> LinearMap:
    """1 -> V* (x) V, the pivot-corrected copairing sum e^j (x) g^{-1} e_j:
    entry (r, j) of g^{-1} is entry (j d + r, 0)."""
    gi = V.rho_of(pivot_inverse(V.algebra))
    d = V.dim
    return LinearMap.from_payloads(V.algebra.field, UNIT, V.shape * V.shape,
                                   {(j * d + r, 0): v for (r, j), v in gi.entries.items()})


def dinatural_component(H: HopfAlgebraData, V: ModuleData, carrier: ModuleData) -> LinearMap:
    """i_V : V* (x) V -> C sending phi (x) v to the matrix coefficient phi((.) v):
    entry (a, k v + b) of the action is entry (k, a v + b) of i_V."""
    v = V.dim
    entries = {}
    for (a, kb), val in V.action.entries.items():
        k, b = divmod(kb, v)
        entries[(k, a * v + b)] = val
    return LinearMap.from_payloads(H.field, V.shape * V.shape, carrier.shape, entries)


# -- the universal-property solver -----------------------------------------------------


def factor_through_coend(data: CoendData, rhs: LinearMap, arity: int) -> LinearMap:
    """The unique map phi: C^(x)arity -> D with phi o i_H^(x)arity = rhs.

    rhs must be given on regular-module inputs (H* (x) H)^(x)arity.  The
    returned map is rhs composed with the carrier stage's section of i_H on
    each input; the defining equation is then re-checked exactly, which
    certifies that rhs annihilates the kernel of i_H^(x)arity (independence
    of the section).
    """
    section = data.section
    i_pow = data.i_H
    for _ in range(arity - 1):
        section = section.tensor(data.section)
        i_pow = i_pow.tensor(data.i_H)
    phi = rhs.compose(section.reshaped(section.domain, rhs.domain))
    check = phi.compose(i_pow.reshaped(i_pow.domain, phi.domain))
    if check.entries != rhs.reshaped(check.domain, check.codomain).entries:
        raise CoendError(
            f"defining diagram inconsistent at arity {arity}: "
            "the candidate does not annihilate ker(i_H)")
    dom = TensorShape([data.carrier.dim] * arity)
    return phi.reshaped(dom, phi.codomain)


def _is_intertwiner(T: LinearMap, V: ModuleData, W: ModuleData) -> bool:
    for k in range(V.algebra.dim):
        lhs = T.compose(V.rho(k).reshaped(T.domain, T.domain))
        rhs = W.rho(k).reshaped(T.codomain, T.codomain).compose(T)
        if lhs != rhs:
            return False
    return True


# -- the coend data ---------------------------------------------------------------------


class CoendData:
    """The coend of H's module category, built up stage by stage: the carrier
    C = H* with the coadjoint action and the gates of every stage built so far
    in report.  The carrier stage adds the regular module, its dinatural
    component i_H and the section s; the coalgebra stage Delta and the counit;
    the algebra stage m and the unit; the Hopf stage the antipode, the
    pairing, the twist and the integral data.  A field stays None until its
    stage is built.  (A plain class: a dataclass here measurably raised the
    peak memory of repeated imports.)"""

    def __init__(self, algebra: HopfAlgebraData, carrier: ModuleData,
                 report: CheckReport | None = None):
        self.algebra, self.carrier = algebra, carrier
        self.report = report or CheckReport(f"coend of {algebra.name}")
        self.regular: ModuleData | None = None
        self.i_H: LinearMap | None = None
        self.section: LinearMap | None = None
        self.Delta: LinearMap | None = None        # C -> C (x) C
        self.counit: LinearMap | None = None       # C -> 1
        self.m: LinearMap | None = None            # C (x) C -> C
        self.unit: Vector | None = None            # element of C
        self.antipode: LinearMap | None = None     # C -> C
        self.antipode_inv: LinearMap | None = None
        self.pairing: LinearMap | None = None      # C (x) C -> 1
        self.twist_map: LinearMap | None = None    # the twist of the carrier
        self.pairing_nondegenerate = False
        self.Omega: Vector | None = None           # inverse copairing in C (x) C
        self.integral: Vector | None = None        # right integral Lambda
        self.cointegral: Vector | None = None      # left cointegral lambda as a functional
        self.dim_B: Scalar | None = None
        self.anomaly_free: bool | None = None
        self.modular: bool | None = None
        self.caches: dict = {}

    @property
    def field(self):
        return self.algebra.field

    @property
    def dim(self) -> int:
        return self.carrier.dim

    @property
    def name(self) -> str:
        return f"coend({self.algebra.name})"

    def vector_map(self, vec: Vector) -> LinearMap:
        """The map 1 -> C picking out the element vec."""
        return LinearMap.from_function(self.field, UNIT, self.carrier.shape,
                                       lambda c: enumerate(vec))

    def unit_map(self) -> LinearMap:
        return self.vector_map(self.unit)

    def power(self, n: int) -> ModuleData:
        """C^(x)n for n >= 1, built once, from C^(x)(n-1)."""
        key = ("power", n)
        if key not in self.caches:
            self.caches[key] = (self.carrier if n == 1
                                else tensor_module(self.power(n - 1), self.carrier))
        return self.caches[key]

    def invariant_basis(self, n: int) -> SubspaceBasis:
        """Basis of Hom(1, C^(x)n)."""
        key = ("inv", n)
        if key not in self.caches:
            self.caches[key] = hom_basis(trivial_module(self.algebra), self.power(n))
        return self.caches[key]


def braided_coproduct(H: HopfAlgebraData) -> LinearMap:
    """The coproduct of the braided counterpart of H:
    h |-> sum h_(2) a_i (x) S((b_i)_(1)) h_(1) (b_i)_(2).  The summands of
    R = sum R_ij e_i (x) e_j are grouped by j, as right multiplication by
    x_j = sum_i R_ij e_i on the first leg and ad_1(e_j) on the second, and
    both act on Delta(h) read with its legs exchanged: one kron_sum with the
    columns exchanged, composed after Delta."""
    if H.R is None:
        raise CoendError("the braided coproduct needs an R-matrix")
    d = H.dim
    terms = []
    for j, ad in enumerate(coadjoint_blocks(H, 1)):
        x = [H.R[i * d + j] for i in range(d)]
        if not all(c.is_zero() for c in x):
            terms.append((None, H.right_multiplication(x), ad))
    square = (H.shape, H.shape)
    return kron_sum(H.field, square, square, terms, "columns").compose(H.Delta)


# -- the stages of the build -------------------------------------------------------------


def coend_carrier(H: HopfAlgebraData) -> CoendData:
    """The carrier stage, with the gates that i_H is onto and s is a section."""
    data = CoendData(H, coadjoint_module(H))
    rep = data.report
    data.regular = Hreg = regular_module(H)
    data.i_H = i_H = dinatural_component(H, Hreg, data.carrier)
    rep.check("dinatural component of the regular module is surjective", rank(i_H) == H.dim)
    # the section psi |-> psi (x) 1_H, a right inverse of i_H
    u_map = LinearMap.from_function(H.field, UNIT, H.shape, lambda c: enumerate(H.u))
    data.section = s = whisker(u_map, H.shape, UNIT)
    rep.check("section property i_H o s = id",
              i_H.compose(s) == LinearMap.identity(H.field, data.carrier.shape))
    return data


def _solve_coalgebra(data: CoendData) -> CoendData:
    """Delta and the counit, each from its defining diagram, checked against
    the algebra they are dual to and for equivariance."""
    H, C, Hreg, i_H, rep = data.algebra, data.carrier, data.regular, data.i_H, data.report
    d = H.dim
    # comultiplication: Delta o i_X = (i_X (x) i_X)(id (x) coev_X (x) id)
    ins = whisker(coev_left(Hreg), Hreg.shape, Hreg.shape)
    d_rhs = i_H.tensor(i_H).compose(
        ins.reshaped(TensorShape([d, d]), TensorShape([d] * 4)))
    Delta_C = factor_through_coend(data, d_rhs, 1).reshaped(C.shape, C.shape * C.shape)
    # counit: eps o i_X = ev_X
    eps_C = factor_through_coend(data, ev_left(Hreg), 1)
    rep.check("dual of the coproduct is the multiplication",
              Delta_C.entries == H.m.transpose().entries)
    rep.check("counit is evaluation at the algebra unit",
              eps_C.transpose().apply([H.field.one()]) == H.u)
    rep.check("coproduct is equivariant", _is_intertwiner(Delta_C, C, data.power(2)))
    rep.check("counit is equivariant", _is_intertwiner(eps_C, C, trivial_module(H)))
    data.Delta, data.counit = Delta_C, eps_C
    return data


def _solve_algebra(data: CoendData) -> CoendData:
    """m and the unit, checked against the braided coproduct and for
    equivariance."""
    H, C, Hreg, rep = data.algebra, data.carrier, data.regular, data.report
    F, d = H.field, H.dim
    # unit: the image of the unit object's component, i.e. the counit functional
    unit = H.epsilon.transpose().apply([F.one()])
    # multiplication: m(i_X (x) i_Y) = i_{Y(x)X} o (id_{X*} (x) c_{X, Y*(x)Y})
    YY = tensor_module(dual_module(Hreg), Hreg)
    c_mid = braiding(Hreg, YY)
    XY_star = block_flip(F, Hreg.shape, Hreg.shape)  # X* (x) Y* -> (Y(x)X)* index flip
    i_YX = dinatural_component(H, tensor_module(Hreg, Hreg), C)
    step = whisker(c_mid, Hreg.shape, UNIT)  # X* X Y* Y -> X* (Y* Y) X
    regroup = whisker(XY_star, UNIT, Hreg.shape * Hreg.shape)
    m_rhs = i_YX.reshaped(TensorShape([d] * 4), C.shape).compose(
        regroup.reshaped(step.codomain, TensorShape([d] * 4))).compose(step)
    m_C = factor_through_coend(data, m_rhs.reshaped(TensorShape([d] * 4), C.shape), 2)
    rep.check("dual of the product is the braided coproduct",
              m_C.entries == braided_coproduct(H).transpose().entries)
    rep.check("product is equivariant", _is_intertwiner(m_C, data.power(2), C))
    data.m, data.unit = m_C, unit
    rep.check("unit is invariant", _is_intertwiner(data.unit_map(), trivial_module(H), C))
    return data


def _gated(data: CoendData) -> CoendData:
    if not data.report.ok:
        raise CoendError(f"coend gates failed: {data.report.failures}")
    return data


def build_coend_coalgebra(H: HopfAlgebraData) -> CoendData:
    """The carrier and coalgebra stages alone, all that the cocyclic module
    of the coend's coalgebra object reads; raises when one of their gates
    fails."""
    return _gated(_solve_coalgebra(coend_carrier(H)))


def build_coend_algebra(H: HopfAlgebraData) -> CoendData:
    """The carrier and algebra stages alone, all that the cyclic module of
    the coend's algebra object reads; raises when one of their gates fails."""
    return _gated(_solve_algebra(coend_carrier(H)))


def build_coend_hopf(H: HopfAlgebraData,
                     simples: list[ModuleData] | None = None) -> CoendData:
    """Construct the coend as a braided Hopf algebra with its canonical pairing.

    Every structure map is solved from its defining diagram: the carrier,
    algebra and coalgebra stages first, then the pairing and the antipode.
    The duality oracles and the braided Hopf axiom suite are mandatory gates
    and raise on failure.
    """
    data = _solve_coalgebra(_solve_algebra(coend_carrier(H)))
    rep = data.report
    F = H.field
    C, Hreg = data.carrier, data.regular

    # pairing: omega(i_X (x) i_Y) = (ev_X (x) ev_Y)(id (x) monodromy (x) id)
    Hdual = dual_module(Hreg)
    mono = braiding(Hdual, Hreg).compose(braiding(Hreg, Hdual))
    w_step = whisker(mono, Hreg.shape, Hreg.shape)
    d4 = TensorShape([H.dim] * 4)
    w_rhs = ev_left(Hreg).tensor(ev_left(Hreg)).compose(w_step.reshaped(d4, d4))
    data.pairing = omega = factor_through_coend(data, w_rhs, 2)

    # antipode: unique convolution inverse of the identity
    data.antipode = S_C = _solve_antipode(F, H.dim, data.m, data.unit, data.Delta, data.counit)
    data.antipode_inv = invert(S_C)
    if data.antipode_inv is None:
        raise CoendError("the antipode of the coend is singular")

    data.twist_map = theta_C = twist(C)

    # the remaining intertwiner checks; the stages checked m, unit, Delta, eps
    rep.check("antipode is equivariant", _is_intertwiner(S_C, C, C))
    rep.check("pairing is equivariant", _is_intertwiner(omega, data.power(2), trivial_module(H)))

    _check_braided_hopf_axioms(data, rep)
    _check_pairing_axioms(data, rep)

    rep.check("antipode squared equals the twist of the carrier",
              S_C.compose(S_C) == theta_C)
    rep.check("pairing is antipode-balanced", omega.compose(whisker(S_C, UNIT, C.shape))
              == omega.compose(whisker(S_C, C.shape, UNIT)))

    if not rep.ok:
        raise CoendError(f"coend gates failed: {rep.failures}")

    # non-degeneracy and downstream data
    Winv = invert(_pairing_matrix(data))
    data.pairing_nondegenerate = Winv is not None

    if simples:
        md = modular_data(H, simples)
        data.dim_B = md.dim_B
        data.anomaly_free = md.anomaly_free
        data.modular = md.modular
        data.caches["simples"] = simples

    _solve_integrals(data, rep)
    if Winv is not None:
        _solve_pairing_inverse(data, Winv, rep)
    if not rep.ok:
        raise CoendError(f"coend integral/pairing gates failed: {rep.failures}")
    return data


def _solve_antipode(F, d, m_C, unit, Delta_C, eps_C) -> LinearMap:
    """Solve m(S (x) id)Delta = u eps = m(id (x) S)Delta for S by linear algebra.

    With S[r][c] the unknown at r d + c, the left side is L vec(S) for
    L = sum_b m_b (x) Delta_b^T, m_b[o][r] = m[o][r d + b] and
    Delta_b[a][i] = Delta[a d + b][i], and the right side is the same sum with
    b the first slot of m and of Delta.  S is read off the kernel of
    [L | -vec(u eps); R | -vec(u eps)] at the vector whose last coordinate is 1."""
    shape = TensorShape([d])
    sides = []
    for slot in (1, 0):
        ms, deltas = [{} for _ in range(d)], [{} for _ in range(d)]
        for (o, col), v in m_C.entries.items():
            pair = divmod(col, d)
            ms[pair[slot]][(o, pair[1 - slot])] = v
        for (row, i), v in Delta_C.entries.items():
            pair = divmod(row, d)
            deltas[pair[slot]][(i, pair[1 - slot])] = v
        sides.append(kron_sum(F, (shape, shape), (shape, shape), [
            (None, LinearMap.from_payloads(F, shape, shape, a),
             LinearMap.from_payloads(F, shape, shape, b)) for a, b in zip(ms, deltas)]))
    u_map = LinearMap.from_function(F, UNIT, shape, lambda c: enumerate(unit))
    target = -u_map.tensor(eps_C.transpose())
    system = block_map(F, [d * d, d * d], [d * d, 1],
                       {(0, 0): sides[0], (1, 0): sides[1], (0, 1): target, (1, 1): target})
    basis, _ = kernel_and_rank(system)
    if len(basis) != 1 or basis[0][d * d].is_zero():
        raise CoendError(f"antipode solution space has dimension {len(basis)}")
    (vec,) = basis
    scale = vec[d * d].inverse()
    return LinearMap.from_rows(F, shape, shape, [[x * scale for x in vec[r * d:(r + 1) * d]]
                                                 for r in range(d)])


def _check_braided_hopf_axioms(data: CoendData, rep: CheckReport):
    c = data.carrier.shape
    eye = LinearMap.identity(data.field, c)
    m, Delta, eps, S = data.m, data.Delta, data.counit, data.antipode
    u_map = data.unit_map()
    c_CC = braiding(data.carrier, data.carrier)

    rep.check("braided: associativity",
              m.compose(whisker(m, UNIT, c)) == m.compose(whisker(m, c, UNIT)))
    rep.check("braided: unit", m.compose(whisker(u_map, UNIT, c)) == eye
              and m.compose(whisker(u_map, c, UNIT)) == eye)
    rep.check("braided: coassociativity", whisker(Delta, UNIT, c).compose(Delta)
              == whisker(Delta, c, UNIT).compose(Delta))
    rep.check("braided: counit", whisker(eps, UNIT, c).compose(Delta) == eye
              and whisker(eps, c, UNIT).compose(Delta) == eye)
    mid = whisker(c_CC.reshaped(c * c, c * c), c, c)
    rep.check("braided: bialgebra compatibility with the braiding",
              Delta.compose(m) == m.tensor(m).compose(mid).compose(Delta.tensor(Delta)))
    rep.check("braided: counit multiplicative", eps.compose(m) == eps.tensor(eps))
    rep.check("braided: unit comultiplicative",
              Delta.compose(u_map) == u_map.tensor(u_map))
    ue = u_map.compose(eps)
    rep.check("braided: antipode axiom",
              m.compose(whisker(S, UNIT, c)).compose(Delta) == ue
              and m.compose(whisker(S, c, UNIT)).compose(Delta) == ue)


def _check_pairing_axioms(data: CoendData, rep: CheckReport):
    c = data.carrier.shape
    m, Delta, eps, w = data.m, data.Delta, data.counit, data.pairing
    u_map = data.unit_map()
    middle = w.compose(whisker(w, c, c))
    rep.check("pairing vs product (left)", w.compose(whisker(m, UNIT, c))
              == middle.compose(whisker(Delta, c * c, UNIT)))
    rep.check("pairing vs product (right)", w.compose(whisker(m, c, UNIT))
              == middle.compose(whisker(Delta, UNIT, c * c)))
    rep.check("pairing vs unit (left)", w.compose(whisker(u_map, UNIT, c)) == eps)
    rep.check("pairing vs unit (right)", w.compose(whisker(u_map, c, UNIT)) == eps)


def _pairing_matrix(data: CoendData) -> LinearMap:
    """The pairing as the square matrix W[a][b] = omega(e_a (x) e_b)."""
    d = data.dim
    entries = {}
    for (z, ab), v in data.pairing.entries.items():
        a, b = divmod(ab, d)
        entries[(a, b)] = v
    return LinearMap.from_payloads(data.field, data.carrier.shape, data.carrier.shape, entries)


def _solve_integrals(data: CoendData, rep: CheckReport):
    """Right integral and left cointegral, both invariant, both one-dimensional."""
    F = data.field
    d = data.dim
    C = data.carrier
    m, Delta, eps = data.m, data.Delta, data.counit

    def basis_map(k):  # e_k : 1 -> C
        return LinearMap(F, UNIT, C.shape, {(k, 0): F.one()})

    # right integral: m(Lambda (x) c) = eps(c) Lambda for all c, Lambda invariant
    blocks = invariance_blocks(
        lambda c: m.compose(whisker(basis_map(c), C.shape, UNIT)), eps)
    blocks += invariance_blocks(C.rho, data.algebra.epsilon)
    basis, _ = kernel_and_rank(stack(blocks))
    data.caches["integral_space_dim"] = len(basis)
    if len(basis) != 1:
        if data.pairing_nondegenerate:
            raise CoendError(f"right integral space has dimension {len(basis)} "
                             "despite a nondegenerate pairing")
        return  # no invariant integral (the underlying algebra is not unimodular)
    Lambda = basis[0]

    # left cointegral: (id (x) lam)Delta = u lam, lam an invariant functional; as
    # equations on lam these are the transposes of (e_k^* (x) id)Delta - u_k id
    # and of rho(k) - eps(k) id
    blocks = invariance_blocks(
        lambda k: whisker(basis_map(k).transpose(), UNIT, C.shape).compose(
            Delta).transpose(),
        data.unit_map().transpose())
    blocks += invariance_blocks(lambda k: C.rho(k).transpose(), data.algebra.epsilon)
    basis, _ = kernel_and_rank(stack(blocks))
    data.caches["cointegral_space_dim"] = len(basis)
    if len(basis) != 1:
        if data.pairing_nondegenerate:
            raise CoendError(f"left cointegral space has dimension {len(basis)} "
                             "despite a nondegenerate pairing")
        return
    lam = basis[0]

    # normalize: lam(u) = 1, then lam(Lambda) = 1
    lam_u = sum((a * b for a, b in zip(lam, data.unit)), F.zero())
    if lam_u.is_zero():
        raise CoendError("cointegral vanishes on the unit; cannot normalize")
    lam = [x / lam_u for x in lam]
    lam_L = sum((a * b for a, b in zip(lam, Lambda)), F.zero())
    if lam_L.is_zero():
        raise CoendError("cointegral vanishes on the integral; cannot normalize")
    Lambda = [x / lam_L for x in Lambda]
    data.integral = Lambda
    data.cointegral = lam

    lam_L = sum((a * b for a, b in zip(lam, Lambda)), F.zero())
    rep.check("cointegral of integral is 1", lam_L == F.one())
    if data.dim_B is not None:
        rep.check("counit of integral equals dim(B)",
                  _counit_of(data, Lambda) == data.dim_B)
        # cross-check against the universal integral: Lambda ~ sum qdim(i) chi_i
        simples = data.caches.get("simples")
        if simples:
            univ = [F.zero()] * d
            for V in simples:
                chi = internal_character(data, V)
                q = qdim(V)
                univ = [x + q * y for x, y in zip(univ, chi)]
            scalar = None
            ok = True
            for a, b in zip(univ, Lambda):
                if b.is_zero() != a.is_zero():
                    ok = False
                    break
                if not b.is_zero():
                    ratio = a / b
                    if scalar is None:
                        scalar = ratio
                    elif ratio != scalar:
                        ok = False
                        break
            rep.check("integral is proportional to the universal integral", ok)


def _solve_pairing_inverse(data: CoendData, Winv: LinearMap, rep: CheckReport):
    """Omega: the two-sided inverse copairing, from the inverse Winv of the
    pairing matrix and from the integral formula; both must agree."""
    F = data.field
    c = data.carrier.shape
    w = data.pairing
    # Omega = W^{-1} read as an element of C (x) C: (W^{-1} (x) id) sum e_j (x) e_j
    Omega = whisker(Winv, UNIT, c).compose(coev_left(data.carrier))
    # the side conditions (w (x) id)(id (x) Omega) = id = (id (x) w)(Omega (x) id)
    ident = LinearMap.identity(F, c)
    rep.check("copairing side condition (left)",
              whisker(w, UNIT, c).compose(whisker(Omega, c, UNIT)) == ident)
    rep.check("copairing side condition (right)",
              whisker(w, c, UNIT).compose(whisker(Omega, UNIT, c)) == ident)
    data.Omega = Omega.apply([F.one()])

    if data.integral is not None:
        wLL = pairing_value(data, data.integral, data.integral)
        if data.dim_B is not None:
            rep.check("pairing of the integral with itself equals dim(B)",
                      wLL == data.dim_B)
        if wLL.is_zero():
            raise CoendError("omega(Lambda, Lambda) = 0 despite nondegeneracy")
        # the integral formula: the inverse copairing is the middle pairing of
        # two coproducts of the integral, Omega = w(L,L)^{-1} (id (x) w (x) id)(DL (x) DL)
        dL = data.Delta.compose(data.vector_map(data.integral))
        om_raw = whisker(w, c, c).compose(dL.tensor(dL))
        rep.check("integral formula reproduces the inverse copairing",
                  om_raw.scaled(wLL.inverse()) == Omega)
        # corollary: the unnormalized composite acts on C as omega(L,L) id
        rep.check("integral composite equals omega(Lambda,Lambda) id",
                  whisker(w, c, UNIT).compose(whisker(om_raw, UNIT, c))
                  == ident.scaled(wLL))


def coend_to_json(data: CoendData) -> dict:
    """Named-slot serialization of the structure maps for caching."""
    lin, vec = map_to_json, vector_to_json
    return {
        "schema": 1,
        "field": data.field.to_json(),
        "dim": data.dim,
        "m": lin(data.m), "Delta": lin(data.Delta), "counit": lin(data.counit),
        "antipode": lin(data.antipode), "antipode_inv": lin(data.antipode_inv),
        "pairing": lin(data.pairing), "twist": lin(data.twist_map),
        "unit": vec(data.unit), "Omega": vec(data.Omega),
        "Lambda": vec(data.integral), "cointegral": vec(data.cointegral),
        "pairing_nondegenerate": data.pairing_nondegenerate,
        "dim_B": None if data.dim_B is None else repr(data.dim_B),
        "anomaly_free": data.anomaly_free,
        "modular": data.modular,
    }


def _counit_of(data: CoendData, v: Vector) -> Scalar:
    return data.counit.apply(v)[0]


def coend_from_json(H: HopfAlgebraData, obj: dict) -> CoendData:
    """Rehydrate a cached coend.  The gates are not re-run (the cache key covers
    the input file, so the stored maps were verified when first built), except
    the one that costs d multiplications: the counit of the integral must equal
    dim(B), and a CoendError is raised when it does not.  A map of the wrong
    size raises ShapeError, and a missing unit CoendError."""
    F = H.field
    parse = literal_parser(F)
    carrier = coadjoint_module(H)
    d = obj["dim"]
    c, cc = TensorShape([d]), TensorShape([d, d])

    def lin(m, domain, codomain):
        return map_from_json(F, m["entries"], TensorShape([m["src"]]),
                             TensorShape([m["tgt"]]), parse).reshaped(domain, codomain)

    data = CoendData(H, carrier, CheckReport(f"coend of {H.name} (cached)"))
    data.m = lin(obj["m"], cc, c)
    data.unit = vector_from_json(F, obj["unit"], d, parse)
    if data.unit is None:
        raise CoendError("the cached coend has no unit")
    data.Delta = lin(obj["Delta"], c, cc)
    data.counit = lin(obj["counit"], c, UNIT)
    data.antipode, data.antipode_inv = lin(obj["antipode"], c, c), lin(obj["antipode_inv"], c, c)
    data.pairing = lin(obj["pairing"], cc, UNIT)
    data.twist_map = lin(obj["twist"], c, c)
    data.pairing_nondegenerate = obj["pairing_nondegenerate"]
    data.Omega = vector_from_json(F, obj["Omega"], d * d, parse)
    data.integral = vector_from_json(F, obj["Lambda"], d, parse)
    data.cointegral = vector_from_json(F, obj["cointegral"], d, parse)
    data.dim_B = None if obj["dim_B"] is None else parse(obj["dim_B"])
    data.anomaly_free, data.modular = obj["anomaly_free"], obj["modular"]
    if data.dim_B is not None and data.integral is not None \
            and _counit_of(data, data.integral) != data.dim_B:
        raise CoendError("the cached dim(B) is not the counit of the cached integral")
    return data


def integrals(data: CoendData) -> tuple[Vector, Vector]:
    """The normalized right integral and left cointegral.

    Raises when either solution space is not one-dimensional, which signals a
    non-unimodular input rather than a bug.
    """
    if data.integral is None or data.cointegral is None:
        i_dim = data.caches.get("integral_space_dim")
        c_dim = data.caches.get("cointegral_space_dim")
        raise CoendError(
            f"integral spaces have dimensions {i_dim}/{c_dim}; a one-dimensional "
            "space of invariant (co)integrals is required")
    return data.integral, data.cointegral


def _paired_with(data: CoendData, x: Vector) -> LinearMap:
    """omega(x (x) .) : C -> 1, the pairing whiskered by the element x."""
    return data.pairing.compose(whisker(data.vector_map(x), UNIT, data.carrier.shape))


def pairing_value(data: CoendData, x: Vector, y: Vector) -> Scalar:
    return _paired_with(data, x).apply(y)[0]


# -- internal characters -----------------------------------------------------------------


def internal_character(data: CoendData, V: ModuleData) -> Vector:
    """chi_V = i_V o coev_right(V), the pivot-twisted character of V."""
    i_V = dinatural_component(data.algebra, V, data.carrier)
    vec = coev_right(V).apply([data.field.one()])
    return i_V.apply(vec)


def character_functional(data: CoendData, V: ModuleData) -> Vector:
    """psi_V = omega(chi_V (x) .) as a functional vector on C."""
    chi = internal_character(data, V)
    return _paired_with(data, chi).transpose().apply([data.field.one()])


def character_checks(data: CoendData, V: ModuleData) -> CheckReport:
    """The trace-like identities: the coproduct of chi_V is invariant under the
    pinned braided rotation, and psi_V is a rotation-invariant trace on C."""
    rep = CheckReport(f"internal character checks for {V.name}")
    C = data.carrier
    chi = internal_character(data, V)
    rep.check("character is an invariant vector",
              all(C.rho(k).apply(chi) == [data.algebra.epsilon.entry(0, k) * x for x in chi]
                  for k in range(data.algebra.dim)))
    rot = braided_rotation(C, C, to_front=True)
    rot = rot.reshaped(TensorShape([data.dim] * 2), TensorShape([data.dim] * 2))
    d_chi = data.Delta.apply(chi)
    rep.check("coproduct of the character is rotation-invariant",
              rot.apply(d_chi) == d_chi)
    # psi o m, as a vector, is fixed by the transpose of the rotation
    psi_m = data.m.transpose().apply(character_functional(data, V))
    rep.check("character functional is a rotated trace",
              rot.transpose().apply(psi_m) == psi_m)
    return rep


def characters_span_check(data: CoendData) -> CheckReport:
    """For supplied simples: the characters are a basis of Hom(1, C)."""
    rep = CheckReport("internal characters span the invariants")
    simples = data.caches.get("simples")
    if not simples:
        rep.check("simples supplied", False)
        return rep
    inv = data.invariant_basis(1)
    chis = [internal_character(data, V) for V in simples]
    mat = LinearMap.from_function(data.field, TensorShape([len(chis)]), data.carrier.shape,
                                  lambda c: enumerate(chis[c]))
    rk = rank(mat)
    rep.check("characters are linearly independent", rk == len(chis))
    rep.check("characters span Hom(1, C)", rk == inv.dim)
    return rep


# -- the end and the Drinfeld map ----------------------------------------------------------


class EndData:
    """The end A = C* with the structure maps dual to the coend's and the
    gates of end_and_drinfeld.  (A plain class, for the reason CoendData is.)"""

    def __init__(self, carrier: ModuleData, m: LinearMap, unit: Vector, Delta: LinearMap,
                 counit: LinearMap, antipode: LinearMap, report: CheckReport):
        self.carrier, self.m, self.unit, self.Delta = carrier, m, unit, Delta
        self.counit, self.antipode, self.report = counit, antipode, report


def end_and_drinfeld(data: CoendData) -> tuple[EndData, LinearMap, dict]:
    """The end as the dual of the coend, the Drinfeld map (the left currying of
    the pairing), and the factorizability flags; the three nondegeneracy tests
    must agree."""
    rep = CheckReport(f"end and Drinfeld map for {data.algebra.name}")
    F = data.field
    d = data.dim
    C = data.carrier
    A = dual_module(C, name="end")

    # dual structure maps through the canonical pairing <phi, c> = phi(c):
    # the end multiplies by precomposing the comultiplication, and so on.
    m_A = data.Delta.transpose()
    u_A = data.counit.transpose().apply([F.one()])
    Delta_A = data.m.transpose()
    eps_A = data.unit_map().transpose()
    S_A = data.antipode.transpose()
    end = EndData(A, m_A, u_A, Delta_A, eps_A, S_A, rep)

    AA = module_power(A, 2)
    rep.check("end multiplication is equivariant", _is_intertwiner(m_A, AA, A))
    rep.check("end comultiplication is equivariant", _is_intertwiner(Delta_A, A, AA))
    a = A.shape
    eyeA = LinearMap.identity(F, a)
    u_A_map = LinearMap.from_function(F, UNIT, a, lambda c: enumerate(u_A))
    rep.check("end associativity",
              m_A.compose(whisker(m_A, UNIT, a)) == m_A.compose(whisker(m_A, a, UNIT)))
    rep.check("end unit", m_A.compose(whisker(u_A_map, UNIT, a)) == eyeA)
    rep.check("end coassociativity", whisker(Delta_A, UNIT, a).compose(Delta_A)
              == whisker(Delta_A, a, UNIT).compose(Delta_A))
    c_AA = braiding(A, A)
    mid = whisker(c_AA.reshaped(a * a, a * a), a, a)
    rep.check("end bialgebra compatibility",
              Delta_A.compose(m_A) ==
              m_A.tensor(m_A).compose(mid).compose(Delta_A.tensor(Delta_A)))
    ueA = u_A_map.compose(eps_A)
    rep.check("end antipode axiom",
              m_A.compose(whisker(S_A, UNIT, a)).compose(Delta_A) == ueA
              and m_A.compose(whisker(S_A, a, UNIT)).compose(Delta_A) == ueA)

    # Drinfeld map: the left currying D(c) = omega(c (x) .)
    Wmat = _pairing_matrix(data)
    D = Wmat  # rows index the dual basis of C, i.e. the end carrier
    rep.check("Drinfeld map is equivariant", _is_intertwiner(D, C, A))
    rep.check("Drinfeld map sends unit to unit", D.apply(data.unit) == u_A)
    rep.check("Drinfeld map respects counits",
              eps_A.compose(D) == data.counit)
    m_C2 = data.m.reshaped(TensorShape([d, d]), TensorShape([d]))
    rep.check("Drinfeld map is an algebra morphism",
              D.compose(m_C2) == m_A.compose(D.tensor(D)))
    rep.check("Drinfeld map is a coalgebra morphism",
              Delta_A.compose(D) ==
              D.tensor(D).compose(data.Delta.reshaped(TensorShape([d]),
                                                      TensorShape([d, d]))))

    rk = rank(Wmat)
    flags = {
        "pairing_nondegenerate": rk == d,
        "drinfeld_invertible": invert(D) is not None,
        "inverse_copairing_exists": data.Omega is not None,
    }
    rep.check("factorizability tests agree",
              len(set(flags.values())) == 1)
    return end, D, flags
