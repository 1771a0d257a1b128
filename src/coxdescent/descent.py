"""Semilinear Galois actions on the Cox ring and constructive descent.

An action twists coefficients by a Frobenius power and maps each variable
to a scalar multiple of another variable, generating a cyclic group.  For
an invariant strict complete intersection whose degree classes satisfy the
orbit conditions, :func:`descend` rewrites the generators into Galois
orbits in two phases: first every generator is replaced by one fixed under
the stabilizer of its degree class, then each orbit of degree classes is
reassembled from conjugates of the generators in a single class.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import (ActionError, DescentPreconditionError, RingMismatchError)
from .groebner import IdealHandle, defining_ideal, ideal_equal
from .linalg import RATIONALS, echelon_basis, kernel, kernel_gfp, rational_solve, rref
from .rings import Multidegree, Polynomial, monomials_of_degree

_MAX_ORDER = 10000


class SemilinearAction:
    """Frobenius power plus a scaled permutation of the variables.

    ``var_map`` sends each variable name to a polynomial of the shape
    c * x_j with c nonzero; the permutation must be a bijection and must
    normalize the grading.
    """

    def __init__(self, ring, frob_power, var_map):
        self.ring = ring
        self.frob_power = frob_power % max(ring.tower.d, 1)
        tower = ring.tower
        n = ring.nvars
        perm = [None] * n
        scalars = [None] * n
        for name, image in var_map.items():
            if name not in ring._var_index:
                raise ActionError("unknown variable %r" % name)
            image = ring._coerce_poly(image) if not isinstance(image, Polynomial) else image
            if len(image) != 1:
                raise ActionError("image of %s is not a scaled variable" % name)
            (exp, coeff), = image._t.items()
            if sum(exp) != 1:
                raise ActionError("image of %s is not a scaled variable" % name)
            j = exp.index(1)
            i = ring._var_index[name]
            perm[i] = j
            scalars[i] = coeff
        for i in range(n):
            if perm[i] is None:
                perm[i] = i
                scalars[i] = tower.c_one
        if sorted(perm) != list(range(n)):
            raise ActionError("variable map is not a permutation")
        self.perm = tuple(perm)
        self.scalars = tuple(scalars)
        if ring.grading is not None:
            self._check_degree_compatible()
        self.order = self._compute_order()
        self._power_cache = {}

    # -- structure

    def _check_degree_compatible(self):
        grading = self.ring.grading
        for v in kernel(RATIONALS, grading):
            moved = [None] * len(v)
            for i, j in enumerate(self.perm):
                moved[j] = v[i]
            for row in grading:
                if sum(Fraction(a) * x for a, x in zip(row, moved)) != 0:
                    raise ActionError("variable permutation does not preserve the grading kernel")

    def _compute_order(self):
        d = max(self.ring.tower.d, 1)
        e, perm, scalars = 0, tuple(range(self.ring.nvars)), \
            tuple(self.ring.tower.c_one for _ in range(self.ring.nvars))
        identity = (0, tuple(range(self.ring.nvars)), scalars)
        state = identity
        for n in range(1, _MAX_ORDER + 1):
            state = self._compose(state)
            if state == identity:
                return n
        raise ActionError("action order exceeds %d" % _MAX_ORDER)

    def _compose(self, state):
        """state o (this action), states as (frob, perm, scalars)."""
        tower = self.ring.tower
        e2, p2, s2 = state
        e1, p1, s1 = self.frob_power, self.perm, self.scalars
        d = max(tower.d, 1)
        perm = tuple(p2[p1[i]] for i in range(len(p1)))
        scalars = tuple(tower.c_mul(tower.c_frob(s1[i], e2), s2[p1[i]])
                        for i in range(len(p1)))
        return ((e1 + e2) % d, perm, scalars)

    def _power(self, times):
        times %= self.order
        cached = self._power_cache.get(times)
        if cached is None:
            n = self.ring.nvars
            state = (0, tuple(range(n)), tuple(self.ring.tower.c_one for _ in range(n)))
            for _ in range(times):
                state = self._compose(state)
            cached = self._power_cache[times] = state
        return cached

    # -- application

    def apply(self, f, times=1):
        """Apply the action ``times`` times to a polynomial."""
        if f.ring is not self.ring:
            raise RingMismatchError("polynomial from a different ring")
        e, perm, scalars = self._power(times)
        tower = self.ring.tower
        mul, frob, cpow = tower.c_mul, tower.c_frob, tower.c_pow
        n = self.ring.nvars
        out = {}
        for exp, c in f._t.items():
            nc = frob(c, e)
            ne = [0] * n
            for i, a in enumerate(exp):
                if a:
                    ne[perm[i]] = a
                    s = scalars[i]
                    if s != tower.c_one:
                        nc = mul(nc, cpow(s, a))
            out[tuple(ne)] = nc
        return Polynomial(self.ring, out)

    def apply_degree(self, degree, times=1):
        """The induced action on multidegrees."""
        grading = self.ring.grading
        if grading is None:
            raise ActionError("ring is ungraded")
        cols = [[Fraction(row[j]) for row in grading] for j in range(self.ring.nvars)]
        x = rational_solve([[cols[j][i] for j in range(self.ring.nvars)]
                            for i in range(len(grading))], list(degree))
        if x is None:
            raise ActionError("degree %s is not in the grading lattice image" % (degree,))
        _, perm, _ = self._power(times)
        moved = [Fraction(0)] * len(x)
        for i, j in enumerate(perm):
            moved[j] = x[i]
        out = []
        for row in grading:
            v = sum(Fraction(a) * m for a, m in zip(row, moved))
            if v.denominator != 1:
                raise ActionError("induced degree action is not integral")
            out.append(int(v))
        return Multidegree(out)

    def degree_orbit(self, degree):
        """The orbit of a degree class, starting at ``degree``."""
        degree = Multidegree(degree)
        orbit = [degree]
        cur = degree
        for _ in range(self.order):
            cur = self.apply_degree(cur, 1)
            if cur == degree:
                break
            orbit.append(cur)
        return orbit

    def __repr__(self):
        return "SemilinearAction(frob=%d, order=%d)" % (self.frob_power, self.order)


def apply_action(action, f, times=1):
    return action.apply(f, times)


def is_invariant_ideal(action, ideal):
    """True iff the action maps the ideal into (hence onto) itself."""
    return all(ideal.contains(action.apply(g)) for g in ideal.gens if not g.is_zero())


# ---------------------------------------------------------------------------
# degree bookkeeping

@dataclass
class DegreeOrbitPartition:
    """Generators reordered so degree-class orbits are contiguous.

    ``order`` permutes the input indices.  Each r-block is one orbit of
    degree classes; within it the degrees cycle with period beta, forming
    gamma sub-blocks (the s-blocks) of size beta.
    """

    order: list
    r_bounds: list            # orbit block boundaries: 0 = r_0 < ... < r_m = s
    s_bounds: list            # sub-block boundaries: 0 = s_0 < ... < s_n = s
    blocks: list              # per r-block: dict(beta, gamma, classes, rep_powers)


def degree_orbits(action, polys):
    """Partition generators into Galois orbits of their degree classes.

    Raises DEGREE_MISMATCH when some class of an orbit is missing or the
    multiplicities differ across an orbit.
    """
    degs = [f.multidegree() for f in polys]
    unassigned = list(range(len(polys)))
    order = []
    r_bounds = [0]
    s_bounds = [0]
    blocks = []
    while unassigned:
        first = unassigned[0]
        base = degs[first]
        # classes in rep-power order: smallest power of the generator
        classes = [base]
        rep_powers = [0]
        cur = base
        for k in range(1, action.order):
            cur = action.apply_degree(cur, 1)
            if cur == base:
                break
            if cur not in classes:
                classes.append(cur)
                rep_powers.append(k)
        beta = len(classes)
        members = {tuple(c): [i for i in unassigned if degs[i] == c] for c in classes}
        gammas = {c: len(v) for c, v in members.items()}
        gamma = gammas[tuple(base)]
        if any(g != gamma for g in gammas.values()):
            missing = [c for c, g in gammas.items() if g != gamma]
            raise DescentPreconditionError(
                "DEGREE_MISMATCH",
                "degree multiplicity is not constant on the orbit of %s (off at %s)"
                % (base, Multidegree(missing[0])))
        for j in range(gamma):
            for c in classes:
                order.append(members[tuple(c)][j])
            s_bounds.append(len(order))
        r_bounds.append(len(order))
        blocks.append({"beta": beta, "gamma": gamma, "classes": classes,
                       "rep_powers": rep_powers})
        taken = set()
        for v in members.values():
            taken.update(v)
        unassigned = [i for i in unassigned if i not in taken]
    return DegreeOrbitPartition(order=order, r_bounds=r_bounds,
                                s_bounds=s_bounds, blocks=blocks)


# ---------------------------------------------------------------------------
# graded pieces

def _standard_monomials(ring, degree):
    """Monomial basis of the degree piece of the (quotient) ring."""
    monos = monomials_of_degree(ring, degree)
    if not ring.defining:
        return monos
    lts = [lt for lt, _ in defining_ideal(ring)._pairs()]
    out = []
    for m in monos:
        e = m.leading_exponent()
        if not any(all(a >= b for a, b in zip(e, lt)) for lt in lts):
            out.append(m)
    return out


def _coords(ring, f, mono_index, jhandle):
    if ring.defining:
        f = jhandle.normal_form(f)
    v = [ring.tower.c_zero] * len(mono_index)
    for e, c in f._t.items():
        v[mono_index[e]] = c
    return v


def _piece_context(ring, degree):
    monos = _standard_monomials(ring, degree)
    exps = [m.leading_exponent() for m in monos]
    mono_index = {e: i for i, e in enumerate(exps)}
    jhandle = defining_ideal(ring) if ring.defining else None
    return exps, mono_index, jhandle


def _rows_to_polys(ring, rows, exps):
    out = []
    for row in rows:
        t = {exps[i]: c for i, c in enumerate(row) if c != ring.tower.c_zero}
        out.append(Polynomial(ring, t))
    return out


def graded_piece_basis(ideal, degree):
    """Echelonized basis of the degree piece spanned by generator multiples."""
    ring = ideal.ring
    degree = Multidegree(degree)
    exps, mono_index, jhandle = _piece_context(ring, degree)
    rows = []
    for f in ideal.gens:
        if f.is_zero():
            continue
        diff = degree - f.multidegree()
        for m in monomials_of_degree(ring, diff):
            rows.append(_coords(ring, m * f, mono_index, jhandle))
    rows = echelon_basis(ring.tower, rows)
    return _rows_to_polys(ring, rows, exps)


def lower_piece_basis(ideal, degree):
    """Basis of the part of the piece reachable from strictly lower degrees.

    Span of the nonconstant monomial multiples of the generators; with the
    generators generating the ideal this is the degree piece of the ideal
    generated by all strictly lower pieces.
    """
    ring = ideal.ring
    degree = Multidegree(degree)
    exps, mono_index, jhandle = _piece_context(ring, degree)
    zero_exp = (0,) * ring.nvars
    rows = []
    for f in ideal.gens:
        if f.is_zero():
            continue
        diff = degree - f.multidegree()
        for m in monomials_of_degree(ring, diff):
            if m.leading_exponent() == zero_exp:
                continue
            rows.append(_coords(ring, m * f, mono_index, jhandle))
    rows = echelon_basis(ring.tower, rows)
    return _rows_to_polys(ring, rows, exps)


# ---------------------------------------------------------------------------
# fixed spaces by restriction of scalars

def fixed_space(action, vectors, subgroup_index):
    """Basis of the subspace fixed by the subgroup generated by a^k.

    The fixed-point equation is solved by exact linear algebra over the
    prime field (restriction of scalars), which works in every
    characteristic.  The result spans the fixed space over the subgroup's
    fixed field; every returned element is literally fixed.
    """
    ring = action.ring
    tower = ring.tower
    vectors = [ring._coerce_poly(v) for v in vectors]
    vectors = [v for v in vectors if not v.is_zero()]
    if not vectors:
        return []
    k = subgroup_index
    support = sorted({e for v in vectors for e in v._t},
                     key=ring.okey, reverse=True)
    index = {e: i for i, e in enumerate(support)}

    def coords(f):
        row = [tower.c_zero] * len(support)
        for e, c in f._t.items():
            if e not in index:
                raise ActionError("space is not closed under the subgroup action")
            row[index[e]] = c
        return row

    basis, pivots = rref(tower, [coords(v) for v in vectors])
    nb = len(basis)
    d = tower.d
    p = tower.p

    def to_poly(row):
        t = {support[i]: c for i, c in enumerate(row) if c != tower.c_zero}
        return Polynomial(ring, t)

    basis_polys = [to_poly(b) for b in basis]

    # GF(p)-basis: t^a * w_i; columns of the matrix of sigma^k - id
    gen = tower.gen().rep if d > 1 else None
    images = []
    for i in range(nb):
        for a in range(d):
            scalar = tower.c_one if a == 0 else tower.c_pow(gen, a)
            elem = basis_polys[i] * _field_elem(tower, scalar)
            images.append(coords(action.apply(elem, k)))
    if len(rref(tower, basis + images)[0]) != nb:
        raise ActionError("space is not closed under the subgroup action")
    mat_cols = []
    for col_index, image in enumerate(images):
        i, a = divmod(col_index, d)
        col = []
        # coordinates on the RREF basis are the entries at its pivots
        for ii, piv in enumerate(pivots):
            cc = tower.c_coeffs(image[piv])
            # subtract the identity
            for aa in range(d):
                v = cc[aa]
                if ii == i and aa == a:
                    v = (v - 1) % p
                col.append(v)
        mat_cols.append(col)
    # rows of the matrix for kernel computation: mat[r][c]
    nrows = nb * d
    mat = [[mat_cols[c][r] for c in range(nrows)] for r in range(nrows)]
    out = []
    for vec in kernel_gfp(p, mat):
        f = ring.zero()
        for i in range(nb):
            for a in range(d):
                c = vec[i * d + a]
                if c:
                    scalar = tower.c_from_int(c) if a == 0 else \
                        tower.c_mul(tower.c_from_int(c), tower.c_pow(gen, a))
                    f = f + basis_polys[i] * _field_elem(tower, scalar)
        if not f.is_zero():
            if action.apply(f, k) != f:
                raise AssertionError("fixed-space element is not fixed")
            out.append(f)
    return out


def _field_elem(tower, rep):
    from .fields import FieldElement
    return FieldElement(tower, rep)


# ---------------------------------------------------------------------------
# the descent recursion

@dataclass
class DescentResult:
    """Generators rewritten into Galois orbit blocks.

    ``new_gens`` has the same length and positionwise degrees as the
    reordered input; ``orbit_blocks`` are (start, end) index ranges, each
    closed under the action up to scalars; ``degree_log`` pairs the input
    and output degree at every position.
    """

    new_gens: list
    orbit_blocks: list
    degree_log: list
    input_order: list


def descend(amb, action, polys):
    """Rewrite invariant strict-CI generators into Galois orbits.

    Preconditions: the generated ideal is action-invariant, the input is a
    strict complete intersection, and the degree multiset decomposes into
    full orbits with constant multiplicity.  Raises
    :class:`DescentPreconditionError` otherwise.
    """
    from .cox import is_strict_ci

    ring = amb.ring
    polys = [ring._coerce_poly(f) for f in polys]
    ideal = IdealHandle(ring, polys)
    if not is_invariant_ideal(action, ideal):
        raise DescentPreconditionError("NOT_INVARIANT",
                                       "the ideal is not invariant under the action")
    verdict = is_strict_ci(amb, polys)
    if verdict.status != "strict":
        raise DescentPreconditionError("NOT_STRICT",
                                       "input is %s" % verdict.status)
    part = degree_orbits(action, polys)
    work = [polys[i] for i in part.order]
    input_degs = [f.multidegree() for f in work]
    s = len(work)

    # phase 1: make every generator fixed under the stabilizer of its class
    for t in range(s):
        f = work[t]
        beta = len(action.degree_orbit(f.multidegree()))
        stab_order = action.order // beta
        if stab_order == 1 or action.apply(f, beta) == f:
            continue
        orbit_span = [action.apply(f, beta * j) for j in range(stab_order)]
        fixed = fixed_space(action, orbit_span, beta)
        others = IdealHandle(ring, work[:t] + work[t + 1:])
        replacement = next((w for w in fixed if not others.contains(w)), None)
        if replacement is None:
            raise AssertionError(
                "no stabilizer-fixed element escapes the other generators; "
                "input is inconsistent with the preconditions")
        candidate = work[:t] + [replacement] + work[t + 1:]
        if not ideal_equal(IdealHandle(ring, candidate), ideal):
            raise AssertionError("phase 1 substitution changed the ideal")
        work[t] = replacement

    # phase 2: reassemble each orbit block from conjugates of one class
    current = IdealHandle(ring, work)
    for bi, block in enumerate(part.blocks):
        beta = block["beta"]
        gamma = block["gamma"]
        if beta == 1:
            continue
        start, end = part.r_bounds[bi], part.r_bounds[bi + 1]
        classes = block["classes"]
        rep_powers = block["rep_powers"]
        base_class = classes[0]
        base_gens = [g for g in work[start:end] if g.multidegree() == base_class]
        # sanity: the generators of each class complete the lower piece to
        # a basis of the full graded piece
        for cls in classes:
            cls_gens = [g for g in work[start:end] if g.multidegree() == cls]
            piece = graded_piece_basis(current, cls)
            lower = lower_piece_basis(current, cls)
            delta = len(piece) - gamma
            if len(lower) != delta or len(_span(ring, cls_gens + lower, cls)) != len(piece):
                raise AssertionError(
                    "graded piece of degree %s is not generated as the "
                    "preconditions require" % (cls,))
        newblock = []
        for j in range(gamma):
            for k in rep_powers:
                newblock.append(action.apply(base_gens[j], k))
        candidate = work[:start] + newblock + work[end:]
        if not ideal_equal(IdealHandle(ring, candidate), ideal):
            raise AssertionError("phase 2 orbit assembly changed the ideal")
        work = candidate
        current = IdealHandle(ring, work)

    # final verification of the advertised invariants
    if not ideal_equal(IdealHandle(ring, work), ideal):
        raise AssertionError("descent output generates a different ideal")
    out_degs = [f.multidegree() for f in work]
    if out_degs != input_degs:
        raise AssertionError("descent output changed the generator degrees")
    orbit_blocks = list(zip(part.s_bounds[:-1], part.s_bounds[1:]))
    for (a, b) in orbit_blocks:
        block = {_monic_key(g) for g in work[a:b]}
        image = {_monic_key(action.apply(g)) for g in work[a:b]}
        if image != block:
            raise AssertionError("orbit block is not closed under the action")
    degree_log = list(zip(input_degs, out_degs))
    return DescentResult(new_gens=work, orbit_blocks=orbit_blocks,
                         degree_log=degree_log, input_order=part.order)


def _monic_key(f):
    return frozenset(f.monic()._t.items())


def _span(ring, polys, degree):
    exps, mono_index, jhandle = _piece_context(ring, degree)
    rows = [_coords(ring, f, mono_index, jhandle) for f in polys if not f.is_zero()]
    return echelon_basis(ring.tower, rows)
