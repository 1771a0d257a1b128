"""Semilinear Galois actions on the Cox ring and constructive descent.

An action twists coefficients by a Frobenius power and maps each variable
to a scalar multiple of another variable, generating a cyclic group.  For
an invariant strict complete intersection whose degree classes satisfy the
orbit conditions, :func:`descend` rewrites the generators into Galois
orbits in two phases: first every generator is replaced by one fixed under
the stabilizer of its degree class, then each orbit of degree classes is
reassembled from conjugates of the generators in a single class.
"""

from collections import namedtuple
from math import gcd, lcm
from operator import add, mul

from .cox import _strict_ci_verdict, _validate_hypersurfaces
from .errors import (ActionError, DescentPreconditionError, RingMismatchError)
from .fields import _add_scaled, _power as _square_and_multiply, _prime_factors
from .groebner import IdealHandle, defining_ideal, ideal_equal
from .linalg import _integer_rref, echelon_basis, kernel_gfp
from .rings import Multidegree, Polynomial, _exps_of_degree, _grevlex_key

_MAX_ORDER = 10000


def _bounded_order(tower, s, bound):
    """The multiplicative order of s != 0 if it is at most ``bound``, else
    q - 1, a multiple of it past the bound.  An order up to the bound has
    no prime factor past it, so q - 1 is trial-divided no further."""
    n = q1 = tower.p ** tower.d - 1
    primes = _prime_factors(n, bound)
    k = 1  # the part of q - 1 that those primes make up
    for r in primes:
        while n % r == 0:
            n //= r
            k *= r
    if tower.c_pow(s, k) != tower.c_one:
        return q1
    for r in primes:
        while k % r == 0 and tower.c_pow(s, k // r) == tower.c_one:
            k //= r
    return k


class SemilinearAction:
    """Frobenius power plus a scaled permutation of the variables.

    ``var_map`` sends each variable name to a polynomial of the shape
    c * x_j with c nonzero; the permutation must be a bijection and must
    normalize the grading.
    """

    def __init__(self, ring, frob_power, var_map):
        self.ring = ring
        self.frob_power = frob_power % ring.tower.d
        tower = ring.tower
        n = ring.nvars
        perm = [None] * n
        scalars = [None] * n
        for name, image in var_map.items():
            if name not in ring._var_index:
                raise ActionError("unknown variable %r" % name)
            image = ring._coerce_poly(image)
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
        self._solve_grading()
        degree_map = self._degree_map(self.perm)
        self._check_degree_compatible(degree_map)
        self.order = self._find_order()
        self._powers = {}  # the powers apply has asked for, by exponent mod order
        self._degree_maps = {1 % self.order: degree_map}  # the same for apply_degree

    # -- structure

    def _solve_grading(self):
        """The grading G's solve over Q on ints, from the RREF of [G | I].

        Its rows with a pivot in G give ``_solution``: (variable, row e) pairs
        such that x_v = e . b / ``_denominator``, all other x zero, solves
        G x = b for every b in the image of G.  The rows past them give
        ``_cokernel``, rows k with k G = 0: b is in the image iff k . b = 0
        for each.
        """
        grading = self.ring.grading
        n, r = self.ring.nvars, self.ring.rank
        d, red, pivots = _integer_rref(
            [list(row) + [int(i == k) for i in range(r)] for k, row in enumerate(grading)])
        self._denominator = d
        self._solution = [(pc, row[n:]) for row, pc in zip(red, pivots) if pc < n]
        self._cokernel = [row[n:] for row, pc in zip(red, pivots) if pc >= n]

    def _degree_map(self, perm):
        """The integer matrix M with M b / ``_denominator`` the degree that
        the variable permutation ``perm`` takes b to: G P x for the solution
        x of G x = b, P sending x_i to x_perm[i]."""
        r = self.ring.rank
        return [[sum(g[perm[v]] * e[c] for v, e in self._solution) for c in range(r)]
                for g in self.ring.grading]

    def _check_degree_compatible(self, degree_map):
        # P preserves ker G iff G P = A G for A = degree_map / d: the map
        # takes the degree of each variable to the degree of its image
        d, grading = self._denominator, self.ring.grading
        for i, j in enumerate(self.perm):
            col = [row[i] for row in grading]
            if any(sum(map(mul, m, col)) != d * row[j] for m, row in zip(degree_map, grading)):
                raise ActionError("variable permutation does not preserve the grading kernel")

    def _identity(self):
        n = self.ring.nvars
        return (0, tuple(range(n)), (self.ring.tower.c_one,) * n)

    def _find_order(self):
        """The least k > 0 with a^k the identity, without walking the powers.

        a^k moves no variable and twists no coefficient iff m divides k, m
        the lcm of the permutation's cycle lengths and the Frobenius
        order d / gcd(d, e).  a^m is then the diagonal linear map
        x_i -> s_i x_i, so the order is m times the lcm of the
        multiplicative orders of the s_i.
        """
        tower = self.ring.tower
        m = tower.d // gcd(tower.d, self.frob_power)
        seen = set()
        for start in range(len(self.perm)):
            i, length = start, 0
            while i not in seen:
                seen.add(i)
                i = self.perm[i]
                length += 1
            if length:
                m = lcm(m, length)
        bound = _MAX_ORDER // m
        a = (self.frob_power, self.perm, self.scalars)
        _, _, scalars = _square_and_multiply(a, m, self._identity(), self._compose)
        order = 1
        for s in set(scalars) - {tower.c_one}:
            order = lcm(order, _bounded_order(tower, s, bound))
        if order > bound:
            raise ActionError("action order exceeds %d" % _MAX_ORDER)
        return m * order

    def _compose(self, second, first):
        """second o first, states as (frob, perm, scalars)."""
        tower = self.ring.tower
        mul, frob = tower.c_mul, tower.c_frob
        e2, p2, s2 = second
        e1, p1, s1 = first
        perm = tuple(p2[j] for j in p1)
        scalars = tuple(mul(frob(c, e2), s2[j]) for c, j in zip(s1, p1))
        return ((e1 + e2) % tower.d, perm, scalars)

    def _power(self, times):
        """a^times by square-and-multiply, kept once asked for."""
        k = times % self.order
        state = self._powers.get(k)
        if state is None:
            a = (self.frob_power, self.perm, self.scalars)
            state = self._powers[k] = _square_and_multiply(a, k, self._identity(), self._compose)
        return state

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
        if len(degree) != self.ring.rank:
            raise ActionError("degree %s has wrong rank" % (degree,))
        if any(sum(map(mul, k, degree)) for k in self._cokernel):
            raise ActionError("degree %s is not in the grading lattice image" % (degree,))
        k = times % self.order
        degree_map = self._degree_maps.get(k)
        if degree_map is None:
            degree_map = self._degree_maps[k] = self._degree_map(self._power(k)[1])
        d = self._denominator
        out = []
        for m in degree_map:
            v, rest = divmod(sum(map(mul, m, degree)), d)
            if rest:
                raise ActionError("induced degree action is not integral")
            out.append(v)
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

class DegreeOrbitPartition(namedtuple("DegreeOrbitPartition", "order r_bounds s_bounds blocks")):
    """Generators reordered so degree-class orbits are contiguous.

    ``order`` permutes the input indices.  Each r-block is one orbit of
    degree classes; within it the degrees cycle with period beta, forming
    gamma sub-blocks (the s-blocks) of size beta.

    - ``r_bounds``: orbit block boundaries, 0 = r_0 < ... < r_m = s;
    - ``s_bounds``: sub-block boundaries, 0 = s_0 < ... < s_n = s;
    - ``blocks``: per r-block, dict(beta, gamma, classes, rep_powers);
      classes[k] is a^k(classes[0]), so rep_powers is range(beta).
    """

    __slots__ = ()


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
        classes = action.degree_orbit(base)
        beta = len(classes)
        members = {c: [i for i in unassigned if degs[i] == c] for c in classes}
        gamma = len(members[base])
        missing = [c for c, v in members.items() if len(v) != gamma]
        if missing:
            raise DescentPreconditionError(
                "DEGREE_MISMATCH",
                "degree multiplicity is not constant on the orbit of %s (off at %s)"
                % (base, missing[0]))
        for j in range(gamma):
            for c in classes:
                order.append(members[c][j])
            s_bounds.append(len(order))
        r_bounds.append(len(order))
        blocks.append({"beta": beta, "gamma": gamma, "classes": classes,
                       "rep_powers": list(range(beta))})
        unassigned = [i for i in unassigned if degs[i] not in members]
    return DegreeOrbitPartition(order=order, r_bounds=r_bounds,
                                s_bounds=s_bounds, blocks=blocks)


# ---------------------------------------------------------------------------
# graded pieces

def _echelon(tower, dicts):
    """The RREF of the span of term dicts, as monic term dicts in decreasing
    order of their leading exponents, each with its terms in decreasing
    grevlex order, so that its first key is its lead.  The columns are the
    monomials the dicts use: one that none uses would be a zero column,
    which changes no RREF."""
    support = sorted({e for t in dicts for e in t}, key=_grevlex_key)
    zero = tower.c_zero
    rows = echelon_basis(tower, [[t.get(e, zero) for e in support] for t in dicts])
    return [{e: c for e, c in zip(support, row) if c != zero} for row in rows]


def _piece_basis(ring, degree, gens):
    """Echelonized basis of the degree piece spanned by the monomial
    multiples of ``gens``.

    Each multiple x^m * f shifts f's exponents by an m of the degree gap;
    in a quotient ring it is reduced modulo the defining ideal, so the
    coordinates are on standard monomials.
    """
    jhandle = defining_ideal(ring) if ring.defining else None
    mults = []
    for f in gens:
        for m in _exps_of_degree(ring, degree - f.multidegree()):
            t = {tuple(map(add, e, m)): c for e, c in f._t.items()}
            mults.append(t if jhandle is None else jhandle.normal_form(Polynomial(ring, t))._t)
    return [Polynomial(ring, t) for t in _echelon(ring.tower, mults)]


def graded_piece_basis(ideal, degree):
    """Echelonized basis of the degree piece spanned by generator multiples."""
    return _piece_basis(ideal.ring, Multidegree(degree), [f for f in ideal.gens if f])


def lower_piece_basis(ideal, degree):
    """Basis of the part of the piece reachable from strictly lower degrees.

    Span of the nonconstant monomial multiples of the generators, that is of
    the multiples of generators of other degrees: every variable has
    positive weight, so 1 is the only monomial of degree 0.  With the
    generators generating the ideal this is the degree piece of the ideal
    generated by all strictly lower pieces.
    """
    degree = Multidegree(degree)
    return _piece_basis(ideal.ring, degree,
                        [f for f in ideal.gens if f and f.multidegree() != degree])


# ---------------------------------------------------------------------------
# fixed spaces by restriction of scalars

def fixed_space(action, vectors, subgroup_index):
    """Basis of the subspace fixed by the subgroup generated by a^k.

    The fixed-point equation is solved by exact linear algebra over the
    prime field (restriction of scalars), which works in every
    characteristic: on the GF(p)-basis t^a * w_i of the span, w_i its
    echelon basis (:func:`_echelon`), an image's coordinates are its
    coefficients at the leads of the w_i.  The action is semilinear,
    a^k(c * w) = frob^e(c) * a^k(w) for e its Frobenius power, so each w_i
    is mapped once and the image of t^a * w_i is frob^e(t^a) times it.
    The span is closed iff each a^k(w_i) equals the combination of the w_i
    with its coefficients at their leads, which is checked term by term.
    The result spans the fixed space over the subgroup's fixed field;
    every returned element is literally fixed.
    """
    ring = action.ring
    tower = ring.tower
    basis = _echelon(tower, [t for t in (ring._coerce_poly(v)._t for v in vectors) if t])
    if not basis:
        return []
    k = subgroup_index
    d, p = tower.d, tower.p
    mul, neg, coeffs, zero = tower.c_mul, tower.c_neg, tower.c_coeffs, tower.c_zero
    frob_power = action._power(k)[0]
    # frob^e(t^a), t^a the a-th unit coordinate row
    units = [tower.c_frob(tower.c_from_coeffs([int(a == b) for b in range(d)]), frob_power)
             for a in range(d)]
    leads = [next(iter(b)) for b in basis]
    cols = []
    for b in basis:
        image = action.apply(Polynomial(ring, b), k)._t
        at_leads = [image.get(e, zero) for e in leads]
        # each w_i is monic at its lead and zero at the other leads
        residual = dict(image)
        for c, w in zip(at_leads, basis):
            if c != zero:
                _add_scaled(residual, w, tower, neg(c))
        if residual:
            raise ActionError("space is not closed under the subgroup action")
        cols.extend([c for x in at_leads for c in coeffs(mul(u, x))] for u in units)
    # matrix of sigma^k - id
    mat = [list(row) for row in zip(*cols)]
    for i in range(len(basis) * d):
        mat[i][i] = (mat[i][i] - 1) % p
    out = []
    for vec in kernel_gfp(p, mat):
        t = {}
        for i, b in enumerate(basis):
            c = tower.c_from_coeffs(vec[i * d:(i + 1) * d])
            if c != zero:
                _add_scaled(t, b, tower, c)
        f = Polynomial(ring, t)
        if not f.is_zero():
            if action.apply(f, k) != f:
                raise AssertionError("fixed-space element is not fixed")
            out.append(f)
    return out


# ---------------------------------------------------------------------------
# the descent recursion

class DescentResult(namedtuple("DescentResult", "new_gens orbit_blocks degree_log input_order")):
    """Generators rewritten into Galois orbit blocks.

    ``new_gens`` has the same length and positionwise degrees as the
    reordered input; ``orbit_blocks`` are (start, end) index ranges, each
    closed under the action up to scalars; ``degree_log`` pairs the input
    and output degree at every position.
    """

    __slots__ = ()


def descend(amb, action, polys):
    """Rewrite invariant strict-CI generators into Galois orbits.

    Preconditions: the generated ideal is action-invariant, the input is a
    strict complete intersection, the degree multiset decomposes into
    full orbits with constant multiplicity, and phase 1 finds a generator
    fixed by each class's stabilizer.  Raises
    :class:`DescentPreconditionError` otherwise.  Only the strict-CI
    verdict's status is read, so a not-strict input is rejected without a
    witness, and in a Cohen-Macaulay ambient with a monomial irrelevant
    ideal without a saturation.

    Phase 2 rebuilds each orbit block from conjugates of one class's
    generators, which must be minimal: no nonzero combination of them lies
    in the span of the other generators' multiples, so that in each class's
    degree :func:`graded_piece_basis` has as many elements as
    :func:`lower_piece_basis` plus the class's generators.  The verdict's
    ht(I) = s gives it, and no piece is checked: such a combination puts a
    generator in the ideal of the other s - 1, whose every top-dimensional
    component of the cone has dimension at least dim R - (s - 1) (Krull's
    height theorem), so ht(I) <= s - 1.
    """
    ring = amb.ring
    polys = [ring._coerce_poly(f) for f in polys]
    ideal = IdealHandle(ring, polys)
    if not is_invariant_ideal(action, ideal):
        raise DescentPreconditionError("NOT_INVARIANT",
                                       "the ideal is not invariant under the action")
    _validate_hypersurfaces(polys)
    verdict = _strict_ci_verdict(amb, ideal, status_only=True)
    if verdict.status != "strict":
        raise DescentPreconditionError("NOT_STRICT",
                                       "input is %s" % verdict.status)
    part = degree_orbits(action, polys)
    work = [polys[i] for i in part.order]
    input_degs = [f.multidegree() for f in work]
    betas = [block["beta"] for bi, block in enumerate(part.blocks)
             for _ in range(part.r_bounds[bi], part.r_bounds[bi + 1])]

    # ``current`` is a handle of the set of ``work``; each check below builds
    # the handle of a changed list it accepts, which then becomes ``current``
    current = ideal

    # phase 1: make every generator fixed under the stabilizer of its class
    for t, beta in enumerate(betas):
        f = work[t]
        stab_order = action.order // beta
        if stab_order == 1:
            continue
        g = action.apply(f, beta)
        if g == f:
            continue
        orbit_span = [f, g] + [action.apply(f, beta * j) for j in range(2, stab_order)]
        # s forms of height s generate minimally and w lies in the ideal, so
        # w escapes the other generators iff swapping it in keeps the ideal
        for w in fixed_space(action, orbit_span, beta):
            candidate = work[:t] + [w] + work[t + 1:]
            current = IdealHandle(ring, candidate)
            if ideal_equal(current, ideal):
                break
        else:
            # the stabilizer's linear part can fix too little: x0 -> t*x0
            # fixes no nonzero multiple of x0
            raise DescentPreconditionError(
                "NO_FIXED_GENERATOR",
                "no element of the orbit span of %s that the stabilizer of its "
                "class fixes can replace it" % f)
        work = candidate

    # phase 2: reassemble each orbit block from conjugates of one class,
    # whose generators sit at every beta-th place from the block's start
    for bi, block in enumerate(part.blocks):
        beta = block["beta"]
        if beta == 1:
            continue
        start, end = part.r_bounds[bi], part.r_bounds[bi + 1]
        newblock = [action.apply(g, k) for g in work[start:end:beta] for k in block["rep_powers"]]
        if newblock == work[start:end]:
            continue
        work = work[:start] + newblock + work[end:]
        current = IdealHandle(ring, work)
        if not ideal_equal(current, ideal):
            raise AssertionError("phase 2 orbit assembly changed the ideal")

    # final verification of the advertised invariants
    if not ideal_equal(current, ideal):
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
    """The terms of f made monic, as a set: equal iff f is a nonzero scalar
    multiple of the other."""
    t = f._t
    if not t:
        return frozenset()
    mul = f.ring.tower.c_mul
    inv = f.ring.tower.c_inv(t[min(t, key=_grevlex_key)])
    return frozenset((e, mul(inv, c)) for e, c in t.items())
