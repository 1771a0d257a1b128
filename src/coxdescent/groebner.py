"""Buchberger's algorithm and the ideal-theoretic toolkit.

Normal forms, reduced Groebner bases, ideal equality, saturation (by
Bayer steps for monomial directions, by auxiliary-variable elimination
otherwise), Krull dimension of the initial ideal, and height, whose
lower bounds may come from a basis on a linear section.  Quotient
Cox rings are handled by adjoining the defining ideal to every ideal
before basis computations.

The engine runs on term dicts whose exponent vectors are packed into one
int each (:class:`_Order`): one packing per monomial order, in which an int
comparison is the order, a product is an int add and divisibility is one
subtraction and one AND.  Only :class:`IdealHandle` packs and unpacks:
Polynomials keep exponent tuples, which :func:`rings._grevlex_key` orders.
Each order packs through its table from exponent tuple to packed int: a
monomial table, not a query cache, as queries of one graded piece share
their monomials; it is cleared at ``_TABLE_BOUND`` entries.

Over GF(p) normal forms keep coefficients as plain ints, reduced mod p
once per popped term (the heap division of Monagan and Pearce, J. Symb.
Comput. 2011); over GF(p^d), d > 1, they call the tower's arithmetic.
Membership tests stop at the first term that no leading term divides.

The engine is deterministic: normal pair selection (smallest lcm first in
the ring's order) with both Buchberger criteria, and reduced bases are
unique for a fixed order.
"""

import functools
import heapq
import math
import operator
import struct

from .errors import (ExponentCapError, RingMismatchError,
                     SaturationDirectionError, UnitIdealError)
from .fields import _add_scaled
from .rings import _FIELD_BITS, _TABLE_BOUND, Polynomial, _first_off_degree

# ---------------------------------------------------------------------------
# monomial orders as packings: an exponent vector is one int, and comparing
# ints compares monomials


class _Order:
    """A monomial order as one packing of exponent vectors into ints.

    K(e) = sum over rows r of (bias_r + W_r . e) * 2^(16 * (R - 1 - r)),
    for the weight matrix W whose top row is ``weights`` and whose other
    rows are -x_i for i in reversed(``perm``): the top field holds the
    weighted degree (unbounded), and below it one 16-bit field
    (``_FIELD_BITS``) per variable holds ``bias`` - e_i.  So an int
    comparison is the order (grevlex for unit weights and the identity
    perm); K(e) = K(0) + sum(e_i * cols[i]) makes products and quotients
    int adds; and a | b is ``a <= b and not (a - b) & divmask``: the fields
    of a - b hold b_i - a_i, and the guard bit (each field's top bit) is
    set in the lowest negative one, in none when none is negative.
    ``a <= b`` follows from the rest in a graded order; the elimination
    order needs it.

    Carries.  With cap = 2^14 - 1 (``EXPONENT_CAP``) and bias = 2*cap + 1,
    a weighted degree at most cap bounds each e_i by cap (weights are
    positive), so every field is exact and below its guard bit:
    :meth:`pack` compares the weighted degree with cap, once.  A term that
    a reduction or an S-polynomial creates is below the term it comes from,
    so of no larger weighted degree: comparing each S-pair lcm with
    ``limit`` = (cap + 1) << top before its S-polynomial is formed keeps
    every term exact, and no per-term ``guard`` is needed (0).  The lcm
    itself is exact, as each of its exponents is within the cap.

    Table.  :meth:`pack_terms` looks exponent tuples up in ``_table`` and
    packs and stores only those not there, so :meth:`pack` stays the one
    cap check: one past the cap raises and is never stored.  Orders are
    built once per process, so rings with as many variables share a table;
    packing depends on the order alone.  It holds monomials, no polynomial,
    and is cleared at ``_TABLE_BOUND`` entries.  Unpacking has no table: it
    would grow with every basis element the engine makes.
    """

    def __init__(self, weights, perm):
        n = len(perm)
        self.cap = (1 << _FIELD_BITS - 2) - 1
        shifts = [0] * n
        for j, i in enumerate(perm):
            shifts[i] = _FIELD_BITS * j
        self.top = top = _FIELD_BITS * n
        self._low = (1 << top) - 1  # the variable fields
        bias = 2 * self.cap + 1
        self.zero = sum(bias << s for s in shifts)  # K(0)
        self.cols = tuple((w << top) - (1 << s) for w, s in zip(weights, shifts))
        self.divmask = sum(1 << s + _FIELD_BITS - 1 for s in shifts)
        self.limit = (self.cap + 1) << top
        self.guard = 0
        # pack and unpack move all fields at once through bytes, one
        # unsigned short ("H") per 16-bit field
        self._degree = sum if set(weights) <= {1} else (
            lambda e: sum(map(operator.mul, weights, e)))
        self._arrange = (None if perm == tuple(range(n)) else operator.itemgetter(*perm))
        self._restore = (None if self._arrange is None
                         else operator.itemgetter(*(perm.index(i) for i in range(n))))
        self._fields = struct.Struct("<%dH" % n)
        self._table = {}  # exponent tuple -> packed int

    def key(self, e):
        """K(e) of an S-pair lcm, which may pass the cap that :meth:`pack`
        enforces; exact while no e_i passes ``bias``."""
        return self.zero + sum(map(operator.mul, e, self.cols))

    def pack(self, e):
        d = self._degree(e)
        if d > self.cap:
            raise _cap_error(self.cap, "a monomial")
        if self._arrange is not None:
            e = self._arrange(e)
        return (d << self.top) + self.zero - int.from_bytes(self._fields.pack(*e), "little")

    def unpack(self, k):
        # K(0) minus the variable fields leaves e_i in each field
        low = self.zero - (k & self._low)
        e = self._fields.unpack(low.to_bytes(self._fields.size, "little"))
        return e if self._restore is None else self._restore(e)

    def divides(self, a, b):
        return a <= b and not (a - b) & self.divmask

    def pack_terms(self, t):
        table = self._table
        try:
            return {table[e]: c for e, c in t.items()}
        except KeyError:
            pass
        out = {}
        for e, c in t.items():
            k = table.get(e)
            if k is None:
                k = self.pack(e)
                if len(table) >= _TABLE_BOUND:
                    table.clear()
                table[e] = k
            out[k] = c
        return out

    def unpack_terms(self, t):
        unpack = self.unpack
        return {unpack(k): c for k, c in t.items()}


class _Elimination(_Order):
    """The elimination order on (aux, e): the auxiliary exponent first, then
    grevlex on e.

    It packs e as grevlex does and adds aux on top, above the degree field,
    now a 16-bit field: an aux-free exponent packs to its grevlex int.
    The order is not graded, so no lcm bounds the degree of e.  But a
    created term is x^e * x^m / x^lt with e, m within the cap and x^lt | x^m,
    so each exponent and the degree of e stay at most 2*cap: no field
    borrows, and the degree field reads the true degree, past the cap
    exactly when its bit for cap + 1, ``guard``, is set.  One AND on each
    created term checks it.
    """

    def __init__(self, n):
        rest = self.rest = _grevlex(n)
        self.cap, self.zero, self.divmask = rest.cap, rest.zero, rest.divmask
        self.auxshift = rest.top + _FIELD_BITS
        self.cols = (1 << self.auxshift,) + rest.cols
        self.limit = None
        self.guard = 1 << self.auxshift - 2
        self._table = {}

    def pack(self, e):
        return self.rest.pack(e[1:]) + (e[0] << self.auxshift)

    def unpack(self, k):
        return (k >> self.auxshift,) + self.rest.unpack(k)


def _cap_error(cap, what):
    return ExponentCapError("%s of degree past the exponent cap %d in a Groebner "
                            "computation" % (what, cap))


@functools.lru_cache(maxsize=None)
def _grevlex(n):
    return _Order((1,) * n, tuple(range(n)))


@functools.lru_cache(maxsize=None)
def _elimination(n):
    return _Elimination(n)


@functools.lru_cache(maxsize=128)
def _bayer(w, i):
    """Grevlex weighted by ``w`` with x_i last, built once so that orders
    compare by identity; grevlex itself when that is the same order (equal
    weights, x_i the last variable)."""
    n = len(w)
    if i == n - 1 and len(set(w)) == 1:
        return _grevlex(n)
    return _Order(w, tuple(j for j in range(n) if j != i) + (i,))


def _repack(tower, basis, order):
    """The term dicts of the monic polynomials of ``basis`` = (pairs, order
    they are packed in), packed in ``order``."""
    pairs, src = basis
    dicts = _dicts_of_pairs(tower, pairs)
    if src is order:
        return dicts
    return [order.pack_terms(src.unpack_terms(t)) for t in dicts]


# ---------------------------------------------------------------------------
# engine: polynomials as dicts {packed exponent: raw coefficient}; a monic
# polynomial x^lt + tail as the pair (lt, tail)


def _monic_pair(t, tower):
    """(leading exponent, the other terms) of a nonzero term dict, made monic."""
    lt = max(t)
    if t[lt] == tower.c_one:  # already monic, as reduced basis elements are
        return lt, {e: c for e, c in t.items() if e != lt}
    inv = tower.c_inv(t[lt])
    mul = tower.c_mul
    return lt, {e: mul(inv, c) for e, c in t.items() if e != lt}


def _normal_form_dict(h, gb, tower, order, zero_test=False):
    """Full normal form of ``h`` against (lt, tail) pairs ``gb``; with
    ``zero_test``, only its leading term, found at the first term that no lt
    divides, so the result is empty exactly when the full one is.

    Each pair stands for the monic polynomial x^lt + tail.  A heap of the
    negated exponents beside the ``work`` dict hands out its terms from the
    largest down.  A step only adds terms smaller than the one it reduces,
    so no popped exponent comes back.  In the elimination order each created
    term passes the order's degree guard.

    Over a prime field coefficients are plain ints: a step adds ``c * v``
    into ``work`` unreduced, and a coefficient is reduced mod p once, when
    popped (a popped 0 is skipped), so each term keeps one heap entry.
    Over GF(p^d), d > 1, steps use the tower's closures and delete a
    cancelled term, whose heap entry is then skipped.
    """
    push, pop = heapq.heappush, heapq.heappop
    divmask, guard = order.divmask, order.guard
    work = dict(h)
    heap = [-e for e in work]
    heapq.heapify(heap)
    result = {}
    if tower.d == 1:
        p = tower.p
        while heap:
            m = -pop(heap)
            c = work.pop(m) % p
            if not c:
                continue
            for lt, tail in gb:
                if lt <= m and not (lt - m) & divmask:  # lt | m, as in _Order.divides
                    c, q = -c, m - lt
                    for e, v in tail.items():
                        e += q
                        cur = work.get(e)
                        if cur is None:
                            if e & guard:
                                raise _cap_error(order.cap, "a reduction term")
                            work[e] = c * v
                            push(heap, -e)
                        else:
                            work[e] = cur + c * v
                    break
            else:
                if zero_test:
                    return {m: c}
                result[m] = c
        return result
    neg = tower.c_neg
    new = []
    while heap:
        m = -pop(heap)
        c = work.pop(m, None)
        if c is None:
            continue
        for lt, tail in gb:
            if lt <= m and not (lt - m) & divmask:
                _add_scaled(work, tail, tower, neg(c), m - lt, new)
                for e in new:
                    if e & guard:
                        raise _cap_error(order.cap, "a reduction term")
                    push(heap, -e)
                new.clear()
                break
        else:
            if zero_test:
                return {m: c}
            result[m] = c
    return result


def _buchberger(tower, order, polys, stop=None):
    """Reduced Groebner basis of the ideal generated by ``polys`` (dicts
    packed in ``order``), as (lt, tail) pairs in decreasing order of lt.

    ``stop``, if given, tests the set of the supports (frozensets of
    variable indices) of the nonconstant leading terms found so far, each
    time a new one appears; the run returns None once it holds."""
    gb = [_monic_pair(f, tower) for f in polys if f]
    first = len(gb)  # the elements from here on are the run's own
    exps = []  # the leading exponents as tuples, for the lcms
    supports = set()
    minus_one = tower.c_neg(tower.c_one)
    zero, divmask, limit, guard = order.zero, order.divmask, order.limit, order.guard
    pending = set()
    heap = []

    def add_pairs(k):
        """Queue the S-pairs of gb[k] with every earlier element, the
        smallest lcm first; whether ``stop`` now holds."""
        e = order.unpack(gb[k][0])
        exps.append(e)
        for j in range(k):
            heapq.heappush(heap, (order.key(map(max, exps[j], e)), j, k))
            pending.add((j, k))
        if stop is not None:
            support = frozenset(i for i, a in enumerate(e) if a)
            if support and support not in supports:
                supports.add(support)
                return stop(supports)
        return False

    for k in range(len(gb)):
        if add_pairs(k):
            return None

    while heap:
        l, i, j = heapq.heappop(heap)
        pending.discard((i, j))
        (lti, taili), (ltj, tailj) = gb[i], gb[j]
        # first criterion: coprime leading monomials
        if l == lti + ltj - zero:
            continue
        # chain criterion
        skip = False
        for k, (ltk, _) in enumerate(gb):
            if k == i or k == j:
                continue
            if ltk <= l and not (ltk - l) & divmask:
                a = (min(i, k), max(i, k))
                b = (min(j, k), max(j, k))
                if a not in pending and b not in pending:
                    skip = True
                    break
        if skip:
            continue
        if limit is not None and l >= limit:
            raise _cap_error(order.cap, "an S-pair lcm")
        # the monic leading terms cancel, so the S-polynomial is built
        # from the tails
        s = {}
        _add_scaled(s, taili, tower, q=l - lti)
        _add_scaled(s, tailj, tower, minus_one, l - ltj)
        if guard and any(e & guard for e in s):
            raise _cap_error(order.cap, "an S-polynomial term")
        r = _normal_form_dict(s, gb, tower, order)
        if r:
            gb.append(_monic_pair(r, tower))
            if add_pairs(len(gb) - 1):
                return None
    # an element the run made is a normal form modulo every earlier one
    return _reduce_basis(gb, tower, order, [0] * first + list(range(first, len(gb))))


def _reduce_basis(gb, tower, order, since):
    """The reduced basis of the ideal of which the (lt, tail) pairs ``gb``
    are a Groebner basis in ``order``, in decreasing order of lt.

    ``since`` holds one index per element: no leading term of
    gb[:since[k]] divides a term of gb[k]'s tail.  A tail that no other
    kept leading term divides either is already reduced, and is kept as it
    is; the others take their normal form modulo the kept elements, which
    is unique, as they are a Groebner basis."""
    # minimal basis, smallest lt first: drop each lt divisible by a kept lt
    kept = []
    for k in sorted(range(len(gb)), key=lambda k: gb[k][0]):
        if not any(order.divides(gb[j][0], gb[k][0]) for j in kept):
            kept.append(k)
    kept.reverse()
    pairs = [gb[k] for k in kept]
    divmask = order.divmask
    out = []
    # each x^lt stays as it is, as no kept lt divides another; every term of
    # a tail is below its own lt, which therefore never divides
    for k, (lt, tail) in zip(kept, pairs):
        leads = [gb[j][0] for j in kept if j >= since[k] and j != k]
        if any(a <= e and not (a - e) & divmask for a in leads for e in tail):  # a | e
            tail = _normal_form_dict(tail, pairs, tower, order)
        out.append((lt, tail))
    return out


# ---------------------------------------------------------------------------
# handles

class IdealHandle:
    """Generators plus a lazily cached reduced Groebner basis.

    In a quotient Cox ring the defining ideal is adjoined before any basis
    computation, so all results are canonical representatives modulo it.
    The handle is where exponent tuples become packed ints and back.  Its
    basis is kept as (lt, tail) pairs packed in grevlex, which every query
    reads as they are: only :meth:`reduced_gb` unpacks a whole basis, and
    so does the first read of ``gens`` on a handle that saturation or
    intersection returns.  :meth:`contains` unpacks nothing and stops at
    the first term that no leading term divides.
    """

    def __init__(self, ring, gens):
        self.ring = ring
        self._gens = tuple(ring._coerce_poly(g) for g in gens)
        self._order = _grevlex(ring.nvars)
        self._gb_pairs = None  # [(lt, tail)] engine form

    @property
    def gens(self):
        """The generators; a handle made from a basis unpacks it on first read."""
        if self._gens is None:
            self._gens = tuple(_polys_of_pairs(self.ring, self._gb_pairs))
        return self._gens

    def reduced_gb(self):
        """Unique reduced basis: monic, tails reduced, sorted."""
        return _polys_of_pairs(self.ring, self._pairs())

    def _pairs(self, stop=None, polys=None):
        """The basis as pairs, built on first call from ``polys``, the
        generators and the ring's relations packed, if given; None, and
        nothing kept, when ``stop`` ends the run first (see
        :func:`_buchberger`)."""
        if self._gb_pairs is None:
            polys = self._packed(self._order) if polys is None else polys
            self._gb_pairs = _buchberger(self.ring.tower, self._order, polys, stop)
        return self._gb_pairs

    def _packed(self, order):
        """The generators and the ring's relations, packed in ``order``."""
        return [order.pack_terms(g._t) for g in self.gens + self.ring.defining]

    def normal_form(self, f):
        """Remainder of f on division by the reduced basis; zero iff f is in I."""
        return Polynomial(self.ring, self._order.unpack_terms(self._reduce(f)))

    def _reduce(self, f, zero_test=False):
        if f.ring is not self.ring:
            raise RingMismatchError("polynomial from a different ring")
        order = self._order
        return _normal_form_dict(order.pack_terms(f._t), self._pairs(), self.ring.tower, order,
                                 zero_test)

    def contains(self, f):
        return not self._reduce(f, zero_test=True)

    def contains_ideal(self, other):
        if other.ring is not self.ring:
            raise RingMismatchError("ideals from different rings")
        return _first_outside(self.ring.tower, (self._pairs(), self._order),
                              (other._pairs(), other._order)) is None

    def equals(self, other):
        if other.ring is not self.ring:
            raise RingMismatchError("ideals from different rings")
        return self._pairs() == other._pairs()

    def is_unit(self):
        gb = self._pairs()
        return len(gb) == 1 and gb[0][0] == self._order.zero  # the basis (1)

    def is_zero(self):
        return not self._pairs()

    def __repr__(self):
        return "IdealHandle(%s)" % ", ".join(str(g) for g in self.gens)


def _dicts_of_pairs(tower, pairs):
    """The term dicts of the monic polynomials x^lt + tail of ``pairs``."""
    one = tower.c_one
    return [{lt: one, **tail} for lt, tail in pairs]


def _polys_of_pairs(ring, pairs):
    unpack = _grevlex(ring.nvars).unpack_terms
    return [Polynomial(ring, unpack(t)) for t in _dicts_of_pairs(ring.tower, pairs)]


# functional wrappers

def reduced_gb(ideal):
    return ideal.reduced_gb()


def normal_form(f, ideal):
    return ideal.normal_form(f)


def ideal_equal(a, b):
    return a.equals(b)


# ---------------------------------------------------------------------------
# elimination machinery: an auxiliary exponent packed on top of grevlex, so
# that aux-free grevlex ints lift and come back unchanged

def _eliminate(ring, dicts):
    """Reduced grevlex basis of the aux-free part of the ideal of ``dicts``,
    packed in the elimination order."""
    # in an elimination order an aux-free lt means an aux-free element, and
    # the aux-free part of a reduced elimination basis is itself reduced
    order = _elimination(ring.nvars)
    aux = 1 << order.auxshift
    return [p for p in _buchberger(ring.tower, order, dicts) if p[0] < aux]


def _handle_with_gb(ring, pairs):
    """A handle whose generators are the reduced basis given as (lt, tail)
    pairs, unpacked on first read."""
    h = IdealHandle(ring, ())
    h._gens, h._gb_pairs = None, pairs
    return h


def saturate_single(ideal, g):
    """(I : g^infinity) by eliminating z from I + (1 - z*g)."""
    ring = ideal.ring
    tower = ring.tower
    order = ideal._order
    dicts = _dicts_of_pairs(tower, ideal._pairs())
    rel = {order.zero: tower.c_one}
    _add_scaled(rel, order.pack_terms(g._t), tower, tower.c_neg(tower.c_one),
                1 << _elimination(ring.nvars).auxshift)
    dicts.append(rel)
    return _handle_with_gb(ring, _eliminate(ring, dicts))


def intersect(a, b):
    """Ideal intersection via u*I + (1-u)*J elimination."""
    ring = a.ring
    if b.ring is not ring:
        raise RingMismatchError("ideals from different rings")
    return _handle_with_gb(ring, _intersect(ring, _dicts_of_pairs(ring.tower, a._pairs()),
                                            _dicts_of_pairs(ring.tower, b._pairs())))


def _intersect(ring, a, b):
    """Reduced grevlex basis of the intersection of the ideals generated by
    the grevlex term dicts ``a`` and ``b``: the aux-free part of
    u*(a) + (1-u)*(b)."""
    tower = ring.tower
    u = 1 << _elimination(ring.nvars).auxshift
    dicts = [{e + u: c for e, c in f.items()} for f in a]
    for f in b:
        out = dict(f)  # (1-u)*f = f - u*f
        _add_scaled(out, f, tower, tower.c_neg(tower.c_one), u)
        dicts.append(out)
    return _eliminate(ring, dicts)


def saturate(ideal, direction):
    """(I : G^infinity).

    For a homogeneous I and single-term generators of ``direction``, this
    is I : P_1^inf : ... : P_m^inf over the primes P_C = (x : x in C) of
    G's radical, C running over the minimal transversals of the
    generators' supports (:func:`_saturate_primes`).  Otherwise it is the
    intersection of the single saturations by the generators, found by
    elimination, stopped once the running intersection is I
    (:func:`_meet_until`).  All paths return the same reduced basis.
    """
    ring = ideal.ring
    if direction.ring is not ring:
        raise RingMismatchError("ideals from different rings")
    gens = [g for g in direction.gens if not g.is_zero()]
    if not gens:
        raise SaturationDirectionError("cannot saturate with respect to the zero ideal")
    if all(len(g) == 1 for g in gens) and _homogeneous(ideal):
        return _handle_with_gb(ring, _saturate_primes(ring, (ideal._pairs(), ideal._order),
                                                      _monomial_primes(gens)))
    basis = ideal._pairs(), ideal._order
    singles = (saturate_single(ideal, g)._pairs() for g in dict.fromkeys(gens))
    # a single saturation equal to I is passed as I's own basis
    parts = (basis if s == basis[0] else (s, basis[1]) for s in singles)
    return _handle_with_gb(ring, _meet_until(ring, basis, parts)[0])


def _saturate_primes(ring, basis, primes):
    """The reduced grevlex basis of I : P_1^inf : ... : P_m^inf for a
    homogeneous I given by its reduced ``basis`` = (pairs, order), each
    prime P = (x_i : i in c) given by its variable indices c.

    Each I : P^inf starts with one Bayer step (:func:`_saturate_variable`)
    by the variable x_f of P that :func:`_bayer_variable` picks.  Any x_f is
    exact: J = I : x_f^inf contains I : P^inf, and equals it when a power of
    every other x in P takes J into I (:func:`_certified`); else I : P^inf
    is the intersection of the I : x^inf, x in P, each by one Bayer step.
    Bases stay in the order a step left them in, as (pairs, order), and are
    rebuilt in grevlex once, at the end.
    """
    tower = ring.tower
    weights = ring._weights[1]
    for c in primes:
        f = _bayer_variable(weights, c, basis[1])
        first, k, divided = _saturate_variable(ring, basis, f)
        if first is basis or _certified(tower, basis, divided, k, [i for i in c if i != f]):
            basis = first
        else:
            basis = _meet_until(ring, basis, (first if i == f else _saturate_variable(ring, basis, i)[0]
                                              for i in c))
    grevlex = _grevlex(ring.nvars)
    if basis[1] is grevlex:
        return basis[0]
    return _buchberger(tower, grevlex, _repack(tower, basis, grevlex))


def _bayer_variable(weights, c, order):
    """The variable of P = (x_i : i in c) that saturation by P steps by
    first, for a basis in ``order``: one whose x-last order is ``order``, so
    that the step converts nothing, if there is one, else P's last variable,
    whose conversion and later grevlex rebuild measure cheaper than the
    first variable's."""
    return next((i for i in c if _bayer(weights, i) is order), c[-1])


def _basis_for_primes(ideal, c):
    """I's reduced basis as (pairs, order), to be saturated by primes of
    which P = (x_i : i in c) comes first: the handle's grevlex basis if it
    holds one, else a basis built from I's generators and the ring's
    relations straight in the Bayer order of P's first step
    (:func:`_bayer_variable`), which that step then converts nothing for."""
    ring = ideal.ring
    if ideal._gb_pairs is None:
        weights = ring._weights[1]
        order = _bayer(weights, _bayer_variable(weights, c, ideal._order))
        if order is not ideal._order:
            return _buchberger(ring.tower, order, ideal._packed(order)), order
    return ideal._pairs(), ideal._order


def _homogeneous(ideal):
    """Whether every generator of the handle is homogeneous (ring.defining
    is already); a handle made from a basis reads it packed."""
    if ideal._gens is None:
        unpack = ideal._order.unpack
        terms = [map(unpack, (lt, *tail)) for lt, tail in ideal._gb_pairs]
    else:
        terms = [f._t for f in ideal._gens if f]
    return all(_first_off_degree(ideal.ring, t)[2] is None for t in terms)


def _polynomial_outside(ring, basis, other):
    """The first element of ``other``'s basis that the ideal of ``basis``
    does not contain, as a Polynomial, or None; both bases as (pairs,
    order), in any orders."""
    t = _first_outside(ring.tower, basis, other)
    return None if t is None else Polynomial(ring, basis[1].unpack_terms(t))


def _first_outside(tower, basis, other):
    """The first element of ``other``'s basis, packed in ``basis``'s order,
    that the ideal of ``basis`` does not contain, or None; both bases as
    (pairs, order).  Each element is repacked only when its turn comes."""
    gb, order = basis
    pairs, src = other
    for lt, tail in pairs:
        t = {lt: tower.c_one, **tail}
        if src is not order:
            t = order.pack_terms(src.unpack_terms(t))
        if _normal_form_dict(t, gb, tower, order, zero_test=True):
            return t
    return None


def _meet(ring, a, b):
    """a intersect b for bases (pairs, order), skipping the elimination
    when one contains the other."""
    tower = ring.tower
    if _first_outside(tower, a, b) is None:
        return b
    if _first_outside(tower, b, a) is None:
        return a
    grevlex = _grevlex(ring.nvars)
    return _intersect(ring, _repack(tower, a, grevlex), _repack(tower, b, grevlex)), grevlex


def _meet_until(ring, basis, parts):
    """The intersection of the ``parts``, bases (pairs, order) of ideals
    containing I's ``basis``, folded by :func:`_meet`: I's own basis as soon
    as a running intersection is I, with no later part computed.  A part
    equal to I must be I's ``basis`` object itself, so only a meet is
    scanned against I."""
    result = None
    for part in parts:
        if part is basis:
            return basis
        if result is None:
            result = part
            continue
        result = _meet(ring, result, part)
        if _first_outside(ring.tower, basis, result) is None:
            return basis
    return result


def _monomial_primes(gens):
    """The minimal primes of the ideal of the single-term ``gens``, each as
    the sorted indices of the variables that generate it, in sorted order."""
    supports = {frozenset(i for i, a in enumerate(e) if a) for g in gens for e in g._t}
    return tuple(sorted(tuple(sorted(c)) for c in _min_transversals(supports)))


def _min_transversals(supports):
    """The minimal sets meeting every one of ``supports``, by Berge's
    algorithm: add one support at a time, grow each transversal that misses
    it by each of its elements, and keep only the minimal sets."""
    family = [frozenset()]
    for s in supports:
        grown = set()
        for t in family:
            if t & s:
                grown.add(t)
            else:
                grown.update(t | {v} for v in s)
        family = []
        for t in sorted(grown, key=len):
            if not any(k <= t for k in family):
                family.append(t)
    return family


def _saturate_variable(ring, basis, i):
    """(I : x_i^infinity, k, divided) of a homogeneous I by Bayer's method,
    for I and the result J as bases (pairs, order), where x_i^k is the
    largest power divided out and ``divided`` holds, as (pairs, order), the
    elements of J's basis whose leading terms come from a division; I's own
    ``basis`` (and 0, None) when x_i is no zero divisor modulo I.

    In grevlex with x_i last, weighted by the ring's positive weights,
    x_i^k divides a homogeneous f exactly when it divides the leading term.
    So dividing each element of a basis in that order (converted to it
    unless it is in it already) by the power of x_i in its leading term
    gives a basis of the saturation in the same order.  The other leading
    terms of J's basis lie in in(I), so I and ``divided`` generate an ideal
    inside J with J's initial ideal: J itself.
    """
    tower = ring.tower
    pairs, order = basis
    border = _bayer(ring._weights[1], i)
    if order is not border:
        pairs = _buchberger(tower, border, _repack(tower, basis, border))
    powers = [border.unpack(lt)[i] for lt, _ in pairs]
    if not any(powers):
        return basis, 0, None
    # the undivided elements first: ``pairs`` is reduced, and an undivided lt
    # dividing a term t/x_i^a of a quotient would divide t, so no lt of
    # theirs divides a tail term
    quotients = [p for a, p in zip(powers, pairs) if not a]
    undivided = {lt for lt, _ in quotients}
    since = [len(quotients)] * len(pairs)
    for a, (lt, tail) in zip(powers, pairs):
        if a:  # x_i^a divides every term
            q = a * border.cols[i]
            quotients.append((lt - q, {e - q: c for e, c in tail.items()}))
    reduced = _reduce_basis(quotients, tower, border, since)
    return ((reduced, border), max(powers),
            ([p for p in reduced if p[0] not in undivided], border))


def _certified(tower, basis, divided, k, others):
    """Whether J = I : x_f^infinity is I : P^infinity for
    P = (x_f, x_i : i in ``others``): True once x_i^k * g lies in I for
    every element g of ``divided`` and every i.

    ``divided``, as (pairs, order), holds the elements of J's basis whose
    leading terms come from the Bayer step's division, so J = I + (divided)
    (:func:`_saturate_variable`).  Then J lies in each I : x_i^infinity, so
    in their intersection I : P^infinity, which lies in J.  Some x_i^j * g
    with j <= k lies in I iff x_i^k * g does, iff one zero-test normal form
    of x_i^k * NF(g) modulo I's ``basis``, in its own order, is empty.
    False says nothing: x_i^k * g is not in I, or the shift would take a
    term past the cap, which a graded order does not check term by term
    (its ``guard`` is 0).
    """
    gb, order = basis
    for g in _repack(tower, divided, order):
        r = _normal_form_dict(g, gb, tower, order)
        if not r:
            continue  # g is in I
        top = max(r)
        for i in others:
            q = k * order.cols[i]
            if top + q >= order.limit or _normal_form_dict(
                    {e + q: c for e, c in r.items()}, gb, tower, order, zero_test=True):
                return False
    return True


# ---------------------------------------------------------------------------
# dimension and height

def dimension(ideal):
    """Krull dimension of R/I via the initial monomial ideal."""
    return _dimension_of_leads(ideal.ring.nvars, ideal._order, ideal._pairs())


def _dimension_of_leads(n, order, pairs):
    """Krull dimension of k[x_0..x_{n-1}] modulo the ideal of the reduced
    basis ``pairs``: n minus the size of a smallest variable set that meets
    the support of every leading monomial."""
    lts = [order.unpack(lt) for lt, _ in pairs]
    if lts and not any(lts[0]):
        raise UnitIdealError("dimension of the unit ideal is undefined")
    supports = {frozenset(i for i, a in enumerate(lt) if a) for lt in lts}
    return n - _min_hitting_set(supports)


def _min_hitting_set(supports):
    """Size of a smallest set meeting every one of the nonempty ``supports``.

    Every hitting set contains a variable of a smallest support, so branch
    on those; exponential in the worst case (the problem is NP-hard).
    """
    if not supports:
        return 0
    return 1 + min(_min_hitting_set([s for s in supports if v not in s])
                   for v in min(supports, key=len))


def defining_ideal(ring):
    """The ring's defining ideal, built once and kept on the ring."""
    if ring._defining_handle is None:
        ring._defining_handle = IdealHandle(ring, [])
    return ring._defining_handle


def ambient_dimension(ring):
    """Krull dimension of the (quotient) Cox ring itself."""
    if not ring.defining:
        return ring.nvars
    return dimension(defining_ideal(ring))


def height(ideal):
    """Codimension: dim of the ambient (quotient) ring minus dim R/I."""
    return _height_of_basis(ideal.ring, (ideal._pairs(), ideal._order))


def _height_of_basis(ring, basis):
    """ht(I) from I's reduced ``basis`` = (pairs, order), in any monomial
    order: dim R/I = dim R/in(I) for each."""
    pairs, order = basis
    return ambient_dimension(ring) - _dimension_of_leads(ring.nvars, order, pairs)


def _height_at_least(ideal, s):
    """Whether ht(I) >= s, from a basis in m = s + n - dim R variables if
    one shows it, else from as much of I's basis as it takes.

    ht(I) is t - (n - dim R) for t a smallest hitting set of the supports
    of in(I)'s generators.  The leading terms of a partial basis lie in
    in(I), so their smallest hitting set is at most t: the run stops once
    it reaches m (Cox, Little and O'Shea, *Ideals, Varieties, and
    Algorithms*, ch. 9 section 3).  A run that finishes keeps its basis on
    the handle, and the exact height answers.

    A handle without a basis, whose generators' own leading terms do not
    show the height, first tries the linear section of :func:`_section_finite`,
    which needs no basis of I.
    """
    ring = ideal.ring
    least = s + ring.nvars - ambient_dimension(ring)

    def stop(supports):
        return _min_hitting_set(supports) >= least

    packed = None
    if ideal._gb_pairs is None and least <= ring.nvars:
        # the run on I would test its generators' leading terms first
        order = ideal._order
        packed = ideal._packed(order)
        leads = {order.unpack(max(t)) for t in packed if t}
        if (stop({frozenset(i for i, a in enumerate(e) if a) for e in leads if any(e)})
                or _section_finite(ring, ideal.gens + ring.defining, least)):
            return True
    stopped = ideal._pairs(stop, packed) is None
    return stopped or height(ideal) >= s


def _section_finite(ring, polys, m):
    """Whether the forms ``polys`` (I's generators and the ring's relations)
    have finitely many common zeros on the subspace L of dimension m given
    by x_i = (i+1) * t_(i mod m); False also says nothing.

    Finitely many says ht(I) >= s for m = s + n - dim R.  The forms are
    homogeneous for the ring's positive weights, so every component of V(I)
    is a cone through 0 and meets L, in finitely many points; by the affine
    dimension theorem (Hartshorne, *Algebraic Geometry*, I.7.1) it has
    dimension at most n - m = dim R - s.  Restricted to L the forms lie in
    k[t_0..t_(m-1)], where their zeros are finite once the leading terms of
    a partial basis need m variables to hit them all, as in
    :func:`_height_at_least`; if the scalars map some t_j to nothing, no
    leading term holds t_j, and the run never stops.  Distinct scalars keep
    forms such as x0*y1 - x1*y0 from vanishing on L.

    Two forms on a plane (m = 2) of a ring with equal weights restrict to
    two binary forms, whose common zeros are finite iff they are coprime
    (:func:`_coprime_binary`): no basis is needed.  This covers every
    product of projective spaces with s = 2 and the Segre quotient with
    s = 1.

    Every term must be of degree at most the cap, as packing in grevlex
    checks.  A monomial x^e maps to a scalar times one t-monomial, which
    :func:`_section_table` keeps.
    """
    tower = ring.tower
    order = _grevlex(m)
    table = _section_table(m, tower.p)
    add, mul, from_int, zero = tower.c_add, tower.c_mul, tower.c_from_int, tower.c_zero
    dicts = []
    for f in polys:
        t = {}
        for e, c in f._t.items():
            image = table.get(e)
            if image is None:
                image = (order.zero + sum(e_i * order.cols[i % m] for i, e_i in enumerate(e)),
                         math.prod(pow(i + 1, e_i, tower.p) for i, e_i in enumerate(e)))
                if len(table) >= _TABLE_BOUND:
                    table.clear()
                table[e] = image
            k, a = image
            c = mul(c, from_int(a))
            t[k] = add(t[k], c) if k in t else c
        dicts.append({k: c for k, c in t.items() if c != zero})
    if m == 2 and len(dicts) == 2 and len(set(ring._weights[1])) == 1:
        return _coprime_binary(tower, order, *dicts)
    try:
        return _buchberger(tower, order, dicts,
                           lambda supports: _min_hitting_set(supports) >= m) is None
    except ExponentCapError:
        return False


def _coprime_binary(tower, order, f, g):
    """Whether the binary forms ``f`` and ``g``, term dicts packed in
    ``order`` = grevlex in t0, t1, are coprime: both nonzero, t1 dividing
    at most one, and their images under t1 = 1 of constant gcd, by Euclid's
    algorithm.  A common zero (a : b) != 0 of two forms is a root a/b of
    the images when b != 0, and makes t1 divide both when b = 0.

    Coprime homogeneous forms have only the common zero 0, so the stopped
    section run of :func:`_section_finite` answers the same, except where
    its S-pair lcms would pass the exponent cap, which no gcd meets."""
    if not f or not g:
        return False
    zero, sub, mul, inv = tower.c_zero, tower.c_sub, tower.c_mul, tower.c_inv
    images = []
    for t in (f, g):
        exps = [(order.unpack(k), c) for k, c in t.items()]
        coeffs = [zero] * (1 + max(e[0] for e, _ in exps))
        for e, c in exps:
            coeffs[e[0]] = c  # t is homogeneous: one term per power of t0
        images.append((coeffs, all(e[1] for e, _ in exps)))
    (a, t1_a), (b, t1_b) = images
    if t1_a and t1_b:
        return False
    while b:  # a, b = b, a mod b; a coefficient list has a nonzero last entry
        scale = inv(b[-1])
        while len(a) >= len(b):
            q, shift = mul(a.pop(), scale), len(a) - len(b) + 1
            for i, v in enumerate(b[:-1]):
                a[shift + i] = sub(a[shift + i], mul(q, v))
            while a and a[-1] == zero:
                a.pop()
        a, b = b, a
    return len(a) == 1


@functools.lru_cache(maxsize=None)
def _section_table(m, p):
    """The monomial table of the sections in m variables in characteristic
    p: exponent tuple e -> (the packed grevlex int of the image of x^e in
    t_0..t_(m-1), the product of the (i+1)^e_i mod p).  Forms of one degree
    share their monomials; like an order's table, it is cleared at
    ``_TABLE_BOUND`` entries."""
    return {}


def _height_plus_prime(ideal, c):
    """ht(I + P) for P generated by the variables indexed by ``c``.

    R/(I + P) is k[x_j : j not in c] modulo any generators of I (with the
    ring's relations) with every term in P dropped, so its dimension is
    n - |c| minus a smallest hitting set of the leading terms of their
    basis, none of which involves P.  The generators are I's reduced basis
    if the handle holds one, whose images need fewer S-pairs, else I's
    generators and the relations: no basis of I is computed for this.
    With no term left the hitting set is empty, and no basis is computed
    at all: on a product of projective spaces every term of a form of
    positive degree in a factor lies in that factor's prime.
    """
    ring, order = ideal.ring, ideal._order
    # field i of a grevlex int holds bias - e_i, so a term is in P when
    # one of P's fields differs from K(0)'s
    mask = sum(((1 << _FIELD_BITS) - 1) << _FIELD_BITS * i for i in c)
    polys = (_dicts_of_pairs(ring.tower, ideal._gb_pairs) if ideal._gb_pairs is not None
             else ideal._packed(order))
    rest = [{k: v for k, v in t.items() if k & mask == order.zero & mask} for t in polys]
    pairs = _buchberger(ring.tower, order, rest) if any(rest) else []
    return _height_of_basis(ring, (pairs, order)) + len(c)
