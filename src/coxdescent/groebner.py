"""Buchberger's algorithm and the ideal-theoretic toolkit.

Normal forms, reduced Groebner bases, ideal equality, saturation (by
Bayer steps for monomial directions, by auxiliary-variable elimination
otherwise), Krull dimension of the initial ideal, and height.  Quotient
Cox rings are handled by adjoining the defining ideal to every ideal
before basis computations.

The engine is deterministic: normal pair selection (smallest lcm first in
the ring's order) with both Buchberger criteria, and reduced bases are
unique for a fixed order.
"""

from __future__ import annotations

import functools
import heapq
import operator

from .errors import (InhomogeneousError, RingMismatchError, SaturationDirectionError,
                     UnitIdealError)
from .rings import (Polynomial, _add_scaled, _exp_add, _exp_divides, _exp_sub,
                    _grevlex_key, _require_homogeneous)

# ---------------------------------------------------------------------------
# engine: polynomials as dicts {exponent tuple: raw coefficient}; a monic
# polynomial x^lt + tail as the pair (lt, tail)


def _monic_pair(t, tower, key):
    """(leading exponent, the other terms) of a nonzero term dict, made monic."""
    lt = min(t, key=key)
    if t[lt] == tower.c_one:  # already monic, as reduced basis elements are
        return lt, {e: c for e, c in t.items() if e != lt}
    inv = tower.c_inv(t[lt])
    mul = tower.c_mul
    return lt, {e: mul(inv, c) for e, c in t.items() if e != lt}


def _normal_form_dict(h, gb, tower, key):
    """Full normal form of ``h`` against (lt, tail) pairs ``gb``.

    Each pair stands for the monic polynomial x^lt + tail.  ``key`` sorts
    the largest exponent first.  A heap of (key, exponent) entries beside
    the ``work`` dict hands out its terms from the largest down.  A step
    only adds terms smaller than the one it reduces, so no popped exponent
    comes back; an entry whose term was cancelled is skipped when popped.
    """
    neg = tower.c_neg
    push, pop = heapq.heappush, heapq.heappop
    work = dict(h)
    heap = [(key(e), e) for e in work]
    heapq.heapify(heap)
    new = []
    result = {}
    while heap:
        m = pop(heap)[1]
        c = work.pop(m, None)
        if c is None:
            continue
        for lt, tail in gb:
            if _exp_divides(lt, m):
                _add_scaled(work, tail, tower, neg(c), _exp_sub(m, lt), new)
                for e in new:
                    push(heap, (key(e), e))
                new.clear()
                break
        else:
            result[m] = c
    return result


def _buchberger(tower, key, polys):
    """Reduced Groebner basis of the ideal generated by ``polys`` (dicts),
    as (lt, tail) pairs in decreasing order of lt.

    ``key`` is the monomial order's sort key, largest exponent first.
    """
    gb = [_monic_pair(f, tower, key) for f in polys if f]
    minus_one = tower.c_neg(tower.c_one)
    pending = set()
    heap = []

    def add_pairs(k):
        """Queue the S-pairs of gb[k] with every earlier element; the
        negated key pops the smallest lcm first."""
        for j in range(k):
            l = tuple(map(max, gb[j][0], gb[k][0]))
            heapq.heappush(heap, (tuple(map(operator.neg, key(l))), j, k, l))
            pending.add((j, k))

    for k in range(len(gb)):
        add_pairs(k)

    while heap:
        _, i, j, l = heapq.heappop(heap)
        pending.discard((i, j))
        (lti, taili), (ltj, tailj) = gb[i], gb[j]
        # first criterion: coprime leading monomials
        if l == _exp_add(lti, ltj):
            continue
        # chain criterion
        skip = False
        for k, (ltk, _) in enumerate(gb):
            if k == i or k == j:
                continue
            if _exp_divides(ltk, l):
                a = (min(i, k), max(i, k))
                b = (min(j, k), max(j, k))
                if a not in pending and b not in pending:
                    skip = True
                    break
        if skip:
            continue
        # the monic leading terms cancel, so the S-polynomial is built
        # from the tails
        s = {}
        _add_scaled(s, taili, tower, q=_exp_sub(l, lti))
        _add_scaled(s, tailj, tower, minus_one, _exp_sub(l, ltj))
        r = _normal_form_dict(s, gb, tower, key)
        if r:
            gb.append(_monic_pair(r, tower, key))
            add_pairs(len(gb) - 1)
    return _reduce_basis(gb, tower, key)


def _reduce_basis(gb, tower, key):
    """The reduced basis of the ideal of which the (lt, tail) pairs ``gb``
    are a Groebner basis in ``key``'s order, in decreasing order of lt."""
    # minimal basis, smallest lt first: drop each lt divisible by a kept lt
    kept = []
    for lt, tail in sorted(gb, key=lambda p: key(p[0]), reverse=True):
        if not any(_exp_divides(ltk, lt) for ltk, _ in kept):
            kept.append((lt, tail))
    kept.reverse()
    # reduce tails: no kept lt divides another, so each x^lt stays as it is;
    # every term of a tail is below its own lt, which therefore never divides
    return [(lt, _normal_form_dict(tail, kept, tower, key)) for lt, tail in kept]


# ---------------------------------------------------------------------------
# handles

class IdealHandle:
    """Generators plus a lazily cached reduced Groebner basis.

    In a quotient Cox ring the defining ideal is adjoined before any basis
    computation, so all results are canonical representatives modulo it.
    """

    def __init__(self, ring, gens):
        self.ring = ring
        self.gens = tuple(ring._coerce_poly(g) for g in gens)
        self._gb_pairs = None  # [(lt, tail)] engine form

    def reduced_gb(self):
        """Unique reduced basis: monic, tails reduced, sorted."""
        ring = self.ring
        if self._gb_pairs is None:
            polys = [g._t for g in self.gens + ring.defining]
            self._gb_pairs = _buchberger(ring.tower, _grevlex_key, polys)
        return _polys_of_pairs(ring, self._gb_pairs)

    def _pairs(self):
        if self._gb_pairs is None:
            self.reduced_gb()
        return self._gb_pairs

    def normal_form(self, f):
        """Remainder of f on division by the reduced basis; zero iff f is in I."""
        if f.ring is not self.ring:
            raise RingMismatchError("polynomial from a different ring")
        r = _normal_form_dict(f._t, self._pairs(), self.ring.tower, _grevlex_key)
        return Polynomial(self.ring, r)

    def contains(self, f):
        return self.normal_form(f).is_zero()

    def contains_ideal(self, other):
        return all(self.contains(g) for g in other.reduced_gb())

    def equals(self, other):
        if other.ring is not self.ring:
            raise RingMismatchError("ideals from different rings")
        return self._pairs() == other._pairs()

    def is_unit(self):
        gb = self._pairs()
        return len(gb) == 1 and not any(gb[0][0])  # the basis (1)

    def is_zero(self):
        return not self._pairs()

    def __repr__(self):
        return "IdealHandle(%s)" % ", ".join(str(g) for g in self.gens)


def _dicts_of_pairs(tower, pairs):
    """The term dicts of the monic polynomials x^lt + tail of ``pairs``."""
    one = tower.c_one
    return [{lt: one, **tail} for lt, tail in pairs]


def _polys_of_pairs(ring, pairs):
    return [Polynomial(ring, t) for t in _dicts_of_pairs(ring.tower, pairs)]


# functional wrappers

def reduced_gb(ideal):
    return ideal.reduced_gb()


def normal_form(f, ideal):
    return ideal.normal_form(f)


def ideal_equal(a, b):
    return a.equals(b)


# ---------------------------------------------------------------------------
# elimination machinery: exponents lifted with one leading auxiliary
# coordinate, which the elimination order compares first

def _elim_key(e):
    return (-e[0], *_grevlex_key(e[1:]))


def _lift(t):
    return {(0,) + e: c for e, c in t.items()}


def _eliminate(ring, dicts):
    """Reduced grevlex basis of the aux-free part of the ideal of ``dicts``."""
    # in an elimination order an aux-free lt means an aux-free element, and
    # the aux-free part of a reduced elimination basis is itself reduced
    return [(lt[1:], {e[1:]: c for e, c in tail.items()})
            for lt, tail in _buchberger(ring.tower, _elim_key, dicts) if lt[0] == 0]


def _handle_with_gb(ring, pairs):
    """A handle whose generators are the reduced basis given as (lt, tail) pairs."""
    h = IdealHandle(ring, _polys_of_pairs(ring, pairs))
    h._gb_pairs = pairs
    return h


def saturate_single(ideal, g):
    """(I : g^infinity) by eliminating z from I + (1 - z*g)."""
    ring = ideal.ring
    tower = ring.tower
    z = (1,) + (0,) * ring.nvars
    dicts = [_lift(f) for f in _dicts_of_pairs(tower, ideal._pairs())]
    rel = {(0,) * (ring.nvars + 1): tower.c_one}
    _add_scaled(rel, _lift(g._t), tower, tower.c_neg(tower.c_one), z)
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
    the term dicts ``a`` and ``b``: the aux-free part of u*(a) + (1-u)*(b)."""
    tower = ring.tower
    u = (1,) + (0,) * ring.nvars
    dicts = [{(1,) + e: c for e, c in f.items()} for f in a]
    for f in b:
        lifted = _lift(f)
        out = dict(lifted)  # (1-u)*f = f - u*f
        _add_scaled(out, lifted, tower, tower.c_neg(tower.c_one), u)
        dicts.append(out)
    return _eliminate(ring, dicts)


def saturate(ideal, direction):
    """(I : G^infinity).

    When every generator of ``direction`` is a single term and the ideal
    is homogeneous, this is I : P_1^inf : ... : P_m^inf over the primes
    P_C = (x : x in C) of the radical of G, C running over the minimal
    transversals of the generators' supports; each I : P_C^inf is the
    intersection of the I : x^inf, x in C, each computed by one Bayer step
    (:func:`_saturate_variable`).  Otherwise it is the intersection of the
    single saturations by the generators, found by elimination; that loop
    stops early once the running result collapses to I itself.  In between,
    bases stay in the order a step left them in, as (pairs, sort key); the
    result is rebuilt in grevlex once, at the end.  Both paths return the
    same reduced basis.
    """
    ring = ideal.ring
    if direction.ring is not ring:
        raise RingMismatchError("ideals from different rings")
    gens = [g for g in direction.gens if not g.is_zero()]
    if not gens:
        raise SaturationDirectionError("cannot saturate with respect to the zero ideal")
    tower = ring.tower
    basis = (ideal._pairs(), _grevlex_key)
    meet = functools.partial(_meet, ring)
    bayer = all(len(g) == 1 for g in gens)
    try:
        _require_homogeneous(ideal.gens)  # ring.defining is homogeneous already
    except InhomogeneousError:
        bayer = False
    if bayer:
        for c in _monomial_primes(gens):
            parts = []
            for i in c:
                part = _saturate_variable(ring, basis, i)
                if part is basis:  # then so is the intersection
                    break
                parts.append(part)
            else:
                basis = functools.reduce(meet, parts)
    else:
        result = None
        for g in dict.fromkeys(gens):
            s = (saturate_single(ideal, g)._pairs(), _grevlex_key)
            result = s if result is None else meet(result, s)
            if _contains(tower, basis, result[0]):
                break  # running intersection already equals I; it can only stay I
        else:
            basis = result
    pairs, key = basis
    if key is not _grevlex_key:
        pairs = _buchberger(tower, _grevlex_key, _dicts_of_pairs(tower, pairs))
    return _handle_with_gb(ring, pairs)


def _contains(tower, basis, pairs):
    """Whether the ideal of the basis (pairs, sort key) contains ``pairs``."""
    gb, key = basis
    return not any(_normal_form_dict(t, gb, tower, key) for t in _dicts_of_pairs(tower, pairs))


def _meet(ring, a, b):
    """a intersect b for bases (pairs, sort key), skipping the elimination
    when one contains the other."""
    tower = ring.tower
    if _contains(tower, a, b[0]):
        return b
    if _contains(tower, b, a[0]):
        return a
    a, b = (_dicts_of_pairs(tower, pairs) for pairs, _ in (a, b))
    return _intersect(ring, a, b), _grevlex_key


def _monomial_primes(gens):
    """The minimal primes of the ideal of the single-term ``gens``, each as
    the sorted indices of the variables that generate it, in sorted order."""
    return _primes_of_supports(frozenset(frozenset(i for i, a in enumerate(e) if a)
                                         for g in gens for e in g._t))


@functools.lru_cache(maxsize=128)
def _primes_of_supports(supports):
    # a ring's irrelevant ideal asks for its primes at every verdict
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


@functools.lru_cache(maxsize=128)
def _bayer_key(w, i):
    """Sort key of grevlex weighted by ``w`` with x_i last, built once so
    that orders compare by identity; ``_grevlex_key`` itself when that is
    the same order (equal weights, x_i the last variable)."""
    j = len(w) - 1 - i
    if not j and len(set(w)) == 1:
        return _grevlex_key

    def key(e):
        rev = e[::-1]
        return (-sum(map(operator.mul, w, e)), e[i], *rev[:j], *rev[j + 1:])

    return key


def _saturate_variable(ring, basis, i):
    """(I : x_i^infinity) of a homogeneous I by Bayer's method, for I and the
    result as bases (pairs, sort key); I's own ``basis`` when x_i is no zero
    divisor modulo I.

    In grevlex with x_i last, weighted by the ring's positive weights,
    x_i^k divides a homogeneous f exactly when it divides the leading term.
    So dividing each element of a basis in that order (converted to it
    unless it is in it already) by the power of x_i in its leading term
    gives a basis of the saturation in the same order.
    """
    tower = ring.tower
    pairs, key = basis
    bkey = _bayer_key(ring._weights[1], i)
    if key is not bkey:
        pairs = _buchberger(tower, bkey, _dicts_of_pairs(tower, pairs))
    if not any(lt[i] for lt, _ in pairs):
        return basis
    divided = []
    for lt, tail in pairs:
        if lt[i]:  # x_i^lt[i] divides every term
            q = (0,) * i + (lt[i],) + (0,) * (len(lt) - 1 - i)
            lt, tail = _exp_sub(lt, q), {_exp_sub(e, q): c for e, c in tail.items()}
        divided.append((lt, tail))
    return _reduce_basis(divided, tower, bkey), bkey


# ---------------------------------------------------------------------------
# dimension and height

def dimension(ideal):
    """Krull dimension of R/I via the initial monomial ideal.

    The number of variables minus the size of a smallest variable set that
    meets the support of every leading monomial of the reduced basis.
    """
    lts = [lt for lt, _ in ideal._pairs()]
    if lts and not any(lts[0]):
        raise UnitIdealError("dimension of the unit ideal is undefined")
    supports = {frozenset(i for i, a in enumerate(lt) if a) for lt in lts}
    return ideal.ring.nvars - _min_hitting_set(supports)


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
    return ambient_dimension(ideal.ring) - dimension(ideal)
