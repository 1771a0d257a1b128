"""Multivariate polynomials over the extension field, with a multigrading.

A :class:`MultigradedRing` fixes the variables, the coefficient tower, the
grading matrix onto the Picard lattice, and optionally a defining ideal
(quotient Cox ring) plus the irrelevant generators.  Monomials are ordered
by grevlex.

Polynomials are immutable; their terms map exponent tuples to the tower's
internal coefficient representation.  Coefficients surface as
:class:`~coxdescent.fields.FieldElement` through the public accessors.

Text is read by the grammar field elements share (``fields._Parser``);
here t is the tower's generator, and each power t^k reduces mod the
min_poly.  No exponent a polynomial is made with, by parsing or by
:meth:`MultigradedRing.monomial`, may pass :data:`EXPONENT_CAP`.
"""

import itertools
import math
import operator
import re

from .errors import InhomogeneousError, RingMismatchError
from .fields import (FieldElement, FieldTower, _add_scaled, _mul_terms, _Parser, _power,
                     format_rep)
from .linalg import _integer_rref


# ---------------------------------------------------------------------------
# the exponent cap

# The Groebner engine packs each exponent vector into one int, a field of
# _FIELD_BITS bits per variable (groebner._Order).  EXPONENT_CAP is the
# largest exponent, and the largest (weighted) degree in a computation,
# that such a field holds beside its guard bits.
_FIELD_BITS = 16
EXPONENT_CAP = (1 << _FIELD_BITS - 2) - 1

# the width of a grading row's field in a ring's packed degree columns
_DEGREE_BITS = 32

# entries a monomial table holds before it is cleared and refilled: a
# ring's degree keys, each Groebner order's packings, each section's images
_TABLE_BOUND = 1 << 15


# ---------------------------------------------------------------------------
# multidegrees

class Multidegree(tuple):
    """A degree in the Picard lattice: a tuple of r integers."""

    def __add__(self, other):
        if len(other) != len(self):  # zip would truncate
            raise ValueError("degree has wrong rank")
        return Multidegree(a + b for a, b in zip(self, other))

    def __sub__(self, other):
        return self + [-b for b in other]

    def __neg__(self):
        return Multidegree(-a for a in self)

    def __str__(self):
        return "(%s)" % ",".join(str(a) for a in self)


# ---------------------------------------------------------------------------
# ring

class MultigradedRing:
    """Polynomial ring over GF(p^d) graded by an integer matrix.

    ``grading`` has one column per variable.
    """

    def __init__(self, tower, variables, grading, defining=None, irrelevant=None):
        if not isinstance(tower, FieldTower):
            raise TypeError("tower must be a FieldTower")
        variables = tuple(variables)
        if not variables:
            raise ValueError("a ring needs at least one variable")
        if len(set(variables)) != len(variables):
            raise ValueError("duplicate variable names")
        for v in variables:
            if not re.fullmatch(r"[A-Za-z_][A-Za-z0-9_]*", v) or v == "t":
                raise ValueError("invalid variable name %r" % v)
        self.tower = tower
        self.variables = variables
        self.nvars = len(variables)
        self._var_index = {v: i for i, v in enumerate(variables)}
        grading = tuple(tuple(int(x) for x in row) for row in grading)
        if not grading:
            raise ValueError("a ring needs at least one grading row")
        for row in grading:
            if len(row) != self.nvars:
                raise ValueError("grading row length != number of variables")
        self.grading = grading
        self.rank = len(grading)
        self._weights = _positive_weights(grading)
        # one int per variable packs its grading column, row k in a signed
        # field of _DEGREE_BITS bits at bit k * _DEGREE_BITS, under its
        # weight.  For e0 of weighted degree at most _degree_limit, the sums
        # sum(e_i * cols[i]) of e and e0 agree exactly when their degrees
        # do: equal sums force equal weighted degrees, which keep every
        # row's field below its sign bit.
        top = _DEGREE_BITS * self.rank
        self._degree_cols = tuple(
            sum(g << _DEGREE_BITS * k for k, g in enumerate(col)) + (w << top)
            for col, w in zip(zip(*grading), self._weights[1]))
        big = max(abs(g) for row in grading for g in row)
        self._degree_limit = ((1 << _DEGREE_BITS) - 2 * big) // (4 * big)

        self.defining = ()
        self.irrelevant = ()
        self._defining_handle = None  # set lazily by groebner.defining_ideal
        self._irrelevant_primes = None  # set lazily by cox._prime_heights
        self._degree_keys = {}  # exponent tuple -> sum(e_i * _degree_cols[i])
        if defining:
            self.defining = tuple(self._coerce_poly(f) for f in defining)
        if irrelevant:
            self.irrelevant = tuple(self._coerce_poly(g) for g in irrelevant)
        for f in self.defining + self.irrelevant:
            f.multidegree()  # raises if inhomogeneous

    def _coerce_poly(self, f):
        if isinstance(f, Polynomial):
            if f.ring is not self:
                raise RingMismatchError("polynomial from another ring")
            return f
        if isinstance(f, str):
            return self.parse(f)
        raise TypeError("expected polynomial or string")

    # -- element constructors

    def zero(self):
        return Polynomial(self, {})

    def one(self):
        return Polynomial(self, {(0,) * self.nvars: self.tower.c_one})

    def constant(self, c):
        c = self.tower.element(c)
        if c.is_zero():
            return self.zero()
        return Polynomial(self, {(0,) * self.nvars: c.rep})

    def var(self, name):
        i = self._var_index[name]
        e = [0] * self.nvars
        e[i] = 1
        return Polynomial(self, {tuple(e): self.tower.c_one})

    def gens(self):
        return [self.var(v) for v in self.variables]

    def monomial(self, exponents, coeff=1):
        e = tuple(int(x) for x in exponents)
        if len(e) != self.nvars or any(x < 0 for x in e):
            raise ValueError("bad exponent tuple %r" % (e,))
        if max(e, default=0) > EXPONENT_CAP:
            raise ValueError(_past_the_cap(max(e)))
        c = self.tower.element(coeff)
        if c.is_zero():
            return self.zero()
        return Polynomial(self, {e: c.rep})

    def parse(self, text):
        return Polynomial(self, _Parser(self.tower, self._var_index, EXPONENT_CAP,
                                        _past_the_cap).parse(text))

    def multidegree_of_exp(self, e):
        return Multidegree(sum(map(operator.mul, row, e)) for row in self.grading)

    def __repr__(self):
        return "MultigradedRing(%r, vars=%s)" % (self.tower, ",".join(self.variables))


def _positive_weights(grading):
    """An all-positive integer combination of the grading rows.

    Certifies that every graded piece is finite dimensional and yields the
    weight vector used to enumerate monomials of a given degree.  Returns a
    pair (combination, weights).

    Exact: if {y : w_j(y) >= 1 for all j} is nonempty, its minimal face is
    cut out by w_S(y) = 1 for some set S of rank-many variables, so solving
    those square systems in turn finds a point of it.  The sum of the rows
    is tried first: it is the search's answer for every product of
    projective spaces, whose search makes thousands of solves at 8 factors.
    Each solve is the RREF solution y = num / d, scaled to the least
    integer multiple.
    """
    w = tuple(map(sum, zip(*grading)))
    if all(x >= 1 for x in w):
        return (1,) * len(grading), w
    nvars, r = len(grading[0]), len(grading)
    rank = len(_integer_rref(grading)[2])
    for subset in itertools.combinations(range(nvars), rank):
        d, red, pivots = _integer_rref([[row[j] for row in grading] + [1] for j in subset])
        if not pivots or pivots[-1] == r:  # no equations (a zero grading), or inconsistent
            continue
        if d < 0:
            d, red = -d, [[-x for x in row] for row in red]
        y = [0] * r
        for row, pc in zip(red, pivots):
            y[pc] = row[-1]
        w = [sum(map(operator.mul, y, col)) for col in zip(*grading)]
        if all(x >= d for x in w):  # w / d >= 1
            g = math.gcd(d, *y)
            return tuple(v // g for v in y), tuple(x // g for x in w)
    raise ValueError("grading admits no positive weight combination")


# ---------------------------------------------------------------------------
# polynomials

def _grevlex_key(e):
    """Sort key of grevlex on exponent tuples, the largest monomial first:
    higher total degree, then the smaller last differing exponent."""
    return (-sum(e), e[::-1])


def _past_the_cap(a):
    return "exponent %d is past the cap %d" % (a, EXPONENT_CAP)


class Polynomial:
    """Immutable multivariate polynomial in canonical form."""

    __slots__ = ("ring", "_t")

    def __init__(self, ring, terms):
        self.ring = ring
        self._t = terms  # dict exp -> raw coefficient, no zeros

    # -- inspection

    def is_zero(self):
        return not self._t

    def __bool__(self):
        return bool(self._t)

    def __len__(self):
        return len(self._t)

    def sorted_terms(self):
        """Terms in decreasing monomial order as (exponent, raw coeff)."""
        return [(e, self._t[e]) for e in sorted(self._t, key=_grevlex_key)]

    @property
    def terms(self):
        """Public view: list of (exponent tuple, FieldElement), sorted."""
        tw = self.ring.tower
        return [(e, FieldElement(tw, c)) for e, c in self.sorted_terms()]

    def leading_exponent(self):
        if not self._t:
            raise ValueError("zero polynomial has no leading term")
        return min(self._t, key=_grevlex_key)

    def leading_coefficient(self):
        return FieldElement(self.ring.tower, self._t[self.leading_exponent()])

    def coefficient(self, exponents):
        c = self._t.get(tuple(exponents))
        tw = self.ring.tower
        return FieldElement(tw, tw.c_zero if c is None else c)

    def is_constant(self):
        return not self._t or set(self._t) == {(0,) * self.ring.nvars}

    def multidegree(self):
        """The common grading image of all monomials; errors if mixed."""
        if not self._t:
            raise InhomogeneousError("zero polynomial has no multidegree")
        ring = self.ring
        deg, e0, e = _first_off_degree(ring, self._t)
        if e is not None:
            raise InhomogeneousError(
                "inhomogeneous polynomial: monomials %s and %s have degrees %s and %s"
                % (_monomial_str(ring, e0), _monomial_str(ring, e), deg,
                   ring.multidegree_of_exp(e)),
                monomials=(e0, e))
        return deg

    # -- arithmetic

    def _check_ring(self, other):
        if isinstance(other, Polynomial):
            if other.ring is not self.ring:
                raise RingMismatchError("polynomials from different rings")
            return other
        if isinstance(other, (int, FieldElement)):
            return self.ring.constant(other)
        return None

    def __add__(self, other):
        other = self._check_ring(other)
        if other is None:
            return NotImplemented
        out = dict(self._t)
        _add_scaled(out, other._t, self.ring.tower)
        return Polynomial(self.ring, out)

    __radd__ = __add__

    def __neg__(self):
        neg = self.ring.tower.c_neg
        return Polynomial(self.ring, {e: neg(c) for e, c in self._t.items()})

    def __sub__(self, other):
        other = self._check_ring(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._check_ring(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        if isinstance(other, (int, FieldElement)):
            c = self.ring.tower.element(other)
            if c.is_zero():
                return self.ring.zero()
            mul = self.ring.tower.c_mul
            return Polynomial(self.ring, {e: mul(v, c.rep) for e, v in self._t.items()})
        other = self._check_ring(other)
        if other is None:
            return NotImplemented
        return Polynomial(self.ring, _mul_terms(self._t, other._t, self.ring.tower))

    __rmul__ = __mul__

    def __pow__(self, n):
        if n < 0:
            raise ValueError("negative polynomial power")
        return _power(self, n, self.ring.one(), operator.mul)

    def monic(self):
        if not self._t:
            return self
        inv = self.ring.tower.c_inv(self._t[self.leading_exponent()])
        return self * FieldElement(self.ring.tower, inv)

    # -- comparison / output

    def __eq__(self, other):
        if isinstance(other, int):
            return self._t == self.ring.constant(other)._t
        return (isinstance(other, Polynomial) and other.ring is self.ring
                and self._t == other._t)

    def __hash__(self):
        return hash((id(self.ring), frozenset(self._t.items())))

    def __str__(self):
        return poly_str(self)

    def __repr__(self):
        return "<%s>" % poly_str(self)


def _first_off_degree(ring, exps):
    """(degree of the first exponent of the nonempty ``exps``, that exponent,
    the first exponent of another degree or None), comparing packed degrees
    (see :class:`MultigradedRing`) unless the first is past their limit.
    The ring's table keeps each exponent's packed degree, and is cleared at
    ``_TABLE_BOUND`` entries."""
    it = iter(exps)
    e0 = next(it)
    deg = ring.multidegree_of_exp(e0)
    if sum(map(operator.mul, ring._weights[0], deg)) > ring._degree_limit:
        return deg, e0, next((e for e in it if ring.multidegree_of_exp(e) != deg), None)
    cols, keys = ring._degree_cols, ring._degree_keys
    k0 = None
    for e in itertools.chain((e0,), it):
        k = keys.get(e)
        if k is None:
            k = sum(map(operator.mul, e, cols))
            if len(keys) >= _TABLE_BOUND:
                keys.clear()
            keys[e] = k
        if k0 is None:
            k0 = k
        elif k != k0:
            return deg, e0, e
    return deg, e0, None


def _require_homogeneous(polys):
    """Raise :class:`InhomogeneousError` at the first nonzero polynomial of
    ``polys`` whose monomials have different multidegrees."""
    for f in polys:
        if f:
            f.multidegree()


# ---------------------------------------------------------------------------
# printing

def _monomial_str(ring, e):
    parts = []
    for v, a in zip(ring.variables, e):
        if a == 1:
            parts.append(v)
        elif a > 1:
            parts.append("%s^%d" % (v, a))
    return "*".join(parts)


def poly_str(f):
    """Canonical text: terms in decreasing monomial order, '+'-joined."""
    if f.is_zero():
        return "0"
    ring = f.ring
    tw = ring.tower
    parts = []
    for e, c in f.sorted_terms():
        mono = _monomial_str(ring, e)
        cs = format_rep(tw, c)
        if not mono:
            parts.append("(%s)" % cs if ("+" in cs or "-" in cs) else cs)
        elif c == tw.c_one:
            parts.append(mono)
        else:
            if "+" in cs or "-" in cs:
                cs = "(%s)" % cs
            parts.append("%s*%s" % (cs, mono))
    return " + ".join(parts)


# ---------------------------------------------------------------------------
# graded pieces and the effectivity order

def _exps_of_degree(ring, degree):
    """All exponent tuples with grading image ``degree``, unordered."""
    degree = Multidegree(degree)
    if len(degree) != ring.rank:
        raise ValueError("degree has wrong rank")
    y, w = ring._weights
    total = sum(yi * di for yi, di in zip(y, degree))
    if total < 0:
        return []
    grading = ring.grading
    n = ring.nvars
    out = []
    exp = [0] * n

    def rec(i, rem, budget):
        if i == n:
            if all(x == 0 for x in rem):
                out.append(tuple(exp))
            return
        col = [row[i] for row in grading]
        wmax = budget // w[i]
        for a in range(wmax + 1):
            exp[i] = a
            rec(i + 1, [x - a * c for x, c in zip(rem, col)], budget - a * w[i])
        exp[i] = 0

    rec(0, list(degree), total)
    return out


def monomials_of_degree(ring, degree):
    """Monomials of the given multidegree, in decreasing monomial order."""
    exps = sorted(_exps_of_degree(ring, degree), key=_grevlex_key)
    return [Polynomial(ring, {e: ring.tower.c_one}) for e in exps]


def degree_leq(l1, l2, ring):
    """Effectivity order: L1 <= L2 iff L2 - L1 is the degree of a monomial."""
    diff = Multidegree(l2) - Multidegree(l1)
    return bool(_exps_of_degree(ring, diff))


def multidegree(f):
    """Free-function form of :meth:`Polynomial.multidegree`."""
    return f.multidegree()
