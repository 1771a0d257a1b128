"""Shared fixtures and test-local helpers.

The linear-algebra helpers here are deliberately independent of the
package's internal linalg module: they work on FieldElement values through
the public arithmetic API, so they can serve as oracles.
"""

import itertools
import math
import operator
import random
import re
import sys
from fractions import Fraction
from types import SimpleNamespace

import pytest

from coxdescent import (ActionError, FieldTower, Multidegree, MultigradedRing, ParseError,
                        make_custom, make_product_projective, make_segre_p1p1,
                        monomials_of_degree)
from coxdescent.rings import EXPONENT_CAP

DATA = __file__.rsplit("/", 1)[0] + "/data"
# Python's limit on decimal digits in int(), 0 where there is none
DIGIT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()


@pytest.fixture(scope="session")
def gf101():
    return FieldTower(101)


@pytest.fixture(scope="session")
def gf9():
    return FieldTower(3, 2)


@pytest.fixture(scope="session")
def p1p1(gf101):
    return make_product_projective([1, 1], gf101)


@pytest.fixture(scope="session")
def p1p2(gf101):
    return make_product_projective([1, 2], gf101)


@pytest.fixture(scope="session")
def p2p2(gf101):
    return make_product_projective([2, 2], gf101)


@pytest.fixture(scope="session")
def segre(gf101):
    return make_segre_p1p1(gf101)


@pytest.fixture(scope="session")
def p1p1_gf9(gf9):
    return make_product_projective([1, 1], gf9)


def random_poly(ring, degree, rng):
    """Random nonzero homogeneous polynomial of the given multidegree."""
    monos = monomials_of_degree(ring, degree)
    if not monos:
        raise ValueError("degree %s is not effective" % (degree,))
    els = list(ring.tower.elements())
    while True:
        f = ring.zero()
        for m in monos:
            f = f + m * rng.choice(els)
        if not f.is_zero():
            return f


def sparse_poly(ring, degree, rng, max_terms=3):
    """Nonzero homogeneous polynomial on a few random monomials of a degree.

    Few terms make binomial and monomial generators common, so saturations
    that differ from the ideal come up often.
    """
    monos = monomials_of_degree(ring, degree)
    chosen = rng.sample(monos, rng.randint(1, min(max_terms, len(monos))))
    p = ring.tower.p
    return sum((m * rng.randrange(1, p) for m in chosen), ring.zero())


def coords_of(f, monos):
    """Coordinate vector of a homogeneous f on a monomial basis of its piece."""
    exps = [m.leading_exponent() for m in monos]
    row = [f.coefficient(e) for e in exps]
    covered = set(exps)
    for e in f._t:
        assert e in covered, "monomial of f outside the given piece basis"
    return row


def piece_monomial_multiples(gens, degree, ring):
    """All products m*g of degree `degree`, g a generator, m a monomial."""
    out = []
    for g in gens:
        if g.is_zero():
            continue
        gap = degree - g.multidegree()
        for m in monomials_of_degree(ring, gap):
            out.append(m * g)
    return out


def echelon(tower, rows):
    """Row-reduce vectors of FieldElement using only public arithmetic."""
    basis = []
    for row in rows:
        row = list(row)
        for pivot, brow in basis:
            c = row[pivot]
            if not c.is_zero():
                row = [a - c * b for a, b in zip(row, brow)]
        lead = next((i for i, a in enumerate(row) if not a.is_zero()), None)
        if lead is None:
            continue
        inv = row[lead].inverse()
        row = [a * inv for a in row]
        basis.append((lead, row))
    basis.sort(key=lambda pb: pb[0])
    # back-substitute so the basis is fully reduced (canonical)
    for i, (pivot, row) in enumerate(basis):
        for j, (p2, r2) in enumerate(basis):
            if j == i:
                continue
            c = r2[pivot]
            if not c.is_zero():
                basis[j] = (p2, [a - c * b for a, b in zip(r2, row)])
    return [row for _, row in basis]


def in_span(tower, row, basis_rows):
    """Whether row lies in the span of echelonized basis_rows."""
    row = list(row)
    for brow in basis_rows:
        lead = next(i for i, a in enumerate(brow) if not a.is_zero())
        c = row[lead]
        if not c.is_zero():
            row = [a - c * b for a, b in zip(row, brow)]
    return all(a.is_zero() for a in row)


def span_equal(tower, rows_a, rows_b):
    ea = echelon(tower, rows_a)
    eb = echelon(tower, rows_b)
    if len(ea) != len(eb):
        return False
    return all(all((x - y).is_zero() for x, y in zip(ra, rb))
               for ra, rb in zip(ea, eb))


def membership_oracle(ring, f, gens):
    """f in (gens) decided by graded linear algebra, no Groebner bases."""
    degree = f.multidegree()
    monos = monomials_of_degree(ring, degree)
    mults = piece_monomial_multiples(gens, degree, ring)
    basis = echelon(ring.tower, [coords_of(m, monos) for m in mults])
    return in_span(ring.tower, coords_of(f, monos), basis)


def seeded(seed):
    return random.Random(seed)


def grevlex_key(e):
    """Sort key of the textbook grevlex order on exponent tuples, largest
    first: higher total degree, then the smaller last differing exponent.
    The reference for the engine's packed orders."""
    return (-sum(e), *e[::-1])


def eliminating_saturate(ideal, direction):
    """(I : G^infinity) as the package computed it before Bayer saturation:
    one elimination per generator of G, intersected with containment
    short-circuits.  An oracle for the Bayer path."""
    from coxdescent.groebner import _handle_with_gb, intersect, saturate_single
    result = None
    for g in dict.fromkeys(g for g in direction.gens if not g.is_zero()):
        s = saturate_single(ideal, g)
        if result is None:
            result = s
        elif result.contains_ideal(s):
            result = s
        elif s.contains_ideal(result):
            pass
        else:
            result = intersect(result, s)
        if ideal.contains_ideal(result):
            return _handle_with_gb(ideal.ring, ideal._pairs())
    return result


# ---------------------------------------------------------------------------
# gradings over the rationals: Fraction solves, the oracles of the package's
# integer grading computations

# the rationals with the field interface of linalg.rref
RATIONALS = SimpleNamespace(
    c_zero=Fraction(0), c_one=Fraction(1), c_sub=operator.sub, c_mul=operator.mul,
    c_inv=lambda a: 1 / Fraction(a))


def rational_rref(rows):
    """(nonzero rows, pivot columns) of the RREF over Q, by plain
    Gauss-Jordan on Fractions."""
    rows = [[Fraction(x) for x in row] for row in rows]
    ncols = len(rows[0]) if rows else 0
    top, pivots = 0, []
    for c in range(ncols):
        k = next((k for k in range(top, len(rows)) if rows[k][c]), None)
        if k is None:
            continue
        rows[top], rows[k] = rows[k], rows[top]
        rows[top] = [x / rows[top][c] for x in rows[top]]
        for k in range(len(rows)):
            if k != top and rows[k][c]:
                a = rows[k][c]
                rows[k] = [x - a * y for x, y in zip(rows[k], rows[top])]
        pivots.append(c)
        top += 1
    return rows[:top], pivots


def rational_solve(rows, rhs):
    """One solution of A x = b over Q with free variables zero, or None."""
    if not rows:
        return None
    ncols = len(rows[0])
    red, pivots = rational_rref([list(row) + [b] for row, b in zip(rows, rhs)])
    if pivots and pivots[-1] == ncols:  # inconsistent system
        return None
    x = [Fraction(0)] * ncols
    for row, pc in zip(red, pivots):
        x[pc] = row[-1]
    return x


def rational_kernel(rows):
    """The RREF free-variable kernel basis over Q."""
    ncols = len(rows[0])
    red, pivots = rational_rref(rows)
    basis = []
    for fc in range(ncols):
        if fc not in pivots:
            v = [Fraction(int(i == fc)) for i in range(ncols)]
            for row, pc in zip(red, pivots):
                v[pc] = -row[fc]
            basis.append(v)
    return basis


def preserves_grading_kernel(grading, perm):
    """Whether x_i -> x_perm[i] maps the kernel of the grading into itself."""
    for v in rational_kernel(grading):
        moved = [None] * len(v)
        for i, j in enumerate(perm):
            moved[j] = v[i]
        if any(sum(a * x for a, x in zip(row, moved)) for row in grading):
            return False
    return True


def rational_apply_degree(action, degree, times=1):
    """SemilinearAction.apply_degree by a Fraction solve of the grading."""
    grading = action.ring.grading
    x = rational_solve(grading, list(degree))
    if x is None:
        raise ActionError("degree %s is not in the grading lattice image" % (degree,))
    _, perm, _ = action._power(times)
    moved = [None] * len(x)
    for i, j in enumerate(perm):
        moved[j] = x[i]
    out = []
    for row in grading:
        v = sum(a * m for a, m in zip(row, moved))
        if v.denominator != 1:
            raise ActionError("induced degree action is not integral")
        out.append(int(v))
    return Multidegree(out)


def rational_positive_weights(grading):
    """rings._positive_weights by Fraction solves: the row sum, else the
    first solvable square subsystem w_S(y) = 1 whose w is positive."""
    w = tuple(map(sum, zip(*grading)))
    if all(x >= 1 for x in w):
        return (1,) * len(grading), w
    nvars = len(grading[0])
    rank = len(rational_rref(grading)[1])
    for subset in itertools.combinations(range(nvars), rank):
        y = rational_solve([[row[j] for row in grading] for j in subset], [1] * rank)
        if y is None:
            continue
        w = [sum(yi * row[j] for yi, row in zip(y, grading)) for j in range(nvars)]
        if all(x >= 1 for x in w):
            scale = math.lcm(*(v.denominator for v in y))
            return tuple(int(v * scale) for v in y), tuple(int(x * scale) for x in w)
    raise ValueError("grading admits no positive weight combination")


def tuple_multidegree(f):
    """(degree of the first term of the nonzero f, None or the first term
    and the first of another degree), one degree tuple per term."""
    grading = f.ring.grading

    def degree(e):
        return Multidegree(sum(g * a for g, a in zip(row, e)) for row in grading)

    it = iter(f._t)
    e0 = next(it)
    deg = degree(e0)
    for e in it:
        if degree(e) != deg:
            return deg, (e0, e)
    return deg, None


F1_GRADING = ((1, 1, 0, -1), (0, 0, 1, 1))


def make_f1(tower):
    """Cox ring of the Hirzebruch surface F1; y1 has degree (-1, 1)."""
    ring = MultigradedRing(tower, ["x0", "x1", "y0", "y1"], grading=F1_GRADING,
                           irrelevant=["x0*y0", "x0*y1", "x1*y0", "x1*y1"])
    return make_custom(ring)


# (name, effective degrees) of the small ambients the saturation and
# strict-CI properties sample from
SMALL_AMBIENT_DEGREES = {
    "p1p1": [(1, 0), (0, 1), (1, 1), (2, 1), (1, 2), (2, 2)],
    "p1p2": [(1, 0), (0, 1), (1, 1), (2, 1), (1, 2)],
    "p1p1p1": [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0), (0, 1, 1), (1, 1, 1)],
    "segre": [(1,), (2,)],
    "f1": [(1, 0), (0, 1), (1, 1), (2, 1), (0, 2)],
}


def small_ambients(tower):
    return {"p1p1": make_product_projective([1, 1], tower),
            "p1p2": make_product_projective([1, 2], tower),
            "p1p1p1": make_product_projective([1, 1, 1], tower),
            "segre": make_segre_p1p1(tower),
            "f1": make_f1(tower)}


# ---------------------------------------------------------------------------
# reference polynomial parser: the same grammar as ``ring.parse``, evaluated
# with public Polynomial arithmetic (every factor, product and partial sum is
# a new Polynomial, so its cost is quadratic in the number of terms)

_REF_TOKEN = re.compile(r"\s*(\d+|[A-Za-z_][A-Za-z0-9_]*|\^|\*|\+|\-|\(|\))")


def _ref_tokenize(text):
    pos, out = 0, []
    while pos < len(text):
        m = _REF_TOKEN.match(text, pos)
        if not m:
            if text[pos:].strip():
                raise ParseError("bad polynomial syntax near %r" % text[pos:pos + 20])
            break
        out.append(m.group(1))
        pos = m.end()
    return out


class _RefParser:
    def __init__(self, ring, tokens):
        self.ring = ring
        self.toks = tokens
        self.pos = 0

    def peek(self):
        return self.toks[self.pos] if self.pos < len(self.toks) else None

    def next(self):
        t = self.peek()
        self.pos += 1
        return t

    def parse(self):
        f = self.expr()
        if self.peek() is not None:
            raise ParseError("unexpected token %r" % self.peek())
        return f

    def expr(self):
        sign = 1
        if self.peek() in ("+", "-"):
            sign = -1 if self.next() == "-" else 1
        f = self.term() * sign
        while self.peek() in ("+", "-"):
            sign = -1 if self.next() == "-" else 1
            f = f + self.term() * sign
        return f

    def term(self):
        f = self.factor()
        while self.peek() == "*":
            self.next()
            f = _ref_capped(f * self.factor())
        return f

    def factor(self):
        ring = self.ring
        tok = self.next()
        if tok is None:
            raise ParseError("unexpected end of polynomial")
        if tok == "(":
            f = self.expr()
            if self.next() != ")":
                raise ParseError("missing ')'")
            return f
        if tok.isdigit():
            return ring.constant(int(tok))
        if tok == "t":
            base = ring.constant(ring.tower.gen())
        elif tok in ring.variables:
            base = ring.var(tok)
        elif tok.isidentifier():
            raise ParseError("unknown variable %r" % tok)
        else:
            raise ParseError("unexpected token %r" % tok)
        if self.peek() == "^":
            self.next()
            e = self.next()
            if e is None or not e.isdigit():
                raise ParseError("expected exponent after '^'")
            if tok != "t" and int(e) > EXPONENT_CAP:
                raise ParseError("exponent %d is past the cap %d" % (int(e), EXPONENT_CAP))
            return base ** int(e)
        return base


def _ref_capped(f):
    """f, unless one of its exponents passes the cap."""
    top = max((a for e in f._t for a in e), default=0)
    if top > EXPONENT_CAP:
        raise ParseError("exponent %d is past the cap %d" % (top, EXPONENT_CAP))
    return f


def reference_parse(ring, text):
    """``ring.parse`` by the term-by-term Polynomial-arithmetic parser."""
    toks = _ref_tokenize(text)
    if not toks:
        raise ParseError("empty polynomial")
    return _RefParser(ring, toks).parse()
