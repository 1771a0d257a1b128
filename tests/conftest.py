"""Shared fixtures and test-local helpers.

The linear-algebra helpers here are deliberately independent of the
package's internal linalg module: they work on FieldElement values through
the public arithmetic API, so they can serve as oracles.
"""

import random

import pytest

from coxdescent import (FieldTower, make_product_projective, make_segre_p1p1,
                        monomials_of_degree)

DATA = __file__.rsplit("/", 1)[0] + "/data"


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
