"""Small exact linear algebra: one Gauss-Jordan row reducer over a field.

:func:`rref` works over any object with the field interface ``c_zero``,
``c_one``, ``c_sub``, ``c_mul`` and ``c_inv``: a
:class:`~coxdescent.fields.FieldTower` (graded pieces and fixed spaces),
:func:`prime_field` (restriction of scalars) or :data:`RATIONALS`
(gradings).  Kernels and solves read off its canonical result.  Vectors are
plain lists of the field's raw coefficients.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from types import SimpleNamespace

RATIONALS = SimpleNamespace(
    c_zero=Fraction(0), c_one=Fraction(1), c_sub=operator.sub, c_mul=operator.mul,
    c_inv=lambda a: 1 / Fraction(a))


def prime_field(p):
    """GF(p) on plain residues, for :func:`rref`."""
    return SimpleNamespace(
        c_zero=0, c_one=1,
        c_sub=lambda a, b: (a - b) % p, c_mul=lambda a, b: (a * b) % p,
        c_inv=lambda a: pow(a, p - 2, p))


def rref(field, rows):
    """Reduced row echelon form: (nonzero rows, their pivot columns).

    Pivots are monic and are the leftmost nonzero coordinates; rows come in
    increasing pivot order.  The result is the canonical basis of the row
    span, whatever the order of ``rows``.
    """
    zero, sub, mul, inv = field.c_zero, field.c_sub, field.c_mul, field.c_inv
    basis = []  # list of (pivot index, row)
    for row in rows:
        row = list(row)
        for piv, b in basis:
            c = row[piv]
            if c != zero:
                row = [sub(x, mul(c, y)) for x, y in zip(row, b)]
        piv = next((i for i, c in enumerate(row) if c != zero), None)
        if piv is None:
            continue
        ic = inv(row[piv])
        row = [mul(ic, x) for x in row]
        # back-substitute into existing rows
        for j, (piv2, b) in enumerate(basis):
            c = b[piv]
            if c != zero:
                basis[j] = (piv2, [sub(x, mul(c, y)) for x, y in zip(b, row)])
        basis.append((piv, row))
    basis.sort(key=lambda pr: pr[0])
    return [row for _, row in basis], [piv for piv, _ in basis]


def echelon_basis(tower, rows):
    """The nonzero rows of the reduced row echelon form over the tower."""
    return rref(tower, rows)[0]


def kernel(field, rows):
    """Kernel basis of a matrix (list of rows acting on column vectors).

    The canonical RREF free-variable basis, one vector per free column in
    increasing order.
    """
    if not rows:
        return []
    ncols = len(rows[0])
    red, pivots = rref(field, rows)
    basis = []
    for fc in range(ncols):
        if fc in pivots:
            continue
        v = [field.c_zero] * ncols
        v[fc] = field.c_one
        for row, pc in zip(red, pivots):
            v[pc] = field.c_sub(field.c_zero, row[fc])
        basis.append(v)
    return basis


def kernel_gfp(p, mat):
    """Kernel basis of a matrix over GF(p); see :func:`kernel`."""
    return kernel(prime_field(p), mat)


def rational_solve(rows, rhs):
    """One solution of A x = b over the rationals, or None.

    Free variables are set to zero.
    """
    if not rows:
        return None
    ncols = len(rows[0])
    red, pivots = rref(RATIONALS, [list(row) + [b] for row, b in zip(rows, rhs)])
    if pivots and pivots[-1] == ncols:  # inconsistent system
        return None
    x = [Fraction(0)] * ncols
    for row, pc in zip(red, pivots):
        x[pc] = row[-1]
    return x
