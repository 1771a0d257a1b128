"""Small exact linear algebra: one Gauss-Jordan row reducer over a field,
and its fraction-free twin over the integers.

:func:`rref` works over a :class:`~coxdescent.fields.FieldTower` through
its ``c_zero``, ``c_one``, ``c_sub``, ``c_mul`` and ``c_inv``: over GF(p^d)
for descent's fixed spaces and graded pieces, whose rows its ``_echelon``
builds from term dicts, and over the tower's GF(p),
:func:`~coxdescent.fields.prime_field`, for restriction of scalars.  On
``descend``'s path each fixed space takes two: the echelon basis of its
span and the kernel of a^k - id; graded pieces are for direct callers.
Kernels read off its canonical result.  Vectors are plain lists of the
field's raw coefficients.

:func:`_integer_rref` is Bareiss's elimination (Math. Comp. 22, 1968) for
integer matrices such as gradings: the rational RREF scaled by one common
integer, so ranks, solves and kernels over Q stay on ints.
"""

from .fields import prime_field


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


def _integer_rref(rows):
    """Gauss-Jordan elimination of an integer matrix, on integers only:
    (d, rows, pivots) with ``rows`` = d times the nonzero rows of the
    rational RREF, so that every pivot entry is d, a nonzero integer.

    Each step replaces a row r by (p * r - r[c] * pivot row) // q, p the new
    pivot and q the one before it; by Sylvester's identity every entry is
    then a minor of the input, so the division is exact.  What rref over Q
    reads off reads off here, scaled by d:

    - the rank is ``len(pivots)``;
    - on an augmented matrix [A | b], A x = b has a solution iff the last
      column is no pivot, and x_pc = row[-1] / d with free variables zero
      is the RREF solution (the adjugate solve when A is square);
    - for each free column f, the vector with d at f and -row[f] at each
      pivot column of ``row`` spans the kernel with the others.
    """
    rows = [list(r) for r in rows]
    ncols = len(rows[0]) if rows else 0
    d, top, pivots = 1, 0, []
    for c in range(ncols):
        k = next((k for k in range(top, len(rows)) if rows[k][c]), None)
        if k is None:
            continue
        rows[top], rows[k] = rows[k], rows[top]
        prow = rows[top]
        p = prow[c]
        for k, row in enumerate(rows):
            if k != top:
                a = row[c]
                rows[k] = [(p * x - a * y) // d for x, y in zip(row, prow)]
        d = p
        pivots.append(c)
        top += 1
    return d, rows[:top], pivots
