"""Cox-ring-level predicates.

Ambient constructors for products of projective spaces and the Segre
quotient of P^1 x P^1, the subscheme-ideal operator (saturation against the
irrelevant ideal), and the complete-intersection / strict-complete-
intersection tests.
"""

import itertools
from collections import namedtuple

from .errors import SaturationDirectionError
from .groebner import (IdealHandle, _basis_for_primes, _grevlex, _height_at_least,
                       _height_of_basis, _height_plus_prime, _homogeneous, _monomial_primes,
                       _polynomial_outside, _saturate_primes, ambient_dimension,
                       defining_ideal, height, saturate)
from .rings import MultigradedRing, _require_homogeneous

_FACTOR_LETTERS = "xyzwuv"


class CoxAmbient(namedtuple("CoxAmbient", "ring")):
    """A Cox ring with distinguished irrelevant generators."""

    __slots__ = ()

    def irrelevant_ideal(self):
        return IdealHandle(self.ring, self.ring.irrelevant)


def make_product_projective(dims, tower):
    """Cox ring of P^{n_1} x ... x P^{n_m} with its block grading.

    Variables come in per-factor blocks (x0..x_{n_1}, y0.., ...); the
    irrelevant ideal is generated by all products of one variable per
    factor.
    """
    dims = tuple(int(n) for n in dims)
    if not dims:
        raise ValueError("need at least one projective factor")
    if any(n < 1 for n in dims):
        raise ValueError("factor dimensions must be >= 1")
    m = len(dims)
    blocks = []
    for i, n in enumerate(dims):
        prefix = _FACTOR_LETTERS[i] if m <= len(_FACTOR_LETTERS) else "x%d_" % i
        blocks.append([("%s%d" % (prefix, j)) for j in range(n + 1)])
    variables = [v for block in blocks for v in block]
    grading = []
    pos = 0
    for n in dims:
        row = [0] * len(variables)
        for j in range(n + 1):
            row[pos + j] = 1
        grading.append(tuple(row))
        pos += n + 1
    irrelevant = ["*".join(combo) for combo in itertools.product(*blocks)]
    return CoxAmbient(ring=MultigradedRing(tower, variables, grading, irrelevant=irrelevant))


def make_segre_p1p1(tower):
    """The Cox ring of P^1 x P^1 of Segre type: one Z-grading, all degrees 1.

    A quotient ring: k[z00,z01,z10,z11] modulo the Segre quadric, with the
    maximal ideal of the variables as irrelevant ideal.
    """
    ring = MultigradedRing(tower, ["z00", "z01", "z10", "z11"],
                           grading=[(1, 1, 1, 1)],
                           defining=["z00*z11 - z01*z10"],
                           irrelevant=["z00", "z01", "z10", "z11"])
    return CoxAmbient(ring=ring)


def make_custom(ring):
    if not ring.irrelevant:
        raise ValueError("custom ambient needs irrelevant generators")
    return CoxAmbient(ring=ring)


def subscheme_ideal(amb, ideal):
    """The ideal of the subscheme cut out by I: saturation against G."""
    if not _homogeneous(ideal):  # reads a basis handle packed
        _require_homogeneous(ideal.gens)
    if ideal.is_unit():
        raise ValueError("subscheme ideal of the unit ideal is undefined")
    return saturate(ideal, amb.irrelevant_ideal())


def is_complete_intersection(amb, polys):
    """Height test: the s hypersurfaces cut out codimension s, as
    :func:`_squeezed_height` finds it."""
    polys = [amb.ring._coerce_poly(f) for f in polys]
    _validate_hypersurfaces(polys)
    return _squeezed_height(IdealHandle(amb.ring, polys)) == len(polys)


def _prime_heights(ideal):
    """{c: ht(I + P)} over the minimal primes P = (x_i : i in c) of a G
    generated by monomials (:func:`~coxdescent.groebner._height_plus_prime`);
    {} for any other G, an empty one included.  The primes are found once
    per ring and kept on it."""
    ring = ideal.ring
    if ring._irrelevant_primes is None:
        irrelevant = ring.irrelevant
        monomial = irrelevant and all(len(g) == 1 for g in irrelevant)
        ring._irrelevant_primes = _monomial_primes(irrelevant) if monomial else ()
    return {c: _height_plus_prime(ideal, c) for c in ring._irrelevant_primes}


def _squeezed_height(ideal):
    """ht(I) for s validated forms.  No s forms have height above s, so
    ``upper``, the least of s and the :func:`_prime_heights`, bounds it, and
    is it once a linear section or a partial basis of I shows ht(I) >= upper
    (:func:`~coxdescent.groebner._height_at_least`); else I's basis gives it."""
    upper = min([len(ideal.gens), *_prime_heights(ideal).values()])
    return upper if _height_at_least(ideal, upper) else height(ideal)


def _validate_hypersurfaces(polys):
    """Reject inhomogeneous forms, forms zero in the (quotient) ring, and units."""
    _require_homogeneous(polys)
    for f in polys:
        if f.is_zero() or (f.ring.defining and defining_ideal(f.ring).contains(f)):
            raise ValueError("zero polynomial does not define a hypersurface")
        if f.is_constant():
            raise ValueError("unit does not define a hypersurface")


class StrictCIVerdict(namedtuple("StrictCIVerdict", "status witness height expected",
                                 defaults=(None, None, None))):
    """Outcome of the strict-complete-intersection test; ``status`` is
    'strict' | 'not_strict' | 'not_ci', ``witness`` a Polynomial."""

    __slots__ = ()

    def is_strict(self):
        return self.status == "strict"


def is_strict_ci(amb, polys):
    """Strict iff the generated ideal equals its saturation against G.

    Returns ``not_ci`` when the height test fails.  When the ambient ring is
    Cohen-Macaulay (:func:`_cohen_macaulay`) and G is generated by
    monomials, a CI of s forms is strict iff ht(I + G) > s, so that height
    settles every strict verdict without a saturation; as ht(I) is at most
    ht(I + G), it also gives the height of a not_ci verdict once ht(I)
    reaches it.  All other verdicts scan the reduced basis of the
    saturation (see :func:`~coxdescent.groebner.saturate`) for an element
    that does not reduce to zero modulo I: the first such is the witness,
    and since I is contained in its saturation, there is none exactly when
    I is strict.  A G with no generators has nothing to saturate by, and
    raises :class:`~coxdescent.errors.SaturationDirectionError` whatever
    the forms.
    """
    polys = [amb.ring._coerce_poly(f) for f in polys]
    _validate_hypersurfaces(polys)
    return _strict_ci_verdict(amb, IdealHandle(amb.ring, polys))


def _cohen_macaulay(ring):
    """Whether the ring is a polynomial ring or a quotient by a complete
    intersection, and so Cohen-Macaulay; False says nothing."""
    return len(ring.defining) == ring.nvars - ambient_dimension(ring)


def _strict_ci_verdict(amb, ideal, status_only=False):
    """The verdict of :func:`is_strict_ci` on the handle of validated input;
    with ``status_only``, a not-strict verdict may come without a witness.

    In a Cohen-Macaulay ring s forms of height s generate an unmixed ideal
    (Bruns-Herzog, Thm 2.1.6): every associated prime of I is minimal of
    height s.  So I : G^inf differs from I iff a minimal prime of I
    contains G, iff ht(I + G) = s.  When G is generated by monomials, V(I + G)
    is the union of the V(I + P) over the minimal primes P of G, which are
    generated by variables; so ht(I + G) is the least ht(I + P)
    (:func:`_prime_heights`), where I + G, with all of G's products, has a
    large basis.  The same argument gives I : P^inf = I for each P with
    ht(I + P) > s, also after saturating by other primes, whose result is
    an intersection of primary components of I.  So I is saturated only by
    the primes with ht(I + P) = s.

    The heights of the I + P come first.  When their least, ``upper``, is
    below s, I is no complete intersection, and its height is ``upper`` as
    soon as ht(I) >= upper shows, as in :func:`_squeezed_height`.  When
    every ht(I + P) is above s, I is strict as soon as ht(I) >= s; s forms
    have height at most s, so ht(I) = s.  When some ht(I + P) = s, I's one
    basis is built in the Bayer order of the first such prime's first step
    (:func:`~coxdescent.groebner._basis_for_primes`), and ht(I) is read off
    it, as dim R/I = dim R/in(I) in any order.  With ht(I) = s the verdict
    is not strict, which ``status_only`` returns at once; for the witness
    the prime saturations start from that basis, and the scan for the first
    element of the saturation's reduced grevlex basis outside I tests it
    against that basis in its own order.  In all other cases the exact
    height comes from I's full grevlex basis.
    """
    s = len(ideal.gens)
    ring = amb.ring
    if not ring.irrelevant:  # before any height, which would decide some verdicts
        raise SaturationDirectionError("cannot saturate with respect to the zero ideal")
    primes = []
    heights = _prime_heights(ideal) if _cohen_macaulay(ring) else {}
    if heights:
        upper = min(heights.values())
        if upper < s and _height_at_least(ideal, upper):
            return StrictCIVerdict(status="not_ci", height=upper, expected=s)
        primes = [c for c, h in heights.items() if h == s]
        if not primes and _height_at_least(ideal, s):
            return StrictCIVerdict(status="strict", height=s, expected=s)
    basis = _basis_for_primes(ideal, primes[0]) if primes else (ideal._pairs(), ideal._order)
    h = _height_of_basis(ring, basis)
    if h != s:
        return StrictCIVerdict(status="not_ci", height=h, expected=s)
    if primes:
        if status_only:
            return StrictCIVerdict(status="not_strict", height=h, expected=s)
        sat = _saturate_primes(ring, basis, primes)
    else:
        sat = saturate(ideal, amb.irrelevant_ideal())._pairs()
    witness = _polynomial_outside(ring, basis, (sat, _grevlex(ring.nvars)))
    if witness is None:
        return StrictCIVerdict(status="strict", height=h, expected=s)
    return StrictCIVerdict(status="not_strict", witness=witness, height=h, expected=s)
