import math
import subprocess
import sys
import time
import tracemalloc

import pytest
from hypothesis import event, example, given, settings, strategies as st

import coxdescent.descent as D
import coxdescent.groebner as G
from coxdescent import (ActionError, DescentPreconditionError, FieldElement, FieldTower,
                        IdealHandle, Multidegree, MultigradedRing, RingMismatchError,
                        SemilinearAction, apply_action, degree_orbits, descend,
                        fixed_space, graded_piece_basis, height, ideal_equal,
                        is_invariant_ideal, lower_piece_basis, make_custom,
                        make_product_projective, make_segre_p1p1, monomials_of_degree)
from coxdescent.fields import _add_scaled
from coxdescent.groebner import defining_ideal
from coxdescent.linalg import kernel_gfp
from coxdescent.rings import Polynomial
from conftest import (SMALL_AMBIENT_DEGREES, echelon, coords_of, grevlex_key,
                      piece_monomial_multiples, preserves_grading_kernel, random_poly,
                      rational_apply_degree, seeded, small_ambients, span_equal)


@pytest.fixture(scope="module")
def swap(p1p1_gf9):
    ring = p1p1_gf9.ring
    return SemilinearAction(ring, 1, {"x0": "y0", "x1": "y1",
                                      "y0": "x0", "y1": "x1"})


@pytest.fixture(scope="module")
def frob_only(p1p1_gf9):
    return SemilinearAction(p1p1_gf9.ring, 1, {})


def spans_match(ring, polys_a, polys_b):
    """Whether two lists of polynomials span the same coefficient space."""
    exps = sorted({e for f in polys_a + polys_b for e in f._t}, key=grevlex_key)
    rows_a = [[f.coefficient(e) for e in exps] for f in polys_a]
    rows_b = [[f.coefficient(e) for e in exps] for f in polys_b]
    return span_equal(ring.tower, rows_a, rows_b)


class TestSemilinearAction:
    def test_order_of_swap(self, swap):
        assert swap.order == 2

    def test_frob_only_order(self, frob_only):
        assert frob_only.order == 2

    def test_non_permutation_rejected(self, p1p1_gf9):
        with pytest.raises(ActionError):
            SemilinearAction(p1p1_gf9.ring, 0, {"x0": "x1", "x1": "x1"})

    def test_non_scaled_variable_rejected(self, p1p1_gf9):
        with pytest.raises(ActionError):
            SemilinearAction(p1p1_gf9.ring, 0, {"x0": "x1 + y0"})

    def test_degree_incompatible_rejected(self, p1p1_gf9):
        # x0 <-> y0 alone does not permute the grading blocks coherently
        with pytest.raises(ActionError):
            SemilinearAction(p1p1_gf9.ring, 0, {"x0": "y0", "y0": "x0"})

    def test_foreign_ring_image_rejected(self, p1p1_gf9, gf9):
        other = make_product_projective([1, 1], gf9).ring
        with pytest.raises(RingMismatchError):
            SemilinearAction(p1p1_gf9.ring, 0, {"x0": other.parse("x1"),
                                                "x1": other.parse("x0")})

    def test_apply_swaps_variables(self, p1p1_gf9, swap):
        ring = p1p1_gf9.ring
        assert apply_action(swap, ring.parse("x0")) == ring.parse("y0")

    def test_apply_twists_coefficients(self, p1p1_gf9, swap):
        ring = p1p1_gf9.ring
        assert apply_action(swap, ring.parse("t*y0")) == ring.parse("2*t*x0")

    def test_apply_order_times_is_identity(self, p1p1_gf9, swap):
        ring = p1p1_gf9.ring
        rng = seeded(3)
        for _ in range(5):
            f = random_poly(ring, Multidegree((2, 1)), rng)
            assert apply_action(swap, f, swap.order) == f

    def test_ring_homomorphism_on_samples(self, p1p1_gf9, swap):
        ring = p1p1_gf9.ring
        rng = seeded(9)
        f = random_poly(ring, Multidegree((1, 1)), rng)
        g = random_poly(ring, Multidegree((1, 1)), rng)
        assert apply_action(swap, f * g) == apply_action(swap, f) * apply_action(swap, g)
        assert apply_action(swap, f + g) == apply_action(swap, f) + apply_action(swap, g)

    def test_degree_action(self, swap):
        assert swap.apply_degree(Multidegree((1, 0))) == Multidegree((0, 1))
        assert swap.apply_degree(Multidegree((1, 1))) == Multidegree((1, 1))

    def test_degree_of_wrong_rank_rejected(self, swap):
        # zip would cut (1,) to the degree (0, 1) and () to an orbit of (0, 0)
        with pytest.raises(ActionError, match=r"^degree \(1,\) has wrong rank$"):
            swap.apply_degree((1,))
        with pytest.raises(ActionError, match="has wrong rank$"):
            swap.degree_orbit(())

    def test_scaled_permutation(self, p1p1_gf9):
        ring = p1p1_gf9.ring
        a = SemilinearAction(ring, 1, {"x0": "t*y0", "x1": "y1",
                                       "y0": "x0", "y1": "x1"})
        assert apply_action(a, ring.parse("x0")) == ring.parse("t*y0")
        # order doubles because the scalar has to cycle away
        assert apply_action(a, ring.parse("x0"), a.order) == ring.parse("x0")
        # each power, built by squaring, is the repeated action
        f = random_poly(ring, Multidegree((2, 1)), seeded(5))
        g = f
        for k in range(1, a.order + 1):
            g = apply_action(a, g)
            assert apply_action(a, f, k) == g
            assert apply_action(a, g, -k) == f


@st.composite
def graded_permutations(draw):
    """(grading, perm) on n <= 6 variables.  Half the gradings mix, by an
    integer matrix with negative entries, rows from the orbit of a positive
    row under the permutation, so that many keep the grading kernel and have
    rank below their row count; the rest are random."""
    n = draw(st.integers(2, 6))
    perm = draw(st.permutations(range(n)))
    nrows = draw(st.integers(1, 3))
    if draw(st.booleans()):
        orbit = [draw(st.lists(st.integers(1, 3), min_size=n, max_size=n))]
        for _ in range(draw(st.integers(0, 3))):
            orbit.append([orbit[-1][j] for j in perm])
        mix = draw(st.lists(st.lists(st.integers(-2, 2), min_size=len(orbit),
                                     max_size=len(orbit)), min_size=nrows, max_size=nrows))
        grading = [[sum(c * row[j] for c, row in zip(m, orbit)) for j in range(n)] for m in mix]
    else:
        grading = draw(st.lists(st.lists(st.integers(-2, 3), min_size=n, max_size=n),
                                min_size=nrows, max_size=nrows))
    return grading, perm


def outcome(f, *args):
    try:
        return f(*args)
    except ActionError as exc:
        return "ActionError: %s" % exc


class TestDegreeMapAgainstFractions:
    """The integer degree map built at construction against a Fraction
    solve of the grading per call."""

    @settings(max_examples=300, deadline=None)
    @given(graded_permutations(),
           st.lists(st.lists(st.integers(-3, 3), min_size=3, max_size=3), min_size=1, max_size=4))
    # full rank: (0, 1) maps to (1/2, 1/2); rank 1 of 2: (1, 0) is outside the image
    @example(([[1, 0], [1, 2]], [1, 0]), [[0, 1, 0], [1, 1, 0], [0, 2, 0]])
    @example(([[1, 1], [2, 2]], [1, 0]), [[1, 0, 0], [1, 2, 0]])
    def test_apply_degree_property(self, gf9, case, degrees):
        grading, perm = case
        n, r = len(perm), len(grading)
        try:
            ring = MultigradedRing(gf9, ["v%d" % i for i in range(n)], grading=grading)
        except ValueError:  # no positive weights
            return
        var_map = {"v%d" % i: "v%d" % j for i, j in enumerate(perm)}
        if not preserves_grading_kernel(grading, perm):
            with pytest.raises(ActionError, match="^variable permutation does not preserve "
                                                  "the grading kernel$"):
                SemilinearAction(ring, 1, var_map)
            return
        action = SemilinearAction(ring, 1, var_map)
        for degree in degrees:
            degree = Multidegree(degree[:r])
            for times in (1, 2, 3, 0, -1):
                assert (outcome(action.apply_degree, degree, times)
                        == outcome(rational_apply_degree, action, degree, times))

    def test_both_errors_reached(self, gf9):
        ring = MultigradedRing(gf9, ["x", "y"], grading=[[1, 0], [1, 2]])
        action = SemilinearAction(ring, 0, {"x": "y", "y": "x"})
        assert action.apply_degree(Multidegree((1, 1))) == Multidegree((0, 2))
        with pytest.raises(ActionError, match="^induced degree action is not integral$"):
            action.apply_degree(Multidegree((0, 1)))
        ring = MultigradedRing(gf9, ["x", "y"], grading=[[1, 1], [2, 2]])
        action = SemilinearAction(ring, 0, {"x": "y", "y": "x"})
        assert action.apply_degree(Multidegree((1, 2))) == Multidegree((1, 2))
        with pytest.raises(ActionError, match=r"^degree \(1,0\) is not in the grading "
                                              r"lattice image$"):
            action.apply_degree(Multidegree((1, 0)))


class TestInvariance:
    def test_orbit_pair_invariant(self, p1p1_gf9, swap):
        ring = p1p1_gf9.ring
        assert is_invariant_ideal(swap, IdealHandle(ring, [ring.parse("x0"),
                                                           ring.parse("y0")]))

    def test_scaled_orbit_pair_invariant(self, p1p1_gf9, swap):
        ring = p1p1_gf9.ring
        assert is_invariant_ideal(swap, IdealHandle(ring, [ring.parse("x0"),
                                                           ring.parse("t*y0")]))

    def test_half_orbit_not_invariant(self, p1p1_gf9, swap):
        ring = p1p1_gf9.ring
        assert not is_invariant_ideal(swap, IdealHandle(ring, [ring.parse("x0")]))


class TestDegreeOrbits:
    def test_swapped_pair(self, p1p1_gf9, swap):
        ring = p1p1_gf9.ring
        part = degree_orbits(swap, [ring.parse("x0"), ring.parse("y0")])
        assert part.r_bounds == [0, 2]
        assert part.blocks[0]["beta"] == 2 and part.blocks[0]["gamma"] == 1

    def test_fixed_class(self, p1p1_gf9, swap):
        ring = p1p1_gf9.ring
        part = degree_orbits(swap, [ring.parse("x0*y0")])
        assert part.blocks[0]["beta"] == 1 and part.blocks[0]["gamma"] == 1

    def test_two_generators_per_class(self, p1p1_gf9, swap):
        ring = p1p1_gf9.ring
        fs = [ring.parse(s) for s in ["x0", "y0", "x1", "y1"]]
        part = degree_orbits(swap, fs)
        assert part.r_bounds == [0, 4]
        assert part.s_bounds == [0, 2, 4]
        assert part.blocks[0]["beta"] == 2 and part.blocks[0]["gamma"] == 2
        degs = [fs[i].multidegree() for i in part.order]
        assert degs == [Multidegree((1, 0)), Multidegree((0, 1))] * 2

    def test_multiplicity_mismatch(self, p1p1_gf9, swap):
        ring = p1p1_gf9.ring
        with pytest.raises(DescentPreconditionError) as exc:
            degree_orbits(swap, [ring.parse("x0")])
        assert exc.value.reason == "DEGREE_MISMATCH"


class TestGradedPieces:
    def test_single_variable_piece(self, p1p1_gf9):
        ring = p1p1_gf9.ring
        ideal = IdealHandle(ring, [ring.parse("x0"), ring.parse("y0")])
        basis = graded_piece_basis(ideal, Multidegree((1, 0)))
        assert [str(b) for b in basis] == ["x0"]

    def test_no_lower_multiples(self, p1p1_gf9):
        ring = p1p1_gf9.ring
        ideal = IdealHandle(ring, [ring.parse("x0*y0"), ring.parse("x1*y1")])
        basis = graded_piece_basis(ideal, Multidegree((1, 1)))
        assert spans_match(ring, basis, [ring.parse("x0*y0"),
                                         ring.parse("x1*y1")])
        assert lower_piece_basis(ideal, Multidegree((1, 1))) == []

    def test_point_piece_dimension(self, p1p1_gf9):
        ring = p1p1_gf9.ring
        ideal = IdealHandle(ring, [ring.parse("x0"), ring.parse("y0")])
        assert len(graded_piece_basis(ideal, Multidegree((1, 1)))) == 3
        assert len(lower_piece_basis(ideal, Multidegree((1, 1)))) == 3

    def test_lower_piece_of_saturation(self, p1p1_gf9):
        ring = p1p1_gf9.ring
        sat = IdealHandle(ring, [ring.parse(s) for s in
                                 ["x0*x1", "x0*y0", "x1*y1", "y0*y1"]])
        low = lower_piece_basis(sat, Multidegree((2, 1)))
        full = graded_piece_basis(sat, Multidegree((2, 1)))
        # every generator has degree < (2,1), so the lower piece is everything
        assert spans_match(ring, low, full)


    def test_piece_of_wrong_rank_rejected(self, p1p1_gf9):
        ring = p1p1_gf9.ring
        ideal = IdealHandle(ring, [ring.parse("x0*y0 + x1*y1")])
        for piece in (graded_piece_basis, lower_piece_basis):
            with pytest.raises(ValueError, match="^degree has wrong rank$"):
                piece(ideal, (1, 1, 7))


def minimal_in_every_class(ideal):
    """Whether in each degree of the generators the graded piece has as many
    elements as the lower piece plus the generators of that degree, so that
    the generators of each class are independent modulo the lower piece."""
    degrees = [f.multidegree() for f in ideal.gens]
    return all(len(graded_piece_basis(ideal, d))
               == len(lower_piece_basis(ideal, d)) + degrees.count(d) for d in set(degrees))


MINIMAL_CASES = [(field, name) for field in ("GF(101)", "GF(3^2)")
                 for name in sorted(SMALL_AMBIENT_DEGREES)]


@pytest.fixture(scope="module")
def minimal_ambients(gf101, gf9):
    return {(str(tower), name): amb for tower in (gf101, gf9)
            for name, amb in small_ambients(tower).items()}


class TestMinimalGeneration:
    """Phase 2 of descend takes minimal generation in every degree class
    from the strict verdict: s forms of height s generate minimally."""

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(MINIMAL_CASES), st.integers(0, 2 ** 32))
    def test_height_s_forms_are_minimal_in_every_class_property(self, minimal_ambients, case,
                                                                 seed):
        ring = minimal_ambients[case].ring
        rng = seeded(seed)
        degrees = SMALL_AMBIENT_DEGREES[case[1]]
        fs = [random_poly(ring, Multidegree(rng.choice(degrees)), rng)
              for _ in range(rng.randint(1, 3))]
        if height(IdealHandle(ring, fs)) != len(fs):
            return
        assert minimal_in_every_class(IdealHandle(ring, fs))
        # mutation: one redundant generator, a multiple of one of them,
        # makes its degree's count one too many
        m = rng.choice([ring.one()]
                       + monomials_of_degree(ring, Multidegree(rng.choice(degrees))))
        redundant = m * rng.choice(fs) * rng.randrange(1, ring.tower.p)
        assert not minimal_in_every_class(IdealHandle(ring, fs + [redundant]))


class TestFixedSpace:
    def test_swap_orbit_plane_against_exhaustive_oracle(self, p1p1_gf9, swap):
        ring = p1p1_gf9.ring
        tower = ring.tower
        x0, y0 = ring.parse("x0"), ring.parse("y0")
        vecs = [x0, y0]
        got = fixed_space(swap, vecs, 1)
        assert len(got) == 2
        for v in got:
            assert apply_action(swap, v) == v
        # oracle: filter all 81 combinations a*x0 + b*y0
        els = list(tower.elements())
        fixed = [a * x0 + b * y0 for a in els for b in els
                 if apply_action(swap, a * x0 + b * y0) == a * x0 + b * y0
                 and not (a * x0 + b * y0).is_zero()]
        # got spans the fixed set over GF(3)
        gf3_combos = set()
        for c0 in range(3):
            for c1 in range(3):
                v = got[0] * c0 + got[1] * c1
                if not v.is_zero():
                    gf3_combos.add(str(v))
        assert gf3_combos == {str(v) for v in fixed}

    def test_trivial_subgroup_returns_whole_space(self, p1p1_gf9, swap):
        ring = p1p1_gf9.ring
        vecs = [ring.parse("x0"), ring.parse("y0")]
        got = fixed_space(swap, vecs, swap.order)
        assert spans_match(ring, got, vecs)

    def test_already_fixed_line(self, p1p1_gf9, swap):
        ring = p1p1_gf9.ring
        f = ring.parse("x0*y0 + x1*y1")
        got = fixed_space(swap, [f], 1)
        assert len(got) == 1
        assert apply_action(swap, got[0]) == got[0]

    def test_not_closed_rejected(self, p1p1_gf9, swap):
        ring = p1p1_gf9.ring
        with pytest.raises(ActionError):
            fixed_space(swap, [ring.parse("x0")], 1)


def reference_fixed_space(action, vectors, subgroup_index):
    """fixed_space the direct way, without semilinearity: a^k applied to
    t^a * w_i for every unit t^a, and closure tested by the rank of the
    span with all those images."""
    ring = action.ring
    tower = ring.tower
    basis = D._echelon(tower, [t for t in (ring._coerce_poly(v)._t for v in vectors) if t])
    if not basis:
        return []
    k = subgroup_index
    d, p = tower.d, tower.p
    mul, zero = tower.c_mul, tower.c_zero
    nb = len(basis)
    units = [tower.c_from_coeffs([int(a == b) for b in range(d)]) for a in range(d)]
    images = [action.apply(Polynomial(ring, {e: mul(u, c) for e, c in b.items()}), k)._t
              for b in basis for u in units]
    if len(D._echelon(tower, basis + images)) != nb:
        raise ActionError("space is not closed under the subgroup action")
    leads = [next(iter(b)) for b in basis]
    cols = [[c for e in leads for c in tower.c_coeffs(image.get(e, zero))] for image in images]
    mat = [list(row) for row in zip(*cols)]
    for i in range(nb * d):
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
            out.append(f)
    return out


# P1xP1 over the towers of each representation: discrete logs (GF(3^2),
# GF(2^4), GF(101^2)), packed ints (GF(101^3)) and residues (GF(5))
FIELDS = {"GF(3^2)": (3, 2), "GF(2^4)": (2, 4), "GF(101^2)": (101, 2),
          "GF(101^3)": (101, 3), "GF(5)": (5, 1)}
# the grading-preserving permutations of x0, x1, y0, y1: none, the factor
# swap, the coordinate swap, and both
PERMS = [{}, {"x0": "y0", "x1": "y1", "y0": "x0", "y1": "x1"},
         {"x0": "x1", "x1": "x0", "y0": "y1", "y1": "y0"},
         {"x0": "y1", "x1": "y0", "y0": "x1", "y1": "x0"}]


@pytest.fixture(scope="module")
def p1p1_over():
    return {name: make_product_projective([1, 1], FieldTower(p, d))
            for name, (p, d) in FIELDS.items()}


def element_of(tower, coeffs):
    return tower.c_from_coeffs([c % tower.p for c in coeffs])


def coefficientwise_random_poly(ring, degree, rng):
    """A random nonzero form of the degree, its coefficients drawn digit by
    digit, so that no list of the field's elements is made."""
    tower = ring.tower
    while True:
        f = Polynomial(ring, {})
        for m in monomials_of_degree(ring, degree):
            c = element_of(tower, [rng.randrange(tower.p) for _ in range(tower.d)])
            f = f + m * FieldElement(tower, c)
        if f:
            return f


@st.composite
def scaled_actions(draw, fields):
    """(field name, frob power, permutation index into PERMS, one scalar
    per variable as a coefficient list), a scalar 1 half the time."""
    name = draw(st.sampled_from(fields))
    p, d = FIELDS[name]
    frob = draw(st.integers(0, d - 1))
    perm = draw(st.sampled_from(range(len(PERMS))))
    one = [1] + [0] * (d - 1)
    scalars = draw(st.lists(st.one_of(st.just(one), st.lists(st.integers(0, p - 1),
                                                             min_size=d, max_size=d)),
                            min_size=4, max_size=4))
    return name, frob, perm, scalars


def action_images(amb, case, bounded=True):
    """The frob power and the scaled variable images that a drawn case
    names; with ``bounded`` each scalar is raised to the power (q - 1) /
    gcd(q - 1, 120), so that its order divides 120."""
    name, frob, perm, scalars = case
    tower = amb.ring.tower
    q1 = tower.p ** tower.d - 1
    images = {}
    for v, cs in zip(amb.ring.variables, scalars):
        c = element_of(tower, cs) or tower.c_one
        if bounded:
            c = tower.c_pow(c, q1 // math.gcd(q1, 120))
        images[v] = (PERMS[perm].get(v, v), c)
    return frob, images


def make_action(amb, case, bounded=True):
    ring = amb.ring
    frob, images = action_images(amb, case, bounded)
    return SemilinearAction(ring, frob, {v: ring.parse(w) * FieldElement(ring.tower, c)
                                         for v, (w, c) in images.items()})


class TestFixedSpaceAgainstReference:
    """The one-image-per-vector fixed space against d images per vector
    and a rank test: the same vectors in the same order, and the same
    error on a span that is not closed."""

    @settings(max_examples=200, deadline=None)
    @given(scaled_actions(["GF(3^2)", "GF(2^4)", "GF(101^2)", "GF(101^3)"]),
           st.data())
    def test_property(self, p1p1_over, case, data):
        amb = p1p1_over[case[0]]
        ring = amb.ring
        action = make_action(amb, case)
        k = data.draw(st.sampled_from([k for k in range(1, action.order + 1)
                                       if action.order % k == 0]), label="subgroup index")
        degree = data.draw(st.sampled_from([(1, 0), (1, 1), (2, 1)]), label="degree")
        rng = seeded(data.draw(st.integers(0, 2 ** 16), label="seed"))
        vectors = [coefficientwise_random_poly(ring, Multidegree(degree), rng)
                   for _ in range(data.draw(st.integers(1, 3), label="count"))]
        if data.draw(st.booleans(), label="close the span"):
            # the span of v, a^k v, a^2k v, ... stops growing once one of
            # them lies in the span of those before: a semilinear map takes
            # spans to spans
            for v in list(vectors):
                while True:
                    v = apply_action(action, v, k)
                    if len(D._echelon(ring.tower, [f._t for f in vectors + [v]])) == len(
                            D._echelon(ring.tower, [f._t for f in vectors])):
                        break
                    vectors.append(v)
        images = [apply_action(action, v, k) for v in vectors]
        closed = len(D._echelon(ring.tower, [f._t for f in vectors + images])) == len(
            D._echelon(ring.tower, [f._t for f in vectors]))
        got = outcome(fixed_space, action, vectors, k)
        event("closed" if closed else "not closed")
        event("%s, k %s the order" % (case[0], "is" if k == action.order else "below"))
        assert got == outcome(reference_fixed_space, action, vectors, k)
        if not closed:
            assert got == "ActionError: space is not closed under the subgroup action"
        else:
            assert [list(f._t.items()) for f in got] == [
                list(f._t.items()) for f in reference_fixed_space(action, vectors, k)]
            for f in got:
                assert apply_action(action, f, k) == f


class TestDescend:
    def test_scaled_orbit_pair(self, p1p1_gf9, swap):
        ring = p1p1_gf9.ring
        fs = [ring.parse("x0"), ring.parse("t*y0")]
        res = descend(p1p1_gf9, swap, fs)
        assert res.orbit_blocks == [(0, 2)]
        assert {str(g.monic()) for g in res.new_gens} == {"x0", "y0"}
        assert ideal_equal(IdealHandle(ring, res.new_gens),
                           IdealHandle(ring, fs))
        for din, dout in res.degree_log:
            assert din == dout

    def test_orbit_already(self, p1p1_gf9, swap):
        ring = p1p1_gf9.ring
        fs = [ring.parse("x0"), ring.parse("y0")]
        res = descend(p1p1_gf9, swap, fs)
        assert {str(g.monic()) for g in res.new_gens} == {"x0", "y0"}

    def test_hilbert_90_fixed_class(self, p1p1_gf9, swap):
        # sigma(f) = -f but (f) is invariant: phase 1 must produce a
        # literally fixed generator of the same ideal
        ring = p1p1_gf9.ring
        f = ring.parse("t*x0*y0 + t*x1*y1")
        assert apply_action(swap, f) == -f
        res = descend(p1p1_gf9, swap, [f])
        assert len(res.new_gens) == 1
        g = res.new_gens[0]
        assert apply_action(swap, g) == g
        assert ideal_equal(IdealHandle(ring, [g]), IdealHandle(ring, [f]))

    def test_orbit_blocks_closed_under_action(self, p1p1_gf9, swap):
        ring = p1p1_gf9.ring
        fs = [ring.parse("x0 + 2*x1"), ring.parse("t*y0 + 2*t*y1")]
        res = descend(p1p1_gf9, swap, fs)
        for a, b in res.orbit_blocks:
            block = {str(g.monic()) for g in res.new_gens[a:b]}
            for g in res.new_gens[a:b]:
                assert str(apply_action(swap, g).monic()) in block

    def test_not_invariant_precondition(self, p1p1_gf9, swap):
        with pytest.raises(DescentPreconditionError) as exc:
            descend(p1p1_gf9, swap, [p1p1_gf9.ring.parse("x0")])
        assert exc.value.reason == "NOT_INVARIANT"

    def test_not_strict_precondition(self, p1p1_gf9, swap):
        ring = p1p1_gf9.ring
        fs = [ring.parse("x0*y0"), ring.parse("x1*y1")]
        with pytest.raises(DescentPreconditionError) as exc:
            descend(p1p1_gf9, swap, fs)
        assert exc.value.reason == "NOT_STRICT"

    def test_linear_stabilizer_without_fixed_generator(self):
        # t has order 3 in this GF(101^2), so x0 -> t*x0 is an action of
        # order 3 that fixes no nonzero multiple of x0: no generator of the
        # class can be made fixed
        amb = make_product_projective([1, 1], FieldTower(101, 2))
        ring = amb.ring
        action = SemilinearAction(ring, 0, {"x0": "t*x0"})
        assert action.order == 3
        assert fixed_space(action, [ring.parse("x0")], 1) == []
        with pytest.raises(DescentPreconditionError) as exc:
            descend(amb, action, [ring.parse("x0"), ring.parse("t*y0")])
        assert exc.value.reason == "NO_FIXED_GENERATOR"

    def test_not_strict_rejection_takes_no_bayer_step(self, p1p1_gf9, swap, monkeypatch):
        # descent reads only the verdict's status: ht(I + (x0, x1)) = 2 =
        # ht(I) says not strict, and no saturation is computed for a witness
        def refuse(*args):
            raise AssertionError("Bayer step taken")

        monkeypatch.setattr(G, "_saturate_variable", refuse)
        ring = p1p1_gf9.ring
        with pytest.raises(DescentPreconditionError) as exc:
            descend(p1p1_gf9, swap, [ring.parse("x0*y0"), ring.parse("x1*y1")])
        assert exc.value.reason == "NOT_STRICT"

    def test_frob_only_action(self, p1p1_gf9, frob_only):
        ring = p1p1_gf9.ring
        fs = [ring.parse("t*x0"), ring.parse("2*t*y0 + t*y1")]
        res = descend(p1p1_gf9, frob_only, fs)
        for g in res.new_gens:
            assert apply_action(frob_only, g) == g
        assert ideal_equal(IdealHandle(ring, res.new_gens),
                           IdealHandle(ring, fs))

    @pytest.mark.parametrize("texts, runs", [(["x0*y0 + x1*y1"], 1),
                                             (["x0", "t*y0"], 1),
                                             (["x0", "y0"], 1)])
    def test_input_basis_built_once(self, p1p1_gf9, swap, monkeypatch, texts, runs):
        # the invariance test, the strict-CI verdict and the final check
        # share one handle while the generator list keeps its set: no phase
        # changes x0*y0 + x1*y1, and phase 2 rebuilds [x0, y0] as itself;
        # for [x0, t*y0] phase 2 replaces the list before the final check
        ring = p1p1_gf9.ring
        fs = [ring.parse(s) for s in texts]
        key = frozenset(frozenset(f._t.items()) for f in fs)
        seen = []
        orig = G._buchberger

        def counting(tower, order, polys, *stop):
            seen.append(frozenset(frozenset(order.unpack_terms(p).items()) for p in polys))
            return orig(tower, order, polys, *stop)

        monkeypatch.setattr(G, "_buchberger", counting)
        descend(p1p1_gf9, swap, fs)
        assert seen.count(key) == runs

    @pytest.mark.parametrize("segre, texts", [(False, ["t*x0*y0 + t*x1*y1"]),
                                              (True, ["t*z00", "t*z11"])],
                             ids=["hilbert-90", "twisted-point"])
    def test_phase_1_builds_no_basis_of_the_other_generators(
            self, p1p1_gf9, swap, gf9, monkeypatch, segre, texts):
        # phase 1 replaces every generator; it takes the first fixed
        # candidate whose swap keeps the ideal and never needs a basis of
        # the list without position t
        if segre:
            amb = make_segre_p1p1(gf9)
            action = SemilinearAction(amb.ring, 1, {"z01": "z10", "z10": "z01"})
        else:
            amb, action = p1p1_gf9, swap
        ring = amb.ring
        fs = [ring.parse(s) for s in texts]
        seen = []
        orig = G._buchberger

        def recording(tower, order, polys, *stop):
            seen.append(frozenset(frozenset(order.unpack_terms(p).items()) for p in polys))
            return orig(tower, order, polys, *stop)

        monkeypatch.setattr(G, "_buchberger", recording)
        res = descend(amb, action, fs)
        assert res.input_order == list(range(len(fs)))
        assert all(g != f for f, g in zip(fs, res.new_gens))
        for t in range(len(fs)):
            others = res.new_gens[:t] + fs[t + 1:] + list(ring.defining)
            assert frozenset(frozenset(g._t.items()) for g in others) not in seen


def walked_order(amb, case, bounded):
    """The order of a drawn action the direct way: the least k with a^k
    the identity, walking a, a^2, ... up to the bound; None past it.
    States are (frob, perm, scalars), composed here independently of the
    package."""
    ring = amb.ring
    tower = ring.tower
    frob, images = action_images(amb, case, bounded)
    perm = tuple(ring.variables.index(w) for w, _ in images.values())
    a = state = (frob % tower.d, perm, tuple(c for _, c in images.values()))
    identity = (0, tuple(range(ring.nvars)), (tower.c_one,) * ring.nvars)
    for k in range(1, D._MAX_ORDER + 1):
        if state == identity:
            return k
        e, p, s = state
        # a after the state: x_i -> s_i x_p(i) -> frob^f(s_i) a_p(i) x_perm(p(i))
        state = ((e + frob) % tower.d, tuple(perm[j] for j in p),
                 tuple(tower.c_mul(tower.c_frob(c, frob), a[2][j]) for c, j in zip(s, p)))
    return None


def assert_descent_contract(action, polys, res):
    """What descend promises: the same ideal, the input's degrees position
    by position in its order, orbit blocks closed under the action up to
    scalars, and every generator fixed by the stabilizer of its class."""
    ring = action.ring
    assert sorted(res.input_order) == list(range(len(polys)))
    degrees = [polys[i].multidegree() for i in res.input_order]
    assert [g.multidegree() for g in res.new_gens] == degrees
    assert res.degree_log == list(zip(degrees, degrees))
    assert ideal_equal(IdealHandle(ring, res.new_gens), IdealHandle(ring, polys))
    for a, b in res.orbit_blocks:
        block = {str(g.monic()) for g in res.new_gens[a:b]}
        assert {str(apply_action(action, g).monic()) for g in res.new_gens[a:b]} == block
    for g in res.new_gens:
        beta = len(action.degree_orbit(g.multidegree()))
        assert apply_action(action, g, beta) == g


class TestDescendFuzz:
    """descend on random swap and scaling actions of P1xP1 and generators
    made of the conjugates of one or two monomials or binomials: either
    the contract holds or a DescentPreconditionError names what failed,
    never an untyped exception."""

    @settings(max_examples=150, deadline=None)
    @given(scaled_actions(["GF(3^2)", "GF(2^4)", "GF(101^2)", "GF(5)"]), st.booleans(),
           st.lists(st.tuples(st.sampled_from([(1, 0), (0, 1), (1, 1)]),
                              st.lists(st.integers(0, 3), min_size=1, max_size=2, unique=True),
                              st.integers(0, 2 ** 16)),
                    min_size=1, max_size=2))
    @example(("GF(101^2)", 0, 0, [[0, 1], [1, 0], [1, 0], [1, 0]]), False,
             [((1, 0), [0], 0), ((0, 1), [0], 0)])
    def test_contract_or_precondition_error(self, p1p1_over, case, bounded, seeds):
        amb = p1p1_over[case[0]]
        ring = amb.ring
        tower = ring.tower
        try:
            action = make_action(amb, case, bounded)
        except ActionError:
            event("order past the bound")
            return
        polys = []
        for degree, support, seed in seeds:
            rng = seeded(seed)
            monos = monomials_of_degree(ring, Multidegree(degree))
            f = sum((monos[i % len(monos)] * FieldElement(tower, element_of(
                tower, [rng.randrange(tower.p) for _ in range(tower.d)]) or tower.c_one)
                for i in support), ring.zero())
            if not f:
                continue
            # the conjugates of f, one per class of its degree's orbit
            for j in range(len(action.degree_orbit(f.multidegree()))):
                polys.append(apply_action(action, f, j))
        if not polys:
            return
        try:
            res = descend(amb, action, polys)
        except DescentPreconditionError as exc:
            event(exc.reason)
            return
        event("descended")
        assert_descent_contract(action, polys, res)


class TestOrderBound:
    @settings(max_examples=150, deadline=None)
    @given(scaled_actions(list(FIELDS)), st.booleans())
    def test_order_against_the_walk(self, p1p1_over, case, bounded):
        # unbounded scalars over GF(101^2) and GF(101^3) pass the bound
        # often, bounded ones never
        amb = p1p1_over[case[0]]
        expected = walked_order(amb, case, bounded)
        event("past the bound" if expected is None else "within the bound")
        if expected is None:
            with pytest.raises(ActionError, match="^action order exceeds 10000$"):
                make_action(amb, case, bounded)
        else:
            assert make_action(amb, case, bounded).order == expected

    def test_order_past_the_bound_rejected(self):
        # disjoint cycles of lengths 2, 3, 5, 7, 11, 13 on the 41 variables
        # of P^40: order 30030
        amb = make_product_projective([40], FieldTower(2))
        var_map, start = {}, 0
        for length in (2, 3, 5, 7, 11, 13):
            for i in range(length):
                var_map["x%d" % (start + i)] = "x%d" % (start + (i + 1) % length)
            start += length
        with pytest.raises(ActionError, match="order exceeds"):
            SemilinearAction(amb.ring, 0, var_map)

    @pytest.mark.parametrize("p, d, images", [
        (101, 2, {"x0": "(t+4)*x0", "x1": "(t+9)*x1"}),  # orders 5100 and 3400
        (101, 3, {"x0": "(t+1)*x0"}),
        # p = 2q + 1 with q prime: p - 1 is trial-divided only up to the bound
        (2305843009213699919, 1, {"x0": "3*x0"})])
    def test_order_past_the_bound_rejected_within_time_budget(self, p, d, images):
        # walking the powers took about 50 ms on GF(101^2) and 90 ms on
        # GF(101^3) to reach the bound; the order is now read off the
        # cycles and the scalars' orders
        ring = make_product_projective([1, 1], FieldTower(p, d)).ring
        best = float("inf")
        for _ in range(3):
            began = time.perf_counter()
            with pytest.raises(ActionError, match="^action order exceeds 10000$"):
                SemilinearAction(ring, 0, images)
            best = min(best, time.perf_counter() - began)
        assert best < 0.01

    def test_large_order_within_time_and_memory_budget(self):
        # cycles 3, 5, 7, 8, 11 on the 34 variables of P^33 over GF(3^2), with
        # Frobenius: order 9240.  A table of all its powers would hold about
        # 26 MB; the order walk keeps one state, apply one power
        amb = make_product_projective([33], FieldTower(3, 2))
        var_map, start = {}, 0
        for length in (3, 5, 7, 8, 11):
            for i in range(length):
                var_map["x%d" % (start + i)] = "x%d" % (start + (i + 1) % length)
            start += length
        f = amb.ring.parse("x0*x3 + t*x10^2 + x33")
        tracemalloc.start()
        try:
            began = time.perf_counter()
            act = SemilinearAction(amb.ring, 1, var_map)
            g = act.apply(f, 4621)
            elapsed = time.perf_counter() - began
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert act.order == 9240
        assert elapsed < 3.0
        assert peak < 2 ** 20
        assert str(g) == "x1*x4 + 2*t*x11^2 + x23"
        assert act.apply(g, -4621) == f
        assert act.apply(act.apply(f, 4620), 1) == g


class TestCycleOverGF16:
    """A 3-cycle of the factors of P1xP1xP1 with Frobenius over GF(2^4).

    The order is lcm(3, 4) = 12 and every class of degree (1,0,0) has an
    orbit of length 3, so phase 1 restricts scalars with d = 4.  The plain
    cycle fixes x0 + x1 under sigma^3; the twisted one, which also swaps
    the coordinates once per turn, fixes the line of x0 + t^5*x1, whose
    fixed vectors have coefficients outside GF(2).
    """

    @pytest.fixture(scope="class")
    def amb(self):
        return make_product_projective([1, 1, 1], FieldTower(2, 4))

    @pytest.fixture(scope="class", params=[
        ({"x0": "y0", "x1": "y1"}, "x0 + x1"),
        ({"x0": "y1", "x1": "y0"}, "x0 + t^5*x1"),
    ], ids=["plain", "twisted"])
    def case(self, request, amb):
        first, f0 = request.param
        cycle = SemilinearAction(amb.ring, 1, dict(first, y0="z0", y1="z1",
                                                   z0="x0", z1="x1"))
        # twisted conjugates of f0: none is fixed by sigma^3
        ring = amb.ring
        gens = [apply_action(cycle, ring.parse(f0), k) * ring.tower.element(c)
                for k, c in enumerate(["t", "t^2+1", "t^3+t"])]
        return cycle, gens

    def test_degree_orbits_in_power_order(self, case):
        cycle, gens = case
        assert cycle.order == 12
        part = degree_orbits(cycle, gens)
        assert part.order == [0, 1, 2]
        block, = part.blocks
        assert block["classes"] == [Multidegree((1, 0, 0)), Multidegree((0, 1, 0)),
                                    Multidegree((0, 0, 1))]
        assert (block["beta"], block["gamma"]) == (3, 1)
        assert block["rep_powers"] == [0, 1, 2]

    def test_descend_contract(self, amb, case, monkeypatch):
        cycle, gens = case
        ring = amb.ring
        calls = []

        def spy(action, vectors, subgroup_index):
            calls.append(subgroup_index)
            return fixed_space(action, vectors, subgroup_index)

        monkeypatch.setattr(D, "fixed_space", spy)
        assert all(apply_action(cycle, g, 3) != g for g in gens)
        res = descend(amb, cycle, gens)
        assert calls == [3, 3, 3]
        assert [d for d, _ in res.degree_log] == [g.multidegree() for g in gens]
        assert [f.multidegree() for f in res.new_gens] == [g.multidegree() for g in gens]
        assert res.orbit_blocks == [(0, 3)]
        block = {str(g.monic()) for g in res.new_gens}
        assert {str(apply_action(cycle, g).monic()) for g in res.new_gens} == block
        assert ideal_equal(IdealHandle(ring, res.new_gens), IdealHandle(ring, gens))
        for g in res.new_gens:
            assert apply_action(cycle, g, 3) == g


def test_frobenius_fixed_space_over_gf27_against_exhaustive_oracle():
    amb = make_product_projective([1, 1], FieldTower(3, 3))
    ring = amb.ring
    frob = SemilinearAction(ring, 1, {})
    u, v = ring.parse("x0*y0 + x1*y1"), ring.parse("x0*y1 - x1*y0")
    t = ring.tower.gen()
    vecs = [u * t + v, u * t**2 + v * 2]
    got = fixed_space(frob, vecs, 1)
    assert len(got) == 2
    for g in got:
        assert apply_action(frob, g) == g
    # oracle: every fixed element of the GF(27)-span of vecs
    els = list(ring.tower.elements())
    fixed = set()
    for a in els:
        for b in els:
            w = vecs[0] * a + vecs[1] * b
            if not w.is_zero() and apply_action(frob, w) == w:
                fixed.add(str(w))
    gf3_combos = {str(got[0] * c0 + got[1] * c1)
                  for c0 in range(3) for c1 in range(3) if (c0, c1) != (0, 0)}
    assert gf3_combos == fixed
    assert len(fixed) == 8


class TestCubicExtension:
    """GF(101^3) stores its elements as Kronecker-packed ints, q being past
    the log-table bound: graded pieces against the public-arithmetic oracle of
    conftest, a Frobenius fixed space and a descent round trip."""

    @pytest.fixture(scope="class")
    def gf101_3(self):
        tower = FieldTower(101, 3)
        assert tower.c_coeffs(tower.c_one) == (1, 0, 0)
        return tower

    @staticmethod
    def oracle_piece(ring, gens, degree, reduce=lambda f: f):
        """The RREF of the monomial multiples of ``gens`` in ``degree``, by
        conftest's echelon on coordinates over every monomial of it."""
        monos = monomials_of_degree(ring, degree)
        rows = echelon(ring.tower, [coords_of(reduce(f), monos)
                                    for f in piece_monomial_multiples(gens, degree, ring)])
        return [sum((m * c for m, c in zip(monos, row)), ring.zero()) for row in rows]

    @pytest.mark.parametrize("degree", [(1, 1), (2, 1), (2, 2)])
    def test_pieces_against_oracle(self, gf101_3, degree):
        ring = make_product_projective([1, 1], gf101_3).ring
        gens = [ring.parse("x0 + t*x1"), ring.parse("t^2*x0*y0 + x1*y1 + 5*t*x0*y1")]
        ideal = IdealHandle(ring, gens)
        degree = Multidegree(degree)
        lower = [g for g in gens if g.multidegree() != degree]
        assert graded_piece_basis(ideal, degree) == self.oracle_piece(ring, gens, degree)
        assert lower_piece_basis(ideal, degree) == self.oracle_piece(ring, lower, degree)

    @pytest.mark.parametrize("degree", [(1,), (2,), (3,)])
    def test_pieces_modulo_the_quadric_against_oracle(self, gf101_3, degree):
        ring = make_segre_p1p1(gf101_3).ring
        gens = [ring.parse("t*z00 + z01"), ring.parse("z01*z10 + t^2*z00^2 + 3*z11^2")]
        ideal = IdealHandle(ring, gens)
        degree = Multidegree(degree)
        lower = [g for g in gens if g.multidegree() != degree]
        reduce = defining_ideal(ring).normal_form
        assert graded_piece_basis(ideal, degree) == self.oracle_piece(ring, gens, degree, reduce)
        assert lower_piece_basis(ideal, degree) == self.oracle_piece(ring, lower, degree, reduce)

    def test_frobenius_fixed_space_is_rational(self, gf101_3):
        ring = make_product_projective([1, 1], gf101_3).ring
        frob = SemilinearAction(ring, 1, {})
        u, v = ring.parse("x0*y0 + 2*x1*y1"), ring.parse("x0*y1 - x1*y0")
        t = ring.tower.gen()
        got = fixed_space(frob, [u * t + v, u * t**2 + v * 2], 1)
        assert len(got) == 2
        for g in got:
            assert apply_action(frob, g) == g
            assert all(c.coeffs[1:] == (0, 0) for _, c in g.terms)
        assert spans_match(ring, got, [u, v])

    def test_descend_round_trip(self, gf101_3):
        amb = make_product_projective([1, 1], gf101_3)
        ring = amb.ring
        # the swap composed with Frobenius has order 6; the stabilizer of
        # each class is Frobenius squared, which moves both generators
        swap = SemilinearAction(ring, 1, {"x0": "y0", "x1": "y1", "y0": "x0", "y1": "x1"})
        assert swap.order == 6
        fs = [ring.parse("t*x0 + 2*t*x1"), ring.parse("t^2*y0 + 2*t^2*y1")]
        assert all(apply_action(swap, f, 2) != f for f in fs)
        res = descend(amb, swap, fs)
        assert ideal_equal(IdealHandle(ring, res.new_gens), IdealHandle(ring, fs))
        assert res.orbit_blocks == [(0, 2)]
        assert all(din == dout for din, dout in res.degree_log)
        for g in res.new_gens:
            assert apply_action(swap, g, 2) == g
        assert {str(apply_action(swap, g).monic()) for g in res.new_gens} == \
            {str(g.monic()) for g in res.new_gens}


class TestSegreQuotient:
    """Descent and graded pieces in a quotient Cox ring."""

    @pytest.fixture(scope="class")
    def segre9(self, gf9):
        return make_segre_p1p1(gf9)

    @pytest.fixture(scope="class")
    def swap9(self, segre9):
        # z01 <-> z10 preserves the defining quadric z00*z11 - z01*z10
        return SemilinearAction(segre9.ring, 1, {"z01": "z10", "z10": "z01"})

    def test_descend_twisted_point(self, segre9, swap9):
        ring = segre9.ring
        fs = [ring.parse("t*z00"), ring.parse("t*z11")]
        # Frobenius sends t to -t, so phase 1 has to replace both generators
        assert all(apply_action(swap9, f) == -f for f in fs)
        res = descend(segre9, swap9, fs)
        assert len(res.new_gens) == 2
        for g in res.new_gens:
            assert apply_action(swap9, g) == g
        assert ideal_equal(IdealHandle(ring, res.new_gens), IdealHandle(ring, fs))
        assert res.degree_log == [(Multidegree((1,)), Multidegree((1,)))] * 2

    def test_graded_pieces_modulo_the_quadric(self, segre9):
        ring = segre9.ring
        assert defining_ideal(ring) is defining_ideal(ring)
        ideal = IdealHandle(ring, [ring.parse("z00"), ring.parse("z11")])
        full = graded_piece_basis(ideal, Multidegree((2,)))
        lower = lower_piece_basis(ideal, Multidegree((2,)))
        # of the 10 quadrics, z01*z10 is the leading term of the relation;
        # z00*z11 is counted once, and z01^2, z10^2 are left outside the ideal
        assert len(monomials_of_degree(ring, Multidegree((2,)))) == 10
        assert len(full) == 7
        assert spans_match(ring, full, lower)
        lead = ring.parse("z01*z10").leading_exponent()
        for f in full:
            assert f.coefficient(lead).is_zero()
            assert defining_ideal(ring).normal_form(f) == f
        assert len(graded_piece_basis(ideal, Multidegree((1,)))) == 2
        assert lower_piece_basis(ideal, Multidegree((1,))) == []


class TestIncidenceQuotient:
    """Phase 2 over a quotient ring whose degree orbit has two classes: the
    incidence variety x0*y0 + x1*y1 + x2*y2 = 0 in P^2 x P^2, with the swap
    x_i <-> y_i composed with Frobenius."""

    def test_descend_reassembles_the_orbit(self, gf9):
        xs, ys = ["x0", "x1", "x2"], ["y0", "y1", "y2"]
        ring = MultigradedRing(gf9, xs + ys, [(1, 1, 1, 0, 0, 0), (0, 0, 0, 1, 1, 1)],
                               defining=["x0*y0 + x1*y1 + x2*y2"],
                               irrelevant=["%s*%s" % (x, y) for x in xs for y in ys])
        amb = make_custom(ring)
        swap = SemilinearAction(ring, 1, {**dict(zip(xs, ys)), **dict(zip(ys, xs))})
        fs = [ring.parse("x0"), ring.parse("t*y0")]
        res = descend(amb, swap, fs)
        # x0 is the class representative; t*y0 gives way to its conjugate y0
        assert [str(g) for g in res.new_gens] == ["x0", "y0"]
        assert res.orbit_blocks == [(0, 2)]
        assert ideal_equal(IdealHandle(ring, res.new_gens), IdealHandle(ring, fs))


@pytest.mark.parametrize("patch, message", [
    ("D.ideal_equal = lambda a, b: False",
     "descent output generates a different ideal"),
    ("D._monic_key = lambda f: object()",
     "orbit block is not closed under the action"),
])
def test_final_checks_survive_optimized_mode(patch, message):
    # the input needs neither phase, so only the final verification runs
    # the patched helper; under -O a bare assert would let it pass
    code = "\n".join([
        "import coxdescent.descent as D",
        "from coxdescent import FieldTower, SemilinearAction, make_product_projective",
        "amb = make_product_projective([1, 1], FieldTower(3, 2))",
        "swap = SemilinearAction(amb.ring, 1, {'x0': 'y0', 'x1': 'y1', 'y0': 'x0', 'y1': 'x1'})",
        patch,
        "try:",
        "    D.descend(amb, swap, [amb.ring.parse('x0*y0 + x1*y1')])",
        "except AssertionError as exc:",
        "    print(exc)",
    ])
    proc = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == message + "\n"
