import itertools
import time

import pytest
from hypothesis import given, settings, strategies as st

from coxdescent import (ExponentCapError, FieldTower, IdealHandle, InhomogeneousError,
                        Multidegree, MultigradedRing, RingMismatchError,
                        SaturationDirectionError, UnitIdealError, ambient_dimension,
                        dimension, height, ideal_equal, intersect, is_strict_ci,
                        make_product_projective, monomials_of_degree, normal_form,
                        reduced_gb, saturate, subscheme_ideal)
from coxdescent import groebner as G
from coxdescent.rings import EXPONENT_CAP

from conftest import (SMALL_AMBIENT_DEGREES, coords_of, echelon, eliminating_saturate,
                      grevlex_key, in_span, membership_oracle, piece_monomial_multiples,
                      random_poly, seeded, small_ambients, sparse_poly)


@pytest.fixture(scope="module")
def amb(gf101):
    return make_product_projective([1, 1], gf101)


@pytest.fixture(scope="module")
def ring(amb):
    return amb.ring


def mk(ring, *texts):
    return IdealHandle(ring, [ring.parse(s) for s in texts])


# small homogeneous ideals on P1xP1 over GF(101): a seed and the generators' degrees
SMALL_DEGREES = [(1, 0), (0, 1), (1, 1), (2, 0), (2, 1), (1, 2), (2, 2)]
small_ideal_specs = st.tuples(st.integers(0, 2 ** 32),
                              st.lists(st.sampled_from(SMALL_DEGREES), min_size=1, max_size=3))


def ideal_of_spec(ring, spec):
    seed, degrees = spec
    rng = seeded(seed)
    return IdealHandle(ring, [sparse_poly(ring, Multidegree(d), rng) for d in degrees])


def assert_basis_as_from_scratch(h):
    """A handle with a prefilled basis agrees with one that computes it."""
    assert h.reduced_gb() == IdealHandle(h.ring, h.gens).reduced_gb()


class TestReducedGB:
    def test_coprime_leading_monomials(self, ring):
        gb = mk(ring, "x0*y0", "x1*y1").reduced_gb()
        assert {str(g) for g in gb} == {"x0*y0", "x1*y1"}

    def test_row_reduction(self, ring):
        gb = mk(ring, "x0", "x0 + y0").reduced_gb()
        assert [str(g) for g in gb] == ["x0", "y0"]

    def test_already_interreduced(self, ring):
        gb = mk(ring, "x0*y0^2", "x1^2*y1").reduced_gb()
        assert {str(g) for g in gb} == {"x0*y0^2", "x1^2*y1"}

    def test_zero_ideal(self, ring):
        assert mk(ring).reduced_gb() == []
        assert IdealHandle(ring, [ring.zero()]).reduced_gb() == []

    def test_memoized_and_stable(self, ring):
        ideal = mk(ring, "x0*y0 + x1*y1", "x0*y1")
        first = ideal.reduced_gb()
        assert ideal.reduced_gb() == first

    def test_monic_and_sorted(self, ring):
        gb = mk(ring, "3*x0*y0 + x1*y1", "5*x0*y1").reduced_gb()
        for g in gb:
            assert g.leading_coefficient() == ring.tower.one()
        keys = [grevlex_key(g.leading_exponent()) for g in gb]
        assert keys == sorted(keys)

    def test_spolys_reduce_to_zero(self, ring):
        # post-hoc Buchberger criterion on a nontrivial ideal
        rng = seeded(5)
        polys = [random_poly(ring, Multidegree((1, 1)), rng),
                 random_poly(ring, Multidegree((2, 1)), rng),
                 random_poly(ring, Multidegree((1, 2)), rng)]
        ideal = IdealHandle(ring, polys)
        gb = ideal.reduced_gb()
        for f, g in itertools.combinations(gb, 2):
            ef, eg = f.leading_exponent(), g.leading_exponent()
            lcm = tuple(max(a, b) for a, b in zip(ef, eg))
            mf = ring.monomial(tuple(l - a for l, a in zip(lcm, ef)))
            mg = ring.monomial(tuple(l - a for l, a in zip(lcm, eg)))
            spoly = mf * f - mg * g
            assert ideal.normal_form(spoly).is_zero()

    def test_gens_reduce_to_zero(self, ring):
        rng = seeded(11)
        polys = [random_poly(ring, Multidegree((2, 2)), rng) for _ in range(3)]
        ideal = IdealHandle(ring, polys)
        for g in polys:
            assert ideal.normal_form(g).is_zero()


class TestNormalForm:
    def test_member(self, ring):
        assert normal_form(ring.parse("x0*y0 + x1*y1"),
                           mk(ring, "x0*y0", "x1*y1")).is_zero()

    def test_nonmember_is_fixed(self, ring):
        nf = normal_form(ring.parse("x0*x1"), mk(ring, "x0*y0", "x1*y1"))
        assert str(nf) == "x0*x1"

    def test_unit_ideal_constant(self, ring):
        assert str(normal_form(ring.one(), mk(ring, "x0"))) == "1"

    def test_idempotent(self, ring):
        rng = seeded(23)
        ideal = mk(ring, "x0*y0", "x1*y1 + x0*y1")
        for _ in range(10):
            f = random_poly(ring, Multidegree((2, 2)), rng)
            nf = ideal.normal_form(f)
            assert ideal.normal_form(nf) == nf


class TestIdealEqual:
    def test_same_span(self, ring):
        assert ideal_equal(mk(ring, "x0", "y0"), mk(ring, "x0 + y0", "y0"))

    def test_saturation_differs(self, amb, ring):
        ideal = mk(ring, "x0*y0", "x1*y1")
        sat = saturate(ideal, amb.irrelevant_ideal())
        assert not ideal_equal(ideal, sat)

    def test_zero_ideals(self, ring):
        assert ideal_equal(mk(ring), IdealHandle(ring, [ring.zero()]))


class TestSaturate:
    def test_zero_direction_rejected(self, ring):
        with pytest.raises(SaturationDirectionError):
            saturate(mk(ring, "x0"), mk(ring))

    def test_known_membership(self, amb, ring):
        sat = saturate(mk(ring, "x0*y0", "x1*y1"), amb.irrelevant_ideal())
        assert sat.contains(ring.parse("x0*x1"))

    def test_fat_point(self, amb, ring):
        sat = saturate(mk(ring, "x0", "x1*y0"), amb.irrelevant_ideal())
        assert [str(g) for g in sat.reduced_gb()] == ["x0", "y0"]

    def test_variables_named_like_the_auxiliary_one(self, gf101):
        # elimination adds an unnamed auxiliary exponent coordinate, so
        # ring variables named like an auxiliary variable must not matter
        r = MultigradedRing(gf101, ["aux_z", "aux_z_", "y"], grading=[[1, 1, 1]])
        sat = saturate(mk(r, "aux_z*y", "aux_z_*y^2"), mk(r, "y"))
        assert [str(g) for g in sat.reduced_gb()] == ["aux_z", "aux_z_"]
        both = intersect(mk(r, "aux_z"), mk(r, "y"))
        assert [str(g) for g in both.reduced_gb()] == ["aux_z*y"]

    def test_nonreduced_membership(self, amb, ring):
        ideal = mk(ring, "x0*y0^2", "x1^2*y1")
        sat = saturate(ideal, amb.irrelevant_ideal())
        f = ring.parse("x0^2*x1^2")
        assert sat.contains(f)
        assert not ideal.contains(f)

    def test_full_saturation_against_point_pair_oracle(self, amb, ring):
        # the saturation of (x0y0, x1y1) is the ideal of the two points
        # {x0=y1=0} and {x1=y0=0}, i.e. (x0,y1) intersect (x1,y0); check the
        # intersection degree by degree with plain linear algebra
        sat = saturate(mk(ring, "x0*y0", "x1*y1"), amb.irrelevant_ideal())
        assert {str(g) for g in sat.reduced_gb()} == {
            "x0*x1", "x0*y0", "x1*y1", "y0*y1"}
        a_gens = [ring.parse("x0"), ring.parse("y1")]
        b_gens = [ring.parse("x1"), ring.parse("y0")]
        sat_gens = list(sat.reduced_gb())
        for a in range(4):
            for b in range(4):
                deg = Multidegree((a, b))
                monos = monomials_of_degree(ring, deg)
                rows_a = [coords_of(m, monos) for m in
                          piece_monomial_multiples(a_gens, deg, ring)]
                rows_b = [coords_of(m, monos) for m in
                          piece_monomial_multiples(b_gens, deg, ring)]
                rows_s = [coords_of(m, monos) for m in
                          piece_monomial_multiples(sat_gens, deg, ring)]
                ea = echelon(ring.tower, rows_a)
                eb = echelon(ring.tower, rows_b)
                es = echelon(ring.tower, rows_s)
                both = [r for r in es
                        if in_span(ring.tower, r, ea) and in_span(ring.tower, r, eb)]
                # piece of the saturation = piece of the intersection
                assert len(both) == len(es)
                inter = [r for r in echelon(ring.tower, rows_a + rows_b)]
                dim_a, dim_b = len(ea), len(eb)
                dim_int = dim_a + dim_b - len(inter)
                assert len(es) == dim_int

    def test_contains_input_and_idempotent(self, amb, ring):
        rng = seeded(17)
        g = amb.irrelevant_ideal()
        for _ in range(5):
            ideal = IdealHandle(ring, [
                random_poly(ring, Multidegree((1, 1)), rng),
                random_poly(ring, Multidegree((2, 1)), rng)])
            sat = saturate(ideal, g)
            assert sat.contains_ideal(ideal)
            assert ideal_equal(saturate(sat, g), sat)

    def test_saturate_by_itself_is_unit(self, amb, ring):
        ideal = mk(ring, "x0*y0", "x1*y1")
        assert saturate(ideal, ideal).is_unit()

    @settings(max_examples=40, deadline=None)
    @given(small_ideal_specs, small_ideal_specs)
    def test_contains_ideal_and_is_idempotent_property(self, amb, ring, spec, direction_spec):
        ideal = ideal_of_spec(ring, spec)
        for direction in (amb.irrelevant_ideal(), ideal_of_spec(ring, direction_spec)):
            sat = saturate(ideal, direction)
            assert sat.contains_ideal(ideal)
            assert_basis_as_from_scratch(sat)
            again = saturate(sat, direction)
            assert ideal_equal(again, sat)
            assert_basis_as_from_scratch(again)


class TestIntersect:
    @settings(max_examples=40, deadline=None)
    @given(small_ideal_specs, small_ideal_specs)
    def test_lies_in_both_and_contains_products_property(self, ring, spec_a, spec_b):
        a, b = ideal_of_spec(ring, spec_a), ideal_of_spec(ring, spec_b)
        both = intersect(a, b)
        assert a.contains_ideal(both) and b.contains_ideal(both)
        assert all(both.contains(f * g) for f in a.gens for g in b.gens)
        assert_basis_as_from_scratch(both)

    def test_principal_ideals(self, ring):
        got = intersect(mk(ring, "x0"), mk(ring, "y0"))
        assert [str(g) for g in got.reduced_gb()] == ["x0*y0"]

    def test_agrees_with_piecewise_oracle(self, ring):
        a = mk(ring, "x0", "y1")
        b = mk(ring, "x1", "y0")
        got = intersect(a, b)
        for a_, b_ in [(2, 1), (1, 1), (2, 2)]:
            deg = Multidegree((a_, b_))
            monos = monomials_of_degree(ring, deg)
            rows = [coords_of(m, monos) for m in
                    piece_monomial_multiples(list(got.reduced_gb()), deg, ring)]
            for m in monomials_of_degree(ring, deg):
                inside = (a.contains(m) and b.contains(m))
                assert in_span(ring.tower, coords_of(m, monos),
                               echelon(ring.tower, rows)) == inside


class TestDimensionHeight:
    def test_point_ideal(self, ring):
        assert dimension(mk(ring, "x0", "y0")) == 2

    def test_two_point_union_by_subset_oracle(self, ring):
        ideal = mk(ring, "x0*y0", "x1*y1")
        assert dimension(ideal) == 2
        # brute-force all 16 variable subsets against the LT supports
        supports = [set(i for i, e in enumerate(g.leading_exponent()) if e)
                    for g in ideal.reduced_gb()]
        best = 0
        for mask in range(16):
            subset = {i for i in range(4) if mask >> i & 1}
            if all(not s <= subset for s in supports):
                best = max(best, len(subset))
        assert best == 2

    def test_zero_ideal(self, ring):
        assert dimension(mk(ring)) == 4

    def test_unit_ideal_errors(self, ring):
        with pytest.raises(UnitIdealError):
            dimension(mk(ring, "1"))
        with pytest.raises(UnitIdealError):
            height(mk(ring, "x0", "x1", "1"))

    def test_heights(self, amb, ring):
        assert height(mk(ring, "x0*y0", "x1*y1")) == 2
        assert height(amb.irrelevant_ideal()) == 2
        assert height(mk(ring, "x0")) == 1

    def test_dimension_subset_oracle_random(self, gf101):
        ring = make_product_projective([1, 2], gf101).ring
        rng = seeded(41)
        for _ in range(5):
            ideal = IdealHandle(ring, [
                random_poly(ring, Multidegree((1, 1)), rng),
                random_poly(ring, Multidegree((0, 2)), rng)])
            supports = [set(i for i, e in enumerate(g.leading_exponent()) if e)
                        for g in ideal.reduced_gb()]
            n = len(ring.variables)
            best = 0
            for mask in range(1 << n):
                subset = {i for i in range(n) if mask >> i & 1}
                if all(not s <= subset for s in supports):
                    best = max(best, len(subset))
            assert dimension(ideal) == best

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 10), st.integers(0, 2 ** 32))
    def test_dimension_subset_oracle_monomial_property(self, gf101, n, seed):
        rng = seeded(seed)
        ring = MultigradedRing(gf101, ["v%d" % i for i in range(n)], grading=[(1,) * n])
        monomials = ["*".join("v%d" % i for i in rng.sample(range(n), rng.randint(1, n)))
                     for _ in range(rng.randint(0, 6))]
        ideal = mk(ring, *monomials)
        supports = [set(i for i, e in enumerate(g.leading_exponent()) if e)
                    for g in ideal.reduced_gb()]
        best = max(bin(mask).count("1") for mask in range(1 << n)
                   if all(not s <= {i for i in range(n) if mask >> i & 1} for s in supports))
        assert dimension(ideal) == best

    def test_dimension_of_path_edge_ideal_budget(self, gf101):
        # the edges v_i*v_{i+1} of a path on 22 vertices: a smallest vertex
        # cover has 11 vertices; every variable subset of size 12 up to 22
        # meets an edge, so a search by subset size is slow here
        n = 22
        ring = MultigradedRing(gf101, ["v%d" % i for i in range(n)], grading=[(1,) * n])
        ideal = mk(ring, *["v%d*v%d" % (i, i + 1) for i in range(n - 1)])
        ideal.reduced_gb()
        t0 = time.perf_counter()
        assert dimension(ideal) == 11
        assert time.perf_counter() - t0 < 0.1

    def test_ambient_dimension_polynomial_ring(self, ring):
        assert ambient_dimension(ring) == 4


class TestMembershipOracle:
    def test_matches_linear_algebra(self, ring):
        rng = seeded(101)
        gens = [random_poly(ring, Multidegree((1, 1)), rng),
                random_poly(ring, Multidegree((2, 0)), rng)]
        ideal = IdealHandle(ring, gens)
        for deg in [Multidegree((2, 1)), Multidegree((2, 2)), Multidegree((3, 1))]:
            for _ in range(8):
                f = random_poly(ring, deg, rng)
                assert ideal.contains(f) == membership_oracle(ring, f, gens)
            # known members must agree too
            m = monomials_of_degree(ring, deg - gens[0].multidegree())
            if m:
                f = rng.choice(m) * gens[0]
                assert ideal.contains(f)
                assert membership_oracle(ring, f, gens)

    def test_rings_sharing_one_table_agree_with_linear_algebra(self, p1p1, p1p1_gf9, segre):
        # three 4-variable rings over different fields, one a quotient, pack
        # through the one _grevlex(4) table; interleaved queries must not
        # mix their answers
        rng = seeded(2031)
        cases = []
        for amb, degrees, queries in ((p1p1, [(1, 1), (2, 0)], [(2, 1), (2, 2), (3, 1)]),
                                      (p1p1_gf9, [(1, 1), (0, 2)], [(1, 2), (2, 2)]),
                                      (segre, [(2,)], [(2,), (3,)])):
            ring = amb.ring
            gens = [random_poly(ring, Multidegree(d), rng) for d in degrees]
            ideal = IdealHandle(ring, gens)
            assert ideal._order is G._grevlex(4)
            cases.append((ring, ideal, gens + list(ring.defining), queries))
        answers = []
        for _ in range(4):
            for ring, ideal, gens, queries in cases:
                for deg in map(Multidegree, queries):
                    # a random form, and a combination of the generators
                    member = ring.zero()
                    for g in gens:
                        if monomials_of_degree(ring, deg - g.multidegree()):
                            member = member + random_poly(ring, deg - g.multidegree(), rng) * g
                    for f in (random_poly(ring, deg, rng), member):
                        answers.append(ideal.contains(f))
                        assert answers[-1] == membership_oracle(ring, f, gens)
        assert len(set(answers)) == 2


class TestSaturatedByHigherHeightDirection:
    def test_low_height_ideal_saturated_against_high_height_direction(self):
        # ideals of height = #gens are saturated with respect to any
        # direction of strictly larger height in a polynomial ring
        tw = FieldTower(101)
        ring = MultigradedRing(tw, ["x", "y", "z", "w"], grading=[[1, 1, 1, 1]])
        g = IdealHandle(ring, list(ring.gens()))
        rng = seeded(59)
        done = 0
        while done < 8:
            s = rng.choice([1, 2])
            fs = [random_poly(ring, Multidegree((rng.choice([1, 2]),)), rng)
                  for _ in range(s)]
            ideal = IdealHandle(ring, fs)
            if height(ideal) != s:
                continue
            assert ideal_equal(saturate(ideal, g), ideal)
            done += 1


@pytest.fixture(scope="module")
def ambients(gf101):
    return small_ambients(gf101)


def random_monomial_direction(ring, rng):
    """One to three monomial generators with exponents 0..2; the constant 1
    (the unit direction) comes up too."""
    return IdealHandle(ring, [ring.monomial([rng.randrange(3) for _ in range(ring.nvars)],
                                            rng.randrange(1, 101))
                              for _ in range(rng.randint(1, 3))])


def record_buchberger_orders(monkeypatch):
    """The monomial orders of the Buchberger runs from now on, in call order."""
    orders = []
    run = G._buchberger

    def recording(tower, order, polys, *stop):
        orders.append(order)
        return run(tower, order, polys, *stop)

    monkeypatch.setattr(G, "_buchberger", recording)
    return orders


class TestBayerSaturation:
    @settings(max_examples=80, deadline=None)
    @given(st.sampled_from(sorted(SMALL_AMBIENT_DEGREES)), st.integers(0, 2 ** 32),
           st.booleans())
    def test_equals_elimination_property(self, ambients, name, seed, irrelevant):
        amb = ambients[name]
        ring = amb.ring
        rng = seeded(seed)
        degrees = SMALL_AMBIENT_DEGREES[name]
        ideal = IdealHandle(ring, [sparse_poly(ring, Multidegree(rng.choice(degrees)), rng)
                                   for _ in range(rng.randint(1, 3))])
        direction = (amb.irrelevant_ideal() if irrelevant
                     else random_monomial_direction(ring, rng))
        assert (saturate(ideal, direction).reduced_gb()
                == eliminating_saturate(ideal, direction).reduced_gb())

    @settings(max_examples=80, deadline=None)
    @given(st.sampled_from(sorted(SMALL_AMBIENT_DEGREES)), st.integers(0, 2 ** 32))
    def test_uncertified_prime_falls_back_property(self, ambients, name, seed):
        # x0*(f_1, ...) + (h) has the component V(x0, h) inside {x0 = 0}:
        # I : x0^inf drops it and I : P^inf keeps it unless it lies in V(P),
        # so the certificate mostly fails and the per-variable steps decide
        amb = ambients[name]
        ring = amb.ring
        rng = seeded(seed)
        degrees = SMALL_AMBIENT_DEGREES[name]
        x0 = ring.gens()[0]
        forms = [x0 * sparse_poly(ring, Multidegree(rng.choice(degrees)), rng)
                 for _ in range(rng.randint(1, 2))]
        ideal = IdealHandle(ring, forms + [sparse_poly(ring, Multidegree(rng.choice(degrees)), rng)])
        direction = amb.irrelevant_ideal()
        assert (saturate(ideal, direction).reduced_gb()
                == eliminating_saturate(ideal, direction).reduced_gb())

    def test_one_conversion_per_prime_of_a_not_strict_verdict(self, gf101, monkeypatch):
        # on P2xP2 both primes hold a component of a CI of degrees (1,1),
        # (1,1), (2,1).  The x-prime converts once, to x2 last; the y-prime
        # starts from the grevlex rebuild, which is y2's order.  Each first
        # step is certified, so no other variable takes a step
        amb = make_product_projective([2, 2], gf101)
        ring = amb.ring
        rng = seeded(0)
        polys = [random_poly(ring, Multidegree(d), rng) for d in [(1, 1), (1, 1), (2, 1)]]
        steps = []
        step = G._saturate_variable
        monkeypatch.setattr(G, "_saturate_variable",
                            lambda ring, basis, i: steps.append(i) or step(ring, basis, i))

        def refuse(*args):
            raise AssertionError("met")

        monkeypatch.setattr(G, "_meet", refuse)
        orders = record_buchberger_orders(monkeypatch)
        assert is_strict_ci(amb, polys).status == "not_strict"
        grevlex = G._grevlex(ring.nvars)
        assert [k for k in orders if k is not grevlex] == [G._bayer(ring._weights[1], 2)]
        assert steps == [2, 5]

    def test_certificate_stops_at_the_exponent_cap(self, amb, ring, monkeypatch):
        # J = I : x1^inf = (y0, y1^(cap-2)), with x1^3 divided out.  The
        # certificate's one shift takes y1^(cap-2) by x0^3 to degree cap + 1,
        # past the cap, so the shift test falls back before any reduction of
        # it: no normal form reads a term above degree cap - 2.  x0 is no
        # zero divisor modulo I, so I : P^inf = I
        cap = EXPONENT_CAP
        ideal = mk(ring, "x1^3*y0", "x1*y1^%d" % (cap - 2), "x1*y0*y1")
        degrees = []
        nf = G._normal_form_dict

        def recording(h, gb, tower, order, zero_test=False):
            if h:
                degrees.append(max(h) >> order.top)
            return nf(h, gb, tower, order, zero_test)

        monkeypatch.setattr(G, "_normal_form_dict", recording)
        direction = mk(ring, "x0", "x1")
        assert saturate(ideal, direction).equals(ideal)
        assert max(degrees) == cap - 2
        monkeypatch.undo()
        assert ideal.equals(eliminating_saturate(ideal, direction))
        # the y-prime's step by y1 gives J = (x1) with k = cap - 2; one
        # normal form shows that x1*y0^(cap-2) is not in I, and the
        # per-variable steps decide
        sat = saturate(ideal, amb.irrelevant_ideal())
        assert [str(g) for g in sat.reduced_gb()] == ["x1^3", "x1*y1"]

    def test_certificate_takes_one_normal_form_per_shift(self, amb, ring, monkeypatch):
        # the y-prime's step by y1 divides y1^16381 out: J = I : y1^inf = (x0)
        # with k = 16381, and x0*y0^j lies in I for no j.  A chain of
        # x0*y0^j, j <= k, would take 16381 normal forms; the one shift by
        # y0^k passes the cap at once, and the step by y0 decides
        ideal = mk(ring, "x0^3*y0", "x0*y1^16381", "x0*y0*y1")
        calls = []
        nf = G._normal_form_dict
        monkeypatch.setattr(G, "_normal_form_dict", lambda *args, **kw: calls.append(1) or nf(*args, **kw))
        sat = saturate(ideal, amb.irrelevant_ideal())
        assert [str(g) for g in sat.reduced_gb()] == ["x0^3", "x0*y1"]
        assert len(calls) < 100

    def test_monomial_direction_runs_no_elimination(self, ambients, monkeypatch):
        def refuse(*args):
            raise AssertionError("eliminated")

        monkeypatch.setattr(G, "saturate_single", refuse)
        monkeypatch.setattr(G, "intersect", refuse)
        ring = ambients["p1p1"].ring
        sat = saturate(mk(ring, "x0", "x1*y0"), ambients["p1p1"].irrelevant_ideal())
        assert [str(g) for g in sat.reduced_gb()] == ["x0", "y0"]

    def test_meet_intersects_through_the_elimination(self, ambients, monkeypatch):
        calls = []
        orig = G._intersect
        monkeypatch.setattr(G, "_intersect", lambda *args: calls.append(args) or orig(*args))
        amb = ambients["p1p1"]
        ring = amb.ring
        # I : x0^inf = (y0, x1^2*y1) and I : x1^inf = (x0^2*y0, y1): neither
        # contains the other, so the prime (x0, x1) needs their intersection
        v = is_strict_ci(amb, [ring.parse("x0^2*y0"), ring.parse("x1^2*y1")])
        assert (v.status, str(v.witness)) == ("not_strict", "x0^2*x1^2")
        assert calls
        calls.clear()
        saturate(mk(ring, "x0", "x1*y0"), amb.irrelevant_ideal())
        assert not calls

    def test_only_a_meet_is_scanned_against_the_ideal(self, ambients, monkeypatch):
        # a part other than I's own basis object strictly contains I: a
        # Bayer step divides a lead term out, and a single saturation equal
        # to I is passed as I's basis.  So no scan precedes the first meet,
        # and each meet takes three: two in _meet, one against I
        calls = []
        for name in ("_first_outside", "_meet"):
            orig = getattr(G, name)
            monkeypatch.setattr(G, name, lambda *args, name=name, orig=orig:
                                calls.append(name) or orig(*args))
        amb = ambients["p1p1"]
        ring = amb.ring
        # both primes' certificates fail, so each meets its two steps
        sat = saturate(mk(ring, "x0*y0", "x1*y1"), amb.irrelevant_ideal())
        assert [str(g) for g in sat.reduced_gb()] == ["x0*x1", "x0*y0", "x1*y1", "y0*y1"]
        assert calls == 2 * (["_meet"] + ["_first_outside"] * 3)
        # x0 + x1 is no zero divisor modulo I, so its single saturation is I
        calls.clear()
        ideal = mk(ring, "x0*y0 - x1*y1")
        assert ideal_equal(saturate(ideal, mk(ring, "x0 + x1")), ideal)
        assert calls == []

    def test_one_grevlex_rebuild_after_the_last_step(self, ambients, monkeypatch):
        ring = ambients["p1p1"].ring
        ideal = mk(ring, "x0*y0", "x1*y1")
        ideal.reduced_gb()
        orders = record_buchberger_orders(monkeypatch)
        sat = saturate(ideal, mk(ring, "x0*x1"))
        assert [str(g) for g in sat.reduced_gb()] == ["y0", "y1"]
        # the step by x1 starts from the basis the step by x0 left, in its
        # own order; grevlex comes once, at the end
        grevlex = G._grevlex(ring.nvars)
        assert [k is grevlex for k in orders] == [False, False, True]
        assert orders[:2] == [G._bayer(ring._weights[1], 0), G._bayer(ring._weights[1], 1)]

    def test_last_variable_step_on_p1p1_runs_no_conversion(self, ambients, monkeypatch):
        # equal weights and y1 last: the x-last order is grevlex itself
        ring = ambients["p1p1"].ring
        ideal = mk(ring, "x0*y1", "x1*y0*y1")
        ideal.reduced_gb()
        orders = record_buchberger_orders(monkeypatch)
        sat = saturate(ideal, mk(ring, "y1"))
        assert [str(g) for g in sat.reduced_gb()] == ["x1*y0", "x0"]
        assert orders == []
        assert G._bayer(ring._weights[1], ring.nvars - 1) is G._grevlex(ring.nvars)

    def test_binomial_direction_eliminates(self, ring, monkeypatch):
        calls = []
        orig = G.saturate_single
        monkeypatch.setattr(G, "saturate_single",
                            lambda ideal, g: calls.append(g) or orig(ideal, g))
        ideal = mk(ring, "x0*y0 - x1*y1")
        assert ideal_equal(saturate(ideal, mk(ring, "x0 + x1")), ideal)
        assert calls

    def test_unit_direction_leaves_ideal(self, ring):
        ideal = mk(ring, "x0*y0", "x1^2*y1")
        assert ideal_equal(saturate(ideal, mk(ring, "3")), ideal)

    def test_exponent_200_budget(self, amb, ring):
        # one Bayer step divides x0^200 out at once; the elimination built
        # every power of x0 in between (1.7 s on a 2-vCPU VM)
        ideal = mk(ring, "x0^200*y0", "x1^200*y1")
        start = time.perf_counter()
        sat = saturate(ideal, amb.irrelevant_ideal())
        assert time.perf_counter() - start < 0.1
        # the pattern of the exponent-2 case, which the elimination confirms
        assert [str(g) for g in sat.reduced_gb()] == [
            "x0^200*x1^200", "x0^200*y0", "x1^200*y1", "y0*y1"]
        small = mk(ring, "x0^2*y0", "x1^2*y1")
        assert [str(g) for g in eliminating_saturate(small, amb.irrelevant_ideal()).reduced_gb()] == [
            "x0^2*x1^2", "x0^2*y0", "x1^2*y1", "y0*y1"]


class TestTailHint:
    """_reduce_basis takes the normal form only of the tails that a leading
    term it is told of can divide: after a Buchberger run, those of the
    elements made later; after a Bayer division, those of the divided."""

    @staticmethod
    def full_reduction(gb, tower, order):
        # the minimal basis, every tail in normal form modulo it
        kept = []
        for lt, tail in sorted(gb, key=lambda pair: pair[0]):
            if not any(order.divides(k, lt) for k, _ in kept):
                kept.append((lt, tail))
        kept.reverse()
        return [(lt, G._normal_form_dict(tail, kept, tower, order)) for lt, tail in kept]

    @settings(max_examples=80, deadline=None)
    @given(st.sampled_from(sorted(SMALL_AMBIENT_DEGREES)), st.integers(0, 2 ** 32))
    def test_hint_keeps_the_full_reduction_property(self, ambients, name, seed):
        amb = ambients[name]
        ring = amb.ring
        rng = seeded(seed)
        degrees = SMALL_AMBIENT_DEGREES[name]
        ideal = IdealHandle(ring, [sparse_poly(ring, Multidegree(rng.choice(degrees)), rng)
                                   for _ in range(rng.randint(1, 3))])
        agreed = []
        run = G._reduce_basis

        def checked(gb, tower, order, since):
            got = run(gb, tower, order, since)
            agreed.append(got == self.full_reduction(gb, tower, order))
            return got

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(G, "_reduce_basis", checked)
            ideal._pairs()
            saturate(ideal, amb.irrelevant_ideal())
        assert agreed and all(agreed)

    def test_bayer_division_reduces_no_tail_it_cannot_change(self, ambients, monkeypatch):
        # I : y1^inf for I = (x1*y0^2 + x0*y0*y1, x1^2*y1): grevlex is y1's
        # Bayer order, so nothing is converted.  Three leads lose a power
        # of y1, and none of them divides x0*y0*y1, the one undivided tail,
        # nor a tail of the divided, so no normal form is taken
        ring = ambients["p1p1"].ring
        ideal = mk(ring, "x1*y0^2 + x0*y0*y1", "x1^2*y1")
        basis = (ideal._pairs(), ideal._order)
        reduced = []
        run = G._normal_form_dict
        monkeypatch.setattr(G, "_normal_form_dict",
                            lambda *args, **kwargs: reduced.append(args) or run(*args, **kwargs))
        (pairs, order), k, _ = G._saturate_variable(ring, basis, 3)
        assert (order, k, reduced) == (G._grevlex(4), 3, [])
        assert [str(g) for g in G._polys_of_pairs(ring, pairs)] == [
            "x0^2*y0", "x0*x1*y0", "x1*y0^2 + x0*y0*y1", "x1^2"]


def count_unpacked_bases(monkeypatch):
    """The sizes of the bases unpacked into Polynomials from now on."""
    sizes = []
    unpack = G._polys_of_pairs

    def counting(ring, pairs):
        sizes.append(len(pairs))
        return unpack(ring, pairs)

    monkeypatch.setattr(G, "_polys_of_pairs", counting)
    return sizes


class TestPackedBases:
    """Queries read the packed basis; only an explicit request unpacks it."""

    def test_queries_unpack_no_basis(self, amb, ring, monkeypatch):
        unpacked = count_unpacked_bases(monkeypatch)
        a = mk(ring, "x0*y0 + x1*y1")
        b = mk(ring, "x0*y0 + x1*y1", "x0*y1")
        assert (dimension(a), height(a), dimension(b), height(b)) == (3, 1, 2, 2)
        assert a.contains(ring.parse("x1*x0*y0 + x1^2*y1"))
        assert not a.contains(ring.parse("x0*y1"))
        assert not a.equals(b) and b.equals(mk(ring, "x0*y1", "x1*y1 + x0*y0"))
        assert b.contains_ideal(a) and not a.contains_ideal(b)
        assert is_strict_ci(amb, ["x0*y0 + x1*y1"]).status == "strict"
        assert unpacked == []
        assert [str(g) for g in b.reduced_gb()] == ["x1*y1^2", "x0*y0 + x1*y1", "x0*y1"]
        assert unpacked == [3]

    def test_result_handles_unpack_their_generators_on_first_read(self, ring, monkeypatch):
        unpacked = count_unpacked_bases(monkeypatch)
        a = mk(ring, "x0*y0", "x0*y1")
        results = [saturate(a, mk(ring, "x0")), intersect(mk(ring, "x0"), mk(ring, "y0")),
                   G.saturate_single(a, ring.parse("x0"))]
        assert unpacked == []
        for h in results:
            assert h.gens == tuple(h.reduced_gb())
            assert h.gens is h.gens
        assert [str(g) for h in results for g in h.gens] == ["y0", "y1", "x0*y0", "y0", "y1"]
        assert unpacked == [2, 2, 1, 1, 2, 2]

    def test_chained_saturation_unpacks_no_basis(self, ring, monkeypatch):
        # a saturation result's generators are its packed basis, and the next
        # saturation reads their degrees there; inhomogeneous ones still
        # take the elimination
        unpacked = count_unpacked_bases(monkeypatch)
        singles = []
        single = G.saturate_single
        monkeypatch.setattr(G, "saturate_single",
                            lambda ideal, g: singles.append(str(g)) or single(ideal, g))
        a = mk(ring, "x0*y0", "x0*y1", "x1^2*y1")
        twice = saturate(saturate(a, mk(ring, "x0")), mk(ring, "x1"))
        b = saturate(mk(ring, "x0*y0 + x1"), mk(ring, "y0"))
        again = saturate(b, mk(ring, "x1"))
        assert (singles, unpacked) == (["y0", "x1"], [])
        assert [str(g) for g in twice.reduced_gb()] == ["y0", "y1"]
        assert [str(g) for g in again.reduced_gb()] == ["x0*y0 + x1"]

    def test_subscheme_of_a_saturation_unpacks_no_basis(self, amb, ring, monkeypatch):
        sat = saturate(mk(ring, "x0*y0", "x0*x1*y1"), mk(ring, "x0"))
        unpacked = count_unpacked_bases(monkeypatch)
        sub = subscheme_ideal(amb, sat)
        assert unpacked == []
        assert [str(g) for g in sub.reduced_gb()] == ["x1", "y0"]
        # an inhomogeneous ideal is still named by its generators
        with pytest.raises(InhomogeneousError) as err:
            subscheme_ideal(amb, mk(ring, "x0 + x0*y0"))
        assert (str(err.value), err.value.monomials) == (
            "inhomogeneous polynomial: monomials x0 and x0*y0 have degrees (1,0) and (1,1)",
            ((1, 0, 0, 0), (1, 0, 1, 0)))

    @pytest.mark.parametrize("texts", [["x0"], []])
    def test_contains_ideal_across_rings(self, ring, gf101, texts):
        other = make_product_projective([1, 1], gf101).ring
        with pytest.raises(RingMismatchError):
            mk(ring, "x0").contains_ideal(mk(other, *texts))

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(sorted(SMALL_AMBIENT_DEGREES)), st.integers(0, 2 ** 32))
    def test_height_plus_prime_as_from_scratch_property(self, ambients, name, seed):
        # ht(I + P) read off I's generators and the ring's relations, or off
        # I's basis once the handle holds one, with P's terms dropped is the
        # height of the ideal of I's generators and P's variables
        ring = ambients[name].ring
        rng = seeded(seed)
        ideal = IdealHandle(ring, [sparse_poly(ring, Multidegree(rng.choice(
            SMALL_AMBIENT_DEGREES[name])), rng) for _ in range(rng.randint(1, 3))])
        built = IdealHandle(ring, ideal.gens)
        built._pairs()
        x = ring.gens()
        for c in G._monomial_primes(ring.irrelevant):
            assert (G._height_plus_prime(ideal, c) == G._height_plus_prime(built, c)
                    == height(IdealHandle(ring, list(ideal.gens) + [x[i] for i in c])))
            assert ideal._gb_pairs is None

    def test_height_plus_prime_keeps_the_relations(self, gf101):
        # y0*y1 survives modulo (x0, x1): R/(I + P) is k[y0, y1]/(y0*y1), of
        # dimension 1, so ht(I + P) = 3 - 1; without the relation it would be 1
        ring = MultigradedRing(gf101, ["x0", "x1", "y0", "y1"], [(1, 1, 0, 0), (0, 0, 1, 1)],
                               defining=["y0*y1"], irrelevant=["x0*y0", "x0*y1", "x1*y0", "x1*y1"])
        ideal = mk(ring, "x0*y0 + x1*y1")
        assert [G._height_plus_prime(ideal, c) for c in G._monomial_primes(ring.irrelevant)] == [2, 1]


class TestExponentGuard:
    """Generators within the exponent cap whose computation passes it raise
    ExponentCapError: the packed fields never carry silently."""

    def test_s_pair_lcm_at_and_past_the_cap(self, ring):
        cap = EXPONENT_CAP
        # lcm x0^a*x1^b*y0 has degree a + b + 1 = cap; one more is past it
        a, b = cap // 2, cap - 1 - cap // 2
        gb = mk(ring, "x0^%d*y0" % a, "x1^%d*y0" % b).reduced_gb()
        assert sorted(str(g) for g in gb) == ["x0^%d*y0" % a, "x1^%d*y0" % b]
        with pytest.raises(ExponentCapError, match="S-pair lcm"):
            mk(ring, "x0^%d*y0" % a, "x1^%d*y0" % (b + 1)).reduced_gb()

    def test_skipped_pairs_past_the_cap_are_harmless(self, ring):
        # coprime leading terms: the pair is never formed
        gb = mk(ring, "x0^%d" % EXPONENT_CAP, "x1^%d" % EXPONENT_CAP).reduced_gb()
        assert [str(g) for g in gb] == ["x0^%d" % EXPONENT_CAP, "x1^%d" % EXPONENT_CAP]

    def test_elimination_terms_at_and_past_the_cap(self, ring):
        cap = EXPONENT_CAP
        both = intersect(mk(ring, "x0^500"), mk(ring, "x1^%d" % (cap - 500)))
        assert [str(g) for g in both.reduced_gb()] == ["x0^500*x1^%d" % (cap - 500)]
        with pytest.raises(ExponentCapError, match="S-polynomial term"):
            intersect(mk(ring, "x0^500"), mk(ring, "x1^%d" % (cap - 499)))

    def test_elimination_reduction_term_past_the_cap(self, gf101):
        # u*x0^600 reduced by u + x1^k creates x0^600*x1^k, in the prime-field
        # loop and in the GF(p^d) one (discrete logs, packed ints); raw 1 is one
        cap = EXPONENT_CAP
        order = G._elimination(2)
        for tower in (gf101, FieldTower(101, 2), FieldTower(101, 3)):
            for k, past in ((cap - 600, False), (cap - 599, True)):
                h = order.pack_terms({(1, 600, 0): 1})
                gb = [(order.pack((1, 0, 0)), order.pack_terms({(0, 0, k): 1}))]
                if past:
                    with pytest.raises(ExponentCapError, match="reduction term"):
                        G._normal_form_dict(h, gb, tower, order)
                else:
                    assert (order.unpack_terms(G._normal_form_dict(h, gb, tower, order))
                            == {(0, 600, k): tower.c_neg(tower.c_one)})

    def test_normal_form_of_a_polynomial_past_the_cap(self, ring):
        half = EXPONENT_CAP // 2 + 1
        with pytest.raises(ExponentCapError, match="a monomial"):
            mk(ring, "x0").normal_form(ring.parse("x0^%d*x1^%d" % (half, half)))


class TestMonomialTable:
    """pack_terms looks exponents up in the order's table: the same ints as
    pack, term by term, with pack's cap check on every exponent not yet
    stored and none stored past the cap."""

    ORDERS = [lambda: G._grevlex(4), lambda: G._bayer((1, 1, 2, 2), 0),
              lambda: G._elimination(3)]

    @staticmethod
    def random_terms(rng, n, count):
        return {tuple(rng.randrange(4) for _ in range(n)): rng.randrange(1, 101)
                for _ in range(count)}

    @staticmethod
    def per_term(order, t):
        return {order.pack(e): c for e, c in t.items()}

    @pytest.mark.parametrize("make", ORDERS, ids=["grevlex", "bayer", "elimination"])
    def test_table_agrees_with_pack(self, make):
        order = make()
        rng = seeded(17)
        for _ in range(30):
            t = self.random_terms(rng, len(order.cols), rng.randint(1, 12))
            assert order.pack_terms(t) == self.per_term(order, t)
            assert order.pack_terms(t) == self.per_term(order, t)  # now all hits

    def test_interleaved_orders_keep_their_own_tables(self):
        # all three take 4-tuples: the elimination order reads (aux, e)
        orders = [make() for make in self.ORDERS]
        assert len({id(o._table) for o in orders}) == 3
        rng = seeded(23)
        dicts = [self.random_terms(rng, 4, 8) for _ in range(10)]
        for t in dicts + dicts:
            for order in orders:
                assert order.pack_terms(t) == self.per_term(order, t)

    def test_past_the_cap_raises_every_time_and_is_never_stored(self):
        order = G._grevlex(2)
        past = (EXPONENT_CAP, 1)
        order.pack_terms({(0, 1): 1, (1, 0): 2})
        for t in ({past: 1}, {past: 1}, {(0, 1): 1, (1, 0): 2, past: 3}, {past: 3, (0, 1): 1}):
            with pytest.raises(ExponentCapError, match="a monomial"):
                order.pack_terms(t)
            assert past not in order._table
        assert order.pack_terms({(EXPONENT_CAP, 0): 1}) == {order.pack((EXPONENT_CAP, 0)): 1}

    def test_bounded_table_changes_no_answer(self, p1p1, monkeypatch):
        ring = p1p1.ring
        order = G._grevlex(4)
        rng = seeded(29)
        gens = [random_poly(ring, Multidegree(d), rng) for d in ((1, 1), (2, 0))]
        queries = [random_poly(ring, Multidegree(d), rng)
                   for d in ((2, 1), (2, 2), (3, 1), (3, 3)) for _ in range(3)]
        queries += [random_poly(ring, Multidegree(d), rng) * g
                    for d in ((1, 1), (2, 2)) for g in gens]
        expected = [IdealHandle(ring, gens).contains(f) for f in queries]
        assert set(expected) == {False, True}
        bound = 5
        monkeypatch.setattr(G, "_TABLE_BOUND", bound)
        monkeypatch.setattr(order, "_table", {})
        ideal = IdealHandle(ring, gens)
        assert len(order._table) <= bound
        for f, answer in zip(queries + queries, expected + expected):
            assert order.pack_terms(f._t) == self.per_term(order, f._t)
            assert ideal.contains(f) == answer
            assert len(order._table) <= bound


class TestMinTransversals:
    @staticmethod
    def brute_force(supports, n):
        hitting = [set(c) for k in range(n + 1) for c in itertools.combinations(range(n), k)
                   if all(set(c) & s for s in supports)]
        return {frozenset(c) for c in hitting if not any(d < c for d in hitting)}

    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 7).flatmap(lambda n: st.tuples(
        st.just(n), st.lists(st.sets(st.integers(0, n - 1), min_size=1), max_size=6))))
    def test_against_subset_oracle_property(self, case):
        n, supports = case
        supports = [frozenset(s) for s in supports]
        got = G._min_transversals(supports)
        assert len(got) == len(set(got))
        assert set(got) == self.brute_force(supports, n)

    def test_empty_support_has_no_transversal(self):
        assert G._min_transversals([frozenset(), frozenset({0})]) == []

    def test_product_blocks(self, gf101):
        ring = make_product_projective([1, 2], gf101).ring
        supports = [frozenset(i for i, a in enumerate(g.leading_exponent()) if a)
                    for g in ring.irrelevant]
        assert sorted(map(sorted, G._min_transversals(supports))) == [[0, 1], [2, 3, 4]]

    def test_eight_factor_budget(self, gf101):
        # a recursive branching enumeration took 3.9 s here on a 2-vCPU VM
        ring = make_product_projective([1] * 8, gf101).ring
        supports = [frozenset(i for i, a in enumerate(g.leading_exponent()) if a)
                    for g in ring.irrelevant]
        start = time.perf_counter()
        got = G._min_transversals(supports)
        assert time.perf_counter() - start < 0.1
        assert sorted(map(sorted, got)) == [[2 * k, 2 * k + 1] for k in range(8)]
