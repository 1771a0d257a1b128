import time

import pytest
from hypothesis import example, given, settings, strategies as st

from coxdescent import (CoxAmbient, ExponentCapError, FieldTower, IdealHandle,
                        InhomogeneousError, Multidegree, MultigradedRing,
                        SaturationDirectionError, StrictCIVerdict, dimension, height,
                        ideal_equal, is_complete_intersection, is_strict_ci, make_custom,
                        make_product_projective, make_segre_p1p1, subscheme_ideal)
from coxdescent import cox, groebner
from coxdescent.cox import _cohen_macaulay
from coxdescent.groebner import (_height_plus_prime, _monomial_primes, _section_finite,
                                 ambient_dimension, defining_ideal)

from conftest import (SMALL_AMBIENT_DEGREES, eliminating_saturate, random_poly, seeded,
                      small_ambients, sparse_poly)


def mk(ring, *texts):
    return IdealHandle(ring, [ring.parse(s) for s in texts])


class TestProductConstructor:
    def test_p1p1(self, p1p1):
        names = [str(v) for v in p1p1.ring.gens()]
        assert names == ["x0", "x1", "y0", "y1"]
        irr = {str(g) for g in p1p1.irrelevant_ideal().gens}
        assert irr == {"x0*y0", "x0*y1", "x1*y0", "x1*y1"}

    def test_single_factor(self, gf101):
        amb = make_product_projective([2], gf101)
        assert [str(v) for v in amb.ring.gens()] == ["x0", "x1", "x2"]
        assert {str(g) for g in amb.irrelevant_ideal().gens} == {"x0", "x1", "x2"}

    def test_p1p2_irrelevant_count(self, p1p2):
        assert len(p1p2.ring.gens()) == 5
        assert len(p1p2.irrelevant_ideal().gens) == 6

    def test_empty_dims_rejected(self, gf101):
        with pytest.raises(ValueError):
            make_product_projective([], gf101)

    def test_irrelevant_proper_of_positive_height(self, p1p1, p1p2):
        for amb in (p1p1, p1p2):
            g = amb.irrelevant_ideal()
            assert not g.is_unit()
            assert height(g) >= 1


class TestSegreConstructor:
    def test_defining_quadric_height_one(self, segre, gf101):
        from coxdescent import MultigradedRing
        plain = MultigradedRing(gf101, ["z00", "z01", "z10", "z11"],
                                grading=[[1, 1, 1, 1]])
        j = mk(plain, "z00*z11 - z01*z10")
        assert height(j) == 1
        assert dimension(j) == 3

    def test_grading(self, segre):
        assert segre.ring.parse("z00").multidegree() == Multidegree((1,))

    def test_irrelevant_height_in_quotient(self, segre):
        assert height(segre.irrelevant_ideal()) == 3

    def test_ambient_dimension(self, segre):
        from coxdescent import ambient_dimension
        assert ambient_dimension(segre.ring) == 3


class TestSubschemeIdeal:
    def test_two_points(self, p1p1):
        got = subscheme_ideal(p1p1, mk(p1p1.ring, "x0*y0", "x1*y1"))
        assert {str(g) for g in got.reduced_gb()} == {
            "x0*x1", "x0*y0", "x1*y1", "y0*y1"}

    def test_fat_point(self, p1p1):
        got = subscheme_ideal(p1p1, mk(p1p1.ring, "x0", "x1*y0"))
        assert [str(g) for g in got.reduced_gb()] == ["x0", "y0"]

    def test_segre_point(self, segre):
        ideal = mk(segre.ring, "z00", "z11")
        got = subscheme_ideal(segre, ideal)
        assert ideal_equal(got, ideal)

    def test_inhomogeneous_rejected(self, p1p1):
        with pytest.raises(InhomogeneousError):
            subscheme_ideal(p1p1, mk(p1p1.ring, "x0 + x0*y0"))

    def test_idempotent_and_monotone(self, p1p1):
        ring = p1p1.ring
        rng = seeded(77)
        small = IdealHandle(ring, [random_poly(ring, Multidegree((1, 1)), rng)])
        big = IdealHandle(ring, list(small.gens) +
                          [random_poly(ring, Multidegree((2, 1)), rng)])
        rs = subscheme_ideal(p1p1, small)
        rb = subscheme_ideal(p1p1, big)
        assert rb.contains_ideal(rs)
        assert ideal_equal(subscheme_ideal(p1p1, rs), rs)


class TestCompleteIntersection:
    def test_two_points_ci(self, p1p1):
        ring = p1p1.ring
        assert is_complete_intersection(
            p1p1, [ring.parse("x0*y0"), ring.parse("x1*y1")])

    def test_common_factor_not_ci(self, p1p1):
        ring = p1p1.ring
        assert not is_complete_intersection(
            p1p1, [ring.parse("x0*y0"), ring.parse("x0*y1")])

    def test_hypersurface(self, p1p1):
        assert is_complete_intersection(p1p1, [p1p1.ring.parse("x0")])

    def test_inhomogeneous_rejected(self, p1p1):
        with pytest.raises(InhomogeneousError):
            is_complete_intersection(p1p1, [p1p1.ring.parse("x0 + x0*y0")])


class TestEmptyIrrelevant:
    """A ring with no irrelevant generators: the strict test has nothing to
    saturate by and says so with a typed error, as subscheme_ideal does;
    the CI test needs no G."""

    @pytest.fixture(scope="class")
    def bare(self, gf101):
        return CoxAmbient(ring=MultigradedRing(gf101, ["x0", "x1", "y0", "y1"],
                                               grading=[(1, 1, 0, 0), (0, 0, 1, 1)]))

    @pytest.mark.parametrize("texts", [["x0*y0"], ["x0*y0", "x1*y1"], ["x0*y0", "x0*y1"]])
    def test_strict_ci_raises_saturation_direction_error(self, bare, texts):
        # the not-CI input (height 1) is rejected as well: G is checked
        # before any height
        with pytest.raises(SaturationDirectionError):
            is_strict_ci(bare, texts)
        with pytest.raises(SaturationDirectionError):
            subscheme_ideal(bare, mk(bare.ring, *texts))
        assert is_complete_intersection(bare, texts) == (
            height(mk(bare.ring, *texts)) == len(texts))


class TestQuotientZeroForm:
    """A form in the defining ideal is zero in the quotient ring, so it
    defines no hypersurface, just as a literal 0 does."""

    @pytest.mark.parametrize("texts", [
        ["0"],
        ["z00*z11 - z01*z10"],
        ["z00", "z00^2*z11 - z00*z01*z10"],
    ])
    def test_rejected_like_zero(self, segre, texts):
        for check in (is_strict_ci, is_complete_intersection):
            with pytest.raises(ValueError, match="zero polynomial"):
                check(segre, texts)


class TestStrictCI:
    def test_two_points_not_strict(self, p1p1):
        ring = p1p1.ring
        v = is_strict_ci(p1p1, [ring.parse("x0*y0"), ring.parse("x1*y1")])
        assert v.status == "not_strict"
        assert str(v.witness) in ("x0*x1", "y0*y1")

    def test_linear_point_strict(self, p1p1):
        ring = p1p1.ring
        v = is_strict_ci(p1p1, [ring.parse("x0"), ring.parse("y0")])
        assert v.status == "strict"

    def test_segre_point_strict(self, segre):
        ring = segre.ring
        v = is_strict_ci(segre, [ring.parse("z00"), ring.parse("z11")])
        assert v.status == "strict"

    def test_fat_point_not_strict(self, p1p1):
        ring = p1p1.ring
        v = is_strict_ci(p1p1, [ring.parse("x0"), ring.parse("x1*y0")])
        assert v.status == "not_strict"

    def test_not_ci_reports_heights(self, p1p1):
        ring = p1p1.ring
        v = is_strict_ci(p1p1, [ring.parse("x0*y0"), ring.parse("x0*y1")])
        assert v.status == "not_ci"
        assert v.height == 1 and v.expected == 2

    def test_strict_means_subscheme_equals_input(self, p1p1):
        ring = p1p1.ring
        rng = seeded(13)
        found = 0
        while found < 5:
            fs = [random_poly(ring, Multidegree((1, 1)), rng)]
            v = is_strict_ci(p1p1, fs)
            if v.status != "strict":
                continue
            ideal = IdealHandle(ring, fs)
            assert ideal_equal(subscheme_ideal(p1p1, ideal), ideal)
            found += 1


class TestStrictCIInvariance:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2 ** 32),
           st.lists(st.sampled_from([(1, 0), (0, 1), (1, 1), (2, 1), (1, 2), (2, 2)]),
                    min_size=1, max_size=3),
           st.randoms(use_true_random=False))
    def test_verdict_ignores_generator_order_and_scale(self, p1p1, seed, degrees, rnd):
        # the verdict, witness included, depends on the ideal only
        ring = p1p1.ring
        rng = seeded(seed)
        fs = [sparse_poly(ring, Multidegree(d), rng) for d in degrees]
        verdict = is_strict_ci(p1p1, fs)
        scaled = [f * rnd.randrange(1, 101) for f in fs]
        assert is_strict_ci(p1p1, scaled[::-1]) == verdict
        rnd.shuffle(scaled)
        assert is_strict_ci(p1p1, scaled) == verdict


class TestLinearFormsProperty:
    def test_independent_linear_forms_are_strict(self, p1p1):
        # ideals generated by independent linear forms are prime, hence
        # saturated, as long as the irrelevant ideal is not contained
        ring = p1p1.ring
        g = p1p1.irrelevant_ideal()
        rng = seeded(97)
        found = 0
        while found < 12:
            degs = [Multidegree(rng.choice([(1, 0), (0, 1)]))
                    for _ in range(rng.choice([1, 2]))]
            fs = [random_poly(ring, d, rng) for d in degs]
            ideal = IdealHandle(ring, fs)
            if ideal.is_unit() or height(ideal) != len(fs):
                continue
            if all(ideal.contains(gg) for gg in g.gens):
                continue  # V(I) misses the ambient entirely
            assert is_strict_ci(p1p1, fs).status == "strict"
            found += 1


def full_saturation_verdict(amb, fs):
    """The verdict by comparing I with its saturation, found by elimination."""
    ideal = IdealHandle(amb.ring, fs)
    s = len(fs)
    h = height(ideal)
    if h != s:
        return StrictCIVerdict(status="not_ci", height=h, expected=s)
    sat = eliminating_saturate(ideal, amb.irrelevant_ideal())
    if ideal_equal(sat, ideal):
        return StrictCIVerdict(status="strict", height=h, expected=s)
    witness = next(g for g in sat.reduced_gb() if not ideal.contains(g))
    return StrictCIVerdict(status="not_strict", witness=witness, height=h, expected=s)


@pytest.fixture(scope="module")
def verdict_ambients(gf101):
    ambs = small_ambients(gf101)
    p1p2 = ambs["p1p2"].ring
    # P1 x P2 modulo one (1,1) form: a complete-intersection quotient
    ambs["p1p2_ci"] = make_custom(MultigradedRing(
        gf101, p1p2.variables, grading=p1p2.grading,
        defining=["x0*y0 + 2*x1*y1 + 3*x0*y2"], irrelevant=list(map(str, p1p2.irrelevant))))
    # the twisted cubic: three quadrics of height two, not a complete intersection
    ambs["twisted_cubic"] = make_custom(MultigradedRing(
        gf101, ["a", "b", "c", "d"], grading=[[1, 1, 1, 1]],
        defining=["b^2 - a*c", "c^2 - b*d", "a*d - b*c"], irrelevant=["a", "b", "c", "d"]))
    # the irrelevant ideal of P1 x P1 on a generator that is not a monomial
    ambs["p1p1_binomial_g"] = make_custom(MultigradedRing(
        gf101, ["x0", "x1", "y0", "y1"], grading=ambs["p1p1"].ring.grading,
        irrelevant=["x0*y0 + x1*y1", "x0*y1", "x1*y0", "x1*y1"]))
    return ambs


VERDICT_DEGREES = dict(SMALL_AMBIENT_DEGREES, p1p2_ci=SMALL_AMBIENT_DEGREES["p1p2"],
                       twisted_cubic=[(1,), (2,)],
                       p1p1_binomial_g=SMALL_AMBIENT_DEGREES["p1p1"])
MONOMIAL_G = sorted(set(VERDICT_DEGREES) - {"p1p1_binomial_g"})


class TestHeightShortcut:
    def test_cohen_macaulay_check(self, verdict_ambients):
        assert {name for name, amb in verdict_ambients.items()
                if not _cohen_macaulay(amb.ring)} == {"twisted_cubic"}

    @settings(max_examples=80, deadline=None)
    @given(st.sampled_from(sorted(VERDICT_DEGREES)), st.integers(0, 2 ** 32))
    @example("twisted_cubic", 254022557)  # draws 60*c^2 + 41*b*d, zero modulo c^2 - b*d
    def test_equals_full_saturation_verdict_property(self, verdict_ambients, name, seed):
        amb = verdict_ambients[name]
        ring = amb.ring
        rng = seeded(seed)
        fs = [sparse_poly(ring, Multidegree(rng.choice(VERDICT_DEGREES[name])), rng)
              for _ in range(rng.randint(1, 3))]
        try:
            verdict = is_strict_ci(amb, fs)
        except ValueError:
            # a form that is zero in the quotient ring defines no hypersurface
            assert any(defining_ideal(ring).contains(f) for f in fs)
            return
        assert verdict == full_saturation_verdict(amb, fs)

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(MONOMIAL_G), st.integers(0, 2 ** 32))
    def test_primes_of_g_give_the_height_of_i_plus_g_property(self, verdict_ambients, name, seed):
        amb = verdict_ambients[name]
        ring = amb.ring
        rng = seeded(seed)
        fs = [sparse_poly(ring, Multidegree(rng.choice(VERDICT_DEGREES[name])), rng)
              for _ in range(rng.randint(1, 3))]
        # ht(I + G) is the least ht(I + P) over the minimal primes P of G
        ideal = IdealHandle(ring, fs)
        assert (min(_height_plus_prime(ideal, c) for c in _monomial_primes(ring.irrelevant))
                == height(IdealHandle(ring, fs + list(ring.irrelevant))))

    def test_strict_verdict_runs_no_saturation(self, p2p2, monkeypatch):
        def refuse(*args):
            raise AssertionError("saturated")

        monkeypatch.setattr(cox, "_saturate_primes", refuse)
        monkeypatch.setattr(cox, "saturate", refuse)
        ring = p2p2.ring
        rng = seeded(5)
        fs = [random_poly(ring, Multidegree((2, 2)), rng) for _ in range(2)]
        assert is_strict_ci(p2p2, fs).status == "strict"

    @pytest.mark.parametrize("name, degrees, status, runs", [
        ("p2p2", [(2, 2), (2, 2)], "strict", 0),
        ("p1p1", [(0, 2), (2, 1)], "not_strict", 2)])
    def test_i_plus_p_from_generators(self, request, monkeypatch, name, degrees, status, runs):
        # dropping P's terms from I's generators leaves nothing for both
        # primes on P2xP2, and the linear section's two binary forms show
        # height 2 by their gcd, with no run at all (TestLinearSection).
        # On P1xP1 the (0,2) form is left mod (x0, x1), one more basis;
        # (y0, y1) leaves nothing, so I's full basis follows, and the step
        # by y1 is in grevlex, which converts nothing
        amb = request.getfixturevalue(name)
        rng = seeded(3)
        fs = [random_poly(amb.ring, Multidegree(d), rng) for d in degrees]
        calls = []
        run = groebner._buchberger
        monkeypatch.setattr(groebner, "_buchberger", lambda *args: calls.append(args) or run(*args))
        assert is_strict_ci(amb, fs).status == status
        assert len(calls) == runs

    def test_strict_verdict_finishes_no_basis_of_i(self, p2p2, monkeypatch):
        # the linear section already shows height 2, and no prime's terms
        # leave anything of the generators: no basis is ever reduced, and
        # the handle keeps none; a CI test stops alike
        ring = p2p2.ring
        rng = seeded(5)
        fs = [random_poly(ring, Multidegree((2, 2)), rng) for _ in range(2)]
        reduced = []
        run = groebner._reduce_basis
        monkeypatch.setattr(groebner, "_reduce_basis",
                            lambda *args: reduced.append(args) or run(*args))
        ideal = IdealHandle(ring, fs)
        assert cox._strict_ci_verdict(p2p2, ideal) == StrictCIVerdict(
            status="strict", height=2, expected=2)
        assert is_complete_intersection(p2p2, fs)
        assert (reduced, ideal._gb_pairs) == ([], None)
        assert height(ideal) == 2

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(sorted(VERDICT_DEGREES)), st.integers(0, 2 ** 32))
    def test_height_at_least_property(self, verdict_ambients, name, seed):
        # as much of I's basis as shows ht(I) >= s answers as the full
        # height does, on a fresh handle and on one whose basis is built
        # (descent's verdicts get one)
        ring = verdict_ambients[name].ring
        rng = seeded(seed)
        fs = [sparse_poly(ring, Multidegree(rng.choice(VERDICT_DEGREES[name])), rng)
              for _ in range(rng.randint(1, 3))]
        h = height(IdealHandle(ring, fs))
        for s in (1, 2, 3):
            fresh, built = IdealHandle(ring, fs), IdealHandle(ring, fs)
            built._pairs()
            assert (groebner._height_at_least(fresh, s) == groebner._height_at_least(built, s)
                    == (h >= s))

    def test_not_strict_verdict_saturates_its_primes_in_one_pass(self, gf101, monkeypatch):
        # two (1,1,1) forms vanish modulo each factor's prime, so all three
        # primes are saturated in one pass: I's basis, built straight in the
        # x1-last order of the first prime's step, then one conversion for
        # each other prime and no rebuild in between; the last is to
        # z1-last, which is grevlex, so no rebuild follows either
        amb = make_product_projective([1, 1, 1], gf101)
        rng = seeded(7)
        fs = [random_poly(amb.ring, Multidegree((1, 1, 1)), rng) for _ in range(2)]
        calls = []
        run = groebner._buchberger
        monkeypatch.setattr(groebner, "_buchberger", lambda *args: calls.append(args) or run(*args))
        assert is_strict_ci(amb, fs).status == "not_strict"
        assert len(calls) == 3

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(MONOMIAL_G), st.integers(0, 2 ** 32))
    def test_squeezed_height_property(self, verdict_ambients, name, seed):
        # ht(I) <= ht(I + P) for each prime P of G, so with upper, the least
        # of them, below s the verdict is not_ci; the height it reports,
        # upper once a lower bound reaches it, is the exact one
        amb = verdict_ambients[name]
        ring = amb.ring
        rng = seeded(seed)
        fs = [sparse_poly(ring, Multidegree(rng.choice(VERDICT_DEGREES[name])), rng)
              for _ in range(rng.randint(2, 4))]
        try:
            verdict = is_strict_ci(amb, fs)
        except ValueError:
            assert any(defining_ideal(ring).contains(f) for f in fs)
            return
        ideal = IdealHandle(ring, fs)
        upper = min(_height_plus_prime(ideal, c) for c in _monomial_primes(ring.irrelevant))
        if upper < len(fs):
            assert verdict.status == "not_ci"
        if verdict.status == "not_ci":
            assert verdict.height == height(ideal)

    def test_not_ci_squeeze_budget(self, gf101, monkeypatch):
        # the ROADMAP scale probe P1^5, 3 x (1,...,1): past 120 s from I's
        # full basis on a 2-vCPU VM.  Every multilinear form vanishes on
        # x0 = x1 = 0, so ht(I + P) = 2 < 3 for P = (x0, x1); the linear
        # section shows ht(I) >= 2, and its run is the only one
        amb = make_product_projective([1] * 5, gf101)
        rng = seeded(0)
        fs = [random_poly(amb.ring, Multidegree((1,) * 5), rng) for _ in range(3)]
        orders = []
        run = groebner._buchberger
        monkeypatch.setattr(groebner, "_buchberger",
                            lambda tower, order, *args: orders.append(order)
                            or run(tower, order, *args))
        start = time.perf_counter()
        assert is_strict_ci(amb, fs) == StrictCIVerdict(status="not_ci", height=2, expected=3)
        assert time.perf_counter() - start < 0.2
        assert orders == [groebner._grevlex(2)]

    def test_not_ci_complete_intersection_budget(self, gf101, monkeypatch):
        # the same probe through is_complete_intersection: past 10 s from
        # ht(I) >= 3, which cannot stop, on a 2-vCPU VM; the squeeze
        # answers from the section's one run
        amb = make_product_projective([1] * 5, gf101)
        rng = seeded(0)
        fs = [random_poly(amb.ring, Multidegree((1,) * 5), rng) for _ in range(3)]
        orders = []
        run = groebner._buchberger
        monkeypatch.setattr(groebner, "_buchberger",
                            lambda tower, order, *args: orders.append(order)
                            or run(tower, order, *args))
        start = time.perf_counter()
        assert not is_complete_intersection(amb, fs)
        assert time.perf_counter() - start < 0.2
        assert orders == [groebner._grevlex(2)]

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(sorted(VERDICT_DEGREES)), st.integers(0, 2 ** 32))
    def test_squeezed_ci_height_property(self, verdict_ambients, name, seed):
        # the CI test's height is the exact one on every verdict ambient,
        # the one that is not Cohen-Macaulay and the non-monomial G included
        amb = verdict_ambients[name]
        ring = amb.ring
        rng = seeded(seed)
        fs = [sparse_poly(ring, Multidegree(rng.choice(VERDICT_DEGREES[name])), rng)
              for _ in range(rng.randint(1, 4))]
        try:
            cox._validate_hypersurfaces(fs)
        except ValueError:
            return
        h = height(IdealHandle(ring, fs))
        assert cox._squeezed_height(IdealHandle(ring, fs)) == h
        assert is_complete_intersection(amb, fs) == (h == len(fs))

    @pytest.mark.parametrize("texts, status", [(["x0^200*y0", "x1^200*y1"], "not_strict"),
                                               (["x0^200*y0"], "strict")])
    def test_exponent_200_budget(self, p1p1, texts, status):
        # eliminations took 3.1 s and 1.7 s on a 2-vCPU VM
        start = time.perf_counter()
        v = is_strict_ci(p1p1, [p1p1.ring.parse(s) for s in texts])
        assert time.perf_counter() - start < 0.1
        assert v.status == status


def field_cases(*fields):
    """(field, ambient name) cases: the verdict ambients over GF(101), and
    the small ambients over each of ``fields``."""
    return ([("GF(101)", name) for name in sorted(VERDICT_DEGREES)]
            + [(field, name) for field in fields for name in sorted(SMALL_AMBIENT_DEGREES)])


@pytest.fixture(scope="module")
def field_ambients(verdict_ambients):
    """The ambient of every case :func:`field_cases` can name."""
    ambs = {("GF(101)", name): amb for name, amb in verdict_ambients.items()}
    for tower in (FieldTower(2), FieldTower(3, 2), FieldTower(2, 4)):
        ambs.update(((str(tower), name), amb) for name, amb in small_ambients(tower).items())
    return ambs


STATUS_CASES = field_cases("GF(3^2)", "GF(2^4)")


class TestStatusOnlyVerdict:
    """Descent reads only the verdict's status, which a monomial G in a
    Cohen-Macaulay ring settles with no saturation."""

    @settings(max_examples=80, deadline=None)
    @given(st.sampled_from(STATUS_CASES), st.integers(0, 2 ** 32), st.booleans())
    def test_status_equals_full_saturation_status_property(self, field_ambients, case, seed,
                                                           built):
        # on a fresh handle, and on one whose grevlex basis is built, as
        # descent's handles are
        amb = field_ambients[case]
        ring = amb.ring
        rng = seeded(seed)
        fs = [sparse_poly(ring, Multidegree(rng.choice(VERDICT_DEGREES[case[1]])), rng)
              for _ in range(rng.randint(1, 3))]
        try:
            cox._validate_hypersurfaces(fs)
        except ValueError:
            assert any(defining_ideal(ring).contains(f) for f in fs)
            return
        ideal = IdealHandle(ring, fs)
        if built:
            ideal._pairs()
        assert (cox._strict_ci_verdict(amb, ideal, status_only=True).status
                == full_saturation_verdict(amb, fs).status)

    def test_not_strict_status_saturates_nothing(self, gf101, monkeypatch):
        # two (1,1,1) forms vanish modulo each factor's prime of P1^3, and
        # I's basis shows height 2: not strict, with no Bayer step
        def refuse(*args):
            raise AssertionError("Bayer step taken")

        monkeypatch.setattr(groebner, "_saturate_variable", refuse)
        amb = make_product_projective([1, 1, 1], gf101)
        rng = seeded(7)
        fs = [random_poly(amb.ring, Multidegree((1, 1, 1)), rng) for _ in range(2)]
        assert cox._strict_ci_verdict(amb, IdealHandle(amb.ring, fs), status_only=True) == (
            StrictCIVerdict(status="not_strict", height=2, expected=2))


# the section property's fields beside GF(101): some scalars of the
# section vanish over GF(2) and GF(3^2)
SECTION_CASES = field_cases("GF(2)", "GF(3^2)")


def section_draw(ring, rng, degrees):
    """One to three sparse forms of the given degrees, and the dimension m
    of the section that would show ht(I) >= s for each s in 1, 2, 3."""
    fs = [sparse_poly(ring, Multidegree(rng.choice(degrees)), rng)
          for _ in range(rng.randint(1, 3))]
    return fs, {s: s + ring.nvars - ambient_dimension(ring) for s in (1, 2, 3)}


# fields of the binary-form property: the benchmark's GF(101) and small
# fields, where forms share factors often
BINARY_TOWERS = {str(t): t for t in (FieldTower(101), FieldTower(2), FieldTower(3, 2),
                                     FieldTower(5))}


class TestLinearSection:
    """ht(I) >= s from the forms' zeros on an s + n - dim R dimensional
    subspace (groebner._section_finite)."""

    @settings(max_examples=80, deadline=None)
    @given(st.sampled_from(SECTION_CASES), st.integers(0, 2 ** 32))
    def test_section_is_sound_property(self, field_ambients, case, seed):
        # the verdict is the full height's, and a section that answers is
        # right; on F1 the weights differ, the Segre quotient and the twisted
        # cubic add relations
        ring = field_ambients[case].ring
        fs, ms = section_draw(ring, seeded(seed), VERDICT_DEGREES[case[1]])
        h = height(IdealHandle(ring, fs))
        for s, m in ms.items():
            assert groebner._height_at_least(IdealHandle(ring, fs), s) == (h >= s)
            if m <= ring.nvars and _section_finite(ring, fs + list(ring.defining), m):
                assert h >= s

    def test_section_answers_on_every_ambient(self, verdict_ambients):
        # the property's draws reach the section's True: on each ambient
        # over GF(101) some of 30 draws have a height the section shows
        for name, amb in verdict_ambients.items():
            ring, rng = amb.ring, seeded(11)
            answered = 0
            for _ in range(30):
                fs, ms = section_draw(ring, rng, VERDICT_DEGREES[name])
                answered += any(m <= ring.nvars and _section_finite(
                    ring, fs + list(ring.defining), m) for m in ms.values())
            assert answered, name

    def test_forms_vanishing_on_the_section_fall_back(self, p1p1, monkeypatch):
        # x_i -> (i+1)*t_(i mod 2) takes 3*x0*y1 - 2*x1*y0 to 12 - 12 = 0, so
        # the section keeps only the second form and finds a line of zeros;
        # I's own run then shows height 2
        ring = p1p1.ring
        fs = [ring.parse("3*x0*y1 - 2*x1*y0"), ring.parse("x0*y0 + x1*y1")]
        answers = []
        monkeypatch.setattr(groebner, "_section_finite",
                            lambda *args: answers.append(_section_finite(*args)) or answers[-1])
        assert is_complete_intersection(p1p1, fs)
        assert answers == [False]
        verdict = is_strict_ci(p1p1, fs)
        assert verdict == full_saturation_verdict(p1p1, fs)
        assert verdict.height == 2

    def test_generators_leading_terms_skip_the_section(self, p1p1, monkeypatch):
        # the leading terms x0*y0 and x1*y1 of the generators need two
        # variables to hit, so no section is tried
        def refuse(*args):
            raise AssertionError("section tried")

        monkeypatch.setattr(groebner, "_section_finite", refuse)
        assert is_complete_intersection(p1p1, [p1p1.ring.parse("x0*y0 + x1*y1"),
                                               p1p1.ring.parse("x1*y1")])

    def test_section_past_the_cap_says_nothing(self, p1p1):
        # the images 3*t0^8201 and 4^8200*t0*t1^8200 have an S-pair lcm of
        # degree 16401, past the cap: the section answers False, and I's own
        # run meets the same lcm and raises as it did without the section
        ring = p1p1.ring
        fs = [ring.parse("x0^8200*y0"), ring.parse("x0*y1^8200")]
        assert not _section_finite(ring, fs, 2)
        with pytest.raises(ExponentCapError):
            is_complete_intersection(p1p1, fs)

    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from(sorted(BINARY_TOWERS)), st.integers(0, 2 ** 32),
           st.sampled_from(["random", "shared", "t1", "zero"]))
    @example("GF(101)", 0, "t1")  # images t1*a and t1*b with a(t0, 1), b(t0, 1) coprime
    def test_gcd_equals_the_section_run_property(self, field, seed, shape):
        # two binary forms of degree 1..4: the gcd path of _section_finite
        # answers as the stopped Buchberger run on them, also when one is
        # zero, when both share a factor, and when t1 is the shared factor
        tower = BINARY_TOWERS[field]
        ring = MultigradedRing(tower, ["t0", "t1"], grading=[(1, 1)])
        rng = seeded(seed)
        fs = [random_poly(ring, Multidegree((rng.randint(1, 4),)), rng) for _ in range(2)]
        if shape == "shared":
            common = random_poly(ring, Multidegree((rng.randint(1, 2),)), rng)
            fs = [f * common for f in fs]
        elif shape == "t1":
            fs = [f * ring.parse("t1") for f in fs]
        elif shape == "zero":
            fs[rng.randrange(2)] = ring.zero()
        order = groebner._grevlex(2)
        dicts = [order.pack_terms(f._t) for f in fs]
        run = groebner._buchberger(tower, order, dicts,
                                   lambda supports: groebner._min_hitting_set(supports) >= 2)
        assert groebner._coprime_binary(tower, order, *dicts) == (run is None)

    @pytest.mark.parametrize("name, texts, finite", [
        # x_i -> (i+1)*t_(i mod 2): 3*t0^2 + 8*t1^2 and 8*t1^2 are coprime
        ("p1p1", ["x0*y0 + x1*y1", "x1*y1"], True),
        # 8*t1^2 and 4*t0*t1 share t1, though 8 and 4*t0 have gcd 1: the
        # ideal y1*(x0, x1) has height 1
        ("p1p1", ["x1*y1", "x0*y1"], False),
        # 3*t0^2 and -2*t0*t1 share t0
        ("p1p1", ["x0*y0", "x0*y1 - x1*y0"], False),
        # on the Segre quotient (s = 1) the quadric goes to -2*t0*t1
        ("segre", ["z00 + z11"], True),
        ("segre", ["z01"], False),
        ("segre", ["z00"], False)])
    def test_two_forms_on_a_plane_take_the_gcd(self, request, monkeypatch, name, texts, finite):
        def refuse(*args):
            raise AssertionError("Buchberger run")

        monkeypatch.setattr(groebner, "_buchberger", refuse)
        ring = request.getfixturevalue(name).ring
        assert _section_finite(ring, [ring.parse(t) for t in texts] + list(ring.defining),
                               2) is finite

    def test_strict_verdict_runs_no_basis_in_the_ring_variables(self, p2p2, monkeypatch):
        # a strict P2xP2 verdict on two (2,2) forms: no prime's terms leave
        # anything, and the section, in 2 + 6 - 6 = 2 variables, restricts
        # them to two coprime binary forms, which takes a gcd, no basis
        rng = seeded(5)
        fs = [random_poly(p2p2.ring, Multidegree((2, 2)), rng) for _ in range(2)]
        orders = []
        run = groebner._buchberger
        monkeypatch.setattr(groebner, "_buchberger",
                            lambda tower, order, *args: orders.append(order)
                            or run(tower, order, *args))
        assert is_strict_ci(p2p2, fs).status == "strict"
        assert orders == []

    @pytest.mark.parametrize("dims, degree", [([2, 2], (3, 3)), ([3, 3], (2, 2))])
    def test_dense_strict_budget(self, gf101, dims, degree):
        # the ROADMAP scale probes: 1.4-2.8 s and 0.09 s for P2xP2 2 x (3,3)
        # and P3xP3 2 x (2,2) from I's own stopped run on a 2-vCPU VM, about
        # 2 ms each from the section
        amb = make_product_projective(dims, gf101)
        rng = seeded(0)
        fs = [random_poly(amb.ring, Multidegree(degree), rng) for _ in range(2)]
        start = time.perf_counter()
        assert is_strict_ci(amb, fs).status == "strict"
        assert time.perf_counter() - start < 0.2
