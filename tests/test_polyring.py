import math
import operator
import subprocess
import sys
import time

import pytest
from hypothesis import given, settings, strategies as st

from coxdescent import (FieldTower, InhomogeneousError, Multidegree,
                        MultigradedRing, ParseError, RingMismatchError,
                        degree_leq, make_product_projective,
                        monomials_of_degree, multidegree)

from coxdescent import rings
from coxdescent.rings import EXPONENT_CAP, Polynomial, _monomial_str, _positive_weights

from conftest import (DIGIT_LIMIT, grevlex_key, random_poly, rational_kernel,
                      rational_positive_weights, reference_parse, seeded, tuple_multidegree)

# Hirzebruch surface F1: neither grading row nor their sum is positive on
# every variable, but y = (1, 2) is.
F1_GRADING = ((1, 1, 0, -1), (0, 0, 1, 1))


@pytest.fixture(scope="module")
def ring(gf101):
    return make_product_projective([1, 1], gf101).ring


class TestConstruction:
    def test_reserved_variable_name(self, gf101):
        with pytest.raises(ValueError):
            MultigradedRing(gf101, ["t", "x"], grading=[[1, 1]])

    @pytest.mark.parametrize("variables, grading, missing", [
        ([], [], "variable"), ([], [[]], "variable"), (["x", "y"], [], "grading row"),
    ])
    def test_no_variables_or_no_grading_rows(self, gf101, variables, grading, missing):
        with pytest.raises(ValueError, match="^a ring needs at least one %s$" % missing):
            MultigradedRing(gf101, variables, grading=grading)

    def test_positivity_required(self, gf101):
        # no row combination makes both weights positive
        with pytest.raises(ValueError):
            MultigradedRing(gf101, ["x", "y"], grading=[[1, -1]])

    @pytest.mark.parametrize("kwargs", [
        {"defining": ["0"]}, {"irrelevant": ["x", "0"]},
        {"defining": ["x + y^2"]}, {"irrelevant": ["x + y^2"]},
    ])
    def test_zero_or_inhomogeneous_relation_rejected(self, gf101, kwargs):
        with pytest.raises(InhomogeneousError):
            MultigradedRing(gf101, ["x", "y"], grading=[[1, 1]], **kwargs)

    def test_monomial_exponent_cap(self, ring):
        assert str(ring.monomial((0, 1, EXPONENT_CAP, 0))) == "x1*y0^%d" % EXPONENT_CAP
        with pytest.raises(ValueError, match="^exponent %d is past the cap %d$"
                           % (EXPONENT_CAP + 1, EXPONENT_CAP)):
            ring.monomial((0, 1, EXPONENT_CAP + 1, 0))

    def test_nonstandard_positive_grading_accepted(self, gf101):
        r = MultigradedRing(gf101, ["x", "y"], grading=[[2, -1], [-1, 1]])
        assert r.parse("x*y").multidegree() == Multidegree((1, 0))


# 1 to 3 rows on up to 6 variables, entries -2 to 3
GRADINGS = st.integers(min_value=1, max_value=3).flatmap(
    lambda rank: st.integers(min_value=rank, max_value=6).flatmap(
        lambda nvars: st.lists(
            st.lists(st.integers(min_value=-2, max_value=3), min_size=nvars, max_size=nvars),
            min_size=rank, max_size=rank)))


class TestWeightCertificate:
    def test_hirzebruch_f1(self, gf101):
        assert _positive_weights(F1_GRADING) == ((1, 2), (1, 1, 2, 1))
        assert rational_positive_weights(F1_GRADING) == ((1, 2), (1, 1, 2, 1))
        r = MultigradedRing(gf101, ["x0", "x1", "y0", "y1"], grading=F1_GRADING)
        got = {str(m) for m in monomials_of_degree(r, Multidegree((1, 1)))}
        # y1 has degree (-1, 1)
        assert got == {"x0*y0", "x1*y0", "x0^2*y1", "x0*x1*y1", "x1^2*y1"}

    def test_products_take_the_row_sum(self, gf101):
        # the row sum is tried before the search over variable subsets,
        # which made 4082 rational solves for eight factors (2.9-4 s)
        for dims in ([1], [2, 1], [1, 1, 1], [3, 1, 2], [2, 1, 1, 1, 2]):
            r = make_product_projective(dims, gf101).ring
            assert r._weights == ((1,) * len(dims), (1,) * r.nvars)
        start = time.perf_counter()
        r = make_product_projective([1] * 8, gf101).ring
        assert time.perf_counter() - start < 0.5
        assert r._weights == ((1,) * 8, (1,) * 16)

    def test_infeasible_rank_two(self):
        # w = (y1, y2, -y1 - y2) is never positive everywhere
        with pytest.raises(ValueError):
            _positive_weights(((1, 0, -1), (0, 1, -1)))

    @settings(max_examples=200, deadline=None)
    @given(GRADINGS)
    def test_certificate_is_positive_row_combination(self, grading):
        try:
            y, w = _positive_weights(grading)
        except ValueError:
            return
        assert all(isinstance(v, int) for v in y + w)
        assert list(w) == [sum(yi * row[j] for yi, row in zip(y, grading))
                           for j in range(len(grading[0]))]
        assert all(x > 0 for x in w)

    @settings(max_examples=200, deadline=None)
    @given(GRADINGS)
    def test_matches_fraction_solves_property(self, grading):
        # the same subset order, so the same (y, w), or the same failure
        try:
            want = rational_positive_weights(grading)
        except ValueError:
            with pytest.raises(ValueError, match="^grading admits no positive weight"):
                _positive_weights(grading)
            return
        assert _positive_weights(grading) == want

    def test_scipy_never_imported(self):
        code = (
            "import sys\n"
            "sys.modules['scipy'] = None\n"
            "from coxdescent import FieldTower, MultigradedRing\n"
            "r = MultigradedRing(FieldTower(101), ['x0', 'x1', 'y0', 'y1'],\n"
            "                    grading=%r)\n"
            "print(r._weights)\n"
            "print(sorted(m for m in sys.modules if m.startswith('scipy')))\n"
            % (F1_GRADING,))
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "((1, 2), (1, 1, 2, 1))\n['scipy']\n"


class TestArithmetic:
    def test_difference_of_squares(self, ring):
        x0, x1 = ring.var("x0"), ring.var("x1")
        assert (x0 + x1) * (x0 - x1) == x0 * x0 - x1 * x1

    def test_additive_inverse(self, ring):
        f = ring.parse("3*x0*y1 + x1^2")
        assert (f + (-f)).is_zero()

    def test_freshman_dream_gf3(self):
        r = make_product_projective([1, 1], FieldTower(3)).ring
        x0, x1 = r.var("x0"), r.var("x1")
        assert (x0 + x1) ** 3 == x0 ** 3 + x1 ** 3

    def test_ring_mismatch(self, ring, gf101):
        other = make_product_projective([2], gf101).ring
        with pytest.raises(RingMismatchError):
            ring.var("x0") + other.var("x0")

    @settings(max_examples=50, deadline=None)
    @given(st.sampled_from(["GF(101)", "GF(3^2)", "GF(7^3)"]), st.integers(0, 2 ** 32),
           st.integers(0, 6))
    def test_power_is_repeated_multiplication(self, name, seed, n):
        r = PARSE_RINGS[name]
        f = random_poly(r, Multidegree((1, 0)), seeded(seed)) + r.parse("1")
        want = r.one()
        for _ in range(n):
            want = want * f
        assert f ** n == want
        with pytest.raises(ValueError):
            f ** -1

    @settings(max_examples=50, deadline=None)
    @given(st.sampled_from(["GF(101)", "GF(3^2)", "GF(7^3)"]), st.integers(0, 2 ** 32))
    def test_leading_term_is_the_first_sorted_term(self, name, seed):
        r = PARSE_RINGS[name]
        rng = seeded(seed)
        f = r.one() * rng.randrange(2)
        for d in rng.sample([(1, 0), (0, 1), (1, 1), (2, 1), (0, 3)], rng.randint(1, 3)):
            f = f + random_poly(r, Multidegree(d), rng)
        e, c = f.sorted_terms()[0]
        assert f.leading_exponent() == e
        assert f.leading_coefficient().rep == c
        assert f.monic() == f * f.leading_coefficient().inverse()
        assert f.monic().sorted_terms()[0] == (e, r.tower.c_one)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10 ** 6), st.integers(0, 10 ** 6), st.integers(0, 10 ** 6))
    def test_ring_axioms_random(self, s1, s2, s3):
        tw = FieldTower(101)
        r = make_product_projective([1, 1], tw).ring
        f = random_poly(r, Multidegree((1, 1)), seeded(s1))
        g = random_poly(r, Multidegree((2, 0)), seeded(s2))
        h = random_poly(r, Multidegree((0, 1)), seeded(s3))
        assert (f + g) + h == f + (g + h)
        assert f * (g + h) == f * g + f * h
        assert (f * g) * h == f * (g * h)
        assert f * g == g * f


class TestMultidegree:
    def test_bidegree_of_product(self, ring):
        assert ring.parse("x0*y0").multidegree() == Multidegree((1, 1))

    def test_single_variable(self, ring):
        assert ring.var("x0").multidegree() == Multidegree((1, 0))

    def test_inhomogeneous_error_carries_monomials(self, ring):
        with pytest.raises(InhomogeneousError) as exc:
            ring.parse("x0*y0 + x1").multidegree()
        assert exc.value.monomials is not None
        assert len(exc.value.monomials) == 2

    @pytest.mark.parametrize("op", [operator.add, operator.sub])
    def test_degree_of_wrong_rank_rejected(self, op):
        # zip would cut either side to the rank of the other
        for a, b in [((1, 1), (1, 1, 7)), ((1, 1, 7), (1, 1))]:
            with pytest.raises(ValueError, match="^degree has wrong rank$"):
                op(Multidegree(a), Multidegree(b))

    def test_zero_has_no_multidegree(self, ring):
        with pytest.raises(InhomogeneousError):
            multidegree(ring.zero())

    def test_packed_degrees_past_their_range(self, gf101):
        # x^(2^32 + 2^64) and y^(2^64 + 1) pack to the same int in a ring
        # graded by the identity: the packing is read only below its limit
        r = MultigradedRing(gf101, ["x", "y"], grading=[[1, 0], [0, 1]])
        a, b = (2 ** 32 + 2 ** 64, 0), (0, 2 ** 64 + 1)
        assert sum(map(operator.mul, a, r._degree_cols)) == sum(map(operator.mul, b, r._degree_cols))
        with pytest.raises(InhomogeneousError) as exc:
            Polynomial(r, {b: 1, a: 1}).multidegree()
        assert exc.value.monomials == (b, a)

    @settings(max_examples=200, deadline=None)
    @given(GRADINGS, st.integers(0, 2 ** 32), st.sampled_from([0, 4, 2 ** 40]),
           st.sampled_from([None, 3, 2 ** 40]))
    def test_matches_degree_tuples_property(self, gf101, grading, seed, base, stray):
        # terms e0 + integer kernel vectors share e0's degree; a stray term
        # usually does not.  Exponents past 2^40 leave the packed range.
        try:
            ring = MultigradedRing(gf101, ["v%d" % i for i in range(len(grading[0]))],
                                   grading=grading)
        except ValueError:  # no positive weights
            return
        rng = seeded(seed)
        n = ring.nvars
        e0 = [base + rng.randint(0, 3) for _ in range(n)]
        kernel = [[int(x * math.lcm(*(c.denominator for c in v))) for x in v]
                  for v in rational_kernel(grading)]
        exps = [tuple(e0)]
        for _ in range(rng.randint(0, 4)):
            e = list(e0)
            for v in kernel:
                k = rng.randint(-1, 1)
                e = [a + k * x for a, x in zip(e, v)]
            if min(e) >= 0:
                exps.append(tuple(e))
        if stray is not None:
            exps.insert(rng.randint(1, len(exps)), tuple(rng.randint(0, stray) for _ in range(n)))
        f = Polynomial(ring, dict.fromkeys(exps, 1))
        deg, off = tuple_multidegree(f)
        if off is None:
            assert f.multidegree() == deg
            return
        with pytest.raises(InhomogeneousError) as exc:
            f.multidegree()
        e0, e = off
        assert exc.value.monomials == off
        assert str(exc.value) == (
            "inhomogeneous polynomial: monomials %s and %s have degrees %s and %s"
            % (_monomial_str(ring, e0), _monomial_str(ring, e), deg,
               tuple_multidegree(Polynomial(ring, {e: 1}))[0]))

    def test_bounded_degree_table_changes_no_answer(self, ring, monkeypatch):
        # the ring keeps each exponent's packed degree; cleared at the bound,
        # the table answers as the degree tuples do, on repeated calls
        polys = [ring.parse(text) for text in (
            "x0*y0 + x1*y1", "x0^2*y1 + x1^2*y0", "x0*y0 + x1", "x0^2 + x0*x1*y1",
            "x1^3*y1^2 + x0^3*y0^2")]
        bound = 3
        monkeypatch.setattr(rings, "_TABLE_BOUND", bound)
        monkeypatch.setattr(ring, "_degree_keys", {})
        for f in polys + polys:
            deg, off = tuple_multidegree(f)
            if off is None:
                assert f.multidegree() == deg
            else:
                with pytest.raises(InhomogeneousError) as exc:
                    f.multidegree()
                assert exc.value.monomials == off
            assert len(ring._degree_keys) <= bound

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 10 ** 6), st.integers(0, 2), st.integers(0, 2),
           st.integers(0, 2), st.integers(0, 2))
    def test_additive_under_product(self, seed, a, b, c, d):
        tw = FieldTower(101)
        r = make_product_projective([1, 1], tw).ring
        if (a, b) == (0, 0) or (c, d) == (0, 0):
            return
        rng = seeded(seed)
        f = random_poly(r, Multidegree((a, b)), rng)
        g = random_poly(r, Multidegree((c, d)), rng)
        assert (f * g).multidegree() == Multidegree((a + c, b + d))


class TestMonomialsOfDegree:
    def test_bidegree_one_one(self, ring):
        got = {str(m) for m in monomials_of_degree(ring, Multidegree((1, 1)))}
        assert got == {"x0*y0", "x0*y1", "x1*y0", "x1*y1"}

    def test_degree_zero(self, ring):
        assert [str(m) for m in monomials_of_degree(ring, Multidegree((0, 0)))] == ["1"]

    def test_non_effective(self, ring):
        assert monomials_of_degree(ring, Multidegree((-1, 0))) == []

    def test_counts_match_binomials(self, gf101):
        r = make_product_projective([1, 2], gf101).ring
        for a in range(4):
            for b in range(4):
                got = len(monomials_of_degree(r, Multidegree((a, b))))
                assert got == math.comb(a + 1, a) * math.comb(b + 2, b)

    def test_listed_in_monomial_order(self, ring):
        monos = monomials_of_degree(ring, Multidegree((2, 1)))
        keys = [grevlex_key(m.leading_exponent()) for m in monos]
        assert keys == sorted(keys)


class TestDegreeLeq:
    def test_examples(self, ring):
        assert degree_leq(Multidegree((1, 0)), Multidegree((1, 1)), ring)
        assert not degree_leq(Multidegree((1, 0)), Multidegree((0, 1)), ring)
        assert degree_leq(Multidegree((2, 2)), Multidegree((2, 2)), ring)

    def test_partial_order_on_box(self, ring):
        box = [Multidegree((a, b)) for a in range(3) for b in range(3)]
        for l1 in box:
            assert degree_leq(l1, l1, ring)
            for l2 in box:
                if degree_leq(l1, l2, ring) and degree_leq(l2, l1, ring):
                    assert l1 == l2
                for l3 in box:
                    if degree_leq(l1, l2, ring) and degree_leq(l2, l3, ring):
                        assert degree_leq(l1, l3, ring)


class TestPrinterParser:
    def test_canonical_examples(self, ring):
        for text in ["x0*y0 + x1*y1", "x0^2*x1", "2*x0 + 100*x1", "1", "x0*y1"]:
            assert str(ring.parse(text)) == text

    def test_parse_str_round_trip_random(self, ring):
        rng = seeded(31)
        for _ in range(25):
            f = random_poly(ring, Multidegree((2, 1)), rng)
            assert ring.parse(str(f)) == f

    def test_extension_coefficients(self, gf9):
        r = make_product_projective([1, 1], gf9).ring
        f = r.parse("(2*t+1)*x0*y0 + t*x1*y1")
        assert str(f) == "(2*t+1)*x0*y0 + t*x1*y1"
        assert r.parse(str(f)) == f

    def test_parse_errors(self, ring):
        for bad in ["x0 +", "q7", "x0^", "(x0", ""]:
            with pytest.raises(ParseError):
                ring.parse(bad)

    def test_whitespace_insensitive(self, ring):
        assert ring.parse(" x0 * y0+x1\t*y1 ") == ring.parse("x0*y0 + x1*y1")

    def test_t_over_a_prime_field_is_a_parse_error(self, ring):
        with pytest.raises(ParseError, match=r"^GF\(101\) has no extension generator t$"):
            ring.parse("t*x0")
        with pytest.raises(ParseError, match="no extension generator t"):
            ring.parse("x0 + t^2*x1")

    @pytest.mark.parametrize("at, past", [
        ("x0^{cap}*y0", "x0^{next}*y0"),
        ("x0^{prev}*x0", "x0^{cap}*x0"),
        ("x0*x0^{prev}", "x0*x0^{cap}"),
        ("(x0^{prev})*(x0)", "(x0^{cap})*(x0)"),
        ("x0*(y1 + x0^{prev})", "x0*(y1 + x0^{cap})"),
        ("2*(x0^{prev} - y0)*x0", "2*(x0^{cap} - y0)*x0")])
    def test_exponent_cap(self, ring, at, past):
        # an exponent at the cap parses; one past it, however it is reached,
        # is a parse error
        cap = EXPONENT_CAP
        values = {"prev": cap - 1, "cap": cap, "next": cap + 1}
        f = ring.parse(at.format(**values))
        assert max(a for e in f._t for a in e) == cap
        with pytest.raises(ParseError, match="^exponent %d is past the cap %d$" % (cap + 1, cap)):
            ring.parse(past.format(**values))

    def test_field_generator_is_not_capped(self):
        f = PARSE_RINGS["GF(3^2)"].parse("t^%d*x0" % (EXPONENT_CAP + 1))
        assert max(f._t) == (1, 0, 0, 0)

    @pytest.mark.skipif(not DIGIT_LIMIT, reason="int() has no digit limit")
    @pytest.mark.parametrize("text", ["%s*x0", "x0^%s", "x0 - (y0 + %s*y1)", "t^%s*x0"])
    def test_integer_past_the_digit_limit_is_a_parse_error(self, text):
        big = "1" * (DIGIT_LIMIT + 1)
        with pytest.raises(ParseError, match="^integer of %d digits is too long$" % len(big)):
            PARSE_RINGS["GF(3^2)"].parse(text % big)

    def test_sum_parses_in_linear_time(self, gf101):
        # each term used to copy the whole partial sum: 16000 terms took 2-4 s
        r = make_product_projective([2, 2], gf101).ring
        rng = seeded(16)
        exps = [tuple(k // 31 ** i % 31 for i in range(6))
                for k in rng.sample(range(31 ** 6), 16000)]
        coeffs = [rng.randint(1, 100) for _ in exps]
        text = " + ".join("%d*%s" % (c, "*".join("%s^%d" % ve for ve in zip(r.variables, e)))
                          for c, e in zip(coeffs, exps))
        start = time.perf_counter()
        f = r.parse(text)
        assert time.perf_counter() - start < 1.0
        assert len(f) == 16000
        assert all(f.coefficient(e) == c for c, e in zip(coeffs, exps))


# P1xP1 over a prime field and three extension towers
PARSE_RINGS = {name: make_product_projective([1, 1], FieldTower(*pd)).ring
               for name, pd in [("GF(101)", (101,)), ("GF(3^2)", (3, 2)),
                                ("GF(2^4)", (2, 4)), ("GF(7^3)", (7, 3))]}


def _expression(rng, depth=0):
    """A random signed sum of products of integers (0 included), powers of
    t and of the variables, and parenthesised sums; spaced or not."""
    terms = []
    for _ in range(rng.randint(1, 4 - depth)):
        factors = []
        for _ in range(rng.randint(1, 3)):
            r = rng.random()
            if r < 0.15 and depth < 2:
                factors.append("(%s)" % _expression(rng, depth + 1))
            elif r < 0.4:
                factors.append(str(rng.choice([0, 1, 2, 3, 6, 7, 100, 101, 250])))
            else:
                factors.append(rng.choice(["x0", "x1", "y0", "y1", "t"])
                               + rng.choice(["", "", "^0", "^1", "^2", "^3", "^12"]))
        terms.append("*".join(factors))
    text = rng.choice(["", "", "-", "+", " -"]) + terms[0]
    for term in terms[1:]:
        text += rng.choice(["+", "-", " + ", " - "]) + term
    return text


# pieces that break a well-formed expression: a lost or stray parenthesis,
# a dangling '^', juxtaposed factors, unknown names and bad characters
_BREAKS = ["", "(", ")", "^", "*", "+", "-", " ", "x0 ", "2 ", "q", "x", "$", "#",
           "\u0663", "\x1c"]


def _malformed(rng):
    text = _expression(rng)
    for _ in range(rng.randint(1, 3)):
        i = rng.randint(0, len(text))
        j = rng.randint(i, min(len(text), i + 2))
        text = text[:i] + rng.choice(_BREAKS) + text[j:]
    return text


def _outcome(parse, ring, text):
    try:
        f = parse(ring, text)
    except Exception as exc:
        return type(exc), str(exc)
    # the same terms in the same order: the first term names the
    # monomials of an InhomogeneousError
    return list(f._t.items())


class TestParserAgainstReference:
    """``ring.parse`` against the Polynomial-arithmetic parser of conftest."""

    def check(self, name, text):
        ring = PARSE_RINGS[name]
        want = _outcome(reference_parse, ring, text)
        got = _outcome(MultigradedRing.parse, ring, text)
        if want == (ValueError, "prime field has no extension generator"):
            # t over a prime field is a ParseError now
            want = (ParseError, "%s has no extension generator t" % name)
        assert got == want, text

    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from(sorted(PARSE_RINGS)), st.integers(0, 2 ** 32))
    def test_expressions(self, name, seed):
        self.check(name, _expression(seeded(seed)))

    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from(sorted(PARSE_RINGS)), st.integers(0, 2 ** 32))
    def test_malformed(self, name, seed):
        self.check(name, _malformed(seeded(seed)))

    @pytest.mark.parametrize("text", [
        "(x0 + y0", "((x0)*(y1 - 2)", "x0^", "x0*y0^", "t^", "x0 y0", "2 x0", "x0*y0 (x1)",
        "q7", "x0 + z1", "x0 + $y0", "x0 +\t# y0", "  @", "x0*(y0 + \u0663)",
        "(x0+y0)^2", "3^2", "x0 + + y0", "--x0", "x0*", "", " \t ", "0*x0 + 0",
        "x0^" + "9" * 30, "t^1000*x0 - t^1000*x0", "(x0 + x1)*(y0 + y1)",
        "(x0 - y0)*2*(x0 + y0)*(x1 - t*y1)"])
    @pytest.mark.parametrize("name", sorted(PARSE_RINGS))
    def test_examples(self, name, text):
        self.check(name, text)

    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from(["GF(3^2)", "GF(2^4)", "GF(7^3)"]), st.integers(0, 2 ** 32))
    def test_round_trip_over_extension_towers(self, name, seed):
        ring = PARSE_RINGS[name]
        f = ring.parse(_expression(seeded(seed)))
        assert ring.parse(str(f)) == f
