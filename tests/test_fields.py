import functools
import itertools
import random
import re
import time

import pytest
from hypothesis import given, settings, strategies as st

from coxdescent import (FieldTower, ParseError, TowerMismatchError, fields, frobenius,
                        make_product_projective)
from coxdescent.fields import (_LOG_BOUND, _MAX_NESTING, _is_prime, _pdivmod, _pmod, _pmul,
                               _ppowmod, _ptrim)

from conftest import DIGIT_LIMIT, seeded

POW_TOWERS = {"GF(101)": FieldTower(101), "GF(3^2)": FieldTower(3, 2),
              "GF(7^3)": FieldTower(7, 3)}


def elems(tower):
    return list(tower.elements())


class TestConstruction:
    def test_nonprime_modulus_rejected(self):
        with pytest.raises(ValueError):
            FieldTower(6)

    def test_reducible_min_poly_rejected(self):
        with pytest.raises(ValueError):
            FieldTower(3, 2, "t^2+2")  # t^2 - 1 = (t-1)(t+1)

    def test_default_min_poly_is_lex_smallest(self):
        assert FieldTower(3, 2).min_poly == (1, 0, 1)    # t^2 + 1
        assert FieldTower(2, 3).min_poly == (1, 0, 1, 1)  # t^3 + t^2 + 1

    @pytest.mark.parametrize("p, d", [(2, 2), (2, 5), (3, 3), (5, 2), (7, 3)])
    def test_default_min_poly_is_first_irreducible_of_all_candidates(self, p, d):
        tower = FieldTower(p, d)
        first = next(list(tail) + [1] for tail in itertools.product(range(p), repeat=d)
                     if tower._is_irreducible(list(tail) + [1]))
        assert tower.min_poly == tuple(first)

    @pytest.mark.parametrize("p, d", [(2, 2), (2, 3), (2, 4), (2, 6), (3, 2), (3, 3), (3, 4),
                                      (5, 2), (5, 3), (7, 2), (11, 3), (13, 2)])
    def test_default_min_poly_is_first_irreducible_by_trial_division(self, p, d):
        # candidates in the order (a_0, ..., a_{d-1}), a_0 most significant,
        # each tested by dividing by every monic of degree 1 .. d // 2
        def irreducible(f):
            return all(_pdivmod(f, list(g) + [1], p)[1]
                       for k in range(1, d // 2 + 1)
                       for g in itertools.product(range(p), repeat=k))

        first = next(list(tail) + [1] for tail in itertools.product(range(p), repeat=d)
                     if irreducible(list(tail) + [1]))
        assert FieldTower(p, d).min_poly == tuple(first)

    def test_default_min_poly_over_a_61_bit_prime(self):
        # the search decodes one candidate at a time: nothing of size p is
        # built before t^2 + 1, irreducible as 2^61 - 1 = 3 mod 4
        tower = FieldTower(2 ** 61 - 1, 2)
        assert tower.min_poly == (1, 0, 1)
        t = tower.element("t")
        assert t * t == -tower.one()

    def test_default_min_poly_search_skips_reducible_candidates_quickly(self):
        # for d >= 2, t divides every candidate with constant term 0
        assert FieldTower(101, 3).min_poly == (1, 0, 1, 1)
        start = time.perf_counter()
        assert FieldTower(101, 4).min_poly == (1, 0, 0, 1, 1)
        assert time.perf_counter() - start < 5.0

    def test_degree_60_tower_budget(self):
        # the Frobenius matrices are built on first use, not all d up front;
        # building all 59 up front took 0.5-0.85 s on a 2-vCPU VM, the lazy
        # build about 0.1 s
        start = time.perf_counter()
        FieldTower(3, 60)
        assert time.perf_counter() - start < 0.3

    def test_equality_and_hash(self):
        assert FieldTower(3, 2) == FieldTower(3, 2)
        assert hash(FieldTower(3, 2)) == hash(FieldTower(3, 2))
        assert FieldTower(3, 2) != FieldTower(3, 1)

    @pytest.mark.parametrize("p, d", [(2, 5), (3, 4), (101, 3)])
    def test_found_min_poly_not_checked_again(self, monkeypatch, p, d):
        # the search returns an irreducible polynomial; only a min_poly
        # given by the caller is tested after construction
        outside, searching = [], []
        is_irreducible, find = FieldTower._is_irreducible, FieldTower._find_min_poly

        def counting(self, f):
            if not searching:
                outside.append(f)
            return is_irreducible(self, f)

        def search(self):
            searching.append(True)
            try:
                return find(self)
            finally:
                searching.pop()

        monkeypatch.setattr(FieldTower, "_is_irreducible", counting)
        monkeypatch.setattr(FieldTower, "_find_min_poly", search)
        tower = FieldTower(p, d)
        assert outside == []
        assert FieldTower(p, d, tower.min_poly).min_poly == tower.min_poly
        assert outside == [list(tower.min_poly)]

    def test_reducible_min_poly_of_degree_four_rejected(self):
        with pytest.raises(ValueError, match="not irreducible"):
            FieldTower(2, 4, "t^4+t^2+1")  # (t^2 + t + 1)^2

    @pytest.mark.parametrize("mp, error", [
        ("t^3+1", ParseError), ("t+1", ValueError), ("2*t^2+1", ValueError),
        ((1, 0, 0, 1), ValueError)])
    def test_min_poly_of_wrong_degree_names_d(self, mp, error):
        # a string used to be read against degree d + 1, and its error named d + 1
        with pytest.raises(error) as info:
            FieldTower(3, 2, mp)
        assert str(info.value) == "min_poly must be monic of degree 2"


class TestPrimality:
    def test_large_mersenne_prime_accepted_quickly(self):
        start = time.perf_counter()
        tower = FieldTower(2**61 - 1)
        assert time.perf_counter() - start < 1.0
        assert tower.element(2**61 - 2) + tower.one() == tower.zero()

    def test_modulus_past_the_bound_rejected_before_the_test(self, monkeypatch):
        def refuse(n):
            raise AssertionError("primality test ran")
        monkeypatch.setattr("coxdescent.fields._is_prime", refuse)
        with pytest.raises(ValueError, match="p too large"):
            FieldTower(2**89 - 1)

    def test_agrees_with_trial_division(self):
        def trial(n):
            return n >= 2 and all(n % q for q in range(2, int(n**0.5) + 1))
        assert [n for n in range(10**5) if _is_prime(n)] == \
            [n for n in range(10**5) if trial(n)]

    @pytest.mark.parametrize("n", [561, 41041, 3215031751, 3825123056546413051])
    def test_pseudoprimes_rejected(self, n):
        # two Carmichael numbers, a strong pseudoprime to the bases 2..7 and
        # one to every prime base up to 31, which only the base 37 exposes
        assert not _is_prime(n)
        with pytest.raises(ValueError, match="not prime"):
            FieldTower(n)


class TestArithmetic:
    def test_gf101_additive_inverse(self):
        tw = FieldTower(101)
        assert tw.element(50) + tw.element(51) == tw.zero()

    def test_gf9_generator_square(self):
        tw = FieldTower(3, 2)
        t = tw.gen()
        assert t * t == tw.element(2)

    def test_gf9_product_of_conjugate_linear_factors(self):
        tw = FieldTower(3, 2)
        t = tw.gen()
        one = tw.one()
        assert (one + t) * (one - t) == tw.element(2)

    def test_division_by_zero(self):
        tw = FieldTower(101)
        with pytest.raises(ZeroDivisionError):
            tw.element(1) / tw.element(0)

    def test_tower_mismatch(self):
        a = FieldTower(3, 2).gen()
        b = FieldTower(5).one()
        with pytest.raises(TowerMismatchError):
            a + b

    def test_parse_element_text(self):
        tw = FieldTower(3, 2)
        assert tw.element("2*t+1") == tw.element(2) * tw.gen() + tw.one()
        from coxdescent import ParseError
        with pytest.raises(ParseError):
            tw.element("t^2")  # exponents must stay below d

    def test_str_round_trip(self):
        tw = FieldTower(3, 2)
        for a in elems(tw):
            assert tw.element(str(a)) == a

    @pytest.mark.parametrize("p,d", [(3, 2), (2, 3), (5, 2)])
    def test_field_axioms_exhaustive(self, p, d):
        tw = FieldTower(p, d)
        es = elems(tw)
        one, zero = tw.one(), tw.zero()
        for a in es:
            assert a + zero == a and a * one == a
            assert a - a == zero
            if a != zero:
                assert a * a.inverse() == one
        for a, b in itertools.product(es[:6], es[:6]):
            assert a + b == b + a and a * b == b * a


class TestFrobenius:
    def test_gf9_generator_image(self):
        tw = FieldTower(3, 2)
        t = tw.gen()
        assert frobenius(t, 1) == tw.element(2) * t  # t^3 = -t

    def test_prime_subfield_fixed(self):
        tw = FieldTower(3, 2)
        for i in range(4):
            assert frobenius(tw.element(2), i) == tw.element(2)

    def test_full_cycle_is_identity(self):
        for p, d in [(3, 2), (2, 3), (7, 2), (3, 4)]:
            tw = FieldTower(p, d)
            for a in elems(tw):
                assert frobenius(a, d) == a

    def test_power_asked_for_before_smaller_powers(self):
        tw = FieldTower(3, 7)
        values = elems(tw)
        fifth = [frobenius(a, 5) for a in values]
        for a, b in zip(values, fifth):
            for _ in range(5):
                a = frobenius(a, 1)
            assert a == b

    def test_order_exhaustive(self):
        # iterating frobenius(.,1) d times is the identity, p^d <= 10^4
        for p, d in [(3, 2), (2, 3), (5, 2), (3, 4), (2, 6)]:
            tw = FieldTower(p, d)
            for a in elems(tw):
                b = a
                for _ in range(d):
                    b = frobenius(b, 1)
                assert b == a

    def test_fixed_field_of_power(self):
        # fixed field of frobenius^e is GF(p^gcd(e,d))
        import math
        for p, d in [(3, 4), (2, 6)]:
            tw = FieldTower(p, d)
            for e in range(1, d + 1):
                fixed = [a for a in elems(tw) if frobenius(a, e) == a]
                assert len(fixed) == p ** math.gcd(e, d)


@st.composite
def gf9_pair(draw):
    tw = FieldTower(3, 2)
    es = list(tw.elements())
    return draw(st.sampled_from(es)), draw(st.sampled_from(es))


class TestProperties:
    @given(gf9_pair())
    def test_frobenius_is_additive(self, ab):
        a, b = ab
        assert frobenius(a + b) == frobenius(a) + frobenius(b)

    @given(gf9_pair())
    def test_frobenius_is_multiplicative(self, ab):
        a, b = ab
        assert frobenius(a * b) == frobenius(a) * frobenius(b)

    @given(gf9_pair())
    def test_distributivity(self, ab):
        a, b = ab
        tw = a.tower
        for c in tw.elements():
            assert a * (b + c) == a * b + a * c
            break

    @given(gf9_pair())
    def test_canonical_coeffs(self, ab):
        a, b = ab
        for c in (a + b, a * b, a - b, -a):
            assert all(0 <= x < 3 for x in c.coeffs)


class TestPowering:
    """The one square-and-multiply loop against repeated multiplication."""

    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from(sorted(POW_TOWERS)), st.lists(st.integers(0, 100), min_size=3,
                                                         max_size=3), st.integers(-5, 40))
    def test_c_pow(self, name, coeffs, n):
        tw = POW_TOWERS[name]
        a = tw.c_from_coeffs(coeffs[:tw.d])
        want = tw.c_one
        for _ in range(abs(n)):
            want = tw.c_mul(want, a)
        if n >= 0:
            assert tw.c_pow(a, n) == want
        elif a == tw.c_zero:
            with pytest.raises(ZeroDivisionError):
                tw.c_pow(a, n)
        else:
            assert tw.c_mul(tw.c_pow(a, n), want) == tw.c_one

    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from([2, 3, 7, 101]), st.lists(st.integers(0, 100), max_size=6),
           st.lists(st.integers(0, 100), min_size=1, max_size=4), st.integers(0, 30))
    def test_ppowmod(self, p, base, tail, e):
        m = [c % p for c in tail] + [1]  # monic of degree 1 to 4
        base = [c % p for c in base]
        want = [1]
        for _ in range(e):
            want = _pmod(_pmul(want, base, p), m, p)
        assert _ppowmod(base, e, m, p) == want


@pytest.mark.skipif(not DIGIT_LIMIT, reason="int() has no digit limit")
@pytest.mark.parametrize("text", ["%s", "2*t^%s", "1 + %s*t"])
def test_element_integer_past_the_digit_limit_is_a_parse_error(text):
    big = "1" * (DIGIT_LIMIT + 1)
    with pytest.raises(ParseError, match="^integer of %d digits is too long$" % len(big)):
        FieldTower(3, 2).element(text % big)


# element text against the ring parser: the towers and rings of the check
GRAMMAR_TOWERS = {name: FieldTower(*pd) for name, pd in [
    ("GF(101)", (101,)), ("GF(3^2)", (3, 2)), ("GF(5^3)", (5, 3)), ("GF(2^4)", (2, 4)),
    ("GF(101^3)", (101, 3))]}
GRAMMAR_RINGS = {name: make_product_projective([1, 1], tower).ring
                 for name, tower in GRAMMAR_TOWERS.items()}


def _element_text(rng, budget, depth=0):
    """A random signed sum of products of integers, powers of t and
    parenthesised sums, no expanded term of degree past ``budget``."""
    terms = []
    for _ in range(rng.randint(1, 3)):
        factors, left = [], budget
        for _ in range(rng.randint(1, 3)):
            r = rng.random()
            if r < 0.2 and depth < 2:
                inner = rng.randint(0, left)
                factors.append("(%s)" % _element_text(rng, inner, depth + 1))
                left -= inner
            elif r < 0.5 or not left:
                factors.append(str(rng.choice([0, 1, 2, 3, 6, 100, 101, 250])))
            else:
                k = rng.randint(0, left)
                factors.append("t" if k == 1 and rng.random() < 0.5 else "t^%d" % k)
                left -= k
        terms.append("*".join(factors))
    text = rng.choice(["", "", "-", "+", " -"]) + terms[0]
    for term in terms[1:]:
        text += rng.choice(["+", "-", " + ", " - "]) + term
    return text


class TestOneGrammar:
    """Element and min_poly text read by the polynomial parser."""

    @pytest.mark.parametrize("text", ["1+-t", "--1", "3-", "3 t", "3t", "t+"])
    def test_misread_element_is_a_parse_error(self, text):
        # the element reader had its own grammar, which read "1+-t" as
        # 1 + 1 - t, "--1" as 3, "3-" as 2 and "3 t" as 3*t in GF(5^3)
        with pytest.raises(ParseError):
            FieldTower(5, 3).element(text)

    @pytest.mark.parametrize("mp", ["t^2+", "t^2+-1"])
    def test_misread_min_poly_is_a_parse_error(self, mp):
        # "t^2+" used to become t^2 + 1
        with pytest.raises(ParseError):
            FieldTower(3, 2, mp)

    @pytest.mark.parametrize("text, token", [("1+-t", "-"), ("--1", "-"), ("2*+t", "+"),
                                             ("t^2*^3", "^"), ("1+)", ")"), ("**t", "*")])
    def test_operator_where_a_factor_starts(self, text, token):
        # an operator is no variable: the message names the token
        message = "^unexpected token %s$" % re.escape(repr(token))
        with pytest.raises(ParseError, match=message):
            FieldTower(5, 3).element(text)
        with pytest.raises(ParseError, match=message):
            GRAMMAR_RINGS["GF(5^3)"].parse(text.replace("t", "x0"))

    def test_products_and_parentheses(self):
        tower = FieldTower(5, 3)
        t = tower.gen()
        assert tower.element("(t+1)*(t+2)") == (t + 1) * (t + 2)
        assert tower.element("2*(t-3)*2") == 4 * t - 12
        assert tower.element("-(t^2)") == -t * t
        assert FieldTower(3, 2, "(t+1)*(t-1)+2").min_poly == (1, 0, 1)

    @pytest.mark.parametrize("text", ["t*t", "(t+1)*(t+1)", "t*(t+1)", "1+(t-1)*t"])
    def test_expanded_term_past_the_degree(self, text):
        with pytest.raises(ParseError, match=r"^t\^2 exceeds extension degree 2$"):
            FieldTower(3, 2).element(text)

    def test_nesting_bound(self):
        tower, ring = GRAMMAR_TOWERS["GF(5^3)"], GRAMMAR_RINGS["GF(5^3)"]
        deep = "(" * _MAX_NESTING + "%s" + ")" * _MAX_NESTING
        assert tower.element(deep % "t") == tower.gen()
        assert ring.parse(deep % "x0") == ring.var("x0")
        too_deep = "(%s)" % deep
        message = "^parentheses nested deeper than %d$" % _MAX_NESTING
        with pytest.raises(ParseError, match=message):
            tower.element(too_deep % "t")
        with pytest.raises(ParseError, match=message):
            ring.parse(too_deep % "x0")

    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from(sorted(GRAMMAR_TOWERS)), st.integers(0, 2 ** 32))
    def test_element_is_the_constant_of_the_ring_parse(self, name, seed):
        tower, ring = GRAMMAR_TOWERS[name], GRAMMAR_RINGS[name]
        text = _element_text(seeded(seed), tower.d - 1)
        assert tower.element(text) == ring.parse(text).coefficient((0,) * ring.nvars), text


# GF(2^14) is the largest tower on discrete logs (q equals the bound), GF(101^3)
# the benchmark's tower on packed ints
AGREEMENT_TOWERS = [(3, 2), (2, 4), (5, 3), (101, 2), (2, 14), (101, 3)]


def _pinvmod(a, m, p):
    """a^-1 mod the monic m by extended Euclid in GF(p)[t], gcd(a, m) = 1:
    the oracle for the towers' inverses."""
    r0, r1 = list(m), _pmod(a, m, p)
    s0, s1 = [], [1]
    while r1:
        inv = pow(r1[-1], p - 2, p)
        # dividing by the monic r1/lc leaves the remainder of dividing by r1
        q, r = _pdivmod(r0, [(c * inv) % p for c in r1], p)
        q = [(c * inv) % p for c in q]
        r0, r1 = r1, r
        s0, s1 = s1, _ptrim([(x - y) % p for x, y in
                             itertools.zip_longest(s0, _pmul(q, s1, p), fillvalue=0)])
    if len(r0) != 1:
        raise ZeroDivisionError("element is not invertible")
    c = pow(r0[0], p - 2, p)
    return [(x * c) % p for x in s0]


@functools.lru_cache(maxsize=None)
def tower_of(p, d):
    return FieldTower(p, d)


class TestClosuresAgainstPowerBasis:
    """Every ``c_*`` closure against arithmetic on coefficient lists mod the
    minimal polynomial (``_pmul``, ``_pmod``, ``_pinvmod``)."""

    def check(self, tw, a, b, n, i, m):
        p, d, mp = tw.p, tw.d, list(tw.min_poly)
        ra, rb = tw.c_from_coeffs(a), tw.c_from_coeffs(b)
        a, b = _ptrim(list(a)), _ptrim(list(b))

        def coeffs(r):
            cs = tw.c_coeffs(r)
            assert len(cs) == d
            return _ptrim(list(cs))

        def power(x, k):
            return _ppowmod(x, k, mp, p) if k >= 0 else _ppowmod(_pinvmod(x, mp, p), -k, mp, p)

        pad = itertools.zip_longest
        assert coeffs(ra) == a and coeffs(rb) == b
        assert (ra == tw.c_zero) == (not a)
        assert coeffs(tw.c_add(ra, rb)) == _ptrim([(x + y) % p for x, y in pad(a, b, fillvalue=0)])
        assert coeffs(tw.c_sub(ra, rb)) == _ptrim([(x - y) % p for x, y in pad(a, b, fillvalue=0)])
        assert coeffs(tw.c_neg(ra)) == [-x % p for x in a]
        assert tw.c_sub(ra, ra) == tw.c_add(ra, tw.c_neg(ra)) == tw.c_zero
        assert coeffs(tw.c_mul(ra, rb)) == _pmod(_pmul(a, b, p), mp, p)
        assert coeffs(tw.c_frob(ra, i)) == power(a, p ** (i % d))
        assert coeffs(tw.c_from_int(m)) == _ptrim([m % p])
        if a:
            assert coeffs(tw.c_inv(ra)) == _pinvmod(a, mp, p)
            assert coeffs(tw.c_pow(ra, n)) == power(a, n)
        else:
            with pytest.raises(ZeroDivisionError):
                tw.c_inv(ra)
            if n < 0:
                with pytest.raises(ZeroDivisionError):
                    tw.c_pow(ra, n)
            else:
                assert coeffs(tw.c_pow(ra, n)) == ([] if n else [1])

    @pytest.mark.parametrize("p, d", AGREEMENT_TOWERS)
    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_random_operands(self, p, d, data):
        cs = st.lists(st.integers(0, p - 1), min_size=d, max_size=d)
        self.check(tower_of(p, d), data.draw(cs), data.draw(cs), data.draw(st.integers(-40, 40)),
                   data.draw(st.integers(-2 * d, 2 * d)), data.draw(st.integers(-10**6, 10**6)))

    @pytest.mark.parametrize("p, d", [(3, 2), (2, 4)])
    def test_every_pair(self, p, d):
        tw = tower_of(p, d)
        every = list(itertools.product(range(p), repeat=d))
        for k, (a, b) in enumerate(itertools.product(every, every)):
            self.check(tw, a, b, k % 11 - 5, k % (2 * d + 1) - d, k)


class TestLogRepresentation:
    def test_towers_within_the_bound_store_ints(self):
        assert 2 ** 14 == _LOG_BOUND
        assert isinstance(FieldTower(2, 14).c_one, int)
        assert isinstance(FieldTower(127, 2).gen().rep, int)
        # past the bound, coefficient i sits at bit k*i, k = (2*d*p^2).bit_length()
        assert FieldTower(3, 9).gen().rep == 1 << 8  # 19683 elements
        assert FieldTower(101, 3).gen().rep == 1 << 16

    @pytest.mark.parametrize("p, d", [(3, 2), (2, 4)])
    def test_reps_are_ints_and_zero_is_zero(self, p, d):
        tw = tower_of(p, d)
        assert (tw.c_zero, tw.c_one) == (0, 1)
        for a in tw.elements():
            assert isinstance(a.rep, int)
            assert (a.rep == 0) == (not any(a.coeffs)) == a.is_zero()

    @pytest.mark.parametrize("p, d", [(3, 2), (2, 4)])
    def test_str_round_trip(self, p, d):
        tw = tower_of(p, d)
        for a in tw.elements():
            assert tw.element(str(a)) == a

    @pytest.mark.parametrize("p, d", [(3, 2), (101, 2), (101, 3)])
    def test_division_by_zero(self, p, d):
        tw = tower_of(p, d)
        with pytest.raises(ZeroDivisionError):
            tw.element(1) / tw.element(0)
        with pytest.raises(ZeroDivisionError):
            tw.c_inv(tw.c_zero)

    @pytest.mark.parametrize("p, d", [(3, 2), (2, 4), (101, 2)])
    def test_elements_order_and_gen_text(self, p, d):
        tw = tower_of(p, d)
        assert [a.coeffs for a in tw.elements()] == list(itertools.product(range(p), repeat=d))
        assert str(tw.gen()) == "t"
        assert tw.gen().coeffs == (0, 1) + (0,) * (d - 2)



@pytest.mark.parametrize("p, d", [(5, 3), (3, 4)])
def test_packed_tower_against_the_zech_tower(monkeypatch, p, d):
    """Packed-int arithmetic against discrete logs of the same minimal
    polynomial, over every pair of elements: the two share no code for sums,
    products, inverses or Frobenius."""
    zech = tower_of(p, d)
    monkeypatch.setattr(fields, "_LOG_BOUND", 1)
    packed = FieldTower(p, d, zech.min_poly)
    assert packed.gen().rep == 1 << (2 * d * p * p).bit_length() != zech.gen().rep
    every = list(itertools.product(range(p), repeat=d))
    reps = [(packed.c_from_coeffs(cs), zech.c_from_coeffs(cs)) for cs in every]
    pc, zc = packed.c_coeffs, zech.c_coeffs
    for (pa, za), (pb, zb) in itertools.product(reps, reps):
        assert pc(packed.c_add(pa, pb)) == zc(zech.c_add(za, zb))
        assert pc(packed.c_mul(pa, pb)) == zc(zech.c_mul(za, zb))
    for pa, za in reps[1:]:
        assert pc(packed.c_inv(pa)) == zc(zech.c_inv(za))
    for i in range(-1, d + 1):
        for pa, za in reps:
            assert pc(packed.c_frob(pa, i)) == zc(zech.c_frob(za, i))


# towers past the log bound; 2^61 - 1 = 3 mod 4, so t^2 + 1 is irreducible,
# and its fields are 125 bits wide
PACKED_TOWERS = [(101, 3, None), (3, 9, None), (2, 15, None), (10007, 2, None),
                 (2 ** 61 - 1, 2, "t^2+1")]


@pytest.mark.parametrize("p, d, min_poly", PACKED_TOWERS)
def test_packed_tower_against_power_basis_helpers(p, d, min_poly):
    """Seeded operands: every closure of a packed tower against
    ``_pmod(_pmul(...))`` and ``_ppowmod`` on coefficient lists."""
    tw = FieldTower(p, d, min_poly)
    assert p ** d > _LOG_BOUND
    mp, n = list(tw.min_poly), p ** d - 1
    rng = random.Random(2026 + p + d)

    def coeffs(r):
        cs = tw.c_coeffs(r)
        assert len(cs) == d and all(0 <= c < p for c in cs)
        assert (r == 0) == (not any(cs))  # one zero, and it is 0
        return _ptrim(list(cs))

    for k in range(40):
        a, b = ([0] * d if k == 0 else [rng.randrange(p) for _ in range(d)]
                for _ in range(2))
        ra, rb = tw.c_from_coeffs(a), tw.c_from_coeffs(b)
        a, b = _ptrim(a), _ptrim(b)
        pairs = list(itertools.zip_longest(a, b, fillvalue=0))
        assert coeffs(ra) == a
        assert coeffs(tw.c_add(ra, rb)) == _ptrim([(x + y) % p for x, y in pairs])
        assert coeffs(tw.c_sub(ra, rb)) == _ptrim([(x - y) % p for x, y in pairs])
        assert coeffs(tw.c_neg(ra)) == [-x % p for x in a]
        assert tw.c_sub(ra, ra) == tw.c_add(ra, tw.c_neg(ra)) == 0
        assert coeffs(tw.c_mul(ra, rb)) == _pmod(_pmul(a, b, p), mp, p)
        for i in range(-1, d + 1):
            assert coeffs(tw.c_frob(ra, i)) == _ppowmod(a, p ** (i % d), mp, p)
        for e in (-3, -1, 0, 1, 2, 5, rng.randrange(-n, n)):
            if a:
                assert coeffs(tw.c_pow(ra, e)) == _ppowmod(a, e % n, mp, p)
            elif e < 0:
                with pytest.raises(ZeroDivisionError):
                    tw.c_pow(ra, e)
            else:
                assert coeffs(tw.c_pow(ra, e)) == ([] if e else [1])
        if a:
            assert coeffs(tw.c_inv(ra)) == _ppowmod(a, n - 1, mp, p)
        else:
            with pytest.raises(ZeroDivisionError, match=r"^division by zero in GF\(%d\^%d\)$"
                               % (p, d)):
                tw.c_inv(ra)
        # negative and >= p coefficients: the same element, the same text
        shifted = [x + p * rng.randrange(-3, 4) for x in a + [0] * (d - len(a))]
        assert tw.c_coeffs(tw.c_from_coeffs(shifted)) == tuple(x % p for x in shifted)
        assert tw.c_from_coeffs(shifted) == ra
        x, y = tw.element(shifted), tw.element(list(a))
        assert x == y and hash(x) == hash(y) and str(x) == str(y)
        assert tw.element(b) * x == tw.element(_pmod(_pmul(a, b, p), mp, p))
        assert hash(tw.element(b) * x) == hash(tw.element(_pmod(_pmul(a, b, p), mp, p)))
    assert tw.c_from_coeffs([p, -2 * p] + [0] * (d - 2)) == 0
