"""The packed engine kernel against the tuple definitions it replaces.

The engine packs each exponent vector into one int per monomial order
(``groebner._Order``).  The tuple definitions below are the reference: the
textbook orders as sort keys, componentwise sum and divisibility, and
``_reference_normal_form``, the straightforward loop that takes the largest
remaining term with ``min(work, key=key)``, reduces it by the first pair
whose lt divides it, or moves it to the result.  ``_normal_form_dict`` on
packed terms must return the same dict once unpacked, for grevlex, the
elimination order and the weighted x_i-last orders of Bayer steps (with the
unequal weights of the Hirzebruch surface F1), in both of the loops it
picks between: plain ints over a prime field (up to the Mersenne prime
2^61 - 1, whose products take 122 bits) and the tower's arithmetic over
the extension field GF(9).  Every packing must agree with the tuple
definitions on round trips, products, comparisons and divisibility,
including exponents at the field boundary, at the exponent cap and one
past it.
"""

import operator
import random

import pytest
from hypothesis import given, settings, strategies as st

from coxdescent import ExponentCapError, FieldTower, Polynomial, make_product_projective
from coxdescent import groebner as G
from coxdescent.groebner import _normal_form_dict
from coxdescent.rings import EXPONENT_CAP, _add_scaled

from conftest import grevlex_key, make_f1

TOWERS = {"gf101": FieldTower(101), "gf9": FieldTower(3, 2), "m61": FieldTower(2 ** 61 - 1)}
F1_WEIGHTS = make_f1(TOWERS["gf101"]).ring._weights[1]  # (1, 1, 2, 1)
CAP = EXPONENT_CAP


# ---------------------------------------------------------------------------
# the tuple definitions

def _exp_add(a, b):
    return tuple(map(operator.add, a, b))


def _exp_sub(a, b):
    return tuple(map(operator.sub, a, b))


def _exp_divides(a, b):
    return all(map(operator.le, a, b))


def _elim_key(e):
    """The auxiliary coordinate e[0] first, then grevlex on the rest."""
    return (-e[0], *grevlex_key(e[1:]))


def _bayer_key(w, i):
    """Grevlex weighted by ``w``, with x_i last."""
    j = len(w) - 1 - i

    def key(e):
        rev = e[::-1]
        return (-sum(map(operator.mul, w, e)), e[i], *rev[:j], *rev[j + 1:])

    return key


def _weights(n):
    return tuple(F1_WEIGHTS[j % len(F1_WEIGHTS)] for j in range(n))


def orders(n):
    """{name: (packed order, tuple sort key, length of its exponent tuples,
    the tuple's degree that the order caps)} for n variables."""
    w = _weights(n)
    out = {"grevlex": (G._grevlex(n), grevlex_key, n, sum),
           "elim": (G._elimination(n), _elim_key, n + 1, lambda e: sum(e[1:]))}
    for i in range(n):
        out["bayer%d" % i] = (G._bayer(w, i), _bayer_key(w, i), n,
                              lambda e: sum(map(operator.mul, w, e)))
    return out


ORDER_NAMES = ["grevlex", "elim", "bayer0", "bayer1", "bayer2", "bayer3"]


def _order(name, n):
    """The named order on n variables; a Bayer index past n - 1 wraps."""
    if name.startswith("bayer"):
        name = "bayer%d" % (int(name[5:]) % n)
    return orders(n)[name]


def _reference_normal_form(h, gb, tower, key):
    work = dict(h)
    result = {}
    while work:
        m = min(work, key=key)
        c = work.pop(m)
        for lt, tail in gb:
            if _exp_divides(lt, m):
                _reference_add_scaled_in_place(work, tail, tower, tower.c_neg(c),
                                               _exp_sub(m, lt))
                break
        else:
            result[m] = c
    return result


def _reference_add_scaled_in_place(h, g, tower, c, q):
    for e, v in g.items():
        e = _exp_add(e, q)
        s = tower.c_add(h.get(e, tower.c_zero), tower.c_mul(c, v))
        if s == tower.c_zero:
            h.pop(e, None)
        else:
            h[e] = s


def _reference_add_scaled(h, g, tower, c, q):
    out = dict(h)
    _reference_add_scaled_in_place(out, g, tower, c, q)
    return out


# ---------------------------------------------------------------------------
# random term dicts

def _coeff(rng, tower):
    """A random nonzero raw coefficient."""
    if tower.d == 1:
        return rng.randrange(1, tower.p)
    return rng.choice([a.rep for a in tower.elements() if a.rep != tower.c_zero])


def _exponent(rng, nvars, lifted):
    # the auxiliary coordinate stays small so elimination-order reductions,
    # which may raise the other coordinates, stay small too
    head = (rng.randint(0, 2),) if lifted else ()
    return head + tuple(rng.randint(0, 3) for _ in range(nvars))


def _term_dict(rng, tower, nvars, lifted, max_terms):
    return {_exponent(rng, nvars, lifted): _coeff(rng, tower)
            for _ in range(rng.randint(1, max_terms))}


def _pairs(rng, tower, nvars, lifted, key):
    """A few monic (lt, tail) pairs: lt is the largest exponent of its dict."""
    pairs = []
    for _ in range(rng.randint(1, 4)):
        t = _term_dict(rng, tower, nvars, lifted, 4)
        lt = min(t, key=key)
        pairs.append((lt, {e: c for e, c in t.items() if e != lt}))
    return pairs


def _packed_pairs(order, pairs):
    return [(order.pack(lt), order.pack_terms(tail)) for lt, tail in pairs]


class TestAgainstReference:
    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 2 ** 32), st.sampled_from(sorted(TOWERS)),
           st.sampled_from(ORDER_NAMES), st.integers(1, 4))
    def test_random_dicts_and_pairs(self, seed, tower_name, order_name, nvars):
        tower = TOWERS[tower_name]
        order, key, _, _ = _order(order_name, nvars)
        lifted = int(order_name == "elim")
        rng = random.Random(seed)
        h = _term_dict(rng, tower, nvars, lifted, 8)
        gb = _pairs(rng, tower, nvars, lifted, key)
        packed = _normal_form_dict(order.pack_terms(h), _packed_pairs(order, gb), tower, order)
        assert order.unpack_terms(packed) == _reference_normal_form(h, gb, tower, key)

    @pytest.mark.parametrize("tower_name", sorted(TOWERS))
    def test_empty_basis_returns_the_dict(self, tower_name):
        tower = TOWERS[tower_name]
        order = G._grevlex(3)
        h = _term_dict(random.Random(1), tower, 3, 0, 8)
        assert order.unpack_terms(_normal_form_dict(order.pack_terms(h), [], tower, order)) == h

    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 2 ** 32), st.sampled_from(sorted(TOWERS)),
           st.sampled_from(ORDER_NAMES), st.integers(1, 4), st.booleans())
    def test_zero_test_returns_the_leading_term(self, seed, tower_name, order_name, nvars,
                                                member):
        """The zero-test mode is empty exactly when the full normal form is,
        and otherwise holds the full remainder's leading term alone.  A
        ``member`` h is a multiple of the first pair, so it reduces to 0."""
        tower = TOWERS[tower_name]
        order, key, _, _ = _order(order_name, nvars)
        lifted = int(order_name == "elim")
        rng = random.Random(seed)
        gb = _pairs(rng, tower, nvars, lifted, key)
        if member:
            (lt, tail), a, c = gb[0], _exponent(rng, nvars, lifted), _coeff(rng, tower)
            h = {_exp_add(lt, a): c, **{_exp_add(e, a): tower.c_mul(c, v) for e, v in tail.items()}}
        else:
            h = _term_dict(rng, tower, nvars, lifted, 8)
        ph, pgb = order.pack_terms(h), _packed_pairs(order, gb)
        full = _normal_form_dict(ph, pgb, tower, order)
        lead = _normal_form_dict(ph, pgb, tower, order, zero_test=True)
        assert bool(lead) == bool(full)
        if member:
            assert not full
        if full:
            m = max(full)
            assert lead == {m: full[m]}

    def test_cancelled_term_created_again(self, monkeypatch):
        """x^2 + xy + y^2 against (x^2 + y^2, xy + y^2).

        Reducing x^2 cancels y^2 and reducing xy creates it again.  The
        term must be counted once: the normal form is -y^2.  Over GF(9) the
        cancelled term is deleted, leaving a stale heap entry, and y^2
        comes back with a fresh one.  Over GF(101) the sum stays in ``work``,
        unreduced, until y^2 is popped, so no exponent is pushed twice.
        """
        order = G._grevlex(2)
        x2, xy, y2 = (2, 0), (1, 1), (0, 2)
        pushed = []
        push = G.heapq.heappush

        def recording_push(heap, item):
            pushed.append(order.unpack(-item))
            push(heap, item)

        monkeypatch.setattr(G.heapq, "heappush", recording_push)
        for name in ("gf101", "gf9"):
            tower = TOWERS[name]
            one = tower.c_one
            h = {x2: one, xy: one, y2: one}
            gb = [(x2, {y2: one}), (xy, {y2: one})]
            pushed.clear()
            result = order.unpack_terms(_normal_form_dict(order.pack_terms(h),
                                                          _packed_pairs(order, gb), tower, order))
            if name == "gf9":
                assert pushed == [y2]
                assert result == {y2: tower.c_neg(one)}
            else:
                assert len(pushed) == len(set(pushed))
                assert result == {y2: 100}
            assert result == _reference_normal_form(h, gb, tower, grevlex_key)


def _grevlex_greater(a, b):
    """a > b in grevlex, by the textbook definition: higher total degree, or
    the same degree and the last nonzero entry of a - b is negative."""
    if sum(a) != sum(b):
        return sum(a) > sum(b)
    return [x - y for x, y in zip(a, b) if x != y][-1] < 0


def _elim_greater(a, b):
    """a > b in the elimination order: the first coordinate, then grevlex."""
    if a[0] != b[0]:
        return a[0] > b[0]
    return _grevlex_greater(a[1:], b[1:])


class TestKeys:
    @settings(max_examples=300, deadline=None)
    @given(st.integers(2, 8).flatmap(
        lambda n: st.tuples(*[st.tuples(*[st.integers(0, 5)] * n)] * 2)))
    def test_key_puts_the_larger_exponent_first(self, ab):
        a, b = ab
        if a != b:
            n = len(a)
            for key, greater, order in ((grevlex_key, _grevlex_greater, G._grevlex(n)),
                                        (_elim_key, _elim_greater, G._elimination(n - 1))):
                assert (key(a) < key(b)) == greater(a, b)
                assert (order.pack(a) > order.pack(b)) == greater(a, b)


# ---------------------------------------------------------------------------
# the packings against the tuple definitions, at the cap and past it

@st.composite
def _vector(draw, length, lifted):
    """An exponent tuple whose capped part has a total degree near 0, near
    the cap or one past it, spread over the variables or piled on one."""
    rest = length - lifted
    d = draw(st.sampled_from([0, 1, CAP - 1, CAP, CAP + 1]) | st.integers(0, CAP + 1))
    if draw(st.booleans()):
        e = [0] * rest
        e[draw(st.integers(0, rest - 1))] = d
    else:
        cuts = sorted(draw(st.lists(st.integers(0, d), min_size=rest - 1, max_size=rest - 1)))
        e = [b - a for a, b in zip([0] + cuts, cuts + [d])]
    head = [draw(st.integers(0, 3) | st.just(CAP + 1))] if lifted else []
    return tuple(head + e)


@st.composite
def _case(draw):
    """(order name, n, a, b), b often a multiple of a."""
    name = draw(st.sampled_from(ORDER_NAMES))
    n = draw(st.integers(1, 5))
    _, _, length, _ = _order(name, n)
    lifted = int(name == "elim")
    a = draw(_vector(length, lifted))
    if draw(st.booleans()):
        b = _exp_add(a, draw(_vector(length, lifted)))
    else:
        b = draw(_vector(length, lifted))
    return name, n, a, b


class TestPacking:
    @settings(max_examples=400, deadline=None)
    @given(_case())
    def test_packings_agree_with_the_tuple_definitions(self, case):
        name, n, a, b = case
        order, key, _, degree = _order(name, n)
        packed = {}
        for e in (a, b):
            if degree(e) > CAP:
                with pytest.raises(ExponentCapError):
                    order.pack(e)
            else:
                packed[e] = order.pack(e)
                assert order.unpack(packed[e]) == e
        if len(packed) < 2:
            return
        ka, kb = packed[a], packed[b]
        # comparison: the larger int is the larger monomial
        assert (ka > kb) == (key(a) < key(b))
        assert (ka == kb) == (a == b)
        # divisibility
        assert order.divides(ka, kb) == _exp_divides(a, b)
        assert order.divides(kb, ka) == _exp_divides(b, a)
        # product: exact within the cap; past it the carry is seen
        ab, kab = _exp_add(a, b), ka + kb - order.zero
        if degree(ab) <= CAP:
            assert kab == order.pack(ab)
        elif order.limit is not None:
            assert kab >= order.limit
        else:
            assert kab & order.guard
        # lcm, as the S-pairs take it: exact also past the cap, where the
        # S-pair check sees it (the elimination order checks terms instead)
        lcm = tuple(map(max, a, b))
        kl = order.key(lcm)
        assert kl == ka + kb - order.pack(tuple(map(min, a, b)))
        if degree(lcm) <= CAP:
            assert kl == order.pack(lcm)
        elif order.limit is not None:
            assert kl >= order.limit

    @pytest.mark.parametrize("name", ORDER_NAMES)
    def test_field_boundaries(self, name):
        n = 4
        order, key, length, degree = _order(name, n)
        lifted = int(name == "elim")
        for i in range(lifted, length):
            for a in (0, 1, CAP - 1, CAP, CAP + 1, 2 * CAP + 1, 2 * CAP + 2, 1 << 40):
                e = tuple(a if j == i else 0 for j in range(length))
                if degree(e) > CAP:
                    with pytest.raises(ExponentCapError):
                        order.pack(e)
                else:
                    assert order.unpack(order.pack(e)) == e
        if lifted:  # the auxiliary exponent is not capped
            e = (1 << 40,) + (0,) * (length - 2) + (CAP,)
            assert order.unpack(order.pack(e)) == e

    def test_sorting_past_the_cap_is_exact(self):
        # polynomials order their exponent tuples without packing them, so
        # sorting stays exact where no packing holds the exponents
        ring = make_product_projective([1, 1], TOWERS["gf101"]).ring
        rng = random.Random(5)
        exps = {tuple(rng.choice([0, 1, CAP, CAP + 1, 5 * CAP, 1 << 20]) for _ in range(4))
                for _ in range(60)}
        f = Polynomial(ring, dict.fromkeys(exps, 1))
        assert [e for e, _ in f.sorted_terms()] == sorted(exps, key=grevlex_key)


class TestAddScaled:
    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 2 ** 32), st.sampled_from(sorted(TOWERS)))
    def test_new_lists_exactly_the_new_exponents(self, seed, tower_name):
        tower = TOWERS[tower_name]
        order = G._grevlex(3)
        rng = random.Random(seed)
        h = _term_dict(rng, tower, 3, 0, 8)
        g = _term_dict(rng, tower, 3, 0, 8)
        c = _coeff(rng, tower)
        q = _exponent(rng, 3, 0)
        expected = _reference_add_scaled(h, g, tower, c, q)
        ph, pg, pq = order.pack_terms(h), order.pack_terms(g), order.pack(q) - order.zero

        without = dict(ph)
        _add_scaled(without, pg, tower, c, pq)
        assert order.unpack_terms(without) == expected

        with_list, new = dict(ph), []
        _add_scaled(with_list, pg, tower, c, pq, new)
        assert order.unpack_terms(with_list) == expected
        assert [order.unpack(e) for e in new] == [
            e for e in (_exp_add(e, q) for e in g) if e not in h]
