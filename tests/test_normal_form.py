"""The heap-ordered normal form against the plain largest-term scan.

``_reference_normal_form`` is the straightforward loop: take the largest
remaining term with ``min(work, key=key)``, reduce it by the first pair
whose lt divides it, or move it to the result.  ``_normal_form_dict`` must
return the same dict for the grevlex order and for the elimination order
on lifted exponents, over a prime field and an extension field.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from coxdescent import FieldTower
from coxdescent import groebner
from coxdescent.groebner import _elim_key, _normal_form_dict
from coxdescent.rings import _add_scaled, _exp_add, _exp_divides, _exp_sub, _grevlex_key

TOWERS = {"gf101": FieldTower(101), "gf9": FieldTower(3, 2)}
ORDERS = {"grevlex": (_grevlex_key, 0), "elim": (_elim_key, 1)}


def _reference_normal_form(h, gb, tower, key):
    work = dict(h)
    result = {}
    while work:
        m = min(work, key=key)
        c = work.pop(m)
        for lt, tail in gb:
            if _exp_divides(lt, m):
                _add_scaled(work, tail, tower, tower.c_neg(c), _exp_sub(m, lt))
                break
        else:
            result[m] = c
    return result


def _nonzero(tower):
    return [a.rep for a in tower.elements() if a.rep != tower.c_zero]


def _exponent(rng, nvars, lifted):
    # the auxiliary coordinate stays small so elimination-order reductions,
    # which may raise the other coordinates, stay small too
    head = (rng.randint(0, 2),) if lifted else ()
    return head + tuple(rng.randint(0, 3) for _ in range(nvars))


def _term_dict(rng, tower, nvars, lifted, max_terms):
    coeffs = _nonzero(tower)
    return {_exponent(rng, nvars, lifted): rng.choice(coeffs)
            for _ in range(rng.randint(1, max_terms))}


def _pairs(rng, tower, nvars, lifted, key):
    """A few monic (lt, tail) pairs: lt is the largest exponent of its dict."""
    pairs = []
    for _ in range(rng.randint(1, 4)):
        t = _term_dict(rng, tower, nvars, lifted, 4)
        lt = min(t, key=key)
        pairs.append((lt, {e: c for e, c in t.items() if e != lt}))
    return pairs


class TestAgainstReference:
    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 2 ** 32), st.sampled_from(sorted(TOWERS)),
           st.sampled_from(sorted(ORDERS)), st.integers(1, 4))
    def test_random_dicts_and_pairs(self, seed, tower_name, order_name, nvars):
        tower = TOWERS[tower_name]
        key, lifted = ORDERS[order_name]
        rng = random.Random(seed)
        h = _term_dict(rng, tower, nvars, lifted, 8)
        gb = _pairs(rng, tower, nvars, lifted, key)
        assert _normal_form_dict(h, gb, tower, key) == _reference_normal_form(h, gb, tower, key)

    @pytest.mark.parametrize("tower_name", sorted(TOWERS))
    def test_empty_basis_returns_the_dict(self, tower_name):
        tower = TOWERS[tower_name]
        h = _term_dict(random.Random(1), tower, 3, 0, 8)
        assert _normal_form_dict(h, [], tower, _grevlex_key) == h

    def test_cancelled_term_created_again(self, monkeypatch):
        """x^2 + xy + y^2 against (x^2 + y^2, xy + y^2) over GF(101).

        Reducing x^2 cancels y^2, which leaves a stale heap entry for it;
        reducing xy creates y^2 again, so a fresh entry joins the stale one.
        The term must be counted once: the normal form is -y^2.
        """
        tower = TOWERS["gf101"]
        x2, xy, y2 = (2, 0), (1, 1), (0, 2)
        h = {x2: 1, xy: 1, y2: 1}
        gb = [(x2, {y2: 1}), (xy, {y2: 1})]
        pushed = []
        push = groebner.heapq.heappush

        def recording_push(heap, item):
            pushed.append(item[1])
            push(heap, item)

        monkeypatch.setattr(groebner.heapq, "heappush", recording_push)
        result = _normal_form_dict(h, gb, tower, _grevlex_key)
        assert pushed == [y2]
        assert result == {y2: 100}
        assert result == _reference_normal_form(h, gb, tower, _grevlex_key)


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
            for key, greater in ((_grevlex_key, _grevlex_greater), (_elim_key, _elim_greater)):
                assert (key(a) < key(b)) == greater(a, b)


def _reference_add_scaled(h, g, tower, c, q):
    out = dict(h)
    for e, v in g.items():
        e = _exp_add(e, q)
        s = tower.c_add(out.get(e, tower.c_zero), tower.c_mul(c, v))
        if s == tower.c_zero:
            out.pop(e, None)
        else:
            out[e] = s
    return out


class TestAddScaled:
    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 2 ** 32), st.sampled_from(sorted(TOWERS)))
    def test_new_lists_exactly_the_new_exponents(self, seed, tower_name):
        tower = TOWERS[tower_name]
        rng = random.Random(seed)
        h = _term_dict(rng, tower, 3, 0, 8)
        g = _term_dict(rng, tower, 3, 0, 8)
        c = rng.choice(_nonzero(tower))
        q = _exponent(rng, 3, 0)
        expected = _reference_add_scaled(h, g, tower, c, q)

        without = dict(h)
        _add_scaled(without, g, tower, c, q)
        assert without == expected

        with_list, new = dict(h), []
        _add_scaled(with_list, g, tower, c, q, new)
        assert with_list == expected
        assert new == [e for e in (_exp_add(e, q) for e in g) if e not in h]
