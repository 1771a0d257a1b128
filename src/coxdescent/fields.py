"""Exact arithmetic in GF(p) and GF(p^d), with the Frobenius automorphism.

Elements of GF(p^d) are stored in the power basis 1, t, ..., t^(d-1) where t
is a root of the defining minimal polynomial.  For d == 1 the internal
representation is a plain residue; for d > 1 it is a tuple of d residues.
The :class:`FieldElement` wrapper presents a uniform immutable value type.
"""

from __future__ import annotations

import itertools
import re

from .errors import ParseError, TowerMismatchError

# ---------------------------------------------------------------------------
# polynomial helpers over GF(p); coefficient lists, ascending degree


def _ptrim(a):
    while a and a[-1] == 0:
        a.pop()
    return a


def _pmul(a, b, p):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return _ptrim(out)


def _pdivmod(a, m, p):
    """Quotient and remainder of a by the monic m over GF(p)."""
    r = list(a)
    dm = len(m) - 1
    q = []
    while len(r) > dm:
        c = r.pop()  # the top term, cancelled by c * t^k * m
        q.append(c)
        if c:
            k = len(r) - dm
            for i in range(dm):
                r[k + i] = (r[k + i] - c * m[i]) % p
    q.reverse()
    return _ptrim(q), _ptrim(r)


def _pmod(a, m, p):
    return _pdivmod(a, m, p)[1]


def _power(x, n, one, mul):
    """x^n for n >= 0 by binary square-and-multiply (Knuth, TAOCP 2, 4.6.3)."""
    result = one
    while True:
        if n & 1:
            result = mul(result, x)
        n >>= 1
        if not n:
            return result
        x = mul(x, x)


def _ppowmod(base, e, m, p):
    return _power(_pmod(base, m, p), e, [1], lambda a, b: _pmod(_pmul(a, b, p), m, p))


def _pgcd(a, b, p):
    a, b = list(a), list(b)
    while b:
        # make b monic before reduction
        inv = pow(b[-1], p - 2, p)
        bm = [(c * inv) % p for c in b]
        a, b = b, _pmod(a, bm, p)
    return a


def _pinvmod(a, m, p):
    # extended Euclid in GF(p)[t]; m monic, gcd(a, m) = 1
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
    # r0 = gcd, should be a nonzero constant
    if len(r0) != 1:
        raise ZeroDivisionError("element is not invertible")
    c = pow(r0[0], p - 2, p)
    return [(x * c) % p for x in s0]


# the first 12 primes: as Miller-Rabin bases they decide every n below
# 3.18e23 (Sorenson and Webster 2015), beyond the 2^62 bound on p
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _is_prime(n):
    """Deterministic Miller-Rabin, exact for n < 3.18e23."""
    if n < 2:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    d, r = n - 1, 0
    while d % 2 == 0:
        d, r = d // 2, r + 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


_ELEM_TOKEN = re.compile(r"\s*(\d+|t|\^|\*|\+|\-)")


def _parse_element_tokens(s):
    pos, out = 0, []
    while pos < len(s):
        m = _ELEM_TOKEN.match(s, pos)
        if not m:
            if s[pos:].strip():
                raise ParseError("bad field element syntax near %r" % s[pos:])
            break
        out.append(m.group(1))
        pos = m.end()
    return out


class FieldTower:
    """A prime field GF(p) with an extension GF(p^d) and its Galois group.

    The Galois group of GF(p^d)/GF(p) is cyclic of order d, generated by
    the Frobenius a -> a^p.
    """

    def __init__(self, p, d=1, min_poly=None):
        if p >= 2**62:
            raise ValueError("p too large")
        if not _is_prime(p):
            raise ValueError("p = %d is not prime" % p)
        if d < 1:
            raise ValueError("extension degree must be >= 1")
        self.p = p
        self.d = d
        if d == 1:
            self.min_poly = (0, 1)  # t - 0; read only by __eq__ and __hash__
        else:
            if min_poly is None:
                coeffs = self._find_min_poly()  # irreducible by construction
            else:
                coeffs = self._coerce_min_poly(min_poly)
                if not self._is_irreducible(coeffs):
                    raise ValueError("min_poly is not irreducible over GF(%d)" % p)
            self.min_poly = tuple(coeffs)
        self._setup_ops()

    # -- construction helpers

    def _coerce_min_poly(self, mp):
        p, d = self.p, self.d
        if isinstance(mp, str):
            coeffs = list(_parse_rep(mp, p, d + 1))  # d + 1 entries, as d >= 2
        else:
            coeffs = [c % p for c in mp]
        if len(coeffs) != d + 1 or coeffs[-1] != 1:
            raise ValueError("min_poly must be monic of degree %d" % d)
        return coeffs

    def _is_irreducible(self, f):
        p, d = self.p, self.d
        x = [0, 1]
        g = x
        for _ in range(d // 2):
            g = _ppowmod(g, p, f, p)
            diff = _ptrim([(a - b) % p for a, b in itertools.zip_longest(g, x, fillvalue=0)])
            if len(_pgcd(f, diff, p)) != 1:
                return False
        return True

    def _find_min_poly(self):
        # smallest irreducible in lexicographic coefficient order (a_0,...,a_{d-1});
        # for d >= 2, t divides every candidate with a_0 = 0
        p, d = self.p, self.d
        for tail in itertools.product(range(1, p), *[range(p)] * (d - 1)):
            f = list(tail) + [1]
            if self._is_irreducible(f):
                return f
        raise AssertionError("no irreducible polynomial found")  # unreachable

    def _setup_ops(self):
        """Install coefficient operations as closures.

        Internal representation: plain residue for d == 1, tuple of d
        residues otherwise.  Polynomials store these raw representations.
        """
        p, d = self.p, self.d
        if d == 1:
            self.c_zero = 0
            self.c_one = 1
            self.c_add = lambda a, b: (a + b) % p
            self.c_sub = lambda a, b: (a - b) % p
            self.c_mul = lambda a, b: (a * b) % p
            self.c_neg = lambda a: (-a) % p

            def c_inv(a):
                if a == 0:
                    raise ZeroDivisionError("division by zero in GF(%d)" % p)
                return pow(a, p - 2, p)

            self.c_inv = c_inv
            self.c_frob = lambda a, i=1: a
            self.c_from_int = lambda n: n % p
            self.c_coeffs = lambda a: (a,)
            self.c_from_coeffs = lambda cs: cs[0] % p
        else:
            mp = list(self.min_poly)
            # reduction rows: t^(d+k) in the power basis, k = 0 .. d-2
            red = [None] * (d - 1)
            cur = [(-c) % p for c in mp[:d]]  # t^d
            red[0] = tuple(cur)
            for k in range(1, d - 1):
                top = cur[-1]
                cur = [0] + cur[:-1]
                if top:
                    cur = [(c + top * r) % p for c, r in zip(cur, red[0])]
                red[k] = tuple(cur)

            zero = (0,) * d
            one = (1,) + (0,) * (d - 1)
            self.c_zero = zero
            self.c_one = one

            def c_add(a, b):
                return tuple((x + y) % p for x, y in zip(a, b))

            def c_sub(a, b):
                return tuple((x - y) % p for x, y in zip(a, b))

            def c_neg(a):
                return tuple((-x) % p for x in a)

            def c_mul(a, b):
                full = [0] * (2 * d - 1)
                for i, ai in enumerate(a):
                    if ai:
                        for j, bj in enumerate(b):
                            full[i + j] += ai * bj
                out = [c % p for c in full[:d]]
                for k in range(d - 1):
                    c = full[d + k] % p
                    if c:
                        row = red[k]
                        for i in range(d):
                            out[i] = (out[i] + c * row[i]) % p
                return tuple(out)

            def c_inv(a):
                if not any(a):
                    raise ZeroDivisionError("division by zero in GF(%d^%d)" % (p, d))
                inv = _pinvmod(list(a), mp, p)
                inv += [0] * (d - len(inv))
                return tuple(inv)

            # Frobenius matrices, built on first use: column j of frob_mats[i]
            # is t^(j*p^i) mod min_poly
            tp = _ppowmod([0, 1], p, mp, p)
            cols = []
            cur = [1]
            for j in range(d):
                c = list(cur) + [0] * (d - len(cur))
                cols.append(tuple(c[:d]))
                cur = _pmod(_pmul(cur, tp, p), mp, p)
            frob_mats = [None, cols]  # frob_mats[0], the identity, is never read

            def _apply_mat(cols_, a):
                out = [0] * d
                for j, aj in enumerate(a):
                    if aj:
                        col = cols_[j]
                        for i in range(d):
                            out[i] = (out[i] + aj * col[i]) % p
                return tuple(out)

            def c_frob(a, i=1):
                i %= d
                if i == 0:
                    return a
                while len(frob_mats) <= i:
                    frob_mats.append([_apply_mat(cols, c) for c in frob_mats[-1]])
                return _apply_mat(frob_mats[i], a)

            self.c_add = c_add
            self.c_sub = c_sub
            self.c_neg = c_neg
            self.c_mul = c_mul
            self.c_inv = c_inv
            self.c_frob = c_frob
            self.c_from_int = lambda n: (n % p,) + (0,) * (d - 1)
            self.c_coeffs = lambda a: a
            self.c_from_coeffs = lambda cs: tuple(c % p for c in cs)

    def c_pow(self, a, n):
        if n < 0:
            a, n = self.c_inv(a), -n
        return _power(a, n, self.c_one, self.c_mul)

    def c_div(self, a, b):
        return self.c_mul(a, self.c_inv(b))

    # -- public element interface

    def element(self, value):
        """Coerce an int, string, coefficient sequence or element."""
        if isinstance(value, FieldElement):
            if value.tower != self:
                raise TowerMismatchError("element from a different tower")
            return value
        if isinstance(value, int):
            return FieldElement(self, self.c_from_int(value))
        if isinstance(value, str):
            return FieldElement(self, _parse_rep(value, self.p, self.d))
        if isinstance(value, (tuple, list)):
            cs = list(value) + [0] * (self.d - len(value))
            if len(cs) != self.d:
                raise ValueError("too many coordinates for degree %d" % self.d)
            return FieldElement(self, self.c_from_coeffs(cs))
        raise TypeError("cannot coerce %r to a field element" % (value,))

    def zero(self):
        return FieldElement(self, self.c_zero)

    def one(self):
        return FieldElement(self, self.c_one)

    def gen(self):
        """The generator t of GF(p^d) over GF(p)."""
        if self.d == 1:
            raise ValueError("prime field has no extension generator")
        return FieldElement(self, (0, 1) + (0,) * (self.d - 2))

    def elements(self):
        """Iterate over all p^d elements (small towers only)."""
        if self.d == 1:
            for a in range(self.p):
                yield FieldElement(self, a)
        else:
            for cs in itertools.product(range(self.p), repeat=self.d):
                yield FieldElement(self, cs)

    def __eq__(self, other):
        return (isinstance(other, FieldTower)
                and (self.p, self.d, self.min_poly) == (other.p, other.d, other.min_poly))

    def __hash__(self):
        return hash((self.p, self.d, self.min_poly))

    def __repr__(self):
        if self.d == 1:
            return "GF(%d)" % self.p
        return "GF(%d^%d)" % (self.p, self.d)


def _parse_int(tok):
    """The value of a digit token; Python refuses over 4300 digits by default."""
    try:
        return int(tok)
    except ValueError:
        raise ParseError("integer of %d digits is too long" % len(tok)) from None


def _parse_rep(s, p, d):
    """Parse 'a*t^k + ...' into the internal representation."""
    toks = _parse_element_tokens(s)
    if not toks:
        raise ParseError("empty field element")
    coeffs = [0] * max(d, 1)
    pos = 0
    sign = 1
    first = True
    while pos < len(toks):
        if toks[pos] in "+-":
            sign = -1 if toks[pos] == "-" else 1
            pos += 1
        elif not first:
            raise ParseError("expected '+' or '-' in field element")
        first = False
        # term: INT ['*' t ['^' INT]] | t ['^' INT]
        coef = 1
        exp = 0
        if pos < len(toks) and toks[pos].isdigit():
            coef = _parse_int(toks[pos])
            pos += 1
            if pos < len(toks) and toks[pos] == "*":
                pos += 1
                if pos >= len(toks) or toks[pos] != "t":
                    raise ParseError("expected 't' after '*'")
        if pos < len(toks) and toks[pos] == "t":
            exp = 1
            pos += 1
            if pos < len(toks) and toks[pos] == "^":
                pos += 1
                if pos >= len(toks) or not toks[pos].isdigit():
                    raise ParseError("expected exponent after '^'")
                exp = _parse_int(toks[pos])
                pos += 1
        if exp >= d:
            raise ParseError("t^%d exceeds extension degree %d" % (exp, d))
        coeffs[exp] = (coeffs[exp] + sign * coef) % p
        sign = 1
    if d == 1:
        return coeffs[0]
    return tuple(coeffs)


class FieldElement:
    """An element of GF(p^d), canonical in the power basis."""

    __slots__ = ("tower", "rep")

    def __init__(self, tower, rep):
        self.tower = tower
        self.rep = rep

    @property
    def coeffs(self):
        return self.tower.c_coeffs(self.rep)

    def _coerce(self, other):
        if isinstance(other, FieldElement):
            if other.tower != self.tower:
                raise TowerMismatchError("operands from different towers")
            return other.rep
        if isinstance(other, int):
            return self.tower.c_from_int(other)
        return NotImplemented

    def __add__(self, other):
        r = self._coerce(other)
        if r is NotImplemented:
            return NotImplemented
        return FieldElement(self.tower, self.tower.c_add(self.rep, r))

    __radd__ = __add__

    def __sub__(self, other):
        r = self._coerce(other)
        if r is NotImplemented:
            return NotImplemented
        return FieldElement(self.tower, self.tower.c_sub(self.rep, r))

    def __rsub__(self, other):
        r = self._coerce(other)
        if r is NotImplemented:
            return NotImplemented
        return FieldElement(self.tower, self.tower.c_sub(r, self.rep))

    def __mul__(self, other):
        r = self._coerce(other)
        if r is NotImplemented:
            return NotImplemented
        return FieldElement(self.tower, self.tower.c_mul(self.rep, r))

    __rmul__ = __mul__

    def __truediv__(self, other):
        r = self._coerce(other)
        if r is NotImplemented:
            return NotImplemented
        return FieldElement(self.tower, self.tower.c_div(self.rep, r))

    def __rtruediv__(self, other):
        r = self._coerce(other)
        if r is NotImplemented:
            return NotImplemented
        return FieldElement(self.tower, self.tower.c_mul(r, self.tower.c_inv(self.rep)))

    def __neg__(self):
        return FieldElement(self.tower, self.tower.c_neg(self.rep))

    def __pow__(self, n):
        return FieldElement(self.tower, self.tower.c_pow(self.rep, n))

    def frobenius(self, i=1):
        """Return a^(p^(i mod d))."""
        return FieldElement(self.tower, self.tower.c_frob(self.rep, i))

    def inverse(self):
        return FieldElement(self.tower, self.tower.c_inv(self.rep))

    def is_zero(self):
        return self.rep == self.tower.c_zero

    def __bool__(self):
        return not self.is_zero()

    def __eq__(self, other):
        if isinstance(other, int):
            return self.rep == self.tower.c_from_int(other)
        return (isinstance(other, FieldElement)
                and self.tower == other.tower and self.rep == other.rep)

    def __hash__(self):
        return hash((self.tower, self.rep))

    def __str__(self):
        return format_rep(self.tower, self.rep)

    def __repr__(self):
        return "%s(%s)" % (self.tower, self)


def format_rep(tower, rep):
    """Canonical text for an internal coefficient representation."""
    cs = tower.c_coeffs(rep)
    parts = []
    for e in range(tower.d - 1, -1, -1):
        c = cs[e]
        if not c:
            continue
        if e == 0:
            parts.append(str(c))
        else:
            tpow = "t" if e == 1 else "t^%d" % e
            parts.append(tpow if c == 1 else "%d*%s" % (c, tpow))
    if not parts:
        return "0"
    return "+".join(parts)


def frobenius(a, i=1):
    """Frobenius power as a free function: a -> a^(p^(i mod d))."""
    return a.frobenius(i)
