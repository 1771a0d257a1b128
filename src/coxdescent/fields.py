"""Exact arithmetic in GF(p) and GF(p^d), with the Frobenius automorphism.

Elements of GF(p^d) are written in the power basis 1, t, ..., t^(d-1) where
t is a root of the defining minimal polynomial.  The internal representation
depends on the size q = p^d:

- d == 1: a plain residue;
- d > 1 and q <= ``_LOG_BOUND`` (2^14): a small int, 0 for zero and i + 1
  for alpha^i, alpha a primitive element (Zech logarithms, Huber, IEEE
  Trans. IT 36, 1990).  Products, inverses, powers and Frobenius are
  arithmetic mod q - 1, sums read the Zech logarithm off two tables.  The
  exp, log and log1p tables are ``array('H')``s of about q entries each,
  built in the constructor in O(q) steps and cached per tower;
- d > 1 and q above the bound: one int, the Kronecker substitution
  sum a_i 2^(k i) of the coefficients, k = (2 d p^2).bit_length() so that
  no field carries (Harvey, J. Symb. Comput. 44, 2009).  Sums take p off
  every field at p or above in one pass; a product is one int product
  whose high digits fold back through packed powers of t; Frobenius sums
  packed columns; inverses go through the norm to GF(p).

Only ``c_coeffs``/``c_from_coeffs`` (and ``c_from_int``) see the
representation; text, parsing and linear algebra over GF(p) go through
power-basis coefficients.  The :class:`FieldElement` wrapper presents a
uniform immutable value type.

This lowest layer also holds the package's one polynomial parser,
:class:`_Parser`, and its term-dict kernel (``_add_scaled``,
``_mul_terms``).  Element and min_poly text is polynomial text in t, read
over GF(p) with t as the only variable: no expanded term may pass t^(d-1),
or t^d for a min_poly.
"""

import functools
import itertools
import re
from array import array
from operator import add, mul

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
                out[i + j] += ai * bj
    return _ptrim([c % p for c in out])


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


def _prime_factors(n, bound=None):
    """The distinct prime factors of n >= 1, by trial division; given a
    ``bound``, only those up to it, in at most ``bound`` divisions."""
    out, r = [], 2
    while r * r <= n and (bound is None or r <= bound):
        if n % r == 0:
            out.append(r)
            while n % r == 0:
                n //= r
        r += 1
    if n > 1 and (bound is None or n <= bound):
        out.append(n)
    return out


# towers GF(p^d), d > 1, with at most this many elements store discrete logs
_LOG_BOUND = 2 ** 14

@functools.lru_cache(maxsize=16)
def _log_tables(p, d, min_poly):
    """(exp, log, log1p) of GF(p^d) to a primitive element alpha.

    An element is packed as the index sum c_i p^i of its power-basis
    coefficients.  exp[i] is the index of alpha^i (i < q - 1), log[idx] the
    rep of that index (0 for zero, i + 1 for alpha^i), and log1p[idx] the
    rep of that element plus 1, so that log1p[exp[k]] is the Zech logarithm
    of k.  Cached, as a process may build the same tower more than once.
    """
    q = p ** d
    n = q - 1
    mp = list(min_poly)
    pows = [p ** i for i in range(d)]

    def coeffs(idx):
        return [idx // w % p for w in pows]

    # constants lie in GF(p)*, of order p - 1 < n, so candidates start at t
    factors = _prime_factors(n)
    alpha = next(a for a in map(coeffs, range(p, q))
                 if all(_ppowmod(a, n // r, mp, p) != [1] for r in factors))
    # rows of the matrix of multiplication by alpha
    cols = []
    for j in range(d):
        col = _pmod(_pmul([0] * j + [1], alpha, p), mp, p)
        cols.append(col + [0] * (d - len(col)))
    rows = [[col[i] for col in cols] for i in range(d)]
    exp = array("H", bytes(2 * n))
    log = array("H", bytes(2 * q))
    if d == 2:  # unrolled: about 4x faster than the loop below on GF(101^2)
        (m00, m01), (m10, m11) = rows
        c0, c1 = 1, 0
        for i in range(n):
            idx = c0 + p * c1
            exp[i] = idx
            log[idx] = i + 1
            c0, c1 = (m00 * c0 + m01 * c1) % p, (m10 * c0 + m11 * c1) % p
    else:
        cur = coeffs(1)
        for i in range(n):
            idx = sum(map(mul, cur, pows))
            exp[i] = idx
            log[idx] = i + 1
            cur = [sum(map(mul, row, cur)) % p for row in rows]
    # adding 1 steps the constant digit, c -> c + 1 mod p: within each run of
    # p indices that differ only there, log1p is log rotated by one
    log1p = array("H", bytes(2 * q))
    for c in range(p):
        log1p[c::p] = log[(c + 1) % p::p]
    return exp, log, log1p


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
            if min_poly is not None:
                self._coerce_min_poly(min_poly)  # raises unless monic of degree 1
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
        monic = "min_poly must be monic of degree %d" % d
        if isinstance(mp, str):
            coeffs = _parse_coeffs(mp, p, d + 1, monic)
        else:
            coeffs = [c % p for c in mp]
        if len(coeffs) != d + 1 or coeffs[-1] != 1:
            raise ValueError(monic)
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
        # for d >= 2, t divides every candidate with a_0 = 0.  Candidates are
        # decoded one at a time from n = sum a_i p^(d-1-i), so nothing of size p
        # is built before the first one
        p, d = self.p, self.d
        for n in range(p ** (d - 1), p ** d):
            f = [1]
            for _ in range(d):
                n, a = divmod(n, p)
                f.append(a)
            f.reverse()
            if self._is_irreducible(f):
                return f
        raise AssertionError("no irreducible polynomial found")  # unreachable

    def _setup_ops(self):
        """Install coefficient operations as closures.

        Internal representation: plain residue for d == 1, a discrete log
        for d > 1 up to ``_LOG_BOUND`` elements, a Kronecker-packed int
        above it.  Every one has zero 0 and one 1.  Polynomials store these
        raw representations.
        """
        p, d = self.p, self.d
        self.c_zero, self.c_one = 0, 1
        if d > 1 and p ** d <= _LOG_BOUND:
            self._setup_log_ops()
        elif d == 1:
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
            # coefficient i in bits k*i to k*(i+1) of one int: every partial
            # sum below stays under 2*d*p^2 < 2^k, so no field carries
            k = (2 * d * p * p).bit_length()
            mask, low, h = (1 << k) - 1, (1 << k * d) - 1, k - 1
            shifts = list(range(0, k * d, k))
            ones = low // mask  # 1 in every field
            ps, top = p * ones, ones << h  # p, and the top bit, in every field
            bias = top - ps

            def pack(cs):
                return sum(c % p << s for c, s in zip(cs, shifts))

            def mod_p(x):  # every field mod p
                r = 0
                for s in shifts:
                    r |= (x >> s & mask) % p << s
                return r

            def c_add(a, b):  # fields below 2p: take p off those at p or above
                a += b
                return a - ((a + bias & top) >> h) * p

            # the product's high digit d + j folds back through t^(d+j) mod min_poly
            fold, cur = [], [0] * (d - 1) + [1]
            for s in range(k * d, k * (2 * d - 1), k):
                cur = _pmod([0] + cur, self.min_poly, p)
                fold.append((s, pack(cur)))

            def c_mul(a, b):
                c = a * b  # digit i: the sum of the a_j*b_(i-j), below d*p^2
                x = c & low
                for s, row in fold:
                    x += (c >> s & mask) % p * row
                return mod_p(x)

            def c_inv(a):
                # a^-1 = N(a)^-1 * b for b the product of the conjugates
                # sigma^i(a), 0 < i < d, and the norm N(a) = a * b in GF(p)
                if not a:
                    raise ZeroDivisionError("division by zero in GF(%d^%d)" % (p, d))
                b = conj = c_frob(a)
                for _ in range(d - 2):
                    conj = c_frob(conj)
                    b = c_mul(b, conj)
                return mod_p(b * pow(c_mul(a, b), p - 2, p))

            # Frobenius matrices, built on first use: column j of frob_mats[i]
            # is t^(j*p^i) mod min_poly, paired with the shift of digit j
            cols = itertools.accumulate([_power(1 << k, p, 1, c_mul)] * (d - 1), c_mul, initial=1)
            frob_mats = [None, list(zip(shifts, cols))]  # frob_mats[0] is never read

            def c_frob(a, i=1):
                i %= d
                if i == 0:
                    return a
                while len(frob_mats) <= i:
                    frob_mats.append([(s, c_frob(c)) for s, c in frob_mats[-1]])
                x = 0
                for s, col in frob_mats[i]:
                    x += (a >> s & mask) * col
                return mod_p(x)

            self.c_add = c_add
            self.c_sub = lambda a, b: c_add(a, ps - b)
            self.c_neg = lambda a: c_add(0, ps - a)
            self.c_mul = c_mul
            self.c_inv = c_inv
            self.c_frob = c_frob
            self.c_from_int = lambda n: n % p
            self.c_coeffs = lambda a: tuple(a >> s & mask for s in shifts)
            self.c_from_coeffs = pack

    def _setup_log_ops(self):
        """Closures on discrete logs: 0 is zero, i + 1 stands for alpha^i."""
        p, d = self.p, self.d
        n = p ** d - 1
        exp, log, log1p = _log_tables(p, d, self.min_poly)
        pows = [p ** i for i in range(d)]
        frob = [pow(p, i, n) for i in range(d)]
        half = log[p - 1] - 1  # -1 = alpha^half: n / 2 for odd p, 0 for p = 2

        def c_add(a, b):
            if not a:
                return b
            if not b:
                return a
            z = log1p[exp[(b - a) % n]]
            return (a + z - 2) % n + 1 if z else 0

        def c_neg(a):
            return (a + half - 1) % n + 1 if a else 0

        def c_inv(a):
            if not a:
                raise ZeroDivisionError("division by zero in GF(%d^%d)" % (p, d))
            return (1 - a) % n + 1

        def c_pow(a, k):  # shadows the square-and-multiply method
            if a:
                return (a - 1) * k % n + 1
            if k < 0:
                raise ZeroDivisionError("division by zero in GF(%d^%d)" % (p, d))
            return 0 if k else 1

        def c_coeffs(a):
            idx = exp[a - 1] if a else 0
            return tuple(idx // w % p for w in pows)

        self.c_add = c_add
        self.c_sub = lambda a, b: c_add(a, c_neg(b))
        self.c_neg = c_neg
        self.c_mul = lambda a, b: (a + b - 2) % n + 1 if a and b else 0
        self.c_inv = c_inv
        self.c_pow = c_pow
        self.c_frob = lambda a, i=1: (a - 1) * frob[i % d] % n + 1 if a else 0
        self.c_from_int = lambda m: log[m % p]
        self.c_coeffs = c_coeffs
        self.c_from_coeffs = lambda cs: log[sum((c % p) * w for c, w in zip(cs, pows))]

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
            value = _parse_coeffs(value, self.p, self.d)
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
        return FieldElement(self, self.c_from_coeffs((0, 1) + (0,) * (self.d - 2)))

    def elements(self):
        """Iterate over all p^d elements (small towers only)."""
        for cs in itertools.product(range(self.p), repeat=self.d):
            yield FieldElement(self, self.c_from_coeffs(cs))

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


@functools.lru_cache(maxsize=16)
def prime_field(p):
    """GF(p) on plain residues, the tower ``FieldTower(p)``, cached per p."""
    return FieldTower(p)


def _parse_coeffs(text, p, n, too_high=None):
    """The n power-basis coefficients of ``text``, a polynomial in t over
    GF(p).  An expanded term past t^(n-1) is a ParseError, with the message
    ``too_high`` if given."""
    parser = _Parser(prime_field(p), {"t": 0}, n - 1,
                     lambda k: too_high or "t^%d exceeds extension degree %d" % (k, n))
    cs = [0] * n
    for (k,), c in parser.parse(text).items():
        cs[k] = c
    return cs


# ---------------------------------------------------------------------------
# term dicts {exponent: raw coefficient}

def _add_scaled(h, g, tower, c=None, q=None, new=None):
    """h += c * x^q * g, in place on term dicts {exponent: raw coefficient}.

    ``c=None`` stands for 1 and ``q=None`` for x^0, so a plain sum pays no
    multiplication.  A shift ``q`` is added to each exponent, so it is for
    the engine's packed exponents (ints) only; tuple callers pass terms
    already shifted.  Terms that cancel are deleted, keeping h free of
    zeros.  Each exponent that was not yet a key of h is appended to the
    list ``new``, when one is given.
    """
    add, mul, zero = tower.c_add, tower.c_mul, tower.c_zero
    for e, v in g.items():
        if q is not None:
            e = e + q
        if c is not None:
            v = mul(c, v)
        cur = h.get(e)
        if cur is None:
            h[e] = v
            if new is not None:
                new.append(e)
        else:
            s = add(cur, v)
            if s == zero:
                del h[e]
            else:
                h[e] = s


def _mul_terms(a, b, tower):
    """The product of two term dicts, as a new term dict."""
    out = {}
    small, big = (a, b) if len(a) <= len(b) else (b, a)
    for e1, c1 in small.items():
        _add_scaled(out, {tuple(map(add, e, e1)): c for e, c in big.items()}, tower, c1)
    return out


# ---------------------------------------------------------------------------
# parsing: polynomials, field elements and min_polys share this grammar
#
#   expr   := [+|-] term {(+|-) term}
#   term   := factor {* factor}
#   factor := ( expr ) | integer | (t | variable) [^ integer]
#
# A term's integers, t-powers and variable powers become one coefficient and
# one exponent list, and each expr folds its terms into one term dict, so
# the cost is linear in the text.  Only parenthesised factors multiply dicts.

_TOKEN = r"[-+*^()]|\d+|[A-Za-z_][A-Za-z0-9_]*"
_POLY_TOKEN = re.compile(_TOKEN)
# one match per token, whitespace first; the last alternative catches the
# first character no token starts with, together with the rest of the text
_POLY_TOKENS = re.compile(r"\s*(%s|\S.*)" % _TOKEN, re.S)

# the deepest nesting of parentheses read: each level takes two Python
# frames (expr and term), so 200 levels stay far inside the default
# recursion limit of 1000 wherever the caller starts
_MAX_NESTING = 200


def _tokenize(text):
    """The tokens of ``text``, then a None sentinel."""
    toks = _POLY_TOKENS.findall(text)
    if toks and not _POLY_TOKEN.match(toks[-1]):
        # the quote starts right after the last good token, whitespace included
        pos = len(text[:-len(toks[-1])].rstrip())
        raise ParseError("bad polynomial syntax near %r" % text[pos:pos + 20])
    toks.append(None)
    return toks


class _Parser:
    """Polynomial text to a term dict {exponent tuple: raw coefficient} over
    ``tower``.  ``index`` maps each variable name to its exponent coordinate,
    and ``t``, unless it is a variable, is the tower's generator.  A variable
    exponent past ``cap`` in an expanded term raises
    ``ParseError(too_high(exponent))``."""

    def __init__(self, tower, index, cap, too_high):
        self.tower, self.index, self.cap, self.too_high = tower, index, cap, too_high
        self.signs = {"+": tower.c_one, "-": tower.c_neg(tower.c_one)}

    def parse(self, text):
        self.toks = toks = _tokenize(text)
        if toks[0] is None:
            raise ParseError("empty polynomial")
        self.pos = self.depth = 0
        h = self.expr()
        tok = toks[self.pos]
        if tok is not None:
            raise ParseError("unexpected token %r" % tok)
        return h

    def expr(self):
        """A signed sum, as one term dict."""
        toks, signs, tower = self.toks, self.signs, self.tower
        h = {}
        sign = toks[self.pos]
        if sign in signs:
            self.pos += 1
        else:
            sign = "+"
        while True:
            _add_scaled(h, self.term(signs[sign]), tower)
            sign = toks[self.pos]
            if sign not in signs:
                return h
            self.pos += 1

    def term(self, c):
        """c times a product of factors, as a term dict."""
        toks, pos, tower, index = self.toks, self.pos, self.tower, self.index
        mul = tower.c_mul
        exps = [0] * len(index)
        prod = None
        while True:
            tok = toks[pos]
            pos += 1
            i = index.get(tok)
            if i is None and tok != "t":
                if tok is None:
                    raise ParseError("unexpected end of polynomial")
                if tok == "(":
                    if self.depth == _MAX_NESTING:
                        raise ParseError("parentheses nested deeper than %d" % _MAX_NESTING)
                    self.pos, self.depth = pos, self.depth + 1
                    g = self.expr()
                    pos, self.depth = self.pos, self.depth - 1
                    if toks[pos] != ")":
                        raise ParseError("missing ')'")
                    pos += 1
                    prod = g if prod is None else self._capped(_mul_terms(prod, g, tower))
                elif tok.isdigit():
                    c = mul(c, tower.c_from_int(_parse_int(tok)))
                elif tok.isidentifier():
                    raise ParseError("unknown variable %r" % tok)
                else:  # an operator or ')' where a factor starts
                    raise ParseError("unexpected token %r" % tok)
            else:
                if i is None and tower.d == 1:
                    raise ParseError("%r has no extension generator t" % tower)
                k = 1
                if toks[pos] == "^":
                    k = toks[pos + 1]
                    if k is None or not k.isdigit():
                        raise ParseError("expected exponent after '^'")
                    k = _parse_int(k)
                    pos += 2
                if i is None:
                    c = mul(c, tower.c_pow(tower.gen().rep, k))
                else:
                    k += exps[i]
                    if k > self.cap:
                        raise ParseError(self.too_high(k))
                    exps[i] = k
            if toks[pos] != "*":
                break
            pos += 1
        self.pos = pos
        if c == tower.c_zero:
            return {}
        if prod is None:
            return {tuple(exps): c}
        return self._capped({tuple(map(add, e, exps)): mul(c, v) for e, v in prod.items()})

    def _capped(self, t):
        """The term dict ``t`` of a product, if no exponent passes the cap."""
        top = max(itertools.chain.from_iterable(t), default=0)
        if top > self.cap:
            raise ParseError(self.too_high(top))
        return t


def _operator(name, reflected=False):
    """A :class:`FieldElement` operator: the tower's ``c_<name>`` on the two
    raw operands, the other one first when ``reflected``."""
    attr = "c_" + name

    def op(self, other):
        r = self._coerce(other)
        if r is NotImplemented:
            return NotImplemented
        tower = self.tower
        a, b = (r, self.rep) if reflected else (self.rep, r)
        return FieldElement(tower, getattr(tower, attr)(a, b))

    return op


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

    __add__ = __radd__ = _operator("add")
    __sub__ = _operator("sub")
    __rsub__ = _operator("sub", reflected=True)
    __mul__ = __rmul__ = _operator("mul")
    __truediv__ = _operator("div")
    __rtruediv__ = _operator("div", reflected=True)

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
