"""The benchmark's own algebra, used to build inputs and to judge answers.

Polynomials are dicts ``{exponent tuple: FieldElement}`` without zero
coefficients.  Only the package's public ``FieldTower``/``FieldElement``
arithmetic is used: no rings, Groebner bases, actions or row reduction of
the package, so the membership oracle and the action below are independent
of the code they check.
"""

from __future__ import annotations

LETTERS = "xyzwuv"


class Space:
    """A Cox ring as the benchmark sees it: names, grading, relations.

    ``spec`` is the ambient description shared with the package side:
    ``("product", dims)``, ``("segre",)`` or
    ``("custom", variables, grading, irrelevant, weights)``; ``weights`` is
    a positive integer combination of the grading rows, one entry per row.
    """

    def __init__(self, tower, spec):
        self.tower = tower
        self.spec = spec
        self.defining = []
        kind = spec[0]
        if kind == "product":
            dims = spec[1]
            self.variables = tuple("%s%d" % (LETTERS[i], j)
                                   for i, n in enumerate(dims) for j in range(n + 1))
            grading, pos = [], 0
            for n in dims:
                grading.append(tuple(1 if pos <= k <= pos + n else 0
                                     for k in range(len(self.variables))))
                pos += n + 1
            self.grading = tuple(grading)
            combo = (1,) * len(dims)
        elif kind == "segre":
            self.variables = ("z00", "z01", "z10", "z11")
            self.grading = ((1, 1, 1, 1),)
            combo = (1,)
            one = tower.one()
            self.defining = [{(1, 0, 0, 1): one, (0, 1, 1, 0): -one}]
        elif kind == "custom":
            _, variables, grading, _irrelevant, combo = spec
            self.variables = tuple(variables)
            self.grading = tuple(tuple(r) for r in grading)
        else:
            raise ValueError("unknown ambient %r" % (kind,))
        self.nvars = len(self.variables)
        self.combo = tuple(combo)
        self.weights = tuple(sum(y * row[j] for y, row in zip(self.combo, self.grading))
                             for j in range(self.nvars))
        if any(w <= 0 for w in self.weights):
            raise ValueError("weights must be positive")
        self._exps = {}

    # -- degrees and monomials

    def degree(self, e):
        return tuple(sum(r * a for r, a in zip(row, e)) for row in self.grading)

    def poly_degree(self, f):
        degs = {self.degree(e) for e in f}
        if len(degs) != 1:
            raise ValueError("not a nonzero homogeneous polynomial")
        return degs.pop()

    def exps_of_degree(self, deg):
        """All exponent tuples of grading image ``deg``, in a fixed order."""
        deg = tuple(deg)
        out = self._exps.get(deg)
        if out is not None:
            return out
        out = []
        budget = sum(y * d for y, d in zip(self.combo, deg))
        cols = [tuple(row[j] for row in self.grading) for j in range(self.nvars)]
        exp = [0] * self.nvars

        def rec(i, rem, left):
            if i == self.nvars:
                if not any(rem):
                    out.append(tuple(exp))
                return
            for a in range(left // self.weights[i] + 1):
                exp[i] = a
                rec(i + 1, [r - a * c for r, c in zip(rem, cols[i])],
                    left - a * self.weights[i])
            exp[i] = 0

        if budget >= 0:
            rec(0, list(deg), budget)
        out.sort(reverse=True)
        self._exps[deg] = out
        return out

    # -- random elements

    def rand_elem(self, rng, nonzero=True):
        tw = self.tower
        while True:
            c = tw.element([rng.randrange(tw.p) for _ in range(tw.d)])
            if not (nonzero and c.is_zero()):
                return c

    def rand_form(self, deg, rng, prime=False):
        """Random nonzero form of degree ``deg``; over GF(p) if ``prime``."""
        exps = self.exps_of_degree(deg)
        if not exps:
            raise ValueError("degree %s is not effective" % (deg,))
        while True:
            f = {}
            for e in exps:
                c = (self.tower.element(rng.randrange(self.tower.p)) if prime
                     else self.rand_elem(rng, nonzero=False))
                if not c.is_zero():
                    f[e] = c
            if f:
                return f

    # -- text

    def mono_text(self, e):
        parts = []
        for v, a in zip(self.variables, e):
            if a == 1:
                parts.append(v)
            elif a > 1:
                parts.append("%s^%d" % (v, a))
        return "*".join(parts)

    def text(self, f):
        """Text the package's parser reads back as ``f``."""
        if not f:
            return "0"
        parts = []
        for e in sorted(f, reverse=True):
            c = str(f[e])
            if "+" in c or "-" in c:
                c = "(%s)" % c
            mono = self.mono_text(e)
            if not mono:
                parts.append(c)
            elif c == "1":
                parts.append(mono)
            else:
                parts.append("%s*%s" % (c, mono))
        return " + ".join(parts)

    def parse(self, text):
        """Read back the canonical text written by ``text`` or the package:
        terms joined by ``" + "``, each a ``*``-product of coefficients
        (integers, ``t^k`` or a parenthesised field element) and variables."""
        tw = self.tower
        index = {v: i for i, v in enumerate(self.variables)}
        f = {}
        for term in text.split(" + "):
            c = tw.one()
            e = [0] * self.nvars
            for factor in _split_factors(term.strip()):
                if factor.startswith("("):
                    c = c * tw.element(factor[1:-1])
                    continue
                name, _, power = factor.partition("^")
                k = int(power) if power else 1
                if name.isdigit():
                    c = c * tw.element(int(name)) ** k
                elif name == "t":
                    c = c * tw.element("t") ** k
                else:
                    e[index[name]] += k
            f = padd(f, {tuple(e): c})
        return f

    def from_package(self, poly):
        """Dict form of a package ``Polynomial`` via its public term list."""
        return {e: c for e, c in poly.terms}


def _split_factors(term):
    out, depth, cur = [], 0, ""
    for ch in term:
        if ch == "*" and depth == 0:
            out.append(cur)
            cur = ""
            continue
        depth += (ch == "(") - (ch == ")")
        cur += ch
    out.append(cur)
    return out


# ---------------------------------------------------------------------------
# arithmetic

def padd(a, b):
    out = dict(a)
    for e, c in b.items():
        v = out[e] + c if e in out else c
        if v.is_zero():
            out.pop(e, None)
        else:
            out[e] = v
    return out


def pscale(a, c):
    return {} if c.is_zero() else {e: v * c for e, v in a.items()}


def pmul(a, b):
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            v = out[e] + c1 * c2 if e in out else c1 * c2
            if v.is_zero():
                out.pop(e, None)
            else:
                out[e] = v
    return out


def monic(f):
    """``f`` scaled so its largest exponent (tuple order) has coefficient 1."""
    lead = f[max(f)]
    inv = lead.inverse()
    return {e: c * inv for e, c in f.items()}


def monic_key(f):
    return frozenset(monic(f).items())


class Action:
    """A Frobenius power composed with a variable permutation.

    Applied to ``c * x^e`` it gives ``frob^k(c) * prod x_perm(i)^e_i``: the
    package's ``SemilinearAction`` with all scalars 1.
    """

    def __init__(self, space, frob, var_map):
        self.space = space
        self.frob = frob
        names = space.variables
        self.perm = [names.index(var_map.get(v, v)) for v in names]
        if sorted(self.perm) != list(range(len(names))):
            raise ValueError("not a permutation")
        self.var_map = dict(var_map)
        tw = space.tower
        d = tw.d
        # the order of the generated group: perm order times Frobenius period
        order = 1
        cur = list(range(len(names)))
        while True:
            cur = [self.perm[i] for i in cur]
            if cur == list(range(len(names))):
                break
            order += 1
        self.order = _lcm(order, d // _gcd(d, frob % d) if d > 1 and frob % d else 1)

    def apply(self, f, times=1):
        p = self.space.tower.p
        for _ in range(times):
            out = {}
            for e, c in f.items():
                ne = [0] * len(e)
                for i, a in enumerate(e):
                    ne[self.perm[i]] = a
                out[tuple(ne)] = c ** (p ** self.frob) if self.frob else c
            f = out
        return f

    def spec_text(self):
        """The ``action`` line body of a problem file."""
        entries = " ".join("%s->%s" % kv for kv in sorted(self.var_map.items()))
        return ("frob=%d %s" % (self.frob, entries)).strip()


def _gcd(a, b):
    while b:
        a, b = b, a % b
    return a


def _lcm(a, b):
    return a * b // _gcd(a, b)


# ---------------------------------------------------------------------------
# membership by graded linear algebra

class Oracle:
    """Decides ``f in (gens)`` degree by degree, without Groebner bases.

    The degree-D piece of the ideal is spanned by ``m * g`` for monomials
    ``m`` of degree ``D - deg g``, ``g`` a generator or a defining relation
    of the ring.  Those vectors are reduced to an echelon basis keyed by
    each row's largest exponent, cached per degree.
    """

    def __init__(self, space, gens):
        self.space = space
        self.gens = [(space.poly_degree(g), g) for g in list(gens) + space.defining if g]
        self._pieces = {}

    def _piece(self, deg):
        piece = self._pieces.get(deg)
        if piece is not None:
            return piece
        piece = {}
        for gdeg, g in self.gens:
            gap = tuple(a - b for a, b in zip(deg, gdeg))
            for m in self.space.exps_of_degree(gap):
                row = {tuple(x + y for x, y in zip(m, e)): c for e, c in g.items()}
                row = _reduce(row, piece)
                if row:
                    piv = max(row)
                    piece[piv] = pscale(row, row[piv].inverse())
        self._pieces[deg] = piece
        return piece

    def contains(self, f):
        if not f:
            return True
        return not _reduce(dict(f), self._piece(self.space.poly_degree(f)))

    def contains_all(self, fs):
        return all(self.contains(f) for f in fs)


def _reduce(row, piece):
    """Cancel leading terms against ``piece`` until the leading exponent is
    not a pivot; the result is empty iff ``row`` lies in the span."""
    while row:
        b = piece.get(max(row))
        if b is None:
            return row
        row = padd(row, pscale(b, -row[max(row)]))
    return row


def independent(vectors):
    """Whether the given polynomials are linearly independent."""
    piece = {}
    for v in vectors:
        r = _reduce(dict(v), piece)
        if not r:
            return False
        piece[max(r)] = pscale(r, r[max(r)].inverse())
    return True
