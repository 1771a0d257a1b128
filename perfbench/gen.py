"""Seeded generators: text inputs for each workload with their known answers.

Every instance is built by a construction whose answer is known without
asking the package:

* strict CI: generic forms with s <= min n_i cut out an unmixed ideal whose
  height-s primes cannot contain a variable block (height n_i + 1), and a
  principal ideal is always saturated;
* not strict: s = n_i + 1 forms of positive degree in factor i lie in that
  factor's variable block, which is then a minimal prime (on the Segre
  quotient, three linear forms through one point off the quadric make the
  irrelevant maximal ideal minimal);
* not CI: forms sharing a common factor have height 1;
* descent: Galois orbits of forms fixed by the stabilizer of their degree
  class, Hilbert-90 twists of fixed forms, and inputs built to fail exactly
  one precondition.

The same seed always gives the same text.  Field arithmetic goes through
``algebra``, i.e. the package's public ``FieldElement`` operations only.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from .algebra import Action, Oracle, Space, independent, padd, pmul, pscale

GF101 = (101, 1)
DESCENT_FIELDS = [(3, 2), (2, 4), (101, 2), (101, 3)]


@dataclass
class Instance:
    """One operation's input text and its known answer."""

    name: str
    field: tuple              # (p, d)
    ambient: tuple            # Space spec
    gens: list                # polynomial texts
    expect: str               # known answer class
    data: dict = field(default_factory=dict)


class Towers:
    """Benchmark-side field towers, one per (p, d), for building inputs."""

    def __init__(self, field_tower):
        self._make = field_tower
        self._towers = {}
        self._spaces = {}

    def space(self, fld, spec):
        key = (fld, spec)
        sp = self._spaces.get(key)
        if sp is None:
            tw = self._towers.get(fld)
            if tw is None:
                tw = self._towers[fld] = self._make(*fld)
            sp = self._spaces[key] = Space(tw, spec)
        return sp


def _rng(seed, workload):
    return random.Random("%s:%d" % (workload, seed))


# ---------------------------------------------------------------------------
# strict_ci

# (label, ambient spec, degrees, known verdict).  The first four rows are
# the heavy instances of the ROADMAP baseline table and run once per pass,
# as in that table; every other row runs STRICT_CI_COPIES independently
# drawn times.  This equal weighting is an assumption, not a measured mix.
STRICT_CI_CLASSES = [
    ("p1p1-22x2", ("product", (1, 1)), [(2, 2), (2, 2)], "not_strict"),
    ("p2p2-11-11-21", ("product", (2, 2)), [(1, 1), (1, 1), (2, 1)], "not_strict"),
    ("p2p2-22x2", ("product", (2, 2)), [(2, 2), (2, 2)], "strict"),
    ("p3p3-11x3", ("product", (3, 3)), [(1, 1)] * 3, "strict"),
    ("p1p1p1-111x2", ("product", (1, 1, 1)), [(1, 1, 1)] * 2, "not_strict"),
    ("p1p1-12-21", ("product", (1, 1)), [(1, 2), (2, 1)], "not_strict"),
    ("p1p2-12-11", ("product", (1, 2)), [(1, 2), (1, 1)], "not_strict"),
    ("p3p3-11x2", ("product", (3, 3)), [(1, 1)] * 2, "strict"),
    ("p2p2-11-21", ("product", (2, 2)), [(1, 1), (2, 1)], "strict"),
    ("segre-2x2", ("segre",), [(2,), (2,)], "strict"),
    ("p1p2-11x2", ("product", (1, 2)), [(1, 1), (1, 1)], "not_strict"),
    ("p1p1p1-110-101", ("product", (1, 1, 1)), [(1, 1, 0), (1, 0, 1)], "not_strict"),
    ("p2p2-11x2", ("product", (2, 2)), [(1, 1), (1, 1)], "strict"),
    ("p1p1-11x2", ("product", (1, 1)), [(1, 1), (1, 1)], "not_strict"),
    ("segre-point", ("segre",), [(1,), (1,), (1,)], "not_strict"),
    ("segre-1-2", ("segre",), [(1,), (2,)], "strict"),
    ("p1p1-principal", ("product", (1, 1)), [(2, 2)], "strict"),
    ("p1p2-principal", ("product", (1, 2)), [(1, 1)], "strict"),
    ("p2p2-principal", ("product", (2, 2)), [(2, 1)], "strict"),
    ("p3p3-principal", ("product", (3, 3)), [(1, 1)], "strict"),
    ("p1p1p1-principal", ("product", (1, 1, 1)), [(1, 1, 1)], "strict"),
    ("segre-principal", ("segre",), [(2,)], "strict"),
    # common factor of the given degree times cofactors of the given degrees
    ("p1p1-factor", ("product", (1, 1)), [(1, 0), (1, 1), (0, 1)], "not_ci"),
    ("p1p2-factor", ("product", (1, 2)), [(0, 1), (1, 0), (1, 1)], "not_ci"),
    ("p2p2-factor", ("product", (2, 2)), [(1, 1), (1, 0), (0, 1)], "not_ci"),
    ("p3p3-factor", ("product", (3, 3)), [(1, 0), (0, 1), (1, 1)], "not_ci"),
    ("p1p1p1-factor", ("product", (1, 1, 1)), [(1, 0, 0), (0, 1, 1), (1, 1, 0)], "not_ci"),
    ("segre-factor", ("segre",), [(1,), (1,), (1,)], "not_ci"),
]


HEAVY = {row[0] for row in STRICT_CI_CLASSES[:4]}
STRICT_CI_COPIES = 4


def _segre_point_forms(sp, rng):
    """Three independent linear forms vanishing at one point off the quadric."""
    while True:
        pt = [sp.rand_elem(rng, nonzero=False) for _ in range(4)]
        if (pt[0] * pt[3] - pt[1] * pt[2]).is_zero():
            continue
        j = next(i for i, c in enumerate(pt) if not c.is_zero())
        forms = []
        for _ in range(3):
            a = [sp.rand_elem(rng, nonzero=False) for _ in range(4)]
            val = sum((x * y for x, y in zip(a, pt)), sp.tower.zero())
            a[j] = a[j] - val / pt[j]
            f = {tuple(1 if k == i else 0 for k in range(4)): c
                 for i, c in enumerate(a) if not c.is_zero()}
            forms.append(f)
        if all(forms) and independent(forms):
            return forms


def strict_ci_instances(seed, towers):
    rng = _rng(seed, "strict_ci")
    out = []
    for label, spec, degs, expect in STRICT_CI_CLASSES:
        sp = towers.space(GF101, spec)
        for k in range(1 if label in HEAVY else STRICT_CI_COPIES):
            if label == "segre-point":
                forms = _segre_point_forms(sp, rng)
            elif expect == "not_ci":
                h = sp.rand_form(degs[0], rng)
                forms = [pmul(h, sp.rand_form(d, rng)) for d in degs[1:]]
            else:
                forms = [sp.rand_form(d, rng) for d in degs]
            data = {"height": 1} if expect == "not_ci" else {}
            if label in HEAVY:
                data["heavy"] = True
            out.append(Instance("%s.%d" % (label, k), GF101, spec,
                                [sp.text(f) for f in forms], expect, data))
    return _interleave(out, rng)


def _interleave(items, rng):
    """A fixed shuffle, so heavy instances are spread over a pass."""
    items = list(items)
    rng.shuffle(items)
    return items


# ---------------------------------------------------------------------------
# descent

SWAP = {"x0": "y0", "x1": "y1", "y0": "x0", "y1": "x1"}
CYCLE = {"x0": "y0", "x1": "y1", "y0": "z0", "y1": "z1", "z0": "x0", "z1": "x1"}


def _trace(act, f, step):
    """Sum of the images of ``f`` under the subgroup generated by act^step."""
    total = {}
    g = f
    for _ in range(act.order // step):
        total = padd(total, g)
        g = act.apply(g, step)
    return total


def _fixed_form(sp, act, deg, step, rng):
    """A nonzero form of degree ``deg`` fixed by act^step (a trace)."""
    while True:
        f = _trace(act, sp.rand_form(deg, rng), step)
        if f:
            return f


def _twist(sp, rng):
    """A scalar outside GF(p), so multiplying by it breaks Frobenius-fixedness."""
    while True:
        c = sp.rand_elem(rng)
        if c ** sp.tower.p != c:
            return c


def _descent_one(fld, family, towers, rng):
    """Generators, action and known answer for one descent family."""
    if family.startswith("swap"):
        sp = towers.space(fld, ("product", (1, 1)))
        act = Action(sp, 1, SWAP)
        if family == "swap-orbit":
            f0 = _fixed_form(sp, act, (1, 0), 2, rng)
            gens = [pscale(f0, sp.rand_elem(rng)), pscale(act.apply(f0), sp.rand_elem(rng))]
            return sp, act, gens, "ok"
        if family == "swap-h90":
            return sp, act, [pscale(_fixed_form(sp, act, (1, 1), 1, rng), _twist(sp, rng))], "ok"
        if family == "swap-not-invariant":
            while True:
                f, g = sp.rand_form((1, 0), rng), sp.rand_form((0, 1), rng)
                if independent([g, act.apply(f)]):
                    return sp, act, [f, g], "NOT_INVARIANT"
        if family == "swap-not-strict":
            # (l*m, sigma(l*m)) with l, m fixed by sigma^2: either not CI, or
            # the x-block (l, sigma m) is a minimal prime
            g0 = pmul(_fixed_form(sp, act, (1, 0), 2, rng), _fixed_form(sp, act, (0, 1), 2, rng))
            return sp, act, [g0, pscale(act.apply(g0), sp.rand_elem(rng))], "NOT_STRICT"
    if family.startswith("cycle"):
        sp = towers.space(fld, ("product", (1, 1, 1)))
        act = Action(sp, 1, CYCLE)
        if family == "cycle-orbit":
            f0 = _fixed_form(sp, act, (1, 0, 0), 3, rng)
            gens = [pscale(act.apply(f0, k), sp.rand_elem(rng)) for k in range(3)]
            return sp, act, gens, "ok"
        if family == "cycle-h90":
            return sp, act, [pscale(_fixed_form(sp, act, (1, 1, 1), 1, rng), _twist(sp, rng))], "ok"
        if family == "cycle-not-invariant":
            while True:
                gens = [sp.rand_form(d, rng) for d in [(1, 0, 0), (0, 1, 0), (0, 0, 1)]]
                if independent([gens[1], act.apply(gens[0])]):
                    return sp, act, gens, "NOT_INVARIANT"
    if family == "frob-twisted":
        # a GF(p)-rational point; the x-forms are mixed by a matrix over GF(q)
        sp = towers.space(fld, ("product", (2, 2)))
        act = Action(sp, 1, {})
        while True:
            l1, l2 = (sp.rand_form((1, 0), rng, prime=True) for _ in range(2))
            if not independent([l1, l2]):
                continue
            a, b, c, d = (sp.rand_elem(rng, nonzero=False) for _ in range(4))
            if (a * d - b * c).is_zero():
                continue
            m1 = sp.rand_form((0, 1), rng, prime=True)
            gens = [padd(pscale(l1, a), pscale(l2, b)), padd(pscale(l1, c), pscale(l2, d)),
                    pscale(m1, _twist(sp, rng))]
            return sp, act, gens, "ok"
    if family == "frob-not-invariant":
        sp = towers.space(fld, ("product", (2, 2)))
        act = Action(sp, 1, {})
        f = padd(sp.rand_form((1, 0), rng, prime=True), {(0, 1, 0, 0, 0, 0): _twist(sp, rng)})
        if independent([f, act.apply(f)]):
            return sp, act, [f], "NOT_INVARIANT"
        return _descent_one(fld, family, towers, rng)
    if family == "frob-not-strict":
        # GF(p)-rational (l1*m1, l2*m2) with independent l's and m's, twisted:
        # invariant, a complete intersection, and the x-block is a minimal prime
        sp = towers.space(fld, ("product", (1, 1)))
        act = Action(sp, 1, {})
        while True:
            ls = [sp.rand_form((1, 0), rng, prime=True) for _ in range(2)]
            ms = [sp.rand_form((0, 1), rng, prime=True) for _ in range(2)]
            if independent(ls) and independent(ms):
                break
        gens = [pscale(pmul(l, m), _twist(sp, rng)) for l, m in zip(ls, ms)]
        return sp, act, gens, "NOT_STRICT"
    raise ValueError(family)


DESCENT_COPIES = 3
DESCENT_FAMILIES = ["swap-orbit", "swap-h90", "swap-not-invariant", "swap-not-strict",
                    "cycle-orbit", "cycle-h90", "cycle-not-invariant",
                    "frob-twisted", "frob-not-invariant", "frob-not-strict"]


def descent_instances(seed, towers):
    rng = _rng(seed, "descent")
    out = []
    for fld in DESCENT_FIELDS:
        for family in DESCENT_FAMILIES:
            for k in range(DESCENT_COPIES):
                sp, act, gens, expect = _descent_one(fld, family, towers, rng)
                out.append(Instance("GF(%d^%d)-%s.%d" % (fld + (family, k)), fld, sp.spec,
                                    [sp.text(g) for g in gens], expect,
                                    {"frob": act.frob, "map": dict(act.var_map)}))
    return _interleave(out, rng)


# ---------------------------------------------------------------------------
# membership

# (ambient spec, generator degrees, query degrees)
MEMBERSHIP_IDEALS = [
    (("product", (1, 1)), [(1, 1), (1, 2)], [(1, 2), (2, 2), (3, 3), (4, 4)]),
    (("product", (2, 2)), [(1, 1), (2, 1)], [(2, 1), (2, 2), (3, 3), (4, 4)]),
    (("segre",), [(1,), (2,)], [(2,), (3,), (4,), (5,)]),
]
MEMBERS_PER_DEGREE = 5


def membership_instances(seed, towers):
    """Ideals (as instances with ``expect == "ideal"``) and queries.

    Members are sums of random multiples of the generators (and, on the
    Segre quotient, of the quadric); non-members are random forms whose
    answer the graded-linear-algebra oracle decides.
    """
    rng = _rng(seed, "membership")
    ideals, queries = [], []
    for idx, (spec, gdegs, qdegs) in enumerate(MEMBERSHIP_IDEALS):
        sp = towers.space(GF101, spec)
        gens = [sp.rand_form(d, rng) for d in gdegs]
        ideals.append(Instance("ideal%d" % idx, GF101, spec, [sp.text(g) for g in gens], "ideal"))
        oracle = Oracle(sp, gens)
        for deg in qdegs:
            for k in range(MEMBERS_PER_DEGREE):
                member = {}
                for g in gens + sp.defining:
                    gap = tuple(a - b for a, b in zip(deg, sp.poly_degree(g)))
                    if sp.exps_of_degree(gap):
                        member = padd(member, pmul(sp.rand_form(gap, rng), g))
                other = sp.rand_form(deg, rng)
                for name, f, expect in [("member", member, "member"),
                                        ("random", other, None)]:
                    if not f:
                        continue
                    if expect is None:
                        expect = "member" if oracle.contains(f) else "non_member"
                    queries.append(Instance("ideal%d.%s.%s.%d" % (idx, "_".join(map(str, deg)),
                                                                 name, k),
                                            GF101, spec, [sp.text(f)], expect,
                                            {"ideal": idx}))
    return ideals, _interleave(queries, rng)


# ---------------------------------------------------------------------------
# cli

# Hirzebruch surface F_1: no grading row and not their sum is positive on
# every variable, so the package certifies positivity by linear programming.
F1_SPEC = ("custom", ("x0", "x1", "y0", "y1"), ((1, 1, 0, -1), (0, 0, 1, 1)),
           ("x0*y0", "x0*y1", "x1*y0", "x1*y1"), (1, 2))


@dataclass
class CliOp:
    """One ``coxdescent`` invocation and its known answer."""

    name: str
    file: str                 # key into the generated files
    argv: list
    exit: int
    expect: str               # known answer class, see workloads.check_cli
    data: dict = field(default_factory=dict)


def _field_line(fld):
    p, d = fld
    return "field p=%d" % p if d == 1 else "field p=%d d=%d" % (p, d)


def _ambient_lines(spec):
    if spec[0] == "product":
        return ["ambient product " + " ".join(map(str, spec[1]))]
    if spec[0] == "segre":
        return ["ambient segre-p1p1"]
    _, names, grading, irrelevant, _ = spec
    return ["ambient custom", "vars " + " ".join(names),
            "grading " + " ; ".join(" ".join(map(str, r)) for r in grading),
            "irrelevant " + ", ".join(irrelevant)]


def _problem(fld, spec, ideals, action=None):
    lines = [_field_line(fld)] + _ambient_lines(spec)
    for name, gens in ideals:
        lines.append("ideal %s = %s" % (name, ", ".join(gens)))
    if action is not None:
        lines.append("action " + action.spec_text())
    return "\n".join(lines) + "\n"


CLI_COPIES = 3


def cli_instances(seed, towers):
    """Problem files (name -> (field, spec, text, {ideal: [dict polys]}))
    and the invocations over them: ``CLI_COPIES`` independently drawn copies
    of one set of files and commands.

    ``CliOp.expect`` is either ``"=TEXT"`` (stdout is exactly that line) or
    a check that reads stdout back: WITNESS, GB (same ideal as the named
    one), SAT (contains the ideal and the known gained elements), DESCEND,
    PARSE_ERROR.
    """
    rng = _rng(seed, "cli")
    files, ops = {}, []
    for k in range(CLI_COPIES):
        _cli_copy("-%d" % k, towers, rng, files, ops)
    return files, _interleave(ops, rng)


def _cli_copy(tag, towers, rng, files, ops):
    def add_file(name, fld, spec, ideals, action=None):
        sp = towers.space(fld, spec)
        files[name + tag] = (fld, spec, _problem(fld, spec, [(k, [sp.text(g) for g in v])
                                                       for k, v in ideals], action),
                       dict(ideals))

    def add_ops(fname, rows):
        fname += tag
        for row in rows:
            cmd, ideal, extra, code, expect = row[:5]
            argv = [cmd] + (["--ideal", ideal] if ideal else []) + extra
            data = dict(row[5]) if len(row) > 5 else {}
            data.setdefault("ideal", ideal)
            ops.append(CliOp(".".join(filter(None, [fname, cmd, ideal] + extra[1:2])), fname,
                             argv, code, expect, data))

    def independent_pair(sp, deg):
        while True:
            forms = [sp.rand_form(deg, rng) for _ in range(2)]
            if independent(forms):
                return forms

    # P1 x P1: a principal ideal, a not strict pair, a common factor, and
    # two points (l1*m1, l2*m2) whose saturation gains l1*l2 and m1*m2
    sp = towers.space(GF101, ("product", (1, 1)))
    h = sp.rand_form((1, 0), rng)
    xs, ys = independent_pair(sp, (1, 0)), independent_pair(sp, (0, 1))
    add_file("p1p1", GF101, sp.spec, [
        ("s", [sp.rand_form((2, 2), rng)]),
        ("ns", [sp.rand_form((1, 2), rng), sp.rand_form((2, 1), rng)]),
        ("nc", [pmul(h, sp.rand_form((1, 1), rng)), pmul(h, sp.rand_form((0, 1), rng))]),
        ("pts", [pmul(xs[0], ys[0]), pmul(xs[1], ys[1])])])
    add_ops("p1p1", [
        ("strict-ci", "s", [], 0, "=STRICT"),
        ("strict-ci", "ns", [], 1, "WITNESS"),
        ("strict-ci", "pts", [], 1, "WITNESS"),
        ("ci", "nc", [], 4, "=NOT_CI height=1 expected=2"),
        ("ci", "s", [], 0, "=CI height=1"),
        ("dim", "s", [], 0, "=3"),
        ("dim", "ns", [], 0, "=2"),
        ("gb", "ns", [], 0, "GB"),
        ("gb", "pts", [], 0, "GB"),
        ("saturate", "pts", [], 0, "SAT", {"gained": [pmul(*xs), pmul(*ys)]})])

    # P2 x P2: a generic pair, and the two-point construction, which is
    # strict here; saturated against the line (l1, l2) it loses exactly
    # that component and gains m1*m2
    sp = towers.space(GF101, ("product", (2, 2)))
    xs, ys = independent_pair(sp, (1, 0)), independent_pair(sp, (0, 1))
    add_file("p2p2", GF101, sp.spec, [
        ("a", [sp.rand_form((1, 1), rng), sp.rand_form((1, 1), rng)]),
        ("b", [pmul(xs[0], ys[0]), pmul(xs[1], ys[1])]),
        ("line", xs)])
    add_ops("p2p2", [
        ("strict-ci", "a", [], 0, "=STRICT"),
        ("strict-ci", "b", [], 0, "=STRICT"),
        ("ci", "a", [], 0, "=CI height=2"),
        ("ci", "b", [], 0, "=CI height=2"),
        ("dim", "a", [], 0, "=4"),
        ("gb", "a", [], 0, "GB"),
        ("saturate", "a", [], 0, "GB"),
        ("saturate", "b", ["--against", "line"], 0, "SAT", {"gained": [pmul(*ys)]})])

    # Segre quotient: a strict pair, saturated already
    sp = towers.space(GF101, ("segre",))
    add_file("segre", GF101, sp.spec, [("a", [sp.rand_form((1,), rng), sp.rand_form((2,), rng)])])
    add_ops("segre", [
        ("strict-ci", None, [], 0, "=STRICT", {"ideal": "a"}),
        ("ci", None, [], 0, "=CI height=2"),
        ("dim", None, [], 0, "=1"),
        ("gb", None, [], 0, "GB", {"ideal": "a"}),
        ("saturate", None, [], 0, "GB", {"ideal": "a"})])

    # F_1 with the LP-certified grading: a point
    sp = towers.space(GF101, F1_SPEC)
    add_file("f1", GF101, F1_SPEC, [("pt", [sp.rand_form((1, 0), rng),
                                            sp.rand_form((0, 1), rng)])])
    add_ops("f1", [("strict-ci", None, [], 0, "=STRICT")])

    # descent over each kind of tower, and two rejections
    for fname, fld, family in [("desc9", (3, 2), "swap-orbit"),
                               ("desc9bad", (3, 2), "swap-not-invariant"),
                               ("desc16", (2, 4), "cycle-h90"),
                               ("desc101c", (101, 3), "cycle-orbit"),
                               ("desc101f", (101, 2), "frob-twisted"),
                               ("desc101bad", (101, 2), "frob-not-strict")]:
        dsp, act, gens, expect = _descent_one(fld, family, towers, rng)
        add_file(fname, fld, dsp.spec, [("f", gens)], act)
        if expect == "ok":
            add_ops(fname, [("descend", None, [], 0, "DESCEND",
                             {"ideal": "f", "frob": act.frob, "map": dict(act.var_map)})])
        else:
            add_ops(fname, [("descend", None, [], 5, "=" + expect)])

    # malformed files: each must be refused with exit code 2
    good = files["p1p1" + tag][2].splitlines()
    bad = {
        "bad-token": good[:2] + ["ideal a = x0 +* y0"],
        "bad-paren": good[:2] + ["ideal a = (x0 + y1"],
        "bad-ambient": [good[0], "ambient blob 1 1", "ideal a = x0"],
        "no-field": good[1:3],
    }
    for name, lines in bad.items():
        files[name + tag] = (None, None, "\n".join(lines) + "\n", {})
        add_ops(name, [("gb", None, [], 2, "PARSE_ERROR")])
