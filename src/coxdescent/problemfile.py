"""Line-oriented problem files for the batch front end.

Grammar (one statement per line, '#' starts a comment):

    field p=3 d=2 min_poly=t^2+1        # d and min_poly optional
    ambient product 1 1                 # or: ambient segre-p1p1
    ambient custom                      # custom ring, followed by:
    vars x0 x1 y0 y1
    grading 1 1 0 0 ; 0 0 1 1
    irrelevant x0*y0, x0*y1, x1*y0, x1*y1
    defining z00*z11 - z01*z10          # optional
    ideal NAME = f, g, ...
    action frob=1 x0->y0 x1->y1 y0->x0 y1->x1

Each statement occurs at most once, and each ideal NAME once.  The field
line accepts the keys p, d and min_poly, min_poly monic of degree d; the
segre-p1p1 and custom ambients take no arguments; an action has at most
one frob= and one entry per source variable.  An unknown or repeated key,
a repeated source or an extra word is a ParseError naming its line.
Action map entries have no internal whitespace; scalars are written as in
polynomials, e.g. ``y0->t*x0`` or ``y0->(2*t+1)*x0``.
"""

from collections import namedtuple

from .cox import make_custom, make_product_projective, make_segre_p1p1
from .descent import SemilinearAction
from .errors import CoxDescentError, InhomogeneousError, ParseError
from .fields import FieldTower
from .groebner import IdealHandle
from .rings import MultigradedRing


class Problem(namedtuple("Problem", "tower ambient ideals action", defaults=(None,))):
    """A parsed problem file; ``ideals`` maps names to IdealHandles."""

    __slots__ = ()


def _keyvals(parts, keys, lineno):
    out = {}
    for p in parts:
        k, eq, v = p.partition("=")
        if not eq:
            raise ParseError("expected key=value, got %r" % p, lineno)
        if k not in keys:
            raise ParseError("unknown key %r" % k, lineno)
        if k in out:
            raise ParseError("repeated key %r" % k, lineno)
        out[k] = v
    return out


def parse_problem(text):
    tower = None
    ambient_kind = None
    ambient_args = None
    custom = {}
    ideal_specs = {}  # name: (text, lineno)
    action_spec = None
    seen = set()  # every statement but ideal occurs at most once

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        kw = parts[0]
        if kw in seen:
            raise ParseError("duplicate %s line" % kw, lineno)
        if kw != "ideal":
            seen.add(kw)
        if kw == "field":
            kv = _keyvals(parts[1:], ("p", "d", "min_poly"), lineno)
            if "p" not in kv:
                raise ParseError("field line needs p=<prime>", lineno)
            try:
                p = int(kv["p"])
                d = int(kv.get("d", "1"))
            except ValueError:
                raise ParseError("p and d must be integers", lineno)
            try:
                tower = FieldTower(p, d, kv.get("min_poly"))
            except (ValueError, CoxDescentError) as exc:
                raise ParseError(str(exc), lineno)
        elif kw == "ambient":
            if len(parts) < 2:
                raise ParseError("ambient line needs a kind", lineno)
            ambient_kind = parts[1]
            if ambient_kind == "product":
                try:
                    ambient_args = [int(x) for x in parts[2:]]
                except ValueError:
                    raise ParseError("product dimensions must be integers", lineno)
                if not ambient_args:
                    raise ParseError("product ambient needs dimensions", lineno)
            elif ambient_kind in ("segre-p1p1", "custom"):
                if len(parts) > 2:
                    raise ParseError("%s ambient takes no arguments" % ambient_kind, lineno)
                ambient_args = None
            else:
                raise ParseError("unknown ambient kind %r" % ambient_kind, lineno)
        elif kw in ("vars", "grading", "irrelevant", "defining"):
            if ambient_kind != "custom":
                raise ParseError("%r line outside a custom ambient" % kw, lineno)
            custom[kw] = (line[len(kw):].strip(), lineno)
        elif kw == "ideal":
            rest = line[len("ideal"):].strip()
            if "=" not in rest:
                raise ParseError("ideal line needs NAME = generators", lineno)
            name, gens = rest.split("=", 1)
            name = name.strip()
            if not name:
                raise ParseError("ideal needs a name", lineno)
            if name in ideal_specs:
                raise ParseError("duplicate ideal %r" % name, lineno)
            ideal_specs[name] = (gens, lineno)
        elif kw == "action":
            action_spec = (parts[1:], lineno)
        else:
            raise ParseError("unknown statement %r" % kw, lineno)

    if tower is None:
        raise ParseError("missing field line")
    if ambient_kind is None:
        raise ParseError("missing ambient line")

    try:
        if ambient_kind == "product":
            ambient = make_product_projective(ambient_args, tower)
        elif ambient_kind == "segre-p1p1":
            ambient = make_segre_p1p1(tower)
        else:
            ambient = _build_custom(tower, custom)
    except ParseError:
        raise
    except (ValueError, CoxDescentError) as exc:
        raise ParseError("invalid ambient: %s" % exc)

    ring = ambient.ring
    ideals = {}
    for name, (gens_text, lineno) in ideal_specs.items():
        gens = []
        for chunk in gens_text.split(","):
            chunk = chunk.strip()
            if not chunk:
                continue
            try:
                gens.append(ring.parse(chunk))
            except ParseError as exc:
                raise ParseError("in ideal %s: %s" % (name, exc), lineno)
        ideals[name] = IdealHandle(ring, gens)

    action = None
    if action_spec is not None:
        parts, lineno = action_spec
        frob = None
        var_map = {}
        for p_ in parts:
            if p_.startswith("frob="):
                if frob is not None:
                    raise ParseError("repeated key 'frob'", lineno)
                try:
                    frob = int(p_[5:])
                except ValueError:
                    raise ParseError("frob= must be an integer", lineno)
            elif "->" in p_:
                src, dst = p_.split("->", 1)
                if not src or not dst:
                    raise ParseError("bad map entry %r" % p_, lineno)
                if src in var_map:
                    raise ParseError("repeated map source %r" % src, lineno)
                var_map[src] = dst
            else:
                raise ParseError("bad action token %r" % p_, lineno)
        try:
            action = SemilinearAction(ring, frob or 0, var_map)
        except (ValueError, CoxDescentError) as exc:
            raise ParseError("invalid action: %s" % exc, lineno)

    return Problem(tower=tower, ambient=ambient, ideals=ideals, action=action)


def _build_custom(tower, custom):
    if "vars" not in custom:
        raise ParseError("custom ambient needs a vars line")
    if "grading" not in custom:
        raise ParseError("custom ambient needs a grading line")
    if "irrelevant" not in custom:
        raise ParseError("custom ambient needs an irrelevant line")
    names = custom["vars"][0].split()
    rows = []
    for row_text in custom["grading"][0].split(";"):
        try:
            rows.append([int(x) for x in row_text.split()])
        except ValueError:
            raise ParseError("grading entries must be integers", custom["grading"][1])
    # each form is read in the bare ring first, so that its errors name its line
    bare = MultigradedRing(tower, names, grading=rows)
    forms = {}
    for kw in ("defining", "irrelevant"):
        text, lineno = custom.get(kw, ("", None))
        forms[kw] = [s.strip() for s in text.split(",") if s.strip()]
        for s in forms[kw]:
            try:
                bare.parse(s).multidegree()
            except ParseError as exc:
                raise ParseError(str(exc), lineno)
            except InhomogeneousError as exc:
                raise ParseError("invalid ambient: %s" % exc, lineno)
    return make_custom(MultigradedRing(tower, names, grading=rows, **forms))


def load_problem(path):
    with open(path, "r", encoding="ascii") as fh:
        return parse_problem(fh.read())
