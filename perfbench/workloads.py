"""The four workloads: set-up, one operation, canonical output, known answer.

Each workload turns generated text into package objects in ``setup`` (the
part a user pays before the first answer), then exposes one closure per
operation.  ``check`` judges a result against the instance's known answer
with the benchmark's own algebra (``algebra``), never with the package's
Groebner or linear-algebra code.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

from . import gen
from .algebra import Action, Oracle, monic_key


class Ambients:
    """Package-side towers and ambients, built once per set-up."""

    def __init__(self, cd):
        self.cd = cd
        self.towers = {}
        self.ambients = {}

    def get(self, fld, spec):
        key = (fld, spec)
        amb = self.ambients.get(key)
        if amb is None:
            tower = self.towers.get(fld)
            if tower is None:
                tower = self.towers[fld] = self.cd.FieldTower(*fld)
            if spec[0] == "product":
                amb = self.cd.make_product_projective(spec[1], tower)
            else:
                amb = self.cd.make_segre_p1p1(tower)
            # lazy per-ring state (the quotient's own height) is filled here
            self.cd.ambient_dimension(amb.ring)
            self.ambients[key] = amb
        return amb


class Workload:
    """Interface shared by the workloads; see the module docstring."""

    name = None
    setup_reps = 7

    def __init__(self, cd, seed, workdir):
        self.cd = cd
        self.workdir = workdir
        self.towers = gen.Towers(cd.FieldTower)

    def setup(self):
        raise NotImplementedError

    def ops(self, state, traced=None):
        """[(instance name, zero-argument callable)] in pass order."""
        raise NotImplementedError

    def canon(self, result):
        raise NotImplementedError

    def check(self, name, result):
        """None if ``result`` is the known answer of ``name``, else why not."""
        raise NotImplementedError

    def space(self, inst):
        return self.towers.space(inst.field, inst.ambient)

    def gens_of(self, inst):
        sp = self.space(inst)
        return [sp.parse(g) for g in inst.gens]


def _error(exc):
    return "RAISE %s: %s" % (type(exc).__name__, exc)


# ---------------------------------------------------------------------------

class StrictCI(Workload):
    name = "strict_ci"

    def __init__(self, cd, seed, workdir):
        super().__init__(cd, seed, workdir)
        self.instances = {i.name: i for i in gen.strict_ci_instances(seed, self.towers)}

    def setup(self):
        ambs = Ambients(self.cd)
        out = []
        for inst in self.instances.values():
            amb = ambs.get(inst.field, inst.ambient)
            out.append((inst.name, amb, [amb.ring.parse(t) for t in inst.gens]))
        return out

    def ops(self, state, traced=None):
        cd = self.cd
        return [(name, lambda amb=amb, polys=polys: cd.is_strict_ci(amb, polys))
                for name, amb, polys in state]

    def canon(self, v):
        if isinstance(v, Exception):
            return _error(v)
        if v.status == "not_strict":
            return "not_strict witness=%s" % v.witness
        if v.status == "not_ci":
            return "not_ci height=%d expected=%d" % (v.height, v.expected)
        return v.status

    def check(self, name, v):
        inst = self.instances[name]
        if isinstance(v, Exception) or v.status != inst.expect:
            return "expected %s, got %s" % (inst.expect, self.canon(v))
        if v.status == "not_ci" and (v.height, v.expected) != (1, len(inst.gens)):
            return "wrong height report %s" % self.canon(v)
        if v.status == "not_strict":
            sp = self.space(inst)
            if Oracle(sp, self.gens_of(inst)).contains(sp.from_package(v.witness)):
                return "witness %s lies in the ideal" % v.witness
        return None


# ---------------------------------------------------------------------------

class Descent(Workload):
    name = "descent"
    setup_reps = 5

    def __init__(self, cd, seed, workdir):
        super().__init__(cd, seed, workdir)
        self.instances = {i.name: i for i in gen.descent_instances(seed, self.towers)}

    def setup(self):
        ambs = Ambients(self.cd)
        out = []
        for inst in self.instances.values():
            amb = ambs.get(inst.field, inst.ambient)
            act = self.cd.SemilinearAction(amb.ring, inst.data["frob"], inst.data["map"])
            out.append((inst.name, amb, act, [amb.ring.parse(t) for t in inst.gens]))
        return out

    def ops(self, state, traced=None):
        cd = self.cd
        return [(name, lambda amb=amb, act=act, polys=polys: cd.descend(amb, act, polys))
                for name, amb, act, polys in state]

    def canon(self, res):
        if isinstance(res, self.cd.DescentPreconditionError):
            return "REJECT %s" % res.reason
        if isinstance(res, Exception):
            return _error(res)
        lines = ["ORBIT { %s }" % " ; ".join(str(g) for g in res.new_gens[a:b])
                 for a, b in res.orbit_blocks]
        lines += ["DEGREE %s -> %s" % pair for pair in res.degree_log]
        return "\n".join(lines)

    def check(self, name, res):
        inst = self.instances[name]
        if inst.expect != "ok":
            if isinstance(res, self.cd.DescentPreconditionError) and res.reason == inst.expect:
                return None
            return "expected rejection %s, got %s" % (inst.expect, self.canon(res))
        if isinstance(res, Exception):
            return "expected descent, got %s" % self.canon(res)
        sp = self.space(inst)
        return check_descent(sp, Action(sp, inst.data["frob"], inst.data["map"]),
                             self.gens_of(inst), [sp.from_package(g) for g in res.new_gens],
                             res.orbit_blocks, res.input_order)


def check_descent(sp, act, gens, new, blocks, order):
    """Descent's contract: same ideal, same degrees position by position,
    and every orbit block closed under the action up to scalars."""
    if sorted(order) != list(range(len(gens))):
        return "input order is not a permutation"
    if not (Oracle(sp, gens).contains_all(new) and Oracle(sp, new).contains_all(gens)):
        return "output generators do not generate the input ideal"
    if [sp.poly_degree(g) for g in new] != [sp.poly_degree(gens[i]) for i in order]:
        return "output degrees differ from the reordered input degrees"
    covered = []
    for a, b in blocks:
        block = {monic_key(g) for g in new[a:b]}
        if {monic_key(act.apply(g)) for g in new[a:b]} != block:
            return "orbit block %d:%d is not closed under the action" % (a, b)
        covered += range(a, b)
    if covered != list(range(len(new))):
        return "orbit blocks do not partition the generators"
    return None


# ---------------------------------------------------------------------------

class Membership(Workload):
    name = "membership"

    def __init__(self, cd, seed, workdir):
        super().__init__(cd, seed, workdir)
        self.ideals, queries = gen.membership_instances(seed, self.towers)
        self.instances = {q.name: q for q in queries}

    def setup(self):
        ambs = Ambients(self.cd)
        handles = []
        for inst in self.ideals:
            ring = ambs.get(inst.field, inst.ambient).ring
            h = self.cd.IdealHandle(ring, [ring.parse(t) for t in inst.gens])
            h.reduced_gb()              # the basis is built before timing
            h.contains(ring.zero())     # and so is its lookup form
            handles.append(h)
        out = []
        for inst in self.instances.values():
            h = handles[inst.data["ideal"]]
            out.append((inst.name, h, h.ring.parse(inst.gens[0])))
        return out

    def ops(self, state, traced=None):
        return [(name, lambda h=h, f=f: h.contains(f)) for name, h, f in state]

    def canon(self, res):
        if isinstance(res, Exception):
            return _error(res)
        return "member" if res else "non_member"

    def check(self, name, res):
        expect = self.instances[name].expect
        got = self.canon(res)
        return None if got == expect else "expected %s, got %s" % (expect, got)


# ---------------------------------------------------------------------------

class Cli(Workload):
    """One ``coxdescent`` process per operation over generated problem files."""

    name = "cli"
    setup_reps = 3
    here = os.path.dirname(os.path.abspath(__file__))

    def __init__(self, cd, seed, workdir):
        super().__init__(cd, seed, workdir)
        self.files, ops = gen.cli_instances(seed, self.towers)
        self.instances = {op.name: op for op in ops}
        self.paths = {}
        for name, (_, _, text, _) in self.files.items():
            path = os.path.join(workdir, name + ".prob")
            with open(path, "w", encoding="ascii") as fh:
                fh.write(text)
            self.paths[name] = path
        root = os.path.dirname(self.here)
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [os.path.join(root, "src"), root] + ([os.environ["PYTHONPATH"]]
                                                 if os.environ.get("PYTHONPATH") else []))

    def _run(self, argv):
        proc = subprocess.run(argv, capture_output=True, text=True, env=self.env,
                              cwd=self.workdir, timeout=120)
        return proc.returncode, proc.stdout, proc.stderr

    def setup(self):
        """A fresh process imports the CLI and parses one copy of the files."""
        good = [self.paths[n] for n, f in self.files.items()
                if f[0] is not None and n.endswith("-0")]
        rc, _, err = self._run([sys.executable, os.path.join(self.here, "cli_child.py"),
                                "setup"] + good)
        if rc != 0:
            raise RuntimeError("cli set-up failed: %s" % err.strip())
        return None

    def ops(self, state, traced=None):
        out = []
        for name, op in self.instances.items():
            argv = [op.argv[0], self.paths[op.file]] + op.argv[1:]
            if traced is None:
                cmd = [sys.executable, "-m", "coxdescent.cli"] + argv
                out.append((name, lambda cmd=cmd: self._run(cmd)))
            else:
                out.append((name, lambda argv=argv: self._run_traced(argv, traced)))
        return out

    def _run_traced(self, argv, sink):
        report = os.path.join(self.workdir, "trace.json")
        res = self._run([sys.executable, os.path.join(self.here, "cli_child.py"),
                         "trace", report, "--"] + argv)
        with open(report, encoding="ascii") as fh:
            sink.append(json.load(fh))
        os.remove(report)
        return res

    def canon(self, res):
        if isinstance(res, Exception):
            return _error(res)
        return "exit=%d\n%s" % (res[0], res[1])

    def check(self, name, res):
        op = self.instances[name]
        if isinstance(res, Exception):
            return self.canon(res)
        rc, out, err = res
        if rc != op.exit:
            return "exit %d, expected %d (%s)" % (rc, op.exit, err.strip()[-200:])
        lines = out.splitlines()
        if op.expect.startswith("="):
            return None if lines == [op.expect[1:]] else "stdout %r" % out
        if op.expect == "PARSE_ERROR":
            return None if not out and err.startswith("parse error") else "no parse error"
        fld, spec, _, ideals = self.files[op.file]
        sp = self.towers.space(fld, spec)
        gens = ideals[op.data["ideal"]]
        if op.expect == "WITNESS":
            if len(lines) != 1 or not lines[0].startswith("NOT_STRICT witness="):
                return "stdout %r" % out
            w = sp.parse(lines[0].split("=", 1)[1])
            return "witness lies in the ideal" if Oracle(sp, gens).contains(w) else None
        if op.expect == "GB":
            basis = [sp.parse(line) for line in lines]
            same = Oracle(sp, gens).contains_all(basis) and Oracle(sp, basis).contains_all(gens)
            return None if same else "printed basis generates another ideal"
        if op.expect == "SAT":
            sat = Oracle(sp, [sp.parse(line) for line in lines])
            if not sat.contains_all(gens):
                return "saturation does not contain the ideal"
            ideal = Oracle(sp, gens)
            for f in op.data["gained"]:
                if not sat.contains(f) or ideal.contains(f):
                    return "saturation misses %s" % sp.text(f)
            return None
        if op.expect == "DESCEND":
            return check_descend_output(sp, Action(sp, op.data["frob"], op.data["map"]),
                                        gens, lines)
        return "unknown expectation %s" % op.expect


def check_descend_output(sp, act, gens, lines):
    """The CLI's descend report, read back and held to descent's contract."""
    if not lines or lines[-1] != "IDEAL_EQUAL=true":
        return "missing IDEAL_EQUAL=true"
    new, blocks = [], []
    degree_lines = []
    for line in lines[:-1]:
        if line.startswith("ORBIT { ") and line.endswith(" }"):
            block = [sp.parse(t) for t in line[8:-2].split(" ; ")]
            blocks.append((len(new), len(new) + len(block)))
            new += block
        elif line.startswith("DEGREE "):
            degree_lines.append(line[7:].split(" -> "))
        else:
            return "unexpected line %r" % line
    if len(degree_lines) != len(new) or any(a != b for a, b in degree_lines):
        return "degree log does not keep every degree"
    want = sorted(sp.poly_degree(g) for g in gens)
    if sorted(sp.poly_degree(g) for g in new) != want:
        return "output degrees differ from the input degrees"
    # the log kept each degree in place; pair outputs with inputs by degree
    remaining = list(range(len(gens)))
    order = []
    for g in new:
        i = next(k for k in remaining if sp.poly_degree(gens[k]) == sp.poly_degree(g))
        remaining.remove(i)
        order.append(i)
    return check_descent(sp, act, gens, new, blocks, order)


WORKLOADS = {w.name: w for w in (StrictCI, Descent, Membership, Cli)}
