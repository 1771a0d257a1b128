"""What callers rely on in the five result types: keyword construction with
its defaults, the ``Name(field=value, ...)`` repr, equality of equal
instances, and read-only fields on the two frozen ones."""

import pytest

from coxdescent import (CoxAmbient, DegreeOrbitPartition, DescentResult, FieldTower, Problem,
                        StrictCIVerdict, degree_orbits, descend, is_strict_ci, load_problem,
                        make_product_projective)

from conftest import DATA


@pytest.fixture(scope="module")
def amb():
    return make_product_projective([1, 1], FieldTower(101))


@pytest.fixture(scope="module")
def problem():
    return load_problem(DATA + "/example_descent.prob")


class TestCoxAmbient:
    def test_keyword_construction_and_repr(self, amb):
        assert CoxAmbient(ring=amb.ring).ring is amb.ring
        assert repr(amb) == "CoxAmbient(ring=MultigradedRing(GF(101), vars=x0,x1,y0,y1))"

    def test_equal_and_hashed_by_its_ring(self, amb):
        assert CoxAmbient(ring=amb.ring) == amb
        assert hash(CoxAmbient(ring=amb.ring)) == hash(amb) == hash((amb.ring,))

    def test_field_is_read_only(self, amb):
        with pytest.raises(AttributeError):
            amb.ring = None


class TestStrictCIVerdict:
    def test_defaults_are_none(self):
        v = StrictCIVerdict(status="not_ci")
        assert (v.status, v.witness, v.height, v.expected) == ("not_ci", None, None, None)
        assert not v.is_strict()

    def test_repr(self, amb):
        assert repr(is_strict_ci(amb, ["x0*y0"])) == (
            "StrictCIVerdict(status='strict', witness=None, height=1, expected=1)")
        assert repr(is_strict_ci(amb, ["x0", "x1"])) == (
            "StrictCIVerdict(status='not_strict', witness=<1>, height=2, expected=2)")

    def test_equal_verdicts_are_equal_and_hash_alike(self, amb):
        a, b = is_strict_ci(amb, ["x0*y0"]), is_strict_ci(amb, ["x0*y0"])
        assert a == b == StrictCIVerdict(status="strict", height=1, expected=1)
        assert hash(a) == hash(b) == hash(("strict", None, 1, 1))

    @pytest.mark.parametrize("field", ["status", "witness", "height", "expected"])
    def test_fields_are_read_only(self, field):
        with pytest.raises(AttributeError):
            setattr(StrictCIVerdict(status="strict"), field, None)


class TestDescentTypes:
    def test_degree_orbit_partition(self, problem):
        part = degree_orbits(problem.action, problem.ideals["pair"].gens)
        assert repr(part) == (
            "DegreeOrbitPartition(order=[0, 1], r_bounds=[0, 2], s_bounds=[0, 2], "
            "blocks=[{'beta': 2, 'gamma': 1, 'classes': [(1, 0), (0, 1)], 'rep_powers': [0, 1]}])")
        again = DegreeOrbitPartition(order=part.order, r_bounds=part.r_bounds,
                                     s_bounds=part.s_bounds, blocks=part.blocks)
        assert again == part == degree_orbits(problem.action, problem.ideals["pair"].gens)

    def test_descent_result(self, problem):
        gens = problem.ideals["pair"].gens
        res = descend(problem.ambient, problem.action, gens)
        assert repr(res) == (
            "DescentResult(new_gens=[<x0>, <y0>], orbit_blocks=[(0, 2)], "
            "degree_log=[((1, 0), (1, 0)), ((0, 1), (0, 1))], input_order=[0, 1])")
        again = DescentResult(new_gens=res.new_gens, orbit_blocks=res.orbit_blocks,
                              degree_log=res.degree_log, input_order=res.input_order)
        assert again == res == descend(problem.ambient, problem.action, gens)


class TestProblem:
    def test_action_defaults_to_none(self, problem):
        bare = Problem(tower=problem.tower, ambient=problem.ambient, ideals={})
        assert bare.action is None
        assert bare == Problem(tower=problem.tower, ambient=problem.ambient, ideals={},
                               action=None)

    def test_repr(self, problem):
        assert repr(problem) == (
            "Problem(tower=GF(3^2), ambient=CoxAmbient(ring=MultigradedRing(GF(3^2), "
            "vars=x0,x1,y0,y1)), ideals={'pair': IdealHandle(x0, t*y0), "
            "'orbit': IdealHandle(x0, y0), 'single': IdealHandle(x0)}, "
            "action=SemilinearAction(frob=1, order=2))")

    def test_equal_parts_give_equal_problems(self, problem):
        again = Problem(tower=problem.tower, ambient=problem.ambient,
                        ideals=dict(problem.ideals), action=problem.action)
        assert again == problem
