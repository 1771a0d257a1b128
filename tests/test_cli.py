import random
import subprocess
import sys
import time

import pytest

from coxdescent import FieldTower, groebner, make_product_projective, monomials_of_degree
from coxdescent.cli import main
from coxdescent.problemfile import load_problem, parse_problem
from coxdescent.errors import ParseError
from coxdescent.fields import _MAX_NESTING

from coxdescent.rings import EXPONENT_CAP

from conftest import DATA, DIGIT_LIMIT

P1P1 = DATA + "/example_p1p1.prob"
SEGRE = DATA + "/example_segre.prob"
DESCENT = DATA + "/example_descent.prob"
CUSTOM = DATA + "/custom_ambient.prob"
BAD = DATA + "/bad_syntax.prob"


def run(capsys, *argv):
    rc = main(list(argv))
    cap = capsys.readouterr()
    return rc, cap.out, cap.err


class TestGB:
    def test_already_a_basis(self, capsys):
        rc, out, _ = run(capsys, "gb", P1P1, "--ideal", "segre2")
        assert rc == 0
        assert out == "x0*y0\nx1*y1\n"

    def test_row_reduction(self, capsys):
        rc, out, _ = run(capsys, "gb", P1P1, "--ideal", "rowred")
        assert rc == 0
        assert out == "x0\ny0\n"

    def test_unit_ideal(self, capsys):
        rc, out, _ = run(capsys, "gb", P1P1, "--ideal", "unit")
        assert rc == 0
        assert out == "1\n"


class TestSaturate:
    def test_fat_point_default_direction(self, capsys):
        rc, out, _ = run(capsys, "saturate", P1P1, "--ideal", "fat")
        assert rc == 0
        assert out == "x0\ny0\n"

    def test_two_points(self, capsys):
        rc, out, _ = run(capsys, "saturate", P1P1, "--ideal", "segre2")
        assert rc == 0
        lines = out.splitlines()
        assert "x0*x1" in lines and "y0*y1" in lines
        assert len(lines) == 4

    def test_self_saturation_is_unit(self, capsys):
        rc, out, _ = run(capsys, "saturate", P1P1, "--ideal", "segre2",
                         "--against", "segre2")
        assert rc == 0
        assert out == "1\n"

    def test_custom_ambient(self, capsys):
        rc, out, _ = run(capsys, "saturate", CUSTOM)
        assert rc == 0
        assert out == "x0\ny0\n"


class TestStrictCI:
    def test_not_strict_with_witness(self, capsys):
        rc, out, _ = run(capsys, "strict-ci", P1P1, "--ideal", "segre2")
        assert rc == 1
        assert out == "NOT_STRICT witness=x0*x1\n"

    def test_strict(self, capsys):
        rc, out, _ = run(capsys, "strict-ci", P1P1, "--ideal", "point")
        assert rc == 0
        assert out == "STRICT\n"

    def test_segre_strict(self, capsys):
        rc, out, _ = run(capsys, "strict-ci", SEGRE)
        assert rc == 0
        assert out == "STRICT\n"

    def test_quotient_zero_form_is_a_semantic_error(self, capsys, tmp_path):
        path = tmp_path / "quadric.prob"
        path.write_text("field p=101\nambient segre-p1p1\nideal q = z00*z11 - z01*z10\n")
        rc, out, err = run(capsys, "strict-ci", str(path))
        assert (rc, out) == (3, "")
        assert "zero polynomial" in err

    def test_not_ci(self, capsys):
        # no NOT_CI here: ci rejects an inhomogeneous ideal (exit 3), and the
        # fat point is a CI that is not strict; test_not_ci_exit_4 prints NOT_CI
        rc, out, _ = run(capsys, "ci", P1P1, "--ideal", "rowred")
        assert (rc, out) == (3, "")  # x0+y0 is not homogeneous on P1xP1
        rc, out, _ = run(capsys, "strict-ci", P1P1, "--ideal", "fat")
        assert rc == 1
        assert out.startswith("NOT_STRICT witness=")

    def test_not_ci_exit_4(self, capsys, tmp_path):
        # x0*y0 and x0*y1 share the factor x0: height 1, not 2
        path = tmp_path / "notci.prob"
        path.write_text("field p=101\nambient product 1 1\nideal a = x0*y0, x0*y1\n")
        assert run(capsys, "strict-ci", str(path)) == (4, "NOT_CI height=1 expected=2\n", "")


class TestDimAndCI:
    def test_dim(self, capsys):
        rc, out, _ = run(capsys, "dim", P1P1, "--ideal", "point")
        assert rc == 0
        assert out == "2\n"

    def test_ci(self, capsys):
        rc, out, _ = run(capsys, "ci", P1P1, "--ideal", "segre2")
        assert rc == 0
        assert out == "CI height=2\n"

    def test_ci_stops_at_height_s(self, capsys, tmp_path, monkeypatch):
        # on the section x_i -> (i+1)*t_(i mod 2) the forms become
        # 3*t0^2 + 8*t1^2 and -2*t0*t1, with finitely many common zeros, so
        # height 2 needs no basis of I; NOT_CI prints the exact height
        path = tmp_path / "ci.prob"
        path.write_text("field p=101\nambient product 1 1\n"
                        "ideal ci = x0*y0 + x1*y1, x0*y1 - x1*y0\nideal fat = x0*y0, x0*y1\n")
        reduced = []
        run_basis = groebner._reduce_basis
        monkeypatch.setattr(groebner, "_reduce_basis",
                            lambda *args: reduced.append(args) or run_basis(*args))
        assert run(capsys, "ci", str(path), "--ideal", "ci") == (0, "CI height=2\n", "")
        assert reduced == []
        assert run(capsys, "ci", str(path), "--ideal", "fat") == (
            4, "NOT_CI height=1 expected=2\n", "")

    def test_ci_squeezes_the_not_ci_height(self, capsys, tmp_path):
        # the ROADMAP scale probe P1^5, 3 x (1,...,1) on dense forms: every
        # multilinear form vanishes on x0 = x1 = 0, so ht(I) <= 2, which the
        # linear section shows; I's own basis took past 10 s on a 2-vCPU VM
        rng = random.Random(2026)
        amb = make_product_projective([1] * 5, FieldTower(101))
        forms = [sum((m * rng.randint(1, 100)
                      for m in monomials_of_degree(amb.ring, (1,) * 5)), amb.ring.zero())
                 for _ in range(3)]
        path = tmp_path / "p1p5.prob"
        path.write_text("field p=101\nambient product 1 1 1 1 1\nideal a = %s\n"
                        % ", ".join(map(str, forms)))
        start = time.perf_counter()
        assert run(capsys, "ci", str(path)) == (4, "NOT_CI height=2 expected=3\n", "")
        assert time.perf_counter() - start < 1

    @pytest.mark.parametrize("ambient, gens", [
        ("product 1 1", "x0, 0"),
        ("segre-p1p1", "z00*z11 - z01*z10"),
        ("product 1 1", "x0 + x0*y0"),
    ], ids=["zero", "quotient-zero", "inhomogeneous"])
    def test_ci_rejects_what_strict_ci_rejects(self, capsys, tmp_path, ambient, gens):
        path = tmp_path / "bad.prob"
        path.write_text("field p=101\nambient %s\nideal a = %s\n" % (ambient, gens))
        ci = run(capsys, "ci", str(path))
        assert ci == run(capsys, "strict-ci", str(path))
        assert ci[:2] == (3, "") and ci[2].startswith("error: ")


class TestDescend:
    def test_orbit_pair(self, capsys):
        rc, out, _ = run(capsys, "descend", DESCENT, "--ideal", "pair")
        assert rc == 0
        assert out.splitlines()[0] == "ORBIT { x0 ; y0 }"
        assert "IDEAL_EQUAL=true" in out

    def test_already_orbit_same_output(self, capsys):
        _, out_pair, _ = run(capsys, "descend", DESCENT, "--ideal", "pair")
        _, out_orbit, _ = run(capsys, "descend", DESCENT, "--ideal", "orbit")
        assert out_pair == out_orbit

    def test_not_invariant(self, capsys):
        rc, out, err = run(capsys, "descend", DESCENT, "--ideal", "single")
        assert rc == 5
        assert out == "NOT_INVARIANT\n"


    def test_no_fixed_generator_exit_5(self, tmp_path):
        # t has order 3 in GF(101^2): x0 -> t*x0 fixes no multiple of x0.
        # In its own process, so that an escaping exception would show as
        # a traceback and exit 1
        path = tmp_path / "linear.prob"
        path.write_text("field p=101 d=2\nambient product 1 1\n"
                        "ideal pair = x0, t*y0\naction frob=0 x0->t*x0\n")
        proc = subprocess.run([sys.executable, "-m", "coxdescent.cli", "descend", str(path)],
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 5
        assert proc.stdout == "NO_FIXED_GENERATOR\n"
        assert proc.stderr.startswith("NO_FIXED_GENERATOR: ")
        assert "Traceback" not in proc.stderr


class TestErrors:
    def test_parse_error_exit_code(self, capsys):
        rc, out, err = run(capsys, "gb", BAD)
        assert rc == 2
        assert "parse error" in err

    def test_modulus_too_large(self, capsys, tmp_path):
        path = tmp_path / "big.prob"
        path.write_text("field p=618970019642690137449562111\n"
                        "ambient product 1 1\nideal a = x0\n")
        rc, _, err = run(capsys, "gb", str(path))
        assert rc == 2
        assert "p too large" in err

    def test_t_over_a_prime_field(self, capsys, tmp_path):
        path = tmp_path / "t.prob"
        path.write_text("field p=101\nambient product 1 1\nideal a = t*x0*y0\n")
        rc, out, err = run(capsys, "strict-ci", str(path))
        assert (rc, out) == (2, "")
        assert err == "parse error: line 3: in ideal a: GF(101) has no extension generator t\n"

    def test_exponent_cap(self, capsys, tmp_path):
        path = tmp_path / "cap.prob"
        path.write_text("field p=101\nambient product 1 1\nideal a = x0^%d\n" % EXPONENT_CAP)
        assert run(capsys, "gb", str(path)) == (0, "x0^%d\n" % EXPONENT_CAP, "")
        path.write_text("field p=101\nambient product 1 1\nideal a = x0^%d\n"
                        % (EXPONENT_CAP + 1))
        rc, out, err = run(capsys, "gb", str(path))
        assert (rc, out) == (2, "")
        assert err == ("parse error: line 3: in ideal a: exponent %d is past the cap %d\n"
                       % (EXPONENT_CAP + 1, EXPONENT_CAP))

    def test_engine_exponent_guard(self, capsys, tmp_path):
        # both generators lie within the cap; their S-pair lcm, of degree
        # 2*cap - 21, does not
        half = EXPONENT_CAP - 10
        path = tmp_path / "lcm.prob"
        path.write_text("field p=101\nambient product 1 1\nideal a = x0^%d*y0, x1^%d*y0\n"
                        % (half, half))
        rc, out, err = run(capsys, "gb", str(path))
        assert (rc, out) == (3, "")
        assert err == ("error: an S-pair lcm of degree past the exponent cap %d in a "
                       "Groebner computation\n" % EXPONENT_CAP)

    @pytest.mark.skipif(not DIGIT_LIMIT, reason="int() has no digit limit")
    def test_integer_past_the_digit_limit(self, capsys, tmp_path):
        big = "1" * (DIGIT_LIMIT + 1)
        path = tmp_path / "big.prob"
        path.write_text("field p=101\nambient product 1 1\nideal a = %s*x0\n" % big)
        rc, out, err = run(capsys, "gb", str(path))
        assert (rc, out) == (2, "")
        assert err == ("parse error: line 3: in ideal a: integer of %d digits is too long\n"
                       % len(big))

    @pytest.mark.parametrize("lines, message", [
        (["irrelevant x0*y0, x0*q1"], "unknown variable 'q1'"),
        (["defining x0 + x0*y0", "irrelevant x0*y0"], "invalid ambient: inhomogeneous"),
    ], ids=["irrelevant", "defining"])
    def test_custom_ambient_lines_name_their_line(self, capsys, tmp_path, lines, message):
        path = tmp_path / "custom.prob"
        path.write_text("\n".join(["field p=101", "ambient custom", "vars x0 x1 y0 y1",
                                   "grading 1 1 0 0 ; 0 0 1 1"] + lines + ["ideal a = x0", ""]))
        rc, out, err = run(capsys, "gb", str(path))
        assert (rc, out) == (2, "")
        assert err.startswith("parse error: line 5: " + message)

    CUSTOM_LINES = ["field p=101", "ambient custom", "vars x0 x1 y0 y1",
                    "grading 1 1 0 0 ; 0 0 1 1", "irrelevant x0*y0, x0*y1, x1*y0, x1*y1",
                    "defining x0*y0 - x1*y1"]

    @pytest.mark.parametrize("lines, lineno, message", [
        (["field p=101", "field p=3", "ambient product 1 1", "ideal a = x0"],
         2, "duplicate field line"),
        (["field p=101", "ambient product 1 1", "ambient segre-p1p1", "ideal a = x0"],
         3, "duplicate ambient line"),
        (["field p=101", "ambient product 1 1", "ideal a = x0",
          "action x0->x1 x1->x0", "action x0->x1 x1->x0"], 5, "duplicate action line"),
        (CUSTOM_LINES + ["vars x0 x1 y0 y1", "ideal a = x0"], 7, "duplicate vars line"),
        (CUSTOM_LINES + ["grading 1 1 1 1", "ideal a = x0"], 7, "duplicate grading line"),
        (CUSTOM_LINES + ["irrelevant x0, x1", "ideal a = x0"], 7, "duplicate irrelevant line"),
        (CUSTOM_LINES + ["defining x0*y1 - x1*y0", "ideal a = x0"], 7,
         "duplicate defining line"),
        (["field p=101", "ambient product 1 1", "ideal a = x0*y0, x1*y1", "ideal a = x0"],
         4, "duplicate ideal 'a'"),
    ], ids=["field", "ambient", "action", "vars", "grading", "irrelevant", "defining", "ideal"])
    def test_repeated_statement(self, capsys, tmp_path, lines, lineno, message):
        # the later statement used to replace the earlier one silently
        path = tmp_path / "twice.prob"
        path.write_text("\n".join(lines + [""]))
        rc, out, err = run(capsys, "gb", str(path))
        assert (rc, out) == (2, "")
        assert err == "parse error: line %d: %s\n" % (lineno, message)

    @pytest.mark.parametrize("lines, lineno, message", [
        (["field p=3 D=2", "ambient product 1 1", "ideal a = x0"], 1, "unknown key 'D'"),
        (["field p=101 p=7", "ambient product 1 1", "ideal a = x0"], 1, "repeated key 'p'"),
        (["field p=101 min_poly=t^2+1", "ambient product 1 1", "ideal a = x0"],
         1, "min_poly must be monic of degree 1"),
        (["field p=101", "ambient segre-p1p1 extra", "ideal a = z00"],
         2, "segre-p1p1 ambient takes no arguments"),
        (CUSTOM_LINES[:1] + ["ambient custom extra"] + CUSTOM_LINES[2:] + ["ideal a = x0"],
         2, "custom ambient takes no arguments"),
        (["field p=101", "ambient product 1 1", "ideal a = x0",
          "action frob=1 frob=0 x0->y0 x1->y1 y0->x0 y1->x1"], 4, "repeated key 'frob'"),
        (["field p=101", "ambient product 1 1", "ideal a = x0",
          "action x0->y0 x0->x0 x1->y1 y0->x0 y1->x1"], 4, "repeated map source 'x0'"),
    ], ids=["unknown-key", "repeated-key", "min-poly-of-gf-p", "segre-extra", "custom-extra",
            "repeated-frob", "repeated-source"])
    def test_ignored_input_is_a_parse_error(self, capsys, tmp_path, lines, lineno, message):
        # each of these used to be read as if the offending word were absent
        path = tmp_path / "extra.prob"
        path.write_text("\n".join(lines + [""]))
        rc, out, err = run(capsys, "gb", str(path))
        assert (rc, out) == (2, "")
        assert err == "parse error: line %d: %s\n" % (lineno, message)

    @pytest.mark.parametrize("lines, rc, err", [
        (["field p", "ambient product 1 1", "ideal a = x0"],
         2, "parse error: line 1: expected key=value, got 'p'"),
        (["field d=2", "ambient product 1 1", "ideal a = x0"],
         2, "parse error: line 1: field line needs p=<prime>"),
        (["field p=3 d=two", "ambient product 1 1", "ideal a = x0"],
         2, "parse error: line 1: p and d must be integers"),
        (["field p=3 d=2 min_poly=t^2+", "ambient product 1 1", "ideal a = x0"],
         2, "parse error: line 1: unexpected end of polynomial"),
        (["field p=101", "ambient", "ideal a = x0"],
         2, "parse error: line 2: ambient line needs a kind"),
        (["field p=101", "ambient product 1 x", "ideal a = x0"],
         2, "parse error: line 2: product dimensions must be integers"),
        (["field p=101", "ambient product", "ideal a = x0"],
         2, "parse error: line 2: product ambient needs dimensions"),
        (["field p=101", "ambient torus", "ideal a = x0"],
         2, "parse error: line 2: unknown ambient kind 'torus'"),
        (["field p=101", "ambient product 1 1", "vars x0 x1", "ideal a = x0"],
         2, "parse error: line 3: 'vars' line outside a custom ambient"),
        (["field p=101", "ambient product 1 1", "ideal a x0"],
         2, "parse error: line 3: ideal line needs NAME = generators"),
        (["field p=101", "ambient product 1 1", "ideal = x0"],
         2, "parse error: line 3: ideal needs a name"),
        (["field p=101", "ambient product 1 1", "idea a = x0"],
         2, "parse error: line 3: unknown statement 'idea'"),
        (["field p=101", "ideal a = x0"], 2, "parse error: missing ambient line"),
        (["field p=101", "ambient product 1 1", "ideal a = x0", "action frob=x x0->y0"],
         2, "parse error: line 4: frob= must be an integer"),
        (["field p=101", "ambient product 1 1", "ideal a = x0", "action ->y0"],
         2, "parse error: line 4: bad map entry '->y0'"),
        (["field p=101", "ambient product 1 1", "ideal a = x0", "action x0"],
         2, "parse error: line 4: bad action token 'x0'"),
        (["field p=101", "ambient product 1 1", "ideal a = x0", "action x0->q0"],
         2, "parse error: line 4: invalid action: unknown variable 'q0'"),
        (["field p=101", "ambient custom", "grading 1 1", "irrelevant x0", "ideal a = x0"],
         2, "parse error: custom ambient needs a vars line"),
        (["field p=101", "ambient custom", "vars x0 x1", "irrelevant x0", "ideal a = x0"],
         2, "parse error: custom ambient needs a grading line"),
        (["field p=101", "ambient custom", "vars x0 x1", "grading 1 1", "ideal a = x0"],
         2, "parse error: custom ambient needs an irrelevant line"),
        (["field p=101", "ambient custom", "vars x0 x1", "grading 1 one", "irrelevant x0",
          "ideal a = x0"], 2, "parse error: line 4: grading entries must be integers"),
        (["field p=101", "ambient product 1 1", "ideal a = x0"],
         3, "error: descend needs an action line in the problem file"),
    ], ids=["key-value", "field-needs-p", "p-d-integers", "min-poly-dangling-sign",
            "ambient-kind", "product-integers", "product-dimensions", "unknown-ambient",
            "vars-outside-custom", "ideal-needs-equals", "ideal-needs-name",
            "unknown-statement", "missing-ambient", "frob-integer", "bad-map-entry",
            "bad-action-token", "invalid-action", "custom-vars", "custom-grading",
            "custom-irrelevant", "grading-integers", "descend-without-action"])
    def test_rejected_problem(self, capsys, tmp_path, lines, rc, err):
        # descend reads the action line too; every file but the last fails to parse
        path = tmp_path / "bad.prob"
        path.write_text("\n".join(lines + [""]))
        assert run(capsys, "descend", str(path)) == (rc, "", err + "\n")

    def test_deep_nesting_is_a_parse_error(self, capsys, tmp_path):
        # 3000 levels used to overflow Python's stack: a traceback and exit 1
        path = tmp_path / "deep.prob"
        path.write_text("field p=101\nambient product 1 1\nideal a = %sx0%s\n"
                        % ("(" * 3000, ")" * 3000))
        assert run(capsys, "gb", str(path)) == (
            2, "", "parse error: line 3: in ideal a: parentheses nested deeper than %d\n"
            % _MAX_NESTING)

    @pytest.mark.parametrize("lines, err", [
        (["field p=101", "ambient product 1 1", "ideal a = x0+-x1"],
         "parse error: line 3: in ideal a: unexpected token '-'"),
        (["field p=3 d=2 min_poly=t^2+-1", "ambient product 1 1", "ideal a = x0"],
         "parse error: line 1: unexpected token '-'"),
    ], ids=["ideal", "min-poly"])
    def test_operator_token_is_a_parse_error(self, capsys, tmp_path, lines, err):
        # an operator where a factor starts is named as a token, not a variable
        path = tmp_path / "op.prob"
        path.write_text("\n".join(lines + [""]))
        assert run(capsys, "gb", str(path)) == (2, "", err + "\n")

    def test_empty_vars_line(self, capsys, tmp_path):
        path = tmp_path / "novars.prob"
        path.write_text("\n".join(["field p=101", "ambient custom", "vars",
                                   "grading 1", "irrelevant x0", "ideal a = x0", ""]))
        rc, out, err = run(capsys, "gb", str(path))
        assert (rc, out) == (2, "")
        assert err == "parse error: invalid ambient: a ring needs at least one variable\n"

    def test_missing_file(self, capsys):
        rc, _, err = run(capsys, "gb", DATA + "/nope.prob")
        assert rc == 2

    def test_unknown_ideal(self, capsys):
        rc, _, err = run(capsys, "gb", P1P1, "--ideal", "nope")
        assert rc == 3

    def test_ambiguous_default_ideal(self, capsys):
        rc, _, err = run(capsys, "gb", P1P1)
        assert rc == 3


class TestProblemFile:
    def test_line_numbers_in_errors(self):
        with pytest.raises(ParseError) as exc:
            parse_problem("field p=101\nambient product 1 1\nideal a = q9\n")
        assert exc.value.line == 3

    def test_field_required(self):
        with pytest.raises(ParseError):
            parse_problem("ambient product 1 1\n")

    def test_round_trip_of_printed_generators(self):
        # polynomials printed by the CLI re-parse to the same ideal
        problem = load_problem(P1P1)
        ring = problem.ambient.ring
        for name, ideal in problem.ideals.items():
            for g in ideal.reduced_gb():
                assert ring.parse(str(g)) == g

    def test_action_parsed(self):
        problem = load_problem(DESCENT)
        assert problem.action is not None
        assert problem.action.order == 2


class TestDeterminism:
    @pytest.mark.parametrize("argv", [
        ["gb", P1P1, "--ideal", "segre2"],
        ["saturate", P1P1, "--ideal", "fat"],
        ["strict-ci", P1P1, "--ideal", "segre2"],
        ["descend", DESCENT, "--ideal", "pair"],
    ])
    def test_byte_identical_across_processes(self, argv):
        def once():
            return subprocess.run(
                [sys.executable, "-m", "coxdescent.cli"] + argv,
                capture_output=True)
        a, b = once(), once()
        assert a.stdout == b.stdout
        assert a.returncode == b.returncode
