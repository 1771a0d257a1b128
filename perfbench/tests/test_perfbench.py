"""Tests of the benchmark itself: generators, oracle, tracer, workloads.

Run from the repository root:  python3 -m pytest perfbench/tests -q
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
SRC = os.path.join(ROOT, "src")
for path in (SRC, ROOT):
    if path not in sys.path:
        sys.path.insert(0, path)

import coxdescent as cd  # noqa: E402
from perfbench import gen, tracer, workloads  # noqa: E402
from perfbench.algebra import Action, Oracle  # noqa: E402

@pytest.fixture(scope="module")
def towers():
    return gen.Towers(cd.FieldTower)


def _texts(items):
    return [(i.name, i.field, i.ambient, i.gens, i.expect) for i in items]


# -- generators


def test_generators_are_deterministic_per_seed(towers):
    fresh = gen.Towers(cd.FieldTower)
    assert _texts(gen.strict_ci_instances(4, towers)) == _texts(gen.strict_ci_instances(4, fresh))
    assert _texts(gen.descent_instances(4, towers)) == _texts(gen.descent_instances(4, fresh))
    ideals_a, queries_a = gen.membership_instances(4, towers)
    ideals_b, queries_b = gen.membership_instances(4, fresh)
    assert _texts(ideals_a + queries_a) == _texts(ideals_b + queries_b)
    files_a, ops_a = gen.cli_instances(4, towers)
    files_b, ops_b = gen.cli_instances(4, fresh)
    assert [f[2] for f in files_a.values()] == [f[2] for f in files_b.values()]
    assert [(o.name, o.argv, o.exit, o.expect) for o in ops_a] == \
        [(o.name, o.argv, o.exit, o.expect) for o in ops_b]


def test_seeds_differ(towers):
    assert _texts(gen.strict_ci_instances(1, towers)) != _texts(gen.strict_ci_instances(2, towers))
    assert _texts(gen.descent_instances(1, towers)) != _texts(gen.descent_instances(2, towers))


def test_text_round_trips_through_the_package_parser(towers):
    for inst in gen.strict_ci_instances(5, towers) + gen.descent_instances(5, towers):
        sp = towers.space(inst.field, inst.ambient)
        if inst.ambient[0] == "product":
            ring = cd.make_product_projective(inst.ambient[1], sp.tower).ring
        else:
            ring = cd.make_segre_p1p1(sp.tower).ring
        for text in inst.gens:
            assert sp.parse(text) == sp.from_package(ring.parse(text))


# -- oracle and action


def _product(towers, dims, fld=(101, 1)):
    return towers.space(fld, ("product", dims))


def test_oracle_two_point_saturation_gains_x0x1(towers):
    sp = _product(towers, (1, 1))
    ideal = Oracle(sp, [sp.parse("x0*y0"), sp.parse("x1*y1")])
    f = sp.parse("x0*x1")
    assert not ideal.contains(f)
    for g in ["x0*y0", "x0*y1", "x1*y0", "x1*y1"]:
        assert ideal.contains(sp.parse("x0*x1*" + g))


def test_oracle_nonreduced_saturation_gains_x0sq_x1sq(towers):
    sp = _product(towers, (1, 1))
    ideal = Oracle(sp, [sp.parse("x0*y0^2"), sp.parse("x1^2*y1")])
    f = "x0^2*x1^2"
    assert not ideal.contains(sp.parse(f))
    for g in ["x0*y0", "x0*y1", "x1*y0", "x1*y1"]:
        assert ideal.contains(sp.parse("%s*%s^2" % (f, g)))


def test_oracle_uses_the_segre_relation(towers):
    sp = towers.space((101, 1), ("segre",))
    ideal = Oracle(sp, [sp.parse("z01*z10")])
    assert ideal.contains(sp.parse("z00*z11"))
    assert not ideal.contains(sp.parse("z00*z01"))


def test_oracle_agrees_with_membership_answers(towers):
    ideals, queries = gen.membership_instances(6, towers)
    sample = [q for q in queries if q.data["ideal"] != 1][:20]
    for q in sample:
        inst = ideals[q.data["ideal"]]
        sp = towers.space(inst.field, inst.ambient)
        ring = (cd.make_segre_p1p1(sp.tower) if inst.ambient[0] == "segre"
                else cd.make_product_projective(inst.ambient[1], sp.tower)).ring
        handle = cd.IdealHandle(ring, [ring.parse(t) for t in inst.gens])
        oracle = Oracle(sp, [sp.parse(t) for t in inst.gens])
        f = sp.parse(q.gens[0])
        assert oracle.contains(f) == handle.contains(ring.parse(q.gens[0]))
        assert oracle.contains(f) == (q.expect == "member")


def test_action_matches_the_package_on_a_hand_case(towers):
    sp = _product(towers, (1, 1), (3, 2))
    act = Action(sp, 1, gen.SWAP)
    assert act.order == 2
    assert sp.text(act.apply(sp.parse("t*x0 + 2*x1*y0"))) == "2*x0*y1 + 2*t*y0"
    assert Action(_product(towers, (1, 1, 1), (2, 4)), 1, gen.CYCLE).order == 12


# -- tracer


def _snapshot():
    snap = {}
    for name, mod in sys.modules.items():
        if mod is not None and (name == "coxdescent" or name.startswith("coxdescent.")):
            for attr, value in vars(mod).items():
                snap[(name, attr)] = value
                if isinstance(value, type):
                    for k, v in vars(value).items():
                        snap[(name, attr, k)] = v
    return snap


def _small_ops(wl, state):
    """The workload's operations without the seconds-long baseline rows."""
    return [op for op in wl.ops(state) if not wl.instances[op[0]].data.get("heavy")]


def test_tracing_off_leaves_every_attribute_untouched(tmp_path):
    before = _snapshot()
    wl = workloads.StrictCI(cd, 1, str(tmp_path))
    for _, fn in _small_ops(wl, wl.setup())[:10]:
        fn()
    after = _snapshot()
    assert before.keys() == after.keys()
    assert all(before[k] is after[k] for k in before)


def test_tracer_rebinds_importers_and_restores(tmp_path):
    import coxdescent.cox as cox
    import coxdescent.groebner as groebner

    before = _snapshot()
    orig = groebner.saturate
    with tracer.Tracer() as t:
        assert cox.saturate is groebner.saturate is not orig
        wl = workloads.StrictCI(cd, 1, str(tmp_path))
        ops = [op for op in _small_ops(wl, wl.setup()) if "principal" not in op[0]][:6]
        for _, fn in ops:
            fn()
    after = _snapshot()
    assert all(before[k] is after[k] for k in before) and before.keys() == after.keys()
    with t:                     # installing again reuses the same wrappers
        assert cox.saturate is groebner.saturate is not orig
    after = _snapshot()
    assert all(before[k] is after[k] for k in before) and before.keys() == after.keys()
    summary = t.summary()["labels"]
    assert summary["cox.is_strict_ci"]["calls"] == len(ops)
    assert summary["groebner.saturate_single"]["calls"] > 0
    for rec in summary.values():
        assert 0 <= rec["self_s"] <= rec["total_s"] + 1e-9


def test_self_time_excludes_children_and_recursion_counts_once():
    spans = [["groebner.saturate", -1, 0.0, 10.0, 4],
             ["groebner.saturate_single", 0, 1.0, 4.0, 0],
             ["groebner.reduced_gb", 1, 2.0, 3.0, 0],
             ["groebner.intersect", 0, 5.0, 6.0, 0],
             ["groebner.saturate", 0, 7.0, 9.0, 2]]
    s = tracer.summarize(spans)
    sat = s["labels"]["groebner.saturate"]
    assert sat["calls"] == 2
    assert sat["total_s"] == 10.0
    assert sat["self_s"] == (10.0 - 3.0 - 1.0 - 2.0) + 2.0
    assert s["labels"]["groebner.saturate_single"]["self_s"] == 2.0
    assert s["counts"] == {"saturate_gens": 6, "singles_in_saturate": 1,
                           "intersects_in_saturate": 1}


def test_clock_scales_by_the_probes_around_an_interval():
    from perfbench.speed import REF_PROBE_S, Clock

    clock = Clock()
    clock.times = [0.0, 1.0, 2.0, 3.0]
    clock.probes = [REF_PROBE_S, 2 * REF_PROBE_S, 2 * REF_PROBE_S, REF_PROBE_S]
    assert clock.scaled(1.2, 1.8) == pytest.approx(0.6 / 2)
    assert clock.scaled(0.5, 2.5) == pytest.approx(2.0 / 1.5)


def test_harrell_davis_quantile_on_evenly_spaced_values():
    from perfbench.run import quantile

    xs = list(range(1, 101))
    assert quantile(xs, 0.5) == pytest.approx(50.5)
    assert quantile(xs, 0.9) == pytest.approx(90.5, abs=0.1)
    assert quantile([3.0] * 7, 0.9) == pytest.approx(3.0)


# -- workloads


@pytest.mark.parametrize("name", ["strict_ci", "descent", "membership", "cli"])
def test_workload_smoke(name, tmp_path):
    from perfbench.run import Verdicts, run_pass

    wl = workloads.WORKLOADS[name](cd, 3, str(tmp_path))
    ops = _small_ops(wl, wl.setup())
    if name == "cli":
        # one invocation of each kind of expectation
        kinds = {}
        for op in ops:
            kinds.setdefault(wl.instances[op[0]].expect.split(" ")[0][:3], op)
        ops = list(kinds.values())
    verdicts = Verdicts(wl)
    verdicts.add(run_pass(ops))
    verdicts.add(run_pass(ops[:3]))
    assert verdicts.finish() == (0, len(ops) + 3), verdicts.bad
    assert len(verdicts.digest) == 64


def test_run_reports_the_contract(tmp_path):
    out = subprocess.run([sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
                          "--workload", "membership", "--seed", "2", "--seconds", "0.2",
                          "--trace", "0"], capture_output=True, text=True, cwd=ROOT,
                         timeout=120)
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 100
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert set(result["metrics"]) == {m["name"] for m in spec["end_to_end"]}
    for m in spec["end_to_end"]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert result["metrics"][m["name"]]["value"] > 0
    out = subprocess.run([sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
                          "--workload", "membership", "--seed", "2", "--seconds", "0.2",
                          "--trace", "1"], capture_output=True, text=True, cwd=ROOT,
                         timeout=120)
    assert out.returncode == 0, out.stderr
    metrics = json.loads(out.stdout.splitlines()[-1])["metrics"]
    assert {k: v["unit"] for k, v in metrics.items()} == \
        {m["name"]: m["unit"] for m in spec["per_layer"]}


def test_run_fails_without_the_package(tmp_path):
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    out = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "membership",
                          "--seed", "1", "--seconds", "1", "--trace", "0"],
                         capture_output=True, text=True, cwd=tmp_path, env=env, timeout=60)
    assert out.returncode != 0
    assert out.stdout == ""
