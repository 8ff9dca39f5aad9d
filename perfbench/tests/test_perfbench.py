"""Self-tests of the benchmark: a toy-size run of every workload, seed
determinism of the generated inputs, the hook table, and the self-time
arithmetic on a synthetic span tree."""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(workload, trace, seed=3):
    out = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0", "--trace", str(trace),
         "--scale", "toy"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_toy_run_is_correct_and_reports_end_to_end_metrics(workload):
    res = _run(workload, trace=0)
    assert res["correct"] is True and res["failed"] == 0
    assert res["attempted"] >= 1
    assert set(res["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    for m in SPEC["end_to_end"]:
        got = res["metrics"][m["name"]]
        assert got["unit"] == m["unit"] and got["value"] > 0


def test_toy_traced_run_reports_every_per_layer_metric():
    res = _run("fhn-pattern", trace=1)
    assert res["correct"] is True
    assert {k: v["unit"] for k, v in res["metrics"].items()} == \
        {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    m = {k: v["value"] for k, v in res["metrics"].items()}
    # the reference orbit and one image at toy size
    assert m["dde.simulate.calls"] == 2 and m["dde.steps"] > 0
    assert m["roots.find_roots_quasipoly.calls"] == 0
    assert m["trace.self_coverage"] >= 0.9


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_gives_same_inputs(name, tmp_path):
    wl = workloads.WORKLOADS[name]
    ref = workloads.load_reference()

    def canon(obj):
        if isinstance(obj, np.ndarray):
            return (obj.dtype.str, obj.shape, obj.tobytes())
        if isinstance(obj, (list, tuple)):
            return [canon(x) for x in obj]
        return repr(obj)

    def inputs(seed, sub):
        d = tmp_path / sub
        d.mkdir()
        inp = wl.setup(seed, "full", d, ref)
        # compare only generated data, not paths to the per-call directory
        return {k: canon(v) for k, v in inp.items()
                if k not in ("pgm", "config", "dirs", "pgm_dir")}, d

    a, da = inputs(7, "a")
    b, db = inputs(7, "b")
    c, _ = inputs(8, "c")
    assert a == b
    assert a != c
    if name == "lattice-dump":
        assert (da / "image.pgm").read_bytes() == (db / "image.pgm").read_bytes()
        assert json.loads((da / "run.json").read_text())["seed"] == 7


def test_self_times_on_synthetic_tree():
    spans = [
        ["root", 0.0, 10.0, -1],
        ["a", 1.0, 4.0, 0],
        ["b", 3.0, 6.0, 0],       # overlaps a: union of children is [1, 6]
        ["c", 8.0, 12.0, 0],      # sticks out of its parent: clipped to [8, 10]
        ["a.x", 1.5, 2.0, 1],
        ["a.y", 2.0, 2.5, 1],
    ]
    got = tracing.self_times(spans)
    assert got == pytest.approx([10.0 - 5.0 - 2.0, 3.0 - 1.0, 3.0, 4.0, 0.5, 0.5])
    totals = tracing.span_totals(spans)
    assert totals["root"] == {"calls": 1, "busy_s": 10.0, "self_s": pytest.approx(3.0)}


def test_busy_time_counts_recursion_once():
    spans = [["f", 0.0, 4.0, -1], ["f", 1.0, 3.0, 0], ["g", 5.0, 6.0, -1]]
    totals = tracing.span_totals(spans)
    assert totals["f"]["calls"] == 2
    assert totals["f"]["busy_s"] == pytest.approx(4.0)
    assert totals["f"]["self_s"] == pytest.approx(4.0)


def test_tracer_records_nested_spans_and_failures():
    tr = tracing.Tracer()
    tr.enabled = True

    def inner(x):
        if x < 0:
            raise ValueError("negative")
        return x

    def outer(x):
        return tr.call("inner", inner, (x,), {})

    assert tr.call("outer", outer, (2,), {}) == 2
    with pytest.raises(ValueError):
        tr.call("outer", outer, (-1,), {})
    assert [s[0] for s in tr.spans] == ["outer", "inner", "outer", "inner"]
    assert [s[3] for s in tr.spans] == [-1, 0, -1, 2]
    assert tr.counts["inner.failed"] == 1 and tr.counts["outer.failed"] == 1


def test_hook_install_fails_loudly_on_a_missing_name():
    bogus = tracing.Hook("sl.gone", (("delaylattice.sl", "no_such_function"),))
    with pytest.raises(RuntimeError, match="no_such_function"):
        tracing.install(tracing.Tracer(), hooks=tracing.HOOKS + (bogus,))


def test_hooks_wrap_and_restore_the_package():
    from delaylattice import dde, sl
    original = sl.find_roots_quasipoly
    tr = tracing.Tracer()
    uninstall = tracing.install(tr)
    try:
        assert sl.find_roots_quasipoly is not original
        assert sl.find_roots_quasipoly.__wrapped__ is original
        tr.enabled = True
        spec = workloads.LatticeSpec(1, 1, workloads.Model.FITZHUGH_NAGUMO,
                                     workloads.FHNParams(), 1.0)
        dde.simulate(spec, workloads.core.DelayMap.homogeneous(1, 1, 1.0),
                     dde.ConstantHistory(np.zeros((1, 1, 3))), t_end=1.0, dt=0.25)
        tr.enabled = False
    finally:
        uninstall()
    assert sl.find_roots_quasipoly is original
    m = tracing.layer_metrics(tr, wall_s=1.0, extra_counts={})
    assert m["dde.simulate.calls"] == 1
    assert m["dde.steps"] == 4 and m["dde.node_steps"] == 4
    # history reads: states on the 7 grid points of [-6*dt, 0], derivatives on 6
    assert m["dde.history.calls"] == 13
    assert m["dde.ring_bytes"] == 2 * (6 + 4) * 24
