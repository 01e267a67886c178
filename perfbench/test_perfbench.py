"""Tests of the benchmark itself: its goldens, checked against independent
derivations, its tracer and its reference clock.

Run from the repository root:  PYTHONPATH=src python -m pytest -q perfbench
"""

import shutil
import signal
import subprocess
import sys
from fractions import Fraction

import pytest
import sympy

import perf_workloads as wl
import ref_clock
import run
from perf_tracer import Tracer, package_modules, traced_name

GOLDENS = wl.load_goldens()

# the limit-ideal fixtures of acceptance criteria 3 (cusp) and 4 (node)
CURVE_FIXTURES = {
    "cusp": ["u_1", "u_2", "u_3", "u_4", "u_5", "u_6", "u_7", "u_8", "u_9^2"],
    "node": ["u_1", "u_2", "u_3",
             "u_4 - 2*u_10", "u_5 - u_9", "u_6 - 2*u_10",
             "u_7 - u_9", "u_8 - 2*u_10", "u_9^2 - 4*u_10^2"],
}


@pytest.fixture(scope="module")
def nb():
    return wl.load_package()


def u_ring(size):
    return tuple(f"u_{k}" for k in range(1, size + 1))


def to_sympy(texts, names):
    symbols = sympy.symbols(names)
    table = dict(zip(names, symbols))
    return [sympy.sympify(t.replace("^", "**"), locals=table) for t in texts], symbols


@pytest.mark.parametrize("curve", sorted(CURVE_FIXTURES))
def test_curve_golden_equals_acceptance_fixture(nb, curve):
    golden = GOLDENS["curve-limits"][curve]
    ring = u_ring(golden["lambda_size"])
    parse = nb.parser.parse_polynomial
    ideal = nb.groebner.Ideal
    assert nb.groebner.ideal_equal(
        ideal(ring, [parse(g, ring) for g in golden["generators"]]),
        ideal(ring, [parse(g, ring) for g in CURVE_FIXTURES[curve]]))


@pytest.mark.parametrize("curve", [c for c, _ in wl.CURVES])
def test_curve_golden_is_reduced_basis_by_sympy(curve):
    golden = GOLDENS["curve-limits"][curve]
    names = u_ring(golden["lambda_size"])
    polys, symbols = to_sympy(golden["generators"], names)
    basis = sympy.groebner(polys, *symbols, order="grevlex")
    assert {sympy.expand(p) for p in basis.exprs} == {sympy.expand(p) for p in polys}


def test_surface_golden_is_reduced_basis_by_sympy():
    golden = GOLDENS["surface-nash"]
    polys, symbols = to_sympy(golden["basis"], wl.SURFACE_RING)
    basis = sympy.groebner(polys, *symbols, order="grevlex")
    assert {sympy.expand(p) for p in basis.exprs} == {sympy.expand(p) for p in polys}
    # the hypersurface equation itself lies in the golden ideal
    F, = to_sympy([wl.SURFACE_GOLDEN_POLY], wl.SURFACE_RING)[0]
    assert basis.contains(F)


def test_translated_curve_moves_the_singular_point(nb):
    center = (Fraction(3, 2), Fraction(-1, 4))
    text = wl.translated_curve("x^3-y^2", center)
    F = nb.parser.parse_polynomial(text, ("x", "y"))
    assert F.evaluate(center) == 0
    assert nb.hjac.is_singular(F, 1, center)


def small_cases(nb):
    """A few cheap cases of each workload, seeded."""
    curves = [case for case in wl.WORKLOADS["curve-limits"].inputs(nb, 7)
              if case["curve"] in ("cusp", "tacnode", "D4")]
    surface = [dict(case, n=2) for case in wl.WORKLOADS["surface-nash"].inputs(nb, 7)]
    points = wl.WORKLOADS["pointwise-tangent"].inputs(nb, 7)[:12]
    return [("curve-limits", curves), ("surface-nash", surface),
            ("pointwise-tangent", points)]


def traced_pass(nb, workload, cases):
    tracer, outputs = Tracer(), []
    with tracer.installed():
        latencies = run.run_pass(workload, nb, cases, lambda k, out: outputs.append(out),
                                 tracer.clock)
    return tracer, sum(latencies), outputs


def traced_bindings():
    """id -> function for every traced function bound in a package module."""
    return {id(value): value for module in package_modules() for value in vars(module).values()
            if traced_name(value) is not None}


def test_every_binding_is_wrapped(nb):
    originals = traced_bindings()
    assert id(nb.groebner.buchberger) in originals and id(nb.hjac.build) in originals
    with Tracer().installed():
        for module in package_modules():
            for attr, value in vars(module).items():
                assert id(value) not in originals, f"{module.__name__}.{attr} is not wrapped"
        wrapped = nb.groebner.buchberger
        assert id(wrapped.__wrapped__) in originals
        assert nb.limits.buchberger is wrapped and nb.cli.buchberger is wrapped
        assert nb.hjac.normal_form is nb.groebner.normal_form
    assert traced_bindings() == originals


def test_traced_outputs_equal_untraced_and_self_times_add_up(nb):
    for name, cases in small_cases(nb):
        workload = wl.WORKLOADS[name]
        untraced = [workload.run(nb, case) for case in cases]
        tracer, wall, traced = traced_pass(nb, workload, cases)
        assert traced == untraced, name
        for case, out in zip(cases, traced):
            if name != "surface-nash":  # its golden is for n=3
                assert workload.check(nb, case, out, GOLDENS) is None, name
        # spans nest, so self times add up to the time the outermost spans
        # cover: the traced wall time less the unspanned harness time
        assert tracer.self_total() == pytest.approx(tracer.root_s, rel=1e-9, abs=1e-9)
        assert 0 < tracer.root_s <= wall


def test_counts_repeat_across_traced_runs(nb):
    def counts(name, cases):
        tracer, _, _ = traced_pass(nb, wl.WORKLOADS[name], cases)
        return {fn: (st.calls, dict(st.counters)) for fn, st in tracer.stats.items()}

    for name, cases in small_cases(nb):
        first = counts(name, cases)
        assert first == counts(name, cases), name
    assert first["hjac.build"][0] > 0


def test_traced_counters(nb):
    (_, curves), (_, surface), _ = small_cases(nb)
    tracer, _, outputs = traced_pass(nb, wl.WORKLOADS["surface-nash"], surface)
    minors = tracer.stats["hjac.maximal_minors"]
    assert minors.calls == 2  # cmd_nashideal and nash_ideal
    assert tracer.stats["hjac.nash_ideal"].counters["generators"] == len(
        outputs[0]["generators"])
    tracer, _, outputs = traced_pass(nb, wl.WORKLOADS["curve-limits"], curves)
    gb = tracer.stats["groebner.buchberger"]
    assert gb.calls >= len(curves)
    assert gb.counters["input_gens"] > 0 and gb.counters["output_size"] > 0


def test_ref_clock_counts_work_not_wall_time():
    # probe() is the clock's unit of work: whatever the processor's speed,
    # N probes read as about N * NOMINAL_PROBE_S, the clock's own probes
    # left out
    calls = 3000
    previous = signal.getsignal(signal.SIGALRM)
    with ref_clock.RefClock() as clock:
        start = clock.now()
        for _ in range(calls):
            ref_clock.probe()
        elapsed = clock.now() - start
    assert clock.probes > ref_clock.WINDOW
    assert elapsed == pytest.approx(calls * ref_clock.NOMINAL_PROBE_S, rel=0.15)
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) is previous


def test_refuses_to_run_without_the_package_source(tmp_path):
    shutil.copytree(wl.HERE, tmp_path / wl.HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(wl.HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{wl.HERE.name}/run.py", "--workload", "curve-limits",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
