#!/usr/bin/env python3
"""Self-test of the benchmark's checks and tracer, at a tiny size.

    python3 perfbench/selftest.py

Every check runs once on a correct result, which it must accept, and on
tampered copies (an entry removed, a conjugate flipped, a point moved
off the variety, ...), each of which it must reject.  The tracer runs
twice on one binary form: its counts must repeat, its self times must
add up to the traced wall time, and uninstalling it must restore the
program's functions.  The speed probe must sample on its timer, leave
its own time out of measured times and rescale by the kernel samples in
an interval.  The metrics a run prints must be exactly those
BENCHMARK.json declares.  Exits 0 when everything holds.  Takes ~5 s.
"""

import math
import sys

import run  # sets the single-thread environment before numpy loads

import numpy as np

import checks
import workloads
from tracing import Tracer

FAILURES = []


def expect(name, problems, ok):
    if bool(problems) == ok:
        FAILURES.append(f"{name}: {'rejected' if ok else 'accepted'} {problems or ''}")
        print(f"FAIL {name}", flush=True)
    else:
        print(f"ok   {name}", flush=True)


def binary_cubic_set(rng):
    """Four rank-4 decompositions of one real binary cubic: 1 real, 2 autoconjugate, 1 pair.

    With four distinct slopes the weights of a binary cubic are fixed by
    a Vandermonde solve, so any slope set gives a decomposition, and its
    realness class follows from the slope set's symmetry.
    """
    d = 3
    binom = np.array([math.comb(d, k) for k in range(d + 1)])

    def weights(slopes, coeffs):
        vander = np.vander(slopes, N=d + 1, increasing=True).T
        return np.linalg.solve(vander, coeffs / binom)

    real_l = rng.uniform(-2, 2, 4).astype(complex)
    real_lam = rng.uniform(-2, 2, 4).astype(complex)
    coeffs = binom * (np.vander(real_l, N=d + 1, increasing=True).T @ real_lam)

    def z():
        return complex(*rng.uniform(-2, 2, 2))

    z1, z2, z3, z4, z5 = z(), z(), z(), z(), z()
    slope_sets = [
        real_l,
        np.array([rng.uniform(-2, 2), rng.uniform(-2, 2), z1, np.conj(z1)]),
        np.array([z2, np.conj(z2), z3, np.conj(z3)]),
        np.array([z1, z2, z4, z5]),
        np.conj(np.array([z1, z2, z4, z5])),
    ]
    decs = [(s.reshape(4, 1), weights(s, coeffs)) for s in slope_sets]
    return decs, decs[0]


def test_decomposition_checks():
    rng = np.random.default_rng(1)
    decs, target = binary_cubic_set(rng)
    classes = (1, 2, 1)
    check = lambda ds: checks.check_decompositions(ds, target, 3, classes,  # noqa: E731
                                                   np.random.default_rng(2))
    expect("decompositions: correct set", check(decs), ok=True)
    expect("decompositions: one removed", check(decs[:-1]), ok=False)
    flipped = decs[:-1] + [checks.conjugate(decs[-1])]
    expect("decompositions: one conjugate flipped", check(flipped), ok=False)
    l, lam = decs[1]
    moved = decs[:1] + [(l + np.array([[1e-3], [0], [0], [0]]), lam)] + decs[2:]
    expect("decompositions: one summand moved", check(moved), ok=False)
    expect("decompositions: duplicate entry", check(decs + [decs[2]]), ok=False)


def test_binary_check():
    from tensorid import waring

    spec = waring.WaringSpec(d=3, n=1, r=2)
    start, tensor = waring.random_real_start(spec, seed=3000)
    registry = waring.enumerate_decompositions(spec, start, tensor, seed=3000)
    decs = [workloads.dec_arrays(dec) for dec in registry.solutions]
    oracle = workloads.dec_arrays(waring.sylvester_oracle(tensor, 2))
    expect("binary: registry matches oracle", checks.check_matches_oracle(decs, oracle), ok=True)
    l, lam = decs[0]
    expect("binary: slope moved", checks.check_matches_oracle([(l * (1 + 1e-4), lam)], oracle),
           ok=False)
    expect("binary: two entries", checks.check_matches_oracle(decs * 2, oracle), ok=False)


def test_section_check():
    from tensorid import segre

    spec = segre.SegreSpec((2, 2))
    space = segre.span_through_points(spec, 5, seed=1)
    result = segre.solve_section(spec, space, seed=1)
    points = [np.asarray(p) for p in result.points]

    def check(pts, sig=result.signature, expected=(6, 0)):
        return checks.check_section(spec.dims, space.equations, pts, sig,
                                    space.spanning_points, expected)

    expect("section: correct points", check(points), ok=True)
    off_variety = [p.copy() for p in points]
    off_variety[2][1] += 1e-3
    expect("section: point moved off the variety", check(off_variety), ok=False)
    # a rank-one point that is not on the section
    u, v = np.array([1.0, 0.3, -0.2]), np.array([0.5, 1.0, 0.7])
    expect("section: rank-one point off the section",
           check(points[:-1] + [np.outer(u, v).ravel()]), ok=False)
    expect("section: point removed", check(points[:-1]), ok=False)
    expect("section: wrong signature reported", check(points, sig=(4, 2)), ok=False)
    expect("section: unexpected signature", check(points, expected=(4, 2)), ok=False)
    nonreal = [p.copy() for p in points]
    nonreal[0] = nonreal[0] * (1 + 0j)
    nonreal[0][0] += 1e-3j
    expect("section: real point made non-real", check(nonreal), ok=False)


def test_plane_and_point_checks():
    from tensorid import elliptic

    pencil = elliptic.example_pencil()
    q1, q2 = pencil.q1.matrix, pencil.q2.matrix
    plane = np.array([0.0, 0.0, 1.0, -0.5])
    points, sig = elliptic.intersect_plane(pencil, plane)
    points = [np.asarray(p) for p in points]
    check = lambda pts, k=0.5: checks.check_plane_section(q1, q2, plane, pts,  # noqa: E731
                                                          sig.as_tuple(), k)
    expect("plane: correct points", check(points), ok=True)
    expect("plane: wrong chamber", check(points, k=1.5), ok=False)
    moved = [p.copy() for p in points]
    moved[1] = moved[1] + 1e-3
    expect("plane: point moved off the curve", check(moved), ok=False)
    expect("plane: point removed", check(points[:3]), ok=False)

    point = elliptic.construct_point_of_type(pencil, elliptic.S2, seed=7)
    tag = elliptic.classify_point(pencil, point)
    expect("point: constructed s2", checks.check_point_type(tag, elliptic.S2), ok=True)
    expect("point: wrong type", checks.check_point_type(tag, elliptic.S3), ok=False)


def test_tracer():
    from tensorid import homotopy, monodromy, poly, waring

    spec = waring.WaringSpec(d=3, n=1, r=2)
    start, tensor = waring.random_real_start(spec, seed=3001)
    originals = (homotopy.track, monodromy.track, poly.PolySystem.full_state)
    runs = []
    for _ in range(2):
        tracer = Tracer()
        with tracer.installed(), tracer.root():
            waring.enumerate_decompositions(spec, start, tensor, seed=3001)
        runs.append(tracer)
    m = [{k: v for k, (v, u) in t.metrics(1).items() if u == "count"} for t in runs]
    expect("tracer: counts repeat", [] if m[0] == m[1] else [m], ok=True)
    legs = m[0]["homotopy.track.legs"]
    transports = m[0]["monodromy.transports"]
    lost = m[0]["monodromy.transports_lost"]
    expect("tracer: legs counted through monodromy's import of track",
           [] if transports and 3 * (transports - lost) <= legs <= 3 * transports else [legs],
           ok=True)
    self_sum = sum(runs[0].self_seconds().values())
    wall = runs[0].spans["bench"].total
    expect("tracer: self times add up to the wall time",
           [] if abs(self_sum - wall) <= 1e-9 * max(wall, 1.0) else [self_sum, wall], ok=True)
    restored = (homotopy.track, monodromy.track, poly.PolySystem.full_state)
    expect("tracer: uninstall restores the program",
           [] if all(a is b for a, b in zip(originals, restored)) else ["patched"], ok=True)


def test_speed_probe():
    import signal
    import time

    import speedref

    probe = speedref.SpeedProbe()
    before = signal.getsignal(signal.SIGALRM)
    probe.start()
    try:
        wall, t = time.perf_counter(), probe.now()
        while time.perf_counter() - wall < 0.3:
            speedref.kernel(10)
        wall, t = time.perf_counter() - wall, probe.now() - t
    finally:
        probe.stop()
    expect("probe: samples on its timer", [] if len(probe.samples) >= 3 else probe.samples, ok=True)
    expect("probe: kernel time left out of now()",
           [] if abs(wall - t - probe.spent) < 1e-3 and probe.spent > 0 else [wall, t, probe.spent],
           ok=True)
    expect("probe: stop restores the SIGALRM handler",
           [] if signal.getsignal(signal.SIGALRM) == before else ["changed"], ok=True)
    probe.samples = [(10.0, 2 * speedref.REFERENCE_S), (11.0, 4 * speedref.REFERENCE_S)]
    scaled = (probe.at_reference_speed(3.0, 9.9, 10.5), probe.at_reference_speed(3.0, 9.0, 12.0),
              probe.at_reference_speed(3.0, 10.8, 10.9))
    expect("probe: rescaling by the kernel in the interval, else the nearest sample",
           [] if scaled == (1.5, 1.0, 0.75) else [scaled], ok=True)


def test_metric_names():
    """The result line carries exactly the metrics BENCHMARK.json declares."""
    import json
    import os

    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        declared = json.load(fh)
    times = [[(True, 1.0, 0, 1), (True, 1.5, 3, 4.5)], [(True, 2.0, 1, 3), (True, 2.0, 4.5, 6.5)]]
    sides = (
        ("end_to_end", run.end_to_end_metrics(0.5, times)),
        ("per_layer", run.per_layer_metrics(Tracer(), [1.0], [1.1])),
    )
    for key, metrics in sides:
        want = {m["name"]: m["unit"] for m in declared[key]}
        got = {name: unit for name, (_, unit) in metrics.items()}
        expect(f"metrics: {key} names and units", [] if got == want else [got, want], ok=True)
    e2e = sides[0][1]
    expect("metrics: per-operation means and quartiles",
           [] if (e2e["op_p50_s"][0], e2e["op_p75_s"][0], e2e["ops_per_s"][0]) == (1.625, 1.8125, 4 / 6.5)
           else [e2e], ok=True)


def main():
    run.import_program()
    test_decomposition_checks()
    test_binary_check()
    test_section_check()
    test_plane_and_point_checks()
    test_tracer()
    test_speed_probe()
    test_metric_names()
    if FAILURES:
        print("\n".join(FAILURES), file=sys.stderr)
        return 1
    print("all self-tests passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
