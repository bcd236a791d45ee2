"""Top-level acceptance checks, one criterion per test.

Each test prints exactly one CRITERION line (PASS or FAIL with a short
detail) straight to the terminal, bypassing capture, and then asserts.
Budgets and tolerances are pinned in the assertions, not configurable.
"""

import json
import time
from contextlib import contextmanager

import numpy as np
import pytest

from tensorid.cli import main
from tensorid.elliptic import (
    S1,
    S2,
    S3,
    S4,
    TangentPlaneError,
    classify_point,
    construct_point_of_type,
    example_pencil,
    intersect_plane,
    pencil_scan,
    projective_distance,
)
from tensorid.homotopy import track
from tensorid.monodromy import canonical_distance
from tensorid.poly import PolySystem
from tensorid.realcert import classify
from tensorid.segre import (
    SegreSpec,
    random_section_space,
    solve_section,
    span_through_points,
)
from tensorid.waring import (
    WaringSpec,
    build_system,
    enumerate_decompositions,
    random_real_start,
    reconstruction_error,
    sylvester_oracle,
)

# the one documented seed for the degree-8 run; random_real_start(d=8,
# n=2, r=15, seed=DEG8_SEED) is a real tensor with exactly one real
# decomposition among its sixteen
DEG8_SEED = 10


@contextmanager
def criterion(capsys, num, summary):
    outcome = {"detail": ""}
    try:
        yield outcome
    except BaseException as err:
        with capsys.disabled():
            print(f"CRITERION {num}: FAIL - {summary} ({err!r})", flush=True)
        raise
    with capsys.disabled():
        print(f"CRITERION {num}: PASS - {summary} ({outcome['detail']})", flush=True)


@pytest.fixture(scope="module")
def pencil():
    return example_pencil()


@pytest.fixture(scope="module")
def quintic_run():
    spec = WaringSpec(d=5, n=1, r=3)
    start, tensor = random_real_start(spec, seed=0)
    registry = enumerate_decompositions(spec, start, tensor, seed=0)
    return spec, start, tensor, registry


def test_criterion_1_degree7_fixture_regression(capsys, tmp_path):
    with criterion(capsys, 1, "degree-7 fixture: 5 decompositions, classes 1R/2A/1P") as out:
        report_path = tmp_path / "deg7.json"
        t0 = time.monotonic()
        code = main(
            [
                "waring",
                "--d", "7", "--n", "2", "--r", "12",
                "--fixture", "deg7_rank12.json",
                "--output", str(report_path),
            ]
        )
        elapsed = time.monotonic() - t0
        assert code == 0
        with open(report_path) as fh:
            report = json.load(fh)
        cls = report["classification"]
        assert cls["total"] == 5
        assert cls["real"] == 1
        assert cls["autoconjugate"] == 2
        assert cls["conjugate_pairs"] == 1
        assert report["max_reconstruction_error"] < 1e-8
        assert report["warning"] is None
        assert elapsed < 600.0
        out["detail"] = (
            f"total=5 classes=1R/2A/1P recon={report['max_reconstruction_error']:.1e} "
            f"{elapsed:.0f}s"
        )


def test_criterion_2_degree8_random_real_start(capsys):
    with criterion(capsys, 2, f"degree-8 seed {DEG8_SEED}: 16 decompositions, exactly 1 real") as out:
        spec = WaringSpec(d=8, n=2, r=15)
        t0 = time.monotonic()
        start, tensor = random_real_start(spec, seed=DEG8_SEED)
        registry = enumerate_decompositions(spec, start, tensor, seed=DEG8_SEED)
        elapsed = time.monotonic() - t0
        assert registry.warning is None
        classified = classify(registry)
        assert classified.total == 16
        assert classified.real_count == 1
        worst = max(
            reconstruction_error(spec, dec, tensor) for dec in registry.solutions
        )
        assert worst < 1e-8
        assert elapsed < 3600.0
        out["detail"] = (
            f"total=16 real=1 recon={worst:.1e} {elapsed:.0f}s"
        )


def test_criterion_3_oracle_equivalence(capsys):
    with criterion(capsys, 3, "binary forms match the Hankel-kernel oracle") as out:
        worst = 0.0
        for d, r in ((3, 2), (5, 3), (7, 4)):
            spec = WaringSpec(d=d, n=1, r=r)
            for i in range(20):
                seed = 1000 * d + i
                start, tensor = random_real_start(spec, seed=seed)
                registry = enumerate_decompositions(spec, start, tensor, seed=seed)
                assert len(registry.solutions) == 1
                oracle = sylvester_oracle(tensor, r)
                dist = canonical_distance(registry.solutions[0], oracle)
                assert dist < 1e-6
                worst = max(worst, dist)
        out["detail"] = f"60 forms, registry size 1, worst distance {worst:.1e}"


def test_criterion_4_elliptic_pencil_scan(capsys, pencil):
    with criterion(capsys, 4, "pencil scan chambers and the k=1 tangency") as out:
        ks = [-2.0, -1.5, -0.9, -0.5, 0.0, 0.5, 0.9, 1.5, 2.0]
        records = pencil_scan(pencil, ks)
        for rec in records:
            assert rec["status"] == "transverse"
            expected = (2, 2) if abs(rec["k"]) < 1 else (0, 4)
            assert tuple(rec["signature"]) == expected
        with pytest.raises(TangentPlaneError) as err:
            intersect_plane(pencil, np.array([0.0, 0.0, 1.0, -1.0]))
        gap = projective_distance(
            err.value.double_point, np.array([1.0, 1.0, -1.0, -1.0])
        )
        assert gap < 1e-6
        out["detail"] = f"9 chambers correct, double point off by {gap:.1e}"


def test_criterion_5_point_types(capsys, pencil):
    with criterion(capsys, 5, "constructed points classify s1-s4, stable to 1e-4") as out:
        for tag in (S1, S2, S3, S4):
            point = construct_point_of_type(pencil, tag, seed=7)
            assert classify_point(pencil, point) == tag
            base = np.asarray(point, dtype=float)
            base = base / np.linalg.norm(base)
            rng = np.random.default_rng(77)
            for _ in range(10):
                u = rng.standard_normal(4)
                u /= np.linalg.norm(u)
                assert classify_point(pencil, base + 1e-4 * u) == tag
        out["detail"] = "4 types x 10 perturbations"


def test_criterion_6_segre_parity(capsys):
    with criterion(capsys, 6, "100 spans of 5 real rank-one points: all 6 real") as out:
        spec = SegreSpec(dims=(2, 2))
        t0 = time.monotonic()
        for seed in range(100):
            space = span_through_points(spec, 5, seed=seed)
            result = solve_section(spec, space, seed=seed)
            assert result.signature == (6, 0)
        elapsed = time.monotonic() - t0
        assert elapsed < 120.0
        out["detail"] = f"100 sections, all (6,0), {elapsed:.0f}s"


def test_criterion_7_segre_signature_search(capsys, tmp_path):
    with criterion(capsys, 7, "search --dims 2,4 --target 9,6 finds a witness") as out:
        report_path = tmp_path / "search.json"
        t0 = time.monotonic()
        code = main(
            [
                "segre", "search",
                "--dims", "2,4",
                "--target", "9,6",
                "--max-attempts", "50",
                "--output", str(report_path),
            ]
        )
        elapsed = time.monotonic() - t0
        assert code == 0
        with open(report_path) as fh:
            report = json.load(fh)
        assert report["status"] == "found"
        assert report["signature"] == [9, 6]
        assert len(report["points"]) == 15
        assert elapsed < 600.0
        out["detail"] = f"witness with 15 points, {elapsed:.0f}s"


def test_criterion_8_property_suite(capsys, quintic_run):
    with criterion(capsys, 8, "cross-cutting invariants hold") as out:
        spec, start, tensor, registry = quintic_run

        # conjugation closure: a real-parameter registry contains the
        # conjugate of each of its entries
        for dec in registry.solutions:
            assert min(
                canonical_distance(dec.conjugate(), other)
                for other in registry.solutions
            ) < 1e-6

        # Jacobian columns against central finite differences at unit
        # scale, where the difference quotient is trustworthy
        system = build_system(spec)
        rng = np.random.default_rng(5)
        x = rng.standard_normal(spec.num_unknowns) + 1j * rng.standard_normal(spec.num_unknowns)
        params = rng.standard_normal(spec.num_coeffs) + 1j * rng.standard_normal(spec.num_coeffs)
        _, _, jac = system.full_state(x, params)
        step = 1e-6
        for k in range(spec.num_unknowns):
            e = np.zeros(spec.num_unknowns, dtype=complex)
            e[k] = step
            fd = (
                system.full_state(x + e, params)[0] - system.full_state(x - e, params)[0]
            ) / (2 * step)
            assert np.max(np.abs(jac[:, k] - fd)) < 1e-6 * (1 + np.max(np.abs(jac)))

        # tracker round trip is a permutation of the start fiber
        cubic = [(1.0, (3,), -1), (-1.0, (0,), 0)]  # x^3 - p
        sys1 = PolySystem([cubic], num_unknowns=1, num_params=1)
        roots = [np.array([np.exp(2j * np.pi * k / 3)]) for k in range(3)]
        g = np.exp(2j * np.pi * 0.37)
        legs = [([1.0 + 0j], [g]), ([g], [1.0 + 0j])]
        ends = []
        for root in roots:
            x_cur = root
            for origin, target in legs:
                res = track(sys1, origin, target, x_cur)
                assert res.success
                x_cur = res.endpoint
            ends.append(complex(x_cur[0]))
        for e_val in ends:
            assert min(abs(e_val - complex(r[0])) for r in roots) < 1e-8
        assert all(
            sum(abs(e_val - complex(r[0])) < 1e-8 for e_val in ends) == 1
            for r in roots
        )

        # registry idempotence and seed determinism
        again = enumerate_decompositions(spec, start, tensor, seed=0)
        assert len(again.solutions) == len(registry.solutions)
        for a, b in zip(registry.solutions, again.solutions):
            assert canonical_distance(a, b) < 1e-10
        size = len(registry.solutions)
        assert registry.insert(registry.solutions[0]) is False
        assert len(registry.solutions) == size

        # every signature-producing operation reports an even nonreal count
        pencil = example_pencil()
        _, sig = intersect_plane(pencil, np.array([0.0, 0.0, 1.0, -2.0]))
        assert sig.as_tuple()[1] % 2 == 0
        for seed in range(3):
            sec = solve_section(
                SegreSpec(dims=(2, 2)),
                random_section_space(SegreSpec(dims=(2, 2)), seed=seed),
                seed=seed,
            )
            assert sec.nonreal_count % 2 == 0
        cls = classify(registry)
        assert (cls.total - cls.real_count) % 2 == 0
        out["detail"] = "closure, jacobian, round trip, determinism, parity"
