"""The benchmark's workloads: their inputs, operations and output checks.

A workload is built from a seed into a ``Round``: a fixed list of
operations that the runner repeats while time remains.  Every
operation of a round is a call into tensorid on inputs made in set-up;
its output is checked after the timed call.  An operation *fails* when
the program reports that it could not finish (a non-zero exit code, or
one of the round's ``failures`` exceptions); a failed operation is
counted, not checked.  A finished operation whose output is wrong
makes the whole run incorrect.

The program instances are the paper's and the acceptance tests' and do
not move with the seed: per-operation cost varies severalfold between
instances of one shape (a (2,2) span section takes 0.5 s to 2.4 s,
depending on how many bi-charts it needs; moving a pencil plane by 0.02
can double its cost), so seed-drawn instances would make run time
depend on the seed by more than the benchmark's bounds.  The seed draws
only what does not change the program's work: the probe points of the
form checks and the 1e-4 perturbations of the constructed points.
"""

import contextlib
import json
import os
import sys

import numpy as np

import checks

HERE = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = os.path.join(HERE, "out")

SEPTIC_ARGS = ["waring", "--d", "7", "--n", "2", "--r", "12",
               "--fixture", "deg7_rank12.json", "--stable-loops", "2"]
SEPTIC_CLASSES = (1, 2, 1)  # real, autoconjugate, conjugate pairs
BINARY_CASES = ((3, 2), (5, 3), (7, 4))  # (d, r) with d = 2r - 1
BINARY_FORMS_PER_DEGREE = 2
SPAN22_SEEDS = (0, 1)
SEARCH_SEED = 0
SEARCH_WITNESS_ATTEMPT = 29  # 0-based: the 30th section of the seed-0 search
# the pencil planes x2 = k x3 of the pencil-scan acceptance test
PENCIL_KS = (-2.0, -1.5, -0.9, -0.5, 0.0, 0.5, 0.9, 1.5, 2.0)
POINT_PERTURBATION = 1e-4


class OpFailed(RuntimeError):
    """The program reported that it could not finish an operation."""


class Op:
    def __init__(self, label, run, check):
        self.label = label
        self.run = run
        self.check = check


class Round:
    def __init__(self, ops, failures):
        self.ops = ops
        self.failures = failures


def dec_arrays(dec):
    """tensorid Decomposition -> (l, lam) arrays."""
    l = np.array([[complex(v) for v in s.l] for s in dec.summands])
    lam = np.array([complex(s.lam) for s in dec.summands])
    return l, lam


def _report_dec(entry):
    """A decomposition of the CLI's JSON report ([re, im] pairs) -> (l, lam) arrays."""
    l = np.array([[complex(*v) for v in s["l"]] for s in entry["summands"]])
    lam = np.array([complex(*s["lambda"]) for s in entry["summands"]])
    return l, lam


def _start_residual(waring, spec, start, tensor) -> float:
    """Scaled residual of the start decomposition in the built system."""
    system = waring.build_system(spec)
    vals, scales, _ = system.full_state(start.to_vector(), tensor.coeffs)
    return float(np.max(np.abs(vals) / (1.0 + scales)))


# -- waring-septic ------------------------------------------------------------
def build_septic(seed):
    import tensorid.cli as cli
    from tensorid import waring

    spec = waring.WaringSpec(d=7, n=2, r=12)
    path = str(waring.bundled_fixture_path("deg7_rank12.json"))
    start, tensor = waring.load_start(path, spec)
    if _start_residual(waring, spec, start, tensor) > 1e-10:
        raise RuntimeError("the fixture does not solve its own system")
    target = dec_arrays(start)
    out = os.path.join(OUT_DIR, "waring_septic.json")

    def run():
        os.makedirs(OUT_DIR, exist_ok=True)
        with contextlib.redirect_stdout(sys.stderr):
            code = cli.main(SEPTIC_ARGS + ["--output", out])
        if code != 0:
            raise OpFailed(f"tensorid waring exited with {code}")
        with open(out) as fh:
            return json.load(fh)

    def check(report):
        decs = [_report_dec(e) for e in report["registry"]["solutions"]]
        rng = np.random.default_rng(seed)
        problems = checks.check_decompositions(decs, target, 7, SEPTIC_CLASSES, rng)
        cls = report["classification"]
        reported = (cls["real"], cls["autoconjugate"], cls["conjugate_pairs"])
        if reported != SEPTIC_CLASSES:
            problems.append(f"report classes {reported}, expected {SEPTIC_CLASSES}")
        return problems

    return Round([Op("waring-septic", run, check)], (OpFailed,))


# -- waring-binary -----------------------------------------------------------
def build_binary(seed):
    from tensorid import waring

    ops = []
    for d, r in BINARY_CASES:
        spec = waring.WaringSpec(d=d, n=1, r=r)
        for i in range(BINARY_FORMS_PER_DEGREE):
            form_seed = 1000 * d + i
            start, tensor = waring.random_real_start(spec, seed=form_seed)
            if _start_residual(waring, spec, start, tensor) > 1e-10:
                raise RuntimeError(f"binary start {form_seed} does not solve its system")

            def run(spec=spec, start=start, tensor=tensor, form_seed=form_seed):
                registry = waring.enumerate_decompositions(spec, start, tensor, seed=form_seed)
                return [dec_arrays(dec) for dec in registry.solutions]

            def check(decs, tensor=tensor, r=r):
                oracle = dec_arrays(waring.sylvester_oracle(tensor, r))
                return checks.check_matches_oracle(decs, oracle)

            ops.append(Op(f"binary d={d} seed={form_seed}", run, check))
    return Round(ops, ())


# -- real-sections -------------------------------------------------------------
def _search_draws(segre, spec, target, seed, attempts):
    """The (space, solve seed) pairs search_signature draws, in order."""
    rng = np.random.default_rng(seed)
    use_spans = target[0] == segre.almost_unbalanced_profile(spec)["a_q"]
    draws = []
    for attempt in range(attempts):
        draw_seed = int(rng.integers(2**31))
        if use_spans and attempt % 2 == 0:
            space = segre.span_through_points(spec, target[0], seed=draw_seed)
        else:
            space = segre.random_section_space(spec, seed=draw_seed)
        draws.append((space, int(rng.integers(2**31))))
    return draws


def _section_op(segre, label, spec, space, solve_seed, expected=None):
    def run():
        return segre.solve_section(spec, space, seed=solve_seed)

    def check(result):
        return checks.check_section(spec.dims, space.equations, result.points,
                                    result.signature, space.spanning_points, expected)

    return Op(label, run, check)


def build_sections(seed):
    from tensorid import elliptic, segre

    rng = np.random.default_rng(seed)
    ops = []
    s22 = segre.SegreSpec((2, 2))
    for s in SPAN22_SEEDS:
        space = segre.span_through_points(s22, 5, seed=s)
        ops.append(_section_op(segre, f"segre (2,2) span seed={s}", s22, space, s, (6, 0)))

    s24 = segre.SegreSpec((2, 4))
    draws = _search_draws(segre, s24, (9, 6), SEARCH_SEED, SEARCH_WITNESS_ATTEMPT + 1)
    space, solve_seed = draws[0]
    ops.append(_section_op(segre, "segre (2,4) search draw 1 (span of 9)", s24, space, solve_seed))
    space, solve_seed = draws[SEARCH_WITNESS_ATTEMPT]
    ops.append(_section_op(segre, "segre (2,4) search witness", s24, space, solve_seed, (9, 6)))

    pencil = elliptic.example_pencil()
    q1, q2 = pencil.q1.matrix, pencil.q2.matrix

    def scan_run():
        return elliptic.pencil_scan(pencil, PENCIL_KS)

    def scan_check(records):
        if len(records) != len(PENCIL_KS):
            return [f"{len(records)} pencil records, expected {len(PENCIL_KS)}"]
        problems = []
        for rec in records:
            if rec["status"] != "transverse":
                problems.append(f"k={rec['k']}: {rec['status']}, expected transverse")
                continue
            plane = np.array([0.0, 0.0, 1.0, -rec["k"]])
            problems += [f"k={rec['k']}: {p}" for p in checks.check_plane_section(
                q1, q2, plane, rec["points"], rec["signature"], rec["k"])]
        return problems

    ops.append(Op("elliptic pencil-scan", scan_run, scan_check))

    for tag in (elliptic.S1, elliptic.S2, elliptic.S3, elliptic.S4):
        base = np.asarray(elliptic.construct_point_of_type(pencil, tag, seed=7), dtype=float)
        u = rng.standard_normal(4)
        point = base / np.linalg.norm(base) + POINT_PERTURBATION * u / np.linalg.norm(u)

        def point_run(point=point):
            return elliptic.classify_point(pencil, point)

        ops.append(Op(f"elliptic point {tag}", point_run,
                      lambda got, tag=tag: checks.check_point_type(got, tag)))

    failures = (segre.DeficientSectionError,)
    return Round(ops, failures)


WORKLOADS = {
    "waring-septic": build_septic,
    "waring-binary": build_binary,
    "real-sections": build_sections,
}
