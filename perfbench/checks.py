"""Output checks for the benchmark's workloads.

Each check recomputes what it compares with, from the inputs or from a
property the method must have, using numpy and scipy only: none calls
back into the tensorid function that produced the result, and none
compares with a stored copy of earlier output.  A check returns a list
of problems; an empty list means the output is correct.

Decompositions are handled as pairs of arrays (l, lam): l has shape
(r, n) and lam shape (r,), for the form sum_i lam_i (x0 + l_i . x)^d.
"""

import math

import numpy as np
from scipy.optimize import linear_sum_assignment

DEDUP_TOL = 1e-6
REAL_TOL = 1e-8
FORM_TOL = 1e-8
POINT_TOL = 1e-8


# -- decompositions -----------------------------------------------------------
def _coords(dec):
    """Summands as rows (l_1, ..., l_n, lam)."""
    l, lam = dec
    return np.column_stack([np.asarray(l, dtype=complex), np.asarray(lam, dtype=complex)])


def decomposition_distance(a, b) -> float:
    """Largest size-normalized coordinate gap under the best summand pairing.

    The pairing minimizes the summed gaps (Hungarian method); the value
    reported is the worst gap of that pairing.
    """
    ca, cb = _coords(a), _coords(b)
    diff = np.abs(ca[:, None, :] - cb[None, :, :])
    size = 1.0 + np.maximum(np.abs(ca)[:, None, :], np.abs(cb)[None, :, :])
    gap = np.max(diff / size, axis=2)
    rows, cols = linear_sum_assignment(gap)
    return float(np.max(gap[rows, cols]))


def conjugate(dec):
    l, lam = dec
    return np.conj(l), np.conj(lam)


def is_real(values, tol=REAL_TOL) -> bool:
    v = np.asarray(values, dtype=complex).ravel()
    return float(np.max(np.abs(v.imag))) < tol * (1.0 + float(np.max(np.abs(v))))


def realness_classes(decs) -> tuple:
    """(real, autoconjugate, conjugate-pair members) counted independently."""
    real = auto = pair = 0
    for i, dec in enumerate(decs):
        if is_real(_coords(dec)):
            real += 1
        elif decomposition_distance(dec, conjugate(dec)) < DEDUP_TOL:
            auto += 1
        elif any(
            decomposition_distance(conjugate(dec), other) < DEDUP_TOL
            for j, other in enumerate(decs)
            if j != i
        ):
            pair += 1
    return real, auto, pair


def form_values(dec, d: int, points) -> tuple:
    """Values of sum lam (x0 + l.x)^d at points, and the sum of |summands|."""
    l, lam = dec
    lin = points[:, :1] + points[:, 1:] @ np.asarray(l, dtype=complex).T
    terms = np.asarray(lam, dtype=complex)[None, :] * lin**d
    return terms.sum(axis=1), np.abs(terms).sum(axis=1)


def check_decompositions(decs, target, d: int, expected_classes: tuple, rng) -> list:
    """A set of decompositions of the form of ``target``.

    Checks: its size and realness classes, closure under conjugation,
    no two entries within the dedup tolerance, and that each entry
    reproduces the form at random complex points.
    """
    problems = []
    want = sum(expected_classes[:2]) + 2 * expected_classes[2]
    if len(decs) != want:
        problems.append(f"{len(decs)} decompositions, expected {want}")
    real, auto, pair = realness_classes(decs)
    got = (real, auto, pair // 2)
    if got != tuple(expected_classes) or pair % 2:
        problems.append(f"classes real/auto/pairs {real}/{auto}/{pair / 2:g}, "
                        f"expected {'/'.join(map(str, expected_classes))}")
    for i, dec in enumerate(decs):
        gap = min(decomposition_distance(conjugate(dec), other) for other in decs)
        if gap >= DEDUP_TOL:
            problems.append(f"conjugate of decomposition {i} is missing (gap {gap:.1e})")
        for j in range(i):
            if decomposition_distance(dec, decs[j]) < DEDUP_TOL:
                problems.append(f"decompositions {j} and {i} are duplicates")
    n = np.asarray(target[0]).shape[1]
    points = rng.standard_normal((8, n + 1)) + 1j * rng.standard_normal((8, n + 1))
    want_vals, want_abs = form_values(target, d, points)
    for i, dec in enumerate(decs):
        vals, absval = form_values(dec, d, points)
        err = float(np.max(np.abs(vals - want_vals) / (absval + want_abs)))
        if not err < FORM_TOL:
            problems.append(f"decomposition {i} misses the form by {err:.1e}")
    return problems


def check_matches_oracle(decs, oracle) -> list:
    """A binary form's registry: one entry, within 1e-6 of the oracle's."""
    if len(decs) != 1:
        return [f"registry has {len(decs)} entries, expected 1"]
    gap = decomposition_distance(decs[0], oracle)
    return [] if gap < DEDUP_TOL else [f"registry entry is {gap:.1e} from the oracle"]


# -- projective points ----------------------------------------------------------
def projective_gap(p, q) -> float:
    """1 - |<p, q>| / (|p| |q|): zero exactly for proportional vectors."""
    p, q = np.asarray(p, dtype=complex), np.asarray(q, dtype=complex)
    return max(0.0, 1.0 - abs(np.vdot(p, q)) / (np.linalg.norm(p) * np.linalg.norm(q)))


def point_is_real(p, tol=REAL_TOL) -> bool:
    """Real up to a complex scale."""
    p = np.asarray(p, dtype=complex)
    k = int(np.argmax(np.abs(p)))
    return is_real(p / p[k], tol)


def _matched(points, wanted, tol=DEDUP_TOL) -> bool:
    return all(any(projective_gap(w, p) < tol for p in points) for w in wanted)


def check_section(dims, equations, points, signature, spanning=(), expected=None) -> list:
    """Points of a linear section of the Segre variety of rank-one matrices."""
    a1, a2 = dims
    eq = np.asarray(equations, dtype=float)
    degree = math.comb(a1 + a2, a1)
    problems = []
    if len(points) != degree:
        problems.append(f"{len(points)} points, expected C({a1 + a2},{a1}) = {degree}")
    for k, p in enumerate(points):
        p = np.asarray(p, dtype=complex)
        m = p.reshape(a1 + 1, a2 + 1)
        scale = float(np.max(np.abs(m)))
        minors = np.abs(np.einsum("ij,kl->ikjl", m, m) - np.einsum("il,kj->ikjl", m, m))
        if float(np.max(minors)) > POINT_TOL * scale**2:
            problems.append(f"point {k} is not rank one")
        if float(np.max(np.abs(eq @ p))) > POINT_TOL * scale * float(np.max(np.abs(eq))) * eq.shape[1]:
            problems.append(f"point {k} is off the section")
        for j in range(k):
            if projective_gap(p, points[j]) < DEDUP_TOL:
                problems.append(f"points {j} and {k} coincide")
    real = [p for p in points if point_is_real(p)]
    got = (len(real), len(points) - len(real))
    if tuple(signature) != got:
        problems.append(f"reported signature {tuple(signature)}, points give {got}")
    if got[1] % 2:
        problems.append(f"odd non-real count {got[1]}")
    if not _matched(real, spanning):
        problems.append("a spanning point is not among the real solutions")
    if expected is not None and got != tuple(expected):
        problems.append(f"signature {got}, expected {tuple(expected)}")
    return problems


def check_plane_section(q1, q2, plane, points, signature, k=None) -> list:
    """Four points of the quartic curve q1 = q2 = 0 on one plane.

    For the pencil planes x2 = k x3 the chamber must be (2,2) when
    |k| < 1 and (0,4) otherwise.
    """
    problems = []
    if len(points) != 4:
        problems.append(f"{len(points)} points, expected 4")
    plane = np.asarray(plane, dtype=float)
    for i, p in enumerate(points):
        p = np.asarray(p, dtype=complex)
        norm2 = float(np.vdot(p, p).real)
        for name, q in (("Q1", q1), ("Q2", q2)):
            if abs(p @ q @ p) > POINT_TOL * norm2 * float(np.max(np.abs(q))) * 16:
                problems.append(f"point {i} is off {name}")
        if abs(plane @ p) > POINT_TOL * math.sqrt(norm2) * float(np.linalg.norm(plane)):
            problems.append(f"point {i} is off the plane")
    real = sum(point_is_real(p) for p in points)
    got = (real, len(points) - real)
    if tuple(signature) != got:
        problems.append(f"reported signature {tuple(signature)}, points give {got}")
    if k is not None:
        chamber = (2, 2) if abs(k) < 1 else (0, 4)
        if got != chamber:
            problems.append(f"k={k:.3f} gives {got}, expected chamber {chamber}")
    return problems


def check_point_type(tag, expected) -> list:
    return [] if tag == expected else [f"classified {tag}, constructed as {expected}"]
