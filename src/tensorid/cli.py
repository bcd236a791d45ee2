"""Command line drivers.

Three subcommand families: ``waring`` runs the monodromy enumeration of
rank-r decompositions and classifies them, ``elliptic`` exposes the
quadric-pencil secant geometry, ``segre`` the linear-section counts.
Every run writes a self-contained JSON report that embeds a schema id
and, under ``config``, the output path and every setting the run read:
the seed where a command draws at random, and the stop policy of
``waring``; complex numbers serialize as [re, im] pairs.  ``_write_report``
writes each report, then prints the command's summary and ``report: <path>``.

Exit codes: 0 success, 1 usage or input error, 2 solve did not
stabilize within the loop budget, 3 signature search exhausted its
attempts.  ``main`` maps every ``ValueError``, ``RuntimeError`` and
``OSError`` to exit 1 with ``error: <message>`` on stderr: a fixture
or report path that cannot be opened, a section ``segre.solve_section``
rejects, and a registry ``realcert.classify`` cannot pair among them.
"""

import json
import os
from dataclasses import asdict

import click
import numpy as np

from . import elliptic as ell
from . import segre as seg
from .monodromy import StopPolicy
from .realcert import classify
from .waring import (
    WaringSpec,
    bundled_fixture_path,
    enumerate_decompositions,
    is_admissible,
    load_start,
    random_real_start,
    reconstruction_error,
)

SCHEMA = "tensorid/report/v1"


def _json_default(obj):
    """complex as [re, im]; numpy arrays and scalars as Python values."""
    if isinstance(obj, complex):
        return [obj.real, obj.imag]
    return obj.tolist()


def _report_path(output_path, default_name: str) -> str:
    """The report's path, its directory created if missing; an OSError
    names the path when the directory cannot be made."""
    out = output_path
    if not out:
        out = os.path.join(os.environ.get("TENSORID_OUTPUT_DIR", "."), default_name)
    parent = os.path.dirname(out)
    if parent:
        os.makedirs(parent, exist_ok=True)
    return out


def _write_report(summary: str, payload: dict, default_name: str, output_path, **settings) -> None:
    """Write one report, whose ``config`` is ``settings`` and the output
    path, then print ``summary`` and the ``report:`` line."""
    report = {"schema": SCHEMA, "config": {**settings, "output_path": output_path}}
    report.update(payload)
    out = _report_path(output_path, default_name)
    with open(out, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True, default=_json_default)
        fh.write("\n")
    click.echo(f"{summary}\nreport: {out}")


def _parse_csv(text: str, kind, count: int | None = None, name: str = "value"):
    parts = [p for p in text.replace(" ", "").split(",") if p]
    try:
        values = [kind(p) for p in parts]
    except ValueError:
        raise click.BadParameter(f"could not parse {name} list {text!r}")
    if count is not None and len(values) != count:
        raise click.BadParameter(f"{name} needs {count} entries, got {len(values)}")
    return values


_seed_option = click.option("--seed", type=click.IntRange(min=0), default=0, show_default=True, help="Randomness seed.")
_output_option = click.option(
    "--output",
    "output_path",
    type=click.Path(dir_okay=False),
    default=None,
    help="Report path (default: TENSORID_OUTPUT_DIR or cwd).",
)


@click.group()
def cli():
    """Rank decompositions of symmetric tensors and their real geometry."""


@cli.command("waring")
@click.option("--d", "d", type=int, required=True, help="Degree of the form.")
@click.option("--n", "n", type=int, required=True, help="Number of variables minus one.")
@click.option("--r", "r", type=int, required=True, help="Decomposition rank.")
@click.option("--fixture", default=None, help="JSON start decomposition (bundled names work).")
@click.option(
    "--max-loops", type=int, default=StopPolicy.max_loops, show_default=True,
    help="Most tracking rounds on the parameter graph; reaching it exits 2.",
)
@click.option(
    "--stable-loops", type=int, default=StopPolicy.stable_loops, show_default=True,
    help="Least independent loops in the parameter graph: each pair of its 3 nodes "
    "is joined by the fewest e edges with 3e - 2 >= this.",
)
@click.option("--target-count", type=int, default=None)
@_seed_option
@_output_option
def waring_cmd(d, n, r, fixture, max_loops, stable_loops, target_count, seed, output_path):
    """Enumerate all rank-r decompositions of a start form and classify them."""
    try:
        policy = StopPolicy(max_loops=max_loops, stable_loops=stable_loops, target_count=target_count)
    except ValueError as err:
        raise click.BadParameter(str(err))
    try:
        spec = WaringSpec(d=d, n=n, r=r)
    except ValueError as err:
        raise click.BadParameter(str(err))
    ok, reason = is_admissible(spec)
    if not ok:
        raise click.ClickException(reason)

    source: dict = {}
    if fixture:
        path = fixture
        if not os.path.exists(path):
            bundled = bundled_fixture_path(os.path.basename(fixture))
            if bundled.is_file():
                path = str(bundled)
            else:
                raise click.ClickException(f"fixture not found: {fixture}")
        start, tensor = load_start(path, spec)
        source = {"fixture": path}
    else:
        start, tensor = random_real_start(spec, seed=seed)
        source = {"random_seed": seed}

    default_name = f"waring_d{d}_n{n}_r{r}.json"
    _report_path(output_path, default_name)  # fail on an unwritable directory before the solve
    registry = enumerate_decompositions(spec, start, tensor, policy=policy, seed=seed)
    classified = classify(registry)
    worst = max(reconstruction_error(spec, dec, tensor) for dec in registry.solutions)

    payload = {
        "command": "waring",
        "spec": {"d": spec.d, "n": spec.n, "r": spec.r},
        "source": source,
        "registry": registry.serialize(d=spec.d),
        "classification": classified.serialize(),
        "max_reconstruction_error": worst,
        "warning": registry.warning,
    }
    summary = (
        f"decompositions={classified.total} real={classified.real_count} "
        f"autoconjugate={classified.autoconjugate_count} "
        f"conjugate_pairs={classified.conjugate_pair_count}\n"
        f"identifiable_over_R={classified.identifiable_over_R} "
        f"identifiable_over_C={classified.identifiable_over_C}"
    )
    _write_report(summary, payload, default_name, output_path, seed=seed, stop=asdict(policy))
    return 2 if registry.warning else 0


@cli.group("elliptic")
def elliptic_group():
    """Plane sections and secant lines of the bundled quadric pencil."""


@elliptic_group.command("plane")
@click.option("--coeffs", required=True, help="Four plane coefficients, comma separated.")
@_output_option
def elliptic_plane(coeffs, output_path):
    """Intersect one real plane with the curve and report the signature."""
    plane = _parse_csv(coeffs, float, 4, "--coeffs")
    record = ell.plane_record(ell.example_pencil(), plane)
    payload = {"command": "elliptic plane", "plane": plane, **record}
    summary = {
        "transverse": f"signature={record.get('signature')}",
        "tangent": "tangent plane (double contact)",
    }.get(record["status"], "degenerate section")
    _write_report(summary, payload, "elliptic_plane.json", output_path)
    return 0


@elliptic_group.command("point")
@click.option("--construct", type=click.Choice([ell.S1, ell.S2, ell.S3, ell.S4]), default=None)
@click.option("--coords", default=None, help="Four real coordinates, comma separated.")
@_seed_option
@_output_option
def elliptic_point(construct, coords, seed, output_path):
    """Classify a real point (given or constructed) by its secant lines."""
    if (construct is None) == (coords is None):
        raise click.UsageError("give exactly one of --construct or --coords")
    pencil = ell.example_pencil()
    if construct:
        point = ell.construct_point_of_type(pencil, construct, seed=seed)
    else:
        point = np.asarray(_parse_csv(coords, float, 4, "--coords"))
    tag = ell.classify_point(pencil, point)
    payload = {
        "command": "elliptic point",
        "point": [float(v) for v in np.asarray(point, dtype=float)],
        "constructed": construct,
        "classification": tag,
    }
    _write_report(f"classification={tag}", payload, "elliptic_point.json", output_path, seed=seed)
    return 0


@elliptic_group.command("pencil-scan")
@click.option("--from", "from_k", type=float, required=True)
@click.option("--to", "to_k", type=float, required=True)
@click.option("--steps", type=int, required=True)
@_output_option
def elliptic_pencil_scan(from_k, to_k, steps, output_path):
    """Signatures of the plane family x2 = k*x3 over a range of k."""
    if steps < 1:
        raise click.BadParameter("--steps must be at least 1")
    ks = np.linspace(from_k, to_k, steps)
    pencil = ell.example_pencil()
    records = ell.pencil_scan(pencil, ks)
    counts: dict = {}
    for rec in records:
        counts[rec["status"]] = counts.get(rec["status"], 0) + 1
    payload = {
        "command": "elliptic pencil-scan",
        "range": {"from": from_k, "to": to_k, "steps": steps},
        "records": records,
        "status_counts": counts,
    }
    summary = " ".join(f"{k}={v}" for k, v in sorted(counts.items()))
    _write_report(summary, payload, "elliptic_pencil_scan.json", output_path)
    return 0


@cli.group("segre")
def segre_group():
    """Linear sections of two-factor Segre varieties."""


def _segre_spec(dims_text: str) -> seg.SegreSpec:
    dims = _parse_csv(dims_text, int, 2, "--dims")
    try:
        return seg.SegreSpec(tuple(dims))
    except ValueError as err:
        raise click.BadParameter(str(err))


@segre_group.command("profile")
@click.option("--dims", required=True, help="Two factor dimensions, e.g. 2,4.")
@_output_option
def segre_profile(dims, output_path):
    """Almost-unbalanced rank, section degree and their parity gap."""
    spec = _segre_spec(dims)
    prof = seg.almost_unbalanced_profile(spec)
    payload = {"command": "segre profile", "spec": list(spec.dims), **prof}
    summary = f"a_q={prof['a_q']} D={prof['D']} parity={prof['parity']}"
    _write_report(summary, payload, "segre_profile.json", output_path)
    return 0


@segre_group.command("section")
@click.option("--dims", required=True)
@click.option("--span-real", type=int, default=None, help="Span of this many real rank-one points.")
@_seed_option
@_output_option
def segre_section(dims, span_real, seed, output_path):
    """Solve one linear section and report its realness signature."""
    spec = _segre_spec(dims)
    if span_real is not None:
        space = seg.span_through_points(spec, span_real, seed=seed)
    else:
        space = seg.random_section_space(spec, seed=seed)
    result = seg.solve_section(spec, space, seed=seed)
    payload = {
        "command": "segre section",
        "spec": list(spec.dims),
        "degree": result.degree_expected,
        "signature": list(result.signature),
        "L": space.equations,
        "points": list(result.points),
    }
    _write_report(f"signature={result.signature}", payload, "segre_section.json", output_path, seed=seed)
    return 0


@segre_group.command("search")
@click.option("--dims", required=True)
@click.option("--target", required=True, help="real,nonreal counts, e.g. 9,6.")
@click.option("--max-attempts", type=int, default=50, show_default=True)
@_seed_option
@_output_option
def segre_search(dims, target, max_attempts, seed, output_path):
    """Search for a real section with the requested realness signature."""
    spec = _segre_spec(dims)
    goal = tuple(_parse_csv(target, int, 2, "--target"))
    payload: dict = {
        "command": "segre search",
        "spec": list(spec.dims),
        "degree": seg.degree(spec),
        "target": list(goal),
    }
    try:
        space, result = seg.search_signature(
            spec, goal, max_attempts=max_attempts, seed=seed
        )
    except ValueError as err:
        raise click.BadParameter(str(err))
    except seg.SignatureNotFoundError as err:
        payload["status"] = "not_found"
        payload["attempts"] = err.attempts
        _write_report(f"not found in {err.attempts} attempts", payload, "segre_search.json", output_path, seed=seed)
        return 3
    payload["status"] = "found"
    payload["signature"] = list(result.signature)
    payload["L"] = space.equations
    payload["points"] = list(result.points)
    _write_report(f"signature={result.signature}", payload, "segre_search.json", output_path, seed=seed)
    return 0


def main(argv=None) -> int:
    """Entry point returning the exit code instead of raising SystemExit."""
    try:
        rv = cli.main(args=argv, standalone_mode=False)
    except click.exceptions.Exit as err:
        return int(err.exit_code)
    except click.exceptions.Abort:
        return 1
    except click.ClickException as err:
        err.show()
        return 1
    except (ValueError, RuntimeError, OSError) as err:
        click.echo(f"error: {err}", err=True)
        return 1
    return rv if isinstance(rv, int) else 0


if __name__ == "__main__":
    raise SystemExit(main())
