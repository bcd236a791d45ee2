"""Command line drivers.

Three subcommand families: ``waring`` runs the monodromy enumeration of
rank-r decompositions and classifies them, ``elliptic`` exposes the
quadric-pencil secant geometry, ``segre`` the linear-section counts.
Every run writes a self-contained JSON report that embeds its full
configuration and a schema id; complex numbers serialize as [re, im]
pairs.

Exit codes: 0 success, 1 usage or input error, 2 solve did not
stabilize within the loop budget, 3 signature search exhausted its
attempts.
"""

import json
import math
import os
from dataclasses import asdict, dataclass, field

import click
import numpy as np

from . import elliptic as ell
from . import segre as seg
from .homotopy import TrackSettings
from .monodromy import StopPolicy
from .realcert import UnpairedDecompositionError, classify
from .waring import (
    WaringSpec,
    bundled_fixture_path,
    enumerate_decompositions,
    is_admissible,
    load_start,
    random_real_start,
    reconstruction_error,
    tracking_settings,
)

SCHEMA = "tensorid/report/v1"


@dataclass
class RunConfig:
    """Everything a run needs to be reproduced from its own report."""

    seed: int = 0
    settings: TrackSettings = field(default_factory=TrackSettings)
    stop: StopPolicy = field(default_factory=StopPolicy)
    real_tol: float = 1e-8
    output_path: str | None = None

    def __post_init__(self):
        if not 0 < self.real_tol < math.inf:
            raise ValueError("real_tol must be positive and finite")

    def serialize(self) -> dict:
        return {
            "seed": self.seed,
            "settings": asdict(self.settings),
            "stop": asdict(self.stop),
            "real_tol": self.real_tol,
            "output_path": self.output_path,
        }


def _jsonable(obj):
    """Recursively convert numpy containers; complex becomes [re, im]."""
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return _jsonable(obj.tolist())
    if isinstance(obj, bool):
        return obj
    if isinstance(obj, complex) and not isinstance(obj, float):
        return [float(obj.real), float(obj.imag)]
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    return obj


def _write_report(config: RunConfig, payload: dict, default_name: str) -> str:
    report = {"schema": SCHEMA, "config": config.serialize()}
    report.update(payload)
    out = config.output_path
    if not out:
        out = os.path.join(os.environ.get("TENSORID_OUTPUT_DIR", "."), default_name)
    parent = os.path.dirname(out)
    if parent:
        os.makedirs(parent, exist_ok=True)
    with open(out, "w") as fh:
        json.dump(_jsonable(report), fh, indent=2, sort_keys=True)
        fh.write("\n")
    return out


def _parse_csv(text: str, kind, count: int | None = None, name: str = "value"):
    parts = [p for p in text.replace(" ", "").split(",") if p]
    try:
        values = [kind(p) for p in parts]
    except ValueError:
        raise click.BadParameter(f"could not parse {name} list {text!r}")
    if count is not None and len(values) != count:
        raise click.BadParameter(f"{name} needs {count} entries, got {len(values)}")
    return values


def _common_options(f):
    opts = [
        click.option("--seed", type=int, default=0, show_default=True, help="Randomness seed."),
        click.option(
            "--output",
            "output_path",
            type=click.Path(dir_okay=False),
            default=None,
            help="Report path (default: TENSORID_OUTPUT_DIR or cwd).",
        ),
        click.option("--real-tol", type=float, default=1e-8, show_default=True),
    ]
    for opt in reversed(opts):
        f = opt(f)
    return f


def _make_config(seed, output_path, real_tol, **stop_kwargs) -> RunConfig:
    try:
        return RunConfig(
            seed=seed,
            stop=StopPolicy(**stop_kwargs) if stop_kwargs else StopPolicy(),
            real_tol=real_tol,
            output_path=output_path,
        )
    except ValueError as err:
        raise click.BadParameter(str(err))


@click.group()
def cli():
    """Rank decompositions of symmetric tensors and their real geometry."""


@cli.command("waring")
@click.option("--d", "d", type=int, required=True, help="Degree of the form.")
@click.option("--n", "n", type=int, required=True, help="Number of variables minus one.")
@click.option("--r", "r", type=int, required=True, help="Decomposition rank.")
@click.option("--fixture", default=None, help="JSON start decomposition (bundled names work).")
@click.option("--max-loops", type=int, default=200, show_default=True)
@click.option("--stable-loops", type=int, default=8, show_default=True)
@click.option("--target-count", type=int, default=None)
@_common_options
def waring_cmd(d, n, r, fixture, max_loops, stable_loops, target_count, seed, output_path, real_tol):
    """Enumerate all rank-r decompositions of a start form and classify them."""
    config = _make_config(
        seed,
        output_path,
        real_tol,
        max_loops=max_loops,
        stable_loops=stable_loops,
        target_count=target_count,
    )
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
        start, tensor = random_real_start(spec, seed=config.seed)
        source = {"random_seed": config.seed}

    config.settings = tracking_settings()  # what enumerate_decompositions tracks with
    registry = enumerate_decompositions(
        spec,
        start,
        tensor,
        policy=config.stop,
        seed=config.seed,
    )
    try:
        classified = classify(registry, real_tol=config.real_tol)
    except UnpairedDecompositionError as err:
        raise click.ClickException(str(err))
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
    out = _write_report(config, payload, f"waring_d{d}_n{n}_r{r}.json")
    click.echo(
        f"decompositions={classified.total} real={classified.real_count} "
        f"autoconjugate={classified.autoconjugate_count} "
        f"conjugate_pairs={classified.conjugate_pair_count}"
    )
    click.echo(f"identifiable_over_R={classified.identifiable_over_R} "
               f"identifiable_over_C={classified.identifiable_over_C}")
    click.echo(f"report: {out}")
    return 2 if registry.warning else 0


@cli.group("elliptic")
def elliptic_group():
    """Plane sections and secant lines of the bundled quadric pencil."""


@elliptic_group.command("plane")
@click.option("--coeffs", required=True, help="Four plane coefficients, comma separated.")
@_common_options
def elliptic_plane(coeffs, seed, output_path, real_tol):
    """Intersect one real plane with the curve and report the signature."""
    config = _make_config(seed, output_path, real_tol)
    plane = _parse_csv(coeffs, float, 4, "--coeffs")
    pencil = ell.example_pencil()
    payload: dict = {"command": "elliptic plane", "plane": plane}
    try:
        points, sig = ell.intersect_plane(
            pencil, plane, seed=config.seed, real_tol=config.real_tol
        )
        payload["status"] = "transverse"
        payload["signature"] = list(sig.as_tuple())
        payload["points"] = [p for p in points]
        summary = f"signature={sig.as_tuple()}"
    except ell.TangentPlaneError as err:
        payload["status"] = "tangent"
        payload["double_point"] = err.double_point
        summary = "tangent plane (double contact)"
    except ell.DegeneratePlaneError as err:
        payload["status"] = "degenerate"
        payload["detail"] = str(err)
        summary = "degenerate section"
    out = _write_report(config, payload, "elliptic_plane.json")
    click.echo(summary)
    click.echo(f"report: {out}")
    return 0


@elliptic_group.command("point")
@click.option("--construct", type=click.Choice([ell.S1, ell.S2, ell.S3, ell.S4]), default=None)
@click.option("--coords", default=None, help="Four real coordinates, comma separated.")
@_common_options
def elliptic_point(construct, coords, seed, output_path, real_tol):
    """Classify a real point (given or constructed) by its secant lines."""
    config = _make_config(seed, output_path, real_tol)
    if (construct is None) == (coords is None):
        raise click.UsageError("give exactly one of --construct or --coords")
    pencil = ell.example_pencil()
    if construct:
        point = ell.construct_point_of_type(pencil, construct, seed=config.seed)
    else:
        point = np.asarray(_parse_csv(coords, float, 4, "--coords"))
    tag = ell.classify_point(pencil, point, seed=config.seed, real_tol=config.real_tol)
    payload = {
        "command": "elliptic point",
        "point": [float(v) for v in np.asarray(point, dtype=float)],
        "constructed": construct,
        "classification": tag,
    }
    out = _write_report(config, payload, "elliptic_point.json")
    click.echo(f"classification={tag}")
    click.echo(f"report: {out}")
    return 0


@elliptic_group.command("pencil-scan")
@click.option("--from", "from_k", type=float, required=True)
@click.option("--to", "to_k", type=float, required=True)
@click.option("--steps", type=int, required=True)
@_common_options
def elliptic_pencil_scan(from_k, to_k, steps, seed, output_path, real_tol):
    """Signatures of the plane family x2 = k*x3 over a range of k."""
    config = _make_config(seed, output_path, real_tol)
    if steps < 1:
        raise click.BadParameter("--steps must be at least 1")
    ks = np.linspace(from_k, to_k, steps)
    pencil = ell.example_pencil()
    records = ell.pencil_scan(pencil, ks, seed=config.seed, real_tol=config.real_tol)
    counts: dict = {}
    for rec in records:
        counts[rec["status"]] = counts.get(rec["status"], 0) + 1
    payload = {
        "command": "elliptic pencil-scan",
        "range": {"from": from_k, "to": to_k, "steps": steps},
        "records": records,
        "status_counts": counts,
    }
    out = _write_report(config, payload, "elliptic_pencil_scan.json")
    click.echo(" ".join(f"{k}={v}" for k, v in sorted(counts.items())))
    click.echo(f"report: {out}")
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
@_common_options
def segre_profile(dims, seed, output_path, real_tol):
    """Almost-unbalanced rank, section degree and their parity gap."""
    config = _make_config(seed, output_path, real_tol)
    spec = _segre_spec(dims)
    prof = seg.almost_unbalanced_profile(spec)
    payload = {"command": "segre profile", "spec": list(spec.dims), **prof}
    out = _write_report(config, payload, "segre_profile.json")
    click.echo(f"a_q={prof['a_q']} D={prof['D']} parity={prof['parity']}")
    click.echo(f"report: {out}")
    return 0


@segre_group.command("section")
@click.option("--dims", required=True)
@click.option("--span-real", type=int, default=None, help="Span of this many real rank-one points.")
@_common_options
def segre_section(dims, span_real, seed, output_path, real_tol):
    """Solve one linear section and report its realness signature."""
    config = _make_config(seed, output_path, real_tol)
    spec = _segre_spec(dims)
    if span_real is not None:
        space = seg.span_through_points(spec, span_real, seed=config.seed)
    else:
        space = seg.random_section_space(spec, seed=config.seed)
    if space.codim != spec.variety_dim:
        raise click.ClickException(
            f"space has codimension {space.codim}; the section is square only "
            f"at codimension {spec.variety_dim}"
        )
    try:
        result = seg.solve_section(
            spec,
            space,
            seed=config.seed,
            real_tol=config.real_tol,
        )
    except seg.DeficientSectionError as err:
        raise click.ClickException(str(err))
    payload = {
        "command": "segre section",
        "spec": list(spec.dims),
        "degree": result.degree_expected,
        "signature": list(result.signature),
        "L": space.equations,
        "points": list(result.points),
    }
    out = _write_report(config, payload, "segre_section.json")
    click.echo(f"signature={result.signature}")
    click.echo(f"report: {out}")
    return 0


@segre_group.command("search")
@click.option("--dims", required=True)
@click.option("--target", required=True, help="real,nonreal counts, e.g. 9,6.")
@click.option("--max-attempts", type=int, default=50, show_default=True)
@_common_options
def segre_search(dims, target, max_attempts, seed, output_path, real_tol):
    """Search for a real section with the requested realness signature."""
    config = _make_config(seed, output_path, real_tol)
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
            spec,
            goal,
            max_attempts=max_attempts,
            seed=config.seed,
            real_tol=config.real_tol,
        )
    except ValueError as err:
        raise click.BadParameter(str(err))
    except seg.SignatureNotFoundError as err:
        payload["status"] = "not_found"
        payload["attempts"] = err.attempts
        out = _write_report(config, payload, "segre_search.json")
        click.echo(f"not found in {err.attempts} attempts")
        click.echo(f"report: {out}")
        return 3
    payload["status"] = "found"
    payload["signature"] = list(result.signature)
    payload["L"] = space.equations
    payload["points"] = list(result.points)
    out = _write_report(config, payload, "segre_search.json")
    click.echo(f"signature={result.signature}")
    click.echo(f"report: {out}")
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
    except (ValueError, RuntimeError) as err:
        click.echo(f"error: {err}", err=True)
        return 1
    return rv if isinstance(rv, int) else 0


if __name__ == "__main__":
    raise SystemExit(main())
