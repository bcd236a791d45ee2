"""End-to-end runs of the command line drivers on small instances."""

import json

import pytest

from tensorid import cli, segre, waring
from tensorid.cli import main
from tensorid.realcert import UnpairedDecompositionError


def read_report(path):
    with open(path) as fh:
        return json.load(fh)


def test_waring_binary_quintic(tmp_path):
    out = tmp_path / "quintic.json"
    code = main(
        [
            "waring",
            "--d", "5", "--n", "1", "--r", "3",
            "--seed", "1",
            "--output", str(out),
        ]
    )
    assert code == 0
    report = read_report(out)
    assert report["schema"] == "tensorid/report/v1"
    assert report["command"] == "waring"
    assert report["spec"] == {"d": 5, "n": 1, "r": 3}
    assert report["classification"]["total"] == 1
    assert report["classification"]["real"] == 1
    assert report["classification"]["identifiable_over_C"] is True
    assert report["warning"] is None
    assert report["registry"]["stop_reason"] == "stable"
    assert report["max_reconstruction_error"] < 1e-8
    assert report["config"]["seed"] == 1


def test_waring_exit_2_when_not_stabilized(tmp_path):
    # the septic fixture's 5 decompositions cannot all be matched in the
    # one round a budget of 1 allows
    out = tmp_path / "unstable.json"
    code = main(
        [
            "waring",
            "--d", "7", "--n", "2", "--r", "12",
            "--fixture", "deg7_rank12.json",
            "--max-loops", "1",
            "--output", str(out),
        ]
    )
    assert code == 2
    report = read_report(out)
    assert report["warning"] is not None
    assert report["registry"]["stop_reason"] == "loop_budget"


def test_waring_rejects_imperfect_rank():
    # 10 coefficients never match 3 * 3 unknowns
    assert main(["waring", "--d", "3", "--n", "2", "--r", "3"]) == 1


def test_waring_rejects_defective_quartic(capsys):
    # ternary quartics are the classical exception: the count says rank
    # 5 but the general quartic needs 6
    assert main(["waring", "--d", "4", "--n", "2", "--r", "5"]) == 1
    assert "defective" in capsys.readouterr().err


def test_waring_missing_fixture():
    code = main(
        ["waring", "--d", "7", "--n", "2", "--r", "12", "--fixture", "nope.json"]
    )
    assert code == 1


@pytest.mark.parametrize(
    "args, culprit",
    [
        (["waring", "--d", "3", "--n", "1", "--r", "2", "--fixture", "{dir}"], "{dir}"),
        (["waring", "--d", "3", "--n", "1", "--r", "2", "--seed", "1", "--output", "{file}/x.json"], "{file}"),
        (["segre", "profile", "--dims", "2,4", "--output", "{file}/x.json"], "{file}"),
    ],
    ids=["fixture-is-a-directory", "waring-output-under-a-file", "segre-output-under-a-file"],
)
def test_unopenable_file_exit_1(tmp_path, capsys, monkeypatch, args, culprit):
    # a path that cannot be read or written is an input error, named on
    # stderr, not a traceback; an unwritable waring report fails before
    # the solve, which must not be reached
    def no_solve(*args, **kwargs):
        raise AssertionError("the solve ran before the report path was checked")

    monkeypatch.setattr(cli, "enumerate_decompositions", no_solve)
    (tmp_path / "file").write_text("")
    names = {"{dir}": str(tmp_path), "{file}": str(tmp_path / "file")}
    for key, value in names.items():
        args, culprit = [a.replace(key, value) for a in args], culprit.replace(key, value)
    assert main(args) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert culprit in err
    assert "Traceback" not in err


GOOD_CUBIC = [{"l": [0.5], "lambda": 1.0}, {"l": [-0.3], "lambda": 2.0}]


@pytest.mark.parametrize(
    "data, message",
    [
        ([{"l": [0.5], "lambda": [1.0]}, GOOD_CUBIC[1]], "entry 0"),
        ([GOOD_CUBIC[0], {"lambda": 2.0}], "entry 1"),
        ({"a": GOOD_CUBIC[0], "b": GOOD_CUBIC[1]}, "not a list"),
        ([{"l": 1.0, "lambda": 1.0}, GOOD_CUBIC[1]], "entry 0"),
        ([{"l": [1e308], "lambda": 1e308}, GOOD_CUBIC[1]], "entry 0 overflows"),
        ([GOOD_CUBIC[0], {"l": [float("nan")], "lambda": 2.0}], "entry 1 has a value that is not finite"),
    ],
    ids=["short-pair", "no-l", "object", "scalar-l", "overflow", "nan-slope"],
)
def test_waring_malformed_fixture_exit_1(tmp_path, capsys, data, message):
    fixture = tmp_path / "malformed.json"
    fixture.write_text(json.dumps(data))
    out = tmp_path / "report.json"
    code = main(
        ["waring", "--d", "3", "--n", "1", "--r", "2", "--fixture", str(fixture),
         "--output", str(out)]
    )
    assert code == 1
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_waring_singular_start_exit_1(tmp_path, capsys):
    # two equal summands: the start is a singular solution, and no loop
    # could leave it, so the run must not report "identifiable over C"
    with open(waring.bundled_fixture_path("deg7_rank12.json")) as fh:
        summands = json.load(fh)
    summands[1] = summands[0]
    fixture = tmp_path / "double_summand.json"
    fixture.write_text(json.dumps(summands))
    out = tmp_path / "double_summand_report.json"
    code = main(
        ["waring", "--d", "7", "--n", "2", "--r", "12", "--fixture", str(fixture),
         "--output", str(out)]
    )
    assert code == 1
    assert "pivot ratio" in capsys.readouterr().err
    assert not out.exists()


def test_usage_errors_exit_1():
    assert main(["waring"]) == 1  # missing required options
    assert main(["no-such-command"]) == 1
    assert main(
        ["waring", "--d", "5", "--n", "1", "--r", "3", "--threads", "0"]
    ) == 1
    assert main(
        ["waring", "--d", "5", "--n", "1", "--r", "3", "--threads", "soon"]
    ) == 1


def test_help_exits_0(capsys):
    assert main(["--help"]) == 0
    assert "waring" in capsys.readouterr().out


def test_elliptic_plane_transverse(tmp_path):
    out = tmp_path / "plane.json"
    code = main(
        ["elliptic", "plane", "--coeffs", "0,0,1,-2", "--output", str(out)]
    )
    assert code == 0
    report = read_report(out)
    assert report["status"] == "transverse"
    assert report["signature"] == [0, 4]
    assert len(report["points"]) == 4


def test_elliptic_plane_tangent(tmp_path):
    out = tmp_path / "tangent.json"
    code = main(
        ["elliptic", "plane", "--coeffs", "0,0,1,-1", "--output", str(out)]
    )
    assert code == 0
    report = read_report(out)
    assert report["status"] == "tangent"
    assert "double_point" in report


@pytest.mark.parametrize("k", ["2", "1"])
def test_elliptic_plane_report_is_the_pencil_scan_record(tmp_path, k):
    # k = 2 is transverse and k = 1 tangent
    out = tmp_path / "plane.json"
    assert main(["elliptic", "plane", "--coeffs", f"0,0,1,-{k}", "--output", str(out)]) == 0
    report = read_report(out)
    scan = tmp_path / "scan.json"
    args = ["elliptic", "pencil-scan", "--from", k, "--to", k, "--steps", "1"]
    assert main([*args, "--output", str(scan)]) == 0
    (record,) = read_report(scan)["records"]
    assert record.pop("k") == float(k)
    assert {key: report[key] for key in record} == record
    assert set(report) - set(record) == {"command", "config", "plane", "schema"}


def test_elliptic_plane_is_judged_by_direction_not_scale(tmp_path):
    # x0 = 0 at two scales is one projective plane; only all-zero
    # coefficients are no plane
    reports = []
    for coeffs in ("1,0,0,0", "1e-13,0,0,0"):
        out = tmp_path / f"plane_{coeffs}.json"
        assert main(["elliptic", "plane", "--coeffs", coeffs, "--output", str(out)]) == 0
        reports.append(read_report(out))
    assert reports[0]["status"] == reports[1]["status"] == "tangent"
    assert reports[0]["double_point"] == reports[1]["double_point"]
    out = tmp_path / "zero.json"
    assert main(["elliptic", "plane", "--coeffs", "0,0,0,0", "--output", str(out)]) == 1


def test_elliptic_point_construct(tmp_path):
    out = tmp_path / "point.json"
    code = main(
        ["elliptic", "point", "--construct", "s1", "--output", str(out)]
    )
    assert code == 0
    report = read_report(out)
    assert report["classification"] == "s1"
    assert len(report["point"]) == 4


def test_elliptic_point_requires_one_source():
    assert main(["elliptic", "point"]) == 1
    assert main(
        ["elliptic", "point", "--construct", "s1", "--coords", "1,0,0,2"]
    ) == 1


def test_elliptic_pencil_scan(tmp_path):
    out = tmp_path / "scan.json"
    code = main(
        [
            "elliptic", "pencil-scan",
            "--from", "-2", "--to", "2", "--steps", "5",
            "--output", str(out),
        ]
    )
    assert code == 0
    report = read_report(out)
    assert report["status_counts"] == {"transverse": 3, "tangent": 2}


def test_segre_profile(tmp_path):
    out = tmp_path / "profile.json"
    code = main(["segre", "profile", "--dims", "2,4", "--output", str(out)])
    assert code == 0
    report = read_report(out)
    assert report["a_q"] == 9
    assert report["D"] == 15
    assert report["parity"] == "even"


def test_segre_section_span(tmp_path):
    out = tmp_path / "section.json"
    code = main(
        [
            "segre", "section",
            "--dims", "2,2", "--span-real", "5",
            "--seed", "3",
            "--output", str(out),
        ]
    )
    assert code == 0
    report = read_report(out)
    assert report["signature"] == [6, 0]
    assert len(report["points"]) == 6
    # complex coordinates serialize as [re, im] pairs
    assert all(len(c) == 2 for p in report["points"] for c in p)


def test_segre_section_wrong_span_codim(capsys):
    # the span of 3 points in the 8-dimensional (2,2) space has
    # codimension 6, and a section is square only at codimension 4
    assert main(["segre", "section", "--dims", "2,2", "--span-real", "3"]) == 1
    err = capsys.readouterr().err
    assert all(word in err for word in ("codimension", "4", "6"))
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "args, module, name, error",
    [
        (["segre", "section", "--dims", "2,2"], segre, "solve_section", segre.DeficientSectionError),
        (["waring", "--d", "3", "--n", "1", "--r", "2"], cli, "classify", UnpairedDecompositionError),
    ],
    ids=["deficient-section", "unpaired-decomposition"],
)
def test_solver_rejection_exit_1(tmp_path, capsys, monkeypatch, args, module, name, error):
    # a section or registry the solver rejects is an input error: exit 1
    # with the message on stderr, no traceback and no report
    def reject(*args, **kwargs):
        raise error("rejected by the solver")

    monkeypatch.setattr(cli, "enumerate_decompositions", lambda *args, **kwargs: None)
    monkeypatch.setattr(module, name, reject)
    out = tmp_path / "report.json"
    assert main([*args, "--output", str(out)]) == 1
    err = capsys.readouterr().err
    assert err == "error: rejected by the solver\n"
    assert not out.exists()


def test_segre_search_found(tmp_path):
    out = tmp_path / "search.json"
    code = main(
        [
            "segre", "search",
            "--dims", "1,2", "--target", "3,0",
            "--output", str(out),
        ]
    )
    assert code == 0
    report = read_report(out)
    assert report["status"] == "found"
    assert report["signature"] == [3, 0]


def test_segre_search_exhausted_exit_3(tmp_path):
    out = tmp_path / "missing.json"
    code = main(
        [
            "segre", "search",
            "--dims", "2,2", "--target", "0,6",
            "--max-attempts", "1",
            "--output", str(out),
        ]
    )
    assert code == 3
    report = read_report(out)
    assert report["status"] == "not_found"
    assert report["attempts"] == 1


def test_segre_search_reports_its_ledger_found_or_not(tmp_path):
    # the seed-0 (2,4) search finds (9, 6) at its 30th section and skips none
    none = dict.fromkeys(segre.DEFICIENCY_REASONS, 0)
    found, missing = tmp_path / "found.json", tmp_path / "missing.json"
    assert main(["segre", "search", "--dims", "2,4", "--target", "9,6", "--output", str(found)]) == 0
    assert main(["segre", "search", "--dims", "2,2", "--target", "0,6", "--max-attempts", "3",
                 "--output", str(missing)]) == 3
    ledgers = [{k: read_report(path)[k] for k in ("status", "attempts", "skipped")} for path in (found, missing)]
    assert ledgers == [{"status": "found", "attempts": 30, "skipped": none},
                       {"status": "not_found", "attempts": 3, "skipped": none}]


def test_segre_search_bad_target():
    assert main(["segre", "search", "--dims", "2,2", "--target", "3,3"]) == 1
    assert main(["segre", "search", "--dims", "2,2", "--target", "1,2,3"]) == 1


def test_segre_search_impossible_request_exit_1(tmp_path, monkeypatch):
    # (-1, 16) sums to the (2,4) degree 15 and has an even nonreal count,
    # but no section has -1 real points; neither request solves a section
    solved = []
    monkeypatch.setattr(segre, "solve_section", lambda *args, **kwargs: solved.append(1))
    out = tmp_path / "search.json"
    args = ["segre", "search", "--output", str(out)]
    assert main(args + ["--dims", "2,4", "--target", "-1,16"]) == 1
    assert main(args + ["--dims", "2,2", "--target", "6,0", "--max-attempts", "0"]) == 1
    assert solved == []
    assert not out.exists()


@pytest.mark.parametrize(
    "args, named",
    [
        (["plane", "--coeffs", "inf,0,1,0"], "plane coefficients [inf, 0.0, 1.0, 0.0]"),
        (["plane", "--coeffs", "nan,0,1,0"], "plane coefficients [nan, 0.0, 1.0, 0.0]"),
        (["point", "--coords", "inf,1,2,3"], "point coordinates [inf, 1.0, 2.0, 3.0]"),
        (
            ["pencil-scan", "--from", "nan", "--to", "1", "--steps", "2"],
            "plane coefficients [0.0, 0.0, 1.0, nan]",
        ),
    ],
    ids=["plane-inf", "plane-nan", "point-inf", "pencil-scan-nan"],
)
def test_elliptic_non_finite_input_exit_1(tmp_path, capsys, args, named):
    out = tmp_path / "report.json"
    assert main(["elliptic", *args, "--output", str(out)]) == 1
    assert f"error: {named} are not all finite" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "args, settings",
    [
        (["waring", "--d", "3", "--n", "1", "--r", "2"], {"seed", "stop"}),
        (["elliptic", "point", "--construct", "s1"], {"seed"}),
        (["segre", "section", "--dims", "2,2"], {"seed"}),
        (["segre", "search", "--dims", "1,2", "--target", "3,0"], {"seed"}),
        (["elliptic", "plane", "--coeffs", "0,0,1,-2"], set()),
        (["elliptic", "pencil-scan", "--from", "-2", "--to", "2", "--steps", "5"], set()),
        (["segre", "profile", "--dims", "2,2"], set()),
    ],
    ids=["waring", "elliptic-point", "segre-section", "segre-search", "elliptic-plane",
         "pencil-scan", "segre-profile"],
)
def test_report_config_holds_what_the_command_reads(tmp_path, args, settings):
    # a command that draws nothing at random takes no --seed
    out = tmp_path / "report.json"
    assert main([*args, "--output", str(out)]) == 0
    assert set(read_report(out)["config"]) == settings | {"output_path"}
    seeded = tmp_path / "seeded.json"
    assert main([*args, "--seed", "5", "--output", str(seeded)]) == (0 if settings else 1)


@pytest.mark.parametrize(
    "args",
    [
        ["waring", "--d", "3", "--n", "1", "--r", "2"],
        ["elliptic", "point", "--construct", "s1"],
        ["segre", "section", "--dims", "2,2"],
        ["segre", "search", "--dims", "1,2", "--target", "3,0"],
    ],
    ids=["waring", "elliptic-point", "segre-section", "segre-search"],
)
def test_negative_seed_exit_1_naming_the_option(tmp_path, capsys, args):
    out = tmp_path / "report.json"
    assert main([*args, "--seed", "-1", "--output", str(out)]) == 1
    assert "--seed" in capsys.readouterr().err
    assert not out.exists()


def test_reports_are_deterministic(tmp_path):
    first = tmp_path / "a.json"
    second = tmp_path / "b.json"
    args = ["segre", "section", "--dims", "2,2", "--seed", "7"]
    assert main(args + ["--output", str(first)]) == 0
    assert main(args + ["--output", str(second)]) == 0
    a = read_report(first)
    b = read_report(second)
    a["config"].pop("output_path")
    b["config"].pop("output_path")
    assert a == b


def test_default_output_dir_env(tmp_path, monkeypatch):
    monkeypatch.setenv("TENSORID_OUTPUT_DIR", str(tmp_path))
    assert main(["segre", "profile", "--dims", "2,2"]) == 0
    assert (tmp_path / "segre_profile.json").is_file()
