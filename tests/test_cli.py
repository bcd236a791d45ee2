"""End-to-end runs of the command line drivers on small instances."""

import json

import pytest

from tensorid import segre
from tensorid.cli import main


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
    assert report["max_reconstruction_error"] < 1e-8
    assert report["config"]["seed"] == 1


def test_waring_exit_2_when_not_stabilized(tmp_path):
    out = tmp_path / "unstable.json"
    code = main(
        [
            "waring",
            "--d", "5", "--n", "1", "--r", "3",
            "--max-loops", "1",
            "--output", str(out),
        ]
    )
    assert code == 2
    assert read_report(out)["warning"] is not None


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


def test_segre_section_wrong_span_codim():
    assert main(["segre", "section", "--dims", "2,2", "--span-real", "3"]) == 1


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



@pytest.mark.parametrize("tol", ["nan", "inf"])
def test_non_finite_real_tol_exit_1(tmp_path, capsys, tol):
    out = tmp_path / "section.json"
    args = ["segre", "section", "--dims", "2,2", "--span-real", "5", "--real-tol", tol]
    assert main([*args, "--output", str(out)]) == 1
    assert "real_tol must be positive and finite" in capsys.readouterr().err
    assert not out.exists()
