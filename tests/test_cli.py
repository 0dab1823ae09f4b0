import json

import pytest

from matchdens.cli import main


def _run(capsys, *argv):
    code = main(["--format", "json", *argv])
    out = capsys.readouterr().out
    return code, json.loads(out) if out.strip() else None


def test_density_subcommand(capsys):
    code, report = _run(capsys, "density", "--primes", "11,13")
    assert code == 0
    result = report["result"]
    assert result["nonzero_density"] == {"num": "120", "den": "143"}
    assert result["zero_density"] == {"num": "23", "den": "143"}
    assert report["command"].startswith("matchdens")


def test_density_rejects_small_primes(capsys):
    code = main(["--format", "json", "density", "--primes", "5,7"])
    assert code == 1
    assert "error" in capsys.readouterr().err
    code, report = _run(capsys, "density", "--primes", "5,7", "--allow-small-primes")
    assert code == 0
    assert report["result"]["zero_density"] == {"num": "11", "den": "35"}


def test_approx_subcommand(capsys):
    code, report = _run(
        capsys, "approx", "--target", "10/11", "--eps", "1/10", "--mode", "zero"
    )
    assert code == 0
    result = report["result"]
    assert result["verified"] is True
    assert result["predicted_density"] == {"num": "10", "den": "11"}
    assert result["window"]["primes"] == [11]
    assert result["zero_density"] == {"num": "1", "den": "11"}


def test_approx_matching_and_presets(capsys):
    code, report = _run(
        capsys, "approx", "--target", "0.9", "--eps", "0.05", "--mode", "matching"
    )
    assert code == 0
    assert report["result"]["twist_order"] >= 2

    code, report = _run(capsys, "approx", "--preset", "tetrahedral-17-32")
    assert code == 0
    assert report["result"]["predicted_density"] == {"num": "17", "den": "32"}

    code, report = _run(capsys, "approx", "--preset", "serre-k:2")
    assert code == 0
    assert report["result"]["predicted_density"] == {"num": "7", "den": "8"}

    code, report = _run(capsys, "approx", "--preset", "steinberg:11")
    assert code == 0
    assert report["result"]["zero_density"] == {"num": "1", "den": "11"}


def test_approx_budget_error_exit_code(capsys):
    code = main(["--format", "json", "approx", "--target", "0.01", "--eps", "0.01"])
    assert code == 1
    assert "error" in capsys.readouterr().err


def test_gl2_refuses_p_past_class_data_bound(capsys):
    assert main(["--format", "json", "gl2", "--p", "503"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error" in captured.err and "bounded at p <= 499" in captured.err


def test_gl2_subcommand(capsys):
    code, report = _run(capsys, "gl2", "--p", "5", "--report")
    assert code == 0
    result = report["result"]
    assert result["steinberg_zero_fraction"] == {"num": "1", "den": "5"}
    assert result["class_type_fractions"]["nonsemisimple"] == {"num": "1", "den": "5"}
    assert result["norm_check"] is True


def test_fiber_subcommand(capsys):
    code, report = _run(capsys, "fiber", "--preset", "tetrahedral-17-32")
    assert code == 0
    result = report["result"]
    assert result["matching_density"] == {"num": "17", "den": "32"}
    assert result["fiber_order"] == 192

    code, report = _run(capsys, "fiber", "--left", "sl2f3", "--right", "sl2f3")
    assert code == 0
    assert report["result"]["order"] == 192

    code, report = _run(
        capsys, "fiber", "--left", "q8", "--right", "s3", "--over", "trivial"
    )
    assert code == 0
    assert report["result"]["order"] == 48


def test_chartable_subcommand(capsys):
    code, report = _run(capsys, "chartable", "--group", "q8")
    assert code == 0
    result = report["result"]
    assert result["degrees"] == [1, 1, 1, 1, 2]
    assert result["group"]["order"] == 8
    assert len(result["characters"]) == 5
    values = result["characters"][-1]["values"]
    assert all("coeffs" in v for v in values)


def test_shift_subcommand(capsys):
    code, report = _run(
        capsys, "shift", "--poly", "1,0,1", "--T", "5", "--scan", "30",
        "--trial-bound", "10000",
    )
    assert code == 0
    result = report["result"]
    assert result["A"] == "6" and result["B"] == "0"
    assert result["F"] == ["36", "0", "1"]
    assert result["hits"][0] == {"n": 1, "value": "37", "factors": ["37"]}
    assert result["hit_count"] >= 5
    assert result["primes_sieved"] == 1229  # the primes below 10^4
    assert result["rho_giveups"] == result["unresolved_count"] <= result["rho_calls"]


def test_shift_refuses_trial_bound_above_max(capsys):
    code = main(["--format", "json", "shift", "--poly", "1,0,1", "--T", "5", "--scan", "30",
                 "--trial-bound", str(10**15)])
    assert code == 1
    assert "trial_bound is bounded" in capsys.readouterr().err


def test_ellstat_subcommand(capsys):
    code, report = _run(
        capsys, "ellstat", "--a", "-16", "--b", "16", "--p", "11",
        "--qmax", "2000", "--conductor", "37",
    )
    assert code in (0, 1)  # statistical bands may miss at this tiny scale
    result = report["result"]
    assert result["sample_count"] == len(result["samples"])
    assert result["stats"]["split"]["expected"] == {"num": "9", "den": "20"}


def test_ellstat_refuses_qmax_past_bound(capsys, monkeypatch):
    from matchdens import ellstat

    def forbidden_sieve(limit):
        raise AssertionError("sieved before the q_max bound was checked")

    monkeypatch.setattr(ellstat, "sieve_primes", forbidden_sieve)
    code = main(["--format", "json", "ellstat", "--a", "-16", "--b", "16", "--p", "11",
                 "--qmax", str(2**21)])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error" in captured.err and "MAX_Q = 2097152" in captured.err


def test_ellstat_curve_file(tmp_path, capsys):
    path = tmp_path / "curves.txt"
    path.write_text("-16 16 37 37a\n0 1\n")
    code, report = _run(
        capsys, "ellstat", "--curves", str(path), "--p", "11", "--qmax", "1000"
    )
    assert code in (0, 1)
    assert len(report["result"]["curves"]) == 2


def test_dirichlet_subcommand(capsys):
    code, report = _run(
        capsys, "dirichlet", "--modulus", "5", "--chi", "1", "--chi2", "3",
        "--xmax", "100000",
    )
    assert code == 0
    result = report["result"]
    assert result["exact_matching_density"]["den"] in {"1", "2", "4"}
    assert result["natural_density"]["total"] > 1000
    assert len(result["dirichlet_density_partial_sums"]) == 5


def test_verify_all_single_criterion(capsys):
    code = main(["--format", "json", "verify-all", "--criterion", "3"])
    out = capsys.readouterr().out
    assert code == 0
    assert "PASS criterion 3" in out
    payload = json.loads(out[out.index("{"):])
    assert payload["result"]["all_passed"] is True


def test_unknown_flag_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["density", "--nonsense"])
    assert exc.value.code == 2


def test_unknown_group_error(capsys):
    code = main(["--format", "json", "chartable", "--group", "monster"])
    assert code == 1
    assert "unknown group" in capsys.readouterr().err


def test_deterministic_output(capsys):
    code1, report1 = _run(capsys, "gl2", "--p", "7")
    code2, report2 = _run(capsys, "gl2", "--p", "7")
    report1.pop("elapsed_seconds")
    report2.pop("elapsed_seconds")
    assert code1 == code2 == 0 and report1 == report2


def test_table_format(capsys):
    code = main(["--format", "table", "density", "--primes", "11"])
    out = capsys.readouterr().out
    assert code == 0
    assert "nonzero_density" in out and "num = 10" in out
