import argparse
import hashlib
import json
import re
import shlex
from pathlib import Path

import pytest

from matchdens.cli import build_parser, main

README = Path(__file__).resolve().parents[1] / "README.md"


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


@pytest.mark.parametrize("k", ["0", "-2"])
def test_approx_refuses_serre_k_below_1(capsys, k):
    # K = 0 divided by zero, and K = -2 planned serre-k:2 under another name
    assert main(["--format", "json", "approx", "--preset", f"serre-k:{k}"]) == 1
    captured = capsys.readouterr()
    assert not captured.out
    assert f"preset 'serre-k:{k}': K must be at least 1" in captured.err


def test_approx_budget_error_exit_code(capsys):
    code = main(["--format", "json", "approx", "--target", "0.01", "--eps", "0.01"])
    assert code == 1
    assert "error" in capsys.readouterr().err


def test_approx_refuses_prime_bound_past_max(capsys, monkeypatch):
    from matchdens import density

    def forbidden_sieve(limit):
        raise AssertionError("sieved before the prime bound was checked")

    monkeypatch.setattr(density, "sieve_primes", forbidden_sieve)
    for bound in (0, density.MAX_PLANNER_PRIME_BOUND + 1):
        code = main(["--format", "json", "approx", "--target", "0.5", "--eps", "0.1",
                     "--prime-bound", str(bound)])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "MAX_PLANNER_PRIME_BOUND = 16777216" in captured.err


def test_gl2_reads_class_data_for_any_prime(capsys):
    code, report = _run(capsys, "gl2", "--p", "503")
    assert code == 0
    assert report["result"]["class_count"] == 253008
    assert report["result"]["norm_check"] is True


def test_gl2_refuses_a_composite_p(capsys):
    assert main(["--format", "json", "gl2", "--p", "501"]) == 1  # 3 * 167
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "not prime" in captured.err


def test_gl2_subcommand(capsys):
    code, report = _run(capsys, "gl2", "--p", "5")
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


# sha256 of the `chartable` JSON report without elapsed_seconds, dumped with
# sorted keys: pins every catalog table, its group summary and its order
CHARTABLE_SHA256 = {
    "trivial": "d8227cde18b9773e68206c31ae727bede6ecba37e4fd0d7f832413136b39b09f",
    "cyclic:1": "b6855abcaa35861d86e71d63244f86a1fce3de0e52436d8f72a7d75a42f8b7f1",
    "cyclic:2": "e6079ec34c0d9d3f2f6eb4600cfff320e9c1dc839a63628d834615f6ce7c9387",
    "cyclic:3": "19e5c6f8a4371cc4a3da2ce71eacba3320fcd496fa049b4738b335b6944cd94b",
    "cyclic:4": "2ae9ea7c468fbc8ad6e7b33678c2e0e770d339b0d150fcf905765be2c83e7873",
    "cyclic:5": "fb948a5abda02497a538532ac57e7ab764e09ddffbc5efb3c68079c64437070d",
    "cyclic:6": "333ac0c38e3a453fe602aeb9eaef012c3e876794854be921c5ecd5e72cdfbf7a",
    "cyclic:7": "1293a9112513fdb5b968cc253bf4d1c1332f6ac0af2f156599ead42b161fa9e1",
    "cyclic:8": "9c9488b35e4f8b75f8461780f2214c60027672979436ffc58b7596c491abe7a6",
    "cyclic:12": "c26a27c1e447b46db29ff9ba342aac72d0e44159070c88624b9f1b5baf3a9b0d",
    "cyclic:30": "43c98b1f8ad7f88c6ec1167785ba0f498e93cab6cb4e4b8e58757fd03fd2c761",
    "q8": "20db64228d6227c48eb923ef130ee528e1f9262f44a6a6a4e2ef276feecf530f",
    "s3": "820268c6b87f0fc56a78c68395c1dd6272690df844d6c11788f7c7c2f328b623",
    "d4": "801c4e9332ca6ee27562aadd436dca866e4374c6b5b3742dc334ab2b23ebc260",
    "sl2f3": "db850c9e10caec9de5a46abd03847c805e4472cc0450e5d5d18a07917abdd185",
    "heisenberg:3": "3d03e3cae5bdd36461981f2bdd2e5f5e1d4a225c23fe28a7bef327509071113d",
    "gl2fp:2": "38ed24bc387a52b784385c8b02ea2dbb2b054ca18580181749cadf020ab3336a",
    "gl2fp:3": "35f053742fef36f42d30d51147e3655f86cb1bc05826478fe690e44d7d5da0d1",
    "gl2fp:5": "7b15d49d97ddf3065bc9a587e7043a9183f0f2ef573f3a484bc9ba6222633ed5",
}


@pytest.mark.parametrize("name", list(CHARTABLE_SHA256))
def test_chartable_json_pinned(capsys, name):
    code, report = _run(capsys, "chartable", "--group", name)
    assert code == 0
    del report["elapsed_seconds"]
    text = json.dumps(report, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == CHARTABLE_SHA256[name]


@pytest.mark.parametrize("name,order", [("gl2fp:7", 2016), ("cyclic:2001", 2001)])
def test_chartable_refuses_large_groups(capsys, name, order):
    assert main(["--format", "json", "chartable", "--group", name]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: order {order} exceeds bound 2000\n" and not captured.out


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
    assert result["hits"][0] == {"n": 1, "value": "37", "factors": ["37"], "proof": "deterministic"}
    assert result["hit_count"] >= 5
    assert result["deterministic_count"] == result["hit_count"] and result["bpsw_count"] == 0
    assert result["primes_sieved"] == 1229  # the primes below 10^4
    assert result["rho_giveups"] == result["unresolved_count"] <= result["rho_calls"]


def test_shift_reports_proof_status(capsys):
    code, report = _run(
        capsys, "shift", "--poly", "1,0,1", "--T", "50", "--scan", "30", "--rho-iterations", "256",
    )
    assert code == 0
    result = report["result"]
    proofs = [h["proof"] for h in result["hits"]]
    assert set(proofs) <= {"deterministic", "bpsw"} and "bpsw" in proofs
    assert result["deterministic_count"] == proofs.count("deterministic")
    assert result["bpsw_count"] == proofs.count("bpsw")
    assert result["deterministic_count"] + result["bpsw_count"] == result["hit_count"]


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
    work = result["counting"]
    assert work["bsgs_lanes"] + work["char_sum_lanes"] == result["sample_count"]
    small = [q for q, _, _ in result["samples"] if q <= 229]
    assert work["char_sum_lanes"] >= len(small) and work["char_sum_q"] >= sum(small)
    from matchdens import ellstat

    hist = ellstat.chebotarev_histogram(ellstat.CONDUCTOR_37_CURVE, 11, 2000)
    assert work["bsgs_retry_lanes"] == hist.bsgs_retry_lanes > 0


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


def test_readme_commands_parse():
    text = README.read_text(encoding="utf-8")
    lines = [line for block in re.findall(r"```sh\n(.*?)```", text, re.S)
             for line in block.splitlines()]
    commands = [shlex.split(line, comments=True) for line in lines]
    commands = [argv[1:] for argv in commands if argv and argv[0] == "matchdens"]
    assert len(commands) >= 10
    parser = build_parser()
    for argv in commands:
        try:
            parser.parse_args(argv)
        except SystemExit:
            pytest.fail(f"README command does not parse: matchdens {shlex.join(argv)}")


def test_readme_flags_exist():
    parser = build_parser()
    (subparsers,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    options = set(parser._option_string_actions)
    for sub in subparsers.choices.values():
        options |= set(sub._option_string_actions)
    named = set(re.findall(r"(?<![\w-])--[A-Za-z][\w-]*", README.read_text(encoding="utf-8")))
    assert "--prime-bound" in named
    assert named - {"--no-build-isolation"} <= options


@pytest.mark.parametrize(
    "argv, message",
    [
        (["dirichlet", "--modulus", "7", "--chi", "1", "--chi2", "2", "--xmax", "16777217"], "SIEVE_LIMIT"),
        (["chartable", "--group", "cyclic:1000001"], "exceeds bound 1000000"),
        (["shift", "--poly", "1,0,1", "--T", "5", "--scan", "100001"], "MAX_SCAN_N"),
    ],
    ids=["dirichlet-xmax", "chartable-order", "shift-scan"],
)
def test_sizes_past_a_bound_are_refused(capsys, argv, message):
    assert main(["--format", "json", *argv]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and message in captured.err
    assert not captured.out


def test_ellstat_at_p_2_reports(capsys):
    with pytest.warns(UserWarning, match="p = 2"):
        code, report = _run(capsys, "ellstat", "--a", "-16", "--b", "16", "--p", "2", "--qmax", "2000")
    assert code == 0
    stats = report["result"]["stats"]
    assert set(stats) == {"nonsplit", "ambiguous"}
    assert stats["nonsplit"]["count"] == 102
