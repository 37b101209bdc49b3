"""End-to-end tests of the command-line interface."""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json

import pytest

from rigidity_kit import cli
from rigidity_kit.cli import build_parser, main, parse_label


def run_cli(capsys, *argv):
    status = main(list(argv))
    captured = capsys.readouterr()
    return status, captured.out, captured.err


@pytest.fixture
def off_by_one_oracle(monkeypatch):
    """Make the oracle that ``cli`` calls answer rd + 1, with the same witness."""
    original = cli.rd_oracle

    def wrong(*args):
        report = original(*args)
        return dataclasses.replace(report, rd=report.rd + 1)

    monkeypatch.setattr(cli, "rd_oracle", wrong)


class TestParsing:
    def test_rational(self, capsys):
        for rank, u in ((8, "17/8"), (3, "5")):
            status, out, err = run_cli(
                capsys, "rd", "--delta", "A", "--rank", str(rank), "--u", u, "--t", "1",
                "--format", "json",
            )
            assert (status, err) == (0, "")
            assert json.loads(out)["type"]["u"] == u

    @pytest.mark.parametrize(
        "bad", ["2.5", "-3", "1e3", "17/0", "", "0", "5\n", "\u0665", "5 ", " 5", "+5", "1_0",
                "5/\u0663", "17/8\n"],
    )
    def test_rejects_non_rational(self, capsys, bad):
        # the spelling check lets a leading minus through to the sign check
        message = {"-3": "u must be positive, got -3", "0": "u must be positive, got 0"}.get(
            bad, f"u must be an exact rational like '17/8', got {bad!r}"
        )
        status, out, err = run_cli(
            capsys, "rd", "--delta", "A", "--rank", "3", "--u", bad, "--t", "1"
        )
        assert (status, out, err) == (2, "", f"error: {message}\n")

    def test_labels(self):
        assert parse_label("3") == 3
        assert parse_label("10") == 10
        assert parse_label("-1") == -1  # left for check_label to reject with its message
        assert parse_label("m+") == "m+"
        assert parse_label("p") == "m+"
        assert parse_label("m") == "m-"
        with pytest.raises(ValueError):
            parse_label("q")

    @pytest.mark.parametrize(
        "bad", ["1_0", " 3", "+3", "\u0663", "3\n", "3 ", "", "-", "--1", "3.0"]
    )
    def test_rejects_loose_integer_labels(self, bad):
        with pytest.raises(ValueError) as info:
            parse_label(bad)
        assert str(info.value) == f"label must be an integer, 'm+'/'p' or 'm-'/'m', got {bad!r}"

    @pytest.mark.parametrize(
        "option,value,message",
        [("--t", "1_0", "label must be an integer, 'm+'/'p' or 'm-'/'m', got '1_0'"),
         ("--t", "-1", "label -1 is not a vertex of A3"),
         ("--u", "5\n", "u must be an exact rational like '17/8', got '5\\n'"),
         ("--rank", "-3", "type A needs rank >= 1, got -3")],
        ids=["underscore-label", "negative-label", "newline-u", "negative-rank"],
    )
    def test_loose_number_exits_2(self, capsys, option, value, message):
        argv = {"--delta": "A", "--rank": "3", "--u": "1", "--t": "1", option: value}
        status, out, err = run_cli(capsys, "rd", *[w for pair in argv.items() for w in pair])
        assert (status, out, err) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize(
        "bad", ["1_0", " 3", "+3", "\u0663", " +\u0663", "3\n", "3 ", "", "-", "--1", "3.0", "0x3"]
    )
    def test_integer_options_reject_loose_spellings(self, bad):
        with pytest.raises(argparse.ArgumentTypeError) as info:
            cli._parse_int(bad)
        assert str(info.value) == f"invalid int value: {bad!r}"

    def test_integer_options_read_ascii_digits(self):
        assert [cli._parse_int(text) for text in ("0", "7", "10", "007", "-3")] == [0, 7, 10, 7, -3]

    @pytest.mark.parametrize(
        "argv,option,value",
        [(["rd", "--delta", "A", "--u", "1", "--t", "1"], "--rank", "1_0"),
         (["rd", "--delta", "A", "--rank", "3", "--t", "1"], "--n", " 3"),
         (["rd", "--delta", "A", "--rank", "3", "--u", "1", "--t", "1"], "--s", "+1"),
         (["hammock", "--delta", "A", "--rank", "3", "--u", "1", "--t", "1"], "--x", " +\u0663"),
         (["verify", "--delta", "A", "--n-max", "2"], "--rank-max", "1_0"),
         (["verify", "--delta", "A", "--rank-max", "2"], "--n-max", "2 "),
         (["verify", "--delta", "E", "--u-max", "2"], "--rank", "\u0666"),
         (["verify", "--delta", "E", "--rank", "6"], "--u-max", "+2")],
        ids=["rank", "n", "s", "x", "rank-max", "n-max", "verify-rank", "u-max"],
    )
    def test_loose_integer_option_exits_2(self, capsys, argv, option, value):
        with pytest.raises(SystemExit) as info:
            main([*argv, option, value])
        captured = capsys.readouterr()
        assert (info.value.code, captured.out) == (2, "")
        assert captured.err.endswith(f"error: argument {option}: invalid int value: {value!r}\n")

class TestRdCommand:
    ARGS = ["rd", "--delta", "A", "--rank", "8", "--u", "17/8", "--s", "1", "--t", "1"]

    def test_json_payload(self, capsys):
        status, out, _ = run_cli(capsys, *self.ARGS, "--format", "json")
        assert status == 0
        payload = json.loads(out)
        assert payload["rd"] == 30
        assert payload["domdim_bound"] == 32
        assert payload["type"]["u"] == "17/8"
        assert set(payload) == {"type", "vertex", "rd", "branch", "witness", "domdim_bound"}

    def test_oracle_witness(self, capsys):
        status, out, _ = run_cli(capsys, *self.ARGS, "--oracle", "--format", "json")
        assert status == 0
        assert json.loads(out)["witness"] == 31

    def test_oracle_disagreement_exits_1(self, capsys, off_by_one_oracle):
        status, out, err = run_cli(capsys, *self.ARGS, "--oracle", "--format", "json")
        assert status == 1
        assert json.loads(out)["witness"] == 31
        assert err == "disagreement at (A8, 17/8, 1) t=1: closed=30 oracle=31\n"

    def test_deterministic_output(self, capsys):
        _, first, _ = run_cli(capsys, *self.ARGS, "--format", "json")
        _, second, _ = run_cli(capsys, *self.ARGS, "--format", "json")
        assert first == second

    def test_invalid_type_exits_2(self, capsys):
        status, _, err = run_cli(
            capsys, "rd", "--delta", "A", "--rank", "8", "--u", "17/7",
            "--s", "1", "--t", "1",
        )
        assert status == 2
        assert "error:" in err

    def test_a_diagram_too_large_to_knit_exits_2(self, capsys):
        status, out, err = run_cli(
            capsys, "rd", "--delta", "D", "--rank", "1000", "--u", "1", "--t", "1", "--oracle",
        )
        assert (status, out) == (2, "")
        assert err == ("error: the hammocks of D1000 would need 1998000000 bytes to knit, "
                       "over the limit of 134217728\n")

    @pytest.mark.parametrize("bad", ["2.5", "1/0"])
    def test_float_u_rejected(self, capsys, bad):
        status, _, err = run_cli(
            capsys, "rd", "--delta", "A", "--rank", "8", "--u", bad,
            "--s", "1", "--t", "1",
        )
        assert status == 2
        assert "exact rational" in err

    def test_csv_columns(self, capsys):
        status, out, _ = run_cli(capsys, *self.ARGS, "--format", "csv")
        assert status == 0
        header = out.splitlines()[0]
        assert header == "delta,rank,u,s,n,x,t,rd,branch,witness,domdim_bound"

    def test_output_file(self, capsys, tmp_path):
        target = tmp_path / "report.json"
        status, out, _ = run_cli(capsys, *self.ARGS, "--format", "json", "--output", str(target))
        assert status == 0 and out == ""
        assert json.loads(target.read_text())["rd"] == 30


class TestTableCommand:
    def test_all_labels_with_witnesses(self, capsys):
        status, out, _ = run_cli(
            capsys, "table", "--delta", "A", "--rank", "8", "--u", "17/8",
            "--s", "1", "--format", "json",
        )
        assert status == 0
        rows = json.loads(out)
        assert [row["rd"] for row in rows] == [30, 3, 3, 3, 3, 3, 3, 30]
        assert all(row["witness"] == row["rd"] + 1 for row in rows)

    def test_oracle_disagreement_exits_1(self, capsys, monkeypatch, off_by_one_oracle):
        argv = ["table", "--delta", "D", "--rank", "5", "--u", "1"]
        status, out, err = run_cli(capsys, *argv)
        assert status == 1
        assert err == "".join(
            f"disagreement at (D5, 1, 1) t={t}: closed={rd} oracle={rd + 1}\n"
            for t, rd in [(1, 5), (2, 1), (3, 1), ("m+", 3), ("m-", 3)]
        )
        assert run_cli(capsys, *argv, "--no-witness")[::2] == (0, "")  # no oracle, no check
        monkeypatch.undo()
        assert run_cli(capsys, *argv) == (0, out, "")

    def test_spine_labels_in_csv(self, capsys):
        status, out, _ = run_cli(
            capsys, "table", "--delta", "D", "--rank", "5", "--u", "1",
            "--s", "1", "--no-witness", "--format", "csv",
        )
        assert status == 0
        assert ",m+," in out and ",m-," in out


class TestVerifyCommand:
    def test_small_sweep_agrees(self, capsys):
        status, out, _ = run_cli(
            capsys, "verify", "--delta", "A", "--s", "1",
            "--rank-max", "4", "--n-max", "8",
        )
        assert status == 0
        assert "all agree" in out

    def test_fractional_d_sweep(self, capsys):
        status, out, _ = run_cli(
            capsys, "verify", "--delta", "D", "--s", "1", "--fractional",
            "--rank-max", "6", "--u-max", "4", "--format", "json",
        )
        assert status == 0
        payload = json.loads(out)
        assert payload["ok"] and payload["mismatches"] == []

    def test_e_sweep(self, capsys):
        status, out, _ = run_cli(
            capsys, "verify", "--delta", "E", "--rank", "6", "--s", "2", "--u-max", "3",
        )
        assert status == 0
        assert "all agree" in out

    @pytest.mark.parametrize(
        "bounds", [[], ["--rank-max", "5", "--n-max", "-3"]], ids=["none", "empty"]
    )
    def test_missing_bounds_exit_2(self, capsys, bounds):
        status, _, err = run_cli(capsys, "verify", "--delta", "A", "--s", "1", *bounds)
        assert status == 2
        assert "error:" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["--delta", "D", "--s", "3", "--rank-max", "9", "--rank", "7",
             "--n-max", "4", "--u-max", "2"],
            ["--delta", "E", "--rank", "6", "--u-max", "2", "--fractional"],
        ],
        ids=["d-twist-3", "e-fractional"],
    )
    def test_unused_bounds_exit_2(self, capsys, argv):
        status, out, err = run_cli(capsys, "verify", *argv)
        assert status == 2 and out == ""
        assert "do not use" in err

    @pytest.mark.parametrize(
        "argv,bound",
        [
            (["--delta", "A", "--s", "1", "--rank-max", "0", "--n-max", "3"], "rank_max"),
            (["--delta", "A", "--s", "1", "--rank-max", "3", "--n-max", "0"], "n_max"),
            (["--delta", "A", "--s", "2", "--rank-max", "-2", "--u-max", "1"], "rank_max"),
            (["--delta", "A", "--s", "2", "--rank-max", "5", "--u-max", "-1"], "u_max"),
            (["--delta", "D", "--s", "1", "--rank-max", "0", "--u-max", "2"], "rank_max"),
            (["--delta", "D", "--s", "2", "--rank-max", "5", "--u-max", "0"], "u_max"),
            (["--delta", "D", "--s", "3", "--u-max", "0"], "u_max"),
            (["--delta", "D", "--s", "1", "--fractional", "--rank-max", "-6",
              "--u-max", "2"], "rank_max"),
            (["--delta", "D", "--s", "1", "--fractional", "--rank-max", "6",
              "--u-max", "0"], "u_max"),
            (["--delta", "E", "--s", "1", "--rank", "0", "--u-max", "2"], "rank"),
            (["--delta", "E", "--s", "1", "--rank", "6", "--u-max", "0"], "u_max"),
            (["--delta", "E", "--s", "2", "--rank", "6", "--u-max", "-3"], "u_max"),
        ],
    )
    def test_non_positive_bound_exit_2(self, capsys, argv, bound):
        status, out, err = run_cli(capsys, "verify", *argv)
        assert status == 2 and out == ""
        assert f": {bound} must be positive, got " in err
        assert "need" not in err

    @pytest.mark.parametrize(
        "argv,needs",
        [
            (["--delta", "A", "--s", "1", "--rank-max", "3"], "type A s=1 sweeps need rank_max and n_max"),
            (["--delta", "A", "--s", "2", "--u-max", "3"], "type A s=2 sweeps need rank_max and u_max"),
            (["--delta", "D", "--s", "2", "--rank-max", "5"], "type D s=2 sweeps need rank_max and u_max"),
            (["--delta", "D", "--s", "3"], "type D s=3 sweeps need u_max"),
            (["--delta", "D", "--s", "1", "--fractional", "--u-max", "2"],
             "fractional type D sweeps need rank_max and u_max"),
            (["--delta", "E", "--s", "1", "--u-max", "2"], "type E s=1 sweeps need rank and u_max"),
        ],
    )
    def test_missing_bound_names_the_sweep_needs(self, capsys, argv, needs):
        status, out, err = run_cli(capsys, "verify", *argv)
        assert status == 2 and out == ""
        assert err == f"error: {needs}\n"

    def test_type_a_rejects_twist_3(self, capsys):
        status, out, err = run_cli(
            capsys, "verify", "--delta", "A", "--s", "3",
            "--rank-max", "5", "--u-max", "2",
        )
        assert status == 2 and out == ""
        assert "twist orders 1 and 2" in err


class TestRigdimCommand:
    def test_e7_family(self, capsys):
        status, out, _ = run_cli(
            capsys, "rigdim", "--delta", "E", "--rank", "7", "--u", "5",
            "--s", "1", "--format", "json",
        )
        assert status == 0
        payload = json.loads(out)
        assert payload["r"] == 66 and payload["rigdim"] == 68
        assert payload["verified"] is True

    def test_e7_family_at_large_a(self, capsys):
        status, out, _ = run_cli(capsys, "rigdim", "--delta", "E", "--rank", "7", "--u", "9005")
        assert status == 0
        assert out == "type (E7, 9005, 1): family E7:u=9a+5, r=119066, rigdim=119068 [verified]\n"

    def test_outside_families(self, capsys):
        status, out, _ = run_cli(
            capsys, "rigdim", "--delta", "D", "--rank", "6", "--u", "2", "--s", "1",
        )
        assert status == 0
        assert "no single-orbit closed form" in out


class TestHammockCommand:
    def test_dot_export(self, capsys):
        status, out, _ = run_cli(
            capsys, "hammock", "--delta", "D", "--rank", "6", "--u", "1",
            "--s", "1", "--t", "m+", "--format", "dot",
        )
        assert status == 0
        assert out.startswith("digraph hammock {")
        assert '"0_p"' in out

    def test_json_members(self, capsys):
        status, out, _ = run_cli(
            capsys, "hammock", "--delta", "A", "--rank", "4", "--u", "1",
            "--s", "1", "--t", "2", "--format", "json",
        )
        assert status == 0
        payload = json.loads(out)
        assert {"x": 0, "t": "2"} in payload["members"]
        assert len(payload["members"]) == 2 * 3  # the t x (m-t) rectangle

    def test_plus_direction(self, capsys):
        status, out, _ = run_cli(
            capsys, "hammock", "--delta", "A", "--rank", "1", "--u", "3",
            "--s", "1", "--t", "1", "--x", "2", "--direction", "plus",
            "--format", "text",
        )
        assert status == 0
        assert out.strip() == "H+(2,1): (2,1)"

    def test_orbit_quiver(self, capsys):
        status, out, _ = run_cli(
            capsys, "hammock", "--delta", "A", "--rank", "3", "--u", "1",
            "--s", "1", "--t", "1", "--orbit", "--format", "dot",
        )
        assert status == 0
        assert out.startswith("digraph orbit_quiver {")

    def test_unwritable_output_exits_2(self, capsys, tmp_path):
        target = tmp_path / "missing" / "x.json"
        status, out, err = run_cli(
            capsys, "hammock", "--delta", "A", "--rank", "3", "--u", "1",
            "--t", "2", "--format", "json", "--output", str(target),
        )
        assert status == 2 and out == ""
        assert err.startswith("error: ") and "Traceback" not in err
        assert str(target) in err
        assert not target.exists()

    def test_orbit_requires_dot(self, capsys):
        status, _, err = run_cli(
            capsys, "hammock", "--delta", "A", "--rank", "3", "--u", "1",
            "--s", "1", "--t", "1", "--orbit", "--format", "json",
        )
        assert status == 2
        assert "dot" in err


# sha256 of the stdout of ``hammock --delta D --rank R --u 1 --t T --direction DIR
# --format FMT``, keyed (DR, T, DIR, FMT), and of ``table --delta D --rank 6 --u 1``,
# recorded from the per-label knitting kernel that the byte-lane one replaced.
HAMMOCK_STDOUT_SHA256 = {
    ("A5", "2", "minus", "dot"):
        "d16e4139f73f3dade1de576e73e6fb1072370869c1c23cce569d0b739abc9265",
    ("A5", "2", "minus", "json"):
        "e6638779ba9da4487f091f4a3ed6593c427ede077ec44777fd5c18a659f00db6",
    ("A5", "2", "minus", "text"):
        "8e6edef6a6435bce75f8fc0b6b165fa22945ec1854d4c7f1c0cbcebef4862bef",
    ("A5", "2", "plus", "dot"):
        "b354e690e7dfa171281d500932060c9871e0322fc8905b21736ba1113b98f2af",
    ("A5", "2", "plus", "json"):
        "8f698f1236a1117a938062ae7d76c009827cc9f6acdcba7aeae56bbe6e3aed4f",
    ("A5", "2", "plus", "text"):
        "a7f52cd0761d6dedb4a39ec166d5b976e6acd80fe6cb4c741de4aecacfef9971",
    ("D6", "m+", "minus", "dot"):
        "a08badf706119f5b67105f3abd18c3ea5a91805ecb444b8c3e7142e3c928f215",
    ("D6", "m+", "minus", "json"):
        "cd60811c7c8a7f9786872f6693e0c46f24591fa269cb5dbea461efdd76245a76",
    ("D6", "m+", "minus", "text"):
        "d3a451033af1def53be3bd9ece1ba2e6ed20ae8645e1e2345b5d7a23d63693b6",
    ("D6", "m+", "plus", "dot"):
        "d038f6243a0498150f0eab907d9647f9d3e66a0fcc70dfe32b4829718735ed8b",
    ("D6", "m+", "plus", "json"):
        "a0c26c4ef77b04d3965f4bf772349e78eb29b53da7fa7ca77e7c1b4e4e761045",
    ("D6", "m+", "plus", "text"):
        "4d6be04ec04dcd37b80492194097d4e06c5f3275d66c4e395101fd518c522f58",
    ("E8", "4", "minus", "dot"):
        "9fa770d97ce1c231815a6cd5e0e184290c2eff3875580bd1b1e0ae6cd37c933f",
    ("E8", "4", "minus", "json"):
        "ce5f0abd9c846e283cdf190c60a72b24f04deeb07594c13ec434ab77d39356b4",
    ("E8", "4", "minus", "text"):
        "9165f409c286bc80fe4cd00e3605ad00f97d7b4631a538a9194b344c4c2da05e",
    ("E8", "4", "plus", "dot"):
        "b04e6c643a071716f235c80053f22db2b51e108eed1f164691f8a8245d7e7fee",
    ("E8", "4", "plus", "json"):
        "c2b5d865491e0aca9af918f2ad3d458bbc2934d9b7002664e53882e8d6db620e",
    ("E8", "4", "plus", "text"):
        "003595a0760dfa7ccd147b03acb1aaf9e0109167a9771523658265e19b9650c5",
}
# sha256 of the same `hammock` stdout with `--x -3`, and of `hammock --orbit --format dot`
# on twisted types (u = 1, s = 2, x = -3), recorded while `hammock_plus` still knitted
# forward on its own lanes rather than reading the backward ones
HAMMOCK_X3_STDOUT_SHA256 = {
    ("D7", "m-", "minus", "dot"):
        "4ce1440b52b400d3d84d9d31bb69033c6e945f157350b81176e8c60a10194662",
    ("D7", "m-", "minus", "json"):
        "3d7f94e17e8cbf097e0c0f84203b626d6fbdcf5f5c8011bd8177481e0f0084e4",
    ("D7", "m-", "minus", "text"):
        "8627b0e7cac71b3cd9592e21a67d2c145787ea4b126f6215dbe8a644c40ec473",
    ("D7", "m-", "plus", "dot"):
        "d2962b76de6078456e0cc2a1b26eee01f285d349e0ecb3ee2fa20ed8f63d46cb",
    ("D7", "m-", "plus", "json"):
        "a82b989f126a883d91f499a48b47c2d79cbb715abac35058f4d298f7ad165886",
    ("D7", "m-", "plus", "text"):
        "b796377ed8efe889a02953ca83f4e64afba2f5115b602422d169b819c5c90fa6",
    ("E7", "7", "minus", "dot"):
        "e0e89cbb9dc31f096d86692236b86779e800a004957a46e19259efa5fdbbb843",
    ("E7", "7", "minus", "json"):
        "169b7d1463f92dd7541bd7d553ffc80a75bd450a9f8bfeb62f5c87b86dfcb988",
    ("E7", "7", "minus", "text"):
        "8cce627574d82e41002cdbf120f838b5c0c42c051a821606ceba8455c5efab57",
    ("E7", "7", "plus", "dot"):
        "a352cef44894433b8101ef165f84ddb6b586d5f972acef2f709ce847e0d1585d",
    ("E7", "7", "plus", "json"):
        "54d5bfe215dfc6a9c86face251fde92dc0e36c7b99a42551ddc6853e1940a022",
    ("E7", "7", "plus", "text"):
        "d37b2b0c9cbf4be2fce3a33cae9bb3912a75464f8055970b91bd912e7ab9189a",
}
ORBIT_S2_STDOUT_SHA256 = {
    ("A5", "2"):
        "97e5a912fbf2e0914d81425af99f41d2d71177c5ef49e8cf2114a134fba73d49",
    ("E6", "1"):
        "1465d43a33c196baedc55d75209cb713f6136523dc16308f8fbc6a9cc93d42d7",
}
TABLE_D6_STDOUT_SHA256 = "aacfcd0d9894573d17805841ea21efbb272798d0af296213cd7410b20d38eb57"

# sha256 of `rd --oracle` stdout per case and format, of `table --format FMT` on
# D6 u=2 s=2, and of `hammock --orbit --format dot` on untwisted and triality types
RD_ORACLE_CASES = {
    "A8-u17_8-t1": ("--delta", "A", "--rank", "8", "--u", "17/8", "--t", "1"),
    "D6-u2-s2-tm-": ("--delta", "D", "--rank", "6", "--u", "2", "--s", "2", "--t", "m-"),
}
RD_ORACLE_STDOUT_SHA256 = {
    ("A8-u17_8-t1", "text"):
        "88d470b35ac132d88793ebbf786b58c6c7d0fb8f26ac925f3bf3382443c5d03e",
    ("A8-u17_8-t1", "json"):
        "8440b439e27354c1813f980c64c840b6dba6eb263022e57c500d08601cd33b5a",
    ("A8-u17_8-t1", "csv"):
        "b2df8b3e24f6aac9ef6e959f1026047325915a5b8aed08aee469dde8ccb71ab4",
    ("D6-u2-s2-tm-", "text"):
        "faee0b746f649ffe3f1562c10079797609f8124b20fc1a3b6e3d0db1729cb0d6",
    ("D6-u2-s2-tm-", "json"):
        "90b3bbe616c69563b46cff339a5231647098f9cbac4a4abe7d252670b7e29334",
    ("D6-u2-s2-tm-", "csv"):
        "015aea9af4963134ade0edcf598b3d9dec38cabc98fa0105b8dd4199b534ade7",
}
TABLE_D6_S2_STDOUT_SHA256 = {
    "csv": "52a03f0be3597a07a8a131dd1c9f990c0573c5e514258985b1dd27ec618b8609",
    "json": "7fcf306d741093c84ccbab23f7bbbeef0b002f0f022756774feb0a6be0c7810f",
}
ORBIT_CASES = {
    "A3-u2-s1-t1": ("--delta", "A", "--rank", "3", "--u", "2", "--s", "1", "--t", "1"),
    "D4-u1-s3-tm+": ("--delta", "D", "--rank", "4", "--u", "1", "--s", "3", "--t", "m+"),
}
ORBIT_STDOUT_SHA256 = {
    "A3-u2-s1-t1": "b1e0e3a39ec42be4d4ab626541b65e83ee7e5c2057e3483d306fac780c91f000",
    "D4-u1-s3-tm+": "9ca32efad6306224b7c6f35fd8d83d51c3be681339fb1adfe1ee3ab9b8b4a752",
}

# sha256 of `rigdim` stdout per case and format
RIGDIM_CASES = {
    "A1-n4": ("--delta", "A", "--rank", "1", "--n", "4"),  # A s=1, n = 2a
    "A8-u17_8": ("--delta", "A", "--rank", "8", "--u", "17/8"),  # A s=1, n = am - 1
    "A3-u3-s2": ("--delta", "A", "--rank", "3", "--u", "3", "--s", "2"),  # A s=2
    "E7-u14": ("--delta", "E", "--rank", "7", "--u", "14"),  # E7, u = 9a + 5
    "D6-u2": ("--delta", "D", "--rank", "6", "--u", "2"),  # outside the families
    "E7-u5-no-verify": ("--delta", "E", "--rank", "7", "--u", "5", "--no-verify"),
}
RIGDIM_STDOUT_SHA256 = {
    ("A1-n4", "text"):
        "a1de5ab9dfc41159ef88114a08ccdfc36f7912493c75136c7a6b123cf697175b",
    ("A1-n4", "json"):
        "123d9c763281898ba60dbccce4ffd19487f2696afa388c56da5e54d1ed817a32",
    ("A8-u17_8", "text"):
        "4716093770a12438a70ba7e3581ccf9854f6a23310d0f2654969b9746ddabb96",
    ("A8-u17_8", "json"):
        "0a35455e59592d44ebdb9cb17922471151bccf7a5d1f50427a848b7df7445c97",
    ("A3-u3-s2", "text"):
        "214661330224b5afffbb24a216506b7a190007444f617ef0b7a1c6cbdf414f75",
    ("A3-u3-s2", "json"):
        "5f4f3ac3933733f42cbdafe00e63e8794c11d8d989a74bfc82e6aa40ec1e9343",
    ("E7-u14", "text"):
        "0b40d5514a590ba43ccf1c3c27924e61ba2b9fa35d3ccb5b4cd57569a138c591",
    ("E7-u14", "json"):
        "39317344ba154370c7027ae4ac2694b999c8182c999454e117909abe5b13af6f",
    ("D6-u2", "text"):
        "65ab080970df44981ae2fda6d6ed49755cf101d2f347b0bc2c34c3d8f3e98e3e",
    ("D6-u2", "json"):
        "de4e4574eb8e83f0f2326e1e729a7df64f90e5944a6e2d8d6c082bb76d89065b",
    ("E7-u5-no-verify", "text"):
        "43430c541c0c76a1b22c2bd23acdded80b59517b4693c4c5f7d46dbfa9e13f76",
    ("E7-u5-no-verify", "json"):
        "5f462a60e5fd29e523cdc63b50fcbcb826a4fdfcc3268d9569460ee02c7df7e0",
}


class TestGoldenStdout:
    @pytest.mark.parametrize("key", sorted(HAMMOCK_STDOUT_SHA256), ids="-".join)
    def test_hammock(self, capsys, key):
        diagram, t, direction, fmt = key
        status, out, _ = run_cli(
            capsys, "hammock", "--delta", diagram[0], "--rank", diagram[1:], "--u", "1",
            "--t", t, "--direction", direction, "--format", fmt,
        )
        assert status == 0
        assert hashlib.sha256(out.encode()).hexdigest() == HAMMOCK_STDOUT_SHA256[key]

    @pytest.mark.parametrize("key", sorted(HAMMOCK_X3_STDOUT_SHA256), ids="-".join)
    def test_hammock_off_slice_zero(self, capsys, key):
        diagram, t, direction, fmt = key
        status, out, _ = run_cli(
            capsys, "hammock", "--delta", diagram[0], "--rank", diagram[1:], "--u", "1",
            "--t", t, "--x", "-3", "--direction", direction, "--format", fmt,
        )
        assert status == 0
        assert hashlib.sha256(out.encode()).hexdigest() == HAMMOCK_X3_STDOUT_SHA256[key]

    @pytest.mark.parametrize("key", sorted(ORBIT_S2_STDOUT_SHA256), ids="-".join)
    def test_orbit_quiver(self, capsys, key):
        diagram, t = key
        status, out, _ = run_cli(
            capsys, "hammock", "--delta", diagram[0], "--rank", diagram[1:], "--u", "1",
            "--s", "2", "--t", t, "--x", "-3", "--orbit", "--format", "dot",
        )
        assert status == 0
        assert hashlib.sha256(out.encode()).hexdigest() == ORBIT_S2_STDOUT_SHA256[key]

    def test_table(self, capsys):
        status, out, _ = run_cli(capsys, "table", "--delta", "D", "--rank", "6", "--u", "1")
        assert status == 0
        assert hashlib.sha256(out.encode()).hexdigest() == TABLE_D6_STDOUT_SHA256

    @pytest.mark.parametrize("fmt", sorted(TABLE_D6_S2_STDOUT_SHA256))
    def test_table_twisted(self, capsys, fmt):
        status, out, _ = run_cli(
            capsys, "table", "--delta", "D", "--rank", "6", "--u", "2", "--s", "2", "--format", fmt,
        )
        assert status == 0
        assert hashlib.sha256(out.encode()).hexdigest() == TABLE_D6_S2_STDOUT_SHA256[fmt]

    @pytest.mark.parametrize("key", sorted(RD_ORACLE_STDOUT_SHA256), ids="-".join)
    def test_rd_oracle(self, capsys, key):
        case, fmt = key
        status, out, _ = run_cli(
            capsys, "rd", *RD_ORACLE_CASES[case], "--oracle", "--format", fmt,
        )
        assert status == 0
        assert hashlib.sha256(out.encode()).hexdigest() == RD_ORACLE_STDOUT_SHA256[key]

    @pytest.mark.parametrize("case", sorted(ORBIT_STDOUT_SHA256))
    def test_orbit_quiver_untwisted_and_triality(self, capsys, case):
        status, out, _ = run_cli(
            capsys, "hammock", *ORBIT_CASES[case], "--orbit", "--format", "dot",
        )
        assert status == 0
        assert hashlib.sha256(out.encode()).hexdigest() == ORBIT_STDOUT_SHA256[case]

    @pytest.mark.parametrize("key", sorted(RIGDIM_STDOUT_SHA256), ids="-".join)
    def test_rigdim(self, capsys, key):
        case, fmt = key
        status, out, _ = run_cli(capsys, "rigdim", *RIGDIM_CASES[case], "--format", fmt)
        assert status == 0
        assert hashlib.sha256(out.encode()).hexdigest() == RIGDIM_STDOUT_SHA256[key]


# the README's CLI commands and the sha256 of their stdout
README_STDOUT_SHA256 = {
    "rd --delta A --rank 8 --u 17/8 --s 1 --t 1 --format json":
        "81fefcd2aa2eb2bbcaa93be6302e28073642359ccb9ff339507a67837c5e9404",
    "table --delta D --rank 6 --u 2 --s 2 --format csv":
        "52a03f0be3597a07a8a131dd1c9f990c0573c5e514258985b1dd27ec618b8609",
    "verify --delta A --s 1 --rank-max 10 --n-max 30":
        "a422ff9c752d1585e1a979a9df151304028c5e4967492ef90e51acedbf494e8d",
    "verify --delta D --s 1 --fractional --rank-max 12 --u-max 5":
        "8aceb89862b96bc1ffe539779e7e320af6ae88b0ab02f3209cf2f042893d8287",
    "verify --delta E --rank 7 --s 1 --u-max 10":
        "2c0936ca669c691983b5d7fd7b2796a48ac0a2120db18836ace2c05be03f9089",
    "rigdim --delta E --rank 7 --u 5 --s 1":
        "521449967ce3f09e48d8f059088490f2c0740d2e65d908ecfa9db8765e41c4f8",
    "hammock --delta D --rank 6 --u 1 --s 1 --t m+ --format dot":
        "a08badf706119f5b67105f3abd18c3ea5a91805ecb444b8c3e7142e3c928f215",
    "hammock --delta A --rank 3 --u 2 --s 1 --t 1 --orbit --format dot":
        "b1e0e3a39ec42be4d4ab626541b65e83ee7e5c2057e3483d306fac780c91f000",
}
MISSING_DELTA = "rd --rank 3 --u 1 --t 1"  # argparse exits 2
NON_POSITIVE_U = "rd --delta A --rank 3 --u 0 --t 1"  # ValueError, exit 2


class TestParserReuse:
    """``main`` reuses one parser; every output must be as from a fresh one."""

    @pytest.fixture
    def fresh_memo(self):
        cli._parser.cache_clear()
        yield
        cli._parser.cache_clear()

    @staticmethod
    def run_pass(capsys, output):
        readme = list(README_STDOUT_SHA256)
        written = f"{readme[0]} --output {output}"
        # the error and --output commands interleaved with the README ones
        commands = readme[:2] + [MISSING_DELTA] + readme[2:4] + [NON_POSITIVE_U] + readme[4:6]
        commands += [written] + readme[6:] + [MISSING_DELTA, NON_POSITIVE_U]
        outcomes = {}
        for command in commands:
            try:
                status = main(command.split())
            except SystemExit as exc:
                status = f"SystemExit({exc.code})"
            captured = capsys.readouterr()
            outcomes.setdefault(command, []).append((status, captured.out, captured.err))
        outcomes[written].append(output.read_text(encoding="utf-8"))
        output.unlink()
        return outcomes

    def test_second_pass_repeats_the_first(self, capsys, tmp_path, fresh_memo):
        output = tmp_path / "rd.json"
        first = self.run_pass(capsys, output)
        assert self.run_pass(capsys, output) == first
        for command, digest in README_STDOUT_SHA256.items():
            (status, out, err), = first[command]
            assert (status, err) == (0, ""), command
            assert hashlib.sha256(out.encode()).hexdigest() == digest, command
        (status, out, err), text = first[f"{next(iter(README_STDOUT_SHA256))} --output {output}"]
        assert (status, out, err) == (0, "", "")
        assert hashlib.sha256(text.encode()).hexdigest() == next(iter(README_STDOUT_SHA256.values()))
        status, out, err = first[MISSING_DELTA][0]
        assert (status, out) == ("SystemExit(2)", "")
        assert err.startswith("usage: rigidity-kit rd ")
        assert err.endswith("error: the following arguments are required: --delta\n")
        assert first[NON_POSITIVE_U][0] == (2, "", "error: u must be positive, got 0\n")
        assert first[MISSING_DELTA][1] == first[MISSING_DELTA][0]
        assert first[NON_POSITIVE_U][1] == first[NON_POSITIVE_U][0]

    def test_build_parser_returns_a_fresh_parser(self):
        assert build_parser() is not build_parser()

    def test_main_builds_one_parser(self, capsys, monkeypatch, fresh_memo):
        builds = []

        def counted():
            builds.append(1)
            return build_parser()

        monkeypatch.setattr(cli, "build_parser", counted)
        for _ in range(4):
            assert main(NON_POSITIVE_U.split()) == 2
            assert main(["rd", "--delta", "A", "--rank", "3", "--u", "1", "--t", "1"]) == 0
            with pytest.raises(SystemExit):
                main(MISSING_DELTA.split())
        capsys.readouterr()
        assert builds == [1]
