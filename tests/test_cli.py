"""End-to-end tests of the command-line interface."""

from __future__ import annotations

import hashlib
import json

import pytest

from rigidity_kit.cli import main, parse_label, parse_u


def run_cli(capsys, *argv):
    status = main(list(argv))
    captured = capsys.readouterr()
    return status, captured.out, captured.err


class TestParsing:
    def test_rational(self):
        assert parse_u("17/8") == 17 / 8 or str(parse_u("17/8")) == "17/8"
        assert str(parse_u("5")) == "5"

    @pytest.mark.parametrize("bad", ["2.5", "-3", "1e3", "17/0", "", "0"])
    def test_rejects_non_rational(self, bad):
        with pytest.raises(ValueError):
            parse_u(bad)

    def test_labels(self):
        assert parse_label("3") == 3
        assert parse_label("m+") == "m+"
        assert parse_label("p") == "m+"
        assert parse_label("m") == "m-"
        with pytest.raises(ValueError):
            parse_label("q")


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
TABLE_D6_STDOUT_SHA256 = "aacfcd0d9894573d17805841ea21efbb272798d0af296213cd7410b20d38eb57"

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

    def test_table(self, capsys):
        status, out, _ = run_cli(capsys, "table", "--delta", "D", "--rank", "6", "--u", "1")
        assert status == 0
        assert hashlib.sha256(out.encode()).hexdigest() == TABLE_D6_STDOUT_SHA256

    @pytest.mark.parametrize("key", sorted(RIGDIM_STDOUT_SHA256), ids="-".join)
    def test_rigdim(self, capsys, key):
        case, fmt = key
        status, out, _ = run_cli(capsys, "rigdim", *RIGDIM_CASES[case], "--format", fmt)
        assert status == 0
        assert hashlib.sha256(out.encode()).hexdigest() == RIGDIM_STDOUT_SHA256[key]
