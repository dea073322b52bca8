import argparse
import contextlib
import io
import json
import math
import sys
from pathlib import Path

import pytest

from dirichlet_ops import cli

POLY_2 = '{"kind":"poly","terms":[{"n":2,"re":1}]}'
POLY_3 = '{"kind":"poly","terms":[{"n":3,"re":1}]}'


def run_cli(capsys, argv):
    code = cli.run(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestGoldenOutputs:
    def test_diff_terms(self, capsys):
        code, out, _ = run_cli(capsys, ["diff", "--series", POLY_3])
        assert code == 0
        assert out == '[{"n":3,"re":-1.0986122886681098}]\n'

    def test_eval_half(self, capsys):
        code, out, _ = run_cli(capsys, ["eval", "--series", POLY_2, "--s", "1,0"])
        assert code == 0
        assert out == '{"re":0.5,"im":0}\n'

    def test_classify_zero_on_zero_subspace(self, capsys):
        code, out, _ = run_cli(capsys, ["classify", "--lambda", "0,0", "--space", "zero"])
        assert code == 0
        assert out == '{"verdict":"resolvent_point"}\n'

    def test_classify_eigenvalue_carries_index(self, capsys):
        lam = repr(-math.log(7))
        code, out, _ = run_cli(capsys, ["classify", f"--lambda={lam},0"])
        assert code == 0
        assert json.loads(out) == {"verdict": "eigenvalue", "n": 7}

    def test_classify_constant_on_full_space(self, capsys):
        code, out, _ = run_cli(capsys, ["classify", "--lambda", "0,0", "--space", "full"])
        assert code == 0
        assert json.loads(out) == {"verdict": "eigenvalue_constant", "n": 1}

    @pytest.mark.parametrize("lam", ["-800,0", "-50,0"])
    def test_classify_dense_spectrum_has_no_index(self, capsys, lam):
        code, out, _ = run_cli(capsys, ["classify", f"--lambda={lam}", "--space", "full"])
        assert code == 0
        assert out == '{"verdict":"dense_spectrum"}\n'


class TestDeterminism:
    def test_repeat_runs_byte_identical(self, capsys):
        argv = ["seminorm", "--series", POLY_2, "--epsilon", "0.25"]
        _, first, _ = run_cli(capsys, argv)
        _, second, _ = run_cli(capsys, argv)
        assert first == second

    def test_poly_json_round_trips(self, capsys):
        g = '{"kind":"poly","terms":[{"n":2,"re":0.125},{"n":9,"re":-2,"im":0.5}]}'
        _, out, _ = run_cli(capsys, ["diff", "--series", g])
        # emitted terms re-enter as a bare terms array
        _, back, _ = run_cli(capsys, ["diff", "--series", out.strip()])
        _, twice, _ = run_cli(
            capsys, ["mul", "--f", out.strip(), "--g", '[{"n":1,"re":1}]']
        )
        assert twice == out
        assert json.loads(back) != json.loads(out)  # second derivative differs


class TestSeriesDescriptors:
    def test_rule_with_truncation(self, capsys):
        code, out, _ = run_cli(
            capsys,
            ["eval", "--series", '{"kind":"rule","name":"eta","truncate":4}', "--s", "0,0"],
        )
        assert code == 0
        assert json.loads(out) == {"re": 0, "im": 0}

    def test_rule_requires_truncation_where_polynomial_needed(self, capsys):
        code, _, err = run_cli(
            capsys, ["eval", "--series", '{"kind":"rule","name":"ones"}', "--s", "2,0"]
        )
        assert code == 1
        assert "truncate" in err

    def test_zeta_shift_requires_k(self, capsys):
        code, _, err = run_cli(
            capsys,
            ["eval", "--series", '{"kind":"rule","name":"zeta_shift","truncate":4}', "--s", "0,0"],
        )
        assert code == 1
        assert ".k" in err

    def test_unknown_rule_named(self, capsys):
        code, _, err = run_cli(
            capsys, ["diff", "--series", '{"kind":"rule","name":"mystery","truncate":4}']
        )
        assert code == 1
        assert "mystery" in err and "--series.name" in err

    def test_malformed_json_names_flag(self, capsys):
        code, _, err = run_cli(capsys, ["diff", "--series", "{not json"])
        assert code == 1
        assert "--series" in err

    def test_bad_term_field_named(self, capsys):
        code, _, err = run_cli(
            capsys, ["diff", "--series", '{"kind":"poly","terms":[{"n":0,"re":1}]}']
        )
        assert code == 1
        assert "terms[0].n" in err

    def test_file_indirection(self, capsys, tmp_path):
        p = tmp_path / "series.json"
        p.write_text(POLY_2)
        code, out, _ = run_cli(capsys, ["eval", "--series", f"@{p}", "--s", "1,0"])
        assert code == 0
        assert out == '{"re":0.5,"im":0}\n'

    def test_missing_file_reported(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, ["eval", "--series", f"@{tmp_path}/absent.json", "--s", "1,0"]
        )
        assert code == 1
        assert "--series" in err


class TestExitCodes:
    def test_domain_error_is_two(self, capsys):
        code, _, err = run_cli(
            capsys, ["integrate", "--series", '{"kind":"poly","terms":[{"n":1,"re":1}]}']
        )
        assert code == 2
        assert "a_1" in err

    def test_spectral_error_is_two(self, capsys):
        lam = repr(-math.log(2))
        code, _, err = run_cli(
            capsys, ["resolvent", "--series", POLY_2, f"--lambda={lam},0"]
        )
        assert code == 2

    def test_oversized_seminorm_grid_is_two(self, capsys):
        code, out, err = run_cli(
            capsys, ["seminorm", "--series", POLY_2, "--epsilon", "0", "--t-max", "1e300"]
        )
        assert (code, out) == (2, "")
        assert "t_max" in err and "points" in err

    def test_usage_error_is_one(self, capsys):
        code, _, _ = run_cli(capsys, ["eval", "--series", POLY_2])  # --s missing
        assert code == 1

    def test_no_subcommand_is_one(self, capsys):
        code, _, err = run_cli(capsys, [])
        assert code == 1
        assert "subcommand" in err

    def test_bad_complex_flag_is_one(self, capsys):
        code, _, err = run_cli(capsys, ["classify", "--lambda", "abc"])
        assert code == 1
        assert "--lambda" in err


class TestSubcommandPayloads:
    def test_integrate(self, capsys):
        code, out, _ = run_cli(capsys, ["integrate", "--series", POLY_2])
        assert code == 0
        [term] = json.loads(out)
        assert term["n"] == 2
        assert term["re"] == pytest.approx(-1 / math.log(2), rel=1e-15)

    def test_mul(self, capsys):
        code, out, _ = run_cli(capsys, ["mul", "--f", POLY_2, "--g", POLY_3])
        assert code == 0
        assert out == '[{"n":6,"re":1}]\n'

    def test_seminorm_fields(self, capsys):
        code, out, _ = run_cli(
            capsys, ["seminorm", "--series", POLY_2, "--epsilon", "1"]
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["lower"] == pytest.approx(0.5, rel=1e-12)
        assert payload["upper"] == pytest.approx(0.5, rel=1e-12)
        assert payload["two_sided"] is False

    def test_abscissa_on_rule(self, capsys):
        code, out, _ = run_cli(
            capsys,
            ["abscissa", "--series", '{"kind":"rule","name":"eta"}', "--n", "2000",
             "--probe-eps", "0.5"],
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["sigma_c"]["value"] == pytest.approx(0.0, abs=0.05)
        assert payload["sigma_a"]["value"] == pytest.approx(1.0, abs=0.05)
        assert payload["sigma_u_bracket"][0] <= payload["sigma_u_bracket"][1]
        assert payload["probes"][0]["epsilon"] == 0.5
        assert "bracket" in payload["sigma_u_note"]

    def test_abscissa_accepts_poly_descriptor(self, capsys):
        terms = ",".join(f'{{"n":{n},"re":1}}' for n in range(1, 201))
        code, out, _ = run_cli(
            capsys, ["abscissa", "--series", f"[{terms}]", "--n", "200"]
        )
        assert code == 0
        assert json.loads(out)["sigma_c"]["value"] == pytest.approx(1.0, abs=0.05)

    def test_resolvent(self, capsys):
        code, out, _ = run_cli(
            capsys, ["resolvent", "--series", POLY_2, "--lambda", "1,0"]
        )
        assert code == 0
        [term] = json.loads(out)
        assert term["re"] == pytest.approx(1 / (1 + math.log(2)), rel=1e-15)

    def test_bv_check(self, capsys):
        code, out, _ = run_cli(
            capsys, ["bv-check", "--lambda", "1,0", "--delta", "0.5"]
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["verdict"] == "bounded"
        assert payload["majorant_ratio"] < 1.0

    def test_reciprocal(self, capsys):
        code, out, _ = run_cli(capsys, ["reciprocal", "--mu", "1,0"])
        assert code == 0
        payload = json.loads(out)
        assert payload["consistent"] is True

    def test_volterra_apply_and_check(self, capsys):
        code, out, _ = run_cli(capsys, ["volterra", "--g", POLY_2, "--f", POLY_3])
        assert code == 0
        [term] = json.loads(out)
        assert term["n"] == 6
        code, out, _ = run_cli(capsys, ["volterra", "--g", POLY_2, "--check"])
        assert code == 0
        assert json.loads(out)["match"] is True

    def test_dynamics_json(self, capsys):
        code, out, _ = run_cli(
            capsys,
            ["dynamics", "--op", "d", "--series", POLY_3, "--epsilon", "0.1"],
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["verdict"] == "diverges"
        assert len(payload["samples"]) == 40


class TestCsvFormat:
    def test_dynamics_header(self, capsys):
        code, out, _ = run_cli(
            capsys,
            ["--format", "csv", "dynamics", "--op", "d", "--series", POLY_3,
             "--epsilon", "0.1", "--k-max", "12"],
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "k,value"
        assert len(lines) == 13
        assert lines[1].startswith("1,")

    def test_poly_csv(self, capsys):
        code, out, _ = run_cli(capsys, ["--format", "csv", "mul", "--f", POLY_2, "--g", POLY_3])
        assert code == 0
        assert out == "n,re,im\n6,1,0\n"

    def test_eval_csv(self, capsys):
        code, out, _ = run_cli(
            capsys, ["--format", "csv", "eval", "--series", POLY_2, "--s", "1,0"]
        )
        assert code == 0
        assert out == "re,im\n0.5,0\n"


# Pinned bytes of every subcommand: each case is an argv with the exit code,
# stdout and stderr it produced, replayed through cli.run.  To pin a new
# case, run `PYTHONPATH=src python tests/test_cli.py ARGV...` and append the
# printed record to the fixture.
GOLDEN_PATH = Path(__file__).with_name("cli_golden.json")
GOLDEN = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))


def capture(argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.run(argv)
        except SystemExit as exc:  # --help exits through argparse
            code = exc.code
    return {"argv": argv, "code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


class TestGoldenFixture:
    @pytest.fixture(autouse=True)
    def fixed_width(self, monkeypatch):
        # argparse wraps --help to the terminal width it reads from COLUMNS
        monkeypatch.setenv("COLUMNS", "80")

    @pytest.mark.parametrize("case", GOLDEN, ids=lambda c: " ".join(c["argv"])[:80])
    def test_replay(self, case):
        assert capture(case["argv"]) == case

    def test_every_subcommand_pinned(self):
        parser = cli._build_parser()
        [sub] = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        commands = set(sub.choices)
        ok, helped = set(), set()
        for case in GOLDEN:
            argv = case["argv"]
            command = next((a for a in argv if a in commands), None)
            if "--help" in argv:
                helped.add(command)
            elif case["code"] == 0:
                fmt = "csv" if argv[:2] == ["--format", "csv"] else "json"
                ok.add((command, fmt))
        wanted = {(c, fmt) for c in commands for fmt in ("json", "csv")}
        assert sorted(wanted - ok) == [], "subcommand without a pinned successful run"
        assert sorted((commands | {None}) - helped, key=str) == [], "parser without pinned --help"


if __name__ == "__main__":
    import os

    os.environ["COLUMNS"] = "80"
    print(json.dumps(capture(sys.argv[1:])))
