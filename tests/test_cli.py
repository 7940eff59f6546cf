"""CLI contract: subcommands, exit codes, determinism."""

import json
import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]


def run_cli(*args, cwd=None, timeout=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src") + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, "-m", "trilocal.cli", *args],
        capture_output=True,
        text=True,
        env=env,
        cwd=cwd or ROOT,
        timeout=timeout,
    )


SCALED = '{"kind":"scaled","k":2}'
DOUBLE = '{"kind":"double","ring":"Q"}'
REGULAR = '{"kind":"regular","ring":"Z"}'
TENSOR = '{"kind":"tensor-free"}'
HNN = '{"kind":"hnn-free"}'


class TestNormalize:
    def test_scaled_product(self):
        out = run_cli("normalize", "--family", SCALED, "--expr", "x[3]*x[5]")
        assert out.returncode == 0
        assert "oracle: 15/4" in out.stdout

    def test_generator_at_p_is_one(self):
        out = run_cli("normalize", "--family", SCALED, "--expr", "x[2]")
        assert out.returncode == 0
        assert "normal_form: 1\n" in out.stdout

    def test_double_product(self):
        out = run_cli("normalize", "--family", DOUBLE, "--expr", "x[(2,3)]*x[(0,1)]")
        assert out.returncode == 0
        assert "oracle: 2x+3x^2" in out.stdout

    def test_json_format(self):
        out = run_cli("normalize", "--family", SCALED, "--expr", "x[3]", "--format", "json")
        doc = json.loads(out.stdout)
        assert doc["normal_form"] == "3*x[1]"
        assert doc["oracle"] == "3/2"

    def test_parse_error_exit_2(self):
        out = run_cli("normalize", "--family", SCALED, "--expr", "x[3")
        assert out.returncode == 2
        assert "offset 3" in out.stderr

    def test_schema_error_exit_2(self):
        out = run_cli("normalize", "--family", '{"kind":"nope"}', "--expr", "1")
        assert out.returncode == 2

    def test_budget_exit_3(self):
        out = run_cli(
            "normalize", "--family", SCALED, "--expr", "x[3]*x[5]*x[7]*x[9]", "--budget", "1"
        )
        assert out.returncode == 3


class TestBudgetBoundsWork:
    """Powers that grow a coefficient, a word or the number of terms without
    bound end in exit 3 and one error line, not in a hang."""

    @pytest.mark.parametrize(
        "family, expr, budget",
        [
            (SCALED, "x[3]^100000000", "1000"),
            (DOUBLE, "x[(0,1)]^200000", "100"),
            ('{"kind":"hnn-free","ring":"Q","A_gens":["s","t"]}', "(x[h(s)]+x[h(s,t)])^16", "100000"),
        ],
        ids=["coefficient", "word", "terms"],
    )
    def test_exit_3_with_one_line(self, family, expr, budget):
        out = run_cli("normalize", "--family", family, "--expr", expr, "--budget", budget, timeout=20)
        assert out.returncode == 3
        assert out.stdout == ""
        lines = out.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:"), out.stderr

    @pytest.mark.parametrize(
        "family, expr",
        [(REGULAR, "3^100000000"), (SCALED, "x[3]^100000000")],
        ids=["regular", "scaled"],
    )
    def test_default_budget_stops_big_coefficients(self, family, expr):
        # coefficients are charged per pair of 64-bit limbs, so the default
        # budget runs out before the squarings get slow
        out = run_cli("normalize", "--family", family, "--expr", expr, timeout=20)
        assert out.returncode == 3
        assert out.stdout == ""
        lines = out.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:"), out.stderr


class TestDeepPowers:
    """A chain of powers and an exponent past the recursion limit end in
    exit 0, or in exit 3 where the budget runs out, never in a traceback."""

    BIG = "1" + "0" * 400

    @pytest.mark.parametrize(
        "argv, code, line",
        [
            (["normalize", "--family", SCALED, "--expr", "x[3]" + "^1" * 1000], 0, "normal_form: 3*x[1]"),
            (["normalize", "--family", REGULAR, "--expr", "1^" + BIG], 0, "normal_form: 1"),
            (["rho", "--family", REGULAR, "--component", "A", "--value", "1^" + BIG], 0, "normal_form: 1"),
            (["normalize", "--family", REGULAR, "--expr", "x[3]^" + BIG], 3, None),
        ],
        ids=["chain", "one-to-big", "rho-one-to-big", "generator-to-big"],
    )
    def test_exit_without_traceback(self, argv, code, line):
        out = run_cli(*argv, timeout=20)
        assert out.returncode == code, out.stderr
        if line is None:
            assert out.stdout == "" and len(out.stderr.splitlines()) == 1
            assert out.stderr.startswith("error:")
        else:
            assert line in out.stdout.splitlines() and out.stderr == ""


class TestRhoBudgetBoundsWork:
    """A and B values of rho are evaluated under --budget: powers that grow
    an integer or the number of terms end in exit 3 and one error line
    under the default budget, not in a hang."""

    @pytest.mark.parametrize(
        "family, component, value",
        [
            (REGULAR, "A", "2^100000000"),
            (REGULAR, "B", "3^100000000"),
            ('{"kind":"tensor-free","ring":"Z"}', "A", "(s+1)^100000"),
            ('{"kind":"hnn-free","ring":"Q","A_gens":["s","t"]}', "B", "(s+t)^40"),
        ],
        ids=["regular-A", "regular-B", "tensor-free-A", "hnn-free-B"],
    )
    def test_exit_3_with_one_line(self, family, component, value):
        out = run_cli("rho", "--family", family, "--component", component, "--value", value, timeout=20)
        assert out.returncode == 3
        assert out.stdout == ""
        lines = out.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:"), out.stderr


class TestOneBudgetPerCommand:
    """A command charges parsing and evaluation to one count, and an
    exhausted count is reported in one line that names no stage."""

    def test_parsing_and_rho_share_one_count(self, capsys):
        from trilocal.cli import main
        from trilocal.exprs import parse_ring_element
        from trilocal.families import family_from_json
        from trilocal.tring import Budget, rho

        family = family_from_json(json.loads(REGULAR))
        budget = Budget(float("inf"))
        value = parse_ring_element(family, "A", "2^20000", budget)
        parsed = budget.used
        rho(family, "A", value, budget)
        total = budget.used
        # each stage alone fits in total - 1 steps, so a command with one
        # budget per stage would pass where one count must fail
        assert 0 < parsed < total
        argv = ["rho", "--family", REGULAR, "--component", "A", "--value", "2^20000", "--budget"]
        assert main(argv + [str(total)]) == 0
        assert main(argv + [str(total - 1)]) == 3
        capsys.readouterr()

    @pytest.mark.parametrize(
        "argv, limit",
        [
            (["normalize", "--family", SCALED, "--expr", "x[3]^100000000", "--budget", "1000"], 1000),
            (["rho", "--family", REGULAR, "--component", "A", "--value", "2^100000000"], 1000000),
        ],
        ids=["normalize", "rho-A"],
    )
    def test_exhaustion_message(self, argv, limit):
        out = run_cli(*argv, timeout=20)
        assert out.returncode == 3
        assert out.stderr == f"error: evaluation exceeded the step budget of {limit}\n"


class TestRho:
    def test_component_a(self):
        out = run_cli("rho", "--family", SCALED, "--component", "A", "--value", "3")
        assert out.returncode == 0
        assert "oracle: 3\n" in out.stdout

    def test_component_m(self):
        out = run_cli("rho", "--family", SCALED, "--component", "M", "--value", "3")
        assert out.returncode == 0
        assert "oracle: 3/2" in out.stdout


class TestLargeIntegers:
    """Integers beyond Python's 4,300-digit str() limit still print exactly."""

    @staticmethod
    def expected_digits(n=2**20000):
        limit = getattr(sys, "get_int_max_str_digits", None)
        if limit is None:  # Python < 3.11 has no limit
            return str(n)
        old = limit()
        sys.set_int_max_str_digits(0)
        try:
            return str(n)
        finally:
            sys.set_int_max_str_digits(old)

    @pytest.mark.parametrize(
        "argv, printed",
        [
            (("rho", "--component", "A", "--value", "2^20000"), ("value", "normal_form", "oracle")),
            (("normalize", "--expr", "2^20000"), ("normal_form", "oracle")),
        ],
        ids=["rho", "normalize"],
    )
    def test_two_to_the_20000(self, argv, printed):
        digits = self.expected_digits()
        assert len(digits) == 6021
        out = run_cli(*argv, "--family", REGULAR, "--format", "json")
        assert out.returncode == 0, out.stderr
        doc = json.loads(out.stdout)
        for key in printed:
            assert doc[key] == digits, key

    def test_factored_value(self):
        out = run_cli("factor", "--family", REGULAR, "--a0", "2", "--b0", "2", "--expr", "3^10000", "--format", "json")
        assert out.returncode == 0, out.stderr
        assert json.loads(out.stdout)["factored_value"] == self.expected_digits(3**10000)

    def test_lowest_digit_limit_prints_the_same(self):
        # 3^3000 has 1,432 digits, past the lowest limit Python allows (640)
        argv = ("normalize", "--family", REGULAR, "--expr", "3^3000")
        default = run_cli(*argv)
        env = {**os.environ, "PYTHONINTMAXSTRDIGITS": "640"}
        env["PYTHONPATH"] = str(ROOT / "src") + os.pathsep + env.get("PYTHONPATH", "")
        lowered = subprocess.run(
            [sys.executable, "-m", "trilocal.cli", *argv], capture_output=True, text=True, env=env, cwd=ROOT
        )
        assert default.returncode == 0, default.stderr
        assert lowered.returncode == 0, lowered.stderr
        assert lowered.stdout == default.stdout
        assert str(3**3000)[:40] in default.stdout


class TestVerify:
    def test_example_suite_passes(self):
        out = run_cli("verify", "--suite", "examples")
        assert out.returncode == 0
        assert "result: PASS" in out.stdout

    def test_negative_control_exit_1(self):
        out = run_cli("verify", "--suite", "examples", "--negative-control")
        assert out.returncode == 1
        assert "FAIL" in out.stdout

    def test_random_negative_control_exit_1(self):
        # the random suite checks the same corrupted map: each family's
        # certificate fails, and its line names the check that failed
        out = run_cli("verify", "--suite", "random", "--seed", "7", "--negative-control")
        assert out.returncode == 1
        failing = [line for line in out.stdout.splitlines() if line.startswith("  FAIL")]
        kinds = ("regular", "double", "tensor-free", "hnn-free", "scaled")
        unital = "unital: image of 1_R is the identity matrix"
        assert failing == [f"  FAIL sigma-inverting [{kind}] :: {unital}" for kind in kinds]
        assert out.stdout.endswith("result: FAIL (20/25)\n")

    def test_reports_byte_identical(self):
        a = run_cli("verify", "--suite", "examples", "--seed", "99")
        b = run_cli("verify", "--suite", "examples", "--seed", "99")
        assert a.stdout == b.stdout and a.returncode == b.returncode == 0


class TestFractionFactor:
    def test_fraction(self):
        out = run_cli(
            "fraction", "--family", REGULAR, "--a0", "2", "--b0", "2", "--expr", "5*x[1]^3"
        )
        assert out.returncode == 0
        assert "numerator: 5" in out.stdout
        assert "denominator_exponent: 3" in out.stdout

    def test_factor(self):
        out = run_cli(
            "factor", "--family", REGULAR, "--a0", "2", "--b0", "2", "--expr", "5*x[1]^3"
        )
        assert out.returncode == 0
        assert "factored_value: 5/8" in out.stdout


class TestLocalize:
    def test_localize_ring(self):
        out = run_cli("localize-ring", "--family", DOUBLE)
        assert out.returncode == 0
        assert "certificate: pass" in out.stdout

    def test_localize_module(self, tmp_path):
        spec = tmp_path / "mod.json"
        spec.write_text(
            json.dumps(
                {
                    "family": {"kind": "regular", "ring": "Z"},
                    "NA": {"gens": 1, "rels": []},
                    "NB": {"gens": 1, "rels": []},
                    "f": {"1": [[2]]},
                }
            )
        )
        out = run_cli("localize-module", "--spec", str(spec))
        assert out.returncode == 0
        assert "free_rank: 1" in out.stdout
        assert "alpha_beta: pass" in out.stdout

    def test_localize_module_torsion(self, tmp_path):
        spec = tmp_path / "mod.json"
        spec.write_text(
            json.dumps(
                {
                    "family": {"kind": "regular", "ring": "Z"},
                    "NA": {"gens": 1, "rels": [[3]]},
                    "NB": {"gens": 0, "rels": []},
                    "f": {},
                }
            )
        )
        out = run_cli("localize-module", "--spec", str(spec), "--format", "json")
        doc = json.loads(out.stdout)
        assert doc["invariant_factors"] == ["3"]
        assert out.returncode == 0

    def test_failed_certificate_exit_1(self, monkeypatch, capsys):
        # a self-check that fails ends in exit 1 and one line, not a traceback
        from trilocal.cli import main
        from trilocal.linalg import DiagonalForm

        monkeypatch.setattr(DiagonalForm, "verify", lambda self: False)
        code = main(["localize-module", "--spec", str(ROOT / "tests" / "golden" / "module.json")])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "self-verification" in err and "Traceback" not in err

    def test_schema_violation_exit_2(self, tmp_path):
        spec = tmp_path / "bad.json"
        spec.write_text(json.dumps({"family": {"kind": "regular", "ring": "Z"}, "NA": {"gens": 1}}))
        out = run_cli("localize-module", "--spec", str(spec))
        assert out.returncode == 2

    def test_missing_file_exit_2(self):
        out = run_cli("localize-module", "--spec", "/nonexistent/mod.json")
        assert out.returncode == 2

    def test_empty_family_exit_2(self):
        # an empty --family is a descriptor that is not JSON, as for every
        # other command; it does not fall back to the spec's family
        out = run_cli("localize-module", "--spec", str(ROOT / "tests" / "golden" / "module.json"), "--family", "")
        assert out.returncode == 2
        assert out.stderr.startswith("error: ") and out.stderr.count("\n") == 1
        assert out.stdout == ""


class TestGrammarRoundTripViaCli:
    def test_normalize_output_reparses(self):
        first = run_cli("normalize", "--family", DOUBLE, "--expr", "(1 + x[(0,1)])^2", "--format", "json")
        doc = json.loads(first.stdout)
        second = run_cli("normalize", "--family", DOUBLE, "--expr", doc["normal_form"], "--format", "json")
        assert json.loads(second.stdout)["normal_form"] == doc["normal_form"]


def _bad_spec(entry_rels, entry_f):
    return {
        "family": {"kind": "regular", "ring": "Z"},
        "NA": {"gens": 1, "rels": [[entry_rels]]},
        "NB": {"gens": 1, "rels": []},
        "f": {"1": [[entry_f]]},
    }


class TestMalformedInputExit2:
    DEEP = 5000

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["normalize", "--family", SCALED, "--expr", "(" * DEEP + "x[3]" + ")" * DEEP], "nest deeper"),
            (["rho", "--family", TENSOR, "--component", "A", "--value", "(" * DEEP + "s" + ")" * DEEP], "nest deeper"),
            (["rho", "--family", TENSOR, "--component", "A", "--value", "1/0"], "zero denominator"),
            (["rho", "--family", HNN, "--component", "A", "--value", "1/0"], "zero denominator"),
            (["localize-module", "--spec", _bad_spec("1/0", 1)], "'1/0'"),
            (["localize-module", "--spec", _bad_spec(0, "a/b")], "'a/b'"),
            (["fraction", "--family", REGULAR, "--a0", "2", "--b0", "3", "--expr", "x[1]"], "not a central pair"),
            (["factor", "--family", REGULAR, "--a0", "2", "--b0", "3", "--expr", "x[1]"], "not a central pair"),
        ],
        ids=[
            "nested-normalize", "nested-rho-a", "zero-den-tensor", "zero-den-hnn", "spec-1/0", "spec-a/b",
            "fraction-not-central", "factor-not-central",
        ],
    )
    def test_one_line_error(self, argv, message, tmp_path):
        if argv[0] == "localize-module":
            spec = tmp_path / "bad.json"
            spec.write_text(json.dumps(argv[2]))
            argv = argv[:2] + [str(spec)]
        out = run_cli(*argv)
        assert out.returncode == 2
        assert out.stderr.startswith("error: ") and out.stderr.count("\n") == 1
        assert message in out.stderr

    REGULAR_SPEC = '{"family": {"kind": "regular", "ring": "Z"}, "NA": {"gens": 1%s}, "NB": {"gens": 1}%s}'

    @pytest.mark.parametrize(
        "where, text, message",
        [
            ("--family", "[" * DEEP + "]" * DEEP, "--family nests too deeply"),
            ("@file", "[" * DEEP + "]" * DEEP, "family file nests too deeply"),
            ("--spec", "[" * DEEP + "]" * DEEP, "module spec nests too deeply"),
            ("--spec", '"family"', "must be a JSON object"),
            ("--spec", '["family"]', "must be a JSON object"),
            ("--spec", REGULAR_SPEC % (', "rels": 5', ""), "NA.rels must be a list of rows"),
            ("--spec", REGULAR_SPEC % (', "rels": [5]', ""), "NA.rels must be a list of rows"),
            ("--spec", REGULAR_SPEC % ("", ', "f": {"1": [5]}'), "f['1'] must be a list of rows"),
        ],
        ids=["deep-family", "deep-family-file", "deep-spec", "spec-string", "spec-list", "rels-5", "rels-[5]", "f-row-5"],
    )
    def test_malformed_json_one_line_error(self, where, text, message, tmp_path):
        path = tmp_path / "input.json"
        path.write_text(text)
        argv = {
            "--family": ["normalize", "--family", text, "--expr", "1"],
            "@file": ["normalize", "--family", f"@{path}", "--expr", "1"],
            "--spec": ["localize-module", "--spec", str(path)],
        }[where]
        out = run_cli(*argv)
        assert out.returncode == 2
        assert out.stderr.startswith("error: ") and out.stderr.count("\n") == 1
        assert message in out.stderr



def _spec_bytes(doc):
    return json.dumps(doc).encode()


def _q_spec(entry):
    """A double-Q spec whose one N_A relation entry is entry."""
    return {"family": {"kind": "double", "ring": "Q"}, "NA": {"gens": 1, "rels": [[entry]]}, "NB": {"gens": 1}}


class TestBoundaryInputExit2:
    """Input that the scalar rule, the tokenizer, the JSON loader or the
    change-of-p check rejects ends in exit 2 and one line, in-process."""

    BIG = "9" * 5000
    FREE_PAIR = ["--a0", "2", "--b0", "2", "--expr", "x[1]"]

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["fraction", "--family", '{"kind":"tensor-free","ring":"Q","A_gens":["s"],"B_gens":["u"]}', *FREE_PAIR],
             "changing p is not supported for tensor-free"),
            (["factor", "--family", HNN, *FREE_PAIR], "changing p is not supported for hnn-free"),
            (["localize-module", "--spec", _spec_bytes(_bad_spec(0, "1/2"))], "must be integers, got 1/2"),
            (["localize-module", "--spec", _spec_bytes(_bad_spec(True, 1))], "not a scalar of Z: True"),
            (["localize-module", "--spec", _spec_bytes({**_bad_spec(0, 1), "NA": {"gens": True}})], "got True"),
            (["localize-module", "--spec", b'{"NA": {"gens": 1, "rels": [[%s]]}}' % BIG.encode()], "not valid JSON"),
            (["localize-module", "--spec", b'{"NA": "\xff"}'], "not valid JSON"),
            (["normalize", "--family", SCALED, "--expr", f"x[{BIG}]"], "5000 digits is too long at offset 2"),
            (["normalize", "--family", SCALED, "--expr", "x[²]"], "unexpected character '²' at offset 2"),
            (["normalize", "--family", SCALED, "--expr", "x[٣]"], "unexpected character '٣' at offset 2"),
            # int() alone reads these p/q entries as 3/2, 10/3 and 3/2
            (["localize-module", "--spec", _spec_bytes(_q_spec("٣/2"))], "entry '٣/2' is not a rational p/q of ASCII digits"),
            (["localize-module", "--spec", _spec_bytes(_q_spec("1_0/3"))], "entry '1_0/3' is not a rational p/q"),
            (["localize-module", "--spec", _spec_bytes(_q_spec(" 3/2"))], "entry ' 3/2' is not a rational p/q"),
            # each descriptor below built a family before generator names were checked
            (["normalize", "--family", '{"kind":"hnn-free","A_gens":"st"}', "--expr", "x[h(s,t)]"],
             "A_gens must be a list of generator names"),
            (["normalize", "--family", '{"kind":"tensor-free","A_gens":{"s":1},"B_gens":["u"]}', "--expr", "1"],
             "A_gens must be a list of generator names"),
            (["normalize", "--family", '{"kind":"tensor-free","A_gens":["s"],"B_gens":"uv"}', "--expr", "1"],
             "B_gens must be a list of generator names"),
            (["normalize", "--family", '{"kind":"hnn-free","A_gens":["s t"]}', "--expr", "1"],
             "generator name 's t' in A_gens is not one identifier"),
            (["normalize", "--family", '{"kind":"hnn-free","A_gens":[""]}', "--expr", "1"],
             "generator name '' in A_gens is not one identifier"),
            (["normalize", "--family", '{"kind":"hnn-free","A_gens":["s"],"x_name":"y z"}', "--expr", "1"],
             "generator name 'y z' in x_name is not one identifier"),
            (["normalize", "--family", '{"kind":"hnn-free","A_gens":["s"],"x_name":"1"}', "--expr", "1"],
             "generator name '1' in x_name is not one identifier"),
            # a field the schema does not name was ignored, and the run exited 0
            (["normalize", "--family", '{"kind":"tensor-free","ring":"Q","A_gens":["s"],"B_gen":["u","v"]}', "--expr", "1"],
             "unknown field 'B_gen' in tensor-free family descriptor"),
            (["normalize", "--family", '{"kind":"scaled","k":2,"ring":"Q"}', "--expr", "x[3]"],
             "unknown field 'ring' in scaled family descriptor"),
            (["localize-module", "--spec", _spec_bytes({**_bad_spec(0, 1), "NA": {"gens": 1, "relations": [[3]]}})],
             "unknown field 'relations' in NA"),
            (["localize-module", "--spec", _spec_bytes({**_bad_spec(0, 1), "F": {}})], "unknown field 'F' in module spec"),
            # a negative budget was read as exhausted (exit 3) or ignored (exit 0)
            (["normalize", "--family", SCALED, "--expr", "x[3]", "--budget", "-1"],
             "--budget must be a non-negative integer, got -1"),
            (["rho", "--family", REGULAR, "--component", "A", "--value", "3", "--budget", "-1"],
             "--budget must be a non-negative integer, got -1"),
            (["verify", "--budget", "-5"], "--budget must be a non-negative integer, got -5"),
            (["fraction", "--family", REGULAR, "--a0", "2", "--b0", "2", "--expr", "x[1]", "--budget", "-2"],
             "--budget must be a non-negative integer, got -2"),
            (["factor", "--family", REGULAR, "--a0", "2", "--b0", "2", "--expr", "x[1]", "--budget", "-2"],
             "--budget must be a non-negative integer, got -2"),
            (["localize-ring", "--family", REGULAR, "--budget", "-1"], "--budget must be a non-negative integer, got -1"),
            (["localize-module", "--spec", (ROOT / "tests" / "golden" / "module.json").read_bytes(), "--budget", "-1"],
             "--budget must be a non-negative integer, got -1"),
        ],
        ids=[
            "fraction-tensor-free", "factor-hnn-free", "f-rational-over-Z", "rel-true", "gens-true",
            "spec-5000-digits", "spec-not-utf8", "expr-5000-digits", "expr-superscript-two", "expr-arabic-three",
            "spec-arabic-three", "spec-underscore", "spec-blank",
            "a-gens-string", "a-gens-object", "b-gens-string", "name-blank-inside", "name-empty", "x-name-blank-inside",
            "x-name-digit", "family-field-b-gen", "family-field-ring", "spec-field-relations", "spec-field-f",
            "normalize-negative-budget", "rho-negative-budget", "verify-negative-budget", "fraction-negative-budget",
            "factor-negative-budget", "ring-negative-budget", "module-negative-budget",
        ],
    )
    def test_one_line_error(self, argv, message, tmp_path, capsys):
        from trilocal.cli import main

        if argv[0] == "localize-module":
            spec = tmp_path / "bad.json"
            spec.write_bytes(argv[2])
            argv = argv[:2] + [str(spec)] + argv[3:]
        code = main(argv)
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ") and err.count("\n") == 1
        assert message in err

    def test_zero_budget_is_valid_input(self, capsys):
        from trilocal.cli import main

        # zero steps exhaust on the first letter (exit 3); a command that
        # reads no budget runs as usual
        assert main(["normalize", "--family", SCALED, "--expr", "x[3]", "--budget", "0"]) == 3
        assert main(["localize-ring", "--family", REGULAR, "--budget", "0"]) == 0
        capsys.readouterr()

    def test_signed_ascii_entry_localizes(self, tmp_path, capsys):
        from trilocal.cli import main

        spec = tmp_path / "spec.json"
        spec.write_bytes(_spec_bytes(_q_spec("-3/+2")))
        assert main(["localize-module", "--spec", str(spec)]) == 0
        capsys.readouterr()


class TestMalformedCommandLineExit2:
    """argparse's usage errors keep the exit contract: one error: line and
    exit 2, returned by main rather than raised as SystemExit."""

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["simplify", "--expr", "x[3]"], "trilocal: argument command: invalid choice: 'simplify'"),
            (["normalize", "--family", SCALED], "trilocal normalize: the following arguments are required: --expr"),
            (["normalize", "--family", SCALED, "--expr", "-x[3]"], "trilocal normalize: argument --expr: expected one argument"),
        ],
        ids=["unknown-subcommand", "missing-expr", "expr-starting-with-minus"],
    )
    def test_one_line_error(self, argv, message, capsys):
        from trilocal.cli import main

        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err.startswith(f"error: {message}") and captured.err.count("\n") == 1

    def test_value_starting_with_minus_is_written_with_equals(self, capsys):
        from trilocal.cli import main

        assert main(["normalize", "--family", SCALED, "--expr=-x[3]"]) == 0
        assert "normal_form: -3*x[1]" in capsys.readouterr().out

    def test_process_exits_2(self):
        out = run_cli("normalize", "--family", SCALED, "--expr", "-x[3]")
        assert out.returncode == 2 and out.stdout == ""
        assert out.stderr == "error: trilocal normalize: argument --expr: expected one argument\n"


class TestHelpReturns0:
    """-h/--help prints the usage and returns 0 from main, as every other
    outcome of main is a return code; the text is the console script's."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["--help"],
            *([command, "--help"] for command in (
                "normalize", "rho", "verify", "fraction", "factor", "localize-ring", "localize-module",
            )),
            ["normalize", "-h"],
        ],
        ids=lambda argv: " ".join(argv),
    )
    def test_help_returns_0(self, argv, capsys, monkeypatch):
        from trilocal.cli import main

        monkeypatch.setenv("COLUMNS", "80")  # argparse wraps the help at the terminal width
        assert main(argv) == 0
        captured = capsys.readouterr()
        assert captured.err == "" and captured.out.startswith("usage: trilocal")
        out = run_cli(*argv)
        assert out.returncode == 0 and out.stdout == captured.out
