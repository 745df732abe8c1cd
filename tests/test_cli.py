import contextlib
import io
import math
import os
import re
import subprocess
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import geodrev
from geodrev import (
    LinearForm,
    PhiFunction,
    path_distance,
)
from geodrev import cli, config, metric, reversibility
from geodrev.cli import main
from geodrev.config import ConfigError, ExperimentConfig, load_config, parse_config
from geodrev.geodesics import _norm_batch
from geodrev.metric import PHI_TEXTS
from geodrev.scalarfield import MAX_DEPTH, ScalarField, parse_expr

from oracles import calE, calF, finsler_norm, integrate

README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")

CLASS_A_CONFIG = """
# reversible: even-plus-linear profile over a closed form
[metric]
nu = "-ln(1 + (x1^2 + x2^2)/4)"
x1min = -1.5
x1max = 1.5
x2min = -1.5
x2max = 1.5

[form]
b1 = "0.1*x2"
b2 = "0.1*x1"

[phi]
kind = "randers"
b0 = 0.9
"""

CLASS_B_CONFIG = """
[metric]
nu = "0"
x1min = -1.0
x1max = 1.0
x2min = -1.0
x2max = 1.0

[form]
b1 = "0.2"
b2 = "0.1"

[phi]
kind = "matsumoto"
b0 = 0.4
"""

IRREVERSIBLE_CONFIG = """
[metric]
nu = "0"
x1min = -1.0
x1max = 1.0
x2min = -1.0
x2max = 1.0

[form]
b1 = "0.2 + 0.1*x1"
b2 = "0"

[phi]
kind = "matsumoto"
b0 = 0.4
"""

SCAN_CONFIG = """
[metric]
nu = "0"
x1min = -1.0
x1max = 1.0
x2min = -1.0
x2max = 1.0

[form]
b1 = "0.3"
b2 = "0"

[phi]
kind = "matsumoto"
b0 = 0.4

[sampling]
n_x1 = 9
n_x2 = 9
n_t = 16
n_s = 13
"""


# ln(x1) is undefined on half of the rectangle
LN_NU_CONFIG = CLASS_B_CONFIG.replace('nu = "0"', 'nu = "ln(x1)"')

# A peak of b1 between the validation grid's points: validation passes, but
# b exceeds b0 near x1 = 1/62, where geodesics lose convexity.
PEAKED_B1_CONFIG = IRREVERSIBLE_CONFIG.replace(
    'b1 = "0.2 + 0.1*x1"', 'b1 = "0.2 + 0.1*x1 + 0.3*exp(-200000*(x1-0.0161290322)^2)"'
)

# E is below its threshold on the small grid |s| <= b_sup = 0.014, but the
# s^5 term makes the odd part of phi no multiple of s on (0, b0).
INCONSISTENT_CONFIG = """
[metric]
nu = "0"
x1min = -1.0
x1max = 1.0
x2min = -1.0
x2max = 1.0

[form]
b1 = "0.01*x2"
b2 = "0.01*x1"

[phi]
kind = "expr"
expr = "1 + s^2 + 0.3*s + 0.000001*s^5"
b0 = 0.4
"""


def write(tmp_path, text, name="exp.cfg"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


class TestConfigParsing:
    def test_full_round_trip(self, tmp_path):
        cfg = parse_config(CLASS_B_CONFIG)
        assert cfg.phi == parse_expr(PHI_TEXTS["matsumoto"], ("s",))
        assert cfg.b0 == 0.4
        assert cfg.sampling.n_t == 64
        bundle = cfg.build_bundle()
        assert bundle.validate().passed

    def test_missing_key_reports_section(self):
        broken = CLASS_B_CONFIG.replace('b2 = "0.1"', "")
        with pytest.raises(ConfigError) as info:
            parse_config(broken)
        assert "b2" in str(info.value)

    def test_bad_line_reports_number(self):
        broken = CLASS_B_CONFIG.replace('b1 = "0.2"', 'b1 "0.2"')
        with pytest.raises(ConfigError) as info:
            parse_config(broken)
        assert info.value.line > 0
        assert f"line {info.value.line}" in str(info.value)

    def test_b0_range_enforced(self):
        with pytest.raises(ConfigError):
            parse_config(CLASS_B_CONFIG.replace("b0 = 0.4", "b0 = 1.5"))

    def test_small_sampling_rejected(self):
        with pytest.raises(ConfigError):
            parse_config(SCAN_CONFIG.replace("n_t = 16", "n_t = 4"))

    def test_bad_expression_rejected(self):
        with pytest.raises(ConfigError):
            parse_config(CLASS_B_CONFIG.replace('"0.2"', '"0.2 + q"'))

    def test_bad_expression_names_its_line(self):
        b1_line = CLASS_B_CONFIG.splitlines().index('b1 = "0.2"') + 1
        with pytest.raises(ConfigError) as info:
            parse_config(CLASS_B_CONFIG.replace('"0.2"', '"0.2 + q"'))
        assert info.value.line == b1_line
        assert str(info.value).startswith(f"line {b1_line}: bad expression for b1: ")

    def test_each_expression_is_parsed_once(self, tmp_path, monkeypatch):
        calls = []

        def counting_parse_expr(text, allowed_vars):
            calls.append(text)
            return parse_expr(text, allowed_vars)

        monkeypatch.setattr(geodrev.scalarfield, "parse_expr", counting_parse_expr)
        monkeypatch.setattr(config, "parse_expr", counting_parse_expr, raising=False)
        load_config(write(tmp_path, CLASS_B_CONFIG)).build_bundle()
        assert len(calls) == 4  # nu, b1, b2 and phi

    def test_bundle_builds_only_the_derivatives_it_reads(self, tmp_path, monkeypatch):
        variables = []
        original = ScalarField.diff

        def counting_diff(self, name):
            variables.append(name)
            return original(self, name)

        monkeypatch.setattr(ScalarField, "diff", counting_diff)
        load_config(write(tmp_path, CLASS_B_CONFIG)).build_bundle()
        # nu_1, nu_2, the four first partials of b1 and b2, phi' and phi''
        assert sorted(variables) == ["s", "s", "x1", "x1", "x1", "x2", "x2", "x2"]

    def test_duplicate_key_names_its_second_line(self):
        b1_line = CLASS_B_CONFIG.splitlines().index('b1 = "0.2"') + 1
        text = CLASS_B_CONFIG.replace('b1 = "0.2"', 'b1 = "0.2"\nb1 = "0.3"')
        with pytest.raises(ConfigError) as info:
            parse_config(text)
        assert info.value.line == b1_line + 1
        assert str(info.value) == f"line {b1_line + 1}: duplicate key 'b1', first given on line {b1_line}"

    def test_duplicate_section_names_its_second_line(self):
        text = CLASS_B_CONFIG + '\n[metric]\nnu = "x1"\n'
        second = text.splitlines().index("[metric]", text.splitlines().index("[metric]") + 1) + 1
        with pytest.raises(ConfigError) as info:
            parse_config(text)
        assert str(info.value) == f"line {second}: duplicate section [metric]"

    def test_comments_and_quotes(self):
        cfg = parse_config(CLASS_A_CONFIG)
        assert cfg.nu == parse_expr("-ln(1 + (x1^2 + x2^2)/4)", ("x1", "x2"))

    @pytest.mark.parametrize(
        "key, value",
        [
            ("x1max", "nan"),
            ("x1max", "1" + "0" * 400),   # an integer beyond the float range
            ("b0", "inf"),
            ("eps_zero", "nan"),
            ("T", "nan"),
            ("T", "inf"),
            ("T", "1e400"),
            ("h", "-inf"),
        ],
    )
    def test_non_finite_float_rejected(self, tmp_path, capsys, key, value):
        text = CLASS_B_CONFIG + "\n[sampling]\neps_zero = 1e-6\n\n[geodesics]\nT = 1.0\nh = 0.001\n"
        lines = text.splitlines()
        number = next(i for i, line in enumerate(lines, start=1) if line.startswith(f"{key} ="))
        lines[number - 1] = f"{key} = {value}"
        code = main(["classify", write(tmp_path, "\n".join(lines))])
        err = capsys.readouterr().err
        assert code == 1
        assert f"line {number}: key {key!r} must be a finite number" in err

    @pytest.mark.parametrize(
        "key, value, message",
        [
            ("kind", '"finsler"', "phi kind must be randers, matsumoto or expr, got 'finsler'"),
            ("b0", "0", "b0 must lie in (0, 1]"),
            ("b0", "1.5", "b0 must lie in (0, 1]"),
            ("n_x1", "7", "sampling count n_x1 must lie in [8, 1000]"),
            ("n_x1", "1001", "sampling count n_x1 must lie in [8, 1000]"),
            ("n_x2", "0", "sampling count n_x2 must lie in [8, 1000]"),
            ("n_x2", "1001", "sampling count n_x2 must lie in [8, 1000]"),
            ("n_t", "4", "sampling count n_t must lie in [8, 1000]"),
            ("n_t", "1001", "sampling count n_t must lie in [8, 1000]"),
            ("n_s", "-1", "sampling count n_s must lie in [8, 100000]"),
            ("n_s", "100001", "sampling count n_s must lie in [8, 100000]"),
            ("n_s", "100000000000000", "sampling count n_s must lie in [8, 100000]"),
            ("eps_zero", "0", "eps_zero must be positive"),
            ("T", "-1.0", "T and h must be positive"),
            ("h", "0", "T and h must be positive"),
            ("n_x1", "21.5", "key 'n_x1' must be an integer"),
            ("nu", "0", "key 'nu' must be a quoted string"),
            ("b0", '"0.4"', "key 'b0' must be a number"),
        ],
    )
    def test_out_of_range_value_names_its_line(self, tmp_path, capsys, key, value, message):
        text = SCAN_CONFIG + "eps_zero = 1e-6\n\n[geodesics]\nT = 1.0\nh = 0.001\n"
        lines = text.splitlines()
        number = next(i for i, line in enumerate(lines, start=1) if line.startswith(f"{key} ="))
        lines[number - 1] = f"{key} = {value}"
        assert main(["classify", write(tmp_path, "\n".join(lines))]) == 1
        assert capsys.readouterr().err == f"config error: line {number}: {message}\n"

    @pytest.mark.parametrize(
        "bad, message",
        [
            ("x1max = -1.0", "x1max = -1.0 is not above x1min = -1.0"),
            ("x2max = -2.5", "x2max = -2.5 is not above x2min = -1.0"),
        ],
    )
    def test_empty_domain_rectangle_names_its_line(self, tmp_path, capsys, bad, message):
        text = CLASS_B_CONFIG.replace(bad.split(" =")[0] + " = 1.0", bad)
        number = text.splitlines().index(bad) + 1
        assert main(["validate", write(tmp_path, text)]) == 1
        assert capsys.readouterr().err == (
            f"config error: line {number}: domain rectangle must have positive extent: {message}\n"
        )

    @pytest.mark.parametrize("kind", ["randers", "matsumoto"])
    def test_expr_with_a_named_kind_names_its_line(self, tmp_path, capsys, kind):
        text = CLASS_A_CONFIG.replace('kind = "randers"', f'kind = "{kind}"\nexpr = "1 + s^2"')
        number = text.splitlines().index('expr = "1 + s^2"') + 1
        assert main(["classify", write(tmp_path, text)]) == 1
        assert capsys.readouterr().err == (
            f'config error: line {number}: phi expr is read only when kind is "expr", got kind {kind!r}\n'
        )

    @pytest.mark.parametrize(
        "extra, bad, message",
        [
            ("[sampling]\nnx1 = 42", "nx1 = 42", "unknown key 'nx1' in section [sampling]"),
            ("[geodesic]\nT = 5.0", "[geodesic]", "unknown section [geodesic]"),
        ],
    )
    def test_unknown_key_or_section_names_its_line(self, tmp_path, capsys, extra, bad, message):
        text = CLASS_B_CONFIG + "\n" + extra + "\n"
        number = text.splitlines().index(bad) + 1
        assert main(["classify", write(tmp_path, text)]) == 1
        assert capsys.readouterr().err == f"config error: line {number}: {message}\n"

    def test_readme_example_documents_every_key(self):
        """Every key of the format but the ignored seeds appears in the README example."""
        with open(README, encoding="utf-8") as handle:
            block = handle.read().split("```ini\n", 1)[1].split("```", 1)[0]
        documented, section = set(), None
        for line in block.splitlines():
            if line.startswith("["):
                section = line[1 : line.index("]")]
            elif match := re.match(r"(?:# )?(\w+) =", line):
                documented.add((section, match.group(1)))
        keys = {(name, key) for name, rows in config.FORMAT.items() for key in rows}
        assert documented == keys - {("geodesics", "seeds")}

    def test_former_seeds_key_is_ignored(self, tmp_path, capsys):
        """A config that still carries [geodesics] seeds loads and classifies as before."""
        with_seeds = CLASS_A_CONFIG + "\n[geodesics]\nT = 1.0\nseeds = 8\n"
        cfg = parse_config(with_seeds)
        assert not hasattr(cfg, "seeds")
        assert cfg == parse_config(CLASS_A_CONFIG)
        outputs = []
        for name, text in (("plain.cfg", CLASS_A_CONFIG), ("seeds.cfg", with_seeds)):
            assert main(["classify", write(tmp_path, text, name)]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]
        assert outputs[0].startswith("verdict: ClassA")

    def test_readme_example_validates_and_classifies(self, tmp_path, capsys):
        """The documented format cannot drift from the parser."""
        with open(README, encoding="utf-8") as handle:
            block = handle.read().split("```ini\n", 1)[1].split("```", 1)[0]
        path = write(tmp_path, block)
        for command in ("validate", "classify"):
            assert main([command, path]) == 0, capsys.readouterr().err


class TestValidateCommand:
    def test_passing_config(self, tmp_path, capsys):
        code = main(["validate", write(tmp_path, CLASS_A_CONFIG)])
        out = capsys.readouterr().out
        assert code == 0
        assert "min_margin_ec1 = 1" in out
        assert "PASS" in out

    def test_degenerate_profile_fails(self, tmp_path, capsys):
        bad = CLASS_B_CONFIG.replace('kind = "matsumoto"', 'kind = "expr"\nexpr = "s"')
        code = main(["validate", write(tmp_path, bad)])
        out = capsys.readouterr().out
        assert code == 2
        assert "FAIL" in out
        assert "witness" in out

    def test_missing_key_is_config_error(self, tmp_path, capsys):
        broken = CLASS_B_CONFIG.replace('b2 = "0.1"', "")
        code = main(["validate", write(tmp_path, broken)])
        assert code == 1
        assert "config error" in capsys.readouterr().err

    def test_missing_file(self, capsys):
        assert main(["validate", "/nonexistent/path.cfg"]) == 1

    def test_margin_csv(self, tmp_path, capsys):
        out_csv = tmp_path / "margins.csv"
        code = main(["validate", write(tmp_path, SCAN_CONFIG), "--out", str(out_csv)])
        assert code == 0
        lines = out_csv.read_text().splitlines()
        assert lines[0] == "s,b,ec1_margin"
        assert len(lines) > 64


class TestClassifyCommand:
    @pytest.mark.parametrize(
        "config,expected",
        [
            (CLASS_A_CONFIG, "ClassA"),
            (CLASS_B_CONFIG, "ClassB"),
            (IRREVERSIBLE_CONFIG, "Irreversible"),
        ],
    )
    def test_witness_verdicts(self, tmp_path, capsys, config, expected):
        code = main(["classify", write(tmp_path, config)])
        out = capsys.readouterr().out
        assert code == 0
        assert f"verdict: {expected}" in out
        assert "residual_max" in out

    def test_verdict_stable_under_doubled_sampling(self, tmp_path, capsys):
        doubled = IRREVERSIBLE_CONFIG + (
            "\n[sampling]\nn_x1 = 42\nn_x2 = 42\nn_t = 128\nn_s = 402\n"
        )
        code = main(["classify", write(tmp_path, doubled)])
        out = capsys.readouterr().out
        assert code == 0
        assert "verdict: Irreversible" in out

    def test_invalid_bundle_exits_2(self, tmp_path, capsys):
        bad = CLASS_B_CONFIG.replace('b1 = "0.2"', 'b1 = "0.5"')
        code = main(["classify", write(tmp_path, bad)])
        assert code == 2


class TestScanCommand:
    def test_e_scan_hits_reference_value(self, tmp_path):
        out_csv = tmp_path / "escan.csv"
        code = main(["scan", write(tmp_path, SCAN_CONFIG), "--what", "E", "--out", str(out_csv)])
        assert code == 0
        lines = out_csv.read_text().splitlines()
        assert lines[0] == "s,E,F"
        rows = [tuple(float(v) for v in line.split(",")) for line in lines[1:]]
        assert len(rows) == 13
        s_row = rows[8]  # s = 0.1 on the 13-point grid over [-0.3, 0.3]
        assert s_row[0] == pytest.approx(0.1, abs=1e-12)
        assert s_row[1] == pytest.approx(1.23673, abs=1e-4)
        phi = PhiFunction.matsumoto(0.4)
        assert s_row[1] == pytest.approx(float(calE(phi, s_row[0])), rel=1e-15)
        assert s_row[2] == pytest.approx(float(calF(phi, s_row[0], 0.3)), rel=1e-15)

    def test_residual_scan_vanishes_for_class_b(self, tmp_path):
        out_csv = tmp_path / "residual.csv"
        cfg = write(tmp_path, CLASS_B_CONFIG)
        code = main(["scan", cfg, "--what", "residual", "--out", str(out_csv)])
        assert code == 0
        lines = out_csv.read_text().splitlines()
        assert lines[0] == "x1,x2,t,residual"
        values = np.array([float(line.split(",")[3]) for line in lines[1:]])
        assert values.size == 21 * 21 * 64
        assert float(np.max(np.abs(values))) <= 1e-9

    def test_crosscheck_scan_gap(self, tmp_path):
        out_csv = tmp_path / "cross.csv"
        cfg = write(tmp_path, IRREVERSIBLE_CONFIG + "\n[sampling]\nn_x1 = 9\nn_x2 = 9\nn_t = 16\n")
        code = main(["scan", cfg, "--what", "crosscheck", "--out", str(out_csv)])
        assert code == 0
        lines = out_csv.read_text().splitlines()
        assert lines[0] == "x1,x2,t,direct,closed_form,gap"
        rows = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
        live = np.abs(rows[:, 3]) > 1e-9
        assert float(np.max(rows[live, 5])) <= 1e-6

    def test_scan_is_deterministic(self, tmp_path):
        cfg = write(tmp_path, SCAN_CONFIG)
        first = tmp_path / "a.csv"
        second = tmp_path / "b.csv"
        assert main(["scan", cfg, "--what", "F", "--out", str(first)]) == 0
        assert main(["scan", cfg, "--what", "F", "--out", str(second)]) == 0
        assert first.read_bytes() == second.read_bytes()

    def test_unwritable_output(self, tmp_path):
        cfg = write(tmp_path, SCAN_CONFIG)
        code = main(["scan", cfg, "--what", "E", "--out", "/nonexistent/dir/out.csv"])
        assert code == 1


OUT_ARGVS = pytest.mark.parametrize(
    "argv",
    [
        ["validate", "--out"],
        ["scan", "--what", "E", "--out"],
        ["geodesic", "--x0", "0,0", "--y0", "1,0", "--T", "0.01", "--out"],
    ],
    ids=["validate", "scan", "geodesic"],
)


@OUT_ARGVS
def test_unwritable_output_is_one_io_error(tmp_path, capsys, argv):
    path = "/nonexistent/x.csv"
    code = main([argv[0], write(tmp_path, CLASS_B_CONFIG), *argv[1:], path])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("i/o error:")
    assert path in err


@OUT_ARGVS
def test_empty_output_path_is_an_io_error(tmp_path, monkeypatch, capsys, argv):
    # every command treats a given --out as a path, even an empty one
    cfg = write(tmp_path, CLASS_B_CONFIG)
    monkeypatch.chdir(tmp_path)
    assert main([argv[0], cfg, *argv[1:], ""]) == 1
    assert capsys.readouterr().err == "i/o error: [Errno 2] No such file or directory: ''\n"
    assert os.listdir(tmp_path) == ["exp.cfg"]


class TestFailedScanLeavesNoFile:
    # nu's x1-partial divides by zero only on the row x1 = 1.0, which lies in
    # the last of the scan's blocks; validation evaluates nu alone and passes.
    CONFIG = IRREVERSIBLE_CONFIG.replace('nu = "0"', 'nu = "0.1*sqrt(1 - x1)"')

    def test_late_block_failure(self, tmp_path, capsys, monkeypatch):
        path = write(tmp_path, self.CONFIG)
        assert main(["validate", path]) == 0
        written = []
        grid_text = cli._grid_text
        monkeypatch.setattr(cli, "_grid_text", lambda block: written.append(len(block)) or grid_text(block))
        out = tmp_path / "r.csv"
        argv = ["scan", path, "--what", "residual", "--out", str(out)]
        capsys.readouterr()
        assert main(argv) == 1
        assert capsys.readouterr().err == "config error: division by zero at x1=1.0, x2=-1.0\n"
        # three blocks of 128 base points went to the temporary file, now gone
        assert written == [128, 128, 128]
        assert os.listdir(tmp_path) == ["exp.cfg"]
        # a CSV already at --out stays as it was
        assert main(["scan", write(tmp_path, IRREVERSIBLE_CONFIG, "ok.cfg"), *argv[2:]]) == 0
        before = out.read_bytes()
        assert main(argv) == 1
        assert out.read_bytes() == before
        assert sorted(os.listdir(tmp_path)) == ["exp.cfg", "ok.cfg", "r.csv"]


class TestGeodesicCommand:
    def test_class_b_run(self, tmp_path, capsys):
        out_csv = tmp_path / "path.csv"
        cfg = write(tmp_path, CLASS_B_CONFIG)
        code = main(
            ["geodesic", cfg, "--x0", "0,0", "--y0", "1,0.5", "--T", "0.5", "--out", str(out_csv)]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "reversibility_error" in out
        error = float(out.split("=")[1])
        assert error <= 1e-6
        lines = out_csv.read_text().splitlines()
        assert lines[0] == "step,x1,x2"
        assert len(lines) == 502
        rev = (tmp_path / "path_rev.csv").read_text().splitlines()
        assert rev[0] == "step,x1,x2"
        # straight path: all samples on the line through the origin
        rows = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
        cross = rows[:, 1] * 0.5 - rows[:, 2] * 1.0
        assert float(np.max(np.abs(cross))) <= 1e-8

    @pytest.mark.parametrize(
        "out, rev",
        [("./gplain", "gplain_rev"), ("run.d/path", "run.d/path_rev")],
        ids=["no_extension", "dotted_directory"],
    )
    def test_rev_path_takes_the_file_names_extension(self, tmp_path, monkeypatch, capsys, out, rev):
        (tmp_path / "run.d").mkdir()
        (tmp_path / "run_rev.d").mkdir()
        cfg = write(tmp_path, CLASS_B_CONFIG)
        monkeypatch.chdir(tmp_path)
        code = main(["geodesic", cfg, "--x0", "0,0", "--y0", "0.5,0", "--T", "0.01", "--out", out])
        assert code == 0
        assert capsys.readouterr().err == ""
        forward = (tmp_path / out).read_text().splitlines()
        backward = (tmp_path / rev).read_text().splitlines()
        assert len(forward) == len(backward) == 12
        # the _rev path starts where the forward path ends
        assert backward[1].split(",")[1:] == forward[-1].split(",")[1:]
        assert list((tmp_path / "run_rev.d").iterdir()) == []

    def test_truncation_exit_code(self, tmp_path, capsys):
        tiny = CLASS_B_CONFIG.replace("-1.0", "-0.05").replace("1.0", "0.05")
        cfg = write(tmp_path, tiny, "tiny.cfg")
        out_csv = tmp_path / "path.csv"
        code = main(
            ["geodesic", cfg, "--x0", "0,0", "--y0", "1,0", "--T", "1.0", "--out", str(out_csv)]
        )
        assert code == 3
        assert "truncated" in capsys.readouterr().err

    def test_bad_vector_argument(self, tmp_path, capsys):
        cfg = write(tmp_path, CLASS_B_CONFIG)
        code = main(["geodesic", cfg, "--x0", "0", "--y0", "1,0", "--out", str(tmp_path / "p.csv")])
        assert code == 1

    def test_negative_pairs_in_both_spellings(self, tmp_path, capsys):
        cfg = write(tmp_path, CLASS_B_CONFIG)
        outputs = []
        for name, pairs in (
            ("spaced", ["--x0", "-0.5,0", "--y0", "-1,0"]),
            ("joined", ["--x0=-0.5,0", "--y0=-1,0"]),
            ("leading_dot", ["--x0", "-.5,0", "--y0", "-1,-0"]),
        ):
            out_csv = tmp_path / f"{name}.csv"
            code = main(["geodesic", cfg, *pairs, "--T", "0.2", "--out", str(out_csv)])
            assert code == 0
            outputs.append((out_csv.read_bytes(), capsys.readouterr().out))
        assert outputs[0] == outputs[1] == outputs[2]
        first = outputs[0][0].splitlines()[1]
        assert first == b"0,-0.5,0"

    @pytest.mark.parametrize(
        "option, value, message",
        [
            ("--T", "nan", "--T must be a positive finite number, got nan"),
            ("--T", "inf", "--T must be a positive finite number, got inf"),
            ("--T", "-1", "--T must be a positive finite number, got -1.0"),
            ("--h", "nan", "--h must be a positive finite number, got nan"),
            ("--h", "inf", "--h must be a positive finite number, got inf"),
            # round(T/h) is 0: the run would take one whole step instead
            ("--T", "0.0004", "T = 0.0004 is at most half the step h = 0.001: the geodesic would take no step"),
            ("--T", "0.0005", "T = 0.0005 is at most half the step h = 0.001: the geodesic would take no step"),
            ("--h", "10", "T = 1.0 is at most half the step h = 10.0: the geodesic would take no step"),
            ("--y0", "nan,0", "--y0 must be two finite numbers, got nan,0"),
            ("--y0", "inf,0", "--y0 must be two finite numbers, got inf,0"),
            ("--y0", "0,0", "--y0 must have a length in [1e-100, 1e100], got 0.0 for 0,0"),
            ("--y0", "1e-200,0", "--y0 must have a length in [1e-100, 1e100], got 1e-200 for 1e-200,0"),
            ("--y0", "0,1e200", "--y0 must have a length in [1e-100, 1e100], got 1e+200 for 0,1e200"),
            ("--x0", "nan,0", "--x0 must be two finite numbers, got nan,0"),
            ("--x0", "5,0", "--x0 point (5.0, 0.0) lies outside the domain [-1.0, 1.0] x [-1.0, 1.0]"),
            # 1e18 steps: numpy refuses the buffer's size before allocating
            ("--T", "1e15", "cannot allocate the trajectory of a run of 1e+18 steps"),
        ],
    )
    def test_bad_input_names_itself(self, tmp_path, capsys, option, value, message):
        out_csv = tmp_path / "p.csv"
        argv = ["geodesic", write(tmp_path, CLASS_B_CONFIG), "--x0", "0,0", "--y0", "1,0"]
        argv += [option, value, "--out", str(out_csv)]
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err == f"config error: {message}\n"
        assert not out_csv.exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["geodesic", "cfg", "--y0", "1,0", "--out", "p.csv"],  # --x0 missing
            ["scan", "cfg", "--what", "curl", "--out", "s.csv"],  # bad choice
            ["geodesic", "cfg", "--x0", "0,0", "--y0", "1,0", "--T", "long", "--out", "p.csv"],
            ["nonsense"],
        ],
    )
    def test_usage_error_is_config_error(self, argv, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 1
        err = capsys.readouterr().err
        assert err.startswith("usage: geodrev")
        assert "error:" in err


def _csv_bytes(path) -> bytes:
    lines = ["step,x1,x2"]
    lines += [f"{float(i):.17g},{p[0]:.17g},{p[1]:.17g}" for i, p in enumerate(path.samples)]
    return ("\n".join(lines) + "\n").encode()


def separate_runs_recipe(config_text, x0, y0, T, h):
    """CSV bytes, printed line and exit code of the geodesic command, rebuilt
    from separate runs: forward, the _rev run for the forward path's covered
    duration, and the relaunch that the error is measured on, which lasts
    the forward path's reverse-norm length over the relaunch speed."""
    bundle = parse_config(config_text).build_bundle()
    forward = integrate(bundle, x0, y0, T, h)
    x_end, v_end = tuple(forward.samples[-1]), tuple(-forward.velocities[-1])
    backward = integrate(bundle, x_end, v_end, max(forward.duration, h), h)

    deltas = np.diff(forward.samples, axis=0)
    mids = 0.5 * (forward.samples[:-1] + forward.samples[1:])
    moved = np.any(deltas != 0.0, axis=1)
    lengths = _norm_batch(bundle, mids[moved, 0], mids[moved, 1], -deltas[moved, 0], -deltas[moved, 1])
    t_back = max(float(np.sum(lengths)) / finsler_norm(bundle, x_end, v_end), h)
    error = path_distance(forward, integrate(bundle, x_end, v_end, t_back, h))

    code = 3 if forward.truncated or backward.truncated else 0
    return _csv_bytes(forward), _csv_bytes(backward), f"reversibility_error = {error:.12g}\n", code


class TestGeodesicRecipe:
    @pytest.mark.parametrize(
        "config, x0, angle, T",
        [
            (CLASS_A_CONFIG, (0.0, 0.0), 2.0 * math.pi * 1 / 8 + 0.137, 0.3),  # t_back > T
            (CLASS_A_CONFIG, (0.0, 0.0), 2.0 * math.pi * 3 / 8 + 0.137, 0.3),  # t_back < T
            (IRREVERSIBLE_CONFIG, (0.7, 0.2), 0.2, 1.0),                       # truncated
        ],
        ids=["class_a_long_backward", "class_a_short_backward", "irreversible_truncated"],
    )
    def test_output_equals_separate_runs(self, tmp_path, capsys, config, x0, angle, T):
        y0 = (math.cos(angle), math.sin(angle))
        h = 1e-3
        out_csv = tmp_path / "path.csv"
        code = main(
            [
                "geodesic", write(tmp_path, config), f"--x0={x0[0]!r},{x0[1]!r}",
                f"--y0={y0[0]!r},{y0[1]!r}", "--T", repr(T), "--h", repr(h), "--out", str(out_csv),
            ]
        )
        forward, backward, printed, expected_code = separate_runs_recipe(config, x0, y0, T, h)
        assert code == expected_code
        assert capsys.readouterr().out == printed
        assert out_csv.read_bytes() == forward
        assert (tmp_path / "path_rev.csv").read_bytes() == backward


# A Finsler structure whose alpha = e^nu |y| is subnormal for |y| <= 1, with
# b = e^-nu |b1| of order 1 and b < b0 everywhere.
SUBNORMAL_ALPHA_CONFIG = (
    CLASS_B_CONFIG.replace('nu = "0"', 'nu = "-709"')
    .replace('b1 = "0.2"', 'b1 = "1e-308*sin(1.7e308*x2)"')
    .replace('b2 = "0.1"', 'b2 = "0"')
    .replace('kind = "matsumoto"', 'kind = "randers"')
    .replace("b0 = 0.4", "b0 = 0.9")
)


class TestErrorExitCodes:
    @pytest.mark.parametrize("command", ["validate", "classify"])
    def test_domain_error_is_config_error(self, tmp_path, capsys, command):
        code = main([command, write(tmp_path, LN_NU_CONFIG)])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("config error: ln of non-positive value at x1=")

    @pytest.mark.parametrize(
        "argv",
        [
            ["validate"],
            ["classify"],
            ["scan", "--what", "residual", "--out", "r.csv"],
            ["geodesic", "--x0", "0,0", "--y0", "1,0", "--out", "g.csv"],
        ],
    )
    def test_config_that_is_not_utf8_is_config_error(self, tmp_path, capsys, argv):
        path = tmp_path / "bad.cfg"
        path.write_bytes(CLASS_B_CONFIG.encode().replace(b"[metric]", b"\xff[metric]"))
        command, *options = argv
        # in process, so that any exception other than the mapped ones fails the test
        assert main([command, str(path), *options]) == 1
        offset = CLASS_B_CONFIG.encode().index(b"[metric]")
        assert capsys.readouterr().err == (
            f"config error: cannot read config: {str(path)!r} is not UTF-8 at byte offset {offset}:"
            " invalid start byte\n"
        )

    @pytest.mark.parametrize("speed", ["1e50", "1e99", "1e100"])
    def test_start_leaving_within_one_step_is_truncated(self, tmp_path, capsys, speed):
        # An RK4 stage of the first step lands far outside the domain, where
        # the spray fails (a Hessian that is not positive definite at 1e50, a
        # speed beyond the spray's range at 1e99 and 1e100): both paths end
        # at their start, truncated.
        with open(README, encoding="utf-8") as handle:
            example = handle.read().split("```ini\n", 1)[1].split("```", 1)[0]
        out_csv = tmp_path / "g.csv"
        argv = ["geodesic", write(tmp_path, example), "--x0", "0,0", "--y0", f"{speed},0"]
        assert main([*argv, "--out", str(out_csv)]) == 3
        captured = capsys.readouterr()
        assert captured.out == "reversibility_error = 0\n"
        assert captured.err == "path truncated at the domain boundary\n"
        for path in (out_csv, tmp_path / "g_rev.csv"):
            assert path.read_text() == "step,x1,x2\n0,0,0\n"

    def test_singular_hessian_is_validation_failure(self, tmp_path, capsys):
        cfg = write(tmp_path, PEAKED_B1_CONFIG)
        assert main(["validate", cfg]) == 0
        code = main(
            ["geodesic", cfg, "--x0=-0.5,0", "--y0=1,0", "--out", str(tmp_path / "p.csv")]
        )
        err = capsys.readouterr().err
        assert code == 2
        assert "fiber Hessian of F^2 not positive definite at x=(" in err

    def test_underflowing_energy_is_config_error(self, tmp_path, capsys):
        # F^2 underflows to 0, so its finite-difference Hessian vanishes
        path = write(tmp_path, SUBNORMAL_ALPHA_CONFIG)
        assert main(["validate", path]) == 0
        capsys.readouterr()
        assert main(["geodesic", path, "--x0", "0,0", "--y0", "0.5,0", "--out", str(tmp_path / "p.csv")]) == 1
        assert capsys.readouterr().err == (
            "config error: F^2 underflows to 0 or is not finite near x=(0.0, 0.0), y=(0.5, 0.0)\n"
        )
        assert not (tmp_path / "p.csv").exists()

    def test_non_finite_geodesic_flow_is_config_error(self, tmp_path, capsys):
        # nu overflows near x1 = 0.01, between the points of the validation grid
        path = write(tmp_path, CLASS_B_CONFIG.replace('nu = "0"', 'nu = "exp(800 - 1e8*(x1 - 0.01)^2)"'))
        assert main(["validate", path]) == 0
        argv = ["geodesic", path, "--x0", "0.01,0", "--y0", "1,0", "--T", "0.01", "--out", str(tmp_path / "p.csv")]
        capsys.readouterr()
        assert main(argv) == 1
        assert capsys.readouterr().err == "config error: geodesic flow is not finite at x=(0.01, 0.0), y=(1.0, 0.0)\n"

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_non_finite_evidence_is_config_error(self, tmp_path, capsys, monkeypatch):
        # every field and b < b0 are finite, but F * e^-nu * curl overflows
        path = write(tmp_path, SUBNORMAL_ALPHA_CONFIG)
        assert main(["validate", path]) == 0
        capsys.readouterr()
        for block_values in (metric._BLOCK_VALUES, 1):  # classify's blocks, then one row each
            monkeypatch.setattr(metric, "_BLOCK_VALUES", block_values)
            assert main(["classify", path]) == 1
            err = capsys.readouterr().err
            assert err == "config error: residual is not finite at x1=-1.0, x2=-1.0, t=0.0\n"

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("block_values", [1, 1 << 13, 1 << 30])
    def test_non_finite_evidence_names_the_first_point_of_the_grid(
        self, tmp_path, capsys, monkeypatch, block_values
    ):
        # M2 overflows on every base row, the residual first at x1 = 0.6.  The
        # first block fails and only its rows run again, one at a time: the
        # first row names its M2, and no call sees more rows than a block holds.
        path = write(
            tmp_path, SUBNORMAL_ALPHA_CONFIG.replace("1e-308*sin", "1e-308*(0.5 + 0.25*x1)*sin")
        )
        assert main(["validate", path]) == 0
        capsys.readouterr()
        monkeypatch.setattr(metric, "_BLOCK_VALUES", block_values)
        rows, fiber_evidence = [], reversibility._fiber_evidence

        def recording_fiber_evidence(pd, phi, x1, x2, t):
            rows.append(len(x1))
            return fiber_evidence(pd, phi, x1, x2, t)

        monkeypatch.setattr(reversibility, "_fiber_evidence", recording_fiber_evidence)
        assert main(["classify", path]) == 1
        assert capsys.readouterr().err == "config error: M2 is not finite at x1=-1.0, x2=-1.0, t=0.0\n"
        assert rows == [min(21 * 21, max(1, block_values // 64)), 1]

    def test_inconsistent_evidence_is_validation_failure(self, tmp_path, capsys):
        code = main(["classify", write(tmp_path, INCONSISTENT_CONFIG)])
        err = capsys.readouterr().err
        assert code == 2
        assert "odd part of phi is not a multiple of s" in err

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("command", ["validate", "classify"])
    @pytest.mark.parametrize(
        "b1", ["exp(1000)", "10^400", "sin(1e400)", "(0.5)^(-2000)", "0.1 + 1e-300*(10*x1)^400"]
    )
    def test_out_of_range_constants_exit_with_a_code(self, tmp_path, capsys, command, b1):
        # in process, so that any exception other than the mapped ones fails the test
        code = main([command, write(tmp_path, CLASS_B_CONFIG.replace('b1 = "0.2"', f'b1 = "{b1}"'))])
        assert code in (1, 2)

    def test_overflowing_power_is_config_error(self, tmp_path, capsys):
        cfg = CLASS_B_CONFIG.replace('b1 = "0.2"', 'b1 = "0.1 + 1e-300*(10*x1)^400"')
        code = main(["validate", write(tmp_path, cfg)])
        err = capsys.readouterr().err
        assert code == 1
        assert err == "config error: integer power overflows at x1=-1.0, x2=-1.0\n"

    @pytest.mark.parametrize("b1", ["0.2 + x1/0", "0.2 + x1/(x2-x2)"])
    def test_division_by_zero_names_its_point(self, tmp_path, capsys, b1):
        cfg = CLASS_B_CONFIG.replace('b1 = "0.2"', f'b1 = "{b1}"')
        code = main(["validate", write(tmp_path, cfg)])
        assert code == 1
        assert capsys.readouterr().err == "config error: division by zero at x1=-1.0, x2=-1.0\n"

    def test_tiny_coefficient_validates(self, tmp_path, capsys):
        cfg = CLASS_B_CONFIG.replace('b1 = "0.2"', 'b1 = "0.1 + x1/1e200"')
        code = main(["validate", write(tmp_path, cfg)])
        assert code == 0
        assert "bundle validation: PASS" in capsys.readouterr().out

    def test_tiny_coefficient_classifies(self, tmp_path, capsys):
        # d(x1/1e200)/dx1 divides by 1e200 twice: its square overflows
        cfg = CLASS_B_CONFIG.replace('b1 = "0.2"', 'b1 = "0.1 + x1/1e200"')
        assert main(["classify", write(tmp_path, cfg)]) == 0
        assert "verdict: " in capsys.readouterr().out
        assert LinearForm.from_text("0.1 + x1/1e200", "0").db1_d1(x1=0.3, x2=-0.2) == 1e-200

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("command", ["validate", "classify", "scan"])
    def test_non_finite_nu_is_config_error(self, tmp_path, capsys, command):
        cfg = CLASS_B_CONFIG.replace('nu = "0"', 'nu = "exp(exp(10*x1))"')
        out = tmp_path / "r.csv"
        extra = ["--what", "residual", "--out", str(out)] if command == "scan" else []
        code = main([command, write(tmp_path, cfg), *extra])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("config error: nu is not finite at x1=")
        assert not out.exists()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("command", ["validate", "classify"])
    def test_nan_form_names_first_point(self, tmp_path, capsys, command):
        cfg = CLASS_B_CONFIG.replace('b1 = "0.2"', 'b1 = "sin(1e400)"')
        code = main([command, write(tmp_path, cfg)])
        assert code == 1
        assert capsys.readouterr().err == "config error: b1 is not finite at x1=-1.0, x2=-1.0\n"

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_non_finite_profile_prints_witness(self, tmp_path, capsys):
        cfg = CLASS_B_CONFIG.replace(
            'kind = "matsumoto"', 'kind = "expr"\nexpr = "1 + 0.1*s + 1e-300*exp(800*s)"'
        ).replace("b0 = 0.4", "b0 = 1.0")
        code = main(["validate", write(tmp_path, cfg)])
        out = capsys.readouterr().out
        assert code == 2
        assert "finsler validation: FAIL" in out
        assert "witness: s=0.881188118812" in out

    def test_evidence_check_survives_optimize_flag(self, tmp_path):
        src = os.path.dirname(os.path.dirname(os.path.abspath(geodrev.__file__)))
        proc = subprocess.run(
            [sys.executable, "-O", "-m", "geodrev.cli", "classify", write(tmp_path, INCONSISTENT_CONFIG)],
            env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 2, proc.stderr
        assert "Traceback" not in proc.stderr


# The Irreversible witness with phi given as an expression.
IRREVERSIBLE_EXPR_CONFIG = IRREVERSIBLE_CONFIG.replace(
    'kind = "matsumoto"', 'kind = "expr"\nexpr = "1/(1-s)"'
) + "\n[sampling]\nn_x1 = 8\nn_x2 = 8\nn_t = 8\nn_s = 16\n"


def _nested(name, inner, n):
    return f"{name}(" * n + inner + ")" * n


# (key, expression nesting or tree depth n) per family: parentheses nested n
# deep, a left-deep sum and a chain of sin calls, each a tree n levels deep.
DEPTH_FAMILIES = {
    "parentheses": ("expr", lambda n: _nested("", "1/(1-s)", n - 1)),
    "sum": ("expr", lambda n: " + ".join(["1"] + ["0.001*s"] * (n - 2))),
    "sin": ("b1", lambda n: "0.2 + 0.1*" + _nested("sin", "x1", n - 3)),
}


NESTED = f"parentheses nested deeper than {MAX_DEPTH}"
DEEP = f"expression tree deeper than {MAX_DEPTH} levels (offset 0)"


def _depth_config(key, text):
    old = 'expr = "1/(1-s)"' if key == "expr" else 'b1 = "0.2 + 0.1*x1"'
    return IRREVERSIBLE_EXPR_CONFIG.replace(old, f'{key} = "{text}"')


class TestDeepExpressions:
    @pytest.mark.parametrize("family", DEPTH_FAMILIES)
    def test_expression_at_the_bound_runs_every_command(self, tmp_path, capsys, family):
        key, make = DEPTH_FAMILIES[family]
        path, out = write(tmp_path, _depth_config(key, make(MAX_DEPTH))), str(tmp_path / "o.csv")
        for argv in (
            ["validate"],
            ["classify"],
            ["scan", "--what", "residual", "--out", out],
            ["scan", "--what", "crosscheck", "--out", out],
            ["scan", "--what", "E", "--out", out],
            ["geodesic", "--x0", "0.1,-0.2", "--y0", "1,0.5", "--T", "0.02", "--out", out],
        ):
            assert main([argv[0], path, *argv[1:]]) == 0, capsys.readouterr().err

    @pytest.mark.parametrize(
        "key, text, message",
        [
            ("expr", DEPTH_FAMILIES["parentheses"][1](MAX_DEPTH + 1), f"{NESTED} (offset {MAX_DEPTH + 2})"),
            ("expr", DEPTH_FAMILIES["sum"][1](MAX_DEPTH + 1), DEEP),
            ("b1", DEPTH_FAMILIES["sin"][1](MAX_DEPTH + 1), DEEP),
            # reproducers of a RecursionError in the parser and in diff_expr
            ("expr", _nested("", "s", 300), f"{NESTED} (offset {MAX_DEPTH})"),
            ("expr", _nested("sin", "s", 300), f"{NESTED} (offset {4 * MAX_DEPTH + 3})"),
            ("expr", " + ".join(["s"] * 3000), DEEP),
        ],
        ids=["parentheses", "sum", "sin", "300_parentheses", "300_sin", "3000_terms"],
    )
    def test_expression_over_the_bound_names_its_line(self, tmp_path, capsys, key, text, message):
        config_text = _depth_config(key, text)
        number = config_text.splitlines().index(f'{key} = "{text}"') + 1
        what = "phi" if key == "expr" else key
        assert main(["validate", write(tmp_path, config_text)]) == 1
        assert capsys.readouterr().err == f"config error: line {number}: bad expression for {what}: {message}\n"


class TestUnallocatableGrids:
    # Grids whose first allocation would exceed a 2^47-byte address space
    # are over the sampling bounds, so the parser rejects them by line.
    @pytest.mark.parametrize("command", ["validate", "classify"])
    @pytest.mark.parametrize("count", ["n_x2 = 10000000000000", "n_t = 100000000000000"])
    def test_unallocatable_grid_is_config_error(self, tmp_path, capsys, command, count):
        path = write(tmp_path, IRREVERSIBLE_CONFIG + f"\n[sampling]\n{count}\n")
        number = (IRREVERSIBLE_CONFIG + "\n[sampling]\n").count("\n") + 1
        key = count.split(" = ")[0]
        assert main([command, path]) == 1
        assert capsys.readouterr().err == f"config error: line {number}: sampling count {key} must lie in [8, 1000]\n"


class TestMainPass:
    def test_repeated_calls_build_the_parser_once(self, tmp_path, capsys):
        cli.build_parser.cache_clear()
        path = write(tmp_path, CLASS_B_CONFIG)
        for command in ("validate", "classify", "validate"):
            assert main([command, path]) == 0
        with pytest.raises(SystemExit):
            main(["classify"])
        assert cli.build_parser.cache_info().misses == 1

    def test_a_command_rebound_after_the_first_call_runs(self, tmp_path, monkeypatch, capsys):
        path = write(tmp_path, CLASS_B_CONFIG)
        assert main(["classify", path]) == 0
        seen = []
        monkeypatch.setattr(cli, "cmd_classify", lambda args, bundle, cfg: seen.append((args, bundle, cfg)) or 7)
        assert main(["classify", path]) == 7
        [(args, bundle, cfg)] = seen
        assert args.config == path and cfg == load_config(path)
        assert bundle.phi.b0 == cfg.b0

    @pytest.mark.parametrize(
        "argv",
        [
            ["validate", "--out", "v.csv"],
            ["classify"],
            ["scan", "--what", "residual", "--out", "r.csv"],
            ["geodesic", "--x0", "0,0", "--y0", "0.5,0", "--T", "0.05", "--out", "g.csv"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_each_command_loads_its_config_once(self, tmp_path, monkeypatch, capsys, argv):
        loads, builds = [], []
        load, build = cli.load_config, ExperimentConfig.build_bundle
        monkeypatch.setattr(cli, "load_config", lambda path: loads.append(path) or load(path))
        monkeypatch.setattr(ExperimentConfig, "build_bundle", lambda cfg: builds.append(cfg) or build(cfg))
        path = write(tmp_path, CLASS_B_CONFIG)
        monkeypatch.chdir(tmp_path)
        assert main([argv[0], path, *argv[1:]]) == 0
        assert loads == [path] and len(builds) == 1


# Small configs drawn from the DSL grammar, with overflowing powers, exp of
# exp, poles and out-of-range constants: every command ends with an exit
# code, never with an exception or a numpy warning.
_LEAVES = {
    ("x1", "x2"): ["x1", "x2", "0", "0.1", "2", "1e200", "1e-200", "1e400"],
    ("s",): ["s", "1", "0.3", "2", "1e200", "1e-200", "1e400"],
}


def _expressions(variables):
    def compound(children):
        return st.one_of(
            st.tuples(children, st.sampled_from("+-*/"), children).map(
                lambda p: f"({p[0]}) {p[1]} ({p[2]})"
            ),
            st.tuples(st.sampled_from(["exp", "ln", "sqrt", "sin", "cos"]), children).map(
                lambda p: f"{p[0]}({p[1]})"
            ),
            children.map(lambda c: f"exp(exp({c}))"),
            st.tuples(children, st.sampled_from([-400, -2, -1, 2, 3, 400])).map(
                lambda p: f"({p[0]})^({p[1]})"
            ),
        )

    return st.recursive(st.sampled_from(_LEAVES[variables]), compound, max_leaves=4)


def _tame_or_raw(expressions, tame):
    """Draws either wrapped into a range that usually validates, or raw."""
    return expressions.map(tame) | expressions


_BASE = _expressions(("x1", "x2"))
_NU = _tame_or_raw(_BASE, lambda e: f"0.1*sin({e})")
_FORM = _tame_or_raw(_BASE, lambda e: f"0.1 + 0.05*sin({e})")
_PROFILE = _tame_or_raw(_expressions(("s",)), lambda e: f"sin({e})").map(
    lambda e: f"1 + 0.1*s + 0.01*({e})"
)


def _drawn_config(nu, b1, b2, phi, b0, n):
    """A drawn config sampled n x n x n on the base x fiber grid, 8n on s."""
    return f"""
[metric]
nu = "{nu}"
x1min = -1.0
x1max = 1.0
x2min = -1.0
x2max = 1.0

[form]
b1 = "{b1}"
b2 = "{b2}"

[phi]
kind = "expr"
expr = "{phi}"
b0 = {b0}

[sampling]
n_x1 = {n}
n_x2 = {n}
n_t = {n}
n_s = {8 * n}
"""


def _verdict(path):
    """classify's exit code and verdict line."""
    with contextlib.redirect_stdout(io.StringIO()) as out:
        code = main(["classify", path])
    return code, out.getvalue().partition("\n")[0]


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=40, deadline=None, derandomize=True)
@given(nu=_NU, b1=_FORM, b2=_FORM, phi=_PROFILE, b0=st.sampled_from([0.4, 0.9]))
def test_drawn_configs_end_with_an_exit_code(nu, b1, b2, phi, b0):
    """Every command ends with an exit code, and a verdict that classify
    prints is the one it prints at every sampling count doubled."""
    with tempfile.TemporaryDirectory() as tmp:
        path, doubled = os.path.join(tmp, "drawn.cfg"), os.path.join(tmp, "doubled.cfg")
        for name, n in ((path, 8), (doubled, 16)):
            with open(name, "w", encoding="utf-8") as handle:
                handle.write(_drawn_config(nu, b1, b2, phi, b0, n))
        out = os.path.join(tmp, "out.csv")
        for argv in (
            ["validate"],
            ["scan", "--what", "residual", "--out", out],
            ["scan", "--what", "crosscheck", "--out", out],
            ["scan", "--what", "E", "--out", out],
            ["geodesic", "--x0", "0.1,-0.2", "--y0", "1,0.5", "--T", "0.02", "--out", out],
        ):
            assert main([argv[0], path, *argv[1:]]) in (0, 1, 2, 3)
        code, verdict = _verdict(path)
        assert code in (0, 1, 2)
        if code == 0:
            assert verdict.startswith("verdict: ")
            assert _verdict(doubled) == (0, verdict)
