import contextlib
import io
import json
import os
import pathlib
import re
import stat
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qpisde import _csvtext, analysis, cli, model, stability
from qpisde.cli import main
from qpisde.model import GbmParams, InvalidInputError
from qpisde.schemes import SchemeId

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"


def exit_code(argv):
    """main's return value, or the code it exits with."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


def read(path):
    return path.read_bytes()


class TestSimulate:
    def test_single_path_row_count(self, tmp_path):
        out = tmp_path / "traj.csv"
        rc = exit_code(["simulate", "--mu", "-1", "--sigma", "0.5", "--n", "256",
                  "--scheme", "qpi", "--seed", "42", "-o", str(out)])
        assert rc == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "t,exact,approx"
        assert len(lines) == 258

    def test_odd_n_for_qpi(self, capsys):
        rc = exit_code(["simulate", "--n", "255", "--scheme", "qpi"])
        assert rc == 2
        assert "N must be even for qpi, got 255" in capsys.readouterr().err

    def test_multi_path_growth_at_positive_drift(self, tmp_path):
        out = tmp_path / "paths.csv"
        rc = exit_code(["simulate", "--mu", "1", "--sigma", "0.5", "--paths", "10",
                  "--t-end", "1", "--n", "256", "--seed", "42", "-o", str(out)])
        assert rc == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "t," + ",".join(f"path_{k}" for k in range(1, 11))
        assert len(lines) == 258
        finals = np.array([float(v) for v in lines[-1].split(",")[1:]])
        assert len(finals) == 10
        # mean-square growth under positive drift
        assert np.mean(finals**2) > 1.0

    def test_deterministic_rerun(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["simulate", "--n", "64", "--seed", "9"]
        assert exit_code(args + ["-o", str(a)]) == 0
        assert exit_code(args + ["-o", str(b)]) == 0
        assert read(a) == read(b)

    def test_bytes_independent_of_block_size(self, monkeypatch, capsysbinary):
        argv = ["simulate", "--paths", "7", "--n", "8"]
        assert main(argv) == 0
        reference = capsysbinary.readouterr().out
        shapes, integrate = [], cli.integrate
        monkeypatch.setattr(cli, "integrate",
                            lambda *args, **kwargs: shapes.append(args[-1].shape) or integrate(*args, **kwargs))
        monkeypatch.setattr(model, "_BATCH_VALUES", 3 * 9)  # blocks of 3 paths of 9 nodes
        assert main(argv) == 0
        assert shapes == [(3, 9), (3, 9), (1, 9)]
        assert capsysbinary.readouterr().out == reference

    def test_unwritable_output(self, capsys):
        rc = exit_code(["simulate", "--n", "8", "-o", "/nonexistent-dir/x.csv"])
        assert rc == 1
        # the error names the -o path, not the temp file written beside it
        assert capsys.readouterr().err == ("qpisde simulate: error: [Errno 2] No such file or "
                                           "directory: '/nonexistent-dir/x.csv'\n")


class TestConverge:
    def test_row_cardinality(self, tmp_path):
        out = tmp_path / "conv.csv"
        rc = exit_code(["converge", "--n-list", "4,16,64", "--schemes", "qpi,iem,milstein",
                  "--paths", "5", "--seed", "7", "-o", str(out)])
        assert rc == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "scheme,n,l1,l2,linf,n_paths"
        assert len(lines) == 10

    def test_errors_decrease_down_each_column(self, tmp_path):
        out = tmp_path / "conv.csv"
        rc = exit_code(["converge", "--n-list", "4,16,64,256", "--schemes", "qpi,iem",
                  "--paths", "20", "--seed", "7", "-o", str(out)])
        assert rc == 0
        rows = [l.split(",") for l in out.read_text().strip().split("\n")[1:]]
        by_scheme = {}
        for r in rows:
            by_scheme.setdefault(r[0], []).append([float(v) for v in r[2:5]])
        for errs in by_scheme.values():
            arr = np.array(errs)
            assert np.all(np.diff(arr, axis=0) < 0)

    def test_deterministic_rerun(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["converge", "--n-list", "4,16", "--paths", "3", "--seed", "11"]
        assert exit_code(args + ["-o", str(a)]) == 0
        assert exit_code(args + ["-o", str(b)]) == 0
        assert read(a) == read(b)


class TestStability:
    def test_csv_cardinality(self, tmp_path):
        out = tmp_path / "reg.csv"
        rc = exit_code(["stability", "--scheme", "qpi-paper", "--sigma", "0.5",
                  "--mu-range", "-4:1", "--dt-range", "0.01:1", "--grid", "20",
                  "-o", str(out)])
        assert rc == 0
        lines = out.read_text().strip().split("\n")
        assert len(lines) == 401

    def test_cells_at_anchor_points(self, tmp_path):
        out = tmp_path / "reg.csv"
        # axes chosen so (mu, dt) = (-1, 0.5) and (1, 0.5) are grid points
        rc = exit_code(["stability", "--scheme", "qpi-paper", "--sigma", "0.5",
                  "--mu-range", "-2:2", "--dt-range", "0.25:0.75", "--grid", "5",
                  "-o", str(out)])
        assert rc == 0
        cells = {}
        for line in out.read_text().strip().split("\n")[1:]:
            mu, dt, lhs, stable = line.split(",")
            cells[(float(mu), float(dt))] = int(stable)
        assert cells[(-1.0, 0.5)] == 1
        assert cells[(1.0, 0.5)] == 0

    def test_svg_format(self, tmp_path):
        out = tmp_path / "reg.svg"
        rc = exit_code(["stability", "--grid", "10", "--format", "svg", "-o", str(out)])
        assert rc == 0
        text = out.read_text()
        assert text.startswith("<svg")
        assert "</svg>" in text

    def test_invalid_range(self, capsys):
        rc = exit_code(["stability", "--mu-range", "1:-1"])
        assert rc == 2

    def test_iem_squared_denominator_overflow(self, capsys):
        # (1 - mu*dt)^2 overflows at dt = 1e200; the cells must not read 0
        assert exit_code(["stability", "--scheme", "iem", "--mu-range", "-4:1",
                    "--dt-range", "0.01:1e200", "--grid", "2"]) == 0
        rows = capsys.readouterr().out.split("\n")
        assert rows[2] == "-4,9.9999999999999997e+199,1.5625e-202,1"
        assert rows[4] == "1,9.9999999999999997e+199,2.5e-201,1"

    def test_deterministic_rerun(self, tmp_path):
        a, b = tmp_path / "a.svg", tmp_path / "b.svg"
        args = ["stability", "--grid", "12", "--format", "svg"]
        assert exit_code(args + ["-o", str(a)]) == 0
        assert exit_code(args + ["-o", str(b)]) == 0
        assert read(a) == read(b)


class TestLocalError:
    def test_csv_and_slope_line(self, tmp_path):
        out = tmp_path / "le.csv"
        rc = exit_code(["local-error", "--dt-list", "0.125,0.0625,0.03125",
                  "--samples", "2000", "--seed", "5", "-o", str(out)])
        assert rc == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "dt,mean_sq_local_error"
        assert len(lines) == 5
        assert lines[-1].startswith("# slope=")

    def test_empty_dt_list(self, capsys):
        assert exit_code(["local-error", "--dt-list", ""]) == 2

    def test_bytes_independent_of_block_size(self, monkeypatch, capsysbinary):
        # the errors are computed in blocks of samples, but their mean is one sum over all of them
        argv = ["local-error", "--dt-list", "0.25,0.125", "--samples", "1000"]
        assert main(argv) == 0
        reference = capsysbinary.readouterr().out
        blocks, alpha_beta = [], analysis._qpi_alpha_beta
        monkeypatch.setattr(analysis, "_qpi_alpha_beta",
                            lambda *args: blocks.append(len(args[-1])) or alpha_beta(*args))
        monkeypatch.setattr(model, "_BATCH_VALUES", 300)
        assert main(argv) == 0
        assert blocks == [300, 300, 300, 100] * 2
        assert capsysbinary.readouterr().out == reference

    def test_deterministic_rerun(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["local-error", "--dt-list", "0.25,0.125", "--samples", "500",
                "--seed", "3"]
        assert exit_code(args + ["-o", str(a)]) == 0
        assert exit_code(args + ["-o", str(b)]) == 0
        assert read(a) == read(b)


class TestConfigAndHelp:
    def test_config_file_used(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("n = 4  # small grid\nscheme = em\n")
        out = tmp_path / "t.csv"
        rc = exit_code(["simulate", "--config", str(cfg), "-o", str(out)])
        assert rc == 0
        assert len(out.read_text().strip().split("\n")) == 6

    def test_flags_override_config(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("n=4\nscheme=em\n")
        out = tmp_path / "t.csv"
        rc = exit_code(["simulate", "--config", str(cfg), "--n", "8", "-o", str(out)])
        assert rc == 0
        assert len(out.read_text().strip().split("\n")) == 10

    def test_malformed_config(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("this is not a pair\n")
        assert exit_code(["simulate", "--config", str(cfg)]) == 2

    @pytest.mark.parametrize("sub", ["simulate", "converge", "stability", "local-error"])
    def test_help_lists_flags(self, sub, capsys):
        with pytest.raises(SystemExit) as exc:
            main([sub, "--help"])
        assert exc.value.code == 0
        text = capsys.readouterr().out
        assert "--seed" in text and "default" in text

    @pytest.mark.parametrize("sub,names", [
        ("simulate", [s.value for s in SchemeId]),
        ("stability", list(stability._CONDITIONS)),
    ])
    def test_help_lists_every_scheme(self, sub, names, capsys):
        with pytest.raises(SystemExit):
            main([sub, "--help"])
        text = " ".join(capsys.readouterr().out.split())
        assert f"--scheme SCHEME {'|'.join(names)} (default" in text

    def test_unknown_scheme(self, capsys):
        assert exit_code(["simulate", "--scheme", "rk4", "--n", "8"]) == 2

    def test_flag_before_config_overrides_config(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("n=4\nscheme=em\n")
        out = tmp_path / "t.csv"
        rc = exit_code(["simulate", "--n", "8", "--config", str(cfg), "-o", str(out)])
        assert rc == 0
        assert len(out.read_text().strip().split("\n")) == 10

    @pytest.mark.parametrize("argv,line,flag", [
        (["simulate", "--n", "8"], "scheme=milstein-paper", ["--scheme", "milstein-paper"]),
        (["stability", "--grid", "3"], "format=svg", ["--format", "svg"]),
        (["simulate", "--n", "4"], "mu=-1e-3", ["--mu", "-1e-3"]),
        (["converge", "--paths", "2"], "n_list=4,16", ["--n-list", "4,16"]),
        (["stability", "--grid", "3"], "mu_range=-2:1", ["--mu-range", "-2:1"]),
        (["local-error", "--samples", "10"], "dt-list=0.5,0.25", ["--dt-list", "0.5,0.25"]),
    ], ids=["choice-milstein-sign", "choice-format", "negative-exponent", "list", "range",
            "dash-key"])
    def test_config_line_equals_flag(self, argv, line, flag, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(line + "\n")
        assert main(argv + flag) == 0
        expected = capsys.readouterr().out
        assert main(argv + ["--config", str(cfg)]) == 0
        assert capsys.readouterr().out == expected
        assert main(argv) == 0
        assert capsys.readouterr().out != expected  # the line is not a default

    def test_stability_help_has_no_mu_or_x0(self, capsys):
        with pytest.raises(SystemExit):
            main(["stability", "--help"])
        text = capsys.readouterr().out
        assert "--sigma" in text and "--mu " not in text and "--x0" not in text


class TestInputContract:
    @pytest.mark.parametrize("argv,config,named", [
        (["converge", "--n-list", "4,16,abc", "--paths", "2"], None, "--n-list"),
        (["converge", "--n-list", "4.6,16", "--paths", "2"], None, "--n-list"),
        (["converge", "--n-list", "0,4", "--paths", "2"], None, "n_list"),
        (["stability", "--mu-range", "a:b", "--grid", "3"], None, "--mu-range"),
        (["stability", "--dt-range", "1:2:3", "--grid", "3"], None, "--dt-range"),
        # an empty list item is an error, not a missing item
        (["converge", "--n-list", "4,,16", "--paths", "2"], None, "--n-list"),
        (["converge", "--n-list", "4,16,", "--paths", "2"], None, "--n-list"),
        (["local-error", "--dt-list", "0.5,,0.25"], None, "--dt-list"),
        (["simulate", "--n", "4"], "mu=abc\n", "abc"),
        (["simulate"], "nn=4\n", "nn"),
        (["stability", "--sigma", "nan", "--grid", "2"], None, "sigma"),
        (["stability", "--sigma", "-1", "--grid", "2"], None, "sigma"),
        (["stability", "--sigma", "inf", "--grid", "2"], None, "sigma"),
        (["stability", "--mu-range", "-1e308:1e308", "--grid", "2"], None, "finite"),
        (["stability", "--dt-range", "0.01:inf", "--grid", "2"], None, "finite"),
        (["local-error", "--dt-list", "nan"], None, "finite"),
        (["stability", "--mu-range", "-4:1", "--dt-range", "0.01:1e200", "--grid", "2"], None,
         "inf or nan"),
        (["stability", "--scheme", "milstein", "--mu-range", "-4:1", "--dt-range", "0.01:1e200",
          "--grid", "2"], None, "inf or nan"),
        (["stability", "--grid", "2"], "format=png\n", "argument --format: invalid choice: 'png'"),
        (["stability", "--grid", "2"], "format=pdf\n", "pdf"),
        (["local-error", "--dt-list", "0.1"], None, "at least 2"),
        (["converge", "--schemes", "qpi,QPI", "--paths", "3", "--n-list", "4,16"], None, "repeat"),
        (["converge", "--seed", "-1", "--paths", "2", "--n-list", "4,16"], None, "--seed"),
        (["converge", "--seed", str(2**64), "--paths", "2", "--n-list", "4,16"], None, "--seed"),
        (["converge", "--paths", "2", "--n-list", "4,16"], "seed=-1\n", "--seed"),
        # stability has no --mu, and a flag prefix is no flag (not --mu-range)
        (["stability", "--grid", "3", "--mu", "5"], None, "unrecognized arguments: --mu 5"),
        (["stability", "--grid", "3"], "mu=5\n", "for stability: mu"),
        (["stability", "--grid", "3"], "x0=7\n", "for stability: x0"),
        # a config file cannot name another one: the splice would recurse
        (["simulate"], "config=other.cfg\n", "for simulate: config"),
        # a prefix of another flag of the subcommand is not that flag
        (["converge", "--n", "64", "--paths", "2"], None, "unrecognized arguments: --n 64"),
        (["simulate", "--path", "2"], None, "unrecognized arguments: --path 2"),
        # the Milstein sign is a scheme id, not a flag or a config key
        (["simulate", "--milstein-sign", "paper"], None, "unrecognized arguments: --milstein-sign paper"),
        (["converge", "--paths", "2"], "milstein_sign=paper\n", "for converge: milstein_sign"),
        (["local-error", "--sample", "10"], None, "unrecognized arguments: --sample 10"),
        # a size below its minimum names the flag, not the library parameter
        (["converge", "--paths", "0", "--n-list", "4,16"], None, "--paths"),
        (["local-error", "--samples", "0"], None, "--samples"),
        (["stability", "--grid", "1"], None, "--grid"),
        (["simulate", "--n", "0"], None, "--n"),
        # sigma^2 and sigma^4 overflow to inf, which the finite checks report
        (["converge", "--sigma", "1e308", "--paths", "2", "--n-list", "4,16"], None,
         "overflowed to inf"),
        (["local-error", "--sigma", "1e308", "--samples", "10"], None, "overflowed to inf"),
        (["stability", "--sigma", "1e308", "--scheme", "milstein", "--grid", "3"], None,
         "overflowed to inf"),
    ], ids=["n-list-word", "n-list-fraction", "n-list-zero", "range-word", "range-three-parts",
            "n-list-empty-item", "n-list-trailing-comma", "dt-list-empty-item", "config-word",
            "config-unknown-key", "sigma-nan", "sigma-negative", "sigma-inf", "mu-range-overflow",
            "dt-range-inf", "dt-list-nan", "qpi-paper-overflow", "milstein-overflow",
            "config-choice", "config-format", "dt-list-single", "schemes-repeated",
            "seed-negative", "seed-2-64", "config-seed-negative", "stability-mu",
            "config-stability-mu", "config-stability-x0", "config-key-config",
            "converge-n-prefix", "simulate-path-prefix", "removed-milstein-sign",
            "config-removed-milstein-sign", "local-error-sample-prefix",
            "converge-paths-zero", "local-error-samples-zero", "stability-grid-one",
            "simulate-n-zero", "converge-sigma-overflow", "local-error-sigma-overflow", "milstein-sigma-overflow"])
    def test_malformed_input_exits_2(self, argv, config, named, tmp_path, capsys):
        out = tmp_path / "out.csv"
        if config is not None:
            cfg = tmp_path / "run.cfg"
            cfg.write_text(config)
            argv = argv + ["--config", str(cfg)]
        assert exit_code(argv + ["-o", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"qpisde {argv[0]}: error: ")
        assert named in err and "Traceback" not in err and err.count("\n") == 1
        assert not out.exists()

    def test_config_path_with_newline_is_one_line(self, tmp_path, capsys):
        cfg = tmp_path / "a\nb.cfg"
        cfg.write_text("nn=4\n")
        assert exit_code(["simulate", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err == f"qpisde simulate: error: {tmp_path}/a b.cfg: unknown key(s) for simulate: nn\n"

    def test_config_not_utf8_is_one_line(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_bytes(b"n=4\nmu=-1\xff\xfe\n")
        assert exit_code(["simulate", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err == f"qpisde simulate: error: {cfg}: not UTF-8 text: byte 9 is 0xff\n"

    def test_config_byte_order_mark_ignored(self, tmp_path, capsysbinary):
        plain, marked = tmp_path / "plain.cfg", tmp_path / "marked.cfg"
        plain.write_bytes(b"paths=3\nn=4\nseed=7\n")
        marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        assert exit_code(["simulate", "--config", str(plain)]) == 0
        reference = capsysbinary.readouterr().out
        assert exit_code(["simulate", "--config", str(marked)]) == 0
        assert capsysbinary.readouterr().out == reference and reference.count(b"\n") == 6
        # a bad byte after the mark is named by its offset in the file
        marked.write_bytes(b"\xef\xbb\xbfn=4\nmu=-1\xff\n")
        assert exit_code(["simulate", "--config", str(marked)]) == 2
        err = capsysbinary.readouterr().err.decode()
        assert err == f"qpisde simulate: error: {marked}: not UTF-8 text: byte 12 is 0xff\n"

    @pytest.mark.parametrize("spaced,joined", [
        (["simulate", "--mu", "-1e-3", "--n", "2"], ["simulate", "--mu=-1e-3", "--n", "2"]),
        (["simulate", "--x0", "-2.5e0", "--n", "2"], ["simulate", "--x0=-2.5e0", "--n", "2"]),
        (["local-error", "--mu", "-2E0", "--dt-list", "0.5,0.25", "--samples", "10"],
         ["local-error", "--mu=-2E0", "--dt-list", "0.5,0.25", "--samples", "10"]),
        (["simulate", "--n", "2", "--output", "-"], ["simulate", "--n", "2"]),
        (["simulate", "--mu", "-.5", "--n", "2"], ["simulate", "--mu=-.5", "--n", "2"]),
        (["simulate", "--x0", "-1_0", "--n", "2"], ["simulate", "--x0=-1_0", "--n", "2"]),
        (["stability", "--mu-range", "-4:1", "--grid", "3"], ["stability", "--mu-range=-4:1", "--grid", "3"]),
    ], ids=["mu-exponent", "x0-exponent", "local-error-mu", "output-dash", "mu-leading-dot",
            "x0-underscore", "mu-range"])
    def test_negative_value_after_flag(self, spaced, joined, capsys):
        # a word that starts -digit, -.digit, -inf or -nan is a value, not an option
        assert main(joined) == 0
        expected = capsys.readouterr().out
        assert main(spaced) == 0
        assert capsys.readouterr().out == expected

    def test_negative_looking_output_path(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["simulate", "--n", "2", "--output=-1.csv"]) == 0
        expected = (tmp_path / "-1.csv").read_bytes()
        (tmp_path / "-1.csv").unlink()
        assert main(["simulate", "--n", "2", "-o", "-1.csv"]) == 0
        assert (tmp_path / "-1.csv").read_bytes() == expected

    def test_malformed_negative_value_names_its_flag(self, capsys):
        assert exit_code(["simulate", "--mu", "-1abc", "--n", "2"]) == 2
        err = capsys.readouterr().err
        assert err == "qpisde simulate: error: argument --mu: invalid float value: '-1abc'\n"

    @pytest.mark.parametrize("argv", [
        ["simulate", "--mu", "1e308", "--n", "4"],
        ["simulate", "--mu", "1e308", "--n", "4", "--paths", "2"],
        ["converge", "--mu", "1e308", "--n-list", "2,4", "--paths", "2"],
        ["local-error", "--mu", "1e308", "--dt-list", "0.5,0.25", "--samples", "10"],
    ], ids=["simulate", "simulate-paths", "converge", "local-error"])
    def test_non_finite_output_refused(self, argv, tmp_path, capsys):
        out = tmp_path / "out.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert exit_code(argv + ["-o", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"qpisde {argv[0]}: error: ")
        assert "inf or nan" in err and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["simulate", "--bogus"],
        ["stability", "--format", "png"],
        ["simulate", "--milstein-sign", "paper"],
        ["simulate", "--n", "abc"],
        [],
        ["simulate", "a\nb"],
        ["stability", "--grid", "3", "--x0", "7"],
    ], ids=["unknown-flag", "format-png", "milstein-sign", "n-word", "no-subcommand",
            "word-with-newline", "stability-x0"])
    def test_usage_error_is_one_line(self, argv, capsys):
        assert exit_code(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.count("\n") == 1 and "usage:" not in captured.err
        # an unknown flag too is reported by the subcommand it follows
        assert captured.err.startswith(f"qpisde {argv[0]}: error: " if argv else "qpisde: error: ")
        assert captured.out == ""

    @pytest.mark.parametrize("seed", ["0", str(2**64 - 1)])
    def test_seed_at_either_end_of_range_runs(self, seed, capsys):
        assert main(["converge", "--seed", seed, "--paths", "2", "--n-list", "4,16"]) == 0

    @pytest.mark.parametrize("message,line", [
        ("Unable to allocate 1.00 TiB for an array", "Unable to allocate 1.00 TiB for an array"),
        ("", "MemoryError"),
    ], ids=["numpy-message", "bare"])
    def test_memory_error_is_one_line_exit_1(self, message, line, monkeypatch, capsys):
        def out_of_memory(args):
            raise MemoryError(message)
        monkeypatch.setattr(cli, "cmd_stability", out_of_memory)
        assert exit_code(["stability", "--grid", "2"]) == 1
        assert capsys.readouterr().err == f"qpisde stability: error: {line}\n"


# Runs each argv in a process that may map only 512 MiB, so a run that gets past
# its size check fails with MemoryError instead of exhausting the machine.
OVERSIZE_SCRIPT = """
import contextlib, io, json, resource, sys
resource.setrlimit(resource.RLIMIT_AS, (512 << 20, 512 << 20))
import qpisde.cli
results = []
for argv in json.loads(sys.argv[1]):
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = qpisde.cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    results.append([code, err.getvalue()])
print(json.dumps(results))
"""


# Runs the measured argv after a tiny run of its command, and prints the growth of
# the process's peak RSS over the run (VmHWM after, less VmRSS before) as a
# multiple of the float64 values the run counts. ru_maxrss is not used: a child
# process starts with its parent's peak in it.
MEMORY_SCRIPT = """
import json, re, sys
import qpisde.cli
def kib(key):
    with open("/proc/self/status") as fh:
        return int(re.search(key + r":\\s+(\\d+) kB", fh.read())[1])
out, (warm, argv, values) = sys.argv[1], json.loads(sys.argv[2])
qpisde.cli.main(warm + ["-o", out])
before = kib("VmRSS")
qpisde.cli.main(argv + ["-o", out])
print(1024 * (kib("VmHWM") - before) / (8 * values))
"""


class TestWorkSize:
    OVERSIZE = [
        (["converge", "--n-list", "1e30", "--paths", "1"], "--n-list"),
        (["converge", "--paths", str(10**13)], "--paths"),
        # counts beyond the float range
        (["converge", "--n-list", "2,4", "--n-list", "1e308"], "--n-list"),
        (["converge", "--paths", "9" * 400], "--paths"),
        (["stability", "--grid", str(10**9)], "--grid"),
        (["simulate", "--n", str(10**11)], "--n"),
        (["simulate", "--paths", str(10**11)], "--paths"),
        (["local-error", "--samples", str(10**13)], "--samples"),
    ]

    def test_oversize_run_exits_2_before_allocating(self):
        argvs = [argv for argv, _ in self.OVERSIZE]
        done = subprocess.run([sys.executable, "-c", OVERSIZE_SCRIPT, json.dumps(argvs)],
                              env={**os.environ, "PYTHONPATH": str(SRC)},
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        for (argv, flag), (code, err) in zip(self.OVERSIZE, json.loads(done.stdout)):
            assert code == 2, (argv, err)
            assert err.startswith(f"qpisde {argv[0]}: error: "), (argv, err)
            assert flag in err and "limit" in err and err.count("\n") == 1, (argv, err)

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/status")
    def test_peak_memory_a_small_multiple_of_the_count(self, tmp_path):
        runs = [(["stability", "--grid", "4"], ["stability", "--grid", "1000"], 1000 * 1000),
                (["stability", "--grid", "4", "--scheme", "qpi-exact"],
                 ["stability", "--grid", "1000", "--scheme", "qpi-exact"], 1000 * 1000),
                (["simulate", "--paths", "2", "--n", "4"],
                 ["simulate", "--paths", "1000", "--n", "1000"], 1000 * 1001),
                (["local-error", "--samples", "10"], ["local-error", "--samples", "500000"], 2 * 500000)]
        growth = []
        for run in runs:  # each in a process of its own: a run reuses the pages an earlier one freed
            done = subprocess.run([sys.executable, "-c", MEMORY_SCRIPT, str(tmp_path / "out"), json.dumps(run)],
                                  env={**os.environ, "PYTHONPATH": str(SRC)},
                                  capture_output=True, text=True, timeout=120)
            assert done.returncode == 0, done.stderr
            growth.append(float(done.stdout))
        assert max(growth) <= 3, [f"{argv[:2]}: {g:.1f}x" for (_, argv, _), g in zip(runs, growth)]

    def test_budget_edge(self):
        cli._check_size(cli.MAX_VALUES, "--grid")
        with pytest.raises(InvalidInputError, match="--grid"):
            cli._check_size(cli.MAX_VALUES + 1, "--grid")

    @pytest.mark.parametrize("argv,values", [
        (["simulate", "--paths", "3", "--n", "4"], 3 * 5),
        (["stability", "--grid", "3"], 3 * 3),
        (["local-error", "--samples", "10", "--dt-list", "0.5,0.25"], 2 * 10),
        # the workspace, 4 arrays of one 2-path block of 17 nodes; the n = 4 buffer, the 2
        # paths of 5 nodes; 3 norms per path and table row
        (["converge", "--paths", "2", "--n-list", "4,16"], 4 * 2 * 17 + 2 * 5 + 3 * 2 * 3 * 2),
    ], ids=["simulate", "stability", "local-error", "converge"])
    def test_each_command_counts_its_values(self, argv, values, monkeypatch, capsys):
        monkeypatch.setattr(cli, "MAX_VALUES", values)
        assert main(argv) == 0
        monkeypatch.setattr(cli, "MAX_VALUES", values - 1)
        assert exit_code(argv) == 2
        assert "limit" in capsys.readouterr().err

    def test_converge_counts_its_buffers_before_it_draws(self, monkeypatch, capsys):
        # the default ladder at 100 paths: blocks of 63, and each coarser grid's
        # buffer holds both blocks, 126 rows
        argv = ["converge", "--paths", "100", "-o", os.devnull]
        n_list = [4, 16, 64, 256, 1024]
        values = 4 * 63 * 1025 + sum(126 * (n + 1) for n in n_list[:-1]) + 3 * 100 * 3 * len(n_list)
        drawn = []
        generate_path = analysis.generate_path
        monkeypatch.setattr(analysis, "generate_path",
                            lambda *args, **kwargs: drawn.append(args) or generate_path(*args, **kwargs))
        monkeypatch.setattr(cli, "MAX_VALUES", values - 1)
        assert exit_code(argv) == 2 and not drawn
        assert f"would hold {values:.3g} values" in capsys.readouterr().err
        monkeypatch.setattr(cli, "MAX_VALUES", values)
        assert main(argv) == 0 and len(drawn) == 2


class TestOutputRoutes:
    @pytest.mark.parametrize("argv,head", [
        (["simulate", "--paths", "3", "--n", "8"], b"t,path_1"),
        (["converge", "--paths", "3", "--n-list", "2,4"], b"scheme,n,"),
        (["stability", "--grid", "4"], b"mu,dt"),
        (["stability", "--grid", "4", "--format", "svg"], b"<svg"),
        (["local-error", "--samples", "10", "--dt-list", "0.5,0.25"], b"dt,mean_sq"),
    ], ids=["simulate", "converge", "stability-csv", "stability-svg", "local-error"])
    def test_same_bytes_through_file_stdout_and_text_stream(self, argv, head, tmp_path,
                                                           capsysbinary):
        out = tmp_path / "out"
        assert main(argv + ["-o", str(out)]) == 0
        assert main(argv) == 0
        piped = capsysbinary.readouterr().out
        stream = io.StringIO()  # a text stream with no byte buffer
        with contextlib.redirect_stdout(stream):
            assert main(argv) == 0
        assert piped == stream.getvalue().encode("ascii") == out.read_bytes()
        assert piped.startswith(head)

    @pytest.mark.parametrize("write", [
        lambda: analysis.convergence_study(["qpi"], GbmParams(-1.0, 0.5), [2, 4], 3, 1).to_csv(),
        lambda: analysis.local_error_study(GbmParams(-1.0, 0.5), [0.5, 0.25], 10, 1).to_csv(),
        lambda: stability.region_to_csv(stability.region_scan("iem", 0.5, (-1, 0), (0.1, 1), 3)),
        lambda: stability.region_to_svg(stability.region_scan("iem", 0.5, (-1, 0), (0.1, 1), 3)),
    ], ids=["convergence-table", "local-error-report", "region-csv", "region-svg"])
    def test_every_writer_returns_ascii_chunks(self, write):
        # the one contract _write_output takes: a nonempty iterable of ASCII bytes, ending a line
        chunks = list(write())
        assert chunks
        assert all(type(chunk) is bytes and chunk.isascii() for chunk in chunks)
        assert b"".join(chunks).endswith(b"\n")

    @pytest.mark.parametrize("module,name,argv", [
        (_csvtext, "join", ["simulate", "--paths", "3", "--n", "8"]),
        (stability, "region_to_csv", ["stability", "--grid", "4"]),
        (stability, "region_to_svg", ["stability", "--grid", "4", "--format", "svg"]),
    ], ids=["simulate", "stability-csv", "stability-svg"])
    @pytest.mark.parametrize("old", [b"old bytes\n", None], ids=["replaced", "new"])
    def test_failed_write_leaves_no_trace(self, module, name, argv, old, tmp_path, monkeypatch, capsys):
        writer = getattr(module, name)

        def failing(*args):  # the writer fails once its first chunk is out
            chunks = writer(*args)
            yield next(chunks)
            raise OSError("No space left on device")
        monkeypatch.setattr(module, name, failing)
        out = tmp_path / "out"
        if old is not None:
            out.write_bytes(old)
        assert exit_code(argv + ["-o", str(out)]) == 1
        assert capsys.readouterr().err == f"qpisde {argv[0]}: error: No space left on device\n"
        assert list(tmp_path.iterdir()) == ([] if old is None else [out])
        assert old is None or out.read_bytes() == old

    def test_non_regular_target_written_directly(self, monkeypatch):
        monkeypatch.setattr(cli.os, "replace", None)  # replacing it would fail the run
        assert main(["stability", "--grid", "4", "-o", os.devnull]) == 0
        assert stat.S_ISCHR(os.stat(os.devnull).st_mode)

    def test_pipe_through_dev_fd_written_directly(self, capsysbinary):
        # /dev/fd/<w> resolves to a name that is no file, like `-o >(gzip > x.gz)`
        assert main(["stability", "--grid", "4", "-o", "-"]) == 0
        reference = capsysbinary.readouterr().out
        r, w = os.pipe()
        with os.fdopen(r, "rb") as fh:
            try:
                assert main(["stability", "--grid", "4", "-o", f"/dev/fd/{w}"]) == 0
            finally:
                os.close(w)
            assert fh.read() == reference

    def test_dev_stdout_written_directly(self, capfd):
        # pytest's capture file is unlinked, so /dev/stdout resolves to a name that is no file
        assert main(["stability", "--grid", "4", "-o", "-"]) == 0
        reference = capfd.readouterr().out
        assert main(["stability", "--grid", "4", "-o", "/dev/stdout"]) == 0
        assert capfd.readouterr().out == reference

    def test_file_through_a_symlink_gets_the_umask_mode(self, tmp_path):
        out, link = tmp_path / "out.csv", tmp_path / "link.csv"
        out.write_bytes(b"old bytes\n")
        out.chmod(0o600)
        link.symlink_to(out)
        assert main(["stability", "--grid", "4", "-o", str(link)]) == 0
        assert link.is_symlink() and out.read_bytes().startswith(b"mu,dt,lhs,stable\n")
        umask = os.umask(0)
        os.umask(umask)
        assert stat.S_IMODE(out.stat().st_mode) == 0o666 & ~umask
        assert sorted(p.name for p in tmp_path.iterdir()) == ["link.csv", "out.csv"]


# An argv grammar for the input contract: each subcommand starts from a small
# run, then draws flags whose values are valid, malformed or extreme. A size
# flag is either small or far above MAX_VALUES, so no run holds more than a few
# thousand values; the oversize runs are refused before they allocate.
SPECIAL = ["0", "-0", "inf", "-inf", "nan", "1e308", "-1e308", str(2**63), str(2**64), "", "-"]
BASE = {"simulate": ["--n", "8"], "converge": ["--n-list", "2,4", "--paths", "3"],
        "stability": ["--grid", "4"], "local-error": ["--dt-list", "0.5,0.25", "--samples", "20"]}
FLAGS = {"simulate": ["--mu", "--x0", "--t-end", "--n", "--scheme", "--paths"],
         "converge": ["--mu", "--x0", "--t-end", "--n-list", "--schemes", "--paths"],
         "stability": ["--scheme", "--mu-range", "--dt-range", "--grid", "--format"],
         "local-error": ["--mu", "--x0", "--dt-list", "--samples"]}
VALUES = {
    "--seed": ["0", "85"], "--sigma": ["0", "0.5", "2"], "--mu": ["-1", "0", "3"],
    "--x0": ["1", "-2"], "--t-end": ["1", "0.25"],
    "--n": ["1", "2", "8"], "--paths": ["1", "3"], "--grid": ["2", "5"], "--samples": ["1", "20"],
    "--scheme": ["qpi", "em", "iem", "milstein", "milstein-paper", "qpi-paper", "qpi-exact", "x"],
    "--format": ["csv", "svg", "pdf"],
    "--n-list": ["2,4", "4,16", "1", "4,2", "0,4", "4,,8", "4.5,9", ",", "-4,8"],
    "--schemes": ["qpi,iem", "milstein", "milstein,milstein-paper", "qpi,qpi", "qpi,,em", "x"],
    "--mu-range": ["-4:1", "1:-4", "0:0", ":", "1:", "1:2:3", "a:b", "-inf:1", "nan:1",
                   "-1e308:1e308"],
    "--dt-range": ["0.01:1", "0:1", "1e-300:1e300", "inf:1", "1:nan", "-1:1"],
    "--dt-list": ["0.5,0.25", "0.25,0.5", "0.5", "0.5,,0.25", "nan,0.1", "1e308,1", "0.5,-0.25"],
}


@st.composite
def argvs(draw):
    """A subcommand, up to three flags with values from their own list, then
    one flag with a value from SPECIAL."""
    sub = draw(st.sampled_from(sorted(BASE)))
    flags = st.sampled_from(["--seed", "--sigma", *FLAGS[sub]])
    pairs = [(f, draw(st.sampled_from(VALUES[f]))) for f in draw(st.lists(flags, max_size=3))]
    pairs.append((draw(flags), draw(st.sampled_from(SPECIAL))))
    argv = [sub, *BASE[sub]]
    for flag, value in pairs:
        argv += [f"{flag}={value}"] if draw(st.booleans()) else [flag, value]
    return argv


@settings(max_examples=200, deadline=None)
@given(argv=argvs())
@example(argv=["simulate", "--n", "8", "--sigma", "1e308"])
def test_any_argv_keeps_the_input_contract(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = exit_code(argv)
    err = err.getvalue()
    assert code in (0, 1, 2) and "Traceback" not in err, (argv, err)
    if code:
        assert err.count("\n") == 1 and err.startswith(f"qpisde {argv[0]}: error: "), (argv, err)
    if code == 0 and argv[0] != "stability":
        fields = set(re.split(r"[,\n=]", out.getvalue()))
        assert not fields & {"inf", "-inf", "nan"}, argv
