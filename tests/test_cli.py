import warnings

import numpy as np
import pytest

from qpisde import cli
from qpisde.cli import main


def run(args):
    return main(args)


def read(path):
    return path.read_bytes()


class TestSimulate:
    def test_single_path_row_count(self, tmp_path):
        out = tmp_path / "traj.csv"
        rc = run(["simulate", "--mu", "-1", "--sigma", "0.5", "--n", "256",
                  "--scheme", "qpi", "--seed", "42", "-o", str(out)])
        assert rc == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "t,exact,approx"
        assert len(lines) == 258

    def test_odd_n_for_qpi(self, capsys):
        rc = run(["simulate", "--n", "255", "--scheme", "qpi"])
        assert rc == 2
        assert "N must be even for qpi" in capsys.readouterr().err

    def test_multi_path_growth_at_positive_drift(self, tmp_path):
        out = tmp_path / "paths.csv"
        rc = run(["simulate", "--mu", "1", "--sigma", "0.5", "--paths", "10",
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
        assert run(args + ["-o", str(a)]) == 0
        assert run(args + ["-o", str(b)]) == 0
        assert read(a) == read(b)

    def test_unwritable_output(self):
        rc = run(["simulate", "--n", "8", "-o", "/nonexistent-dir/x.csv"])
        assert rc == 1


class TestConverge:
    def test_row_cardinality(self, tmp_path):
        out = tmp_path / "conv.csv"
        rc = run(["converge", "--n-list", "4,16,64", "--schemes", "qpi,iem,milstein",
                  "--paths", "5", "--seed", "7", "-o", str(out)])
        assert rc == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "scheme,n,l1,l2,linf,n_paths"
        assert len(lines) == 10

    def test_errors_decrease_down_each_column(self, tmp_path):
        out = tmp_path / "conv.csv"
        rc = run(["converge", "--n-list", "4,16,64,256", "--schemes", "qpi,iem",
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
        assert run(args + ["-o", str(a)]) == 0
        assert run(args + ["-o", str(b)]) == 0
        assert read(a) == read(b)


class TestStability:
    def test_csv_cardinality(self, tmp_path):
        out = tmp_path / "reg.csv"
        rc = run(["stability", "--scheme", "qpi-paper", "--sigma", "0.5",
                  "--mu-range", "-4:1", "--dt-range", "0.01:1", "--grid", "20",
                  "-o", str(out)])
        assert rc == 0
        lines = out.read_text().strip().split("\n")
        assert len(lines) == 401

    def test_cells_at_anchor_points(self, tmp_path):
        out = tmp_path / "reg.csv"
        # axes chosen so (mu, dt) = (-1, 0.5) and (1, 0.5) are grid points
        rc = run(["stability", "--scheme", "qpi-paper", "--sigma", "0.5",
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
        rc = run(["stability", "--grid", "10", "--format", "svg", "-o", str(out)])
        assert rc == 0
        text = out.read_text()
        assert text.startswith("<svg")
        assert "</svg>" in text

    def test_invalid_range(self, capsys):
        rc = run(["stability", "--mu-range", "1:-1"])
        assert rc == 2

    def test_iem_squared_denominator_overflow(self, capsys):
        # (1 - mu*dt)^2 overflows at dt = 1e200; the cells must not read 0
        assert run(["stability", "--scheme", "iem", "--mu-range", "-4:1",
                    "--dt-range", "0.01:1e200", "--grid", "2"]) == 0
        rows = capsys.readouterr().out.split("\n")
        assert rows[2] == "-4,9.9999999999999997e+199,1.5625e-202,1"
        assert rows[4] == "1,9.9999999999999997e+199,2.5e-201,1"

    def test_deterministic_rerun(self, tmp_path):
        a, b = tmp_path / "a.svg", tmp_path / "b.svg"
        args = ["stability", "--grid", "12", "--format", "svg"]
        assert run(args + ["-o", str(a)]) == 0
        assert run(args + ["-o", str(b)]) == 0
        assert read(a) == read(b)


class TestLocalError:
    def test_csv_and_slope_line(self, tmp_path):
        out = tmp_path / "le.csv"
        rc = run(["local-error", "--dt-list", "0.125,0.0625,0.03125",
                  "--samples", "2000", "--seed", "5", "-o", str(out)])
        assert rc == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "dt,mean_sq_local_error"
        assert len(lines) == 5
        assert lines[-1].startswith("# slope=")

    def test_empty_dt_list(self, capsys):
        rc = run(["local-error", "--dt-list", ""])
        assert rc == 2

    def test_deterministic_rerun(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["local-error", "--dt-list", "0.25,0.125", "--samples", "500",
                "--seed", "3"]
        assert run(args + ["-o", str(a)]) == 0
        assert run(args + ["-o", str(b)]) == 0
        assert read(a) == read(b)


class TestConfigAndHelp:
    def test_config_file_used(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("n = 4  # small grid\nscheme = em\n")
        out = tmp_path / "t.csv"
        rc = run(["simulate", "--config", str(cfg), "-o", str(out)])
        assert rc == 0
        assert len(out.read_text().strip().split("\n")) == 6

    def test_flags_override_config(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("n=4\nscheme=em\n")
        out = tmp_path / "t.csv"
        rc = run(["simulate", "--config", str(cfg), "--n", "8", "-o", str(out)])
        assert rc == 0
        assert len(out.read_text().strip().split("\n")) == 10

    def test_malformed_config(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("this is not a pair\n")
        assert run(["simulate", "--config", str(cfg)]) == 2

    @pytest.mark.parametrize("sub", ["simulate", "converge", "stability", "local-error"])
    def test_help_lists_flags(self, sub, capsys):
        with pytest.raises(SystemExit) as exc:
            main([sub, "--help"])
        assert exc.value.code == 0
        text = capsys.readouterr().out
        assert "--seed" in text and "default" in text

    def test_unknown_scheme(self, capsys):
        assert run(["simulate", "--scheme", "rk4", "--n", "8"]) == 2

    def test_flag_before_config_overrides_config(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("n=4\nscheme=em\n")
        out = tmp_path / "t.csv"
        rc = run(["simulate", "--n", "8", "--config", str(cfg), "-o", str(out)])
        assert rc == 0
        assert len(out.read_text().strip().split("\n")) == 10

    @pytest.mark.parametrize("argv,line,flag", [
        (["simulate", "--scheme", "milstein", "--n", "8"], "milstein_sign=paper",
         ["--milstein-sign", "paper"]),
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


def exit_code(argv):
    """main's return value, or the code argparse exits with."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


class TestInputContract:
    @pytest.mark.parametrize("argv,config,named", [
        (["converge", "--n-list", "4,16,abc", "--paths", "2"], None, "abc"),
        (["converge", "--n-list", "4.6,16", "--paths", "2"], None, "4.6"),
        (["converge", "--n-list", "0,4", "--paths", "2"], None, "n_list"),
        (["stability", "--mu-range", "a:b", "--grid", "3"], None, "'a'"),
        (["simulate", "--n", "4"], "mu=abc\n", "abc"),
        (["simulate"], "nn=4\n", "nn"),
        (["stability", "--sigma", "nan", "--grid", "2"], None, "sigma"),
        (["stability", "--sigma", "-1", "--grid", "2"], None, "sigma"),
        (["stability", "--mu-range", "-1e308:1e308", "--grid", "2"], None, "finite"),
        (["stability", "--dt-range", "0.01:inf", "--grid", "2"], None, "finite"),
        (["local-error", "--dt-list", "nan"], None, "finite"),
        (["stability", "--mu-range", "-4:1", "--dt-range", "0.01:1e200", "--grid", "2"], None,
         "inf or nan"),
        (["stability", "--scheme", "milstein", "--mu-range", "-4:1", "--dt-range", "0.01:1e200",
          "--grid", "2"], None, "inf or nan"),
        (["simulate", "--n", "4"], "milstein_sign=bogus\n", "bogus"),
        (["stability", "--grid", "2"], "format=pdf\n", "pdf"),
        (["local-error", "--dt-list", "0.1"], None, "at least 2"),
        (["converge", "--schemes", "qpi,QPI", "--paths", "3", "--n-list", "4,16"], None, "repeat"),
        (["converge", "--seed", "-1", "--paths", "2", "--n-list", "4,16"], None, "--seed"),
        (["converge", "--seed", str(2**64), "--paths", "2", "--n-list", "4,16"], None, "--seed"),
        (["converge", "--paths", "2", "--n-list", "4,16"], "seed=-1\n", "--seed"),
        # stability has no --mu: argparse reads it as an abbreviation of --mu-range
        (["stability", "--grid", "3", "--mu", "5"], None, "got '5'"),
        (["stability", "--grid", "3"], "mu=5\n", "for stability: mu"),
        (["stability", "--grid", "3"], "x0=7\n", "for stability: x0"),
        # a config file cannot name another one: the splice would recurse
        (["simulate"], "config=other.cfg\n", "for simulate: config"),
    ], ids=["n-list-word", "n-list-fraction", "n-list-zero", "range-word", "config-word",
            "config-unknown-key", "sigma-nan", "sigma-negative", "mu-range-overflow",
            "dt-range-inf", "dt-list-nan", "qpi-paper-overflow", "milstein-overflow",
            "config-choice", "config-format", "dt-list-single", "schemes-repeated",
            "seed-negative", "seed-2-64", "config-seed-negative", "stability-mu",
            "config-stability-mu", "config-stability-x0", "config-key-config"])
    def test_malformed_input_exits_2(self, argv, config, named, tmp_path, capsys):
        out = tmp_path / "out.csv"
        if config is not None:
            cfg = tmp_path / "run.cfg"
            cfg.write_text(config)
            argv = argv + ["--config", str(cfg)]
        assert exit_code(argv + ["-o", str(out)]) == 2
        err = capsys.readouterr().err
        assert named in err and "Traceback" not in err and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("spaced,joined", [
        (["simulate", "--mu", "-1e-3", "--n", "2"], ["simulate", "--mu=-1e-3", "--n", "2"]),
        (["simulate", "--x0", "-2.5e0", "--n", "2"], ["simulate", "--x0=-2.5e0", "--n", "2"]),
        (["local-error", "--mu", "-2E0", "--dt-list", "0.5,0.25", "--samples", "10"],
         ["local-error", "--mu=-2E0", "--dt-list", "0.5,0.25", "--samples", "10"]),
        (["simulate", "--n", "2", "--output", "-"], ["simulate", "--n", "2"]),
    ], ids=["mu-exponent", "x0-exponent", "local-error-mu", "output-dash"])
    def test_negative_value_after_flag(self, spaced, joined, capsys):
        # argparse takes "-1e-3" for an option: only plain negatives like -3 pass unjoined
        assert main(joined) == 0
        expected = capsys.readouterr().out
        assert main(spaced) == 0
        assert capsys.readouterr().out == expected

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
        assert "inf or nan" in err and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["simulate", "--bogus"],
        ["stability", "--format", "png"],
        ["simulate", "--milstein-sign", "x"],
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
        assert captured.err.startswith("qpisde") and ": error: " in captured.err
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
        assert main(["stability", "--grid", "2"]) == 1
        assert capsys.readouterr().err == line + "\n"
