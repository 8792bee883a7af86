"""End-to-end command-line tests driven through main()."""
import dataclasses
import json
import time

import numpy as np
import pytest

from posid import cli, experiments
from posid.assembly import assemble_core, assemble_polynomial_blocks
from posid.cli import main
from posid.errors import ConfigError, SolverError
from posid.estimator import (IdentifyDiagnostics, PositiveIdConfig, build_qp,
                             identify, initial_constraint_horizon)
from posid.extensions import FiniteResponseConfig, identify_finite_response
from posid.kernels import KernelSpec, window_kernel
from posid.qp import ConvexQP
from posid.signals import (ImpulseResponse, TimeSeriesData, convolve,
                           read_impulse_csv, read_timeseries_csv,
                           write_impulse_csv)


def _write_data_csv(path, u, y):
    with open(path, "w", encoding="ascii") as fh:
        fh.write("t,u,y\n")
        for t in range(len(u)):
            fh.write(f"{t},{float(u[t])!r},{float(y[t])!r}\n")


def _single_mode_csv(path, n=30, rho=0.9, seed=0, noise=0.0):
    rng = np.random.default_rng(seed)
    u = rng.choice([-1.0, 1.0], size=n)
    g = rho ** np.arange(n, dtype=float)
    y = np.convolve(u, g)[:n]
    if noise:
        y = y + noise * rng.standard_normal(n)
    _write_data_csv(path, u, y)
    return u, y


def test_identify_g_writes_library_result(tmp_path):
    data_path = tmp_path / "data.csv"
    u, y = _single_mode_csv(data_path)
    out = tmp_path / "out"
    code = main(["identify", "--data", str(data_path), "--method", "g",
                 "--kernel", "tc", "--beta", "0.5", "--rho", "0.9",
                 "--lam", "0.01", "--out-dir", str(out)])
    assert code == 0
    est = read_impulse_csv(out / "impulse.csv")
    config = PositiveIdConfig(kernel=KernelSpec.tc(0.5), rho=0.9, lam=0.01)
    model = identify(config, TimeSeriesData.at_rest(u, y))
    np.testing.assert_array_equal(est.values, model.g.values,
                                  "CSV must round-trip the exact floats")
    meta = json.loads((out / "metadata.json").read_text())
    assert meta["method"] == "g"
    assert meta["qp_status"] == "optimal"
    # the noiseless single-mode record binds no positivity row, so the
    # QP's unconstrained minimiser, the polish over no row, is certified
    # without a dual active-set step
    assert (meta["qp_path"], meta["qp_iterations"]) == ("polish", 0)
    assert meta["a"] == pytest.approx(model.a)
    assert meta["m"] == model.m
    diag = dataclasses.asdict(model.diagnostics)
    assert {key: meta.get(key) for key in diag} == diag


def test_identify_zsr_is_baseline_e(tmp_path):
    data_path = tmp_path / "data.csv"
    u, y = _single_mode_csv(data_path, noise=0.01)
    outputs = {}
    for method in ("zsr", "e"):
        out = tmp_path / method
        code = main(["identify", "--data", str(data_path), "--method",
                     method, "--kernel", "tc", "--beta", "0.7", "--n-g",
                     "12", "--lam", "0.1", "--out-dir", str(out)])
        assert code == 0
        outputs[method] = ((out / "impulse.csv").read_bytes(),
                           json.loads((out / "metadata.json").read_text()))
    config = FiniteResponseConfig(kernel=window_kernel(KernelSpec.tc(0.7), 12),
                                  lam=0.1)
    model = identify_finite_response(config, TimeSeriesData.at_rest(u, y))
    np.testing.assert_array_equal(
        read_impulse_csv(tmp_path / "zsr" / "impulse.csv").values,
        model.g.values)
    assert outputs["zsr"][0] == outputs["e"][0]
    meta_zsr, meta_e = outputs["zsr"][1], outputs["e"][1]
    assert meta_zsr.pop("method") == "zsr" and meta_e.pop("method") == "e"
    assert meta_zsr == meta_e == {
        "data": str(data_path), "n_g": 12, "lam": 0.1, "kernel": "tc",
        "beta": 0.7, "m": model.m, **dataclasses.asdict(model.diagnostics)}


def _identify_options(dest=None):
    """Every identify option's destination, or the choices of one."""
    actions = cli.build_parser()[1].choices["identify"]._actions
    if dest is None:
        return {action.dest for action in actions}
    return next(action.choices for action in actions if action.dest == dest)


LOOP_METHODS = ("g", "nup", "snp", "zsr", "e")


@pytest.mark.parametrize("method", _identify_options("method"))
def test_identify_every_method(tmp_path, method):
    data_path = tmp_path / "data.csv"
    _single_mode_csv(data_path, n=40, noise=0.01)
    out = tmp_path / "out"
    code = main(["identify", "--data", str(data_path), "--method", method,
                 "--kernel", "tc", "--beta", "0.5", "--rho", "0.9",
                 "--lam", "0.01", "--n-g", "12", "--out-dir", str(out)])
    assert code == 0
    assert read_impulse_csv(out / "impulse.csv").horizon > 0
    meta = json.loads((out / "metadata.json").read_text())
    assert meta["method"] == method
    keys = {f.name for f in dataclasses.fields(IdentifyDiagnostics)} | {"m"}
    if method in LOOP_METHODS:
        assert keys <= meta.keys()
        assert meta["qp_status"] == "optimal"
    else:
        assert not keys & meta.keys()


@pytest.mark.parametrize("method", ("g", "nup", "snp", "zsr", "d", "e"))
def test_dc_run_rebuilds_from_its_metadata(tmp_path, method):
    # gamma, beta and the kernel are recorded, so the options in the
    # metadata alone repeat the run
    data_path = tmp_path / "data.csv"
    _single_mode_csv(data_path, n=40, noise=0.01)
    first = tmp_path / "first"
    code = main(["identify", "--data", str(data_path), "--method", method,
                 "--kernel", "dc", "--beta", "0.6", "--gamma", "-0.3",
                 "--rho", "0.95", "--lam", "0.05", "--n", "3",
                 "--n-g", "15", "--out-dir", str(first)])
    assert code == 0
    meta = json.loads((first / "metadata.json").read_text())
    assert meta["gamma"] == -0.3
    config_path = tmp_path / "rebuild.json"
    config_path.write_text(json.dumps(
        {key: value for key, value in meta.items()
         if key in _identify_options()}))
    second = tmp_path / "second"
    assert main(["identify", "--config", str(config_path),
                 "--out-dir", str(second)]) == 0
    assert (second / "impulse.csv").read_bytes() \
        == (first / "impulse.csv").read_bytes()
    assert json.loads((second / "metadata.json").read_text()) == meta


@pytest.mark.parametrize("flag, value, message", [
    ("--n-g", "0", "n_g must be positive"),
    ("--beta", "1.5", "beta"),
    ("--rho", "0.9", "not strictly smaller than rho"),
    ("--lam-fir", "-1", "lam_fir must be positive"),
    ("--lam-fir", "nan", "lam_fir must be positive and finite"),
    ("--lam-g", "inf", "lam_g must be positive and finite"),
    ("--workers", "0", "workers must be positive"),
    ("--snr", "20 20", "duplicate SNR levels"),
    ("--snr", "nan", "SNR levels must be finite"),
], ids=["n-g", "beta", "coupling", "lam-fir", "lam-fir-nan", "lam-g-inf",
        "workers", "snr-repeated", "snr-nan"])
def test_montecarlo_rejects_bad_settings_before_any_run(
        tmp_path, capsys, monkeypatch, flag, value, message):
    def no_run(*args):
        raise AssertionError("a Monte Carlo run started")

    monkeypatch.setattr(experiments, "_mc_single_run", no_run)
    out = tmp_path / "out"
    code = main(["montecarlo", "--runs", "2", "--n-d", "30", "--snr", "20",
                 "--workers", "1", flag, *value.split(), "--out-dir",
                 str(out)])
    assert code == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flag, value, message", [
    ("--n-g", "0", "n_g must be positive"),
    ("--budget", "0", "tune_budget must be positive"),
    ("--a-min", "-1", "a_min must be positive"),
    ("--rho", "1.5", "rho must lie in (0, 1)"),
    ("--beta", "1.0", "beta must lie in [0, 1)"),
    ("--lam", "0", "lam must be positive"),
], ids=["n-g", "budget", "a-min", "rho", "beta", "lam"])
def test_heating_rejects_bad_settings_before_any_run(
        tmp_path, capsys, monkeypatch, flag, value, message):
    def no_run(*args):
        raise AssertionError("the heating run started")

    monkeypatch.setattr(cli, "run_heating", no_run)
    data = tmp_path / "data.csv"
    _single_mode_csv(data)
    out = tmp_path / "out"
    code = main(["heating", "--data", str(data), "--methods", "g", "b",
                 flag, value, "--out-dir", str(out)])
    assert code == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv, code", [
    (["identify", "--data", "{data}", "--lam", "nan"], 2),
    (["identify", "--data", "{data}", "--beta", "0.95", "--rho", "0.9"], 2),
    (["tune", "--data", "{data}", "--rho-range", "0.9", "0.5"], 2),
    (["montecarlo", "--runs", "2", "--n-d", "30", "--snr", "nan",
      "--workers", "1", "--methods", "b"], 2),
    (["heating", "--data", "{short}", "--methods", "b"], 3),
    (["heating", "--data", "{wide}", "--format", "daisy"], 3),
    (["heating", "--data", "{table}", "--format", "daisy", "--methods", "b",
      "b"], 2),
    (["predict", "--impulse", "{impulse}", "--data", "{data}",
      "--times", "500"], 3),
], ids=["identify-lam-nan", "identify-coupling", "tune-rho-range",
        "montecarlo-snr-nan", "heating-short-record", "heating-daisy-columns",
        "heating-daisy-methods", "predict-times"])
def test_rejected_run_leaves_no_output_dir(tmp_path, argv, code):
    # artifacts are written only after the run, so a run refused for its
    # settings or its data does not make its output directory; the record
    # that heating converts from a daisy table is one of them
    paths = {"data": tmp_path / "data.csv", "short": tmp_path / "short.csv",
             "impulse": tmp_path / "impulse.csv",
             "wide": tmp_path / "wide.dat", "table": tmp_path / "table.dat"}
    _single_mode_csv(paths["data"])
    _single_mode_csv(paths["short"], n=60)
    write_impulse_csv(paths["impulse"], ImpulseResponse(np.ones(5)))
    paths["wide"].write_text("1 2 3 4\n5 6 7 8\n", encoding="ascii")
    paths["table"].write_text("1 2\n3 4\n", encoding="ascii")
    out = tmp_path / "out"
    argv = [arg.format(**paths) for arg in argv]
    assert main(argv + ["--out-dir", str(out)]) == code
    assert not out.exists()


def test_out_dir_naming_a_file_is_a_config_error(tmp_path, capsys):
    data_path = tmp_path / "data.csv"
    _single_mode_csv(data_path)
    out = tmp_path / "out"
    out.write_text("not a directory\n")
    code = main(["identify", "--data", str(data_path), "--method", "b",
                 "--n-g", "10", "--out-dir", str(out)])
    assert code == 2
    assert f"cannot make directory {out}" in capsys.readouterr().err
    assert out.read_text() == "not a directory\n"


def test_out_dir_under_a_file_is_a_config_error(tmp_path, capsys):
    data_path = tmp_path / "data.csv"
    _single_mode_csv(data_path)
    out = data_path / "out"
    code = main(["identify", "--data", str(data_path), "--method", "b",
                 "--n-g", "10", "--out-dir", str(out)])
    assert code == 2
    assert f"cannot make directory {out}" in capsys.readouterr().err


def test_dump_qp_into_a_missing_directory_is_a_config_error(tmp_path,
                                                            capsys):
    data_path = tmp_path / "data.csv"
    _single_mode_csv(data_path)
    dump = tmp_path / "missing" / "qp.npz"
    code = main(["identify", "--data", str(data_path), "--beta", "0.5",
                 "--dump-qp", str(dump), "--out-dir", str(tmp_path / "out")])
    assert code == 2
    assert f"cannot write {dump}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_identify_dump_qp(tmp_path):
    data_path = tmp_path / "data.csv"
    _single_mode_csv(data_path)
    out = tmp_path / "out"
    dump = tmp_path / "qp.txt"
    code = main(["identify", "--data", str(data_path), "--beta", "0.5",
                 "--lam", "0.01", "--dump-qp", str(dump),
                 "--out-dir", str(out)])
    assert code == 0
    with np.load(dump) as arrays:
        problem = ConvexQP(**arrays)
    # 1 amplitude + max(width 30, m_init + 1 = 31) section coefficients
    assert problem.P.shape == (32, 32)
    assert problem.G.shape[0] == 32
    code = main(["identify", "--data", str(data_path), "--method", "b",
                 "--dump-qp", str(dump), "--out-dir", str(out)])
    assert code == 2, "dump-qp is specific to the positive estimator"


def test_dump_qp_runs_over_the_pivoted_sections(tmp_path):
    # tc(0.5) on 80 lags is rank-deficient to roundoff (0.5**50 is below
    # LAPACK's rank tolerance), so the dump holds fewer than 1 + 81
    # variables, and it round-trips as the QP the library builds
    data_path = tmp_path / "data.csv"
    u, y = _single_mode_csv(data_path, n=80, noise=0.01)
    dump = tmp_path / "qp.npz"
    code = main(["identify", "--data", str(data_path), "--beta", "0.5",
                 "--lam", "0.01", "--dump-qp", str(dump),
                 "--out-dir", str(tmp_path / "out")])
    assert code == 0
    data = TimeSeriesData.at_rest(u, y)
    mats = assemble_core(KernelSpec.tc(0.5), data,
                         initial_constraint_horizon(data))
    with np.load(dump) as arrays:
        problem = ConvexQP(**arrays)
    assert problem.dim == 1 + mats.sections.size < 1 + 81
    built = build_qp(0.01, mats, assemble_polynomial_blocks(data, 0.9, 1))
    for name in ("P", "q", "G", "l"):
        np.testing.assert_array_equal(getattr(problem, name),
                                      getattr(built, name), err_msg=name)


def test_failed_dump_qp_leaves_no_file(tmp_path, monkeypatch):
    # the dump is written next to its path and renamed into place, so a
    # dump that fails part-way leaves nothing behind
    data_path = tmp_path / "data.csv"
    _single_mode_csv(data_path)
    dump = tmp_path / "qp.txt"

    def partial_dump(problem, path):
        with open(path, "w") as fh:
            fh.write("%%MatrixMarket matrix array real general\n")
        raise ConfigError("simulated failure while writing the dump")

    monkeypatch.setattr(cli, "dump_qp", partial_dump)
    code = main(["identify", "--data", str(data_path), "--beta", "0.5",
                 "--lam", "0.01", "--dump-qp", str(dump),
                 "--out-dir", str(tmp_path / "out")])
    assert code == 2
    assert not dump.exists()
    assert not (tmp_path / "qp.txt.tmp").exists()


@pytest.mark.parametrize("argv, module, run", [
    (["identify", "--data", "{data}"], cli, "identify"),
    (["tune", "--data", "{data}"], cli, "tune"),
    (["montecarlo", "--runs", "30", "--n-d", "200", "--snr", "20",
      "--workers", "1"], experiments, "_mc_single_run"),
    (["heating", "--data", "{data}"], cli, "run_heating"),
    (["predict", "--impulse", "{impulse}", "--data", "{data}"], cli,
     "convolve"),
], ids=["identify", "tune", "montecarlo", "heating", "predict"])
def test_out_dir_that_cannot_be_made_is_refused_before_the_run(
        tmp_path, capsys, monkeypatch, argv, module, run):
    def no_run(*args, **kwargs):
        raise AssertionError("the run started")

    monkeypatch.setattr(module, run, no_run)
    paths = {"data": tmp_path / "data.csv",
             "impulse": tmp_path / "impulse.csv"}
    _single_mode_csv(paths["data"])
    write_impulse_csv(paths["impulse"], ImpulseResponse(np.ones(5)))
    out = paths["data"] / "sub" / "deeper"
    argv = [arg.format(**paths) for arg in argv]
    assert main(argv + ["--out-dir", str(out)]) == 2
    assert f"cannot make directory {out}" in capsys.readouterr().err


def test_identify_exit_codes(tmp_path, capsys):
    out = tmp_path / "out"
    code = main(["identify", "--data", str(tmp_path / "missing.csv"),
                 "--out-dir", str(out)])
    assert code == 3
    assert "missing.csv" in capsys.readouterr().err
    data_path = tmp_path / "data.csv"
    _single_mode_csv(data_path)
    # beta 0.95 decays at sqrt(0.95) ~ 0.9747, slower than rho 0.9
    code = main(["identify", "--data", str(data_path), "--beta", "0.95",
                 "--rho", "0.9", "--out-dir", str(out)])
    assert code == 2
    assert "not strictly smaller" in capsys.readouterr().err
    code = main(["identify", "--data", str(data_path),
                 "--method", "bogus", "--out-dir", str(out)])
    assert code == 2, "argparse rejection maps to the config exit code"


@pytest.mark.parametrize("method", ["g", "d"])
@pytest.mark.parametrize("lam", ["nan", "inf"])
def test_identify_rejects_a_nonfinite_lambda(tmp_path, capsys, method, lam):
    # the setting is refused before any fit: a NaN or infinite lambda
    # breaks method g's m0 bound and makes method d's response all NaN
    data_path = tmp_path / "data.csv"
    _single_mode_csv(data_path)
    out = tmp_path / "out"
    code = main(["identify", "--data", str(data_path), "--method", method,
                 "--beta", "0.5", "--lam", lam, "--out-dir", str(out)])
    assert code == 2
    assert "lambda must be positive and finite" in capsys.readouterr().err
    assert not (out / "impulse.csv").exists()


def test_montecarlo_outputs_are_byte_identical(tmp_path):
    args = ["montecarlo", "--runs", "2", "--n-d", "50", "--snr", "20",
            "--methods", "b", "e", "--seed", "0", "--workers", "1",
            "--n-g", "30", "--horizon", "60"]
    first = tmp_path / "first"
    second = tmp_path / "second"
    assert main(args + ["--out-dir", str(first)]) == 0
    assert main(args + ["--out-dir", str(second)]) == 0
    for name in ("metrics.csv", "fits.csv"):
        a = (first / name).read_bytes()
        b = (second / name).read_bytes()
        assert a == b, f"{name} differs between identical runs"
    header = (first / "metrics.csv").read_text().splitlines()[0]
    assert header == "method,snr,bias,var,mse"
    assert (first / "fits.csv").read_text().splitlines()[0] \
        == "method,snr,run,fit"


def test_montecarlo_reports_failed_runs(tmp_path, capsys, monkeypatch):
    # a method that fails in every run gets a failures.csv row per run
    # and nan statistics, and the others are scored as usual
    baseline = experiments.run_baseline

    def failing_c(kind, data):
        if kind.kind == "c":
            raise SolverError("simulated solver failure")
        return baseline(kind, data)

    monkeypatch.setattr(experiments, "run_baseline", failing_c)
    out = tmp_path / "out"
    assert main(["montecarlo", "--runs", "2", "--n-d", "30", "--snr", "20",
                 "--workers", "1", "--methods", "b", "c",
                 "--out-dir", str(out)]) == 0
    assert "method c: mse nan, bias nan, var nan, 2 failures" \
        in capsys.readouterr().out
    lines = (out / "failures.csv").read_text().splitlines()
    assert lines == ["method,snr,run,message",
                     "c,20.0,0,simulated solver failure",
                     "c,20.0,1,simulated solver failure"]
    metrics = {line.split(",")[0]: line.split(",")[2:]
               for line in (out / "metrics.csv").read_text().splitlines()}
    assert metrics["c"] == ["nan", "nan", "nan"]
    assert "nan" not in metrics["b"]


def test_artifacts_end_lines_with_newline_only(tmp_path):
    data_path = tmp_path / "data.csv"
    _single_mode_csv(data_path, n=30, noise=0.01)
    runs = {"g": ["identify", "--data", str(data_path), "--beta", "0.5"],
            "b": ["identify", "--data", str(data_path), "--method", "b",
                  "--n-g", "10"],
            "tune": ["tune", "--data", str(data_path), "--budget", "2"],
            "montecarlo": ["montecarlo", "--runs", "1", "--n-d", "30",
                           "--snr", "20", "--workers", "1", "--methods",
                           "b"],
            "predict": ["predict", "--impulse",
                        str(tmp_path / "g" / "impulse.csv"), "--data",
                        str(data_path)]}
    for name, argv in runs.items():
        assert main(argv + ["--out-dir", str(tmp_path / name)]) == 0, name
        for path in (tmp_path / name).iterdir():
            assert b"\r" not in path.read_bytes(), path


def test_montecarlo_single_run_smoke_budget(tmp_path):
    start = time.monotonic()
    code = main(["montecarlo", "--runs", "1", "--n-d", "200", "--snr", "20",
                 "--seed", "0", "--workers", "1",
                 "--out-dir", str(tmp_path / "smoke")])
    elapsed = time.monotonic() - start
    assert code == 0
    assert elapsed < 60.0, f"single-run study took {elapsed:.1f}s"


def test_tune_trace_covers_grid(tmp_path):
    data_path = tmp_path / "data.csv"
    _single_mode_csv(data_path, n=40, noise=0.01)
    out = tmp_path / "out"
    code = main(["tune", "--data", str(data_path), "--kernel", "tc",
                 "--rho-range", "0.85", "0.95", "--lam-range", "1e-4", "1",
                 "--beta-range", "0.5", "0.5", "--budget", "4",
                 "--out-dir", str(out)])
    assert code == 0
    lines = (out / "tune_trace.csv").read_text().splitlines()
    assert lines[0] == "rho,lam,beta,gamma,score"
    assert len(lines) == 5, "two free axes with two points each"
    tuned = json.loads((out / "tuned.json").read_text())
    assert tuned["beta"] == 0.5
    scores = [float(line.split(",")[4]) for line in lines[1:]]
    assert tuned["score"] == min(scores)


def test_heating_cli_rejects_truncated_record(tmp_path, capsys):
    data_path = tmp_path / "short.csv"
    rng = np.random.default_rng(0)
    u = rng.standard_normal(10)
    _write_data_csv(data_path, u, u)
    code = main(["heating", "--data", str(data_path), "--methods", "b",
                 "--out-dir", str(tmp_path / "out")])
    assert code == 3
    assert "801" in capsys.readouterr().err


def test_heating_cli_converts_daisy_table(tmp_path):
    rng = np.random.default_rng(1)
    u = 3.0 + 0.5 * rng.choice([-1.0, 1.0], size=801)
    g = 0.4 * 0.85 ** np.arange(60, dtype=float)
    y = np.convolve(u, g)[:801] + 0.01 * rng.standard_normal(801)
    raw = tmp_path / "heating.dat"
    with open(raw, "w", encoding="ascii") as fh:
        for t in range(801):
            fh.write(f"  {float(u[t])!r}   {float(y[t])!r}\n")
    out = tmp_path / "out"
    code = main(["heating", "--data", str(raw), "--format", "daisy",
                 "--methods", "b", "--n-g", "40", "--out-dir", str(out)])
    assert code == 0
    converted = read_timeseries_csv(out / "heating_converted.csv")
    assert converted.n_samples == 801
    lines = (out / "heating_fits.csv").read_text().splitlines()
    assert lines[0] == "method,fit"
    method, fit = lines[1].split(",")
    assert method == "b"
    assert float(fit) >= 50.0
    meta = json.loads((out / "heating_meta.json").read_text())
    assert meta["n_train"] == 500
    assert meta["n_test"] == 200


def test_predict_matches_convolution(tmp_path):
    data_path = tmp_path / "data.csv"
    u, y = _single_mode_csv(data_path, n=20)
    impulse_path = tmp_path / "impulse.csv"
    g = ImpulseResponse(0.8 ** np.arange(15, dtype=float))
    write_impulse_csv(impulse_path, g)
    out = tmp_path / "out"
    code = main(["predict", "--impulse", str(impulse_path), "--data",
                 str(data_path), "--times", "0", "5", "19",
                 "--out-dir", str(out)])
    assert code == 0
    data = TimeSeriesData.at_rest(u, y)
    lines = (out / "predictions.csv").read_text().splitlines()
    assert lines[0] == "t,y"
    assert len(lines) == 4
    for line in lines[1:]:
        t, value = line.split(",")
        assert float(value) == pytest.approx(convolve(g, data, int(t)),
                                             abs=1e-12)


def test_predict_rejects_times_outside_the_input_window(tmp_path, capsys):
    data_path = tmp_path / "data.csv"
    _single_mode_csv(data_path, n=20)
    impulse_path = tmp_path / "impulse.csv"
    write_impulse_csv(impulse_path, ImpulseResponse(np.ones(5)))
    for bad, message in (("-1", "precedes"), ("20", "not available")):
        code = main(["predict", "--impulse", str(impulse_path), "--data",
                     str(data_path), "--times", "0", bad, "5",
                     "--out-dir", str(tmp_path / "out")])
        assert code == 3
        assert message in capsys.readouterr().err
    assert not (tmp_path / "out" / "predictions.csv").exists()


def test_predict_rejects_a_nonfinite_impulse(tmp_path, capsys):
    data_path = tmp_path / "data.csv"
    _single_mode_csv(data_path, n=20)
    impulse_path = tmp_path / "impulse.csv"
    impulse_path.write_text("s,g\n0,nan\n1,inf\n")
    code = main(["predict", "--impulse", str(impulse_path), "--data",
                 str(data_path), "--times", "0", "5",
                 "--out-dir", str(tmp_path / "out")])
    assert code == 3
    assert "impulse.csv:2: impulse value 'nan' is not finite" in \
        capsys.readouterr().err
    assert not (tmp_path / "out" / "predictions.csv").exists()


def test_identify_names_the_line_of_a_nonfinite_sample(tmp_path, capsys):
    data_path = tmp_path / "data.csv"
    _single_mode_csv(data_path, n=20)
    lines = data_path.read_text().splitlines()
    lines[5] = "4,1.0,inf"
    data_path.write_text("\n".join(lines) + "\n")
    code = main(["identify", "--data", str(data_path),
                 "--out-dir", str(tmp_path / "out")])
    assert code == 3
    assert "data.csv:6: output y 'inf' is not finite" in \
        capsys.readouterr().err


def test_config_file_defaults_and_overrides(tmp_path):
    data_path = tmp_path / "data.csv"
    _single_mode_csv(data_path)
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(
        {"data": str(data_path), "method": "b", "n_g": 20, "horizon": None}))
    out = tmp_path / "out"
    # config satisfies the required --data option
    code = main(["identify", "--config", str(config_path),
                 "--out-dir", str(out)])
    assert code == 0
    meta = json.loads((out / "metadata.json").read_text())
    assert meta["method"] == "b"
    assert meta["n_g"] == 20
    # explicit flags override file values
    code = main(["identify", "--config", str(config_path),
                 "--n-g", "10", "--out-dir", str(out)])
    assert code == 0
    meta = json.loads((out / "metadata.json").read_text())
    assert meta["n_g"] == 10
    est = read_impulse_csv(out / "impulse.csv")
    assert est.horizon == 10


def test_abbreviated_config_flag_is_rejected(tmp_path, capsys):
    # argparse would take --conf for --config, but the config file is
    # found by its full flag only, so no flag may be abbreviated
    data_path = tmp_path / "data.csv"
    _single_mode_csv(data_path)
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({"method": "b", "n_g": 7}))
    out = tmp_path / "out"
    code = main(["identify", "--data", str(data_path), "--conf",
                 str(config_path), "--out-dir", str(out)])
    assert code == 2
    assert "unrecognized arguments: --conf" in capsys.readouterr().err
    assert not out.exists()


def test_config_file_rejects_unknown_keys(tmp_path, capsys):
    data_path = tmp_path / "data.csv"
    _single_mode_csv(data_path)
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({"bogus": 1}))
    code = main(["identify", "--data", str(data_path),
                 "--config", str(config_path),
                 "--out-dir", str(tmp_path / "out")])
    assert code == 2
    assert "unknown config keys" in capsys.readouterr().err


@pytest.mark.parametrize("command, payload, allowed", [
    ("heating", {"format": "bogus"}, "csv, daisy"),
    ("montecarlo", {"methods": ["b", "x"]}, "b, c, d, e, g"),
], ids=["heating-format", "montecarlo-methods"])
def test_config_file_values_obey_choices(tmp_path, capsys, command, payload,
                                         allowed):
    # a value from the file is checked as argparse checks the flag:
    # exit 2, naming the key and the allowed values
    data_path = tmp_path / "data.csv"
    _single_mode_csv(data_path)
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(payload))
    argv = [command, "--config", str(config_path),
            "--out-dir", str(tmp_path / "out")]
    if command == "heating":
        argv += ["--data", str(data_path)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    (key,) = payload
    assert f"config key {key}" in err and allowed in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command, payload, flags", [
    ("identify", {"rho": "abc"}, ()),
    ("identify", {"rho": [0.5, 0.6]}, ()),
    ("identify", {"n": 2.5}, ("--method", "nup")),
    ("identify", {"lam": True}, ()),
    ("identify", {"lam": None}, ()),
    ("identify", {"data": 5}, ()),
    ("montecarlo", {"snr": 20}, ()),
    ("tune", {"rho_range": [0.5]}, ()),
], ids=["not-a-float", "list-for-scalar", "float-for-int", "bool-for-float",
        "null-without-null-default", "number-for-string", "scalar-for-list",
        "short-list"])
def test_config_file_values_parse_as_their_flags(tmp_path, capsys, command,
                                                 payload, flags):
    # a file value gets the parsing its flag gets: a bad one exits 2,
    # naming the key, before any output directory is made
    data_path = tmp_path / "data.csv"
    _single_mode_csv(data_path)
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(payload))
    argv = [command, "--config", str(config_path),
            "--out-dir", str(tmp_path / "out"), *flags]
    if command != "montecarlo":
        argv += ["--data", str(data_path)]
    assert main(argv) == 2
    (key,) = payload
    assert f"config key {key}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_kernels_takes_a_config_file_but_no_out_dir(tmp_path, capsys):
    # kernels writes nothing, so an output directory is an unknown flag
    assert main(["kernels", "--out-dir", str(tmp_path / "out")]) == 2
    assert "unrecognized arguments: --out-dir" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()
    config = tmp_path / "kernels.json"
    config.write_text(json.dumps({"beta": 0.81, "rho": 0.9}))
    assert main(["kernels", "--config", str(config)]) == 0
    assert "compatible with rho=0.9: no" in capsys.readouterr().out


def test_kernels_command_reports_domination(capsys):
    assert main(["kernels", "--kernel", "tc", "--beta", "0.81",
                 "--rho", "0.9"]) == 0
    text = capsys.readouterr().out
    assert "domination rate: 0.9" in text
    assert "compatible with rho=0.9: no" in text
    assert main(["kernels", "--kernel", "tc", "--beta", "0.81",
                 "--rho", "0.95"]) == 0
    assert "compatible with rho=0.95: yes" in capsys.readouterr().out
