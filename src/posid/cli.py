"""Command-line front end.

Subcommands cover single-dataset identification, hyperparameter tuning,
the synthetic Monte Carlo study, the heating evaluation, prediction from
a stored impulse response, and kernel diagnostics.  Every artifact is
written to a temporary file and renamed into place, so failed runs never
leave partial outputs.

Exit codes: 0 success, 2 configuration error, 3 data error, 4 solver
did not reach optimality.
"""
from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys

from .assembly import assemble_core, assemble_polynomial_blocks
from .baselines import BaselineKind, run_baseline
from .errors import ConfigError, PosidError
from .estimator import (PositiveIdConfig, build_qp,
                        initial_constraint_horizon, identify, predict)
from .extensions import (FiniteResponseConfig, OscillatingPoleConfig,
                         RepeatedPoleConfig, identify_finite_response,
                         identify_oscillating_poles, identify_repeated_pole)
from .experiments import (MC_METHODS, HeatingConfig, McConfig, McProtocol,
                          convert_daisy_whitespace, run_heating,
                          run_monte_carlo)
from .kernels import (KIND_DC, KIND_SS, KIND_TC, KernelSpec,
                      decay_compatible, domination_bound, window_kernel)
from .qp import dump_qp
from .signals import (convolve, read_impulse_csv, read_timeseries_csv,
                      write_impulse_csv)
from .tuning import HyperparamSpace, default_split, tune

_IDENTIFY_METHODS = ("g", "nup", "snp", "zsr") + MC_METHODS[:4]
_BASELINE_METHODS = MC_METHODS[:4]


def _write_text_atomic(path: str, text: str) -> None:
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="ascii", newline="") as fh:
        fh.write(text)
    os.replace(tmp, path)


def _write_impulse_atomic(path: str, g) -> None:
    tmp = path + ".tmp"
    write_impulse_csv(tmp, g)
    os.replace(tmp, path)


def _write_json_atomic(path: str, payload: dict) -> None:
    _write_text_atomic(path, json.dumps(payload, indent=2,
                                        sort_keys=True) + "\n")


def _csv_text(header: list[str], rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow(row)
    return buf.getvalue()


def _fmt(value) -> str:
    return repr(float(value))


def _kernel_from_args(args) -> KernelSpec:
    if args.kernel == KIND_TC:
        return KernelSpec.tc(args.beta)
    if args.kernel == KIND_DC:
        return KernelSpec.dc(args.beta, args.gamma)
    if args.kernel == KIND_SS:
        return KernelSpec.ss(args.beta)
    raise ConfigError(f"unknown kernel kind {args.kernel!r}")


def _base_config(args, kernel: KernelSpec) -> PositiveIdConfig:
    return PositiveIdConfig(kernel=kernel, rho=args.rho, lam=args.lam,
                            a_min=args.a_min, delta_m=args.delta_m,
                            horizon=args.horizon)


def _diag_meta(diag) -> dict:
    return {"m0": int(diag.m0), "iterations": int(diag.iterations),
            "qp_status": diag.qp_status,
            "objective": float(diag.objective),
            "min_g": float(diag.min_g),
            "forced_accept": bool(diag.forced_accept)}


def _identify_cmd(args) -> int:
    data = read_timeseries_csv(args.data)
    os.makedirs(args.out_dir, exist_ok=True)
    method = args.method
    if args.dump_qp and method != "g":
        raise ConfigError("--dump-qp applies to method g only")
    meta: dict = {"method": method, "data": os.fspath(args.data)}
    if method in _BASELINE_METHODS:
        kernel = _kernel_from_args(args) if method in ("d", "e") else None
        kind = BaselineKind(method, fir_length=args.n_g, lam=args.lam,
                            kernel=kernel)
        g = run_baseline(kind, data)
        meta.update({"n_g": args.n_g})
        if method in ("d", "e"):
            meta.update({"lam": args.lam, "kernel": args.kernel,
                         "beta": args.beta})
    elif method == "g":
        config = _base_config(args, _kernel_from_args(args))
        if args.dump_qp:
            m_init = initial_constraint_horizon(data)
            mats = assemble_core(config.kernel, data, m_init)
            basis = assemble_polynomial_blocks(data, config.rho, 1)
            dump_qp(build_qp(config, mats, basis), args.dump_qp)
        model = identify(config, data)
        g = model.g
        meta.update({"a": float(model.a), "rho": args.rho,
                     "lam": args.lam, "m": int(model.m),
                     "kernel": args.kernel, "beta": args.beta})
        meta.update(_diag_meta(model.diagnostics))
    elif method == "nup":
        config = RepeatedPoleConfig(
            base=_base_config(args, _kernel_from_args(args)), n=args.n)
        model = identify_repeated_pole(config, data)
        g = model.g
        meta.update({"a": float(model.a),
                     "a_poly": [float(v) for v in model.a_poly],
                     "rho": args.rho, "lam": args.lam, "n": args.n,
                     "m": int(model.m)})
        meta.update(_diag_meta(model.diagnostics))
    elif method == "snp":
        config = OscillatingPoleConfig(
            base=_base_config(args, _kernel_from_args(args)), n=args.n)
        model = identify_oscillating_poles(config, data)
        g = model.g
        meta.update({"a_real": [float(v) for v in model.a_r],
                     "a_imag": [float(v) for v in model.a_i],
                     "equality_residual": float(model.equality_residual),
                     "rho": args.rho, "lam": args.lam, "n": args.n,
                     "m": int(model.m)})
        meta.update(_diag_meta(model.diagnostics))
    elif method == "zsr":
        kernel = window_kernel(_kernel_from_args(args), args.n_g)
        config = FiniteResponseConfig(kernel=kernel, lam=args.lam)
        g = identify_finite_response(config, data)
        meta.update({"n_g": args.n_g, "lam": args.lam,
                     "kernel": args.kernel, "beta": args.beta})
    else:
        raise ConfigError(f"unknown method {method!r}")
    _write_impulse_atomic(os.path.join(args.out_dir, "impulse.csv"), g)
    _write_json_atomic(os.path.join(args.out_dir, "metadata.json"), meta)
    print(f"method {method}: wrote impulse.csv ({g.horizon} samples) "
          f"and metadata.json to {args.out_dir}")
    return 0


def _tune_cmd(args) -> int:
    data = read_timeseries_csv(args.data)
    os.makedirs(args.out_dir, exist_ok=True)
    gamma_range = tuple(args.gamma_range) if args.gamma_range else None
    space = HyperparamSpace(kind=args.kernel,
                            rho_range=tuple(args.rho_range),
                            lam_range=tuple(args.lam_range),
                            beta_range=tuple(args.beta_range),
                            gamma_range=gamma_range)
    split = default_split(data.n_samples, args.train_fraction)
    result = tune(space, data, split=split, budget=args.budget,
                  strategy=args.strategy, seed=args.seed,
                  a_min=args.a_min)
    rows = []
    for theta, score in result.trace:
        gamma = "" if theta.gamma is None else _fmt(theta.gamma)
        rows.append([_fmt(theta.rho), _fmt(theta.lam), _fmt(theta.beta),
                     gamma, _fmt(score)])
    _write_text_atomic(os.path.join(args.out_dir, "tune_trace.csv"),
                       _csv_text(["rho", "lam", "beta", "gamma", "score"],
                                 rows))
    best = {"rho": result.theta.rho, "lam": result.theta.lam,
            "beta": result.theta.beta, "gamma": result.theta.gamma,
            "score": result.score, "kernel": args.kernel}
    _write_json_atomic(os.path.join(args.out_dir, "tuned.json"), best)
    print(f"evaluated {len(result.trace)} candidates; best score "
          f"{result.score!r} at rho={result.theta.rho!r} "
          f"lam={result.theta.lam!r} beta={result.theta.beta!r}")
    return 0


def _montecarlo_cmd(args) -> int:
    os.makedirs(args.out_dir, exist_ok=True)
    protocol = McProtocol(runs=args.runs, n_d=args.n_d,
                          snr_levels_db=tuple(args.snr), seed=args.seed)
    config = McConfig(rho=args.rho, beta=args.beta, gamma=args.gamma,
                      lam_g=args.lam_g, lam_fir=args.lam_fir,
                      n_g=args.n_g, horizon=args.horizon,
                      workers=args.workers)
    report = run_monte_carlo(protocol, tuple(args.methods), config)
    metrics_rows = [[s.method, _fmt(s.snr_db), _fmt(s.bias),
                     _fmt(s.variance), _fmt(s.mse)] for s in report.stats]
    _write_text_atomic(os.path.join(args.out_dir, "metrics.csv"),
                       _csv_text(["method", "snr", "bias", "var", "mse"],
                                 metrics_rows))
    fit_rows = [[method, _fmt(snr), run, _fmt(fit)]
                for method, snr, run, fit in report.fit_rows]
    _write_text_atomic(os.path.join(args.out_dir, "fits.csv"),
                       _csv_text(["method", "snr", "run", "fit"],
                                 fit_rows))
    if report.failures:
        fail_rows = [[method, _fmt(snr), run, message]
                     for method, snr, run, message in report.failures]
        _write_text_atomic(os.path.join(args.out_dir, "failures.csv"),
                           _csv_text(["method", "snr", "run", "message"],
                                     fail_rows))
    for s in report.stats:
        print(f"snr {s.snr_db:g} dB method {s.method}: "
              f"mse {s.mse:.6g}, bias {s.bias:.6g}, var {s.variance:.6g}"
              + (f", {s.failures} failures" if s.failures else ""))
    return 0


def _heating_cmd(args) -> int:
    os.makedirs(args.out_dir, exist_ok=True)
    path = args.data
    if args.format == "daisy":
        converted = os.path.join(args.out_dir, "heating_converted.csv")
        tmp = converted + ".tmp"
        convert_daisy_whitespace(path, tmp)
        os.replace(tmp, converted)
        path = converted
    config = HeatingConfig(rho=args.rho, beta=args.beta, lam=args.lam,
                           n_g=args.n_g, tune_budget=args.budget,
                           a_min=args.a_min)
    report = run_heating(path, tuple(args.methods), config)
    rows = [[method, _fmt(fit)] for method, fit in report.fits]
    _write_text_atomic(os.path.join(args.out_dir, "heating_fits.csv"),
                       _csv_text(["method", "fit"], rows))
    meta = {"n_train": report.n_train, "n_test": report.n_test,
            "hyperparams": dict(report.hyperparams)}
    _write_json_atomic(os.path.join(args.out_dir, "heating_meta.json"),
                       meta)
    for method, fit in report.fits:
        print(f"method {method}: test fit {fit:.1f}")
    return 0


def _predict_cmd(args) -> int:
    g = read_impulse_csv(args.impulse)
    data = read_timeseries_csv(args.data)
    os.makedirs(args.out_dir, exist_ok=True)
    times = (args.times if args.times
             else [int(t) for t in data.sample_times])
    rows = [[t, _fmt(convolve(g, data, int(t)))] for t in times]
    _write_text_atomic(os.path.join(args.out_dir, "predictions.csv"),
                       _csv_text(["t", "y"], rows))
    print(f"wrote {len(rows)} predictions to "
          f"{os.path.join(args.out_dir, 'predictions.csv')}")
    return 0


def _kernels_cmd(args) -> int:
    kernel = _kernel_from_args(args)
    bound = domination_bound(kernel)
    print(f"kind: {kernel.kind}")
    print(f"beta: {kernel.beta!r}")
    if kernel.kind == KIND_DC:
        print(f"gamma: {kernel.gamma!r}")
    print(f"domination constant: {bound.c!r}")
    rate = "none (finite support)" if bound.rho_d is None \
        else repr(bound.rho_d)
    print(f"domination rate: {rate}")
    if args.rho is not None:
        ok = decay_compatible(kernel, args.rho)
        print(f"compatible with rho={args.rho!r}: {'yes' if ok else 'no'}")
    return 0


_COMMANDS = {"identify": _identify_cmd, "tune": _tune_cmd,
             "montecarlo": _montecarlo_cmd, "heating": _heating_cmd,
             "predict": _predict_cmd, "kernels": _kernels_cmd}


def _add_kernel_args(p, default_beta: float = 0.8) -> None:
    p.add_argument("--kernel", choices=(KIND_TC, KIND_DC, KIND_SS),
                   default=KIND_TC, help="kernel family")
    p.add_argument("--beta", type=float, default=default_beta,
                   help="kernel decay parameter in [0, 1)")
    p.add_argument("--gamma", type=float, default=0.9,
                   help="dc relaxation parameter in [-1, 1]")


def _add_common(p) -> None:
    p.add_argument("--config", default=None,
                   help="JSON file of option defaults (flags override)")
    p.add_argument("--out-dir", default=".",
                   help="directory for output artifacts")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="posid",
        description="impulse response estimation with positivity "
                    "side-information")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("identify",
                        help="estimate an impulse response from one "
                             "dataset")
    p.add_argument("--data", required=True, help="t,u,y CSV file")
    p.add_argument("--method", choices=_IDENTIFY_METHODS, default="g",
                   help="estimator: g positive, nup repeated pole, snp "
                        "oscillating poles, zsr finite response, b/c/d/e "
                        "baselines")
    _add_kernel_args(p)
    p.add_argument("--rho", type=float, default=0.9,
                   help="dominant pole location in (0, 1)")
    p.add_argument("--lam", type=float, default=1.0,
                   help="regularization weight")
    p.add_argument("--a-min", type=float, default=1e-6,
                   help="lower bound on the dominant mode weight")
    p.add_argument("--delta-m", type=int, default=50,
                   help="constraint horizon growth per iteration")
    p.add_argument("--horizon", type=int, default=None,
                   help="reconstruction horizon (default: twice the "
                        "data span)")
    p.add_argument("--n", type=int, default=2,
                   help="pole multiplicity (nup) or period (snp)")
    p.add_argument("--n-g", type=int, default=200,
                   help="response length for zsr and the baselines")
    p.add_argument("--dump-qp", default=None, metavar="PATH",
                   help="write the first quadratic program to PATH")
    _add_common(p)

    p = subs.add_parser("tune", help="hold-out hyperparameter search")
    p.add_argument("--data", required=True, help="t,u,y CSV file")
    p.add_argument("--kernel", choices=(KIND_TC, KIND_DC, KIND_SS),
                   default=KIND_TC)
    p.add_argument("--rho-range", type=float, nargs=2,
                   default=(0.5, 0.99), metavar=("LO", "HI"))
    p.add_argument("--lam-range", type=float, nargs=2,
                   default=(1e-6, 1e2), metavar=("LO", "HI"))
    p.add_argument("--beta-range", type=float, nargs=2,
                   default=(0.1, 0.9), metavar=("LO", "HI"))
    p.add_argument("--gamma-range", type=float, nargs=2, default=None,
                   metavar=("LO", "HI"))
    p.add_argument("--budget", type=int, default=16,
                   help="number of candidates to evaluate")
    p.add_argument("--strategy", choices=("grid", "random"),
                   default="grid")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--train-fraction", type=float, default=0.7)
    p.add_argument("--a-min", type=float, default=1e-6)
    _add_common(p)

    p = subs.add_parser("montecarlo",
                        help="synthetic benchmark against the baselines")
    mc_defaults = McConfig()
    p.add_argument("--runs", type=int, default=30)
    p.add_argument("--n-d", type=int, default=200,
                   help="samples per run")
    p.add_argument("--snr", type=float, nargs="+",
                   default=(10.0, 20.0, 30.0), help="SNR levels in dB")
    p.add_argument("--methods", nargs="+", choices=MC_METHODS,
                   default=list(MC_METHODS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--workers", type=int, default=None,
                   help="parallel run workers (default: all cores)")
    p.add_argument("--rho", type=float, default=mc_defaults.rho,
                   help="pole location used by the positive estimator")
    p.add_argument("--beta", type=float, default=mc_defaults.beta)
    p.add_argument("--gamma", type=float, default=mc_defaults.gamma)
    p.add_argument("--lam-g", type=float, default=None,
                   help="fixed regularization for method g "
                        "(default: noise-scaled)")
    p.add_argument("--lam-fir", type=float, default=None,
                   help="fixed regularization for methods d/e")
    p.add_argument("--n-g", type=int, default=mc_defaults.n_g)
    p.add_argument("--horizon", type=int, default=mc_defaults.horizon,
                   help="common evaluation horizon")
    _add_common(p)

    p = subs.add_parser("heating",
                        help="train/test evaluation on the heating "
                             "record")
    p.add_argument("--data", required=True,
                   help="801-row t,u,y CSV (or raw whitespace table "
                        "with --format daisy)")
    p.add_argument("--format", choices=("csv", "daisy"), default="csv")
    p.add_argument("--methods", nargs="+", choices=MC_METHODS,
                   default=list(MC_METHODS))
    p.add_argument("--rho", type=float, default=None,
                   help="fix the pole instead of tuning it")
    p.add_argument("--beta", type=float, default=None,
                   help="fix the kernel decay instead of tuning it")
    p.add_argument("--lam", type=float, default=None,
                   help="fix the regularization instead of tuning it")
    p.add_argument("--budget", type=int, default=24,
                   help="tuning budget when hyperparameters are free")
    p.add_argument("--n-g", type=int, default=200)
    p.add_argument("--a-min", type=float, default=1e-6)
    _add_common(p)

    p = subs.add_parser("predict",
                        help="convolve a stored impulse response with "
                             "input data")
    p.add_argument("--impulse", required=True, help="s,g CSV file")
    p.add_argument("--data", required=True, help="t,u,y CSV file")
    p.add_argument("--times", type=int, nargs="+", default=None,
                   help="prediction times (default: the data's sample "
                        "times)")
    _add_common(p)

    p = subs.add_parser("kernels",
                        help="print kernel and domination diagnostics")
    _add_kernel_args(p)
    p.add_argument("--rho", type=float, default=None,
                   help="check decay compatibility against this pole")
    _add_common(p)

    return parser, subs


def _apply_config_file(subparser, path: str) -> None:
    """Load JSON defaults into the subparser; flags still override."""
    try:
        with open(path, encoding="utf-8") as fh:
            payload = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot open config file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: "
                          f"{exc}") from exc
    if not isinstance(payload, dict):
        raise ConfigError(f"config file {path} must hold a JSON object")
    actions = {a.dest: a for a in subparser._actions}
    allowed = set(actions) - {"help", "config", "command"}
    unknown = sorted(set(payload) - allowed)
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(unknown)}; "
                          f"allowed: {', '.join(sorted(allowed))}")
    coerced = {}
    for key, value in payload.items():
        action = actions[key]
        if action.type is not None and isinstance(value, str):
            value = action.type(value)
        elif action.type is not None and isinstance(value, list):
            value = [action.type(v) if isinstance(v, str) else v
                     for v in value]
        coerced[key] = value
        # A key supplied via file satisfies a required option.
        if action.required:
            action.required = False
    subparser.set_defaults(**coerced)


def _extract_config_path(argv: list[str]) -> str | None:
    for i, token in enumerate(argv):
        if token == "--config" and i + 1 < len(argv):
            return argv[i + 1]
        if token.startswith("--config="):
            return token.split("=", 1)[1]
    return None


def main(argv=None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    parser, subs = build_parser()
    try:
        try:
            # Config defaults must land before parsing so that they can
            # satisfy required options; flags still override them.
            command = argv[0] if argv and argv[0] in subs.choices else None
            config_path = _extract_config_path(argv)
            if command is not None and config_path is not None:
                _apply_config_file(subs.choices[command], config_path)
            args = parser.parse_args(argv)
        except SystemExit as exc:
            return int(exc.code or 0)
        return _COMMANDS[args.command](args)
    except PosidError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
