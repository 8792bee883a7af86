"""Command-line front end.

Subcommands cover single-dataset identification, hyperparameter tuning,
the synthetic Monte Carlo study, the heating evaluation, prediction from
a stored impulse response, and kernel diagnostics.  A command writes
its artifacts in one step after its run, through :func:`_write_outputs`,
each to a temporary file renamed into place, so a run that fails leaves
neither an artifact nor its output directory behind.  One write comes
before the run: the ``--dump-qp`` archive, a debugging aid that is most
useful when the fit then fails.  The record that ``heating --format
daisy`` converts is read by the run from a temporary directory and
written with the run's artifacts.  An output path that cannot be
written is a configuration error, and an output directory that cannot
be made is found before the run (see :func:`_check_out_dir`).

Exit codes: 0 success, 2 configuration error, 3 data error, 4 solver
did not reach optimality.
"""
from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import functools
import io
import json
import os
import pathlib
import sys
import tempfile

from .assembly import assemble_core, assemble_polynomial_blocks
from .baselines import BaselineKind, run_baseline
from .errors import ConfigError, PosidError
from .estimator import (FittedModel, PositiveIdConfig, build_qp,
                        initial_constraint_horizon, identify)
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


def _write_atomic(path: str, write) -> None:
    """Let ``write`` fill ``path + ".tmp"``, then rename it to ``path``.

    A failed write removes the temporary file and leaves ``path`` as it
    was; an ``OSError`` becomes a :class:`ConfigError` naming ``path``.
    """
    tmp = path + ".tmp"
    try:
        write(tmp)
        os.replace(tmp, path)
    except BaseException as exc:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        if isinstance(exc, OSError):
            raise ConfigError(f"cannot write {path}: {exc}") from exc
        raise


def _check_out_dir(out_dir: str) -> None:
    """Raise :func:`_write_outputs`' error now if ``out_dir`` cannot be
    made: the nearest existing path at or above it is not a directory.

    Makes nothing, so a refused run still leaves no directory; what this
    cannot see (permissions, say) fails in :func:`_write_outputs`.
    """
    path = os.path.abspath(out_dir)
    while not os.path.exists(path):
        path = os.path.dirname(path)
    if not os.path.isdir(path):
        raise ConfigError(f"cannot make directory {out_dir}: {path} is "
                          f"not a directory")


def _write_outputs(out_dir: str, files: dict) -> None:
    """Make ``out_dir`` and write each of its artifacts.

    ``files`` maps each file name to a ``write(tmp)`` that fills the
    file's temporary path (see :func:`_write_atomic`).
    """
    try:
        os.makedirs(out_dir, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot make directory {out_dir}: {exc}") from exc
    for name, write in files.items():
        _write_atomic(os.path.join(out_dir, name), write)


def _text(text: str):
    """A writer of ``text`` as an ASCII file."""
    return lambda tmp: pathlib.Path(tmp).write_text(text, encoding="ascii",
                                                    newline="")


def _json(payload: dict):
    """A writer of ``payload`` as an indented JSON file."""
    return _text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _csv(header: list[str], rows):
    """A writer of the CSV table ``header`` over ``rows``."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow(row)
    return _text(buf.getvalue())


def _fmt(value) -> str:
    return repr(float(value))


def _kernel_from_args(args) -> KernelSpec:
    return KernelSpec(args.kernel, args.beta,
                      args.gamma if args.kernel == KIND_DC else None)


def _base_config(args, kernel: KernelSpec) -> PositiveIdConfig:
    return PositiveIdConfig(kernel=kernel, rho=args.rho, lam=args.lam,
                            a_min=args.a_min, horizon=args.horizon)


def _positive(args, data, kernel):
    config = _base_config(args, kernel)
    if args.dump_qp:
        mats = assemble_core(kernel, data, initial_constraint_horizon(data))
        basis = assemble_polynomial_blocks(data, args.rho, 1,
                                           a_min=args.a_min)
        problem = build_qp(args.lam, mats, basis)
        _write_atomic(args.dump_qp, lambda tmp: dump_qp(problem, tmp))
    model = identify(config, data)
    return model, {"a": float(model.a)}


def _repeated(args, data, kernel):
    config = RepeatedPoleConfig(base=_base_config(args, kernel), n=args.n)
    model = identify_repeated_pole(config, data)
    return model, {"a": float(model.a), "a_poly": model.a_poly.tolist()}


def _oscillating(args, data, kernel):
    config = OscillatingPoleConfig(base=_base_config(args, kernel), n=args.n)
    model = identify_oscillating_poles(config, data)
    return model, {"a_real": model.a_r.tolist(),
                   "a_imag": model.a_i.tolist()}


def _finite(args, data, kernel):
    config = FiniteResponseConfig(kernel=window_kernel(kernel, args.n_g),
                                  lam=args.lam)
    return identify_finite_response(config, data), {}


def _baseline(args, data, kernel):
    kind = BaselineKind(args.method, args.n_g, args.lam, kernel)
    return run_baseline(kind, data), {}


_KERNEL = ("kernel", "beta", "lam")
# method -> (fit, options).  fit(args, data, kernel) returns a horizon-loop
# model or a bare response, and its fitted values; the metadata records
# those and the options the method reads.  zsr, the zero-spectral-radius
# estimate, is baseline e.
_METHODS = {"g": (_positive, ("rho", *_KERNEL)),
            "nup": (_repeated, ("rho", "n", *_KERNEL)),
            "snp": (_oscillating, ("rho", "n", *_KERNEL)),
            "zsr": (_finite, ("n_g", *_KERNEL)),
            "b": (_baseline, ("n_g",)), "c": (_baseline, ("n_g",)),
            "d": (_baseline, ("n_g", *_KERNEL)),
            "e": (_finite, ("n_g", *_KERNEL))}


def _identify_cmd(args) -> int:
    data = read_timeseries_csv(args.data)
    method = args.method
    if args.dump_qp and method != "g":
        raise ConfigError("--dump-qp applies to method g only")
    fit, options = _METHODS[method]
    kernel = _kernel_from_args(args) if "kernel" in options else None
    if kernel is not None and kernel.kind == KIND_DC:
        options += ("gamma",)
    result, fitted = fit(args, data, kernel)
    meta = {"method": method, "data": os.fspath(args.data), **fitted,
            **{key: getattr(args, key) for key in options}}
    g = result
    if isinstance(result, FittedModel):
        g = result.g
        meta.update(m=int(result.m), **dataclasses.asdict(result.diagnostics))
    _write_outputs(args.out_dir,
                   {"impulse.csv": lambda tmp: write_impulse_csv(tmp, g),
                    "metadata.json": _json(meta)})
    print(f"method {method}: wrote impulse.csv ({g.horizon} samples) "
          f"and metadata.json to {args.out_dir}")
    return 0


def _tune_cmd(args) -> int:
    data = read_timeseries_csv(args.data)
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
    best = {"rho": result.theta.rho, "lam": result.theta.lam,
            "beta": result.theta.beta, "gamma": result.theta.gamma,
            "score": result.score, "kernel": args.kernel}
    _write_outputs(args.out_dir, {
        "tune_trace.csv": _csv(["rho", "lam", "beta", "gamma", "score"],
                               rows),
        "tuned.json": _json(best)})
    print(f"evaluated {len(result.trace)} candidates; best score "
          f"{result.score!r} at rho={result.theta.rho!r} "
          f"lam={result.theta.lam!r} beta={result.theta.beta!r}")
    return 0


def _montecarlo_cmd(args) -> int:
    protocol = McProtocol(runs=args.runs, n_d=args.n_d,
                          snr_levels_db=tuple(args.snr), seed=args.seed)
    config = McConfig(rho=args.rho, beta=args.beta, gamma=args.gamma,
                      lam_g=args.lam_g, lam_fir=args.lam_fir,
                      n_g=args.n_g, horizon=args.horizon,
                      workers=args.workers)
    report = run_monte_carlo(protocol, tuple(args.methods), config)
    metrics_rows = [[s.method, _fmt(s.snr_db), _fmt(s.bias),
                     _fmt(s.variance), _fmt(s.mse)] for s in report.stats]
    fit_rows = [[method, _fmt(snr), run, _fmt(fit)]
                for method, snr, run, fit in report.fit_rows]
    files = {"metrics.csv": _csv(["method", "snr", "bias", "var", "mse"],
                                 metrics_rows),
             "fits.csv": _csv(["method", "snr", "run", "fit"], fit_rows)}
    if report.failures:
        fail_rows = [[method, _fmt(snr), run, message]
                     for method, snr, run, message in report.failures]
        files["failures.csv"] = _csv(["method", "snr", "run", "message"],
                                     fail_rows)
    _write_outputs(args.out_dir, files)
    for s in report.stats:
        print(f"snr {s.snr_db:g} dB method {s.method}: "
              f"mse {s.mse:.6g}, bias {s.bias:.6g}, var {s.variance:.6g}"
              + (f", {s.failures} failures" if s.failures else ""))
    return 0


def _heating_cmd(args) -> int:
    config = HeatingConfig(rho=args.rho, beta=args.beta, lam=args.lam,
                           n_g=args.n_g, tune_budget=args.budget,
                           a_min=args.a_min)
    files = {}
    with tempfile.TemporaryDirectory() as work:
        path = args.data
        if args.format == "daisy":
            # the run reads the converted record, which is kept with its
            # artifacts
            path = os.path.join(work, "heating_converted.csv")
            convert_daisy_whitespace(args.data, path)
            files["heating_converted.csv"] = _text(
                pathlib.Path(path).read_text(encoding="ascii"))
        report = run_heating(path, tuple(args.methods), config)
    rows = [[method, _fmt(fit)] for method, fit in report.fits]
    meta = {"n_train": report.n_train, "n_test": report.n_test,
            "hyperparams": dict(report.hyperparams)}
    _write_outputs(args.out_dir, {
        **files, "heating_fits.csv": _csv(["method", "fit"], rows),
        "heating_meta.json": _json(meta)})
    for method, fit in report.fits:
        print(f"method {method}: test fit {fit:.1f}")
    return 0


def _predict_cmd(args) -> int:
    g = read_impulse_csv(args.impulse)
    data = read_timeseries_csv(args.data)
    times = args.times or data.sample_times
    rows = [[int(t), _fmt(y)]
            for t, y in zip(times, convolve(g, data, times))]
    _write_outputs(args.out_dir,
                   {"predictions.csv": _csv(["t", "y"], rows)})
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
    print(f"domination rate: {bound.rho_d!r}")
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


def _add_config(p) -> None:
    p.add_argument("--config", default=None,
                   help="JSON file of option defaults (flags override)")


def _add_common(p) -> None:
    _add_config(p)
    p.add_argument("--out-dir", default=".",
                   help="directory for output artifacts")


def build_parser():
    """``(parser, subparsers)`` for the ``posid`` command line."""
    # No parser takes an abbreviated flag, so the scan of argv for
    # --config sees every spelling that argparse accepts.
    parser = argparse.ArgumentParser(
        prog="posid", allow_abbrev=False,
        description="impulse response estimation with positivity "
                    "side-information")
    subs = parser.add_subparsers(
        dest="command", required=True,
        parser_class=functools.partial(argparse.ArgumentParser,
                                       allow_abbrev=False))

    p = subs.add_parser("identify",
                        help="estimate an impulse response from one "
                             "dataset")
    p.add_argument("--data", required=True, help="t,u,y CSV file")
    p.add_argument("--method", choices=tuple(_METHODS), default="g",
                   help="estimator: g positive, nup repeated pole, snp "
                        "oscillating poles, zsr/e finite response, b/c/d "
                        "baselines; all but b/c/d run the horizon loop")
    _add_kernel_args(p)
    p.add_argument("--rho", type=float, default=0.9,
                   help="dominant pole location in (0, 1)")
    p.add_argument("--lam", type=float, default=1.0,
                   help="regularization weight")
    p.add_argument("--a-min", type=float, default=1e-6,
                   help="lower bound on the dominant mode weight")
    p.add_argument("--horizon", type=int, default=None,
                   help="reconstruction horizon (default: twice the "
                        "data span)")
    p.add_argument("--n", type=int, default=2,
                   help="pole multiplicity (nup) or period (snp)")
    p.add_argument("--n-g", type=int, default=200,
                   help="response length for zsr and the baselines")
    p.add_argument("--dump-qp", default=None, metavar="PATH",
                   help="write the first quadratic program to PATH as an "
                        ".npz archive of P, q, G and l; "
                        "ConvexQP(**np.load(PATH)) rebuilds it")
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
    _add_config(p)

    return parser, subs


def _config_value(action, key: str, value):
    """A config file ``value`` parsed as argparse parses its flag.

    A single-value option takes a scalar and an ``nargs`` option a list
    of the allowed count.  Each item goes through ``action.type`` applied
    to its string form, so ``2.5`` fails for an ``int`` and ``true`` for
    a ``float``; an option without a type takes a JSON string.  The
    items must lie in ``choices``.  ``null`` is allowed only where the
    default is ``None`` and the option is not required.
    """
    if value is None:
        if action.default is not None or action.required:
            raise ConfigError(f"config key {key}: null is not allowed")
        return None
    if action.nargs is None:
        if isinstance(value, list):
            raise ConfigError(f"config key {key}: expected one value, "
                              f"got a list")
        items = [value]
    else:
        one_or_more = action.nargs == "+"
        if not isinstance(value, list) or (
                not value if one_or_more else len(value) != action.nargs):
            count = "one or more" if one_or_more else action.nargs
            raise ConfigError(f"config key {key}: expected a list of "
                              f"{count} values, got {json.dumps(value)}")
        items = value
    parsed = []
    for item in items:
        if action.type is None and not isinstance(item, str):
            raise ConfigError(f"config key {key}: expected a string, got "
                              f"{json.dumps(item)}")
        try:
            parsed.append(item if action.type is None
                          else action.type(str(item)))
        except (TypeError, ValueError) as exc:
            raise ConfigError(
                f"config key {key}: invalid {action.type.__name__} value "
                f"{json.dumps(item)}") from exc
    bad = [v for v in parsed
           if action.choices is not None and v not in action.choices]
    if bad:
        raise ConfigError(
            f"config key {key}: invalid choice {', '.join(map(repr, bad))}; "
            f"allowed: {', '.join(map(str, action.choices))}")
    return parsed if action.nargs is not None else parsed[0]


def _apply_config_file(subparser, path: str) -> None:
    """Load JSON defaults into the subparser; flags still override.

    Each value is parsed and checked as argparse parses and checks its
    flag on the command line (see :func:`_config_value`).
    """
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
        coerced[key] = _config_value(action, key, value)
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
    """Run one ``posid`` command and return its exit code.

    ``argv`` defaults to the process arguments.  Errors of the package are
    printed and mapped to the exit code of their class.
    """
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
        # every command but kernels writes to --out-dir
        if hasattr(args, "out_dir"):
            _check_out_dir(args.out_dir)
        return _COMMANDS[args.command](args)
    except PosidError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
