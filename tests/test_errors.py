"""Every count, positive real and (0, 1) setting fails with ConfigError.

A count is an integer that is not a ``bool``: a fractional, NaN or
negative count must be refused where it enters, not escape later as a
``TypeError`` or be taken as it is.  The real settings are range tests
that NaN fails.
"""
import math

import numpy as np
import pytest

from posid.assembly import (assemble_core, assemble_oscillation_blocks,
                            assemble_polynomial_blocks, input_weight_matrix)
from posid.baselines import BaselineKind
from posid.errors import ConfigError
from posid.estimator import PositiveIdConfig
from posid.experiments import (HeatingConfig, McConfig, McProtocol,
                               gen_binary_input, true_system)
from posid.extensions import (FiniteResponseConfig, OscillatingPoleConfig,
                              RepeatedPoleConfig)
from posid.kernels import KernelSpec, decay_compatible, window_kernel
from posid.signals import TimeSeriesData
from posid.tuning import HyperparamSpace, default_split, tune

_TC = KernelSpec.tc(0.5)
_BASE = PositiveIdConfig(_TC, 0.9, 1.0)
_DATA = TimeSeriesData.at_rest(np.ones(8), np.ones(8))

# (case id, setting named in the message, call taking the bad value)
_COUNTS = [
    ("PositiveIdConfig.horizon", "horizon",
     lambda v: PositiveIdConfig(_TC, 0.9, 1.0, horizon=v)),
    ("RepeatedPoleConfig.n", "pole multiplicity",
     lambda v: RepeatedPoleConfig(_BASE, v)),
    ("OscillatingPoleConfig.n", "pole count",
     lambda v: OscillatingPoleConfig(_BASE, v)),
    ("BaselineKind.fir_length", "fir_length", lambda v: BaselineKind("b", v)),
    ("McProtocol.runs", "runs", lambda v: McProtocol(runs=v)),
    ("McProtocol.n_d", "n_d", lambda v: McProtocol(n_d=v)),
    ("McProtocol.seed", "seed", lambda v: McProtocol(seed=v)),
    ("McConfig.n_g", "n_g", lambda v: McConfig(n_g=v)),
    ("McConfig.horizon", "horizon", lambda v: McConfig(horizon=v)),
    ("McConfig.workers", "workers", lambda v: McConfig(workers=v)),
    ("true_system", "horizon", lambda v: true_system(McProtocol(), v)),
    ("gen_binary_input", "input length", lambda v: gen_binary_input(v, 0)),
    ("HeatingConfig.n_g", "n_g", lambda v: HeatingConfig(n_g=v)),
    ("HeatingConfig.tune_budget", "tune_budget",
     lambda v: HeatingConfig(tune_budget=v)),
    ("window_kernel", "support", lambda v: window_kernel(_TC, v)),
    ("assemble_polynomial_blocks", "pole multiplicity",
     lambda v: assemble_polynomial_blocks(_DATA, 0.9, v)),
    ("assemble_oscillation_blocks", "period",
     lambda v: assemble_oscillation_blocks(_DATA, 0.9, v)),
    ("input_weight_matrix", "weight width",
     lambda v: input_weight_matrix(_DATA, v)),
    ("assemble_core", "constraint horizon",
     lambda v: assemble_core(_TC, _DATA, v)),
    ("tune", "budget",
     lambda v: tune(HyperparamSpace(kind="tc"), _DATA, budget=v)),
    ("tune.seed", "seed", lambda v: tune(HyperparamSpace(kind="tc"), _DATA,
                                         strategy="random", seed=v)),
]
_REALS = [
    ("PositiveIdConfig.lam", "lambda",
     lambda v: PositiveIdConfig(_TC, 0.9, v)),
    ("PositiveIdConfig.a_min", "a_min",
     lambda v: PositiveIdConfig(_TC, 0.9, 1.0, a_min=v)),
    ("FiniteResponseConfig.lam", "lambda",
     lambda v: FiniteResponseConfig(window_kernel(_TC, 10), v)),
    ("BaselineKind.lam", "lambda",
     lambda v: BaselineKind("d", lam=v, kernel=_TC)),
    ("McProtocol.rho_true", "rho_true", lambda v: McProtocol(rho_true=v)),
    ("McProtocol.beta_true", "beta_true",
     lambda v: McProtocol(beta_true=v)),
    ("McConfig.lam_g", "lam_g", lambda v: McConfig(lam_g=v)),
    ("McConfig.lam_fir", "lam_fir", lambda v: McConfig(lam_fir=v)),
    ("HeatingConfig.rho", "rho", lambda v: HeatingConfig(rho=v)),
    ("HeatingConfig.lam", "lam", lambda v: HeatingConfig(lam=v)),
    ("HeatingConfig.a_min", "a_min", lambda v: HeatingConfig(a_min=v)),
    ("decay_compatible", "rho", lambda v: decay_compatible(_TC, v)),
    ("assemble_polynomial_blocks.rho", "rho",
     lambda v: assemble_polynomial_blocks(_DATA, v, 1)),
    ("assemble_oscillation_blocks.rho", "rho",
     lambda v: assemble_oscillation_blocks(_DATA, v, 1)),
    ("default_split", "train fraction", lambda v: default_split(10, v)),
    ("tune.a_min", "a_min",
     lambda v: tune(HyperparamSpace(kind="tc"), _DATA, a_min=v)),
]


@pytest.mark.parametrize("name, call, value", [
    pytest.param(name, call, value, id=f"{case}-{value}")
    for cases, values in ((_COUNTS, (2.5, math.nan, True, -1)),
                          (_REALS, (math.nan,)))
    for case, name, call in cases for value in values])
def test_a_bad_setting_raises_config_error_naming_it(name, call, value):
    with pytest.raises(ConfigError, match=name) as info:
        call(value)
    assert f"got {value}" in str(info.value)
