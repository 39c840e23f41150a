"""Every function that needs all nodes of a field gives the same result on
an orthant-stored field (what the radial builders return and solver.run's
callback hands out) as on the same field stored on the full grid."""

from functools import lru_cache

import numpy as np
import pytest

from hardyheat import supersolution
from hardyheat.constants import ProblemSpec, exponents_from, extension_constant, lambda_max
from hardyheat.extension import extend_parabolic, extension_checks
from hardyheat.kernels import apply_Hs_spectral, apply_Ls, ground_state_residual
from hardyheat.lattice import Field, make_lattice, sample
from hardyheat.solver import singularity_profile

LAT = make_lattice(2, 6.0, 32, 1.5, 4.5, 32)
S = 0.5
LAM = 0.5 * lambda_max(2, S)

CONSUMERS = {
    "apply_Hs_spectral": lambda f: apply_Hs_spectral(f, S),
    "apply_Ls": lambda f: apply_Ls(f, LAM, S),
    "ground_state_residual": lambda f: ground_state_residual(f, LAM, S),
    "extend_parabolic": lambda f: extend_parabolic(f, S, [0.05, 0.1]),
    "extension_checks": lambda f: extension_checks(f, S, extension_constant(S)),
    "singularity_profile": lambda f: singularity_profile(f, (16, 20)),
    "data_bound": lambda f: supersolution.data_bound(_certificate(), f),
    "build_w_supersol": lambda f: supersolution.build_w_supersol(_certificate(), f),
}


@lru_cache(maxsize=1)
def _certificate():
    b = exponents_from(2, S, LAM)
    return supersolution.find_certificate(ProblemSpec(2, S, LAM, 0.5 * (b.fujita_F + b.p_plus)))


def _input(name: str) -> Field:
    """An exactly even field stored on the orthant: the certified forcing
    for the certificate's consumers, else a smooth bump inside the window."""
    if name in ("data_bound", "build_w_supersol"):
        return supersolution.certified_forcing(_certificate(), LAT, fraction=0.5)
    full = sample(
        lambda t, *xs: np.exp(-sum(x * x for x in xs) / 1.5 - (t - 1.5) ** 2 / 0.35),
        LAT,
    )
    return Field(LAT, full.values[:, LAT.M // 2:, LAT.M // 2:], orthant=True)


def _assert_same(a, b):
    if isinstance(a, Field):
        assert not a.orthant and a.lattice == b.lattice
        a, b = a.values, b.values
    if isinstance(a, dict):
        assert list(a) == list(b)
        for key in a:
            _assert_same(a[key], b[key])
    elif isinstance(a, np.ndarray):
        assert a.shape == b.shape and np.array_equal(a, b)
    else:
        assert a == b


@pytest.mark.parametrize("name", sorted(CONSUMERS))
def test_orthant_field_gives_the_full_grid_result(name):
    half = _input(name)
    full = half.full_grid()
    assert half.orthant and np.array_equal(half.values, full.values[:, LAT.M // 2:, LAT.M // 2:])
    fn = CONSUMERS[name]
    _assert_same(fn(half), fn(full))
