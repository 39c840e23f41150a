"""The causal inverse against an exact answer.

For g = t_+^beta e^(t Lap) phi the semigroup form of J_s is a Beta
integral: J_s g = Gamma(beta + 1) / Gamma(beta + 1 + s) t_+^(beta + s)
e^(t Lap) phi. With phi = e^(-|x|^2 / 4a), e^(t Lap) phi = (a / (a + t))^(N/2)
e^(-|x|^2 / 4(a + t)), so both sides are closed forms, radial, and run on
the orthant. The errors are max |apply_Js g - J_s g| / max |J_s g| over
the window, T = 3, L = 16 (far enough that the box walls do not stall the
error), a = 1/2.
"""

import math

import numpy as np
import pytest

from hardyheat.kernels import apply_Js
from hardyheat.lattice import Field, Nodes, make_lattice


def closed_form_error(dim: int, M: int, K: int, s: float, beta: int) -> float:
    lat = make_lattice(dim, 16.0, M, 0.0, 3.0, K)
    t = lat.t_axis().reshape((-1,) + (1,) * dim)
    a = 0.5
    heat = (a / (a + t)) ** (dim / 2) * np.exp(-Nodes(lat, True).radius_squared / (4.0 * (a + t)))
    want = math.gamma(beta + 1) / math.gamma(beta + 1 + s) * t ** (beta + s) * heat
    got = apply_Js(Field(lat, t ** beta * heat, orthant=True), s).values
    return float(np.max(np.abs(got - want)) / np.max(np.abs(want)))


# (M, K) halving h = 2L/M and ht = T/K together
LADDER_1D = [(32, 12), (64, 24), (128, 48), (256, 96)]


def test_closed_form_smooth_start_converges_in_1d():
    # beta = 1: the error falls at order about 1 + s, at least 2x a rung
    errs = [closed_form_error(1, M, K, 0.5, 1) for M, K in LADDER_1D]
    assert errs == pytest.approx([7.594e-3, 2.924e-3, 1.096e-3, 4.00e-4], rel=2e-2)
    assert all(fine <= 0.5 * coarse for coarse, fine in zip(errs, errs[1:]))


def test_closed_form_jump_at_t_zero_in_1d():
    # beta = 0: the jump at t = 0 puts the error at the first slice, where
    # it falls only like ht^0.6
    errs = [closed_form_error(1, M, K, 0.5, 0) for M, K in LADDER_1D]
    assert errs == pytest.approx([3.24e-2, 2.58e-2, 1.74e-2, 1.17e-2], rel=2e-2)


@pytest.mark.parametrize("s,want", [(0.3, 3.70e-3), (0.5, 2.66e-3), (0.7, 1.61e-3)])
def test_closed_form_in_2d(s, want):
    assert closed_form_error(2, 64, 48, s, 1) == pytest.approx(want, rel=2e-2)
