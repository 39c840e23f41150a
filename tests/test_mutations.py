"""Each mutation of a constant or an operator must trip a named verifier
check, and the unmutated code must pass it."""

import pytest

from hardyheat import kernels, verifier
from hardyheat.verifier import VerifierConfig, run_check


@pytest.mark.parametrize("factor,passes", [(1.0, True), (0.4, False)])
def test_hardy_trips_on_a_deflated_fractional_laplacian_constant(monkeypatch, factor, passes):
    # the (-Lap)^s energy is the Gagliardo double integral times half this
    # normaliser: at 0.4 times it the energy falls below the Hardy form
    true_const = verifier.frac_laplacian_constant
    monkeypatch.setattr(verifier, "frac_laplacian_constant",
                        lambda dim, s: factor * true_const(dim, s))
    assert run_check("hardy", VerifierConfig(seed=0)).passed is passes


def _scaled_value(real, factor):
    return lambda *args: factor * real(*args)


def _scaled_inverse(real, factor):
    def pair(n, odd):
        forward, inverse = real(n, odd)
        return forward, factor * inverse

    return pair


def _scaled_order(real, factor):
    return lambda lat, s, *pads: real(lat, factor * s, *pads)


def _scaled_lag_kernel(real, factor):
    # (d, w0, w1, a_m): every weight, not the multiplier d
    def weights(lat, s):
        d, *rest = real(lat, s)
        return (d, *(factor * w for w in rest))

    return weights


def _scaled_first_slab(real, factor):
    # the causal inverse's first-slab weights (q = s > 0), not apply_Ls's
    # (q = -s)
    return lambda a, b, q: tuple(factor * w for w in real(a, b, q)) if q > 0 else real(a, b, q)


# (operator in kernels, its mutation, mutated factor, the checks it trips
# and their seed-0 margins at that factor, against tolerances of 1e-2 for
# inversion and semigroup and 5e-2 for ground_state and radial_flap).
# Under the heat_symbol mutation `adjoint` still reads 3.3e-15 and passes:
# its reflection symmetry holds for any real convolution operator, a wrong
# order included, which is ROADMAP item 6's evidence that it cannot fail.
OPERATOR_MUTATIONS = [
    # the causal inverse's lag weights w0, w1 and a_m: margins 0.050 and
    # 0.050
    ("_js_weights", _scaled_lag_kernel, 1.05, ("inversion", "semigroup")),
    # the lag weights alpha_m of the slabs from [1, 2] on: margin 0.025
    # (semigroup reads 0.0057, a composition of two inverses whose errors
    # partly cancel)
    ("_lag_weights", _scaled_value, 1.05, ("inversion",)),
    # the first slab's product-linear weights: margins 0.029 and 0.049
    ("_linear_weights", _scaled_first_slab, 1.05, ("inversion", "semigroup")),
    # the orthant transforms' inverse matrices: margins 0.041 and 0.041
    ("_dct_pair", _scaled_inverse, 1.02, ("inversion", "semigroup")),
    # the spectral operator's order: margins 0.065, 0.083 and 0.50
    ("heat_symbol", _scaled_order, 1.1, ("inversion", "ground_state", "radial_flap")),
]


@pytest.fixture
def fresh_js_kernel():
    """The causal inverse's cached kernel is rebuilt from the (mutated)
    weights, and dropped again after the test."""
    kernels._js_kernel.cache_clear()
    yield
    kernels._js_kernel.cache_clear()


@pytest.mark.parametrize("name,mutate,factor,check_ids", OPERATOR_MUTATIONS,
                         ids=[m[0] for m in OPERATOR_MUTATIONS])
@pytest.mark.parametrize("mutated", [False, True])
def test_operator_mutation_trips_its_checks(monkeypatch, fresh_js_kernel, name, mutate, factor, check_ids,
                                            mutated):
    monkeypatch.setattr(kernels, name, mutate(getattr(kernels, name), factor if mutated else 1.0))
    for cid in check_ids:
        assert run_check(cid, VerifierConfig(seed=0)).passed is not mutated, cid


# (module, constant, mutated factor, the check it trips), with its seed-0
# margin at that factor and at 1. Both checks apply the spectral operator.
CONSTANT_MUTATIONS = [
    # the extension's normaliser kappa_s: 0.022 against a tolerance of 0
    # (-0.0049 at 1)
    (verifier, "extension_constant", 1.05, "extension"),
    # the radial identity's Gamma quotient: 0.063 against 5e-2 (0.017 at 1)
    (kernels, "upsilon", 1.05, "radial_flap"),
]


@pytest.mark.parametrize("module,name,factor,check_id", CONSTANT_MUTATIONS,
                         ids=[m[1] for m in CONSTANT_MUTATIONS])
@pytest.mark.parametrize("mutated", [False, True])
def test_constant_mutation_trips_its_check(monkeypatch, module, name, factor, check_id, mutated):
    monkeypatch.setattr(module, name, _scaled_value(getattr(module, name), factor if mutated else 1.0))
    assert run_check(check_id, VerifierConfig(seed=0)).passed is not mutated
