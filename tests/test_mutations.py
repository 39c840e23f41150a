"""Each mutation of a constant or an operator must trip a named verifier
check, and the unmutated code must pass it."""

import pytest

from hardyheat import verifier
from hardyheat.verifier import VerifierConfig, run_check


@pytest.mark.parametrize("factor,passes", [(1.0, True), (0.4, False)])
def test_hardy_trips_on_a_deflated_fractional_laplacian_constant(monkeypatch, factor, passes):
    # the (-Lap)^s energy is the Gagliardo double integral times half this
    # normaliser: at 0.4 times it the energy falls below the Hardy form
    true_const = verifier.frac_laplacian_constant
    monkeypatch.setattr(verifier, "frac_laplacian_constant",
                        lambda dim, s: factor * true_const(dim, s))
    assert run_check("hardy", VerifierConfig(seed=0)).passed is passes
