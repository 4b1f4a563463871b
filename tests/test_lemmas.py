import numpy as np
import pytest

from pseudoplap.lemmas import lipschitz_modulus


@pytest.mark.parametrize("tau", [0.05, 0.2, 0.45])
def test_sampled_lipschitz_modulus_keeps_prime_window_on_unit_interval(tau):
    m = lipschitz_modulus(tau)
    s = np.concatenate([np.logspace(-12, -1, 50), np.linspace(0.1, 0.999, 50)])
    wp = m.omega_prime(s)
    assert (wp >= 0.5).all() and (wp < 1.0).all()
    assert m.s0 > 1.0
