import numpy as np
import pytest

from pseudoplap.manufactured import (
    closed_form_1d,
    gaussian_field,
    make_boundary,
    make_f_field,
    separable_reference,
    separable_trace,
)
from pseudoplap.grid import GridSpec, interior_mask


@pytest.mark.parametrize("p,c", [(3.0, 1.0), (2.5, 2.0), (5.0, 0.3)])
def test_closed_form_satisfies_ode(p, c):
    u, du = closed_form_1d(p, c)
    assert u(np.array([1.0])) == pytest.approx(0.0)
    assert u(np.array([-1.0])) == pytest.approx(0.0)
    # flux phi_p(u') must equal (p-1) c x
    x = np.linspace(-0.95, 0.95, 77)
    flux = np.abs(du(x)) ** (p - 2.0) * du(x)
    assert np.allclose(flux, (p - 1.0) * c * x, rtol=1e-12, atol=1e-12)
    # derivative consistency: central difference of u matches du
    h = 1e-6
    fd = (u(x + h) - u(x - h)) / (2 * h)
    assert np.allclose(fd, du(x), atol=1e-7)


def test_separable_reference_rhs():
    u_star, f_const = separable_reference(3.0, 2)
    assert f_const == 2.0
    trace = separable_trace(3.0)
    pts = np.array([[1.0, 0.3], [0.5, 1.0]])
    assert np.allclose(trace(pts), u_star(pts))


@pytest.mark.parametrize("sigma", [0.0, -0.3, 1e-170, 1e-300, 1e160, float("inf"), float("nan")])
def test_gaussian_rejects_sigma_whose_variance_is_not_normal(sigma):
    # 2 sigma^2 must be a finite normal float: at 1e-170 it underflows, and
    # the centre node's exp(-0/0) would be NaN behind two numpy warnings
    with np.errstate(all="raise"), pytest.raises(ValueError, match="sigma"):
        gaussian_field(GridSpec(2, 9), sigma=sigma)


def test_closed_form_rejects_c_whose_amplitude_overflows():
    with np.errstate(all="raise"), pytest.raises(ValueError, match="c = 1e"):
        closed_form_1d(3.0, 1e308)


def test_presets_reject_unknown():
    g = GridSpec(2, 9)
    with pytest.raises(ValueError):
        make_f_field(g, "mystery")
    with pytest.raises(ValueError):
        make_boundary("mystery")


def test_preset_fields_defined_on_interior():
    g = GridSpec(2, 17)
    for preset in ("constant", "separable", "gaussian", "checkerboard", "radial_ramp"):
        f = make_f_field(g, preset, value=1.0)
        assert np.isfinite(f.values[interior_mask(g)]).all()
