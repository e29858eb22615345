"""Lattice geometry: symplecticity, the OAM-to-rotation map, presets."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gridsense import (
    A_LATTICE,
    OamCharge,
    hexagonal_lattice,
    oam_lattice,
    rotation_matrix,
    square_lattice,
    symplectic_product,
    theta_from_oam,
    twisted_lattice,
)


def test_lattice_constant():
    assert abs(A_LATTICE - math.sqrt(2 * math.pi)) < 1e-15


def test_square_lattice_symplectic_product_is_two():
    lat = square_lattice()
    assert abs(symplectic_product(lat.u1, lat.u2) - 2.0) < 1e-12


@settings(max_examples=60, deadline=None)
@given(theta=st.floats(-10.0, 10.0), r=st.floats(0.2, 5.0))
def test_symplectic_product_invariant_over_theta_and_r(theta, r):
    # rotation is symplectic and the r, 1/r scalings cancel in the product,
    # so every twisted lattice scores exactly 2
    lat = twisted_lattice(theta, r)
    assert abs(symplectic_product(lat.u1, lat.u2) - 2.0) < 1e-10


def test_twisted_lattice_vectors_are_rotated_axes():
    lat = twisted_lattice(0.3, 1.2)
    R = rotation_matrix(0.3)
    assert np.allclose(lat.u1, R @ [A_LATTICE * 1.2, 0.0])
    assert np.allclose(lat.u2, R @ [0.0, A_LATTICE / 1.2])


def test_nonpositive_aspect_ratio_rejected():
    with pytest.raises(ValueError):
        twisted_lattice(0.0, 0.0)
    with pytest.raises(ValueError):
        twisted_lattice(0.0, -1.0)


def test_theta_from_oam_linear():
    # θ_ℓ = ℓπ/ℓ_max: spot values and linearity in ℓ
    assert theta_from_oam(OamCharge(0.0, 4)) == 0.0
    assert abs(theta_from_oam(OamCharge(2.0, 4)) - math.pi / 2) < 1e-15
    assert abs(theta_from_oam(OamCharge(1.5, 4)) - math.radians(67.5)) < 1e-15
    assert abs(theta_from_oam(OamCharge(2.0, 6)) - math.radians(60.0)) < 1e-15


@settings(max_examples=40, deadline=None)
@given(ell=st.floats(-8.0, 8.0), k=st.floats(-8.0, 8.0),
       ell_max=st.integers(1, 12))
def test_theta_from_oam_additive(ell, k, ell_max):
    t1 = theta_from_oam(OamCharge(ell, ell_max))
    t2 = theta_from_oam(OamCharge(k, ell_max))
    t12 = theta_from_oam(OamCharge(ell + k, ell_max))
    assert abs(t12 - (t1 + t2)) < 1e-9


def test_oam_charge_validates_ell_max():
    with pytest.raises(ValueError):
        OamCharge(1.0, 0)


def test_presets():
    hexa = hexagonal_lattice()
    assert hexa.r == 1.0 and abs(hexa.theta - math.pi / 6) < 1e-15
    assert abs(symplectic_product(hexa.u1, hexa.u2) - 2.0) < 1e-12
    # not hexagonal despite the name: a square lattice rotated by 30°
    assert abs(hexa.u1 @ hexa.u2) < 1e-12
    assert abs(np.linalg.norm(hexa.u1) - np.linalg.norm(hexa.u2)) < 1e-12

    oam = oam_lattice(1.5, 4, 1.092)
    assert abs(oam.theta - math.radians(67.5)) < 1e-15
    assert oam.r == 1.092


def test_as_dict_round_trip():
    lat = twisted_lattice(math.radians(67.5), 1.092)
    d = lat.as_dict()
    assert abs(d["theta_deg"] - 67.5) < 1e-12
    assert d["r"] == 1.092
    assert len(d["u1"]) == 2 and len(d["u2"]) == 2
    assert all(isinstance(x, float) for x in d["u1"] + d["u2"])
