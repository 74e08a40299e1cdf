import math
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hris_sim.geometry import (HALF_WAVE, ArrayGeometry, Radio,
                               array_response, planar, ula, wave_vector)

TABLE1_BS = np.array([-25.0, 25.0, 6.0])
TABLE1_HRIS = np.array([0.0, 0.0, 6.0])
WIDE = Radio(1e3).wavelength * HALF_WAVE  # half a wavelength at 1e-6 GHz


def test_radio_wavelength_consistency():
    radio = Radio(28e9)
    assert abs(radio.wavelength * radio.carrier_hz - 299792458.0) < 1e-6 * 299792458.0


def test_ula_offsets_symmetric_and_spaced():
    arr = ula(TABLE1_BS, 4, 0.005)
    assert np.abs(arr.element_offsets.mean(axis=0)).max() < 1e-12
    gaps = np.diff(arr.element_offsets[:, 0])
    assert np.allclose(gaps, 0.005, rtol=1e-12, atol=0.0)
    assert np.ptp(arr.element_offsets[:, 1:]) == 0.0


def _reference_planar(nx, nz, spacing):
    """The offsets ``planar`` laid out before an array built its own grid."""
    ix = np.arange(nx) - (nx - 1) / 2.0
    iz = np.arange(nz) - (nz - 1) / 2.0
    xx, zz = np.meshgrid(ix, iz)  # raveling gives x varying fastest
    offsets = np.zeros((nx * nz, 3))
    with np.errstate(over="ignore", invalid="ignore"):
        offsets[:, 0] = xx.ravel() * spacing
        offsets[:, 2] = zz.ravel() * spacing
    return offsets


def _reference_ula(n_elements, spacing):
    """The offsets ``ula`` laid out before it became one planar row."""
    idx = np.arange(n_elements) - (n_elements - 1) / 2.0
    offsets = np.zeros((n_elements, 3))
    with np.errstate(over="ignore"):
        offsets[:, 0] = idx * spacing
    return offsets


def _assert_lays_out(make, ref):
    """``make()`` holds the reference offsets bit for bit, or rejects them
    as not finite."""
    if not np.isfinite(ref).all():
        with pytest.raises(ValueError, match="offsets must be finite"):
            make()
        return
    arr = make()
    assert np.array_equal(arr.element_offsets.view(np.int64), ref.view(np.int64))


# from 1e-300 m through half a wavelength at 1e-6 GHz to 1e307 m, where the
# longer axes overflow
SPACINGS = st.one_of(st.sampled_from([1e-300, 5e-3, WIDE, 1e307]),
                     st.floats(1e-300, 1e307))


def _overflow_edge(n):
    """The widest spacing at which ``n`` elements have finite offsets, and
    the next float up, at which the outer two overflow."""
    half = (n - 1) / 2.0
    s = min(sys.float_info.max / half, sys.float_info.max)
    while math.isfinite(half * s):
        s = math.nextafter(s, math.inf)
    while not math.isfinite(half * s):
        s = math.nextafter(s, 0.0)
    return s, math.nextafter(s, math.inf)


# one ulp either side of the spacing at which an axis of n elements overflows
EDGES = [(n, spacing) for n in (2, 5, 128, 3000) for spacing in _overflow_edge(n)]


def _examples(*rows):
    """Decorate a hypothesis test with one explicit example per row."""
    def decorate(test):
        for row in rows:
            test = example(*row)(test)
        return test
    return decorate


@settings(deadline=None)
@given(st.integers(1, 130), st.integers(1, 130), SPACINGS)
@_examples(*((n, 1, spacing) for n, spacing in EDGES),
           *((1, n, spacing) for n, spacing in EDGES))
def test_planar_equals_the_reference_layout_bit_for_bit(nx, nz, spacing):
    _assert_lays_out(lambda: planar(TABLE1_HRIS, nx, nz, spacing),
                     _reference_planar(nx, nz, spacing))


@settings(deadline=None)
@given(st.integers(1, 130), SPACINGS)
@_examples(*EDGES)
def test_ula_equals_the_reference_layout_bit_for_bit(n, spacing):
    _assert_lays_out(lambda: ula(TABLE1_BS, n, spacing),
                     _reference_ula(n, spacing))


def test_array_is_built_from_its_grid():
    arr = ArrayGeometry(TABLE1_HRIS, 8, 4, 5e-3)
    assert arr.n_elements == 32 and arr.element_offsets.shape == (32, 3)
    row = ula(TABLE1_BS, 4, 5e-3)
    assert (row.nx, row.nz, row.spacing, row.n_elements) == (4, 1, 5e-3, 4)


# an array whose offsets are finite constructs, even where their mean rounds
# past 1e-12 m (150 km spacing) or their sum passes the float range (1e307 m)
def test_wide_spacing_layouts_construct():
    assert planar(TABLE1_HRIS, 8, 4, WIDE).n_elements == 32
    assert ula(TABLE1_BS, 128, WIDE).n_elements == 128
    assert planar(TABLE1_HRIS, 16, 16, 1e307).n_elements == 256
    assert ula(TABLE1_BS, 36, 1e307).n_elements == 36


# a spacing an API caller passes may be NaN, infinite, or finite but too wide
# for the array: 1e308 m at 64 elements puts the outer ones past the float
# range; a lone element sits at 0 spacings, NaN at a NaN or infinite one; and
# a row of 10**400 elements has more than a float can count. Each is
# rejected without a floating-point warning or an attempt to lay it out.
@pytest.mark.parametrize("nx, nz, bad", [
    pytest.param(8, 8, np.nan, id="nan"), pytest.param(8, 8, np.inf, id="inf"),
    pytest.param(8, 8, 1e308, id="1e+308"),
    pytest.param(1, 1, np.inf, id="1x1-inf"),
    pytest.param(1, 1, np.nan, id="1x1-nan"),
    pytest.param(10**400, 1, 5e-3, id="ula-1e400")])
def test_non_finite_offsets_rejected(nx, nz, bad):
    with pytest.raises(ValueError, match="offsets must be finite"):
        planar(TABLE1_HRIS, nx, nz, bad)


def test_planar_layout_row_major_x_fastest():
    arr = planar(TABLE1_HRIS, 8, 4, 0.005)
    assert arr.n_elements == 32
    # first row shares z, x increments by the spacing
    first_row = arr.element_offsets[:8]
    assert np.allclose(np.diff(first_row[:, 0]), 0.005)
    assert np.ptp(first_row[:, 2]) == 0.0
    # consecutive rows step in z
    assert np.isclose(arr.element_offsets[8, 2] - arr.element_offsets[0, 2], 0.005)
    assert np.abs(arr.element_offsets.mean(axis=0)).max() < 1e-12


def test_planar_element_count_validated():
    for nx, nz in [(0, 4), (8, 0), (-1, 1)]:
        with pytest.raises(ValueError, match="at least one element per axis"):
            planar(TABLE1_HRIS, nx, nz, 5e-3)
    with pytest.raises(ValueError, match="at least one element per axis"):
        ula(TABLE1_BS, 0, 5e-3)  # a linear array is checked the same way


def test_wave_vector_unit_axis():
    k = wave_vector((1.0, 0.0, 0.0), (0.0, 0.0, 0.0), 1.0)
    assert np.allclose(k, [2.0 * np.pi, 0.0, 0.0])


def test_wave_vector_sign_convention():
    k = wave_vector((0.0, 0.0, 0.0), (0.0, 2.0, 0.0), 0.5)
    assert np.allclose(k, [0.0, -4.0 * np.pi, 0.0])


def test_wave_vector_table1_link():
    radio = Radio(28e9)
    k = wave_vector(TABLE1_BS, TABLE1_HRIS, radio.wavelength)
    # independent recomputation: unit direction times 2 pi / lambda
    diff = TABLE1_BS - TABLE1_HRIS
    direction = diff / np.sqrt((diff ** 2).sum())
    assert np.isclose(np.linalg.norm(k), 2.0 * np.pi / radio.wavelength, rtol=1e-12)
    assert np.allclose(k / np.linalg.norm(k), direction)


def test_wave_vector_degenerate_link():
    with pytest.raises(ValueError, match="degenerate"):
        wave_vector((1.0, 2.0, 3.0), (1.0, 2.0, 3.0), 0.01)


def test_array_response_broadside_all_ones():
    radio = Radio(28e9)
    arr = planar(TABLE1_HRIS, 8, 4, radio.wavelength / 2)
    resp = array_response(arr, TABLE1_HRIS + np.array([0.0, 30.0, 0.0]), radio)
    assert np.allclose(resp, 1.0)


def test_array_response_endfire_two_elements():
    radio = Radio(28e9)
    arr = ula((0.0, 0.0, 0.0), 2, radio.wavelength / 2)
    resp = array_response(arr, (50.0, 0.0, 0.0), radio)
    phase_diff = np.angle(resp[1] / resp[0])
    assert np.isclose(abs(phase_diff), np.pi, atol=1e-9)


def test_array_response_matches_per_element_bruteforce():
    radio = Radio(28e9)
    arr = planar(TABLE1_HRIS, 8, 4, radio.wavelength / 2)
    resp = array_response(arr, TABLE1_BS, radio)
    diff = TABLE1_BS - arr.center
    unit = diff / np.linalg.norm(diff)
    for n in range(arr.n_elements):
        phase = (2.0 * np.pi / radio.wavelength) * float(unit @ arr.element_offsets[n])
        assert np.isclose(resp[n], np.exp(1j * phase), atol=1e-12)


def test_array_response_unit_modulus_norm():
    radio = Radio(28e9)
    rng = np.random.default_rng(0)
    arr = planar(TABLE1_HRIS, 8, 4, radio.wavelength / 2)
    for _ in range(20):
        p = rng.uniform(-40, 40, 3) + np.array([0.0, 10.0, 0.0])
        resp = array_response(arr, p, radio)
        assert np.isclose(np.linalg.norm(resp) ** 2, arr.n_elements, rtol=1e-12)


def test_array_response_translation_invariant():
    radio = Radio(28e9)
    shift = np.array([3.0, -7.0, 2.0])
    p = np.array([10.0, 20.0, 1.5])
    a0 = array_response(planar(TABLE1_HRIS, 8, 4, radio.wavelength / 2), p, radio)
    a1 = array_response(planar(TABLE1_HRIS + shift, 8, 4, radio.wavelength / 2),
                        p + shift, radio)
    assert np.allclose(a0, a1)


def test_array_response_conjugate_is_mirror_source():
    radio = Radio(28e9)
    arr = planar(TABLE1_HRIS, 8, 4, radio.wavelength / 2)
    p = np.array([12.0, 18.0, 3.0])
    mirrored = 2.0 * arr.center - p
    assert np.allclose(np.conj(array_response(arr, p, radio)),
                       array_response(arr, mirrored, radio))


@pytest.mark.parametrize("call, message", [
    pytest.param(lambda: Radio(0.0), "carrier frequency must be positive",
                 id="carrier"),
    pytest.param(lambda: ArrayGeometry((0.0, 6.0), 2, 2, 5e-3),
                 "center must be a 3-vector", id="center"),
])
def test_argument_check_names_its_fault(call, message):
    with pytest.raises(ValueError, match=message):
        call()
