import numpy as np
import pytest
from hypothesis import given, settings
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


def _reference_ula(center, n_elements, spacing):
    """The layout ``ula`` built itself before it became one planar row."""
    if n_elements < 1:
        raise ValueError("need at least one element")
    idx = np.arange(n_elements) - (n_elements - 1) / 2.0
    offsets = np.zeros((n_elements, 3))
    offsets[:, 0] = idx * spacing
    return ArrayGeometry(center, offsets, nx=n_elements, nz=1, spacing=spacing)


@settings(deadline=None)
@given(st.integers(1, 130), st.floats(1e-3, 1e5))
def test_ula_equals_the_reference_layout_bit_for_bit(n, spacing):
    arr, ref = ula(TABLE1_BS, n, spacing), _reference_ula(TABLE1_BS, n, spacing)
    assert np.array_equal(arr.element_offsets.view(np.int64),
                          ref.element_offsets.view(np.int64))
    assert (arr.nx, arr.nz, arr.spacing) == (ref.nx, ref.nz, ref.spacing)


# at 150 km spacing the mean of these symmetric layouts rounded past the
# absolute 1e-12 m that the centroid check allowed; at 1e307 m the sum of
# their offsets overflowed
def test_wide_spacing_layouts_construct():
    assert planar(TABLE1_HRIS, 8, 4, WIDE).n_elements == 32
    assert ula(TABLE1_BS, 128, WIDE).n_elements == 128
    assert planar(TABLE1_HRIS, 16, 16, 1e307).n_elements == 256
    assert ula(TABLE1_BS, 36, 1e307).n_elements == 36


# a NaN or an infinite offset passed the centroid check
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_offsets_rejected(bad):
    offsets = planar(TABLE1_HRIS, 8, 4, 5e-3).element_offsets
    offsets[3, 1] = bad
    with pytest.raises(ValueError, match="offsets must be finite"):
        ArrayGeometry(TABLE1_HRIS, offsets, nx=8, nz=4)


@pytest.mark.parametrize("spacing", [5e-3, WIDE])
def test_off_center_layout_rejected_at_any_scale(spacing):
    offsets = planar(TABLE1_HRIS, 8, 4, spacing).element_offsets
    shifted = offsets + [1e-9 * np.abs(offsets).max(), 0.0, 0.0]
    with pytest.raises(ValueError, match="symmetric about the center"):
        ArrayGeometry(TABLE1_HRIS, shifted, nx=8, nz=4, spacing=spacing)


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
    with pytest.raises(ValueError):
        ArrayGeometry(TABLE1_HRIS, np.zeros((5, 3)), nx=2, nz=3)
    with pytest.raises(ValueError):  # a linear array is checked the same way
        ArrayGeometry(TABLE1_BS, np.zeros((4, 3)), nx=3, nz=1)


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
