import numpy as np
import pytest

from orbit_atlas import dims_report, effective_dim, weyl_cell


def test_pure_spectrum_cell():
    cell = weyl_cell([1.0, 0.0, 0.0, 0.0])
    assert cell.pattern == (1, 3)
    assert cell.label == "K_13"
    assert cell.global_dim == 6


def test_generic_spectrum_cell():
    cell = weyl_cell([0.4, 0.3, 0.2, 0.1])
    assert cell.pattern == (1, 1, 1, 1)
    assert cell.label == "K_1111"
    assert cell.global_dim == 12


def test_maximally_mixed_cell():
    cell = weyl_cell([0.25, 0.25, 0.25, 0.25])
    assert cell.pattern == (4,)
    assert cell.label == "K_4"
    assert cell.global_dim == 0


def test_paired_degeneracy_cell():
    cell = weyl_cell([0.4, 0.4, 0.1, 0.1])
    assert cell.pattern == (2, 2)
    assert cell.label == "K_22"
    assert cell.global_dim == 8


def test_weyl_cell_sorts_input():
    cell = weyl_cell([0.1, 0.4, 0.2, 0.3])
    np.testing.assert_allclose(cell.spectrum, [0.4, 0.3, 0.2, 0.1])


def test_weyl_cell_tolerance_grouping():
    tight = weyl_cell([0.5 + 4e-10, 0.5 - 4e-10, 0.0, 0.0])
    assert tight.pattern == (2, 2)
    split = weyl_cell([0.5 + 4e-10, 0.5 - 4e-10, 0.0, 0.0], tol=1e-11)
    assert split.pattern == (1, 1, 2)


def test_weyl_cell_does_not_chain_small_gaps():
    # neighbouring gaps of 2e-10 are each within tol, but the four values
    # spread over 6e-10, so they cannot form one degenerate group
    spec = [0.25 + 3e-10, 0.25 + 1e-10, 0.25 - 1e-10, 0.25 - 3e-10]
    cell = weyl_cell(spec, tol=2.5e-10)
    assert cell.pattern == (2, 2) and cell.label == "K_22"
    assert weyl_cell(spec, tol=7e-10).label == "K_4"


def test_weyl_cell_validation():
    with pytest.raises(ValueError):
        weyl_cell([1.0])
    with pytest.raises(ValueError):
        weyl_cell([0.7, 0.4, -0.1])
    with pytest.raises(ValueError):
        weyl_cell([0.5, 0.4, 0.4])


@pytest.mark.parametrize("spectrum", [[np.nan, 0.5, 0.5], [np.nan] * 4, [np.inf, 0.0, 0.0]])
def test_weyl_cell_rejects_non_finite(spectrum):
    with pytest.raises(ValueError, match="finite"):
        weyl_cell(spectrum)


def test_dims_report_values():
    rep = dims_report(2, 2)
    assert (rep.max_local_dim, rep.generic_global_dim, rep.effective_dim) == (6, 12, 6)
    rep = dims_report(2, 3)
    assert (rep.max_local_dim, rep.generic_global_dim, rep.effective_dim) == (11, 30, 19)
    with pytest.raises(ValueError):
        dims_report(1, 3)


def test_effective_dim_bounds():
    assert effective_dim(12, 6) == 6
    assert effective_dim(6, 6) == 0
    with pytest.raises(ValueError):
        effective_dim(5, 6)
    with pytest.raises(ValueError):
        effective_dim(-1, 0)
