"""Tests for the raster landscape workload (PR 7)."""

import numpy as np
import pytest

from repro.arith import FixedPointFormat
from repro.arith.fixedpoint import FixedPointBackend
from repro.engine import session_for
from repro.experiments.landscape import (
    LandscapeResult,
    certify_landscape,
    landscape_fields,
    landscape_network,
    landscape_parameter_map,
    landscape_theta,
    landscape_tiles,
    render_landscape,
    run_landscape,
)
from tests.conftest import golden_theta_forward, golden_theta_roots, mantissas


@pytest.fixture(scope="module")
def pmap():
    return landscape_parameter_map()


class TestLandscapeTheta:
    def test_network_values_all_distinct(self):
        network = landscape_network()
        values = [
            float(v)
            for cpt in network.cpts()
            for v in np.asarray(cpt.table).ravel()
        ]
        assert len(values) == len(set(values))

    def test_fields_stay_in_unit_interval(self):
        moisture, fertility = landscape_fields(9, 13)
        for field in (moisture, fertility):
            assert field.shape == (9, 13)
            assert field.min() >= 0.0 and field.max() <= 1.0

    def test_rows_are_valid_parameterizations(self, pmap):
        theta = landscape_theta(6, 7, pmap)
        assert theta.shape == (42, pmap.width)
        assert (theta > 0.0).all() and (theta < 1.0).all()
        # Every binary CPT row still sums to one per cell.
        for child, parents in [
            ("Rain", ()),
            ("Soil", ()),
            ("Vegetation", (0, 1)),
            ("Presence", (1,)),
        ]:
            total = (
                theta[:, pmap.column((child, 0, parents))]
                + theta[:, pmap.column((child, 1, parents))]
            )
            assert np.allclose(total, 1.0)

    def test_cells_actually_vary(self, pmap):
        theta = landscape_theta(8, 8, pmap)
        assert len(np.unique(theta[:, pmap.column(("Rain", 1))])) > 8

    def test_tiles_partition_the_raster(self, pmap):
        theta = landscape_theta(5, 5, pmap)
        tiles = list(landscape_tiles(theta, tile_rows=6))
        assert [start for start, _ in tiles] == [0, 6, 12, 18, 24]
        assert (np.vstack([tile for _, tile in tiles]) == theta).all()

    def test_bad_tile_rows_rejected(self, pmap):
        theta = landscape_theta(2, 2, pmap)
        with pytest.raises(ValueError, match="positive"):
            list(landscape_tiles(theta, tile_rows=0))

    def test_bad_grid_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            landscape_fields(0, 4)


class TestRunLandscape:
    @pytest.fixture(scope="class")
    def result(self):
        return run_landscape(8, 9)

    def test_shapes_and_types(self, result):
        assert isinstance(result, LandscapeResult)
        assert result.exact.shape == (8, 9)
        assert result.quantized.shape == (8, 9)
        assert result.n_cells == 72

    def test_exact_matches_golden(self, pmap, result):
        theta = landscape_theta(8, 9, pmap)
        want = golden_theta_forward(pmap.circuit, theta, {"Presence": 1}).reshape(8, 9)
        assert (result.exact == want).all()

    def test_quantized_matches_golden(self, pmap, result):
        theta = landscape_theta(8, 9, pmap)
        backend = FixedPointBackend(result.fmt)
        words = mantissas(
            golden_theta_roots(pmap.circuit, backend, theta, {"Presence": 1})
        )
        want = (words * 2.0 ** (-result.fmt.fraction_bits)).reshape(8, 9)
        assert (result.quantized == want).all()

    def test_certificate_holds_for_whole_raster(self, result):
        assert result.max_abs_error <= result.root_bound
        assert result.certified

    def test_certificate_dominates_per_cell_envelope(self, pmap):
        # The raster-wide bound must dominate the bound of any single
        # cell (the envelope is column-wise maxima over all cells).
        theta = landscape_theta(4, 4, pmap)
        fmt = FixedPointFormat(2, 10)
        whole = certify_landscape(pmap.circuit, theta, fmt)
        for row in theta[:4]:
            assert certify_landscape(pmap.circuit, row[None], fmt) <= whole

    def test_tighter_format_tightens_certificate(self, pmap):
        theta = landscape_theta(4, 4, pmap)
        coarse = certify_landscape(pmap.circuit, theta, FixedPointFormat(2, 8))
        fine = certify_landscape(pmap.circuit, theta, FixedPointFormat(2, 16))
        assert fine < coarse

    def test_tiled_evaluation_matches_whole_raster(self, pmap, result):
        # Streaming tile by tile — one batched call per tile — must be
        # bit-identical to the single whole-raster sweep.
        theta = landscape_theta(8, 9, pmap)
        session = session_for(pmap.circuit)
        stitched = np.concatenate(
            [
                session.evaluate_theta_batch(tile, {"Presence": 1})
                for _, tile in landscape_tiles(theta, tile_rows=16)
            ]
        )
        assert (stitched.reshape(8, 9) == result.exact).all()

    def test_render(self, result):
        report = render_landscape(result)
        assert "8x9" in report
        assert "CERTIFIED" in report
        assert len(report.splitlines()) > 8
        summary = render_landscape(result, raster=False)
        assert len(summary.splitlines()) == 5
