"""Loading, splitting, windowing, normalization, synthesis, metrics."""
import tracemalloc

import numpy as np
import pytest

from sbaformer import data as dt
from sbaformer.errors import (
    ConfigError,
    HeaderMismatchError,
    InputError,
    NanPayloadError,
    NodeCountError,
)
from sbaformer.graph import SpatialGraph, load_coords, load_graph, save_graph


class TestChronoSplit:
    def test_exact_ratios(self):
        assert dt.chrono_split(10) == ((0, 6), (6, 8), (8, 10))

    def test_largest_benchmark_size(self):
        assert dt.chrono_split(35040) == ((0, 21024), (21024, 28032), (28032, 35040))

    def test_remainder_goes_to_test(self):
        assert dt.chrono_split(11) == ((0, 6), (6, 8), (8, 11))

    def test_min_len_guard(self):
        with pytest.raises(ConfigError):
            dt.chrono_split(20, min_len=5)

    def test_bad_ratios(self):
        with pytest.raises(ConfigError):
            dt.chrono_split(10, ratios=(0.5, 0.2, 0.2))


class TestMakeWindows:
    def test_counting(self):
        ws = dt.make_windows((0, 10), t=3, f=2)
        assert len(ws) == 6
        assert ws.indices[0] == (0, 3, 2) and ws.indices[-1] == (5, 3, 2)

    def test_benchmark_configuration(self):
        ws = dt.make_windows((0, 21024), t=96, f=12)
        assert len(ws) == 21024 - 96 - 12 + 1

    def test_tiling_stride(self):
        ws = dt.make_windows((0, 20), t=3, f=2, stride=5)
        assert [s for s, _, _ in ws.indices] == [0, 5, 10, 15]

    def test_too_short_range_warns(self, caplog):
        with caplog.at_level("WARNING"):
            ws = dt.make_windows((0, 4), t=3, f=2)
        assert len(ws) == 0
        assert "range (0, 4) too short for t=3 f=2; empty window set" in caplog.text

    def test_windows_deterministic(self):
        a = dt.make_windows((5, 50), 4, 3)
        b = dt.make_windows((5, 50), 4, 3)
        assert a.indices == b.indices

    def test_window_arrays_slices(self):
        series = np.arange(40.0).reshape(2, 10, 2)
        ws = dt.make_windows((0, 10), t=3, f=2)
        xs, ys = dt.window_arrays(series, ws, at=[1])
        np.testing.assert_array_equal(xs[0], series[:, 1:4])
        np.testing.assert_array_equal(ys[0], series[:, 4:6])


class TestNormalizer:
    def test_roundtrip_within_1e12(self):
        rng = np.random.default_rng(0)
        series = rng.standard_normal((4, 50, 2)) * 7 + 3
        norm = dt.Normalizer.fit(series)
        np.testing.assert_allclose(norm.invert(norm.apply(series)), series, atol=1e-12)

    def test_fit_ignores_other_splits(self):
        rng = np.random.default_rng(1)
        series = rng.standard_normal((4, 50, 1))
        train = series[:, :30]
        norm = dt.Normalizer.fit(train)
        mutated = series.copy()
        mutated[:, 30:] += 1e6
        norm2 = dt.Normalizer.fit(mutated[:, :30])
        assert np.array_equal(norm.mean, norm2.mean) and np.array_equal(norm.std, norm2.std)

    def test_normalized_train_stats(self):
        rng = np.random.default_rng(2)
        series = rng.standard_normal((4, 100, 2)) * 5 - 2
        norm = dt.Normalizer.fit(series)
        z = norm.apply(series)
        np.testing.assert_allclose(z.mean(axis=(0, 1)), 0.0, atol=1e-12)
        np.testing.assert_allclose(z.std(axis=(0, 1)), 1.0, atol=1e-12)


class TestSplitSetup:
    def test_matches_the_composed_steps(self):
        ds = dt.synth_diffusion(n=9, steps=120, seed=3)
        normalizer, windows = dt.split_setup(ds, t=6, f=3)
        bounds = dt.chrono_split(ds.steps, min_len=9)
        fit = dt.Normalizer.fit(ds.series[:, bounds[0][0] : bounds[0][1]])
        assert np.array_equal(normalizer.mean, fit.mean)
        assert np.array_equal(normalizer.std, fit.std)
        assert list(windows) == list(dt.SPLITS)
        for name, b in zip(dt.SPLITS, bounds):
            assert windows[name].split == name
            assert windows[name].indices == dt.make_windows(b, 6, 3).indices
            # a raw gather normalized per batch, bit for bit a gather from
            # the normalized whole series
            gathered = dt.window_arrays(ds.series, windows[name])
            for whole, raw in zip(dt.window_arrays(fit.apply(ds.series), windows[name]), gathered):
                assert np.array_equal(whole, normalizer.apply(raw))

    def test_allocates_less_than_one_payload(self):
        # the set-up and one batch of each kind never hold a second series;
        # the train-range fit's centred temporary is 0.6 payloads
        n, steps = 64, 8000
        series = np.random.default_rng(0).standard_normal((n, steps, 1)) * 3 + 1
        ds = dt.Dataset(series=series, graph=dt.make_grid_graph(8, 8))
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            normalizer, windows = dt.split_setup(ds, t=12, f=6)
            batch = [normalizer.apply(a) for a in dt.window_arrays(
                ds.series, windows["train"], at=range(16))]
            val = [normalizer.apply(a) for a in dt.window_arrays(
                ds.series, windows["val"], at=range(64))]
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert batch[0].shape == (16, n, 12, 1) and val[1].shape == (64, n, 6, 1)
        assert peak < series.nbytes, peak / series.nbytes

    def test_short_split_raises_config_error(self):
        ds = dt.synth_diffusion(n=9, steps=40, seed=3)
        with pytest.raises(ConfigError, match="split has"):
            dt.split_setup(ds, t=6, f=3)


class TestGridGraph:
    def test_eight_neighbour_grid(self):
        g = dt.make_grid_graph(8, 8)
        assert sum(1 for _ in g.edges()) == 7 * 8 * 2 + 7 * 7 * 2 == 210
        a = g.dense_adjacency()
        assert a[0, 9] == 1.0 and a[0, 2] == 0.0


class TestSynthDiffusion:
    def test_frozen_dynamics_at_gamma_zero(self):
        ds = dt.synth_diffusion(n=9, steps=5, gamma=0.0, season_amp=0.0, noise_std=0.0, seed=0)
        for step in range(1, 5):
            np.testing.assert_array_equal(ds.series[:, step, 0], ds.series[:, 0, 0])

    def test_neighbors_more_correlated_than_distant(self):
        ds = dt.synth_diffusion(n=36, steps=512, noise_std=0.0, seed=1)
        x = ds.series[:, 64:, 0]  # drop transient
        corr = np.corrcoef(x)
        coords = ds.graph.coords
        d = np.sqrt(((coords[:, None] - coords[None]) ** 2).sum(-1))
        near = corr[(d > 0) & (d < 1.5)].mean()
        far = corr[d > 5.0].mean()
        assert near > far

    def test_seeded_and_byte_identical(self):
        a = dt.synth_diffusion(n=16, steps=64, seed=9)
        b = dt.synth_diffusion(n=16, steps=64, seed=9)
        assert np.array_equal(a.series, b.series)

    def test_mean_conserved_on_regular_graph(self):
        # ring graph is regular, so the row-normalized adjacency is doubly
        # stochastic and the diffusion conserves the mean exactly
        ring = SpatialGraph(12, np.arange(12), (np.arange(12) + 1) % 12, np.ones(12))
        ds = dt.synth_diffusion(
            n=12, steps=40, graph=ring, gamma=0.4, season_amp=0.0, noise_std=0.0, seed=2
        )
        means = ds.series[:, :, 0].mean(axis=0)
        np.testing.assert_allclose(means, means[0], atol=1e-12)

    def test_disconnected_graph_rejected(self):
        g = SpatialGraph(4, [0, 2], [1, 3], [1.0, 1.0])
        with pytest.raises(ConfigError):
            dt.synth_diffusion(n=4, steps=8, graph=g)


class TestSeriesFiles:
    def test_bin_roundtrip_bit_identical(self, tmp_path):
        rng = np.random.default_rng(3)
        series = rng.standard_normal((2, 4, 1))
        path = tmp_path / "series.bin"
        dt.save_series(path, series, "bin", freq_minutes=5, name="toy")
        loaded, meta = dt.load_series(path, "bin")
        assert np.array_equal(loaded, series)
        assert meta["freq_minutes"] == 5 and meta["name"] == "toy"

    def test_csv_and_bin_load_identically(self, tmp_path):
        rng = np.random.default_rng(4)
        series = rng.standard_normal((3, 5, 2))
        dt.save_series(tmp_path / "s.bin", series, "bin")
        dt.save_series(tmp_path / "s.csv", series, "csv")
        a, _ = dt.load_series(tmp_path / "s.bin", "bin")
        b, _ = dt.load_series(tmp_path / "s.csv", "csv")
        assert np.array_equal(a, b)

    def test_header_payload_mismatch(self, tmp_path):
        rng = np.random.default_rng(5)
        dt.save_series(tmp_path / "s.bin", rng.standard_normal((2, 3, 1)), "bin")
        (tmp_path / "s.json").write_text(
            '{"n": 3, "t": 3, "c": 1, "freq_minutes": 15, "name": "bad"}'
        )
        with pytest.raises(HeaderMismatchError):
            dt.load_series(tmp_path / "s.bin", "bin")

    def test_nan_payload_rejected(self, tmp_path):
        series = np.ones((2, 2, 1))
        series[0, 0, 0] = np.nan
        dt.save_series(tmp_path / "s.bin", series, "bin")
        with pytest.raises(NanPayloadError):
            dt.load_series(tmp_path / "s.bin", "bin")

    def test_graph_naming_node_beyond_series_rejected(self, tmp_path):
        rng = np.random.default_rng(10)
        dt.save_series(tmp_path / "s.bin", rng.standard_normal((2, 4, 1)), "bin")
        (tmp_path / "g.csv").write_text("0,1,1.0\n1,2,1.0\n")  # node 2 > n-1
        series, _ = dt.load_series(tmp_path / "s.bin", "bin")
        with pytest.raises(InputError, match="exceeds"):
            load_graph(tmp_path / "g.csv", n=series.shape[0])

    def test_coords_count_differing_from_series_rejected(self, tmp_path):
        rng = np.random.default_rng(6)
        dt.save_series(tmp_path / "s.bin", rng.standard_normal((3, 4, 1)), "bin")
        save_graph(tmp_path / "g.csv", SpatialGraph(2, [0], [1], [1.0]))
        series, _ = dt.load_series(tmp_path / "s.bin", "bin")
        # graph file only names nodes 0..1, which the series size accepts,
        # but a coords file of the wrong length must be rejected
        assert load_graph(tmp_path / "g.csv", n=series.shape[0]).n == 3
        (tmp_path / "c.csv").write_text("0,0.0,0.0\n1,1.0,0.0\n")
        with pytest.raises(NodeCountError):
            load_coords(tmp_path / "c.csv", series.shape[0])

    def test_series_and_graph_roundtrip(self, tmp_path):
        ds = dt.synth_diffusion(n=9, steps=16, seed=7)
        dt.save_series(tmp_path / "s.bin", ds.series, "bin", name="synthetic")
        save_graph(tmp_path / "g.csv", ds.graph)
        series, meta = dt.load_series(tmp_path / "s.bin", "bin")
        graph = load_graph(tmp_path / "g.csv", n=series.shape[0])
        assert np.array_equal(series, ds.series) and meta["name"] == "synthetic"
        assert list(graph.edges()) == list(ds.graph.edges())


class TestMetrics:
    def test_zero_error(self):
        x = np.ones((2, 3, 1))
        report = dt.metrics(x, x)
        assert report["mae"] == 0.0 and report["rmse"] == 0.0 and report["mape_pct"] == 0.0

    def test_constant_offset(self):
        target = np.full((2, 3, 1), 2.0)
        report = dt.metrics(target + 1.0, target)
        assert report["mae"] == 1.0 and report["rmse"] == 1.0
        np.testing.assert_allclose(report["mape_pct"], 50.0, atol=1e-12)

    def test_scalar_oracle_random(self):
        rng = np.random.default_rng(8)
        pred = rng.standard_normal((4, 3, 1))
        target = rng.standard_normal((4, 3, 1)) + 2.0
        report = dt.metrics(pred, target)
        err = pred - target
        np.testing.assert_allclose(report["mae"], np.abs(err).mean(), atol=1e-15)
        np.testing.assert_allclose(report["rmse"], np.sqrt((err**2).mean()), atol=1e-15)
        keep = np.abs(target) >= 1e-4
        np.testing.assert_allclose(
            report["mape_pct"], (np.abs(err[keep]) / np.abs(target[keep])).mean() * 100
        )
        assert report["rmse"] >= report["mae"]

    def test_all_excluded_mape_absent(self):
        target = np.zeros((2, 2, 1))
        report = dt.metrics(np.ones((2, 2, 1)), target)
        assert report["mape_pct"] is None and report["excluded"] == 4

    def test_horizon_breakdown_layout(self):
        rng = np.random.default_rng(9)
        pred = rng.standard_normal((5, 4, 12, 1))
        target = rng.standard_normal((5, 4, 12, 1)) + 3.0
        report = dt.metrics(pred, target)
        assert len(report["horizon_breakdown"]) == 12
        step3 = report["horizon_breakdown"][2]
        err3 = pred[..., 2, :] - target[..., 2, :]
        np.testing.assert_allclose(step3["mae"], np.abs(err3).mean(), atol=1e-15)
