"""Sweeps, the float baseline curve, effective parameters, and ECR."""

import csv
import dataclasses
from typing import get_type_hints

import numpy as np
import pytest

from quantbench import experiments
from quantbench.data import synthetic_split
from quantbench.errors import ConfigError, DataFormatError
from quantbench.experiments import (
    ECR_FIELDS,
    FLOAT_BITS,
    MODES,
    RECORD_FIELDS,
    FloatBaselineCurve,
    NetworkConfig,
    SweepRecord,
    baseline_curve,
    ecr,
    effective_params,
    emit_report,
    parse_records_csv,
    run_depth_sweep,
    run_width_sweep,
    write_ecr_csv,
    write_records_csv,
)
from quantbench.nn import build_cnn, count_params
from quantbench.trainer import TrainConfig


def _tiny_split(seed=3, dim=6, classes=3):
    return synthetic_split(
        "blobs", 120, 40, 40, classes=classes, seed=seed, dim=dim, spread=0.3
    )


def _tiny_cfg(**kw):
    base = dict(batch_size=32, lr_init=0.02, lr_final=1e-4, max_epochs=2,
                patience=2, seed=7)
    base.update(kw)
    return TrainConfig(**base)


def _rec(**kw):
    base = dict(
        family="ffdnn",
        width_or_maps="16",
        depth=1,
        mode="direct",
        n_bits=2,
        seed=0,
        param_count=1000,
        total_weight_bits=2000,
        val_metric=5.0,
        test_metric=6.0,
    )
    base.update(kw)
    return SweepRecord(**base)


class TestSweepRecord:
    def test_unknown_mode_rejected(self):
        with pytest.raises(ConfigError):
            _rec(mode="quantized")

    def test_float_must_use_float_bits(self):
        with pytest.raises(ConfigError):
            _rec(mode="float", n_bits=2)
        _rec(mode="float", n_bits=FLOAT_BITS)

    def test_sort_key_orders_by_family_then_size(self):
        a = _rec(family="cnn", param_count=10)
        b = _rec(family="ffdnn", param_count=5)
        c = _rec(family="ffdnn", param_count=50)
        assert sorted([c, a, b], key=SweepRecord.sort_key) == [a, b, c]


class TestBaselineCurve:
    def test_counts_must_increase(self):
        with pytest.raises(ConfigError):
            FloatBaselineCurve(points=((10, 5.0), (10, 4.0)))
        with pytest.raises(ConfigError):
            FloatBaselineCurve(points=((20, 5.0), (10, 4.0)))

    def test_counts_must_be_positive(self):
        with pytest.raises(ConfigError):
            FloatBaselineCurve(points=((0, 5.0), (10, 4.0)))

    def test_scale_validated(self):
        with pytest.raises(ConfigError):
            FloatBaselineCurve(points=((1, 5.0), (2, 4.0)), scale="log10")

    def test_built_from_float_medians(self):
        records = [
            _rec(mode="float", n_bits=32, param_count=100, val_metric=m, seed=s)
            for s, m in enumerate([10.0, 14.0, 12.0])
        ] + [
            _rec(mode="float", n_bits=32, param_count=400, val_metric=m, seed=s)
            for s, m in enumerate([4.0, 6.0, 5.0])
        ] + [_rec(mode="direct", param_count=100)]
        curve = baseline_curve(records, "ffdnn")
        assert curve.points == ((100, 12.0), (400, 5.0))

    def test_missing_family_rejected(self):
        with pytest.raises(ConfigError, match="no float records"):
            baseline_curve([_rec(mode="direct")], "cnn")


class TestEffectiveParams:
    def _curve(self, pts, scale="linear"):
        return FloatBaselineCurve(points=tuple(pts), scale=scale)

    def test_node_hit_is_exact(self):
        curve = self._curve([(100, 10.0), (200, 6.0), (400, 2.0)])
        assert effective_params(curve, 6.0) == (200.0, False)
        assert effective_params(curve, 10.0) == (100.0, False)
        assert effective_params(curve, 2.0) == (400.0, False)

    def test_midpoint_interpolation(self):
        curve = self._curve([(100, 10.0), (200, 6.0), (400, 2.0)])
        params, clamped = effective_params(curve, 8.0)
        assert params == pytest.approx(150.0)
        assert not clamped
        params, _ = effective_params(curve, 4.0)
        assert params == pytest.approx(300.0)

    def test_clamping_flags(self):
        curve = self._curve([(100, 10.0), (400, 2.0)])
        assert effective_params(curve, 15.0) == (100.0, True)
        assert effective_params(curve, 1.0) == (400.0, True)

    def test_non_monotone_curve_uses_envelope(self):
        # The middle node is worse than the first; the envelope flattens it.
        curve = self._curve([(100, 10.0), (200, 12.0), (400, 2.0)])
        assert effective_params(curve, 10.0) == (100.0, False)
        params, _ = effective_params(curve, 6.0)
        assert params == pytest.approx(300.0)

    def test_log2_scale(self):
        lin = self._curve([(100, 10.0), (400, 2.0)])
        log = self._curve([(100, 10.0), (400, 2.0)], scale="log2")
        assert effective_params(lin, 6.0)[0] == pytest.approx(250.0)
        assert effective_params(log, 6.0)[0] == pytest.approx(200.0)

    def test_single_point_curve_rejected(self):
        with pytest.raises(ConfigError):
            effective_params(self._curve([(100, 10.0)]), 5.0)

    def test_matches_dense_scan_oracle(self):
        # Independent check: scan a fine grid of parameter counts, linearly
        # interpolate the envelope metric, and take the smallest count whose
        # metric is at least as good as the target.
        rng = np.random.RandomState(42)
        for trial in range(25):
            n = rng.randint(2, 7)
            counts = np.sort(rng.choice(np.arange(10, 5000), size=n, replace=False))
            metrics = rng.uniform(1.0, 30.0, size=n)
            curve = self._curve(list(zip(counts.tolist(), metrics.tolist())))
            env = np.minimum.accumulate(metrics)
            grid = np.linspace(counts[0], counts[-1], 100_001)
            env_on_grid = np.interp(grid, counts, env)
            for m in rng.uniform(env.min(), env.max(), size=4):
                got, clamped = effective_params(curve, m)
                assert not clamped
                hits = np.nonzero(env_on_grid <= m)[0]
                expected = grid[hits[0]]
                tol = (counts[-1] - counts[0]) / 100_000 + 1e-9
                assert abs(got - expected) <= tol, (
                    f"trial {trial}: metric {m} -> {got}, oracle {expected}"
                )


class TestEcr:
    def test_worked_example(self):
        curve = FloatBaselineCurve(points=((1000, 10.0), (4000, 5.0)))
        record = _rec(
            mode="direct", n_bits=2, total_weight_bits=16_000, val_metric=5.0
        )
        assert ecr(record, curve) == pytest.approx(4000 * 32 / 16_000)

    def test_float_record_rejected(self):
        curve = FloatBaselineCurve(points=((10, 10.0), (40, 5.0)))
        with pytest.raises(ConfigError):
            ecr(_rec(mode="float", n_bits=32), curve)

    def test_zero_bits_rejected(self):
        curve = FloatBaselineCurve(points=((10, 10.0), (40, 5.0)))
        with pytest.raises(ConfigError):
            ecr(_rec(total_weight_bits=0), curve)


class TestWidthSweep:
    def test_record_matrix(self):
        records = run_width_sweep(
            "ffdnn",
            sizes=[4, 8],
            bit_list=[2],
            modes=("float", "direct", "retrained"),
            data=_tiny_split(),
            cfg=_tiny_cfg(),
            seed_reps=2,
        )
        # 2 sizes x 2 seeds x (1 float + 1 direct + 1 retrained)
        assert len(records) == 12
        assert records == sorted(records, key=SweepRecord.sort_key)
        by_mode = {m: [r for r in records if r.mode == m] for m in
                   ("float", "direct", "retrained")}
        assert {len(v) for v in by_mode.values()} == {4}
        assert all(r.n_bits == 32 for r in by_mode["float"])
        assert all(r.n_bits == 2 for r in by_mode["direct"])
        assert {r.width_or_maps for r in records} == {"4", "8"}
        assert all(0.0 <= r.val_metric <= 100.0 for r in records)

    def test_quantized_records_share_float_params(self):
        records = run_width_sweep(
            "ffdnn", [6], [2, 3], ("float", "direct"),
            data=_tiny_split(), cfg=_tiny_cfg(), seed_reps=1,
        )
        params = {r.param_count for r in records}
        assert len(params) == 1
        seeds = {r.seed for r in records}
        assert len(seeds) == 1

    def test_total_weight_bits_accounting(self):
        records = run_width_sweep(
            "ffdnn", [6], [2], ("float", "direct"),
            data=_tiny_split(), cfg=_tiny_cfg(), seed_reps=1,
        )
        by_mode = {r.mode: r for r in records}
        n_biases = 6 + 3
        n_weights = by_mode["float"].param_count - n_biases
        assert by_mode["float"].total_weight_bits == 32 * (n_weights + n_biases)
        assert by_mode["direct"].total_weight_bits == 2 * n_weights + 32 * n_biases

    def test_direct_validation_comes_from_retraining(self, monkeypatch):
        split = _tiny_split()
        kw = dict(family="ffdnn", sizes=[4], bit_list=[2, 3], data=split,
                  cfg=_tiny_cfg(), seed_reps=1)
        direct_only = run_width_sweep(modes=("float", "direct"), **kw)
        real = experiments.evaluate

        def test_split_only(net, ds):
            assert ds is split.test, "a sweep point validated a quantized net twice"
            return real(net, ds)

        monkeypatch.setattr(experiments, "evaluate", test_split_only)
        records = run_width_sweep(modes=MODES, **kw)
        assert [r for r in records if r.mode != "retrained"] == direct_only

    def test_float_only_sweep_fits_no_step_size(self, monkeypatch):
        kw = dict(family="ffdnn", sizes=[4], modes=("float",), data=_tiny_split(),
                  cfg=_tiny_cfg(), seed_reps=1)
        expected = run_width_sweep(bit_list=[], **kw)

        def no_fit(*args, **kwargs):
            raise AssertionError("a float-only sweep fitted a step size")

        monkeypatch.setattr(experiments, "direct_quantize", no_fit)
        # A bit list is still accepted with float-only modes; it is not used.
        records = run_width_sweep(bit_list=[2, 4], **kw)
        assert records == expected
        assert [r.mode for r in records] == ["float"]

    def test_deterministic(self):
        kw = dict(
            family="ffdnn", sizes=[4], bit_list=[2],
            modes=("float", "direct"), data=_tiny_split(), cfg=_tiny_cfg(),
            seed_reps=2,
        )
        assert run_width_sweep(**kw) == run_width_sweep(**kw)

    def test_seed_reps_distinct(self):
        records = run_width_sweep(
            "ffdnn", [4], [], ("float",),
            data=_tiny_split(), cfg=_tiny_cfg(), seed_reps=3,
        )
        assert len({r.seed for r in records}) == 3

    @pytest.mark.parametrize("seed_reps", [0, -1])
    def test_seed_reps_below_one_rejected(self, seed_reps):
        with pytest.raises(ConfigError, match="sweep.seed_reps must be >= 1"):
            run_width_sweep("ffdnn", [4], [2], ("float",), data=_tiny_split(),
                            cfg=_tiny_cfg(), seed_reps=seed_reps)

    def test_parallel_matches_serial(self):
        kw = dict(
            family="ffdnn", sizes=[4, 8], bit_list=[2],
            modes=("float", "direct"), data=_tiny_split(), cfg=_tiny_cfg(),
            seed_reps=1,
        )
        assert run_width_sweep(**kw, jobs=2) == run_width_sweep(**kw, jobs=1)

    def test_pool_never_larger_than_the_sweep(self, monkeypatch):
        # A process pool starts all its workers at the first submit, so the
        # pool is sized by the points; this fake runs them in this process.
        sizes = []

        class FakePool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            map = staticmethod(map)

        monkeypatch.setattr(experiments, "ProcessPoolExecutor", FakePool)
        kw = dict(family="ffdnn", sizes=[2, 3, 4], bit_list=[], modes=("float",),
                  data=_tiny_split(), cfg=_tiny_cfg(max_epochs=1), seed_reps=1)
        assert run_width_sweep(**kw, jobs=64) == run_width_sweep(**kw, jobs=1)
        assert sizes == [3]

    def test_input_validation(self):
        split, cfg = _tiny_split(), _tiny_cfg()
        with pytest.raises(ConfigError, match="mode"):
            run_width_sweep("ffdnn", [4], [2], ("float", "fancy"), split, cfg)
        with pytest.raises(ConfigError, match="bit"):
            run_width_sweep("ffdnn", [4], [1], ("direct",), split, cfg)
        with pytest.raises(ConfigError, match="bit"):
            run_width_sweep("ffdnn", [4], [], ("direct",), split, cfg)
        with pytest.raises(ConfigError, match="sizes"):
            run_width_sweep("ffdnn", [], [2], ("float",), split, cfg)
        with pytest.raises(ConfigError, match="family"):
            run_width_sweep("rnn", [4], [2], ("float",), split, cfg)

    @pytest.mark.parametrize(
        "family, sizes, bits, match",
        [("ffdnn", [4, 8, 4], [2], r"sweep\.sizes: 4 is listed twice"),
         ("cnn", [[2, 3], (2, 3)], [2], r"sweep\.sizes: 2-3 is listed twice"),
         ("ffdnn", [4], [2, 4, 2], r"quant\.bits: 2 is listed twice")],
    )
    def test_repeats_rejected_before_any_work(self, monkeypatch, family, sizes, bits,
                                              match):
        # A repeated cell or bit width would rerun its points with the same
        # seeds: duplicate records for twice the work.
        monkeypatch.setattr(experiments, "_run_point", lambda args: pytest.fail("ran"))
        with pytest.raises(ConfigError, match=match):
            run_width_sweep(family, sizes, bits, MODES, _tiny_split(), _tiny_cfg())

    @pytest.mark.parametrize(
        "family, sizes, match",
        [("cnn", [4], "sweep.sizes"), ("ffdnn", [[4]], "sweep.sizes"),
         ("ffdnn", [True], "sweep.sizes"), ("CNN", [[2]], "family")],
    )
    def test_size_shape_checked_before_any_work(self, family, sizes, match):
        with pytest.raises(ConfigError, match=match):
            run_width_sweep(family, sizes, [2], ("float",), _tiny_split(), _tiny_cfg())

    def test_cell_is_the_network_block_with_its_width_replaced(self):
        split = synthetic_split(
            "blobs", 60, 20, 20, classes=2, seed=4, shape=(1, 8, 8)
        )
        kw = dict(bit_list=[], modes=("float",), data=split,
                  cfg=_tiny_cfg(max_epochs=1), seed_reps=1)
        for fc in (3, 5):
            network = NetworkConfig(family="cnn", map_counts=[9, 9], fc_units=fc)
            (rec,) = run_width_sweep("cnn", [[2]], network=network, **kw)
            want = build_cnn([2], input_shape=(1, 8, 8), fc_units=fc, classes=2)
            assert (rec.width_or_maps, rec.depth) == ("2", 1)
            assert rec.param_count == count_params(want)


class TestDepthSweep:
    def test_ffdnn_depths(self):
        records = run_depth_sweep(
            "ffdnn", depths=[0, 1], bit_list=[2], modes=("float", "direct"),
            data=_tiny_split(), cfg=_tiny_cfg(), network=NetworkConfig(hidden_units=4),
            seed_reps=1,
        )
        assert {r.depth for r in records} == {0, 1}
        assert all(r.width_or_maps == "4" for r in records)
        p0 = {r.param_count for r in records if r.depth == 0}
        p1 = {r.param_count for r in records if r.depth == 1}
        assert p0 == {6 * 3 + 3}
        assert p1 == {6 * 4 + 4 + 4 * 3 + 3}

    def test_cnn_depth_uses_map_tail(self):
        split = synthetic_split(
            "blobs", 60, 20, 20, classes=2, seed=4, shape=(1, 8, 8)
        )
        records = run_depth_sweep(
            "cnn", depths=[1, 2], bit_list=[2], modes=("float",),
            data=split, cfg=_tiny_cfg(max_epochs=1),
            network=NetworkConfig(map_counts=[3, 4]), seed_reps=1,
        )
        labels = {r.depth: r.width_or_maps for r in records}
        assert labels == {1: "4", 2: "3-4"}

    def test_cnn_cell_is_the_same_on_both_axes(self):
        # A CNN's depth is its level count, so the width cell [2, 3] and the
        # depth-2 cell over map counts [2, 3] are one network, label and seed.
        split = synthetic_split(
            "blobs", 60, 20, 20, classes=2, seed=4, shape=(1, 8, 8)
        )
        kw = dict(bit_list=[2], modes=("float", "direct"), data=split,
                  cfg=_tiny_cfg(max_epochs=1), seed_reps=1)
        by_width = run_width_sweep("cnn", [[2, 3]], **kw)
        by_depth = run_depth_sweep("cnn", [2], network=NetworkConfig(map_counts=[2, 3]), **kw)
        assert {r.depth for r in by_width} == {2}
        assert by_width == by_depth

    def test_repeated_depth_rejected(self, monkeypatch):
        monkeypatch.setattr(experiments, "_run_point", lambda args: pytest.fail("ran"))
        with pytest.raises(ConfigError, match=r"sweep\.depths: 1 is listed twice"):
            run_depth_sweep(
                "ffdnn", [1, 0, 1], [2], ("float",), _tiny_split(), _tiny_cfg()
            )

    def test_cnn_depth_needs_map_counts(self):
        split = synthetic_split(
            "blobs", 60, 20, 20, classes=2, seed=4, shape=(1, 8, 8)
        )
        with pytest.raises(ConfigError, match="network.map_counts"):
            run_depth_sweep("cnn", [1], [2], ("float",), split, _tiny_cfg())

    def test_cnn_depth_out_of_range(self):
        split = synthetic_split(
            "blobs", 60, 20, 20, classes=2, seed=4, shape=(1, 8, 8)
        )
        with pytest.raises(ConfigError, match="depth"):
            run_depth_sweep(
                "cnn", depths=[4], bit_list=[2], modes=("float",),
                data=split, cfg=_tiny_cfg(), network=NetworkConfig(map_counts=[3, 4]),
                seed_reps=1,
            )


class TestRecordsCsv:
    def _records(self):
        return [
            _rec(seed=s, mode=m, n_bits=32 if m == "float" else 2,
                 val_metric=3.0 + s + 0.1234567890123 * s)
            for s in range(2)
            for m in ("float", "direct")
        ]

    def test_round_trip_exact(self, tmp_path):
        records = self._records()
        p = tmp_path / "records.csv"
        write_records_csv(records, p)
        back = parse_records_csv(p)
        assert back == sorted(records, key=SweepRecord.sort_key)

    def test_header_checked(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("nope,nope\n1,2\n")
        with pytest.raises(DataFormatError, match="header"):
            parse_records_csv(p)

    def test_row_errors_carry_line_numbers(self, tmp_path):
        p = tmp_path / "records.csv"
        write_records_csv(self._records(), p)
        lines = p.read_text().splitlines()
        lines[2] = lines[2].replace("direct", "mystery")
        p.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataFormatError, match=":3"):
            parse_records_csv(p)

    def test_header_is_record_field_order(self, tmp_path):
        p = tmp_path / "records.csv"
        write_records_csv(self._records(), p)
        header = p.read_text().splitlines()[0].split(",")
        assert header == [f.name for f in dataclasses.fields(SweepRecord)]

    @pytest.mark.parametrize(
        "column, bad",
        [(name, "fancy" if name == "mode" else "x")
         for name, kind in get_type_hints(SweepRecord).items()
         if kind is not str or name == "mode"],
    )
    def test_bad_cell_carries_line_number(self, tmp_path, column, bad):
        p = tmp_path / "records.csv"
        write_records_csv(self._records(), p)
        lines = p.read_text().splitlines()
        cells = lines[2].split(",")  # a direct record
        cells[lines[0].split(",").index(column)] = bad
        lines[2] = ",".join(cells)
        p.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataFormatError, match=":3: bad record"):
            parse_records_csv(p)

    def test_empty_file(self, tmp_path):
        p = tmp_path / "empty.csv"
        p.write_text("")
        with pytest.raises(DataFormatError, match="empty"):
            parse_records_csv(p)


class TestEcrCsv:
    def test_rows_skip_float_and_flag_clamping(self, tmp_path):
        curve = FloatBaselineCurve(points=((500, 10.0), (2000, 2.0)))
        records = [
            _rec(mode="float", n_bits=32, val_metric=2.0),
            _rec(mode="direct", n_bits=2, total_weight_bits=4000, val_metric=6.0),
            _rec(mode="direct", n_bits=3, total_weight_bits=6000, val_metric=50.0),
        ]
        p = tmp_path / "ecr.csv"
        write_ecr_csv(records, {"ffdnn": curve}, p)
        rows = list(csv.reader(p.read_text().splitlines()))
        assert rows[0] == ECR_FIELDS
        assert len(rows) == 3
        mid = rows[1]
        assert float(mid[ECR_FIELDS.index("effective_params")]) == pytest.approx(1250.0)
        assert float(mid[ECR_FIELDS.index("effective_bits")]) == pytest.approx(40000.0)
        assert float(mid[ECR_FIELDS.index("ecr")]) == pytest.approx(10.0)
        assert mid[ECR_FIELDS.index("clamped")] == "0"
        assert rows[2][ECR_FIELDS.index("clamped")] == "1"


class TestEmitReport:
    def _sweep(self):
        return run_width_sweep(
            "ffdnn",
            sizes=[4, 8],
            bit_list=[2],
            modes=("float", "direct", "retrained"),
            data=_tiny_split(),
            cfg=_tiny_cfg(),
            seed_reps=2,
        )

    def test_writes_all_outputs(self, tmp_path):
        paths = emit_report(self._sweep(), tmp_path)
        names = [p.split("/")[-1] for p in paths]
        assert names == [
            "records.csv",
            "ecr.csv",
            "plot_bits_vs_error.csv",
            "plot_size_vs_error.csv",
            "summary.md",
        ]
        for p in paths:
            assert (tmp_path / p.split("/")[-1]).exists()

    def test_records_round_trip_through_report(self, tmp_path):
        records = self._sweep()
        emit_report(records, tmp_path)
        assert parse_records_csv(tmp_path / "records.csv") == records

    def test_summary_difference_column(self, tmp_path):
        records = self._sweep()
        emit_report(records, tmp_path)
        text = (tmp_path / "summary.md").read_text()
        assert "| Family | Size | Depth | Float | Direct | Retrained | Difference |" in text
        float_med = np.median(
            [r.test_metric for r in records
             if r.mode == "float" and r.width_or_maps == "4"]
        )
        retr_med = np.median(
            [r.test_metric for r in records
             if r.mode == "retrained" and r.width_or_maps == "4"]
        )
        expected = f"{retr_med - float_med:+.2f}"
        row = next(
            ln for ln in text.splitlines() if ln.startswith("| ffdnn | 4 |")
        )
        assert row.rstrip().endswith(f"| {expected} |")

    def test_missing_baseline_rejected(self, tmp_path):
        quantized_only = [r for r in self._sweep() if r.mode != "float"]
        with pytest.raises(ConfigError, match="float"):
            emit_report(quantized_only, tmp_path)
