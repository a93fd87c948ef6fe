import warnings

import numpy as np
import pytest

from puselect.data import Dataset, read_csv, split, write_csv
from puselect.models import LinearParams, PsychmParams, psychometric
from puselect.synth import GeneratorConfig, XDist, generate, sample_params


class TestDataset:
    def test_rejects_annotated_negatives(self):
        with pytest.raises(ValueError):
            Dataset(x=np.ones((2, 1)), l=np.array([1, 0]), y=np.array([0, 1]))

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError):
            Dataset(x=np.ones((3, 2)), l=np.array([0, 1]))

    def test_rejects_non_binary(self):
        with pytest.raises(ValueError):
            Dataset(x=np.ones((2, 1)), l=np.array([0, 2]))

    def test_subset_keeps_ground_truth(self):
        data = Dataset(x=np.arange(8.0).reshape(4, 2), l=np.array([0, 1, 0, 1]),
                       y=np.array([0, 1, 1, 1]))
        sub = data.subset([1, 3])
        assert sub.n == 2 and sub.y is not None
        np.testing.assert_array_equal(sub.y, [1, 1])


class TestSplit:
    def test_equal_halves(self):
        data = generate(GeneratorConfig(seed=1))
        a, b = split(data, 0.5, seed=0)
        assert (a.n, b.n) == (2500, 2500)

    def test_deterministic(self):
        data = generate(GeneratorConfig(n=100, seed=2))
        a1, b1 = split(data, 0.3, seed=9)
        a2, b2 = split(data, 0.3, seed=9)
        assert a1.x.tobytes() == a2.x.tobytes() and b1.l.tobytes() == b2.l.tobytes()

    def test_partition_recovers_original_multiset(self):
        data = generate(GeneratorConfig(n=101, d=2, seed=3))
        a, b = split(data, 0.4, seed=4)
        rows = np.vstack([a.x, b.x])
        original = data.x[np.lexsort(data.x.T)]
        recombined = rows[np.lexsort(rows.T)]
        np.testing.assert_array_equal(original, recombined)

    def test_carries_ground_truth_and_provenance(self):
        data = generate(GeneratorConfig(n=50, seed=5))
        a, b = split(data, 0.5, seed=6)
        assert a.y is not None and b.y is not None
        assert a.true_params is data.true_params and b.true_params is data.true_params

    def test_empty_side_rejected(self):
        data = generate(GeneratorConfig(n=3, seed=7))
        with pytest.raises(ValueError):
            split(data, 0.01, seed=0)
        with pytest.raises(ValueError):
            split(data, 1.5, seed=0)


class TestCsv:
    def test_roundtrip_bitwise(self, tmp_path):
        data = generate(GeneratorConfig(n=64, d=3, seed=8))
        path = tmp_path / "data.csv"
        write_csv(data, path)
        back = read_csv(path)
        assert back.x.tobytes() == data.x.tobytes()
        np.testing.assert_array_equal(back.l, data.l)
        np.testing.assert_array_equal(back.y, data.y)
        assert path.read_text().splitlines()[0] == "f0,f1,f2,l,y"

    def test_golden_bytes(self, tmp_path):
        # 17 significant digits, integer flags, CRLF line ends, no quoting.
        x = [[-0.0, 5e-324], [1e300, 2 / 3], [0.1, -2.5]]
        path = tmp_path / "data.csv"
        write_csv(Dataset(x=np.array(x), l=np.array([0, 1, 0]), y=np.array([1, 1, 0])), path)
        assert path.read_bytes() == (
            b"f0,f1,l,y\r\n"
            b"-0,4.9406564584124654e-324,0,1\r\n"
            b"1.0000000000000001e+300,0.66666666666666663,1,1\r\n"
            b"0.10000000000000001,-2.5,0,0\r\n"
        )

    def test_roundtrip_without_y(self, tmp_path):
        data = Dataset(x=np.random.default_rng(9).normal(size=(5, 2)), l=np.array([0, 1, 0, 0, 1]))
        path = tmp_path / "data.csv"
        write_csv(data, path)
        back = read_csv(path)
        assert back.y is None and back.x.tobytes() == data.x.tobytes()

    def test_bad_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,l\n1,2,0\n")
        with pytest.raises(ValueError, match="line 1"):
            read_csv(path)

    def test_bad_field_count_reports_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("f0,l\n1.0,0\n2.0\n")
        with pytest.raises(ValueError, match="line 3"):
            read_csv(path)

    def test_unparseable_value_reports_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("f0,l\n1.0,0\nxyz,1\n")
        with pytest.raises(ValueError, match="line 3"):
            read_csv(path)

    # What read_csv accepts and rejects: a file's content, then the rows it
    # reads as (x..., l[, y]) or the message that follows "<path>: ".
    @pytest.mark.parametrize("text, expected", [
        pytest.param("f0,l\r\n1.5,0\r\n2.5,1\r\n", [(1.5, 0), (2.5, 1)], id="crlf"),
        pytest.param("f0,l\n1.5,0\n\n2.5,1\n", [(1.5, 0), (2.5, 1)], id="blank-line"),
        pytest.param('f0,l\n"1.5",0\n', [(1.5, 0)], id="quoted"),
        pytest.param(" f0 , l \n 1.5 , 1 \n", [(1.5, 1)], id="spaces"),
        pytest.param("f0,l,y\n1.5,0,1", [(1.5, 0, 1)], id="no-final-newline"),
        pytest.param("f0,l\n1.5,1.0\n", "line 2: unparseable value", id="float-flag"),
        pytest.param("f0,l\n#1.5,0\n", "line 2: unparseable value", id="hash"),
        pytest.param("f0,l\n1.5,0,\n", "line 2: expected 2 fields, got 3", id="trailing-comma"),
        pytest.param("f0,l\n", "no data rows", id="header-only"),
        pytest.param("f0,l\nnan,0\n", "line 2: x must be finite", id="nan"),
        pytest.param("f0,l\n1.5,0\n-inf,1\n", "line 3: x must be finite", id="-inf"),
        pytest.param("f0,l,y\n1.5,0,2\n", "line 2: y must be binary", id="y-2"),
        pytest.param("f0,l\n1.5,3\n", "line 2: l must be binary", id="l-3"),
        pytest.param("f0,l,y\n1.5,0,0\n2.5,1,0\n", "line 3: annotated rows must be positive (l <= y)",
                     id="l-above-y"),
        pytest.param("\nf0,l\n1.5,0\n", "line 1: expected header f0,...,f{d-1},l[,y], got ",
                     id="blank-first-line"),
        pytest.param("\r\nf0,l\r\n1.5,0\r\n", "line 1: expected header f0,...,f{d-1},l[,y], got ",
                     id="blank-first-line-crlf"),
        pytest.param(b"f0,l\n1.0\xe9,1\n", "line 2: unparseable value", id="not-utf-8"),
        pytest.param("\ufefff0,l\n1.5,1\n-1,0\n", [(1.5, 1), (-1.0, 0)], id="byte-order-mark"),
        pytest.param("\ufefff0,l\n1.5,1\n-1,x\n", "line 3: unparseable value", id="byte-order-mark-fault"),
        pytest.param("f0,l\n1_0,0\n", "line 2: unparseable value", id="digit-grouping"),
        pytest.param("f0,l\n\u0661,0\n", "line 2: unparseable value", id="arabic-indic-digit"),
    ])
    def test_accepts_and_rejects(self, tmp_path, text, expected):
        path = tmp_path / "data.csv"
        path.write_bytes(text if isinstance(text, bytes) else text.encode())  # line ends as given
        # Under the default filters too, not only the test run's "error":
        # a warning must neither escape nor change the outcome.
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                data = read_csv(path)
            except ValueError as exc:
                assert str(exc) == f"{path}: {expected}"
            else:
                flags = [data.l] + ([] if data.y is None else [data.y])
                assert np.column_stack([data.x] + flags).tolist() == [list(r) for r in expected]
        assert caught == []

    def test_roundtrip_bitwise_large(self, tmp_path):
        data = generate(GeneratorConfig(n=10_000, seed=13))
        path = tmp_path / "data.csv"
        write_csv(data, path)
        back = read_csv(path)
        assert back.x.tobytes() == data.x.tobytes() and back.x.flags.c_contiguous
        assert back.l.tobytes() == data.l.tobytes() and back.y.tobytes() == data.y.tobytes()

    def test_nfp_violation_rejected_on_read(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("f0,l,y\n1.0,1,0\n")
        with pytest.raises(ValueError, match="line 2: annotated rows must be positive"):
            read_csv(path)


class TestSampleParams:
    def test_zero_spread_zero_shift(self):
        cfg = GeneratorConfig(rho1=0.0, rho2=0.0, k=0.0, seed=0)
        p = sample_params(cfg)
        np.testing.assert_array_equal(p.selection.w, np.zeros(5))
        np.testing.assert_array_equal(p.target.w, np.zeros(5))
        assert p.selection.b == 0.0 and p.target.b == 0.0

    def test_pure_rademacher(self):
        cfg = GeneratorConfig(rho1=0.0, k=5.0, seed=1)
        p = sample_params(cfg)
        assert np.all(np.abs(p.selection.w) == 5.0)
        assert np.all(np.abs(p.target.w) == 5.0)

    def test_per_coordinate_std_combines_both_sources(self):
        # independent Gaussian (std 10) plus scaled Rademacher (std 5):
        # total per-coordinate std sqrt(125) ~ 11.18
        draws = np.array(
            [sample_params(GeneratorConfig(seed=s)).selection.w for s in range(10_000)]
        )
        std = draws.std()
        assert abs(std - np.sqrt(125.0)) <= 0.3

    def test_rates_come_from_config(self):
        p = sample_params(GeneratorConfig(guess=0.2, lapse=0.1, seed=3))
        assert (p.guess, p.lapse) == (0.2, 0.1)


class TestGenerate:
    def test_no_false_positives_by_construction(self):
        for seed in range(20):
            data = generate(GeneratorConfig(n=500, seed=seed))
            assert int(np.sum((data.l == 1) & (data.y == 0))) == 0

    def test_symmetric_class_prior_with_flat_target(self):
        truth = PsychmParams(
            selection=LinearParams(w=np.ones(5), b=0.0),
            guess=0.05,
            lapse=0.05,
            target=LinearParams(w=np.zeros(5), b=0.0),
        )
        data = generate(GeneratorConfig(seed=11), params=truth)
        # binomial 3-sigma bound around 1/2 at n = 5000
        assert abs(data.y.mean() - 0.5) <= 3.0 * 0.5 / np.sqrt(5000)

    def test_annotation_rate_matches_selection_curve(self):
        cfg = GeneratorConfig(n=20000, seed=12)
        data = generate(cfg)
        sel = data.true_params.selection
        pos = data.y == 1
        expected = psychometric(data.x[pos], sel.w, sel.b, cfg.guess, cfg.lapse)
        rate = data.l[pos].mean()
        sigma = np.sqrt(np.mean(expected * (1 - expected)) / pos.sum())
        assert abs(rate - expected.mean()) <= 3.0 * sigma

    def test_bitwise_determinism(self):
        cfg = GeneratorConfig(n=300, seed=13)
        a, b = generate(cfg), generate(cfg)
        assert a.x.tobytes() == b.x.tobytes()
        assert a.l.tobytes() == b.l.tobytes()
        assert a.y.tobytes() == b.y.tobytes()

    def test_param_override_leaves_other_streams_untouched(self):
        cfg = GeneratorConfig(n=200, seed=14)
        default = generate(cfg)
        override = generate(cfg, params=default.true_params)
        assert default.x.tobytes() == override.x.tobytes()
        assert default.l.tobytes() == override.l.tobytes()

    def test_annotations_never_exceed_positives(self):
        for seed in range(10):
            data = generate(GeneratorConfig(n=400, seed=seed, guess=0.3, lapse=0.2))
            assert data.l.mean() <= data.y.mean()

    def test_uniform_cube_support(self):
        data = generate(GeneratorConfig(n=1000, x_dist=XDist.UNIFORM_CUBE, seed=15))
        assert data.x.min() >= -1.0 and data.x.max() <= 1.0

    def test_override_dimension_checked(self):
        truth = sample_params(GeneratorConfig(d=3, seed=16))
        with pytest.raises(ValueError):
            generate(GeneratorConfig(d=5, seed=16), params=truth)
