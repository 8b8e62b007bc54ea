import math
import warnings
from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import assume, given, settings as hyp_settings, strategies as st

from oamtomo.counts import SourceConfig, exact_counts, simulate_counts, subtract_background
from oamtomo.fileio import CountsFileError, read_counts, write_counts
from oracles import anticorrelation_alpha, cross_correlation_g2

# p[j][i] = |<psi_i|psi_j>|^2 for the canonical states (identity channel)
IDENTITY_TABLE = np.array(
    [
        [1, 0, 0, 0.5, 0, 0.5, 0, 0.5, 0.5],
        [0, 1, 0, 0.5, 0.5, 0.5, 0.5, 0, 0],
        [0, 0, 1, 0, 0.5, 0, 0.5, 0.5, 0.5],
        [0.5, 0.5, 0, 1, 0.25, 0.5, 0.25, 0.25, 0.25],
        [0, 0.5, 0.5, 0.25, 1, 0.25, 0.5, 0.25, 0.25],
        [0.5, 0.5, 0, 0.5, 0.25, 1, 0.25, 0.25, 0.25],
        [0, 0.5, 0.5, 0.25, 0.5, 0.25, 1, 0.25, 0.25],
        [0.5, 0, 0.5, 0.25, 0.25, 0.25, 0.25, 1, 0.5],
        [0.5, 0, 0.5, 0.25, 0.25, 0.25, 0.25, 0.5, 1],
    ]
)


class TestSourceConfig:
    def test_defaults(self):
        # counts headers echo the defaults, so each keeps its type: 10000, not 10000.0
        assert astuple(SourceConfig()) == (10000, 0.0, 0)
        assert [type(v) for v in astuple(SourceConfig())] == [int, float, int]

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(counts_per_setting=0),
            dict(counts_per_setting=100, background=-1),
            dict(counts_per_setting=100, seed=-1),
        ],
    )
    def test_rejects_invalid(self, kwargs):
        with pytest.raises(ValueError):
            SourceConfig(**kwargs)

    @hyp_settings(deadline=None, derandomize=True, database=None)
    @given(field=st.sampled_from(["counts_per_setting", "background"]),
           value=st.sampled_from([math.nan, math.inf, -math.inf, 10**400, -10**400,
                                  True, False, np.True_, "5", "nan", b"5"]))
    def test_rejects_non_finite(self, field, value):
        # a bool or a non-number is refused as such, before its finiteness
        kwargs = {"counts_per_setting": 100.0, field: value}
        refusal = ("finite" if isinstance(value, (float, int)) and not isinstance(value, bool)
                   else "a number")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=f"^{field}: must be {refusal}, got "):
                SourceConfig(**kwargs)

    def test_seed_must_be_an_integer(self):
        with pytest.raises(ValueError, match=r"^seed: must be an integer, got 1\.5$"):
            SourceConfig(100, seed=1.5)
        with pytest.raises(ValueError, match=r"^seed: must be an integer, got True$"):
            SourceConfig(100, seed=True)
        assert SourceConfig(100, seed=np.int64(3)).seed == 3

    @pytest.mark.parametrize("kwargs, field", [
        (dict(counts_per_setting=1e19), "counts_per_setting"),
        (dict(counts_per_setting=1, background=1e300), "background"),
    ])
    def test_rejects_means_beyond_int64(self, kwargs, field):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=rf"^{field}: must be at most 1e\+18, "
                                                 r"so that counts fit int64; got "):
                SourceConfig(**kwargs)

    @hyp_settings(deadline=None, derandomize=True, database=None)
    @given(mean=st.floats(0.0, 1e19), background=st.floats(0.0, 1e19), p=st.floats(0.0, 1.0))
    def test_every_config_gives_nonnegative_counts(self, mean, background, p):
        try:
            cfg = SourceConfig(mean, background)
        except ValueError:
            assume(False)
        table = np.array([[0.0, p, 1.0] * 3])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert exact_counts(table, cfg).min() >= 0
            assert simulate_counts(table, cfg).min() >= 0


class TestSimulateCounts:
    def test_zero_probability_zero_background(self):
        cfg = SourceConfig(counts_per_setting=1000, background=0.0, seed=1)
        counts = simulate_counts(np.zeros((9, 9)), cfg)
        assert counts.shape == (9, 9, 2)
        assert not counts.any()

    def test_reproducible(self):
        cfg = SourceConfig(counts_per_setting=500, background=20, seed=99)
        a = simulate_counts(IDENTITY_TABLE, cfg)
        b = simulate_counts(IDENTITY_TABLE, cfg)
        np.testing.assert_array_equal(a, b)

    def test_seed_changes_output(self):
        cfg1 = SourceConfig(counts_per_setting=500, background=20, seed=1)
        cfg2 = SourceConfig(counts_per_setting=500, background=20, seed=2)
        assert not np.array_equal(simulate_counts(IDENTITY_TABLE, cfg1),
                                  simulate_counts(IDENTITY_TABLE, cfg2))

    def test_large_n_rates_close(self):
        # law of large numbers at N = 1e6, fixed seed
        cfg = SourceConfig(counts_per_setting=1e6, background=0.0, seed=7)
        raw = simulate_counts(IDENTITY_TABLE, cfg)[..., 0]
        assert np.abs(raw / 1e6 - IDENTITY_TABLE).max() < 0.005

    def test_nonnegative_integers(self):
        cfg = SourceConfig(counts_per_setting=50, background=5, seed=3)
        counts = simulate_counts(IDENTITY_TABLE, cfg)
        assert counts.dtype == np.int64 and counts.min() >= 0

    def test_expectation_matches_model(self):
        # per-setting sample mean over seeded draws within 3 standard errors
        n, b = 160.0, 10.0
        draws = 2000
        table = IDENTITY_TABLE[:3]
        means = np.zeros((3, 9))
        for seed in range(draws):
            cfg = SourceConfig(counts_per_setting=n, background=b, seed=seed)
            means += simulate_counts(table, cfg)[..., 0]
        means /= draws
        expected = n * table + b
        stderr = np.sqrt(expected / draws)
        assert np.all(np.abs(means - expected) <= 3 * stderr)

    def test_single_row_table(self):
        cfg = SourceConfig(counts_per_setting=100, seed=5)
        assert simulate_counts(IDENTITY_TABLE[:1], cfg).shape == (1, 9, 2)

    def test_rejects_bad_table(self):
        cfg = SourceConfig(counts_per_setting=100)
        for table, message in (
                (np.full((9, 9), 1.5), r"^probabilities outside \[0, 1\] beyond"),
                (np.full((10, 9), 0.1),
                 r"^expected a \(rows<=9, 9\) probability table, got shape \(10, 9\)$")):
            with pytest.raises(ValueError, match=message):
                simulate_counts(table, cfg)

    @pytest.mark.parametrize("count", [simulate_counts, exact_counts])
    def test_rejects_nan_probabilities(self, count):
        table = IDENTITY_TABLE.copy()
        table[3, 4] = np.nan
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"^probabilities outside \[0, 1\] beyond"):
                count(table, SourceConfig(counts_per_setting=100))


class TestExactCounts:
    def test_rounded_expectations(self):
        cfg = SourceConfig(counts_per_setting=500, background=7, seed=0)
        counts = exact_counts(IDENTITY_TABLE, cfg)
        for (j, i), p in np.ndenumerate(IDENTITY_TABLE):
            assert counts[j, i, 0] == int(round(500 * p + 7))
            assert counts[j, i, 1] == 7

    @pytest.mark.parametrize("tie, count", [(1612.5, 1612), (1613.5, 1614)])
    def test_a_tie_rounds_to_even_from_both_sides(self, tie, count):
        # within 1e-6 of a half-integer, a mean rounds as the half-integer does; past
        # that it rounds as it is.  counts_per_setting 2^12 makes each mean exact
        below, above = np.nextafter(tie, 0.0), np.nextafter(tie, np.inf)
        near = [below, tie, above, tie - 9e-7, tie + 9e-7]
        far = [tie - 2e-6, tie + 2e-6]
        cfg = SourceConfig(counts_per_setting=4096)
        counts = exact_counts(np.array([near + far + [0.0, 0.0]]) / 4096, cfg)[0, :, 0]
        assert list(counts) == [count] * 5 + [math.floor(tie), math.ceil(tie), 0, 0]

    @pytest.mark.parametrize("mean", [2.0**52, 2.0**52 + 1, 2.0**52 + 3, 2.0**53, 2.0**53 + 2,
                                      2.0**59 + 128, 1e17 + 16, 1e18 - 128, 1e18])
    def test_integer_means_stay(self, mean):
        # from 2^52 on every float is an integer: the count is the mean, in both columns
        signal = exact_counts(np.ones((1, 9)), SourceConfig(counts_per_setting=mean))
        assert (signal[..., 0] == int(mean)).all() and (signal[..., 1] == 0).all()
        background = exact_counts(np.zeros((1, 9)), SourceConfig(background=mean))
        assert (background == int(mean)).all()


class TestSubtractBackground:
    def test_plain_subtraction(self):
        out = subtract_background([[120, 20]])
        assert out[0] == 100.0

    def test_clamps_negative(self):
        out = subtract_background([[5, 9]])
        assert out[0] == 0.0

    def test_unbiased_before_clamping(self):
        # ensemble mean of corrected counts tracks eta*N*p when clamping is inactive
        n, b, p = 1e4, 100.0, 0.5
        total = 0.0
        draws = 500
        table = np.full((1, 9), p)
        for seed in range(draws):
            cfg = SourceConfig(counts_per_setting=n, background=b, seed=seed)
            total += subtract_background(simulate_counts(table, cfg)).mean()
        mean = total / draws
        stderr = np.sqrt(2 * (n * p + b) / (draws * 9))
        assert abs(mean - n * p) <= 4 * stderr


class TestAnticorrelation:
    def test_zero_triples(self):
        assert anticorrelation_alpha(10**6, 10**4, 10**4, 0) == 0.0

    def test_arithmetic(self):
        assert anticorrelation_alpha(10**6, 10**4, 10**4, 1) == pytest.approx(0.01)

    def test_poissonian_source_is_one(self):
        # independent-splitting oracle: thinned Poisson clicks are independent
        rng = np.random.default_rng(314)
        windows = 200_000
        photons = rng.poisson(0.2, size=windows)
        at_d1 = rng.binomial(photons, 0.5)
        at_d2 = photons - at_d1
        n1 = int((at_d1 > 0).sum())
        n2 = int((at_d2 > 0).sum())
        n12 = int(((at_d1 > 0) & (at_d2 > 0)).sum())
        alpha = anticorrelation_alpha(windows, n1, n2, n12)
        assert abs(alpha - 1.0) < 0.05

    def test_zero_denominator(self):
        with pytest.raises(ValueError):
            anticorrelation_alpha(100, 0, 10, 1)

    def test_rescaling_invariance(self):
        base = (1_000_000, 10_000, 12_000, 37)
        scaled = tuple(3 * v for v in base)
        assert anticorrelation_alpha(*base) == anticorrelation_alpha(*scaled)


class TestCrossCorrelation:
    def test_independent_streams_give_one(self):
        rng = np.random.default_rng(271)
        rate_s, rate_t, duration, window = 2e5, 1e5, 10.0, 50e-9
        n_t = int(rng.poisson(rate_t * duration))
        n_s = int(rng.poisson(rate_s * duration))
        p_hit = 1.0 - np.exp(-rate_s * window)
        n_c = int(rng.binomial(n_t, p_hit))
        g2 = cross_correlation_g2(n_c, n_s, n_t, window, duration)
        assert abs(g2 - 1.0) < 0.05

    def test_zero_coincidences(self):
        assert cross_correlation_g2(0, 1000, 1000, 50e-9, 1.0) == 0.0

    def test_window_doubling_halves(self):
        g1 = cross_correlation_g2(64, 4096, 2048, 50e-9, 1.0)
        g2 = cross_correlation_g2(64, 4096, 2048, 100e-9, 1.0)
        assert g2 == g1 / 2

    def test_rescaling_invariance(self):
        g1 = cross_correlation_g2(40, 2000, 1000, 1e-6, 2.0)
        g2 = cross_correlation_g2(80, 4000, 2000, 1e-6, 4.0)
        assert g1 == g2

    def test_zero_denominator(self):
        with pytest.raises(ValueError):
            cross_correlation_g2(10, 0, 1000, 50e-9, 1.0)


def _counts_file(path, lines):
    path.write_text("# oamtomo counts\n" + "".join(f"{line}\n" for line in lines))
    return path


def _full_lines(n_in=9):
    return [f"{j} {i} 10 1" for j in range(1, n_in + 1) for i in range(1, 10)]


class TestCountsFile:
    @pytest.mark.parametrize("rows", [1, 9])
    def test_round_trip(self, tmp_path, rows):
        cfg = SourceConfig(counts_per_setting=500, background=20, seed=4)
        counts = simulate_counts(IDENTITY_TABLE[:rows], cfg)
        path = tmp_path / "counts.txt"
        write_counts(path, counts, {"source": {"seed": 4}})
        back = read_counts(path)
        assert back.dtype == np.int64
        np.testing.assert_array_equal(back, counts)

    def test_any_line_order(self, tmp_path):
        lines = [f"{j} {i} {10 * j + i} {i}" for j in range(1, 10) for i in range(1, 10)]
        counts = read_counts(_counts_file(tmp_path / "c.txt", lines[::-1]))
        assert counts[3, 7].tolist() == [48, 8]

    def test_rejects_negative_counts(self, tmp_path):
        lines = _full_lines()
        lines[0] = "1 1 -1 0"
        with pytest.raises(CountsFileError, match=":2: expected 4 nonnegative integers"):
            read_counts(_counts_file(tmp_path / "c.txt", lines))

    def test_rejects_zero_index(self, tmp_path):
        lines = _full_lines()
        lines[0] = "0 1 10 0"
        with pytest.raises(CountsFileError, match=r"setting \(0, 1\) is out of range"):
            read_counts(_counts_file(tmp_path / "c.txt", lines))

    def test_rejects_out_of_range_projector(self, tmp_path):
        lines = _full_lines() + ["1 10 10 0"]
        with pytest.raises(CountsFileError, match=r"setting \(1, 10\) is out of range"):
            read_counts(_counts_file(tmp_path / "c.txt", lines))

    def test_missing_setting(self, tmp_path):
        with pytest.raises(CountsFileError, match=r"missing record for setting \(9, 9\)"):
            read_counts(_counts_file(tmp_path / "c.txt", _full_lines()[:-1]))

    def test_duplicate_setting(self, tmp_path):
        lines = _full_lines()
        lines[-1] = lines[0]
        with pytest.raises(CountsFileError, match=r":82: duplicate record for setting \(1, 1\)"):
            read_counts(_counts_file(tmp_path / "c.txt", lines))

    def test_rejects_mixed_inputs(self, tmp_path):
        # a state-mode file whose last record names another input
        lines = _full_lines(1)[:-1] + ["2 9 10 0"]
        with pytest.raises(CountsFileError, match="missing record"):
            read_counts(_counts_file(tmp_path / "c.txt", lines))

    def test_single_input_must_be_input_1(self, tmp_path):
        lines = [f"4 {i} 10 0" for i in range(1, 10)]
        with pytest.raises(CountsFileError, match=r"missing record for setting \(1, 1\)"):
            read_counts(_counts_file(tmp_path / "c.txt", lines))

    def test_rejects_count_beyond_int64(self, tmp_path):
        lines = _full_lines()
        lines[5] = f"1 6 {2**63} 0"
        with pytest.raises(CountsFileError, match=":7: count exceeds the int64 range"):
            read_counts(_counts_file(tmp_path / "c.txt", lines))
        lines[5] = f"1 6 {2**63 - 1} 0"
        assert read_counts(_counts_file(tmp_path / "c.txt", lines))[0, 5, 0] == 2**63 - 1

    @pytest.mark.parametrize("line",
                             ["1 1 10", "1 1 10 0 0", "1 1 1e3 0", "1 1 +5 0", "1 1 ten 0"])
    def test_rejects_malformed_line(self, tmp_path, line):
        lines = _full_lines()
        lines[0] = line
        with pytest.raises(CountsFileError, match=":2: expected 4 nonnegative integers"):
            read_counts(_counts_file(tmp_path / "c.txt", lines))

    def test_rejects_empty_file(self, tmp_path):
        with pytest.raises(CountsFileError, match="no count records"):
            read_counts(_counts_file(tmp_path / "c.txt", []))
