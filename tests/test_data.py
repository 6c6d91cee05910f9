import numpy as np
import pytest

from dmoc import DataFormatError, load_profiles, save_profiles
from dmoc.data import gen_synthetic_pcs
from dmoc.evaluation import peak_entropy, peak_histogram


class TestSyntheticGenerator:
    def test_paper_scale_shape(self):
        data = gen_synthetic_pcs(archetypes=3, seed=0)
        assert (data.n, data.dim) == (365, 24)
        assert np.all(data.values >= 0)

    def test_three_archetypes_no_jitter_three_peak_slots(self):
        data = gen_synthetic_pcs(archetypes=3, n_slots=24, n_samples=200, seed=1, jitter=0)
        hist = peak_histogram(data)
        assert int((hist.counts > 0).sum()) == 3

    def test_single_archetype_no_jitter_zero_entropy(self):
        data = gen_synthetic_pcs(archetypes=1, n_slots=24, n_samples=50, seed=2, jitter=0)
        assert peak_entropy(peak_histogram(data)) == 0.0

    def test_seed_reproducibility(self):
        a = gen_synthetic_pcs(archetypes=3, n_slots=12, n_samples=30, seed=3)
        b = gen_synthetic_pcs(archetypes=3, n_slots=12, n_samples=30, seed=3)
        np.testing.assert_array_equal(a.values, b.values)

    def test_jitter_spreads_peaks(self):
        tight = gen_synthetic_pcs(archetypes=2, n_slots=24, n_samples=300, seed=4, jitter=0)
        loose = gen_synthetic_pcs(archetypes=2, n_slots=24, n_samples=300, seed=4, jitter=2)
        h_tight = peak_entropy(peak_histogram(tight))
        h_loose = peak_entropy(peak_histogram(loose))
        assert h_loose > h_tight

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            gen_synthetic_pcs(archetypes=0, seed=0)
        with pytest.raises(ValueError):
            gen_synthetic_pcs(archetypes=1, jitter=-1, seed=0)


class TestProfileIo:
    def test_round_trip_is_a_fixed_point(self, tmp_path):
        data = gen_synthetic_pcs(archetypes=3, n_slots=8, n_samples=20, seed=5)
        path = tmp_path / "profiles.csv"
        save_profiles(data, path)
        loaded = load_profiles(path)
        assert (loaded.n, loaded.dim) == (20, 8)
        second = tmp_path / "again.csv"
        save_profiles(loaded, second)
        assert path.read_bytes() == second.read_bytes()

    def test_header_auto_detected(self, tmp_path):
        path = tmp_path / "with_header.csv"
        path.write_text("t0,t1,t2\n1.0,2.0,3.0\n4.0,5.0,6.0\n")
        data = load_profiles(path)
        assert (data.n, data.dim) == (2, 3)
        np.testing.assert_array_equal(data.values[0], [1.0, 2.0, 3.0])

    def test_utf8_bom_keeps_first_row(self, tmp_path):
        # spreadsheet "CSV UTF-8" exports start with a byte-order mark
        path = tmp_path / "bom.csv"
        path.write_bytes("\ufeff1.0,2.0\n3.0,4.0\n".encode("utf-8"))
        np.testing.assert_array_equal(load_profiles(path).values, [[1.0, 2.0], [3.0, 4.0]])

    def test_header_after_blank_lines(self, tmp_path):
        path = tmp_path / "blank_then_header.csv"
        path.write_text("\n\nt0,t1\n1.0,2.0\n3.0,abc\n")
        with pytest.raises(DataFormatError) as err:
            load_profiles(path)
        # the header is skipped; rows keep their line numbers in the file
        assert err.value.row == 5 and err.value.col == 2
        path.write_text("\n\nt0,t1\n1.0,2.0\n")
        np.testing.assert_array_equal(load_profiles(path).values, [[1.0, 2.0]])

    def test_nan_cell_reports_location(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1.0,2.0\n3.0,NaN\n")
        with pytest.raises(DataFormatError) as err:
            load_profiles(path)
        assert err.value.row == 2 and err.value.col == 2

    def test_negative_cell_rejected(self, tmp_path):
        path = tmp_path / "neg.csv"
        path.write_text("1.0,2.0\n-0.5,1.0\n")
        with pytest.raises(DataFormatError) as err:
            load_profiles(path)
        assert err.value.row == 2 and err.value.col == 1

    def test_non_numeric_cell_rejected(self, tmp_path):
        path = tmp_path / "text.csv"
        path.write_text("1.0,2.0\n1.0,abc\n")
        with pytest.raises(DataFormatError) as err:
            load_profiles(path)
        assert err.value.row == 2 and err.value.col == 2

    def test_ragged_rows_rejected(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("1.0,2.0\n1.0,2.0,3.0\n")
        with pytest.raises(DataFormatError) as err:
            load_profiles(path)
        assert err.value.row == 2

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(DataFormatError):
            load_profiles(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(OSError):
            load_profiles(tmp_path / "absent.csv")
