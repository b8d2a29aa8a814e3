from pathlib import Path

import numpy as np
import pytest

from ldpfair import (
    DatasetError,
    PreconditionError,
    SyntheticSpec,
    TabularDataset,
    ColumnSpec,
    generate_synthetic,
    load_dataset,
    mutual_information,
    plugin_mi,
    random_source,
    save_dataset,
)
from ldpfair.datasets import (
    ADULT_COLUMNS,
    load_compas,
    preprocess_adult,
)

ADULT_ROW = (
    "39, State-gov, 77516, Bachelors, 13, Never-married, Adm-clerical, "
    "Not-in-family, White, Male, 2174, 0, 40, United-States, <=50K"
)


def make_adult_raw(tmp_path, n_per_combo=6):
    """Small files in the raw adult format covering both labels and genders."""
    rows = []
    base = ADULT_ROW.split(", ")
    assert len(base) == len(ADULT_COLUMNS)
    i = 0
    for sex in ("Male", "Female"):
        for income in ("<=50K", ">50K"):
            for _ in range(n_per_combo):
                r = list(base)
                r[0] = str(25 + (i % 30))  # vary age
                r[9] = sex
                r[14] = income
                rows.append(", ".join(r))
                i += 1
    # one incomplete row that must be dropped
    bad = list(base)
    bad[1] = "?"
    train = tmp_path / "train.raw"
    test = tmp_path / "test.raw"
    train.write_text("\n".join(rows + [", ".join(bad)]) + "\n")
    test.write_text("|1x3 Cross validator\n" + "\n".join(r + "." for r in rows) + "\n")
    return train, test


class TestPreprocessAdult:
    def test_shapes_and_labels(self, tmp_path):
        train_raw, test_raw = make_adult_raw(tmp_path)
        train, test = preprocess_adult(train_raw, test_raw)
        assert train.n == 24  # the '?' row was dropped
        assert test.n == 24
        assert set(np.unique(train.u)) == {0, 1}
        assert set(np.unique(train.s)) == {0, 1}
        assert len(train.schema) == 13

    def test_numeric_standardized_on_train_stats(self, tmp_path):
        train_raw, test_raw = make_adult_raw(tmp_path)
        train, test = preprocess_adult(train_raw, test_raw)
        age_col = [i for i, c in enumerate(train.schema) if c.name == "age"]
        assert len(age_col) == 1
        offsets = np.cumsum([0] + [c.size for c in train.schema])
        col = offsets[age_col[0]]
        assert abs(train.features[:, col].mean()) < 1e-9
        assert train.standardized_with == "train"
        # test uses train statistics, so its mean need not be zero but the
        # values must match a manual transform
        np.testing.assert_allclose(test.features[:, col], train.features[:, col], atol=1e-12)

    def test_one_hot_blocks_sum_to_one(self, tmp_path):
        train_raw, test_raw = make_adult_raw(tmp_path)
        train, _ = preprocess_adult(train_raw, test_raw)
        offsets = np.cumsum([0] + [c.size for c in train.schema])
        for i, c in enumerate(train.schema):
            if c.kind == "categorical":
                block = train.features[:, offsets[i] : offsets[i + 1]]
                np.testing.assert_allclose(block.sum(axis=1), 1.0)

    def test_empty_file_rejected(self, tmp_path):
        empty = tmp_path / "empty.raw"
        empty.write_text("")
        with pytest.raises(DatasetError):
            preprocess_adult(empty, empty)


class TestCompas:
    def test_missing_file(self, tmp_path):
        with pytest.raises(DatasetError):
            load_compas(tmp_path / "nope.csv")

    def test_missing_columns(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n1,2\n")
        with pytest.raises(DatasetError):
            load_compas(path)

    def test_small_csv_warns_but_loads(self, tmp_path):
        import csv

        header = [
            "sex", "age", "age_cat", "juv_fel_count", "juv_misd_count", "juv_other_count",
            "priors_count", "c_charge_degree", "days_b_screening_arrest", "c_days_from_compas",
            "race", "two_year_recid", "is_recid", "score_text",
        ]
        rng = np.random.default_rng(0)
        path = tmp_path / "compas.csv"
        with open(path, "w", newline="") as f:
            w = csv.writer(f)
            w.writerow(header)
            for i in range(60):
                w.writerow([
                    "Male" if i % 2 else "Female", 20 + i % 40,
                    "25 - 45", i % 2, 0, 0, i % 5, "F" if i % 3 else "M",
                    int(rng.integers(-20, 20)), i % 30,
                    "African-American" if i % 2 else "Caucasian",
                    i % 2, i % 2, "Low",
                ])
        with pytest.warns(UserWarning):
            train, test = load_compas(path)
        assert train.n + test.n == 60
        assert len(train.schema) == 10


class TestSynthetic:
    def test_ground_truth_recoverable(self):
        # sampled (u, s) statistics converge to the exact source marginals
        src = random_source(2, 2, 3, seed=1)
        spec = SyntheticSpec(
            source=src, means=3.0 * np.eye(3), sigma=0.1, n_train=60_000, n_test=1000, seed=0
        )
        train, _ = generate_synthetic(spec)
        emp_us = np.zeros((2, 2))
        np.add.at(emp_us, (train.u, train.s), 1.0)
        emp_us /= emp_us.sum()
        np.testing.assert_allclose(emp_us, src.probs.sum(axis=2), atol=0.01)
        # with tiny sigma, features identify x, so I(x_label; nearest mean)
        # matches the plug-in estimate from the latent labels
        nearest = np.argmin(
            ((train.features[:, None, :] - spec.means[None]) ** 2).sum(axis=2), axis=1
        )
        assert (nearest == train.x).mean() > 0.999
        exact = mutual_information(src.p_ux())
        est = plugin_mi(train.u, train.x, card_a=2, card_b=3)
        assert est == pytest.approx(exact, abs=0.01)

    def test_validation(self):
        src = random_source(2, 2, 3, seed=0)
        with pytest.raises(PreconditionError):
            SyntheticSpec(source=src, means=np.eye(2), sigma=0.5, n_train=10, n_test=10)
        with pytest.raises(PreconditionError):
            SyntheticSpec(source=src, means=np.eye(3), sigma=0.0, n_train=10, n_test=10)
        with pytest.raises(PreconditionError):
            SyntheticSpec(source=src, means=np.zeros((3, 2)), sigma=0.5, n_train=10, n_test=10)

    def test_train_test_draws_differ(self):
        src = random_source(2, 2, 3, seed=2)
        spec = SyntheticSpec(source=src, means=np.eye(3), sigma=0.5, n_train=100, n_test=100, seed=0)
        train, test = generate_synthetic(spec)
        assert not np.array_equal(train.features, test.features)


class TestSerialization:
    def test_round_trip_bitwise(self, tmp_path):
        src = random_source(2, 2, 3, seed=4)
        spec = SyntheticSpec(source=src, means=np.eye(3), sigma=0.5, n_train=200, n_test=50, seed=0)
        train, _ = generate_synthetic(spec)
        path = tmp_path / "ds.npz"
        save_dataset(train, path)
        loaded = load_dataset(path)
        np.testing.assert_array_equal(loaded.features, train.features)
        np.testing.assert_array_equal(loaded.u, train.u)
        np.testing.assert_array_equal(loaded.x, train.x)
        assert loaded.content_hash() == train.content_hash()
        assert [c.name for c in loaded.schema] == [c.name for c in train.schema]

    def test_hash_detects_tampering(self, tmp_path):
        src = random_source(2, 2, 3, seed=4)
        spec = SyntheticSpec(source=src, means=np.eye(3), sigma=0.5, n_train=50, n_test=50, seed=0)
        train, _ = generate_synthetic(spec)
        path = tmp_path / "ds.npz"
        save_dataset(train, path)
        before = train.content_hash()
        train.features[0, 0] += 1.0
        assert train.content_hash() != before

    def test_row_count_mismatch_rejected(self):
        with pytest.raises(DatasetError):
            TabularDataset(
                features=np.zeros((3, 1)), u=np.zeros(2, dtype=int), s=np.zeros(3, dtype=int),
                split="train", schema=[ColumnSpec("f", "numeric", 1)],
            )


DATA = Path(__file__).parent / "data"


def feature_block(ds, name):
    """The feature columns of one attribute, by schema name."""
    offsets = np.cumsum([0] + [c.size for c in ds.schema])
    i = [c.name for c in ds.schema].index(name)
    return ds.features[:, offsets[i] : offsets[i + 1]]


class TestTabularFixtures:
    """Hand-written records in the raw adult format and the compas CSV format."""

    def test_adult_fixture_parsed_features(self):
        train, test = preprocess_adult(DATA / "adult_train.raw", DATA / "adult_test.raw")
        # the '?' rows are dropped from both splits, the header and trailing dots ignored
        assert (train.n, test.n) == (8, 3)
        np.testing.assert_array_equal(train.u, [0, 0, 0, 0, 0, 1, 1, 1])
        np.testing.assert_array_equal(train.s, [0, 0, 0, 0, 1, 1, 1, 0])
        np.testing.assert_array_equal(test.u, [0, 0, 1])
        np.testing.assert_array_equal(test.s, [0, 0, 1])

        # numerics are z-scored with train statistics in both splits
        age = np.array([39, 50, 38, 53, 28, 37, 31, 42], dtype=float)
        mu, sd = age.mean(), age.std()
        np.testing.assert_allclose(feature_block(train, "age")[:, 0], (age - mu) / sd, rtol=1e-12)
        np.testing.assert_allclose(
            feature_block(test, "age")[:, 0], (np.array([25.0, 38.0, 28.0]) - mu) / sd, rtol=1e-12
        )
        # a constant train column keeps unit scale
        np.testing.assert_array_equal(feature_block(train, "capital-loss"), 0.0)

        # categories come from train only; a test-only category is all zeros
        spec = train.schema[[c.name for c in train.schema].index("workclass")]
        assert spec.categories == ("Private", "Self-emp-not-inc", "State-gov")
        np.testing.assert_array_equal(
            feature_block(train, "workclass")[:2], [[0, 0, 1], [0, 1, 0]]
        )
        np.testing.assert_array_equal(
            feature_block(test, "workclass"), [[1, 0, 0], [1, 0, 0], [0, 0, 0]]  # Local-gov
        )
        assert test.schema == train.schema and test.features.shape[1] == train.features.shape[1]

    def test_adult_non_numeric_field_is_a_dataset_error(self, tmp_path):
        bad = tmp_path / "train.raw"
        bad.write_text((DATA / "adult_train.raw").read_text().replace("39,", "thirty-nine,", 1))
        with pytest.raises(DatasetError, match="age"):
            preprocess_adult(bad, DATA / "adult_test.raw")

    @pytest.mark.filterwarnings("ignore:compas")  # row count and P(U=1) differ from the published
    def test_compas_non_integer_label_is_a_dataset_error(self, tmp_path):
        bad = tmp_path / "compas.csv"
        lines = (DATA / "compas.csv").read_text().splitlines()
        lines[2] = lines[2][: lines[2].rindex(",") + 1] + "yes"  # id 2, which passes the filter
        bad.write_text("\n".join(lines) + "\n")
        with pytest.raises(DatasetError, match="row id 2: two_year_recid 'yes'"):
            load_compas(bad)

    @pytest.mark.filterwarnings("ignore:compas")  # row count and P(U=1) differ from the published
    def test_compas_fixture_parsed_features(self):
        train, test = load_compas(DATA / "compas.csv")
        # ids 1, 2, 3, 6, 7, 8 and 13 pass the row filter; the split keeps
        # the first 4320 shuffled rows for train
        assert (train.n, test.n) == (7, 0)
        age = np.array([69, 34, 24, 44, 41, 39, 52], dtype=float)  # by id
        z = (age - age.mean()) / age.std()
        ages = feature_block(train, "age")[:, 0]
        rows = np.array([np.argmin(np.abs(ages - v)) for v in z])  # feature row of each id
        assert sorted(rows) == list(range(7))
        np.testing.assert_allclose(ages[rows], z, rtol=1e-12)
        np.testing.assert_array_equal(train.u[rows], [0, 1, 1, 0, 1, 0, 1])
        np.testing.assert_array_equal(train.s[rows], [0, 1, 1, 0, 0, 0, 0])
        # id 8 has an empty c_days_from_compas, which reads as 0
        days = np.array([1, 1, 1, 0, 1, 0, 30], dtype=float)
        np.testing.assert_allclose(
            feature_block(train, "c_days_from_compas")[rows, 0],
            (days - days.mean()) / days.std(), rtol=1e-12,
        )
        spec = train.schema[[c.name for c in train.schema].index("c_charge_degree")]
        assert spec.categories == ("F", "M")
        np.testing.assert_array_equal(
            feature_block(train, "c_charge_degree")[rows], [[1, 0], [1, 0], [1, 0], [0, 1], [1, 0], [0, 1], [1, 0]]
        )
