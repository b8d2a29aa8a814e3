"""Tabular benchmark ingestion and a synthetic source with known joint.

The adult census data is fetched over HTTP into a local cache and
preprocessed with a pinned recipe (drop rows with missing fields, one-hot
categoricals, z-score numerics on TRAIN statistics).  The compas data
loads from a user-supplied CSV and is validated against published
statistics.  The synthetic generator samples (u, s, x) from an exact
finite joint and emits Gaussian features per x, so every information
quantity has a computable ground truth.
"""

from __future__ import annotations

import hashlib
import json
import urllib.error
import urllib.request
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .discrete_source import JointSourceUSX, sample as sample_source
from .errors import DatasetError, PreconditionError

DATASET_FORMAT_VERSION = 1

ADULT_BASE_URL = "https://archive.ics.uci.edu/ml/machine-learning-databases/adult/"
ADULT_TRAIN_RECORDS = 32561
ADULT_TEST_RECORDS = 16281
ADULT_COLUMNS = [
    "age", "workclass", "fnlwgt", "education", "education-num", "marital-status",
    "occupation", "relationship", "race", "sex", "capital-gain", "capital-loss",
    "hours-per-week", "native-country", "income",
]
ADULT_NUMERIC = ["age", "fnlwgt", "education-num", "capital-gain", "capital-loss", "hours-per-week"]

COMPAS_TRAIN_ROWS = 4320
COMPAS_TEST_ROWS = 1852
COMPAS_P_U1 = 0.5378
COMPAS_FEATURES = [
    "sex", "age", "age_cat", "juv_fel_count", "juv_misd_count", "juv_other_count",
    "priors_count", "c_charge_degree", "days_b_screening_arrest", "c_days_from_compas",
]
COMPAS_NUMERIC = {
    "age", "juv_fel_count", "juv_misd_count", "juv_other_count", "priors_count",
    "days_b_screening_arrest", "c_days_from_compas",
}


@dataclass(frozen=True)
class ColumnSpec:
    """One original attribute and how it maps into feature columns."""

    name: str
    kind: str  # 'numeric' | 'categorical'
    size: int  # 1 for numeric, number of one-hot columns otherwise
    categories: tuple[str, ...] = ()


@dataclass
class TabularDataset:
    """Standardized feature matrix with binary utility and sensitive labels."""

    features: np.ndarray  # (n, p) float64
    u: np.ndarray  # (n,) int 0/1
    s: np.ndarray  # (n,) int 0/1
    split: str  # 'train' | 'test'
    schema: list[ColumnSpec]
    standardized_with: str = "train"  # provenance of the z-score statistics
    x: np.ndarray | None = None  # synthetic sources keep the latent x label

    def __post_init__(self):
        n = self.features.shape[0]
        if self.u.shape != (n,) or self.s.shape != (n,):
            raise DatasetError("row counts of features, u, and s disagree")
        if self.x is not None and self.x.shape != (n,):
            raise DatasetError("row count of x labels disagrees with features")
        if sum(c.size for c in self.schema) != self.features.shape[1]:
            raise DatasetError("schema column sizes do not match the feature matrix")

    @property
    def n(self) -> int:
        return self.features.shape[0]

    def content_hash(self) -> str:
        h = hashlib.sha256()
        h.update(self.features.tobytes())
        h.update(self.u.astype(np.int64).tobytes())
        h.update(self.s.astype(np.int64).tobytes())
        if self.x is not None:
            h.update(self.x.astype(np.int64).tobytes())
        h.update(json.dumps([(c.name, c.kind, c.size, list(c.categories)) for c in self.schema]).encode())
        return h.hexdigest()


@dataclass(frozen=True)
class SyntheticSpec:
    """Exactly analyzable stand-in for an image toy set: finite source plus
    Gaussian feature emission per x symbol."""

    source: JointSourceUSX
    means: np.ndarray  # (card_x, feat_dim)
    sigma: float
    n_train: int
    n_test: int
    seed: int = 0

    def __post_init__(self):
        if self.means.shape[0] != self.source.card_x:
            raise PreconditionError("one emission mean per x symbol is required")
        if self.sigma <= 0:
            raise PreconditionError("emission sigma must be > 0")
        uniq = {tuple(row) for row in np.round(self.means, 12)}
        if len(uniq) != self.means.shape[0]:
            raise PreconditionError("emission means must be distinct per x")


# -- adult -------------------------------------------------------------------


def fetch_uci_adult(cache_dir: str | Path, url_override: str | None = None) -> tuple[Path, Path]:
    """Download the raw adult train/test files into cache_dir/adult/.

    Idempotent on cache hit; validates the published record counts
    32561/16281.  Raises DatasetError on network failure with a hint to
    pre-populate the cache.
    """
    base = (url_override or ADULT_BASE_URL).rstrip("/") + "/"
    adult_dir = Path(cache_dir) / "adult"
    adult_dir.mkdir(parents=True, exist_ok=True)
    out = {"train": adult_dir / "train.raw", "test": adult_dir / "test.raw"}
    remote = {"train": base + "adult.data", "test": base + "adult.test"}
    expected = {"train": ADULT_TRAIN_RECORDS, "test": ADULT_TEST_RECORDS}

    for split, path in out.items():
        if path.exists():
            _check_record_count(path, expected[split], split)
            continue
        try:
            with urllib.request.urlopen(remote[split], timeout=60) as resp:
                payload = resp.read()
        except (urllib.error.URLError, OSError, TimeoutError) as exc:
            raise DatasetError(
                f"could not download {remote[split]}: {exc}. If this machine is "
                f"offline, place the raw file at {path} yourself."
            ) from exc
        path.write_bytes(payload)
        _check_record_count(path, expected[split], split)
    return out["train"], out["test"]


def _adult_records(path: Path) -> list[list[str]]:
    records = []
    for line in path.read_text().splitlines():
        line = line.strip().rstrip(".")
        if not line or line.startswith("|"):
            continue
        fields = [f.strip() for f in line.split(",")]
        if len(fields) == len(ADULT_COLUMNS):
            records.append(fields)
    return records


def _check_record_count(path: Path, expected: int, split: str) -> None:
    got = len(_adult_records(path))
    if got != expected:
        raise DatasetError(
            f"adult {split} file {path} has {got} records, expected {expected} "
            "(truncated or corrupted download?)"
        )


def preprocess_adult(raw_train: str | Path, raw_test: str | Path) -> tuple[TabularDataset, TabularDataset]:
    """Pinned adult recipe: drop '?' rows, S = gender, U = income > 50K,
    z-score numerics on train statistics, one-hot the rest (13 attributes)."""
    col = {name: i for i, name in enumerate(ADULT_COLUMNS)}
    splits = {}
    for split, path in (("train", Path(raw_train)), ("test", Path(raw_test))):
        rows = [r for r in _adult_records(path) if "?" not in r]
        if not rows:
            raise DatasetError(f"adult {split}: no complete records found")
        splits[split] = rows

    feature_cols = [c for c in ADULT_COLUMNS if c not in ("sex", "income")]
    columns = {
        split: {name: [r[col[name]] for r in rows] for name in feature_cols}
        for split, rows in splits.items()
    }
    # categories come from train; a test-only category maps to all zeros
    schema, features = _encode_tabular(columns, ADULT_NUMERIC, columns["train"], "adult")
    out = {}
    for split, rows in splits.items():
        u = np.array([1 if r[col["income"]] == ">50K" else 0 for r in rows])
        s = np.array([1 if r[col["sex"]] == "Female" else 0 for r in rows])
        out[split] = TabularDataset(features[split], u, s, split, schema)
    return out["train"], out["test"]


def _encode_tabular(
    columns: dict[str, dict[str, list[str]]],
    numeric,
    vocab: dict[str, list[str]],
    label: str,
    blank: float | None = None,
) -> tuple[list[ColumnSpec], dict[str, np.ndarray]]:
    """Schema and per-split feature matrices from raw text columns.

    columns maps split -> feature name -> raw values, the "train" split
    first.  A numeric column (name in `numeric`) is z-scored with the train
    split's mean and standard deviation, for every split; an empty field
    reads as `blank`, and is an error when blank is None.  A categorical
    column is one-hot over the sorted distinct values in vocab[name]; a
    value outside them maps to all zeros.
    """
    schema = []
    for name in columns["train"]:
        if name in numeric:
            schema.append(ColumnSpec(name, "numeric", 1))
        else:
            cats = tuple(sorted(set(vocab[name])))
            schema.append(ColumnSpec(name, "categorical", len(cats), cats))
    stats: dict[str, tuple[float, float]] = {}
    features = {}
    for split, cols in columns.items():
        blocks = []
        for c in schema:
            raw = cols[c.name]
            if c.kind == "numeric":
                try:  # an empty (or, in a short CSV row, None) field is blank
                    vals = np.array([float(v) if v or blank is None else blank for v in raw])
                except ValueError as exc:
                    raise DatasetError(f"{label}: {split} column {c.name!r}: {exc}") from None
                if split == "train":
                    stats[c.name] = (float(vals.mean()), float(vals.std()))
                mu, sd = stats[c.name]  # train provenance for every split
                blocks.append(((vals - mu) / (sd if sd > 0 else 1.0))[:, None])
            else:
                lookup = {cat: i for i, cat in enumerate(c.categories)}
                onehot = np.zeros((len(raw), c.size))
                for i, v in enumerate(raw):
                    if v in lookup:
                        onehot[i, lookup[v]] = 1.0
                blocks.append(onehot)
        features[split] = np.hstack(blocks)
    return schema, features


# -- compas ------------------------------------------------------------------


def load_compas(csv_path: str | Path) -> tuple[TabularDataset, TabularDataset]:
    """Load a user-supplied ProPublica two-year recidivism CSV.

    Applies the standard row filter, uses race (African-American) as the
    sensitive variable and two-year recidivism as the utility variable,
    and makes a seeded 4320/1852 split.  Statistic mismatches against the
    published numbers warn rather than abort.
    """
    import csv as csvmod

    path = Path(csv_path)
    if not path.exists():
        raise DatasetError(f"compas CSV not found at {path}; supply the file yourself")
    with open(path, newline="") as f:
        reader = csvmod.DictReader(f)
        rows = list(reader)
    needed = set(COMPAS_FEATURES) | {"race", "two_year_recid", "is_recid", "score_text"}
    missing = needed - set(rows[0].keys() if rows else ())
    if missing:
        raise DatasetError(f"compas CSV missing columns: {sorted(missing)}")

    def keep(r):
        try:
            days = float(r["days_b_screening_arrest"] or "nan")
        except ValueError:
            return False
        return (
            -30 <= days <= 30
            and r["is_recid"] != "-1"
            and r["c_charge_degree"] != "O"
            and r["score_text"] != "N/A"
        )

    rows = [r for r in rows if keep(r)]
    total = COMPAS_TRAIN_ROWS + COMPAS_TEST_ROWS
    if len(rows) != total:
        warnings.warn(
            f"compas: {len(rows)} rows after filtering, expected {total}", stacklevel=2
        )

    def label(r):
        try:
            return int(r["two_year_recid"])
        except ValueError:
            raise DatasetError(
                f"{path}: row id {r.get('id')}: two_year_recid {r['two_year_recid']!r} is not an integer"
            ) from None

    u = np.array([label(r) for r in rows])
    s = np.array([1 if r["race"] == "African-American" else 0 for r in rows])
    p_u1 = u.mean()
    if abs(p_u1 - COMPAS_P_U1) > 0.01:
        warnings.warn(
            f"compas: P(U=1) = {p_u1:.4f} differs from the published {COMPAS_P_U1}", stacklevel=2
        )

    rng = np.random.default_rng(0)
    order = rng.permutation(len(rows))
    idx = {"train": order[: min(COMPAS_TRAIN_ROWS, len(rows))], "test": order[min(COMPAS_TRAIN_ROWS, len(rows)):]}

    columns = {
        split: {name: [rows[i][name] for i in sel] for name in COMPAS_FEATURES}
        for split, sel in idx.items()
    }
    # categories come from every filtered row; an empty numeric field reads as 0
    vocab = {name: [r[name] for r in rows] for name in COMPAS_FEATURES}
    schema, features = _encode_tabular(columns, COMPAS_NUMERIC, vocab, f"compas {path}", blank=0.0)
    out = {
        split: TabularDataset(features[split], u[sel], s[sel], split, schema)
        for split, sel in idx.items()
    }
    return out["train"], out["test"]


# -- synthetic ---------------------------------------------------------------


def generate_synthetic(spec: SyntheticSpec) -> tuple[TabularDataset, TabularDataset]:
    """Sample (u, s, x) from the exact joint and emit features ~ N(mean_x, sigma^2 I).

    The latent x labels ride along so oracle checks can condition on them;
    spec.source is the exact ground truth for every information quantity.
    """
    feat_dim = spec.means.shape[1]
    schema = [ColumnSpec(f"f{i}", "numeric", 1) for i in range(feat_dim)]
    out = []
    for split, n, sub in (("train", spec.n_train, 0), ("test", spec.n_test, 1)):
        triples = sample_source(spec.source, n, seed=spec.seed * 2 + sub)
        rng = np.random.default_rng([spec.seed, sub, 1])
        feats = spec.means[triples[:, 2]] + rng.normal(0.0, spec.sigma, size=(n, feat_dim))
        out.append(
            TabularDataset(feats, triples[:, 0], triples[:, 1], split, schema, x=triples[:, 2])
        )
    return out[0], out[1]


# -- binary round-trip -------------------------------------------------------


def save_dataset(ds: TabularDataset, path: str | Path) -> None:
    """Versioned header + schema block + data blocks + content hash."""
    meta = {
        "format_version": DATASET_FORMAT_VERSION,
        "split": ds.split,
        "standardized_with": ds.standardized_with,
        "schema": [(c.name, c.kind, c.size, list(c.categories)) for c in ds.schema],
        "content_hash": ds.content_hash(),
        "has_x": ds.x is not None,
    }
    arrays = {
        "__meta__": np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8),
        "features": np.asfortranarray(ds.features),
        "u": ds.u.astype(np.int64),
        "s": ds.s.astype(np.int64),
    }
    if ds.x is not None:
        arrays["x"] = ds.x.astype(np.int64)
    np.savez(path, **arrays)


def load_dataset(path: str | Path) -> TabularDataset:
    with np.load(path) as f:
        meta = json.loads(bytes(f["__meta__"]).decode())
        if meta["format_version"] != DATASET_FORMAT_VERSION:
            raise DatasetError(f"unsupported dataset format version {meta['format_version']}")
        schema = [ColumnSpec(n, k, sz, tuple(cats)) for n, k, sz, cats in meta["schema"]]
        ds = TabularDataset(
            features=np.ascontiguousarray(f["features"]),
            u=f["u"],
            s=f["s"],
            split=meta["split"],
            schema=schema,
            standardized_with=meta["standardized_with"],
            x=f["x"] if meta["has_x"] else None,
        )
    if ds.content_hash() != meta["content_hash"]:
        raise DatasetError(f"content hash mismatch loading {path}")
    return ds

