"""Unit tests for ZeroER's internal machinery (seeding, EM regimes,
the pair featurizer's array kernels and the pair plumbing around them)."""

import numpy as np
import pytest

from repro.cleaning import PairFeaturizer, TwoComponentGaussianMixture
from repro.cleaning import zeroer
from repro.cleaning.zeroer import (
    ZeroERDetector,
    _gap_seed_count,
    candidate_pairs,
    tokenize,
)
from repro.core import kernel_disabled
from repro.datasets import load_dataset
from repro.table import Column, ColumnType, Table, make_schema


class TestGapSeeding:
    def test_finds_clear_gap(self):
        # 95 background pairs near 0.1, 5 duplicates near 0.9
        similarity = np.sort(
            np.concatenate([np.linspace(0.05, 0.15, 95), np.full(5, 0.9)])
        )
        assert _gap_seed_count(similarity) == 5

    def test_minimum_two_seeds(self):
        similarity = np.sort(np.linspace(0.0, 1.0, 50))
        assert _gap_seed_count(similarity) >= 2

    def test_gap_at_tail_boundary(self):
        # gap right at the 5% boundary: everything above it is the seed
        similarity = np.sort(
            np.concatenate([np.linspace(0.0, 0.2, 98), [0.8, 0.81]])
        )
        assert _gap_seed_count(similarity) == 2


class TestMixtureRegimes:
    def make_data(self, seed=0):
        rng = np.random.default_rng(seed)
        background = rng.normal(0.1, 0.03, size=(300, 4))
        matches = rng.normal(0.85, 0.03, size=(6, 4))
        return np.vstack([background, matches])

    def test_weights_only_regime_keeps_seeded_means(self):
        X = self.make_data()
        mixture = TwoComponentGaussianMixture(
            update="weights", seed_fraction=None
        ).fit(X)
        # the match component mean stays near the seeded high-similarity side
        match = int(np.argmax(mixture.means.mean(axis=1)))
        assert mixture.means[match].mean() > 0.7

    def test_full_em_regime_still_separates(self):
        X = self.make_data()
        mixture = TwoComponentGaussianMixture(update="all").fit(X)
        posterior = mixture.match_posterior(X)
        assert posterior[-6:].mean() > 0.9
        assert posterior[:300].mean() < 0.1

    def test_invalid_update_regime(self):
        with pytest.raises(ValueError):
            TwoComponentGaussianMixture(update="means")

    def test_weights_regime_posterior_flags_only_matches(self):
        X = self.make_data(seed=1)
        mixture = TwoComponentGaussianMixture(
            update="weights", seed_fraction=None
        ).fit(X)
        posterior = mixture.match_posterior(X)
        flagged = posterior > 0.9
        assert flagged[-6:].all()
        assert flagged[:300].sum() <= 3  # at most a stray background pair


def _candidate_pairs_reference(table, columns):
    """The blocking loop as it read before column values were hoisted."""
    n = table.n_rows
    if n <= zeroer._SMALL_TABLE:
        return [(i, j) for i in range(n) for j in range(i + 1, n)]
    buckets = {}
    for i in range(n):
        tokens = set()
        for name in columns:
            tokens |= tokenize(table.column(name).values[i])
        for token in tokens:
            buckets.setdefault(token, []).append(i)
    pairs = set()
    for members in buckets.values():
        if len(members) > 50:
            continue
        for a_pos, a in enumerate(members):
            for b in members[a_pos + 1 :]:
                pairs.add((a, b))
    return sorted(pairs)


def assert_features_identical(featurizer, table, pairs):
    fast = featurizer.features(table, pairs)
    reference = featurizer._features_reference(table, pairs)
    assert fast.shape == reference.shape == (len(pairs), featurizer.n_features)
    assert fast.tobytes() == reference.tobytes()


def adversarial_table():
    """None cells, token-less strings, case/unicode variants, repeated
    rows, NaN numerics and a zero-std numeric column."""
    schema = make_schema(
        numeric=["price", "flat"],
        categorical=["name", "city"],
        label="y",
    )
    names = [
        "Blue Bottle", "blue  bottle!", None, "!!", "", "",
        "Café Ünïcode", "CAFÉ ünïcode", "Blue Bottle", "Blue Bottle",
        "a b c d e f g h", "h g f e d c b a", "x", None,
    ]
    n = len(names)
    table = Table.from_dict(
        schema,
        {
            "name": ["placeholder"] * n,
            "city": ["SF", "sf", None, "LA", "SF", None, "LA", "LA",
                     "SF", "SF", "NYC", "NYC", "??", None],
            "price": [1.0, 1.5, np.nan, 2.0, 1e150, -1e150, 3.0, 3.0,
                      1.0, 1.0, np.nan, 0.0, 7.25, np.nan],
            "flat": [4.0] * n,
            "y": ["a", "b"] * (n // 2),
        },
    )
    # from_buffer keeps the raw "" cells (the constructor maps "" to None)
    columns = {name: table.column(name) for name in schema.names}
    columns["name"] = Column.from_buffer(
        np.array(names, dtype=object), ColumnType.CATEGORICAL
    )
    return Table(schema, columns)


class TestFeaturizerKernelParity:
    """``features`` is bit-identical to the per-pair reference loop."""

    @pytest.mark.parametrize("dataset", ["Airbnb", "Restaurant", "Citation", "Movie"])
    @pytest.mark.parametrize("n_rows", [150, 600], ids=["exhaustive", "blocked"])
    def test_dirty_tables(self, dataset, n_rows):
        table = load_dataset(dataset, seed=0, n_rows=n_rows).dirty
        featurizer = PairFeaturizer().fit(table)
        pairs = candidate_pairs(table, featurizer.categorical)
        assert len(pairs) > 0
        if n_rows > zeroer._SMALL_TABLE:
            assert len(pairs) < n_rows * (n_rows - 1) // 2
        assert_features_identical(featurizer, table, pairs)

    def test_test_split_scored_with_train_fit(self):
        table = load_dataset("Restaurant", seed=0, n_rows=200).dirty
        train, test = table.take(np.arange(150)), table.take(np.arange(150, 200))
        featurizer = PairFeaturizer().fit(train)
        assert_features_identical(
            featurizer, test, candidate_pairs(test, featurizer.categorical)
        )

    def test_adversarial_table(self):
        table = adversarial_table()
        featurizer = PairFeaturizer().fit(table)
        assert featurizer.scales["flat"] == 1.0
        n = table.n_rows
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        assert_features_identical(featurizer, table, pairs)
        # reversed and self pairs are scored the same way too
        assert_features_identical(featurizer, table, [(j, i) for i, j in pairs])
        assert_features_identical(featurizer, table, [(i, i) for i in range(n)])

    def test_adversarial_values(self):
        table = adversarial_table()
        featurizer = PairFeaturizer().fit(table)
        X = featurizer.features(table, [(0, 1), (4, 5), (2, 13), (6, 7), (0, 8)])
        weight = featurizer.weights["name"]
        # case/punctuation variants: same tokens, different strings
        assert X[0, 0] == weight and X[0, 1] == 0.0
        # "" == "": token-less (Jaccard 0) but an exact match
        assert X[1, 0] == 0.0 and X[1, 1] == weight
        # missing never matches, not even another missing cell
        assert X[2, 1] == 0.0
        assert X[3, 0] == weight
        assert X[4, 1] == weight

    def test_empty_and_single_pair(self):
        table = adversarial_table()
        featurizer = PairFeaturizer().fit(table)
        assert_features_identical(featurizer, table, [])
        assert featurizer.features(table, []).shape == (0, featurizer.n_features)
        assert_features_identical(featurizer, table, [(0, 8)])

    def test_block_size_does_not_change_bits(self, monkeypatch):
        table = load_dataset("Citation", seed=0, n_rows=80).dirty
        featurizer = PairFeaturizer().fit(table)
        pairs = candidate_pairs(table, featurizer.categorical)
        expected = featurizer.features(table, pairs)
        monkeypatch.setattr(zeroer, "_PAIR_BLOCK_ELEMENTS", 1)
        assert featurizer.features(table, pairs).tobytes() == expected.tobytes()
        assert_features_identical(featurizer, table, pairs)


class TestFeaturizerSwitch:
    def test_kernel_disabled_routes_to_reference(self, monkeypatch):
        table = adversarial_table()
        featurizer = PairFeaturizer().fit(table)
        sentinel = np.full((1, featurizer.n_features), -1.0)
        monkeypatch.setattr(
            PairFeaturizer, "_features_reference", lambda self, t, p: sentinel
        )
        assert featurizer.features(table, [(0, 1)]) is not sentinel
        with kernel_disabled():
            assert PairFeaturizer.vectorized is False
            assert featurizer.features(table, [(0, 1)]) is sentinel
        assert PairFeaturizer.vectorized is True
        assert featurizer.features(table, [(0, 1)]) is not sentinel

    def test_switch_restored_after_exception(self):
        with pytest.raises(RuntimeError):
            with kernel_disabled():
                assert PairFeaturizer.vectorized is False
                raise RuntimeError("boom")
        assert PairFeaturizer.vectorized is True


class TestPairPlumbing:
    """Hoisted column lookups and array pair selection keep the output."""

    @pytest.mark.parametrize("n_rows", [150, 600], ids=["exhaustive", "blocked"])
    def test_candidate_pairs_match_reference(self, n_rows):
        table = load_dataset("Restaurant", seed=0, n_rows=n_rows).dirty
        columns = list(table.schema.categorical_features)
        assert candidate_pairs(table, columns) == _candidate_pairs_reference(
            table, columns
        )

    @pytest.mark.parametrize("n_rows", [150, 600], ids=["exhaustive", "blocked"])
    def test_score_matches_zip_selection(self, n_rows):
        table = load_dataset("Restaurant", seed=0, n_rows=n_rows).dirty
        detector = ZeroERDetector()
        pairs, X = detector._fit(table)
        posterior = detector._mixture.match_posterior(X)
        expected = [
            pair for pair, p in zip(pairs, posterior) if p > detector.threshold
        ]
        assert expected  # the duplicates are there to be found
        assert detector._score(pairs, X) == expected
        assert detector.detect(table).pairs == detector.fit_detect(table).pairs
