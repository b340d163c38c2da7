"""Trace generators and synthetic datasets."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.workloads import (
    analytics_trace,
    click_dataset,
    gene_expression,
    production_trace,
    random_trace,
)


class TestRandomTrace:
    def test_shape(self):
        tr = random_trace(1000, n_queries=8, pooling_factor=40, seed=1)
        assert tr.n_queries == 8
        assert all(len(ix) == 40 for ix in tr.indices)
        assert all(len(w) == 40 for w in tr.weights)
        assert tr.mean_pooling_factor == 40.0

    def test_indices_in_range(self):
        tr = random_trace(50, 20, 10, seed=2)
        assert all(0 <= i < 50 for ix in tr.indices for i in ix)

    def test_seed_determinism(self):
        assert random_trace(100, 4, 8, seed=3).indices == random_trace(
            100, 4, 8, seed=3
        ).indices

    def test_unweighted_option(self):
        tr = random_trace(100, 2, 8, weighted=False)
        assert all(w == 1.0 for ws in tr.weights for w in ws)

    def test_invalid_params(self):
        with pytest.raises(ConfigurationError):
            random_trace(100, 0, 8)


class TestProductionTrace:
    def test_pf_in_range(self):
        tr = production_trace(10_000, 32, pf_range=(50, 100), seed=4)
        assert all(50 <= len(ix) <= 100 for ix in tr.indices)

    def test_skew_concentrates_references(self):
        tr = production_trace(
            100_000, 64, hot_fraction=0.01, hot_probability=0.8, seed=5
        )
        all_ix = [i for ix in tr.indices for i in ix]
        hot_hits = sum(1 for i in all_ix if i < 1000)
        # ~80% of references should land in the 1% hot set.
        assert hot_hits / len(all_ix) > 0.6

    def test_invalid_hot_params(self):
        with pytest.raises(ConfigurationError):
            production_trace(100, 1, hot_fraction=0.0)

    def test_seed_determinism(self):
        a = production_trace(4096, 32, seed=9)
        b = production_trace(4096, 32, seed=9)
        assert a.indices == b.indices and a.weights == b.weights
        c = production_trace(4096, 32, seed=10)
        assert c.indices != a.indices

    def test_top_k_mass_matches_hot_probability(self):
        tr = production_trace(
            8192, 64, hot_fraction=0.05, hot_probability=0.9, seed=3
        )
        refs = [i for ix in tr.indices for i in ix]
        n_hot = int(8192 * 0.05)
        hot_refs = sum(1 for i in refs if i < n_hot)
        # Hot rows get hot_probability of the draws plus the uniform
        # spill-over that also lands below n_hot.
        assert hot_refs / len(refs) > 0.85


class TestAnalyticsTrace:
    def test_contiguous_runs(self):
        tr = analytics_trace(10_000, 4, 500, seed=6)
        for ix in tr.indices:
            assert list(ix) == list(range(ix[0], ix[0] + 500))

    def test_weights_are_one(self):
        tr = analytics_trace(1000, 2, 100)
        assert all(w == 1.0 for ws in tr.weights for w in ws)

    def test_pf_exceeding_patients_rejected(self):
        with pytest.raises(ConfigurationError):
            analytics_trace(10, 1, 100)


class TestClickDataset:
    def test_shapes(self):
        ds = click_dataset(100, n_tables=3, rows_per_table=50, dense_dim=8)
        assert ds.dense.shape == (100, 8)
        assert len(ds.sparse_rows) == 100
        assert all(len(per) == 3 for per in ds.sparse_rows)
        assert set(np.unique(ds.labels)) <= {0.0, 1.0}
        assert ds.n_samples == 100

    def test_labels_have_signal(self):
        """Labels correlate with the planted dense score (not pure noise)."""
        ds = click_dataset(4000, 2, 100, dense_dim=8, seed=11)
        rate = ds.labels.mean()
        assert 0.2 < rate < 0.8

    def test_row_indices_valid(self):
        ds = click_dataset(50, 2, 30)
        for per in ds.sparse_rows:
            for rows in per:
                assert all(0 <= r < 30 for r in rows)

    def test_invalid_dims(self):
        with pytest.raises(ConfigurationError):
            click_dataset(0, 1, 1)


class TestGeneExpression:
    def test_shapes_and_nonnegative(self):
        d = gene_expression(200, 64, n_disease_genes=8, seed=1)
        assert d.expression.shape == (200, 64)
        assert np.all(d.expression >= 0)
        assert d.n_patients == 200
        assert d.n_genes == 64
        assert len(d.disease_genes) == 8

    def test_planted_signal(self):
        d = gene_expression(2000, 64, n_disease_genes=8, effect_size=2.0, seed=2)
        cases = d.expression[d.is_case]
        controls = d.expression[~d.is_case]
        gene = d.disease_genes[0]
        other = next(g for g in range(64) if g not in set(d.disease_genes))
        assert cases[:, gene].mean() > controls[:, gene].mean() + 0.5
        assert abs(cases[:, other].mean() - controls[:, other].mean()) < 0.5

    def test_too_many_disease_genes_rejected(self):
        with pytest.raises(ConfigurationError):
            gene_expression(10, 4, n_disease_genes=8)
