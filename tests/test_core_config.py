"""Unit tests for :mod:`repro.core.config`."""

from __future__ import annotations

import pytest

from repro.core.config import (
    DEFAULT_SPAN_LIMIT,
    PAPER_ALPHA,
    PAPER_EPSILON,
    SelectionConfig,
)
from repro.exceptions import SelectionError


class TestDefaults:
    def test_paper_constants(self):
        cfg = SelectionConfig()
        assert cfg.epsilon == PAPER_EPSILON == 0.5
        assert cfg.alpha == PAPER_ALPHA == 20.0

    def test_default_span_limit(self):
        assert SelectionConfig().span_limit == DEFAULT_SPAN_LIMIT == 1

    def test_paper_factory(self):
        cfg = SelectionConfig.paper(span_limit=3)
        assert cfg.epsilon == 0.5
        assert cfg.alpha == 20.0
        assert cfg.span_limit == 3

    def test_frozen(self):
        cfg = SelectionConfig()
        with pytest.raises(AttributeError):
            cfg.alpha = 5.0  # type: ignore[misc]


class TestValidation:
    def test_epsilon_must_be_positive(self):
        with pytest.raises(SelectionError, match="epsilon"):
            SelectionConfig(epsilon=0.0)
        with pytest.raises(SelectionError):
            SelectionConfig(epsilon=-1.0)

    def test_alpha_nonnegative(self):
        with pytest.raises(SelectionError, match="alpha"):
            SelectionConfig(alpha=-0.5)
        SelectionConfig(alpha=0.0)  # zero is a legal ablation value

    def test_span_limit_nonnegative_or_none(self):
        with pytest.raises(SelectionError, match="span_limit"):
            SelectionConfig(span_limit=-1)
        SelectionConfig(span_limit=0)
        SelectionConfig(span_limit=None)

    def test_max_antichains_positive_or_none(self):
        for bad in (0, -5):
            with pytest.raises(SelectionError, match="max_antichains"):
                SelectionConfig(max_antichains=bad)
        SelectionConfig(max_antichains=1)
        SelectionConfig(max_antichains=None)
