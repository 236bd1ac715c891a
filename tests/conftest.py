"""Shared fixtures and hypothesis strategies for the test suite."""

from __future__ import annotations

import os

import numpy as np
import pytest
from hypothesis import strategies as st

from repro.matrices.csr import CSR

from bench_configs import AFTER, run_config


def random_csr(
    rng: np.random.Generator,
    rows: int,
    cols: int,
    density: float = 0.05,
) -> CSR:
    """A random CSR matrix with approximately the given density."""
    nnz = max(0, int(rows * cols * density))
    r = rng.integers(0, rows, size=nnz)
    c = rng.integers(0, cols, size=nnz)
    v = rng.uniform(0.5, 2.0, size=nnz)
    return CSR.from_coo(r, c, v, (rows, cols))


@st.composite
def csr_matrices(
    draw,
    max_rows: int = 24,
    max_cols: int = 24,
    max_nnz: int = 80,
    square: bool = False,
):
    """Hypothesis strategy: small random CSR matrices (possibly empty)."""
    rows = draw(st.integers(min_value=1, max_value=max_rows))
    cols = rows if square else draw(st.integers(min_value=1, max_value=max_cols))
    nnz = draw(st.integers(min_value=0, max_value=max_nnz))
    r = draw(
        st.lists(
            st.integers(min_value=0, max_value=rows - 1),
            min_size=nnz,
            max_size=nnz,
        )
    )
    c = draw(
        st.lists(
            st.integers(min_value=0, max_value=cols - 1),
            min_size=nnz,
            max_size=nnz,
        )
    )
    v = draw(
        st.lists(
            st.floats(
                min_value=-8.0,
                max_value=8.0,
                allow_nan=False,
                allow_infinity=False,
            ),
            min_size=nnz,
            max_size=nnz,
        )
    )
    return CSR.from_coo(np.array(r), np.array(c), np.array(v), (rows, cols))


@pytest.fixture
def four_cores(monkeypatch):
    """Report four CPUs, so ``run_suite`` forks its worker pool even on
    a single-core machine."""
    monkeypatch.setattr(os, "cpu_count", lambda: 4)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


@pytest.fixture
def small_pairs(rng):
    """A few deterministic (A, B) multiplication pairs spanning families."""
    from repro.matrices.generators import (
        banded,
        circuit,
        dense_stripe,
        poisson2d,
        rect_lp,
        rmat,
        skew_single,
    )

    pairs = []
    for a in (
        banded(120, 4, seed=1),
        poisson2d(12),
        circuit(200, seed=2),
        rmat(7, 6, seed=3),
        dense_stripe(80, 32, 8, seed=4),
        skew_single(150, 2, 60, seed=5),
    ):
        pairs.append((a, a))
    lp = rect_lp(40, 300, 6, seed=6)
    pairs.append((lp, lp.transpose()))
    return pairs


@pytest.fixture(scope="session")
def bench_report(tmp_path_factory):
    """``name -> (exit code, --json text)`` of one :mod:`bench_configs`
    run, run at most once per session and shared by every test."""
    root = str(tmp_path_factory.mktemp("bench-stores"))
    cache = {}

    def get(name):
        if name not in cache:
            for first in AFTER.get(name, ()):
                get(first)
            cache[name] = run_config(name, root)
        return cache[name]

    return get
