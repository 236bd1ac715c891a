"""Sparse-matrix substrate: CSR/COO containers, MatrixMarket I/O, generators."""

from .coo import COO
from .csr import CSR, csr_identity, csr_zeros, expand_ranges
from .io_mm import MatrixMarketError, read_mtx, write_mtx

__all__ = [
    "CSR",
    "COO",
    "csr_identity",
    "csr_zeros",
    "expand_ranges",
    "read_mtx",
    "write_mtx",
    "MatrixMarketError",
]
