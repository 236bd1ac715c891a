"""Evaluation corpus: a synthetic SuiteSparse-like collection.

The paper evaluates on 2672 real matrices.  We generate a corpus that
spans the same structural families and size spectrum (see DESIGN.md for
the substitution argument), scaled so the whole suite runs in minutes on a
CPU-only machine: products per matrix range from a few hundred to a few
million (the paper's axis extends further; the crossovers of interest —
the ≈15k-product GPU/CPU boundary, the binning break-even, the dense-
accumulator break-even — all fall inside the covered range).

Also provides scaled stand-ins for the 11 "common matrices" of Table 4 /
Figs. 8–11, matched to their published structural statistics (row counts,
NNZ/row, compaction, skew) at ≈1/16 of the product volume.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional, Tuple

from ..matrices import generators as gen
from ..matrices.csr import CSR

__all__ = ["MatrixCase", "full_corpus", "common_matrices", "small_corpus"]


@dataclass
class MatrixCase:
    """One benchmark input: a named (A, B) pair built on demand.

    Square matrices multiply as C = A·A; rectangular ones as C = A·Aᵀ with
    the transpose precomputed — the paper's §6 methodology.
    """

    name: str
    family: str
    build_a: Callable[[], CSR]
    rectangular: bool = False
    tags: Tuple[str, ...] = ()
    _cache: Optional[Tuple[CSR, CSR]] = field(default=None, repr=False)

    def matrices(self) -> Tuple[CSR, CSR]:
        """Materialise (A, B), caching the result."""
        if self._cache is None:
            a = self.build_a()
            b = a.transpose() if self.rectangular else a
            self._cache = (a, b)
        return self._cache

    def release(self) -> None:
        """Drop the cached matrices (keeps corpus sweeps memory-bounded)."""
        self._cache = None

    @classmethod
    def from_matrices(
        cls,
        name: str,
        family: str,
        a: CSR,
        b: CSR,
        tags: Tuple[str, ...] = (),
    ) -> "MatrixCase":
        """A case over already-materialised operands.

        For callers that hold (A, B) already, such as a benchmark replaying
        its own operands through :func:`~repro.eval.harness.run_suite`;
        the pair is pre-cached so :meth:`matrices` never runs ``build_a``.
        """
        case = cls(
            name=name,
            family=family,
            build_a=lambda: a,
            rectangular=False,
            tags=tags,
        )
        case._cache = (a, b)
        return case


def _case(
    name: str,
    family: str,
    fn: Callable[..., CSR],
    *args,
    rectangular: bool = False,
    tags: Tuple[str, ...] = (),
    **kwargs,
) -> MatrixCase:
    return MatrixCase(
        name=name,
        family=family,
        build_a=lambda: fn(*args, **kwargs),
        rectangular=rectangular,
        tags=tags,
    )


def full_corpus() -> List[MatrixCase]:
    """The main synthetic corpus (~100 matrices across seven families)."""
    cases: List[MatrixCase] = []

    # FEM / banded: uniform rows, strong locality.  (The widest/largest
    # combinations are trimmed to keep the exact-multiply budget of the
    # whole corpus a few tens of millions of products.)
    for n in (100, 300, 1000, 3000, 10_000, 30_000, 60_000):
        cases.append(_case(f"banded_n{n}_b2", "banded", gen.banded, n, 2, seed=n + 2))
    for n in (100, 300, 1000, 3000, 10_000, 30_000):
        cases.append(_case(f"banded_n{n}_b8", "banded", gen.banded, n, 8, seed=n + 8))
    for n in (300, 1000, 4000, 12_000):
        cases.append(_case(f"banded_n{n}_b24", "banded", gen.banded, n, 24, 0.7, seed=n))

    # Mesh Laplacians.
    for nx in (10, 20, 40, 80, 160, 300):
        cases.append(_case(f"poisson2d_{nx}", "mesh", gen.poisson2d, nx))
    for nx in (5, 9, 14, 22, 32):
        cases.append(_case(f"poisson3d_{nx}", "mesh", gen.poisson3d, nx))

    # Circuit: diagonal + sparse couplings, many single-entry rows.
    for n in (200, 1000, 5000, 20_000, 80_000):
        cases.append(_case(f"circuit_{n}", "circuit", gen.circuit, n, seed=n))
        cases.append(
            _case(f"circuit_dense_{n}", "circuit", gen.circuit, n, 6.0, 0.1, seed=n + 1)
        )

    # Power-law graphs (web / social).
    for scale in (7, 8, 9, 10, 11, 12):
        for ef in (4, 8):
            cases.append(
                _case(f"rmat_s{scale}_e{ef}", "powerlaw", gen.rmat, scale, ef, seed=scale * ef)
            )
    for scale in (8, 10):
        cases.append(
            _case(f"rmat_s{scale}_e16", "powerlaw", gen.rmat, scale, 16, seed=scale)
        )

    # Erdős–Rényi.
    for n in (300, 1000, 3000, 10_000, 30_000):
        for k in (4, 16):
            cases.append(
                _case(f"er_n{n}_k{k}", "uniform", gen.random_uniform, n, n, float(k), seed=n + k)
            )

    # Rectangular LP-like, multiplied as A·Aᵀ.
    for rows, cols in ((100, 800), (500, 4000), (2000, 16_000), (8000, 64_000)):
        cases.append(
            _case(
                f"lp_{rows}x{cols}",
                "lp",
                gen.rect_lp,
                rows,
                cols,
                8,
                rectangular=True,
                seed=rows,
            )
        )

    # Dense output stripes (dense-accumulator territory).
    for n, w in ((500, 128), (2000, 512), (8000, 1024)):
        cases.append(
            _case(f"stripe_n{n}_w{w}", "stripe", gen.dense_stripe, n, w, 24, seed=n)
        )

    # Extreme skew: near-diagonal plus a handful of very long rows.
    for n, ll in ((1000, 500), (5000, 2000), (20_000, 4000), (60_000, 8000)):
        cases.append(
            _case(f"skew_n{n}_l{ll}", "skew", gen.skew_single, n, 6, ll, seed=n)
        )

    # Structural-mechanics-like dense blocks.
    for n, b in ((500, 32), (2000, 64), (8000, 64)):
        cases.append(
            _case(f"blocks_n{n}_b{b}", "blocks", gen.block_dense, n, b, 8, seed=n)
        )

    # Pure diagonals (all single-entry rows).
    for n in (100, 1000, 10_000, 100_000):
        cases.append(_case(f"diag_{n}", "diagonal", gen.diagonal, n, seed=n))

    return cases


def small_corpus() -> List[MatrixCase]:
    """A fast subset (one smallish case per family) for tests and CI."""
    return [
        _case("banded_small", "banded", gen.banded, 500, 6, seed=1),
        _case("mesh_small", "mesh", gen.poisson2d, 24),
        _case("circuit_small", "circuit", gen.circuit, 800, seed=2),
        _case("rmat_small", "powerlaw", gen.rmat, 9, 6, seed=3),
        _case("er_small", "uniform", gen.random_uniform, 600, 600, 6.0, seed=4),
        _case("lp_small", "lp", gen.rect_lp, 150, 1200, 8, rectangular=True, seed=5),
        _case("stripe_small", "stripe", gen.dense_stripe, 400, 128, 16, seed=6),
        _case("skew_small", "skew", gen.skew_single, 1500, 4, 600, seed=7),
        _case("diag_small", "diagonal", gen.diagonal, 500, seed=8),
    ]


def common_matrices() -> List[MatrixCase]:
    """Stand-ins for the paper's 11 common matrices (Table 4).

    Each is matched to the real matrix's structural profile — NNZ/row,
    skewness, compaction factor, rectangularity — at reduced scale; the
    mapping is documented case by case.
    """
    return [
        # webbase-1M: web graph, avg 3.1 NNZ/row, heavy tail, compaction 1.4.
        _case("webbase", "common", gen.rmat, 13, 3, 0.6, 0.17, 0.17, seed=11),
        # hugebubbles: enormous near-1D mesh, exactly 3 NNZ/row, uniform.
        _case("hugebubbles", "common", gen.banded, 60_000, 1, seed=12),
        # mario002: 2D mesh, 5.4 NNZ/row, uniform.
        _case("mario002", "common", gen.poisson2d, 150),
        # stat96v2: 29k x 957k LP constraints, multiplied A·Aᵀ; medium rows
        # in A, very short rows in the transposed factor.
        _case(
            "stat96v2",
            "common",
            gen.rect_lp,
            2600,
            16_000,
            32,
            n_clusters=120,
            rectangular=True,
            seed=13,
        ),
        # email-Enron: social network, extreme degree skew.
        _case("email-Enron", "common", gen.rmat, 12, 10, 0.57, 0.19, 0.19, seed=14),
        # cage13: DNA electrophoresis, ~17 NNZ/row with locality.
        _case("cage13", "common", gen.banded, 28_000, 8, 0.95, seed=15),
        # 144: 3D FEM mesh, ~15 NNZ/row uniform.
        _case("144", "common", gen.banded, 9000, 7, seed=16),
        # poisson3Da: 13.5k-row 3D Laplacian (sizes match almost exactly).
        _case("poisson3Da", "common", gen.poisson3d, 24),
        # QCD: 3.1k rows, 32 NNZ/row, dense local structure.
        _case("QCD", "common", gen.banded, 3072, 16, seed=17),
        # harbor: 47k rows, 51 NNZ/row, dense blocks, compaction ~20.
        _case(
            "harbor", "common", gen.block_dense, 6000, 48, 40, 2.0, seed=18
        ),
        # TSC_OPF: 8.1k rows, 247 NNZ/row, compaction >150 — few large
        # dense blocks dominate.
        _case(
            "TSC_OPF", "common", gen.block_dense, 2048, 64, 16, 1.0, seed=19
        ),
    ]
