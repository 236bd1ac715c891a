"""Auto-tuning of the global-load-balancing thresholds (paper §5, Table 2).

The decision whether to run the global load balancer — per stage, with a
separate threshold set when the longest row needs one of the largest
kernel configurations — is tuned exactly as in the paper:

1. benchmark every training matrix under all four combinations of
   (symbolic LB on/off) × (numeric LB on/off);
2. define the loss of a threshold assignment as the *average slowdown* of
   the combination it selects relative to the best of the four (not the
   count of correct picks — the paper tunes for bounded regret);
3. minimise by coordinate line search over the eight threshold values;
4. validate with inverse 3-fold cross-validation (train on one third,
   evaluate on the other two) and average the per-fold optima into the
   shipped parameter set.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

import numpy as np

from ..eval.suite import MatrixCase
from ..gpu import DeviceSpec, TITAN_V
from .config import build_configs
from .context import MultiplyContext
from .global_lb import largest_config, numeric_inputs, symbolic_inputs
from .params import DEFAULT_PARAMS, LbThresholds, SpeckParams
from .speck import SpeckEngine

__all__ = ["MatrixFeatures", "TuningResult", "measure_combos", "tune", "autotune"]

#: The four (symbolic, numeric) load-balancing combinations.
COMBOS: Tuple[Tuple[bool, bool], ...] = (
    (False, False),
    (True, False),
    (False, True),
    (True, True),
)


@dataclass
class MatrixFeatures:
    """Decision inputs for one matrix (all available from cheap analysis)."""

    name: str
    ratio_sym: float
    ratio_num: float
    rows: int
    largest_cfg_sym: int
    largest_cfg_num: int
    #: time of each combination, indexed like :data:`COMBOS`.
    times: np.ndarray = field(default_factory=lambda: np.zeros(4))


@dataclass
class TuningResult:
    """Outcome of the auto-tuning run."""

    params: SpeckParams
    #: Average slowdown (vs best combo) per CV fold on its *test* set.
    fold_slowdowns: List[float]
    #: Average slowdown of the final averaged parameters on all matrices.
    final_slowdown: float
    #: Fraction of matrices where the final parameters pick the best combo.
    accuracy: float
    features: List[MatrixFeatures] = field(default_factory=list)

    def table2(self) -> Dict[str, Dict[str, float]]:
        """The Table 2 layout: tuned thresholds per stage."""
        s, n = self.params.symbolic_lb, self.params.numeric_lb
        return {
            "symbolic": {
                "ratio": s.ratio,
                "rows": s.min_rows,
                "ratio*": s.ratio_large,
                "rows*": s.min_rows_large,
            },
            "numeric": {
                "ratio": n.ratio,
                "rows": n.min_rows,
                "ratio*": n.ratio_large,
                "rows*": n.min_rows_large,
            },
        }


def measure_combos(
    cases: Sequence[MatrixCase], device: DeviceSpec = TITAN_V
) -> List[MatrixFeatures]:
    """Benchmark all four LB combinations for every matrix."""
    feats: List[MatrixFeatures] = []
    configs = build_configs(device)
    for case in cases:
        a, b = case.matrices()
        ctx = MultiplyContext(a, b)
        _, ratio_sym, max_sym = symbolic_inputs(ctx.analysis)
        _, ratio_num, max_num = numeric_inputs(ctx.c_row_nnz, DEFAULT_PARAMS)
        f = MatrixFeatures(
            name=case.name,
            ratio_sym=ratio_sym,
            ratio_num=ratio_num,
            rows=a.rows,
            largest_cfg_sym=largest_config(max_sym, configs, "symbolic"),
            largest_cfg_num=largest_config(max_num, configs, "numeric"),
        )
        for i, (lb_s, lb_n) in enumerate(COMBOS):
            params = SpeckParams(force_lb_symbolic=lb_s, force_lb_numeric=lb_n)
            res = SpeckEngine(device, params).multiply(a, b, ctx=ctx)
            f.times[i] = res.time_s if res.valid else float("inf")
        feats.append(f)
        case.release()
    return feats


def _decide(f: MatrixFeatures, sym: LbThresholds, num: LbThresholds, n_cfg: int) -> int:
    """Index into :data:`COMBOS` selected by a threshold assignment."""
    lb_s = sym.decide(f.ratio_sym, f.rows, f.largest_cfg_sym, n_cfg)
    lb_n = num.decide(f.ratio_num, f.rows, f.largest_cfg_num, n_cfg)
    return COMBOS.index((lb_s, lb_n))


def _loss(
    feats: Sequence[MatrixFeatures],
    sym: LbThresholds,
    num: LbThresholds,
    n_cfg: int,
) -> float:
    """Average slowdown of the selected combo relative to the best combo."""
    slow = []
    for f in feats:
        t = f.times[_decide(f, sym, num, n_cfg)]
        best = f.times.min()
        slow.append(t / best if best > 0 and np.isfinite(t) else 10.0)
    return float(np.mean(slow)) if slow else 1.0


def _candidate_grid(values: np.ndarray) -> np.ndarray:
    """Threshold candidates bracketing the observed feature values."""
    values = values[np.isfinite(values) & (values > 0)]
    if values.size == 0:
        return np.array([1.0])
    lo, hi = values.min() * 0.5, values.max() * 2.0
    return np.unique(np.geomspace(max(lo, 1e-3), max(hi, 1e-2), 24))


def tune(
    feats: Sequence[MatrixFeatures],
    *,
    n_cfg: int = 6,
    sweeps: int = 3,
    base: SpeckParams | None = None,
) -> SpeckParams:
    """Coordinate line search over the eight thresholds (multi-start).

    Coordinate descent on this loss is order- and start-dependent, so the
    search is restarted from several threshold scales and the best final
    assignment wins.
    """
    if base is None:
        starts = [
            SpeckParams(),
            SpeckParams(
                symbolic_lb=_replace_threshold(
                    SpeckParams().symbolic_lb, ratio=2.0, min_rows=100
                ),
                numeric_lb=_replace_threshold(
                    SpeckParams().numeric_lb, ratio=2.0, min_rows=100
                ),
            ),
            SpeckParams(
                symbolic_lb=LbThresholds(50.0, 20_000, 50.0, 5000, 3),
                numeric_lb=LbThresholds(50.0, 20_000, 50.0, 5000, 2),
            ),
        ]
        candidates = [
            tune(feats, n_cfg=n_cfg, sweeps=sweeps, base=s) for s in starts
        ]
        return min(
            candidates,
            key=lambda p: _loss(feats, p.symbolic_lb, p.numeric_lb, n_cfg),
        )
    sym, num = base.symbolic_lb, base.numeric_lb
    ratio_sym = np.array([f.ratio_sym for f in feats])
    ratio_num = np.array([f.ratio_num for f in feats])
    rows = np.array([float(f.rows) for f in feats])
    grids = {
        "ratio": _candidate_grid(ratio_sym),
        "rows": _candidate_grid(rows),
        "ratio_n": _candidate_grid(ratio_num),
    }
    for _ in range(sweeps):
        for stage in ("sym", "num"):
            for name in ("ratio", "min_rows", "ratio_large", "min_rows_large"):
                grid = (
                    grids["rows"]
                    if "rows" in name
                    else (grids["ratio"] if stage == "sym" else grids["ratio_n"])
                )
                best_loss, best_val = np.inf, None
                for v in grid:
                    cand_sym, cand_num = sym, num
                    kwargs = {name: float(v) if "ratio" in name else int(v)}
                    if stage == "sym":
                        cand_sym = _replace_threshold(sym, **kwargs)
                    else:
                        cand_num = _replace_threshold(num, **kwargs)
                    loss = _loss(feats, cand_sym, cand_num, n_cfg)
                    if loss < best_loss - 1e-12:
                        best_loss, best_val = loss, v
                if best_val is not None:
                    kwargs = {
                        name: float(best_val) if "ratio" in name else int(best_val)
                    }
                    if stage == "sym":
                        sym = _replace_threshold(sym, **kwargs)
                    else:
                        num = _replace_threshold(num, **kwargs)
    return base.with_overrides(symbolic_lb=sym, numeric_lb=num)


def _replace_threshold(t: LbThresholds, **kwargs) -> LbThresholds:
    vals = {
        "ratio": t.ratio,
        "min_rows": t.min_rows,
        "ratio_large": t.ratio_large,
        "min_rows_large": t.min_rows_large,
        "n_large_kernels": t.n_large_kernels,
    }
    vals.update(kwargs)
    return LbThresholds(**vals)


def autotune(
    cases: Sequence[MatrixCase],
    device: DeviceSpec = TITAN_V,
    *,
    folds: int = 3,
    seed: int = 0,
) -> TuningResult:
    """Full §5 procedure: measure, tune per fold (inverse CV), average."""
    feats = measure_combos(cases, device)
    n_cfg = len(build_configs(device))
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(feats))
    fold_of = order % folds

    fold_params: List[SpeckParams] = []
    fold_slowdowns: List[float] = []
    for k in range(folds):
        train = [feats[i] for i in range(len(feats)) if fold_of[i] == k]
        test = [feats[i] for i in range(len(feats)) if fold_of[i] != k]
        if not train or not test:
            continue
        p = tune(train, n_cfg=n_cfg)
        fold_params.append(p)
        fold_slowdowns.append(_loss(test, p.symbolic_lb, p.numeric_lb, n_cfg) - 1.0)

    if fold_params:
        averaged = SpeckParams(
            symbolic_lb=_avg_thresholds([p.symbolic_lb for p in fold_params]),
            numeric_lb=_avg_thresholds([p.numeric_lb for p in fold_params]),
        )
        # The paper averages the fold optima because they "converge to
        # similar values"; on small corpora they may not, so fall back to
        # the best candidate under the full-set loss.
        candidates = [averaged] + fold_params
        final = min(
            candidates,
            key=lambda p: _loss(feats, p.symbolic_lb, p.numeric_lb, n_cfg),
        )
    else:  # pragma: no cover - degenerate corpus
        final = SpeckParams()

    final_slow = _loss(feats, final.symbolic_lb, final.numeric_lb, n_cfg) - 1.0
    correct = sum(
        1
        for f in feats
        if f.times[_decide(f, final.symbolic_lb, final.numeric_lb, n_cfg)]
        <= f.times.min() * (1 + 1e-9)
    )
    return TuningResult(
        params=final,
        fold_slowdowns=fold_slowdowns,
        final_slowdown=final_slow,
        accuracy=correct / max(1, len(feats)),
        features=list(feats),
    )


def _avg_thresholds(ts: List[LbThresholds]) -> LbThresholds:
    """Geometric mean of per-fold thresholds (they live on a log scale)."""
    gm = lambda vals: float(np.exp(np.mean(np.log(np.maximum(vals, 1e-9)))))
    return LbThresholds(
        ratio=gm([t.ratio for t in ts]),
        min_rows=int(gm([t.min_rows for t in ts])),
        ratio_large=gm([t.ratio_large for t in ts]),
        min_rows_large=int(gm([t.min_rows_large for t in ts])),
        n_large_kernels=ts[0].n_large_kernels,
    )
