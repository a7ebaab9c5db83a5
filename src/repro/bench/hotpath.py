"""Wall-clock benchmark for the fused (workspace) training hot path.

Measures the reference allocating kernels against the fused
zero-allocation kernels (``gradients_into`` / workspace-backed
``contrastive_divergence``) for the paper's two pre-training models, at
the paper-scale layer (batch 100, 4096 -> 1024) plus a quick shape for
CI smoke runs.

Protocol: ref and fused trials are interleaved and the minimum trial
time is reported, which suppresses thermal / scheduler noise far better
than a single averaged run.  Each row also records the max absolute
gradient difference between the two paths so the report doubles as an
equivalence check.

The JSON report is versioned (``schema``) and ``python -m repro bench
hotpath`` compares *speedup ratios* against the committed baseline —
ratios are stable across machines even when absolute milliseconds are
not.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.bench.suite import HIGHER, NUMBER, POSITIVE, Suite, check_equivalence

SCHEMA_ID = "repro.bench_hotpath/v1"

#: (batch, n_visible, n_hidden) — the paper's 4096→1024 layer, batch 100.
PAPER_SHAPES: Tuple[Tuple[int, int, int], ...] = ((100, 4096, 1024),)

#: Small shape for CI smoke runs (seconds, not minutes).
QUICK_SHAPES: Tuple[Tuple[int, int, int], ...] = ((64, 512, 256),)

#: Equivalence gate for the fused kernels (ISSUE acceptance criterion).
EQUIV_TOL = 1e-10

_SHAPE_KEYS = ("batch", "n_visible", "n_hidden")


def _bench_pair(ref, fused, trials: int, inner: int) -> Tuple[float, float]:
    """Interleaved min-of-trials timing of two callables, in ms."""
    for _ in range(2):  # warm-up: populate workspace buffers, JIT BLAS paths
        ref()
        fused()
    ref_times: List[float] = []
    fused_times: List[float] = []
    for _ in range(trials):
        t0 = time.perf_counter()
        for _ in range(inner):
            ref()
        ref_times.append((time.perf_counter() - t0) / inner)
        t0 = time.perf_counter()
        for _ in range(inner):
            fused()
        fused_times.append((time.perf_counter() - t0) / inner)
    return min(ref_times) * 1e3, min(fused_times) * 1e3


def _sae_row(
    batch: int, n_visible: int, n_hidden: int, trials: int, inner: int, seed: int
) -> Dict:
    from repro.nn.autoencoder import SparseAutoencoder
    from repro.runtime.workspace import Workspace

    rng = np.random.default_rng(seed)
    x = rng.random((batch, n_visible))
    sae = SparseAutoencoder(n_visible, n_hidden, seed=seed)
    ws = Workspace(name="bench-sae")

    loss_ref, g_ref = sae.gradients(x)
    loss_fused, g_fused = sae.gradients_into(x, ws)
    diff = max(
        abs(loss_ref - loss_fused),
        float(np.max(np.abs(g_ref.w1 - g_fused.w1))),
        float(np.max(np.abs(g_ref.b1 - g_fused.b1))),
        float(np.max(np.abs(g_ref.w2 - g_fused.w2))),
        float(np.max(np.abs(g_ref.b2 - g_fused.b2))),
    )

    lr = 1e-12  # keep parameters effectively fixed across timing reps

    def ref() -> None:
        _, grads = sae.gradients(x)
        sae.apply_update(grads, lr)

    def fused() -> None:
        _, grads = sae.gradients_into(x, ws)
        sae.apply_update(grads, lr, workspace=ws)

    ref_ms, fused_ms = _bench_pair(ref, fused, trials, inner)
    return _row("sae", batch, n_visible, n_hidden, ref_ms, fused_ms, diff)


def _rbm_row(
    batch: int, n_visible: int, n_hidden: int, trials: int, inner: int, seed: int
) -> Dict:
    from repro.nn.rbm import RBM
    from repro.runtime.workspace import Workspace

    rng = np.random.default_rng(seed)
    x = (rng.random((batch, n_visible)) < 0.5).astype(np.float64)
    rbm = RBM(n_visible, n_hidden, seed=seed)
    ws = Workspace(name="bench-rbm")

    s_ref = rbm.contrastive_divergence(x, rng=np.random.default_rng(seed))
    s_fused = rbm.contrastive_divergence(
        x, rng=np.random.default_rng(seed), workspace=ws
    )
    diff = max(
        float(np.max(np.abs(s_ref.grad_w - s_fused.grad_w))),
        float(np.max(np.abs(s_ref.grad_b - s_fused.grad_b))),
        float(np.max(np.abs(s_ref.grad_c - s_fused.grad_c))),
        abs(s_ref.reconstruction_error - s_fused.reconstruction_error),
    )

    lr = 1e-12
    gen_ref = np.random.default_rng(seed + 1)
    gen_fused = np.random.default_rng(seed + 1)

    def ref() -> None:
        stats = rbm.contrastive_divergence(x, rng=gen_ref)
        rbm.apply_update(stats, lr)

    def fused() -> None:
        stats = rbm.contrastive_divergence(x, rng=gen_fused, workspace=ws)
        rbm.apply_update(stats, lr, workspace=ws)

    ref_ms, fused_ms = _bench_pair(ref, fused, trials, inner)
    return _row("rbm", batch, n_visible, n_hidden, ref_ms, fused_ms, diff)


def _row(model, batch, n_visible, n_hidden, ref_ms, fused_ms, diff) -> Dict:
    return {
        "model": model,
        "batch": batch,
        "n_visible": n_visible,
        "n_hidden": n_hidden,
        "ref_ms": round(ref_ms, 3),
        "fused_ms": round(fused_ms, 3),
        # derived from the rounded fields so the report is self-consistent
        "speedup": round(round(ref_ms, 3) / round(fused_ms, 3), 4),
        "max_abs_diff": float(diff),
    }


def run_hotpath_bench(
    shapes: Optional[Sequence[Tuple[int, int, int]]] = None,
    trials: int = 8,
    inner: int = 4,
    seed: int = 0,
) -> Dict:
    """Run the hot-path benchmark and return the versioned report dict."""
    from repro.runtime.linalg import HAVE_BLAS

    if shapes is None:
        shapes = PAPER_SHAPES
    rows: List[Dict] = []
    for batch, n_visible, n_hidden in shapes:
        rows.append(_sae_row(batch, n_visible, n_hidden, trials, inner, seed))
        rows.append(_rbm_row(batch, n_visible, n_hidden, trials, inner, seed))
    return {
        "schema": SCHEMA_ID,
        "have_blas": bool(HAVE_BLAS),
        "equiv_tol": EQUIV_TOL,
        "rows": rows,
    }


def run(quick: bool = False, seed: int = 0) -> Dict:
    """The suite run: quick shapes, or quick + paper shapes (the baseline's)."""
    shapes = QUICK_SHAPES if quick else QUICK_SHAPES + PAPER_SHAPES
    trials, inner = (5, 3) if quick else (8, 4)
    return run_hotpath_bench(shapes, trials=trials, inner=inner, seed=seed)


def _display(row: Dict) -> str:
    shape = f"({row['batch']},{row['n_visible']}->{row['n_hidden']})"
    return (
        f"{row['model']:<4} {shape:<18} ref {row['ref_ms']:>8.1f} ms  "
        f"fused {row['fused_ms']:>8.1f} ms  {row['speedup']:>5.2f}x  "
        f"max|diff| {row['max_abs_diff']:.1e}"
    )


_FIELDS = {
    "model": None, "batch": None, "n_visible": None, "n_hidden": None,
    "ref_ms": POSITIVE, "fused_ms": POSITIVE, "speedup": POSITIVE,
    "max_abs_diff": NUMBER,
}

SUITE = Suite(
    name="hotpath",
    schema=SCHEMA_ID,
    run=run,
    fields={"sae": _FIELDS, "rbm": _FIELDS},
    kind_field="model",
    keys={"sae": _SHAPE_KEYS, "rbm": _SHAPE_KEYS},
    metrics=lambda row: (("speedup", HIGHER),),
    check=lambda report: check_equivalence(report, EQUIV_TOL),
    display=_display,
)
