"""Robust aggregate statistics over multi-seed runs: interquartile mean,
stratified bootstrap confidence intervals, Mann-Whitney probability of
improvement, and performance profiles.

A score matrix maps task id -> per-seed final success rates (same seed count
per task). The aggregate statistic for a method pools every task x seed value.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ContractError


def iqm(samples) -> float:
    """Mean of the middle 50%: sort, drop floor(n/4) from each end. For
    n <= 4 nothing is dropped and this equals the plain mean."""
    x = np.sort(np.asarray(samples, dtype=float))
    n = x.shape[0]
    if n == 0:
        raise ContractError("iqm of an empty sample")
    k = n // 4
    return float(x[k:n - k].mean())


def pooled_iqm(matrix: dict) -> float:
    return iqm(np.concatenate([np.asarray(v, dtype=float) for v in matrix.values()]))


def pooled_mean(matrix: dict) -> float:
    return float(np.mean(np.concatenate(
        [np.asarray(v, dtype=float) for v in matrix.values()])))


def stratified_bootstrap_ci(matrix: dict, statistic, resamples: int = 2000,
                            level: float = 0.95, seed: int = 0):
    """Percentile bootstrap CI for statistic(matrix); seeds are resampled with
    replacement independently within each task stratum. Seeds lie on the
    last axis, so the rows of a stacked (k, n_seeds) array are resampled
    jointly (paired)."""
    rng = np.random.Generator(np.random.PCG64(seed))
    tasks = sorted(matrix)
    arrays = {t: np.asarray(matrix[t], dtype=float) for t in tasks}
    stats = np.empty(resamples)
    for b in range(resamples):
        resampled = {}
        for t in tasks:
            n = arrays[t].shape[-1]
            resampled[t] = arrays[t][..., rng.integers(0, n, n)]
        stats[b] = statistic(resampled)
    tail = (1.0 - level) / 2.0
    lo, hi = np.quantile(stats, [tail, 1.0 - tail])
    return float(lo), float(hi)


def prob_improvement(a, b) -> float:
    """Mann-Whitney probability that a random score from a beats one from b,
    ties counted half."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.size == 0 or b.size == 0:
        raise ContractError("prob_improvement needs non-empty samples")
    gt = (a[:, None] > b[None, :]).sum()
    eq = (a[:, None] == b[None, :]).sum()
    return float((gt + 0.5 * eq) / (a.size * b.size))


def performance_profile(scores, thresholds) -> np.ndarray:
    """fraction of runs with score > tau, per tau; non-increasing in tau."""
    scores = np.asarray(scores, dtype=float)
    thresholds = np.asarray(thresholds, dtype=float)
    return (scores[None, :] > thresholds[:, None]).mean(axis=1)


def aggregate_report(matrices: dict, baseline: str | None = None,
                     resamples: int = 2000, seed: int = 0) -> dict:
    """Per-method IQM/mean with 95% stratified bootstrap CIs, probability of
    improvement vs the baseline method, and per-task mean +/- std.

    matrices: method -> {task -> per-seed scores}.
    """
    methods = sorted(matrices)
    if baseline is None:
        baseline = "ppo_only" if "ppo_only" in matrices else methods[0]
    report = {"baseline": baseline, "methods": {}, "per_task": {},
              "ci": {"kind": "stratified percentile bootstrap",
                     "resamples": resamples, "level": 0.95}}
    for method in methods:
        matrix = matrices[method]
        entry = {
            "iqm": pooled_iqm(matrix),
            "iqm_ci": stratified_bootstrap_ci(matrix, pooled_iqm, resamples,
                                              seed=seed),
            "mean": pooled_mean(matrix),
            "mean_ci": stratified_bootstrap_ci(matrix, pooled_mean, resamples,
                                               seed=seed),
        }
        if method != baseline and baseline in matrices:
            base = matrices[baseline]
            entry["p_improvement"] = prob_improvement(
                np.concatenate([np.asarray(v) for v in matrix.values()]),
                np.concatenate([np.asarray(v) for v in base.values()]))
            # (method, baseline) rows per task, so seed columns resample jointly
            paired = {t: np.stack([matrix[t], base[t]])
                      for t in matrix if t in base}
            entry["p_improvement_ci"] = stratified_bootstrap_ci(
                paired, lambda res: prob_improvement(
                    *np.concatenate(list(res.values()), axis=1)),
                resamples, seed=seed)
        report["methods"][method] = entry
    tasks = sorted({t for m in matrices.values() for t in m})
    for task in tasks:
        report["per_task"][task] = {
            method: {"mean": float(np.mean(matrices[method][task])),
                     "std": float(np.std(matrices[method][task]))}
            for method in methods if task in matrices[method]}
    return report


def _fmt_pct(x: float) -> str:
    return f"{100.0 * x:.1f}%"


def render_report(report: dict) -> str:
    """Text tables: aggregate (IQM/mean/CIs/P(improvement)) then per-task
    mean +/- std."""
    lines = []
    baseline = report["baseline"]
    header = f"{'Method':<24} {'IQM (95% CI)':<26} {'Mean (95% CI)':<26} P(Improvement vs {baseline})"
    lines.append(header)
    lines.append("-" * len(header))
    for method, e in sorted(report["methods"].items()):
        iqm_s = f"{_fmt_pct(e['iqm'])} ({_fmt_pct(e['iqm_ci'][0])}-{_fmt_pct(e['iqm_ci'][1])})"
        mean_s = f"{_fmt_pct(e['mean'])} ({_fmt_pct(e['mean_ci'][0])}-{_fmt_pct(e['mean_ci'][1])})"
        if "p_improvement" in e:
            poi = f"{_fmt_pct(e['p_improvement'])}"
            if "p_improvement_ci" in e:
                poi += (f" ({_fmt_pct(e['p_improvement_ci'][0])}-"
                        f"{_fmt_pct(e['p_improvement_ci'][1])})")
        else:
            poi = "--"
        lines.append(f"{method:<24} {iqm_s:<26} {mean_s:<26} {poi}")
    lines.append("")
    lines.append(f"{'Task':<16} " + " ".join(
        f"{m:<24}" for m in sorted(report["methods"])))
    for task, row in sorted(report["per_task"].items()):
        cells = []
        for method in sorted(report["methods"]):
            if method in row:
                cells.append(f"{_fmt_pct(row[method]['mean'])} +/- "
                             f"{_fmt_pct(row[method]['std'])}")
            else:
                cells.append("missing")
        lines.append(f"{task:<16} " + " ".join(f"{c:<24}" for c in cells))
    lines.append("")
    ci = report["ci"]
    lines.append(f"CIs: {ci['kind']}, {ci['resamples']} resamples, "
                 f"level {ci['level']}.")
    return "\n".join(lines)
