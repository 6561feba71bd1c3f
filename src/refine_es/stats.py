"""Robust aggregate statistics over multi-seed runs: interquartile mean,
stratified bootstrap confidence intervals, Mann-Whitney probability of
improvement, and performance profiles.

A score matrix maps task id -> per-seed final success rates. The aggregate
statistic for a method pools every task x seed value. The statistics work on
the last axis and accept leading (resample) axes; on 1-D input they return a
Python float.
"""

from __future__ import annotations

import numpy as np

from .errors import ContractError

# elements of one (resamples, n_a, n_b) comparison block in prob_improvement
_COMPARE_BLOCK = 1 << 20
CI_LEVEL = 0.95  # of every bootstrap CI, as the report states


def _as_float(x):
    return float(x) if np.ndim(x) == 0 else x


def iqm(samples):
    """Mean of the middle 50%: sort, drop floor(n/4) from each end. For
    n <= 4 nothing is dropped and this equals the plain mean."""
    x = np.sort(np.asarray(samples, dtype=float), axis=-1)
    n = x.shape[-1]
    if n == 0:
        raise ContractError("iqm of an empty sample")
    k = n // 4
    return _as_float(x[..., k:n - k].mean(axis=-1))


def _pooled(matrix: dict) -> np.ndarray:
    return np.concatenate([np.asarray(v, dtype=float) for v in matrix.values()],
                          axis=-1)


def pooled_iqm(matrix: dict):
    return iqm(_pooled(matrix))


def pooled_mean(matrix: dict):
    return _as_float(np.mean(_pooled(matrix), axis=-1))


def _resample_indices(counts: list[int], resamples: int,
                      seed: int) -> list[np.ndarray]:
    """(resamples, n) seed-index draws per task of n seeds, in the stream
    order of one rng.integers(0, n, n) call per resample and task: one
    call draws them all, a resample's tasks side by side in its row."""
    draws = np.random.Generator(np.random.PCG64(seed)).integers(
        0, np.repeat(counts, counts), (resamples, sum(counts)))
    return np.split(draws, np.cumsum(counts)[:-1], axis=1)


def stratified_bootstrap_ci(matrix: dict, statistic, resamples: int = 2000,
                            seed: int = 0):
    """Percentile bootstrap CI at `CI_LEVEL` for statistic(matrix); seeds
    are resampled with replacement independently within each task stratum.
    Seeds lie on the last axis, so the rows of a stacked (k, n_seeds) array
    are resampled jointly (paired). The statistic is called once, with
    every task's resamples stacked on a new leading axis, (resamples, ...,
    n_seeds), and returns one value per resample."""
    tasks = sorted(matrix)
    arrays = [np.asarray(matrix[t], dtype=float) for t in tasks]
    draws = _resample_indices([a.shape[-1] for a in arrays], resamples, seed)
    resampled = {t: np.moveaxis(a[..., idx], -2, 0)
                 for t, a, idx in zip(tasks, arrays, draws)}
    stats = np.asarray(statistic(resampled), dtype=float)
    if stats.shape != (resamples,):
        raise ContractError(f"the statistic returned shape {stats.shape}, "
                            f"expected one value per resample ({resamples},)")
    tail = (1.0 - CI_LEVEL) / 2.0
    lo, hi = np.quantile(stats, [tail, 1.0 - tail])
    return float(lo), float(hi)


def prob_improvement(a, b):
    """Mann-Whitney probability that a random score from a beats one from b,
    ties counted half. Leading axes of a and b are paired batch axes."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    na, nb = a.shape[-1], b.shape[-1]
    if na == 0 or nb == 0:
        raise ContractError("prob_improvement needs non-empty samples")
    lead = a.shape[:-1]
    if b.shape[:-1] != lead:
        raise ContractError("prob_improvement needs equal leading axes")
    a, b = a.reshape(-1, na), b.reshape(-1, nb)
    out = np.empty(a.shape[0])
    step = max(1, _COMPARE_BLOCK // (na * nb))
    for s in range(0, a.shape[0], step):
        x, y = a[s:s + step, :, None], b[s:s + step, None, :]
        gt = (x > y).sum(axis=(1, 2))
        eq = (x == y).sum(axis=(1, 2))
        out[s:s + step] = (gt + 0.5 * eq) / (na * nb)
    return float(out[0]) if not lead else out.reshape(lead)


def performance_profile(scores, thresholds) -> np.ndarray:
    """fraction of runs with score > tau, per tau; non-increasing in tau."""
    scores = np.asarray(scores, dtype=float)
    thresholds = np.asarray(thresholds, dtype=float)
    return (scores[None, :] > thresholds[:, None]).mean(axis=1)


def _by_seed(scores) -> dict:
    """{seed id: score} in ascending seed order; the scores of a plain
    sequence are keyed by their position."""
    pairs = scores.items() if isinstance(scores, dict) else enumerate(scores)
    return dict(sorted((int(s), float(v)) for s, v in pairs))


def aggregate_report(matrices: dict, baseline: str | None = None,
                     resamples: int = 2000, seed: int = 0) -> dict:
    """Per-method IQM/mean with 95% stratified bootstrap CIs, probability of
    improvement vs the baseline method, and per-task mean +/- std.

    matrices: method -> {task -> per-seed scores}, either {seed id: score}
    or a sequence indexed by seed. Seed columns are taken in ascending seed
    order. P(improvement) and its paired CI use only the seeds that the
    method and the baseline both have, task by task; with no seed in
    common, neither is reported.
    """
    methods = sorted(matrices)
    if baseline is None:
        baseline = "ppo_only" if "ppo_only" in matrices else methods[0]
    report = {"baseline": baseline, "methods": {}, "per_task": {},
              "ci": {"kind": "stratified percentile bootstrap",
                     "resamples": resamples, "level": CI_LEVEL}}
    by_seed = {m: {t: _by_seed(v) for t, v in matrices[m].items()}
               for m in methods}
    columns = {m: {t: np.array(list(c.values())) for t, c in by_seed[m].items()}
               for m in methods}
    for method in methods:
        matrix = columns[method]
        entry = {
            "iqm": pooled_iqm(matrix),
            "iqm_ci": stratified_bootstrap_ci(matrix, pooled_iqm, resamples,
                                              seed=seed),
            "mean": pooled_mean(matrix),
            "mean_ci": stratified_bootstrap_ci(matrix, pooled_mean, resamples,
                                               seed=seed),
        }
        if method != baseline:
            # (method, baseline) rows per task over their common seeds: the
            # estimate and its CI compare the same seeds, and the CI
            # resamples the seed columns jointly
            paired = {}
            for t, own in by_seed[method].items():
                base = by_seed.get(baseline, {}).get(t, {})
                common = sorted(own.keys() & base.keys())
                if common:
                    paired[t] = np.array([[own[s] for s in common],
                                          [base[s] for s in common]])
            if paired:
                entry["p_improvement"] = prob_improvement(*_pooled(paired))
                entry["p_improvement_ci"] = stratified_bootstrap_ci(
                    paired, lambda res: prob_improvement(
                        *_pooled(res).swapaxes(0, 1)),
                    resamples, seed=seed)
        report["methods"][method] = entry
    tasks = sorted({t for m in matrices.values() for t in m})
    for task in tasks:
        report["per_task"][task] = {
            method: {"mean": float(np.mean(columns[method][task])),
                     "std": float(np.std(columns[method][task]))}
            for method in methods if task in columns[method]}
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
        if "p_improvement" in e:  # with its CI, over the same seeds
            poi = (f"{_fmt_pct(e['p_improvement'])} "
                   f"({_fmt_pct(e['p_improvement_ci'][0])}-"
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
