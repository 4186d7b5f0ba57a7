"""Compare propensity training schedules on the acceptance benchmark's corpora.

Each seed's inputs are built once, as acceptance criteria 3 and 4 build them
(`tests/test_acceptance.py` imports `preset_inputs`, `likes_report` and
`recovered` from here): the `confounded_spec` preset (+50 likes, and 0
likes), `synthetic_table(seed=999)`, `textsim.profile` and
`causal.build_unit_table`. For every schedule in `CANDIDATES` the script
rebinds `causal.PROPENSITY_BATCH_SIZE` and `causal.PROPENSITY_LEARNING_RATE`
and runs `causal.run_scenario` on both corpora, in-process. The whole
schedule is `causal.PROPENSITY_*` constants, which `train_propensity`
reads when it is called, so every candidate runs at the one epoch count,
`causal.PROPENSITY_EPOCHS`, and a study of the epochs can rebind that
constant the same way.

Per candidate it prints one Markdown table row:
- hits: +50-likes runs that `recovered` the effect (criterion 3's rule);
- null discarded: 0-likes runs whose likes report is discarded (criterion 4's);
- the mean and SD over seeds of the +50-likes estimate;
- balance passes: runs, of both corpora, in which all ten folds pass balance;
- the median `run_scenario` wall time over both corpora;
- against the first candidate: one-sided Fisher exact p-values that the
  hits and the null discards are lower (`scipy.stats.fisher_exact`), and
  each count's difference in proportion with its 95% Newcombe interval,
  built from scipy's Wilson intervals.

`SEEDS` must be seeds that the acceptance criteria do not use (they use
0-19). Run it as

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python scripts/propensity_schedule.py
"""

from __future__ import annotations

import math
import statistics
import time

from scipy.stats import binomtest, fisher_exact

from editlift import causal, synthbench, textsim

SEEDS = range(140, 180)
N_RECORDS = 5000
CANDIDATES = [(32, 1e-3), (64, 2e-3)]  # (batch size, learning rate); the first is the baseline

SCENARIO = causal.Scenario("edited-vs-mirrored", "synthwire",
                           causal.Selector("edited"), causal.Selector("mirrored"))
EFFECT_LIKES = 50.0
BAND = 0.15  # criterion 3's relative band around EFFECT_LIKES


def preset_inputs(seed: int, effect_likes: float):
    """The preset corpus at `N_RECORDS`, its ground truth and its unit table."""
    spec = synthbench.confounded_spec(n_records=N_RECORDS, effect_likes=effect_likes, seed=seed)
    corpus, truth = synthbench.generate(spec)
    table = synthbench.synthetic_table(spec, seed=999)
    profiles = textsim.profile(corpus, table)
    return corpus, truth, causal.build_unit_table(corpus, profiles, table, [SCENARIO.outlet])


def likes_report(units: causal.UnitTable, seed: int) -> causal.EateReport:
    return next(r for r in causal.run_scenario(units, SCENARIO, seed=seed)
                if r.metric == "likes")


def recovered(report: causal.EateReport) -> bool:
    """Criterion 3's hit: the estimate lies within ±15% of the +50-likes
    effect and its interval excludes 0."""
    return (abs(report.mean_eate - EFFECT_LIKES) <= BAND * EFFECT_LIKES
            and (report.ci_low > 0.0 or report.ci_high < 0.0))


def timed_report(units: causal.UnitTable, seed: int, batch_size: int,
                 learning_rate: float) -> tuple[causal.EateReport, float]:
    """`likes_report` under the given schedule, and its wall time."""
    saved = causal.PROPENSITY_BATCH_SIZE, causal.PROPENSITY_LEARNING_RATE
    causal.PROPENSITY_BATCH_SIZE, causal.PROPENSITY_LEARNING_RATE = batch_size, learning_rate
    try:
        start = time.perf_counter()
        report = likes_report(units, seed)
        return report, time.perf_counter() - start
    finally:
        causal.PROPENSITY_BATCH_SIZE, causal.PROPENSITY_LEARNING_RATE = saved


def newcombe_diff(a: int, n_a: int, b: int, n_b: int) -> tuple[float, float, float]:
    """a/n_a - b/n_b and its 95% interval by Newcombe's hybrid score method
    (1998, method 10). It treats the two samples as independent, so on the
    same seeds it is wider than a paired interval would be."""
    p, q = a / n_a, b / n_b
    (lo_p, hi_p), (lo_q, hi_q) = (binomtest(k, n).proportion_ci(method="wilson")
                                  for k, n in ((a, n_a), (b, n_b)))
    diff = p - q
    return (diff, diff - math.hypot(p - lo_p, hi_q - q), diff + math.hypot(hi_p - p, q - lo_q))


def main() -> int:
    effects = {c: [] for c in CANDIDATES}
    hits = dict.fromkeys(CANDIDATES, 0)
    discarded = dict.fromkeys(CANDIDATES, 0)
    balanced = dict.fromkeys(CANDIDATES, 0)
    times = {c: [] for c in CANDIDATES}
    for index, seed in enumerate(SEEDS):
        # rotate the candidates' order so none always runs first
        shift = index % len(CANDIDATES)
        order = CANDIDATES[shift:] + CANDIDATES[:shift]
        for effect in (EFFECT_LIKES, 0.0):
            _, _, units = preset_inputs(seed, effect)
            for candidate in order:
                r, elapsed = timed_report(units, seed, *candidate)
                times[candidate].append(elapsed)
                balanced[candidate] += all(b.passed for b in r.balance)
                if effect:
                    effects[candidate].append(r.mean_eate)
                    hits[candidate] += recovered(r)
                else:
                    discarded[candidate] += r.discarded
        print(f"seed {seed} done", flush=True)

    n = len(SEEDS)
    base = CANDIDATES[0]

    def against_base(counts, c):
        if c == base:
            return "- | -"
        diff, low, high = newcombe_diff(counts[c], n, counts[base], n)
        p = fisher_exact([[counts[c], n - counts[c]], [counts[base], n - counts[base]]],
                         alternative="less").pvalue
        return f"{p:.3f} | {diff:+.3f} [{low:+.3f}, {high:+.3f}]"

    print(f"\nseeds {SEEDS.start}-{SEEDS.stop - 1}, n_records={N_RECORDS}\n")
    print("| batch | lr | hits | null discarded | mean | SD | balance passes | median run (s) "
          "| p hits lower | hits diff [95% CI] | p discards lower | discards diff [95% CI] |")
    print("|---|---|---|---|---|---|---|---|---|---|---|---|")
    for c in CANDIDATES:
        sd = statistics.stdev(effects[c]) if n > 1 else float("nan")
        print(f"| {c[0]} | {c[1]:g} | {hits[c]}/{n} | {discarded[c]}/{n} "
              f"| {statistics.fmean(effects[c]):.2f} | {sd:.2f} | {balanced[c]}/{2 * n} "
              f"| {statistics.median(times[c]):.3f} | {against_base(hits, c)} "
              f"| {against_base(discarded, c)} |")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
