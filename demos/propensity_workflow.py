"""Walkthrough: equating without an anchor, using background covariates.

When no anchor section exists, form assignment can still be modeled from
covariates. Stratifying on the fitted propensity score balances the
groups within strata; stabilized inverse probability weights sharpen the
same idea. Balance diagnostics tell you whether the stratification did
its job before you trust the transforms.
"""

import numpy as np

from localeq import (
    SimulationConfig,
    balance_report,
    encode_covariates,
    estimate_propensity,
    fit_logistic,
    gen_population,
    ipw_family,
    ipw_weights,
    strat_family,
    stratify_quantile,
)


def main():
    config = SimulationConfig(n=3000, seed=21)
    pop = gen_population(config, np.random.default_rng(config.seed))
    table = pop.to_records()

    kinds = ["numeric"] * pop.covariates.shape[1]
    design = encode_covariates(table, kinds)
    model = fit_logistic(design, pop.form)
    print(f"propensity model converged in {model.iterations} IRLS steps, "
          f"coefficients {np.round(model.coefficients, 3)}")

    propensities = estimate_propensity(model, design)
    assignment = stratify_quantile(propensities, 8)

    report = balance_report(table, assignment, [f"c{j+1}" for j in range(3)])
    print("\nper-stratum ASMD (balance is < 0.1):")
    header = "  stratum " + "".join(f"{name:>8s}" for name in report.covariate_names)
    print(header)
    for k in range(report.K):
        row = "".join(f"{v:8.3f}" for v in report.asmd[k])
        print(f"  {k + 1:7d} {row}")
    print("satisfactory fraction per covariate:",
          np.round(report.satisfactory_fraction, 2))

    strat = strat_family(table, assignment)
    weights = ipw_weights(table, assignment, propensities, trim_alpha=0.01)
    ipw = ipw_family(table, weights)

    clipped = int(np.sum(weights.raw != weights.trimmed))
    print(f"\nstabilized weights: mean {weights.trimmed.mean():.3f}, "
          f"{clipped} of {weights.trimmed.size} clipped by trimming")

    print("\nstratum transforms (score 20 on form Y converts to):")
    for k in sorted(strat.entries):
        s = strat.entries[k](20.0)
        w = ipw.entries[k](20.0) if k in ipw.entries else float("nan")
        print(f"  stratum {k}: stratification {s:5.1f}   weighted {w:5.1f}")


if __name__ == "__main__":
    main()
