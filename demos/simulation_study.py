"""Walkthrough: benchmarking the methods against a known truth.

A seeded 2PL item response model generates two groups with a real ability
gap, an anchor section, and weak background covariates. Because the
generating model is known, the correct equating transform inside each
ability bin is computable, and every method's output can be scored
against it. The study reports mean absolute error ("bias") and RMSE per
(ability bin, score) cell, averaged over replications.
"""

from localeq import SimulationConfig, run_study


def main():
    config = SimulationConfig(
        n=800,
        items=30,
        anchor_items=15,
        strata=6,
        replications=60,
        nbins=5,
        seed=3,
        covariate_strength="weak",
    )
    print("running 60 replications of N=800 (weak covariates, ability gap 0.5)")
    report = run_study(config, methods=("anchor", "strat", "ipw", "eg"))

    print(f"retained score points: {int((~report.omitted).sum())} of {report.omitted.size}")

    print("\nmean absolute error per ability bin (averaged over score cells):")
    print("  bin " + "".join(f"{m:>8s}" for m in ("anchor", "strat", "ipw", "eg")))
    for b in range(config.nbins):
        row = ""
        for method in ("anchor", "strat", "ipw", "eg"):
            res = report.methods[method]
            row += f"{res.bias[b][report.retained(method)[b]].mean():8.2f}"
        print(f"  {b + 1:3d} {row}")

    print("\noverall (all retained populated cells):")
    for method in ("anchor", "strat", "ipw", "eg"):
        res = report.methods[method]
        cells = report.retained(method)
        print(f"  {method:7s} bias {res.bias[cells].mean():5.2f}   "
              f"rmse {res.rmse[cells].mean():5.2f}   "
              f"failed replications {res.failures}")

    print("\nthe pooled baseline (eg) ignores the group gap and pays for it; "
          "conditioning on the anchor or on propensity strata adjusts most "
          "of it away, at the price of noisier cell estimates")


if __name__ == "__main__":
    main()
