"""Walkthrough: one equating transform per anchor score.

Two groups take different forms of a test, and a short anchor section is
the only thing both groups share. Instead of one global conversion, a
local family fits a linear transform inside every anchor-score cell, so
examinees are compared against peers of similar standing.
"""

import numpy as np

from localeq import ScoreTable, anchor_family, family_at_percentiles, pooled_transform


def build_table(rng, n=400):
    """Synthetic two-form data where form Y runs 2 points hard at the top."""
    ability = rng.normal(size=n)
    anchor = np.clip(np.round(5 + 2 * ability + rng.normal(0, 0.8, n)), 0, 10)
    form = (rng.random(n) < 0.5).astype(int)
    base = 20 + 6 * ability + rng.normal(0, 2, n)
    # form Y is harder near the top: grows with ability
    base -= 2.0 * (form == 1) * (ability > 0)
    score = np.clip(np.round(base), 0, 40)
    return ScoreTable(form=form, score=score, anchor=anchor)


def main():
    rng = np.random.default_rng(7)
    table = build_table(rng)

    family = anchor_family(table)
    pooled = pooled_transform(table)

    print("local transforms by anchor score (slope, intercept at y=20):")
    for anchor_value in sorted(family.entries):
        t = family.entries[anchor_value]
        print(f"  anchor {anchor_value:2d}: slope {t.slope:5.2f}, maps 20 -> {t(20.0):5.1f}")
    if family.omitted:
        print("  omitted cells (too thin to fit):", family.omitted)

    print(f"\npooled transform for comparison: slope {pooled.slope:.2f}, "
          f"maps 20 -> {pooled(20.0):.1f}")

    picks = family_at_percentiles(family, (10, 50, 90), table.anchor)
    print("\nrepresentative transforms at anchor percentiles:")
    for pick in picks:
        print(f"  P{pick.percentile:<3g} -> anchor {pick.index}: "
              f"20 maps to {pick.transform(20.0):.1f}")

    print("\nthe local family spreads around the pooled line; a single "
          "conversion would hide that the form difference depends on standing")


if __name__ == "__main__":
    main()
