"""Logical inequality violations as a quantitative contextuality meter.

For jointly contradictory formulas phi_1 .. phi_N, any model explained by a
single global distribution keeps sum P(phi_i) at or below N - 1.  The
excess over that bound is the violation; the equal-vs-unequal box reaches
the maximum of 1, and mixing it with uniform noise shows where the
certificate kicks in.

Run:  python3 demos/03_bell_inequality.py
"""

from choicectx import (
    Assignment,
    ProbabilisticModel,
    bell_violation,
    pr_box,
    pr_box_distribution,
    support_propositions,
)
from choicectx.probabilistic import certifies_contextuality

box = pr_box()
formulas = support_propositions(box)

print("Support formulas of the equal-vs-unequal box, one per context:")
for phi in formulas:
    print(f"  {phi.to_text()}")
print()

violation = bell_violation(formulas, pr_box_distribution())
print(f"violation on the box's own distribution: {violation}  (the maximum)")
print()


def noisy_box(level):
    """Mix the box's fifty-fifty distribution with uniform noise."""
    ideal = pr_box_distribution()
    distributions = {}
    for context in ideal.scenario.cover:
        noise = (1.0 - level) / (1 << len(context))
        weights = {
            Assignment.make({v: (code >> i) & 1 for i, v in enumerate(context)}): noise
            for code in range(1 << len(context))
        }
        for assignment, p in ideal.distribution(context):
            weights[assignment] += level * p
        distributions[context] = list(weights.items())
    return ProbabilisticModel.make(ideal.scenario, distributions)


print("Violation as the box fades into uniform noise (an excess over")
print("N * 1e-9 means the data certifiably fits no single global distribution):")
for percent in range(100, 39, -10):
    level = percent / 100.0
    v = bell_violation(formulas, noisy_box(level))
    marker = "  <-- still contextual" if certifies_contextuality(v, len(formulas)) else ""
    print(f"  box weight {level:4.2f}: violation {v:+.3f}{marker}")
