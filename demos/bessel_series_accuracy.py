"""
Truncated series for the second-kind Bessel function
====================================================

Builds the elementary-function series for K_nu, prints the coefficient
tables at a few truncation depths, and measures the approximation against
the package's quadrature oracle across the argument range.
"""

import numpy as np

from afrelay.bessel_series import evaluate, series_coeffs
from afrelay.reference import bessel_k

# -----------------------------------------------------------------------
# coefficient tables: the q = 0 entry is always 1 and the q = 1 entry is
# the exact rational 2k/(2k+1); everything deeper alternates in sign

for k in (2, 5, 10):
    table = series_coeffs(1.0, k)
    cells = "  ".join(f"{a:+.4g}" for a in table.a)
    print(f"k = {k:2d}:  {cells}")
print()

# -----------------------------------------------------------------------
# accuracy against adaptive quadrature of the cosh integral form.
# deeper truncation wins at small arguments; past z ~ 2 the series has
# an error floor and deepening stops paying (it can even lose ground),
# which is why the distribution code pairs it with exact fallbacks.

zs = np.geomspace(0.1, 8.0, 12)
print("      z     oracle K_1      rel err k=2   rel err k=5   rel err k=10")
for z in zs:
    z = float(z)
    oracle = bessel_k(1.0, z)
    errs = [abs(evaluate(1.0, k, z) - oracle) / oracle for k in (2, 5, 10)]
    print(
        f"  {z:7.3f}  {oracle:13.6e}  {errs[0]:12.2e}  {errs[1]:12.2e}  {errs[2]:13.2e}"
    )
print()

# -----------------------------------------------------------------------
# the zeroth order is excluded from the expansion itself: evaluate takes
# it from the recurrence K_0 = K_2 - (2/z) K_1 instead.  At small z the
# two terms cancel, so z = 0.001 is far outside the recurrence's reach.

for z in (0.001, 0.5, 1.0, 2.0):
    value = evaluate(0.0, 10, z)
    oracle = bessel_k(0.0, z)
    print(
        f"K_0({z}): recurrence {value:.8f}  oracle {oracle:.8f}  "
        f"rel err {abs(value - oracle) / oracle:.2e}"
    )
