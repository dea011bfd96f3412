"""
The closed relation family, generating series, and counting
============================================================

For osp(1|2s) the rectangle sums close into a finite relation family once
self-duality is used: determinants over the fundamental row sums solve it.
Separately, a noncommutative generating series packages all columns (or
rows) at once, and the number of terms in each block matches a sum of
module dimensions.
"""

from bethe_dvf import BoxContext, parse_spec, shift_u
from bethe_dvf.dvf import column_dvf, generating_series, row_dvf
from bethe_dvf.relations import (check_t_system, check_term_count_conjecture,
                                 term_count_prediction, tsystem_block)

# determinant-built blocks satisfy every relation of the family
rep = check_t_system(s=2, depth=3, trials=8, seed=0)
print(f"relation family for osp(1|4), depth 3: passed={rep.passed}")
sub = rep.details["checks"]
print(f"  ({len(sub)} sub-checks, e.g. {sub[0]['name']!r})")

# a block is literally a determinant over the fundamental rows
block = tsystem_block(s=2, a=2, m=2)
print(f"\nblock a=2, m=2 has {len(block)} terms")

# the generating series reproduces every column and row sum
ctx = BoxContext(parse_spec("D(2|1)"))
cols = generating_series(ctx, "column", 3)
rows = generating_series(ctx, "row", 3)
for n in range(3):
    col_ok = cols[n] == shift_u(column_dvf(ctx, n), n - 1)
    row_ok = rows[n] == shift_u(row_dvf(ctx, n), n - 1)
    print(f"series coefficient {n}: column {col_ok}, row {row_ok}")

# term counts decompose into module dimensions (conjectural, verified here)
print()
for a, m in [(1, 1), (1, 2), (1, 3), (2, 1), (2, 2), (2, 3)]:
    rep = check_term_count_conjecture(2, a, m)
    lab = 2 * m if a == 2 else m
    print(f"node {a}, label {lab}: {rep.details['tableaux']} terms = "
          f"{rep.details['dimension_sum']} (dimension sum) "
          f"-> {'ok' if rep.passed else 'MISMATCH'}")

print("\npredicted count for node 1, level 4:",
      term_count_prediction(2, 1, 4))
