"""Windowed column scans and the divisor-sum power coefficients.

Since whole columns eventually fail, the meaningful question is whether
column m stays log-concave for n up to C^m.  The coefficients under test
are b(m, n) = [q^n] f(q)^m with f(q) = sum sigma(n)/n q^n; they equal
m! times the (sigma, id) triangle column m, so the scan can run entirely
on integer-scaled triangle entries.  The bridge between the series view
and the two triangle views is checked first, then the window C = 2 is
scanned for m <= 8.
"""

from lclab import hong_zhang_coefficients, hong_zhang_scan, hz_equivalence_check, window_top

print("b(2, n) for n = 0..8:")
print(" ", [str(b) for b in hong_zhang_coefficients(2, 8)])

print()
print("three routes to the same numbers (series, geometric, exponential):")
print(" ", hz_equivalence_check(8, 30))

print()
print("windows n <= 2^m per column:")
print(" ", {m: window_top(2, m) for m in range(2, 9)})

print()
report = hong_zhang_scan(2, 8)
print(f"scan C=2, m <= 8 (streams the columns to n = {window_top(2, 8) + 1}):")
print(f"  passed = {report.passed}, clipped = {report.clipped}, "
      f"failures = {report.failures}")
