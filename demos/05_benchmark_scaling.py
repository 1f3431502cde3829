"""Attention cost scaling: partitioned vs dense, with an instrumented counter.

With the subgraph size m held fixed, the local term grows linearly in n and
the global term quadratically in the (much smaller) subgraph count, so the
total grows far slower than dense attention's n^2. For n = 256 to 2048 at
d=64 and 4 heads, on uniform plans of m=32 (sba) and of one part (dense),
`flops_estimate` runs the model's two branch ops, intra and inter attention,
on one dummy window with the FLOP counter on, takes off the closed form of
their projections and FFN, and checks what is left against the attention
closed form. `attention_peak_bytes` gives the largest score block the
branches hold. The table goes to bench.csv.
"""
import sys

from sbaformer import ModelConfig, ScaleSeries, flops_estimate, uniform_plan
from sbaformer.artifacts import write_csv
from sbaformer.model import attention_peak_bytes

M, D, HEADS = 32, 64, 4
FIELDS = ["mode", "n", "p", "m", "d", "flops_measured", "flops_closed_form",
          "peak_bytes_estimate"]

rows = []
for mode in ("sba", "dense"):
    for n in (256, 512, 1024, 2048):
        plan = uniform_plan(n, 1 if mode == "dense" else n // M)
        series = ScaleSeries(plans=[plan])
        config = ModelConfig(n=n, t=1, c=1, f=1, d_model=D, l=1, heads=HEADS, p0=plan.p, k_pe=1)
        est = flops_estimate(config, series)
        if abs(est["ratio"] - 1.0) > 0.01:
            sys.exit(f"{mode} n={n}: measured/closed-form flops ratio {est['ratio']}")
        rows.append([mode, n, plan.p, plan.m, D, est["measured_total"], est["closed_total"],
                     attention_peak_bytes(config, series)])
        print(f"{mode:>5} n={n:<5d} p={plan.p:<4d} m={plan.m:<4d} "
              f"flops={est['measured_total']:.3e}")
write_csv("bench.csv", rows, FIELDS)

print("\nfixed m: partitioned attention roughly doubles per doubling of n,")
print("dense attention quadruples. The table is in bench.csv.")
