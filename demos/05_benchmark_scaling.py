"""Attention cost scaling: partitioned vs dense, with an instrumented counter.

With the subgraph size m held fixed, the local term grows linearly in n and
the global term quadratically in the (much smaller) subgraph count, so the
total grows far slower than dense attention's n^2. `sbaformer bench` runs
the model's two branch ops, intra and inter attention, on one dummy window
with the FLOP counter on, takes off the closed form of their projections
and FFN, and checks what is left against the attention closed form. Its
`wall_ms` column times those two branch ops, with the making of their
dummy rows and weights.
"""
import sys

from sbaformer.cli import main

status = main(["bench", "--n-list", "256,512,1024,2048", "--m", "32", "--mode", "both",
               "--out", "bench.csv"])
if status:
    sys.exit(status)

print("\nfixed m: partitioned attention roughly doubles per doubling of n,")
print("dense attention quadruples. The table is in bench.csv.")
