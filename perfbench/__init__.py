"""Wall-clock benchmark of layer-wise pre-training and open-loop serving.

Run one workload with ``python3 perfbench/run.py --workload NAME --seed N
--seconds S --trace 0|1`` from the repository root; see
``perfbench/README.md`` for the workloads and metrics.
"""
