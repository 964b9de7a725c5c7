"""The repository benchmark: campaign and serving workloads, end to end and per layer.

Run one workload with ``python3 perfbench/run.py --workload <name> --seed <n>
--seconds <s> --trace <0|1>`` from the repository root; see ``README.md`` in
this directory for the workloads, the metrics and the layer map.
"""
