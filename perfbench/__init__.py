"""The repository benchmark: workloads served end to end, checked, traced.

Run it with ``python3 perfbench/run.py --workload <name> --seed <n>
--seconds <s> --trace <0|1>`` from the repository root; ``README.md`` in
this directory describes the metrics and workloads.
"""
