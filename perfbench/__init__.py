"""Release benchmark for the DP join-release library.

``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>``
runs one workload in the calling process and prints its metrics as the last
line of standard output.  ``workloads`` builds the inputs from the seed,
``gate`` checks every release, ``spans`` records the traced run, and
``layer_map.json`` names which per-layer metric should move which end-to-end
metric on which workload.
"""
