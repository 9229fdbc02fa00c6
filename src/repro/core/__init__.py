"""Core release algorithms of the paper.

* :mod:`repro.core.pmw` — Algorithm 2, the single-table private multiplicative
  weights routine parameterised by a noisy sensitivity bound;
* :mod:`repro.core.two_table` — Algorithm 1 (``TwoTable``);
* :mod:`repro.core.multi_table` — Algorithm 3 (``MultiTable`` with residual
  sensitivity);
* :mod:`repro.core.partition_two_table` — Algorithm 5 (degree-bucket partition);
* :mod:`repro.core.hierarchical` — Algorithms 6 and 7 (hierarchical partition);
* :mod:`repro.core.uniformize` — Algorithm 4 (uniformized release);
* :mod:`repro.core.release` — the public one-call entry point;
* :mod:`repro.core.synthetic` — the released synthetic-dataset object.
"""
