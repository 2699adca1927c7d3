"""The ProbLP repository benchmark: seeded workloads, metrics and layer traces.

``perfbench/run.py`` is the entry point; this package holds its parts:

* :mod:`.stats` — percentiles, the tail sample-count rule, span self
  times and failure accounting;
* :mod:`.inputs` — seeded input generators (the program only ever sees
  what these produce);
* :mod:`.fleet` — the ``problp serve`` subprocess, its peak RSS and the
  ``metrics`` op scrape;
* :mod:`.served` — the three served load loops and their bit-for-bit
  answer checks;
* :mod:`.replay` — in-process replay of engine layers on a workload's
  inputs;
* :mod:`.design` — the in-process designer path;
* :mod:`.report` — provenance stamps, the layer table and the result
  line.
"""
