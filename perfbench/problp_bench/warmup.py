"""Design-flow set-up in a fresh interpreter: imports plus circuit warm-up.

Run as ``python -m problp_bench.warmup NETWORK...`` with the checkout's
``src`` and ``perfbench`` on ``PYTHONPATH`` and an empty
``PROBLP_NATIVE_CACHE``; prints ``ready`` once every circuit is warm.
"""

from __future__ import annotations

import sys


def main(networks: list[str]) -> int:
    import repro.core.framework  # noqa: F401 — the designer path's imports
    import repro.hw.verify  # noqa: F401

    from problp_bench.design import warm_circuits

    warm_circuits(networks)
    print("ready", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
