"""The designer path, in process: one pass designs every spec afresh.

Per spec: compile the network, binarize, build :class:`ProbLP`, run
``optimize`` with a validation batch, generate hardware, emit Verilog
and stream-verify it. Each public call is timed from outside; the
format search inside ``optimize`` is timed by wrapping the instance's
``analyze`` in the traced run.
"""

from __future__ import annotations

import sys
import time
from typing import Sequence

from .stats import Tally

PHASES = (
    "compile.network_s",
    "ac.binarize_s",
    "core.analysis_s",
    "core.search_s",
    "core.validate_int64_s",
    "core.validate_wide_s",
    "hw.generate_s",
    "hw.verilog_s",
    "hw.verify_int64_s",
    "hw.verify_wide_s",
)


def design_pass(
    specs: Sequence[Sequence[str]],
    batches: dict[str, list[dict]],
    tally: Tally,
    traced: bool,
) -> tuple[dict[str, float], float, int, list[float]]:
    """One pass over ``specs``.

    Returns per-phase seconds summed over the pass (search and validation
    split only when ``traced``), the worst measured-error-to-bound ratio,
    the evidence rows validated plus verified, and the wall seconds of
    each finished design.
    """
    from repro.ac.transform import binarize
    from repro.bn.networks import get_network
    from repro.compile import compile_network
    from repro.core.framework import ProbLP
    from repro.core.queries import QueryType
    from repro.hw.verify import check_equivalence
    from repro.specs import parse_tolerance_spec

    phases = dict.fromkeys(PHASES, 0.0)
    utilization = 0.0
    rows = 0
    designs = []
    clock = time.perf_counter
    for name, workload, tolerance in specs:
        tally.attempt()
        batch = batches[name]
        try:
            t0 = clock()
            circuit = compile_network(get_network(name)).circuit
            t1 = clock()
            binary = binarize(circuit).circuit
            t2 = clock()
            framework = ProbLP(
                binary,
                QueryType.MARGINAL,
                parse_tolerance_spec(tolerance),
                binary_circuit=binary,
            )
            t3 = clock()
            search = [0.0]
            if traced:
                analyze = framework.analyze

                def timed_analyze(*args, **kwargs):
                    begin = clock()
                    try:
                        return analyze(*args, **kwargs)
                    finally:
                        search[0] += clock() - begin

                framework.analyze = timed_analyze
            result = framework.optimize(workload, validation_batch=batch)
            t4 = clock()
            design = framework.generate_hardware(result=result)
            t5 = clock()
            design.verilog()
            t6 = clock()
            report = check_equivalence(design, batch)
            t7 = clock()
        except Exception as error:  # noqa: BLE001 — a failed design is counted
            print(f"design {name}/{workload}/{tolerance} failed: {error!r}",
                  file=sys.stderr)
            tally.fail(type(error).__name__)
            continue
        tier = "int64" if result.selected_format.fits_int64_products else "wide"
        phases["compile.network_s"] += t1 - t0
        phases["ac.binarize_s"] += t2 - t1
        phases["core.analysis_s"] += t3 - t2
        phases["core.search_s"] += search[0]
        phases[f"core.validate_{tier}_s"] += (t4 - t3) - search[0]
        phases["hw.generate_s"] += t5 - t4
        phases["hw.verilog_s"] += t6 - t5
        phases[f"hw.verify_{tier}_s"] += t7 - t6
        rows += 2 * len(batch)
        designs.append(t7 - t0)
        empirical = result.empirical
        if empirical is None or not all(
            point.holds for point in result.measured_front
        ) or not empirical.holds:
            tally.fail("bound_violation")
        elif not report.equivalent:
            tally.fail("not_equivalent")
        if empirical is not None and empirical.bound > 0:
            utilization = max(utilization, empirical.max_error / empirical.bound)
    return phases, utilization, rows, designs


def warm_circuits(networks: Sequence[str]) -> None:
    """Compile every network and build its native kernels."""
    from repro.ac.transform import binarize
    from repro.bn.networks import get_network
    from repro.compile import compile_network
    from repro.engine import session_for

    for name in networks:
        circuit = binarize(compile_network(get_network(name)).circuit).circuit
        session_for(circuit).evaluate_batch([{}])
