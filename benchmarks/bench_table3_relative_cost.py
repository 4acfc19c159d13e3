"""Table 3 — relative operation cost.

The paper pins the simulator's cost model to: keygen 1, regular signature
generation/verification 2, group signature generation/verification 4 (a
"wild guess" that efficient group signatures cost twice DSA).  This bench

1. re-measures the regular-signature ratios with our DSA (they should be
   near the paper's 2x guess, since DSA sign/verify really is ~2 modexps
   against keygen's one), and
2. measures our *actual* group-signature scheme, whose cost is linear in
   the roster size — reported so the deviation from the paper's pinned
   model is explicit (DESIGN.md §4, deviation 2).
"""

import time

from repro.analysis.tables import format_table
from repro.crypto.dsa import dsa_generate, dsa_sign, dsa_verify
from repro.crypto.group_signature import GroupManager, group_sign, group_verify
from repro.crypto.params import PARAMS_1024_160
from repro.sim.costs import MICRO_COST

from _common import emit

ROSTER_SIZE = 8
ITERATIONS = 20


def measure_all():
    params = PARAMS_1024_160
    timings = {}
    # Time the steady state: the generator's fixed-base table is built once
    # per process, which is set-up cost, not the cost of the first keygen.
    params.fixed_g()

    start = time.perf_counter()
    keypairs = [dsa_generate(params) for _ in range(ITERATIONS)]
    timings["keygen"] = (time.perf_counter() - start) / ITERATIONS

    keypair = keypairs[0]
    messages = [b"m%d" % i for i in range(ITERATIONS)]
    start = time.perf_counter()
    signatures = [dsa_sign(keypair, message) for message in messages]
    timings["sig"] = (time.perf_counter() - start) / ITERATIONS

    start = time.perf_counter()
    for message, signature in zip(messages, signatures):
        assert dsa_verify(keypair.public, message, signature)
    timings["ver"] = (time.perf_counter() - start) / ITERATIONS

    manager = GroupManager(params)
    members = [manager.register(f"member-{i}") for i in range(ROSTER_SIZE)]
    gpk = manager.public_key()
    start = time.perf_counter()
    gsigs = [group_sign(gpk, members[0], message) for message in messages[:5]]
    timings["gsig"] = (time.perf_counter() - start) / 5

    start = time.perf_counter()
    for message, gsig in zip(messages[:5], gsigs):
        assert group_verify(gpk, message, gsig)
    timings["gver"] = (time.perf_counter() - start) / 5

    return timings


def test_table3_relative_costs(benchmark):
    timings = benchmark.pedantic(measure_all, rounds=1, iterations=1)
    base = timings["keygen"]
    measured = {name: value / base for name, value in timings.items()}

    rows = [
        {
            "Operation": name,
            "paper_relative": MICRO_COST[name],
            "measured_relative": round(measured[name], 2),
            "measured_ms": round(timings[name] * 1e3, 3),
        }
        for name in ("keygen", "sig", "ver", "gsig", "gver")
    ]
    emit(
        "table3_relative_cost",
        format_table(
            rows,
            ["Operation", "paper_relative", "measured_relative", "measured_ms"],
            title=(
                "Table 3: Relative Operation Cost "
                f"(group scheme measured at roster size {ROSTER_SIZE}; the paper "
                "pins 2x for a hypothetical constant-size scheme — see DESIGN.md §4)"
            ),
        ),
    )

    # Shape checks.  Regular DSA: sign and verify cost a small multiple of
    # keygen (the paper's model says 2x; our implementation lands in the
    # same small-constant band).
    assert 0.5 <= measured["sig"] <= 6
    assert 0.5 <= measured["ver"] <= 8
    # Our real (linear-size) group signatures are strictly more expensive
    # than regular signatures — the qualitative fact Table 3 encodes.
    assert measured["gsig"] > measured["sig"]
    assert measured["gver"] > measured["ver"]
