"""Microbenchmarks for every cryptographic primitive in the substrate.

Not a paper artifact — engineering instrumentation for the library itself.
Runs at the 512-bit test size so the whole suite stays fast; Table 2's bench
covers the paper-size 1024-bit DSA numbers.

Two entry points:

* ``pytest benchmarks/bench_crypto_ops.py --benchmark-only`` — pytest-benchmark
  timings for each primitive (including the roster-16 group operations and
  the batch verifier).
* ``python benchmarks/bench_crypto_ops.py [--quick]`` — compares the
  accelerated hot paths (fixed-base tables, multi-exp, batch verification,
  the group-signature fast path; see DESIGN.md §1.1) against in-file
  replicas of the pre-acceleration implementations at 512/160 and
  1024/160, and writes machine-readable speedups to
  ``benchmarks/out/BENCH_crypto.json``.  ``--quick`` restricts to the
  512-bit group with fewer repetitions (the CI smoke configuration).
"""

import json
import statistics
import time

import pytest

from _common import OUT_DIR

from repro.crypto import fastexp, primitives
from repro.crypto.dsa import dsa_batch_verify, dsa_generate, dsa_sign, dsa_verify
from repro.crypto.elgamal import (
    ElGamalCiphertext,
    elgamal_decrypt,
    elgamal_encrypt,
    elgamal_generate,
)
from repro.crypto.group_signature import (
    GroupManager,
    GroupSignature,
    _challenge_hash,
    group_sign,
    group_verify,
)
from repro.crypto.hashchain import HashChain, verify_chain_link
from repro.crypto.params import PARAMS_1024_160, PARAMS_TEST_512
from repro.crypto.schnorr import schnorr_batch_verify, schnorr_prove, schnorr_verify
from repro.crypto.shamir import combine_shares, split_secret

P = PARAMS_TEST_512

#: Batch size for the batch-verification benches (a plausible sync/deposit
#: burst at the broker).
BATCH = 32


@pytest.fixture(scope="module")
def keypair():
    return dsa_generate(P)


@pytest.fixture(scope="module")
def group():
    manager = GroupManager(P)
    members = [manager.register(f"m{i}") for i in range(8)]
    return manager, members, manager.public_key()


@pytest.fixture(scope="module")
def group16():
    manager = GroupManager(P)
    members = [manager.register(f"m{i}") for i in range(16)]
    return manager, members, manager.public_key()


def test_bench_dsa_keygen(benchmark):
    benchmark(dsa_generate, P)


def test_bench_dsa_sign(benchmark, keypair):
    benchmark(dsa_sign, keypair, b"message")


def test_bench_dsa_verify(benchmark, keypair):
    signature = dsa_sign(keypair, b"message")
    assert benchmark(dsa_verify, keypair.public, b"message", signature)


def test_bench_dsa_batch_verify(benchmark, keypair):
    items = [
        (keypair.public, msg, dsa_sign(keypair, msg))
        for msg in (b"message-%d" % i for i in range(BATCH))
    ]
    assert benchmark(dsa_batch_verify, items)


def test_bench_schnorr_prove(benchmark, keypair):
    benchmark(schnorr_prove, keypair, b"context")


def test_bench_schnorr_verify(benchmark, keypair):
    proof = schnorr_prove(keypair, b"context")
    assert benchmark(schnorr_verify, keypair.public, proof, b"context")


def test_bench_schnorr_batch_verify(benchmark, keypair):
    items = [
        (keypair.public, schnorr_prove(keypair, ctx), ctx)
        for ctx in (b"context-%d" % i for i in range(BATCH))
    ]
    assert benchmark(schnorr_batch_verify, items)


def test_bench_elgamal_roundtrip(benchmark):
    key = elgamal_generate(P)
    element = pow(P.g, 12345, P.p)

    def roundtrip():
        return elgamal_decrypt(key, elgamal_encrypt(key.public, element))

    assert benchmark(roundtrip) == element


def test_bench_group_sign(benchmark, group):
    _manager, members, gpk = group
    benchmark(group_sign, gpk, members[0], b"message")


def test_bench_group_verify(benchmark, group):
    _manager, members, gpk = group
    signature = group_sign(gpk, members[0], b"message")
    assert benchmark(group_verify, gpk, b"message", signature)


def test_bench_group_sign_roster16(benchmark, group16):
    _manager, members, gpk = group16
    benchmark(group_sign, gpk, members[0], b"message")


def test_bench_group_verify_roster16(benchmark, group16):
    _manager, members, gpk = group16
    signature = group_sign(gpk, members[0], b"message")
    assert benchmark(group_verify, gpk, b"message", signature)


def test_bench_group_open(benchmark, group):
    manager, members, gpk = group
    signature = group_sign(gpk, members[3], b"message")
    assert benchmark(manager.open, signature) == "m3"


def test_bench_shamir_split_combine(benchmark):
    def roundtrip():
        shares = split_secret(123456789, n=5, k=3, modulus=P.q)
        return combine_shares(shares[:3], P.q)

    assert benchmark(roundtrip) == 123456789


def test_bench_hashchain_build(benchmark):
    benchmark(HashChain, 100)


def test_bench_hashchain_verify(benchmark):
    chain = HashChain(100)
    index, link = chain.pay(50)
    assert benchmark(verify_chain_link, chain.anchor, index, link)


# ---------------------------------------------------------------------------
# Accelerated vs pre-acceleration baselines (``__main__`` mode)
# ---------------------------------------------------------------------------
#
# The baselines below are line-for-line replicas of the implementations this
# repo shipped before the fastexp layer landed: plain ``pow`` everywhere, a
# full subgroup check per verification, and per-clause modular inversions in
# the group verifier.  They exist only to measure the acceleration honestly
# against the real before-state, not an artificial strawman.


def baseline_dsa_verify(public, message, signature) -> bool:
    """Pre-acceleration ``dsa_verify``: naked pows, uncached subgroup check."""
    params = public.params
    r, s = signature.r, signature.s
    if not (0 < r < params.q and 0 < s < params.q):
        return False
    if not (0 < public.y < params.p and pow(public.y, params.q, params.p) == 1):
        return False
    digest = primitives.hash_to_int(message, modulus=params.q)
    w = primitives.modinv(s, params.q)
    u1 = (digest * w) % params.q
    u2 = (r * w) % params.q
    v = (pow(params.g, u1, params.p) * pow(public.y, u2, params.p)) % params.p % params.q
    return v == r


def baseline_group_sign(gpk, member, message):
    """Pre-acceleration ``group_sign``: per-clause pows and inversions."""
    params = gpk.params
    p, q, g = params.p, params.q, params.g
    y = gpk.opening_key.y
    idx = gpk.roster_index(member.h)
    r = params.random_exponent()
    c1 = pow(g, r, p)
    c2 = (member.h * pow(y, r, p)) % p
    ciphertext = ElGamalCiphertext(c1=c1, c2=c2)
    n = len(gpk.roster)
    challenges = [0] * n
    responses_r = [0] * n
    responses_x = [0] * n
    commitments = [(0, 0, 0)] * n
    c1_inv = primitives.modinv(c1, p)
    for j, h_j in enumerate(gpk.roster):
        if j == idx:
            continue
        c_j = primitives.randbelow(q)
        s_r = primitives.randbelow(q)
        s_x = primitives.randbelow(q)
        ratio = (c2 * primitives.modinv(h_j, p)) % p  # c2 / h_j
        t1 = (pow(g, s_r, p) * pow(c1_inv, c_j, p)) % p
        t2 = (pow(y, s_r, p) * pow(primitives.modinv(ratio, p), c_j, p)) % p
        t3 = (pow(g, s_x, p) * pow(primitives.modinv(h_j, p), c_j, p)) % p
        challenges[j] = c_j
        responses_r[j] = s_r
        responses_x[j] = s_x
        commitments[j] = (t1, t2, t3)
    a = params.random_exponent()
    b = params.random_exponent()
    commitments[idx] = (pow(g, a, p), pow(y, a, p), pow(g, b, p))
    total = _challenge_hash(gpk, ciphertext, commitments, message)
    c_idx = (total - sum(challenges)) % q
    challenges[idx] = c_idx
    responses_r[idx] = (a + c_idx * r) % q
    responses_x[idx] = (b + c_idx * member.x) % q
    return GroupSignature(
        ciphertext=ciphertext,
        challenges=tuple(challenges),
        responses_r=tuple(responses_r),
        responses_x=tuple(responses_x),
    )


def baseline_group_verify(gpk, message, signature) -> bool:
    """Pre-acceleration ``group_verify``: per-clause pows and inversions."""
    params = gpk.params
    p, q, g = params.p, params.q, params.g
    y = gpk.opening_key.y
    n = len(gpk.roster)
    if not (len(signature.challenges) == len(signature.responses_r) == len(signature.responses_x) == n):
        return False
    c1, c2 = signature.ciphertext.c1, signature.ciphertext.c2
    if not (0 < c1 < p and 0 < c2 < p):
        return False
    c1_inv = primitives.modinv(c1, p)
    c2_inv = primitives.modinv(c2, p)
    commitments = []
    for j, h_j in enumerate(gpk.roster):
        c_j = signature.challenges[j]
        s_r = signature.responses_r[j]
        s_x = signature.responses_x[j]
        if not (0 <= c_j < q and 0 <= s_r < q and 0 <= s_x < q):
            return False
        ratio_inv = (h_j * c2_inv) % p
        t1 = (pow(g, s_r, p) * pow(c1_inv, c_j, p)) % p
        t2 = (pow(y, s_r, p) * pow(ratio_inv, c_j, p)) % p
        t3 = (pow(g, s_x, p) * pow(primitives.modinv(h_j, p), c_j, p)) % p
        commitments.append((t1, t2, t3))
    total = _challenge_hash(gpk, signature.ciphertext, commitments, message)
    return sum(signature.challenges) % q == total


def _time_us(fn, repeat: int) -> float:
    """Median wall-clock time of ``fn()`` in microseconds."""
    samples = []
    for _ in range(repeat):
        start = time.perf_counter()
        fn()
        samples.append((time.perf_counter() - start) * 1e6)
    return statistics.median(samples)


def _compare(name, baseline, accelerated, repeat, results) -> None:
    """Time both implementations and record the speedup."""
    assert baseline() and accelerated(), f"{name}: implementations disagree"
    base_us = _time_us(baseline, repeat)
    accel_us = _time_us(accelerated, repeat)
    results[name] = {
        "baseline_us": round(base_us, 2),
        "accelerated_us": round(accel_us, 2),
        "speedup": round(base_us / accel_us, 3) if accel_us else None,
    }
    print(f"  {name:<42} {base_us:>10.1f}us -> {accel_us:>8.1f}us   {base_us / accel_us:5.2f}x")


def run_comparison(quick: bool = False) -> dict:
    """Benchmark accelerated hot paths against the pre-acceleration replicas."""
    fastexp.clear_caches()
    param_sets = [("512_160", PARAMS_TEST_512)]
    if not quick:
        param_sets.append(("1024_160", PARAMS_1024_160))
    repeat = 10 if quick else 30
    report: dict = {"quick": quick, "repeat": repeat, "groups": {}}

    for label, params in param_sets:
        print(f"[{label}]")
        results: dict = {}
        keypair = dsa_generate(params)
        message = b"bench message"
        signature = dsa_sign(keypair, message)
        # Warm the promotion cache the way steady-state protocol traffic
        # would: the broker sees each signer key repeatedly.
        for _ in range(fastexp.PROMOTE_AFTER + 1):
            dsa_verify(keypair.public, message, signature)
        _compare(
            "dsa_verify",
            lambda: baseline_dsa_verify(keypair.public, message, signature),
            lambda: dsa_verify(keypair.public, message, signature),
            repeat,
            results,
        )

        items = [
            (keypair.public, msg, dsa_sign(keypair, msg))
            for msg in (b"batch-%d" % i for i in range(BATCH))
        ]
        _compare(
            f"dsa_verify_batch{BATCH}",
            lambda: all(baseline_dsa_verify(pk, m, sig) for pk, m, sig in items),
            lambda: dsa_batch_verify(items),
            max(3, repeat // 3),
            results,
        )

        manager = GroupManager(params)
        members = [manager.register(f"m{i}") for i in range(16)]
        gpk = manager.public_key()
        gsig = group_sign(gpk, members[0], message)
        group_verify(gpk, message, gsig)  # warm roster/opening tables
        assert group_verify(gpk, message, baseline_group_sign(gpk, members[0], message))
        _compare(
            "group_sign_roster16",
            lambda: baseline_group_sign(gpk, members[0], message),
            lambda: group_sign(gpk, members[0], message),
            max(3, repeat // 3),
            results,
        )
        _compare(
            "group_verify_roster16",
            lambda: baseline_group_verify(gpk, message, gsig),
            lambda: group_verify(gpk, message, gsig),
            max(3, repeat // 3),
            results,
        )
        report["groups"][label] = results

    return report


#: Acceptance floors (DESIGN §1.1): 1.8x on DSA verification, 2x on group
#: verification at roster 16, and 5x on group signing at roster 16.  The
#: signing floor is ~0.7x the lowest quick-mode ratio measured for the
#: reparametrised signer (7.1x; the pre-reparametrisation signer measured
#: 3.4x, so a regression to it fails) — the same margin the verify floor
#: keeps below its first committed ratio (2.75x).
SPEEDUP_FLOORS = {"dsa_verify": 1.8, "group_verify_roster16": 2.0, "group_sign_roster16": 5.0}


def main() -> int:
    import argparse

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick", action="store_true", help="CI smoke: 512-bit group only, fewer reps"
    )
    parser.add_argument(
        "--out", default=str(OUT_DIR / "BENCH_crypto.json"), help="JSON report path"
    )
    args = parser.parse_args()

    report = run_comparison(quick=args.quick)
    OUT_DIR.mkdir(exist_ok=True)
    with open(args.out, "w") as fh:
        json.dump(report, fh, indent=2)
    print(f"wrote {args.out}")

    ok = True
    for label, results in report["groups"].items():
        for name, floor in SPEEDUP_FLOORS.items():
            if results[name]["speedup"] < floor:
                print(f"FAIL {label}: {name} speedup {results[name]['speedup']} < {floor}")
                ok = False
    print("speedup floors met" if ok else "speedup floors NOT met")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
