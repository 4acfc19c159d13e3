"""Adversarial and agreement tests for randomized batch verification.

The batch verifier must be *exactly* as strict as per-signature verification
on honest inputs, and must reject any batch containing a forgery — including
forgeries hidden behind manipulated ``commit`` hints.
"""

import secrets
from dataclasses import replace

import pytest

from repro.crypto import fastexp
from repro.crypto.dsa import (
    DsaSignature,
    dsa_batch_verify,
    dsa_generate,
    dsa_sign,
    dsa_verify,
)
from repro.crypto.group_signature import (
    BATCH_RANDOMIZER_BITS,
    GroupManager,
    group_batch_verify,
    group_sign,
    group_verify,
)
from repro.crypto.params import PARAMS_1024_160, PARAMS_2048_256, PARAMS_TEST_512
from repro.crypto.schnorr import schnorr_batch_verify, schnorr_prove, schnorr_verify

ALL_PARAMS = [
    pytest.param(PARAMS_TEST_512, id="512_160"),
    pytest.param(PARAMS_1024_160, id="1024_160"),
    pytest.param(PARAMS_2048_256, id="2048_256"),
]


def _batch(params, n, signers=3):
    keys = [dsa_generate(params) for _ in range(signers)]
    items = []
    for i in range(n):
        kp = keys[i % signers]
        msg = b"message-%d" % i
        items.append((kp.public, msg, dsa_sign(kp, msg)))
    return items


class TestDsaBatchAgreement:
    @pytest.mark.parametrize("params", ALL_PARAMS)
    def test_agrees_with_individual_verify(self, params):
        items = _batch(params, 6)
        assert all(dsa_verify(pk, m, sig) for pk, m, sig in items)
        assert dsa_batch_verify(items)

    def test_empty_and_single(self):
        assert dsa_batch_verify([])
        items = _batch(PARAMS_TEST_512, 1)
        assert dsa_batch_verify(items)

    def test_randomized_agreement(self):
        # Random mixes of valid and tampered items: batch must equal the AND
        # of individual verification, every time.
        params = PARAMS_TEST_512
        for trial in range(10):
            items = _batch(params, 5)
            if trial % 2:
                victim = secrets.randbelow(len(items))
                pk, m, sig = items[victim]
                items[victim] = (pk, m + b"!", sig)
            expected = all(dsa_verify(pk, m, sig) for pk, m, sig in items)
            assert dsa_batch_verify(items) == expected

    def test_signatures_without_commit_still_verify(self):
        # Envelopes from peers predating the hint: fall back individually.
        items = [
            (pk, m, replace(sig, commit=None)) for pk, m, sig in _batch(PARAMS_TEST_512, 4)
        ]
        assert dsa_batch_verify(items)

    def test_mixed_param_batches(self):
        items = _batch(PARAMS_TEST_512, 2) + _batch(PARAMS_1024_160, 2)
        assert dsa_batch_verify(items)

    def test_precomputed_digests(self):
        from repro.crypto.dsa import dsa_digest

        items = _batch(PARAMS_TEST_512, 4)
        digests = [dsa_digest(pk.params, m) for pk, m, _ in items]
        assert dsa_batch_verify(items, digests=digests)
        with pytest.raises(ValueError):
            dsa_batch_verify(items, digests=digests[:-1])


class TestDsaBatchAdversarial:
    @pytest.mark.parametrize("params", ALL_PARAMS)
    def test_one_forged_member_rejects(self, params):
        items = _batch(params, 5)
        forged = DsaSignature(
            r=secrets.randbelow(params.q - 1) + 1,
            s=secrets.randbelow(params.q - 1) + 1,
        )
        bad = items + [(items[0][0], b"forged message", forged)]
        assert not dsa_batch_verify(bad)

    def test_bit_flipped_signature_rejects(self):
        items = _batch(PARAMS_TEST_512, 5)
        pk, m, sig = items[2]
        items[2] = (pk, m, replace(sig, s=sig.s ^ 1))
        assert not dsa_batch_verify(items)

    def test_bit_flipped_message_rejects(self):
        items = _batch(PARAMS_TEST_512, 5)
        pk, m, sig = items[3]
        items[3] = (pk, bytes([m[0] ^ 1]) + m[1:], sig)
        assert not dsa_batch_verify(items)

    def test_corrupted_commit_cannot_forge(self):
        # The hint is untrusted: replacing it on a *valid* signature must not
        # reject (falls back individually), and attaching a consistent-looking
        # hint to an *invalid* signature must not accept.
        params = PARAMS_TEST_512
        items = _batch(params, 3)
        pk, m, sig = items[0]
        items[0] = (pk, m, replace(sig, commit=sig.commit * 2 % params.p))
        assert dsa_batch_verify(items)  # valid sigs survive a mangled hint

        forged_r = secrets.randbelow(params.q - 1) + 1
        # Hint consistent with r (commit % q == r) but not a real commitment.
        fake_commit = forged_r
        bad = _batch(params, 3) + [
            (pk, b"oops", DsaSignature(r=forged_r, s=1, commit=fake_commit))
        ]
        assert not dsa_batch_verify(bad)

    def test_small_order_commit_component_rejected(self):
        # Cofactor clearing: hide a p-1-order component in the hint of an
        # otherwise-forged signature; the combination must still reject.
        params = PARAMS_TEST_512
        items = _batch(params, 3)
        pk, m, sig = items[0]
        minus_one = params.p - 1  # order-2 element mod p
        tweaked = replace(sig, commit=sig.commit * minus_one % params.p)
        # commit % q changed, so this item just falls back to individual
        # verification and the (valid) signature passes.
        items[0] = (pk, m, tweaked)
        assert dsa_batch_verify(items)
        # But a forged s with any commit never passes.
        items[0] = (pk, m, replace(tweaked, s=sig.s ^ 1))
        assert not dsa_batch_verify(items)

    def test_swapped_signatures_reject(self):
        items = _batch(PARAMS_TEST_512, 4, signers=4)
        a, b = items[0], items[1]
        items[0] = (a[0], a[1], b[2])
        items[1] = (b[0], b[1], a[2])
        assert not dsa_batch_verify(items)

    def test_out_of_range_values_reject(self):
        params = PARAMS_TEST_512
        items = _batch(params, 2)
        pk, m, sig = items[0]
        for bad in (
            DsaSignature(r=0, s=sig.s),
            DsaSignature(r=sig.r, s=0),
            DsaSignature(r=params.q, s=sig.s),
            DsaSignature(r=sig.r, s=params.q + 5),
        ):
            assert not dsa_batch_verify([(pk, m, bad)] + items[1:])


class TestSchnorrBatch:
    @pytest.mark.parametrize("params", ALL_PARAMS)
    def test_agrees_with_individual(self, params):
        kp = dsa_generate(params)
        items = [
            (kp.public, schnorr_prove(kp, ctx), ctx)
            for ctx in (b"ctx-%d" % i for i in range(4))
        ]
        assert all(schnorr_verify(pk, proof, ctx) for pk, proof, ctx in items)
        assert schnorr_batch_verify(items)

    def test_forged_member_rejects(self):
        kp = dsa_generate(PARAMS_TEST_512)
        items = [
            (kp.public, schnorr_prove(kp, ctx), ctx)
            for ctx in (b"ctx-%d" % i for i in range(4))
        ]
        pk, proof, ctx = items[1]
        items[1] = (pk, proof, ctx + b"!")
        assert not schnorr_batch_verify(items)
        assert schnorr_batch_verify([])


@pytest.fixture(scope="module")
def group():
    manager = GroupManager(PARAMS_TEST_512)
    members = {name: manager.register(name) for name in ("alice", "bob", "carol")}
    return manager, members


def _group_batch(group, n):
    manager, members = group
    gpk = manager.public_key()
    keys = list(members.values())
    items = []
    for i in range(n):
        msg = b"group-msg-%d" % i
        items.append((msg, group_sign(gpk, keys[i % len(keys)], msg)))
    return gpk, items


class TestGroupBatchAgreement:
    def test_agrees_with_individual_verify(self, group):
        gpk, items = _group_batch(group, 5)
        assert all(group_verify(gpk, msg, sig) for msg, sig in items)
        assert group_batch_verify(gpk, items)

    def test_empty_and_single(self, group):
        gpk, items = _group_batch(group, 1)
        assert group_batch_verify(gpk, [])
        assert group_batch_verify(gpk, items)

    def test_stripped_hints_still_verify(self, group):
        # Transports may drop the commitments accelerator; the batch path
        # must fall back to exact verification, never reject.
        gpk, items = _group_batch(group, 3)
        stripped = [(msg, replace(sig, commitments=None)) for msg, sig in items]
        assert group_batch_verify(gpk, stripped)

    def test_corrupted_hint_on_valid_signature_still_verifies(self, group):
        # A mangled hint is untrusted metadata: the signature itself is
        # valid, so the pair must be routed to exact verification and pass.
        gpk, items = _group_batch(group, 3)
        msg, sig = items[1]
        t1, t2, t3 = sig.commitments[0]
        bad = sig.commitments[:1][:0] + (((t1 * 2) % gpk.params.p, t2, t3),) + sig.commitments[1:]
        items[1] = (msg, replace(sig, commitments=bad))
        assert group_batch_verify(gpk, items)


class TestGroupBatchAdversarial:
    def test_one_forged_member_rejects(self, group):
        gpk, items = _group_batch(group, 4)
        msg, sig = items[2]
        forged = replace(
            sig, responses_r=(sig.responses_r[0] ^ 1,) + sig.responses_r[1:]
        )
        items[2] = (msg, forged)
        assert not group_verify(gpk, msg, forged)
        assert not group_batch_verify(gpk, items)

    def test_wrong_message_rejects(self, group):
        gpk, items = _group_batch(group, 3)
        msg, sig = items[0]
        items[0] = (msg + b"!", sig)
        assert not group_batch_verify(gpk, items)

    def test_forged_member_without_hint_rejects(self, group):
        # Stripping the hint must not smuggle a forgery past the batch: the
        # exact-fallback path verifies it individually.
        gpk, items = _group_batch(group, 3)
        msg, sig = items[1]
        forged = replace(
            sig,
            responses_x=(sig.responses_x[0] ^ 1,) + sig.responses_x[1:],
            commitments=None,
        )
        items[1] = (msg, forged)
        assert not group_batch_verify(gpk, items)


class TestGroupBatchRandomizers:
    def test_randomizers_are_odd_uniform_independent_64_bit_values(self, group, monkeypatch):
        # Each hint base t1/t2/t3 enters the combined product with its own
        # multiplier.  All of a signature's multipliers come from one
        # entropy draw, so check what the slicing must preserve: odd,
        # below 2**64, every other bit fair, and no overlap between
        # neighbouring slices (bit i+1 of one slice must not predict bit i
        # of the next).
        gpk, items = _group_batch(group, 8)
        hints = {t for _, sig in items for clause in sig.commitments for t in clause}
        seen: list[int] = []
        original = fastexp.multi_exp

        def recording_multi_exp(pairs, *args, **kwargs):
            pairs = list(pairs)
            seen.extend(exponent for base, exponent in pairs if base in hints)
            return original(pairs, *args, **kwargs)

        monkeypatch.setattr(fastexp, "multi_exp", recording_multi_exp)
        for _ in range(10):
            assert group_batch_verify(gpk, items)
        assert len(seen) == 10 * 8 * 3 * len(gpk.roster)
        assert all(r & 1 and r < 1 << BATCH_RANDOMIZER_BITS for r in seen)
        assert len(set(seen)) == len(seen)
        for bit in range(1, BATCH_RANDOMIZER_BITS):
            share = sum(r >> bit & 1 for r in seen) / len(seen)
            assert 0.35 < share < 0.65, bit
        agree = sum(
            (a >> (i + 1) & 1) == (b >> i & 1)
            for a, b in zip(seen, seen[1:])
            for i in range(1, BATCH_RANDOMIZER_BITS - 1)
        ) / ((len(seen) - 1) * (BATCH_RANDOMIZER_BITS - 2))
        assert 0.45 < agree < 0.55
