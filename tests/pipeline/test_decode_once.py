"""Decode once: the broker reuses what the verification pool decoded.

A request the pool vouched for reaches the broker's handler as the typed
request the pool built, so none of its wire blobs (the holder envelope,
the inner coin-signed envelope, the coin certificate, the proof binding)
is decoded again inside the handler.  A request the pool rejected carries
no mark: the broker decodes it from the bytes and re-runs every signature
check itself.
"""

from __future__ import annotations

import hashlib
from dataclasses import replace

import pytest

from repro.core import broker as broker_module
from repro.core import protocol
from repro.crypto.params import PARAMS_TEST_512
from repro.messages import codec
from repro.messages import envelope as envelope_module
from repro.pipeline import LoadGenerator, ThroughputEngine, VerificationPool
from repro.pipeline.loadgen import WorkloadMix
from repro.store.groupcommit import GroupCommitter


@pytest.fixture()
def generator(tmp_path):
    return LoadGenerator(
        peers=3,
        coins_per_peer=1,
        params=PARAMS_TEST_512,
        store_dir=tmp_path / "net",
        seed=31,
        mix=WorkloadMix(transfer=1.0, renewal=0.0, purchase=0.0),
    )


class _Spy:
    """Records calls made while the broker's ``handle`` is on the stack."""

    def __init__(self, monkeypatch, broker) -> None:
        self.inside = False
        self.decoded: list[bytes] = []
        self.group_verifies = 0
        self.dsa_batches = 0
        original_decode = codec.decode
        original_group_verify = envelope_module.group_verify
        original_dsa_batch = broker_module.dsa_batch_verify
        original_handle = broker.handle

        def decode(data):
            if self.inside:
                self.decoded.append(bytes(data))
            return original_decode(data)

        def group_verify(*args):
            self.group_verifies += self.inside
            return original_group_verify(*args)

        def dsa_batch_verify(*args):
            self.dsa_batches += self.inside
            return original_dsa_batch(*args)

        def handle(*args):
            self.inside = True
            try:
                return original_handle(*args)
            finally:
                self.inside = False

        # ``decode`` is imported by name wherever it is used.
        for module in (protocol, envelope_module):
            monkeypatch.setattr(module, "decode", decode)
        monkeypatch.setattr(envelope_module, "group_verify", group_verify)
        monkeypatch.setattr(broker_module, "dsa_batch_verify", dsa_batch_verify)
        monkeypatch.setattr(broker, "handle", handle)


def _wire_blobs(data: bytes, params) -> set[bytes]:
    """Every encoded blob a holder request carries, outermost first."""
    envelope = protocol.decode_dual(data, params)
    operation = protocol.HolderOperation.from_payload(envelope.payload)
    return {
        data,
        envelope.inner.encode(),
        envelope.inner.payload_bytes,
        operation.coin_cert,
        operation.proof_binding,
    }


def _forge_group_signature(data: bytes, params) -> bytes:
    envelope = protocol.decode_dual(data, params)
    sig = envelope.group_signature
    forged = replace(sig, responses_r=(sig.responses_r[0] ^ 1,) + sig.responses_r[1:])
    return protocol.encode_dual(replace(envelope, group_signature=forged))


def _engine(generator, gpks):
    pool = VerificationPool(generator.params, generator.broker.public_key, gpks)
    committer = GroupCommitter(generator.broker.store, max_batch=8)
    return ThroughputEngine(generator.broker, pool=pool, committer=committer, verify_batch=8)


def test_preverified_request_is_not_decoded_again_in_the_handler(generator, monkeypatch):
    engine = _engine(generator, [generator._gpk])
    wire = [(r.kind, r.src, r.data, r.idem) for r in generator.make_round(3)]
    victim = 1
    kind, src, data, idem = wire[victim]
    wire[victim] = (kind, src, _forge_group_signature(data, generator.params), idem)
    blobs = {i: _wire_blobs(w[2], generator.params) for i, w in enumerate(wire)}
    spy = _Spy(monkeypatch, generator.broker)

    records, stats = engine.run(wire)

    assert stats.preverified == 2 and stats.accepted == 2 and stats.rejected == 1
    honest = [i for i in range(len(wire)) if i != victim]
    seen = set(spy.decoded)
    for index in honest:
        assert not blobs[index] & seen  # zero decodes of its bytes in the handler
    # The pool-rejected forgery is decoded from its bytes by the broker and
    # its group signature re-checked there, which names the failure.
    assert wire[victim][2] in seen
    assert spy.group_verifies == 1
    assert "signatures invalid" in records[victim].error
    assert generator.absorb(records) == 2


def test_pool_rejection_means_full_broker_verification(generator, monkeypatch):
    # A pool that knows no roster rejects every holder request: each one
    # reaches the broker unmarked, is decoded there, and goes through the
    # group check and the DSA batch — and still lands, because it is honest.
    engine = _engine(generator, [])
    wire = [(r.kind, r.src, r.data, r.idem) for r in generator.make_round(3)]
    spy = _Spy(monkeypatch, generator.broker)

    records, stats = engine.run(wire)

    assert stats.preverified == 0 and stats.accepted == 3
    assert {w[2] for w in wire} <= set(spy.decoded)
    assert spy.group_verifies == 3
    assert spy.dsa_batches == 3
    assert generator.absorb(records) == 3


def test_mark_of_another_request_kind_is_ignored(generator, monkeypatch):
    # The same bytes can be sent under two request kinds.  A handler that
    # finds a mark whose typed request is not the kind it expects (here a
    # purchase's SignedMessage on a holder request) drops the mark and
    # decodes and verifies the request itself.
    request = generator.make_round(1)[0]
    envelope = protocol.decode_dual(request.data, generator.params)
    coin_cert = protocol.HolderOperation.from_payload(envelope.payload).coin_cert
    wrong_kind = protocol.decode_signed(coin_cert, generator.params)
    generator.broker.mark_preverified({hashlib.sha256(request.data).digest(): wrong_kind})
    spy = _Spy(monkeypatch, generator.broker)

    engine = ThroughputEngine(generator.broker, verify_batch=8)  # no pool
    records, stats = engine.run([(request.kind, request.src, request.data, request.idem)])

    assert stats.accepted == 1
    assert request.data in spy.decoded
    assert spy.group_verifies == 1 and spy.dsa_batches == 1
    assert generator.absorb(records) == 1


def test_replayed_retry_leaves_no_mark_behind(generator):
    # A retry of an already-answered idempotent request is pool-verified
    # again but answered from the broker's replay cache, so no handler
    # consumes its mark.  Marks live for one verify-batch: none (with the
    # decoded request it holds) outlives the batch.
    engine = _engine(generator, [generator._gpk])
    wire = [(r.kind, r.src, r.data, r.idem) for r in generator.make_round(2)]
    records, _stats = engine.run(wire)
    assert generator.absorb(records) == 2
    replays_before = generator.broker.replays_served

    retried, stats = engine.run(wire)

    assert stats.preverified == 2
    assert generator.broker.replays_served == replays_before + 2
    assert [r.reply for r in retried] == [r.reply for r in records]
    assert generator.broker._preverified == {}
