"""Protocol message kinds and payload helpers (paper Section 4.2).

Each of the ten coarse-grained WhoPay operations maps to one or more typed
request/response exchanges.  This module centralizes the message *kind*
strings, the payload construction, and the payload-shape validation, so the
broker and peer endpoint code stays focused on protocol logic.

Network-anonymity note: the paper assumes network-level anonymity (onion
routing / Tarzan, Section 4.3) is layered underneath when desired; transport
addresses here are therefore treated as routing artifacts, not identities.
Application-level identity is carried only by keys and signatures, which is
what the anonymity analysis is about.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, NamedTuple

from repro.core.coin import Coin, CoinBinding
from repro.crypto.dsa import DsaSignature
from repro.crypto.group_signature import GroupSignature
from repro.crypto.keys import PublicKey
from repro.crypto.params import DlogParams
from repro.messages.codec import decode, encode
from repro.messages.envelope import DualSignedMessage, SignedMessage

# -- message kinds ------------------------------------------------------------

# peer -> broker
PURCHASE = "whopay.purchase"
PURCHASE_BATCH = "whopay.purchase_batch"
TOP_UP = "whopay.top_up"
DEPOSIT = "whopay.deposit"
DOWNTIME_TRANSFER = "whopay.downtime_transfer"
DOWNTIME_RENEWAL = "whopay.downtime_renewal"
SYNC_CHALLENGE = "whopay.sync_challenge"
SYNC = "whopay.sync"
BINDING_QUERY = "whopay.binding_query"  # lazy-sync check against the broker

# broker shard -> broker shard (federation; see docs/FEDERATION.md)
XSHARD_PREPARE = "whopay.xshard_prepare"

# peer -> peer
ISSUE_OFFER = "whopay.issue_offer"
ISSUE_COMPLETE = "whopay.issue_complete"
TRANSFER_OFFER = "whopay.transfer_offer"
TRANSFER_REQUEST = "whopay.transfer_request"
TRANSFER_COMPLETE = "whopay.transfer_complete"
RENEW_REQUEST = "whopay.renew_request"

# real-time detection
BINDING_UPDATE = "binding.update"


# -- envelope (de)serialization -------------------------------------------------
#
# Envelopes cross the transport as canonical bytes; these helpers rebuild the
# typed objects on the receiving side.


def encode_signed(message: SignedMessage) -> bytes:
    """Bytes form of a single-signed envelope."""
    return message.encode()


def decode_signed(data: bytes, params: DlogParams) -> SignedMessage:
    """Rebuild a :class:`SignedMessage` from :func:`encode_signed` output."""
    fields = decode(data)
    return SignedMessage(
        payload_bytes=fields["payload"],
        signer=PublicKey(params=params, y=fields["signer_y"]),
        # ``sig_c`` (the batch-verification hint) is optional: envelopes
        # sealed by older peers simply verify one at a time.
        signature=DsaSignature(
            r=fields["sig_r"], s=fields["sig_s"], commit=fields.get("sig_c")
        ),
    )


def encode_dual(message: DualSignedMessage) -> bytes:
    """Bytes form of a dual-signed (holder) envelope.

    ``gs_t`` carries the group signature's per-clause commitment hints so
    the broker can batch-verify holder envelopes
    (:func:`repro.crypto.group_signature.group_batch_verify`); like
    ``sig_c`` on the inner envelope it is untrusted accelerator metadata —
    stripping it merely costs the receiver exact verification.
    """
    gs = message.group_signature
    fields = {
        "inner": message.inner.encode(),
        "roster_version": message.roster_version,
        "gs_c1": gs.ciphertext.c1,
        "gs_c2": gs.ciphertext.c2,
        "gs_challenges": list(gs.challenges),
        "gs_responses_r": list(gs.responses_r),
        "gs_responses_x": list(gs.responses_x),
    }
    if gs.commitments is not None:
        fields["gs_t"] = [list(hint) for hint in gs.commitments]
    return encode(fields)


def decode_dual(data: bytes, params: DlogParams) -> DualSignedMessage:
    """Rebuild a :class:`DualSignedMessage` from :func:`encode_dual` output."""
    from repro.crypto.elgamal import ElGamalCiphertext

    fields = decode(data)
    inner = decode_signed(fields["inner"], params)
    hints = fields.get("gs_t")
    signature = GroupSignature(
        ciphertext=ElGamalCiphertext(c1=fields["gs_c1"], c2=fields["gs_c2"]),
        challenges=tuple(fields["gs_challenges"]),
        responses_r=tuple(fields["gs_responses_r"]),
        responses_x=tuple(fields["gs_responses_x"]),
        commitments=None if hints is None else tuple(tuple(hint) for hint in hints),
    )
    return DualSignedMessage(
        inner=inner,
        group_signature=signature,
        roster_version=fields["roster_version"],
    )


# -- payload shapes -----------------------------------------------------------


@dataclass(frozen=True)
class PurchaseRequest:
    """Body of the identity-signed purchase message.

    ``anonymous`` selects the Section 5.2 approach-3 coin format: the broker
    signs ``{h_CU, pk_CU}`` with no owner identity inside, and ``handle`` is
    the i3 rendezvous handle for reaching the owner.  The *purchase* itself
    stays identified (the broker debits a named account either way — the
    paper accepts that "the broker knows who made the initial purchase").
    """

    coin_y: int
    value: int
    account: str
    anonymous: bool = False
    handle: bytes | None = None

    def to_payload(self) -> dict[str, Any]:
        """Codec-ready dict."""
        return {
            "kind": "whopay.purchase_request",
            "coin_y": self.coin_y,
            "value": self.value,
            "account": self.account,
            "anonymous": self.anonymous,
            "handle": self.handle,
        }

    @classmethod
    def from_payload(cls, payload: Any) -> "PurchaseRequest":
        """Validate and rebuild; raises ``ValueError`` on bad shape."""
        if not isinstance(payload, dict) or payload.get("kind") != "whopay.purchase_request":
            raise ValueError("not a purchase request")
        if not isinstance(payload.get("coin_y"), int) or not isinstance(payload.get("value"), int):
            raise ValueError("malformed purchase request")
        if payload["value"] <= 0:
            raise ValueError("coin value must be positive")
        anonymous = bool(payload.get("anonymous", False))
        handle = payload.get("handle")
        if anonymous and not isinstance(handle, bytes):
            raise ValueError("anonymous purchase requires a handle")
        return cls(
            coin_y=payload["coin_y"],
            value=payload["value"],
            account=str(payload["account"]),
            anonymous=anonymous,
            handle=handle,
        )


@dataclass(frozen=True)
class BatchPurchaseRequest:
    """Body of an identity-signed batch purchase (Section 4.2: "It should be
    straightforward to modify this procedure to purchase coins in batch").

    One signature and one round trip cover many coins — the batch is the
    whole point, so the request carries a list of (coin key, value) pairs.
    """

    coins: tuple[tuple[int, int], ...]  # (coin_y, value) pairs
    account: str

    def to_payload(self) -> dict[str, Any]:
        """Codec-ready dict."""
        return {
            "kind": "whopay.batch_purchase_request",
            "coins": [list(pair) for pair in self.coins],
            "account": self.account,
        }

    @classmethod
    def from_payload(cls, payload: Any) -> "BatchPurchaseRequest":
        """Validate and rebuild; raises ``ValueError`` on bad shape."""
        if not isinstance(payload, dict) or payload.get("kind") != "whopay.batch_purchase_request":
            raise ValueError("not a batch purchase request")
        raw = payload.get("coins")
        if not isinstance(raw, tuple) or not raw:
            raise ValueError("batch must contain at least one coin")
        coins = []
        for entry in raw:
            if not (isinstance(entry, tuple) and len(entry) == 2):
                raise ValueError("malformed batch entry")
            coin_y, value = entry
            if not isinstance(coin_y, int) or not isinstance(value, int) or value <= 0:
                raise ValueError("malformed batch entry")
            coins.append((coin_y, value))
        if len({coin_y for coin_y, _ in coins}) != len(coins):
            raise ValueError("duplicate coin keys in batch")
        return cls(coins=tuple(coins), account=str(payload["account"]))


@dataclass(frozen=True)
class HolderOperation:
    """Body of a dual-signed holder message (deposit / transfer / renewal).

    ``op`` selects the operation; the coin and the holder's current proof
    binding travel as encoded envelopes; ``new_holder_y`` is present for
    transfers; ``payout_to`` for deposits; ``nonce`` binds the exchange to
    the payee's freshness challenge.
    """

    op: str
    coin_cert: bytes
    proof_binding: bytes
    proof_via_broker: bool
    new_holder_y: int | None = None
    payout_to: str | None = None
    nonce: bytes = b""
    #: top_up only: how much value to add and the signed debit authorization
    #: (an identity-signed ``debit_auth`` envelope for the funding account).
    delta: int | None = None
    funding_auth: bytes | None = None

    def to_payload(self) -> dict[str, Any]:
        """Codec-ready dict."""
        return {
            "kind": "whopay.holder_op",
            "op": self.op,
            "coin_cert": self.coin_cert,
            "proof_binding": self.proof_binding,
            "proof_via_broker": self.proof_via_broker,
            "new_holder_y": self.new_holder_y,
            "payout_to": self.payout_to,
            "nonce": self.nonce,
            "delta": self.delta,
            "funding_auth": self.funding_auth,
        }

    @classmethod
    def from_payload(cls, payload: Any) -> "HolderOperation":
        """Validate and rebuild; raises ``ValueError`` on bad shape."""
        if not isinstance(payload, dict) or payload.get("kind") != "whopay.holder_op":
            raise ValueError("not a holder operation")
        op = payload.get("op")
        if op not in ("deposit", "transfer", "renewal", "top_up"):
            raise ValueError(f"unknown holder op {op!r}")
        if op == "transfer" and not isinstance(payload.get("new_holder_y"), int):
            raise ValueError("transfer without new holder key")
        if op == "deposit" and not isinstance(payload.get("payout_to"), str):
            raise ValueError("deposit without payout account")
        if op == "top_up":
            if not isinstance(payload.get("delta"), int) or payload["delta"] <= 0:
                raise ValueError("top_up needs a positive delta")
            if not isinstance(payload.get("funding_auth"), bytes):
                raise ValueError("top_up needs a funding authorization")
        return cls(
            op=op,
            coin_cert=payload["coin_cert"],
            proof_binding=payload["proof_binding"],
            proof_via_broker=bool(payload["proof_via_broker"]),
            new_holder_y=payload.get("new_holder_y"),
            payout_to=payload.get("payout_to"),
            nonce=payload.get("nonce", b""),
            delta=payload.get("delta"),
            funding_auth=payload.get("funding_auth"),
        )


class HolderRequest(NamedTuple):
    """A holder request decoded from its wire bytes, ready for the broker.

    Produced once per request — by the verification pool, or by the broker
    itself when no pool vouched for the bytes — so the nested envelopes
    (holder envelope, coin certificate, proof binding) are parsed once.
    """

    operation: HolderOperation
    envelope: DualSignedMessage
    coin: Coin
    proof: CoinBinding
