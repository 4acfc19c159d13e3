"""The broker ``B`` (paper Sections 4.1–4.2).

The broker is the only entity that can create coins and the only one that
redeems them for cash.  Between those endpoints it is involved *only* when a
coin's owner is offline: downtime transfers, downtime renewals, and the
synchronization owners perform after rejoining — which is precisely the load
the paper's evaluation measures (Figures 2, 3, 6, 7, 10, 11).

Security duties implemented here:

* verifying dual-signed holder operations (coin-key signature proves
  holdership, group signature proves legitimate membership and enables
  fairness);
* the two downtime-verification flavours of Section 4.2 — signature check
  when the broker has no state for the coin, bit-by-bit comparison against
  stored state when it does;
* deposit-time double-spending detection: a second deposit of the same coin
  raises :class:`~repro.core.errors.DoubleSpendDetected` carrying both
  deposit envelopes as evidence for the judge;
* monotonic sequence-number enforcement on every binding it records.
"""

from __future__ import annotations

import hashlib
import hmac
import secrets
from dataclasses import dataclass, field
from typing import Any

from repro.core import protocol
from repro.core.clock import DEFAULT_RENEWAL_PERIOD, Clock
from repro.core.coin import Coin, CoinBinding
from repro.core.errors import (
    CoinExpired,
    DoubleSpendDetected,
    InsufficientFunds,
    NotHolder,
    ProtocolError,
    UnknownCoin,
    VerificationFailed,
)
from repro.core.judge import Judge
from repro.core.sharding import ShardMap
from repro.crypto.dsa import DsaSignature, dsa_batch_verify
from repro.crypto.keys import KeyPair, PublicKey
from repro.crypto.params import DlogParams
from repro.messages.envelope import SignedMessage, seal
from repro.net.node import Node
from repro.net.rpc import RetryPolicy, RpcClient, unwrap_idempotent, wrap_idempotent
from repro.net.transport import NetworkError, Transport
from repro.store import apply as store_apply
from repro.store import records as store_records
from repro.store.groupcommit import GroupCommitter
from repro.store.journal import DurableStore


#: Virtual-time budget for one shard-to-shard prepare/cancel RPC (WP114).
#: Generous — it bounds pathological jitter accumulation across retries,
#: it does not shape the common case.
XSHARD_DEADLINE = 60.0


def handoff_id(op: str, data: bytes) -> str:
    """Deterministic cross-shard handoff id for one client request.

    Derived from the exact request bytes, so a client retry (same bytes)
    re-drives the *same* handoff instead of starting a second one — the
    dedupe key that makes the two-step protocol exactly-once across
    crashes on either side.
    """
    return hashlib.sha256(b"whopay-handoff|" + op.encode() + b"|" + data).hexdigest()[:32]


@dataclass
class Account:
    """A broker-side cash account."""

    identity: PublicKey
    balance: int


@dataclass
class OperationCounts:
    """Per-operation counters matching the paper's load breakdown."""

    purchases: int = 0
    deposits: int = 0
    downtime_transfers: int = 0
    downtime_renewals: int = 0
    syncs: int = 0
    binding_queries: int = 0
    #: Cross-shard prepares served *for other shards* (federation overhead,
    #: not client-facing verified ops — deliberately outside :meth:`total`).
    handoffs: int = 0

    def total(self) -> int:
        """All client-facing broker operations (the paper's load measure)."""
        return (
            self.purchases
            + self.deposits
            + self.downtime_transfers
            + self.downtime_renewals
            + self.syncs
            + self.binding_queries
        )

    def merge(self, other: "OperationCounts") -> None:
        """Accumulate another counter set (federation-wide aggregation)."""
        self.purchases += other.purchases
        self.deposits += other.deposits
        self.downtime_transfers += other.downtime_transfers
        self.downtime_renewals += other.downtime_renewals
        self.syncs += other.syncs
        self.binding_queries += other.binding_queries
        self.handoffs += other.handoffs


class Broker(Node):
    """The broker endpoint.

    Inbound idempotency: the broker serves every peer, so its replay cache
    (the :class:`~repro.net.rpc.ReplayCache` inherited from ``Node``) is
    sized well above the per-peer default — a retried mutating request
    (deposit, downtime transfer, top-up…) whose reply was lost must still
    find its cached result here instead of re-running the handler and
    tripping the double-deposit guard.
    """

    #: Replay-cache bound for the broker (many clients, one endpoint).
    REPLAY_CACHE_CAPACITY = 4096

    def __init__(
        self,
        transport: Transport,
        judge: Judge,
        params: DlogParams,
        clock: Clock,
        address: str = "broker",
        renewal_period: float = DEFAULT_RENEWAL_PERIOD,
        store: DurableStore | None = None,
        keypair: KeyPair | None = None,
    ) -> None:
        super().__init__(transport, address)
        self.params = params
        self.judge = judge
        self.clock = clock
        self.renewal_period = renewal_period
        # Federated shards share one signing key so a coin minted on any
        # shard verifies against the system-wide ``pk_B``.
        self.keypair = keypair if keypair is not None else KeyPair.generate(params)

        self.accounts: dict[str, Account] = {}
        self.valid_coins: dict[int, Coin] = {}
        self.deposited: dict[int, bytes] = {}  # coin_y -> first deposit envelope
        self.downtime_bindings: dict[int, CoinBinding] = {}
        self.owner_coins: dict[str, set[int]] = {}
        self.pending_sync: dict[str, set[int]] = {}  # owner -> coins changed offline
        self.total_opened = 0  # conservation baseline: value ever opened
        #: Source-side cross-shard handoffs begun but not yet committed
        #: (h -> the journaled ``handoff_begin`` mutation).  Durable: a
        #: crash between prepare and commit recovers with the handoff still
        #: pending, and either the client's retry or an explicit
        #: :meth:`complete_pending_handoffs` re-drives it to completion.
        self.pending_handoffs: dict[str, dict[str, Any]] = {}
        #: Destination-side guard: prepare ids already applied.  Durable so
        #: a re-driven prepare stays exactly-once even after the replay
        #: cache evicted the original entry.
        self.handoffs_seen: set[str] = set()
        self.fraud_events: list[DoubleSpendDetected] = []
        self.counts = OperationCounts()
        self._sync_nonces: dict[str, bytes] = {}
        self._gpk_cache: dict[int, Any] = {}
        self.detection = None  # set by WhoPayNetwork when the DHT is enabled
        self.store: DurableStore | None = None
        self._staged: list[dict[str, Any]] = []
        #: Optional group committer (set by the throughput engine).  When
        #: present, :meth:`handle` stages its journal record there instead
        #: of appending per request; the engine owns flushing and must hold
        #: each staged request's reply until the covering fsync.
        self.committer: GroupCommitter | None = None
        #: One-shot ``on_durable`` callback for the *next* staged request
        #: (consumed by :meth:`handle`; set by the engine before each call).
        self.on_durable: Any = None
        #: Whether the most recent :meth:`handle` staged a journal record
        #: (i.e. whether its reply must wait for a covering fsync).
        self.last_request_staged: bool = False
        # SHA-256 digests of raw requests whose *cryptographic* checks a
        # verification pool already performed, each mapped to the typed
        # request the pool decoded from those bytes; consumed on first sight.
        self._preverified: dict[bytes, Any] = {}
        #: Federation wiring (set by :meth:`attach_federation`): the ring
        #: that maps coins/accounts to shards, and the retry policy used for
        #: shard-to-shard prepares.  ``None`` means standalone broker — every
        #: cross-shard branch below collapses to the local path.
        self.shard_map: ShardMap | None = None
        self._shard_rpc: RpcClient | None = None
        #: Precomputed-nonce pool for broker-signed bindings (set by the
        #: throughput engine per flush window; see DsaNoncePool).
        self.nonce_pool: Any = None
        if store is not None:
            self.bind_store(store)

        self.on(protocol.PURCHASE, self._handle_purchase)
        self.on(protocol.PURCHASE_BATCH, self._handle_purchase_batch)
        self.on(protocol.DEPOSIT, self._handle_deposit)
        self.on(protocol.DOWNTIME_TRANSFER, self._handle_downtime_transfer)
        self.on(protocol.DOWNTIME_RENEWAL, self._handle_downtime_renewal)
        self.on(protocol.TOP_UP, self._handle_top_up)
        self.on(protocol.SYNC_CHALLENGE, self._handle_sync_challenge)
        self.on(protocol.SYNC, self._handle_sync)
        self.on(protocol.BINDING_QUERY, self._handle_binding_query)
        self.on(protocol.XSHARD_PREPARE, self._handle_xshard_prepare)

    # -- durability -------------------------------------------------------------

    def bind_store(self, store: DurableStore) -> None:
        """Attach a durable store; every mutation from here on is journaled.

        A fresh store gets a ``broker_init`` record (address + signing key)
        as its first entry so recovery can rebuild the keypair.  A non-fresh
        store must be bound by :class:`~repro.store.recovery.RecoveryManager`
        *after* replay — binding it to an unrelated broker would interleave
        histories of two different keypairs.
        """
        was_fresh = store.fresh
        self.store = store
        if was_fresh:
            self._commit_local(
                store_records.broker_init_record(self.address, self.keypair)
            )

    def _stage(self, mut: dict[str, Any]) -> None:
        """Apply one mutation record and stage it for the request's journal entry.

        Handlers never touch the durable fields directly (lint rule WP106);
        they describe the mutation and this applies it through the same
        :mod:`repro.store.apply` function recovery replays it with.
        """
        store_apply.apply_broker(self, mut)
        if self.store is not None:
            self._staged.append(mut)

    def _commit_local(self, *muts: dict[str, Any]) -> None:
        """Apply and immediately journal mutations made outside any RPC."""
        for mut in muts:
            store_apply.apply_broker(self, mut)
        if self.store is not None:
            self.store.append(
                {"kind": "__local__", "idem": None, "reply": None, "muts": list(muts)}
            )

    def handle(self, kind: str, src: str, payload: Any) -> Any:
        """Dispatch, journaling the request's mutations before replying.

        Write-ahead discipline: the staged mutations (plus the reply, keyed
        by the request's idempotency key so recovery can refill the replay
        cache) are fsynced as one journal record *before* the result leaves
        this method.  A crash after the handler ran but before the append
        completes loses only in-memory state the client never saw — its
        retry re-executes against the recovered broker.  Replay-cache hits
        stage nothing, so retries never duplicate journal records.
        """
        if self.store is None:
            return super().handle(kind, src, payload)
        idem, _body = unwrap_idempotent(payload)
        self._staged = []
        try:
            result = super().handle(kind, src, payload)
        except BaseException:
            self._staged = []
            raise
        staged, self._staged = self._staged, []
        on_durable, self.on_durable = self.on_durable, None
        self.last_request_staged = bool(staged)
        if staged:
            record = {
                "kind": kind,
                "idem": idem,
                "reply": result if idem is not None else None,
                "muts": staged,
            }
            if self.committer is not None:
                # Group commit: the record becomes durable at the next
                # flush; the caller must sit on the reply until then (the
                # ``on_durable`` callback is its release signal).
                self.committer.stage(record, on_durable=on_durable)
            else:
                self.store.append(record)
        return result

    # -- accounts ---------------------------------------------------------------

    @property
    def public_key(self) -> PublicKey:
        """The broker's verification key ``pk_B`` (system-wide known)."""
        return self.keypair.public

    def open_account(self, name: str, identity: PublicKey, balance: int) -> None:
        """Open a cash account (bank-relationship setup, out of protocol)."""
        if name in self.accounts:
            raise ValueError(f"account {name!r} already exists")
        self._commit_local(
            {"type": "open_account", "name": name, "identity_y": identity.y, "balance": balance}
        )

    def open_account_from_certificate(self, certificate, ca_key: PublicKey, balance: int) -> None:
        """Open an account from a CA-issued identity certificate.

        The paper's purchase flow has users present "a public key
        certificate"; with this path the broker needs no out-of-band key
        table — trust in the CA key suffices.  Raises on invalid, expired,
        or revoked-by-shape certificates.
        """
        from repro.core.errors import VerificationFailed as _VF

        if not certificate.verify(ca_key, now=self.clock.now()):
            raise _VF("identity certificate invalid or expired")
        self.open_account(
            certificate.subject,
            certificate.subject_key(self.params),
            balance,
        )

    def balance(self, name: str) -> int:
        """Current balance of ``name`` (0 for unknown pseudonymous payouts)."""
        account = self.accounts.get(name)
        return 0 if account is None else account.balance

    def circulating_value(self) -> int:
        """Total value of coins minted and not yet deposited."""
        return sum(
            coin.value
            for coin_y, coin in self.valid_coins.items()
            if coin_y not in self.deposited
        )

    def verify_conservation(self, expected_total: int) -> bool:
        """Audit hook: accounts + circulating value must equal total wealth.

        Value enters the system only through :meth:`open_account`; every
        protocol operation merely moves it between accounts and coins.  A
        False return means a minting/accounting bug — tests and the stateful
        property machine call this after every step.
        """
        accounts = sum(account.balance for account in self.accounts.values())
        return accounts + self.circulating_value() == expected_total

    def export_ledger(self) -> dict[str, Any]:
        """Audit export: counts, balances, and circulation (no secrets)."""
        return {
            "accounts": {name: account.balance for name, account in self.accounts.items()},
            "coins_minted": len(self.valid_coins),
            "coins_deposited": len(self.deposited),
            "circulating_value": self.circulating_value(),
            "downtime_bindings": len(self.downtime_bindings),
            "fraud_events": len(self.fraud_events),
            "operation_counts": {
                "purchases": self.counts.purchases,
                "deposits": self.counts.deposits,
                "downtime_transfers": self.counts.downtime_transfers,
                "downtime_renewals": self.counts.downtime_renewals,
                "syncs": self.counts.syncs,
                "binding_queries": self.counts.binding_queries,
                "handoffs": self.counts.handoffs,
            },
            "pending_handoffs": len(self.pending_handoffs),
        }

    def health(self) -> dict[str, Any]:
        """Liveness surface for supervisors and dashboards (cheap, no secrets)."""
        pending = len(self.pending_handoffs)
        return {
            "ok": bool(self.online) and pending == 0,
            "online": bool(self.online),
            "address": self.address,
            "pending_handoffs": pending,
            "accounts": len(self.accounts),
            "circulating_value": self.circulating_value(),
            "operations": self.counts.total(),
        }

    # -- federation (cross-shard handoffs) ---------------------------------------

    def attach_federation(self, shard_map: ShardMap, policy: RetryPolicy | None = None) -> None:
        """Join a broker federation: this shard owns the keys the ring maps
        to its address and forwards the rest as two-step handoffs.

        ``policy`` governs shard-to-shard prepare RPCs (retries ride the
        same idempotency discipline as client calls).
        """
        self.shard_map = shard_map
        self._shard_rpc = RpcClient(node=self, policy=policy)

    def _account_home(self, name: str) -> str | None:
        """Home shard address for an account, or ``None`` when it is ours
        (or there is no federation)."""
        if self.shard_map is None:
            return None
        home = self.shard_map.shard_for_account(name)
        return None if home == self.address else home

    def _coin_home(self, coin_y: int) -> str | None:
        """Home shard address for a coin key, or ``None`` when it is ours."""
        if self.shard_map is None:
            return None
        home = self.shard_map.shard_for_coin(coin_y)
        return None if home == self.address else home

    def _send_prepares(self, record: dict[str, Any]) -> None:
        """Fan out every prepare of one pending handoff to its destination.

        All prepares are *issued* before the outcome is decided — a batch
        purchase whose coins hash to several sibling shards drives every
        shard's prepare even if an earlier one failed, rather than stopping
        at the first error.  Each prepare payload is pre-wrapped in the
        idempotency envelope keyed by its handoff id, so destination-side
        dedupe works across retries, crashes, and replay-cache eviction.

        Outcome resolution, in precedence order:

        * any destination's *validation* rejection wins — every mint
          prepare in the record is compensated (``unmint`` is an idempotent
          per-coin no-op on shards the prepare never reached) and the
          rejection re-raises, so the caller aborts the handoff;
        * otherwise a transport-level failure (``RetriesExhausted``,
          ``NodeOffline``, timeout) propagates and the handoff stays
          pending for a later re-drive — destination dedupe via
          ``handoffs_seen`` keeps the re-drive exactly-once.
        """
        assert self._shard_rpc is not None
        rejection: ProtocolError | None = None
        transport_failure: Exception | None = None
        for prep in record["prepares"]:
            payload = dict(prep["payload"])
            payload["h"] = prep["h"]
            try:
                self._shard_rpc.call(
                    prep["dest"],
                    protocol.XSHARD_PREPARE,
                    wrap_idempotent(seal(self.keypair, payload).encode(), prep["h"]),
                    deadline=XSHARD_DEADLINE,
                )
            except ProtocolError as exc:
                rejection = rejection or exc
            except NetworkError as exc:
                transport_failure = transport_failure or exc
        if rejection is not None:
            self._cancel_prepares(record)
            raise rejection
        if transport_failure is not None:
            raise transport_failure

    def _cancel_prepares(self, record: dict[str, Any]) -> None:
        """Compensate the record's mint prepares after a validation rejection.

        Only mints need undoing (credits/debits are single-prepare
        handoffs, so a rejection means nothing was applied).  The cancel is
        itself an idempotent prepare (``op: unmint``) keyed off the original
        prepare id — a per-coin no-op on any shard the original prepare
        never reached — so cancelling the *whole* record after a fan-out is
        safe, and so is re-driving a cancel.
        """
        assert self._shard_rpc is not None
        for prep in record["prepares"]:
            if prep["payload"].get("op") != "mint":
                continue
            cancel = {
                "h": prep["h"] + "#cancel",
                "op": "unmint",
                "coins": prep["payload"]["coins"],
            }
            self._shard_rpc.call(
                prep["dest"],
                protocol.XSHARD_PREPARE,
                wrap_idempotent(seal(self.keypair, cancel).encode(), cancel["h"]),
                deadline=XSHARD_DEADLINE,
            )

    def _finish_handoff(self, h: str, staged: bool) -> None:
        """Second step of a handoff: drive prepares, then commit locally.

        ``staged=True`` rides the current request's journal record (commit
        and reply become durable in one fsync); ``staged=False`` is the
        out-of-request re-drive path (:meth:`complete_pending_handoffs`).
        On a destination *validation* rejection the handoff is aborted
        (journaled) and the error propagates to the client.
        """
        record = self.pending_handoffs[h]
        try:
            self._send_prepares(record)
        except ProtocolError:
            # The handler is about to re-raise, which discards staged muts —
            # the abort must be journaled immediately instead.
            self._commit_local({"type": "handoff_abort", "h": h})
            raise
        commit = {"type": "handoff_commit", "h": h}
        if staged:
            self._stage(commit)
        else:
            self._commit_local(commit)

    def complete_pending_handoffs(self) -> int:
        """Re-drive handoffs orphaned by a crash between prepare and commit.

        Deliberately *not* run automatically at recovery: a client whose
        request started the handoff may still be retrying, and its retry
        completes the handoff naturally (same handoff id).  Call this after
        the dust settles — e.g. at the end of a chaos storm — to guarantee
        no value is stuck in flight.  Returns the number completed.
        """
        completed = 0
        for h in sorted(self.pending_handoffs):
            try:
                self._finish_handoff(h, staged=False)
            except ProtocolError:
                continue  # aborted (journaled); value never left the source
            completed += 1
        return completed

    def _begin_handoff(self, h: str, begin: dict[str, Any]) -> None:
        """First step: journal the handoff intent *before* any prepare RPC.

        Idempotent across client retries — a pending ``h`` means the begin
        record is already durable and must not be re-applied.
        """
        if h not in self.pending_handoffs:
            self._commit_local(dict(begin, type="handoff_begin", h=h))

    def _handle_xshard_prepare(self, src: str, payload: Any) -> dict[str, Any]:
        """Destination side of a cross-shard handoff (see docs/FEDERATION.md).

        Validates the op against local state and applies it via a journaled
        ``xshard_apply`` mutation.  The durable ``handoffs_seen`` set makes
        re-driven prepares no-ops even if the replay cache evicted the
        original reply.

        Prepares arrive sealed under the federation signing key: only a
        sibling shard can originate one, so a forged prepare cannot mint,
        credit, or unmint value (lint rule WP113).
        """
        self.counts.handoffs += 1
        if not isinstance(payload, (bytes, bytearray)):
            raise ProtocolError("cross-shard prepare must be a sealed envelope")
        sealed = protocol.decode_signed(bytes(payload), self.params)
        if sealed.signer.y != self.public_key.y or not sealed.verify():
            raise VerificationFailed(
                "cross-shard prepare not signed by the federation key"
            )
        payload = sealed.payload
        if (
            not isinstance(payload, dict)
            or not isinstance(payload.get("h"), str)
            or not isinstance(payload.get("op"), str)
        ):
            raise ProtocolError("malformed cross-shard prepare")
        h, op = payload["h"], payload["op"]
        if h in self.handoffs_seen:
            return {"ok": True, "replayed": True}
        if op == "mint":
            for coin_bytes in payload.get("coins", ()):
                coin = Coin(cert=protocol.decode_signed(coin_bytes, self.params))
                if coin.cert.signer.y != self.public_key.y or not coin.verify_unsigned():
                    raise VerificationFailed("cross-shard mint carries an invalid certificate")
                if not coin.cert.verify():
                    raise VerificationFailed("cross-shard mint certificate signature invalid")
                if not self.params.is_element(coin.coin_y):
                    raise ProtocolError("cross-shard mint coin key is not a group element")
                existing = self.valid_coins.get(coin.coin_y)
                if existing is not None and existing.encode() != coin_bytes:
                    raise ProtocolError("coin key collision across shards")
        elif op == "credit":
            credited = payload.get("credited")
            if not isinstance(credited, int) or credited <= 0:
                raise ProtocolError("cross-shard credit must be positive")
            if not isinstance(payload.get("payout_to"), str):
                raise ProtocolError("cross-shard credit without payout account")
        elif op == "debit":
            amount = payload.get("amount")
            if not isinstance(amount, int) or amount <= 0:
                raise ProtocolError("cross-shard debit must be positive")
            account = self.accounts.get(payload.get("account"))
            if account is None or account.identity.y != payload.get("auth_identity_y"):
                raise VerificationFailed(
                    "funding authorization not signed by the account identity"
                )
            if account.balance < amount:
                raise InsufficientFunds("funding account cannot cover the top-up")
        elif op == "unmint":
            pass  # compensation: always applicable (per-coin no-op if absent)
        else:
            raise ProtocolError(f"unknown cross-shard op {op!r}")
        self._stage(dict(payload, type="xshard_apply"))
        return {"ok": True}

    # -- verification helpers -----------------------------------------------------

    def mark_preverified(self, marks: dict[bytes, Any]) -> None:
        """Record raw requests whose signatures a verification pool checked.

        ``marks`` maps the SHA-256 digest of the exact request bytes to the
        typed request the pool decoded from them (a
        :class:`~repro.core.protocol.HolderRequest` or a purchase's
        :class:`SignedMessage`).  The next time each request arrives, the
        broker reuses that typed request instead of decoding the bytes
        again and skips re-running its *cryptographic* checks (group
        signature, DSA signatures) — every structural and state check
        (circulation, double-spend, holdership binding, expiry, balances)
        still runs in the broker, because only the broker holds that state.
        Entries are consumed on first use, so a digest can never vouch for
        more than one admission.  Marks live for one verify-batch: each call
        replaces the previous marks, so a mark no handler consumed (a retry
        answered from the replay cache) is dropped with its batch instead
        of holding its decoded request for good.
        """
        self._preverified = dict(marks)

    def _take_preverified(self, data: bytes, expected: type) -> Any:
        """Consume a pool pre-verification for ``data``; its typed request.

        ``None`` when the pool did not vouch for these bytes, or vouched
        for them as a different kind of request than the handler expects
        (same bytes sent under two kinds): the handler then decodes and
        verifies everything itself.
        """
        if not self._preverified:
            return None
        request = self._preverified.pop(hashlib.sha256(data).digest(), None)
        return request if isinstance(request, expected) else None

    def _gpk_at(self, version: int):
        if version not in self._gpk_cache:
            self._gpk_cache[version] = self.judge.group_public_key_at(version)
        return self._gpk_cache[version]

    def _verify_holder_op(self, data: bytes) -> protocol.HolderRequest:
        """Common validation for deposit / downtime transfer / downtime renewal.

        Returns the decoded operation, its envelope, the coin, and the
        holder's (verified) proof binding.  Raises a protocol error subclass
        on any failure.

        When the request was pre-verified by a verification pool
        (:meth:`mark_preverified`), the pool's typed request is reused
        instead of decoding ``data`` again, and the signature checks — the
        group signature here and the DSA batch at the end — are skipped;
        the pool already ran them (unconditionally, including the
        proof-binding signature) on these exact bytes.  All structural and
        state checks below still run.
        """
        preverified = self._take_preverified(data, protocol.HolderRequest)
        crypto_done = preverified is not None
        if preverified is not None:
            operation, envelope, coin, proof = preverified
        else:
            try:
                envelope = protocol.decode_dual(data, self.params)
                operation = protocol.HolderOperation.from_payload(envelope.payload)
            except (ValueError, KeyError) as exc:
                raise ProtocolError(f"malformed holder operation: {exc}") from exc

        if envelope.roster_version < self.judge.minimum_accepted_version:
            raise VerificationFailed(
                "group signature predates the latest expulsion (revoked snapshot)"
            )
        gpk = self._gpk_at(envelope.roster_version)
        if not crypto_done and not envelope.verify_group(gpk):
            raise VerificationFailed("holder envelope signatures invalid")
        # The request's DSA signatures (inner holder envelope, coin cert,
        # proof binding) are collected here and checked together with one
        # randomized batch verification at the end, after every structural
        # check has picked its precise error.
        dsa_batch: list[tuple[PublicKey, bytes, DsaSignature]] = [
            (envelope.coin_signer, envelope.inner.payload_bytes, envelope.inner.signature)
        ]

        if preverified is None:
            coin = Coin(cert=protocol.decode_signed(operation.coin_cert, self.params))
        if coin.cert.signer.y != self.public_key.y or not coin.verify_unsigned():
            raise VerificationFailed("coin certificate invalid")
        dsa_batch.append((coin.cert.signer, coin.cert.payload_bytes, coin.cert.signature))
        if coin.coin_y not in self.valid_coins:
            raise UnknownCoin(f"coin {coin.coin_y:#x} is not in circulation")
        if coin.coin_y in self.deposited:
            event = DoubleSpendDetected(
                "coin already deposited",
                evidence={
                    "coin_y": coin.coin_y,
                    "first_deposit": self.deposited[coin.coin_y],
                    "second_request": data,
                },
            )
            self.fraud_events.append(event)
            raise event

        if preverified is None:
            proof = CoinBinding(
                signed=protocol.decode_signed(operation.proof_binding, self.params),
                via_broker=operation.proof_via_broker,
            )
        stored = self.downtime_bindings.get(coin.coin_y)
        if stored is not None and operation.proof_via_broker:
            # Second flavour (Section 4.2): bit-by-bit comparison with state.
            if proof.encode() != stored.encode():
                raise NotHolder("proof binding does not match broker state")
        else:
            coin_key = coin.coin_public_key(self.params)
            if not proof.verify_unsigned(coin_key, self.public_key):
                raise VerificationFailed("proof binding signature invalid")
            dsa_batch.append(
                (proof.signed.signer, proof.signed.payload_bytes, proof.signed.signature)
            )
            if stored is not None and proof.seq < stored.seq:
                raise NotHolder("proof binding is stale (older than broker state)")
        # Holdership: the inner envelope must be signed by the bound holder key.
        if envelope.coin_signer.y != proof.holder_y:
            raise NotHolder("request not signed with the bound holder key")
        if self.clock.now() > proof.exp_date:
            raise CoinExpired(f"coin {coin.coin_y:#x} expired")
        if not crypto_done and not dsa_batch_verify(dsa_batch):
            # Re-check individually for a precise error message.
            if not envelope.inner.verify():
                raise VerificationFailed("holder envelope signatures invalid")
            if not coin.cert.verify():
                raise VerificationFailed("coin certificate invalid")
            raise VerificationFailed("proof binding signature invalid")
        return protocol.HolderRequest(operation, envelope, coin, proof)

    def _record_downtime_binding(self, coin: Coin, binding: CoinBinding) -> None:
        self._stage(
            {
                "type": "downtime_binding",
                "coin_y": coin.coin_y,
                "binding": binding.signed.encode(),
                "owner": coin.owner_address,
            }
        )
        # DHT publication is transport-side, not durable state: recovery
        # replay rebuilds the binding table without re-publishing.
        if self.detection is not None:
            self.detection.publish_broker(self, binding)

    # -- handlers --------------------------------------------------------------

    def _handle_purchase(self, src: str, data: bytes) -> bytes:
        """Purchase (Section 4.2): verify identity, debit, sign the coin."""
        self.counts.purchases += 1
        preverified = self._take_preverified(data, SignedMessage)
        try:
            signed = preverified or protocol.decode_signed(data, self.params)
            request = protocol.PurchaseRequest.from_payload(signed.payload)
        except (ValueError, KeyError) as exc:
            raise ProtocolError(f"malformed purchase: {exc}") from exc
        if preverified is None and not signed.verify():
            raise VerificationFailed("purchase signature invalid")
        account = self.accounts.get(request.account)
        if account is None or account.identity.y != signed.signer.y:
            raise VerificationFailed("purchase not signed by the account identity")
        if account.balance < request.value:
            raise InsufficientFunds(f"account {request.account!r} cannot cover {request.value}")
        dest = self._coin_home(request.coin_y)
        if dest is None and request.coin_y in self.valid_coins:
            raise ProtocolError("coin key collision (resubmitted purchase?)")
        if not self.params.is_element(request.coin_y):
            raise ProtocolError("coin key is not a valid group element")
        if request.anonymous:
            # Section 5.2 approach 3: ownerless coin — the certificate binds
            # only the handle and the coin key.  The broker cannot map the
            # coin to its owner afterwards, so no owner index entry is made
            # (which is why lazy synchronization replaces sync for these).
            coin = Coin.build(
                self.keypair,
                coin_y=request.coin_y,
                value=request.value,
                owner_address=None,
                owner_y=None,
                handle=request.handle,
            )
        else:
            coin = Coin.build(
                self.keypair,
                coin_y=request.coin_y,
                value=request.value,
                owner_address=src,
                owner_y=signed.signer.y,
                handle=None,
            )
        if dest is None:
            self._stage(
                {
                    "type": "mint",
                    "account": request.account,
                    "debit": request.value,
                    "coins": [coin.encode()],
                }
            )
            return coin.encode()
        # Cross-shard purchase: this shard (the account's home) debits; the
        # coin's home shard records circulation.  Two-step handoff — begin
        # journaled before the prepare RPC, commit staged with the reply.
        h = handoff_id("purchase", data)
        if h not in self.pending_handoffs:
            self._begin_handoff(
                h,
                {
                    "op": "purchase",
                    "account": request.account,
                    "debit": request.value,
                    "remote_value": request.value,
                    "local_coins": [],
                    "reply_coins": [coin.encode()],
                    "prepares": [
                        {
                            "h": h + "#0",
                            "dest": dest,
                            "payload": {"op": "mint", "coins": [coin.encode()]},
                        }
                    ],
                },
            )
        reply = self.pending_handoffs[h]["reply_coins"][0]
        self._finish_handoff(h, staged=True)
        return reply

    def _handle_purchase_batch(self, src: str, data: bytes) -> list[bytes]:
        """Batch purchase: one signed request, many coins (Section 4.2).

        Atomic: either the whole batch is minted and the account debited for
        the total, or nothing happens.  Counted as one broker operation —
        the amortization is exactly what batching is for.
        """
        self.counts.purchases += 1
        preverified = self._take_preverified(data, SignedMessage)
        try:
            signed = preverified or protocol.decode_signed(data, self.params)
            request = protocol.BatchPurchaseRequest.from_payload(signed.payload)
        except (ValueError, KeyError) as exc:
            raise ProtocolError(f"malformed batch purchase: {exc}") from exc
        if preverified is None and not signed.verify():
            raise VerificationFailed("batch purchase signature invalid")
        account = self.accounts.get(request.account)
        if account is None or account.identity.y != signed.signer.y:
            raise VerificationFailed("batch purchase not signed by the account identity")
        total = sum(value for _coin_y, value in request.coins)
        if account.balance < total:
            raise InsufficientFunds(
                f"account {request.account!r} cannot cover batch total {total}"
            )
        for coin_y, _value in request.coins:
            if self._coin_home(coin_y) is None and coin_y in self.valid_coins:
                raise ProtocolError("coin key collision in batch")
            if not self.params.is_element(coin_y):
                raise ProtocolError("batch contains an invalid coin key")
        coins = Coin.build_batch(
            self.keypair,
            [
                {
                    "coin_y": coin_y,
                    "value": value,
                    "owner_address": src,
                    "owner_y": signed.signer.y,
                    "handle": None,
                }
                for coin_y, value in request.coins
            ],
        )
        minted = [coin.encode() for coin in coins]
        local: list[bytes] = []
        remote: dict[str, list[bytes]] = {}
        remote_value = 0
        for coin, raw in zip(coins, minted):
            coin_dest = self._coin_home(coin.coin_y)
            if coin_dest is None:
                local.append(raw)
            else:
                remote.setdefault(coin_dest, []).append(raw)
                remote_value += coin.value
        if not remote:
            self._stage(
                {"type": "mint", "account": request.account, "debit": total, "coins": minted}
            )
            return minted
        # Cross-shard batch: one handoff, one prepare per destination shard.
        # A later destination's rejection triggers unmint compensation on the
        # earlier ones (see _cancel_prepares), keeping the batch atomic.
        h = handoff_id("purchase_batch", data)
        if h not in self.pending_handoffs:
            self._begin_handoff(
                h,
                {
                    "op": "purchase",
                    "account": request.account,
                    "debit": total,
                    "remote_value": remote_value,
                    "local_coins": local,
                    "reply_coins": minted,
                    "prepares": [
                        {
                            "h": f"{h}#{index}",
                            "dest": shard,
                            "payload": {"op": "mint", "coins": shard_coins},
                        }
                        for index, (shard, shard_coins) in enumerate(sorted(remote.items()))
                    ],
                },
            )
        reply = list(self.pending_handoffs[h]["reply_coins"])
        self._finish_handoff(h, staged=True)
        return reply

    def _handle_deposit(self, src: str, data: bytes) -> dict[str, Any]:
        """Deposit: verify holdership + membership, credit, retire the coin."""
        self.counts.deposits += 1
        operation, envelope, coin, proof = self._verify_holder_op(data)
        if operation.op != "deposit":
            raise ProtocolError("deposit handler got a non-deposit operation")
        assert operation.payout_to is not None
        # The broker's registry is authoritative for value: a holder whose
        # certificate predates a top-up still redeems the full amount.
        # Unknown payout names open a pseudonymous bearer account on the fly
        # (the depositor stays anonymous; the account token is its claim).
        value = self.valid_coins[coin.coin_y].value
        dest = self._account_home(operation.payout_to)
        if dest is None:
            self._stage(
                {
                    "type": "deposit",
                    "coin_y": coin.coin_y,
                    "envelope": data,
                    "payout_to": operation.payout_to,
                    "payout_identity_y": envelope.coin_signer.y,
                    "credited": value,
                }
            )
            return {"ok": True, "credited": value}
        # Cross-shard deposit: this shard (the coin's home) retires the coin;
        # the payout account's home shard credits it.
        h = handoff_id("deposit", data)
        self._begin_handoff(
            h,
            {
                "op": "deposit",
                "coin_y": coin.coin_y,
                "envelope": data,
                "credited": value,
                "prepares": [
                    {
                        "h": h + "#0",
                        "dest": dest,
                        "payload": {
                            "op": "credit",
                            "payout_to": operation.payout_to,
                            "payout_identity_y": envelope.coin_signer.y,
                            "credited": value,
                        },
                    }
                ],
            },
        )
        self._finish_handoff(h, staged=True)
        return {"ok": True, "credited": value}

    def _fresh_binding(self, coin: Coin, holder_y: int, previous_seq: int) -> CoinBinding:
        return CoinBinding.build(
            self.keypair,
            coin_y=coin.coin_y,
            holder_y=holder_y,
            seq=previous_seq + 1,
            exp_date=self.clock.now() + self.renewal_period,
            via_broker=True,
            nonce_pool=self.nonce_pool,
        )

    def _handle_downtime_transfer(self, src: str, data: bytes) -> bytes:
        """Downtime transfer (Section 4.2): re-bind the coin, keep state."""
        self.counts.downtime_transfers += 1
        operation, envelope, coin, proof = self._verify_holder_op(data)
        if operation.op != "transfer":
            raise ProtocolError("downtime-transfer handler got a non-transfer op")
        assert operation.new_holder_y is not None
        if not self.params.is_element(operation.new_holder_y):
            raise ProtocolError("new holder key is not a valid group element")
        binding = self._fresh_binding(coin, operation.new_holder_y, proof.seq)
        self._record_downtime_binding(coin, binding)
        return binding.encode()

    def _handle_downtime_renewal(self, src: str, data: bytes) -> bytes:
        """Downtime renewal (Section 4.2): same holder, new seq and expiry."""
        self.counts.downtime_renewals += 1
        operation, envelope, coin, proof = self._verify_holder_op(data)
        if operation.op != "renewal":
            raise ProtocolError("downtime-renewal handler got a non-renewal op")
        binding = self._fresh_binding(coin, proof.holder_y, proof.seq)
        self._record_downtime_binding(coin, binding)
        return binding.encode()

    def _handle_top_up(self, src: str, data: bytes) -> bytes:
        """Increase a coin's value (the Section 2 security property's "only
        the broker can … increase the value of coins").

        The requester proves holdership anonymously (dual-signed envelope)
        and separately authorizes the funding debit with the funding
        account's identity key.  The broker re-mints the certificate at the
        new value; the coin key, owner, and current binding are untouched,
        so the coin keeps circulating seamlessly.
        """
        self.counts.purchases += 1  # value creation: accounted like a purchase
        operation, envelope, coin, proof = self._verify_holder_op(data)
        if operation.op != "top_up":
            raise ProtocolError("top-up handler got a different operation")
        assert operation.delta is not None and operation.funding_auth is not None
        auth = protocol.decode_signed(operation.funding_auth, self.params)
        auth_payload = auth.payload
        if (
            not isinstance(auth_payload, dict)
            or auth_payload.get("kind") != "whopay.debit_auth"
            or auth_payload.get("coin_y") != coin.coin_y
            or auth_payload.get("amount") != operation.delta
        ):
            raise ProtocolError("malformed funding authorization")
        account_name = str(auth_payload.get("account"))
        dest = self._account_home(account_name)
        if dest is None:
            account = self.accounts.get(account_name)
            if account is None or auth.signer.y != account.identity.y or not auth.verify():
                raise VerificationFailed(
                    "funding authorization not signed by the account identity"
                )
            if account.balance < operation.delta:
                raise InsufficientFunds("funding account cannot cover the top-up")
        elif not auth.verify():
            # Identity/balance checks happen at the funding account's home
            # shard (the debit prepare); the signature is checked here.
            raise VerificationFailed("funding authorization signature invalid")
        payload = coin.payload
        new_coin = Coin.build(
            self.keypair,
            coin_y=coin.coin_y,
            value=coin.value + operation.delta,
            owner_address=payload["owner"],
            owner_y=payload["owner_y"],
            handle=payload["handle"],
        )
        if dest is None:
            self._stage(
                {
                    "type": "top_up",
                    "coin_y": coin.coin_y,
                    "coin": new_coin.encode(),
                    "account": account_name,
                    "delta": operation.delta,
                }
            )
            return new_coin.encode()
        # Cross-shard top-up: this shard (the coin's home) re-mints; the
        # funding account's home shard validates identity and debits.
        h = handoff_id("top_up", data)
        if h not in self.pending_handoffs:
            self._begin_handoff(
                h,
                {
                    "op": "top_up",
                    "coin_y": coin.coin_y,
                    "coin": new_coin.encode(),
                    "delta": operation.delta,
                    "prepares": [
                        {
                            "h": h + "#0",
                            "dest": dest,
                            "payload": {
                                "op": "debit",
                                "account": account_name,
                                "amount": operation.delta,
                                "auth_identity_y": auth.signer.y,
                            },
                        }
                    ],
                },
            )
        reply = self.pending_handoffs[h]["coin"]
        self._finish_handoff(h, staged=True)
        return reply

    def _handle_sync_challenge(self, src: str, _payload: Any) -> bytes:
        """First half of sync: hand out a fresh challenge nonce."""
        nonce = secrets.token_bytes(16)
        self._sync_nonces[src] = nonce
        return nonce

    def _handle_sync(self, src: str, data: bytes) -> list[tuple[int, bytes]]:
        """Proactive synchronization (Section 4.2).

        The owner proves its identity by signing the challenge nonce with its
        identity key; the broker replies with every binding it recorded for
        the owner's coins during the downtime.
        """
        self.counts.syncs += 1
        try:
            signed = protocol.decode_signed(data, self.params)
            payload = signed.payload
            nonce = payload["nonce"]
        except (ValueError, KeyError, TypeError) as exc:
            raise ProtocolError(f"malformed sync: {exc}") from exc
        expected = self._sync_nonces.pop(src, None)
        # Constant-time: the nonce gates a state-revealing reply, so the
        # comparison must not leak the matching prefix length.
        if (
            expected is None
            or not isinstance(nonce, bytes)
            or not hmac.compare_digest(nonce, expected)
        ):
            raise VerificationFailed("sync nonce missing or mismatched")
        if not signed.verify():
            raise VerificationFailed("sync signature invalid")
        owned = self.owner_coins.get(src, set())
        known_identities = {
            self.valid_coins[coin_y].owner_y for coin_y in owned
        }
        if owned and signed.signer.y not in known_identities:
            raise VerificationFailed("sync not signed by the coin owner's identity")
        changed = self.pending_sync.get(src, set())
        response = []
        for coin_y in sorted(changed):
            binding = self.downtime_bindings.get(coin_y)
            if binding is not None:
                response.append((coin_y, binding.encode()))
        if src in self.pending_sync:
            self._stage({"type": "sync_consumed", "owner": src})
        return response

    def _handle_binding_query(self, src: str, coin_y: int) -> bytes | None:
        """Lazy-sync check: the owner asks for broker state on one coin."""
        self.counts.binding_queries += 1
        binding = self.downtime_bindings.get(coin_y)
        return None if binding is None else binding.encode()
