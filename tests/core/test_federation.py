"""Sharded broker federation behind the unified BrokerAPI (PR 7).

Covers the consistent-hash shard map, the topology/config objects, the
ShardRouter facade, shard-aware client routing, and
— the heart of the PR — exactly-once cross-shard handoffs for purchase,
batch purchase, deposit, and top-up.
"""

import warnings

import pytest

from repro.core import protocol
from repro.core.broker import handoff_id
from repro.core.errors import ProtocolError, VerificationFailed
from repro.messages.envelope import seal
from repro.core.brokerapi import BrokerAPI, ShardRouter
from repro.core.coin import Coin
from repro.core.network import BrokerTopology, PeerConfig, WhoPayNetwork
from repro.core.sharding import ShardMap
from repro.crypto.keys import KeyPair
from repro.crypto.params import PARAMS_TEST_512
from repro.messages.envelope import seal
from repro.net.rpc import RetryPolicy
from repro.net.transport import FaultPlan
from repro.store.audit import audit_broker

RETRY = RetryPolicy(max_attempts=4, base_delay=0.01, multiplier=2.0, max_delay=0.1)


@pytest.fixture()
def fednet():
    """A 4-shard federation with a retry policy (handoffs ride RPC retries)."""
    return WhoPayNetwork(
        params=PARAMS_TEST_512,
        retry_policy=RETRY,
        topology=BrokerTopology(shards=4),
    )


def coin_keypair_homed(net, shard_address):
    """A coin keypair whose consistent-hash home is ``shard_address``."""
    while True:
        keypair = KeyPair.generate(net.params)
        if net.shard_map.shard_for_coin(keypair.public.y) == shard_address:
            return keypair


def purchase_homed(net, peer, shard_address, value=1):
    """Purchase a coin whose home is ``shard_address`` (forces or avoids a
    cross-shard handoff depending on the buyer's account home)."""
    keypair = coin_keypair_homed(net, shard_address)
    request = protocol.PurchaseRequest(
        coin_y=keypair.public.y, value=value, account=peer.address
    )
    signed = seal(peer.identity, request.to_payload())
    coin_bytes = peer.broker_client.purchase(signed.encode(), account=peer.address)
    coin = Coin(cert=protocol.decode_signed(coin_bytes, net.params))
    assert coin.verify(peer.broker_key)
    return coin


class TestShardMap:
    def test_deterministic_and_total(self):
        a = ShardMap(["s0", "s1", "s2"])
        b = ShardMap(["s0", "s1", "s2"])
        assert a == b
        for key in range(200):
            assert a.shard_for_coin(key) == b.shard_for_coin(key)
            assert a.shard_for_coin(key) in a.addresses

    def test_spread_is_roughly_uniform(self):
        shard_map = ShardMap(["s0", "s1", "s2", "s3"])
        spread = shard_map.spread([1_000_003 * i + 17 for i in range(4000)])
        assert set(spread) == set(shard_map.addresses)
        assert min(spread.values()) > 4000 // 4 // 2  # no shard starved

    def test_coin_and_account_keyspaces_are_disjoint(self):
        shard_map = ShardMap(["s0", "s1"])
        # Same raw value, different namespaces — may land anywhere, but the
        # lookup must be stable per namespace.
        assert shard_map.shard_for_coin(42) == shard_map.shard_for_coin(42)
        assert shard_map.shard_for_account("42") == shard_map.shard_for_account("42")

    def test_single_shard_maps_everything_to_it(self):
        shard_map = ShardMap(["only"])
        assert shard_map.shard_for_coin(7) == "only"
        assert shard_map.shard_for_account("x") == "only"


class TestTopologyAndConfig:
    def test_single_shard_topology_is_the_classic_broker(self):
        assert BrokerTopology().addresses() == ("broker",)

    def test_federated_topology_addresses(self):
        assert BrokerTopology(shards=3).addresses() == (
            "broker-0",
            "broker-1",
            "broker-2",
        )

    def test_invalid_topology_rejected(self):
        with pytest.raises(ValueError):
            BrokerTopology(shards=0)
        with pytest.raises(ValueError):
            BrokerTopology(points_per_shard=0)

    def test_invalid_peer_config_rejected(self):
        with pytest.raises(ValueError):
            PeerConfig(balance=-1)
        with pytest.raises(ValueError):
            PeerConfig(sync_mode="eager")

    def test_config_and_legacy_keywords_conflict(self, network):
        with pytest.raises(TypeError), warnings.catch_warnings():
            warnings.simplefilter("ignore")
            network.add_peer("carol", PeerConfig(balance=1), balance=2)

    def test_unknown_keyword_rejected(self, network):
        with pytest.raises(TypeError):
            network.add_peer("dave", wealth=9)


class TestBrokerAPISurface:
    def test_single_broker_satisfies_the_protocol(self, network):
        assert isinstance(network.broker, BrokerAPI)
        assert network.shard_map is None
        assert network.router is None

    def test_router_satisfies_the_protocol(self, fednet):
        assert isinstance(fednet.broker, BrokerAPI)
        assert isinstance(fednet.broker, ShardRouter)
        assert len(fednet.shards) == 4

    def test_federation_shares_one_signing_key(self, fednet):
        keys = {shard.public_key.y for shard in fednet.shards}
        assert len(keys) == 1
        assert fednet.broker.public_key.y in keys

    def test_router_rejects_mismatched_map(self, fednet):
        wrong = ShardMap(["other-0", "other-1"])
        with pytest.raises(ValueError):
            ShardRouter(fednet.shards, wrong)

    def test_account_lives_only_on_its_home_shard(self, fednet):
        fednet.add_peer("alice", PeerConfig(balance=8))
        home = fednet.shard_map.shard_for_account("alice")
        for shard in fednet.shards:
            if shard.address == home:
                assert shard.balance("alice") == 8
            else:
                assert shard.balance("alice") == 0
        assert fednet.broker.balance("alice") == 8

    def test_export_ledger_merges_and_breaks_down(self, fednet):
        alice = fednet.add_peer("alice", PeerConfig(balance=10))
        alice.purchase_batch(4)
        ledger = fednet.broker.export_ledger()
        assert ledger["coins_minted"] == 4
        assert set(ledger["shards"]) == set(fednet.shard_map.addresses)
        assert ledger["coins_minted"] == sum(
            entry["coins_minted"] for entry in ledger["shards"].values()
        )

    def test_conservation_false_while_a_handoff_is_pending(self, fednet):
        fednet.add_peer("alice", PeerConfig(balance=5))
        assert fednet.broker.verify_conservation(5)
        fednet.shards[0].pending_handoffs["fake"] = {"op": "purchase"}
        assert not fednet.broker.verify_conservation(5)
        del fednet.shards[0].pending_handoffs["fake"]
        assert fednet.broker.verify_conservation(5)


class TestCrossShardFlows:
    def test_local_purchase_stays_on_one_shard(self, fednet):
        alice = fednet.add_peer("alice", PeerConfig(balance=5))
        home = fednet.shard_map.shard_for_account("alice")
        coin = purchase_homed(fednet, alice, home)
        shard = fednet.router.shard_for_account("alice")
        assert coin.coin_y in shard.valid_coins
        assert shard.counts.handoffs == 0
        assert fednet.broker.verify_conservation(5)

    def test_cross_shard_purchase_mints_on_the_coin_home(self, fednet):
        alice = fednet.add_peer("alice", PeerConfig(balance=5))
        acct_home = fednet.shard_map.shard_for_account("alice")
        coin_home = next(a for a in fednet.shard_map.addresses if a != acct_home)
        coin = purchase_homed(fednet, alice, coin_home)
        source = fednet.router.shard_for_account("alice")
        dest = fednet.router.shard_for_coin(coin.coin_y)
        assert dest.address == coin_home
        assert coin.coin_y in dest.valid_coins
        assert coin.coin_y not in source.valid_coins
        assert source.balance("alice") == 4  # debited at the account home
        assert dest.counts.handoffs >= 1  # served the mint prepare
        assert not source.pending_handoffs and not dest.pending_handoffs
        assert fednet.broker.verify_conservation(5)

    def test_batch_purchase_spreads_coins_across_shards(self, fednet):
        alice = fednet.add_peer("alice", PeerConfig(balance=20))
        states = alice.purchase_batch(12)
        homes = {fednet.shard_map.shard_for_coin(s.coin_y) for s in states}
        assert len(homes) > 1  # 12 random keys over 4 shards
        for state in states:
            shard = fednet.router.shard_for_coin(state.coin_y)
            assert state.coin_y in shard.valid_coins
        assert fednet.broker.balance("alice") == 8
        assert fednet.broker.verify_conservation(20)

    def test_cross_shard_deposit_credits_the_account_home(self, fednet):
        alice = fednet.add_peer("alice", PeerConfig(balance=5))
        bob = fednet.add_peer("bob")
        # Mint coins until one's home differs from bob's account home, so
        # the deposit (sent to the coin's shard) must hand the credit off.
        bob_home = fednet.shard_map.shard_for_account("bob")
        while True:
            state = alice.purchase()
            if fednet.shard_map.shard_for_coin(state.coin_y) != bob_home:
                break
        alice.issue("bob", state.coin_y)
        credited = bob.deposit(state.coin_y, payout_to="bob")
        assert credited == 1
        assert fednet.router.shard_for_account("bob").balance("bob") == 1
        coin_shard = fednet.router.shard_for_coin(state.coin_y)
        assert state.coin_y in coin_shard.deposited
        assert not any(s.pending_handoffs for s in fednet.shards)
        assert fednet.broker.verify_conservation(5)

    def test_cross_shard_top_up_debits_the_funding_home(self, fednet):
        alice = fednet.add_peer("alice", PeerConfig(balance=5))
        bob = fednet.add_peer("bob", PeerConfig(balance=6))
        state = alice.purchase()
        alice.issue("bob", state.coin_y)
        new_value = bob.top_up(state.coin_y, delta=3, funding_account="bob")
        assert new_value == 4
        coin_shard = fednet.router.shard_for_coin(state.coin_y)
        assert coin_shard.valid_coins[state.coin_y].value == 4
        assert fednet.broker.balance("bob") == 3
        assert not any(s.pending_handoffs for s in fednet.shards)
        assert fednet.broker.verify_conservation(11)

    def test_downtime_transfer_routes_to_the_coin_home(self, fednet):
        alice = fednet.add_peer("alice", PeerConfig(balance=5))
        bob = fednet.add_peer("bob")
        carol = fednet.add_peer("carol")
        state = alice.purchase()
        alice.issue("bob", state.coin_y)
        alice.depart()
        bob.transfer_via_broker("carol", state.coin_y)
        coin_shard = fednet.router.shard_for_coin(state.coin_y)
        assert coin_shard.counts.downtime_transfers == 1
        assert sum(s.counts.downtime_transfers for s in fednet.shards) == 1
        assert state.coin_y in carol.wallet

    def test_sync_fans_out_over_owning_shards(self, fednet):
        alice = fednet.add_peer("alice", PeerConfig(balance=20))
        alice.purchase_batch(12)
        homes = {fednet.shard_map.shard_for_coin(y) for y in alice.owned}
        before = {s.address: s.counts.syncs for s in fednet.shards}
        alice.sync_with_broker()
        after = {s.address: s.counts.syncs for s in fednet.shards}
        touched = {a for a in after if after[a] > before[a]}
        assert touched == homes
        assert alice.counts.syncs == 1  # one logical sync, fanned out

    def test_total_opened_baselines_sum_across_shards(self, fednet):
        alice = fednet.add_peer("alice", PeerConfig(balance=10))
        bob = fednet.add_peer("bob", PeerConfig(balance=2))
        states = alice.purchase_batch(6)
        for state in states[:3]:
            alice.issue("bob", state.coin_y)
            bob.deposit(state.coin_y, payout_to="bob")
        assert fednet.broker.total_opened == 12
        assert fednet.broker.verify_conservation(12)


class TestHandoffExactlyOnce:
    def test_handoff_id_is_deterministic(self):
        assert handoff_id("purchase", b"abc") == handoff_id("purchase", b"abc")
        assert handoff_id("purchase", b"abc") != handoff_id("deposit", b"abc")
        assert handoff_id("purchase", b"abc") != handoff_id("purchase", b"abd")

    def test_retried_cross_shard_purchase_applies_once(self, fednet):
        alice = fednet.add_peer("alice", PeerConfig(balance=5))
        acct_home = fednet.shard_map.shard_for_account("alice")
        coin_home = next(a for a in fednet.shard_map.addresses if a != acct_home)
        plan = FaultPlan(seed=3)
        fednet.install_faults(plan)
        plan.scripted_reply_drops = 1  # first reply (client's or the prepare's) dies
        coin = purchase_homed(fednet, alice, coin_home)
        fednet.install_faults(None)
        dest = fednet.router.shard_for_coin(coin.coin_y)
        source = fednet.router.shard_for_account("alice")
        assert source.balance("alice") == 4  # debited exactly once
        assert list(dest.valid_coins).count(coin.coin_y) == 1
        assert source.counts.purchases == 1
        assert not any(s.pending_handoffs for s in fednet.shards)
        assert fednet.broker.verify_conservation(5)
        assert not fednet.broker.fraud_events

    def test_redriven_prepare_is_a_replay_noop(self, fednet):
        alice = fednet.add_peer("alice", PeerConfig(balance=5))
        acct_home = fednet.shard_map.shard_for_account("alice")
        coin_home = next(a for a in fednet.shard_map.addresses if a != acct_home)
        coin = purchase_homed(fednet, alice, coin_home)
        dest = fednet.router.shard_for_coin(coin.coin_y)
        seen_before = set(dest.handoffs_seen)
        served_before = dest.counts.handoffs
        # Re-drive the same prepare by hand: the durable handoffs_seen set
        # must short-circuit it even though the work is long committed.
        source = fednet.router.shard_for_account("alice")
        h = next(iter(seen_before))
        reply = source._shard_rpc.call(
            dest.address,
            protocol.XSHARD_PREPARE,
            seal(source.keypair, {"h": h, "op": "mint", "coins": []}).encode(),
        )
        assert reply == {"ok": True, "replayed": True}
        assert dest.handoffs_seen == seen_before
        assert dest.counts.handoffs == served_before + 1

    def test_unsigned_prepare_is_rejected(self, fednet):
        alice = fednet.add_peer("alice", PeerConfig(balance=5))
        acct_home = fednet.shard_map.shard_for_account("alice")
        coin_home = next(a for a in fednet.shard_map.addresses if a != acct_home)
        coin = purchase_homed(fednet, alice, coin_home)
        dest = fednet.router.shard_for_coin(coin.coin_y)
        source = fednet.router.shard_for_account("alice")
        # A raw (unsealed) prepare must bounce before touching state.
        with pytest.raises(ProtocolError):
            source._shard_rpc.call(
                dest.address,
                protocol.XSHARD_PREPARE,
                {"h": "forged", "op": "credit", "credited": 10, "payout_to": "alice"},
            )
        # So must one sealed under a key that is not the federation key.
        rogue = KeyPair.generate(fednet.params)
        with pytest.raises(VerificationFailed):
            source._shard_rpc.call(
                dest.address,
                protocol.XSHARD_PREPARE,
                seal(
                    rogue,
                    {"h": "forged2", "op": "credit", "credited": 10, "payout_to": "alice"},
                ).encode(),
            )
        assert "forged" not in dest.handoffs_seen
        assert "forged2" not in dest.handoffs_seen

    def test_complete_pending_handoffs_drains_an_orphan(self, fednet):
        alice = fednet.add_peer("alice", PeerConfig(balance=5))
        acct_home = fednet.shard_map.shard_for_account("alice")
        coin_home = next(a for a in fednet.shard_map.addresses if a != acct_home)
        source = fednet.router.shard_for_account("alice")
        # Orphan a handoff: journal the begin exactly as a crash between
        # begin and prepare would leave it, then re-drive.
        keypair = coin_keypair_homed(fednet, coin_home)
        coin = Coin.build(
            source.keypair,
            coin_y=keypair.public.y,
            value=2,
            owner_address="alice",
            owner_y=alice.identity.public.y,
        )
        h = handoff_id("purchase", coin.encode())
        source._commit_local(
            {
                "type": "handoff_begin",
                "h": h,
                "op": "purchase",
                "account": "alice",
                "debit": 2,
                "remote_value": 2,
                "local_coins": [],
                "reply_coins": [coin.encode()],
                "prepares": [
                    {
                        "h": h + "#0",
                        "dest": coin_home,
                        "payload": {"op": "mint", "coins": [coin.encode()]},
                    }
                ],
            }
        )
        assert source.pending_handoffs
        assert not fednet.broker.verify_conservation(5)  # value in flight
        completed = fednet.complete_handoffs()
        assert completed == 1
        assert not source.pending_handoffs
        dest = fednet.router.shard_for_coin(coin.coin_y)
        assert coin.coin_y in dest.valid_coins
        assert source.balance("alice") == 3
        assert fednet.broker.verify_conservation(5)

    def test_insufficient_funds_cross_shard_aborts_cleanly(self, fednet):
        alice = fednet.add_peer("alice", PeerConfig(balance=1))
        acct_home = fednet.shard_map.shard_for_account("alice")
        coin_home = next(a for a in fednet.shard_map.addresses if a != acct_home)
        keypair = coin_keypair_homed(fednet, coin_home)
        request = protocol.PurchaseRequest(
            coin_y=keypair.public.y, value=5, account="alice"
        )
        signed = seal(alice.identity, request.to_payload())
        with pytest.raises(Exception):
            alice.broker_client.purchase(signed.encode(), account="alice")
        assert fednet.broker.balance("alice") == 1
        assert not any(s.pending_handoffs for s in fednet.shards)
        assert fednet.broker.verify_conservation(1)


class TestSingleShardCompatibility:
    def test_default_topology_behaves_exactly_as_before(self):
        net = WhoPayNetwork(params=PARAMS_TEST_512)
        alice = net.add_peer("alice", PeerConfig(balance=10))
        bob = net.add_peer("bob")
        state = alice.purchase()
        alice.issue("bob", state.coin_y)
        assert bob.deposit(state.coin_y, payout_to="bob") == 1
        assert net.broker.address == "broker"
        assert net.broker.counts.handoffs == 0
        assert net.broker.verify_conservation(10)


class TestBatchFanOutRegression:
    """PR 9 satellite: batch-purchase prepares fan out before the outcome.

    Every destination's ``XSHARD_PREPARE`` is issued even when an earlier
    one failed; only then is the batch outcome decided (rejection wins and
    compensates the *whole* record, a transport failure leaves the handoff
    pending).  These tests pin the per-shard state at both boundaries.
    """

    def _batch(self, net, peer, coins):
        request = protocol.BatchPurchaseRequest(coins=tuple(coins), account=peer.address)
        signed = seal(peer.identity, request.to_payload())
        return peer.broker_client.purchase_batch(signed.encode(), account=peer.address)

    def _remote_homes(self, net, peer):
        acct_home = net.shard_map.shard_for_account(peer.address)
        others = [a for a in net.shard_map.addresses if a != acct_home]
        # sorted() order == prepare fan-out order: others[0] is driven first.
        return sorted(others)[:2]

    def test_rejection_compensates_every_shard_in_the_record(self, fednet):
        alice = fednet.add_peer("alice", PeerConfig(balance=5))
        first_home, second_home = self._remote_homes(fednet, alice)
        # A collision on the *first* destination: its prepare rejects, yet
        # the second destination's mint must still have been issued — and
        # then compensated — rather than never attempted.
        existing = purchase_homed(fednet, alice, first_home)  # balance 5 -> 4
        clean_kp = coin_keypair_homed(fednet, second_home)
        second = fednet.router._by_address[second_home]
        with pytest.raises(ProtocolError):
            self._batch(
                fednet, alice, [(existing.coin_y, 2), (clean_kp.public.y, 1)]
            )
        # The clean shard saw its mint *and* the unmint compensation.
        assert second.counts.handoffs >= 2
        assert clean_kp.public.y not in second.valid_coins
        # Atomic abort: no debit, no pending value, every invariant intact.
        assert fednet.broker.balance("alice") == 4
        assert not any(shard.pending_handoffs for shard in fednet.shards)
        assert fednet.broker.verify_conservation(5)
        for shard in fednet.shards:
            assert audit_broker(shard).ok

    def test_per_shard_conservation_at_a_dead_destination_boundary(self, fednet):
        alice = fednet.add_peer("alice", PeerConfig(balance=5))
        down_home, live_home = self._remote_homes(fednet, alice)
        down = fednet.router._by_address[down_home]
        live = fednet.router._by_address[live_home]
        down_kp = coin_keypair_homed(fednet, down_home)
        live_kp = coin_keypair_homed(fednet, live_home)
        down.go_offline()
        with pytest.raises(Exception):
            self._batch(fednet, alice, [(down_kp.public.y, 1), (live_kp.public.y, 1)])
        # Fan-out reached the live (later-ordered) shard even though the
        # earlier destination was dead: its coin is already minted.
        assert live_kp.public.y in live.valid_coins
        # Crash-boundary state: the begin is durable, value is in flight
        # (conservation is *reported* broken, never silently wrong), the
        # debit has not been applied, and each shard's own audit passes.
        source = fednet.router.shard_for_account("alice")
        assert source.pending_handoffs
        assert fednet.broker.balance("alice") == 5
        assert not fednet.broker.verify_conservation(5)
        for shard in fednet.shards:
            if shard is down:
                continue
            assert audit_broker(shard).ok
        # Recovery: the destination returns and the re-drive settles the
        # batch exactly once on every shard.
        down.go_online()
        assert fednet.complete_handoffs() == 1
        assert list(down.valid_coins).count(down_kp.public.y) == 1
        assert list(live.valid_coins).count(live_kp.public.y) == 1
        assert fednet.broker.balance("alice") == 3
        assert not any(shard.pending_handoffs for shard in fednet.shards)
        assert fednet.broker.verify_conservation(5)
        for shard in fednet.shards:
            assert audit_broker(shard).ok
