# wp-lint: module=repro.core.broker
"""WP113 bad fixture: envelope data applied before any verification."""


class BadBroker:
    def __init__(self):
        self.on("fix.apply", self._handle_apply)

    def _handle_apply(self, src, payload):
        op = payload.get("op")  # untrusted read
        self._stage({"type": "apply", "op": op})  # line 11: mutation, no verify
        return {"ok": True}

    def ingest(self, blob):
        message = decode_signed(blob, self.params)  # untrusted decode
        self.accounts[message.src] = message  # line 16: durable write, no verify

    def adopt(self, data):
        request = self._take_preverified(data, object)  # pool's typed request
        self.valid_coins[request.coin_y] = request  # line 20: durable write, no check
