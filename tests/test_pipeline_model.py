"""The gateway's pipeline checked against a reference model, under virtual time.

A seeded schedule drives one gateway, three device simulators and six
keep-alive clients, three per family, on one ``_virtual.VirtualLoop`` over
real loopback sockets. Its steps are requests of both families, device
latency changes (some past the request timeout), outages and restarts,
health probes, and device "a" replaced by another simulator. A small model
says what each client gets and at what instant, how many requests each
simulator sees, and each device's health. After every step the gateway
must agree with it.

The model's rules:
- a 2xx answer is stored for its device's TTL; a request at stored + TTL
  or later reaches the device again;
- identical misses, ``no-cache`` ones included, share one device request:
  the first is answered ``miss``, the others ``hit``, and an error reaches
  them all as it is;
- health: a device's answer marks it up. A failure (503 unreachable, 504
  timed out) marks an unknown device down at once, and an up one after
  THRESHOLD failures in a row. A request to a down device gets 503 at once
  and reaches no device; a probe that gets an answer marks it up;
- with the relay disabled, a client of a family the device lacks gets 503
  before the cache and the flights, and the device is not blamed;
- a replace drops the device's stored answers and flights. The old
  device's late answer reaches the clients that asked for it, and no one
  after.

The guard is set so that it never refuses. Times are multiples of TICK, so
the clock's arithmetic is exact, and no action falls on an instant when the
loop has a timer due: the schedule moves it a tick later, or skips a request
that would make one coincide, so the order of events is never left to
chance.
"""

import asyncio
import collections
import json
import random
import time

import pytest

from _virtual import Client, run, serving, until
from wotgw.config import DeviceConfig, GatewayConfig, format_hostport
from wotgw.device import DEFAULT_READINGS, DeviceSimulator, PowerSensorReading
from wotgw.gateway import Gateway

TICK = 1 / 64
TIMEOUT = 1.0
THRESHOLD = 2
TTL = {"a": 2.0, "b": 1.0}
LATENCIES = (0.125, 0.25, 0.5, 1.25)  # the last is past TIMEOUT
STEPS = 1000
CLIENTS = 3  # per family
# the simulators, by slot: where each listens and what it reads; device "a"
# is a1 or a2, which a replace swaps, and device "b" is b
SLOTS = {
    "a1": ("127.0.0.1", DEFAULT_READINGS),
    "a2": ("127.0.0.1", (PowerSensorReading("Heater", 1500.0, 12.5, 2000.0),
                         PowerSensorReading("Lamp", 9.5, 0.25, 60.0))),
    "b": ("::1", (PowerSensorReading("Router", 7.25, 3.0, 12.0),
                  PowerSensorReading("Camera", 4.5, 1.75, 6.0))),
}
FAMILY = {"a1": "v4", "a2": "v4", "b": "v6"}
POWER_MAP = {"NoOfDevices": "ND", "deviceName": "DN", "currentWatts": "CW", "maxWattage": "MW"}
SPELLINGS = (b'{"values":[{"NoOfDevices":[%d]}]}', b'{ "values" : [ { "NoOfDevices" : [ %d ] } ] }')


def _answer(slot: str, key: tuple):
    """What the device in ``slot`` answers for ``key``, as the client reads it."""
    if key[1] == "status":
        return {"status": "ok"}
    return [reading.to_value() for reading in SLOTS[slot][1][: key[2]]]


class _Record:
    """One registration of a device, and its health."""

    def __init__(self, slot: str):
        self.slot, self.health, self.failures = slot, "unknown", 0

    def note(self, ok: bool) -> None:
        if ok:
            self.health, self.failures = "up", 0
            return
        self.failures += 1
        if self.health == "unknown" or (self.health == "up" and self.failures >= THRESHOLD):
            self.health = "down"


class _Sent:
    """A request on its way to a device: a flight of ``key`` with the
    requests it answers (the first is the miss), or a probe."""

    def __init__(self, record: _Record, at: float, outcome, key):
        self.record, self.slot, self.at, self.outcome, self.key = record, record.slot, at, outcome, key
        self.waiters = []


class Model:
    """What the gateway should do, as the rules above say, on the schedule's clock."""

    def __init__(self, relay: bool):
        self.relay = relay
        self.now = 0.0
        self.records = {"a": _Record("a1"), "b": _Record("b")}
        self.up = dict.fromkeys(SLOTS, True)
        self.latency = dict.fromkeys(SLOTS, LATENCIES[0])
        self.count = dict.fromkeys(SLOTS, 0)
        self.cache = {}  # key -> (stored at, answer)
        self.inflight = {}  # key -> _Sent
        self.sent = []  # not landed yet
        self.instants = set()  # coming instants when the loop has a timer due
        self.expected = {}  # request id -> (instant, status, X-WoT-Cache, body)
        self.covered = collections.Counter()  # what the schedule made happen

    def advance(self, moment: float) -> None:
        """Land everything sent that lands before ``moment``, in order, and move to it."""
        for sent in sorted((s for s in self.sent if s.at < moment), key=lambda s: s.at):
            self.now = sent.at
            self._land(sent)
        self.now = moment
        self.instants = {t for t in self.instants if t > moment}

    def _settle(self) -> None:
        """Land what is due now: what a device that is down fails at once."""
        for sent in [s for s in self.sent if s.at == self.now]:
            self._land(sent)

    def plan(self, family: str, device: str, key, no_cache: bool):
        """What a request now meets: ("answer", response), ("join", flight) or ("send", record)."""
        record = self.records.get(device)
        if record is None:
            return "answer", (404, None, {"error": "unknown_device", "device": device})
        if record.health == "down" or (not self.relay and FAMILY[record.slot] != family):
            return "answer", (503, None, {"status": "device_unavailable", "device": device})
        stored = None if no_cache else self.cache.get(key)
        if stored is not None and self.now < stored[0] + TTL[device]:
            return "answer", (200, "hit", stored[1])
        if key in self.inflight:
            return "join", self.inflight[key]
        return "send", record

    def collides(self, slot: str) -> bool:
        """Whether a request sent to ``slot`` now would be due at an instant already taken."""
        latency = self.latency[slot]
        return self.up[slot] and bool({self.now + latency, self.now + min(latency, TIMEOUT)} & self.instants)

    def request(self, rid: int, family: str, device: str, key, no_cache: bool) -> None:
        kind, what = self.plan(family, device, key, no_cache)
        stored = self.cache.get(key)
        self.covered.update([family, kind] + ["expired"] * (stored is not None and kind != "answer"
                                                           and self.now >= stored[0] + TTL[device]))
        if kind == "answer":
            self.expected[rid] = (self.now, *what)
        elif kind == "join":
            what.waiters.append(rid)
        else:
            sent = self._send(what, key)
            sent.waiters.append(rid)
            self.inflight[key] = sent
            self._settle()

    def probe(self, device: str) -> None:
        self._send(self.records[device], None)
        self._settle()

    def _send(self, record: _Record, key) -> _Sent:
        slot, at, outcome = record.slot, self.now, 503  # refused at once while the device is down
        if self.up[slot]:
            self.count[slot] += 1
            latency = self.latency[slot]
            at, outcome = (self.now + latency, 200) if latency < TIMEOUT else (self.now + TIMEOUT, 504)
            self.instants |= {self.now + latency, at}  # the device's reply, the gateway's timeout
        sent = _Sent(record, at, outcome, key)
        self.sent.append(sent)
        return sent

    def _land(self, sent: _Sent) -> None:
        self.sent.remove(sent)
        was = sent.record.health
        sent.record.note(sent.outcome == 200)
        self.covered[f"{was} -> {sent.record.health}"] += 1
        if sent.key is None:  # a probe
            return
        device = sent.key[0]
        if self.inflight.get(sent.key) is sent:
            del self.inflight[sent.key]
        if sent.outcome == 200:
            answer = _answer(sent.slot, sent.key)
            if self.records[device] is sent.record:
                self.cache[sent.key] = (sent.at, answer)
            for i, rid in enumerate(sent.waiters):
                self.expected[rid] = (sent.at, 200, "hit" if i else "miss", answer)
        else:
            label = "device_timeout" if sent.outcome == 504 else "device_unavailable"
            for rid in sent.waiters:
                self.expected[rid] = (sent.at, sent.outcome, None, {"status": label, "device": device})

    def stop(self, slot: str) -> None:
        """The device in ``slot`` stops: what it has not answered fails now."""
        self.covered["outage"] += 1
        self.up[slot] = False
        for sent in self.sent:
            if sent.slot == slot:
                sent.at, sent.outcome = self.now, 503
        self._settle()

    def replace(self) -> str:
        """Device "a" is registered anew, on its other slot."""
        slot = "a2" if self.records["a"].slot == "a1" else "a1"
        self.covered["replace"] += 1
        self.records["a"] = _Record(slot)
        self.cache = {k: v for k, v in self.cache.items() if k[0] != "a"}
        self.inflight = {k: v for k, v in self.inflight.items() if k[0] != "a"}
        return slot


def _device_config(device: str, sim: DeviceSimulator) -> DeviceConfig:
    return DeviceConfig(device_id=device, endpoint=format_hostport(*sim.address),
                        mapping_inline=POWER_MAP, ttl_seconds=TTL[device])


def _simulator(slot: str, latency: float, port: int = 0) -> DeviceSimulator:
    host, readings = SLOTS[slot]
    return DeviceSimulator(bind=(host, port), readings=readings, base_latency=latency, power_save_idle=0.0)


class _Run:
    """The gateway and the model, driven side by side by one seeded schedule."""

    def __init__(self, seed: int, relay: bool):
        self.rng = random.Random(seed)
        self.model = Model(relay)
        self.sims = {slot: _simulator(slot, LATENCIES[0]) for slot in SLOTS}
        self.retired = dict.fromkeys(SLOTS, 0)  # requests seen by stopped simulators
        self.gw = Gateway(GatewayConfig(
            listen_v4=("127.0.0.1", 0), listen_v6=("::1", 0),
            socks_listen_v4=("127.0.0.1", 0), socks_listen_v6=("::1", 0),
            relay_enabled=relay, probe_interval_seconds=0.0, request_timeout_seconds=TIMEOUT,
            failure_threshold=THRESHOLD, dos_rate_limit=10**9, dos_repeat_limit=10**9,
            devices=[_device_config("a", self.sims["a1"]), _device_config("b", self.sims["b"])],
        ))
        self.requests = 0
        self.waiting = {}  # request id -> the client's task, until its answer is checked
        self.probes = []  # the probes' tasks, held: the loop holds tasks weakly
        self.busy = {}  # client -> the request id it waits for
        self.history = []
        self.recent = []  # keys requested lately
        self.follow = []  # (key, flight): to request again once the flight, which a replace dropped, lands

    async def main(self, steps: int) -> dict:
        for sim in self.sims.values():
            await sim.open()
        try:
            async with serving(self.gw):
                self.clients = [await Client.connect(self.gw.listen_address(family))
                                for family in ("v4", "v6") for _ in range(CLIENTS)]
                try:
                    for step in range(steps):
                        self.history = [*self.history[-12:], f"step {step} at {self.model.now}"]
                        await self.act()
                        await self.wait(self.rng.choice((TICK, TICK, 0.125, 0.25, 0.5, 1.0, 2.0)))
                    await self.wait(max([s.at - self.model.now for s in self.model.sent], default=0) + TICK)
                    await asyncio.gather(*self.probes)  # all landed: a probe that raised fails the test
                finally:
                    for task in self.waiting.values():
                        task.cancel()  # when a check failed, some still wait
                    for client in self.clients:
                        await client.close()
        finally:
            for slot, sim in self.sims.items():
                if self.model.up[slot]:  # a stopped one is closed already
                    await sim.close()
        return self.tally

    async def act(self) -> None:
        roll, model = self.rng.random(), self.model
        if roll < 0.55:
            self.request(*self.pick())
        elif roll < 0.65:  # a request at the last instant of a stored answer, or the first after it
            fresh = [(stored + TTL[key[0]], key) for key, (stored, _) in model.cache.items()
                     if stored + TTL[key[0]] > model.now + TICK]
            if fresh:
                end, key = self.rng.choice(sorted(fresh))
                moment = end - self.rng.choice((TICK, 0))
                if moment not in model.instants:
                    await self.wait(moment - model.now)
                    self.request(self.rng.choice(("v4", "v6")), key, False)
        elif roll < 0.72:
            slot, latency = self.rng.choice(list(SLOTS)), self.rng.choice(LATENCIES)
            self.note(f"latency {slot} {latency}")
            model.latency[slot] = latency
            if model.up[slot]:
                self.sims[slot].inject_behavior(latency=latency)
        elif roll < 0.78:
            device = self.rng.choice(("a", "b"))
            if not model.collides(model.records[device].slot):
                self.note(f"probe {device}")
                model.probe(device)
                self.probes.append(asyncio.ensure_future(self.gw._probe(self.gw.devices[device])))
        elif roll < 0.83:
            slot = self.rng.choice(list(SLOTS))
            if model.up[slot] and self.rng.random() < 0.5:
                self.note(f"stop {slot}")
                model.stop(slot)
                self.retired[slot] += self.sims[slot].request_count
                await self.sims[slot].close()
            elif not model.up[slot]:
                self.note(f"restart {slot}")
                model.up[slot] = True
                self.sims[slot] = _simulator(slot, model.latency[slot], self.sims[slot].address[1])
                await self.sims[slot].open()
        elif roll < 0.91:  # identical requests a tick apart: the first one's flight answers them all
            _, key, no_cache = self.pick()
            for _ in range(3):
                self.request(self.rng.choice(("v4", "v6")), key, no_cache)
                await self.wait(TICK)
        elif roll < 0.94:
            # mostly while the old device answers a request: its answer differs, and comes after
            waiting = [key for key in (("a", "power", 1), ("a", "power", 2))
                       if model.plan("v4", "a", key, False)[0] != "answer"]
            if waiting:
                self.request("v4", self.rng.choice(waiting), False)
                await self.wait(TICK)
            self.follow = [(key, sent) for key, sent in model.inflight.items() if key[0] == "a"] * 3
            slot = model.replace()
            self.note(f"replace a with {slot}")
            self.gw.register_device_config(_device_config("a", self.sims[slot]), replace=True)

    def pick(self):
        """A request: its client's family, its key, and whether it says no-cache."""
        rng = self.rng
        landed = [follow for follow in self.follow if follow[1] not in self.model.sent]
        if landed and rng.random() < 0.9:  # a client the device serves, which may get a stored answer
            self.follow.remove(follow := rng.choice(landed))
            return "v4", follow[0], False
        if rng.random() < 0.02:
            key = ("nowhere", "status")
        elif self.recent and rng.random() < 0.4:
            key = rng.choice(self.recent)  # identical requests close together coalesce
        else:
            device = rng.choice(("a", "b"))
            key = (device, "status") if rng.random() < 0.3 else (device, "power", rng.choice((1, 2)))
        self.recent = [key, *[k for k in self.recent if k != key]][:3]
        return rng.choice(("v4", "v6")), key, rng.random() < 0.1

    def request(self, family: str, key, no_cache: bool) -> None:
        model = self.model
        clients = self.clients[CLIENTS * (family == "v6"):][:CLIENTS]
        free = [client for client in clients if self.busy.get(client) not in self.waiting]
        kind, what = model.plan(family, key[0], key, no_cache)
        if not free or (kind == "send" and model.collides(what.slot)):
            return
        client, rid = self.rng.choice(free), self.requests
        self.requests += 1
        self.note(f"request {rid} {family} {key} no-cache={no_cache}")
        model.request(rid, family, key[0], key, no_cache)
        if key[1] == "status":
            method, path, body = "GET", f"/devices/{key[0]}/status", b""
        else:
            method, path, body = "POST", f"/devices/{key[0]}/power", self.rng.choice(SPELLINGS) % key[2]
        headers = "Cache-Control: no-cache\r\n" if no_cache else ""
        self.busy[client] = rid
        self.waiting[rid] = asyncio.ensure_future(self.exchange(client, method, path, body, headers))

    @staticmethod
    async def exchange(client, method, path, body, headers):
        status, fields, payload = await client.request(method, path, body, headers)
        return asyncio.get_running_loop().time(), status, fields.get("x-wot-cache"), json.loads(payload)

    def note(self, action: str) -> None:
        self.history.append(f"  {action}")

    async def wait(self, delay: float) -> None:
        """Move both clocks on by ``delay``, or a tick or more past an instant taken; then compare."""
        model = self.model
        moment = model.now + delay
        while moment in model.instants:
            moment += TICK
        model.advance(moment)
        await until(moment)
        self.check()

    def check(self) -> None:
        model, gw = self.model, self.gw
        for rid, task in list(self.waiting.items()):
            expected = model.expected.get(rid)
            if expected is None or expected[0] >= model.now:
                assert not task.done(), self.report(f"request {rid} answered early: {task.result()}")
            else:
                assert task.done(), self.report(f"request {rid} not answered; expected {expected}")
                assert task.result() == expected, self.report(f"request {rid}: {task.result()} != {expected}")
                del self.waiting[rid]
        counts = {slot: self.retired[slot] + (sim.request_count if model.up[slot] else 0)
                  for slot, sim in self.sims.items()}
        assert counts == model.count, self.report(f"device requests {counts} != {model.count}")
        health = {device: record.health for device, record in gw.devices.items()}
        expected_health = {device: record.health for device, record in model.records.items()}
        assert health == expected_health, self.report(f"health {health} != {expected_health}")
        self.tally = {"requests": self.requests, "counts": counts, "covered": model.covered}

    def report(self, what: str) -> str:
        return "\n".join([what, "last steps:", *self.history])


@pytest.mark.parametrize("relay", [True, False], ids=["relay", "no-relay"])
def test_the_pipeline_agrees_with_its_model(relay):
    started = time.perf_counter()
    tally = run(_Run(seed=91 if relay else 92, relay=relay).main(STEPS))
    elapsed = time.perf_counter() - started
    print(f"{STEPS} steps, {tally['requests']} requests, device requests {tally['counts']}: {elapsed:.2f} s")
    print(dict(sorted(tally["covered"].items())))
    # both families, a joined flight, TTL expiry, an outage, a recovery and a replace
    for event in ("v4", "v6", "join", "expired", "outage", "down -> up", "replace"):
        assert tally["covered"][event] > 0, event
