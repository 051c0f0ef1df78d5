#!/usr/bin/env python3
"""Concurrent load generator for `autosec serve` — the CI scale-out driver.

Connects N clients to a running server (TCP or Unix socket), streams NDJSON
v1 requests from each, and verifies the fleet-level invariants the serve
layer promises:

  * integrity (always on): every request id is answered exactly once, every
    envelope parses, and every response is ok (a structured `overloaded`
    shed fails the run unless --allow-overloaded or --retry-overloaded is
    given);
  * --assert-warm-hits: after a cold round that touches every architecture,
    a warm round must answer every request from a cache (session_cache or
    disk_cache "hit") with explores 0 — the digest-sharding proof (repeats
    land on the worker that already explored the model);
  * --retry-overloaded: a shed request is retried after the server's own
    retry_after_ms hint with capped exponential backoff (hint * 2^attempt,
    capped at --retry-cap-ms), up to --max-retries times — the polite-client
    protocol docs/serving.md prescribes;
  * --kill-pid P --kill-after N: once N responses have arrived across all
    clients, send SIGKILL to pid P (a pre-fork worker) and keep going — the
    respawn proof is simply that integrity still holds;
  * --chaos: a background saboteur injects faults for the whole run —
    SIGKILLs a random live worker (children of --chaos-parent, re-read from
    /proc each event so respawned workers are fair game), SIGHUPs the
    supervisor mid-load (hot config reload), and corrupts random disk-cache
    entries under --chaos-corrupt-dir three ways: overwriting the whole file,
    cutting its payload short, and changing one digit of the payload (the
    last two only the store's payload digest can catch). The run then
    asserts the crash-durability contract: no lost or duplicated envelopes,
    and every ok response for the same (op, architecture) request carries a
    bit-identical `result` payload — whether it was computed fresh, replayed
    from a checkpoint, or served by a respawned worker.

Request ids are deterministic ("c<client>-r<round>-<n>"), so a response file
captured with --responses-out can be compared across transports. The
companion mode

    serve_loadgen.py extract RESPONSES.ndjson

prints "id<TAB>result" lines (results canonicalised by Python's json module)
sorted by id, so `diff` can prove the TCP fleet returned the same payloads
as a one-shot --input run. Stdlib only; exit 0 = every assertion held.
"""

import argparse
import json
import os
import random
import signal
import socket
import sys
import threading
import time


def parse_connect(text):
    if text.startswith("tcp:"):
        host, _, port = text[4:].rpartition(":")
        return ("tcp", host or "127.0.0.1", int(port))
    if text.startswith("unix:"):
        return ("unix", text[5:], None)
    raise SystemExit(f"serve_loadgen: bad --connect '{text}' "
                     "(use tcp:HOST:PORT or unix:PATH)")


def connect(target):
    kind, host, port = target
    if kind == "tcp":
        return socket.create_connection((host, port), timeout=120)
    sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    sock.settimeout(120)
    sock.connect(host)
    return sock


class Killer:
    """Fires SIGKILL at `pid` once, after `after` total responses."""

    def __init__(self, pid, after):
        self.pid = pid
        self.after = after
        self.count = 0
        self.fired = False
        self.lock = threading.Lock()

    def on_response(self):
        if self.pid is None:
            return
        with self.lock:
            self.count += 1
            if self.fired or self.count < self.after:
                return
            self.fired = True
        print(f"serve_loadgen: kill -9 {self.pid} "
              f"after {self.count} responses", flush=True)
        try:
            os.kill(self.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass


def live_children(pid):
    """Pids of `pid`'s current children (Linux /proc; respawn-aware)."""
    children = []
    task_dir = f"/proc/{pid}/task"
    try:
        tids = os.listdir(task_dir)
    except OSError:
        return children
    for tid in tids:
        try:
            with open(f"{task_dir}/{tid}/children", encoding="ascii") as f:
                children.extend(int(c) for c in f.read().split())
        except (OSError, ValueError):
            continue
    return children


class Chaos(threading.Thread):
    """Background saboteur: worker kills, SIGHUP reloads, cache corruption.

    Runs until stop() — every --chaos-interval seconds it performs one
    randomly chosen (seeded, reproducible) event from whatever sabotage the
    flags enabled. Worker pids are re-read from /proc on every kill so a
    respawned worker can be killed again.
    """

    def __init__(self, args):
        super().__init__(name="chaos", daemon=True)
        self.args = args
        self.rng = random.Random(args.chaos_seed)
        self.stopping = threading.Event()
        self.events = []

    def stop(self):
        self.stopping.set()

    def log(self, message):
        self.events.append(message)
        print(f"serve_loadgen: chaos: {message}", flush=True)

    def kill_random_worker(self):
        workers = live_children(self.args.chaos_parent)
        if not workers:
            self.log("no live workers to kill")
            return
        victim = self.rng.choice(workers)
        try:
            os.kill(victim, signal.SIGKILL)
            self.log(f"SIGKILL worker {victim}")
        except ProcessLookupError:
            self.log(f"worker {victim} already gone")

    def sighup_parent(self):
        try:
            os.kill(self.args.chaos_parent, signal.SIGHUP)
            self.log(f"SIGHUP supervisor {self.args.chaos_parent}")
        except ProcessLookupError:
            self.log("supervisor gone?!")

    def cache_entry(self):
        """A random disk-cache entry, or None when there is none yet."""
        entries = []
        for root, _, files in os.walk(self.args.chaos_corrupt_dir):
            entries.extend(os.path.join(root, f) for f in files
                           if f.endswith(".entry"))
        if not entries:
            self.log("no disk-cache entries to corrupt yet")
            return None
        return self.rng.choice(entries)

    def rewrite_payload(self, what, damage):
        """Replace an entry's payload (everything after the header, identity
        and payload-digest lines) with damage(payload); the lines above it
        stay intact, so only the payload digest can catch the change."""
        victim = self.cache_entry()
        if victim is None:
            return
        try:
            with open(victim, "rb") as f:
                text = f.read()
            header, _, rest = text.partition(b"\n")
            identity, _, rest = rest.partition(b"\n")
            digest, _, payload = rest.partition(b"\n")
            damaged = damage(payload)
            if damaged is None:
                self.log(f"nothing to {what} in {os.path.basename(victim)}")
                return
            with open(victim, "wb") as f:
                f.write(b"\n".join([header, identity, digest, damaged]))
            self.log(f"{what} {os.path.basename(victim)}")
        except OSError as error:
            self.log(f"{what} failed: {error}")

    def corrupt_cache_entry(self):
        victim = self.cache_entry()
        if victim is None:
            return
        try:
            with open(victim, "w", encoding="ascii") as f:
                f.write("corrupted-by-chaos\n")
            self.log(f"corrupted {os.path.basename(victim)}")
        except OSError as error:
            self.log(f"corruption failed: {error}")

    def truncate_cache_payload(self):
        self.rewrite_payload(
            "cut the payload of",
            lambda payload: payload[:len(payload) // 2] if payload else None)

    def change_cache_digit(self):
        def change_one_digit(payload):
            digits = [i for i, byte in enumerate(payload) if 0x30 <= byte <= 0x39]
            if not digits:
                return None
            at = self.rng.choice(digits)
            changed = bytearray(payload)
            changed[at] = 0x30 + (payload[at] - 0x30 + 1) % 10
            return bytes(changed)
        self.rewrite_payload("changed a payload digit of", change_one_digit)

    def run(self):
        actions = []
        if self.args.chaos_parent:
            actions.append(self.kill_random_worker)
            actions.append(self.sighup_parent)
        if self.args.chaos_corrupt_dir:
            actions.append(self.corrupt_cache_entry)
            actions.append(self.truncate_cache_payload)
            actions.append(self.change_cache_digit)
        if not actions:
            return
        while not self.stopping.wait(self.args.chaos_interval):
            self.rng.choice(actions)()


class Client(threading.Thread):
    def __init__(self, index, target, args, killer):
        super().__init__(name=f"client-{index}")
        self.index = index
        self.target = target
        self.args = args
        self.killer = killer
        self.responses = []  # parsed envelopes, arrival order
        self.errors = []
        self.send_lock = threading.Lock()  # retries resend from timer threads
        self.retry_timers = []

    def fail(self, message):
        self.errors.append(f"client {self.index}: {message}")

    def request_line(self, round_name, n):
        rid = f"c{self.index}-r{round_name}-{n}"
        payload = {"id": rid}
        payload.update(request_payload(self.args, n))
        return rid, json.dumps(payload, separators=(", ", ": "))

    def send(self, sock, payload):
        with self.send_lock:
            sock.sendall(payload.encode())

    def schedule_retry(self, sock, rid, line, attempt, hint_ms):
        """Resend `line` after hint * 2^attempt ms, capped; off-thread so the
        reader keeps draining other responses during the backoff."""
        delay_ms = min(max(hint_ms, 1) * (2 ** attempt),
                       self.args.retry_cap_ms)
        timer = threading.Timer(delay_ms / 1000.0,
                                lambda: self.send(sock, line + "\n"))
        timer.daemon = True
        self.retry_timers.append(timer)
        timer.start()

    def run_round(self, sock, reader, round_name, expect_warm):
        pending = {}  # rid -> [line, attempts]
        lines = []
        for n in range(self.args.requests):
            rid, line = self.request_line(round_name, n)
            pending[rid] = [line, 0]
            lines.append(line)
        self.send(sock, "\n".join(lines) + "\n")
        while pending:
            raw = reader.readline()
            if not raw:
                self.fail(f"connection closed with {len(pending)} "
                          "responses outstanding")
                return
            try:
                envelope = json.loads(raw)
            except json.JSONDecodeError as error:
                self.fail(f"unparseable response: {error}: {raw[:200]!r}")
                return
            rid = envelope.get("id", "")
            if rid not in pending:
                self.fail(f"unexpected or duplicated response id '{rid}'")
                return
            self.responses.append(envelope)
            self.killer.on_response()
            if not envelope.get("ok", False):
                error = envelope.get("error", {})
                code = error.get("code", "?")
                if code == "overloaded" and self.args.retry_overloaded:
                    line, attempts = pending[rid]
                    if attempts >= self.args.max_retries:
                        self.fail(f"'{rid}' still overloaded after "
                                  f"{attempts} retries")
                        return
                    pending[rid][1] = attempts + 1
                    self.schedule_retry(sock, rid, line, attempts,
                                        error.get("retry_after_ms", 50))
                    continue  # rid stays pending; the retry answers it
                del pending[rid]
                if code == "overloaded" and self.args.allow_overloaded:
                    continue
                self.fail(f"response '{rid}' not ok (code {code}): "
                          f"{raw[:200]!r}")
                return
            del pending[rid]
            if expect_warm and self.args.assert_warm_hits:
                metrics = envelope.get("metrics", {})
                cached = (metrics.get("session_cache") == "hit"
                          or metrics.get("disk_cache") == "hit")
                if not cached or metrics.get("explores") != 0:
                    self.fail(f"warm response '{rid}' missed both caches: "
                              f"{metrics}")
                    return

    def run(self):
        try:
            sock = connect(self.target)
        except OSError as error:
            self.fail(f"cannot connect: {error}")
            return
        try:
            reader = sock.makefile("r", encoding="utf-8", newline="\n")
            self.run_round(sock, reader, "cold", expect_warm=False)
            if not self.errors and self.args.warm_rounds > 0:
                for warm in range(self.args.warm_rounds):
                    self.run_round(sock, reader, f"warm{warm}",
                                   expect_warm=True)
                    if self.errors:
                        break
        finally:
            for timer in self.retry_timers:
                timer.cancel()
            sock.close()


def request_payload(args, n):
    """The id-less request the n-th slot of every round sends. Distinct
    horizons (--spread-horizons) force distinct solves against a shared
    session model, so a chaos run spends real engine time instead of
    answering everything from the caches."""
    payload = {"op": "analyze",
               "architecture": args.arch[n % len(args.arch)]}
    if args.spread_horizons:
        payload["horizon_years"] = round(
            1.0 + 0.25 * (n % args.spread_horizons), 2)
    return payload


def request_key(rid, args):
    """The (round-independent) request payload a response id stands for."""
    n = int(rid.rsplit("-", 1)[1])
    return json.dumps(request_payload(args, n), sort_keys=True)


def check_consistency(responses, args):
    """Every ok response to the same request payload must carry a
    bit-identical `result` — fresh, checkpointed, respawned, or cached."""
    seen = {}
    errors = []
    for envelope in responses:
        if not envelope.get("ok", False):
            continue
        rid = envelope.get("id", "")
        try:
            key = request_key(rid, args)
        except (ValueError, IndexError):
            errors.append(f"malformed response id '{rid}'")
            continue
        result = json.dumps(envelope.get("result"), sort_keys=True)
        if key not in seen:
            seen[key] = (rid, result)
        elif seen[key][1] != result:
            errors.append(
                f"divergent results for {key}: '{seen[key][0]}' vs "
                f"'{rid}' disagree")
    return errors


def run_extract(path):
    rows = []
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            envelope = json.loads(line)
            result = json.dumps(envelope.get("result"), sort_keys=True)
            rows.append((envelope.get("id", ""), result))
    for rid, result in sorted(rows):
        print(f"{rid}\t{result}")
    return 0


def main():
    if len(sys.argv) >= 2 and sys.argv[1] == "extract":
        if len(sys.argv) != 3:
            raise SystemExit("usage: serve_loadgen.py extract FILE.ndjson")
        return run_extract(sys.argv[2])

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--connect", required=True,
                        help="tcp:HOST:PORT or unix:PATH")
    parser.add_argument("--clients", type=int, default=8)
    parser.add_argument("--requests", type=int, default=8,
                        help="requests per client per round")
    parser.add_argument("--arch", action="append", required=True,
                        help="architecture file (repeatable; round-robined)")
    parser.add_argument("--spread-horizons", type=int, default=0,
                        help="cycle horizon_years over K distinct values so "
                             "each round carries K x len(--arch) distinct "
                             "computations (0 = every request identical per "
                             "architecture)")
    parser.add_argument("--warm-rounds", type=int, default=1)
    parser.add_argument("--assert-warm-hits", action="store_true",
                        help="warm rounds must report a session or disk "
                             "cache hit and explores=0")
    parser.add_argument("--allow-overloaded", action="store_true")
    parser.add_argument("--retry-overloaded", action="store_true",
                        help="retry shed requests after the server's "
                             "retry_after_ms hint with capped exponential "
                             "backoff")
    parser.add_argument("--max-retries", type=int, default=8)
    parser.add_argument("--retry-cap-ms", type=int, default=2000,
                        help="backoff ceiling per retry")
    parser.add_argument("--kill-pid", type=int, default=None)
    parser.add_argument("--kill-after", type=int, default=0,
                        help="responses to wait for before --kill-pid fires")
    parser.add_argument("--chaos", action="store_true",
                        help="inject faults for the whole run (worker kills, "
                             "SIGHUP reloads, disk-cache corruption) and "
                             "assert result-payload consistency")
    parser.add_argument("--chaos-parent", type=int, default=None,
                        help="serve supervisor pid: chaos SIGKILLs its live "
                             "children (re-read each event) and SIGHUPs it")
    parser.add_argument("--chaos-corrupt-dir", default=None,
                        help="disk-cache directory: chaos overwrites, cuts "
                             "short or changes a digit of "
                             "random .entry files")
    parser.add_argument("--chaos-interval", type=float, default=0.4,
                        help="seconds between chaos events")
    parser.add_argument("--chaos-seed", type=int, default=1234)
    parser.add_argument("--assert-consistent", action="store_true",
                        help="every ok response to the same request payload "
                             "must carry a bit-identical result (implied by "
                             "--chaos)")
    parser.add_argument("--responses-out", default=None,
                        help="write every response envelope (NDJSON) here")
    parser.add_argument("--requests-out", default=None,
                        help="write the exact request lines this run sends "
                             "(NDJSON) — replay them through `autosec serve "
                             "--input` to compare transports")
    args = parser.parse_args()

    if args.chaos and not (args.chaos_parent or args.chaos_corrupt_dir):
        raise SystemExit("serve_loadgen: --chaos needs --chaos-parent "
                         "and/or --chaos-corrupt-dir")

    if args.requests_out:
        # The same deterministic ids the clients will use, so a one-shot
        # --input replay produces comparable envelopes.
        rounds = ["cold"] + [f"warm{w}" for w in range(args.warm_rounds)]
        with open(args.requests_out, "w", encoding="utf-8") as out:
            for index in range(args.clients):
                for round_name in rounds:
                    for n in range(args.requests):
                        payload = {"id": f"c{index}-r{round_name}-{n}"}
                        payload.update(request_payload(args, n))
                        out.write(json.dumps(
                            payload, separators=(", ", ": ")) + "\n")

    target = parse_connect(args.connect)
    killer = Killer(args.kill_pid, args.kill_after)
    chaos = Chaos(args) if args.chaos else None
    clients = [Client(i, target, args, killer) for i in range(args.clients)]
    started = time.monotonic()
    for client in clients:
        client.start()
    if chaos:
        chaos.start()
    for client in clients:
        client.join()
    if chaos:
        chaos.stop()
        chaos.join(timeout=5)

    responses = [r for client in clients for r in client.responses]
    if args.responses_out:
        with open(args.responses_out, "w", encoding="utf-8") as out:
            for envelope in responses:
                out.write(json.dumps(envelope, sort_keys=True) + "\n")

    errors = [e for client in clients for e in client.errors]
    ok_responses = [r for r in responses if r.get("ok", False)]
    shed = sum(1 for r in responses
               if r.get("error", {}).get("code") == "overloaded")
    expected = args.clients * args.requests * (1 + max(args.warm_rounds, 0))
    for error in errors:
        print(f"serve_loadgen: FAIL: {error}", file=sys.stderr)
    if not errors:
        # Exactly-once delivery: every request answered ok exactly once
        # (overloaded envelopes are bookkeeping, not answers).
        answered = len(ok_responses) + (shed if args.allow_overloaded
                                        and not args.retry_overloaded else 0)
        if answered != expected:
            print(f"serve_loadgen: FAIL: expected {expected} answered "
                  f"requests, got {answered} "
                  f"({len(ok_responses)} ok, {shed} shed)", file=sys.stderr)
            errors.append("response count")
    if not errors and (args.chaos or args.assert_consistent):
        for error in check_consistency(responses, args):
            print(f"serve_loadgen: FAIL: {error}", file=sys.stderr)
            errors.append("consistency")
    if errors:
        return 1
    hits = sum(1 for r in ok_responses
               if r.get("metrics", {}).get("session_cache") == "hit")
    disk_hits = sum(1 for r in ok_responses
                    if r.get("metrics", {}).get("disk_cache") == "hit")
    ckpt_hits = sum(r.get("metrics", {}).get("checkpoint", {}).get("hits", 0)
                    for r in ok_responses)
    elapsed = time.monotonic() - started
    chaos_note = (f", {len(chaos.events)} chaos events" if chaos else "")
    retry_note = f", {shed} retried sheds" if args.retry_overloaded else ""
    print(f"serve_loadgen: OK — {len(ok_responses)} ok responses across "
          f"{args.clients} clients in {elapsed:.1f}s, {hits} session-cache "
          f"hits, {disk_hits} disk-cache hits, {ckpt_hits} checkpoint "
          f"replays{retry_note}{chaos_note}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
