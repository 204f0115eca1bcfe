"""Outside-in per-layer tracing of one ``Simulation``.

The tracer patches the public entry points of each layer of
``src/phalanx`` from outside (class attributes, plus three functions of
``phalanx.types``) and restores every original on ``uninstall``. Nothing
under ``src/`` knows it is being traced.

Each spanned call appends one span (name, start, end, parent) to four
compact arrays kept in memory until the run ends; a span's self time is
its duration minus the durations of its direct children. The root span
is ``Simulation.run`` itself, so the self times of all spans add up to
the root's duration exactly. Calls that happen hundreds of thousands of
times per run with little work each (``front_vector``,
``reliable_precedes``, ``trusted_timestamp``, ``Simulation.send``) are
counted but not spanned; their time stays in the caller's self time.

Wire bytes are not measured while the run is timed: sent messages and
order-batches are kept by reference and encoded in ``report``.
"""

from __future__ import annotations

import time
from array import array
from collections import Counter

LAYERS = ("simnet", "mempool", "auth", "consensus", "executor", "tsorder", "types")

MEMPOOL_METHODS = (
    "try_pre_order", "resend_pre_order", "handle_pre_order", "handle_vote", "handle_order",
)
# Reason tags tallied in Mempool.rejects (constants of phalanx.mempool).
REJECT_REASONS = (
    "duplicate_command", "reject_bad_digest", "reject_bad_author", "reject_gap",
    "reject_equivocation", "stale_vote", "invalid_partial", "invalid_cert", "chain_break",
)
MESSAGE_KINDS = {
    "PreOrderMessage": "pre_order",
    "VoteMessage": "vote",
    "OrderMessage": "order",
    "FetchLogMessage": "fetch_log",
    "FetchLogResponse": "fetch_resp",
    "FetchCommandMessage": "fetch_cmd",
    "FetchCommandResponse": "fetch_cmd_resp",
}
WIRE_KINDS = tuple(MESSAGE_KINDS.values()) + ("batch",)


def _owner(cls: type, attr: str) -> type:
    """The class in ``cls``'s MRO whose own namespace defines ``attr``."""
    for klass in cls.__mro__:
        if attr in vars(klass):
            return klass
    raise AttributeError(f"{cls.__name__} has no attribute {attr!r}")


class Tracer:
    """Spans and counts for one simulation; install before ``run``."""

    def __init__(self, sim):
        self.sim = sim
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("q")
        self.span_end = array("q")
        self._stack = [-1]
        self.counts: Counter[str] = Counter()
        self.patches: list[tuple[object, str, object]] = []
        self._sent: dict[int, list] = {}
        self._send_total = [0]
        self._batches: list = []
        self._queue_lens: list[int] = []
        self._seen_certs: set[tuple[bytes, bytes]] = set()
        self._byzantine = {
            i for i in range(sim.scenario.n) if sim.scenario.behavior(i).is_byzantine
        }

    # -- span and patch primitives ----------------------------------------

    def _nid(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _spanned(self, fn, name: str):
        nid = self._nid(name)
        names, parents, starts, ends = (
            self.span_name, self.span_parent, self.span_start, self.span_end,
        )
        stack = self._stack
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0)
            stack.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()

        return wrapper

    def _counted(self, fn, name: str):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _patch(self, owner, attr: str, make) -> None:
        original = vars(owner)[attr]
        self.patches.append((owner, attr, original))
        setattr(owner, attr, make(getattr(owner, attr)))

    def _patch_method(self, cls: type, attr: str, make) -> None:
        self._patch(_owner(cls, attr), attr, make)

    # -- install / uninstall ------------------------------------------------

    def install(self) -> None:
        from phalanx import types
        from phalanx.consensus import Consenter, SequencerBroadcast
        from phalanx.executor import Executor
        from phalanx.mempool import Mempool
        from phalanx.simnet import Simulation, _Node
        from phalanx.tsorder import TimestampExecutor

        sim = self.sim
        span, count, patch = self._spanned, self._counted, self._patch_method

        # simnet: the loop is the root span, one span per event handler.
        patch(Simulation, "run", lambda fn: span(fn, "simnet.run"))
        patch(Simulation, "send", self._on_send)
        for handler in ("on_message", "on_batch", "on_command"):
            patch(_Node, handler, lambda fn, h=handler: span(fn, f"simnet.{h}"))
        patch(_Node, "on_tick", self._on_tick)

        for method in MEMPOOL_METHODS:
            patch(Mempool, method, lambda fn, m=method: span(fn, f"mempool.{m}"))
        patch(Mempool, "try_pre_order", self._on_try_pre_order)

        auth_cls = type(sim.auth)
        for method in ("verify_partial", "partial_sign", "aggregate"):
            patch(auth_cls, method, lambda fn, m=method: span(fn, f"auth.{m}"))
        patch(auth_cls, "verify_certificate", self._on_verify_certificate)

        patch(Consenter, "make_order_batch", lambda fn: span(fn, "consensus.make_order_batch"))
        patch(Consenter, "on_delivered",
              lambda fn: self._on_gap_report(span(fn, "consensus.on_delivered")))
        patch(Consenter, "on_log_stored",
              lambda fn: self._on_gap_report(span(fn, "consensus.on_log_stored")))
        patch(Consenter, "commit_order_batch", self._on_commit_order_batch)
        patch(SequencerBroadcast, "submit", self._on_submit)

        for cls, layer in ((Executor, "executor"), (TimestampExecutor, "tsorder")):
            patch(cls, "feed", self._on_feed)
            patch(cls, "trusted_timestamp",
                  lambda fn, l=layer: count(fn, f"{l}.trusted_timestamp.calls"))
        patch(Executor, "drain", self._on_executor_drain)
        patch(Executor, "front_vector", lambda fn: count(fn, "executor.selections"))
        patch(Executor, "reliable_precedes",
              lambda fn: count(fn, "executor.reliable_precedes.calls"))
        patch(Executor, "commit_anchor_set", self._on_commit_anchor_set)
        patch(TimestampExecutor, "drain", lambda fn: span(fn, "tsorder.drain"))
        patch(TimestampExecutor, "flush_ready", lambda fn: span(fn, "tsorder.flush_ready"))

        for func in ("digest_command", "digest_log"):
            self._patch(types, func, lambda fn, f=func: span(fn, f"types.{f}"))
        patch(types.PartialOrderLog, "verify_digest",
              lambda fn: span(fn, "types.verify_digest"))

    def uninstall(self) -> None:
        while self.patches:
            owner, attr, original = self.patches.pop()
            setattr(owner, attr, original)

    # -- hooks that count as well as span -------------------------------------

    def _on_send(self, fn):
        sent, total = self._sent, self._send_total

        def send(sim, src, dst, msg):
            total[0] += 1
            entry = sent.get(id(msg))
            if entry is None:
                sent[id(msg)] = [msg, 1]
            else:
                entry[1] += 1
            return fn(sim, src, dst, msg)

        return send

    def _on_submit(self, fn):
        batches = self._batches

        def submit(broadcast, batch):
            batches.append(batch)
            return fn(broadcast, batch)

        return submit

    def _on_tick(self, fn):
        byz = self._spanned(fn, "simnet.on_tick.byz")
        honest = self._spanned(fn, "simnet.on_tick.honest")
        byzantine, total, batches, counts = (
            self._byzantine, self._send_total, self._batches, self.counts,
        )

        def on_tick(node, now):
            before = (total[0], len(batches))
            out = (byz if node.node_id in byzantine else honest)(node, now)
            counts["simnet.ticks"] += 1
            if (total[0], len(batches)) == before:
                counts["simnet.idle_ticks"] += 1
            return out

        return on_tick

    def _on_try_pre_order(self, fn):
        byzantine, lens = self._byzantine, self._queue_lens

        def try_pre_order(mempool, now):
            depth = len(mempool.inbound)
            msg = fn(mempool, now)
            if msg is not None and mempool.node_id in byzantine:
                lens.append(depth)
            return msg

        return try_pre_order

    def _on_verify_certificate(self, fn):
        spanned = self._spanned(fn, "auth.verify_certificate")
        seen, counts = self._seen_certs, self.counts

        def verify_certificate(auth, cert):
            key = (cert.event_digest, cert.aggregate)
            if key in seen:
                counts["auth.cert_repeats"] += 1
            else:
                seen.add(key)
            return spanned(auth, cert)

        return verify_certificate

    def _on_gap_report(self, fn):
        counts = self.counts

        def gap_report(consenter, *args):
            missing = fn(consenter, *args)
            if missing:
                counts["consensus.stalls"] += 1
                counts["consensus.fetch_logs"] += len(missing)
            return missing

        return gap_report

    def _on_commit_order_batch(self, fn):
        counts = self.counts

        def commit_order_batch(consenter, batch):
            counts["consensus.slot_checks"] += sum(1 for slot in batch if slot is not None)
            return fn(consenter, batch)

        return commit_order_batch

    def _on_feed(self, fn):
        counts = self.counts

        def feed(executor, log_set):
            counts["consensus.log_sets"] += 1
            counts["consensus.logs_in_sets"] += len(log_set)
            return fn(executor, log_set)

        return feed

    def _on_executor_drain(self, fn):
        spanned = self._spanned(fn, "executor.drain")
        counts = self.counts

        def drain(executor):
            out = spanned(executor)
            if executor.blocked_on:
                counts["executor.blocked"] += 1
            return out

        return drain

    def _on_commit_anchor_set(self, fn):
        counts = self.counts

        def commit_anchor_set(executor, *args):
            out = fn(executor, *args)
            counts["executor.anchor_sets"] += 1
            return out

        return commit_anchor_set

    # -- report -----------------------------------------------------------------

    def self_times_ns(self) -> tuple[dict[str, int], dict[str, int], dict[str, int]]:
        """(self time, inclusive time, call count) per span name, in ns."""
        names, parents = self.span_name, self.span_parent
        durations = [end - start for start, end in zip(self.span_start, self.span_end)]
        children = [0] * len(durations)
        for idx, parent in enumerate(parents):
            if parent >= 0:
                children[parent] += durations[idx]
        selfs = [0] * len(self.names)
        incl = [0] * len(self.names)
        calls = [0] * len(self.names)
        for idx, nid in enumerate(names):
            selfs[nid] += durations[idx] - children[idx]
            incl[nid] += durations[idx]
            calls[nid] += 1
        return (
            dict(zip(self.names, selfs)),
            dict(zip(self.names, incl)),
            dict(zip(self.names, calls)),
        )

    def report(self, result) -> dict:
        """Additive per-layer counters for this run (summed across runs later)."""
        from phalanx.consensus import encode_order_batch
        from phalanx.wire import encode_message

        selfs, incl, calls = self.self_times_ns()
        s = lambda name: selfs.get(name, 0) / 1e9  # noqa: E731
        out: dict[str, float] = {}
        out["simnet.events"] = result.events_processed
        out["simnet.ticks"] = self.counts["simnet.ticks"]
        out["simnet.idle_ticks"] = self.counts["simnet.idle_ticks"]
        out["simnet.loop_self_s"] = s("simnet.run")
        for handler in ("on_message", "on_batch", "on_command"):
            out[f"simnet.handler_s.{handler}"] = s(f"simnet.{handler}")
        out["simnet.handler_s.on_tick"] = s("simnet.on_tick.byz") + s("simnet.on_tick.honest")
        out["byz.tick_s"] = incl.get("simnet.on_tick.byz", 0) / 1e9
        out["honest.tick_s"] = incl.get("simnet.on_tick.honest", 0) / 1e9
        out["byz.pre_orders"] = len(self._queue_lens)
        out["byz.queue_len_total"] = sum(self._queue_lens)
        out["byz.queue_len_max"] = max(self._queue_lens, default=0)

        nodes = self.sim.nodes
        for method in MEMPOOL_METHODS:
            out[f"mempool.calls.{method}"] = calls.get(f"mempool.{method}", 0)
            out[f"mempool.self_s.{method}"] = s(f"mempool.{method}")
        for reason in REJECT_REASONS:
            out[f"mempool.rejects.{reason}"] = sum(node.mempool.rejects[reason] for node in nodes)
        out["mempool.log_store_size"] = max(len(node.mempool.log_store) for node in nodes)
        out["mempool.command_store_size"] = max(len(node.mempool.command_store) for node in nodes)

        for method in ("verify_certificate", "verify_partial", "partial_sign", "aggregate"):
            out[f"auth.{method}.calls"] = calls.get(f"auth.{method}", 0)
        out["auth.verify_certificate.self_s"] = s("auth.verify_certificate")
        out["auth.cert_repeats"] = self.counts["auth.cert_repeats"]

        out["consensus.batches"] = len(self._batches)
        out["consensus.make_order_batch.calls"] = calls.get("consensus.make_order_batch", 0)
        out["consensus.deliveries"] = calls.get("consensus.on_delivered", 0)
        out["consensus.on_delivered.self_s"] = s("consensus.on_delivered")
        for key in ("slot_checks", "log_sets", "logs_in_sets", "stalls", "fetch_logs"):
            out[f"consensus.{key}"] = self.counts[f"consensus.{key}"]
        out["consensus.leader_faults"] = result.leader_faults

        out["executor.drain.calls"] = calls.get("executor.drain", 0)
        out["executor.drain.self_s"] = s("executor.drain")
        for key in ("selections", "reliable_precedes.calls", "trusted_timestamp.calls",
                    "anchor_sets", "blocked"):
            out[f"executor.{key}"] = self.counts[f"executor.{key}"]
        out["executor.alter_path_ratio"] = result.alter_path_ratio
        out["executor.command_infos_size"] = max(
            len(node.executor.command_infos) for node in nodes
        )
        out["tsorder.drain.self_s"] = s("tsorder.drain")
        out["tsorder.flush_ready.calls"] = calls.get("tsorder.flush_ready", 0)
        out["tsorder.flush_ready.self_s"] = s("tsorder.flush_ready")
        out["tsorder.trusted_timestamp.calls"] = self.counts["tsorder.trusted_timestamp.calls"]

        out["types.digest_log.calls"] = calls.get("types.digest_log", 0)
        out["types.verify_digest.calls"] = calls.get("types.verify_digest", 0)

        for layer in LAYERS:
            out[f"{layer}.self_s"] = sum(
                ns for name, ns in selfs.items() if name.split(".", 1)[0] == layer
            ) / 1e9
        out["trace.spans"] = len(self.span_name)
        out["trace.root_s"] = incl.get("simnet.run", 0) / 1e9

        wire = Counter()
        for msg, copies in self._sent.values():
            wire[MESSAGE_KINDS[type(msg).__name__]] += len(encode_message(msg)) * copies
        n = self.sim.scenario.n
        for batch in self._batches:
            wire["batch"] += len(encode_order_batch(batch)) * n
        for kind in WIRE_KINDS:
            out[f"wire.bytes.{kind}"] = wire[kind]
            out[f"simnet.msgs.{kind}"] = 0
        for msg, copies in self._sent.values():
            out[f"simnet.msgs.{MESSAGE_KINDS[type(msg).__name__]}"] += copies
        out["simnet.msgs.batch"] = len(self._batches) * n
        return out
