"""Scenario configuration: a flat key-value text format and its parser.

Example scenario file::

    # adversary sweep point
    n = 16
    f = 5
    proposers = 2
    commands_per_proposer = 150
    batch_size = 4
    delta_o = 50
    latency = 40..150          # or "lan" (1..5) / "wan" (40..150)
    propose_interval = 50
    seed = 42
    strategy = anchor          # anchor | timestamp | follow
    byzantine = 11:shuffle+skew:-40, 12:silent
    max_sim_ms = 600000

``strategy = follow`` is the manipulation control: every node adopts the
first Byzantine node's declared partial order as the total order.

A sweep file adds ``sweep_byzantine = lo..hi``, ``sweep_behavior``,
``strategies``, ``reps`` and ``base_seed``; both share one line tokenizer.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from typing import Iterable, Iterator

ANCHOR = "anchor"
TIMESTAMP = "timestamp"
FOLLOW = "follow"

STRATEGIES = (ANCHOR, TIMESTAMP, FOLLOW)

LATENCY_PROFILES = {
    "lan": (1, 5),
    "wan": (40, 150),
}


class ScenarioError(ValueError):
    """Malformed scenario configuration."""


@dataclass(frozen=True, slots=True)
class NodeBehavior:
    """Byzantine behavior flags for one node.

    Each field is one behavior token: a bool field is a bare flag
    (``shuffle``), an int field takes an argument (``skew:-40``). The
    parser, :meth:`tag` and :attr:`is_byzantine` all read the fields.
    """

    shuffle: bool = False
    reverse: bool = False
    silent: bool = False
    skew: int = 0

    @property
    def is_byzantine(self) -> bool:
        return any(getattr(self, name) for name in _BEHAVIOR_KINDS)

    def tag(self) -> str:
        parts = []
        for name, kind in _BEHAVIOR_KINDS.items():
            value = getattr(self, name)
            if value:
                parts.append(name if kind is bool else f"{name}:{value}")
        return "+".join(parts) or "honest"

    @classmethod
    def parse(cls, spec: str) -> "NodeBehavior":
        values: dict[str, object] = {}
        for part in spec.split("+"):
            part = part.strip().lower()
            name, colon, arg = part.partition(":")
            kind = _BEHAVIOR_KINDS.get(name)
            if name in values:
                raise ScenarioError(f"repeated behavior {name!r} in {spec!r}")
            if kind is bool and not colon:
                values[name] = True
            elif kind is int and colon:
                try:
                    values[name] = int(arg)
                except ValueError as exc:
                    raise ScenarioError(f"bad {name} delta in {spec!r}") from exc
            else:
                raise ScenarioError(f"unknown behavior {part!r}")
        return cls(**values)


# Behavior field -> bool (a flag) or int (takes an argument).
_BEHAVIOR_KINDS = {field.name: type(field.default) for field in fields(NodeBehavior)}

HONEST = NodeBehavior()


@dataclass(frozen=True)
class Scenario:
    """Complete description of one simulation run; the seed fixes everything."""

    n: int = 4
    f: int = 1
    proposers: int = 1
    commands_per_proposer: int = 50
    batch_size: int = 4
    delta_o: int = 50
    latency: tuple[int, int] = (1, 5)
    propose_interval: int = 50
    seed: int = 1
    strategy: str = ANCHOR
    byzantine: dict[int, NodeBehavior] = field(default_factory=dict)
    max_sim_ms: int = 600_000
    resend_ms: int = 2_000

    def __post_init__(self):
        if self.f < 0:
            raise ScenarioError(f"f must be >= 0, got {self.f}")
        if self.n != 3 * self.f + 1:
            raise ScenarioError(f"n must equal 3f+1 (n={self.n}, f={self.f})")
        if self.strategy not in STRATEGIES:
            raise ScenarioError(f"unknown strategy {self.strategy!r}")
        if len(self.byzantine) > self.n:
            raise ScenarioError("more Byzantine entries than nodes")
        for node_id, behavior in self.byzantine.items():
            if not 0 <= node_id < self.n:
                raise ScenarioError(f"Byzantine id {node_id} out of range")
            if not behavior.is_byzantine:
                raise ScenarioError(f"node {node_id} tagged Byzantine but honest")
        if self.strategy == FOLLOW and not self.byzantine:
            raise ScenarioError("follow strategy needs at least one Byzantine node")
        if self.latency[0] < 0 or self.latency[1] < self.latency[0]:
            raise ScenarioError(f"bad latency range {self.latency}")
        if self.proposers < 1 or self.commands_per_proposer < 0:
            raise ScenarioError("need at least one proposer and >= 0 commands")
        if self.delta_o < 1:
            raise ScenarioError("delta_o must be >= 1 ms")
        if self.batch_size < 1:
            raise ScenarioError(f"batch_size must be >= 1, got {self.batch_size}")
        for key in ("propose_interval", "resend_ms", "max_sim_ms"):
            value = getattr(self, key)
            if value < 0:
                raise ScenarioError(f"{key} must be >= 0 ms, got {value}")

    def behavior(self, node_id: int) -> NodeBehavior:
        return self.byzantine.get(node_id, HONEST)

    def honest_ids(self) -> list[int]:
        return [i for i in range(self.n) if i not in self.byzantine]

    def to_dict(self) -> dict:
        out = {key.name: getattr(self, key.name) for key in fields(self)}
        out["latency"] = list(self.latency)
        out["byzantine"] = {str(k): self.byzantine[k].tag() for k in sorted(self.byzantine)}
        return out


# The keys whose value is a plain integer.
_INT_KEYS = {key.name for key in fields(Scenario) if type(key.default) is int}


def _parse_latency(value: str) -> tuple[int, int]:
    value = value.strip().lower()
    if value in LATENCY_PROFILES:
        return LATENCY_PROFILES[value]
    lo, _, hi = value.partition("..")
    try:
        return (int(lo), int(hi))
    except ValueError as exc:
        raise ScenarioError(f"bad latency spec {value!r}") from exc


def _parse_byzantine(value: str) -> dict[int, NodeBehavior]:
    out: dict[int, NodeBehavior] = {}
    value = value.strip()
    if not value or value.lower() == "none":
        return out
    for chunk in value.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        node_str, _, behavior_str = chunk.partition(":")
        try:
            node_id = int(node_str)
        except ValueError as exc:
            raise ScenarioError(f"bad Byzantine node id {node_str!r}") from exc
        if not behavior_str:
            raise ScenarioError(f"missing behavior for node {node_id}")
        if node_id in out:
            raise ScenarioError(f"duplicate Byzantine entry for node {node_id}")
        out[node_id] = NodeBehavior.parse(behavior_str)
    return out


_Line = tuple[int, str, str]  # (line number, lower-case key, value)


def _lines(text: str) -> Iterator[_Line]:
    """The ``key = value`` lines; a key may appear once."""
    seen: dict[str, int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, eq, value = line.partition("=")
        if not eq:
            raise ScenarioError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key = key.strip().lower()
        if key in seen:
            raise ScenarioError(f"line {lineno}: key {key!r} repeats line {seen[key]}")
        seen[key] = lineno
        yield lineno, key, value.strip()


def _int(lineno: int, key: str, value: str) -> int:
    try:
        return int(value)
    except ValueError as exc:
        raise ScenarioError(f"line {lineno}: {key} must be an integer") from exc


_PARSERS = {
    "latency": _parse_latency,
    "strategy": str.lower,
    "byzantine": _parse_byzantine,
}


def _scenario(lines: Iterable[_Line]) -> Scenario:
    values: dict[str, object] = {}
    for lineno, key, value in lines:
        if key in _INT_KEYS:
            values[key] = _int(lineno, key, value)
        elif key in _PARSERS:
            values[key] = _PARSERS[key](value)
        else:
            raise ScenarioError(f"line {lineno}: unknown key {key!r}")
    try:
        return Scenario(**values)
    except TypeError as exc:
        raise ScenarioError(str(exc)) from exc


def parse_scenario_text(text: str) -> Scenario:
    return _scenario(_lines(text))


def _read(path, what: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ScenarioError(f"cannot read {what} file: {exc}") from exc


def load_scenario(path) -> Scenario:
    return parse_scenario_text(_read(path, "scenario"))


@dataclass(frozen=True)
class SweepSpec:
    """A base scenario swept over Byzantine node counts; every point is checked."""

    base: Scenario
    byz_range: tuple[int, int]
    behavior: NodeBehavior
    strategies: tuple[str, ...]
    reps: int
    base_seed: int

    def __post_init__(self):
        lo, hi = self.byz_range
        if lo < 0 or hi < lo or hi >= self.base.n:
            raise ScenarioError(f"bad sweep range {self.byz_range} for n={self.base.n}")
        if self.reps < 1:
            raise ScenarioError(f"reps must be >= 1, got {self.reps}")
        if not self.strategies:
            raise ScenarioError("strategies names no strategy")
        self.points()

    def points(self) -> list[Scenario]:
        out = []
        for count in range(self.byz_range[0], self.byz_range[1] + 1):
            byzantine = {
                self.base.n - 1 - slot: self.behavior for slot in range(count)
            }
            for strategy in self.strategies:
                for rep in range(self.reps):
                    out.append(replace(
                        self.base,
                        byzantine=byzantine,
                        strategy=strategy,
                        seed=self.base_seed + rep,
                    ))
        return out


_SWEEP_KEYS = {"sweep_byzantine", "sweep_behavior", "strategies", "reps", "base_seed"}


def load_sweep(path) -> SweepSpec:
    lines = list(_lines(_read(path, "sweep")))
    base = _scenario(line for line in lines if line[1] not in _SWEEP_KEYS)
    sweep = {line[1]: line for line in lines if line[1] in _SWEEP_KEYS}
    if "sweep_byzantine" not in sweep:
        raise ScenarioError("sweep file needs 'sweep_byzantine = lo..hi'")
    lineno, _, value = sweep["sweep_byzantine"]
    lo, _, hi = value.partition("..")
    try:
        byz_range = (int(lo), int(hi))
    except ValueError as exc:
        raise ScenarioError(f"line {lineno}: bad sweep_byzantine range") from exc
    text = {key: line[2] for key, line in sweep.items()}
    strategies = text.get("strategies", "anchor,timestamp").split(",")
    return SweepSpec(
        base=base,
        byz_range=byz_range,
        behavior=NodeBehavior.parse(text.get("sweep_behavior", "shuffle")),
        strategies=tuple(s.strip().lower() for s in strategies if s.strip()),
        reps=_int(*sweep["reps"]) if "reps" in sweep else 1,
        base_seed=_int(*sweep["base_seed"]) if "base_seed" in sweep else base.seed,
    )
