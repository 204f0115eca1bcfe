"""Anchor-based Byzantine ordered consensus with a deterministic simulator."""

from .authenticators import (
    AggregationError,
    Authenticator,
    Ed25519Authenticator,
    HmacAuthenticator,
    make_authenticator,
)
from .consensus import (
    BatchInvalid,
    Consenter,
    LogSet,
    MissingLogs,
    OrderBatch,
    SequencerBroadcast,
    TotalOrderBroadcast,
)
from .executor import (
    ALTER_PATH,
    NORMAL_PATH,
    CommandInfo,
    CommandUnavailable,
    Executor,
    TraceEntry,
)
from .mempool import Mempool
from .metrics import count_inversions, reordered_ratio, traces_consistent
from .scenario import (
    ANCHOR,
    FOLLOW,
    TIMESTAMP,
    NodeBehavior,
    Scenario,
    ScenarioError,
    load_scenario,
    parse_scenario_text,
)
from .simnet import ExperimentResult, Simulation, run
from .tsorder import TimestampExecutor
from .types import (
    Certificate,
    Command,
    Digest,
    EMPTY_DIGEST,
    PartialOrderLog,
    PartialSignature,
    PreconditionViolation,
    ProtocolInvariantError,
    digest_command,
    digest_log,
)

__version__ = "0.1.0"

__all__ = [
    "AggregationError",
    "ANCHOR",
    "ALTER_PATH",
    "Authenticator",
    "BatchInvalid",
    "Certificate",
    "Command",
    "CommandInfo",
    "CommandUnavailable",
    "Consenter",
    "Digest",
    "EMPTY_DIGEST",
    "Ed25519Authenticator",
    "ExperimentResult",
    "Executor",
    "FOLLOW",
    "HmacAuthenticator",
    "LogSet",
    "Mempool",
    "MissingLogs",
    "NodeBehavior",
    "NORMAL_PATH",
    "OrderBatch",
    "PartialOrderLog",
    "PartialSignature",
    "PreconditionViolation",
    "ProtocolInvariantError",
    "Scenario",
    "ScenarioError",
    "SequencerBroadcast",
    "Simulation",
    "TIMESTAMP",
    "TimestampExecutor",
    "TotalOrderBroadcast",
    "TraceEntry",
    "count_inversions",
    "digest_command",
    "digest_log",
    "load_scenario",
    "make_authenticator",
    "parse_scenario_text",
    "reordered_ratio",
    "run",
    "traces_consistent",
]
