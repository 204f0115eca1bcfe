"""Anchor-based Byzantine ordered consensus with a deterministic simulator."""

from .authenticators import (
    AggregationError,
    Ed25519Authenticator,
    HmacAuthenticator,
    make_authenticator,
)
from .consensus import BatchInvalid, Consenter, MissingLogs
from .executor import TraceEntry
from .mempool import Mempool
from .metrics import count_inversions, reordered_ratio
from .scenario import NodeBehavior, Scenario, ScenarioError, parse_scenario_text
from .simnet import Simulation, run
from .tsorder import TimestampExecutor
from .types import (
    Certificate,
    Command,
    EMPTY_DIGEST,
    PartialOrderLog,
    PreconditionViolation,
    ProtocolInvariantError,
    digest_command,
    digest_log,
)

__version__ = "0.1.0"

__all__ = [
    "AggregationError",
    "BatchInvalid",
    "Certificate",
    "Command",
    "Consenter",
    "EMPTY_DIGEST",
    "Ed25519Authenticator",
    "HmacAuthenticator",
    "Mempool",
    "MissingLogs",
    "NodeBehavior",
    "PartialOrderLog",
    "PreconditionViolation",
    "ProtocolInvariantError",
    "Scenario",
    "ScenarioError",
    "Simulation",
    "TimestampExecutor",
    "TraceEntry",
    "count_inversions",
    "digest_command",
    "digest_log",
    "make_authenticator",
    "parse_scenario_text",
    "reordered_ratio",
    "run",
]
