"""Greylisting: triplet store, pluggable storage backends,
Postgrey-compatible policy, whitelists, persistence and cost
accounting."""

from .backends import (
    BACKEND_NAMES,
    JOURNAL_HEADER,
    JournalBackend,
    MemoryBackend,
    SQLiteBackend,
    TripletBackend,
    create_backend,
    entry_is_expired,
)
from .cost import (
    BYTES_PER_DEFERRED_ATTEMPT,
    BYTES_PER_RETRY_PREAMBLE,
    GreylistCostReport,
    measure_cost,
)
from .keying import KeyStrategy, derive_key, resists_sender_rotation
from .persistence import (
    FORMAT_HEADER,
    PersistenceError,
    dump_store,
    format_entry_line,
    load_store,
    parse_entry_line,
    snapshot_size_bytes,
)
from .policy import (
    DEFAULT_DELAY,
    GreylistAction,
    GreylistEvent,
    GreylistPolicy,
)
from .store import DAY, TripletEntry, TripletStore
from .triplet import Triplet
from .whitelist import (
    DEFAULT_WHITELISTED_DOMAINS,
    Whitelist,
    default_provider_whitelist,
)

__all__ = [
    "BACKEND_NAMES",
    "BYTES_PER_DEFERRED_ATTEMPT",
    "BYTES_PER_RETRY_PREAMBLE",
    "DAY",
    "DEFAULT_DELAY",
    "FORMAT_HEADER",
    "GreylistCostReport",
    "JOURNAL_HEADER",
    "JournalBackend",
    "MemoryBackend",
    "PersistenceError",
    "SQLiteBackend",
    "TripletBackend",
    "create_backend",
    "dump_store",
    "entry_is_expired",
    "format_entry_line",
    "load_store",
    "measure_cost",
    "parse_entry_line",
    "snapshot_size_bytes",
    "DEFAULT_WHITELISTED_DOMAINS",
    "GreylistAction",
    "GreylistEvent",
    "GreylistPolicy",
    "KeyStrategy",
    "derive_key",
    "resists_sender_rotation",
    "Triplet",
    "TripletEntry",
    "TripletStore",
    "Whitelist",
    "default_provider_whitelist",
]
