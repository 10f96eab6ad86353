"""The output gate: every operation's outputs must match what the same
inputs produced before.

Within one run, each output key (a cell and displacement, a cluster job)
must fingerprint the same every time it is produced, on every path that
produces it.  Across runs, the fingerprints and exact work counters of a
workload and seed are recorded in ``expected/<workload>-seed<n>.json``
under the output directory, and a later run of the same code must
reproduce every recorded value.  A mismatch fails the operation that
produced it.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os


class Outputs:
    """First-seen value of every output key; later values must match."""

    def __init__(self):
        self.seen: dict[str, object] = {}
        self.mismatches: list[str] = []

    def check(self, key: str, value) -> bool:
        """Record ``value`` for ``key``; False (and a mismatch note) when
        it differs from the value first recorded."""

        first = self.seen.setdefault(key, value)
        if first != value:
            self.mismatches.append(f"{key}: {value!r} != first {first!r}")
            return False
        return True


def digest(value) -> str:
    """sha256 over a canonical JSON rendering of a result tree."""

    def plain(v):
        if dataclasses.is_dataclass(v) and not isinstance(v, type):
            return plain(dataclasses.asdict(v))
        if isinstance(v, dict):
            return {str(k): plain(x) for k, x in v.items()}
        if isinstance(v, (list, tuple)):
            return [plain(x) for x in v]
        if isinstance(v, (str, int, float, bool)) or v is None:
            return v
        return repr(v)

    text = json.dumps(plain(value), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def job_fingerprint(managed) -> str:
    """Fingerprint of one cluster job's managed result: simulated span,
    power report, per-rank counters, event-stream extents and its
    placement/attribution."""

    return digest({
        "exec_time_us": managed.exec_time_us,
        "power": managed.power,
        "counters": list(managed.counters),
        "per_rank_events": [
            [len(log), log[0].enter_us if log else None,
             log[-1].exit_us if log else None]
            for log in managed.event_logs
        ],
        "cluster": managed.cluster,
    })


def reconcile(path: str, record: dict) -> list[str]:
    """Compare ``record`` with the one stored at ``path`` and store the
    union.  Returns one line per key whose value changed."""

    stored: dict = {}
    if os.path.exists(path):
        with open(path) as fh:
            stored = json.load(fh)
    mismatches = []
    for section, values in record.items():
        old = stored.setdefault(section, {})
        for key, value in values.items():
            if key in old and old[key] != value:
                mismatches.append(
                    f"{section}/{key}: {value!r} != recorded {old[key]!r}"
                )
            else:
                old[key] = value
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    tmp = path + ".tmp"
    with open(tmp, "w") as fh:
        json.dump(stored, fh, sort_keys=True, indent=1)
    os.replace(tmp, path)
    return mismatches
