"""Job specifications and lifecycle records."""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from typing import Dict, Optional

_JOB_IDS = itertools.count(1)


class JobState(enum.Enum):
    """GRAM job lifecycle states."""

    PENDING = "pending"
    ACTIVE = "active"
    DONE = "done"
    FAILED = "failed"
    CANCELLED = "cancelled"

    def is_terminal(self) -> bool:
        return self in (JobState.DONE, JobState.FAILED, JobState.CANCELLED)


@dataclass
class JobSpec:
    """What to run: a command with a CPU demand and an outcome.

    ``fail`` lets deployment tests inject build failures; ``metadata``
    carries scheduler hints (activity name, step name, ...).
    """

    command: str
    cpu_demand: float = 1.0
    walltime_limit: Optional[float] = None
    fail: bool = False
    metadata: Dict[str, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.cpu_demand < 0:
            raise ValueError("cpu_demand must be non-negative")
        if self.walltime_limit is not None and self.walltime_limit <= 0:
            raise ValueError("walltime_limit must be positive")


@dataclass
class Job:
    """A submitted job's record, kept by the GRAM service."""

    spec: JobSpec
    submitter: str
    job_id: int = field(default_factory=lambda: next(_JOB_IDS))
    state: JobState = JobState.PENDING
    submitted_at: float = 0.0
    started_at: Optional[float] = None
    finished_at: Optional[float] = None
    exit_code: Optional[int] = None
    error: str = ""

    def snapshot(self) -> Dict[str, object]:
        """Serializable status view (what ``op_status`` returns)."""
        return {
            "job_id": self.job_id,
            "state": self.state.value,
            "command": self.spec.command,
            "exit_code": self.exit_code,
            "error": self.error,
            "submitted_at": self.submitted_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
        }
