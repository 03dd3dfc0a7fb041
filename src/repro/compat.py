"""Version-compatibility helpers.

CI exercises the suite on Python 3.9 and 3.12.  ``dataclass(slots=True)``
arrived in 3.10, so the hot-path records (``CandidatePath``,
``EndpointCandidate``) use :func:`slotted_dataclass`:
a slotted dataclass where the runtime supports it, a plain one otherwise.
Frozen slotted dataclasses pickle correctly on 3.10+ (the generated
``__getstate__``/``__setstate__`` pair uses ``object.__setattr__``), which
is what keeps them usable across the process-pool backend.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass

if sys.version_info >= (3, 10):

    def slotted_dataclass(*, frozen: bool = False):
        """``dataclass(slots=True)`` on 3.10+, plain dataclass on 3.9."""
        return dataclass(frozen=frozen, slots=True)

else:  # pragma: no cover - exercised only on Python 3.9

    def slotted_dataclass(*, frozen: bool = False):
        """``dataclass(slots=True)`` on 3.10+, plain dataclass on 3.9."""
        return dataclass(frozen=frozen)
