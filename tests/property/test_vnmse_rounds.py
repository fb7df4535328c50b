"""A session's vNMSE never depends on what the session measured before.

``session.vnmse`` is seeded by ``gradient_seed`` alone, so a call must give
the same value in a session that already measured other round counts (and
other schemes) as in a fresh one.  This pins that property over the whole
registry, both kernel backends and error feedback off and on, with the round
counts asked in the order 1, 3, 2: a longer run after a shorter one, then a
shorter one again.
"""

from __future__ import annotations

import pytest

from repro.api.session import ExperimentSession
from repro.compression.registry import ALIASES

#: Every registered alias spells a spec; deduplicated, they cover the whole
#: registry (every family at its paper configurations).
REGISTRY_SPECS = sorted(set(ALIASES.values()))

#: An odd size (padding, uneven chunks) at the paper testbed's 4 workers.
CALL = dict(num_coordinates=5773, num_workers=4)

#: Round counts asked of one session, in this order.
ROUND_COUNTS = (1, 3, 2)


def fresh_vnmse(spec: str, backend: str, error_feedback: bool, num_rounds: int) -> float:
    session = ExperimentSession(backend=backend)
    return session.vnmse(
        spec, num_rounds=num_rounds, error_feedback=error_feedback, **CALL
    )


@pytest.mark.parametrize("error_feedback", [False, True], ids=["plain", "ef"])
@pytest.mark.parametrize("backend", ["batched", "legacy"])
@pytest.mark.parametrize("spec", REGISTRY_SPECS)
def test_vnmse_independent_of_session_history(spec, backend, error_feedback):
    session = ExperimentSession(backend=backend)
    for num_rounds in ROUND_COUNTS:
        value = session.vnmse(
            spec, num_rounds=num_rounds, error_feedback=error_feedback, **CALL
        )
        assert value == fresh_vnmse(spec, backend, error_feedback, num_rounds)


@pytest.mark.parametrize("backend", ["batched", "legacy"])
def test_vnmse_independent_of_other_specs(backend):
    """One session measuring the whole registry agrees with fresh sessions."""
    session = ExperimentSession(backend=backend)
    for spec in REGISTRY_SPECS:
        for num_rounds in ROUND_COUNTS:
            value = session.vnmse(spec, num_rounds=num_rounds, **CALL)
            assert value == fresh_vnmse(spec, backend, False, num_rounds), spec
