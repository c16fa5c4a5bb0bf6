"""``comparable_view`` strips every wall-clock key of a flow record.

Served answers equal one-shot answers only up to wall-clock fields, and
``VOLATILE_FIELDS`` lists those by hand: a new ``*_s`` key missing from
it makes every served answer that carries the key differ from its
one-shot twin.  B13 and B10 at 4x4 reach the relax-loop entries with
the most keys: a lazy path-row round and an unfixed residual-ILP retry.
"""

from __future__ import annotations

import pytest

from repro.benchgen import load_benchmark
from repro.io.serialize import design_to_dict
from repro.service import FloorplanRequest
from repro.service.worker import VOLATILE_FIELDS, run_request


def keys(document):
    """Every dict key anywhere in a JSON document."""
    if isinstance(document, dict):
        for key, value in document.items():
            yield key
            yield from keys(value)
    elif isinstance(document, list):
        for item in document:
            yield from keys(item)


@pytest.fixture(scope="module")
def documents():
    out = {}
    for name in ("B13", "B10"):
        design, _ = load_benchmark(name)
        out[name] = run_request(FloorplanRequest(
            design=design_to_dict(design), fabric="4x4", mode="rotate",
            time_limit_s=30.0,
        ))
    return out


def test_records_reach_row_round_and_unfixed_retry(documents):
    b13 = documents["B13"]["algorithm1"]["iterations"]
    assert any(entry.get("rows_added") for entry in b13)
    b10 = documents["B10"]["algorithm1"]["iterations"]
    assert any("retry_status" in entry for entry in b10)


@pytest.mark.parametrize("name", ["B13", "B10"])
def test_every_seconds_key_is_volatile(documents, name):
    timed = {key for key in keys(documents[name]) if key.endswith("_s")}
    assert timed, "no wall-clock keys found: the walk is broken"
    assert timed <= VOLATILE_FIELDS, sorted(timed - VOLATILE_FIELDS)
