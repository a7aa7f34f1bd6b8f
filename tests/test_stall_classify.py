"""Exhaustive stall-reason classification (no silent "other" growth).

``metrics.stalls.classify_stall_reason`` rolls every structured stall or
gate-delay reason into a fixed blame class.  Two invariants:

* every reason literal actually emitted by the source tree classifies to a
  *named* class, never "other" -- the test greps the package source for
  ``add_stall``/``add_gate_delay``/``stall_on`` call sites so a new emit
  site with an unrecognized reason fails here instead of silently
  polluting the catch-all bucket;
* the structured prefixes (``wait:``, ``pace:``, ``slowdown:``) map whole
  families, so future reasons that follow the convention are covered
  without touching the classifier.
"""

import re
from pathlib import Path

import pytest

from repro.metrics.stalls import STALL_CLASSES, classify_stall_reason

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"

#: String-literal reasons passed to add_stall / add_gate_delay / stall_on.
_EMIT_RE = re.compile(
    r"(?:add_stall|add_gate_delay|stall_on\([^,]+,)\s*\(?\s*\"([^\"]+)\"")


def emitted_reasons():
    reasons = set()
    for path in SRC.rglob("*.py"):
        for m in _EMIT_RE.finditer(path.read_text()):
            reasons.add(m.group(1))
    # wait_for's default reason family: "wait:<job name>".
    reasons.add("wait:flush->L0")
    reasons.add("wait:compact:L2")
    return reasons


def test_source_emits_at_least_the_known_reasons():
    reasons = emitted_reasons()
    for expected in ("memtable-rotation", "explicit-flush", "l0-stop",
                     "router-admission", "fault-degraded",
                     "pace:token-bucket", "objstore-append",
                     "objstore-fetch"):
        assert expected in reasons, f"emit site for {expected!r} disappeared"


@pytest.mark.parametrize("reason", sorted(emitted_reasons()))
def test_every_emitted_reason_has_a_named_class(reason):
    cls = classify_stall_reason(reason)
    assert cls in STALL_CLASSES
    assert cls != "other", (
        f"stall reason {reason!r} falls into the catch-all bucket; either "
        f"rename it onto a structured prefix (wait:/pace:/slowdown:) or "
        f"teach classify_stall_reason about it")


def test_prefix_families_cover_future_reasons():
    assert classify_stall_reason("wait:anything-new") == "pool-queue"
    assert classify_stall_reason("pace:some-new-mechanism") == "pacing"
    assert classify_stall_reason("slowdown:new-band") == "write-gate"


def test_unknown_reasons_stay_visible_in_other():
    assert classify_stall_reason("completely-novel") == "other"


def test_classes_are_the_documented_fixed_set():
    assert STALL_CLASSES == ("write-gate", "pacing", "flush-wait", "l0-stop",
                             "pool-queue", "network", "objstore", "other")
