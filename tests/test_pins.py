"""The CI workflow runs each pin of tests/pins.py once, in the pins' order."""

import hashlib
import re
from pathlib import Path

import pytest

from pins import PINS, census, main

WORKFLOW = Path(__file__).parent.parent / ".github" / "workflows" / "tests.yml"


def test_workflow_calls_every_pin_once():
    called = []
    for line in WORKFLOW.read_text().splitlines():
        if "tests/pins.py" in line and not line.lstrip().startswith("#"):
            step = re.fullmatch(r"\s*run: python tests/pins\.py ([\w-]+)", line)
            assert step, f"not a one-pin step: {line.strip()}"
            assert step[1] in PINS, f"{step[1]} names no pin"
            called.append(step[1])
    assert called == list(PINS)


def test_census_checks_each_pinned_value():
    argv = ["-c", "print('a'); print('b')"]
    sha = hashlib.sha256(b"a\nb\n").hexdigest()
    assert census("two lines", argv, sha256=sha, lines=2, last="b", within_mb=1000) == "b"
    for pinned in [{"sha256": "0" * 64}, {"lines": 3}, {"last": "a"}, {"within_mb": 0}]:
        with pytest.raises(SystemExit, match="two lines: "):
            census("two lines", argv, **pinned)
    with pytest.raises(SystemExit, match="exit status 3"):
        census("exit", ["-c", "raise SystemExit(3)"])


def test_one_pin_exits_zero_whatever_it_returns(monkeypatch):
    monkeypatch.setitem(PINS, "prints", lambda: "its last line")
    assert main(["prints"]) == 0
    with pytest.raises(SystemExit, match="usage: python tests/pins.py"):
        main(["no-such-pin"])
