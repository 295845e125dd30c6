"""Pins the printed compile output of every corpus file and of the wide
generator at several sizes: the sha256 of the lowered-opt, lowered-noopt
and first-order text. A compiler change that means to keep every output
byte-identical must leave these digests alone."""

import hashlib
import json

import pytest

from corolower.cli import program_forms
from corolower.parser import parse_source
from corolower.printer import print_source

from conftest import CORPUS_FILES, GOLDEN_DIR, wide_source

SNAPSHOT = json.loads((GOLDEN_DIR / "snapshot.sha256.json").read_text())
FORMS = ("lowered-opt", "lowered-noopt", "first-order")
WIDE_ARMS = (3, 5, 64, 65, 100)

SOURCES = {path.stem: path.read_text() for path in CORPUS_FILES}
SOURCES.update({f"wide_{n}": wide_source(n, 10) for n in WIDE_ARMS})


def digests(source: str) -> dict[str, str]:
    forms = program_forms(parse_source(source))
    return {
        form: hashlib.sha256(print_source(forms[form]).encode()).hexdigest()
        for form in FORMS
    }


def test_snapshot_covers_every_source():
    assert sorted(SNAPSHOT) == sorted(SOURCES)


@pytest.mark.parametrize("name", sorted(SOURCES))
def test_printed_forms_match_snapshot(name):
    assert digests(SOURCES[name]) == SNAPSHOT[name]


def test_hundred_arm_program_prints_its_bytes():
    # The 101-state optimized machine and its first-order form, switched,
    # with each case body at the switch's own indent and no loop around
    # the switch: the last case runs the entry's statements in place of
    # its jump back, 100 bytes more, and the machine loses the loop's two
    # lines and its indent. With the loop they took 15,249 and 15,232
    # bytes, the threaded dispatch 15,247 and 16,236. wide-states starts
    # its instance at a six-digit value, which prints 5 bytes more than 0.
    forms = program_forms(parse_source(wide_source(100, 300)))
    sizes = {form: len(print_source(forms[form]).encode()) for form in FORMS}
    assert sizes == {"lowered-opt": 13_712, "lowered-noopt": 21_597, "first-order": 13_699}
