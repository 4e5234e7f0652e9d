"""The lossy scorecard (tests/scorecard.py) is pinned as text
(tests/data/scorecard/), so a change that answers more or fewer of the
5%-loss zoo session's lines over its block of seeds shows which lines it
moved, and by how many; a deliberate change re-pins it with
`PYTHONPATH=src:tests python tests/scorecard.py`."""

from scorecard import PINNED, SEEDS, error_text, scorecard


def test_scorecard_is_pinned():
    with open(PINNED) as fh:
        assert scorecard(SEEDS) == fh.read()


def test_a_coverage_shortfall_is_one_error_whatever_its_exclusions():
    assert error_text("error: coverage unmet (2<4); excluded: s4: low-energy") == \
        "coverage unmet"
    assert error_text("error: device unreachable") == "device unreachable"
