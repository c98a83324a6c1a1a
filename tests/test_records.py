"""The package's records: immutable values that compare, hash, print and
pickle by their fields, and an `import smirnov` that loads no record machinery
from the standard library."""

import os
import pickle
import subprocess
import sys

import pytest

from smirnov.models import LabelledPolyomino, NoncrossingPartition, smirnov_to_polyomino
from smirnov.paths import AreaZeroDecoratedPath, DecoratedLabelledDyckPath, phi
from smirnov.qengine import QPolynomial
from smirnov.quasisym import FundamentalTerm, fundamental_expansion
from smirnov.stats import InversionReport, OrderedMultisetPartition, project, sminv
from smirnov.verify import CaseResult, VerificationReport
from smirnov.words import (InsertionRecord, PositionProfile, SegmentedSmirnovWord, classify,
                           extract_maximal, parse_word)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORD = "231|3212|12"

# each record class, a maker of one valid instance, and one of its fields
RECORDS = [
    (SegmentedSmirnovWord, lambda: parse_word(WORD), "letters"),
    (PositionProfile, lambda: classify(parse_word(WORD)), "roles"),
    (InsertionRecord, lambda: extract_maximal(parse_word(WORD))[1], "gaps"),
    (InversionReport, lambda: sminv(parse_word(WORD)), "pairs"),
    (OrderedMultisetPartition, lambda: project(parse_word(WORD)), "blocks"),
    (DecoratedLabelledDyckPath, lambda: phi(parse_word(WORD)).to_steps(), "labels"),
    (AreaZeroDecoratedPath, lambda: phi(parse_word(WORD)), "columns"),
    (FundamentalTerm, lambda: fundamental_expansion(4, 1, 1)[0], "coefficient"),
    (LabelledPolyomino, lambda: smirnov_to_polyomino(parse_word("2413")), "labels"),
    (NoncrossingPartition, lambda: NoncrossingPartition(((1, 4), (2, 3), (5,))), "blocks"),
    (CaseResult, lambda: CaseResult("noncrossing n=5", True), "witness"),
    (VerificationReport, lambda: VerificationReport(
        "models", 5, [CaseResult("noncrossing n=5", False, "(1, 3)", 0.25)], 1.5), "cases"),
]


@pytest.mark.parametrize("cls, make, field", RECORDS, ids=[cls.__name__ for cls, _, _ in RECORDS])
def test_a_record_is_an_immutable_value(cls, make, field):
    x, y = make(), make()
    assert type(x) is cls and x is not y
    assert x == y and hash(x) == hash(y) and not x != y
    assert x != object()
    namespace = {c.__name__: c for c, _, _ in RECORDS}
    namespace["QPolynomial"] = QPolynomial
    assert eval(repr(x), namespace) == x
    with pytest.raises(AttributeError):
        setattr(x, field, getattr(y, field))
    assert pickle.loads(pickle.dumps(x)) == x


def test_cached_properties_take_no_part_in_equality():
    w = parse_word(WORD)
    assert w.blocks and w.final_positions
    fresh = parse_word(WORD)
    assert w == fresh and hash(w) == hash(fresh) and repr(w) == repr(fresh)
    assert pickle.loads(pickle.dumps(w)).blocks == fresh.blocks


def test_import_loads_no_record_machinery():
    # dataclasses alone brought inspect, ast, dis and tokenize into every
    # `import smirnov`; -S keeps site's own imports out of the count
    result = subprocess.run(
        [sys.executable, "-S", "-c",
         "import smirnov, sys; "
         "print(sorted({'dataclasses', 'typing', 'inspect'} & sys.modules.keys()))"],
        capture_output=True, text=True, check=True,
        env=dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src")))
    assert result.stdout.strip() == "[]"
