"""The input contract, held for every public function and constructor that
takes plain data: a value the package checks and refuses is a ValueError, an
argument that is not the kind of object the call works on is the TypeError
that Python itself raises, nothing else escapes, and no call runs without end.

`smirnov.cli` is not scanned: its input arrives as option text through click.
"""

import collections.abc
import contextlib
import copy
import functools
import importlib
import inspect
import itertools
import pkgutil
import signal

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import smirnov
from smirnov.qengine import SfCoefficientTable
from smirnov.words import parse_word

SECONDS = 2  # per call; a call that runs longer fails the gate

# the public callables that take plain data
GATE = {
    "words": ("SegmentedSmirnovWord", "letter_content", "PositionProfile", "parse_word",
              "partitions_of", "shapes_for", "enumerate_words", "words_of_length",
              "set_sequences", "enumerate_words_by_stat", "insert_many", "InsertionRecord"),
    "stats": ("InversionReport", "OrderedMultisetPartition"),
    "qengine": ("QPolynomial", "SfCoefficientTable", "sf_h_coefficient", "q_binomial",
                "standard_q_count", "histogram_poly", "cells", "hilbert_table"),
    "paths": ("DecoratedLabelledDyckPath", "AreaZeroDecoratedPath", "enumerate_area0"),
    "quasisym": ("fundamental_expansion", "monomials_of_fundamental", "direct_monomial_sum"),
    "models": ("single_block_words", "chromatic_path_enumerator", "LabelledPolyomino",
               "enumerate_area0_polyominoes", "is_231_avoiding", "catalan",
               "NoncrossingPartition", "permutation_to_noncrossing", "enumerate_set_partitions",
               "crossing", "enumerate_noncrossing"),
    "verify": ("CaseResult", "VerificationReport", "suite_bound", "run_suite"),
}

# the public callables that take package objects (words, paths, partitions,
# polynomials); given anything else they fail as Python does, mostly with an
# AttributeError, so the gate does not feed them
TAKES_OBJECTS = {
    "words": ("occurrence_roles", "block_starts", "ascents_descents", "classify",
              "extract_maximal"),
    "stats": ("sminv", "sminv_count", "sdinv", "sdinv_count", "stat_distributions", "project",
              "omp_inv", "omp_dinv"),
    "qengine": ("trivariate",),
    "paths": ("area_word", "area", "path_dinv", "phi", "phi_inverse", "unified_dinv"),
    "quasisym": ("standardize", "split_set", "fiber_condition", "expand_to_monomials"),
    "models": ("smirnov_to_polyomino", "polyomino_to_word", "noncrossing_to_permutation"),
}

# a gated call that also takes a package object gets a fixed one: the word
# that insert_many inserts into, the table that sf_h_coefficient reads
OBJECT_ARGS = {
    "words.insert_many": ((parse_word("1|2"),), {}),
    "qengine.sf_h_coefficient": ((), {"table": SfCoefficientTable()}),
}


def _names(groups):
    return {"%s.%s" % (module, name) for module, names in groups.items() for name in names}


def _entry(name):
    module, attr = name.split(".")
    fn = getattr(importlib.import_module("smirnov." + module), attr)
    args, kwargs = OBJECT_ARGS.get(name, ((), {}))
    return functools.partial(fn, *args, **kwargs)


def _overran(signum, frame):
    raise TimeoutError


def _run(fn, args):
    """fn(*args) under the alarm; an iterator it returns is read for 50 items,
    enough to pass the input checks of every generator in the package."""
    previous = signal.signal(signal.SIGALRM, _overran)
    # the alarm repeats: a raise that lands where Python swallows it, such as
    # a gc callback, must not leave the call running
    signal.setitimer(signal.ITIMER_REAL, SECONDS, 0.1)
    overran = False
    try:
        result = fn(*args)
        if isinstance(result, collections.abc.Iterator):
            collections.deque(itertools.islice(result, 50), maxlen=0)
    except TimeoutError:
        overran = True
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    if overran:  # raised afresh, so that no traceback keeps what the call built
        raise TimeoutError("still running after %d s" % SECONDS)


def _nested(atoms, depth):
    junk = atoms
    for _ in range(depth):
        items = st.lists(junk, max_size=3)
        junk = st.one_of(atoms, items, items.map(tuple))
    return junk


JUNK = _nested(st.one_of(st.integers(-1, 3), st.booleans(), st.floats(-1, 3),
                         st.sampled_from(["", "1", "a", "NE", "EN", "12|1", "1,2|3"]),
                         st.dictionaries(st.integers(-1, 3), st.integers(-1, 3), max_size=3),
                         st.none()), depth=3)


@pytest.mark.parametrize("name", sorted(_names(GATE)))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_plain_data_raises_only_type_and_value_errors(name, data):
    fn = _entry(name)
    positional = [p for p in inspect.signature(fn).parameters.values()
                  if p.kind is p.POSITIONAL_OR_KEYWORD]
    required = sum(p.default is p.empty for p in positional)
    args = data.draw(st.lists(JUNK, min_size=required, max_size=len(positional)), label="args")
    with contextlib.suppress(TypeError, ValueError):
        _run(fn, args)


# one atom of each kind that the gate above nests, so that the sweep below
# tries on every run what the gate's random draws reach only on some
ATOMS = (-1, 0, 2, True, 1.5, "", "12|1", (), (1, 2), [0, 2], {0: 0, 2: 0}, {1: 2}, None)


def _atom_calls(arity):
    """The argument lists of arity slots with one atom in one slot and 2 in the others."""
    if not arity:
        yield []
    for slot, atom in itertools.product(range(arity), ATOMS):
        args = [2] * arity
        args[slot] = copy.deepcopy(atom)
        yield args


@pytest.mark.parametrize("name", sorted(_names(GATE)))
def test_every_atom_in_every_slot(name):
    fn = _entry(name)
    positional = [p for p in inspect.signature(fn).parameters.values()
                  if p.kind is p.POSITIONAL_OR_KEYWORD]
    required = sum(p.default is p.empty for p in positional)
    for arity in range(required, len(positional) + 1):
        for args in _atom_calls(arity):
            try:
                _run(fn, args)
            except (TypeError, ValueError):
                pass
            except Exception as exc:
                raise AssertionError("%s%r raised %r" % (name, tuple(args), exc)) from exc


@pytest.mark.parametrize("name, args, error", [
    # each ran until memory ran out: the walk never reached a length of 1.5
    ("models.single_block_words", (1.5, 2), ValueError),
    ("models.chromatic_path_enumerator", (1.5, 3), ValueError),
    ("models.enumerate_set_partitions", (1.5,), ValueError),
    ("models.enumerate_noncrossing", (1.5,), ValueError),
    # an AttributeError
    ("words.parse_word", (2,), TypeError),
    # IndexErrors, or a list index that wrapped round to a silent answer
    ("words.letter_content", ((2,), 0), ValueError),
    ("words.letter_content", ((-1, False),), ValueError),
    ("words.letter_content", ((0, 1),), ValueError),
    ("words.letter_content", ((-1, 2),), ValueError),
    ("quasisym.monomials_of_fundamental", ({5}, 3, 2), ValueError),
    ("quasisym.monomials_of_fundamental", ({0}, 3, 2), ValueError),
    ("models.catalan", (-2,), ValueError),
    ("models.catalan", (-1,), ValueError),
    # answers: True was read as the letter 1 or the size 1, and the expansion
    # of size -1 was one term named F_(-1)
    ("words.letter_content", ((True, 2),), ValueError),
    ("quasisym.fundamental_expansion", (True, 0, 0), ValueError),
    ("quasisym.fundamental_expansion", (-1, 0, 0), ValueError),
    ("models.catalan", (True,), ValueError),
    # Python's TypeError from a list index or a range, where an int is checked
    ("words.letter_content", ((1.5, 2),), ValueError),
    ("models.catalan", (1.5,), ValueError),
    # an IndexError
    ("qengine.histogram_poly", ({-1: 1},), ValueError),
    # answers: True was read as the size or bound 1
    ("words.letter_content", ((1,), True), ValueError),
    ("words.partitions_of", (True,), ValueError),
    ("words.words_of_length", (True, 2), ValueError),
    ("words.words_of_length", (2, True), ValueError),
    ("models.single_block_words", (True, 2), ValueError),
    ("models.single_block_words", (2, True), ValueError),
    ("models.enumerate_set_partitions", (True,), ValueError),
    ("models.enumerate_noncrossing", (True,), ValueError),
    ("models.chromatic_path_enumerator", (True, 2), ValueError),
    ("models.enumerate_area0_polyominoes", (1, 1, True), ValueError),
    ("quasisym.monomials_of_fundamental", ((), 2, True), ValueError),
    ("qengine.cells", (True,), ValueError),
    # an empty answer for a negative size
    ("qengine.cells", (-2,), ValueError),
])
def test_inputs_that_escaped_the_contract(name, args, error):
    with pytest.raises(error):
        _run(_entry(name), args)


def test_every_public_callable_is_classified():
    gated, takes_objects = _names(GATE), _names(TAKES_OBJECTS)
    assert not gated & takes_objects
    public = set()
    for info in pkgutil.iter_modules(smirnov.__path__):
        if info.name == "cli":
            continue
        module = importlib.import_module("smirnov." + info.name)
        public.update("%s.%s" % (info.name, name) for name, obj in vars(module).items()
                      if not name.startswith("_") and callable(obj)
                      and getattr(obj, "__module__", None) == module.__name__)
    assert public - gated - takes_objects == set(), "classify each new public callable"
    assert gated | takes_objects <= public, "drop the names that are gone"
