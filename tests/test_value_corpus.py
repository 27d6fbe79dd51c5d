"""The committed value-identity corpus rebuilt: every case of
value_corpus.py must give the input and output digests committed in
value_corpus.txt.  A change that moves an output on purpose rewrites the
file (python tests/value_corpus.py) and lists the keys that changed."""

import functools
import gc

import pytest

import value_corpus


@functools.cache
def _rebuilt():
    """(key -> (input digest, output digest), retired family -> kinds
    its draws met), from one run of the cases."""
    seen, got = {}, {}
    # a collection scans the whole test run's heap, so each is slow; the
    # few cycles the cases leave (codec maps) wait for the next one
    collecting = gc.isenabled()
    gc.disable()
    try:
        for key, given, out in value_corpus.cases(seen):
            assert key not in got, "two cases share the key %s" % key
            got[key] = given, out
    finally:
        if collecting:
            gc.enable()
    return got, seen


def test_corpus_matches_committed_digests():
    got, _ = _rebuilt()
    want = value_corpus.read()
    problems = []
    for key in sorted(set(got) | set(want)):
        if key not in want:
            problems.append("%s: missing from the committed corpus" % key)
        elif key not in got:
            problems.append("%s: stale, no case makes it" % key)
        elif got[key][0] != want[key][0]:
            problems.append("%s: input changed (its generator, its random "
                            "stream or the code that builds it)" % key)
        elif got[key][1] != want[key][1]:
            problems.append("%s: output changed" % key)
    assert not problems, "%d of %d keys differ:\n%s" % (
        len(problems), len(want), "\n".join(problems))


# The kinds each retired comparison asserted that its draws met.
def _pair_layer(seen):
    random = {k[1:] for k in seen if k[0] == "random"}
    return ({k[:4] for k in random}, {k[4:] for k in random},
            {k[1:] for k in seen if k[0] == "shuffled"})


KINDS = {
    "period": (set, {"period 1", "period 2", "period 3", "multiplicity",
                     "overlapping cover"}),
    "follower": (set, {"lacks", "reaches", "holds"}),
    # (strict cover, refused)
    "stether": (set, {(True, False), (True, True), (False, False),
                      (False, True)}),
    "routes": (set, {"vector", "class-0", "class-1", "state",
                     "TooManyCopies", "NotDeterministic", "built", "warned",
                     "quiet"}),
    # (encoder kind, verdict), and at least 20 nondeterministic bases
    "presents": (set, {("inside", True), ("words", True), ("words", False),
                       ("others", True), ("others", False),
                       ("first", False), ("late", False),
                       "nondeterministic"}),
    "word-split": (set, {True, False}),
    # (lossless, infinite anticipation, multiplicity > 1); an edge of
    # multiplicity 2 parts from itself and rejoins, so it is lossy
    "pair-graph": (set, {(True, False, False), (True, True, False),
                         (False, True, False), (False, True, True)}),
    # random draws: (lossless, infinite anticipation, no window, infinite
    # memory) and (merged unweighted, merged weighted); shuffled draws:
    # (lossless, infinite anticipation, some window decodes the tags,
    # every window does)
    "pair-layer": (_pair_layer, (
        {(True, False, False, False), (True, False, False, True),
         (True, False, True, True), (True, True, True, True),
         (False, True, False, False), (False, True, False, True),
         (False, True, True, False), (False, True, True, True)},
        {(False, False), (True, True), (False, True), (True, False)},
        {(True, False, True, True), (True, False, True, False),
         (True, False, False, False), (True, True, False, False),
         (False, True, True, True), (False, True, True, False),
         (False, True, False, False)})),
}


@pytest.mark.parametrize("name", sorted(KINDS))
def test_retired_draws_meet_their_kinds(name):
    _, seen = _rebuilt()
    view, want = KINDS[name]
    assert view(seen[name]) == want
