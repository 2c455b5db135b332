"""The committed digests of ``tests/differential.py``'s unit set: every
16th unit's CC pairs, graph digests and singularize outcome stay as
pinned. A change that alters one on purpose regenerates the fixture
(``python tests/differential.py digest``) and its diff names the units.
The same units' flat forms, from the digest pass, run as their
originals do."""

import os

import differential


def test_every_16th_unit_matches_its_committed_digest():
    assert differential.differing() == []


def test_every_16th_units_flat_form_behaves_as_its_original():
    # every transformed unit among them, on each of its stdins: the same
    # verdict and byte-exact stdout, original and flat
    jobs = min(2, len(os.sched_getaffinity(0)))
    sample = differential.units()[::differential.STRIDE]
    known = {key: singular for key, (_, singular) in differential.sample_outcomes().items()}
    assert differential.flat_differs(sample, jobs, known) == (343, 424, [])


def test_a_one_byte_change_of_an_outcome_changes_its_digest():
    text = {"text": "print(1)\n"}
    assert differential.unit_digest({}, text) != differential.unit_digest({}, {"text": "print(2)\n"})
    assert differential.unit_digest({"py3": {"cc_total": 1}}, text) != differential.unit_digest(
        {"py3": {"cc_total": 2}}, text)
