"""The accuracy gate's rule, on made-up scores; the gate itself runs in CI."""

from __future__ import annotations

import math

from accuracy_gate import compare

REFERENCE = {"8,2": [10.0, 20.0, 30.0], "16,1": [12.0, 14.0, 16.0]}
# rounding alone moved the seeds by at most 0.5 at (8, 2) and 1.0 at (16, 1)
NULL = {"8,2": [10.5, 19.9, 30.0], "16,1": [11.0, 14.2, 16.0]}


def verdicts(candidate):
    return {v.shape: v for v in compare(REFERENCE, NULL, candidate)}


def test_the_reference_against_itself_passes():
    for v in verdicts(REFERENCE).values():
        assert v.shift == 0.0 and v.passed and not v.better


def test_a_median_shift_within_the_null_noise_passes_either_way():
    got = verdicts({"8,2": [10.5, 19.5, 31.0], "16,1": [11.0, 13.0, 17.5]})
    assert got["8,2"].shift == 0.5 and got["8,2"].noise == 0.5 and got["8,2"].passed
    assert got["16,1"].shift == -1.0 and got["16,1"].noise == 1.0 and got["16,1"].passed


def test_a_shift_beyond_the_noise_fails_and_a_negative_one_is_better():
    got = verdicts({"8,2": [10.6, 20.6, 29.0], "16,1": [10.0, 12.9, 16.0]})
    assert got["8,2"].shift > got["8,2"].noise and not got["8,2"].passed
    assert not got["8,2"].better
    assert got["16,1"].shift < -got["16,1"].noise and not got["16,1"].passed
    assert got["16,1"].better


def test_a_diverged_run_counts_against_the_candidate():
    got = verdicts({"8,2": [math.inf, math.inf, 30.0], "16,1": REFERENCE["16,1"]})
    assert not got["8,2"].passed and got["16,1"].passed
