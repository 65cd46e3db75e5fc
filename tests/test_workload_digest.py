"""The CLI's answers to all 1,170 benchmark requests, pinned by one hash.

`tests/workload_digest.py` runs every request of the three benchmark
workloads at seeds 1 and 2 and hashes the exit codes, stdouts and stderrs.
A change to any answer changes the line.  After an intended change of the
output, run `python tests/workload_digest.py`, review what changed and
update PINNED.
"""

from workload_digest import digest_line

PINNED = "1170 requests, sha256 ad63a2d21d6515c878599b920c450bbc9a1a871929e0d4d5115c347e44c946ba"


def test_benchmark_answers_are_unchanged():
    assert digest_line() == PINNED
