"""Pure helpers of the repository benchmark: order statistics, span
arithmetic, seeded input shaping and counter comparison.

Nothing here starts a process or touches the file system, so every helper
is covered by `test_benchlib.py` on known inputs.
"""

import hashlib
import json
import random
import statistics


def median(values):
    """Median of a non-empty sample."""
    return statistics.median(values)


def quartiles(values):
    """First quartile, median and third quartile, as
    `statistics.quantiles(values, n=4)` gives them (exclusive method)."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def iqr_share(values):
    """Distance between the first and third quartile as a share of the
    median: the run-to-run spread of one metric."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else 0.0


def percentile(values, share):
    """The `share` (0..1) percentile of a non-empty sample, interpolating
    linearly between closest ranks."""
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    rank = share * (len(ordered) - 1)
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def union_length(intervals):
    """Total length covered by a set of (start, end) intervals."""
    total = 0
    current_start = current_end = None
    for start, end in sorted(intervals):
        if current_end is None or start > current_end:
            if current_end is not None:
                total += current_end - current_start
            current_start, current_end = start, end
        else:
            current_end = max(current_end, end)
    if current_end is not None:
        total += current_end - current_start
    return total


def self_times(spans):
    """Self time of every span: its duration minus the part of its
    interval that its child spans cover (children clipped to the parent,
    overlapping children counted once). Returns {span id: self time}."""
    children = {}
    for span in spans:
        if span["parent"] is not None:
            children.setdefault(span["parent"], []).append(span)
    result = {}
    for span in spans:
        start, end = span["start_ns"], span["end_ns"]
        covered = union_length(
            (max(start, child["start_ns"]), min(end, child["end_ns"]))
            for child in children.get(span["id"], [])
            if child["end_ns"] > start and child["start_ns"] < end
        )
        result[span["id"]] = (end - start) - covered
    return result


def layer_totals(spans):
    """Per span name: (call count, summed self time, summed duration)."""
    selfs = self_times(spans)
    totals = {}
    for span in spans:
        count, self_ns, wall_ns = totals.get(span["name"], (0, 0, 0))
        totals[span["name"]] = (
            count + 1,
            self_ns + selfs[span["id"]],
            wall_ns + span["end_ns"] - span["start_ns"],
        )
    return totals


def descendants(spans, root_id):
    """Every span below `root_id`, at any depth."""
    children = {}
    for span in spans:
        children.setdefault(span["parent"], []).append(span)
    found, stack = [], [root_id]
    while stack:
        for child in children.get(stack.pop(), []):
            found.append(child)
            stack.append(child["id"])
    return found


def shuffled_suite(suite_text, seed):
    """The generated suite with its scenarios in an order drawn from
    `seed`: the same seed gives the same bytes, and every seed keeps the
    same scenarios, so the work of a pass does not depend on the seed."""
    suite = json.loads(suite_text)
    random.Random(seed).shuffle(suite["scenarios"])
    return json.dumps(suite, indent=2) + "\n"


def counter_drift(first, second):
    """Names of the counters two records of one commit disagree on."""
    return sorted(
        name
        for name in set(first) | set(second)
        if first.get(name) != second.get(name)
    )


def tree_digest(files):
    """Digest of (relative path, content) pairs: identifies the source tree
    a counter record was taken from."""
    digest = hashlib.sha256()
    for path, content in sorted(files):
        digest.update(path.encode())
        digest.update(b"\0")
        digest.update(hashlib.sha256(content).digest())
    return digest.hexdigest()[:16]
