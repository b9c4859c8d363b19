"""Jobs, their outcomes, and the checks made on every answer.

A job is one call into the package that yields an answer.  Its answer is
compared with the one pinned in ``pins.json``, and every returned subset is
re-checked for rainbowness here, with colour functions written from the
definitions rather than taken from the package.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction
from itertools import combinations


class Refused(Exception):
    """The program declined the job under its documented budget rule."""


class JobFailed(Exception):
    """The job ran but its result is unusable (bad exit code, verified=False, ...)."""


class Job:
    """One timed call plus the untimed reading of its result.

    ``call()`` is the timed part.  ``read(raw)`` turns what it returned into
    ``(answer, recheck)``: the JSON value compared with the pin, and
    ``(items, colour, k)`` for the rainbow recheck or None.  ``read`` may
    raise ``Refused`` or ``JobFailed``.  A ``refusable`` job may be refused
    under the program's budget rule and has no pinned answer: any answer
    that passes the recheck is accepted.  Other jobs fail when refused.
    """

    def __init__(self, key, call, read, refusable=False):
        self.key = key
        self.call = call
        self.read = read
        self.refusable = refusable


class Record:
    """What one job produced; judged after the timed phase."""

    __slots__ = ("key", "pinned", "status", "answer", "recheck", "note", "written")

    def __init__(self, job, status, answer=None, recheck=None, note="", written=0):
        self.key = job.key
        self.pinned = not job.refusable
        self.status = status  # "ok", "refused" or "failed"
        self.answer = answer
        self.recheck = recheck
        self.note = note
        self.written = written


def settle(job, raw) -> Record:
    """Turn a job's raw return value (or the exception it raised) into a record."""
    if isinstance(raw, BaseException):
        return Record(job, "failed", note=f"raised {type(raw).__name__}: {raw}")
    try:
        answer, recheck, written = job.read(raw)
    except Refused as exc:
        if job.refusable:
            return Record(job, "refused", note=str(exc))
        return Record(job, "failed", note=f"refused: {exc}")
    except JobFailed as exc:
        return Record(job, "failed", note=str(exc))
    return Record(job, "ok", answer, recheck, written=written)


def judge(records, pins) -> list[str]:
    """Compare answers with their pins and re-check every subset.

    Returns one line per failed job; refused jobs are not failures.
    """
    failures = []
    for r in records:
        problem = None
        if r.status == "failed":
            problem = r.note
        elif r.status == "ok":
            if r.pinned and r.key not in pins:
                problem = "no pinned answer"
            elif r.pinned and pins[r.key] != r.answer:
                problem = f"answer {r.answer!r} differs from pin {pins[r.key]!r}"
            elif r.recheck is not None and not is_rainbow(*r.recheck):
                problem = "subset is not rainbow under the benchmark's own colouring"
        if problem is not None:
            failures.append(f"{r.key}: {problem}")
    return failures


def is_rainbow(items, colour, k) -> bool:
    """True iff no two k-subsets of ``items`` share a colour.

    Colours are sorted so that equal ones end up adjacent; comparing
    neighbours then compares every pair.
    """
    colours = sorted(colour(*edge) for edge in combinations(items, k))
    return all(a != b for a, b in zip(colours, colours[1:]))


def digest(data) -> str:
    """First 16 hex digits of the SHA-256 of bytes, or of a value's compact JSON."""
    if not isinstance(data, bytes):
        data = json.dumps(data, separators=(",", ":")).encode()
    return hashlib.sha256(data).hexdigest()[:16]


# ------------------------------------------------------- own colour functions


def sidon(a, b):
    return abs(a - b)


def poly(field, coeffs):
    """p(a, b) = sum c_ij a^i b^j over Q (field "Q") or over GF(field)."""
    if field == "Q":
        terms = [(i, j, Fraction(c)) for (i, j), c in coeffs.items()]

        def colour(a, b):
            a, b = Fraction(a), Fraction(b)
            return sum((c * a**i * b**j for i, j, c in terms), Fraction(0))
    else:
        terms = [(i, j, int(c)) for (i, j), c in coeffs.items()]

        def colour(a, b):
            return sum(c * pow(a, i, field) * pow(b, j, field) for i, j, c in terms) % field

    return colour


def _d2(p, q):
    return (p[0] - q[0]) ** 2 + (p[1] - q[1]) ** 2


def _cross(p, q, r):
    return (q[0] - p[0]) * (r[1] - p[1]) - (q[1] - p[1]) * (r[0] - p[0])


def volume(p, q, r):
    """(2 * area)^2 of a plane triangle: equal exactly when the squared areas are."""
    return _cross(p, q, r) ** 2


def circumradius(p, q, r):
    """R^2 = a^2 b^2 c^2 / (16 area^2) of a plane triangle."""
    return Fraction(_d2(q, r) * _d2(p, r) * _d2(p, q), 4 * _cross(p, q, r) ** 2)


def similarity(p, q, r):
    """Sorted squared side lengths scaled to sum 1: equal iff the triangles are similar."""
    sides = sorted((_d2(p, q), _d2(p, r), _d2(q, r)))
    total = sum(sides)
    return tuple(Fraction(s, 1) / total for s in sides)
