"""Audit certificates: a full machine-checkable record of a verified run, and
the records it is built from (checks, constraint reports, published targets,
approximate values).

Exact values are strings ("p/q", "r*sqrt(s)"), never binary floats, and
approximate fields carry their digits.  A certificate with a failed check has
overall status "failed"; a published target whose computed value differs from
its quoted one is a discrepancy, surfaced but failing nothing.  Files are UTF-8
JSON, schema_version "1", written atomically.  The reader checks structure
alone; ``report`` checks content by comparing the file with its recomputation
(``certify.recompute``) through ``json_difference``.
"""

from __future__ import annotations

import errno
import json
import os
import tempfile
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import zip_longest
from pathlib import Path
from typing import TYPE_CHECKING, ClassVar, NamedTuple

from .rational import DPS, rational_from_str, rational_to_str

if TYPE_CHECKING:
    import mpmath

SCHEMA_VERSION = "1"

# The detail of a strict margin check: it passes exactly when its margin is > 0.
STRICT_MARGIN = "> 0"
# An approximate check passes when its worst residual, a decimal as ``mpmath.nstr`` prints it, is at most this.
APPROXIMATE_TOLERANCE = 1e-9


def check_output_path(path: Path) -> None:
    """Make ``path``'s directory, or raise an OSError naming the path given when
    no file can be written there (a regular file on the way, or ``path`` a directory)."""
    path.parent.mkdir(parents=True, exist_ok=True)
    if path.is_dir():
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(path))


def write_json(path: str | Path, payload) -> None:
    """Atomic write of indented JSON: a temp file in the target directory, then a rename.

    The file gets the mode a plain ``open`` would give it (0666 less the umask),
    not the temp file's owner-only 0600.
    """
    path = Path(path)
    check_output_path(path)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(payload, indent=2) + "\n")
        umask = os.umask(0)
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


class CertCheck(NamedTuple):
    """One named check: its kind, its status and the evidence behind it.

    ``margin`` is an exact rational (serialized as "p/q"); ``residual`` is the
    decimal string of an approximate check's worst residual.  A named tuple,
    which ``json`` would write as an array: it reaches JSON by ``to_jsonable``.
    """

    name: str
    kind: str  # exact | sampled | approximate
    status: str  # pass | fail
    margin: Fraction | None = None
    residual: str | None = None
    detail: str = ""

    @staticmethod
    def of(name: str, ok: bool, kind: str = "exact", **evidence) -> "CertCheck":
        """A check that passes when ``ok`` holds and fails otherwise."""
        return CertCheck(name, kind, "pass" if ok else "fail", **evidence)

    @staticmethod
    def sampled(name: str, sample_count: int, violations: int, seed: int, witness: str) -> "CertCheck":
        """A sampled check, passing when no sample violates: its detail is
        "N samples, V violations, seed=S", then "; first witness: W" if there is one."""
        detail = f"{sample_count} samples, {violations} violations, seed={seed}"
        if witness:
            detail += f"; first witness: {witness}"
        return CertCheck.of(name, violations == 0, kind="sampled", detail=detail)

    @staticmethod
    def approximate(name: str, points: int, residual: mpmath.mpf) -> "CertCheck":
        """An approximate check over ``points`` points, passing when its worst
        relative ``residual`` is at most ``APPROXIMATE_TOLERANCE``: it records that
        residual to 6 digits, R, and its detail is "N points, max relative
        residual R, dps=D", D the ``DPS`` digits it was computed at."""
        import mpmath

        text = mpmath.nstr(residual, 6)
        return CertCheck.of(name, residual <= APPROXIMATE_TOLERANCE, kind="approximate", residual=text,
                            detail=f"{points} points, max relative residual {text}, dps={DPS}")

    @property
    def satisfied(self) -> bool:
        return self.status == "pass"

    def to_jsonable(self) -> dict:
        d: dict = {"name": self.name, "kind": self.kind, "status": self.status}
        if self.margin is not None:
            d["margin"] = rational_to_str(self.margin)
        if self.residual is not None:
            d["residual"] = self.residual
        if self.detail:
            d["detail"] = self.detail
        return d

    @staticmethod
    def from_jsonable(d: dict) -> "CertCheck":
        """The check ``d`` records: a string name, a known kind and status, and
        where present a "p/q" margin and a string residual and detail."""
        try:
            name, kind, status = d["name"], d["kind"], d["status"]
        except KeyError as exc:
            raise ValueError(f"a check has no {exc.args[0]}") from None
        if not isinstance(name, str):
            raise ValueError(f"check name {name!r} is not a string")
        if kind not in ("exact", "sampled", "approximate"):
            raise ValueError(f"check {name!r}: unknown kind {kind!r}")
        if status not in ("pass", "fail"):
            raise ValueError(f"check {name!r}: unknown status {status!r}")
        margin, residual, detail = d.get("margin"), d.get("residual"), d.get("detail", "")
        if margin is not None:
            try:
                margin = rational_from_str(margin)
            except ValueError:
                raise ValueError(f"check {name!r}: margin {margin!r} is not a rational") from None
        if residual is not None and not isinstance(residual, str):
            raise ValueError(f"check {name!r}: residual {residual!r} is not a string")
        if not isinstance(detail, str):
            raise ValueError(f"check {name!r}: detail {detail!r} is not a string")
        return CertCheck(name, kind, status, margin, residual, detail)


@dataclass
class ConstraintReport:
    """The margin chain's checks in order, as ``optimize.exact_chain`` evaluates them."""

    entries: list[CertCheck]

    def __iter__(self):
        return iter(self.entries)

    @property
    def all_satisfied(self) -> bool:
        return all(e.satisfied for e in self.entries)

    def entry(self, name: str) -> CertCheck:
        for e in self.entries:
            if e.name == name:
                return e
        raise KeyError(name)


@dataclass(frozen=True)
class ApproxValue:
    """A floating quantity carried for reporting only, never for pass/fail.

    ``value`` is a decimal string at ``digits`` = 12 significant digits,
    produced from an internal computation at ``internal_dps`` = ``DPS`` digits.
    """

    digits: ClassVar[int] = 12
    internal_dps: ClassVar[int] = DPS
    value: str

    @staticmethod
    def from_mpf(x: mpmath.mpf) -> "ApproxValue":
        import mpmath

        return ApproxValue(mpmath.nstr(x, ApproxValue.digits))

    def to_jsonable(self) -> dict:
        return {"value": self.value, "digits": self.digits, "internal_dps": self.internal_dps}


@dataclass(frozen=True)
class PublishedTarget:
    quantity: str
    quoted: str
    computed: str
    match: bool

    def to_jsonable(self) -> dict:
        return {"quantity": self.quantity, "quoted": self.quoted, "computed": self.computed, "match": self.match}

    @staticmethod
    def from_jsonable(d: dict) -> "PublishedTarget":
        """The target ``d`` records: a string quantity, quoted and computed value, and a boolean match."""
        try:
            quantity, quoted, computed, match = d["quantity"], d["quoted"], d["computed"], d["match"]
        except KeyError as exc:
            raise ValueError(f"a published target has no {exc.args[0]}") from None
        for key in ("quantity", "quoted", "computed"):
            if not isinstance(d[key], str):
                raise ValueError(f"published target {key} {d[key]!r} is not a string")
        if not isinstance(match, bool):
            raise ValueError(f"published target {quantity!r}: match {match!r} is not a boolean")
        return PublishedTarget(quantity, quoted, computed, match)


@dataclass
class Certificate:
    n: int
    params: dict[str, str] = field(default_factory=dict)
    checks: list[CertCheck] = field(default_factory=list)
    published_targets: list[PublishedTarget] = field(default_factory=list)
    values: dict = field(default_factory=dict)
    flags: list[dict] = field(default_factory=list)
    environment: dict = field(default_factory=dict)
    schema_version: str = SCHEMA_VERSION

    def add_flag(self, name: str, detail: str, **extra) -> None:
        self.flags.append({"name": name, "detail": detail, **extra})

    @property
    def overall_status(self) -> str:
        return "failed" if any(c.status == "fail" for c in self.checks) else "passed"

    @property
    def discrepancies(self) -> list[str]:
        """The published targets whose computed value differs from the quoted one."""
        return [t.quantity for t in self.published_targets if not t.match]

    def to_jsonable(self) -> dict:
        return {
            "schema_version": self.schema_version,
            "n": self.n,
            "overall_status": self.overall_status,
            "params": self.params,
            "checks": [c.to_jsonable() for c in self.checks],
            "published_targets": [t.to_jsonable() for t in self.published_targets],
            "values": self.values,
            "flags": self.flags,
            "environment": self.environment,
        }

    @staticmethod
    def from_jsonable(d: dict) -> "Certificate":
        """The certificate ``d`` records: every field ``to_jsonable`` writes, with its
        JSON type, each flag, check and published target a JSON object, each check
        read by ``CertCheck`` and each target by ``PublishedTarget``."""
        if not isinstance(d, dict):
            raise ValueError(f"expected a JSON object, got {type(d).__name__}")
        missing = [key for key, _ in _FIELDS if key not in d]
        if missing:
            raise ValueError(f"not a certificate: no {', '.join(missing)}")
        for key, kind in _FIELDS:
            if type(d[key]) is not kind:  # not isinstance: JSON true is no integer
                raise ValueError(f"{key} {d[key]!r} is not {_JSON_TYPES[kind]}")
        if d["schema_version"] != SCHEMA_VERSION:
            raise ValueError(f"schema_version {d['schema_version']!r} is not {SCHEMA_VERSION!r}, "
                             "the one this reader reads")
        for key, item in (("flags", "flag"), ("checks", "check"), ("published_targets", "published target")):
            if not all(isinstance(value, dict) for value in d[key]):
                raise ValueError(f"every {item} must be a JSON object")
        checks = [CertCheck.from_jsonable(c) for c in d["checks"]]
        targets = [PublishedTarget.from_jsonable(t) for t in d["published_targets"]]
        return Certificate(d["n"], dict(d["params"]), checks, targets, dict(d["values"]), list(d["flags"]),
                           dict(d["environment"]), d["schema_version"])

    def write(self, path: str | Path) -> None:
        """Atomic write; see ``write_json``."""
        write_json(path, self.to_jsonable())

    @staticmethod
    def read(path: str | Path) -> "Certificate":
        with open(path, encoding="utf-8") as fh:
            return Certificate.from_jsonable(parse_json(fh.read()))


# The key and JSON type of every field ``Certificate.to_jsonable`` writes, in its order.
_FIELDS = tuple((key, type(value)) for key, value in Certificate(n=0).to_jsonable().items())
_JSON_TYPES = {int: "an integer", str: "a string", list: "a JSON array", dict: "a JSON object"}


def parse_json(text: str):
    """The JSON value of ``text``; a ValueError, not a RecursionError, when it nests too deeply."""
    try:
        return json.loads(text)
    except RecursionError:
        raise ValueError("JSON nested too deeply to read") from None


def json_difference(got, want, path: str = "") -> str | None:
    """Where the JSON value ``got`` first differs from ``want``, as "PATH is X, not Y",
    types included (1, 1.0 and true differ) and key order not; None when they are equal.
    The top-level "environment" key of ``want`` is left out: it records the run, and
    ``certify.recompute`` checks its settings; a nested one is compared like any value."""
    if type(got) is type(want) is dict:
        keys = [key for key in {**want, **got} if path or key != "environment" or key not in want]
        pairs = [((f"{path}.{key}" if key.isidentifier() else f"{path}[{json.dumps(key)}]").lstrip("."),
                  got.get(key, _ABSENT), want.get(key, _ABSENT)) for key in keys]
    elif type(got) is type(want) is list:
        pairs = [(f"{path}[{i}]", a, b) for i, (a, b) in enumerate(zip_longest(got, want, fillvalue=_ABSENT))]
    elif type(got) is type(want) and got == want:
        return None
    else:
        return f"{path} is {_brief(got)}, not {_brief(want)}"
    return next(filter(None, (json_difference(a, b, where) for where, a, b in pairs)), None)


_ABSENT = object()  # the value of a key or index that one side lacks


def _brief(value) -> str:
    return {dict: "a JSON object", list: "a JSON array", object: "absent"}.get(type(value)) or json.dumps(value)
