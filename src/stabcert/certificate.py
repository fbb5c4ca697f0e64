"""Audit certificates: a full machine-checkable record of a verified run, and
the records it is built from (checks, constraint reports, published targets,
approximate values).

All exact values are serialized as strings ("p/q", "r*sqrt(s)"), never as
binary floats; approximate fields carry an explicit digits annotation.  Every
check passes or fails, and a certificate containing any failed check has
overall status "failed".  A computed value that differs from its published one
is a published target with match false, a discrepancy: it never fails a run
but is always surfaced.  Files are UTF-8 JSON, schema_version "1", written
atomically (write-then-rename); the reader requires that schema version,
every field the writer writes, at least one check, and a recorded overall
status that its checks give.  It refuses a strict margin check whose status
contradicts its margin's sign, a sampled check whose status or witness
contradicts its sample counts, an approximate check whose status its residual
contradicts, and a published target whose match contradicts its strings; it
reads a verify-all certificate (n = 0) together with the row certificates it
nests, each with the params its row writes, and requires its params to list
exactly those rows and its checks to include the two after them.
"""

from __future__ import annotations

import errno
import json
import os
import re
import tempfile
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import TYPE_CHECKING, ClassVar

from .rational import rational_from_str, rational_to_str

if TYPE_CHECKING:
    import mpmath

SCHEMA_VERSION = "1"

# The detail of a strict margin check: it passes exactly when its margin is > 0.
STRICT_MARGIN = "> 0"
# ``CertCheck.sampled``'s detail: N >= 1 samples, V violations (group 3 if V > 0), a witness (group 4)
_SAMPLED_DETAIL = re.compile(r"([1-9]\d*) samples, (0|([1-9]\d*)) violations, seed=\d+(; first witness: .+)?")
# An approximate check passes when its worst residual, a decimal as ``mpmath.nstr`` prints it, is at most this.
APPROXIMATE_TOLERANCE = 1e-9
_RESIDUAL = re.compile(r"\d+(\.\d+)?(e[-+]?\d+)?")


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


@dataclass(frozen=True)
class CertCheck:
    """One named check: its kind, its status and the evidence behind it.

    ``margin`` is an exact rational (serialized as "p/q"); ``residual`` is the
    decimal string of an approximate check's worst residual.
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
        margin = d.get("margin")
        if margin is not None:
            try:
                margin = rational_from_str(margin)
            except ValueError:
                raise ValueError(f"check {name!r}: margin {margin!r} is not a rational") from None
        detail = d.get("detail", "")
        # a Fraction's sign is its numerator's, and comparing the int skips Fraction's comparison
        if detail == STRICT_MARGIN and (margin is None or (margin.numerator > 0) != (status == "pass")):
            raise ValueError(f"check {name!r}: status {status!r} contradicts its margin {d.get('margin')!r} > 0")
        if kind == "sampled":  # V <= N, and a pass and no witness exactly when V = 0
            match = isinstance(detail, str) and _SAMPLED_DETAIL.fullmatch(detail)
            recorded = match and int(match[2]) <= int(match[1]) and (match[3] is None) == (match[4] is None)
            if not recorded or (status == "pass") != (match[3] is None):
                raise ValueError(f"check {name!r}: detail {detail!r} does not record a {status!r}")
        residual = d.get("residual")
        if kind == "approximate":  # printed to 6 digits, a pass never reads above the tolerance nor a breach below
            tol = Fraction(str(APPROXIMATE_TOLERANCE))
            value = Fraction(residual) if isinstance(residual, str) and _RESIDUAL.fullmatch(residual) else None
            if value is None or (value > tol if status == "pass" else value < tol):
                raise ValueError(f"check {name!r}: residual {residual!r} does not record a {status!r} "
                                 f"at tolerance {APPROXIMATE_TOLERANCE}")
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
    produced from an internal computation at ``internal_dps`` digits.
    """

    digits: ClassVar[int] = 12
    value: str
    internal_dps: int

    @staticmethod
    def from_mpf(x: mpmath.mpf, internal_dps: int) -> "ApproxValue":
        import mpmath

        return ApproxValue(mpmath.nstr(x, ApproxValue.digits), internal_dps)

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
        try:
            quantity, quoted, computed, match = d["quantity"], d["quoted"], d["computed"], d["match"]
        except KeyError as exc:
            raise ValueError(f"a published target has no {exc.args[0]}") from None
        if not isinstance(match, bool):
            raise ValueError(f"published target {quantity!r}: match {match!r} is not a boolean")
        # both writers set match to quoted == computed, on canonical "p/q" strings
        if not (type(quoted) is type(computed) is str and match == (quoted == computed)):
            raise ValueError(f"published target {quantity!r}: match {match} contradicts {quoted!r} vs {computed!r}")
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
        """The certificate ``d`` records: every field ``to_jsonable`` writes, with
        its JSON type, at least one check, and the overall status they give."""
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
        if not d["checks"]:
            raise ValueError("no checks: a certificate without evidence certifies nothing")
        if not all(isinstance(flag, dict) for flag in d["flags"]):
            raise ValueError("every flag must be a JSON object")
        if not all(isinstance(check, dict) for check in d["checks"]):
            raise ValueError("every check must be a JSON object")
        # compared before any check is read, so an edited status is named as
        # such even where it also contradicts the check's own margin
        status = "failed" if any(check.get("status") == "fail" for check in d["checks"]) else "passed"
        if d["overall_status"] != status:
            raise ValueError(f"overall_status {d['overall_status']!r} disagrees with the checks, which give "
                             f"{status!r}")
        cert = Certificate(
            n=d["n"],
            params=dict(d["params"]),
            checks=[CertCheck.from_jsonable(c) for c in d["checks"]],
            published_targets=[PublishedTarget.from_jsonable(t) for t in d["published_targets"]],
            values=dict(d["values"]),
            flags=list(d["flags"]),
            environment=dict(d["environment"]),
            schema_version=d["schema_version"],
        )
        if cert.n == 0:
            cert._read_rows()
        return cert

    def _read_rows(self) -> None:
        """Read strictly each row certificate ``values["row_nN"]`` that a
        ``row_nN_overall`` check stands for, its n = N before the rest, with the
        params its row writes (``ParamSet.from_strings``); require the check to
        pass exactly when that row passed, params to list exactly these rows,
        and the table checks that ``certify_all`` writes after the rows."""
        from .curvature import ParamSet  # curvature imports this module

        keys = []
        for check in self.checks:
            key = check.name.removesuffix("_overall")
            if not key.startswith("row_n") or key == check.name:
                continue
            keys.append(key)
            if key not in self.values:
                raise ValueError(f"check {check.name!r}: no {key} in values")
            nested = self.values[key]
            # n before the rest, so that a verify-all certificate (n = 0) nested here is never read
            n = nested.get("n") if isinstance(nested, dict) else None
            if type(n) is int and (n == 0 or key != f"row_n{n}"):
                raise ValueError(f"{key} is the certificate of n = {n}")
            try:
                row = Certificate.from_jsonable(nested)
                ParamSet.from_strings(row.params, row.n)
            except ValueError as exc:
                raise ValueError(f"{key}: {exc}") from None
            if check.satisfied != (row.overall_status == "passed"):
                raise ValueError(f"check {check.name!r}: status {check.status!r} disagrees with {key}, "
                                 f"which {row.overall_status}")
        if not keys or self.params != {"rows": ",".join(key.removeprefix("row_n") for key in keys)}:
            raise ValueError(f"params {self.params} do not list the rows of the row checks, {keys}")
        missing = [name for name in _TABLE_CHECKS if name not in {check.name for check in self.checks}]
        if missing:
            raise ValueError(f"no {missing[0]} check, which verify-all writes after its rows")

    @staticmethod
    def from_json(s: str) -> "Certificate":
        try:
            d = json.loads(s)
        except RecursionError:
            raise ValueError("JSON nested too deeply to read") from None
        return Certificate.from_jsonable(d)

    def write(self, path: str | Path) -> None:
        """Atomic write; see ``write_json``."""
        write_json(path, self.to_jsonable())

    @staticmethod
    def read(path: str | Path) -> "Certificate":
        with open(path, encoding="utf-8") as fh:
            return Certificate.from_json(fh.read())


# The checks of the delta_c collapse that verify-all writes after its rows
_TABLE_CHECKS = ("critical_radicand_perfect_square", "exponent_exceeds_dimension_above_threshold")
# The key and JSON type of every field ``Certificate.to_jsonable`` writes, in its order.
_FIELDS = tuple((key, type(value)) for key, value in Certificate(n=0).to_jsonable().items())
_JSON_TYPES = {int: "an integer", str: "a string", list: "a JSON array", dict: "a JSON object"}
