"""Loader for the on-disk connection description format.

Line oriented INI-style sections:

    [space]
    base_dim = 1
    fiber_dim = 1
    [connection]
    gamma_1_1 = "y1^2"            # one line per (A, i), 1-based
    domain = "y1 > 0"             # optional
    [field name]
    X_1 = "1" ; eta_1 = "0"
    [section name]
    sigma_1 = "y1"
    [curve name]
    x_1 = "t" ; y_1 = "1" ; t0 = 0 ; t1 = 1

Several ``key = value`` pairs may share a line separated by ';'.  Values may
be quoted; '#' starts a comment outside quotes.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field

from . import expr as ex
from .connection import HorBasicField, NonlinearConnection, SectionAlongPi
from .geom import BundleSpace
from .transport import CurveInE


class SpecError(ValueError):
    def __init__(self, message: str, line: int | None = None):
        self.line = line
        super().__init__(message if line is None else f"line {line}: {message}")


@dataclass
class SpecFile:
    path: str
    space: BundleSpace
    conn: NonlinearConnection
    fields: dict = field(default_factory=dict)
    sections: dict = field(default_factory=dict)
    curves: dict = field(default_factory=dict)


_HEADER_RE = re.compile(r"\[\s*([a-zA-Z]+)(?:\s+([A-Za-z0-9_.-]+))?\s*\]$")


def _split_pairs(line: str, lineno: int):
    """Split a line into key=value pairs on ';' outside quotes; strip comments."""
    pieces = []
    buf = []
    in_quote = False
    for ch in line:
        if ch == '"':
            in_quote = not in_quote
            buf.append(ch)
        elif ch == "#" and not in_quote:
            break
        elif ch == ";" and not in_quote:
            pieces.append("".join(buf))
            buf = []
        else:
            buf.append(ch)
    if in_quote:
        raise SpecError("unterminated quote", lineno)
    pieces.append("".join(buf))
    out = []
    for piece in pieces:
        piece = piece.strip()
        if not piece:
            continue
        if "=" not in piece:
            raise SpecError(f"expected key = value, got {piece!r}", lineno)
        key, _, value = piece.partition("=")
        value = value.strip()
        if value.startswith('"') and value.endswith('"') and len(value) >= 2:
            value = value[1:-1]
        out.append((key.strip(), value, lineno))
    return out


def _parse_expr(text: str, lineno: int, allowed: set[str], what: str) -> ex.Expr:
    try:
        e = ex.parse(text)
    except ex.ParseError as err:
        raise SpecError(f"{what}: {err}", lineno) from None
    bad = ex.variables(e) - allowed
    if bad:
        raise SpecError(f"{what} may reference {sorted(allowed)} only, found {sorted(bad)}", lineno)
    return e


def loads(text: str, path: str = "<string>") -> SpecFile:
    sections: list[tuple[str, str | None, int, list]] = []
    current = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        m = _HEADER_RE.match(line)
        if m:
            kind = m.group(1).lower()
            if kind not in ("space", "connection", "field", "section", "curve"):
                raise SpecError(f"unknown section kind {m.group(1)!r}", lineno)
            if kind in ("field", "section", "curve") and not m.group(2):
                raise SpecError(f"[{kind}] needs a name", lineno)
            current = (kind, m.group(2), lineno, [])
            sections.append(current)
            continue
        if current is None:
            raise SpecError("content before any section header", lineno)
        current[3].extend(_split_pairs(line, lineno))

    def pick(kind):
        return [s for s in sections if s[0] == kind]

    space_secs = pick("space")
    conn_secs = pick("connection")
    if len(space_secs) != 1:
        raise SpecError("need exactly one [space] section")
    if len(conn_secs) != 1:
        raise SpecError("need exactly one [connection] section")

    def as_dict(entries, lineno):
        d = {}
        for key, value, ln in entries:
            if key in d:
                raise SpecError(f"duplicate key {key!r}", ln)
            d[key] = (value, ln)
        return d

    sp_entries = as_dict(space_secs[0][3], space_secs[0][2])

    def take_int(d, key, lineno):
        if key not in d:
            raise SpecError(f"missing {key}", lineno)
        value, ln = d.pop(key)
        try:
            return int(value)
        except ValueError:
            raise SpecError(f"{key} must be an integer, got {value!r}", ln) from None

    n = take_int(sp_entries, "base_dim", space_secs[0][2])
    k = take_int(sp_entries, "fiber_dim", space_secs[0][2])
    if sp_entries:
        raise SpecError(f"unknown key {next(iter(sp_entries))!r} in [space]", space_secs[0][2])
    if n < 1 or k < 1:
        raise SpecError("base_dim and fiber_dim must be >= 1", space_secs[0][2])

    x_names = {f"x{i+1}" for i in range(n)}
    y_names = {f"y{j+1}" for j in range(k)}

    conn_entries = as_dict(conn_secs[0][3], conn_secs[0][2])
    domain = None
    if "domain" in conn_entries:
        value, ln = conn_entries.pop("domain")
        try:
            domain = ex.parse_bool(value)
        except ex.ParseError as err:
            raise SpecError(f"domain: {err}", ln) from None
        bad = ex.bool_variables(domain) - (x_names | y_names)
        if any(v.startswith("z") for v in bad):
            raise SpecError("z not allowed in domain", ln)
        if bad:
            raise SpecError(f"domain may reference x/y only, found {sorted(bad)}", ln)

    gamma = [[None] * n for _ in range(k)]
    gamma_key = re.compile(r"gamma_(0|[1-9][0-9]*)_(0|[1-9][0-9]*)$")  # gamma_01_1 is unknown
    for key in list(conn_entries):
        m = gamma_key.match(key)
        if not m:
            raise SpecError(f"unknown key {key!r} in [connection]", conn_entries[key][1])
        A, i = int(m.group(1)), int(m.group(2))
        if not (1 <= A <= k and 1 <= i <= n):
            raise SpecError(f"{key} is out of range for {k} x {n}", conn_entries[key][1])
        value, ln = conn_entries.pop(key)
        gamma[A - 1][i - 1] = _parse_expr(value, ln, x_names | y_names, key)
    for A, row in enumerate(gamma, start=1):
        for i, g in enumerate(row, start=1):
            if g is None:
                raise SpecError(f"missing gamma_{A}_{i}")

    space = BundleSpace(n, k, domain)
    conn = NonlinearConnection(space, tuple(tuple(r) for r in gamma))
    spec = SpecFile(path=path, space=space, conn=conn)

    def indexed(entries, prefix, count, lineno, allowed, what):
        got = {}
        for key, value, ln in entries:
            m = re.match(rf"{prefix}_([0-9]+)$", key)
            if not m:
                continue
            idx = int(m.group(1))
            if not (1 <= idx <= count):
                raise SpecError(f"{key} is out of range", ln)
            got[idx] = _parse_expr(value, ln, allowed, what)
        missing = [i for i in range(1, count + 1) if i not in got]
        if missing:
            raise SpecError(f"missing {prefix}_{missing[0]}", lineno)
        return tuple(got[i] for i in range(1, count + 1))

    owners = {"field": spec.fields, "section": spec.sections, "curve": spec.curves}
    for kind, name, lineno, entries in sections:
        if kind not in owners:
            continue
        if name in owners[kind]:
            raise SpecError(f"duplicate [{kind} {name}]", lineno)
        d = as_dict(entries, lineno)
        keys = set(d)
        if kind == "field":
            spec.fields[name] = HorBasicField(
                indexed(entries, "X", n, lineno, x_names, f"field {name}"),
                indexed(entries, "eta", k, lineno, x_names, f"field {name}"),
            )
            extra = keys - {f"X_{i+1}" for i in range(n)} - {f"eta_{j+1}" for j in range(k)}
            if extra:
                raise SpecError(f"unknown key {sorted(extra)[0]!r} in [field {name}]", lineno)
        elif kind == "section":
            spec.sections[name] = SectionAlongPi(
                indexed(entries, "sigma", k, lineno, x_names | y_names, f"section {name}")
            )
            extra = keys - {f"sigma_{j+1}" for j in range(k)}
            if extra:
                raise SpecError(f"unknown key {sorted(extra)[0]!r} in [section {name}]", lineno)
        else:
            t_entries = {}
            for key in ("t0", "t1"):
                if key not in d:
                    raise SpecError(f"missing {key} in [curve {name}]", lineno)
                value, ln = d[key]
                try:
                    t = float(value)
                except ValueError:
                    t = math.nan
                if not math.isfinite(t):
                    raise SpecError(f"{key} must be a finite real, got {value!r}", ln)
                t_entries[key] = t
            spec.curves[name] = CurveInE(
                indexed(entries, "x", n, lineno, {"t"}, f"curve {name}"),
                indexed(entries, "y", k, lineno, {"t"}, f"curve {name}"),
                t_entries["t0"],
                t_entries["t1"],
            )
            extra = (
                keys
                - {f"x_{i+1}" for i in range(n)}
                - {f"y_{j+1}" for j in range(k)}
                - {"t0", "t1"}
            )
            if extra:
                raise SpecError(f"unknown key {sorted(extra)[0]!r} in [curve {name}]", lineno)
    return spec


def load_spec(path) -> SpecFile:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as err:
        raise SpecError(f"cannot read {path}: {err}") from None
    return loads(text, str(path))


def builtin_spec_path(name: str) -> str:
    """Filesystem path of one of the shipped example descriptions (c0..c5)."""
    from importlib.resources import files

    path = files("linconn").joinpath(f"specs/{name}.ini")
    return str(path)


def load_builtin(name: str) -> SpecFile:
    return load_spec(builtin_spec_path(name))
