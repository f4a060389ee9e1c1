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
be quoted; '#' starts a comment outside quotes.  A key no section reads is an
error at its own line, the first in file order, and so is an expression
nested deeper than ``expr.MAX_DEPTH``.  Gamma keys are checked for range and
completeness before any value is read, so the work is bounded by the file.
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


def parse_expr(text: str, allowed: set[str], what: str, line: int | None = None) -> ex.Expr:
    """The expression in text, which may use the names in allowed only: the
    one reader of every component a spec file or the command line gives."""
    try:
        e = ex.parse(text)
    except ex.ParseError as err:
        raise SpecError(f"{what}: {err}", line) from None
    bad = ex.variables(e) - allowed
    if bad:
        raise SpecError(f"{what} may reference {ex.name_ranges(allowed)} only, found {ex.name_ranges(bad)}", line)
    return e


def _keys(section) -> dict:
    """key -> (value, line) of a section, in file order; a repeated key is an error."""
    d = {}
    for key, value, ln in section[3]:
        if key in d:
            raise SpecError(f"duplicate key {key!r}", ln)
        d[key] = (value, ln)
    return d


def _index(digits: str) -> int:
    """The 1-based index a key spells; 0, which no range holds, when int()
    refuses that many digits."""
    try:
        return int(digits)
    except ValueError:
        return 0


def _no_other_keys(d: dict, where: str):
    """A key no reader took is an error at its own line, the first in file order."""
    for key, (_, ln) in d.items():
        raise SpecError(f"unknown key {key!r} in {where}", ln)


# kind -> (scalar keys, indexed keys as (prefix, count, variables), class
# called with the indexed tuples, then the scalars); counts "n" and "k" are
# base_dim and fiber_dim, variables "x", "xy" and "t" what a component may use.
_NAMED = {
    "field": ((), (("X", "n", "x"), ("eta", "k", "x")), HorBasicField),
    "section": ((), (("sigma", "k", "xy"),), SectionAlongPi),
    "curve": (("t0", "t1"), (("x", "n", "t"), ("y", "k", "t")), CurveInE),
}
_GAMMA_KEY = re.compile(r"gamma_(0|[1-9][0-9]*)_(0|[1-9][0-9]*)")  # gamma_01_1 is unknown


def _read_named(kind: str, name: str, section, counts: dict, names: dict):
    """The object a [kind name] section describes, read by its row of ``_NAMED``;
    a missing key is reported at the header line, a bad one at its own."""
    scalar_keys, indexed, build = _NAMED[kind]
    where, lineno, what = f"[{kind} {name}]", section[2], f"{kind} {name}"
    d = _keys(section)
    scalars = []
    for key in scalar_keys:
        if key not in d:
            raise SpecError(f"missing {key} in {where}", lineno)
        value, ln = d.pop(key)
        try:
            t = float(value)
        except ValueError:
            t = math.nan
        if not math.isfinite(t):
            raise SpecError(f"{key} must be a finite real, got {value!r}", ln)
        scalars.append(t)
    parts = []
    for prefix, count, allowed in indexed:
        count, got = counts[count], {}
        for key in [key for key in d if re.fullmatch(rf"{prefix}_[0-9]+", key)]:
            value, ln = d.pop(key)
            i = _index(key[len(prefix) + 1 :])
            if not 1 <= i <= count:
                raise SpecError(f"{key} is out of range", ln)
            if key != f"{prefix}_{i}":
                raise SpecError(f"unknown key {key!r} in {where}", ln)
            got[i] = parse_expr(value, names[allowed], what, ln)
        missing = next((i for i in range(1, count + 1) if i not in got), None)
        if missing is not None:
            raise SpecError(f"missing {prefix}_{missing}", lineno)
        parts.append(tuple(got[i] for i in range(1, count + 1)))
    _no_other_keys(d, where)
    return build(*parts, *scalars)


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
            if kind not in ("space", "connection", *_NAMED):
                raise SpecError(f"unknown section kind {m.group(1)!r}", lineno)
            if kind in _NAMED and not m.group(2):
                raise SpecError(f"[{kind}] needs a name", lineno)
            current = (kind, m.group(2), lineno, [])
            sections.append(current)
            continue
        if current is None:
            raise SpecError("content before any section header", lineno)
        current[3].extend(_split_pairs(line, lineno))

    one = {}
    for kind in ("space", "connection"):
        found = [s for s in sections if s[0] == kind]
        if len(found) != 1:
            raise SpecError(f"need exactly one [{kind}] section")
        one[kind] = found[0]

    d, header = _keys(one["space"]), one["space"][2]
    dims = []
    for key in ("base_dim", "fiber_dim"):
        if key not in d:
            raise SpecError(f"missing {key}", header)
        value, ln = d.pop(key)
        try:
            dims.append(int(value))
        except ValueError:
            raise SpecError(f"{key} must be an integer, got {value!r}", ln) from None
    _no_other_keys(d, "[space]")
    n, k = dims
    if n < 1 or k < 1:
        raise SpecError("base_dim and fiber_dim must be >= 1", header)

    # keys, ranges and completeness before any value: the work up to here is
    # bounded by the file's length, whatever n and k it declares
    d = _keys(one["connection"])
    domain = d.pop("domain", None)  # (text, line) until it is parsed below
    gamma = {}
    for key, (value, ln) in d.items():
        m = _GAMMA_KEY.fullmatch(key)
        if not m:
            raise SpecError(f"unknown key {key!r} in [connection]", ln)
        A, i = _index(m.group(1)), _index(m.group(2))
        if not (1 <= A <= k and 1 <= i <= n):
            raise SpecError(f"{key} is out of range for {k} x {n}", ln)
        gamma[A, i] = (value, ln)
    missing = next(
        ((A, i) for A in range(1, k + 1) for i in range(1, n + 1) if (A, i) not in gamma), None
    )
    if missing is not None:
        raise SpecError("missing gamma_{}_{}".format(*missing))

    x_names = {f"x{i+1}" for i in range(n)}
    names = {"x": x_names, "xy": x_names | {f"y{j+1}" for j in range(k)}, "t": {"t"}}
    if domain is not None:
        value, ln = domain
        try:
            domain = ex.parse_bool(value)
        except ex.ParseError as err:
            raise SpecError(f"domain: {err}", ln) from None
        bad = ex.bool_variables(domain) - names["xy"]
        if any(v.startswith("z") for v in bad):
            raise SpecError("z not allowed in domain", ln)
        if bad:
            raise SpecError(f"domain may reference x/y only, found {sorted(bad)}", ln)
    for (A, i), (value, ln) in gamma.items():
        gamma[A, i] = parse_expr(value, names["xy"], f"gamma_{A}_{i}", ln)

    space = BundleSpace(n, k, domain)
    rows = tuple(tuple(gamma[A, i] for i in range(1, n + 1)) for A in range(1, k + 1))
    spec = SpecFile(path=path, space=space, conn=NonlinearConnection(space, rows))
    owners = {"field": spec.fields, "section": spec.sections, "curve": spec.curves}
    counts = {"n": n, "k": k}
    for section in sections:
        kind, name = section[:2]
        if kind in owners:
            if name in owners[kind]:
                raise SpecError(f"duplicate [{kind} {name}]", section[2])
            owners[kind][name] = _read_named(kind, name, section, counts, names)
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
