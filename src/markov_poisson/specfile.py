"""Chain-spec documents and canonical report serialization.

A chain-spec is a single JSON document describing one finite-chain
instance: state count, optional labels, kernel rows, named functions
(f, v1..v4, arbitrary charges), named distributions, and an optional
small-set declaration. Unknown keys are rejected everywhere so typos
fail loudly. Parse errors report the line number.

Reports are emitted through :func:`dumps_canonical`, which prints every
float with 17 significant digits; re-parsing a report reproduces the
exact double values, making reports bit-faithful.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .chain import Distribution, FiniteChain, validate_chain
from .errors import NegativityViolation, RowSumViolation, SpecFileError

_TOP_KEYS = {"states", "labels", "kernel", "functions", "distributions", "small_set"}
_SMALL_KEYS = {"C", "m", "lambda", "phi"}


@dataclass(frozen=True)
class ChainSpec:
    """A parsed chain-spec: the validated chain plus named data."""

    chain: FiniteChain
    functions: dict
    small: dict | None
    document: dict

    def function(self, name: str) -> np.ndarray:
        if name not in self.functions:
            raise SpecFileError(f"spec declares no function named {name!r}")
        return self.functions[name]


def _require(cond: bool, message: str):
    if not cond:
        raise SpecFileError(message)


def _vector(obj, n: int, what: str) -> np.ndarray:
    _require(
        isinstance(obj, list) and len(obj) == n,
        f"{what} must be a list of {n} numbers",
    )
    # JSON numbers only: numpy would read "0.5" and true as numbers too
    _require({*map(type, obj)} <= {int, float}, f"{what} contains non-numeric entries")
    try:
        vec = np.array(obj, dtype=float)
    except OverflowError:  # an integer literal beyond the double range
        raise SpecFileError(f"{what} contains non-finite entries") from None
    _require(bool(np.all(np.isfinite(vec))), f"{what} contains non-finite entries")
    return vec


def _distribution(obj, n: int, what: str) -> np.ndarray:
    """A probability vector; a negative entry or a total away from 1 names the spec entry."""
    vec = _vector(obj, n, what)
    try:
        return Distribution(mass=vec).mass
    except RowSumViolation as err:
        raise RowSumViolation(what, err.deficit) from None
    except NegativityViolation:
        raise NegativityViolation(f"{what} has negative mass {vec.min():.3e}") from None


def parse_chain_spec(text: str) -> ChainSpec:
    """Parse and validate a chain-spec document from JSON text."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SpecFileError(exc.msg, line=exc.lineno) from None
    _require(isinstance(doc, dict), "top level must be a JSON object")
    unknown = set(doc) - _TOP_KEYS
    _require(not unknown, f"unknown top-level keys: {sorted(unknown)}")
    _require("states" in doc, "missing required key 'states'")
    _require("kernel" in doc, "missing required key 'kernel'")
    n = doc["states"]
    _require(type(n) is int and n >= 1, "'states' must be an integer >= 1")
    kernel = doc["kernel"]
    _require(
        isinstance(kernel, list) and len(kernel) == n,
        f"'kernel' must have {n} rows",
    )
    rows = [_vector(row, n, f"kernel row {i}") for i, row in enumerate(kernel)]
    labels = doc.get("labels")
    if labels is not None:
        _require(
            isinstance(labels, list) and len(labels) == n,
            f"'labels' must list {n} names",
        )
    chain = validate_chain(np.vstack(rows))

    functions = {}
    for name, vals in (doc.get("functions") or {}).items():
        functions[name] = _vector(vals, n, f"function {name!r}")
    distributions = {}
    for name, vals in (doc.get("distributions") or {}).items():
        distributions[name] = _distribution(vals, n, f"distribution {name!r}")

    small = None
    if "small_set" in doc:
        raw = doc["small_set"]
        _require(isinstance(raw, dict), "'small_set' must be an object")
        unknown = set(raw) - _SMALL_KEYS
        _require(not unknown, f"unknown small_set keys: {sorted(unknown)}")
        _require("C" in raw and "m" in raw, "small_set needs 'C' and 'm'")
        C = raw["C"]
        _require(
            isinstance(C, list) and C and all(type(x) is int for x in C),
            "'C' must be a nonempty list of state indices",
        )
        _require(all(0 <= x < n for x in C), f"'C' indices must lie in 0..{n - 1}")
        m = raw["m"]
        _require(type(m) is int and m >= 1, "'m' must be an integer >= 1")
        lam = raw.get("lambda")
        if lam is not None:
            _require(
                type(lam) in (int, float) and 0 < lam <= 1,
                "'lambda' must lie in (0, 1]",
            )
        phi = raw.get("phi")
        if isinstance(phi, str):
            _require(phi in distributions, f"small_set phi references unknown distribution {phi!r}")
            phi = distributions[phi]
        elif phi is not None:
            phi = _distribution(phi, n, "small_set phi")
        _require(
            (lam is None) == (phi is None),
            "small_set must give both 'lambda' and 'phi', or neither",
        )
        small = {"C": tuple(sorted(set(C))), "m": m, "lam": lam, "phi": phi}

    return ChainSpec(
        chain=chain,
        functions=functions,
        small=small,
        document=doc,
    )


def load_chain_spec(path) -> ChainSpec:
    """Read and parse a chain-spec file; a file that cannot be read is a spec-file error."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as err:
        raise SpecFileError(f"cannot read spec file: {err}") from None
    return parse_chain_spec(text)


def _fmt_float(x: float) -> str:
    if math.isnan(x) or math.isinf(x):
        raise ValueError("reports must not contain NaN or infinity")
    return format(x, ".17g")


def dumps_canonical(obj, indent: int = 0) -> str:
    """Serialize to JSON with floats at 17 significant digits.

    Dict insertion order is preserved; numpy scalars and arrays are
    accepted and converted. The output round-trips bit-faithfully.
    """
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = (
            f"{inner}{json.dumps(str(k))}: {dumps_canonical(v, indent + 1)}"
            for k, v in obj.items()
        )
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple, np.ndarray)):
        seq = obj.tolist() if isinstance(obj, np.ndarray) else list(obj)
        if not seq:
            return "[]"
        if all(type(v) is float for v in seq):
            # a float row (an ndarray's tolist()): the bytes _fmt_float gives, in one pass
            if not all(map(math.isfinite, seq)):
                raise ValueError("reports must not contain NaN or infinity")
            return "[" + ", ".join(["%.17g" % v for v in seq]) + "]"
        if all(isinstance(v, (int, float, np.integer, np.floating)) for v in seq):
            return "[" + ", ".join(dumps_canonical(v) for v in seq) + "]"
        items = (f"{inner}{dumps_canonical(v, indent + 1)}" for v in seq)
        return "[\n" + ",\n".join(items) + "\n" + pad + "]"
    if isinstance(obj, (bool, np.bool_)):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _fmt_float(float(obj))
    if obj is None:
        return "null"
    if isinstance(obj, str):
        return json.dumps(obj)
    raise TypeError(f"cannot serialize {type(obj).__name__}")
