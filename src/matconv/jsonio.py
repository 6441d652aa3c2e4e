"""JSON schemas for the data the CLI moves around.

Input schemas (``?`` marks an optional key):

* matrix          -> row-major nested arrays of entries, each a number
  (read as a real) or an ``[re, im]`` pair;
* tuple           -> ``{"d"?, "n"?, "matrices": [matrix, ...]}``;
* polytope        -> ``{"dim", "vertices"?: [[...]],
                       "facets"?: [{"alpha": [...], "a": r}]}``, with
  vertices or facets or both;
* frame           -> ``{"dim"?, "vectors": [[...]]}``;
* atom list       -> ``{"points": [[...]]}``, entries as in a matrix;
* positive decomposition -> ``{"atoms": [[...]], "effects": [matrix, ...]}``;
* rank-one family -> ``{"lambdas": [matrix, ...], "betas"?: [...]}`` (the
  lambdas are real: an ``[re, im]`` entry needs ``im`` 0; betas are
  recomputed when absent, and a family whose hull misses the identity is
  then rejected).

Vertices, facets, frame vectors and betas take plain numbers only.  Every
list is non-empty, the lists at one level have equal length, every entry is
a finite number (a boolean is not a number), and a declared ``d``, ``n`` or
``dim`` is a positive integer that matches the data.  One converter,
``_numbers``, and one size check, ``_size``, enforce this for every schema;
a violation raises ``SchemaError``, which the CLI reports with the file
name and exit code 4.

Reports carry dilations as ``{"T": [...], "V": matrix, "scale": c,
"residuals": {...}}``.

Reports are written in one canonical text format, the bytes of
``json.dumps(report, sort_keys=True, separators=(",", ": "), indent=1)``
plus a newline: keys sorted, one space of indent per level, ``": "``
between key and value, non-ASCII characters as ``\\uXXXX`` escapes, floats
as ``repr`` (``NaN``, ``Infinity`` and ``-Infinity`` for the non-finite
ones), and every matrix entry as an ``[re, im]`` pair.  ``dumps_report`` is
the only writer of that format; ``cli --out`` writes the same bytes to a
file.
"""

from __future__ import annotations

import json
from itertools import chain
from json.encoder import encode_basestring_ascii
from typing import Any, Optional

import numpy as np

from .dilation import (
    Dilation,
    DilationError,
    LambdaFamily,
    Povm,
    decompose_identity,
)
from .frames import Frame, check_tight
from .numkernel import NumKernelError
from .sets import GenTuple, HermTuple, Polytope


class SchemaError(ValueError):
    """Structurally valid JSON that does not match the expected schema."""


_NUMBER_TYPES = {int, float}


def _numbers(obj, what: str, ndim: int, pairs: bool = False) -> np.ndarray:
    """The JSON value ``obj`` as a finite float array with ``ndim`` axes.

    ``obj`` must be ``ndim`` levels of non-empty lists of equal length whose
    entries are numbers (not booleans) or, with ``pairs``, also ``[re, im]``
    pairs; the array is then complex, plain numbers giving reals.  Anything
    else raises ``SchemaError`` naming ``what``.  This is the only place
    where JSON numbers become arrays.
    """
    shape = []
    level = [obj]
    for _ in range(ndim):
        if (set(map(type, level)) != {list} or len(set(map(len, level))) != 1
                or not level[0]):
            equal = " of equal shape" if ndim > 1 else ""
            raise SchemaError(f"expected a non-empty list of {what}{equal}")
        shape.append(len(level[0]))
        level = list(chain.from_iterable(level))
    if pairs:
        level = [z if type(z) is list and len(z) == 2 else [z, 0]
                 for z in level]
    flat = list(chain.from_iterable(level)) if pairs else level
    if not set(map(type, flat)) <= _NUMBER_TYPES:
        bad = next(t for t in flat if type(t) not in _NUMBER_TYPES)
        kind = "numbers or [re, im] pairs" if pairs else "numbers"
        raise SchemaError(f"{what}: expected {kind}, got {bad!r:.40}")
    finite = f"{what}: entries must be finite"
    try:
        values = np.array(level, dtype=float)
    except OverflowError:
        raise SchemaError(finite) from None
    if not np.isfinite(values).all():
        raise SchemaError(finite)
    if pairs:
        values = values.view(complex)
    return values.reshape(shape)


def _size(obj: dict, key: str, actual: Optional[int] = None) -> int:
    """The declared size field ``key`` of ``obj`` (``actual`` when absent):
    a positive whole number, equal to ``actual`` when the data gives one."""
    value = obj.get(key, actual)
    whole = (type(value) is int
             or type(value) is float and value.is_integer())
    if not whole or value < 1:
        raise SchemaError(
            f"declared {key} must be a positive integer, got {value!r:.40}")
    if actual is not None and value != actual:
        raise SchemaError(
            f"declared {key} does not match the data: {value!r} against "
            f"{actual}")
    return int(value)


def _field(obj, key: str, schema: str):
    """``obj[key]`` of a JSON object, or a ``SchemaError`` quoting
    ``schema``."""
    if not isinstance(obj, dict) or key not in obj:
        raise SchemaError(f"expected {schema}")
    return obj[key]


def _labels(obj, key: str, schema: str) -> np.ndarray:
    """An atom list: real when every imaginary part is 0.0."""
    pts = _numbers(_field(obj, key, schema), key, 2, pairs=True)
    return pts.real if np.max(np.abs(pts.imag)) == 0.0 else pts


def _re_im(M) -> np.ndarray:
    """``(r, c, 2)`` float array of the real and imaginary parts of the
    2-D matrix ``M``: one contiguous complex cast, viewed as floats."""
    M = np.ascontiguousarray(M, dtype=complex)
    if M.ndim != 2:
        raise TypeError(f"expected a 2-D matrix, got shape {M.shape}")
    return M.view(float).reshape(M.shape + (2,))


def encode_matrix(M) -> list[list[list[float]]]:
    return _re_im(M).tolist()


def decode_matrix(obj) -> np.ndarray:
    return _numbers(obj, "matrix rows", 2, pairs=True)


def encode_tuple(X: GenTuple) -> dict:
    return {"d": X.d, "n": X.n,
            "matrices": [encode_matrix(M) for M in X.matrices]}


def decode_tuple(obj, hermitian: bool = True,
                 herm_tol: float = 1e-9) -> GenTuple:
    mats = _numbers(_field(obj, "matrices", '{"d", "n", "matrices"}'),
                    "matrices", 3, pairs=True)
    _size(obj, "d", mats.shape[0])
    _size(obj, "n", mats.shape[1])
    try:
        return (HermTuple(mats, herm_tol=herm_tol) if hermitian
                else GenTuple(mats))
    except (ValueError, NumKernelError) as exc:
        raise SchemaError(str(exc)) from exc


def encode_polytope(P: Polytope) -> dict:
    out: dict[str, Any] = {"dim": P.dim}
    if P.has_vertices:
        out["vertices"] = [[float(x) for x in v] for v in P.vertices]
    if P.has_facets:
        out["facets"] = [{"alpha": [float(x) for x in n], "a": float(a)}
                         for n, a in P.facets()]
    return out


def decode_polytope(obj) -> Polytope:
    schema = '{"dim", "vertices"?, "facets": [{"alpha", "a"}]?}'
    _field(obj, "dim", schema)
    dim = _size(obj, "dim")
    verts = obj.get("vertices")
    facets = obj.get("facets")
    normals = offsets = None
    if verts is None and facets is None:
        raise SchemaError("a polytope needs vertices or facets")
    if verts is not None:
        verts = _numbers(verts, "vertices", 2)
    if facets is not None:
        try:
            alphas = [f["alpha"] for f in facets]
            offsets = [f["a"] for f in facets]
        except (KeyError, TypeError) as exc:
            raise SchemaError(f"expected {schema}") from exc
        normals = _numbers(alphas, "facet normals", 2)
        offsets = _numbers(offsets, "facet offsets", 1)
    try:
        return Polytope(dim, vertices=verts, facet_normals=normals,
                        facet_offsets=offsets)
    except ValueError as exc:
        raise SchemaError(str(exc)) from exc


def decode_frame(obj, tol: float = 1e-9) -> Frame:
    return check_tight(decode_frame_vectors(obj), tol=tol)


def decode_frame_vectors(obj) -> np.ndarray:
    V = _numbers(_field(obj, "vectors", '{"dim"?, "vectors"}'), "vectors", 2)
    _size(obj, "dim", V.shape[1])
    return V


def decode_povm(obj, psd_tol: float = 1e-8, sum_tol: float = 1e-8) -> Povm:
    schema = '{"atoms", "effects"}'
    atoms = _labels(obj, "atoms", schema)
    effects = _numbers(_field(obj, "effects", schema), "effects", 3,
                       pairs=True)
    try:
        return Povm(atoms=atoms, effects=list(effects), psd_tol=psd_tol,
                    sum_tol=sum_tol)
    except (ValueError, NumKernelError) as exc:
        raise SchemaError(str(exc)) from exc


def decode_lambda_family(obj) -> LambdaFamily:
    lams = _numbers(_field(obj, "lambdas", '{"lambdas", "betas"?}'),
                    "lambdas", 3, pairs=True)
    if lams.shape[1] != lams.shape[2]:
        raise SchemaError("lambdas must be square matrices")
    if np.any(lams.imag):
        raise SchemaError("lambdas must be real: an [re, im] pair needs im 0")
    lams = lams.real.copy()
    betas = _numbers(obj["betas"], "betas", 1) if "betas" in obj else None
    try:
        return (decompose_identity(lams) if betas is None
                else LambdaFamily(lams, betas))
    except (ValueError, DilationError) as exc:
        raise SchemaError(str(exc)) from exc


def decode_atoms(obj) -> np.ndarray:
    """Atom list format: {"points": [[...]]} with real or [re, im] entries."""
    return _labels(obj, "points", '{"points": [[...]]}')


def encode_dilation(D: Dilation) -> dict:
    """Report body of a dilation; ``T`` and ``V`` stay arrays for
    ``dumps_report`` to write as matrices."""
    return {
        "T": list(D.T),
        "V": D.V,
        "scale": float(D.scale),
        "residuals": {k: float(v) for k, v in D.residuals.items()},
    }


def _float_text(x: float) -> str:
    if x != x:
        return "NaN"
    if x == float("inf"):
        return "Infinity"
    if x == -float("inf"):
        return "-Infinity"
    return float.__repr__(x)


def _matrix_text(M: np.ndarray, level: int) -> str:
    """A 2-D array at nesting depth ``level`` as the indented ``[re, im]``
    matrix schema, in one join over every float of the matrix."""
    P = _re_im(M)
    rows, cols = M.shape
    if rows == 0:
        return "[]"
    n0 = "\n" + " " * level
    n1, n2, n3 = n0 + " ", n0 + "  ", n0 + "   "
    if cols == 0:
        return "[" + n1 + ("[]," + n1) * (rows - 1) + "[]" + n0 + "]"
    # Dilation and witness matrices are mostly exact zeros, so only the
    # other floats are spelled (``-0.0`` has a nonzero bit pattern).
    flat = P.ravel()
    values = ["0.0"] * flat.size
    nonzero = np.flatnonzero(flat.view(np.int64)).tolist()
    spell = float.__repr__ if np.isfinite(P).all() else _float_text
    for i, text in zip(nonzero, map(spell, flat[nonzero].tolist())):
        values[i] = text
    # The separator written before each float: ``im`` within an entry,
    # ``entry`` between entries of a row, ``row`` between rows.
    im = "," + n3
    entry = n2 + "]," + n2 + "[" + n3
    row = n2 + "]" + n1 + "]," + n1 + "[" + n2 + "[" + n3
    seps = ([row, im] + [entry, im] * (cols - 1)) * rows
    seps[0] = "[" + n1 + "[" + n2 + "[" + n3
    parts = [""] * (2 * len(seps) + 1)
    parts[0:-1:2] = seps
    parts[1::2] = values
    parts[-1] = n2 + "]" + n1 + "]" + n0 + "]"
    return "".join(parts)


def _write(obj, level: int, out: list[str]) -> None:
    """Append the canonical text of ``obj`` at nesting depth ``level``."""
    if isinstance(obj, str):
        out.append(encode_basestring_ascii(obj))
    elif obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif isinstance(obj, int):
        out.append(int.__repr__(obj))
    elif isinstance(obj, float):
        out.append(_float_text(obj))
    elif isinstance(obj, np.ndarray) and obj.ndim == 2:
        out.append(_matrix_text(obj, level))
    elif isinstance(obj, (list, tuple)):
        if not obj:
            out.append("[]")
            return
        inner = "\n" + " " * (level + 1)
        sep = "[" + inner
        for item in obj:
            out.append(sep)
            _write(item, level + 1, out)
            sep = "," + inner
        out.append("\n" + " " * level + "]")
    elif isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        inner = "\n" + " " * (level + 1)
        sep = "{" + inner
        for key in sorted(obj):
            out.append(sep + encode_basestring_ascii(key) + ": ")
            _write(obj[key], level + 1, out)
            sep = "," + inner
        out.append("\n" + " " * level + "}")
    else:
        raise TypeError(f"cannot write {type(obj).__name__} into a report")


def dumps_report(report: dict) -> str:
    """Canonical report text: the bytes of ``json.dumps(report,
    sort_keys=True, separators=(",", ": "), indent=1) + "\\n"``.

    Keys are sorted, each level indents by one space, key and value are
    separated by ``": "``, strings are ASCII with ``\\uXXXX`` escapes and
    floats are written as ``repr`` (``NaN``, ``Infinity``, ``-Infinity``).
    A 2-D numpy array is written as the ``[re, im]`` matrix schema of
    ``encode_matrix`` straight from the array.  Any other array, any other
    non-JSON type and any non-str key raise ``TypeError``.
    """
    out: list[str] = []
    _write(report, 0, out)
    out.append("\n")
    return "".join(out)


def load_json(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)
