"""JSON schemas for the data the CLI moves around.

Conventions (lossless and language-neutral):

* complex scalar  -> two-element array ``[re, im]``; plain numbers are
  accepted on input as reals;
* matrix          -> row-major nested arrays of scalars;
* tuple           -> ``{"d": d, "n": n, "matrices": [matrix, ...]}``;
* polytope        -> ``{"dim": d, "vertices": [[...]],
                       "facets": [{"alpha": [...], "a": r}]}``
  (either representation may be omitted);
* frame           -> ``{"dim": d, "vectors": [[...]]}``;
* positive decomposition -> ``{"atoms": [[...]], "effects": [matrix, ...]}``;
* rank-one family -> ``{"lambdas": [matrix, ...], "betas": [...]}`` (betas
  optional; recomputed when absent);
* dilation        -> ``{"T": [...], "V": matrix, "scale": c,
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
from json.encoder import encode_basestring_ascii
from typing import Any

import numpy as np

from .dilation import Dilation, LambdaFamily, Povm, decompose_identity
from .frames import Frame, check_tight
from .sets import GenTuple, HermTuple, Polytope


class SchemaError(ValueError):
    """Structurally valid JSON that does not match the expected schema."""


def encode_scalar(z) -> list[float]:
    z = complex(z)
    return [float(z.real), float(z.imag)]


def decode_scalar(obj) -> complex:
    if isinstance(obj, (int, float)):
        return complex(obj)
    if (isinstance(obj, list) and len(obj) == 2
            and all(isinstance(t, (int, float)) for t in obj)):
        return complex(obj[0], obj[1])
    raise SchemaError(f"expected a number or [re, im] pair, got {obj!r}")


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
    if not isinstance(obj, list) or not obj or not isinstance(obj[0], list):
        raise SchemaError("expected a matrix as nested arrays")
    rows = [[decode_scalar(z) for z in row] for row in obj]
    width = len(rows[0])
    if any(len(r) != width for r in rows):
        raise SchemaError("matrix rows have unequal lengths")
    return np.array(rows, dtype=complex)


def encode_tuple(X: GenTuple) -> dict:
    return {"d": X.d, "n": X.n,
            "matrices": [encode_matrix(M) for M in X.matrices]}


def decode_tuple(obj, hermitian: bool = True,
                 herm_tol: float = 1e-9) -> GenTuple:
    if not isinstance(obj, dict) or "matrices" not in obj:
        raise SchemaError('expected {"d", "n", "matrices"}')
    mats = [decode_matrix(M) for M in obj["matrices"]]
    if "d" in obj and int(obj["d"]) != len(mats):
        raise SchemaError("declared d does not match matrix count")
    if "n" in obj and mats and int(obj["n"]) != mats[0].shape[0]:
        raise SchemaError("declared n does not match matrix size")
    try:
        return HermTuple(mats, herm_tol=herm_tol) if hermitian else GenTuple(mats)
    except Exception as exc:
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
    if not isinstance(obj, dict) or "dim" not in obj:
        raise SchemaError('expected {"dim", "vertices"?, "facets"?}')
    verts = obj.get("vertices")
    facets = obj.get("facets")
    normals = offsets = None
    if facets is not None:
        try:
            normals = np.array([f["alpha"] for f in facets], dtype=float)
            offsets = np.array([f["a"] for f in facets], dtype=float)
        except (KeyError, TypeError, ValueError) as exc:
            raise SchemaError(f"bad facet list: {exc}") from exc
    try:
        return Polytope(int(obj["dim"]),
                        vertices=None if verts is None else np.array(verts, float),
                        facet_normals=normals, facet_offsets=offsets)
    except ValueError as exc:
        raise SchemaError(str(exc)) from exc


def encode_frame(f: Frame) -> dict:
    return {"dim": f.dim, "vectors": [[float(x) for x in v] for v in f.vectors]}


def decode_frame(obj, tol: float = 1e-9) -> Frame:
    if not isinstance(obj, dict) or "vectors" not in obj:
        raise SchemaError('expected {"dim", "vectors"}')
    V = np.array(obj["vectors"], dtype=float)
    if "dim" in obj and int(obj["dim"]) != V.shape[1]:
        raise SchemaError("declared dim does not match vectors")
    return check_tight(V, tol=tol)


def decode_frame_vectors(obj) -> np.ndarray:
    if not isinstance(obj, dict) or "vectors" not in obj:
        raise SchemaError('expected {"dim", "vectors"}')
    return np.array(obj["vectors"], dtype=float)


def decode_povm(obj, psd_tol: float = 1e-8, sum_tol: float = 1e-8) -> Povm:
    if not isinstance(obj, dict) or "atoms" not in obj or "effects" not in obj:
        raise SchemaError('expected {"atoms", "effects"}')
    atoms = np.array([[decode_scalar(z) for z in row] for row in obj["atoms"]])
    if atoms.size == 0:
        raise SchemaError("expected a non-empty list of atoms")
    if np.max(np.abs(atoms.imag)) == 0.0:
        atoms = atoms.real
    effects = [decode_matrix(E) for E in obj["effects"]]
    try:
        return Povm(atoms=atoms, effects=effects, psd_tol=psd_tol,
                    sum_tol=sum_tol)
    except ValueError as exc:
        raise SchemaError(str(exc)) from exc


def decode_lambda_family(obj) -> LambdaFamily:
    if not isinstance(obj, dict) or "lambdas" not in obj:
        raise SchemaError('expected {"lambdas", "betas"?}')
    lams = [np.real(decode_matrix(L)) for L in obj["lambdas"]]
    if "betas" in obj:
        betas = np.array(obj["betas"], dtype=float)
        try:
            return LambdaFamily(np.stack(lams), betas)
        except ValueError as exc:
            raise SchemaError(str(exc)) from exc
    return decompose_identity(lams)


def decode_atoms(obj) -> np.ndarray:
    """Atom list format: {"points": [[...]]} with real or [re, im] entries."""
    if not isinstance(obj, dict) or "points" not in obj:
        raise SchemaError('expected {"points": [[...]]}')
    pts = np.array([[decode_scalar(z) for z in row] for row in obj["points"]])
    if pts.size == 0:
        raise SchemaError("expected a non-empty list of points")
    if np.max(np.abs(pts.imag)) == 0.0:
        pts = pts.real
    return pts


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
