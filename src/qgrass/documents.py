"""Input documents: a single JSON object describing a quiver and a rational
representation, with matrix entries as exact strings "n" or "n/m".

Matrix orientation is rows = target dimension, cols = source dimension,
acting on column vectors.
"""

from __future__ import annotations

import hashlib
import json

from .errors import InputError
from .fields import QQ
from .linalg import Matrix
from .quiver import Quiver
from .reps import Representation


def parse_document(doc: dict) -> tuple[Quiver, Representation]:
    """Validate an input document and build the rational representation."""
    if not isinstance(doc, dict):
        raise InputError("input document must be a JSON object")
    qblock = doc.get("quiver")
    if not isinstance(qblock, dict):
        raise InputError("missing 'quiver' block")
    vertices = qblock.get("vertices")
    if not isinstance(vertices, list) or not all(isinstance(v, str) for v in vertices):
        raise InputError("'quiver.vertices' must be a list of strings")
    arrows_raw = qblock.get("arrows")
    if not isinstance(arrows_raw, list):
        raise InputError("'quiver.arrows' must be a list")
    arrows = []
    for pos, entry in enumerate(arrows_raw):
        if not isinstance(entry, dict) or not {"id", "from", "to"} <= set(entry):
            raise InputError(f"arrow #{pos} needs 'id', 'from' and 'to' fields")
        arrows.append((str(entry["id"]), str(entry["from"]), str(entry["to"])))
    quiver = Quiver(vertices, arrows)

    rblock = doc.get("representation")
    if not isinstance(rblock, dict):
        raise InputError("missing 'representation' block")
    dims_map = rblock.get("dims")
    if not isinstance(dims_map, dict):
        raise InputError("'representation.dims' must be a map vertex -> integer")
    missing = [v for v in quiver.vertices if v not in dims_map]
    if missing:
        raise InputError(f"dims missing for vertices {missing}")
    extra = [v for v in dims_map if v not in quiver.vertex_index]
    if extra:
        raise InputError(f"dims given for unknown vertices {sorted(extra)}")
    dims = tuple(dims_map[v] for v in quiver.vertices)
    for v, d in zip(quiver.vertices, dims):
        if isinstance(d, bool) or not isinstance(d, int):
            raise InputError(f"non-integer dimension {d!r} for vertex {v!r}")
    if any(d < 0 for d in dims):
        raise InputError("dimensions must be nonnegative")

    matrices_map = rblock.get("matrices")
    if not isinstance(matrices_map, dict):
        raise InputError("'representation.matrices' must be a map arrow -> rows")
    idx = quiver.vertex_index
    matrices = {}
    for a in quiver.arrows:
        raw = matrices_map.get(a.name)
        if raw is None:
            raise InputError(f"missing matrix for arrow {a.name!r}")
        want_rows, want_cols = dims[idx[a.target]], dims[idx[a.source]]
        if not isinstance(raw, list) or len(raw) != want_rows:
            got = len(raw) if isinstance(raw, list) else type(raw).__name__
            raise InputError(
                f"arrow {a.name!r}: expected {want_rows} rows of {want_cols} entries, got {got} rows"
            )
        flat = []
        for r, row in enumerate(raw):
            if not isinstance(row, list) or len(row) != want_cols:
                raise InputError(
                    f"arrow {a.name!r} row {r}: expected {want_cols} entries"
                )
            for c, cell in enumerate(row):
                try:
                    flat.append(QQ.parse(cell))
                except InputError as exc:
                    raise InputError(f"arrow {a.name!r} entry ({r},{c}): {exc}") from exc
        matrices[a.name] = Matrix(QQ, want_rows, want_cols, flat)
    extra_mats = sorted(set(matrices_map) - {a.name for a in quiver.arrows})
    if extra_mats:
        raise InputError(f"matrices for unknown arrows {extra_mats}")
    return quiver, Representation(quiver, QQ, dims, matrices)


def read_document(path: str) -> dict:
    """Load an input document from a JSON file; parse it with parse_document."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except OSError as exc:
        raise InputError(f"cannot read {path!r}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise InputError(f"{path}: not UTF-8 text: {exc.reason} at byte {exc.start}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"{path}: line {exc.lineno} column {exc.colno}: {exc.msg}") from exc
    except (RecursionError, ValueError) as exc:
        # nesting past the recursion limit, or an integer past int's digit limit
        raise InputError(f"{path}: cannot decode: {exc}") from exc


def document_digest(doc: dict) -> str:
    """Stable identity of an input document (sha256 of canonical JSON)."""
    canonical = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()
