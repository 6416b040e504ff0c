"""Built-in input documents: the standard small modules used everywhere.

Names:
  a21-ex1             three-vertex affine quiver, dims (3,3,3), I/J/I matrices
  a21-ex3             same quiver, dims (2,2,2)
  a21-ray:T           quasi-length-T module on the same ray (ex1 = T6, ex3 = T4)
  kronecker-reg:N     Kronecker quiver, dims (N,N), matrices I_N and J_N(0)
  kronecker-preproj:N Kronecker quiver, dims (N,N+1), the two shift inclusions
"""

from __future__ import annotations

from copy import deepcopy

from .errors import InputError

_A21_QUIVER = {
    "vertices": ["1", "2", "3"],
    "arrows": [
        {"id": "a12", "from": "1", "to": "2"},
        {"id": "a23", "from": "2", "to": "3"},
        {"id": "a13", "from": "1", "to": "3"},
    ],
}

_KRONECKER_QUIVER = {
    "vertices": ["1", "2"],
    "arrows": [
        {"id": "a", "from": "1", "to": "2"},
        {"id": "b", "from": "1", "to": "2"},
    ],
}


def _identity(n: int) -> list[list[str]]:
    return [[str(int(i == j)) for j in range(n)] for i in range(n)]


def _jordan_nilpotent(n: int) -> list[list[str]]:
    # superdiagonal ones: e_1 -> 0, e_{k+1} -> e_k
    return [[str(int(j == i + 1)) for j in range(n)] for i in range(n)]


def _a21_ray_document(t: int) -> dict:
    if t < 1:
        raise InputError("ray quasi-length must be at least 1")
    s, odd = divmod(t, 2)
    if odd:
        # dims (s, s+1, s): inclusion, truncated shift, identity
        dims = {"1": s, "2": s + 1, "3": s}
        a12 = [[str(int(i == j)) for j in range(s)] for i in range(s + 1)]
        a23 = [[str(int(j == i + 1)) for j in range(s + 1)] for i in range(s)]
        a13 = _identity(s)
    else:
        dims = {"1": s, "2": s, "3": s}
        a12 = _identity(s)
        a23 = _jordan_nilpotent(s)
        a13 = _identity(s)
    return {
        "metadata": {"name": f"a21-ray:{t}"},
        "quiver": deepcopy(_A21_QUIVER),
        "representation": {
            "dims": dims,
            "matrices": {"a12": a12, "a23": a23, "a13": a13},
        },
    }


def _kronecker_regular_document(n: int) -> dict:
    if n < 1:
        raise InputError("regular Kronecker size must be at least 1")
    return {
        "metadata": {"name": f"kronecker-reg:{n}"},
        "quiver": deepcopy(_KRONECKER_QUIVER),
        "representation": {
            "dims": {"1": n, "2": n},
            "matrices": {"a": _identity(n), "b": _jordan_nilpotent(n)},
        },
    }


def _kronecker_preprojective_document(n: int) -> dict:
    if n < 0:
        raise InputError("preprojective Kronecker size must be nonnegative")
    top = [[str(int(i == j)) for j in range(n)] for i in range(n + 1)]
    bottom = [[str(int(i == j + 1)) for j in range(n)] for i in range(n + 1)]
    return {
        "metadata": {"name": f"kronecker-preproj:{n}"},
        "quiver": deepcopy(_KRONECKER_QUIVER),
        "representation": {
            "dims": {"1": n, "2": n + 1},
            "matrices": {"a": top, "b": bottom},
        },
    }


def builtin_names() -> list[str]:
    return [
        "a21-ex1",
        "a21-ex3",
        "a21-ray:<t>",
        "kronecker-reg:<n>",
        "kronecker-preproj:<n>",
    ]


def emit_builtin(name: str) -> dict:
    """A fresh input document for a built-in module, by name; the caller may edit it."""
    if name == "a21-ex1":
        doc = _a21_ray_document(6)
        doc["metadata"]["name"] = "a21-ex1"
        return doc
    if name == "a21-ex3":
        doc = _a21_ray_document(4)
        doc["metadata"]["name"] = "a21-ex3"
        return doc
    if ":" in name:
        head, _, tail = name.partition(":")
        try:
            number = int(tail)
        except ValueError:
            raise InputError(f"bad numeric suffix in builtin name {name!r}") from None
        if head == "a21-ray":
            return _a21_ray_document(number)
        if head == "kronecker-reg":
            return _kronecker_regular_document(number)
        if head == "kronecker-preproj":
            return _kronecker_preprojective_document(number)
    raise InputError(
        f"unknown builtin {name!r}; valid names: {', '.join(builtin_names())}"
    )
