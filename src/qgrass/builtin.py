"""Built-in input documents: the standard small modules used everywhere.

Names:
  a21-ex1             three-vertex affine quiver, dims (3,3,3), I/J/I matrices
  a21-ex3             same quiver, dims (2,2,2)
  a21-ray:T           quasi-length-T module on the same ray (ex1 = T6, ex3 = T4)
  kronecker-reg:N     Kronecker quiver, dims (N,N), matrices I_N and J_N(0)
  kronecker-preproj:N Kronecker quiver, dims (N,N+1), the two shift inclusions
"""

from __future__ import annotations

from .errors import InputError

_KRONECKER_ARROWS = (("a", "1", "2"), ("b", "1", "2"))


def _ones(rows: int, cols: int, shift: int = 0) -> list[list[str]]:
    """The rows x cols 0/1 matrix, in strings, with ones at (i, i + shift)."""
    return [[str(int(j == i + shift)) for j in range(cols)] for i in range(rows)]


def _document(name: str, arrows, dims: dict[str, int], matrices: dict) -> dict:
    """A fresh document: the vertices are the keys of dims, the arrows (id, from, to)."""
    return {
        "metadata": {"name": name},
        "quiver": {
            "vertices": list(dims),
            "arrows": [{"id": a, "from": src, "to": dst} for a, src, dst in arrows],
        },
        "representation": {"dims": dims, "matrices": matrices},
    }


def _a21_ray(t: int):
    if t < 1:
        raise InputError("ray quasi-length must be at least 1")
    # even t: dims (s, s, s), matrices I, J(0), I; odd t: dims (s, s+1, s),
    # an inclusion, a truncated shift and I
    s, odd = divmod(t, 2)
    arrows = (("a12", "1", "2"), ("a23", "2", "3"), ("a13", "1", "3"))
    matrices = {"a12": _ones(s + odd, s), "a23": _ones(s, s + odd, 1), "a13": _ones(s, s)}
    return arrows, {"1": s, "2": s + odd, "3": s}, matrices


def _kronecker_regular(n: int):
    if n < 1:
        raise InputError("regular Kronecker size must be at least 1")
    return _KRONECKER_ARROWS, {"1": n, "2": n}, {"a": _ones(n, n), "b": _ones(n, n, 1)}


def _kronecker_preprojective(n: int):
    if n < 0:
        raise InputError("preprojective Kronecker size must be nonnegative")
    matrices = {"a": _ones(n + 1, n), "b": _ones(n + 1, n, -1)}
    return _KRONECKER_ARROWS, {"1": n, "2": n + 1}, matrices


# family -> (builder of its arrows, dims and matrices, placeholder of its number)
_FAMILIES = {
    "a21-ray": (_a21_ray, "t"),
    "kronecker-reg": (_kronecker_regular, "n"),
    "kronecker-preproj": (_kronecker_preprojective, "n"),
}
# alias -> (family, number); an alias keeps its own name
_ALIASES = {"a21-ex1": ("a21-ray", 6), "a21-ex3": ("a21-ray", 4)}


def builtin_names() -> list[str]:
    return [*_ALIASES, *(f"{family}:<{p}>" for family, (_, p) in _FAMILIES.items())]


def emit_builtin(name: str) -> dict:
    """A fresh input document for a built-in module, by name; the caller may edit it."""
    if name in _ALIASES:
        family, number = _ALIASES[name]
        return _document(name, *_FAMILIES[family][0](number))
    family, colon, tail = name.partition(":")
    if colon:
        try:
            number = int(tail)
        except ValueError:
            raise InputError(f"bad numeric suffix in builtin name {name!r}") from None
        if family in _FAMILIES:
            return _document(f"{family}:{number}", *_FAMILIES[family][0](number))
    raise InputError(
        f"unknown builtin {name!r}; valid names: {', '.join(builtin_names())}"
    )
