"""Run one qgrass CLI command with a span recorded around each layer call.

    python3 bench/traced.py SPANS_FILE RUN_ID -- <qgrass arguments>

Each wrapped attribute is replaced in the module that makes the call, so a
span covers exactly the calls that module makes into the next layer.  A span
is (name, start, end, parent index, size); spans stay in memory and are
written to SPANS_FILE as JSON when the command returns.  Stdout and the exit
code are those of the command itself.
"""

from __future__ import annotations

import importlib
import json
import sys
import time

# module -> attributes wrapped there; a span is named "<module tail>.<attr>"
WRAPS = {
    "qgrass.census": (
        "enumerate_subreps",
        "_subspaces_cached",
        "rref",
        "sub_quotient",
        "hom_ext",
        "reduce_mod_p",
    ),
    "qgrass.reps": ("rref",),
    "qgrass.tubes": ("census", "quasi_socle", "transverse_combinatorial", "reduce_mod_p"),
    "qgrass.cli": (
        "census",
        "compare_transverse_loci",
        "counting_polynomial",
        "_census_result",
        "_comparison_obj",
        "_emit",
        "parse_document",
        "reduce_mod_p",
    ),
}


def _result_len(args, result):
    return len(result)


def _matrix_entries(args, result):
    return args[0].rows * args[0].cols


# attribute -> the size a span records: cells or points returned, or the
# rows x cols of the matrix handed to rref; -1 when it cannot be read
SIZES = {
    "enumerate_subreps": _result_len,
    "_subspaces_cached": _result_len,
    "rref": _matrix_entries,
}


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn, size=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = [name, start, end, parent, 0]
            if size is not None:
                try:
                    spans[index][4] = size(args, result)
                except Exception:  # a changed signature must not break the traced program
                    spans[index][4] = -1
            return result

        return traced

    def install(self) -> list[str]:
        """Wrap every attribute in WRAPS; returns the ones that are missing."""
        missing = []
        for module_name, attrs in WRAPS.items():
            # import_module, not attribute access: the package re-exports a
            # function named census that shadows the qgrass.census module
            module = importlib.import_module(module_name)
            tail = module_name.rsplit(".", 1)[-1]
            for attr in attrs:
                if not hasattr(module, attr):
                    missing.append(f"{module_name}.{attr}")
                    continue
                setattr(module, attr, self.wrap(f"{tail}.{attr}", getattr(module, attr), SIZES.get(attr)))
        return missing

    def write(self, path: str):
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps({"run_id": self.run_id, "spans": self.spans}))


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[2] != "--":
        print(__doc__, file=sys.stderr)
        return 2
    spans_path, run_id, cli_args = argv[0], argv[1], argv[3:]
    tracer = Tracer(run_id)
    for name in tracer.install():
        print(f"traced: {name} not found, not traced", file=sys.stderr)
    code = importlib.import_module("qgrass.cli").main(cli_args)
    sys.stdout.flush()
    tracer.write(spans_path)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
