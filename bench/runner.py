"""In-process op runner: calls `ratsurf.cli.main(argv)` for each op it is sent.

Run with `src` on PYTHONPATH.  Each stdin line is the JSON argv list of one
op; the runner executes it and answers with one JSON line:

    {"rc", "out", "err", "s"[, "timeout" | "crash"][, "tree"]}

With `--trace`, every public function of the library modules, and
`cli.main`, is wrapped in every module namespace that binds it.  Each op
then carries its call tree: one node per call path, with the number of
calls, the total time, the first start and last end relative to the op's
start, and an item count for the functions listed in ITEM_COUNTS.  A node's
self time is its total minus the totals of its children.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import io
import json
import signal
import sys
import time
import traceback

OP_TIMEOUT_S = 60

LAYERS = ("picard", "cohom", "conditions", "powerseries", "theta", "cli")

#: Work counts taken from a wrapped function's result, and the metric field
#: each is reported under.
ITEM_COUNTS = {
    "conditions.enumerate_effective_below": ("items", len),
    "conditions.enumerate_decompositions": ("items", len),
    "conditions.check_a2": ("details", lambda report: len(report.details)),
    "theta.pushforward_decomposition": ("summands", lambda bundle: len(bundle.summands)),
}


class OpTimeout(BaseException):
    """Raised by SIGALRM in an op that ran past OP_TIMEOUT_S."""


def _on_alarm(signum, frame):
    raise OpTimeout


class _Node:
    __slots__ = ("name", "children", "calls", "total", "items", "start", "end")

    def __init__(self, name: str) -> None:
        self.name = name
        self.children: dict[str, _Node] = {}
        self.calls = 0
        self.total = 0.0
        self.items = 0
        self.start: float | None = None
        self.end = 0.0


class Tracer:
    """Call-tree recorder for the wrapped functions, reset for every op."""

    def __init__(self) -> None:
        self.begin_op()

    def begin_op(self) -> None:
        self.stack = [_Node("op")]
        self.t0 = time.perf_counter()

    def wrap(self, name: str, fn):
        _, count = ITEM_COUNTS.get(name, (None, None))
        perf_counter = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self.stack[-1]
            node = parent.children.get(name)
            if node is None:
                node = parent.children[name] = _Node(name)
            self.stack.append(node)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                self.stack.pop()
                node.calls += 1
                node.total += t1 - t0
                if node.start is None:
                    node.start = t0 - self.t0
                node.end = t1 - self.t0
            if count is not None:
                node.items += count(result)
            return result

        return traced

    def tree(self) -> list[list]:
        """Nodes of the current op as [parent index, name, calls, total_s, items, start_s, end_s]."""
        rows: list[list] = []

        def visit(node: _Node, parent: int) -> None:
            index = len(rows)
            rows.append([parent, node.name, node.calls, node.total, node.items, node.start, node.end])
            for child in node.children.values():
                visit(child, index)

        for child in self.stack[0].children.values():
            visit(child, -1)
        return rows


def install(tracer: Tracer) -> None:
    """Wrap the public functions of each layer wherever a module binds them."""
    modules = [importlib.import_module(f"ratsurf.{layer}") for layer in LAYERS]
    wrapped: dict[int, tuple[object, object]] = {}
    for module in modules:
        layer = module.__name__.rpartition(".")[2]
        for attr, value in vars(module).items():
            if (
                attr.startswith("_")
                or isinstance(value, type)
                or not callable(value)
                or getattr(value, "__module__", None) != module.__name__
                or (layer == "cli" and attr != "main")
            ):
                continue
            wrapped[id(value)] = (value, tracer.wrap(f"{layer}.{attr}", value))
    for module in [importlib.import_module("ratsurf"), *modules]:
        for attr, value in list(vars(module).items()):
            original, wrapper = wrapped.get(id(value), (None, None))
            if original is value:
                setattr(module, attr, wrapper)


def run_op(cli, argv: list[str], tracer: Tracer | None) -> dict:
    out, err = io.StringIO(), io.StringIO()
    result: dict = {"rc": None}
    if tracer is not None:
        tracer.begin_op()
    t0 = time.perf_counter()
    signal.setitimer(signal.ITIMER_REAL, OP_TIMEOUT_S)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            result["rc"] = cli.main(argv)
    except OpTimeout:
        result["timeout"] = True
    except Exception:  # a crash is a failed op, not a failed benchmark
        result["crash"] = traceback.format_exc()
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        result["s"] = time.perf_counter() - t0
    result["out"], result["err"] = out.getvalue(), err.getvalue()
    if tracer is not None:
        result["tree"] = tracer.tree()
    return result


def main() -> None:
    import ratsurf.cli as cli

    tracer = None
    if "--trace" in sys.argv[1:]:
        tracer = Tracer()
        install(tracer)
    signal.signal(signal.SIGALRM, _on_alarm)
    for line in sys.stdin:
        print(json.dumps(run_op(cli, json.loads(line), tracer)), flush=True)


if __name__ == "__main__":
    main()
