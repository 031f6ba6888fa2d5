"""Run one ``fingersense`` CLI command with every layer traced.

Usage (from the repository root, with ``src`` on ``PYTHONPATH``)::

    python3 perfbench/traced.py SPANS.json <fingersense arguments...>

The script times the import of ``fingersense.cli``, then replaces each
public function of the layer modules (``geometry``, ``render``, ``pgm``,
``imaging``, ``calibration``, ``blocksworld``, ``config``, ``cli``) with a
wrapper that records a span, under every module name the function is bound
to, and runs ``fingersense.cli.main`` on the remaining arguments.  The
``TactileImage`` and ``DiffImage`` constructors and the ``ndimage.label`` call
made by ``imaging`` are traced as well.  Spans stay in memory and are written
to SPANS.json when the command ends; nothing under ``src/`` is modified.

A span is ``[name, start_ns, end_ns, parent_index, counts]``.  Counts (work
sizes such as pixels imprinted or components labelled) are taken after the
traced call returns, inside a ``trace.count`` span that is a sibling of the
counted call, so their cost is neither in the layer's time nor in its
parent's self time.  Timestamps come from ``time.perf_counter_ns``, which on
Linux reads the system-wide monotonic clock, so the parent process can
compare them with its own.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import sys
import time

clock = time.perf_counter_ns

# Module name -> span prefix.  ``config`` keeps its own prefix; the analysis
# counts it in the ``cli`` layer.
LAYER_MODULES = ("geometry", "render", "pgm", "imaging", "calibration", "blocksworld", "config", "cli")


class Tracer:
    """In-memory span recorder for one process."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = [-1]

    def wrap(self, fn, name: str, count=None, suffix=None):
        """Return ``fn`` wrapped so that each call records a span.

        ``count(bound_arguments, result)`` returns a dict of work sizes for
        the call; ``suffix(bound_arguments)`` extends the span name.
        """
        signature = inspect.signature(fn) if (count or suffix) else None
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            bound = signature.bind(*args, **kwargs) if signature else None
            span_name = f"{name}.{suffix(bound)}" if suffix else name
            parent = stack[-1]
            index = len(spans)
            span = [span_name, 0, 0, parent, None]
            spans.append(span)
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                span[1] = start
                stack.pop()
            if count is not None:
                count_start = clock()
                span[4] = count(bound, result)
                spans.append(["trace.count", count_start, clock(), parent, None])
            return result

        return traced

    def install(self) -> None:
        import numpy as np

        from fingersense import imaging, render

        def imprint(bound, image):
            return {"imprint_px": int(np.count_nonzero(image.pixels != render.BACKGROUND_INTENSITY))}

        def file_bytes(key):
            return lambda bound, result: {key: os.stat(bound.arguments["path"]).st_size}

        counters = {
            "render.render_contact": imprint,
            "pgm.write_pgm": file_bytes("bytes_written"),
            "pgm.read_pgm": file_bytes("bytes_read"),
            "imaging.detect_blobs": lambda bound, blobs: {"blobs_kept": len(blobs)},
            "calibration.load_correspondences": lambda bound, cs: {"points": len(cs)},
            "blocksworld.run_batch": lambda bound, m: {"boards": bound.arguments["n_boards"]},
        }
        suffixes = {"blocksworld.run_batch": lambda bound: bound.arguments["kind"].value}

        modules = [sys.modules[f"fingersense.{name}"] for name in LAYER_MODULES]
        wrappers = {}
        for module in modules:
            prefix = module.__name__.rpartition(".")[2]
            for attr, obj in vars(module).items():
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__module__ != module.__name__:
                    continue
                name = f"{prefix}.{attr}"
                wrappers[obj] = self.wrap(obj, name, counters.get(name), suffixes.get(name))

        # Rebind every name a wrapped function is known by, in every
        # fingersense module, so calls through imports are traced too.
        for module_name, module in list(sys.modules.items()):
            if module is None or not (module_name == "fingersense" or module_name.startswith("fingersense.")):
                continue
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    setattr(module, attr, wrappers[obj])

        for cls in (imaging.TactileImage, imaging.DiffImage):
            cls.__init__ = self.wrap(cls.__init__, f"imaging.{cls.__name__}")

        label = self.wrap(
            imaging.ndimage.label,
            "imaging.label",
            count=lambda bound, result: {"components": int(result[1])},
        )
        imaging.ndimage = _NdimageView(imaging.ndimage, label)


class _NdimageView:
    """``scipy.ndimage`` as ``imaging`` sees it, with ``label`` traced."""

    def __init__(self, module, label) -> None:
        self._module = module
        self.label = label

    def __getattr__(self, name):
        return getattr(self._module, name)


def main() -> int:
    if len(sys.argv) < 3:
        print("usage: traced.py SPANS.json <fingersense arguments...>", file=sys.stderr)
        return 2
    out_path, argv = sys.argv[1], sys.argv[2:]
    import_start = clock()
    import fingersense.cli

    import_end = clock()
    tracer = Tracer()
    tracer.install()
    code = 1
    try:
        code = fingersense.cli.main(argv)
    finally:
        with open(out_path, "w") as fh:
            json.dump({"import_ns": [import_start, import_end], "spans": tracer.spans}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
