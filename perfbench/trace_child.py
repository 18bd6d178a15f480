"""Run one `heisencoh` CLI command with timers at each stage boundary.

    python -X importtime perfbench/trace_child.py SPANS_JSON ARG...

ARG... are the arguments after `python -m heisencoh`.  Each module-level
function at a stage boundary is replaced, where its caller looks it up, by a
wrapper that records a span (name, start, end, parent span) and counts the
work it returned.  The program's files are not touched.  Spans stay in memory
and are written to SPANS_JSON when the command ends.
"""

import json
import sys
from time import perf_counter


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, index of the parent span or -1]
        self.counts = {}
        self._stack = []

    def call(self, name, fn, *args, **kwargs):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(idx)
        self.spans.append([name, perf_counter(), 0.0, parent])
        try:
            return fn(*args, **kwargs)
        finally:
            self.spans[idx][2] = perf_counter()
            self._stack.pop()

    def count(self, key, n=1):
        self.counts[key] = self.counts.get(key, 0) + n

    def wrap(self, owner, attr, name, counter=None):
        fn = getattr(owner, attr)

        def traced(*args, **kwargs):
            result = self.call(name, fn, *args, **kwargs)
            if counter is not None:
                counter(self, result, args)
            return result

        # a class attribute (PrecisionReal.parse) must not bind to instances
        setattr(owner, attr, staticmethod(traced) if isinstance(owner, type) else traced)


def install(tracer):
    from heisencoh import _scan, cli, coboundary, diophantine, precision

    def calls(key):
        return lambda t, result, args: t.count(key)

    def unit_points(t, ranges, args):
        t.count("scan.unit_points", sum(rs.hi - rs.lo for rs in ranges))

    def general_points(t, result, args):
        t.count("scan.general_points", sum(rd.n_scanned for rd in result[0]))

    def rescue(t, points, args):
        t.count("refine.rescue_calls")
        t.count("refine.rescue_points", len(points))

    def witnesses(t, report, args):
        t.count("classify.witnesses", len(report.witnesses))

    def modes(t, solution, args):
        t.count("coboundary.modes", sum(1 for k in args[0].g.keys() if any(k)))

    stages = [
        (cli, "read_coefficients", "coefficients.io", None),
        (cli, "write_coefficients", "coefficients.io", None),
        (precision.PrecisionReal, "parse", "precision.parse", None),
        (diophantine, "classify", "classify", witnesses),
        (_scan, "scan_unit", "scan.unit", unit_points),
        (diophantine, "_scan_general", "scan.general", general_points),
        (diophantine, "_refine_range_minimum", "refine.minima", calls("refine.minima_calls")),
        (_scan, "collect_below", "refine.rescue", rescue),
        (coboundary, "solve", "coboundary.solve", modes),
        # coboundary imports both by name; each solved mode meets them 4 times
        (coboundary, "phase_distance", "coboundary.divisor", calls("coboundary.divisor_calls")),
        (coboundary, "complex_divisor", "coboundary.divisor", calls("coboundary.divisor_calls")),
        (coboundary, "residual", "coboundary.residual", calls("coboundary.residual_calls")),
        (coboundary, "sobolev_loss", "coboundary.norms", None),
    ]
    for owner, attr, name, counter in stages:
        tracer.wrap(owner, attr, name, counter)
    return cli


def main():
    spans_path, argv = sys.argv[1], sys.argv[2:]
    start = perf_counter()
    import heisencoh.cli  # noqa: F401  (timed: the import every command pays)

    import_s = perf_counter() - start
    tracer = Tracer()
    cli = install(tracer)
    rc = tracer.call("cli", cli.main, argv)
    sys.stdout.flush()
    with open(spans_path, "w", encoding="utf-8") as fh:
        json.dump(
            {"import_s": import_s, "rc": rc, "spans": tracer.spans, "counts": tracer.counts},
            fh,
        )
    return rc


if __name__ == "__main__":
    sys.exit(main())
