"""Tracing from outside the program: wrappers around selfdual's bindings.

Each wrapper replaces the binding its callers actually look up (a module
global, a class attribute, or a name imported into another module), so
the program itself is unchanged. Functions that cost microseconds per
call are only counted; the rest record spans. Spans stay in memory and
are written once, by `Tracer.write`, when the run ends.
"""

import json
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

SPAN, COUNT = "span", "count"


def _commutator_extra(args, result):
    A, B = args[0], args[1]
    N = A.shape[0]
    nonzero = int((A != 0).sum()) + int((B != 0).sum())
    # two dense N x N products and one subtraction
    return {"flops_computed": 4 * N**3 + N**2,
            "operand_density": nonzero / (2 * A.size)}


def _apply_operator_extra(args, result):
    M, F = args[0], args[1]
    # two dense mat-vec products per Fourier mode
    return {"flops_computed": 4 * M.shape[0] * M.shape[1] * len(F.terms)}


def _closure_extra(args, result):
    return {"growth": max(0, len(result) - len(args[0]))}


def _products_extra(args, result):
    return {"products": len(args[0]._mi)}


def _render_extra(args, result):
    return {"bytes": len(result)}


def bindings(sd):
    """(owner, attribute, metric name, kind, extra) for every wrapped
    binding; `sd` maps selfdual module names to the imported modules."""
    ext, jets, ch = sd["exterior"], sd["jets"], sd["charts"]
    lie, dr, pl = sd["liealg"], sd["derham"], sd["polylinear"]
    el, ft, rp, cli = (sd["elliptic"], sd["fiber_transform"], sd["report"],
                       sd["cli"])
    table = [
        (ext, "wedge_axis", "exterior.wedge_axis", COUNT, None),
        (ext, "contract_axis", "exterior.contract_axis", COUNT, None),
        (jets.JetSpace, "mul_coeffs", "jets.mul_coeffs", COUNT,
         _products_extra),
        (jets.Jet, "partial", "jets.partial", COUNT, None),
        (jets.Jet, "embed", "jets.embed", SPAN, None),
        # charts imported jet_matrix_inverse by name
        (ch, "jet_matrix_inverse", "jets.jet_matrix_inverse", SPAN, None),
        (ch._ChartJets, "at", "charts.chart_jets", SPAN, None),
        (lie, "commutator", "liealg.commutator", SPAN, _commutator_extra),
        (lie, "closure_basis", "liealg.closure_basis", SPAN, _closure_extra),
        (dr, "apply_operator", "derham.apply_operator", SPAN,
         _apply_operator_extra),
        (rp, "render", "report.render", SPAN, _render_extra),
    ]
    plain = {
        ch: ["exterior_derivative", "hessian_metric", "chart_from_config",
             "build_XY", "chart_grid", "verify_weak_selfdual",
             "fibre_volume_product", "monge_ampere_residual"],
        lie: ["L", "verify_commutations", "verify_chevalley",
              "generated_dimension"],
        dr: ["d", "codifferential", "verify_skaid", "harmonic_action"],
        pl: ["normal_form", "pulled_back", "standard_basis",
             "is_compatible"],
        el: ["build_X", "recover_mirror_pair", "selfdual_full_check",
             "complexified_area"],
        ft: ["transform"],
    }
    for module, names in plain.items():
        short = module.__name__.rsplit(".", 1)[1]
        table.extend((module, n, f"{short}.{n}", SPAN, None) for n in names)
    # every suite entry point shares one name: its self time is the glue
    # between the layers below it
    table.extend((cli, n, "cli.suite", SPAN, None)
                 for n in vars(cli) if n.startswith("suite_"))
    return table


class Tracer:
    """Spans, self times, call counts and derived counters of one run."""

    def __init__(self, table):
        self.table = table
        self.op = None
        self.spans = []                      # [name, start, end, parent, op]
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.extra = defaultdict(float)
        self.calls_under = defaultdict(int)  # (name, parent name) -> calls
        self._stack = []                     # [span index, child time, name]

    def _span_wrapper(self, name, fn, extra):
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            frame = [len(spans), 0.0, name]
            start = perf_counter()
            spans.append([name, start, None, parent and parent[0], self.op])
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[frame[0]][2] = end
                self.calls[name] += 1
                self.self_s[name] += end - start - frame[1]
                if parent is not None:
                    self.calls_under[name, parent[2]] += 1
                    parent[1] += end - start
            if extra is not None:
                tick = perf_counter()
                for key, value in extra(args, result).items():
                    self.extra[f"{name}.{key}"] += value
                if parent is not None:
                    # the counters' own cost stays out of the parent's self
                    # time, as a child span's would
                    parent[1] += perf_counter() - tick
            return result
        return wrapper

    def _count_wrapper(self, name, fn, extra):
        calls, totals = self.calls, self.extra

        if extra is None:
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
        else:
            def wrapper(*args, **kwargs):
                calls[name] += 1
                result = fn(*args, **kwargs)
                for key, value in extra(args, result).items():
                    totals[f"{name}.{key}"] += value
                return result
        return wrapper

    @contextmanager
    def installed(self):
        """Wrap every binding in the table; restore the originals after."""
        saved = []
        try:
            for owner, attr, name, kind, extra in self.table:
                fn = vars(owner)[attr]
                make = self._span_wrapper if kind == SPAN else \
                    self._count_wrapper
                saved.append((owner, attr, fn))
                setattr(owner, attr, make(name, fn, extra))
            yield self
        finally:
            for owner, attr, fn in reversed(saved):
                setattr(owner, attr, fn)

    def write(self, path, header):
        """Write every span as [name index, start, end, parent, op]."""
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        rows = [[index[n], start, end, parent, op]
                for n, start, end, parent, op in self.spans]
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            json.dump(dict(header, names=names, spans=rows), fh,
                      separators=(",", ":"))
