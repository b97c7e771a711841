"""Report assembly: check records, convention headers, JSON rendering.

Every verdict in the package is decided here: `worst` is the one
worst-case reduction over a check's cases and `check` the one
`residual < threshold` rule. Reports are plain dicts rendered with
sorted keys and fixed float formatting, so a fixed seed and config
produce byte-identical output. Timing never enters the report body; the
CLI routes it to stderr.
"""

import json
import math

SCHEMA_VERSION = 1

CONVENTIONS = {
    "axis_order": "base axes first, then the fibre blocks in order; "
                  "axis index = block*n + i",
    "sign": "forms and contractions follow the ascending axis order; "
            "fibre integration contracts the fibre tangent into the "
            "first slot",
    "monodromy": "angles are the real-part translations of the gluing, "
                 "reported mod 1 ('re' convention)",
    "area_normalization": "complexified areas keep the bare convention; "
                          "multiply by 2*pi to compare with the scaled one",
}


def worst(residuals):
    """Largest residual over a check's cases.

    NaN and infinities propagate, and no cases at all give inf, so a
    broken or vacuous check fails instead of reading as 0.0.
    """
    values = [float(r) for r in residuals]
    if any(map(math.isnan, values)):
        return math.nan
    return max(values, default=math.inf)


def check(check_id, anchor, residual, threshold):
    """One check record; it passes only on a finite residual below the
    threshold."""
    residual = float(residual)
    threshold = float(threshold)
    passed = math.isfinite(residual) and residual < threshold
    return {
        "id": check_id,
        "anchor": anchor,
        "residual": residual,
        "threshold": threshold,
        "verdict": "PASS" if passed else "FAIL",
    }


def _assemble(suite, config, key, items, passed):
    # an empty report is vacuous and never passes
    return {"suite": suite, "schema_version": SCHEMA_VERSION,
            "conventions": CONVENTIONS, "config": config, key: items,
            "pass": bool(items) and passed}


def make_report(suite, config, checks, data=None):
    """A suite report; it passes when every check passed."""
    report = _assemble(suite, config, "checks", checks,
                       all(c["verdict"] == "PASS" for c in checks))
    if data is not None:
        report["data"] = data
    return report


def make_bundle(suite, config, reports):
    """A report of suite reports; it passes when each of them passes."""
    return _assemble(suite, config, "reports", reports,
                     all(r["pass"] for r in reports))


def _json_safe(node):
    # JSON has no NaN or infinity: they travel as "nan", "inf", "-inf"
    if isinstance(node, float):
        return node if math.isfinite(node) else str(node)
    if isinstance(node, dict):
        return {key: _json_safe(value) for key, value in node.items()}
    if isinstance(node, (list, tuple)):
        return [_json_safe(value) for value in node]
    return node


def render(report):
    return json.dumps(_json_safe(report), indent=2, sort_keys=True,
                      allow_nan=False)


def complex_str(z):
    z = complex(z)
    return f"{z.real:.12g}{z.imag:+.12g}i"
