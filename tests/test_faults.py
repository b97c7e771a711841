"""Planted faults: each row breaks one function of the package and names
exactly the records that must fail.

A record that no fault can flip states a claim the report does not
check. Each row monkeypatches one `selfdual` function, runs one command
line, and asserts exit 1, a report carrying every pinned record id, and
FAIL on exactly the named records. The pinned id lists are read from
`perfbench/workloads.py`, which these tests only load.
"""

import dataclasses
import importlib.util
import json
from pathlib import Path

import pytest

from selfdual import charts as ch
from selfdual import elliptic as el
from selfdual import exterior as ext
from selfdual import liealg
from selfdual import polylinear as pl
from selfdual.cli import main

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"


def load_workloads():
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", PERFBENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


WL = load_workloads()


def shifted_angle(build_X):
    """theta_1 read 0.01 off the gluing, the structure unchanged."""
    def faulty(p):
        data, F = build_X(p)
        return dataclasses.replace(data, theta_1=data.theta_1 + 0.01), F
    return faulty


def scaled_y1_circle(circle_lengths):
    """The y1 circle lengths scaled by 1.01, the structure unchanged."""
    def faulty(self):
        lengths = circle_lengths(self).copy()
        lengths[self.n : 2 * self.n] *= 1.01
        return lengths
    return faulty


def scaled_first_column(standard_basis):
    """Column 0 of the normal-form basis scaled by 1 + 1e-6."""
    def faulty(P):
        B = standard_basis(P).copy()
        B[:, 0] *= 1 + 1e-6
        return B
    return faulty


def scaled_pairing(L):
    """L(0, 1) scaled by 1 + 1e-6, every other operator exact."""
    def faulty(n, alpha, beta, s=2):
        M = L(n, alpha, beta, s)
        return (1 + 1e-6) * M if (alpha, beta) == (0, 1) else M
    return faulty


def flipped_wedge(wedge_axis):
    """The wedge sign flipped whenever the form already has an axis."""
    def faulty(mask, a):
        hit = wedge_axis(mask, a)
        return hit if hit is None or not mask else (hit[0], -hit[1])
    return faulty


def flipped_contract(contract_axis):
    """The contraction sign flipped whenever an axis is left after it."""
    def faulty(mask, a):
        hit = contract_axis(mask, a)
        return hit if hit is None or not hit[0] else (hit[0], -hit[1])
    return faulty


def negated_correction(at):
    """The dual form's base-correction term T read with the wrong sign:
    its x_j ^ y1_i entries negated, the metric's T as it is. The jets
    bundle is copied, so the cached one stays clean."""
    def faulty(self, p, order):
        out = at(self, p, order)
        base = (1 << self.chart.n) - 1
        omegaD = {mask: -1.0 * jet if mask & base else jet
                  for mask, jet in out["omegaD"].items()}
        return dict(out, omegaD=omegaD)
    return faulty


def open_pairing(name, axis_block):
    """A term added to one pairing's first jet that is 0 at the point and
    grows along the first axis of a fibre block none of its masks
    contains: the values, and so compatibility, stay as they are, and
    the pairing is no longer closed."""
    def fault(at):
        def faulty(self, p, order):
            out = at(self, p, order)
            field = dict(out[name])
            mask = next(iter(field))
            axis = axis_block * self.chart.n
            field[mask] = field[mask] + field[mask].space.variable(axis)
            return dict(out, **{name: field})
        return faulty
    return fault


def scaled_fibre_metric(at):
    """The metric's y1 block scaled by 1.001, the forms as they are."""
    def faulty(self, p, order):
        out = at(self, p, order)
        y1 = range(self.chart.n, 2 * self.chart.n)
        h = [[1.001 * jet if a in y1 and b in y1 else jet
              for b, jet in enumerate(row)] for a, row in enumerate(out["h"])]
        return dict(out, h=h)
    return faulty


LSE2D = ["affine-check", "--chart",
         str(ROOT / "demos" / "charts" / "lse2d.cfg"), "--points", "20"]

FAULTS = {
    "build_X-theta-1-shift": (
        el, "build_X", shifted_angle,
        ["mirror", "--tau", "0+1i", "--t", "0+0.5i"], WL.MIRROR_IDS,
        {"mirror-round-trip"}),
    # the lengths multiply to 1.01: the round trip reads ell_2 back as
    # Im t, and both unit-volume records read the product
    "circle_lengths-y1-scaled": (
        ch.FieldStructure, "circle_lengths", scaled_y1_circle,
        ["mirror", "--tau", "0+1i", "--t", "0+1i"], WL.MIRROR_IDS,
        {"mirror-round-trip", "unit-volume", "full-unit_fibre_volume"}),
    "standard_basis-column-0-scaled": (
        pl, "standard_basis", scaled_first_column,
        ["verify-pointwise", "--trials", "3"], WL.POINTWISE_IDS[:3],
        set(WL.POINTWISE_IDS[:3])),
    "omegaD-correction-negated": (
        ch._ChartJets, "at", negated_correction, LSE2D, WL.AFFINE_IDS,
        {"dual-form-closed"}),
    # omega1 pairs x with y1, so a y2 term opens it; omega2 the other way
    "omega1-not-closed": (
        ch._ChartJets, "at", open_pairing("omega1", 2), LSE2D,
        WL.AFFINE_IDS, {"pairing-1-closed"}),
    "omega2-not-closed": (
        ch._ChartJets, "at", open_pairing("omega2", 1), LSE2D,
        WL.AFFINE_IDS, {"pairing-2-closed"}),
    # the closures read no metric, and fibre-volume-product reads
    # hessian_metric, not h
    "h-y1-block-scaled": (
        ch._ChartJets, "at", scaled_fibre_metric, LSE2D, WL.AFFINE_IDS,
        {"pointwise-compatibility"}),
    "L-0-1-scaled": (
        liealg, "L", scaled_pairing, ["rep-check", "--n", "1"], WL.REP_IDS,
        {"bracket-family-1", "bracket-family-2", "bracket-family-3"}),
    "wedge_axis-sign": (
        ext, "wedge_axis", flipped_wedge,
        ["skaid-check", "--n", "1", "--N", "2", "--samples", "3"],
        WL.SKAID_IDS, {"identity-2", "identity-3", "identity-4"}),
    # the codifferential reads the kernel through a table cached per
    # kernel function, which this row would miss if it were cached per dim
    "contract_axis-sign": (
        ext, "contract_axis", flipped_contract,
        ["skaid-check", "--n", "1", "--N", "2", "--samples", "3"],
        WL.SKAID_IDS, {"identity-2", "identity-3", "identity-4"}),
}


@pytest.mark.parametrize("module,name,fault,argv,ids,failing",
                         FAULTS.values(), ids=FAULTS.keys())
def test_planted_fault_fails_exactly_its_records(capsys, monkeypatch, module,
                                                 name, fault, argv, ids,
                                                 failing):
    monkeypatch.setattr(module, name, fault(getattr(module, name)))
    code = main(argv)
    report = json.loads(capsys.readouterr().out)
    assert code == 1
    assert report["suite"] == argv[0]
    assert report["pass"] is False
    assert sorted(c["id"] for c in report["checks"]) == sorted(ids)
    for c in report["checks"]:
        assert set(c) == {"id", "anchor", "residual", "threshold", "verdict"}
    assert {c["id"] for c in report["checks"]
            if c["verdict"] == "FAIL"} == failing


# The pinned records that no planted fault flips, each with its reason.
# The list may only shrink: a record leaves it when some row fails it.
UNFLIPPED = {
    "fibre-volume-product": "identically 1 on every finite positive-"
                            "definite g: the volume of the unit quotient "
                            "times that of its metric-dual quotient is "
                            "sqrt(det g det g^-1) (ROADMAP item 11)",
    "refinement-stability": "identically 0 at every allowed --samples: "
                            "the fibre integral is exact, so doubling the "
                            "sample count changes nothing",
    "degree-bookkeeping": "checks the output's grades only, which a sign "
                          "fault leaves as they are",
}

# the transform reads both kernels through exterior.axis_table; each
# input meets a flipped sign on its way through T_1
KERNEL_REACH = {
    "wedge_axis": (flipped_wedge, "1"),
    "contract_axis": (flipped_contract, "dx"),
}


@pytest.mark.parametrize("name,fault,alpha", [
    (name, *row) for name, row in KERNEL_REACH.items()],
    ids=KERNEL_REACH.keys())
def test_kernel_fault_reaches_the_transform(capsys, monkeypatch, name, fault,
                                            alpha):
    argv = ["fm", "--tau", "0.5+2i", "--t", "0+0.25i", "--alpha", alpha,
            "--j", "1"]
    assert main(argv) == 0
    clean = json.loads(capsys.readouterr().out)
    monkeypatch.setattr(ext, name, fault(getattr(ext, name)))
    code = main(argv)
    report = json.loads(capsys.readouterr().out)
    assert report["data"]["output"] != clean["data"]["output"]
    # the output moved, yet every fm record passes
    assert code == 0
    assert sorted(c["id"] for c in report["checks"]) == sorted(WL.FM_IDS)
    assert {c["id"] for c in report["checks"]
            if c["verdict"] == "PASS"} == set(UNFLIPPED) & set(WL.FM_IDS)
