"""The one worst-case reduction and the one pass rule."""

import itertools
import json
import math

import numpy as np
from hypothesis import given, strategies as st

from selfdual import report as rp


def test_worst_propagates_nan():
    assert math.isnan(rp.worst([0.0, math.nan, 1.0]))
    assert math.isnan(rp.worst([np.float64("nan")]))


def test_worst_of_no_cases_is_infinite():
    assert rp.worst([]) == math.inf
    assert rp.worst(iter(())) == math.inf


def test_worst_keeps_infinity():
    assert rp.worst([1.0, math.inf]) == math.inf


@given(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                min_size=1))
def test_worst_equals_max_on_finite_input(values):
    got = rp.worst(values)
    assert got == max(values)
    assert type(got) is float


@given(st.lists(st.one_of(st.floats(), st.just(math.inf),
                          st.just(math.nan)), max_size=5))
def test_worst_ignores_the_order_of_its_cases(values):
    # verify_skaid visits its (operator, form) cases forms first
    want = rp.worst(values)
    for order in itertools.permutations(values):
        got = rp.worst(order)
        assert got == want or math.isnan(got) and math.isnan(want)


def test_non_finite_residual_fails_and_renders():
    for bad in (math.nan, math.inf, -math.inf):
        record = rp.check("x", "anchor", bad, 1.0)
        assert record["verdict"] == "FAIL"
        report = rp.make_report("suite", {}, [record])
        assert report["pass"] is False
        rendered = json.loads(rp.render(report))
        assert rendered["checks"][0]["residual"] == str(bad)
    assert rp.check("x", "anchor", 0.5, 1.0)["verdict"] == "PASS"
    assert rp.check("x", "anchor", 1.0, 1.0)["verdict"] == "FAIL"


def test_render_encodes_non_finite_data():
    report = rp.make_report("suite", {}, [rp.check("x", "a", 0.0, 1.0)],
                            {"values": [math.inf, 1.5], "z": (math.nan,)})
    rendered = json.loads(rp.render(report))
    assert rendered["data"] == {"values": ["inf", 1.5], "z": ["nan"]}


def test_no_checks_never_pass():
    assert rp.make_report("suite", {}, [])["pass"] is False
    assert rp.make_bundle("all", {}, [])["pass"] is False
    ok = rp.make_report("suite", {}, [rp.check("x", "a", 0.0, 1.0)])
    assert rp.make_bundle("all", {}, [ok, ok])["pass"] is True
