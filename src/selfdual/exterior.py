"""Exterior algebra kernels over a labeled real vector space.

Axis convention used by the whole package: for block parameters (n, s) the
d = n*(s+1) axes are ordered

    x_1 .. x_n, y1_1 .. y1_n, ..., ys_1 .. ys_n

i.e. one horizontal block followed by s fibre blocks.  A basis k-form is a
set of axes encoded as a bitmask over the d positions, expressed in the
increasing-axis-order basis.  A form on an exterior fibre is a dense
array over the 2**d masks; a two-form is also read as its antisymmetric
d x d matrix, with omega(u, v) = u^T A v and the coefficient of e_i ^ e_j
(i < j) at A[i, j].  Every sign in the package derives from this single
ordering, through the one-axis kernels wedge_axis and contract_axis;
axis_table turns a kernel into the signed arrays from which liealg,
derham and fiber_transform build their operators, and the chart exterior
derivative calls wedge_axis once per (field mask, axis) pair.  metric_fault is the one rule for
what counts as a metric.
"""

import functools

import numpy as np


class GeometryError(Exception):
    """Base class for structural failures detected by the library."""


class NotAMetric(GeometryError, ValueError):
    """A matrix that fails the metric rule (`metric_fault`)."""


class NotPositiveDefinite(NotAMetric):
    pass


def mask_axes(mask):
    """Sorted list of axis positions present in the bitmask."""
    out = []
    a = 0
    while mask:
        if mask & 1:
            out.append(a)
        mask >>= 1
        a += 1
    return out


def axes_mask(axes):
    m = 0
    for a in axes:
        bit = 1 << a
        if m & bit:
            raise ValueError("repeated axis %d" % a)
        m |= bit
    return m


def wedge_axis(mask, a):
    """e_a* wedge e_mask.  Returns (new_mask, sign) or None if a is in mask."""
    bit = 1 << a
    if mask & bit:
        return None
    # transpositions needed to move e_a past the axes below it
    sign = -1 if (mask & (bit - 1)).bit_count() & 1 else 1
    return mask | bit, sign


def contract_axis(mask, a):
    """Interior product of basis vector a with e_mask: (new_mask, sign) or None."""
    bit = 1 << a
    if not mask & bit:
        return None
    sign = -1 if (mask & (bit - 1)).bit_count() & 1 else 1
    return mask & ~bit, sign


@functools.lru_cache(maxsize=16)
def axis_table(dim, axis_op):
    """(source, sign), each of shape (dim, 2**dim), with
    axis_op(source[j, m], j) = (m, sign[j, m]); a mask m that no mask
    reaches along axis j reads source 2**dim and sign 0.

    The one step from a one-axis kernel (wedge_axis, contract_axis) to
    arrays: every operator on the exterior fibre is gathered from it.
    Cached per axis map, so a replaced kernel gets its own table.
    """
    size = 1 << dim
    source = np.full((dim, size), size)
    sign = np.zeros((dim, size))
    for j in range(dim):
        for mask in range(size):
            hit = axis_op(mask, j)
            if hit is None:
                continue
            target, s = hit
            if source[j, target] != size:
                raise ValueError(f"{axis_op.__name__} is not one-to-one")
            source[j, target], sign[j, target] = mask, s
    source.flags.writeable = sign.flags.writeable = False
    return source, sign


def metric_fault(g):
    """Why g is not a metric, or None: the one rule for every metric.

    A metric is a square matrix, finite (Cholesky lets NaN through and
    factors inf), symmetric to 1e-12 of its largest entry, and Cholesky-
    factorable. Each test is scale-free, so c*g passes exactly when g does.
    """
    g = np.asarray(g, dtype=float)
    if g.ndim != 2 or g.shape[0] != g.shape[1]:
        return "not square"
    if not np.all(np.isfinite(g)):
        return "not finite"
    size = np.max(np.abs(g), initial=0.0)
    if np.max(np.abs(g - g.T), initial=0.0) > 1e-12 * size:
        return "not symmetric"
    try:
        np.linalg.cholesky(g)
    except np.linalg.LinAlgError:
        return "not positive definite"
    return None


def _check_metric(g, dim):
    g = np.asarray(g, dtype=float)
    if g.shape != (dim, dim):
        raise ValueError("metric shape %s does not match dimension %d" % (g.shape, dim))
    fault = metric_fault(g)
    if fault == "not positive definite":
        raise NotPositiveDefinite("metric " + fault)
    if fault is not None:
        raise NotAMetric("metric " + fault)
    return g
