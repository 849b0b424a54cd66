"""The probe-and-solve route to a PLAut, kept as a test oracle.

sympt builds a PLAut from pieces its callers already hold: the corners of
Newton polygons in birational.tropicalize, the corner rays of circle
leaves in thompson.dyadic_to_plaut.  This route reads a map only through
its values: it probes the map on the rays of a fan and on each cone's
mediant, solves each cone from its two rays with plcore.cone_covector and
checks the solution on the mediant, so it is a second, independent route
to the same value.  It imports no sympy, so a test file that uses it runs
without sympy installed.
"""

from sympt.plcore import (AXES, PLAut, _sort_ccw, cone_covector, mat_apply,
                          mat_det, primitive, vec_add, wedge)


def from_function(fn, hint_rays):
    """The PLAut equal to fn, which maps Z^2 to Z^2 and must be linear on
    every cone of the fan spanned by hint_rays and the axes: fn is probed
    on each ray and on the mediant of each two adjacent rays."""
    rays = _sort_ccw([primitive(r) for r in hint_rays] + list(AXES))
    n = len(rays)
    return from_cones(rays, [fn(r) for r in rays],
                      [fn(vec_add(r, rays[(i + 1) % n]))
                       for i, r in enumerate(rays)])


def from_cones(rays, images, mediant_images):
    """The PLAut linear on each cone between adjacent rays, from the image
    of each ray and of each cone's mediant, checked as outside input.

    rays are primitive and wind once counterclockwise; images[i] is the
    image of rays[i] and mediant_images[i] that of rays[i] + rays[i+1].
    Each cone's matrix is solved from its two rays and checked on the
    mediant, so a non-integral solve, a piece of determinant other than 1
    or a hidden breakpoint raises ValueError, in that order, on the first
    cone from rays[0] where one occurs.
    """
    mats = []
    n = len(rays)
    for i in range(n):
        a, b = rays[i], rays[(i + 1) % n]
        wa, wb = images[i], images[(i + 1) % n]
        if wedge(a, b) <= 0:
            raise AssertionError("candidate rays out of order")
        top = cone_covector(a, b, wa[0], wb[0])
        bottom = cone_covector(a, b, wa[1], wb[1])
        if top is None or bottom is None:
            raise ValueError("map is not integrally linear on cone %r,%r"
                             % (a, b))
        m = top + bottom
        if mat_det(m) != 1:
            raise ValueError("piece on cone %r,%r has det %d, not 1"
                             % (a, b, mat_det(m)))
        if mediant_images[i] != mat_apply(m, vec_add(a, b)):
            raise ValueError("hidden breakpoint inside cone %r,%r" % (a, b))
        mats.append(m)
    return PLAut(tuple(rays), tuple(mats))
