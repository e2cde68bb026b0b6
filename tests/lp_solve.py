"""Solve an ``LpModel`` with scipy's HiGHS interface, for tests only.

The package emits models but solves none; this helper lets the tests
compare the optimal values of its formulations.  Import it after
``pytest.importorskip("scipy")``.
"""

import math

from scipy.optimize import Bounds, LinearConstraint, milp
from scipy.sparse import coo_array

_ROW_BOUNDS = {"<=": lambda rhs: (-math.inf, rhs),
               ">=": lambda rhs: (rhs, math.inf),
               "=": lambda rhs: (rhs, rhs)}


def solve_lp(model, relax=True):
    """Optimal objective value of the model, constant included.

    With ``relax`` every variable is continuous; otherwise the model's
    integer variables stay integer.  Raises when HiGHS reports anything
    but an optimum.
    """
    index = model._var_index
    cost = [0.0] * len(model.variables)
    for name, coef in model.objective.items():
        cost[index[name]] = coef
    rows, cols, values, lower, upper = [], [], [], [], []
    for k, row in enumerate(model.constraints):
        for name, coef in row.coefs.items():
            rows.append(k)
            cols.append(index[name])
            values.append(coef)
        lo, hi = _ROW_BOUNDS[row.sense](row.rhs)
        lower.append(lo)
        upper.append(hi)
    matrix = coo_array((values, (rows, cols)),
                       shape=(len(model.constraints), len(cost))).tocsr()
    result = milp(
        cost,
        constraints=LinearConstraint(matrix, lower, upper),
        bounds=Bounds([v.lower for v in model.variables],
                      [math.inf if v.upper is None else v.upper
                       for v in model.variables]),
        integrality=None if relax else [int(v.integer)
                                        for v in model.variables])
    if result.status != 0:
        raise RuntimeError("%s: %s" % (model.name, result.message))
    return result.fun + model.objective_constant
