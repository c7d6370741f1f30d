"""The exact rational route is the reference everything else is tested
against, so it gets its own direct tests: hand-derived values, symbolic
closed forms, and internal cross-checks (closed-form norm vs direct sum,
exact orthogonality).
"""

import ast
from fractions import Fraction
from pathlib import Path

import pytest

import hahnpoly
from hahnpoly.errors import DomainError
from hahnpoly.oracle_exact import (
    exact_hahn_column,
    exact_hahn_eval,
    exact_inner_product,
    exact_norm_sq,
    exact_norms_sq,
    exact_pochhammer,
    exact_weight,
)

HALF = Fraction(1, 2)
PARAM_SETS = [(Fraction(0), Fraction(0)), (HALF, HALF), (Fraction(5), Fraction(0))]
RECURRENCE_SETS = PARAM_SETS + [(-HALF, Fraction(3))]


def test_pochhammer_hand_values():
    assert exact_pochhammer(-30, 3) == -24360
    assert exact_pochhammer(Fraction(7, 3), 0) == 1
    assert exact_pochhammer(1, 5) == 120
    assert exact_pochhammer(HALF, 3) == Fraction(1, 2) * Fraction(3, 2) * Fraction(5, 2)


def test_pochhammer_negative_k_raises():
    with pytest.raises(DomainError):
        exact_pochhammer(2, -1)


@pytest.mark.parametrize("alpha,beta", PARAM_SETS)
@pytest.mark.parametrize("N", [4, 9])
def test_degree_one_closed_form(alpha, beta, N):
    # Q_1(x) = 1 - (alpha+beta+2) x / ((alpha+1) N), exact in rationals
    for x in range(N + 1):
        expect = 1 - (alpha + beta + 2) * x / ((alpha + 1) * N)
        assert exact_hahn_eval(1, x, alpha, beta, N) == expect


def test_hand_derived_values():
    # two fixed points worked out by hand from the terminating series
    assert exact_hahn_eval(2, 1, HALF, HALF, 4) == Fraction(-1, 3)
    assert exact_hahn_eval(2, 5, HALF, HALF, 30) == Fraction(61, 261)


@pytest.mark.parametrize("alpha,beta", PARAM_SETS)
def test_value_one_at_zero(alpha, beta):
    N = 8
    for n in range(N + 1):
        assert exact_hahn_eval(n, 0, alpha, beta, N) == 1


def test_weight_uniform_and_binomial():
    # alpha = beta = 0 gives the flat weight
    assert all(exact_weight(x, 0, 0, 6) == 1 for x in range(7))
    # (alpha=5, beta=0): w(1) = C(6,1) = 6
    assert exact_weight(1, 5, 0, 30) == 6


@pytest.mark.parametrize("alpha,beta,N", [(0, 0, 6), (5, 0, 30), (HALF, HALF, 12),
                                           (Fraction(-9, 10), Fraction(7, 3), 20),
                                           (-0.999, 1e3, 30), (1e12, 0.5, 7)])
def test_weight_equals_pochhammer_quotient(alpha, beta, N):
    a, b = Fraction(alpha), Fraction(beta)
    for x in range(N + 1):
        want = (exact_pochhammer(a + 1, x) / exact_pochhammer(1, x)
                * exact_pochhammer(b + 1, N - x) / exact_pochhammer(1, N - x))
        assert exact_weight(x, alpha, beta, N) == want


def test_weight_reflection_symmetry():
    # alpha = beta makes w symmetric about the grid midpoint, exactly
    for x in range(13):
        assert exact_weight(x, HALF, HALF, 12) == exact_weight(12 - x, HALF, HALF, 12)


@pytest.mark.parametrize("alpha,beta", PARAM_SETS)
def test_norm_closed_form_equals_direct_sum(alpha, beta):
    N = 9
    for n in range(N + 1):
        assert exact_norm_sq(n, alpha, beta, N) == exact_inner_product(n, n, alpha, beta, N)


@pytest.mark.parametrize("alpha,beta", PARAM_SETS)
def test_exact_orthogonality(alpha, beta):
    N = 7
    for n in range(N + 1):
        for m in range(n):
            assert exact_inner_product(n, m, alpha, beta, N) == 0


def test_norms_positive():
    for n in range(11):
        assert exact_norm_sq(n, HALF, HALF, 10) > 0


def test_domain_errors():
    with pytest.raises(DomainError):
        exact_hahn_eval(3, 1, Fraction(-1), 0, 8)
    with pytest.raises(DomainError):
        exact_hahn_eval(9, 1, 0, 0, 8)
    with pytest.raises(DomainError):
        exact_weight(9, 0, 0, 8)
    with pytest.raises(DomainError):
        exact_norm_sq(2, 0, 0, 201)
    with pytest.raises(DomainError):
        exact_hahn_column(0, 0, 0, 201)
    with pytest.raises(DomainError):
        exact_norms_sq(Fraction(-1), 0, 8)


# The recurrence route (a column of every degree at one point, every norm
# at once) against the series and the closed form, which share nothing
# with it but the definition of Q_n.

@pytest.mark.parametrize("alpha,beta", RECURRENCE_SETS)
@pytest.mark.parametrize("N", [1, 2, 12, 40])
def test_column_equals_series(alpha, beta, N):
    for x in (0, 1, Fraction(N, 2), N - 1, N, Fraction(7, 2)):
        col = exact_hahn_column(x, alpha, beta, N)
        assert col == [exact_hahn_eval(n, x, alpha, beta, N) for n in range(N + 1)], x


@pytest.mark.parametrize("alpha,beta", RECURRENCE_SETS)
@pytest.mark.parametrize("N", [1, 2, 12, 40])
def test_norms_recurrence_equals_closed_form(alpha, beta, N):
    assert exact_norms_sq(alpha, beta, N) == [
        exact_norm_sq(n, alpha, beta, N) for n in range(N + 1)]


def test_column_and_norms_at_the_cap():
    # N = 200 is inside the exact route; spot values against the series
    col = exact_hahn_column(3, HALF, HALF, 200)
    assert len(col) == 201
    for n in (0, 1, 2, 57, 199, 200):
        assert col[n] == exact_hahn_eval(n, 3, HALF, HALF, 200)
    norms = exact_norms_sq(5, 0, 200)
    for n in (0, 1, 100, 200):
        assert norms[n] == exact_norm_sq(n, 5, 0, 200)


PACKAGE = Path(hahnpoly.__file__).resolve().parent


def _package_imports(path: Path) -> set[str]:
    # the package modules a module imports, at any depth of its code;
    # a name imported from the package itself that is not a module counts
    # as an import of __init__
    modules = {p.stem for p in PACKAGE.glob("*.py")}
    out = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            names = [a.name for a in node.names if a.name.split(".")[0] == "hahnpoly"]
            out.update(n.split(".")[1] if "." in n else "__init__" for n in names)
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level == 0:
                if module.split(".")[0] != "hahnpoly":
                    continue
                module = module.partition(".")[2]
            if module:
                out.add(module.split(".")[0])
            else:
                out.update(a.name if a.name in modules else "__init__" for a in node.names)
    return out


def test_oracle_stays_independent():
    # the exact routes are the reference the float modules are tested
    # against: they borrow nothing from them.  Of the package only the
    # checks behind `verify` read the integer route, and nothing reads the
    # Fraction API built on it
    imports = {p.stem: _package_imports(p) for p in PACKAGE.glob("*.py")}
    readers = {m for m, names in imports.items() if "oracle_ratios" in names}
    assert readers == {"checks", "oracle_exact"}
    assert not {m for m, names in imports.items() if "oracle_exact" in names}
    assert imports["oracle_ratios"] == {"errors"}
    assert imports["oracle_exact"] == {"errors", "oracle_ratios"}
    # the walk does see imports
    assert imports["hahn"] >= {"_compensated", "errors", "specfun"}
