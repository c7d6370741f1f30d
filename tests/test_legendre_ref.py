"""Legendre values, the Newton-iteration Gauss rule (cross-checked against
numpy's independent implementation and a node-by-node reference loop), and
series coefficients."""

import math

import numpy as np
import pytest

from hahnpoly import legendre_ref
from hahnpoly.errors import ConvergenceFailureError, DomainError
from hahnpoly.legendre_ref import gauss_legendre_rule, legendre_coeffs, legendre_eval


def test_legendre_low_degrees():
    for t in (-0.7, 0.0, 0.3, 1.0):
        assert legendre_eval(0, t) == 1.0
        assert legendre_eval(1, t) == t
        assert legendre_eval(2, t) == pytest.approx(1.5 * t * t - 0.5, rel=1e-15, abs=0)
    assert legendre_eval(4, 0.0) == pytest.approx(3.0 / 8.0, rel=1e-15, abs=0)


def test_legendre_endpoint_and_parity():
    for n in range(21):
        assert legendre_eval(n, 1.0) == pytest.approx(1.0, rel=1e-13, abs=0)
        assert legendre_eval(n, -0.42) == pytest.approx(
            (-1.0) ** n * legendre_eval(n, 0.42), rel=1e-12, abs=1e-15
        )


def test_legendre_degree_validation():
    with pytest.raises(DomainError):
        legendre_eval(-1, 0.0)
    with pytest.raises(DomainError):
        legendre_eval(500, 0.0)


def test_gauss_rule_two_points():
    rule = gauss_legendre_rule(2)
    r = 1.0 / math.sqrt(3.0)
    assert rule.nodes == pytest.approx([-r, r], abs=1e-15)
    assert rule.weights == pytest.approx([1.0, 1.0], abs=1e-14)


@pytest.mark.parametrize("q", [1, 2, 5, 12, 30])
def test_gauss_rule_basics(q):
    rule = gauss_legendre_rule(q)
    assert rule.npoints == q
    assert np.all(np.diff(rule.nodes) > 0)
    assert np.all(rule.weights > 0)
    assert np.all(np.abs(rule.nodes) < 1.0)
    assert math.fsum(rule.weights) == pytest.approx(2.0, abs=1e-13)


def test_gauss_rule_monomial_exactness():
    # a q-point rule integrates t^j exactly through j = 2q - 1
    rule = gauss_legendre_rule(12)
    for j in range(24):
        got = math.fsum(rule.weights * rule.nodes**j)
        expect = 0.0 if j % 2 else 2.0 / (j + 1)
        assert got == pytest.approx(expect, abs=2e-15)


def test_gauss_rule_high_order_exactness():
    # top of the supported range: 40 points are exact through degree 79
    rule = gauss_legendre_rule(40)
    for j in (78, 79):
        got = math.fsum(rule.weights * rule.nodes**j)
        expect = 0.0 if j % 2 else 2.0 / (j + 1)
        assert got == pytest.approx(expect, abs=5e-15)


def test_legendre_orthogonality_under_rule():
    rule = gauss_legendre_rule(40)
    vals = np.array([[legendre_eval(n, t) for t in rule.nodes] for n in range(31)])
    gram = (vals * rule.weights) @ vals.T
    off = gram - np.diag(np.diag(gram))
    assert np.max(np.abs(off)) < 1e-12


def test_gauss_rule_matches_numpy():
    # independent route: numpy's Golub-Welsch style implementation
    for q in (7, 30):
        rule = gauss_legendre_rule(q)
        nodes, weights = np.polynomial.legendre.leggauss(q)
        assert np.max(np.abs(rule.nodes - nodes)) < 1e-13
        assert np.max(np.abs(rule.weights - weights)) < 1e-13


# The rule as it was built before Newton ran over all nodes at once: one
# node at a time, each step restarting a scalar recurrence for P_q, P_q'.

def _loop_legendre_pair(n, t):
    pm, p = 1.0, t
    for j in range(1, n):
        pm, p = p, ((2 * j + 1) * t * p - j * pm) / (j + 1)
    return p, n * (t * p - pm) / (t * t - 1.0)


def _loop_gauss_rule(q):
    nodes, weights = np.empty(q), np.empty(q)
    for i in range(1, q + 1):
        t = math.cos(math.pi * (4 * i - 1) / (4 * q + 2))
        for _ in range(100):
            p, dp = _loop_legendre_pair(q, t)
            step = p / dp
            t -= step
            if abs(step) <= 1e-15 * max(1.0, abs(t)):
                break
        _, dp = _loop_legendre_pair(q, t)
        nodes[i - 1] = t
        weights[i - 1] = 2.0 / ((1.0 - t * t) * dp * dp)
    order = np.argsort(nodes)
    return nodes[order], weights[order]


def test_gauss_rule_equals_node_loop_bit_for_bit():
    for q in range(1, 201):
        rule = gauss_legendre_rule(q)
        nodes, weights = _loop_gauss_rule(q)
        assert np.array_equal(rule.nodes.view(np.int64), nodes.view(np.int64)), q
        assert np.array_equal(rule.weights.view(np.int64), weights.view(np.int64)), q


def test_gauss_rule_names_the_stalled_node(monkeypatch):
    # one Newton step leaves every node of a 5-point rule short of the
    # tolerance; the first node in guess order is named
    monkeypatch.setattr(legendre_ref, "_NEWTON_MAX_ITER", 1)
    with pytest.raises(ConvergenceFailureError, match=r"^Newton stalled at node 1 of 5$"):
        gauss_legendre_rule(5)


def test_gauss_rule_stalls_after_coeffs_cached_it(monkeypatch):
    # legendre_coeffs' cached rule leaves the public function uncached:
    # with q = 25 already cached, a call still runs Newton and still raises
    legendre_coeffs(lambda t: t, 5)
    monkeypatch.setattr(legendre_ref, "_NEWTON_MAX_ITER", 1)
    with pytest.raises(ConvergenceFailureError, match=r"^Newton stalled at node \d+ of 25$"):
        gauss_legendre_rule(25)


def test_gauss_rule_validation():
    with pytest.raises(DomainError):
        gauss_legendre_rule(0)
    with pytest.raises(DomainError):
        gauss_legendre_rule(500)


def test_coeffs_of_quadratic_exact():
    # t^2 = (1/3) P_0 + (2/3) P_2
    c = legendre_coeffs(lambda t: t * t, 6)
    expect = np.array([1.0 / 3.0, 0.0, 2.0 / 3.0, 0.0, 0.0, 0.0, 0.0])
    assert np.max(np.abs(c - expect)) < 1e-14


def test_coeffs_of_sine():
    # first odd coefficient of sin(pi t) is 3/pi; even ones vanish
    c = legendre_coeffs(lambda t: math.sin(math.pi * t), 10)
    assert c[1] == pytest.approx(3.0 / math.pi, rel=1e-12, abs=0)
    assert np.max(np.abs(c[0::2])) < 1e-14
    # magnitudes fall fast for the analytic target once past the peak at a_3
    odd = np.abs(c[1::2])
    assert np.all(odd[2:] < odd[1:-1])
    assert odd[-1] < 1e-3


def test_coeffs_degree_validation():
    with pytest.raises(DomainError):
        legendre_coeffs(lambda t: t, 181)


def test_coeffs_build_one_rule_per_point_count(monkeypatch):
    builds = []

    def counted(q):
        builds.append(q)
        return gauss_legendre_rule(q)

    monkeypatch.setattr(legendre_ref, "gauss_legendre_rule", counted)
    legendre_ref._cached_rule.cache_clear()
    f = lambda t: 1.0 / (1.0 + 25.0 * t * t)  # noqa: E731
    first = legendre_coeffs(f, 37)
    again = legendre_coeffs(f, 37)
    assert np.array_equal(first.view(np.int64), again.view(np.int64))
    legendre_coeffs(f, 20)
    assert builds == [57, 40]
    # the cached rule equals a fresh one and cannot be written through
    rule, table = legendre_ref._cached_rule(57)
    fresh = gauss_legendre_rule(57)
    for got, want in ((rule.nodes, fresh.nodes), (rule.weights, fresh.weights)):
        assert np.array_equal(got.view(np.int64), want.view(np.int64))
        assert not got.flags.writeable
    assert not table.flags.writeable
    assert builds == [57, 40]


# The per-(degree, node) route legendre_coeffs took before it read one
# sweep over all nodes: a scalar recurrence restarted for every pair.

def _loop_legendre_eval(n, t):
    if n == 0:
        return 1.0
    pm, p = 1.0, t
    for j in range(1, n):
        pm, p = p, ((2 * j + 1) * t * p - j * pm) / (j + 1)
    return p


def _loop_legendre_coeffs(f, m):
    rule = gauss_legendre_rule(m + 20)
    fvals = np.array([f(t) for t in rule.nodes])
    out = np.empty(m + 1)
    for n in range(m + 1):
        pvals = np.array([_loop_legendre_eval(n, t) for t in rule.nodes])
        out[n] = (2 * n + 1) / 2.0 * math.fsum(rule.weights * fvals * pvals)
    return out


TARGETS = [lambda t: math.sin(math.pi * t), lambda t: 1.0 / (1.0 + 25.0 * t * t),
           lambda t: math.exp(t) * t**3]


@pytest.mark.parametrize("m,targets", [(0, TARGETS), (1, TARGETS), (2, TARGETS),
                                       (5, TARGETS), (20, TARGETS), (60, TARGETS),
                                       (180, TARGETS[1:2])])
def test_coeffs_sweep_equals_pair_loop(m, targets):
    for f in targets:
        got = legendre_coeffs(f, m)
        want = _loop_legendre_coeffs(f, m)
        assert np.array_equal(got.view(np.int64), want.view(np.int64))


def test_eval_reads_sweep_bit_for_bit():
    ts = np.linspace(-1.3, 1.3, 27)
    for n in range(0, 201, 7):
        got = np.array([legendre_eval(n, float(t)) for t in ts])
        want = np.array([_loop_legendre_eval(n, float(t)) for t in ts], dtype=float)
        assert np.array_equal(got.view(np.int64), want.view(np.int64))
    assert type(legendre_eval(3, 0.5)) is float
