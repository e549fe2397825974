"""Harness behaviour: determinism, witnesses, selection, and a fast pass of
the cheap checks (the full suite at production scale runs in the acceptance
tests)."""
import pytest

import series_oracles as oracles
from sheaf_census import verify
from sheaf_census.verify import run_suite, suite_ids


EXPECTED_IDS = {
    "number1-k0", "number1-k1", "kappa1-orbit-sum", "lemma-n1", "lemma-n1-2var",
    "numbert-closure", "psi1-a", "psi1-b", "psi1-c", "oe-split", "eqn-oeterms",
    "bb-odd", "bb-even", "tb1", "b2-odd", "b2-even", "b2-weighted-oracle",
    "fn1B", "fn1D", "fn2B", "fn-split-D", "fn-ind2-D", "coro-cuspidal-k0",
    "coro-cuspidal-k1", "nilcoro-k0-odd", "nilcoro-k0-even", "nilcoro-k1",
    "diii-k0-closure", "diii-k1-bijection", "PNt-formula", "jacobi-t",
    "k1-series-rewrite", "euler-smoke",
}


def test_catalogue_complete():
    assert set(suite_ids()) == EXPECTED_IDS
    assert len(suite_ids()) >= 30


def test_unknown_id_raises():
    with pytest.raises(KeyError):
        run_suite(["no-such-check"])
    with pytest.raises(KeyError, match="nope"):
        run_suite("nope")


def test_a_single_id_string_is_one_check():
    assert run_suite("tb1", 12, 6) == run_suite(["tb1"], 12, 6)


def test_mirrored_half_matches_the_two_half_oracle():
    # the product is one half plus its transpose, cell by cell and summed
    # over each antidiagonal, as lemma-n1-2var reads it
    for order in range(17):
        half = verify._two_variable_product(order)
        full = oracles.two_variable_product(order, order)
        def mirrored(p, q):
            return half.coeff(p, q) + half.coeff(q, p)
        assert [[mirrored(p, q) for q in range(order + 1)] for p in range(order + 1)] == full
        assert ([verify._total(mirrored, n) for n in range(order + 1)]
                == oracles.antidiagonal_sums(full))


def test_order_floor():
    with pytest.raises(ValueError):
        run_suite(["euler-smoke"], order=5)


def test_refuses_vacuous_or_crashing_runs():
    with pytest.raises(ValueError, match="no checks selected"):
        run_suite([])
    for sweep in (0, -1):
        with pytest.raises(ValueError, match="sweep must be at least 1"):
            run_suite(["bb-odd"], sweep=sweep)


def test_euler_smoke():
    (result,) = run_suite(["euler-smoke"], order=60)
    assert result.status == "PASS"
    assert result.id == "euler-smoke"


def test_selection_preserves_registry_order():
    results = run_suite(["tb1", "psi1-a", "euler-smoke"], order=12, sweep=8)
    assert [r.id for r in results] == ["tb1", "psi1-a", "euler-smoke"]
    # results follow the selection, not the registry
    results = run_suite(["euler-smoke", "psi1-a", "tb1"], order=12, sweep=8)
    assert [r.id for r in results] == ["euler-smoke", "psi1-a", "tb1"]


def test_fast_pass_of_light_checks():
    light = ["lemma-n1", "tb1", "bb-odd", "bb-even", "b2-odd", "b2-even",
             "b2-weighted-oracle", "psi1-a", "psi1-b", "psi1-c", "oe-split",
             "eqn-oeterms", "jacobi-t", "k1-series-rewrite", "euler-smoke",
             "nilcoro-k0-odd", "nilcoro-k0-even", "nilcoro-k1"]
    results = run_suite(light, order=16, sweep=10)
    for r in results:
        assert r.status == "PASS", (r.id, r.detail)


def test_number1_cell_counts():
    (result,) = run_suite(["number1-k0"], order=12, sweep=10)
    assert result.status == "PASS"
    # one cell per pair (p, q) with p+q <= sweep
    assert result.scope.startswith(str(sum(N + 1 for N in range(11))))


def test_capped_checks_state_the_bound_that_ran():
    # the fn* and coro-cuspidal-k0 series stop at min(order, 30)
    capped = ["fn1B", "fn1D", "fn2B", "fn-split-D", "fn-ind2-D", "coro-cuspidal-k0"]
    scopes = {r.id: r.scope for r in run_suite(capped, order=12, sweep=9)}
    assert scopes == {"fn1B": "13 cells, m <= 12", "fn1D": "13 cells, m <= 12",
                      "fn2B": "12 cells, 1 <= m <= 12", "fn-split-D": "12 cells, 1 <= m <= 12",
                      "fn-ind2-D": "12 cells, 1 <= m <= 12",
                      "coro-cuspidal-k0": "24 cells, 1 <= n <= 12"}
    assert [r.scope for r in run_suite(["fn1B", "coro-cuspidal-k0"], order=41, sweep=9)] == [
        "31 cells, m <= 30", "60 cells, 1 <= n <= 30"]


def test_cell_labels_and_order(monkeypatch):
    # labels only reach the output with a failure, so pin them here
    seen = {}
    real = verify._from_cells

    def record(check_id, description, cells, scope_note):
        cells = list(cells)
        seen[check_id] = [location for location, _, _ in cells]
        return real(check_id, description, iter(cells), scope_note)

    monkeypatch.setattr(verify, "_from_cells", record)
    run_suite(["number1-k1", "tb1", "bb-odd", "bb-even", "fn1B"], order=10, sweep=5)
    assert seen["number1-k1"][:6] == ["(p,q)=(0,0)", "(p,q)=(0,1)", "(p,q)=(1,0)",
                                      "(p,q)=(0,2)", "(p,q)=(1,1)", "(p,q)=(2,0)"]
    assert seen["tb1"] == ["t=1,q=0", "t=1,q=1", "t=1,q=2", "t=3,q=0", "t=3,q=1",
                           "t=5,q=0", "t=0,q=2", "t=2,q=0", "t=4,q=0"]
    assert seen["bb-odd"] == ["x^0", "x^1", "x^2"]
    assert seen["bb-even"] == ["x^1", "x^2"]
    assert seen["fn1B"] == [f"m={m}" for m in range(11)]


def test_deterministic_reports():
    a = run_suite(["tb1", "euler-smoke"], order=14, sweep=8)
    b = run_suite(["tb1", "euler-smoke"], order=14, sweep=8)
    assert [r.to_json_dict() for r in a] == [r.to_json_dict() for r in b]


def test_failure_carries_witness():
    # run a doctored cell comparison through the reporting helper
    cells = [("x^0", 1, 1), ("x^1", 2, 3), ("x^2", 5, 7)]
    check = verify._from_cells("demo", "description", iter(cells), "unit test")
    assert check.status == "FAIL"
    assert check.detail == {"location": "x^1", "lhs": "2", "rhs": "3", "mismatches": 2}
    assert "3 cells" in check.scope
    data = check.to_json_dict()
    assert data["status"] == "FAIL" and data["detail"]["location"] == "x^1"


def test_pass_has_no_detail():
    (result,) = run_suite(["k1-series-rewrite"], order=20)
    assert result.detail is None
    assert "detail" not in result.to_json_dict()
