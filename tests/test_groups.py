"""Component-group numerics: the case table for the double cover, eta, and
the admissible-character counts."""
import pytest

import enum_oracles as oracles
from sheaf_census import diagrams as dg
from sheaf_census import groups as gp
from sheaf_census.census import kappa1_orbit_sum
from sheaf_census.cli import main


def D(text):
    return dg.parse_diagram(text)


def test_kappa1_bdi_examples():
    assert gp.kappa1_data_BDI(D("3+ 1+ 1-")) == gp.Kappa1Data(2, 1)
    assert gp.kappa1_data_BDI(D("1+^3 1-^2")).count == 0
    assert gp.kappa1_data_BDI(D("2+ 2- 1+")) == gp.Kappa1Data(1, 1)
    # even-inner class-3 diagrams still carry one representation
    assert gp.kappa1_data_BDI(D("2+ 2-")) == gp.Kappa1Data(1, 1)
    # even-outer: a single representation
    assert gp.kappa1_data_BDI(D("3+ 1+")) == gp.Kappa1Data(1, 1)


def test_kappa1_table_takes_its_callers_signature(monkeypatch, capsys):
    # the orbit sum and the orbits listing already know (p, q); only the
    # public kappa1_data_BDI computes a signature
    calls = []
    real = dg.SignedYoungDiagram.signature

    def counted(self):
        calls.append(self)
        return real(self)
    monkeypatch.setattr(dg.SignedYoungDiagram, "signature", counted)
    assert kappa1_orbit_sum(7, 6) > 0
    for extra in ([], ["--richardson"]):
        assert main(["orbits", "bdi", "--p", "6", "--q", "5", *extra]) == 0
    capsys.readouterr()
    assert calls == []
    gp.kappa1_data_BDI(D("3+ 1+ 1-"))
    assert len(calls) == 1


def test_kappa1_bdi_derived_pair_parity():
    # the case split follows the parity of the signature: (3, 2) is odd,
    # (3, 3) even-outer (class 1 there counts 1, not the even-inner 4) and
    # (2, 2) even-inner, shown for class 3 and class 2
    assert gp.kappa1_data_BDI(D("3+ 1+ 1-")) == gp.Kappa1Data(2, 1)
    assert gp.kappa1_data_BDI(D("3+ 3-")) == gp.Kappa1Data(1, 1)
    assert gp.kappa1_data_BDI(D("2+ 2-")) == gp.Kappa1Data(1, 1)
    assert gp.kappa1_data_BDI(D("3+ 1-")) == gp.Kappa1Data(2, 1)


def test_count_dim_square_invariant():
    for p in range(9):
        for q in range(9):
            if p + q > 16:
                continue
            for d in dg.enum_sigma(p, q):
                data = gp.kappa1_data_BDI(d)
                if data.count:
                    r = dg.classify(d).r
                    assert data.count * data.dim ** 2 == 2 ** r, str(d)


def test_kappa1_diii():
    assert gp.kappa1_data_DIII(D("2+^2 2-^2")) == gp.Kappa1Data(1, 1)
    assert gp.kappa1_data_DIII(D("3+ 3-")).count == 0
    assert gp.kappa1_data_DIII(dg.SignedYoungDiagram()) == gp.Kappa1Data(1, 1)
    with pytest.raises(ValueError):
        gp.kappa1_data_DIII(D("3+"))


def test_eta_values():
    for m in range(6):
        assert gp.eta(m, 1) == 2
        assert gp.eta(m, -1) == 2
        assert gp.eta(m, 3) == 2
    assert gp.eta(1, 2) == 4
    assert gp.eta(2, 2) == 1
    assert gp.eta(0, 2) == 1
    assert gp.eta(0, 4) == 4
    assert gp.eta(0, 0) == 4
    assert gp.eta(1, 0) == 1


def test_eta_period_two():
    for m in range(21):
        for t in range(-6, 7):
            assert gp.eta(m, t) == gp.eta(m + 2, t)
            assert (gp.eta(m, t) == 2) == (t % 2 == 1)


def test_omega_examples():
    assert gp.omega_set(D("5+")) == frozenset()
    assert gp.omega_set(D("3- 1+^2")) == frozenset()
    assert gp.omega_set(D("3- 1-^2")) == frozenset({2})
    assert gp.omega_set(D("3+ 1-")) == frozenset({1})
    with pytest.raises(ValueError):
        gp.omega_set(D("2+ 2-"))


def test_omega_contains_one_iff_even():
    for p in range(9):
        for q in range(9):
            for d in dg.enum_sigma_b(p, q):
                omega = gp.omega_set(d)
                assert (1 in omega) == ((p + q) % 2 == 0), str(d)
                if (p + q) % 2 == 0:
                    assert len(omega) >= 1


def test_pi_size_examples():
    assert gp.pi_size(D("5+")) == 1
    # 3- 1-^2 has a = b = 1 (class 1), so the exponent is l - 1 = 0; the
    # aggregate series checks in the verify suite pin this value
    assert dg.classify(D("3- 1-^2")).index == 1
    assert gp.pi_size(D("3- 1-^2")) == 1
    assert gp.pi_size(D("3- 1+^2")) == 1  # class 2, l = 0
    assert gp.pi_size(D("3+ 1-")) == 1  # even size, class 2, l = 1


def test_pi_size_class2_matches_character_enumeration():
    for p in range(9):
        for q in range(9):
            if p + q > 14:
                continue
            for d in dg.enum_sigma_b(p, q):
                if dg.classify(d).index == 2:
                    assert gp.pi_size(d) == oracles.count_sign_characters(d), str(d)


def test_class1_has_sign_change_index():
    # the admissible set always contains the first parity-change index for
    # class-1 diagrams, keeping the count exponent nonnegative
    for p in range(9):
        for q in range(9):
            for d in dg.enum_sigma_b(p, q):
                assert gp.pi_size(d) >= 1
