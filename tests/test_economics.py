"""Campaign cost arithmetic."""

from __future__ import annotations

from decimal import Decimal
from fractions import Fraction

import pytest

from scorepotential import CampaignEconomics, spreading_loss


def test_cost_per_thousand_worked_values():
    assert CampaignEconomics(50_000, 100_000, 4_000).cost_per_thousand == 500
    assert CampaignEconomics(0, 123, 0).cost_per_thousand == 0
    assert CampaignEconomics(1_000, 1_000, 10).cost_per_thousand == 1_000


def test_cost_per_responder():
    assert CampaignEconomics(50_000, 100_000, 4_000).cost_per_responder == Fraction(25, 2)
    assert CampaignEconomics(700, 700, 700).cost_per_responder == 1
    assert CampaignEconomics(1_000, 1_000, 10).cost_per_responder == 100


def test_cost_per_responder_without_responders_is_none():
    econ = CampaignEconomics(100, 10, 0)
    assert econ.cost_per_responder is None
    assert econ.spreading_loss is None


def test_spreading_loss_echoes_operands():
    loss = spreading_loss(500, Fraction(25, 2))
    assert loss.cost_per_action == 500
    assert loss.cost_per_responder == Fraction(25, 2)
    assert loss.loss == Fraction(975, 2)
    assert CampaignEconomics(50_000, 100_000, 4_000).spreading_loss == loss


def test_spreading_loss_degenerate_cases():
    assert spreading_loss(7, 7).loss == 0
    assert spreading_loss(0, 0).loss == 0
    with pytest.raises(ValueError):
        spreading_loss(-1, 0)


def test_scale_covariance():
    base = CampaignEconomics(1_234, 321, 45)
    scaled = CampaignEconomics(base.total_cost * 7, 321, 45)
    assert scaled.cost_per_thousand == 7 * base.cost_per_thousand
    assert scaled.cost_per_responder == 7 * base.cost_per_responder


def test_per_responder_cost_reconstructs_total_exactly():
    for total, addresses, responders in [(1_000, 1_000, 3), (999, 500, 7), (1, 10, 9)]:
        econ = CampaignEconomics(total, addresses, responders)
        assert econ.cost_per_responder * responders == total


def test_decimal_inputs_are_exact():
    econ = CampaignEconomics(Decimal("50000.50"), 100, 10)
    assert econ.total_cost == Fraction(5000050, 100)
    assert econ.cost_per_responder == Fraction(5000050, 1000)


def test_validation():
    with pytest.raises(ValueError):
        CampaignEconomics(-1, 10, 0)
    with pytest.raises(ValueError):
        CampaignEconomics(10, 0, 0)
    with pytest.raises(ValueError):
        CampaignEconomics(10, 5, 6)
