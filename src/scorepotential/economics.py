"""Campaign cost arithmetic: cost per thousand, cost per responder, spreading loss.

Money is a currency-agnostic decimal quantity kept as an exact Fraction so
that cost-per-responder times responders reconstructs the total cost without
rounding residue; formatting to decimal strings happens at render time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .rounding import to_fraction


@dataclass(frozen=True)
class CampaignEconomics:
    """Cost and response figures of one promotion, and the cost figures they give.

    cost_per_thousand scales the cost per address to one thousand names;
    cost_per_responder and spreading_loss are None without responders.
    """

    total_cost: Fraction
    addresses: int
    responders: int
    cost_per_thousand: Fraction = field(init=False)
    cost_per_responder: Fraction | None = field(init=False)
    spreading_loss: SpreadingLoss | None = field(init=False)

    def __post_init__(self):
        total = to_fraction(self.total_cost)
        if total < 0:
            raise ValueError("total cost must be non-negative")
        if self.addresses < 1:
            raise ValueError("addresses must be positive")
        if not 0 <= self.responders <= self.addresses:
            raise ValueError("responders must lie in [0, addresses]")
        per_thousand = total / self.addresses * 1000
        per_responder = total / self.responders if self.responders else None
        loss = None if per_responder is None else spreading_loss(per_thousand, per_responder)
        vars(self).update(total_cost=total, cost_per_thousand=per_thousand,
                          cost_per_responder=per_responder, spreading_loss=loss)


@dataclass(frozen=True)
class SpreadingLoss:
    """Literal difference of per-action and per-responder cost, operands echoed.

    The two operands carry different denominators; the difference is kept as
    defined rather than reinterpreted.
    """

    cost_per_action: Fraction
    cost_per_responder: Fraction
    loss: Fraction


def spreading_loss(cost_per_action, cost_per_resp) -> SpreadingLoss:
    """Spreading loss: cost per direct-mail action minus cost per responder."""
    action = to_fraction(cost_per_action)
    per_responder = to_fraction(cost_per_resp)
    if action < 0 or per_responder < 0:
        raise ValueError("costs must be non-negative")
    return SpreadingLoss(action, per_responder, action - per_responder)
