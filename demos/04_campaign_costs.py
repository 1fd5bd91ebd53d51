"""Campaign cost arithmetic: cost per thousand, per responder, spreading loss.

A mailing of 100,000 pieces cost 50,000 and brought 4,000 responders.
Promotion spent on the 96,000 non-responders is the spreading loss a
better targeting model would shrink.
"""

from scorepotential import CampaignEconomics, render_economics_text

campaign = CampaignEconomics(total_cost=50_000, addresses=100_000, responders=4_000)
print(render_economics_text(campaign))

loss = campaign.spreading_loss
print(f"Exact rationals underneath: {loss.cost_per_action} - "
      f"{loss.cost_per_responder} = {loss.loss}")

# The per-responder figure reconstructs the budget without rounding residue.
assert campaign.cost_per_responder * campaign.responders == campaign.total_cost
