"""Budget-partition strategies: exact outputs and the shared contract.

Every ``hetero-*`` and ``fleet-*`` registry name resolves to one of the
strategies in :mod:`repro.core.split` (plus the fleet-only equal
share).  The pins below are the exact IEEE-754 outputs, as
``float.hex``, of ``allocate`` and ``initial`` for all six names on
fixed inputs; any reordering of the arithmetic in a strategy changes
them.
"""

import pytest

from repro.config import ControllerConfig
from repro.core.registry import fleet_policy, make_spec, split_policy
from repro.core.tolerance import ToleranceVerdict, tolerance_bid
from repro.errors import ControllerError

NAMES = (
    "hetero-static",
    "hetero-coord",
    "hetero-fair",
    "fleet-static",
    "fleet-demand",
    "fleet-fair",
)

#: name -> (budget, demands, floors, ceilings), three consumers each.
CASES = {
    # Demands sum far above the budget.
    "tight": (250.0, [110.0, 200.0, 150.0], [60.0, 65.0, 65.0], [125.0, 250.0, 250.0]),
    # Budget above every demand and the summed ceilings' half.
    "ample": (620.0, [90.0, 180.0, 120.0], [60.0, 65.0, 65.0], [125.0, 250.0, 250.0]),
    # Unequal floors and ceilings.
    "hetero_floors": (330.0, [60.0, 240.0, 75.0], [40.0, 100.0, 70.0], [125.0, 250.0, 180.0]),
    # Lifting two consumers to their high floors overshoots the budget,
    # which the floor-clamp payback takes back from the third.
    "payback": (300.0, [125.0, 10.0, 10.0], [40.0, 120.0, 120.0], [125.0, 250.0, 250.0]),
}

#: "<name>/<case>/<method>" -> float.hex of each allocation.
PINS = {
    "fleet-demand/ample/allocate": (
        "0x1.6800000000000p+6",
        "0x1.6800000000000p+7",
        "0x1.e000000000000p+6",
    ),
    "fleet-demand/ample/initial": (
        "0x1.f400000000000p+6",
        "0x1.9d55555555555p+7",
        "0x1.9d55555555555p+7",
    ),
    "fleet-demand/hetero_floors/allocate": (
        "0x1.c27c45979c952p+5",
        "0x1.9760ee9a18dacp+7",
        "0x1.1800000000000p+6",
    ),
    "fleet-demand/hetero_floors/initial": (
        "0x1.b800000000000p+6",
        "0x1.b800000000000p+6",
        "0x1.b800000000000p+6",
    ),
    "fleet-demand/payback/allocate": (
        "0x1.e000000000000p+5",
        "0x1.e000000000000p+6",
        "0x1.e000000000000p+6",
    ),
    "fleet-demand/payback/initial": (
        "0x1.e000000000000p+5",
        "0x1.e000000000000p+6",
        "0x1.e000000000000p+6",
    ),
    "fleet-demand/tight/allocate": (
        "0x1.2200000000000p+6",
        "0x1.7c00000000000p+6",
        "0x1.4a00000000000p+6",
    ),
    "fleet-demand/tight/initial": (
        "0x1.4d55555555555p+6",
        "0x1.4d55555555555p+6",
        "0x1.4d55555555555p+6",
    ),
    "fleet-fair/ample/allocate": (
        "0x1.f102f149902f1p+6",
        "0x1.efbf43ad9bf44p+7",
        "0x1.efbf43ad9bf44p+7",
    ),
    "fleet-fair/ample/initial": (
        "0x1.f102f149902f1p+6",
        "0x1.efbf43ad9bf44p+7",
        "0x1.efbf43ad9bf44p+7",
    ),
    "fleet-fair/hetero_floors/allocate": (
        "0x1.1642c8590b216p+6",
        "0x1.30590b21642c8p+7",
        "0x1.b10b21642c859p+6",
    ),
    "fleet-fair/hetero_floors/initial": (
        "0x1.1642c8590b216p+6",
        "0x1.30590b21642c8p+7",
        "0x1.b10b21642c859p+6",
    ),
    "fleet-fair/payback/allocate": (
        "0x1.676b981dae607p+5",
        "0x1.fe2519f89467ep+6",
        "0x1.fe2519f89467ep+6",
    ),
    "fleet-fair/payback/initial": (
        "0x1.676b981dae607p+5",
        "0x1.fe2519f89467ep+6",
        "0x1.fe2519f89467ep+6",
    ),
    "fleet-fair/tight/allocate": (
        "0x1.13dcb08d3dcb0p+6",
        "0x1.6a11a7b9611a8p+6",
        "0x1.6a11a7b9611a8p+6",
    ),
    "fleet-fair/tight/initial": (
        "0x1.13dcb08d3dcb0p+6",
        "0x1.6a11a7b9611a8p+6",
        "0x1.6a11a7b9611a8p+6",
    ),
    "fleet-static/ample/allocate": (
        "0x1.f400000000000p+6",
        "0x1.9d55555555555p+7",
        "0x1.9d55555555555p+7",
    ),
    "fleet-static/ample/initial": (
        "0x1.f400000000000p+6",
        "0x1.9d55555555555p+7",
        "0x1.9d55555555555p+7",
    ),
    "fleet-static/hetero_floors/allocate": (
        "0x1.b800000000000p+6",
        "0x1.b800000000000p+6",
        "0x1.b800000000000p+6",
    ),
    "fleet-static/hetero_floors/initial": (
        "0x1.b800000000000p+6",
        "0x1.b800000000000p+6",
        "0x1.b800000000000p+6",
    ),
    "fleet-static/payback/allocate": (
        "0x1.e000000000000p+5",
        "0x1.e000000000000p+6",
        "0x1.e000000000000p+6",
    ),
    "fleet-static/payback/initial": (
        "0x1.e000000000000p+5",
        "0x1.e000000000000p+6",
        "0x1.e000000000000p+6",
    ),
    "fleet-static/tight/allocate": (
        "0x1.4d55555555555p+6",
        "0x1.4d55555555555p+6",
        "0x1.4d55555555555p+6",
    ),
    "fleet-static/tight/initial": (
        "0x1.4d55555555555p+6",
        "0x1.4d55555555555p+6",
        "0x1.4d55555555555p+6",
    ),
    "hetero-coord/ample/allocate": (
        "0x1.6800000000000p+6",
        "0x1.6800000000000p+7",
        "0x1.e000000000000p+6",
    ),
    "hetero-coord/ample/initial": (
        "0x1.f400000000000p+6",
        "0x1.9d55555555555p+7",
        "0x1.9d55555555555p+7",
    ),
    "hetero-coord/hetero_floors/allocate": (
        "0x1.c27c45979c952p+5",
        "0x1.9760ee9a18dacp+7",
        "0x1.1800000000000p+6",
    ),
    "hetero-coord/hetero_floors/initial": (
        "0x1.b800000000000p+6",
        "0x1.b800000000000p+6",
        "0x1.b800000000000p+6",
    ),
    "hetero-coord/payback/allocate": (
        "0x1.e000000000000p+5",
        "0x1.e000000000000p+6",
        "0x1.e000000000000p+6",
    ),
    "hetero-coord/payback/initial": (
        "0x1.e000000000000p+5",
        "0x1.e000000000000p+6",
        "0x1.e000000000000p+6",
    ),
    "hetero-coord/tight/allocate": (
        "0x1.2200000000000p+6",
        "0x1.7c00000000000p+6",
        "0x1.4a00000000000p+6",
    ),
    "hetero-coord/tight/initial": (
        "0x1.4d55555555555p+6",
        "0x1.4d55555555555p+6",
        "0x1.4d55555555555p+6",
    ),
    "hetero-fair/ample/allocate": (
        "0x1.f102f149902f1p+6",
        "0x1.efbf43ad9bf44p+7",
        "0x1.efbf43ad9bf44p+7",
    ),
    "hetero-fair/ample/initial": (
        "0x1.f102f149902f1p+6",
        "0x1.efbf43ad9bf44p+7",
        "0x1.efbf43ad9bf44p+7",
    ),
    "hetero-fair/hetero_floors/allocate": (
        "0x1.1642c8590b216p+6",
        "0x1.30590b21642c8p+7",
        "0x1.b10b21642c859p+6",
    ),
    "hetero-fair/hetero_floors/initial": (
        "0x1.1642c8590b216p+6",
        "0x1.30590b21642c8p+7",
        "0x1.b10b21642c859p+6",
    ),
    "hetero-fair/payback/allocate": (
        "0x1.676b981dae607p+5",
        "0x1.fe2519f89467ep+6",
        "0x1.fe2519f89467ep+6",
    ),
    "hetero-fair/payback/initial": (
        "0x1.676b981dae607p+5",
        "0x1.fe2519f89467ep+6",
        "0x1.fe2519f89467ep+6",
    ),
    "hetero-fair/tight/allocate": (
        "0x1.13dcb08d3dcb0p+6",
        "0x1.6a11a7b9611a8p+6",
        "0x1.6a11a7b9611a8p+6",
    ),
    "hetero-fair/tight/initial": (
        "0x1.13dcb08d3dcb0p+6",
        "0x1.6a11a7b9611a8p+6",
        "0x1.6a11a7b9611a8p+6",
    ),
    "hetero-static/ample/allocate": (
        "0x1.f400000000000p+6",
        "0x1.3600000000000p+7",
        "0x1.3600000000000p+7",
    ),
    "hetero-static/ample/initial": (
        "0x1.f400000000000p+6",
        "0x1.3600000000000p+7",
        "0x1.3600000000000p+7",
    ),
    "hetero-static/hetero_floors/allocate": (
        "0x1.f400000000000p+6",
        "0x1.9000000000000p+6",
        "0x1.4a00000000000p+6",
    ),
    "hetero-static/hetero_floors/initial": (
        "0x1.f400000000000p+6",
        "0x1.9000000000000p+6",
        "0x1.4a00000000000p+6",
    ),
    "hetero-static/payback/allocate": (
        "0x1.e000000000000p+5",
        "0x1.e000000000000p+6",
        "0x1.e000000000000p+6",
    ),
    "hetero-static/payback/initial": (
        "0x1.e000000000000p+5",
        "0x1.e000000000000p+6",
        "0x1.e000000000000p+6",
    ),
    "hetero-static/tight/allocate": (
        "0x1.e000000000000p+6",
        "0x1.0400000000000p+6",
        "0x1.0400000000000p+6",
    ),
    "hetero-static/tight/initial": (
        "0x1.e000000000000p+6",
        "0x1.0400000000000p+6",
        "0x1.0400000000000p+6",
    ),
}


def _policy(name, budget_w):
    resolve = split_policy if name.startswith("hetero") else fleet_policy
    return resolve(make_spec(name, budget_w=budget_w), ControllerConfig())


@pytest.mark.parametrize("case", sorted(CASES))
@pytest.mark.parametrize("name", NAMES)
def test_allocate_and_initial_exact_bits(name, case):
    budget, demands, floors, ceilings = CASES[case]
    policy = _policy(name, budget)
    got = {
        "allocate": policy.allocate(demands, floors, ceilings),
        "initial": policy.initial(floors, ceilings),
    }
    for method, alloc in got.items():
        assert [a.hex() for a in alloc] == list(
            PINS[f"{name}/{case}/{method}"]
        ), method


@pytest.mark.parametrize("name", NAMES)
def test_initial_validates_like_allocate(name):
    # 220 W cannot cover floors of 100 + 65 + 65 = 230 W.
    policy = _policy(name, 220.0)
    floors, ceilings = [100.0, 65.0, 65.0], [125.0] * 3
    with pytest.raises(ControllerError, match="combined device floor"):
        policy.allocate(list(ceilings), floors, ceilings)
    with pytest.raises(ControllerError, match="combined device floor"):
        policy.initial(floors, ceilings)
    with pytest.raises(ControllerError, match="one floor and one ceiling"):
        policy.allocate([], [], [])
    with pytest.raises(ControllerError, match="one floor and one ceiling"):
        policy.initial([], [])


def test_fleet_names_share_the_split_strategies():
    # One implementation each: the fleet water-fill and fair share are
    # the hetero strategies, not copies of them.
    for fleet, split in (("fleet-demand", "hetero-coord"), ("fleet-fair", "hetero-fair")):
        f, s = _policy(fleet, 300.0), _policy(split, 300.0)
        assert isinstance(f, type(s))
        assert type(f).allocate is type(s).allocate
        assert type(f).initial is type(s).initial
        assert f.is_static == s.is_static
        assert f.name == fleet


class TestToleranceBid:
    def test_below_bids_two_steps_above_the_limit(self):
        assert tolerance_bid(ToleranceVerdict.BELOW, 90.0, 70.0, 5.0, 65.0) == 100.0

    def test_within_offers_a_step_back_above_the_floor(self):
        assert tolerance_bid(ToleranceVerdict.WITHIN, 90.0, 80.0, 5.0, 65.0) == 75.0
        assert tolerance_bid(ToleranceVerdict.WITHIN, 90.0, 66.0, 5.0, 65.0) == 65.0

    def test_boundary_bids_the_draw(self):
        assert tolerance_bid(ToleranceVerdict.AT_BOUNDARY, 90.0, 80.0, 5.0, 65.0) == 80.0
