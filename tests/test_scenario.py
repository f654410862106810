import json
import math
import re

import pytest

from fluidrelay import InfeasibleError, derive_min_powers
from fluidrelay.cli import main
from fluidrelay.scenario import build_scenario, dbm_to_watts, load_scenario, parse_scenario


def scenario_doc(**overrides):
    doc = {
        "grid": {"n1": 2, "n2": 2, "w1": 1.0, "w2": 1.0},
        "system": {"total_bw_hz": 5e6, "xi_bits": 0.1, "seed": 7, "trials": 4},
        "users": [
            {
                "alpha_ur": 1e-9,
                "alpha_ub": 1e-11,
                "alpha_rb": 1e-9,
                "sigma2_relay_dbm": -120,
                "sigma2_bs_dbm": -120,
                "p_user_max_w": 0.1,
                "p_relay_max_w": 0.1,
                "rate_min_bps": 5e5,
            }
        ],
    }
    doc.update(overrides)
    return doc


class TestParsing:
    def test_round_trip(self):
        spec = parse_scenario(scenario_doc())
        assert spec.grid.n1 == 2
        assert spec.total_bw == 5e6
        assert spec.users[0].budget.sigma2_relay == pytest.approx(1e-15)

    def test_dbm_conversion(self):
        assert dbm_to_watts(-120.0) == pytest.approx(1e-15)
        assert dbm_to_watts(30.0) == pytest.approx(1.0)

    @pytest.mark.parametrize("key", ["sigma2_relay_dbm", "sigma2_bs_dbm"])
    def test_overflowing_dbm_rejected(self, key):
        # 1e308 dBm overflowed the conversion; the domain stops at 80 dBm, which converts to 1e5 W.
        doc = scenario_doc()
        doc["users"][0][key] = 1e308
        with pytest.raises(ValueError, match=rf"users\[0\]\.{key}: must be in \[-170, 80\] dBm, got 1e\+308"):
            parse_scenario(doc)
        for dbm, watts in ((-170, 1e-20), (80, 1e5)):
            doc["users"][0][key] = dbm
            assert getattr(parse_scenario(doc).users[0].budget, key.removesuffix("_dbm")) == watts

    @pytest.mark.parametrize(
        "keys, edge, outside",
        [
            (("system", "xi_bits"), 1e-6, 1e-300),
            (("system", "xi_bits"), 32, 32.5),
            (("system", "total_bw_hz"), 1, 0.5),
            (("system", "total_bw_hz"), 1e12, 1.5e12),
            (("grid", "w1"), 1e6, 1.5e6),
            (("grid", "w2"), 0, -1e-300),
            (("users", 0, "alpha_ur"), 1e-25, 5e-324),
            (("users", 0, "alpha_ub"), 1e10, 1e300),
            (("users", 0, "alpha_rb"), 1e10, 1e308),
            (("users", 0, "sigma2_relay_dbm"), -170, -171),
            (("users", 0, "sigma2_bs_dbm"), 80, 3112),
            (("users", 0, "p_user_max_w"), 1e6, 1e300),
            (("users", 0, "p_relay_max_w"), 1e-30, 5e-324),
            (("users", 0, "p_user_min_w"), 1e-80, 5e-324),
            (("users", 0, "p_relay_min_w"), 0, -1),
            (("users", 0, "rate_min_bps"), 1e13, 1e308),
            (("users", 0, "rate_min_bps"), 1e-3, 1e-300),
        ],
    )
    def test_every_key_is_checked_against_the_domain(self, keys, edge, outside):
        *path, key = keys
        doc = scenario_doc()
        section = doc
        for part in path:
            section = section[part]
        section[key] = edge
        parse_scenario(doc)
        section[key] = outside
        named = "".join(f"[{part}]" if isinstance(part, int) else f".{part}" for part in keys).lstrip(".")
        with pytest.raises(ValueError, match=re.escape(f"{named}: must be")):
            parse_scenario(doc)

    def test_unknown_top_level_key(self):
        with pytest.raises(ValueError, match="unknown key: antenna"):
            parse_scenario(scenario_doc(antenna={}))

    def test_unknown_nested_key_names_path(self):
        doc = scenario_doc()
        doc["users"][0]["alpha_urr"] = 1.0
        with pytest.raises(ValueError, match=r"unknown key: users\[0\]\.alpha_urr"):
            parse_scenario(doc)

    def test_missing_key_named(self):
        doc = scenario_doc()
        del doc["system"]["seed"]
        with pytest.raises(ValueError, match="missing key: system.seed"):
            parse_scenario(doc)

    def test_positivity_enforced(self):
        doc = scenario_doc()
        doc["users"][0]["alpha_ur"] = 0.0
        with pytest.raises(ValueError, match=r"users\[0\]\.alpha_ur"):
            parse_scenario(doc)

    def test_integer_fields_strict(self):
        doc = scenario_doc()
        doc["system"]["trials"] = 2.5
        with pytest.raises(ValueError, match="system.trials"):
            parse_scenario(doc)

    def test_sweep_parsing(self):
        doc = scenario_doc(
            sweep={"variable": "num_ports", "values": [1, 2, 4], "schemes": ["proposed", "tas"]}
        )
        spec = parse_scenario(doc)
        assert spec.sweep.variable == "num_ports"
        assert spec.sweep.values == (1, 2, 4)
        assert spec.sweep.schemes == ("proposed", "tas")

    def test_sweep_defaults_all_schemes(self):
        doc = scenario_doc(sweep={"variable": "num_users", "values": [1]})
        spec = parse_scenario(doc)
        assert len(spec.sweep.schemes) == 4

    def test_sweep_decreasing_values_rejected(self):
        doc = scenario_doc(sweep={"variable": "num_ports", "values": [4, 2]})
        with pytest.raises(ValueError, match="sweep"):
            parse_scenario(doc)

    def test_json_error_carries_byte_offset(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"grid": }')
        with pytest.raises(ValueError, match="byte offset 9"):
            load_scenario(str(path))


class TestBuildScenario:
    def test_min_powers_derived(self):
        scenario = build_scenario(parse_scenario(scenario_doc()))
        user = scenario.users[0]
        floor = user.p_user_min * user.budget.gamma_bar_ub + user.p_relay_min * user.budget.gamma_bar_rb
        assert floor >= scenario.c_th
        assert 0 < user.p_user_min < user.p_user_max
        assert (user.p_user_min, user.p_relay_min) == derive_min_powers(user.budget, 0.1, 0.1, scenario.c_th)

    @pytest.mark.parametrize("key", ["p_user_min_w", "p_relay_min_w"])
    def test_lone_min_power_derives_the_smallest_partner(self, key):
        # The given power alone has mean SNR 0, then 0.1: both below C_th ~ 0.149.
        for value in (0, 1e-5 if key == "p_user_min_w" else 1e-7):
            doc = scenario_doc()
            doc["users"][0][key] = value
            scenario = build_scenario(parse_scenario(doc))
            user = scenario.users[0]
            gub, grb = user.budget.gamma_bar_ub, user.budget.gamma_bar_rb
            if key == "p_user_min_w":
                given, partner = user.p_user_min, user.p_relay_min
                shrunk = (given, math.nextafter(partner, 0))
            else:
                given, partner = user.p_relay_min, user.p_user_min
                shrunk = (math.nextafter(partner, 0), given)
            assert given == value and 0 < partner < 0.1
            # The pair passes optimize_powers's guard exactly, and one double below the partner does not.
            assert user.p_user_min * gub + user.p_relay_min * grb >= scenario.c_th
            assert shrunk[0] * gub + shrunk[1] * grb < scenario.c_th

    def test_lone_min_power_alone_feasible_gives_zero_partner(self):
        doc = scenario_doc()
        doc["users"][0]["p_user_min_w"] = 0.05  # 500 on its own, above C_th ~ 0.149
        user = build_scenario(parse_scenario(doc)).users[0]
        assert (user.p_user_min, user.p_relay_min) == (0.05, 0.0)

    def test_lone_min_power_partner_beyond_its_cap_exit_5(self, tmp_path):
        doc = scenario_doc()
        doc["users"][0]["p_user_min_w"] = 0
        doc["users"][0]["p_relay_max_w"] = 1e-8  # mean SNR 0.01 < C_th at the relay's cap
        with pytest.raises(InfeasibleError) as err:
            build_scenario(parse_scenario(doc))
        assert err.value.reason == "INFEASIBLE_POWER"
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(doc))
        assert main(["optimize", str(path)]) == 5
        del doc["users"][0]["p_user_min_w"]  # both derived: the user's own power reaches C_th
        assert build_scenario(parse_scenario(doc)).users[0].p_relay_min > 0

    def test_lone_min_power_just_below_threshold_gives_smallest_partner(self):
        # The given relay power's mean SNR rounds to one ulp below C_th; every user power
        # down to about half the smallest partner still rounds the sum up to C_th.
        scenario = build_scenario(parse_scenario(scenario_doc()))
        gub, grb, c_th = scenario.users[0].budget.gamma_bar_ub, scenario.users[0].budget.gamma_bar_rb, scenario.c_th
        p_relay = math.nextafter(c_th, 0) / grb
        while p_relay * grb >= c_th:
            p_relay = math.nextafter(p_relay, 0)
        assert c_th - p_relay * grb <= 4 * math.ulp(c_th)
        doc = scenario_doc()
        doc["users"][0]["p_relay_min_w"] = p_relay
        user = build_scenario(parse_scenario(doc)).users[0]
        assert user.p_relay_min == p_relay and 0 < user.p_user_min
        assert user.p_user_min * gub + p_relay * grb >= c_th
        assert math.nextafter(user.p_user_min, 0) * gub + p_relay * grb < c_th

    @pytest.mark.parametrize("given", [{}, {"p_user_min_w": 0}, {"p_relay_min_w": 0}, {"p_relay_min_w": 0.05}])
    def test_overflowing_sum_at_maximum_powers_exit_2(self, tmp_path, capsys, given):
        # A 1e306 W cap made the mean SNR sum inf; the domain stops caps at 1e6 W.
        doc = scenario_doc()
        doc["users"][0].update(given, p_user_max_w=1e306)
        with pytest.raises(ValueError, match=r"users\[0\]\.p_user_max_w: must be in"):
            parse_scenario(doc)
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(doc))
        assert main(["optimize", str(path)]) == 2
        assert "error: users[0].p_user_max_w: must be in [1e-30, 1e+06] W, got 1e+306" in capsys.readouterr().err
        # The domain's largest sum: 1e6 W caps on 1e30-per-watt links give 2e36.
        doc["users"][0].update(p_user_max_w=1e6, p_relay_max_w=1e6, alpha_ub=1e10, alpha_rb=1e10, sigma2_bs_dbm=-170)
        user = build_scenario(parse_scenario(doc)).users[0]
        assert user.p_user_max * user.budget.gamma_bar_ub + user.p_relay_max * user.budget.gamma_bar_rb == 2e36

    def test_explicit_min_powers_respected(self):
        doc = scenario_doc()
        doc["users"][0]["p_user_min_w"] = 0.02
        doc["users"][0]["p_relay_min_w"] = 0.03
        scenario = build_scenario(parse_scenario(doc))
        assert scenario.users[0].p_user_min == 0.02
        assert scenario.users[0].p_relay_min == 0.03

    def test_power_infeasible_scenario_raises_on_build(self):
        doc = scenario_doc()
        doc["users"][0]["p_user_max_w"] = 1e-9
        doc["users"][0]["p_relay_max_w"] = 1e-9
        spec = parse_scenario(doc)  # parsing alone must succeed
        with pytest.raises(InfeasibleError):
            build_scenario(spec)
