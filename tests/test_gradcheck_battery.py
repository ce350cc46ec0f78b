from pairsim.gradcheck import component_checks

EXPECTED = {
    "score_generalized_inner",
    "pair_loss", "batch_loss",
    "encoder_backward",
    "composition_generalized_inner",
    "proxy_gip_ce_no_margin", "proxy_gip_ce", "proxy_gip_ce_raw_proxies",
}


def test_battery_covers_every_component():
    rows = component_checks(0)
    assert {name for name, _, _ in rows} == EXPECTED


def test_battery_within_tolerance_over_seeds():
    for seed in range(20):
        for name, err, tol in component_checks(seed):
            assert err < tol, f"{name} at seed {seed}: {err:.3e} >= {tol:g}"


def test_battery_tolerances_by_name():
    # 1e-6 for the closed-form maps, 1e-4 for the checks through the encoder
    loose = ("encoder_backward", "composition_")
    for name, _, tol in component_checks(0):
        assert tol == (1e-4 if name.startswith(loose) else 1e-6), name


def test_battery_deterministic():
    assert component_checks(3) == component_checks(3)
