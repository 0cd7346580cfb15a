"""End-to-end acceptance gate.

Each test prints one [PASS]/[FAIL] line with the measured values before
asserting, so the run log shows every criterion's outcome even when one of
them is red.
"""

import time

import numpy as np

from phaseshape import (
    EmbeddingParams,
    GenConfig,
    LLEConfig,
    ShapeConfig,
    classification_experiment,
    delay_embed,
    estimate_delay,
    lle_rosenstein,
    lorenz_generate,
    resolve_config,
    rk4_integrate,
    rossler_generate,
    sample_shape,
    shape_distribution,
    stability_experiment,
    synthetic_instances,
    TimeSeries,
)

from oracles import exhaustive_d2

LORENZ_EMBED = EmbeddingParams(m=3, tau=11)
ROSSLER_EMBED = EmbeddingParams(m=3, tau=8)


def _lle(series, embed, dt):
    return lle_rosenstein(delay_embed(series, embed), dt=dt).lambda1


def test_criterion_1_lorenz_lyapunov(criterion_log):
    t0 = time.time()
    series = lorenz_generate(GenConfig(n=5000))
    lam = _lle(series.channels[0], LORENZ_EMBED, dt=0.01)
    elapsed = time.time() - t0
    ok = 1.2 <= lam <= 1.8 and elapsed < 60.0
    criterion_log(
        f"[{'PASS' if ok else 'FAIL'}] criterion 1: lorenz lambda1(N=5000) = {lam:.4f} "
        f"(required [1.2, 1.8]), runtime {elapsed:.1f} s (required < 60 s)"
    )
    assert 1.2 <= lam <= 1.8
    assert elapsed < 60.0


def test_criterion_2_rossler_lyapunov(criterion_log, rossler_default):
    lam_full = _lle(rossler_default.channels[0], ROSSLER_EMBED, dt=0.12)
    lam_short = _lle(rossler_default.prefix(400).channels[0], ROSSLER_EMBED, dt=0.12)
    ok = 0.06 <= lam_full <= 0.12 and lam_short < 0.06
    criterion_log(
        f"[{'PASS' if ok else 'FAIL'}] criterion 2: rossler lambda1(N=2000) = {lam_full:.4f} "
        f"(required [0.06, 0.12]); lambda1(N=400) = {lam_short:.4f} (required < 0.06)"
    )
    assert 0.06 <= lam_full <= 0.12
    assert lam_short < 0.06


def test_criterion_3_short_series_bias(criterion_log, lorenz_seeded):
    wins = 0
    pairs = []
    for seed in range(5):
        series = lorenz_seeded[seed]
        lam_short = _lle(series.prefix(1000).channels[0], LORENZ_EMBED, dt=0.01)
        lam_long = _lle(series.channels[0], LORENZ_EMBED, dt=0.01)
        pairs.append((lam_short, lam_long))
        if abs(lam_short - 1.50) > abs(lam_long - 1.50):
            wins += 1
    detail = ", ".join(f"{a:.2f}/{b:.2f}" for a, b in pairs)
    ok = wins >= 3
    criterion_log(
        f"[{'PASS' if ok else 'FAIL'}] criterion 3: N=1000 estimate further from 1.50 than "
        f"N=5000 in {wins}/5 seeds (lambda pairs short/long: {detail})"
    )
    assert wins >= 3


def test_criterion_4_delay_reproduction(criterion_log, lorenz_seeded, lorenz_default, rossler_default):
    lorenz_taus = [estimate_delay(lorenz_default.channels[0]).tau]
    lorenz_taus += [estimate_delay(lorenz_seeded[s].channels[0]).tau for s in range(5)]
    rossler_taus = [estimate_delay(rossler_default.channels[0]).tau]
    rossler_taus += [
        estimate_delay(rossler_generate(GenConfig(n=2000, seed=s)).channels[0]).tau
        for s in range(5)
    ]
    ok = all(t == 11 for t in lorenz_taus) and all(t == 8 for t in rossler_taus)
    criterion_log(
        f"[{'PASS' if ok else 'FAIL'}] criterion 4: estimate_delay lorenz = {lorenz_taus} "
        f"(required all 11), rossler = {rossler_taus} (required all 8)"
    )
    assert all(t == 11 for t in lorenz_taus), (
        "autocorrelation-based delays do not reproduce the reference value 11"
    )
    assert all(t == 8 for t in rossler_taus)


def test_criterion_5_stability_ordering(criterion_log):
    report = stability_experiment()
    m = report.metrics
    ok = m["separated"] is True
    criterion_log(
        f"[{'PASS' if ok else 'FAIL'}] criterion 5: max within-system chi2 = "
        f"{m['max_within']:.4f} < min cross-system chi2 = {m['min_cross']:.4f} "
        f"-> separated = {m['separated']}"
    )
    assert m["separated"] is True


def test_criterion_6_classification(criterion_log):
    instances = synthetic_instances(per_class=20)
    shape = classification_experiment(instances=instances)
    chaos = classification_experiment(instances=instances, features="chaos")
    acc_shape = shape.metrics["accuracy"]
    acc_chaos = chaos.metrics["accuracy"]
    ok = acc_shape >= 0.95 and acc_shape >= acc_chaos
    criterion_log(
        f"[{'PASS' if ok else 'FAIL'}] criterion 6: LOOCV 1-NN accuracy shape(D2,chi2) = "
        f"{acc_shape:.4f} (required >= 0.95), chaos(l2) = {acc_chaos:.4f} "
        f"(required shape >= chaos), 40 instances"
    )
    assert acc_shape >= 0.95
    assert acc_shape >= acc_chaos


def test_criterion_7_sampling_oracle(criterion_log, lorenz_default, rossler_default):
    fixtures = [
        ("lorenz", delay_embed(lorenz_default.prefix(2000).channels[0], LORENZ_EMBED)),
        ("rossler", delay_embed(rossler_default.channels[0], ROSSLER_EMBED)),
    ]
    worst = ("", -1.0)
    for name, ps in fixtures:
        assert len(ps) <= 2000
        exact = exhaustive_d2(ps, ShapeConfig(bins=50))
        for seed in range(3):
            approx = shape_distribution(ps, ShapeConfig(n_samples=10000, bins=50, seed=seed))
            tv = 0.5 * np.abs(exact.mass - approx.mass).sum()
            if tv > worst[1]:
                worst = (f"{name} seed {seed}", tv)
    ok = worst[1] < 0.05
    criterion_log(
        f"[{'PASS' if ok else 'FAIL'}] criterion 7: worst exhaustive-vs-sampled D2 total "
        f"variation = {worst[1]:.4f} at {worst[0]} (required < 0.05, 2 fixtures x 3 seeds)"
    )
    assert worst[1] < 0.05


def test_criterion_8_invariants(criterion_log, lorenz_default):
    checks = []

    ps = delay_embed(lorenz_default.prefix(1500).channels[0], LORENZ_EMBED)
    dist = shape_distribution(ps, ShapeConfig(bins=50, n_samples=5000))
    checks.append(("mass sums to 1", abs(dist.mass.sum() - 1.0) <= 1e-9 and len(dist.mass) == 50))

    d2_cfg = resolve_config(ps, ShapeConfig(kind="D2", n_samples=5000, seed=7))
    dt2_cfg = resolve_config(ps, ShapeConfig(kind="DT2", n_samples=5000, seed=7))
    d2 = sample_shape(ps, d2_cfg)
    dt2 = sample_shape(ps, dt2_cfg)
    checks.append(("DT2 <= D2 per pair", bool((dt2 <= d2).all())))

    cfg = LLEConfig(theiler=101, k_max=302)
    x = lorenz_default.channels[0]
    lam_a = lle_rosenstein(delay_embed(x, LORENZ_EMBED), cfg, dt=0.01).lambda1
    scaled = TimeSeries(x.samples * 4.0, dt=0.01)
    lam_b = lle_rosenstein(delay_embed(scaled, LORENZ_EMBED), cfg, dt=0.01).lambda1
    checks.append(("lambda1 scale invariance", abs(lam_a - lam_b) <= 1e-9 * abs(lam_a)))

    from phaseshape import attractor_diameter, correlation_integral

    dia = attractor_diameter(ps)
    c = correlation_integral(ps, np.geomspace(0.02 * dia, dia, 10), theiler=10)
    checks.append(
        ("C(r) monotone in [0,1]",
         bool((np.diff(c) >= 0).all() and (c >= 0).all() and (c <= 1).all() and c[-1] == 1.0))
    )

    def err(h):
        out = rk4_integrate(lambda y: (-y,), [1.0], h, int(round(1.0 / h)))
        return abs(out[-1, 0] - np.exp(-1.0))

    ratio = err(0.02) / err(0.01)
    checks.append(("RK4 order-4 ratio", 12.8 <= ratio <= 19.2))

    seq = stability_experiment(lorenz_lengths=[500, 800], rossler_lengths=[400], n_samples=1000)
    par = stability_experiment(
        lorenz_lengths=[500, 800], rossler_lengths=[400], n_samples=1000, jobs=4
    )
    det = seq.to_json() == par.to_json()
    seq_i = synthetic_instances(per_class=2)
    par_i = synthetic_instances(per_class=2, jobs=4)
    for a, b in zip(seq_i, par_i):
        det = det and a.id == b.id and all(
            (ca.samples == cb.samples).all()
            for ca, cb in zip(a.series.channels, b.series.channels)
        )
    checks.append(("parallel == sequential", det))

    failed = [name for name, passed in checks if not passed]
    ok = not failed
    summary = "; ".join(f"{name} {'ok' if passed else 'FAILED'}" for name, passed in checks)
    criterion_log(
        f"[{'PASS' if ok else 'FAIL'}] criterion 8: invariant suite "
        f"({len(checks) - len(failed)}/{len(checks)}): {summary}"
    )
    assert not failed, f"invariants failed: {failed}"
