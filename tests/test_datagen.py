import dataclasses
import hashlib

import numpy as np
import pytest
from scipy import stats

from shelterplan import datagen
from shelterplan.datagen import (
    GenerationConfig,
    apply_abandonment,
    build_catalog,
    build_organizations,
    generate_instance,
    load_default_tables,
    offered_levels_by_category,
    round_half_up,
    sample_arrival,
    sample_los,
    sample_los_raw,
    sample_window,
    scale_capacity,
)
from shelterplan.domain import (
    BED_SERVICE_ID,
    HOUSING,
    INCOMPATIBILITY,
    REFERRAL,
    UnknownServiceError,
    instance_to_json,
)

from conftest import bed_need, population_stats, youth


@pytest.fixture(scope="module")
def tables():
    return load_default_tables()


def rng(seed=0):
    return np.random.default_rng(seed)


class TestArrival:
    def test_same_seed_same_sequence(self):
        a = [sample_arrival(rng(7), 180) for _ in range(5)]
        b = [sample_arrival(rng(7), 180) for _ in range(5)]
        g1, g2 = rng(9), rng(9)
        assert a[0] == b[0]
        assert [sample_arrival(g1, 180) for _ in range(100)] == [
            sample_arrival(g2, 180) for _ in range(100)
        ]

    def test_degenerate_horizon(self):
        g = rng(1)
        assert all(sample_arrival(g, 1) == 1 for _ in range(20))

    def test_uniformity(self):
        g = rng(110)
        draws = np.array([sample_arrival(g, 180) for _ in range(10000)])
        assert draws.min() >= 1 and draws.max() <= 180
        obs = np.bincount(draws, minlength=181)[1:]
        assert stats.chisquare(obs).pvalue > 0.01
        expected = 10000 / 180
        assert np.abs(obs - expected).max() / expected <= 0.30


class TestLos:
    def test_base_moments(self):
        config = GenerationConfig(horizon_T=10**6)
        g = rng(5)
        draws = np.array([sample_los_raw(g, config) for _ in range(10000)])
        assert abs(draws.mean() - 60.0) < 1.0
        assert abs(draws.std(ddof=1) - 15.0) < 1.0

    def test_duration_scale_shifts_mean(self):
        config = GenerationConfig(horizon_T=10**6, duration_scale=0.8)
        g = rng(5)
        draws = np.array([sample_los_raw(g, config) for _ in range(10000)])
        assert abs(draws.mean() - 48.0) < 1.0

    def test_clamped_to_remaining_horizon(self):
        config = GenerationConfig(horizon_T=30)
        g = rng(2)
        for _ in range(50):
            assert sample_los(g, config, arrival=28) <= 3
        assert sample_los(g, config, arrival=30) == 1


class TestWindow:
    def test_bed_offsets_in_1_4(self, tables):
        g = rng(3)
        for _ in range(500):
            a, b = sample_window(g, tables, "Bed", arrival=50, horizon_T=180)
            assert a == 50
            assert 1 <= b - a <= 4

    def test_long_term_housing_offsets_in_2_14(self, tables):
        g = rng(3)
        offsets = {
            sample_window(g, tables, "Long Term Housing", 50, 180)[1] - 50
            for _ in range(2000)
        }
        assert offsets <= set(range(2, 15))
        assert min(offsets) == 2 and max(offsets) == 14

    def test_bed_offset_mean_matches_triangular(self, tables):
        # Oracle: E[round(TRIA(1,2,4))] from the triangular CDF at half-integers.
        lo, mode, hi = 1.0, 2.0, 4.0

        def cdf(x):
            if x <= mode:
                return (x - lo) ** 2 / ((hi - lo) * (mode - lo))
            return 1.0 - (hi - x) ** 2 / ((hi - lo) * (hi - mode))

        expected = sum(
            k * (cdf(min(k + 0.5, hi)) - cdf(max(k - 0.5, lo))) for k in (1, 2, 3, 4)
        )
        g = rng(12)
        draws = np.array(
            [sample_window(g, tables, "Bed", 1, 10**6)[1] - 1 for _ in range(10000)]
        )
        assert abs(draws.mean() - expected) < 0.1

    def test_unknown_category_raises(self, tables):
        with pytest.raises(UnknownServiceError):
            sample_window(rng(0), tables, "Horseback Riding", 1, 180)

    def test_clamped_to_horizon(self, tables):
        g = rng(4)
        a, b = sample_window(g, tables, "Bed", arrival=180, horizon_T=180)
        assert (a, b) == (180, 180)


class TestNeeds:
    def test_every_youth_has_a_bed(self, tables):
        config = GenerationConfig(n_youth=300, horizon_T=60, seed=21)
        inst = generate_instance(config, tables)
        for y in inst.youths:
            assert sum(1 for n in y.needs if n.service == BED_SERVICE_ID) == 1

    def test_childcare_rate(self, tables):
        config = GenerationConfig(n_youth=10000, horizon_T=180, seed=77)
        catalog = build_catalog(tables)
        orgs = build_organizations(config, tables, catalog)
        offered = offered_levels_by_category(catalog, orgs)
        st_ = population_stats(config, tables, catalog, offered)
        frac = 100.0 * sum(1 for c in st_["need_categories"] if "Childcare" in c) / 10000
        assert abs(frac - 2.5) < 0.5

    def test_zero_optional_rates_leave_only_bed(self, tables):
        zeroed = dataclasses.replace(
            tables, needs_rates={"Bed": 100.0}
        )
        config = GenerationConfig(n_youth=20, horizon_T=40, seed=3)
        inst = generate_instance(config, zeroed)
        assert all(len(y.needs) == 1 for y in inst.youths)

    def test_generated_needs_respect_windows_and_horizon(self, tables):
        config = GenerationConfig(n_youth=200, horizon_T=60, bed_scale=0.1, seed=13)
        inst = generate_instance(config, tables)
        for y in inst.youths:
            for n in y.needs:
                assert y.arrival_l <= n.window_start_a <= n.window_end_b <= 60
                assert n.window_start_a + n.duration_d - 1 <= 60
                assert 1 <= n.frequency_f <= n.duration_d
                assert n.frequency_f * n.omega <= n.duration_d


class TestAbandonment:
    def _youths(self, n, d=60, horizon=180):
        return tuple(
            youth(j + 1, 1, [bed_need(d, 1, 3)]) for j in range(n)
        )

    def test_theta_zero_changes_nothing(self):
        ys = self._youths(50)
        out = apply_abandonment(rng(1), ys, 0.0, 180)
        assert out == ys

    def test_exact_split_at_base_levels(self):
        ys = self._youths(500)
        out = apply_abandonment(rng(1), ys, 0.2, 180)
        abandoned = [y for y in out if y.abandoned]
        assert len(abandoned) == 100
        truncated = [y for y in abandoned if y.needs[0].duration_d == 20]
        short = [y for y in abandoned if y.needs[0].duration_d <= 6]
        assert len(truncated) == 50
        assert len(short) == 50

    def test_fraction_is_exact_rounding(self):
        ys = self._youths(37)
        out = apply_abandonment(rng(5), ys, 0.1, 180)
        assert sum(1 for y in out if y.abandoned) == round_half_up(0.1 * 37)

    def test_short_stay_durations_cluster_at_three_days(self):
        ys = self._youths(20000)
        out = apply_abandonment(rng(8), ys, 1.0, 180)
        durations = np.array([y.needs[0].duration_d for y in out if y.abandoned])
        vals = durations[durations != 20]  # drop the truncated half
        assert vals.size == 10000
        assert np.isin(vals, (2, 3, 4)).mean() >= 0.99


class TestOrganizations:
    def test_listed_beds_total(self, tables):
        assert sum(tables.org_beds.values()) == 269

    def test_org2_headroom_is_ten_at_base(self, tables):
        config = GenerationConfig()
        catalog = build_catalog(tables)
        orgs = {o.id: o for o in build_organizations(config, tables, catalog)}
        assert orgs[2].headroom(BED_SERVICE_ID) - orgs[2].capacity(BED_SERVICE_ID, 1) == 10

    def test_capacity_scale_halves_with_min_zero(self, tables):
        catalog = build_catalog(tables)
        base = {
            o.id: o.capacity(BED_SERVICE_ID, 1)
            for o in build_organizations(GenerationConfig(), tables, catalog)
            if o.kind == HOUSING
        }
        halved = {
            o.id: o.capacity(BED_SERVICE_ID, 1)
            for o in build_organizations(
                GenerationConfig(capacity_scale=0.5), tables, catalog
            )
            if o.kind == HOUSING
        }
        for s, c in base.items():
            assert halved[s] == scale_capacity(c, 0.5)
            assert halved[s] <= c
        assert scale_capacity(1, 0.5) == 0
        assert scale_capacity(0, 0.5) == 0

    def test_referral_and_psi_structure(self, tables):
        config = GenerationConfig(n_youth=40)
        catalog = build_catalog(tables)
        orgs = build_organizations(config, tables, catalog)
        referral = [o for o in orgs if o.kind == REFERRAL]
        assert len(referral) == 13  # every support category has a provider
        medical = next(
            o for o in referral
            if catalog.get(min(o.offers)).category == "Medical"
        )
        assert all(catalog.get(i).category == "Medical" for i in medical.offers)
        psi = [o for o in orgs if o.kind == INCOMPATIBILITY]
        assert len(psi) == 1
        assert psi[0].offers == set(catalog.ids())

    def test_headroom_fixed_under_capacity_scale(self, tables):
        catalog = build_catalog(tables)
        base = {o.id: o for o in build_organizations(GenerationConfig(), tables, catalog)}
        covid = {
            o.id: o
            for o in build_organizations(GenerationConfig(capacity_scale=0.5), tables, catalog)
        }
        for s in range(1, 9):
            assert covid[s].headroom(BED_SERVICE_ID) == base[s].headroom(BED_SERVICE_ID)


class TestDataDirOverride:
    def test_env_var_points_at_data_directory(self, tmp_path, monkeypatch):
        import shutil
        from importlib import resources

        src = resources.files("shelterplan.data")
        for ref in src.iterdir():
            if ref.name.endswith(".csv"):
                shutil.copy(str(ref), tmp_path / ref.name)
        # Tweak one rate so the override is observable.
        rates = (tmp_path / "needs_rates.csv").read_text().replace(
            "Childcare,2.5", "Childcare,90.0"
        )
        (tmp_path / "needs_rates.csv").write_text(rates)
        monkeypatch.setenv(datagen.DATA_ENV_VAR, str(tmp_path))
        overridden = load_default_tables()
        assert overridden.needs_rates["Childcare"] == 90.0

    def test_malformed_table_reports_position(self, tmp_path, monkeypatch):
        import shutil
        from importlib import resources

        src = resources.files("shelterplan.data")
        for ref in src.iterdir():
            if ref.name.endswith(".csv"):
                shutil.copy(str(ref), tmp_path / ref.name)
        text = (tmp_path / "org_services.csv").read_text().replace(
            "Bed,Single,1,1,1,1,1,1,1,1", "Bed,Single,1,oops,1,1,1,1,1,1"
        )
        (tmp_path / "org_services.csv").write_text(text)
        with pytest.raises(datagen.DataFileError, match="row"):
            load_default_tables(str(tmp_path))


class TestReproducibility:
    def test_same_seed_same_bytes(self, tables):
        config = GenerationConfig(n_youth=30, horizon_T=40, bed_scale=0.1, seed=99)
        a = instance_to_json(generate_instance(config, tables))
        b = instance_to_json(generate_instance(config, tables))
        assert a == b

    def test_generated_bytes_pinned(self, tables):
        # A desk instance of the tree pool, with the default abandonment
        # (theta 0.2), so clamped and shortened stays both occur.
        config = GenerationConfig(n_youth=30, horizon_T=60, bed_scale=0.1, seed=3081)
        text = instance_to_json(generate_instance(config, tables))
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "921f5b608e69e948bf5969bcb20383d49726e384838a95665d21fe7d43c32036"
        )

    def test_youth_prefix_shared_across_population_sizes(self, tables):
        small = generate_instance(
            GenerationConfig(n_youth=20, horizon_T=40, abandonment_theta=0.0, seed=5), tables
        )
        large = generate_instance(
            GenerationConfig(n_youth=40, horizon_T=40, abandonment_theta=0.0, seed=5), tables
        )
        assert small.youths == large.youths[:20]

    def test_duration_scale_preserves_youth_streams(self, tables):
        a = generate_instance(
            GenerationConfig(n_youth=15, horizon_T=40, duration_scale=1.0, seed=5), tables
        )
        b = generate_instance(
            GenerationConfig(n_youth=15, horizon_T=40, duration_scale=1.2, seed=5), tables
        )
        for ya, yb in zip(a.youths, b.youths):
            assert ya.arrival_l == yb.arrival_l
            assert ya.demographics == yb.demographics
            assert len(ya.needs) == len(yb.needs)
            for na, nb in zip(ya.needs, yb.needs):
                assert nb.duration_d >= na.duration_d or nb.duration_d == (
                    40 - ya.arrival_l + 1
                )
