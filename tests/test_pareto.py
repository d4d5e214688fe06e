import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ctpdse.errors import ConfigError
from ctpdse.pareto import (
    ProfilePoint,
    SelectionCriteria,
    pareto_front,
    points_csv,
    read_points_csv,
    select_profiles,
)

from conftest import BENCHMARK_FRONT_LABELS


def point(bdr, bdde, label=""):
    return ProfilePoint(bdr=bdr, bdde=bdde, label=label)


def random_cloud(rng, n):
    return [
        point(float(rng.uniform(-2.0, 80.0)), float(rng.uniform(-50.0, 2.0)), label=str(i))
        for i in range(n)
    ]


def quadratic_front(points):
    """Reference front by the definition: collapse, all-pairs dominance, sort."""
    by_coord = {}
    for p in points:
        kept = by_coord.get((p.bdr, p.bdde))
        if kept is None or p.label < kept.label:
            by_coord[(p.bdr, p.bdde)] = p
    unique = list(by_coord.values())
    front = [
        p for p in unique
        if not any(
            q.bdr <= p.bdr and q.bdde <= p.bdde and (q.bdr < p.bdr or q.bdde < p.bdde)
            for q in unique
        )
    ]
    front.sort(key=lambda p: (p.bdr, p.bdde))
    return front


# A small grid with -0.0 and a small alphabet, so ties, exact duplicates
# and repeated labels are common.
GRID = st.sampled_from((-2.0, -1.0, -0.0, 0.0, 1.0, 2.0))
GRID_POINTS = st.lists(
    st.builds(point, GRID, GRID, st.sampled_from(("", "a", "b"))), min_size=1, max_size=30
)


class TestParetoFront:
    def test_single_point(self):
        only = point(0.0, 0.0)
        assert pareto_front([only]) == [only]

    def test_dominated_point_removed(self):
        kept_a = point(5.0, -40.0)
        kept_b = point(10.0, -45.0)
        dominated = point(10.0, -40.0)
        assert pareto_front([dominated, kept_a, kept_b]) == [kept_a, kept_b]

    def test_empty_rejected(self):
        with pytest.raises(ConfigError, match="zero points"):
            pareto_front([])

    def test_benchmark_front(self, benchmark_points):
        front = pareto_front(benchmark_points)
        assert tuple(p.label for p in front) == BENCHMARK_FRONT_LABELS

    def test_benchmark_prior_work_points_are_dominated(self, benchmark_points):
        by_label = {p.label: p for p in benchmark_points}
        front = pareto_front(benchmark_points)
        assert by_label["prior-ee"] not in front
        assert by_label["prior-ebe"] not in front
        # and the expected dominators actually dominate them
        ea_ee, prior_ee = by_label["ea-ee"], by_label["prior-ee"]
        assert ea_ee.bdr < prior_ee.bdr and ea_ee.bdde < prior_ee.bdde
        e1_ebe, prior_ebe = by_label["e1-ebe"], by_label["prior-ebe"]
        assert e1_ebe.bdr < prior_ebe.bdr and e1_ebe.bdde < prior_ebe.bdde

    def test_idempotence(self, benchmark_points):
        front = pareto_front(benchmark_points)
        assert pareto_front(front) == front

    def test_completeness(self, benchmark_points):
        front = pareto_front(benchmark_points)
        for p in benchmark_points:
            if p in front:
                continue
            assert any(
                q.bdr <= p.bdr and q.bdde <= p.bdde and (q.bdr < p.bdr or q.bdde < p.bdde)
                for q in front
            )

    def test_front_strictly_improves_along_bdr(self, benchmark_points):
        front = pareto_front(benchmark_points)
        for a, b in zip(front, front[1:]):
            assert a.bdr < b.bdr
            assert a.bdde > b.bdde

    def test_duplicates_collapse_to_first_label(self):
        a = point(1.0, -1.0, label="b-dup")
        b = point(1.0, -1.0, label="a-dup")
        c = point(5.0, -9.0, label="other")
        front = pareto_front([a, b, c])
        labels = [p.label for p in front]
        assert labels == ["a-dup", "other"]

    def test_random_cloud_invariants(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            cloud = random_cloud(rng, int(rng.integers(1, 40)))
            front = pareto_front(cloud)
            assert pareto_front(front) == front
            for p in cloud:
                dominated = any(
                    q.bdr <= p.bdr and q.bdde <= p.bdde
                    and (q.bdr < p.bdr or q.bdde < p.bdde)
                    for q in front
                )
                on_front = any(
                    q.bdr == p.bdr and q.bdde == p.bdde for q in front
                )
                assert dominated or on_front

    @given(GRID_POINTS)
    def test_matches_quadratic_oracle(self, points):
        def exact(front):  # repr tells -0.0 from 0.0, which == does not
            return [(p.label, repr(p.bdr), repr(p.bdde)) for p in front]

        assert exact(pareto_front(points)) == exact(quadratic_front(points))

    def test_merge_associativity(self):
        rng = np.random.default_rng(32)
        a = random_cloud(rng, 25)
        b = random_cloud(rng, 25)
        union_front = pareto_front(a + b)
        merged_front = pareto_front(pareto_front(a) + pareto_front(b))
        assert union_front == merged_front


class TestSelection:
    def test_single_point_is_everything(self):
        only = point(2.0, -10.0)
        selection = select_profiles([only])
        assert selection.ee == only
        assert selection.ebe == only
        assert selection.lbe == (only,)

    def test_benchmark_ee(self, benchmark_points):
        selection = select_profiles(benchmark_points)
        assert selection.ee.label == "e1-ee"
        assert (selection.ee.bdr, selection.ee.bdde) == (27.00, -45.31)

    def test_benchmark_ebe_minimizes_the_sum(self, benchmark_points):
        selection = select_profiles(benchmark_points)
        assert selection.ebe.label == "ea-ebe"
        assert (selection.ebe.bdr, selection.ebe.bdde) == (10.30, -40.37)
        best_sum = min(p.bdr + p.bdde for p in benchmark_points)
        assert selection.ebe.bdr + selection.ebe.bdde == best_sum

    def test_benchmark_lbe_under_five_percent(self, benchmark_points):
        selection = select_profiles(benchmark_points, SelectionCriteria(5.0))
        assert [(p.bdr, p.bdde) for p in selection.lbe] == [
            (-0.25, -4.86),
            (1.45, -11.41),
            (2.54, -17.55),
            (4.88, -25.54),
        ]

    def test_lbe_threshold_is_strict(self, benchmark_points):
        selection = select_profiles(benchmark_points, SelectionCriteria(4.88))
        assert [p.label for p in selection.lbe] == ["lbe1", "lbe2", "lbe3"]

    def test_ee_tie_breaks_to_lower_bdr(self):
        points = [point(8.0, -30.0, "a"), point(5.0, -30.0, "b"), point(9.0, -20.0, "c")]
        assert select_profiles(points).ee.label == "b"

    def test_selected_points_are_members_and_ordered(self):
        rng = np.random.default_rng(33)
        for _ in range(20):
            cloud = random_cloud(rng, int(rng.integers(1, 30)))
            selection = select_profiles(cloud)
            assert selection.ee in cloud
            assert selection.ebe in cloud
            assert selection.ee.bdde <= selection.ebe.bdde
            bdrs = [p.bdr for p in selection.lbe]
            assert bdrs == sorted(bdrs)

    def test_empty_rejected(self):
        with pytest.raises(ConfigError, match="zero points"):
            select_profiles([])

    def test_bad_threshold_rejected(self):
        for threshold in (0.0, math.inf):
            with pytest.raises(ConfigError, match="threshold"):
                SelectionCriteria(threshold)


class TestPlotData:
    def test_round_trip(self, tmp_path, benchmark_points):
        path = tmp_path / "points.csv"
        path.write_text(points_csv(benchmark_points, "manifest: sha256:abc"))
        loaded = read_points_csv(path)
        assert [(p.bdr, p.bdde) for p in loaded] == \
            [(p.bdr, p.bdde) for p in benchmark_points]

    def test_points_csv_renders_comment_header_and_front(self, tmp_path, benchmark_points):
        text = points_csv(pareto_front(benchmark_points), "manifest: sha256:abc")
        assert text.splitlines()[:2] == ["# manifest: sha256:abc", "bdr,bdde"]
        path = tmp_path / "front.csv"
        path.write_text(text)
        front = read_points_csv(path)
        assert len(front) == len(BENCHMARK_FRONT_LABELS)

    def test_read_rejects_bad_header(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("x,y\n1,2\n")
        with pytest.raises(ConfigError, match="bdr,bdde"):
            read_points_csv(path)

    def test_read_rejects_non_numeric(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("bdr,bdde\n1,two\n")
        with pytest.raises(ConfigError, match=":2"):
            read_points_csv(path)

    def test_read_error_names_physical_line(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("# manifest: sha256:abc\nbdr,bdde\n1.0,abc\n")
        with pytest.raises(ConfigError, match=r"p\.csv:3: bdde: not a number"):
            read_points_csv(path)

    def test_non_finite_point_rejected(self):
        with pytest.raises(ConfigError, match="finite"):
            ProfilePoint(bdr=float("nan"), bdde=0.0)
