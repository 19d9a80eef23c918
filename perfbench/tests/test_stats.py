"""The benchmark's own arithmetic."""

import pytest

import stats


class TestTailPercentile:
    def test_p99_when_the_sample_supports_it(self):
        values = list(range(1, 1001))  # 1000 samples
        q, value = stats.tail_percentile(values)
        assert (q, value) == (0.99, 990)
        assert sum(v > value for v in values) == 10

    def test_falls_back_to_the_highest_supported_percentile(self):
        values = list(range(1, 101))
        q, value = stats.tail_percentile(values)
        assert (q, value) == (0.9, 90)
        assert sum(v > value for v in values) == stats.MIN_BEYOND

    def test_eleven_samples_support_only_the_lowest(self):
        q, value = stats.tail_percentile(list(range(11)))
        assert value == 0
        assert q == pytest.approx(1 / 11)

    def test_too_few_samples(self):
        with pytest.raises(ValueError):
            stats.tail_percentile(list(range(10)))

    def test_order_of_input_does_not_matter(self):
        values = [5.0, 1.0, 3.0] * 10
        assert stats.tail_percentile(values) == stats.tail_percentile(
            sorted(values))


class TestWindowedTail:
    QUIET = [1.0] * 990 + [2.0] * 10  # p99 = 1.0

    def test_mean_of_each_window_p99(self):
        assert stats.windowed_tail([self.QUIET, self.QUIET]) == (0.99, 1.0)

    def test_a_pause_in_one_window_moves_it_by_its_length(self):
        def run(pause_ms):
            paused = [1.0] * 900 + [pause_ms] * 100
            return stats.windowed_tail([self.QUIET] * 14 + [paused])[1]

        # the quiet windows' p99 is 1.0; the paused window's is the pause
        assert run(50.0) == pytest.approx(1.0 + 49.0 / 15)
        assert run(500.0) == pytest.approx(1.0 + 499.0 / 15)


class TestSelfTime:
    def test_leaf(self):
        assert stats.self_times([0.0], [4.0], [-1]) == [4.0]

    def test_nested_children_subtract_only_from_their_parent(self):
        # root [0, 10] > child [2, 6] > grandchild [3, 5]
        result = stats.self_times([0, 2, 3], [10, 6, 5], [-1, 0, 1])
        assert result == [6, 2, 2]
        assert sum(result) == 10

    def test_overlapping_children_count_once(self):
        # two children of [0, 10] overlapping on [3, 4]
        result = stats.self_times([0, 1, 3], [10, 4, 6], [-1, 0, 0])
        assert result[0] == pytest.approx(5.0)

    def test_child_sticking_out_is_clipped(self):
        # a gc pause that began inside the parent and ended after it
        result = stats.self_times([0, 8], [10, 12], [-1, 0])
        assert result[0] == pytest.approx(8.0)

    def test_covered_length_ignores_disjoint_children(self):
        assert stats.covered_length(5, 10, [(0, 1), (11, 12)]) == 0.0


class TestLateness:
    def test_lag_is_send_minus_due_never_negative(self):
        assert stats.lateness([1.0, 2.0, 3.0], [1.5, 1.9, 3.0]) == [
            0.5, 0.0, 0.0]

    def test_latency_counts_from_the_due_time(self):
        # due at 1.0, sent late at 1.4, answered at 1.5: the server took
        # 0.1 s but the request waited 0.5 s from when it was due
        assert stats.latencies_from_intended([1.0], [1.5]) == [0.5]

    def test_a_stalled_generator_is_detected(self):
        lags = [0.001] * 900 + [0.2] * 100
        assert stats.fell_behind(lags, limit=0.02)
        assert not stats.fell_behind([0.001] * 1000, limit=0.02)
