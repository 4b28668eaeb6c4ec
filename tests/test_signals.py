import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fld.signals import (
    ItemPool,
    NormalizationStats,
    SyntheticMotionSpec,
    Trajectory,
    fit_normalization,
    generate_synthetic,
    load_csv,
    segment_view,
    split_corpus,
)


class TestLoadCsv:
    def test_basic_three_rows(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("1.0,2.0\n3.0,4.0\n5.0,6.0\n")
        traj = load_csv(p, d=2, dt=0.02)
        assert len(traj) == 3
        assert np.allclose(traj.frames, [[1, 2], [3, 4], [5, 6]])

    def test_header_skipped(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("a,b\n1.0,2.0\n")
        traj = load_csv(p, d=2, has_header=True)
        assert len(traj) == 1

    def test_nan_cell_names_row(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("1.0,2.0\nNaN,4.0\n")
        with pytest.raises(ValueError, match="row 1"):
            load_csv(p, d=2)

    def test_ragged_row_rejected(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("1.0,2.0\n3.0\n")
        with pytest.raises(ValueError, match="row 1"):
            load_csv(p, d=2)

    def test_non_numeric_rejected(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("1.0,oops\n")
        with pytest.raises(ValueError, match="non-numeric"):
            load_csv(p, d=2)

    def test_short_file_warns(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("1.0,2.0\n3.0,4.0\n")
        with pytest.warns(UserWarning, match="unwindowable"):
            load_csv(p, d=2, min_frames=5)

    def test_crlf_accepted(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_bytes(b"1.0,2.0\r\n3.0,4.0\r\n")
        assert len(load_csv(p, d=2)) == 2

    def test_nan_dt_rejected(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("1.0,2.0\n3.0,4.0\n")
        with pytest.raises(ValueError, match="dt must be positive"):
            load_csv(p, d=2, dt=float("nan"))


# an infinite dt would make the Nyquist frequency 0 and clip every latent frequency
@pytest.mark.parametrize("dt", [float("nan"), 0.0, -0.02, float("inf")])
def test_trajectory_rejects_a_dt_that_is_not_positive(dt):
    with pytest.raises(ValueError, match="dt must be positive"):
        Trajectory(np.zeros((3, 2)), dt=dt)


class TestNormalization:
    def test_constant_dimension_clamped(self):
        trajs = [Trajectory(np.column_stack([np.ones(10), np.arange(10.0)]))]
        stats = fit_normalization(trajs)
        assert stats.std[0] == 1.0
        normed = stats.apply(trajs[0].frames)
        assert np.allclose(normed[:, 0], 0.0)

    def test_two_frames_hand_arithmetic(self):
        trajs = [Trajectory(np.array([[0.0], [2.0]]))]
        stats = fit_normalization(trajs)
        assert stats.mean[0] == 1.0 and stats.std[0] == 1.0
        assert np.allclose(stats.apply(trajs[0].frames).reshape(-1), [-1.0, 1.0])

    def test_round_trip(self):
        rng = np.random.default_rng(0)
        trajs = [Trajectory(rng.normal(size=(50, 4)) * 3 + 1)]
        stats = fit_normalization(trajs)
        back = stats.invert(stats.apply(trajs[0].frames))
        assert np.max(np.abs(back - trajs[0].frames)) < 1e-12

    def test_permutation_invariant(self):
        rng = np.random.default_rng(1)
        frames = rng.normal(size=(40, 3))
        s1 = fit_normalization([Trajectory(frames)])
        s2 = fit_normalization([Trajectory(frames[rng.permutation(40)])])
        assert np.allclose(s1.mean, s2.mean) and np.allclose(s1.std, s2.std)

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError):
            fit_normalization([])


class TestWindowing:
    def make(self, n, d=2):
        return Trajectory(np.arange(n * d, dtype=float).reshape(n, d))

    def anchors(self, traj, window, horizon=0):
        """Frame index each item's anchor segment ends at."""
        return ItemPool([traj.frames], window, horizon).anchors[:, 1] + window - 1

    def test_exact_length_single_segment(self):
        traj = self.make(51)
        assert segment_view(traj.frames, 51).shape == (1, 2, 51)
        assert self.anchors(traj, 51).tolist() == [50]

    def test_count_formula(self):
        assert segment_view(self.make(53).frames, 51).shape[0] == 3

    def test_segment_boundaries(self):
        traj = self.make(100)
        segs, anchors = segment_view(traj.frames, 51), self.anchors(traj, 51)
        assert anchors[0] == 50 and anchors[-1] == 99
        assert np.array_equal(segs[0], traj.frames[0:51].T)
        assert np.array_equal(segs[-1], traj.frames[49:100].T)

    def test_too_short_rejected(self):
        with pytest.raises(ValueError):
            segment_view(self.make(10).frames, 51)

    def test_stride(self):
        # strided consumers keep the items whose first frame is a multiple of the stride
        pool = ItemPool([self.make(20).frames], 5, 0)
        strided = pool.anchors[pool.strided(3), 1]
        assert strided.shape[0] == (20 - 5) // 3 + 1
        assert strided[1] - strided[0] == 3

    def test_stride_counts_from_each_trajectory_start(self):
        pool = ItemPool([self.make(12).frames, self.make(3).frames, self.make(9).frames], 5, 0)
        assert pool.anchors[pool.strided(3)].tolist() == [[0, 0], [0, 3], [0, 6], [1, 0], [1, 3]]
        with pytest.raises(ValueError, match="^anchor_stride must be an integer >= 1, got 0$"):
            pool.strided(0)

    @settings(max_examples=25, deadline=None)
    @given(n=st.integers(5, 60), h=st.integers(2, 5))
    def test_stride_one_reconstructs_frames(self, n, h):
        if n < h:
            return
        traj = self.make(n, d=1)
        segs = segment_view(traj.frames, h)
        tail = np.array([s[0, -1] for s in segs])
        assert np.array_equal(tail, traj.frames[h - 1:, 0])

    # training items: each anchor segment with its ``horizon`` successors
    def items(self, traj, horizon):
        pool = ItemPool([traj.frames], 51, horizon)
        return pool.gather(np.arange(len(pool))), self.anchors(traj, 51, horizon)

    def test_with_future_boundary(self):
        items, anchors = self.items(self.make(101), 50)
        assert items.shape == (1, 51, 2, 51)
        assert anchors.tolist() == [50]

    def test_with_future_zero_horizon_matches_window(self):
        traj = self.make(60)
        items, anchors = self.items(traj, 0)
        segs = segment_view(traj.frames, 51)
        assert np.array_equal(items[:, 0], segs)
        assert np.array_equal(anchors, np.arange(segs.shape[0]) + 50)

    def test_futures_match_index_oracle(self):
        traj = self.make(103)
        items, anchors = self.items(traj, 50)
        assert items.shape[0] == 3
        for k in range(3):
            for i in range(51):
                start = k + i
                assert np.array_equal(items[k, i], traj.frames[start:start + 51].T)

    def test_with_future_too_short(self):
        with pytest.raises(ValueError, match="long enough"):
            self.items(self.make(100), 50)

    def test_item_is_a_view_and_short_trajectories_are_skipped(self):
        short, long_a, long_b = self.make(60), self.make(103), self.make(102)
        pool = ItemPool([long_a.frames, short.frames, long_b.frames], 51, 50)
        assert pool.trajectories == [0, 2]
        assert pool.anchors.tolist() == [[0, 0], [0, 1], [0, 2], [1, 0], [1, 1]]
        item = pool.item(4)
        assert np.shares_memory(item, long_b.frames)
        for i in range(51):
            assert np.array_equal(item[i], long_b.frames[1 + i:52 + i].T)
        assert np.array_equal(pool.gather(np.array([4, 0])), np.stack([item, pool.item(0)]))


class TestSynthetic:
    def spec(self, **kw):
        base = dict(base_frequency=2.0, amplitudes=np.array([1.0]),
                    phase_offsets=np.array([0.0]), means=np.array([0.0]),
                    frames=200, dt=0.02, seed=1)
        base.update(kw)
        return SyntheticMotionSpec(**base)

    def test_pure_sinusoid_spectrum(self):
        traj = generate_synthetic(self.spec(base_frequency=2.5, frames=100))
        # 2.5 Hz at dt=0.02 over 100 frames -> exactly bin 5
        spec = np.fft.rfft(traj.frames[:, 0])
        mags = np.abs(spec)
        assert mags[5] > 49.0
        assert np.all(np.delete(mags, 5) < 1e-9)

    def test_seed_determinism(self):
        a = generate_synthetic(self.spec(noise_std=0.1))
        b = generate_synthetic(self.spec(noise_std=0.1))
        assert np.array_equal(a.frames, b.frames)

    def test_zero_noise_exact_periodicity(self):
        # 2 Hz at dt=0.02: period is exactly 25 frames
        traj = generate_synthetic(self.spec(frames=100))
        assert np.max(np.abs(traj.frames[:-25] - traj.frames[25:])) < 1e-9

    def test_nyquist_violation_rejected(self):
        with pytest.raises(ValueError):
            self.spec(base_frequency=30.0)

    def test_five_family_frequencies(self):
        for f in [0.8, 1.2, 1.6, 2.0, 2.4]:
            traj = generate_synthetic(self.spec(base_frequency=f, frames=2000))
            spec = np.abs(np.fft.rfft(traj.frames[:, 0]))
            peak_hz = np.argmax(spec[1:]) + 1
            assert abs(peak_hz / (2000 * 0.02) - f) < 0.05


def test_split_is_disjoint_and_seeded():
    trajs = [Trajectory(np.zeros((5, 1)) + i) for i in range(10)]
    tr1, va1 = split_corpus(trajs, 0.8, seed=3)
    tr2, va2 = split_corpus(trajs, 0.8, seed=3)
    assert len(tr1) == 8 and len(va1) == 2
    assert [t.frames[0, 0] for t in tr1] == [t.frames[0, 0] for t in tr2]
    ids = {t.frames[0, 0] for t in tr1} | {t.frames[0, 0] for t in va1}
    assert len(ids) == 10
    assert [len(part) for part in split_corpus(trajs, 1.0)] == [10, 0]


@pytest.mark.parametrize("fraction", [1.5, -0.5, float("nan"), 0.0])
def test_split_rejects_a_train_fraction_outside_zero_to_one(fraction):
    trajs = [Trajectory(np.zeros((5, 1)) + i) for i in range(4)]
    with pytest.raises(ValueError,
                       match=re.escape(f"train_fraction must be in (0, 1], got {fraction!r}")):
        split_corpus(trajs, fraction)
