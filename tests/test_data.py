"""Data module tests: IDX decoding against an independent reference
decoder, CSV ingestion, synthetic generator structure verified by a
linear-probe oracle, split/batch determinism and the cache format."""

from __future__ import annotations

import os
import struct

import numpy as np
import pytest

from featprior import data
from featprior.data import (
    Dataset,
    FeatureCache,
    Rows,
    dataset_fingerprint,
    load_csv,
    load_idx,
    read_cache,
    serialize_cache,
    split_and_batch,
    synth_blobs,
    synth_rings,
    write_cache,
)
from featprior.errors import (
    BadMagic,
    BatchTooSmall,
    ConfigError,
    CorruptFile,
    CountMismatch,
    FeatPriorError,
    FingerprintMismatch,
    LabelOutOfRange,
    NonNumericCell,
    RaggedRows,
    TruncatedFile,
    UnknownLabelColumn,
)

from oracles import decode_idx_reference, linear_probe_accuracy, traced_peak


def split_probe_accuracy(ds, parts) -> float:
    """``linear_probe_accuracy`` fit on a split's train rows of ``ds`` and
    scored on its test rows."""
    train, test = parts.train.source_indices, parts.test.source_indices
    return linear_probe_accuracy(ds.inputs[train], ds.labels[train],
                                 ds.inputs[test], ds.labels[test], ds.class_count)


def idx_image_bytes(images: np.ndarray) -> bytes:
    n, rows, cols = images.shape
    return struct.pack(">IIII", 0x803, n, rows, cols) + images.astype(np.uint8).tobytes()


def idx_label_bytes(labels) -> bytes:
    labels = np.asarray(labels, dtype=np.uint8)
    return struct.pack(">II", 0x801, labels.size) + labels.tobytes()


def packed_at(fmt, offset, *values):
    """A function that packs ``values`` into a bytearray at ``offset``."""
    def corrupt(blob: bytearray) -> bytearray:
        struct.pack_into(fmt, blob, offset, *values)
        return blob
    return corrupt


class TestLoadIdx:
    def test_single_saturated_image(self, tmp_path):
        img = tmp_path / "img"
        lab = tmp_path / "lab"
        img.write_bytes(idx_image_bytes(np.full((1, 2, 2), 255)))
        lab.write_bytes(idx_label_bytes([1]))
        ds = load_idx(img, lab)
        np.testing.assert_array_equal(ds.inputs, [[1.0, 1.0, 1.0, 1.0]])
        assert ds.labels.tolist() == [1]

    def test_hand_scaled_pixels(self, tmp_path):
        img = tmp_path / "img"
        lab = tmp_path / "lab"
        img.write_bytes(idx_image_bytes(np.array([[[0, 128], [255, 0]]])))
        lab.write_bytes(idx_label_bytes([0]))
        ds = load_idx(img, lab)
        np.testing.assert_allclose(ds.inputs, [[0.0, 128 / 255, 1.0, 0.0]],
                                   atol=1e-9)
        assert ds.inputs[0, 1] == pytest.approx(0.501961, abs=1e-6)

    def test_count_mismatch(self, tmp_path):
        img = tmp_path / "img"
        lab = tmp_path / "lab"
        img.write_bytes(idx_image_bytes(np.zeros((2, 2, 2))))
        lab.write_bytes(idx_label_bytes([0, 1, 1]))
        with pytest.raises(CountMismatch):
            load_idx(img, lab)

    def test_bad_magic(self, tmp_path):
        img = tmp_path / "img"
        lab = tmp_path / "lab"
        img.write_bytes(struct.pack(">IIII", 0x804, 1, 1, 1) + b"\x00")
        lab.write_bytes(idx_label_bytes([0]))
        with pytest.raises(BadMagic):
            load_idx(img, lab)

    def test_truncated(self, tmp_path):
        img = tmp_path / "img"
        lab = tmp_path / "lab"
        img.write_bytes(idx_image_bytes(np.zeros((2, 3, 3)))[:-4])
        lab.write_bytes(idx_label_bytes([0, 1]))
        with pytest.raises(TruncatedFile):
            load_idx(img, lab)

    def test_truncated_labels(self, tmp_path):
        img = tmp_path / "img"
        lab = tmp_path / "lab"
        img.write_bytes(idx_image_bytes(np.zeros((2, 3, 3))))
        lab.write_bytes(idx_label_bytes([0, 1])[:-1])
        with pytest.raises(TruncatedFile):
            load_idx(img, lab)

    @pytest.mark.parametrize("which", ["images", "labels"])
    @pytest.mark.parametrize("cut, named", [
        (2, "too short for an IDX header"), (6, "truncated dimension list"),
    ], ids=["magic", "dims"])
    def test_truncated_header(self, tmp_path, which, cut, named):
        files = {"images": idx_image_bytes(np.zeros((2, 3, 3))),
                 "labels": idx_label_bytes([0, 1])}
        files[which] = files[which][:cut]
        for name, blob in files.items():
            (tmp_path / name).write_bytes(blob)
        with pytest.raises(TruncatedFile) as excinfo:
            load_idx(tmp_path / "images", tmp_path / "labels")
        assert str(excinfo.value) == f"{tmp_path / which}: {named}"

    @pytest.mark.parametrize("which", ["images", "labels"])
    def test_trailing_bytes(self, tmp_path, which):
        # like a model or cache file, an IDX file ends with its payload
        files = {"images": idx_image_bytes(np.zeros((2, 3, 3))),
                 "labels": idx_label_bytes([0, 1])}
        files[which] += b"\x00" * 4
        for name, blob in files.items():
            (tmp_path / name).write_bytes(blob)
        with pytest.raises(CorruptFile, match=f"{which}: trailing bytes"):
            load_idx(tmp_path / "images", tmp_path / "labels")

    def test_agrees_with_reference_decoder(self, tmp_path):
        rng = np.random.default_rng(0)
        images = rng.integers(0, 256, size=(5, 4, 3)).astype(np.uint8)
        labels = rng.integers(0, 7, size=5).astype(np.uint8)
        img = tmp_path / "img"
        lab = tmp_path / "lab"
        img.write_bytes(idx_image_bytes(images))
        lab.write_bytes(idx_label_bytes(labels))

        ds = load_idx(img, lab)
        ref_inputs, ref_labels = decode_idx_reference(img.read_bytes(),
                                                      lab.read_bytes())
        np.testing.assert_array_equal(ds.inputs, ref_inputs)
        np.testing.assert_array_equal(ds.labels, ref_labels)


@pytest.mark.parametrize("load, named", [
    (lambda fd, path: load_csv(fd, "y"), "path must be a str or os.PathLike, got {fd}"),
    (lambda fd, path: load_idx(fd, path), "images must be a str or os.PathLike, got {fd}"),
    (lambda fd, path: load_idx(path, fd), "labels must be a str or os.PathLike, got {fd}"),
], ids=["csv", "idx-images", "idx-labels"])
def test_int_path_is_refused_unread(tmp_path, load, named):
    # open() would take an int as a file descriptor, read it and close it
    path = tmp_path / "d.csv"
    path.write_text("a,y\n1.0,0\n")
    fd = os.open(path, os.O_RDONLY)
    try:
        with pytest.raises(ConfigError) as excinfo:
            load(fd, path)
        assert str(excinfo.value) == named.format(fd=fd)
        assert os.lseek(fd, 0, os.SEEK_CUR) == 0  # still open, nothing read
    finally:
        os.close(fd)


class TestLoadCsv:
    def test_two_rows(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("a,b,y\n1.0,2.0,0\n3.5,4.5,1\n")
        ds = load_csv(p, "y")
        np.testing.assert_allclose(ds.inputs, [[1.0, 2.0], [3.5, 4.5]])
        assert ds.labels.tolist() == [0, 1]
        assert ds.class_count == 2

    def test_label_column_mid_file(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("a,y,b\n1.0,0,2.0\n3.5,1,4.5\n")
        ds = load_csv(p, "y")
        np.testing.assert_allclose(ds.inputs, [[1.0, 2.0], [3.5, 4.5]])

    def test_ragged_rejected(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("a,b,y\n1.0,2.0,0\n3.5,1\n")
        with pytest.raises(RaggedRows):
            load_csv(p, "y")

    def test_non_numeric_cell(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("a,y\nfoo,0\n")
        with pytest.raises(NonNumericCell):
            load_csv(p, "y")

    def test_unknown_label_column(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("a,b\n1,2\n")
        with pytest.raises(UnknownLabelColumn):
            load_csv(p, "label")

    def test_fractional_label_rejected(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("a,y\n1.0,0.5\n")
        with pytest.raises(NonNumericCell):
            load_csv(p, "y")

    def test_negative_label_rejected(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("a,y\n1.0,-1\n")
        with pytest.raises(LabelOutOfRange):
            load_csv(p, "y")

    def test_empty_file_rejected(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("")
        with pytest.raises(TruncatedFile) as excinfo:
            load_csv(p, "y")
        assert str(excinfo.value) == f"{p}: empty file"


@pytest.mark.parametrize("inputs, labels, error, named", [
    (np.zeros(3), [0, 1, 0], FeatPriorError, "inputs must be n x d with n >= 1, got (3,)"),
    (np.zeros((0, 2)), [], FeatPriorError, "inputs must be n x d with n >= 1, got (0, 2)"),
    (np.zeros((3, 2)), [0, 1], FeatPriorError, "labels must be one per input row"),
    (np.zeros((2, 3, 1)), [0, 1], FeatPriorError,
     "inputs must be n x d with n >= 1, got (2, 3, 1)"),
    (np.array([[0.0], [np.nan]]), [0, 1], FeatPriorError, "inputs contain non-finite values"),
    (np.array([[0.0], [np.inf]]), [0, 1], FeatPriorError, "inputs contain non-finite values"),
    (np.zeros((2, 1)), [0, 2], LabelOutOfRange, "labels must lie in [0, 2)"),
    (np.zeros((2, 1)), [-1, 1], LabelOutOfRange, "labels must lie in [0, 2)"),
], ids=["1-d", "no-rows", "labels-short", "3-d", "nan", "inf", "label-high", "label-negative"])
def test_dataset_refusals(inputs, labels, error, named):
    with pytest.raises(FeatPriorError) as excinfo:
        Dataset(inputs, labels, class_count=2)
    assert type(excinfo.value) is error
    assert str(excinfo.value) == named


class TestSynthBlobs:
    def test_wide_separation_linearly_separable(self):
        ds = synth_blobs(100, 2, 2, separation=10.0, seed=0)
        parts = split_and_batch(ds, 0.5, 16, seed=1)
        acc = split_probe_accuracy(ds, parts)
        assert acc >= 0.999

    def test_tiny_separation_near_chance(self):
        ds = synth_blobs(200, 2, 2, separation=0.01, seed=0)
        parts = split_and_batch(ds, 0.5, 16, seed=1)
        acc = split_probe_accuracy(ds, parts)
        assert acc <= 0.6

    def test_deterministic(self):
        a = synth_blobs(10, 3, 4, 2.0, seed=7)
        b = synth_blobs(10, 3, 4, 2.0, seed=7)
        np.testing.assert_array_equal(a.inputs, b.inputs)
        np.testing.assert_array_equal(a.labels, b.labels)

    def test_separation_must_be_positive(self):
        with pytest.raises(ConfigError):
            synth_blobs(10, 2, 2, 0.0, seed=0)


class TestSynthRings:
    def test_zero_noise_radius_determines_class(self):
        ds = synth_rings(50, 3, noise=0.0, seed=3)
        radii = np.linalg.norm(ds.inputs, axis=1)
        np.testing.assert_allclose(radii, ds.labels + 1.0, atol=1e-12)

    def test_linear_probe_fails_on_rings(self):
        ds = synth_rings(200, 3, noise=0.1, seed=4)
        parts = split_and_batch(ds, 0.5, 16, seed=5)
        acc = split_probe_accuracy(ds, parts)
        assert acc <= 0.6

    def test_deterministic(self):
        a = synth_rings(10, 2, 0.2, seed=8)
        b = synth_rings(10, 2, 0.2, seed=8)
        np.testing.assert_array_equal(a.inputs, b.inputs)


class TestSplitAndBatch:
    def test_half_split_of_ten(self):
        ds = synth_blobs(5, 2, 2, 1.0, seed=0)
        parts = split_and_batch(ds, 0.5, 2, seed=0)
        assert parts.train.n == 5
        assert parts.test.n == 5

    def test_split_is_partition(self):
        ds = synth_blobs(20, 2, 2, 1.0, seed=0)
        parts = split_and_batch(ds, 0.3, 4, seed=1)
        train_ids = set(parts.train.source_indices.tolist())
        test_ids = set(parts.test.source_indices.tolist())
        assert train_ids.isdisjoint(test_ids)
        assert train_ids | test_ids == set(range(ds.n))

    def test_epoch_batches_partition_train(self):
        ds = synth_blobs(20, 2, 2, 1.0, seed=0)
        parts = split_and_batch(ds, 0.25, 7, seed=2)
        for epoch in (0, 1, 5):
            batches = parts.schedule.epoch_batches(epoch)
            flat = np.concatenate(batches)
            assert sorted(flat.tolist()) == sorted(
                parts.train.source_indices.tolist())

    def test_same_seed_same_schedule(self):
        ds = synth_blobs(20, 2, 2, 1.0, seed=0)
        a = split_and_batch(ds, 0.25, 8, seed=3)
        b = split_and_batch(ds, 0.25, 8, seed=3)
        np.testing.assert_array_equal(a.train.source_indices,
                                      b.train.source_indices)
        for ba, bb in zip(a.schedule.epoch_batches(4), b.schedule.epoch_batches(4)):
            np.testing.assert_array_equal(ba, bb)

    def test_batch_too_small(self):
        ds = synth_blobs(10, 2, 2, 1.0, seed=0)
        with pytest.raises(BatchTooSmall):
            split_and_batch(ds, 0.5, 1, seed=0)

    def test_bad_fraction(self):
        ds = synth_blobs(10, 2, 2, 1.0, seed=0)
        with pytest.raises(ConfigError):
            split_and_batch(ds, 1.5, 2, seed=0)

    @pytest.mark.parametrize("n_per_class, fraction, seed",
                             [(5, 0.5, 0), (20, 0.3, 1), (33, 0.25, 7)])
    def test_halves_are_sorted_rows_of_the_seeded_permutation(
            self, n_per_class, fraction, seed):
        ds = synth_blobs(n_per_class, 3, 2, 1.0, seed=0)
        parts = split_and_batch(ds, fraction, 2, seed=seed)
        train, test = parts.train.source_indices, parts.test.source_indices
        for rows in (train, test):
            assert np.all(np.diff(rows) > 0)  # sorted, no repeats
        assert np.intersect1d(train, test).size == 0
        np.testing.assert_array_equal(np.union1d(train, test), np.arange(ds.n))
        assert (parts.train.n, parts.test.n) == (train.size, test.size)
        perm = np.random.default_rng(seed).permutation(ds.n)
        np.testing.assert_array_equal(test, np.sort(perm[:test.size]))
        np.testing.assert_array_equal(train, np.sort(perm[test.size:]))



class TestRows:
    @pytest.mark.parametrize("indices", [[0, 2, 5], (0, 2, 5), range(0, 6, 3),
                                         np.array([0, 2, 5], dtype=np.int32)])
    def test_kept_as_a_1d_int64_array(self, indices):
        rows = Rows(indices)
        assert rows.source_indices.dtype == np.int64
        np.testing.assert_array_equal(rows.source_indices, list(indices))
        assert rows.n == len(indices)

    def test_one_shot_iterable_is_read_once(self):
        rows = Rows(i for i in (4, 1, 3))
        np.testing.assert_array_equal(rows.source_indices, [4, 1, 3])
        assert rows.n == 3

    def test_empty_is_an_empty_int_array(self):
        assert Rows([]).source_indices.dtype == np.int64
        assert Rows([]).n == 0

    @pytest.mark.parametrize("indices", [[0.5, 1.0], [True, False], [[0, 1]],
                                         [[0], [1, 2]], 3, None, "012", {1, 2}])
    def test_anything_else_is_refused_by_value(self, indices):
        with pytest.raises(ConfigError, match="row indices must be a 1-D array of "
                                              "integers, got "):
            Rows(indices)


class TestFeatureCache:
    def make_cache(self):
        rng = np.random.default_rng(5)
        return FeatureCache(
            groups={0: rng.standard_normal((6, 4)).astype(np.float32),
                    2: rng.standard_normal((6, 8)).astype(np.float32)},
            dataset_fingerprint=bytes(range(32)),
            teacher_fingerprint=bytes(range(32, 64)),
        )

    def test_round_trip_bitwise(self, tmp_path):
        cache = self.make_cache()
        path = tmp_path / "c.fpfc"
        write_cache(path, cache)
        restored = read_cache(path)
        assert set(restored.groups) == {0, 2}
        for gid in (0, 2):
            np.testing.assert_array_equal(restored.groups[gid],
                                          cache.groups[gid])
        assert restored.dataset_fingerprint == cache.dataset_fingerprint
        assert restored.teacher_fingerprint == cache.teacher_fingerprint
        assert serialize_cache(restored) == serialize_cache(cache)

    def test_group_shapes_recovered(self, tmp_path):
        cache = self.make_cache()
        path = tmp_path / "c.fpfc"
        write_cache(path, cache)
        restored = read_cache(path)
        assert restored.groups[0].shape == (6, 4)
        assert restored.groups[2].shape == (6, 8)

    def test_tampered_fingerprint_detected(self, tmp_path):
        # the reader takes the hash as written; a fit that reads the cache
        # refuses one that is not its dataset's
        from featprior.network import NetworkSpec, init_params
        from featprior.train import LayerGroupMapping, TrainPlan, joint_fit

        ds = synth_blobs(3, 2, 2, 1.0, seed=0)
        cache = FeatureCache(groups=self.make_cache().groups,
                             dataset_fingerprint=dataset_fingerprint(ds),
                             teacher_fingerprint=bytes(range(32, 64)))
        path = tmp_path / "c.fpfc"
        blob = bytearray(serialize_cache(cache))
        blob[10] ^= 0xFF  # inside the dataset fingerprint
        path.write_bytes(bytes(blob))

        def fit(c):
            joint_fit(init_params(NetworkSpec.dense(2, [4], 2), 0), ds, c,
                      LayerGroupMapping(((0, 0),)),
                      TrainPlan(batch_size=3, phase1_epochs=0, phase2_epochs=1))

        fit(cache)
        with pytest.raises(FingerprintMismatch, match="cache was built from a different dataset"):
            fit(read_cache(path))

    @pytest.mark.parametrize("keep", [None, {0}, {2}, set()])
    def test_shapes_list_every_group(self, tmp_path, keep):
        path = tmp_path / "c.fpfc"
        write_cache(path, self.make_cache())
        cache = read_cache(path, groups=keep)
        assert cache.shapes == {0: (6, 4), 2: (6, 8)}
        assert cache.n == 6

    def test_kept_groups_from_an_iterator(self, tmp_path):
        # each group is tested against the names once read, not a consumed iterator
        path = tmp_path / "c.fpfc"
        write_cache(path, self.make_cache())
        assert set(read_cache(path, groups=iter([2, 0])).groups) == {0, 2}

    def test_skipped_group_row_count_is_refused(self, tmp_path):
        # group 2 as 12 x 4 in place of 6 x 8: the same payload, another row
        # count; refused when only group 0 is kept, as in memory
        blob = packed_at("<QI", 192, 12, 4)(bytearray(serialize_cache(self.make_cache())))
        path = tmp_path / "c.fpfc"
        path.write_bytes(bytes(blob))
        with pytest.raises(FeatPriorError, match=r"disagree on row count: {\(\d+,\), \(\d+,\)}"):
            read_cache(path, groups={0})
        with pytest.raises(FeatPriorError, match="disagree on row count"):
            FeatureCache(groups={0: np.zeros((6, 4), np.float32)}, dataset_fingerprint=bytes(32),
                         teacher_fingerprint=bytes(32), shapes={2: (12, 4)})

    def test_corrupt_payload(self, tmp_path):
        cache = self.make_cache()
        path = tmp_path / "c.fpfc"
        write_cache(path, cache)
        path.write_bytes(path.read_bytes()[:-5])
        with pytest.raises(CorruptFile):
            read_cache(path)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_group_is_corrupt(self, tmp_path, bad):
        # a valid writer never stores NaN or infinity: forward rejects them
        cache = self.make_cache()
        cache.groups[2][3, 1] = bad
        path = tmp_path / "c.fpfc"
        write_cache(path, cache)
        with pytest.raises(CorruptFile, match="group 2 holds NaN or infinity"):
            read_cache(path)

    def test_non_finite_group_is_corrupt_before_the_next_is_read(self, tmp_path):
        # group 0 is checked before group 2's header: cut inside that header,
        # the file still fails on group 0's values
        cache = self.make_cache()
        cache.groups[0][:, 1] = np.nan
        path = tmp_path / "c.fpfc"
        path.write_bytes(serialize_cache(cache)[:196])
        with pytest.raises(CorruptFile, match="group 0 holds NaN or infinity"):
            read_cache(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "c.fpfc"
        path.write_bytes(b"NOPE" + bytes(80))
        with pytest.raises(BadMagic):
            read_cache(path)

    @pytest.mark.parametrize("blob, error, message", [
        (b"", BadMagic, "bad cache magic"),
        (b"FPFC" + bytes(10), CorruptFile, "truncated cache header"),
        (b"FPFC" + struct.pack("<I", 2) + bytes(68), CorruptFile,
         "unsupported cache version 2"),
        (b"FPFC" + struct.pack("<I", 1) + bytes(68) + b"x", CorruptFile,
         "trailing bytes after cache payload"),
    ], ids=["empty", "short_header", "version", "trailing"])
    def test_header_checks(self, tmp_path, blob, error, message):
        path = tmp_path / "c.fpfc"
        path.write_bytes(blob)
        with pytest.raises(error, match=message):
            read_cache(path)

    # make_cache's file: header 76 bytes, group 0 at 76 (16 + 96 bytes),
    # group 2 at 188 (16 + 192 bytes), 396 bytes in all
    @pytest.mark.parametrize("length, message", [
        (196, "truncated group header"),
        (300, "truncated group payload"),
        (395, "truncated group payload"),
    ])
    def test_truncated_second_group(self, tmp_path, length, message):
        blob = serialize_cache(self.make_cache())
        assert len(blob) == 396
        path = tmp_path / "c.fpfc"
        path.write_bytes(blob[:length])
        with pytest.raises(CorruptFile, match=message):
            read_cache(path)

    @pytest.mark.parametrize("rows", [10 ** 6, 2 ** 60])
    def test_oversized_row_count_is_corrupt_before_allocating(self, tmp_path, rows):
        blob = bytearray(serialize_cache(self.make_cache()))
        struct.pack_into("<Q", blob, 76 + 4, rows)  # group 0's row count
        path = tmp_path / "c.fpfc"
        path.write_bytes(bytes(blob))

        def read():
            with pytest.raises(CorruptFile, match="truncated group payload"):
                read_cache(path)

        _, peak = traced_peak(read)
        assert peak < 64 * 1024  # 10**6 rows of width 4 would be 16 MB

    def test_repeated_group_id_is_corrupt(self, tmp_path):
        blob = b"".join([
            b"FPFC", struct.pack("<I", 1), bytes(64), struct.pack("<I", 2),
            struct.pack("<IQI", 0, 2, 1), struct.pack("<2f", 1.0, 2.0),
            struct.pack("<IQI", 0, 2, 1), struct.pack("<2f", 3.0, 4.0),
        ])
        path = tmp_path / "c.fpfc"
        path.write_bytes(blob)
        with pytest.raises(CorruptFile, match="group 0 appears twice"):
            read_cache(path)

    @pytest.mark.parametrize("keep", [{0}, {2}, {0, 2}, set(), {2, 5}])
    def test_kept_groups_equal_a_full_read(self, tmp_path, monkeypatch, keep):
        # a group that is not kept streams through the buffer in 5-value pieces
        monkeypatch.setattr(data, "_SKIP_VALUES", 5)
        path = tmp_path / "c.fpfc"
        write_cache(path, self.make_cache())
        full = read_cache(path)
        kept = read_cache(path, groups=keep)
        assert set(kept.groups) == keep & {0, 2}
        for gid, mat in kept.groups.items():
            assert mat.dtype == np.float32 and mat.flags.c_contiguous
            np.testing.assert_array_equal(mat, full.groups[gid])
        assert kept.dataset_fingerprint == full.dataset_fingerprint
        assert kept.teacher_fingerprint == full.teacher_fingerprint

    # each fault sits in group 2 (at 188; its values at 204), or in its id or
    # row count; a read that keeps group 0 only, or no group, must refuse the
    # file with the error of a full read, before allocating an oversized group
    @pytest.mark.parametrize("corrupt, error, message", [
        (lambda b: b[:196], CorruptFile, "truncated group header"),
        (lambda b: b[:300], CorruptFile, "truncated group payload"),
        (lambda b: b[:395], CorruptFile, "truncated group payload"),
        (packed_at("<f", 204, np.nan), CorruptFile, "group 2 holds NaN or infinity"),
        (packed_at("<f", 392, np.inf), CorruptFile, "group 2 holds NaN or infinity"),
        (packed_at("<f", 392, -np.inf), CorruptFile, "group 2 holds NaN or infinity"),
        (packed_at("<I", 188, 0), CorruptFile, "group 0 appears twice"),
        (packed_at("<Q", 192, 10 ** 6), CorruptFile, "truncated group payload"),
        (packed_at("<Q", 192, 2 ** 60), CorruptFile, "truncated group payload"),
        (lambda b: b + b"x", CorruptFile, "trailing bytes after cache payload"),
        # 12 x 4 in place of 6 x 8: the same payload, a different row count
        (packed_at("<QI", 192, 12, 4), FeatPriorError, "disagree on row count"),
    ], ids=["header", "payload", "last-value", "nan", "inf", "-inf", "repeated-id",
            "rows-1e6", "rows-2^60", "trailing", "row-counts"])
    @pytest.mark.parametrize("keep", [None, {0}, set()], ids=["all", "other", "none"])
    def test_groups_not_kept_are_checked(self, tmp_path, monkeypatch, corrupt, error,
                                         message, keep):
        monkeypatch.setattr(data, "_SKIP_VALUES", 5)
        blob = corrupt(bytearray(serialize_cache(self.make_cache())))
        path = tmp_path / "c.fpfc"
        path.write_bytes(bytes(blob))

        def read():
            with pytest.raises(error, match=message):
                read_cache(path, groups=keep)

        _, peak = traced_peak(read)
        assert peak < 64 * 1024  # 10**6 rows of width 8 would be 32 MB

    @pytest.mark.parametrize("layout", ["float64", "non_contiguous", "fortran"])
    def test_write_cache_equals_serialize_cache(self, tmp_path, layout):
        rng = np.random.default_rng(7)
        values = rng.standard_normal((6, 10))
        mat = {"float64": values,
               "non_contiguous": values.astype(np.float32)[:, ::2],
               "fortran": np.asfortranarray(values.astype(np.float32))}[layout]
        cache = FeatureCache(groups={1: mat, 0: values[:, :3].astype(np.float32)},
                             dataset_fingerprint=bytes(range(32)),
                             teacher_fingerprint=bytes(range(32, 64)))
        path = tmp_path / "c.fpfc"
        write_cache(path, cache)
        expected = b"".join([
            b"FPFC", struct.pack("<I", 1), bytes(range(64)), struct.pack("<I", 2),
            struct.pack("<IQI", 0, 6, 3), values[:, :3].astype("<f4").tobytes(),
            struct.pack("<IQI", 1, *mat.shape), mat.astype("<f4").tobytes(order="C"),
        ])
        assert path.read_bytes() == serialize_cache(cache) == expected

    def large_cache(self):
        rng = np.random.default_rng(8)
        return FeatureCache(
            groups={gid: rng.standard_normal((2048, 64)).astype(np.float32)
                    for gid in (0, 1)},
            dataset_fingerprint=bytes(32), teacher_fingerprint=bytes(32))

    def test_write_cache_does_not_copy_the_payload(self, tmp_path):
        cache = self.large_cache()
        payload = sum(m.nbytes for m in cache.groups.values())  # 1 MiB
        _, peak = traced_peak(write_cache, tmp_path / "c.fpfc", cache)
        assert peak < 0.1 * payload

    def test_read_cache_holds_the_payload_once(self, tmp_path):
        cache = self.large_cache()
        payload = sum(m.nbytes for m in cache.groups.values())
        path = tmp_path / "c.fpfc"
        write_cache(path, cache)
        restored, peak = traced_peak(read_cache, path)
        assert peak <= payload + 64 * 1024
        for gid, mat in cache.groups.items():
            got = restored.groups[gid]
            assert got.dtype == np.float32 and got.flags.c_contiguous
            np.testing.assert_array_equal(got, mat)

    def test_read_cache_holds_only_the_kept_groups(self, tmp_path):
        # group 0 is checked through a buffer of _SKIP_VALUES float32 values
        cache = self.large_cache()
        path = tmp_path / "c.fpfc"
        write_cache(path, cache)
        restored, peak = traced_peak(read_cache, path, groups={1})
        assert set(restored.groups) == {1}
        assert peak <= cache.groups[1].nbytes + 4 * data._SKIP_VALUES + 64 * 1024
        np.testing.assert_array_equal(restored.groups[1], cache.groups[1])

    def test_fingerprint_sensitive_to_labels(self):
        ds = synth_blobs(5, 2, 2, 1.0, seed=0)
        permuted = Dataset(inputs=ds.inputs, labels=ds.labels[::-1].copy(),
                           class_count=ds.class_count)
        assert dataset_fingerprint(ds) != dataset_fingerprint(permuted)

    def test_golden_byte_layout(self):
        cache = FeatureCache(
            groups={3: np.array([[1.5], [-2.0]], dtype=np.float32)},
            dataset_fingerprint=bytes(range(32)),
            teacher_fingerprint=bytes(range(32, 64)),
        )
        expected = b"".join([
            b"FPFC",
            struct.pack("<I", 1),
            bytes(range(32)),
            bytes(range(32, 64)),
            struct.pack("<I", 1),
            struct.pack("<IQI", 3, 2, 1),
            struct.pack("<2f", 1.5, -2.0),
        ])
        assert serialize_cache(cache) == expected
