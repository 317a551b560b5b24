"""Dataset container and CSV ingestion tests."""

import numpy as np
import pytest

from biasdiv.data import (
    Dataset,
    DatasetSchema,
    MinMaxScaler,
    builtin_dataset_path,
    load_csv,
    make_toy_blobs,
    save_csv,
    segment_by_class,
    split_stratified,
)
from biasdiv.errors import (
    CsvParseError,
    DataError,
    LabelError,
    SchemaError,
    StratificationError,
)


def small_ds():
    return Dataset(
        np.array([[0.0, 1.0], [2.0, 3.0], [4.0, 5.0], [6.0, 7.0]]),
        np.array([0, 1, 0, 1]),
        ("a", "b"),
        ("f0", "f1"),
    )


# -- Dataset invariants --------------------------------------------------------

def test_dataset_defaults_to_original_provenance():
    ds = small_ds()
    assert ds.n == 4 and ds.d == 2 and ds.L == 2
    assert ds.synthetic.dtype == bool and not ds.synthetic.any()


def test_synthetic_mask_follows_rows():
    base = small_ds()
    ds = Dataset(base.features, base.labels, base.class_names, base.feature_names,
                 [False, True, True, False])
    assert ds.take([3, 0, 1]).synthetic.tolist() == [False, False, True]
    assert [p.synthetic.tolist() for p in segment_by_class(ds)] == [[False, True],
                                                                   [True, False]]
    with pytest.raises(ValueError, match="row counts"):
        Dataset(base.features, base.labels, base.class_names, base.feature_names,
                [False, True])


def test_dataset_rejects_missing_class():
    with pytest.raises(ValueError, match="never appear"):
        Dataset(np.zeros((2, 1)), np.array([0, 0]), ("a", "b"), ("f0",))


def test_dataset_rejects_non_finite():
    with pytest.raises(ValueError, match="non-finite"):
        Dataset(np.array([[np.nan]]), np.array([0]), ("a",), ("f0",))


def test_dataset_rejects_shape_mismatch():
    with pytest.raises(ValueError):
        Dataset(np.zeros((3, 1)), np.array([0, 0]), ("a",), ("f0",))
    with pytest.raises(ValueError):
        Dataset(np.zeros((2, 2)), np.array([0, 0]), ("a",), ("f0",))


def test_dataset_take_and_counts():
    ds = small_ds()
    sub = ds.take([0, 1])
    assert sub.n == 2
    assert ds.class_counts().tolist() == [2, 2]
    with pytest.raises(ValueError):
        ds.take([0, 2])   # drops class b


# -- schema --------------------------------------------------------------------

def test_schema_validation():
    with pytest.raises(ValueError):
        DatasetSchema(label_column="y", feature_columns=[])
    with pytest.raises(ValueError):
        DatasetSchema(label_column="f0", feature_columns=["f0", "f1"])
    with pytest.raises(ValueError):
        DatasetSchema(label_column="y", feature_columns=["f0"],
                      class_name_mapping={"a": 0, "b": 2})


# -- CSV ingestion ---------------------------------------------------------------

def write(tmp_path, text, name="data.csv"):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return p


def test_load_csv_first_appearance_labels(tmp_path):
    p = write(tmp_path, "f0,y\n1.0,A\n2.0,B\n3.0,A\n")
    ds = load_csv(p, DatasetSchema(label_column="y", feature_columns=["f0"]))
    assert ds.labels.tolist() == [0, 1, 0]
    assert ds.class_names == ("A", "B")
    assert not ds.synthetic.any()


def test_load_csv_with_mapping_and_index_columns(tmp_path):
    p = write(tmp_path, "y,f0,f1\nB,1.0,10.0\nA,2.0,20.0\n")
    schema = DatasetSchema(label_column=0, feature_columns=[1, 2],
                           class_name_mapping={"A": 0, "B": 1})
    ds = load_csv(p, schema)
    assert ds.labels.tolist() == [1, 0]
    assert ds.class_names == ("A", "B")
    assert ds.feature_names == ("f0", "f1")


def test_load_csv_missing_column(tmp_path):
    p = write(tmp_path, "f0,y\n1.0,A\n2.0,B\n")
    with pytest.raises(SchemaError, match="'f9'"):
        load_csv(p, DatasetSchema(label_column="y", feature_columns=["f9"]))


def test_load_csv_parse_error_names_row_and_column(tmp_path):
    p = write(tmp_path, "f0,f1,y\n1.0,2.0,A\n3.0,abc,B\n")
    with pytest.raises(CsvParseError, match=r"row 2, column 'f1'.*'abc'"):
        load_csv(p, DatasetSchema(label_column="y", feature_columns=["f0", "f1"]))


def test_load_csv_rejects_non_finite_cell(tmp_path):
    p = write(tmp_path, "f0,y\nnan,A\n1.0,B\n")
    with pytest.raises(CsvParseError, match="non-finite"):
        load_csv(p, DatasetSchema(label_column="y", feature_columns=["f0"]))


@pytest.mark.parametrize("cell", ["inf", "-inf", "1e999", "NaN"])
def test_load_csv_non_finite_cell_names_row_and_column(tmp_path, cell):
    p = write(tmp_path, f"f0,f1,y\n1.0,2.0,A\n3.0,{cell},B\n")
    with pytest.raises(CsvParseError,
                       match=rf"row 2, column 'f1': non-finite value '{cell}'"):
        load_csv(p, DatasetSchema(label_column="y", feature_columns=["f0", "f1"]))


@pytest.mark.parametrize("text", ["y,f0,f1\nA,1.5,2.0\nB,3.0,-4.25\n",
                                  "f0,f1,y\n1.5,2.0,A\n3.0,-4.25,B\n"],
                         ids=["label-first", "label-last"])
def test_load_csv_skips_a_byte_order_mark(tmp_path, text):
    """A file that starts with a UTF-8 byte-order mark (Excel's "CSV UTF-8")
    loads to the same dataset as the file without it, whether the label is
    its first column or its last, and its first column keeps its name."""
    plain = write(tmp_path, text, name="plain.csv")
    marked = tmp_path / "marked.csv"
    marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
    for schema in (DatasetSchema(label_column="y"),
                   DatasetSchema(label_column="y", feature_columns=["f1", "f0"])):
        want, got = load_csv(plain, schema), load_csv(marked, schema)
        assert got.feature_names == want.feature_names
        assert got.class_names == want.class_names
        assert np.array_equal(got.features, want.features)
        assert np.array_equal(got.labels, want.labels)
        assert np.array_equal(got.synthetic, want.synthetic)


def test_load_csv_unmapped_label(tmp_path):
    p = write(tmp_path, "f0,y\n1.0,A\n2.0,C\n")
    schema = DatasetSchema(label_column="y", feature_columns=["f0"],
                           class_name_mapping={"A": 0, "B": 1})
    with pytest.raises(LabelError, match="'C'"):
        load_csv(p, schema)


def test_load_csv_mapped_class_absent(tmp_path):
    p = write(tmp_path, "f0,y\n1.0,A\n2.0,A\n")
    schema = DatasetSchema(label_column="y", feature_columns=["f0"],
                           class_name_mapping={"A": 0, "B": 1})
    with pytest.raises(LabelError, match="never appear"):
        load_csv(p, schema)



def test_load_csv_rejects_empty_label(tmp_path):
    p = write(tmp_path, "f0,y\n1.0,x\n2.0,y\n3.0,\n4.0,x\n5.0,y\n6.0,\n")
    with pytest.raises(LabelError, match="row 3, column 'y': empty class label"):
        load_csv(p, DatasetSchema(label_column="y", feature_columns=["f0"]))


def test_load_csv_default_features_are_the_other_columns(tmp_path):
    p = write(tmp_path, "f0,y,f1\n1.0,A,2.0\n3.0,B,4.0\n")
    for label in ("y", 1):
        ds = load_csv(p, DatasetSchema(label_column=label))
        assert ds.feature_names == ("f0", "f1")
        assert ds.class_names == ("A", "B")
        assert np.array_equal(ds.features, [[1.0, 2.0], [3.0, 4.0]])
    with pytest.raises(SchemaError, match="no feature columns"):
        load_csv(write(tmp_path, "y\nA\n", name="only.csv"), DatasetSchema(label_column="y"))


def test_load_csv_rejects_repeated_header_name(tmp_path):
    p = write(tmp_path, "a,a,label\n1,2,x\n3,4,y\n")
    for schema in (DatasetSchema("label"), DatasetSchema("label", ["a"]),
                   DatasetSchema(2, [0, 1])):
        with pytest.raises(SchemaError, match=r"repeats column name\(s\) \['a'\]"):
            load_csv(p, schema)


def test_load_csv_empty_and_ragged(tmp_path):
    with pytest.raises(DataError):
        load_csv(write(tmp_path, "", name="e.csv"),
                 DatasetSchema(label_column="y", feature_columns=["f0"]))
    with pytest.raises(CsvParseError, match="row 1"):
        load_csv(write(tmp_path, "f0,y\n1.0\n", name="r.csv"),
                 DatasetSchema(label_column="y", feature_columns=["f0"]))


def test_csv_round_trip(tmp_path):
    ds = make_toy_blobs(per_class=4, centers=[[0.0, 0.0], [7.3, -2.1]],
                        spread=1.5, seed=3)
    p = tmp_path / "round.csv"
    save_csv(ds, p)
    schema = DatasetSchema(label_column="label", feature_columns=list(ds.feature_names),
                           class_name_mapping={n: i for i, n in enumerate(ds.class_names)})
    back = load_csv(p, schema)
    assert np.array_equal(back.features, ds.features)
    assert np.array_equal(back.labels, ds.labels)
    assert back.class_names == ds.class_names
    assert back.feature_names == ds.feature_names


def test_builtin_iris_loads():
    path = builtin_dataset_path("iris")
    schema = DatasetSchema(
        label_column="species",
        feature_columns=["sepal_length", "sepal_width", "petal_length", "petal_width"],
    )
    ds = load_csv(path, schema)
    assert (ds.n, ds.d, ds.L) == (150, 4, 3)
    assert ds.class_counts().tolist() == [50, 50, 50]
    with pytest.raises(DataError):
        builtin_dataset_path("nope")


# -- splitting -------------------------------------------------------------------

def test_split_iris_like_fraction():
    ds = make_toy_blobs(per_class=50, centers=[[0.0], [10.0], [20.0]],
                        spread=1.0, seed=1)
    train, test = split_stratified(ds, 0.8, seed=7)
    assert (train.n, test.n) == (120, 30)
    assert train.class_counts().tolist() == [40, 40, 40]
    assert test.class_counts().tolist() == [10, 10, 10]


def test_split_hand_rounding():
    ds = make_toy_blobs(per_class=5, centers=[[0.0], [10.0]], spread=0.5, seed=2)
    train, test = split_stratified(ds, 0.6, seed=0)
    assert (train.n, test.n) == (6, 4)
    assert train.class_counts().tolist() == [3, 3]


def test_split_deterministic_and_exhaustive():
    ds = make_toy_blobs(per_class=9, centers=[[0.0], [5.0], [9.0]], spread=1.0, seed=4)
    a_train, a_test = split_stratified(ds, 0.7, seed=11)
    b_train, b_test = split_stratified(ds, 0.7, seed=11)
    assert np.array_equal(a_train.features, b_train.features)
    assert np.array_equal(a_test.features, b_test.features)
    # concatenation recovers a permutation of the original rows
    merged = np.vstack([a_train.features, a_test.features])
    order = np.lexsort(merged.T)
    base = np.lexsort(ds.features.T)
    assert np.array_equal(merged[order], ds.features[base])


def test_split_single_row_class_fails():
    ds = Dataset(np.array([[0.0], [1.0], [2.0]]), np.array([0, 0, 1]),
                 ("a", "b"), ("f0",))
    with pytest.raises(StratificationError, match="'b'"):
        split_stratified(ds, 0.5, seed=0)


def test_split_fraction_bounds():
    ds = small_ds()
    for f in (0.0, 1.0, -0.2):
        with pytest.raises(ValueError):
            split_stratified(ds, f, seed=0)


def test_split_keeps_both_sides_non_empty_extremes():
    ds = make_toy_blobs(per_class=2, centers=[[0.0], [9.0]], spread=0.1, seed=5)
    train, test = split_stratified(ds, 0.99, seed=1)
    assert train.class_counts().min() >= 1
    assert test.class_counts().min() >= 1


# -- segmentation ----------------------------------------------------------------

def test_segment_interleaved():
    ds = small_ds()
    parts = segment_by_class(ds)
    assert isinstance(parts, tuple)
    assert [p.n for p in parts] == [2, 2]
    assert np.array_equal(parts[0].features, ds.features[[0, 2]])
    assert np.array_equal(parts[1].features, ds.features[[1, 3]])
    assert [p.class_names for p in parts] == [("a",), ("b",)]
    assert all(p.labels.tolist() == [0, 0] for p in parts)


def test_segment_single_class_identity():
    ds = Dataset(np.array([[1.0], [2.0]]), np.array([0, 0]), ("only",), ("f0",))
    parts = segment_by_class(ds)
    assert len(parts) == 1
    assert np.array_equal(parts[0].features, ds.features)


def test_segment_row_order_preserved():
    ds = make_toy_blobs(per_class=6, centers=[[0.0], [8.0]], spread=1.0, seed=9)
    parts = segment_by_class(ds)
    for c, part in enumerate(parts):
        assert np.array_equal(part.features, ds.features[ds.labels == c])


# -- toy blobs -------------------------------------------------------------------

def test_blobs_zero_spread_copies_centers():
    ds = make_toy_blobs(per_class=5, centers=[[1.0, 2.0], [3.0, 4.0]],
                        spread=0.0, seed=0)
    assert np.array_equal(ds.features[:5], np.tile([1.0, 2.0], (5, 1)))
    assert np.array_equal(ds.features[5:], np.tile([3.0, 4.0], (5, 1)))


def test_blobs_box_containment_and_determinism():
    ds = make_toy_blobs(per_class=50, centers=[[0.0, 0.0], [10.0, 10.0]],
                        spread=1.0, seed=6)
    c0 = ds.features[ds.labels == 0]
    assert np.all(np.abs(c0) <= 1.0)
    again = make_toy_blobs(per_class=50, centers=[[0.0, 0.0], [10.0, 10.0]],
                           spread=1.0, seed=6)
    assert np.array_equal(ds.features, again.features)


def test_blobs_argument_errors():
    with pytest.raises(ValueError):
        make_toy_blobs(per_class=0, centers=[[0.0]], spread=1.0, seed=0)
    with pytest.raises(ValueError):
        make_toy_blobs(per_class=1, centers=[], spread=1.0, seed=0)
    with pytest.raises(ValueError):
        make_toy_blobs(per_class=1, centers=[[0.0]], spread=-1.0, seed=0)


# -- scaling ---------------------------------------------------------------------

def test_minmax_scaler_train_test_consistency():
    train = Dataset(np.array([[0.0, 5.0], [10.0, 5.0]]), np.array([0, 1]),
                    ("a", "b"), ("f0", "f1"))
    scaler = MinMaxScaler.fit(train.features)
    out = scaler.transform(train)
    assert out.features[:, 0].tolist() == [0.0, 1.0]
    assert out.features[:, 1].tolist() == [0.0, 0.0]   # constant feature pinned
    test = Dataset(np.array([[5.0, 7.0]]), np.array([0]), ("a",), ("f0", "f1"))
    assert scaler.transform(test).features[0, 0] == pytest.approx(0.5)
