"""The toolkit errors: messages, attributes, exit codes, pickling."""

from __future__ import annotations

import multiprocessing
import pickle
from concurrent.futures import ProcessPoolExecutor
from fractions import Fraction

import pytest

from scorepotential import MalformedRow, ToolkitError, read_sample_columns

# Each error class: its arguments, the attributes they set, its exit code and
# its message, written out as the message f-strings of each class formerly read.
ERRORS = {
    "EmptySample": ((), {}, 10, "sample contains no records"),
    "NonFiniteScore": (("r7",), {"record_id": "r7"}, 11, "record 'r7' has a non-finite score"),
    "ZeroBaseRate": ((), {}, 12, "base response rate is zero"),
    "NoResponders": ((), {}, 13, "sample contains no responders"),
    "CutoffTooSmall": ((Fraction(1, 1000), 10), {"fraction": Fraction(1, 1000), "sample_size": 10},
                       14, "cut-off 1/1000 selects zero of 10 names"),
    "DegenerateClasses": ((), {}, 15, "AUC needs at least one responder and one non-responder"),
    "IndivisibleBuckets": ((101, 10), {"sample_size": 101, "bucket_count": 10}, 16,
                           "bucket count 10 does not divide sample size 101"),
    "EmptyBatch": ((), {}, 17, "comparison needs at least one evaluation"),
    "TooFewPoints": ((1,), {"count": 1}, 18, "figure needs at least 2 series points, got 1"),
    "MalformedRow": ((4, "empty id"), {"line_no": 4, "reason": "empty id"}, 21,
                     "line 4: empty id"),
    "DuplicateId": (("a",), {"record_id": "a"}, 22, "duplicate record id 'a'"),
    "BadResponseValue": ((3,), {"line_no": 3}, 23, "line 3: response must be 0 or 1"),
}

CLASSES = ToolkitError.__subclasses__()


def test_there_are_twelve_error_classes():
    assert len(CLASSES) == 12
    assert sorted(cls.__name__ for cls in CLASSES) == sorted(ERRORS)


@pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__name__)
def test_each_error_keeps_its_message_attributes_and_exit_code(cls):
    args, attributes, exit_code, message = ERRORS[cls.__name__]
    err = cls(*args)
    assert str(err) == message
    assert {name: getattr(err, name) for name in attributes} == attributes
    assert err.exit_code == exit_code
    assert err.model_id is None
    err.model_id = "m1"
    assert str(err) == f"model 'm1': {message}"


@pytest.mark.parametrize("model_id", [None, "m1"])
@pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__name__)
def test_each_error_survives_pickle(cls, model_id):
    args, attributes, _, _ = ERRORS[cls.__name__]
    err = cls(*args)
    err.model_id = model_id
    copy = pickle.loads(pickle.dumps(err))
    assert type(copy) is cls
    assert str(copy) == str(err)
    assert copy.args == err.args
    assert {name: getattr(copy, name) for name in attributes} == attributes
    assert copy.model_id == model_id


@pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__name__)
def test_a_wrong_argument_count_raises_type_error(cls):
    args = ERRORS[cls.__name__][0]
    with pytest.raises(TypeError, match=cls.__name__):
        cls(*args, "extra")
    if args:
        with pytest.raises(TypeError, match=cls.__name__):
            cls(*args[:-1])


def test_a_malformed_row_reaches_the_caller_of_a_worker_process(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("id,score,response\na,0.5,1\nb,high,0\n", encoding="utf-8")
    with ProcessPoolExecutor(max_workers=1, mp_context=multiprocessing.get_context("spawn")) as pool:
        future = pool.submit(read_sample_columns, path)
        with pytest.raises(MalformedRow) as caught:
            future.result(timeout=120)
    assert caught.value.line_no == 3
    assert str(caught.value) == "line 3: score 'high' is not a number"
