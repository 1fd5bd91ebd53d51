"""Structured errors; each class carries the CLI exit code it maps to."""

from __future__ import annotations

from contextlib import contextmanager


class ToolkitError(Exception):
    """Base class for all domain errors raised by this package.

    A class declares its exit code, its fields (the positional constructor
    arguments, kept as attributes and as args, so that pickle rebuilds the
    error) and the message template the fields fill.
    """

    exit_code = 1
    fields: tuple[str, ...] = ("message",)
    template = "{message}"

    def __init__(self, *values):
        if len(values) != len(self.fields):
            raise TypeError(f"{type(self).__name__} takes {self.fields}, got {len(values)} values")
        super().__init__(*values)
        vars(self).update(zip(self.fields, values))
        self.model_id: str | None = None

    def __str__(self) -> str:
        base = self.template.format(**dict(zip(self.fields, self.args)))
        return base if self.model_id is None else f"model {self.model_id!r}: {base}"


@contextmanager
def errors_naming(model_id: str):
    """Set model_id on a ToolkitError raised in the block, so that its message names the model."""
    try:
        yield
    except ToolkitError as err:
        err.model_id = model_id
        raise


class EmptySample(ToolkitError):
    """A sample with zero records cannot be ranked."""

    exit_code, fields, template = 10, (), "sample contains no records"


class NonFiniteScore(ToolkitError):
    exit_code, fields, template = 11, ("record_id",), "record {record_id!r} has a non-finite score"


class ZeroBaseRate(ToolkitError):
    exit_code, fields, template = 12, (), "base response rate is zero"


class NoResponders(ToolkitError):
    """Score potential and per-responder quantities are undefined without responders."""

    exit_code, fields, template = 13, (), "sample contains no responders"


class CutoffTooSmall(ToolkitError):
    exit_code, fields = 14, ("fraction", "sample_size")
    template = "cut-off {fraction} selects zero of {sample_size} names"


class DegenerateClasses(ToolkitError):
    exit_code, fields = 15, ()
    template = "AUC needs at least one responder and one non-responder"


class IndivisibleBuckets(ToolkitError):
    exit_code, fields = 16, ("sample_size", "bucket_count")
    template = "bucket count {bucket_count} does not divide sample size {sample_size}"


class EmptyBatch(ToolkitError):
    exit_code, fields, template = 17, (), "comparison needs at least one evaluation"


class TooFewPoints(ToolkitError):
    exit_code, fields = 18, ("count",)
    template = "figure needs at least 2 series points, got {count}"


class MalformedRow(ToolkitError):
    exit_code, fields, template = 21, ("line_no", "reason"), "line {line_no}: {reason}"


class DuplicateId(ToolkitError):
    exit_code, fields, template = 22, ("record_id",), "duplicate record id {record_id!r}"


class BadResponseValue(ToolkitError):
    exit_code, fields, template = 23, ("line_no",), "line {line_no}: response must be 0 or 1"
