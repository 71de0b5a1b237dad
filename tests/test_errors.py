"""Error hierarchy."""

import pytest

from repro import errors


def test_hierarchy():
    for cls in (errors.IRError, errors.DDGError, errors.MachineError,
                errors.SchedulingError, errors.SimulationError,
                errors.WorkloadError):
        assert issubclass(cls, errors.ReproError)
    assert issubclass(errors.DSLParseError, errors.IRError)
    assert issubclass(errors.ScheduleValidationError, errors.SchedulingError)


def test_dsl_error_formats_location():
    exc = errors.DSLParseError("boom", line_no=3, line="  bad text ")
    assert "line 3" in str(exc) and "bad text" in str(exc)


def test_dsl_error_without_location():
    assert str(errors.DSLParseError("boom")) == "boom"
