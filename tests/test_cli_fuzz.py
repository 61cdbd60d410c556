"""Every config a user can write ends in a table or a config error.

A derandomized fuzzer writes flat JSON documents for every subcommand:
huge integers, edge floats, strings, nested lists, unknown keys and
non-object documents.  ``main()`` must return 0 or 1 (never 2, never an
uncaught exception) within a time budget per example.  Valid ``trials``,
``swap_depth`` and ``rounds`` stay small, so a run that is accepted is
also short.  The only warning a run may emit is the documented
``ParameterWarning`` of ``generate`` for ``p_a + p_b >= 1``.  A short
list of raw config texts, which ``json.dumps`` never writes, goes through
the same checks.
"""

import contextlib
import dataclasses
import io
import json
import math
import pathlib
import tempfile
import time
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from singlerail import ParameterWarning
from singlerail.analytics import MAX_ORACLE_ROUNDS
from singlerail.cli import MAX_SWAP_DEPTH, MAX_TRIALS, RunConfig, main

COMMANDS = ("generate", "swap-chain", "concentrate", "yield")
#: seconds one example may take; accepted runs here take milliseconds
BUDGET_S = 2.0

EDGE_FLOATS = (0.0, -0.0, 5e-324, 1e-300, 0.5, 1.0 - 2**-53, 1.0, 1.7e308)
HUGE_INTS = (2**31, 2**63, 10**12, 10**400, -(10**400))

scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 20),
    st.sampled_from(HUGE_INTS),
    st.sampled_from(EDGE_FLOATS),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from(["", "pi", " PI ", "csv", "json", "0.3", "x"]),
)
junk = st.one_of(
    scalars,
    st.lists(scalars, max_size=3),
    st.lists(st.lists(scalars, max_size=2), max_size=2),
)
weights = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True) | st.sampled_from(
    EDGE_FLOATS[:6]
)
angles = st.floats(-1e6, 1e6) | st.sampled_from(["pi", 0, math.pi, 1.0, 1e300])
#: values a user means to be valid; counts stay small, so accepted runs are short
VALID = {
    "alpha_sq": weights | st.lists(weights, min_size=1, max_size=3),
    "theta_ab": angles,
    "qnd_theta": angles,
    "rounds": st.integers(1, MAX_ORACLE_ROUNDS),
    "swap_depth": st.integers(1, 12),
    "trials": st.sampled_from([0, 0, 1, 17]),
    "seed": st.sampled_from([0, 0, 3, 2**64]),
    "p_a": weights | st.lists(weights, min_size=1, max_size=3),
    "p_b": weights | st.lists(weights, min_size=1, max_size=3),
    # a file, a directory and a missing directory, all in a scratch directory
    "output": st.sampled_from([None, "out.txt", ".", "missing/out.txt"]),
    "format": st.sampled_from(["csv", "json"]),
}
#: out-of-range values of the capped counts, next to the generic junk
PAST_CAPS = {
    "swap_depth": MAX_SWAP_DEPTH + 1,
    "trials": MAX_TRIALS + 1,
    "rounds": MAX_ORACLE_ROUNDS + 1,
}
#: config texts the generator cannot write: integers past Python's
#: 4300-digit ``str`` limit, a document cut off mid-number, bad UTF-8
RAW_CONFIGS = {
    "rounds-too-long-for-str": b'{"rounds": 1' + b"0" * 5000 + b"}",
    "negative-seed-too-long-for-str": b'{"seed": -' + b"9" * 5000 + b"}",
    "cut-off-mid-number": b'{"alpha_sq": [0.3, 0.',
    "not-utf-8": b'{"alpha_sq": 0.3, "output": "\xff"}',
}


@st.composite
def documents(draw):
    """A valid-looking config, then at most one fault: a junk value, an
    out-of-range count, an unused key, or a document that is no object."""
    doc = draw(st.fixed_dictionaries({}, optional=VALID))
    fault = draw(st.sampled_from(["none", "value", "cap", "unused", "document"]))
    if fault == "value":
        key = draw(st.sampled_from(sorted(set(VALID) - {"output"})))
        doc[key] = draw(junk)
    elif fault == "cap":
        key = draw(st.sampled_from(sorted(PAST_CAPS)))
        doc[key] = draw(st.sampled_from([PAST_CAPS[key], 10**12, 10**400]))
    elif fault == "unused":
        doc[draw(st.sampled_from(["Alpha_sq", "depth", "", "command"]))] = draw(junk)
    elif fault == "document":
        return draw(junk)
    return doc


def run(command: str, document, directory: pathlib.Path):
    if isinstance(document, dict) and isinstance(document.get("output"), str):
        document = {**document, "output": str(directory / document["output"])}
    return run_text(command, json.dumps(document).encode("utf-8"), directory)


def run_text(command: str, text: bytes, directory: pathlib.Path):
    config = directory / "config.json"
    config.write_bytes(text)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        code = main([command, "--config", str(config)])
        elapsed = time.perf_counter() - t0
    return code, out.getvalue(), err.getvalue(), elapsed


def check_table_or_config_error(command: str, run_config) -> None:
    """``run_config(directory)`` in a scratch directory ends in a table or
    a config error, in time, warning only as documented."""
    with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings(
        record=True
    ) as caught:
        warnings.simplefilter("always")
        code, out, err, elapsed = run_config(pathlib.Path(tmp))
    assert code in (0, 1), err
    assert elapsed < BUDGET_S
    if code == 1:
        assert err.startswith("config error: ") and out == ""
    for w in caught:
        assert w.category is ParameterWarning and command == "generate", w.message


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(st.sampled_from(COMMANDS), documents())
def test_every_config_is_a_table_or_a_config_error(command, document):
    check_table_or_config_error(command, lambda tmp: run(command, document, tmp))


@pytest.mark.parametrize("name", sorted(RAW_CONFIGS))
@pytest.mark.parametrize("command", COMMANDS)
def test_raw_config_texts_are_tables_or_config_errors(command, name):
    text = RAW_CONFIGS[name]
    check_table_or_config_error(command, lambda tmp: run_text(command, text, tmp))


def test_the_fuzzer_writes_every_config_key():
    assert set(VALID) == {f.name for f in dataclasses.fields(RunConfig)}


def test_first_order_warning_leaves_the_table_intact(tmp_path):
    with pytest.warns(ParameterWarning):
        code, out, _, _ = run("generate", {"p_a": 0.6, "p_b": 0.5}, tmp_path)
    assert code == 0 and out.startswith("p_a,p_b,")
