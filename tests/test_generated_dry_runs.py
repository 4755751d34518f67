"""Generated command lines: every dry run exits 0 or 1 with at most one line on stderr.

Hypothesis draws a subcommand, options from its parser's own actions with
boundary values, and small JSON configs whose potentials hold fractional,
huge and empty frequency arrays, and integers on both sides of the run's
bound of 512.  Each run is `cli.main(argv + ["--dry-run"])`
in process with every warning an error.  Each `--jobs` value drawn is
either within its cap or one the dry run rejects, and a dry run starts no
worker either way.
"""

import argparse
import contextlib
import io
import json
import math
import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from torusfloer.cli import SUBCOMMANDS, build_parser, main

BOUNDARY = ["0", "-1", "inf", "-inf", "nan", "1e-300", "1e300", str(2**63), "", "garbage"]
# values a run accepts, so that the other options of an argv get checked too
ORDINARY = ["1", "2", "16", "0.5", "0.01", "1,0", "0,-1.2"]
SKIPPED = {"-h", "--out", "--dry-run"}  # --out goes under tmp_path, --dry-run is always appended

SUBPARSERS = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)).choices

frequency = st.one_of(
    st.integers(-3, 3),
    st.sampled_from([300, 511, -511, 512, 0.5, -1.25, 2.5e-8, 1e150, 1e300, float(2**63), -1e300]),
)
pair = st.lists(frequency, min_size=2, max_size=2)  # the shape of a frequency at n = 1
frequencies = st.one_of(
    pair, st.lists(pair, min_size=1, max_size=3), st.just([]), st.just([[]]), st.lists(frequency, max_size=3)
)
epsilon = st.sampled_from([0.1, 0.0, -1.0, 1e-300, 100.0])
potentials = st.one_of(
    st.fixed_dictionaries({"kind": st.just("trig_potential"), "epsilon": epsilon, "modes": frequencies}),
    st.fixed_dictionaries(
        {"kind": st.just("time_trig"), "epsilon": epsilon, "t_mode": frequencies, "q_mode": frequencies}
    ),
)


def _fractional(potential) -> bool:
    """Whether a frequency array of the potential holds a finite entry that is not an integer."""
    arrays = [potential.get(key) for key in ("modes", "t_mode", "q_mode")]
    entries = [x for a in arrays if a is not None for x in (sum(a, []) if a and isinstance(a[0], list) else a)]
    return any(math.isfinite(x) and x != int(x) for x in entries)


def _config(subcommand, potential):
    if subcommand == "flow":
        return {"grid_size": 16, "potential": potential}
    if subcommand == "cuplength":
        return {"n_pairs": 1, "grid_size": 16, "lattice_per_dim": 2, "random_starts": 0, "potential": potential}
    if subcommand == "structures":
        return {"omega1": potential.get("modes"), "omega2": potential.get("t_mode"), "I": potential.get("q_mode")}
    return {"potential": potential}


@st.composite
def command_lines(draw):
    """(argv with "<config>" for the config path, config or None) of one subcommand."""
    subcommand = draw(st.sampled_from(sorted(SUBPARSERS)))
    actions = [a for a in SUBPARSERS[subcommand]._actions if a.option_strings and a.option_strings[0] not in SKIPPED]
    argv, config = [subcommand], None
    config_option = next((a for a in actions if a.dest == "config"), None)
    if config_option is not None and draw(st.booleans()):
        config = _config(subcommand, draw(potentials))
        argv += [config_option.option_strings[0], "<config>"]
        actions.remove(config_option)
    for action in draw(st.lists(st.sampled_from(actions), unique=True, max_size=2)):
        argv.append(action.option_strings[0])
        if action.nargs != 0:  # not a flag
            ordinary = st.sampled_from([*(action.choices or ()), *ORDINARY])
            argv.append(draw(st.one_of(ordinary, st.sampled_from(BOUNDARY))))
    return argv, config


@settings(
    max_examples=400, deadline=None, database=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(line=command_lines())
def test_generated_dry_runs_exit_0_or_1_with_one_line(tmp_path, monkeypatch, line):
    argv, config = line
    work = Path(tempfile.mkdtemp(dir=tmp_path))
    monkeypatch.chdir(work)  # a path drawn as a value names nothing outside the example's directory
    if config is not None:
        (work / "config.json").write_text(json.dumps(config))
    argv = [str(work / "config.json") if arg == "<config>" else arg for arg in argv]
    err = io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        warnings.simplefilter("error")
        try:
            code = main([*argv, "--out", str(work / "out"), "--dry-run"])
        except SystemExit as exc:  # a usage error
            code = exc.code
    assert code in (0, 1), (argv, config, err.getvalue())
    assert err.getvalue().count("\n") <= 1, (argv, config, err.getvalue())
    if config is not None and argv[0] != "structures" and _fractional(config["potential"]):
        assert code == 1, (argv, config, err.getvalue())


def parse_outcome(parser, argv):
    """The namespace a parser reads from argv, as its repr (a NaN equals itself there), or the exit code and the
    output of a usage error or --help."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            return repr(parser.parse_args(argv))
        except SystemExit as exc:
            return exc.code, out.getvalue(), err.getvalue()


@settings(max_examples=400, deadline=None, database=None)
@given(line=command_lines())
def test_one_subcommand_parser_reads_the_generated_argv_as_the_full_parser(line):
    """`main` builds the arguments of the subcommand that argv names alone; it reads argv as the full parser does."""
    argv = [*line[0], "--out", "out", "--dry-run"]
    assert argv[0] in SUBCOMMANDS
    assert parse_outcome(build_parser(argv[0]), argv) == parse_outcome(build_parser(), argv)


@pytest.mark.parametrize(
    "potential, fractional",
    [
        ({"kind": "trig_potential", "modes": [[0.5, 0], [0, 1]]}, True),
        ({"kind": "trig_potential", "modes": [[1e300, 0]]}, False),
        ({"kind": "time_trig", "t_mode": [1, 2], "q_mode": [-1.25, 0]}, True),
        ({"kind": "time_trig", "t_mode": [[]], "q_mode": []}, False),
    ],
)
def test_fractional_finds_the_fractional_frequencies(potential, fractional):
    assert _fractional(potential) == fractional
