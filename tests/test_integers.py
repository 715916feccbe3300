"""The integer rule: every count, size, seed and index that a caller or a
file supplies goes through core.as_int, so a bool, a float or a numeric
string is rejected rather than truncated, and a numpy integer is accepted
and kept as a Python int."""

import json

import numpy as np
import pytest

from swapcal import (FormatError, LinearFn, SweepConfig, Transcript, cal,
                     choose_n, cover_thetas, generate_stream, linear_ball,
                     make_grid, resolve_n, run_online, smcal, train_mixture,
                     witness_f_prime)
from swapcal.core import Grid, as_int
from swapcal.forecaster import BmForecaster
from swapcal.harness import AdversarySpec

SPEC = AdversarySpec("iid-logistic")
STREAM = generate_stream(SPEC, 20, 2, seed=0)


def _point_mass_transcript():
    """Four rounds at N = 4, all of P on cell 2 (z = 1/2), outcomes 1: the
    constant f = 1/2 has a positive correlation on cell 2."""
    P = np.zeros((4, 5))
    P[:, 2] = 1.0
    return Transcript(make_grid(4), [[0.5, 0.0]] * 4, P, [2] * 4, [1] * 4)


TR = _point_mass_transcript()


def _sweep(**over):
    return SweepConfig(**{"T_list": [8], "d": 2, "reps": 1,
                          "metric": "cal2", **over})


# site -> call on the value; returns what the site stores or returns
SITES = {
    "Grid.n": lambda v: Grid(v).n,
    "cover_thetas.d": lambda v: cover_thetas(1.0, 1.0, v).shape[1],
    "BmForecaster.d": lambda v: BmForecaster(make_grid(2), v).d,
    "BmForecaster.seed": lambda v: BmForecaster(make_grid(2), 2, v).seed,
    "Transcript.seed": lambda v: Transcript(
        make_grid(1), [[0.5]], [[1.0, 0.0]], [0], [1], seed=v).seed,
    "choose_n.T": lambda v: choose_n(v, 2, "smcal"),
    "choose_n.d": lambda v: choose_n(100, v, "smcal"),
    "generate_stream.T": lambda v: len(generate_stream(SPEC, v, 2)[1]),
    "generate_stream.d": lambda v: generate_stream(SPEC, 4, v)[0].shape[1],
    "generate_stream.seed": lambda v: len(generate_stream(SPEC, 4, 2, v)[1]),
    "resolve_n.n_rule": lambda v: resolve_n(v, 100, 2),
    "SweepConfig.T_list": lambda v: _sweep(T_list=[v]).T_list[0],
    "SweepConfig.reps": lambda v: _sweep(reps=v).reps,
    "SweepConfig.seed_base": lambda v: _sweep(seed_base=v).seed_base,
    "SweepConfig.d": lambda v: _sweep(d=v).d,
    "train_mixture.stride": lambda v: train_mixture(STREAM, 2,
                                                    stride=v).size,
    "_check_q.smcal": lambda v: int(smcal(TR, linear_ball(1.0), v)
                                    .name[-1]),
    "_check_q.cal": lambda v: int(cal(TR, v).name[-1]),
    "witness_f_prime.cell": lambda v: round(witness_f_prime(
        TR, v, LinearFn([1.0, 0.0]))[0].center * 4),
}

BAD = {"True": True, "2.5": 2.5, "2.0": 2.0, "str": "2"}


@pytest.mark.parametrize("bad", BAD, ids=BAD)
@pytest.mark.parametrize("site", SITES)
def test_every_site_follows_the_integer_rule(site, bad):
    """True, 2.5, 2.0 and "2" raise ValueError (resolve_n parses text, so
    "2" is its one exception); np.int64(2) is accepted and the value the
    site keeps or returns is a Python int."""
    call, value = SITES[site], BAD[bad]
    if site == "resolve_n.n_rule" and bad == "str":
        assert call(value) == 2 and type(call(value)) is int
        return
    with pytest.raises(ValueError, match="must be"):
        call(value)
    out = call(np.int64(2))
    assert type(out) is int, (site, type(out))


_RECORD = '{"t":1,"x":[0.5,0.0],"P":[1.0,0.0,0.0],"pi":0,"y":1}'


def _transcript_file(path, key, value):
    head = {"N": 2, "d": 2, "T": 1, "seed": 0, key: value}
    path.write_text(json.dumps(head) + "\n" + _RECORD + "\n")
    return Transcript.read_jsonl(path)


@pytest.mark.parametrize("bad", BAD, ids=BAD)
@pytest.mark.parametrize("read, key, good", [
    (_transcript_file, "N", 2), (_transcript_file, "d", 2),
    (_transcript_file, "T", 1), (_transcript_file, "seed", 2),
], ids=["transcript-N", "transcript-d", "transcript-T", "transcript-seed"])
def test_file_readers_follow_the_integer_rule(tmp_path, read, key, good,
                                              bad):
    """A file's integer fields follow the same rule and fail as FormatError
    naming the path; the same file with a good integer there reads."""
    path = tmp_path / "f.json"
    with pytest.raises(FormatError, match="must be") as exc:
        read(path, key, BAD[bad])
    assert str(path) in str(exc.value)
    read(path, key, good)


@pytest.mark.parametrize("low, value, kind", [
    (None, 1.5, "an integer"), (0, -1, "a non-negative integer"),
    (1, 0, "a positive integer"),
])
def test_as_int_names_its_rule(low, value, kind):
    with pytest.raises(ValueError) as exc:
        as_int(value, "y", low)
    assert str(exc.value) == f"y must be {kind}, got {value!r}"


def test_sweep_does_not_truncate_a_fractional_grid_rule():
    """n_rule 2.9 used to run every row at N = 2; now the config raises the
    rule's error when it is built."""
    with pytest.raises(ValueError) as exc:
        _sweep(n_rule=2.9, reps=2)
    assert str(exc.value) == ("grid rule must be auto-smcal, auto-sreg, or "
                              "an integer, got 2.9")


def test_numpy_integer_seeds_reach_the_files(tmp_path):
    """A run seeded with np.int64 writes its file (the transcript header
    used to raise TypeError) and reads back as an int; a mixture trained
    with an np.int64 stride is the one its int trains."""
    tr = run_online(BmForecaster(make_grid(2), 2, seed=np.int64(3)), STREAM)
    tr.write_jsonl(tmp_path / "run.jsonl")
    assert Transcript.read_jsonl(tmp_path / "run.jsonl").seed == 3
    ref = run_online(BmForecaster(make_grid(2), 2, seed=3), STREAM)
    assert np.array_equal(tr.sampled_indices, ref.sampled_indices)
    mix = train_mixture(STREAM, 2, stride=np.int64(4))
    assert mix.size == 5
    assert np.array_equal(mix.thetas,
                          train_mixture(STREAM, 2, stride=4).thetas)
