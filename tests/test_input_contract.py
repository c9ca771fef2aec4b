"""The input contract, property-tested: every command, run in-process on a
perturbation of the flagship config, returns 0 or 2 and raises nothing; and
a string or boolean where a number belongs exits 2 naming the key."""

import contextlib
import io
import json
import math
import tempfile
from pathlib import Path

from hypothesis import example, given, settings, strategies as st

from besovlab.cli import main

FLAGSHIP = json.loads((Path(__file__).resolve().parent.parent / "configs" / "flagship.json").read_text())
FLAGSHIP["lemma"]["n_max"] = 1000  # keeps lemma-le small; a perturbation may still change it

# the config leaves a perturbation may replace, as key paths
KEYS = [
    ("N",), ("d",), ("p",), ("q",), ("s",), ("M",), ("L",), ("psi",), ("psi", "c"),
    ("control_psi",), ("control_psi", "b"), ("J",), ("J", "norm"), ("J", "seq"), ("J", "mixed"),
    ("probes", "x"), ("probes", "y"), ("lemma", "m"), ("lemma", "n_max"),
    ("grid", "res_scale"), ("diag_threshold",), ("emit_svg",),
]

odd = st.sampled_from([
    -1, 0, -0.0, 0.5, 2.0, 2.5, 1e-300, 1e300, 1e308, 10**30, math.inf, -math.inf, math.nan,
    "abc", "2", None, [], {}, True,
])
number = st.integers(-3, 20) | st.floats(0.01, 10.0) | st.floats(allow_nan=True, allow_infinity=True)
scalar = odd | number
psi = st.fixed_dictionaries(
    {"family": st.sampled_from(["constant", "log-power", "iterated-log-power", "tabulated", "other"])},
    optional={
        "b": scalar, "b2": scalar, "c": scalar,
        "table": st.lists(st.tuples(st.integers(-1, 40), scalar), max_size=40)
        | st.just([[j, 1.0] for j in range(4097)]),
    },
)
value = scalar | st.lists(scalar, max_size=4) | psi

y = st.floats(allow_nan=True, allow_infinity=True).map(repr)
commands = st.one_of(
    st.just(["psi-check"]),
    st.integers(-1, 32).map(lambda J: ["seq-build", "--J", str(J)]),
    st.integers(-1, 6).map(lambda J: ["field-eval", "--J", str(J), "--points", "POINTS"]),
    st.tuples(st.sampled_from(["field", "partial-map"]), st.integers(-1, 3), y).map(
        lambda t: ["norm-est", "--target", t[0], "--J", str(t[1]), f"--y={t[2]}"]),
    st.just(["lemma-le"]),
)


def perturbed(changes) -> dict:
    """The flagship config with each (key path, value) of changes applied; a
    path through a value that is no longer an object is skipped."""
    cfg = json.loads(json.dumps(FLAGSHIP))
    for path, new in changes:
        node = cfg
        for key in path[:-1]:
            node = node.get(key)
            if not isinstance(node, dict):
                break
        else:
            node[path[-1]] = new
    return cfg


def run(cfg: dict, argv) -> tuple[int, str]:
    """main on cfg and argv in a temporary directory: the exit code and stderr."""
    with tempfile.TemporaryDirectory() as tmp:
        config, points = Path(tmp) / "config.json", Path(tmp) / "points.csv"
        config.write_text(json.dumps(cfg))
        points.write_text("x1,x2\n24.0,1.5\n0.0,0.0\n")
        argv = [str(points) if a == "POINTS" else a for a in argv]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["--config", str(config), "--out", str(Path(tmp) / "out"), *argv])
    return code, err.getvalue()


@settings(max_examples=120, deadline=None)
@given(changes=st.lists(st.tuples(st.sampled_from(KEYS), value), min_size=1, max_size=3), argv=commands)
@example(changes=[(("M",), 1)], argv=["norm-est", "--target", "field", "--J", "3", "--y=1.5"])
@example(changes=[(("M",), 1)], argv=["norm-est", "--target", "partial-map", "--J", "3", "--y=1.5"])
@example(changes=[(("q",), 1e308)], argv=["norm-est", "--target", "field", "--J", "3", "--y=1.5"])
@example(changes=[(("psi", "c"), 1e300)], argv=["psi-check"])
@example(changes=[(("psi", "c"), 1e-300)], argv=["seq-build", "--J", "8"])
@example(changes=[(("grid", "res_scale"), 1e-300)], argv=["norm-est", "--target", "field", "--J", "3", "--y=1.5"])
def test_every_command_exits_0_or_2(changes, argv):
    code, err = run(perturbed(changes), argv)
    assert code in (0, 2), err
    if code == 2:
        assert err.startswith("configuration error: "), err


# the config leaves that hold a number, each with the name its rejection gives
# it; an int after the key path picks one entry of a list
NUMBER_KEYS = {
    ("p",): "p", ("q",): "q", ("s",): "s", ("M",): "M", ("L",): "L", ("psi", "c"): "psi: c",
    ("control_psi", "b"): "control_psi: b", ("J", "norm", 1): "J.norm", ("J", "seq", 0): "J.seq",
    ("J", "mixed", 1): "J.mixed", ("probes", "x"): "probes.x", ("probes", "y"): "probes.y",
    ("lemma", "m", 2): "lemma.m", ("lemma", "n_max"): "lemma.n_max",
}


@settings(max_examples=60, deadline=None)
@given(key=st.sampled_from(sorted(NUMBER_KEYS, key=str)),
       value=st.sampled_from(["abc", "2", "1.5", "", True, False]), argv=commands)
@example(key=("M",), value="2", argv=["psi-check"])
@example(key=("probes", "x"), value=True, argv=["psi-check"])
def test_a_string_or_boolean_for_a_number_exits_2_naming_the_key(key, value, argv):
    """A JSON string or boolean is never read as a number, whatever the command."""
    cfg = json.loads(json.dumps(FLAGSHIP))
    node = cfg
    for step in key[:-1]:
        node = node[step]
    node[key[-1]] = value
    code, err = run(cfg, argv)
    assert code == 2, err
    assert err.startswith(f"configuration error: {NUMBER_KEYS[key]} must be "), err
