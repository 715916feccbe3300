"""The package runs on every numpy that pyproject.toml admits: src/ uses no
numpy name that first appeared after the declared floor."""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# numpy names and the release that added them (or, for np.bool, re-added
# it after 1.24 had removed the alias)
ADDED = {
    "np.{}": {
        **dict.fromkeys(
            ("vecdot", "matrix_transpose", "unstack", "concat", "permute_dims",
             "acos", "acosh", "asin", "asinh", "atan", "atan2", "atanh", "pow",
             "bitwise_invert", "bitwise_left_shift", "bitwise_right_shift",
             "astype", "isdtype", "trapezoid", "unique_all", "unique_counts",
             "unique_inverse", "unique_values", "bool", "long", "ulong"),
            (2, 0)),
        "exceptions": (1, 25),
        "cumulative_sum": (2, 1), "cumulative_prod": (2, 1),
        "matvec": (2, 2), "vecmat": (2, 2),
    },
    "np.linalg.{}": dict.fromkeys(
        ("vecdot", "matrix_transpose", "outer", "cross", "diagonal", "trace",
         "svdvals", "matrix_norm", "vector_norm", "tensordot", "matmul"),
        (2, 0)),
    ".{}": {"mT": (2, 0)},  # the ndarray attribute
}


def numpy_floor():
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    floor = re.search(r'"numpy>=(\d+)\.(\d+)', text)
    assert floor, "pyproject.toml declares no numpy floor"
    return tuple(int(v) for v in floor.groups())


def too_new(source, floor):
    """The numpy names in source that the floor release lacks."""
    found = []
    for form, names in ADDED.items():
        for name, since in names.items():
            if since <= floor:
                continue
            attr = re.escape(form.format(name)).replace(r"np\.", r"\bnp\.")
            if re.search(attr + r"\b", source):
                found.append(form.format(name))
    return found


def test_scanner_flags_names_newer_than_the_floor():
    line = "d = np.vecdot(a, b) + np.linalg.vector_norm(a) + a.mT.sum()\n"
    assert too_new(line, (1, 24)) == ["np.vecdot", "np.linalg.vector_norm",
                                      ".mT"]
    assert too_new(line, (2, 0)) == []
    assert too_new("np.bool_(x), np.concatenate(a), x.astype(float)",
                   (1, 24)) == []
    assert too_new("np.exceptions.AxisError", (1, 24)) == ["np.exceptions"]


def test_src_uses_no_numpy_name_newer_than_the_floor():
    floor = numpy_floor()
    assert floor == (1, 24)
    offenders = {path.relative_to(ROOT).as_posix(): names
                 for path in sorted((ROOT / "src").rglob("*.py"))
                 if (names := too_new(path.read_text(encoding="utf-8"),
                                      floor))}
    assert offenders == {}
