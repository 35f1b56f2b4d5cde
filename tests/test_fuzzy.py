
import numpy as np
import pytest

from despeckle.fuzzy import (
    LABEL_CENTERS,
    RULES,
    ScalarError,
    control_step,
    fuzzify,
    infer,
    output_surface,
    scalarize,
    surface_to_csv,
)

# the nine quantization levels of the membership table
GRID = (-1.0, -0.75, -0.5, -0.25, 0.0, 0.25, 0.5, 0.75, 1.0)


def test_membership_partition_bounds():
    for u in np.linspace(-1, 1, 201):
        total = sum(fuzzify(float(u)).values())
        assert 1.0 - 1e-12 <= total <= 2.0 + 1e-12


def test_fuzzify_clamps():
    assert fuzzify(1.7) == fuzzify(1.0)
    assert fuzzify(-5.0)["NB"] == 1.0
    assert fuzzify(float("inf")) == fuzzify(1.0)
    assert fuzzify(float("-inf")) == fuzzify(-1.0)


# the rule table's rows and columns follow LABEL_CENTERS order
LABELS = tuple(LABEL_CENTERS)


def _rule(de_label, e_label):
    return RULES[LABELS.index(de_label)][LABELS.index(e_label)]


def test_rule_base_is_antisymmetric():
    negate = {"NB": "PB", "NS": "PS", "AZ": "AZ", "PS": "NS", "PB": "NB"}
    for de in LABELS:
        for e in LABELS:
            mirrored = _rule(negate[de], negate[e])
            assert mirrored == negate[_rule(de, e)]


def test_rule_base_prose_rules():
    # "error NS and change NS -> NS"; "error NS and change PS -> AZ"
    assert _rule("NS", "NS") == "NS"
    assert _rule("PS", "NS") == "AZ"


def test_infer_single_rule_fires():
    # e = -0.5 (NS), de = +0.5 (PS): only (PS, NS) -> AZ fires
    assert infer(fuzzify(-0.5), fuzzify(0.5)) == 0.0
    # corners of the table
    assert infer(fuzzify(-1.0), fuzzify(-1.0)) == -1.0
    assert infer(fuzzify(1.0), fuzzify(1.0)) == 1.0


def test_infer_center_average_blend():
    # e = 0.25 fires PS and AZ at 0.5 each; de = 0 fires AZ fully:
    # (AZ,PS)->PS at 0.5 and (AZ,AZ)->AZ at 0.5 blend to 0.25
    assert infer(fuzzify(0.25), fuzzify(0.0)) == pytest.approx(0.25, abs=1e-15)


def test_infer_range_and_zero_fallback():
    rng = np.random.default_rng(3)
    for _ in range(500):
        e, de = rng.uniform(-1.5, 1.5, size=2)
        out = infer(fuzzify(e), fuzzify(de))
        assert -1.0 <= out <= 1.0
    zeros = {label: 0.0 for label in LABELS}
    assert infer(zeros, zeros) == 0.0


def test_infer_monotone_in_error_on_grid():
    for de in GRID:
        outputs = [infer(fuzzify(e), fuzzify(de)) for e in GRID]
        assert np.all(np.diff(outputs) >= -1e-12)


def test_scalarize_signed_peak():
    err = scalarize(np.array([[1.0, -5.0], [2.0, 3.0]]))
    assert err == ScalarError(e=-5.0)


def test_scalarize_zero_image():
    err = scalarize(np.zeros((3, 3)))
    assert err == ScalarError(e=0.0)


def test_scalarize_tie_breaks_to_first_position():
    err = scalarize(np.array([[4.0, -4.0]]))
    assert err == ScalarError(e=4.0)


def test_control_step_zero_at_origin():
    assert control_step(0.0, 0.0) == 0.0


def test_control_step_gain_and_antisymmetry():
    # unit gain: full-scale negative inputs give the full-scale output
    assert control_step(-1.0, -1.0) == -1.0
    rng = np.random.default_rng(4)
    for _ in range(200):
        e, de = rng.uniform(-2, 2, size=2)
        assert control_step(e, de) == pytest.approx(-control_step(-e, -de), abs=1e-12)


def test_output_surface_corners_center_and_rotation():
    surface = output_surface(5)
    assert surface.shape == (5, 5)
    assert surface[0, 0] == -1.0 and surface[-1, -1] == 1.0
    assert surface[2, 2] == 0.0
    assert np.allclose(surface, -surface[::-1, ::-1], atol=1e-12)


def _infer_skipping_zeros(e_grades, de_grades):
    """Inference that skips every rule of zero weight, as it once did."""
    numerator = 0.0
    total = 0.0
    for de_label, row in zip(LABELS, RULES):
        de_grade = de_grades[de_label]
        if de_grade == 0.0:
            continue
        for e_label, out_label in zip(LABELS, row):
            weight = min(e_grades[e_label], de_grade)
            if weight == 0.0:
                continue
            numerator += weight * LABEL_CENTERS[out_label]
            total += weight
    return numerator / total if total > 0.0 else 0.0


def _surface_oracle(grid_n):
    """One fuzzify call per cell and zero-skipping inference."""
    u = np.linspace(-1.0, 1.0, grid_n)
    surface = np.empty((grid_n, grid_n), dtype=np.float64)
    for i, de in enumerate(u):
        de_grades = fuzzify(de)
        for j, e in enumerate(u):
            surface[i, j] = _infer_skipping_zeros(fuzzify(e), de_grades)
    return surface


@pytest.mark.parametrize("grid_n", [2, 7, 101])
def test_output_surface_matches_per_cell_oracle(grid_n):
    surface = output_surface(grid_n)
    oracle = _surface_oracle(grid_n)
    assert surface.dtype == np.float64
    assert surface.tobytes() == oracle.tobytes()
    assert surface_to_csv(surface) == surface_to_csv(oracle)


def test_infer_zero_weight_rules_change_nothing():
    # a zero weight adds +0.0 to both sums, so skipping it is bit-identical
    rng = np.random.default_rng(5)
    for e, de in rng.uniform(-1.5, 1.5, size=(2000, 2)):
        want = _infer_skipping_zeros(fuzzify(e), fuzzify(de))
        assert np.float64(control_step(e, de)).tobytes() == np.float64(want).tobytes()


def test_surface_csv_format():
    surface = output_surface(5)
    text = surface_to_csv(surface)
    lines = text.strip().split("\n")
    assert lines[0] == "e_min,e_max,n"
    assert lines[1].split(",") == ["-1.0", "1.0", "5"]
    values = [float(v) for line in lines[2:] for v in line.split(",")]
    assert len(values) == 25
    assert values[0] == -1.0 and values[-1] == 1.0
