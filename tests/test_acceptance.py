"""Acceptance gate: every headline criterion at its stated tolerance.

Each test prints one PASS/FAIL line (visible with ``pytest -s`` or in the
failure output) and asserts the criterion.  Traces are shared through the
session-scoped context, so the whole module runs at desk scale.

Every check must also print as it does in ``data/suite-checks.txt``, the
``torsiongeo suite --verbose`` output at seed 0: the acceptance values are
pinned to their printed precision.  A change that moves a value updates
that file.
"""

from pathlib import Path

from torsiongeo import suite

PINNED = Path(__file__).parent / "data" / "suite-checks.txt"


def _pinned_lines(index):
    """The summary and check lines of criterion ``index`` in the pinned output."""
    head = f"criterion {index:02d} "
    lines = PINNED.read_text().splitlines()
    start = next(i for i, line in enumerate(lines) if line.startswith(head))
    stop = next((i for i in range(start + 1, len(lines))
                 if lines[i].startswith("criterion ")), len(lines))
    return lines[start:stop]


def _run(criterion, ctx):
    result = criterion(ctx)
    print()
    print(result.summary())
    for line in result.detail_lines():
        print(line)
    failed = [str(c) for c in result.checks if not c.ok]
    assert result.passed, "failed checks:\n" + "\n".join(failed)
    assert [result.summary(), *result.detail_lines()] == _pinned_lines(result.index)
    return result


def test_criterion_01_speed_conservation(suite_ctx):
    # max |speed - E| / E <= 1e-6 for all 12 catalog scenarios (rk4, h=1e-3,
    # spans within |t| <= 20)
    result = _run(suite.criterion_speed_conservation, suite_ctx)
    assert len(result.checks) == 12


def test_criterion_02_conformal_equivalence(suite_ctx):
    # gradient-field geodesics vs classical geodesics of exp(2 sigma) g:
    # Hausdorff < 1e-4 on sphere, pseudosphere, catenoid, half-plane;
    # perturbed-angle negative control > 1e-2
    _run(suite.criterion_conformal_equivalence, suite_ctx)


def test_criterion_03_loxodrome_and_mercator(suite_ctx):
    # std of g(v, e2) < 1e-6; line-fit residual < 1e-5; y(s) vs
    # log tan(s/2) to 1e-10 on 100 samples
    _run(suite.criterion_loxodrome_mercator, suite_ctx)


def test_criterion_04_conformal_constant_of_motion(suite_ctx):
    # std of exp(sigma) g(v, d_phi) < 1e-6 while plain g(v, d_phi) > 1e-3
    _run(suite.criterion_conformal_constant, suite_ctx)


def test_criterion_05_curvature_formulas(suite_ctx):
    # closed-form curvatures vs the finite-difference kinematic oracle to
    # 1e-5 on all plane scenarios; Killing residual < 1e-4 and monotone
    # coupling on the winding traces
    _run(suite.criterion_curvature_formulas, suite_ctx)


def test_criterion_06_flat_plane_invariant(suite_ctx):
    # |z' exp(-i p) - z0| < 1e-6 over |t| <= 10, and | |z'| - 1 | < 1e-6
    _run(suite.criterion_flat_invariant, suite_ctx)


def test_criterion_07_arcsin_invariant_and_strips(suite_ctx):
    # std of y^2/2 - theta < 1e-6; c = 1/2 - pi/4; bounds at sqrt(2(c + pi));
    # confinement over |t| <= 50 with excess < 1e-3; quadrature-trace
    # agreement 1e-4; 720-angle sweep never enters the disjoint strip
    _run(suite.criterion_strips, suite_ctx)


def test_criterion_08_isometry_symmetry(suite_ctx):
    # rotations (winding) and horizontal translations (shear) map
    # integrated geodesics onto re-integrated ones to 1e-6
    _run(suite.criterion_symmetry, suite_ctx)


def test_criterion_09_decomposition(suite_ctx):
    # round trip to 1e-12 for n in 2..5; pure 3-form fixture; dimension
    # bookkeeping; Frobenius orthogonality to 1e-12
    _run(suite.criterion_decomposition, suite_ctx)


def test_criterion_10_gauss_map_counterexample(suite_ctx):
    # catenoid loxodrome maps to a constant-angle sphere curve (std < 1e-4)
    # while the catenoid's curvature varies by more than 0.1
    _run(suite.criterion_gauss_map, suite_ctx)
