"""The package root's public surface."""

import petalmap

PUBLIC = {
    # maps
    "MapFamily",
    "TimeState",
    "evaluate_map",
    "map_derivative",
    "scaled_map",
    "invert_map",
    "pressure",
    "potential_V",
    "boundary_trace",
    "laurent_coefficients",
    "BoundaryTrace",
    "LaurentCoefficients",
    "MapDomainError",
    "CornerPreimageError",
    "InversionError",
    # checks
    "ode_residual",
    "estimate_A",
    "dynamical_residual",
    "darcy_check",
    "conformality_check",
    "corner_exponent",
    "integral_equation_residual",
    "m_plus_samples",
    "harmonic_moment",
    "harmonic_moment_area",
    "petal_width",
    "sweep",
    "run_standard_checks",
    "VerificationReport",
    "CheckResult",
    "RatioEstimate",
    "MFunctionSample",
    "SweepRow",
    "VerificationError",
    "DegenerateTraceError",
    # numerics
    "singular_endpoint_quadrature",
    "winding_number",
    "fit_power_law",
    "PowerLawFit",
    # special functions
    "Hyp2F1DomainError",
    "Hyp2F1ConvergenceError",
}


def test_public_surface_pinned():
    # a name added to or dropped from the root is a deliberate API change
    assert len(petalmap.__all__) == len(set(petalmap.__all__))
    assert set(petalmap.__all__) == PUBLIC
    assert all(hasattr(petalmap, name) for name in PUBLIC)
