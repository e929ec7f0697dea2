"""Parameter bundle, validation, serialization, and derived constants.

The interference constant t has an independent oracle: the reflection-
formula identity t = pi * beta^(2/alpha) * Gamma(1 + 2/alpha) *
Gamma(1 - 2/alpha), evaluated through math.gamma, against the
trigonometric form used by the implementation. Frozen anchors below were
cross-checked against that identity at 50-digit precision.
"""

import dataclasses
import json
import math

import pytest

from sectorrelay import analytic, model, optimize
from sectorrelay.errors import DomainError, ParameterError
from sectorrelay.model import NetworkParams, ProtocolVariant

# frozen anchors for the default operating point alpha=3, beta=10 (10 dB)
T_ALPHA3_BETA10 = 35.26505141002736
K_BASE = 1.7491019260905754  # lam=1, phi=pi/2, p=0.12, with t above

BASE = NetworkParams(lam=1.0, alpha=3.0, beta=10.0, p=0.12, phi=math.pi / 2)


# ---------------------------------------------------------------------
# interference constant t
# ---------------------------------------------------------------------

def test_t_frozen_value():
    t = model.spatial_interference_constant(3.0, 10.0)
    assert t == pytest.approx(T_ALPHA3_BETA10, rel=1e-15)


def test_t_gamma_reflection_identity():
    # independent route: pi * beta^(2/a) * Gamma(1+2/a) * Gamma(1-2/a)
    for alpha, beta in [(3.0, 10.0), (2.5, 4.0), (4.0, 1.0), (5.0, 0.3)]:
        oracle = (
            math.pi
            * beta ** (2.0 / alpha)
            * math.gamma(1.0 + 2.0 / alpha)
            * math.gamma(1.0 - 2.0 / alpha)
        )
        t = model.spatial_interference_constant(alpha, beta)
        assert t == pytest.approx(oracle, rel=1e-13)


def test_t_alpha4_beta1_is_pi_squared_over_2():
    # sin(pi/2) = 1, so t = 2*pi^2/4 = pi^2/2 exactly in real arithmetic
    t = model.spatial_interference_constant(4.0, 1.0)
    assert t == pytest.approx(math.pi**2 / 2.0, rel=1e-15)


def test_t_domain_errors():
    with pytest.raises(DomainError):
        model.spatial_interference_constant(2.0, 10.0)
    with pytest.raises(DomainError):
        model.spatial_interference_constant(1.5, 10.0)
    with pytest.raises(DomainError):
        model.spatial_interference_constant(3.0, 0.0)
    # lambda*phi underflows the decay rate k to 0, or below the smallest
    # normal double (at lambda = 4, phi = 5e-324 phi/2 is 0 and r_m* =
    # sqrt(u/k) overflows): a typed error naming both, not a bare math
    # domain error, a division by zero or an r_m* of inf downstream
    for lam, phi in [(1e-300, 1e-30), (1e-200, 1e-200), (1.0, 5e-324), (4.0, 5e-324)]:
        params = dataclasses.replace(BASE, lam=lam, phi=phi)
        for call in (
            model.radial_decay_rate, analytic.log_expected_density,
            analytic.expected_density_closed, optimize.optimize_joint,
        ):
            with pytest.raises(DomainError, match="lambda = .* and phi = .* underflow"):
                call(params)
    # t overflows at alpha near 2 with a huge beta, and t_eff = 2*pi*t/phi
    # at a tiny phi: a typed error naming the cause, not a nan downstream
    near_two = dataclasses.replace(BASE, alpha=2.000000000001, beta=1e300, r_m=0.3)
    for call in (
        analytic.expected_density_closed, analytic.rm_upper_bound,
        optimize.optimize_rm, optimize.optimize_joint,
    ):
        with pytest.raises(DomainError, match=r"alpha = 2\.000000000001 and beta = 1e\+300 "):
            call(near_two)
    assert math.isfinite(model.spatial_interference_constant(2.1, 1e300))
    tiny_phi = dataclasses.replace(BASE, alpha=2.1, beta=1e300, phi=1e-310)
    for call in (analytic.expected_density_closed, optimize.optimize_joint):
        with pytest.raises(DomainError, match=r"alpha = 2\.1, beta = 1e\+300 and phi = 1e-310"):
            call(tiny_phi, ProtocolVariant.OMNIDIRECTIONAL)


# ---------------------------------------------------------------------
# combined decay rate k
# ---------------------------------------------------------------------

def test_k_frozen_value():
    assert model.radial_decay_rate(BASE) == pytest.approx(K_BASE, rel=1e-15)


def test_k_two_forms_agree():
    # (lam*phi/2)(p*t/pi + 1 - p) == p*lam*(phi/2pi)*t + lam*(1-p)*phi/2
    for p in [0.01, 0.12, 0.3, 0.49, 0.9]:
        for phi in [0.2, math.pi / 2, math.pi, 2 * math.pi]:
            params = NetworkParams(lam=1.7, alpha=3.0, beta=10.0, p=p, phi=phi)
            t = model.spatial_interference_constant(3.0, 10.0)
            split = (
                p * 1.7 * phi / (2 * math.pi) * t
                + 1.7 * (1.0 - p) * phi / 2.0
            )
            assert model.radial_decay_rate(params) == pytest.approx(split, rel=1e-14)


def test_k_linear_in_lambda_and_phi():
    t = model.spatial_interference_constant(3.0, 10.0)
    k1 = model.radial_decay_rate(BASE, t)
    doubled_lam = NetworkParams(lam=2.0, alpha=3.0, beta=10.0, p=0.12, phi=math.pi / 2)
    doubled_phi = NetworkParams(lam=1.0, alpha=3.0, beta=10.0, p=0.12, phi=math.pi)
    assert model.radial_decay_rate(doubled_lam, t) == pytest.approx(2 * k1, rel=1e-15)
    assert model.radial_decay_rate(doubled_phi, t) == pytest.approx(2 * k1, rel=1e-15)


# ---------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------

def test_validate_passes_on_good_params():
    assert BASE.validate() is BASE


def test_validate_collects_every_violation():
    with pytest.raises(ParameterError) as exc:
        NetworkParams(lam=-1.0, alpha=2.0, beta=10.0, p=1.5, phi=7.0, mu=0.0, r_m=-2.0)
    msg = str(exc.value)
    for name in ["lambda", "alpha", "p out of range", "phi", "mu", "r_m"]:
        assert name in msg
    assert len(exc.value.violations) == 6


def test_validate_alpha_message_mentions_undefined_t():
    with pytest.raises(ParameterError, match="t undefined"):
        NetworkParams(lam=1.0, alpha=2.0, beta=10.0, p=0.12, phi=1.0)


def test_validate_p_boundaries():
    for p in [0.0, 1.0]:
        with pytest.raises(ParameterError):
            NetworkParams(lam=1.0, alpha=3.0, beta=10.0, p=p, phi=1.0)


@pytest.mark.parametrize(
    "change, named",
    [
        ({"p": 0.0}, "p out of range"),
        ({"phi": 7.0}, "phi out of range"),
        ({"beta": 0.0}, "beta out of range"),
    ],
    ids=["p", "phi", "beta"],
)
def test_replace_checks_the_new_bundle(change, named):
    with pytest.raises(ParameterError, match=named):
        dataclasses.replace(BASE, **change)


def test_validate_phi_upper_edge_inclusive():
    NetworkParams(lam=1.0, alpha=3.0, beta=10.0, p=0.12, phi=2 * math.pi).validate()
    with pytest.raises(ParameterError):
        NetworkParams(
            lam=1.0, alpha=3.0, beta=10.0, p=0.12, phi=2 * math.pi + 1e-9
        ).validate()


# ---------------------------------------------------------------------
# serialization and config parsing
# ---------------------------------------------------------------------

def _from_config_text(text):
    """The --config route: raw parse, then the validated mapping."""
    return NetworkParams.from_mapping(model.parse_config_mapping(text))


def test_from_mapping_accepts_beta_db():
    params = NetworkParams.from_mapping(
        {"lambda": 1.0, "alpha": 3.0, "beta_db": 10.0, "p": 0.12, "phi": 1.0}
    )
    assert params.beta == pytest.approx(10.0, rel=1e-15)
    assert params.mu == 1.0 and params.r_m == 0.0  # defaults fill in


def test_from_mapping_accepts_linear_beta():
    params = NetworkParams.from_mapping(
        {"lambda": 1.0, "alpha": 3.0, "beta": 7.3, "p": 0.12, "phi": 1.0}
    )
    assert params.beta == 7.3


def test_from_mapping_rejects_both_beta_forms():
    with pytest.raises(ParameterError, match="both beta and beta_db"):
        NetworkParams.from_mapping(
            {"lambda": 1, "alpha": 3, "beta": 7.3, "beta_db": 10, "p": 0.12, "phi": 1}
        )


def test_from_mapping_names_unknown_keys():
    with pytest.raises(ParameterError, match="unknown config key: gamma"):
        NetworkParams.from_mapping(
            {"lambda": 1, "alpha": 3, "beta_db": 10, "p": 0.12, "phi": 1, "gamma": 2}
        )


def test_from_mapping_names_missing_keys():
    with pytest.raises(ParameterError, match="missing config key: phi"):
        NetworkParams.from_mapping({"lambda": 1, "alpha": 3, "beta_db": 10, "p": 0.12})


def test_from_mapping_rejects_out_of_range_by_name():
    with pytest.raises(ParameterError, match="p out of range"):
        NetworkParams.from_mapping(
            {"lambda": 1, "alpha": 3, "beta_db": 10, "p": 1.2, "phi": 1}
        )


def test_exact_mapping_roundtrip_is_bitwise():
    params = NetworkParams(lam=0.7, alpha=3.3, beta=7.3, p=0.21, phi=2.2, mu=1.5, r_m=0.4)
    back = NetworkParams.from_mapping(params.to_exact_mapping())
    assert back == params


def test_from_config_text_flat_format():
    text = """
    # sector relay run
    lambda = 2.0
    alpha = 3.0   # path loss
    beta_db = 10
    p = 0.12
    phi = 1.5707963267948966
    """
    params = _from_config_text(text)
    assert params.lam == 2.0
    assert params.phi == math.pi / 2


def test_from_config_text_json_format():
    doc = {"lambda": 1.0, "alpha": 3.0, "beta_db": 10.0, "p": 0.12, "phi": 1.0}
    params = _from_config_text(json.dumps(doc))
    assert params.p == 0.12


def test_config_text_rejects_duplicate_keys():
    with pytest.raises(ParameterError, match="duplicate config key: p"):
        _from_config_text("lambda=1\nalpha=3\nbeta_db=10\np=0.1\np=0.2\nphi=1\n")


def test_config_text_rejects_malformed_lines():
    with pytest.raises(ParameterError, match="line 1"):
        _from_config_text("what is this\n")
    with pytest.raises(ParameterError, match="non-numeric config value"):
        _from_config_text("lambda=1\nalpha=3\nbeta_db=10\np=abc\nphi=1\n")


def test_parse_config_mapping_partial():
    # raw parse keeps partial mappings so callers can layer defaults
    mapping = model.parse_config_mapping("p = 0.3\n# nothing else\n")
    assert mapping == {"p": "0.3"}


def test_parse_config_mapping_rejects_json_array():
    with pytest.raises(ParameterError, match="JSON config"):
        model.parse_config_mapping("[1, 2]")


def test_protocol_variant_values():
    assert ProtocolVariant("directional") is ProtocolVariant.DIRECTIONAL
    assert ProtocolVariant("omnidirectional") is ProtocolVariant.OMNIDIRECTIONAL
