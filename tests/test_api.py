"""The package's public names, and the refusals of its library calls."""

import ast
import inspect
import re

import numpy as np
import pytest

import concmeter
from concmeter import measures as ms, normspace as ns, parameters as par, transport as tr
from concmeter import verify as vf


def test_public_api():
    names = concmeter.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert hasattr(concmeter, name), name
    # every public name that __init__ imports is listed
    tree = ast.parse(inspect.getsource(concmeter))
    imported = {alias.asname or alias.name for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    assert {n for n in imported if not n.startswith("_")} <= set(names)


def test_results_the_benchmark_tracer_reads():
    # benchmarks/tracer.py counts from these functions' results by these
    # names; the benchmark's own tests are not part of this suite, so a
    # rename or a dropped attribute would otherwise surface only there
    import numpy as np

    from concmeter import concentration, measures, normspace, parameters, transport
    for module, name in [(measures, "sample"), (parameters, "norm_values"),
                         (concentration, "concentration_lower_curve"),
                         (transport, "radial_transport"), (measures, "gamma_cdf"),
                         (normspace, "norm_eval")]:
        assert inspect.isfunction(getattr(module, name)), name
    metric = normspace.lp(2, 3)
    batch = measures.sample(measures.gaussian(3), 200, seed=1)
    assert batch.count == 200
    curve = concentration.concentration_lower_curve(batch.data, metric, [0.5])
    assert (curve.family_size, curve.count) == (3 + concentration.DEFAULT_EXTRA_DIRECTIONS,
                                                200)
    ball = normspace.lp(1, 4)
    u = transport.radial_transport(measures.radial_cdf(measures.ggp(1.0, 4), ball),
                                   measures.radial_cdf(measures.uniform_ball(ball), ball))
    assert u.knots.size >= 2
    values = parameters.norm_values(measures.gaussian(3), [metric], 50, seed=1)
    assert isinstance(values, list) and isinstance(values[0], np.ndarray)
    assert values[0].size == 50



def _falling_target() -> ms.RadialCdf:
    # a radial law whose quantile falls as the probability rises
    up = ms.radial_cdf(ms.ggp(1.0, 4), ns.lp(1, 4))
    return ms.RadialCdf(up.eval, up.quantile, up.log_eval,
                        lambda lq: np.exp(-np.asarray(lq, dtype=np.float64)))


# name -> (call, error, message): each refusal of a library call that configs
# and flags never reach, as they refuse such values first
_REFUSALS = {
    "norm_dim": (lambda: ns.NormSpec(dim=0, p=2), ValueError, "dim must be a positive integer"),
    "norm_transform_shape": (lambda: ns.NormSpec(dim=2, p=2, transform=np.eye(3)), ValueError,
                             r"transform must be 2x2, got \(3, 3\)"),
    "norm_kind": (lambda: ns.NormSpec.from_config({"kind": "huber", "p": 2, "dim": 2}),
                  ValueError, "unknown norm kind 'huber'"),
    "scaled_factor": (lambda: ns.scaled(ns.lp(2, 2), 0.0), ValueError,
                      "scale factor must be positive"),
    "containment_lam": (lambda: ns.ContainmentConstant(lam=0.5, scale=1.0, exact=True),
                        ValueError, "containment lam must be >= 1, got 0.5"),
    "containment_scale": (lambda: ns.ContainmentConstant(lam=1.0, scale=0.0, exact=True),
                          ValueError, "containment scale must be positive"),
    "measure_dim": (lambda: ms.MeasureSpec("gaussian", 0), ValueError,
                    "dim must be a positive integer"),
    "measure_transform": (lambda: ms.MeasureSpec("gaussian", 2, transform=np.eye(2)),
                          ValueError, "gaussian does not accept a transform"),
    "radial_cdf_dim": (lambda: ms.radial_cdf(ms.gaussian(3), ns.lp(2, 4)), ValueError,
                       "measure/norm dimension mismatch"),
    "gamma_quantile_q": (lambda: ms.gamma_quantile(2.0, 1.0), ValueError,
                         r"gamma_quantile requires q in \[0, 1\)"),
    "gamma_quantile_log_q": (lambda: ms.gamma_quantile_log(2.0, 0.5), ValueError,
                             "log_q must be <= 0"),
    "beta_dim": (lambda: par.beta(ns.lp(2, 3), ms.gaussian(4), ns.lp(1, 4)), ValueError,
                 "K, L and the measure must share one dimension"),
    "beta_diagonal": (lambda: par.beta(ns.lp(2, 2), ms.gaussian(2), ns.lp(1, 2),
                                       diagonals=[np.array([1.0, 0.0])]),
                      ValueError, "diagonal candidates must be positive vectors"),
    "cube_floor_n": (lambda: par.cube_concentration_floor(0.5, 0), ValueError,
                     "n must be positive"),
    "cube_threshold_C": (lambda: par.cube_beta_hypothesis_threshold(0.05, 8), ValueError,
                         "C must be >= 1/16"),
    "cube_lower_bound_c": (lambda: par.cube_beta_lower_bound(1.0, 0.0, 8), ValueError,
                           "need c > 0 and n >= 1"),
    "monotone_map_shape": (lambda: tr.MonotoneMap(knots=[0.0, 1.0], values=[0.0]), ValueError,
                           "knots/values must be 1-d arrays of equal length >= 2"),
    "lipschitz_knots": (lambda: tr.lipschitz_constant(tr.MonotoneMap([0.0, 1.0], [0.0, 1.0])),
                        ValueError, "need at least 3 knots"),
    "radial_transport_target": (
        lambda: tr.radial_transport(ms.radial_cdf(ms.ggp(1.0, 4), ns.lp(1, 4)),
                                    _falling_target()),
        ValueError, "target quantile not monotone"),
    "shell_inclusion_eps": (
        lambda: vf.check_shell_inclusion(K=ns.lp(2, 4), L=ns.lp(1, 4), measure=ms.haar_sphere(4),
                                         eps=0.0, count=200, probes=10, seed=1),
        vf.CheckError, "eps must be positive"),
}


@pytest.mark.parametrize("name", sorted(_REFUSALS))
def test_library_refusals_name_the_fault(name):
    call, error, message = _REFUSALS[name]
    with pytest.raises(error, match=message):
        call()


_SPEC_BUILDERS = {"lp": lambda dim: ns.lp(2, dim),
                  "norm_object": lambda dim: ns.NormSpec(dim, 1.5),
                  "gaussian": ms.gaussian, "ggp": lambda dim: ms.ggp(1.0, dim),
                  "uniform_ball": lambda dim: ms.MeasureSpec("uniform_ball", dim, "inf")}


@pytest.mark.parametrize("dim", [8.7, 2.5, True, None, 0, -3, "3", np.float64(0.5)])
@pytest.mark.parametrize("spec", sorted(_SPEC_BUILDERS))
def test_spec_constructors_refuse_a_dim_that_is_no_positive_integer(spec, dim):
    # the library reads dim by the config readers' size rule
    message = f"^dim must be a positive integer, got {re.escape(repr(dim))}$"
    with pytest.raises(ValueError, match=message):
        _SPEC_BUILDERS[spec](dim)


@pytest.mark.parametrize("dim", [8, 8.0, np.int64(8), np.int32(8), np.uint8(8)])
@pytest.mark.parametrize("spec", sorted(_SPEC_BUILDERS))
def test_spec_constructors_hold_an_integral_dim_as_an_int(spec, dim):
    built = _SPEC_BUILDERS[spec](dim)
    assert type(built.dim) is int and built == _SPEC_BUILDERS[spec](8)
    assert built.to_config()["dim"] == 8


def test_from_config_names_a_missing_dim():
    # once a TypeError from None < 1
    with pytest.raises(ns.ConfigError, match="dim must be a positive integer, got None"):
        ns.NormSpec.from_config("l2")
    with pytest.raises(ns.ConfigError, match="^dim must be a positive integer, got None$"):
        ms.MeasureSpec.from_config("gaussian")


def test_the_size_rule_reads_numpy_integers_and_names_its_argument():
    assert ns.parse_size(np.int64(5)) == 5 and type(ns.parse_size(np.int16(5))) is int
    for bad in (np.bool_(True), np.float64(2.5), 0, None):
        message = f"^expected a positive integer, got {re.escape(repr(bad))}$"
        with pytest.raises(ns.ConfigError, match=message):
            ns.parse_size(bad)
    with pytest.raises(ns.ConfigError, match="^count must be a positive integer, got 0$"):
        ns.parse_size(0, "count")
