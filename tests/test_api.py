"""The package's public names."""

import ast
import inspect

import concmeter


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
