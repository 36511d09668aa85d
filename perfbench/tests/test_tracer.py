import sys

import darcat  # noqa: F401  (loads every darcat module)
from darcat import cli, core, glm

import tracer
import workloads


def bindings():
    """Identity of every value in darcat's module namespaces, their dicts and their classes."""
    out = {}
    for name, mod in sys.modules.items():
        if mod is None or name.split(".")[0] != "darcat":
            continue
        for key, value in list(vars(mod).items()):
            out[(name, key)] = id(value)
            if type(value) is dict:
                for k2, v2 in list(value.items()):
                    out[(name, key, k2)] = id(v2)
            if isinstance(value, type):
                for k2, v2 in list(vars(value).items()):
                    out[(name, key, "class", k2)] = id(v2)
    return out


def test_install_rebinds_every_binding_and_restore_puts_all_back():
    before = bindings()
    originals = (cli.estimate_alpha_mle_gapped, glm._FITTERS["ordinal"], vars(core.CatSeries)["__post_init__"])
    tr = tracer.Tracer().install()
    try:
        assert tr.absent == []
        assert cli.estimate_alpha_mle_gapped.__wrapped__ is originals[0]
        assert darcat.estimate.estimate_alpha_mle_gapped is cli.estimate_alpha_mle_gapped
        assert glm._FITTERS["ordinal"].__wrapped__ is originals[1]
        assert glm.fit_proportional_odds is glm._FITTERS["ordinal"]
        assert vars(core.CatSeries)["__post_init__"].__wrapped__ is originals[2]
        assert darcat.parse_series is core.parse_series is cli.parse_series
        assert bindings() != before
    finally:
        tr.restore()
    assert bindings() == before


def test_spans_counts_and_self_time(tmp_path):
    states = tmp_path / "states.txt"
    states.write_text("a\nb\nc\n")
    data = tmp_path / "s.csv"
    cells = ["a", "a", "b", "NA", "c", "c", "a", "NA", "NA", "b", "b", "c", "a", "a"] * 5
    data.write_text("t,value\n" + "".join(f"{t},{v}\n" for t, v in enumerate(cells)))
    tr = tracer.Tracer().install()
    try:
        tr.op = 0
        rc, _ = workloads.run_cli(["fit-dar", str(data), "--states", str(states), "--format", "csv"])
        tr.op = 1
        rc2, _ = workloads.run_cli(["fit-glm", str(data), "--states", str(states), "--format", "csv"])
    finally:
        tr.restore()
    assert rc == rc2 == 0
    m = tr.metrics({0: 0, 1: 0}, [0])
    assert m["cli.main.calls"] == 2
    assert m["core.parse_series.calls"] == 2 and m["core.parse_series.rows"] == 2 * len(cells)
    assert m["estimate.estimate_alpha_mle_gapped.calls"] == 1
    assert m["estimate.estimate_alpha_mle_gapped.pairs"] == sum(c != "NA" for c in cells) - 1
    assert m["estimate.estimate_alpha_mle.calls"] == 0
    assert m["glm.fit_multinomial.calls"] == m["glm.fit_proportional_odds.calls"] == 3
    assert 0.0 <= m["glm.fit_multinomial.failed_ratio"] <= 1.0
    spans = tr.spans
    names = [tr.layers[s[0]].name for s in spans]
    main_idx = [i for i, n in enumerate(names) if n == "cli.main"]
    assert all(spans[i][4] == -1 for i in main_idx)  # top level
    assert all(s[4] >= 0 for s in spans if tr.layers[s[0]].name != "cli.main")
    total = sum(spans[i][2] - spans[i][1] for i in main_idx)
    self_sum = sum(m[f"{layer.name}.self_s"] for layer in tr.layers if "self_s" in layer.stats)
    assert 0.0 < self_sum <= total * 1.001


def test_missing_layer_is_reported_absent():
    layers = tracer.LAYERS + (
        tracer.Layer("core.gone", "core", "no_such_function", ("calls",)),
        tracer.Layer("nomodule.f", "nomodule", "f", ("calls",)),
    )
    tr = tracer.Tracer(layers).install()
    tr.restore()
    assert tr.absent == ["core.gone", "nomodule.f"]
    assert tr.metrics({}, [0])["core.gone.calls"] == 0
