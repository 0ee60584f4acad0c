"""Chef engine loop tests over hand-written Clay 'interpreters'."""

import pytest

from repro.chef import Chef, ChefConfig
from repro.clay import compile_program

# A toy "interpreter": reports one HLPC per input cell, with a high-level
# branch afterwards — gives 2^4 HL paths over 4 input chars... no: the
# HLPC stream differs per branch direction, so each prefix of matches is
# its own HL path.
_TOY = """
const BUF = 1000;
fn main() {
    make_symbolic(BUF, 4, 0, 255);
    start_symbolic();
    var i = 0;
    while (i < 4) {
        log_pc(i, 7);
        if (BUF[i] == 'k') {
            log_pc(100 + i, 9);
        } else {
            log_pc(200 + i, 9);
        }
        i = i + 1;
    }
    end_symbolic();
}
"""


def _run(strategy="cupa-path", seed=0, budget=5.0, max_hl=0, source=_TOY):
    compiled = compile_program(source)
    config = ChefConfig(
        strategy=strategy, seed=seed, time_budget=budget, max_hl_paths=max_hl
    )
    return Chef(compiled.program, config).run()


class TestEngineLoop:
    def test_explores_all_high_level_paths(self):
        result = _run()
        # 4 binary high-level branches => 16 distinct HL paths.
        assert result.hl_paths == 16
        assert result.ll_paths >= 16

    def test_all_strategies_work(self):
        for strategy in ("random", "cupa-path", "cupa-cov"):
            result = _run(strategy=strategy)
            assert result.hl_paths == 16, strategy

    def test_max_hl_paths_stops_early(self):
        result = _run(max_hl=4)
        assert 4 <= result.hl_paths <= 6

    def test_test_cases_have_inputs(self):
        result = _run()
        for case in result.hl_test_cases:
            assert "b0" in case.inputs
            assert len(case.inputs["b0"]) == 4

    def test_hl_tests_unique_signatures(self):
        result = _run()
        signatures = [c.hl_path_signature for c in result.hl_test_cases]
        assert len(signatures) == len(set(signatures))

    def test_cfg_discovered(self):
        result = _run()
        assert result.cfg_nodes >= 9  # 4 loop pcs + 8 branch pcs (some shared)
        assert result.cfg_edges > 0

    def test_timeline_monotone(self):
        result = _run()
        hl_values = [hl for _t, hl, _ll in result.timeline]
        assert hl_values == sorted(hl_values)

    def test_deterministic_given_seed(self):
        a = _run(strategy="cupa-path", seed=3, max_hl=8)
        b = _run(strategy="cupa-path", seed=3, max_hl=8)
        assert a.hl_paths == b.hl_paths
        assert [c.inputs for c in a.hl_test_cases] == [c.inputs for c in b.hl_test_cases]

    def test_unknown_strategy_rejected(self):
        with pytest.raises(ValueError):
            _run(strategy="nope")

