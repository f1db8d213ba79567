"""Tests for the determinism/aliasing static-analysis suite (`dnn-life lint`).

Every rule is exercised with a paired (violating, clean) fixture, plus the
engine-level behaviors the CI lane depends on: per-line suppression, the
stable JSON schema, exit codes of the CLI verb, and the self-cleanliness of
the shipped source tree.
"""

import json

import pytest

from repro.cli import main
from repro.devtools.lint import (
    ALL_RULES,
    JSON_SCHEMA_VERSION,
    LintEngine,
    RULES_BY_CODE,
    run_lint,
    suppressed_codes,
)

EXPECTED_CODES = ("DL001", "DL002", "DL003", "DL004", "DL005", "DL006")


def codes_of(source, rel=None):
    """Lint one source string and return the finding codes, in order."""
    findings = LintEngine().lint_source(source, path="<fixture>",
                                        rel=rel or "<fixture>")
    return [finding.code for finding in findings]


class TestRuleCatalog:
    def test_all_rules_registered_with_stable_codes(self):
        assert tuple(rule.code for rule in ALL_RULES) == EXPECTED_CODES
        for code in EXPECTED_CODES:
            rule = RULES_BY_CODE[code]
            assert rule.name
            assert rule.summary

    def test_findings_carry_location_and_render(self):
        findings = LintEngine().lint_source(
            "import numpy as np\nx = np.random.rand(3)\n", path="mod.py")
        assert len(findings) == 1
        finding = findings[0]
        assert finding.code == "DL001"
        assert finding.line == 2
        assert finding.render().startswith("mod.py:2:")
        payload = finding.to_payload()
        assert set(payload) == {"code", "path", "line", "col", "message"}


class TestNoGlobalRng:
    def test_flags_numpy_global_draw(self):
        assert codes_of("import numpy as np\nx = np.random.rand(3)\n") == ["DL001"]

    def test_flags_global_seed_call(self):
        assert codes_of("import numpy as np\nnp.random.seed(0)\n") == ["DL001"]

    def test_flags_stdlib_global_draw(self):
        assert codes_of("import random\nx = random.random()\n") == ["DL001"]

    def test_allows_seeded_generator_construction(self):
        assert codes_of("import numpy as np\n"
                        "rng = np.random.default_rng(0)\n"
                        "x = rng.random(3)\n") == []
        assert codes_of("import random\nr = random.Random(0)\n") == []

    def test_rng_funnel_module_is_exempt(self):
        source = "import numpy as np\nx = np.random.rand(3)\n"
        assert codes_of(source, rel="repro/utils/rng.py") == []
        assert codes_of(source, rel="repro/core/other.py") == ["DL001"]


class TestNoWallclockSeed:
    def test_flags_time_time(self):
        assert codes_of("import time\nseed = int(time.time())\n") == ["DL002"]

    def test_flags_datetime_now_through_from_import(self):
        assert codes_of("from datetime import datetime\n"
                        "stamp = datetime.now()\n") == ["DL002"]

    def test_allows_perf_counter_timing(self):
        assert codes_of("import time\nstart = time.perf_counter()\n") == []


class TestNarrowDtypeReduction:
    BAD_METHOD = ("from repro.quantization.bitops import unpack_bits\n"
                  "def f(words):\n"
                  "    bits = unpack_bits(words, 8)\n"
                  "    return bits.sum()\n")
    BAD_NPSUM = ("import numpy as np\n"
                 "from repro.quantization.bitops import unpack_bits\n"
                 "def f(words):\n"
                 "    bits = unpack_bits(words, 8)\n"
                 "    return np.sum(bits)\n")
    GOOD = ("import numpy as np\n"
            "from repro.quantization.bitops import unpack_bits\n"
            "def f(words):\n"
            "    bits = unpack_bits(words, 8)\n"
            "    return bits.sum(dtype=np.int64)\n")

    def test_flags_dtypeless_method_sum(self):
        assert codes_of(self.BAD_METHOD) == ["DL003"]

    def test_flags_dtypeless_np_sum(self):
        assert codes_of(self.BAD_NPSUM) == ["DL003"]

    def test_explicit_dtype_is_clean(self):
        assert codes_of(self.GOOD) == []

    def test_wide_arrays_are_not_flagged(self):
        assert codes_of("import numpy as np\n"
                        "def f():\n"
                        "    x = np.zeros(4)\n"
                        "    return x.sum()\n") == []


class TestCachedBufferMutation:
    def test_flags_subscript_augassign_on_packed_bits(self):
        assert codes_of(
            "def f(stream):\n"
            "    packed = stream.packed_bits()\n"
            "    packed.bits[0] += 1\n") == ["DL004"]

    def test_flags_writes_through_a_built_stream(self):
        for factory in ("build_workload_stream", "synthetic_weight_stream",
                        "PackedBitTensor.from_stream"):
            assert codes_of(f"def f(*args):\n"
                            f"    stream = {factory}(*args)\n"
                            f"    stream.bits[0] = 1\n") == ["DL004"], factory

    def test_flags_augassign_on_cached_reduction(self):
        assert codes_of("def f(packed):\n"
                        "    ones = packed.rows_ones()\n"
                        "    ones += 1\n") == ["DL004"]

    def test_flags_out_kwarg_targeting_cached(self):
        assert codes_of("import numpy as np\n"
                        "def f(packed):\n"
                        "    np.add(packed.rows_ones(), 1, "
                        "out=packed.rows_ones())\n") == ["DL004"]

    def test_flags_reenabling_writes(self):
        assert codes_of(
            "def f(stream):\n"
            "    packed = stream.packed_bits()\n"
            "    packed.bits.setflags(write=True)\n") == ["DL004"]

    def test_freezing_and_copies_are_clean(self):
        assert codes_of(
            "def f(stream):\n"
            "    packed = stream.packed_bits()\n"
            "    packed.bits.setflags(write=False)\n") == []
        assert codes_of("def f(packed):\n"
                        "    ones = packed.rows_ones().copy()\n"
                        "    ones += 1\n") == []


class TestUnorderedPayloadIteration:
    def test_flags_set_iteration_in_to_payload(self):
        assert codes_of("class T:\n"
                        "    def to_payload(self):\n"
                        "        names = {'b', 'a'}\n"
                        "        return [n for n in names]\n") == ["DL005"]

    def test_flags_nonliteral_dict_keys(self):
        assert codes_of("class T:\n"
                        "    def to_payload(self, mapping):\n"
                        "        return [k for k in mapping.keys()]\n") == ["DL005"]

    def test_sorted_wrapper_is_clean(self):
        assert codes_of("class T:\n"
                        "    def to_payload(self):\n"
                        "        names = {'b', 'a'}\n"
                        "        return [n for n in sorted(names)]\n") == []

    def test_literal_dict_keys_are_clean(self):
        assert codes_of("class T:\n"
                        "    def to_payload(self):\n"
                        "        d = {'a': 1, 'b': 2}\n"
                        "        return [k for k in d.keys()]\n") == []

    def test_only_payload_methods_are_checked(self):
        assert codes_of("class T:\n"
                        "    def helper(self):\n"
                        "        names = {'b', 'a'}\n"
                        "        return [n for n in names]\n") == []


class TestFloatEquality:
    def test_flags_float_equality(self):
        assert codes_of("def f(x: float):\n    return x == 1.0\n") == ["DL006"]

    def test_integer_equality_is_clean(self):
        assert codes_of("def f(count: int):\n    return count == 1\n") == []

    def test_allowlisted_bit_exactness_module_is_exempt(self):
        source = "def f(x: float):\n    return x == 1.0\n"
        assert codes_of(source, rel="repro/core/simulation.py") == []
        assert codes_of(source, rel="repro/core/encoder.py") == ["DL006"]


class TestSuppression:
    def test_parse_suppression_comment(self):
        assert suppressed_codes("x = 1  # dnn-lint: disable=DL002") == {"DL002"}
        assert suppressed_codes("x = 1  # dnn-lint: disable=DL002, DL006") == {
            "DL002", "DL006"}
        assert suppressed_codes("x = 1  # dnn-lint: disable=all") == {"all"}
        assert suppressed_codes("x = 1  # a plain comment") is None

    def test_suppressed_finding_is_dropped_and_counted(self, tmp_path):
        (tmp_path / "mod.py").write_text(
            "import time\n"
            "stamp = time.time()  # dnn-lint: disable=DL002\n")
        report = run_lint(paths=[str(tmp_path)], root=str(tmp_path))
        assert report.clean
        assert report.suppressed == 1

    def test_suppression_of_other_code_does_not_mask(self, tmp_path):
        (tmp_path / "mod.py").write_text(
            "import time\n"
            "stamp = time.time()  # dnn-lint: disable=DL006\n")
        report = run_lint(paths=[str(tmp_path)], root=str(tmp_path))
        assert [f.code for f in report.findings] == ["DL002"]
        assert report.suppressed == 0

    def test_disable_all_suppresses_every_rule(self, tmp_path):
        (tmp_path / "mod.py").write_text(
            "import numpy as np\n"
            "x = np.random.rand(3)  # dnn-lint: disable=all\n")
        report = run_lint(paths=[str(tmp_path)], root=str(tmp_path))
        assert report.clean
        assert report.suppressed == 1


class TestEngineReports:
    def test_json_payload_schema(self, tmp_path):
        (tmp_path / "mod.py").write_text("import time\nstamp = time.time()\n")
        report = run_lint(paths=[str(tmp_path)], root=str(tmp_path))
        payload = report.to_payload()
        assert set(payload) == {"version", "root", "files_checked", "clean",
                                "suppressed", "counts", "findings", "errors"}
        assert payload["version"] == JSON_SCHEMA_VERSION
        assert payload["clean"] is False
        assert payload["counts"] == {"DL002": 1}
        (finding,) = payload["findings"]
        assert set(finding) == {"code", "path", "line", "col", "message"}
        assert finding["path"] == "mod.py"

    def test_syntax_errors_are_reported_not_raised(self, tmp_path):
        (tmp_path / "broken.py").write_text("def f(:\n")
        report = run_lint(paths=[str(tmp_path)], root=str(tmp_path))
        assert not report.clean
        assert report.errors and "syntax error" in report.errors[0]

    def test_findings_sorted_by_location(self, tmp_path):
        (tmp_path / "b.py").write_text("import time\nstamp = time.time()\n")
        (tmp_path / "a.py").write_text(
            "import numpy as np\n"
            "np.random.seed(0)\n"
            "x = np.random.rand(3)\n")
        report = run_lint(paths=[str(tmp_path)], root=str(tmp_path))
        locations = [(f.path, f.line) for f in report.findings]
        assert locations == sorted(locations)

    def test_text_report_footer(self, tmp_path):
        (tmp_path / "mod.py").write_text("x = 1\n")
        report = run_lint(paths=[str(tmp_path)], root=str(tmp_path))
        assert "dnn-life lint: clean across 1 file(s)" in report.render_text()


class TestShippedTreeIsClean:
    def test_lint_runs_clean_on_shipped_sources(self):
        report = run_lint()
        assert report.files_checked > 50
        rendered = "\n".join(f.render() for f in report.findings)
        assert report.clean, f"shipped sources must lint clean:\n{rendered}"


class TestLintCli:
    def test_clean_tree_exits_zero(self, tmp_path, capsys):
        (tmp_path / "mod.py").write_text("x = 1\n")
        assert main(["lint", str(tmp_path), "--root", str(tmp_path)]) == 0
        assert "clean" in capsys.readouterr().out

    def test_findings_exit_two(self, tmp_path, capsys):
        (tmp_path / "mod.py").write_text("import time\nstamp = time.time()\n")
        assert main(["lint", str(tmp_path), "--root", str(tmp_path)]) == 2
        out = capsys.readouterr().out
        assert "DL002" in out
        assert "mod.py:2:" in out

    def test_json_format_round_trips(self, tmp_path, capsys):
        (tmp_path / "mod.py").write_text("import time\nstamp = time.time()\n")
        assert main(["lint", str(tmp_path), "--root", str(tmp_path),
                     "--format", "json"]) == 2
        payload = json.loads(capsys.readouterr().out)
        assert payload["version"] == JSON_SCHEMA_VERSION
        assert payload["counts"] == {"DL002": 1}

    def test_list_prints_rule_catalog(self, capsys):
        assert main(["lint", "--list"]) == 0
        out = capsys.readouterr().out
        for code in EXPECTED_CODES:
            assert code in out

    def test_shipped_sources_through_cli(self, capsys):
        assert main(["lint"]) == 0
        assert "clean" in capsys.readouterr().out
