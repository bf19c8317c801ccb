"""Positive/negative fixtures for every lint rule family R1-R5.

Each fixture is linted through a *virtual* path (`lint_source`/
`lint_sources`), which flows through the same `applies_to` routing as real
files — so these tests pin both the detection logic and the path scoping.
Rule codes are passed explicitly so one family's fixture cannot trip
another family's rule.
"""

from pathlib import Path

from repro.lint import lint_paths, lint_source, lint_sources

KERNELS = "src/repro/core/kernels.py"
ENERGY = "src/repro/energy/model.py"


def codes(findings):
    return [f.code for f in findings]


class TestR1DtypeDiscipline:
    def test_default_dtype_allocator_flagged(self):
        src = "import numpy as np\nbuf = np.zeros(4)\n"
        (f,) = lint_source(src, KERNELS, codes=["R1"])
        assert f.code == "R1" and "dtype" in f.message

    def test_true_division_flagged(self):
        src = "def mean(total, n):\n    return total / n\n"
        (f,) = lint_source(src, KERNELS, codes=["R1"])
        assert "division" in f.message

    def test_float_astype_and_dtype_attr_flagged(self):
        src = ("import numpy as np\n"
              "def widen(x):\n"
              "    return x.astype(np.float64)\n")
        found = lint_source(src, KERNELS, codes=["R1"])
        # both the np.float64 attribute and the astype call are violations
        assert codes(found) == ["R1", "R1"]

    def test_string_float_dtype_flagged(self):
        src = "def widen(x):\n    return x.astype('f8')\n"
        assert codes(lint_source(src, KERNELS, codes=["R1"])) == ["R1"]

    def test_integer_idioms_pass(self):
        src = ("import numpy as np\n"
               "buf = np.zeros(4, dtype=np.int64)\n"
               "rows = -(-7 // 2)\n"
               "half = 10 // 3\n")
        assert lint_source(src, KERNELS, codes=["R1"]) == []

    def test_rule_scoped_to_kernel_modules(self):
        src = "import numpy as np\nbuf = np.zeros(4)\nr = 1 / 3\n"
        assert lint_source(src, ENERGY, codes=["R1"]) == []

    def test_line_suppression_for_intended_ratio(self):
        src = ("def occupancy(used, cap):\n"
               "    return used / cap  # repro-lint: disable-line=R1\n")
        assert lint_source(src, KERNELS, codes=["R1"]) == []


class TestR2UnitDiscipline:
    def test_unitless_energy_function_flagged(self):
        src = ("def read_energy(bits):\n"
               "    \"\"\"Energy of a read burst.\"\"\"\n"
               "    return bits\n")
        (f,) = lint_source(src, ENERGY, codes=["R2"])
        assert f.code == "R2" and f.severity == "warning"
        assert "read_energy" in f.message

    def test_inline_magnitude_literal_flagged(self):
        src = "def scale(j):\n    return j * 1e-12\n"
        (f,) = lint_source(src, ENERGY, codes=["R2"])
        assert "1e-12" in f.message and "named constant" in f.message

    def test_unit_suffix_passes(self):
        src = "def read_energy_pj(bits):\n    return bits\n"
        assert lint_source(src, ENERGY, codes=["R2"]) == []

    def test_docstring_unit_passes(self):
        src = ("def sense_delay(cycles):\n"
               "    \"\"\"Sense-amp settling delay in ns.\"\"\"\n"
               "    return cycles\n")
        assert lint_source(src, ENERGY, codes=["R2"]) == []

    def test_named_module_constant_exempt(self):
        src = "S_PER_NS = 1e-9\n"
        assert lint_source(src, ENERGY, codes=["R2"]) == []

    def test_constant_home_files_exempt_from_literal_check(self):
        src = "def scale(j):\n    return j * 1e-12\n"
        path = "src/repro/energy/units.py"
        assert lint_source(src, path, codes=["R2"]) == []

    def test_rule_scoped_to_energy_package(self):
        src = "x = 1e-12\ndef read_energy(b):\n    return b\n"
        assert lint_source(src, "src/repro/core/bus.py", codes=["R2"]) == []


class TestR3StatsDiscipline:
    def test_direct_counter_assignment_flagged(self):
        src = ("class PE:\n"
               "    def run(self):\n"
               "        self.stats.mac_ops = 5\n")
        (f,) = lint_source(src, "src/repro/core/mram_pe.py", codes=["R3"])
        assert f.code == "R3" and "self.stats.mac_ops" in f.message

    def test_bare_stats_name_flagged(self):
        src = "stats.array_reads = 1\n"
        assert codes(lint_source(src, "src/repro/core/bus.py",
                                 codes=["R3"])) == ["R3"]

    def test_augmented_assignment_passes(self):
        src = ("class PE:\n"
               "    def run(self):\n"
               "        self.stats.mac_ops += 5\n")
        assert lint_source(src, "src/repro/core/mram_pe.py",
                           codes=["R3"]) == []

    def test_charge_methods_may_assign(self):
        src = ("class PE:\n"
               "    def _charge_matmul_stats(self):\n"
               "        self.stats.mac_ops = 5\n")
        assert lint_source(src, "src/repro/core/mram_pe.py",
                           codes=["R3"]) == []

    def test_stats_module_itself_exempt(self):
        src = "stats.mac_ops = 5\n"
        assert lint_source(src, "src/repro/core/stats.py",
                           codes=["R3"]) == []


class TestR4Determinism:
    PATH = "src/repro/datasets/synthetic.py"

    def test_legacy_module_call_flagged(self):
        src = "import numpy as np\nx = np.random.normal(0, 1, 8)\n"
        (f,) = lint_source(src, self.PATH, codes=["R4"])
        assert "global" in f.message

    def test_argless_default_rng_flagged(self):
        src = "import numpy as np\nrng = np.random.default_rng()\n"
        (f,) = lint_source(src, self.PATH, codes=["R4"])
        assert "default_rng()" in f.message

    def test_from_import_resolved(self):
        src = "from numpy.random import rand\nx = rand(3)\n"
        assert codes(lint_source(src, self.PATH, codes=["R4"])) == ["R4"]

    def test_aliased_submodule_resolved(self):
        src = "import numpy.random as npr\nx = npr.shuffle(y)\n"
        assert codes(lint_source(src, self.PATH, codes=["R4"])) == ["R4"]

    def test_seeded_construction_passes(self):
        src = ("import numpy as np\n"
               "SEED = 0\n"
               "a = np.random.default_rng(SEED)\n"
               "b = np.random.default_rng(seed=123)\n"
               "c = np.random.Generator(np.random.PCG64(7))\n")
        assert lint_source(src, self.PATH, codes=["R4"]) == []

    def test_generator_method_calls_pass(self):
        src = ("def draw(rng):\n"
               "    return rng.normal(0.0, 1.0, size=4)\n")
        assert lint_source(src, self.PATH, codes=["R4"]) == []


class TestR4WallClockDurations:
    PATH = "src/repro/harness/table1.py"

    def test_direct_subtraction_flagged(self):
        src = ("import time\n"
               "def f(t0):\n"
               "    return time.time() - t0\n")
        (f,) = lint_source(src, self.PATH, codes=["R4"])
        assert "perf_counter" in f.message

    def test_stashed_start_time_flagged(self):
        src = ("import time\n"
               "def f():\n"
               "    t0 = time.time()\n"
               "    work()\n"
               "    return time.time() - t0\n")
        found = lint_source(src, self.PATH, codes=["R4"])
        # both the stash (line 3) and the direct subtraction (line 5)
        assert [f.line for f in found] == [3, 5]

    def test_from_import_and_module_alias_resolved(self):
        src = ("from time import time\n"
               "import time as clk\n"
               "def f():\n"
               "    start = time()\n"
               "    return clk.time() - start\n")
        assert codes(lint_source(src, self.PATH, codes=["R4"])) == \
            ["R4", "R4"]

    def test_timestamp_use_passes(self):
        src = ("import time\n"
               "def stamp():\n"
               "    return {'created_at': time.time()}\n")
        assert lint_source(src, self.PATH, codes=["R4"]) == []

    def test_perf_counter_passes(self):
        src = ("import time\n"
               "def f():\n"
               "    t0 = time.perf_counter()\n"
               "    return time.perf_counter() - t0\n")
        assert lint_source(src, self.PATH, codes=["R4"]) == []

    def test_line_suppression_honored(self):
        src = ("import time\n"
               "def f(t0):\n"
               "    return time.time() - t0"
               "  # repro-lint: disable-line=R4\n")
        assert lint_source(src, self.PATH, codes=["R4"]) == []


class TestR5KernelParity:
    TEST_PATH = "tests/test_kernels_differential.py"
    BOTH = ("def test_spmm():\n"
            "    spmm_dot(plan)\n    spmm_dot_reference(plan)\n")

    @staticmethod
    def kernels_src(oracle="def spmm_dot_reference(plan):\n    pass\n"):
        return ("def spmm_dot(plan):\n    pass\n\n\n"
                f"{oracle}\n\n"
                "def _helper(plan):\n    pass\n")

    def lint(self, kernels, test_text=BOTH):
        sources = {KERNELS: kernels}
        if test_text is not None:
            sources[self.TEST_PATH] = test_text
        return lint_sources(sources, codes=["R5"]).findings

    def test_kernel_with_tested_oracle_passes(self):
        assert self.lint(self.kernels_src()) == []

    def test_missing_oracle_flagged(self):
        (f,) = self.lint(self.kernels_src(oracle="PAD = 0\n"))
        assert "no `spmm_dot_reference` oracle" in f.message

    def test_kernel_absent_from_differential_suite_flagged(self):
        (f,) = self.lint(self.kernels_src(),
                         test_text="def test_spmm():\n"
                                   "    spmm_dot_reference(plan)\n")
        assert "`spmm_dot` never appears" in f.message

    def test_oracle_absent_from_differential_suite_flagged(self):
        (f,) = self.lint(self.kernels_src(),
                         test_text="def test_spmm():\n    spmm_dot(plan)\n")
        assert "`spmm_dot_reference` never appears" in f.message

    def test_missing_differential_suite_flagged(self):
        (f,) = self.lint(self.kernels_src(), test_text=None)
        assert "not found" in f.message

    def test_module_without_kernels_flagged(self):
        (f,) = self.lint("def _helper(plan):\n    pass\n")
        assert "no public `spmm_*` kernel" in f.message

    def test_each_kernel_judged_on_its_own(self):
        kernels = self.kernels_src() + "\n\ndef spmm_sum(plan):\n    pass\n"
        (f,) = self.lint(kernels, test_text=self.BOTH + "spmm_sum\n"
                                                      "spmm_sum_reference\n")
        assert "no `spmm_sum_reference` oracle" in f.message

    def test_real_tree_kernels_have_tested_oracles(self):
        """On disk the rule finds the differential suite above the package
        and every production kernel passes."""
        src = Path(__file__).resolve().parent.parent / "src" / "repro"
        result = lint_paths([str(src)], codes=["R5"])
        assert result.findings == []

    def test_rule_inert_without_kernels_module(self):
        result = lint_sources({"src/repro/core/bus.py": "x = 1\n"},
                              codes=["R5"])
        assert result.ok
