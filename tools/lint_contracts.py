#!/usr/bin/env python3
"""Domain contract linter: static checks for repo-specific invariants.

The runtime layers (ParanoidChecker, the equivalence suite, the fault
soak) only catch a broken contract when a test happens to exercise it.
This linter enforces the contracts at source level, with file:line
diagnostics, so CI fails the moment a PR breaks one:

  reference-twin   every optimized lcf_* scheduler registered in
                   core::make_scheduler has a *_reference twin that is
                   registered, enumerated by reference_scheduler_names(),
                   pinned in tests/test_sched_equivalence.cpp, and
                   documented in docs/performance.md; and every name in
                   core::scheduler_names() is pinned, either by such a
                   twin or by a digest entry in
                   tests/test_sched_golden.cpp.
  sched-docs       every name in core::scheduler_names() is documented in
                   docs/algorithms.md.
  config-surface   every SimConfig field is documented in
                   docs/simulator.md and exposed as a --flag by the
                   flagship CLI (examples/latency_sweep.cpp); every
                   FaultPlan field is documented in docs/clint.md.
  rng-discipline   no rand()/srand()/std::random_device outside
                   src/util/ — all randomness flows through util::rng's
                   seeded, draw-order-disciplined streams.
  fault-encapsulation
                   nothing under src/ outside src/fault/ calls
                   host_up( or extra_ber( through -> or . member access
                   — simulators read host liveness from
                   FaultInjector::down_hosts() and corruption odds from
                   FaultInjector::corruption_probability().
  bench-baseline   committed BENCH_*.json baselines were recorded from a
                   Release build.

Exit status: 0 clean, 1 when any contract is violated, 2 on usage error.

`--self-test` runs the linter against synthetic fixture trees with one
seeded violation per rule and verifies each is reported (with a
file:line prefix); it is wired into ctest as contract_lint_selftest.

Adding a rule: write a `check_<name>(root) -> list[Finding]` function,
add it to CHECKS, and extend self_test() with a fixture that trips it.
See docs/static-analysis.md.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import re
import sys
import tempfile
from typing import Callable, NamedTuple


class Finding(NamedTuple):
    path: pathlib.Path
    line: int  # 1-based; 0 when the finding is about a whole file
    rule: str
    message: str

    def render(self, root: pathlib.Path) -> str:
        try:
            shown = self.path.resolve().relative_to(root.resolve())
        except ValueError:
            shown = self.path
        return f"{shown}:{max(self.line, 1)}: [{self.rule}] {self.message}"


def _read(path: pathlib.Path) -> str:
    return path.read_text(encoding="utf-8")


def _line_of(text: str, needle: str, default: int = 1) -> int:
    """1-based line of the first occurrence of `needle` in `text`."""
    at = text.find(needle)
    if at < 0:
        return default
    return text.count("\n", 0, at) + 1


# ---------------------------------------------------------------------------
# reference-twin + sched-docs
# ---------------------------------------------------------------------------

_FACTORY = pathlib.Path("src/core/factory.cpp")
_EQUIVALENCE = pathlib.Path("tests/test_sched_equivalence.cpp")
_GOLDEN = pathlib.Path("tests/test_sched_golden.cpp")
_ALGO_DOCS = pathlib.Path("docs/algorithms.md")
_PERF_DOCS = pathlib.Path("docs/performance.md")

# Optimized scheduler families that promise a bit-identical per-bit
# reference twin (docs/performance.md).
_TWIN_FAMILIES = re.compile(r"^lcf_(central|dist)")


def _registered_names(factory_text: str) -> dict[str, int]:
    """Scheduler names registered via `if (name == "...")`, with lines."""
    names: dict[str, int] = {}
    for match in re.finditer(r'name\s*==\s*"([^"]+)"', factory_text):
        names.setdefault(
            match.group(1), factory_text.count("\n", 0, match.start()) + 1
        )
    return names


def _listed_in(factory_text: str, function_name: str) -> set[str]:
    """String literals inside `function_name`'s static names list."""
    match = re.search(
        r"(?<!\w)" + function_name + r"\(\)\s*{(.*?)\n}", factory_text,
        re.DOTALL,
    )
    if not match:
        return set()
    return set(re.findall(r'"([^"]+)"', match.group(1)))


def check_reference_twin(root: pathlib.Path) -> list[Finding]:
    factory_path = root / _FACTORY
    factory = _read(factory_path)
    equivalence_path = root / _EQUIVALENCE
    equivalence = _read(equivalence_path) if equivalence_path.exists() else ""
    perf_docs = (
        _read(root / _PERF_DOCS) if (root / _PERF_DOCS).exists() else ""
    )

    registered = _registered_names(factory)
    reference_list = _listed_in(factory, "reference_scheduler_names")
    findings: list[Finding] = []

    for name, line in sorted(registered.items()):
        if name.endswith("_reference"):
            base = name.removesuffix("_reference")
            if base not in registered:
                findings.append(Finding(
                    factory_path, line, "reference-twin",
                    f'twin "{name}" is registered but its base "{base}" '
                    "is not",
                ))
            continue
        if not _TWIN_FAMILIES.match(name):
            continue
        twin = name + "_reference"
        if twin not in registered:
            findings.append(Finding(
                factory_path, line, "reference-twin",
                f'optimized scheduler "{name}" has no registered '
                f'"{twin}" twin — per-bit oracles are mandatory for the '
                "lcf_* families (docs/performance.md)",
            ))
            continue
        if twin not in reference_list:
            findings.append(Finding(
                factory_path, registered[twin], "reference-twin",
                f'"{twin}" is registered but missing from '
                "reference_scheduler_names() — the equivalence suite "
                "enumerates twins through that list",
            ))
        if f'"{name}"' not in equivalence:
            findings.append(Finding(
                equivalence_path, 1, "reference-twin",
                f'"{name}" is not pinned in the SchedEquivalence suite — '
                "add it to the INSTANTIATE_TEST_SUITE_P value list",
            ))
        if perf_docs and name not in perf_docs:
            findings.append(Finding(
                root / _PERF_DOCS, 1, "reference-twin",
                f'optimized scheduler "{name}" is not documented in '
                f"{_PERF_DOCS}",
            ))

    # Every enumerated scheduler needs an oracle: a twin pinned in the
    # equivalence suite, or golden digests ({"name", ...} table rows).
    golden_path = root / _GOLDEN
    golden = _read(golden_path) if golden_path.exists() else ""
    for name in sorted(_listed_in(factory, "scheduler_names")):
        twin_pinned = (name + "_reference" in registered
                       and f'"{name}"' in equivalence)
        if twin_pinned or re.search(r'{\s*"' + re.escape(name) + r'"\s*,',
                                    golden):
            continue
        findings.append(Finding(
            factory_path, _line_of(factory, f'"{name}"'), "reference-twin",
            f'scheduler "{name}" has no pin — add golden digests to '
            f"{_GOLDEN} or a *_reference twin pinned in {_EQUIVALENCE}",
        ))
    return findings


def check_sched_docs(root: pathlib.Path) -> list[Finding]:
    factory_path = root / _FACTORY
    factory = _read(factory_path)
    docs_path = root / _ALGO_DOCS
    docs = _read(docs_path) if docs_path.exists() else ""
    findings: list[Finding] = []
    for name in sorted(_listed_in(factory, "scheduler_names")):
        if name not in docs:
            findings.append(Finding(
                factory_path, _line_of(factory, f'"{name}"'), "sched-docs",
                f'scheduler "{name}" is enumerated by scheduler_names() '
                f"but not documented in {_ALGO_DOCS}",
            ))
    return findings


# ---------------------------------------------------------------------------
# config-surface
# ---------------------------------------------------------------------------

_SIM_CONFIG = pathlib.Path("src/sim/switch_sim.hpp")
_FAULT_PLAN = pathlib.Path("src/fault/fault_plan.hpp")
_FLAGSHIP_CLI = pathlib.Path("examples/latency_sweep.cpp")
_SIM_DOCS = pathlib.Path("docs/simulator.md")
_CLINT_DOCS = pathlib.Path("docs/clint.md")

# SimConfig fields with no scalar CLI mapping; each entry must say why.
_CLI_EXEMPT = {
    "mode": "selected via the configuration name (fifo/outbuf/...)",
    "fault_plan": "structured schedule, built programmatically or via "
    "the fault_storm example's flags",
}

_FIELD_RE = re.compile(
    r"^\s*(?:[\w:]+(?:\s*<[^;=]*>)?)\s+(\w+)\s*(?:=[^;]*)?;", re.MULTILINE
)


def _struct_fields(text: str, struct_name: str,
                   path: pathlib.Path) -> list[tuple[str, int]]:
    """(field, line) pairs of a struct's data members, brace-matched."""
    match = re.search(r"struct\s+" + struct_name + r"\s*{", text)
    if not match:
        return []
    depth = 0
    start = match.end() - 1
    end = start
    for at in range(start, len(text)):
        if text[at] == "{":
            depth += 1
        elif text[at] == "}":
            depth -= 1
            if depth == 0:
                end = at
                break
    body = text[start + 1:end]
    fields = []
    for field_match in _FIELD_RE.finditer(body):
        decl = field_match.group(0).strip()
        name = field_match.group(1)
        # Skip function declarations, defaulted parameters, and constants
        # the regex can't tell apart from data members.
        if ("(" in decl or ")" in decl
                or decl.startswith(("static", "return", "using"))):
            continue
        line = (
            text.count("\n", 0, start + 1 + field_match.start(1)) + 1
        )
        fields.append((name, line))
    del path  # kept in the signature for symmetric call sites
    return fields


def check_config_surface(root: pathlib.Path) -> list[Finding]:
    findings: list[Finding] = []

    sim_path = root / _SIM_CONFIG
    sim_text = _read(sim_path)
    sim_docs = _read(root / _SIM_DOCS) if (root / _SIM_DOCS).exists() else ""
    cli_path = root / _FLAGSHIP_CLI
    cli_text = _read(cli_path) if cli_path.exists() else ""

    for field, line in _struct_fields(sim_text, "SimConfig", sim_path):
        if f"`{field}`" not in sim_docs and f"::{field}" not in sim_docs:
            findings.append(Finding(
                sim_path, line, "config-surface",
                f"SimConfig::{field} is not documented in {_SIM_DOCS} — "
                "add it to the configuration reference table",
            ))
        if field in _CLI_EXEMPT:
            continue
        flag = field.replace("_", "-")
        if f'"{flag}"' not in cli_text and f'"{field}"' not in cli_text:
            findings.append(Finding(
                sim_path, line, "config-surface",
                f"SimConfig::{field} has no --{flag} flag in "
                f"{_FLAGSHIP_CLI} (the flagship CLI must expose every "
                "scalar simulation knob)",
            ))

    fault_path = root / _FAULT_PLAN
    if fault_path.exists():
        fault_text = _read(fault_path)
        clint_docs = (
            _read(root / _CLINT_DOCS) if (root / _CLINT_DOCS).exists() else ""
        )
        for field, line in _struct_fields(fault_text, "FaultPlan", fault_path):
            if f"`{field}`" not in clint_docs:
                findings.append(Finding(
                    fault_path, line, "config-surface",
                    f"FaultPlan::{field} is not documented in "
                    f"{_CLINT_DOCS} — add it to the fault-plan field "
                    "table",
                ))
    return findings


# ---------------------------------------------------------------------------
# rng-discipline
# ---------------------------------------------------------------------------

_RNG_SCAN_DIRS = ("src", "tests", "bench", "examples", "fuzz")
_RNG_BANNED = re.compile(
    r"(?<![\w:])(?:std::)?(?:rand|srand)\s*\(|std::random_device"
)


def check_rng_discipline(root: pathlib.Path) -> list[Finding]:
    findings: list[Finding] = []
    for scan_dir in _RNG_SCAN_DIRS:
        base = root / scan_dir
        if not base.is_dir():
            continue
        for path in sorted(base.rglob("*")):
            if path.suffix not in {".cpp", ".hpp", ".h", ".cc"}:
                continue
            if (root / "src" / "util") in path.parents:
                continue  # util/ owns the RNG implementation
            for number, text in enumerate(
                _read(path).splitlines(), start=1
            ):
                code = text.split("//", 1)[0]
                if _RNG_BANNED.search(code):
                    findings.append(Finding(
                        path, number, "rng-discipline",
                        "raw rand()/srand()/std::random_device — use the "
                        "seeded streams in util/rng.hpp so runs stay "
                        "deterministic and draw-order stable",
                    ))
    return findings


# ---------------------------------------------------------------------------
# fault-encapsulation
# ---------------------------------------------------------------------------

_FAULT_BANNED = re.compile(r"(->|\.)\s*(host_up|extra_ber)\s*\(")


def check_fault_encapsulation(root: pathlib.Path) -> list[Finding]:
    findings: list[Finding] = []
    base = root / "src"
    if not base.is_dir():
        return findings
    for path in sorted(base.rglob("*")):
        if path.suffix not in {".cpp", ".hpp", ".h", ".cc"}:
            continue
        if (root / "src" / "fault") in path.parents:
            continue  # fault/ owns liveness and the corruption formula
        for number, text in enumerate(_read(path).splitlines(), start=1):
            match = _FAULT_BANNED.search(text.split("//", 1)[0])
            if match:
                findings.append(Finding(
                    path, number, "fault-encapsulation",
                    f"{match.group(1)}{match.group(2)}() outside "
                    "src/fault/ — read liveness from "
                    "FaultInjector::down_hosts()/crashed() and corruption "
                    "odds from FaultInjector::corruption_probability()",
                ))
    return findings


# ---------------------------------------------------------------------------
# bench-baseline
# ---------------------------------------------------------------------------


def check_bench_baseline(root: pathlib.Path) -> list[Finding]:
    findings: list[Finding] = []
    for path in sorted(root.glob("BENCH_*.json")):
        try:
            build_type = json.loads(_read(path)).get("build_type")
        except (json.JSONDecodeError, OSError) as error:
            findings.append(Finding(
                path, 1, "bench-baseline", f"unreadable baseline: {error}"
            ))
            continue
        if build_type != "Release":
            findings.append(Finding(
                path, _line_of(_read(path), "build_type"), "bench-baseline",
                f'build_type is "{build_type}" — perf baselines must be '
                "recorded from a Release build "
                "(tools/make_bench_baseline.py)",
            ))
    return findings


CHECKS: dict[str, Callable[[pathlib.Path], list[Finding]]] = {
    "reference-twin": check_reference_twin,
    "sched-docs": check_sched_docs,
    "config-surface": check_config_surface,
    "rng-discipline": check_rng_discipline,
    "fault-encapsulation": check_fault_encapsulation,
    "bench-baseline": check_bench_baseline,
}


def run_checks(root: pathlib.Path) -> list[Finding]:
    findings: list[Finding] = []
    for check in CHECKS.values():
        findings.extend(check(root))
    return findings


# ---------------------------------------------------------------------------
# self-test fixtures: one seeded violation per rule
# ---------------------------------------------------------------------------

_FIXTURE_FACTORY_BAD = """\
namespace lcf::core {
std::unique_ptr<sched::Scheduler> make_scheduler(std::string_view name) {
    if (name == "lcf_central") return nullptr;
    if (name == "islip") return nullptr;
    throw std::invalid_argument("unknown");
}
const std::vector<std::string>& reference_scheduler_names() {
    static const std::vector<std::string> names = {};
    return names;
}
const std::vector<std::string>& scheduler_names() {
    static const std::vector<std::string> names = {"lcf_central", "islip"};
    return names;
}
}
"""

_FIXTURE_SIM_CONFIG = """\
namespace lcf::sim {
struct SimConfig {
    std::size_t ports = 16;
    std::uint64_t mystery_knob = 7;
};
}
"""


def _expect(condition: bool, what: str, failures: list[str]) -> None:
    if not condition:
        failures.append(what)


def self_test() -> int:
    failures: list[str] = []
    with tempfile.TemporaryDirectory(prefix="lint_contracts_") as tmp:
        root = pathlib.Path(tmp)
        (root / "src/core").mkdir(parents=True)
        (root / "src/sim").mkdir(parents=True)
        (root / "src/sched").mkdir(parents=True)
        (root / "tests").mkdir()
        (root / "docs").mkdir()

        (root / _FACTORY).write_text(_FIXTURE_FACTORY_BAD)
        (root / _EQUIVALENCE).write_text("// no pins here\n")
        (root / _ALGO_DOCS).write_text("# algorithms\n\nonly islip here\n")
        (root / _PERF_DOCS).write_text("# perf\n")
        (root / _SIM_CONFIG).write_text(_FIXTURE_SIM_CONFIG)
        (root / _SIM_DOCS).write_text("# sim\n\n`ports` is documented\n")
        (root / _FLAGSHIP_CLI).parent.mkdir(parents=True, exist_ok=True)
        (root / _FLAGSHIP_CLI).write_text('cli.flag("ports", "...", &p);\n')
        (root / "src/sched/bad_rng.cpp").write_text(
            "#include <random>\n"
            "int draw() { std::random_device rd; return rand(); }\n"
        )
        (root / "src/sim/bad_fault.cpp").write_text(
            "double odds(const Injector& inj) {\n"
            "    return p * inj->extra_ber(kData, 0, slot);\n"
            "}\n"
            "double member_odds() {\n"
            "    return p * injector_.extra_ber(kData, 0, slot);\n"
            "}\n"
        )
        (root / "src/fault").mkdir()
        (root / "src/fault/injector.cpp").write_text(
            "bool up = this->host_up(0, 1);\n"
            "double ber = injector_.extra_ber(kAck, 0, 1);\n"
        )
        (root / "BENCH_debug.json").write_text(
            json.dumps({"build_type": "Debug", "results": []})
        )

        findings = run_checks(root)
        by_rule: dict[str, list[Finding]] = {}
        for finding in findings:
            by_rule.setdefault(finding.rule, []).append(finding)

        twin = by_rule.get("reference-twin", [])
        _expect(
            any('"lcf_central"' in f.message and f.line == 3 for f in twin),
            "reference-twin: missing twin for lcf_central at factory.cpp:3",
            failures,
        )
        _expect(
            any('"islip" has no pin' in f.message and f.line == 4
                for f in twin),
            "reference-twin: unpinned islip at factory.cpp:4",
            failures,
        )
        _expect(
            any("sched-docs" == f.rule and "lcf_central" in f.message
                for f in findings),
            "sched-docs: lcf_central missing from algorithms docs",
            failures,
        )
        surface = by_rule.get("config-surface", [])
        _expect(
            any("mystery_knob" in f.message and "documented" in f.message
                for f in surface),
            "config-surface: undocumented SimConfig field",
            failures,
        )
        _expect(
            any("--mystery-knob" in f.message for f in surface),
            "config-surface: missing CLI flag",
            failures,
        )
        rng = by_rule.get("rng-discipline", [])
        _expect(
            any(f.path.name == "bad_rng.cpp" and f.line == 2 for f in rng),
            "rng-discipline: bad_rng.cpp:2",
            failures,
        )
        fault = by_rule.get("fault-encapsulation", [])
        _expect(
            [(f.path.name, f.line) for f in fault]
            == [("bad_fault.cpp", 2), ("bad_fault.cpp", 5)],
            "fault-encapsulation: only bad_fault.cpp:2 (->) and :5 (.), "
            "src/fault/ exempt",
            failures,
        )
        _expect(
            any(f.rule == "bench-baseline" for f in findings),
            "bench-baseline: Debug baseline rejected",
            failures,
        )
        # Every reported finding must carry a parseable file:line prefix.
        _expect(
            all(re.match(r"^[^:]+:\d+: \[[\w-]+\] ", f.render(root))
                for f in findings),
            "all findings have file:line: [rule] prefixes",
            failures,
        )

        # A clean fixture must produce no findings: repair everything and
        # re-run.
        (root / _FACTORY).write_text(
            _FIXTURE_FACTORY_BAD.replace(
                '    if (name == "islip") return nullptr;\n',
                '    if (name == "islip") return nullptr;\n'
                '    if (name == "lcf_central_reference") return nullptr;\n',
            ).replace(
                "names = {};",
                'names = {"lcf_central_reference"};',
            )
        )
        (root / _EQUIVALENCE).write_text('Values("lcf_central")\n')
        (root / _GOLDEN).write_text('{"islip", 16, 16, 4, 0x0ULL},\n')
        (root / _ALGO_DOCS).write_text("covers lcf_central and islip\n")
        (root / _PERF_DOCS).write_text("lcf_central twin story\n")
        (root / _SIM_DOCS).write_text("`ports` and `mystery_knob`\n")
        (root / _FLAGSHIP_CLI).write_text(
            'cli.flag("ports", ...).flag("mystery-knob", ...);\n'
        )
        (root / "src/sched/bad_rng.cpp").write_text(
            "// rand() only in this comment\nint draw();\n"
        )
        (root / "src/sim/bad_fault.cpp").write_text(
            "// inj->extra_ber( and injector_.extra_ber( only in this "
            "comment\n"
            "double odds() {\n"
            "    return injector_.corruption_probability(p, kData, 0, s, 64);\n"
            "}\n"
        )
        (root / "BENCH_debug.json").write_text(
            json.dumps({"build_type": "Release", "results": []})
        )
        leftover = run_checks(root)
        _expect(
            leftover == [],
            "clean fixture yields no findings, got: "
            + "; ".join(f.render(root) for f in leftover),
            failures,
        )

    if failures:
        print("lint_contracts self-test FAILED:", file=sys.stderr)
        for failure in failures:
            print(f"  - {failure}", file=sys.stderr)
        return 1
    print(f"lint_contracts self-test OK ({len(CHECKS)} rules exercised)")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(
        description="Domain contract linter (see docs/static-analysis.md)"
    )
    parser.add_argument(
        "--root",
        type=pathlib.Path,
        default=pathlib.Path(__file__).resolve().parent.parent,
        help="repository root to lint (default: inferred from this script)",
    )
    parser.add_argument(
        "--self-test",
        action="store_true",
        help="verify each rule fires on a seeded-violation fixture tree",
    )
    args = parser.parse_args()

    if args.self_test:
        return self_test()

    if not (args.root / _FACTORY).exists():
        print(
            f"lint_contracts: {args.root} does not look like the repo root "
            f"(missing {_FACTORY})",
            file=sys.stderr,
        )
        return 2

    findings = run_checks(args.root)
    for finding in findings:
        print(finding.render(args.root))
    if findings:
        print(
            f"lint_contracts: {len(findings)} contract violation(s)",
            file=sys.stderr,
        )
        return 1
    print(f"lint_contracts: clean ({len(CHECKS)} rules)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
