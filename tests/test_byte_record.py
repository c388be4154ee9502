import importlib.util
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "byte_record.py"


def test_prints_one_digest_line_per_sample_record():
    result = subprocess.run([sys.executable, str(TOOL)], capture_output=True, text=True,
                            timeout=300, check=True)
    lines = result.stdout.splitlines()
    assert [line.split()[0] for line in lines] == [
        "readme_points_csv", "readme_s_json", "readme_s_csv", "readme_m_csv",
        "projected_r3_csv"]
    assert all(re.fullmatch(r"[a-z0-9_]+ [0-9a-f]{16}", line) for line in lines)


def test_records_every_readme_sample_example():
    tool = TOOL.read_text()
    examples = re.findall(r"^ginibre sample (.*?) -o \S+$", (ROOT / "README.md").read_text(),
                          flags=re.MULTILINE)
    assert len(examples) == 3
    assert all(f'"{args}"' in tool for args in examples)


def test_validate_records_name_the_failed_checks(monkeypatch):
    # the tool pins OPENBLAS_NUM_THREADS on import; setenv restores it after
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    spec = importlib.util.spec_from_file_location("byte_record", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    checks = [{"name": "a", "passed": True, "empirical": 0.5},
              {"name": "b_n2", "passed": False, "empirical": 0.25},
              {"name": "c_r2.0", "passed": False, "empirical": 1.0}]
    report = {"seed": 17, "runtime_seconds": 3.0, "passed": False, "checks": checks}
    lines = tool.validate_records(17, report)
    assert [line.split()[0] for line in lines] == [
        "validate_17_report", "validate_17_decisions", "validate_17_failed"]
    assert lines[2] == "validate_17_failed b_n2,c_r2.0"
    # runtime_seconds is not recorded, and a report that passes prints -
    assert tool.validate_records(17, {**report, "runtime_seconds": 9.0}) == lines
    passing = [{**c, "passed": True} for c in checks]
    assert tool.validate_records(17, {**report, "checks": passing})[2] == "validate_17_failed -"
