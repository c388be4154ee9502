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
