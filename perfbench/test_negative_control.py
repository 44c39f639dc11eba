"""The benchmark's own tests: its checks must catch a wrong output.

    python3 -m pytest perfbench/test_negative_control.py
    python3 perfbench/test_negative_control.py

Each test runs the real benchmark on the matchings-cli workload with one
run (``--seconds 1``), about ten seconds each.
"""

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def bench(*args, cwd=ROOT):
    cmd = [sys.executable, str(Path(cwd) / "perfbench" / "run.py"),
           "--workload", "matchings-cli", "--seconds", "1", "--trace", "0", *args]
    proc = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, json.loads(lines[-1]) if lines else None


def test_clean_run_passes():
    code, result = bench("--seed", "0")
    assert code == 0, result
    assert result["correct"] and result["failed"] == 0
    assert result["metrics"]["pass_rate"]["value"] == 1.0


def test_flipped_byte_is_caught():
    # item 3 is `dims --n 14`; the flip must fail it under any seed
    for seed in ("0", "7"):
        code, result = bench("--seed", seed, "--corrupt-item", "3")
        assert code != 0
        assert not result["correct"] and result["failed"] >= 1
        assert result["metrics"]["pass_rate"]["value"] < 1.0  # error_rate > 0


def test_refuses_without_the_package():
    with tempfile.TemporaryDirectory(dir=HERE) as tmp:
        shutil.copy(ROOT / "BENCHMARK.json", tmp)
        shutil.copytree(HERE, Path(tmp) / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__", "tmp*"))
        code, result = bench("--seed", "0", cwd=tmp)
    assert code != 0 and result is None


if __name__ == "__main__":
    for name, fn in list(globals().items()):
        if name.startswith("test_"):
            fn()
            print(f"ok {name}")
