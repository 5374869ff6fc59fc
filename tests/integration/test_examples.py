"""Every ``examples/*.py`` script runs to completion and prints its
verdicts.

Each script runs in its own interpreter, as a reader would run it
(``PYTHONPATH=src python examples/NAME.py``), and must exit 0 and print
the lines below. A new script needs an entry here.
"""

import glob
import os
import subprocess
import sys

import pytest

import repro

from tests.helpers import EXAMPLES_DIR

#: Lines each script must print (whole lines, trailing spaces ignored).
EXPECTED = {
    "dump_pipeline.py": [
        "==== source (Clight) ====",
        "==== Asmgen (x86-SC) ====",
    ],
    "peterson_tso.py": [
        "SC, no fence                           traces=[(0, 1)]  "
        "-> mutual exclusion holds",
        "TSO, no fence                          traces=[(0, 0), (0, 1)]  "
        "-> VIOLATED — both threads read the counter as 0",
        "TSO, with mfence                       traces=[(0, 1)]  "
        "-> mutual exclusion holds",
    ],
    "quickstart.py": [
        "   Behaviour([print:7,print:14,print:0,print:1,print:2], done)",
        "  Asmgen         -> behaviours preserved: ok",
    ],
    "racy_counterexample.py": [
        "DRF: False",
        "Lem. 9 equivalence without the DRF premise: False",
        "GCorrect on a racy client: False -- premise(s) failed: drf",
    ],
    "separate_compilation.py": [
        "mixed linking (x86 module1 + Clight module2) equivalent: True",
        "fully compiled (x86 + x86) equivalent: True",
    ],
    "spinlock_tso.py": [
        "source DRF: True",
        "   conclusion: target ⊑ source",
        "TSO program DRF: False  <- the TTAS lock's benign races",
        "   premises: {'safe': True, 'drf': True, "
        "'correct_seqcomp': True}",
        "   conclusion: P_rmm ⊑′ P",
    ],
    "translation_validation.py": [
        "validating the sabotaged Renumber output:",
        "  ok: False",
    ],
}

_SCRIPTS = sorted(
    os.path.basename(p) for p in glob.glob(os.path.join(EXAMPLES_DIR, "*.py"))
)


def test_every_script_has_expectations():
    assert _SCRIPTS == sorted(EXPECTED)


@pytest.mark.parametrize("script", _SCRIPTS)
def test_script_runs(script):
    src_dir = os.path.dirname(os.path.dirname(
        os.path.abspath(repro.__file__)
    ))
    proc = subprocess.run(
        [sys.executable, os.path.join(EXAMPLES_DIR, script)],
        env=dict(os.environ, PYTHONPATH=src_dir, PYTHONIOENCODING="utf-8"),
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, timeout=300,
    )
    err = proc.stderr.decode("utf-8", "replace")
    assert proc.returncode == 0, err[-2000:]
    lines = {
        line.rstrip() for line in proc.stdout.decode("utf-8").splitlines()
    }
    missing = [want for want in EXPECTED[script] if want not in lines]
    assert not missing, missing
