"""Cold start of the in-process service: ``python perfbench/setup_probe.py``.

Imports the activity service and the 2PC model, builds an
``ActivityManager`` and prints ``ready``: the work a fresh process does
before its first activity.  The caller times the process from spawn to
that line.
"""

from repro.core import ActivityManager
from repro.models import TwoPhaseCommitSignalSet, TwoPhaseParticipant  # noqa: F401

if __name__ == "__main__":
    ActivityManager()
    print("ready", flush=True)
