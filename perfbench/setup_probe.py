"""Set-up cost a user pays on every run, measured in a fresh process:
import the railchan CLI, parse the bundled preset config, load its scene.

Prints ``{"setup_s": ...}``.  ``run.py`` starts it with the same
environment as the workload process.
"""

import time

t0 = time.perf_counter()
from railchan.cli import main  # noqa: E402,F401  (the import is what is timed)
from railchan.config import load_preset  # noqa: E402

load_preset().load_scene()
elapsed = time.perf_counter() - t0

import json  # noqa: E402

print(json.dumps({"setup_s": elapsed}))
