"""The simulation path imports no third-party package.

numpy and networkx serve the analysis layer only (rank fits, CDFs,
overlay-graph metrics), and together they are over half of a bare
``import repro``'s memory and start-up time.  Every process that only
simulates — a sweep cell, a benchmark rep, a CLI call — would pay for
them for nothing, so they are imported inside the functions that call
them.  This test runs the CLI and obs imports, a tiny session and a
one-day campaign with its rendered Figure 6 in a clean interpreter,
then checks that neither package was loaded.
"""

import subprocess
import sys
from pathlib import Path

SRC = str(Path(__file__).resolve().parent.parent / "src")

ANALYSIS_ONLY = ("numpy", "networkx")

_CHILD = """
import sys
sys.path.insert(0, sys.argv[1])
import repro, repro.cli, repro.obs
from repro import (CampaignConfig, Popularity, ScenarioConfig,
                   SessionScenario, popular_channel_mix, run_campaign)
from repro.experiments.fig06 import Figure6
from repro.workload import TELE_PROBE

session = SessionScenario(ScenarioConfig(
    seed=3, population=8, mix=popular_channel_mix(),
    popularity=Popularity.POPULAR, probes=(TELE_PROBE,),
    warmup=20.0, duration=30.0)).run()
assert session.probe().report.data, "probe matched no data"
campaign = run_campaign(CampaignConfig(
    seed=11, days=1, popular_population=6, unpopular_population=4,
    session_duration=30.0, warmup=20.0))
assert "Figure 6" in Figure6(result=campaign).render()
print(" ".join(sorted(m for m in sys.argv[2:] if m in sys.modules)))
"""


def test_simulation_path_leaves_analysis_packages_unloaded():
    completed = subprocess.run(
        [sys.executable, "-c", _CHILD, SRC, *ANALYSIS_ONLY],
        capture_output=True, text=True, timeout=300)
    assert completed.returncode == 0, completed.stderr
    loaded = completed.stdout.split()
    assert loaded == [], (
        f"{loaded} imported on the simulation path; import them inside "
        f"the analysis functions that call them")

